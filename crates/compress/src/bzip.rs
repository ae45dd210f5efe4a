//! The bzip2-class codec: block sorting + move-to-front + zero-run-length + Huffman.
//!
//! Input is split into independent blocks (default 100 KiB, mirroring bzip2's block size
//! option), each transformed with the Burrows–Wheeler transform, move-to-front coded, zero-run
//! collapsed and finally Huffman coded. Each block is self-contained so decompression can
//! verify structure block by block.

use crate::bwt::{bwt_forward, bwt_inverse, BwtOutput};
use crate::huffman::{decode_block, encode_block};
use crate::mtf::{mtf_decode, mtf_encode, rle_decode, rle_encode, ZeroRle, RLE_ALPHABET};
use crate::{CompressError, Compressor};

/// Stream magic for the bzip2-class container.
const MAGIC: &[u8; 4] = b"PZB1";
/// Default block size (100 KiB — bzip2's `-1` setting, adequate for the experiment's samples).
pub const DEFAULT_BLOCK_SIZE: usize = 100 * 1024;
/// A zero-run marker and its run length cost at least a bit each and decode to at most 256
/// bytes, so no stream byte decodes to more than this many bytes.
const MAX_BYTES_PER_STREAM_BYTE: usize = 8 * 256 / 2;

/// Block-sorting compressor.
#[derive(Debug, Clone)]
pub struct BzipCompressor {
    /// Size of independently compressed blocks.
    pub block_size: usize,
}

impl Default for BzipCompressor {
    fn default() -> Self {
        BzipCompressor {
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }
}

impl BzipCompressor {
    /// Create a compressor with an explicit block size (minimum 1 KiB).
    pub fn with_block_size(block_size: usize) -> Self {
        BzipCompressor {
            block_size: block_size.max(1024),
        }
    }

    fn compress_block(block: &[u8], out: &mut Vec<u8>) {
        let bwt = bwt_forward(block);
        let mtf = mtf_encode(&bwt.data);
        let rle = rle_encode(&mtf);
        let symbol_block = encode_block(RLE_ALPHABET, &rle.symbols);
        let run_block = encode_block(256, &rle.run_lengths);

        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&bwt.primary_index.to_le_bytes());
        out.extend_from_slice(&(symbol_block.len() as u32).to_le_bytes());
        out.extend_from_slice(&(run_block.len() as u32).to_le_bytes());
        out.extend_from_slice(&symbol_block);
        out.extend_from_slice(&run_block);
    }

    fn decompress_block(input: &[u8], pos: &mut usize) -> Result<Vec<u8>, CompressError> {
        let header_end = *pos + 16;
        if header_end > input.len() {
            return Err(CompressError::new("truncated block header"));
        }
        let block_len = u32::from_le_bytes(input[*pos..*pos + 4].try_into().unwrap()) as usize;
        let primary_index = u32::from_le_bytes(input[*pos + 4..*pos + 8].try_into().unwrap());
        let symbol_len =
            u32::from_le_bytes(input[*pos + 8..*pos + 12].try_into().unwrap()) as usize;
        let run_len = u32::from_le_bytes(input[*pos + 12..*pos + 16].try_into().unwrap()) as usize;
        let symbol_start = header_end;
        let symbol_end = symbol_start
            .checked_add(symbol_len)
            .ok_or_else(|| CompressError::new("corrupt block length"))?;
        let run_end = symbol_end
            .checked_add(run_len)
            .ok_or_else(|| CompressError::new("corrupt block length"))?;
        if run_end > input.len() {
            return Err(CompressError::new("truncated block payload"));
        }

        let symbols = decode_block(&input[symbol_start..symbol_end], RLE_ALPHABET)?;
        let run_lengths = decode_block(&input[symbol_end..run_end], 256)?;
        let mtf = rle_decode(&ZeroRle {
            symbols,
            run_lengths,
        })?;
        let bwt_data = mtf_decode(&mtf);
        if bwt_data.len() != block_len {
            return Err(CompressError::new("block length mismatch after MTF"));
        }
        let block = bwt_inverse(&BwtOutput {
            data: bwt_data,
            primary_index,
        })?;
        *pos = run_end;
        Ok(block)
    }
}

impl Compressor for BzipCompressor {
    fn name(&self) -> &str {
        "bzip2"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        for block in input.chunks(self.block_size.max(1)) {
            Self::compress_block(block, &mut out);
        }
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        if input.len() < 12 || &input[..4] != MAGIC {
            return Err(CompressError::new("not a bzip2-class stream"));
        }
        let original_len = u64::from_le_bytes(input[4..12].try_into().unwrap()) as usize;
        let capacity = input.len().saturating_mul(MAX_BYTES_PER_STREAM_BYTE);
        let mut out = Vec::with_capacity(original_len.min(capacity));
        let mut pos = 12usize;
        while pos < input.len() {
            let block = Self::decompress_block(input, &mut pos)?;
            out.extend_from_slice(&block);
        }
        if out.len() != original_len {
            return Err(CompressError::new(format!(
                "length mismatch: header says {original_len}, decoded {}",
                out.len()
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression_ratio;

    #[test]
    fn roundtrip_empty_and_small() {
        let c = BzipCompressor::default();
        for data in [&b""[..], b"z", b"zz", b"abcabcabc"] {
            let compressed = c.compress(data);
            assert_eq!(c.decompress(&compressed).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_multi_block() {
        let c = BzipCompressor::with_block_size(1024);
        let data: Vec<u8> = (0..10_000usize).map(|i| b"ACGTACGG"[i % 8]).collect();
        let compressed = c.compress(&data);
        assert_eq!(c.decompress(&compressed).unwrap(), data);
        assert!(compression_ratio(data.len(), compressed.len()) < 0.3);
    }

    #[test]
    fn roundtrip_text_and_ratio() {
        let c = BzipCompressor::default();
        let data = b"compressibility is relative to the applied compression method. ".repeat(300);
        let compressed = c.compress(&data);
        assert_eq!(c.decompress(&compressed).unwrap(), data);
        assert!(compression_ratio(data.len(), compressed.len()) < 0.2);
    }

    #[test]
    fn roundtrip_protein_like_alphabet() {
        let alphabet = b"ACDEFGHIKLMNPQRSTVWY";
        let data: Vec<u8> = (0..60_000usize)
            .map(|i| alphabet[(i / 2 + i * 3 / 7) % 20])
            .collect();
        let c = BzipCompressor::default();
        let compressed = c.compress(&data);
        assert_eq!(c.decompress(&compressed).unwrap(), data);
        assert!(compression_ratio(data.len(), compressed.len()) < 0.7);
    }

    #[test]
    fn roundtrip_incompressible_data() {
        let data: Vec<u8> = (0..30_000u32)
            .map(|i| (i.wrapping_mul(2654435761).rotate_left(7) >> 5) as u8)
            .collect();
        let c = BzipCompressor::with_block_size(8 * 1024);
        let compressed = c.compress(&data);
        assert_eq!(c.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn corrupt_inputs_error_cleanly() {
        let c = BzipCompressor::default();
        assert!(c.decompress(b"").is_err());
        assert!(c.decompress(b"PZB1").is_err());
        let mut compressed = c.compress(&b"some reasonable input data".repeat(50));
        compressed.truncate(compressed.len() - 8);
        assert!(c.decompress(&compressed).is_err());
        // Flip the declared original length.
        let mut tampered = c.compress(b"hello hello hello");
        tampered[4] ^= 0x01;
        assert!(c.decompress(&tampered).is_err());
    }

    #[test]
    fn block_size_is_clamped() {
        let c = BzipCompressor::with_block_size(10);
        assert!(c.block_size >= 1024);
        assert_eq!(c.name(), "bzip2");
    }
}
