//! The gzip-class codec: LZ77 factoring followed by canonical Huffman coding.
//!
//! The container format is our own (we substitute the gzip *algorithm family*, not the RFC 1952
//! file format): the token stream is split into a literal/marker stream and a match-parameter
//! stream, each Huffman-coded as a self-contained block, preceded by a small header recording
//! the original length. This captures the two ingredients that give gzip its compression —
//! dictionary matching against a 32 KiB window and entropy coding of the residue.

use crate::huffman::{block_len, decode_block, encode_block};
use crate::lz77::{detokenize, factor, Token, MAX_MATCH, MIN_MATCH};
use crate::{CompressError, Compressor};

/// Marker symbol (one past the byte alphabet) indicating "a match follows".
const MATCH_MARKER: u32 = 256;
/// Alphabet size of the literal/marker stream.
const LITERAL_ALPHABET: usize = 257;
/// Alphabet size of the match-parameter stream (plain bytes).
const EXTRA_ALPHABET: usize = 256;
/// Stream magic, so corrupt inputs fail fast with a clear error.
const MAGIC: &[u8; 4] = b"PZG1";
/// Magic, original length and literal block length.
const HEADER_LEN: usize = 16;

/// LZ77 + Huffman compressor.
#[derive(Debug, Default, Clone)]
pub struct GzipCompressor;

impl GzipCompressor {
    /// Create a compressor with default parameters.
    pub fn new() -> Self {
        GzipCompressor
    }
}

/// Feed the symbols of `input`'s tokens to `emit` as `(stream, symbol)`: stream 0 is the
/// literal/marker stream, stream 1 the match parameters (length, distance low, distance high).
fn for_each_symbol(input: &[u8], mut emit: impl FnMut(usize, u32)) {
    factor(input, |token| match token {
        Token::Literal(b) => emit(0, b as u32),
        Token::Match { length, distance } => {
            emit(0, MATCH_MARKER);
            emit(1, (length as usize - MIN_MATCH) as u32);
            emit(1, (distance & 0xFF) as u32);
            emit(1, (distance >> 8) as u32);
        }
    });
}

impl Compressor for GzipCompressor {
    fn name(&self) -> &str {
        "gzip"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut symbols: [Vec<u32>; 2] = Default::default();
        for_each_symbol(input, |stream, symbol| symbols[stream].push(symbol));
        let literal_block = encode_block(LITERAL_ALPHABET, &symbols[0]);
        let extra_block = encode_block(EXTRA_ALPHABET, &symbols[1]);

        let mut out = Vec::with_capacity(HEADER_LEN + literal_block.len() + extra_block.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        out.extend_from_slice(&(literal_block.len() as u32).to_le_bytes());
        out.extend_from_slice(&literal_block);
        out.extend_from_slice(&extra_block);
        out
    }

    /// Counts symbol frequencies, never materialising tokens, symbols or bits: a Huffman
    /// block's length follows from the frequencies alone.
    fn compressed_len(&self, input: &[u8]) -> usize {
        let mut freqs = [vec![0u64; LITERAL_ALPHABET], vec![0u64; EXTRA_ALPHABET]];
        for_each_symbol(input, |stream, symbol| freqs[stream][symbol as usize] += 1);
        HEADER_LEN + block_len(&freqs[0]) + block_len(&freqs[1])
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        if input.len() < HEADER_LEN || &input[..4] != MAGIC {
            return Err(CompressError::new("not a gzip-class stream"));
        }
        let original_len = u64::from_le_bytes(input[4..12].try_into().unwrap()) as usize;
        let literal_len = u32::from_le_bytes(input[12..16].try_into().unwrap()) as usize;
        let literal_end = HEADER_LEN
            .checked_add(literal_len)
            .ok_or_else(|| CompressError::new("corrupt block length"))?;
        if literal_end > input.len() {
            return Err(CompressError::new("truncated literal block"));
        }
        let literal_symbols = decode_block(&input[HEADER_LEN..literal_end], LITERAL_ALPHABET)?;
        let extra_symbols = decode_block(&input[literal_end..], EXTRA_ALPHABET)?;

        let mut tokens = Vec::with_capacity(literal_symbols.len());
        let mut extra_iter = extra_symbols.iter();
        for sym in literal_symbols {
            if sym == MATCH_MARKER {
                let len = *extra_iter
                    .next()
                    .ok_or_else(|| CompressError::new("missing match length"))?;
                let lo = *extra_iter
                    .next()
                    .ok_or_else(|| CompressError::new("missing match distance"))?;
                let hi = *extra_iter
                    .next()
                    .ok_or_else(|| CompressError::new("missing match distance"))?;
                let length = len as usize + MIN_MATCH;
                if length > MAX_MATCH {
                    return Err(CompressError::new("match length out of range"));
                }
                let distance = (lo | (hi << 8)) as u16;
                tokens.push(Token::Match {
                    length: length as u16,
                    distance,
                });
            } else {
                tokens.push(Token::Literal(sym as u8));
            }
        }
        let out = detokenize(&tokens)?;
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

    fn codec() -> GzipCompressor {
        GzipCompressor::new()
    }

    #[test]
    fn roundtrip_empty_and_small() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"hello world"] {
            let c = codec();
            let compressed = c.compress(data);
            assert_eq!(c.decompress(&compressed).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_repetitive_and_ratio() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        let c = codec();
        let compressed = c.compress(&data);
        assert_eq!(c.decompress(&compressed).unwrap(), data);
        let ratio = compression_ratio(data.len(), compressed.len());
        assert!(
            ratio < 0.2,
            "expected strong compression of repetitive text, got {ratio}"
        );
    }

    #[test]
    fn roundtrip_protein_like_sequence() {
        // 20-letter amino acid alphabet with local repetition.
        let alphabet = b"ACDEFGHIKLMNPQRSTVWY";
        let data: Vec<u8> = (0..50_000usize)
            .map(|i| alphabet[(i * i / 7 + i / 13) % alphabet.len()])
            .collect();
        let c = codec();
        let compressed = c.compress(&data);
        assert_eq!(c.decompress(&compressed).unwrap(), data);
        // 20 symbols in 8-bit bytes: entropy coding alone should beat log2(20)/8 ≈ 0.54.
        assert!(compression_ratio(data.len(), compressed.len()) < 0.75);
    }

    #[test]
    fn roundtrip_incompressible_data_expands_only_modestly() {
        let data: Vec<u8> = (0..20_000u32)
            .map(|i| {
                let x = i.wrapping_mul(1103515245).wrapping_add(12345);
                (x >> 16) as u8
            })
            .collect();
        let c = codec();
        let compressed = c.compress(&data);
        assert_eq!(c.decompress(&compressed).unwrap(), data);
        assert!(compressed.len() < data.len() + data.len() / 4 + 512);
    }

    #[test]
    fn corrupt_inputs_error_cleanly() {
        let c = codec();
        assert!(c.decompress(b"").is_err());
        assert!(c.decompress(b"nope").is_err());
        assert!(c.decompress(b"PZG1aaaaaaaaaaaaaaaa").is_err());
        let mut compressed = c.compress(b"some valid data some valid data");
        compressed.truncate(compressed.len() / 2);
        assert!(c.decompress(&compressed).is_err());
    }

    #[test]
    fn name_is_gzip() {
        assert_eq!(codec().name(), "gzip");
    }
}
