//! Canonical Huffman coding.
//!
//! Both the gzip-class and bzip2-class codecs finish with a Huffman entropy-coding stage. The
//! implementation here builds optimal code lengths from symbol frequencies (rescaling
//! frequencies when necessary to respect the 15-bit length limit), assigns canonical codes, and
//! serializes only the code lengths in the stream header — the same overall recipe DEFLATE and
//! bzip2 use.

use crate::bitio::{BitReader, BitWriter};
use crate::CompressError;

/// Maximum code length emitted by the builder.
pub const MAX_CODE_LEN: u8 = 15;

/// A canonical Huffman code book for an alphabet of `code_lengths.len()` symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeBook {
    /// Code length per symbol (0 = symbol unused).
    pub code_lengths: Vec<u8>,
    /// Canonical code value per symbol, bit-reversed so that writing it least significant bit
    /// first emits the code most significant bit first (valid only where the length is
    /// non-zero).
    reversed_codes: Vec<u32>,
}

impl CodeBook {
    /// Build a length-limited canonical code book from symbol frequencies.
    ///
    /// Symbols with zero frequency get no code. If only one symbol occurs it is assigned a
    /// 1-bit code so the output remains decodable.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let mut scaled: Vec<u64> = freqs.to_vec();
        loop {
            let lengths = build_code_lengths(&scaled);
            let max = lengths.iter().copied().max().unwrap_or(0);
            if max <= MAX_CODE_LEN {
                let reversed_codes = reversed_canonical_codes(&lengths);
                return CodeBook {
                    code_lengths: lengths,
                    reversed_codes,
                };
            }
            // Flatten the distribution and retry; convergence is guaranteed because equal
            // frequencies yield logarithmic depth.
            for f in scaled.iter_mut() {
                if *f > 0 {
                    *f = (*f >> 2).max(1);
                }
            }
        }
    }

    /// Reconstruct a code book from previously serialized code lengths.
    pub fn from_lengths(code_lengths: Vec<u8>) -> Result<Self, CompressError> {
        if code_lengths.iter().any(|&l| l > MAX_CODE_LEN) {
            return Err(CompressError::new("code length exceeds limit"));
        }
        let reversed_codes = reversed_canonical_codes(&code_lengths);
        Ok(CodeBook {
            code_lengths,
            reversed_codes,
        })
    }

    /// Number of symbols in the alphabet.
    pub fn alphabet_size(&self) -> usize {
        self.code_lengths.len()
    }

    /// Write the code for `symbol`, most significant bit first (canonical decoding consumes it
    /// in that order).
    pub fn encode_symbol(&self, symbol: usize, out: &mut BitWriter) {
        let len = self.code_lengths[symbol];
        debug_assert!(len > 0, "encoding symbol {symbol} with no code");
        out.write_bits(self.reversed_codes[symbol], len);
    }

    /// Expected encoded length in bits of a message with the given symbol frequencies.
    pub fn encoded_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * self.code_lengths.get(s).copied().unwrap_or(0) as u64)
            .sum()
    }

    /// Serialize the code lengths (4 bits each) into the writer.
    pub fn write_lengths(&self, out: &mut BitWriter) {
        for &len in &self.code_lengths {
            out.write_bits(len as u32, 4);
        }
    }

    /// Read code lengths for an alphabet of `alphabet_size` symbols.
    pub fn read_lengths(
        reader: &mut BitReader<'_>,
        alphabet_size: usize,
    ) -> Result<Self, CompressError> {
        let mut lengths = Vec::with_capacity(alphabet_size);
        for _ in 0..alphabet_size {
            let len = reader
                .read_bits(4)
                .ok_or_else(|| CompressError::new("truncated code table"))?;
            lengths.push(len as u8);
        }
        Self::from_lengths(lengths)
    }

    /// Build a decoder for this code book.
    pub fn decoder(&self) -> Decoder {
        Decoder::new(&self.code_lengths)
    }
}

/// Canonical Huffman decoder (count/first-code tables, bit-serial).
#[derive(Debug, Clone)]
pub struct Decoder {
    /// count[len] = number of codes of that length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// first_code[len] = canonical value of the first code of that length.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// offset[len] = index into `symbols` of the first symbol with that length.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
}

impl Decoder {
    fn new(code_lengths: &[u8]) -> Self {
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &len in code_lengths {
            if len > 0 {
                count[len as usize] += 1;
            }
        }
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        let mut symbols_so_far = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            offset[len] = symbols_so_far;
            symbols_so_far += count[len];
        }
        let mut symbols: Vec<(u8, u32)> = code_lengths
            .iter()
            .enumerate()
            .filter(|(_, &len)| len > 0)
            .map(|(sym, &len)| (len, sym as u32))
            .collect();
        symbols.sort_unstable();
        Decoder {
            count,
            first_code,
            offset,
            symbols: symbols.into_iter().map(|(_, s)| s).collect(),
        }
    }

    /// Decode one symbol from the reader.
    pub fn decode_symbol(&self, reader: &mut BitReader<'_>) -> Result<u32, CompressError> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            let bit = reader
                .read_bit()
                .ok_or_else(|| CompressError::new("truncated huffman stream"))?;
            code = (code << 1) | bit as u32;
            if self.count[len] > 0 {
                let index = code.wrapping_sub(self.first_code[len]);
                if index < self.count[len] {
                    return Ok(self.symbols[(self.offset[len] + index) as usize]);
                }
            }
        }
        Err(CompressError::new("invalid huffman code"))
    }
}

/// Build optimal (unlimited) code lengths with the standard two-queue/heap algorithm.
fn build_code_lengths(freqs: &[u64]) -> Vec<u8> {
    let used: Vec<usize> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, _)| i)
        .collect();
    let mut lengths = vec![0u8; freqs.len()];
    match used.len() {
        0 => return lengths,
        1 => {
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Node arena: leaves first, then internal nodes. parent[i] gives the tree structure.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct HeapItem {
        weight: u64,
        node: usize,
    }
    let mut parent: Vec<Option<usize>> = vec![None; used.len()];
    let mut heap = std::collections::BinaryHeap::new();
    for (node, &sym) in used.iter().enumerate() {
        heap.push(std::cmp::Reverse(HeapItem {
            weight: freqs[sym],
            node,
        }));
    }
    while heap.len() > 1 {
        let a = heap.pop().unwrap().0;
        let b = heap.pop().unwrap().0;
        let new_node = parent.len();
        parent.push(None);
        parent[a.node] = Some(new_node);
        parent[b.node] = Some(new_node);
        heap.push(std::cmp::Reverse(HeapItem {
            weight: a.weight.saturating_add(b.weight),
            node: new_node,
        }));
    }

    for (leaf, &sym) in used.iter().enumerate() {
        let mut depth = 0u8;
        let mut node = leaf;
        while let Some(p) = parent[node] {
            depth = depth.saturating_add(1);
            node = p;
        }
        lengths[sym] = depth.max(1);
    }
    lengths
}

/// Assign canonical code values given code lengths, each bit-reversed within its length.
fn reversed_canonical_codes(code_lengths: &[u8]) -> Vec<u32> {
    let mut count = [0u32; MAX_CODE_LEN as usize + 2];
    for &len in code_lengths {
        if len > 0 {
            count[len as usize] += 1;
        }
    }
    let mut next_code = [0u32; MAX_CODE_LEN as usize + 2];
    let mut code = 0u32;
    for len in 1..=(MAX_CODE_LEN as usize + 1) {
        code = (code + count[len - 1]) << 1;
        next_code[len] = code;
    }
    // Canonical assignment must visit symbols ordered by (length, symbol index).
    let mut order: Vec<usize> = (0..code_lengths.len())
        .filter(|&s| code_lengths[s] > 0)
        .collect();
    order.sort_by_key(|&s| (code_lengths[s], s));
    let mut codes = vec![0u32; code_lengths.len()];
    for s in order {
        let len = code_lengths[s] as usize;
        codes[s] = next_code[len].reverse_bits() >> (32 - len);
        next_code[len] += 1;
    }
    codes
}

/// Convenience: Huffman-encode a symbol stream as a self-contained block
/// (symbol count + code table + payload). Used by the gzip and bzip back ends.
pub fn encode_block(alphabet_size: usize, symbols: &[u32]) -> Vec<u8> {
    debug_assert!(symbols.iter().all(|&s| (s as usize) < alphabet_size));
    let mut freqs = vec![0u64; alphabet_size];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    let book = CodeBook::from_frequencies(&freqs);
    let mut writer = BitWriter::new();
    writer.write_bits(symbols.len() as u32, 32);
    book.write_lengths(&mut writer);
    for &s in symbols {
        book.encode_symbol(s as usize, &mut writer);
    }
    let bytes = writer.into_bytes();
    debug_assert_eq!(bytes.len(), block_len(&freqs));
    bytes
}

/// Length in bytes of the block [`encode_block`] writes for a stream with these symbol
/// frequencies (one per symbol of the alphabet): the 32-bit count, 4 bits of code length per
/// symbol and the payload, padded to a byte. No bit is written.
pub(crate) fn block_len(freqs: &[u64]) -> usize {
    let payload = CodeBook::from_frequencies(freqs).encoded_bits(freqs);
    (32 + 4 * freqs.len() as u64 + payload).div_ceil(8) as usize
}

/// Decode a block produced by [`encode_block`].
pub fn decode_block(bytes: &[u8], alphabet_size: usize) -> Result<Vec<u32>, CompressError> {
    let mut reader = BitReader::new(bytes);
    let count = reader
        .read_bits(32)
        .ok_or_else(|| CompressError::new("truncated block header"))? as usize;
    let book = CodeBook::read_lengths(&mut reader, alphabet_size)?;
    // Every code is at least one bit long, so the payload bounds the count (and with it the
    // allocation and the loop below) whatever the header claims.
    if count > bytes.len() * 8 - reader.bits_consumed() {
        return Err(CompressError::new("symbol count exceeds the block payload"));
    }
    let decoder = book.decoder();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(decoder.decode_symbol(&mut reader)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_symbols(symbols: &[u32], alphabet: usize) {
        let encoded = encode_block(alphabet, symbols);
        let decoded = decode_block(&encoded, alphabet).unwrap();
        assert_eq!(decoded, symbols);
    }

    #[test]
    fn codebook_from_skewed_frequencies() {
        let freqs = [1000u64, 500, 100, 10, 1, 0, 0, 3];
        let book = CodeBook::from_frequencies(&freqs);
        // More frequent symbols get codes no longer than rarer ones.
        assert!(book.code_lengths[0] <= book.code_lengths[2]);
        assert!(book.code_lengths[2] <= book.code_lengths[4]);
        assert_eq!(book.code_lengths[5], 0);
        assert_eq!(book.code_lengths[5], 0);
        assert!(book.code_lengths[0] > 0);
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs: Vec<u64> = (0..64)
            .map(|i| (i as u64 + 1) * (i as u64 % 7 + 1))
            .collect();
        let book = CodeBook::from_frequencies(&freqs);
        let kraft: f64 = book
            .code_lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft sum {kraft} exceeds 1");
    }

    #[test]
    fn single_symbol_alphabet_is_decodable() {
        let symbols = vec![3u32; 100];
        roundtrip_symbols(&symbols, 8);
    }

    #[test]
    fn empty_symbol_stream() {
        roundtrip_symbols(&[], 16);
    }

    #[test]
    fn uniform_alphabet_roundtrip() {
        let symbols: Vec<u32> = (0..1000u32).map(|i| i % 256).collect();
        roundtrip_symbols(&symbols, 256);
    }

    #[test]
    fn highly_skewed_roundtrip() {
        let mut symbols = vec![0u32; 10_000];
        symbols.extend([1u32, 2, 3, 4, 5].iter().copied());
        roundtrip_symbols(&symbols, 6);
    }

    #[test]
    fn length_limit_respected_under_extreme_skew() {
        // Fibonacci-like frequencies are the classic worst case for code length.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a.saturating_add(b);
            a = b;
            b = next;
        }
        let book = CodeBook::from_frequencies(&freqs);
        assert!(book.code_lengths.iter().all(|&l| l <= MAX_CODE_LEN));
        // Still decodable.
        let symbols: Vec<u32> = (0..40u32).collect();
        let encoded = encode_block(40, &symbols);
        // The encode path rebuilds its own book, so just check the full round trip.
        assert_eq!(decode_block(&encoded, 40).unwrap(), symbols);
    }

    #[test]
    fn encoded_bits_matches_actual_output_size() {
        let symbols: Vec<u32> = (0..2000u32).map(|i| (i * i) % 50).collect();
        let mut freqs = vec![0u64; 50];
        for &s in &symbols {
            freqs[s as usize] += 1;
        }
        let book = CodeBook::from_frequencies(&freqs);
        let mut writer = BitWriter::new();
        for &s in &symbols {
            book.encode_symbol(s as usize, &mut writer);
        }
        assert_eq!(book.encoded_bits(&freqs) as usize, writer.bit_len());
    }

    #[test]
    fn corrupt_stream_is_an_error_not_a_panic() {
        let symbols: Vec<u32> = (0..100u32).map(|i| i % 10).collect();
        let mut encoded = encode_block(10, &symbols);
        encoded.truncate(4); // keep only the count header
        assert!(decode_block(&encoded, 10).is_err());
        assert!(decode_block(&[], 10).is_err());
    }

    #[test]
    fn from_lengths_rejects_over_limit() {
        assert!(CodeBook::from_lengths(vec![16, 1]).is_err());
        assert!(CodeBook::from_lengths(vec![2, 2, 2, 2]).is_ok());
    }
}
