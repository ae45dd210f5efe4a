//! Bit-level I/O used by the Huffman coders.
//!
//! Bits are written least-significant-first within each byte, which keeps the writer and reader
//! trivially symmetric and is the same convention DEFLATE uses.

/// Accumulates bits into a byte vector, whole bytes at a time through a 64-bit accumulator.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet moved to `bytes`, oldest in the least significant position.
    pending: u64,
    /// Number of valid bits in `pending` (always below 8 between calls).
    pending_bits: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Append the `count` low bits of `value`, least significant first.
    pub fn write_bits(&mut self, value: u32, count: u8) {
        debug_assert!(count <= 32);
        let mask = (1u64 << count) - 1;
        self.pending |= (value as u64 & mask) << self.pending_bits;
        self.pending_bits += count as u32;
        while self.pending_bits >= 8 {
            self.bytes.push(self.pending as u8);
            self.pending >>= 8;
            self.pending_bits -= 8;
        }
    }

    /// Number of whole and partial bytes written so far.
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + (self.pending_bits > 0) as usize
    }

    /// Total number of bits written.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending_bits as usize
    }

    /// Finish writing and return the padded byte vector.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.pending_bits > 0 {
            self.bytes.push(self.pending as u8);
        }
        self.bytes
    }
}

/// Reads bits from a byte slice in the order [`BitWriter`] wrote them.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    byte_pos: usize,
    bit_pos: u8,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            byte_pos: 0,
            bit_pos: 0,
        }
    }

    /// Read a single bit; `None` at end of input.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.bytes.get(self.byte_pos)?;
        let bit = (byte >> self.bit_pos) & 1 == 1;
        self.bit_pos += 1;
        if self.bit_pos == 8 {
            self.bit_pos = 0;
            self.byte_pos += 1;
        }
        Some(bit)
    }

    /// Read `count` bits, least significant first; `None` if input is exhausted early.
    pub fn read_bits(&mut self, count: u8) -> Option<u32> {
        debug_assert!(count <= 32);
        let mut value = 0u32;
        for i in 0..count {
            if self.read_bit()? {
                value |= 1 << i;
            }
        }
        Some(value)
    }

    /// Number of bits consumed so far.
    pub fn bits_consumed(&self) -> usize {
        self.byte_pos * 8 + self.bit_pos as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let pattern = [
            true, false, true, true, false, false, true, false, true, true, true,
        ];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &expected in &pattern {
            assert_eq!(r.read_bit(), Some(expected));
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let values: [(u32, u8); 6] = [
            (0, 1),
            (1, 1),
            (5, 3),
            (255, 8),
            (0x1234, 16),
            (0x0FFF_FFFF, 28),
        ];
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n), Some(v));
        }
    }

    #[test]
    fn reading_past_end_returns_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        // Padding bits within the final byte read as zero...
        assert_eq!(r.read_bits(5), Some(0));
        // ...and then the stream ends.
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(4), None);
    }

    #[test]
    fn byte_and_bit_lengths() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0xFF, 8);
        assert_eq!(w.byte_len(), 1);
        w.write_bit(true);
        assert_eq!(w.byte_len(), 2);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn bits_consumed_tracks_position() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.read_bits(5).unwrap();
        assert_eq!(r.bits_consumed(), 5);
        r.read_bits(11).unwrap();
        assert_eq!(r.bits_consumed(), 16);
    }
}
