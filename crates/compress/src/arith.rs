//! Binary arithmetic coding.
//!
//! The ppmz-class codec drives an adaptive context model with a binary arithmetic coder. The
//! coder here is the classic 32-bit low/high coder with underflow (E3) scaling; probabilities
//! are 12-bit (`1..=4095`) estimates of the next bit being zero.

/// Number of probability bits (probabilities live in `1..4096`).
pub const PROB_BITS: u32 = 12;
/// Maximum probability value (exclusive).
pub const PROB_ONE: u32 = 1 << PROB_BITS;

const HALF: u32 = 0x8000_0000;
const QUARTER: u32 = 0x4000_0000;
const THREE_QUARTERS: u32 = 0xC000_0000;

/// Where an [`Encoder`]'s output bits go: a byte buffer, or a counter when only the length
/// is wanted.
pub trait BitSink: Default {
    /// What [`Encoder::finish`] returns.
    type Output;

    /// Append `bit` followed by `pending` copies of `!bit`.
    fn put(&mut self, bit: bool, pending: u32);

    /// The finished output.
    fn finish(self) -> Self::Output;
}

/// Packs output bits into bytes, most significant bit first.
#[derive(Debug, Default)]
pub struct ByteSink {
    bytes: Vec<u8>,
    /// The byte being filled, earliest bit highest.
    partial: u8,
    /// Number of bits in `partial` (below 8 between calls).
    partial_bits: u32,
}

impl ByteSink {
    fn push(&mut self, bit: bool) {
        self.partial = (self.partial << 1) | bit as u8;
        self.partial_bits += 1;
        if self.partial_bits == 8 {
            self.bytes.push(self.partial);
            self.partial_bits = 0;
        }
    }
}

impl BitSink for ByteSink {
    type Output = Vec<u8>;

    fn put(&mut self, bit: bool, pending: u32) {
        self.push(bit);
        for _ in 0..pending {
            self.push(!bit);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.partial_bits > 0 {
            self.bytes.push(self.partial << (8 - self.partial_bits));
        }
        self.bytes
    }
}

/// Counts output bits without storing them.
#[derive(Debug, Default)]
pub struct BitCount(u64);

impl BitSink for BitCount {
    /// The number of bits written.
    type Output = u64;

    fn put(&mut self, _bit: bool, pending: u32) {
        self.0 += 1 + pending as u64;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Arithmetic encoder writing to a [`BitSink`] (bytes by default).
#[derive(Debug)]
pub struct Encoder<S: BitSink = ByteSink> {
    low: u32,
    high: u32,
    pending: u32,
    sink: S,
}

impl<S: BitSink> Default for Encoder<S> {
    fn default() -> Self {
        Encoder {
            low: 0,
            high: u32::MAX,
            pending: 0,
            sink: S::default(),
        }
    }
}

impl Encoder {
    /// Create a fresh encoder writing bytes.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: BitSink> Encoder<S> {
    fn emit(&mut self, bit: bool) {
        self.sink.put(bit, self.pending);
        self.pending = 0;
    }

    /// Encode one bit given `p0`, the 12-bit probability that the bit is zero.
    #[inline]
    pub fn encode(&mut self, bit: bool, p0: u32) {
        debug_assert!(p0 > 0 && p0 < PROB_ONE);
        let range = (self.high - self.low) as u64 + 1;
        let mid = self.low + ((range * p0 as u64) >> PROB_BITS) as u32 - 1;
        if bit {
            self.low = mid + 1;
        } else {
            self.high = mid;
        }
        loop {
            if self.high < HALF {
                self.emit(false);
            } else if self.low >= HALF {
                self.emit(true);
                self.low -= HALF;
                self.high -= HALF;
            } else if self.low >= QUARTER && self.high < THREE_QUARTERS {
                self.pending += 1;
                self.low -= QUARTER;
                self.high -= QUARTER;
            } else {
                break;
            }
            self.low <<= 1;
            self.high = (self.high << 1) | 1;
        }
    }

    /// Flush the coder and return the sink's output: the encoded bytes, or their bit count.
    pub fn finish(mut self) -> S::Output {
        self.pending += 1;
        self.emit(self.low >= QUARTER);
        // Pad so the decoder can always pre-load 32 bits (and never reads past the end).
        for _ in 0..32 {
            self.sink.put(false, 0);
        }
        self.sink.finish()
    }
}

/// Arithmetic decoder reading from a byte slice produced by [`Encoder::finish`].
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    bit_index: usize,
    low: u32,
    high: u32,
    code: u32,
}

impl<'a> Decoder<'a> {
    /// Create a decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        let mut d = Decoder {
            data,
            bit_index: 0,
            low: 0,
            high: u32::MAX,
            code: 0,
        };
        for _ in 0..32 {
            d.code = (d.code << 1) | d.next_bit();
        }
        d
    }

    /// Whether decoding has read past the end of the data. A stream [`Encoder::finish`]
    /// wrote never does, so a decoder that has is reading a truncated or forged stream.
    pub fn overran(&self) -> bool {
        self.bit_index > self.data.len() * 8
    }

    fn next_bit(&mut self) -> u32 {
        let byte = self.data.get(self.bit_index / 8).copied().unwrap_or(0);
        let bit = (byte >> (7 - (self.bit_index % 8) as u32)) & 1;
        self.bit_index += 1;
        bit as u32
    }

    /// Decode one bit given `p0`, the 12-bit probability that the bit is zero.
    pub fn decode(&mut self, p0: u32) -> bool {
        debug_assert!(p0 > 0 && p0 < PROB_ONE);
        let range = (self.high - self.low) as u64 + 1;
        let mid = self.low + ((range * p0 as u64) >> PROB_BITS) as u32 - 1;
        let bit = self.code > mid;
        if bit {
            self.low = mid + 1;
        } else {
            self.high = mid;
        }
        loop {
            if self.high < HALF {
                // nothing to subtract
            } else if self.low >= HALF {
                self.low -= HALF;
                self.high -= HALF;
                self.code -= HALF;
            } else if self.low >= QUARTER && self.high < THREE_QUARTERS {
                self.low -= QUARTER;
                self.high -= QUARTER;
                self.code -= QUARTER;
            } else {
                break;
            }
            self.low <<= 1;
            self.high = (self.high << 1) | 1;
            self.code = (self.code << 1) | self.next_bit();
        }
        bit
    }
}

/// An adaptive probability estimate for a single binary context.
///
/// Starting from 1/2, the estimate never leaves [`BitModel::MIN`]`..=`[`BitModel::MAX`]
/// (the update rounds towards a fixed point at each end), so it is always a valid coder
/// probability without clamping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitModel {
    /// Probability (out of [`PROB_ONE`]) that the next bit is zero.
    p0: u16,
}

impl Default for BitModel {
    fn default() -> Self {
        BitModel {
            p0: (PROB_ONE / 2) as u16,
        }
    }
}

impl BitModel {
    /// Adaption rate: larger shifts adapt more slowly.
    const RATE: u32 = 5;
    /// The lowest estimate reachable from 1/2: `p - (p >> 5)` is a fixed point at 31.
    pub const MIN: u32 = 31;
    /// The highest estimate reachable from 1/2: `p + ((4096 - p) >> 5)` is a fixed point at
    /// 4065.
    pub const MAX: u32 = PROB_ONE - 31;

    /// Current probability of zero, within [`Self::MIN`]`..=`[`Self::MAX`].
    #[inline]
    pub fn probability(&self) -> u32 {
        self.p0 as u32
    }

    /// Update the estimate after observing `bit`.
    #[inline]
    pub fn update(&mut self, bit: bool) {
        let p = self.p0 as u32;
        if bit {
            self.p0 = (p - (p >> Self::RATE)) as u16;
        } else {
            self.p0 = (p + ((PROB_ONE - p) >> Self::RATE)) as u16;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_bits(bits: &[bool], probabilities: &[u32]) {
        assert_eq!(bits.len(), probabilities.len());
        let mut enc = Encoder::new();
        for (&bit, &p0) in bits.iter().zip(probabilities) {
            enc.encode(bit, p0);
        }
        let data = enc.finish();
        let mut dec = Decoder::new(&data);
        for (&bit, &p0) in bits.iter().zip(probabilities) {
            assert_eq!(dec.decode(p0), bit);
        }
    }

    #[test]
    fn fixed_probability_roundtrip() {
        let bits: Vec<bool> = (0..5000).map(|i| (i * 31 + i / 7) % 3 == 0).collect();
        let probs = vec![2048u32; bits.len()];
        roundtrip_bits(&bits, &probs);
    }

    #[test]
    fn skewed_probability_roundtrip() {
        let bits: Vec<bool> = (0..5000).map(|i| i % 100 == 0).collect();
        let probs = vec![4000u32; bits.len()]; // strongly expect zero
        roundtrip_bits(&bits, &probs);
    }

    #[test]
    fn extreme_probabilities_roundtrip() {
        let bits: Vec<bool> = (0..2000).map(|i| i % 2 == 0).collect();
        let probs: Vec<u32> = (0..2000)
            .map(|i| if i % 2 == 0 { 1 } else { 4095 })
            .collect();
        roundtrip_bits(&bits, &probs);
    }

    #[test]
    fn skewed_input_with_matching_model_compresses() {
        // 5000 mostly-zero bits encoded with an accurate skewed probability should take far
        // fewer than 5000 bits.
        let bits: Vec<bool> = (0..5000).map(|i| i % 50 == 49).collect();
        let mut enc = Encoder::new();
        for &bit in &bits {
            enc.encode(bit, 4000);
        }
        let data = enc.finish();
        assert!(data.len() < 5000 / 8 / 2, "encoded {} bytes", data.len());
    }

    #[test]
    fn adaptive_model_roundtrip() {
        // Encoder and decoder must evolve the model identically.
        let bits: Vec<bool> = (0..20_000).map(|i| (i / 37) % 4 == 1).collect();
        let mut enc = Encoder::new();
        let mut model = BitModel::default();
        for &bit in &bits {
            enc.encode(bit, model.probability());
            model.update(bit);
        }
        let data = enc.finish();
        let mut dec = Decoder::new(&data);
        let mut model = BitModel::default();
        for &bit in &bits {
            let decoded = dec.decode(model.probability());
            assert_eq!(decoded, bit);
            model.update(decoded);
        }
    }

    #[test]
    fn bit_model_converges_towards_observed_bias() {
        let mut model = BitModel::default();
        for _ in 0..1000 {
            model.update(false);
        }
        assert!(
            model.probability() > 3500,
            "p0 should approach 1 after many zeros"
        );
        for _ in 0..1000 {
            model.update(true);
        }
        assert!(
            model.probability() < 600,
            "p0 should approach 0 after many ones"
        );
    }

    #[test]
    fn every_reachable_bit_model_state_stays_within_bounds() {
        // Breadth-first over every state reachable from the initial 1/2.
        let mut seen = vec![false; PROB_ONE as usize];
        let mut frontier = vec![BitModel::default()];
        seen[BitModel::default().probability() as usize] = true;
        while let Some(model) = frontier.pop() {
            let p = model.probability();
            assert!(
                (BitModel::MIN..=BitModel::MAX).contains(&p),
                "reachable state {p} out of bounds"
            );
            for bit in [false, true] {
                let mut next = model;
                next.update(bit);
                if !seen[next.probability() as usize] {
                    seen[next.probability() as usize] = true;
                    frontier.push(next);
                }
            }
        }
        // Both ends are reached: the bounds are tight.
        assert!(seen[BitModel::MIN as usize] && seen[BitModel::MAX as usize]);
    }

    #[test]
    fn counting_sink_agrees_with_the_byte_sink() {
        let bits: Vec<bool> = (0..7000).map(|i| (i * 7 + i / 5) % 9 < 2).collect();
        let mut bytes = Encoder::new();
        let mut count = Encoder::<BitCount>::default();
        let mut model = BitModel::default();
        for &bit in &bits {
            bytes.encode(bit, model.probability());
            count.encode(bit, model.probability());
            model.update(bit);
        }
        assert_eq!(
            bytes.finish().len() as u64,
            count.finish().div_ceil(8),
            "the counter sees every bit the writer writes"
        );
    }

    #[test]
    fn a_truncated_stream_overruns() {
        let mut enc = Encoder::new();
        for i in 0..4000 {
            enc.encode(i % 3 == 0, 2048);
        }
        let data = enc.finish();
        let mut whole = Decoder::new(&data);
        let mut cut = Decoder::new(&data[..data.len() / 2]);
        for i in 0..4000 {
            assert_eq!(whole.decode(2048), i % 3 == 0);
            cut.decode(2048);
        }
        assert!(!whole.overran());
        assert!(cut.overran());
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let enc = Encoder::new();
        let data = enc.finish();
        assert!(!data.is_empty());
        let _ = Decoder::new(&data);
    }
}
