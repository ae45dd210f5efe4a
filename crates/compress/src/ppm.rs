//! The ppmz-class codec: adaptive context modelling with arithmetic coding.
//!
//! ppmz (Bloom's PPMZ) belongs to the prediction-by-partial-matching family: it predicts each
//! symbol from the longest matching context and entropy-codes the result arithmetically. Our
//! substitute follows the same principle in a bitwise formulation: each byte is coded as eight
//! binary decisions, each predicted by blending adaptive estimates conditioned on the previous
//! one, two and three bytes (plus the bits of the byte decoded so far). Higher orders dominate
//! once they have seen data, which is the essence of PPM's escape mechanism, while staying
//! simple enough to verify exhaustively with round-trip tests.

use crate::arith::{BitCount, BitModel, BitSink, ByteSink, Decoder, Encoder};
use crate::{CompressError, Compressor};

/// Stream magic for the ppm-class container.
const MAGIC: &[u8; 4] = b"PZP1";
/// Magic, context order and original length.
const HEADER_LEN: usize = 13;
/// log2 of the context table size per order.
const TABLE_BITS: usize = 18;
const TABLE_SIZE: usize = 1 << TABLE_BITS;
const TABLE_MASK: u64 = (TABLE_SIZE as u64) - 1;
/// A byte costs at least 8·log2(4096/4065) ≈ 0.088 bits, because every blended estimate lies
/// within [`BitModel::MIN`]`..=`[`BitModel::MAX`]; so no payload byte decodes to more than
/// this many bytes.
const MAX_BYTES_PER_PAYLOAD_BYTE: usize = 92;

/// Context-modelling compressor (ppmz substitute).
#[derive(Debug, Clone)]
pub struct PpmCompressor {
    /// Highest context order used for prediction (1..=3).
    pub max_order: u8,
}

impl Default for PpmCompressor {
    fn default() -> Self {
        PpmCompressor { max_order: 3 }
    }
}

impl PpmCompressor {
    /// Create a compressor with an explicit maximum context order (clamped to 1..=3).
    pub fn with_order(max_order: u8) -> Self {
        PpmCompressor {
            max_order: max_order.clamp(1, 3),
        }
    }

    /// The order actually modelled (and written to the stream header).
    fn order(&self) -> u8 {
        self.max_order.clamp(1, 3)
    }

    /// The arithmetic-coded payload of `input`, written to sink `S`.
    fn encode<S: BitSink>(&self, input: &[u8]) -> S::Output {
        match self.order() {
            1 => encode_with::<S, 1>(input),
            2 => encode_with::<S, 2>(input),
            _ => encode_with::<S, 3>(input),
        }
    }
}

/// The context model for orders `1..=ORDERS`.
struct Model<const ORDERS: usize> {
    /// One adaptive table per order, indexed by a hash of the context and the partial byte.
    /// (Separate 512 KiB blocks rather than one 1.5 MiB block: freeing a block that large
    /// every call raises the allocator's mmap threshold, and with it a sweep's peak RSS.)
    tables: [Box<[BitModel; TABLE_SIZE]>; ORDERS],
    /// The last four bytes, newest lowest.
    history: u32,
    /// Per order, the history term of the context hash, fixed for the eight bits of a byte.
    bases: [u64; ORDERS],
}

impl<const ORDERS: usize> Model<ORDERS> {
    fn new() -> Self {
        let mut model = Model {
            tables: std::array::from_fn(|_| {
                vec![BitModel::default(); TABLE_SIZE]
                    .into_boxed_slice()
                    .try_into()
                    .expect("the table has TABLE_SIZE entries")
            }),
            history: 0,
            bases: [0; ORDERS],
        };
        model.push_byte_bases();
        model
    }

    /// Recompute the per-order history terms: keep only `order` bytes of history.
    fn push_byte_bases(&mut self) {
        for (o, base) in self.bases.iter_mut().enumerate() {
            let order = o as u32 + 1;
            let kept = self.history & (0xFFFF_FFFFu32 >> (8 * (4 - order)));
            *base = (kept as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(order as u64);
        }
    }

    /// Code one bit at bit-tree `node`: blend the per-order estimates into the probability
    /// that the bit is zero, let `code` encode or decode the bit with it, then teach every
    /// order the outcome.
    ///
    /// Orders are weighted by how far their estimate is from "no information" (p0 = 1/2):
    /// contexts that have learnt something dominate the mix. Every estimate lies in
    /// [`BitModel::MIN`]`..=`[`BitModel::MAX`], so the weights sum to at least 32 and the blend
    /// is a valid probability as it stands.
    #[inline]
    fn code_bit(&mut self, node: u32, code: impl FnOnce(u32) -> bool) -> bool {
        let node_term = (node as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let mut slots = [0usize; ORDERS];
        let mut num = 0u32;
        let mut den = 0u32;
        for (o, slot) in slots.iter_mut().enumerate() {
            *slot = ((self.bases[o].wrapping_add(node_term) >> 17) & TABLE_MASK) as usize;
            let p0 = self.tables[o][*slot].probability();
            let confidence = p0.abs_diff(2048) + 32 + o as u32 * 32;
            num += p0 * confidence;
            den += confidence;
        }
        let bit = code(num / den);
        for (table, slot) in self.tables.iter_mut().zip(slots) {
            table[slot].update(bit);
        }
        bit
    }

    fn push_byte(&mut self, byte: u8) {
        self.history = (self.history << 8) | byte as u32;
        self.push_byte_bases();
    }
}

/// The one model loop behind both [`Compressor::compress`] and
/// [`Compressor::compressed_len`]: only the sink differs.
fn encode_with<S: BitSink, const ORDERS: usize>(input: &[u8]) -> S::Output {
    let mut model = Model::<ORDERS>::new();
    let mut encoder = Encoder::<S>::default();
    for &byte in input {
        let mut node = 1u32;
        for bit_index in (0..8).rev() {
            let bit = (byte >> bit_index) & 1 == 1;
            model.code_bit(node, |p0| {
                encoder.encode(bit, p0);
                bit
            });
            node = (node << 1) | bit as u32;
        }
        model.push_byte(byte);
    }
    encoder.finish()
}

fn decode_with<const ORDERS: usize>(
    payload: &[u8],
    original_len: usize,
) -> Result<Vec<u8>, CompressError> {
    let mut model = Model::<ORDERS>::new();
    let mut decoder = Decoder::new(payload);
    let capacity = payload.len().saturating_mul(MAX_BYTES_PER_PAYLOAD_BYTE);
    let mut out = Vec::with_capacity(original_len.min(capacity));
    for _ in 0..original_len {
        let mut node = 1u32;
        for _ in 0..8 {
            let bit = model.code_bit(node, |p0| decoder.decode(p0));
            node = (node << 1) | bit as u32;
        }
        // A valid stream is padded so the decoder never reads past it; one that makes it
        // do so is cut or forged, whatever length its header claims.
        if decoder.overran() {
            return Err(CompressError::new(
                "ppm payload ends before the declared length",
            ));
        }
        let byte = (node & 0xFF) as u8;
        out.push(byte);
        model.push_byte(byte);
    }
    Ok(out)
}

impl Compressor for PpmCompressor {
    fn name(&self) -> &str {
        "ppmz"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let payload = self.encode::<ByteSink>(input);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.push(self.order());
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Runs the model loop with a bit counter in place of the byte writer.
    fn compressed_len(&self, input: &[u8]) -> usize {
        HEADER_LEN + self.encode::<BitCount>(input).div_ceil(8) as usize
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        if input.len() < HEADER_LEN || &input[..4] != MAGIC {
            return Err(CompressError::new("not a ppm-class stream"));
        }
        let original_len = u64::from_le_bytes(input[5..13].try_into().unwrap()) as usize;
        let payload = &input[HEADER_LEN..];
        match input[4] {
            1 => decode_with::<1>(payload, original_len),
            2 => decode_with::<2>(payload, original_len),
            3 => decode_with::<3>(payload, original_len),
            _ => Err(CompressError::new("invalid context order")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression_ratio;

    #[test]
    fn roundtrip_empty_and_small() {
        let c = PpmCompressor::default();
        for data in [&b""[..], b"p", b"pp", b"protein"] {
            let compressed = c.compress(data);
            assert_eq!(c.decompress(&compressed).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_repetitive_text_with_strong_ratio() {
        let c = PpmCompressor::default();
        let data = b"in silico experimentation needs a logbook. ".repeat(250);
        let compressed = c.compress(&data);
        assert_eq!(c.decompress(&compressed).unwrap(), data);
        let ratio = compression_ratio(data.len(), compressed.len());
        assert!(
            ratio < 0.15,
            "context modelling should crush repetitive text, got {ratio}"
        );
    }

    #[test]
    fn roundtrip_protein_like_sequence_beats_gzip_class() {
        // Context modelling should discover more structure in a small-alphabet Markov source
        // than LZ77 does — mirroring why the paper's experiment includes ppmz: the source has
        // strong conditional statistics but few long exact repeats.
        let alphabet = b"ACDEFGHIKLMNPQRSTVWY";
        let mut state = 0x1234_5678u32;
        let mut prev = 0usize;
        let data: Vec<u8> = (0..40_000usize)
            .map(|_| {
                state = state.wrapping_mul(1103515245).wrapping_add(12345);
                // Each symbol is drawn from a 4-letter subset determined by the previous
                // symbol, so the order-1 conditional entropy is ~2 bits/char.
                let choice = ((state >> 16) % 4) as usize;
                prev = (prev * 5 + choice) % 20;
                alphabet[prev]
            })
            .collect();
        let ppm = PpmCompressor::default();
        let gz = crate::gzip::GzipCompressor::new();
        let ppm_len = ppm.compressed_len(&data);
        let gz_len = gz.compressed_len(&data);
        assert_eq!(ppm.decompress(&ppm.compress(&data)).unwrap(), data);
        assert!(
            ppm_len < gz_len,
            "ppm ({ppm_len}) should beat gzip-class ({gz_len}) on structured small-alphabet data"
        );
    }

    #[test]
    fn roundtrip_binary_data() {
        let data: Vec<u8> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(2654435761).rotate_left(11) >> 9) as u8)
            .collect();
        let c = PpmCompressor::default();
        let compressed = c.compress(&data);
        assert_eq!(c.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn lower_orders_still_roundtrip() {
        let data = b"GGGAAATTTCCCGGGAAATTTCCC".repeat(100);
        for order in 1..=3u8 {
            let c = PpmCompressor::with_order(order);
            let compressed = c.compress(&data);
            assert_eq!(c.decompress(&compressed).unwrap(), data, "order {order}");
        }
    }

    #[test]
    fn order_is_clamped() {
        assert_eq!(PpmCompressor::with_order(0).max_order, 1);
        assert_eq!(PpmCompressor::with_order(9).max_order, 3);
    }

    #[test]
    fn corrupt_inputs_error_cleanly() {
        let c = PpmCompressor::default();
        assert!(c.decompress(b"").is_err());
        assert!(c.decompress(b"PZP1").is_err());
        let mut compressed = c.compress(&b"valid input data for the ppm codec".repeat(10));
        compressed[4] = 77; // invalid order
        assert!(c.decompress(&compressed).is_err());
        let mut truncated = c.compress(&b"another valid input for truncation".repeat(40));
        truncated.truncate(16);
        assert!(truncated.len() < 16 + 40 || c.decompress(&truncated).is_err());
    }

    #[test]
    fn name_is_ppmz() {
        assert_eq!(PpmCompressor::default().name(), "ppmz");
    }
}
