//! # pasoa-compress — compression codecs for the compressibility experiment
//!
//! The protein compressibility workflow measures "the fraction of its original length to which
//! a sequence can be loss-lessly compressed", using gzip, bzip2 or ppmz. The original
//! experiment shells out to those tools (or calls them as Web Services); this crate is the
//! from-scratch Rust substitute, providing three codec families that exploit the same classes
//! of redundancy:
//!
//! * [`gzip`] — an LZ77 dictionary compressor followed by canonical Huffman entropy coding
//!   (the DEFLATE recipe),
//! * [`bzip`] — a block-sorting compressor: Burrows–Wheeler transform, move-to-front, run
//!   length encoding and Huffman coding (the bzip2 recipe),
//! * [`ppm`] — an order-N context-modelling compressor driven by an adaptive binary
//!   arithmetic coder (the PPM/ppmz family).
//!
//! All three are genuinely lossless (every codec round-trips, and the property tests insist on
//! it) because the compressibility measurement is only meaningful for lossless codes. The
//! [`Compressor`] trait is what the workflow's `Measure` activities consume: they only need
//! [`Compressor::compressed_len`], but the full decoder is retained so correctness is testable.
//!
//! `compressed_len` is a counting pass: gzip and ppmz run the same tokenizer and model loop as
//! `compress`, generic over where the output goes, but count instead of writing, so the length
//! always equals `compress(input).len()` without a byte of output being produced. The
//! decoders treat their input as hostile: a forged or cut stream is an error, never a panic,
//! an allocation or a loop sized by its header alone.

pub mod arith;
pub mod bitio;
pub mod bwt;
pub mod bzip;
pub mod gzip;
pub mod huffman;
pub mod lz77;
pub mod mtf;
pub mod ppm;

use std::sync::Arc;

/// A lossless compressor usable by the Measure workflow.
pub trait Compressor: Send + Sync {
    /// Short identifier used in provenance records and result tables ("gzip", "bzip2", "ppmz").
    fn name(&self) -> &str;

    /// Compress `input`, returning the encoded bytes.
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Decompress bytes produced by [`Self::compress`].
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError>;

    /// Length of the compressed form — the only quantity the experiment needs. Always equal to
    /// `self.compress(input).len()`; gzip and ppmz override it with a counting pass that never
    /// materialises the output.
    fn compressed_len(&self, input: &[u8]) -> usize {
        self.compress(input).len()
    }
}

/// Error produced when decoding corrupt or truncated compressed data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressError {
    /// Human-readable description of the failure.
    pub reason: String,
}

impl CompressError {
    /// Create an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        CompressError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decompression failed: {}", self.reason)
    }
}

impl std::error::Error for CompressError {}

/// The compression methods evaluated by the experiment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Method {
    /// LZ77 + Huffman (gzip class).
    Gzip,
    /// Burrows–Wheeler block sorting (bzip2 class).
    Bzip2,
    /// Context modelling + arithmetic coding (ppmz class).
    Ppmz,
}

impl Method {
    /// All supported methods.
    pub const ALL: [Method; 3] = [Method::Gzip, Method::Bzip2, Method::Ppmz];

    /// The canonical name used in provenance records.
    pub fn name(self) -> &'static str {
        match self {
            Method::Gzip => "gzip",
            Method::Bzip2 => "bzip2",
            Method::Ppmz => "ppmz",
        }
    }

    /// Parse a method from its canonical name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "gzip" => Some(Method::Gzip),
            "bzip2" => Some(Method::Bzip2),
            "ppmz" => Some(Method::Ppmz),
            _ => None,
        }
    }

    /// Instantiate the compressor for this method with default parameters.
    pub fn compressor(self) -> Arc<dyn Compressor> {
        match self {
            Method::Gzip => Arc::new(gzip::GzipCompressor),
            Method::Bzip2 => Arc::new(bzip::BzipCompressor::default()),
            Method::Ppmz => Arc::new(ppm::PpmCompressor::default()),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Compression ratio: compressed length over original length (lower is more compressible).
pub fn compression_ratio(original_len: usize, compressed_len: usize) -> f64 {
    if original_len == 0 {
        1.0
    } else {
        compressed_len as f64 / original_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_roundtrip() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.name()), Some(m));
            assert_eq!(m.to_string(), m.name());
        }
        assert_eq!(Method::parse("zip"), None);
    }

    #[test]
    fn every_method_roundtrips_a_sample() {
        let data = b"MKVLAAGGALLLAAGGMKVLAAGGALLLAAGGMKVLAAGGALLLAAGG".repeat(20);
        for m in Method::ALL {
            let c = m.compressor();
            let compressed = c.compress(&data);
            let back = c.decompress(&compressed).unwrap();
            assert_eq!(back, data, "method {m} failed to round-trip");
            assert_eq!(c.compressed_len(&data), compressed.len());
        }
    }

    #[test]
    fn repetitive_data_compresses_well_for_all_methods() {
        let data = b"AAAABBBBCCCCDDDD".repeat(256);
        for m in Method::ALL {
            let c = m.compressor();
            let ratio = compression_ratio(data.len(), c.compressed_len(&data));
            assert!(ratio < 0.5, "method {m} only achieved ratio {ratio}");
        }
    }

    #[test]
    fn ratio_handles_empty_input() {
        assert_eq!(compression_ratio(0, 0), 1.0);
        assert!((compression_ratio(100, 25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        let e = CompressError::new("bad header");
        assert!(e.to_string().contains("bad header"));
    }
}
