//! Property tests: every codec must be perfectly lossless on arbitrary inputs, because the
//! compressibility experiment's statistics are only meaningful for lossless codes.

use proptest::prelude::*;

use pasoa_compress::bwt::{bwt_forward, bwt_inverse};
use pasoa_compress::bzip::BzipCompressor;
use pasoa_compress::gzip::GzipCompressor;
use pasoa_compress::lz77::{detokenize, tokenize};
use pasoa_compress::mtf::{mtf_decode, mtf_encode, rle_decode, rle_encode};
use pasoa_compress::ppm::PpmCompressor;
use pasoa_compress::{Compressor, Method};

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::num::u8::ANY, 0..2048)
}

fn protein_like_bytes() -> impl Strategy<Value = Vec<u8>> {
    // Sequences over the 20-letter amino-acid alphabet, the codecs' actual workload.
    prop::collection::vec(
        prop::sample::select(b"ACDEFGHIKLMNPQRSTVWY".to_vec()),
        0..4096,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    #[test]
    fn lz77_roundtrips(data in arbitrary_bytes()) {
        prop_assert_eq!(detokenize(&tokenize(&data)).unwrap(), data);
    }

    #[test]
    fn bwt_roundtrips(data in arbitrary_bytes()) {
        prop_assert_eq!(bwt_inverse(&bwt_forward(&data)).unwrap(), data);
    }

    #[test]
    fn mtf_and_rle_roundtrip(data in arbitrary_bytes()) {
        let mtf = mtf_encode(&data);
        prop_assert_eq!(mtf_decode(&mtf), data);
        let rle = rle_encode(&mtf);
        prop_assert_eq!(rle_decode(&rle).unwrap(), mtf);
    }

    #[test]
    fn gzip_class_roundtrips(data in arbitrary_bytes()) {
        let c = GzipCompressor::new();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn bzip_class_roundtrips(data in arbitrary_bytes()) {
        let c = BzipCompressor::with_block_size(1024);
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn ppm_class_roundtrips(data in arbitrary_bytes()) {
        let c = PpmCompressor::default();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn all_methods_roundtrip_protein_sequences(data in protein_like_bytes()) {
        for method in Method::ALL {
            let c = method.compressor();
            prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data.clone());
        }
    }

    #[test]
    fn compressed_len_is_consistent(data in prop_oneof![protein_like_bytes(), arbitrary_bytes()]) {
        for method in Method::ALL {
            let c = method.compressor();
            prop_assert_eq!(c.compressed_len(&data), c.compress(&data).len());
        }
    }
}
