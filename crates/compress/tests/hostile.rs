//! Hostile compressed streams. Whatever the bytes — a valid stream cut at any offset, a byte
//! flipped anywhere, a header that claims more than the payload can hold — every decoder
//! answers a clean `Err` or an output of the length the stream declares, in time bounded by
//! the input. A cut stream decodes to `Err` or the exact original. Never a panic, never an
//! abort, never a loop sized by a header alone.
//!
//! Without a checksum in the formats a flipped payload byte can decode to other bytes of the
//! declared length; what is ruled out is a crash, a runaway allocation or a runaway loop.

use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;

use pasoa_compress::bzip::BzipCompressor;
use pasoa_compress::{CompressError, Compressor, Method};

/// Far above any decode of these inputs, far below a loop sized by a forged header.
const DEADLINE: Duration = Duration::from_secs(10);

/// Decode `stream` with `method` on a worker thread, failing the test if it panics or
/// outlives [`DEADLINE`] (a runaway decoder is left behind; the test process ends it).
fn decode_within_deadline(method: Method, stream: Vec<u8>) -> Result<Vec<u8>, CompressError> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(codec(method).decompress(&stream));
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(result) => {
            worker.join().expect("the decoder returned");
            result
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{method} decode outlived {DEADLINE:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(_) => panic!("{method} decoder panicked"),
            Ok(()) => unreachable!("the worker sends before it returns"),
        },
    }
}

/// Small bzip blocks, so a short input still makes a multi-block stream.
fn codec(method: Method) -> std::sync::Arc<dyn Compressor> {
    match method {
        Method::Bzip2 => std::sync::Arc::new(BzipCompressor::with_block_size(1024)),
        other => other.compressor(),
    }
}

/// A ppmz stream header: magic, order 3, declared length; then `payload`.
fn ppmz_stream(declared_len: u64, payload: &[u8]) -> Vec<u8> {
    let mut stream = b"PZP1\x03".to_vec();
    stream.extend_from_slice(&declared_len.to_le_bytes());
    stream.extend_from_slice(payload);
    stream
}

#[test]
fn ppmz_length_of_u64_max_is_an_error() {
    let stream = ppmz_stream(u64::MAX, &[0]);
    assert_eq!(stream.len(), 14);
    assert!(decode_within_deadline(Method::Ppmz, stream).is_err());
}

#[test]
fn ppmz_length_of_2_pow_28_over_a_one_byte_payload_fails_fast() {
    let stream = ppmz_stream(1 << 28, &[0]);
    assert!(decode_within_deadline(Method::Ppmz, stream).is_err());
}

#[test]
fn bzip2_length_of_u64_max_is_an_error() {
    let mut stream = codec(Method::Bzip2).compress(b"a short valid block");
    stream[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_within_deadline(Method::Bzip2, stream).is_err());
}

#[test]
fn gzip_literal_count_of_u32_max_is_an_error() {
    let mut stream = codec(Method::Gzip).compress(b"a short valid input");
    // The literal block starts at byte 16 with its 32-bit symbol count.
    stream[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_within_deadline(Method::Gzip, stream).is_err());
}

/// The length a stream's header declares (bytes 4..12 for gzip and bzip2, 5..13 for ppmz).
fn declared_len(method: Method, stream: &[u8]) -> Option<u64> {
    let at = if method == Method::Ppmz { 5 } else { 4 };
    let bytes = stream.get(at..at + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().unwrap()))
}

fn inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(prop::num::u8::ANY, 0..160),
        prop::collection::vec(prop::sample::select(b"ACDEGK".to_vec()), 0..400),
        (prop::num::u8::ANY, 0usize..3000).prop_map(|(b, n)| vec![b; n]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn every_cut_is_an_error_or_the_original(data in inputs()) {
        for method in Method::ALL {
            let stream = codec(method).compress(&data);
            for cut in 0..stream.len() {
                if let Ok(out) = decode_within_deadline(method, stream[..cut].to_vec()) {
                    prop_assert_eq!(&out, &data, "{} cut at {}", method, cut);
                }
            }
        }
    }

    #[test]
    fn every_flip_is_an_error_or_the_declared_length(data in inputs(), mask in 1u16..256) {
        for method in Method::ALL {
            let stream = codec(method).compress(&data);
            for at in 0..stream.len() {
                let mut flipped = stream.clone();
                flipped[at] ^= mask as u8;
                let declared = declared_len(method, &flipped);
                if let Ok(out) = decode_within_deadline(method, flipped) {
                    prop_assert_eq!(Some(out.len() as u64), declared, "{} flip at {}", method, at);
                }
            }
        }
    }
}
