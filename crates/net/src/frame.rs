//! Length-prefixed binary framing of [`Envelope`]s for stream transports.
//!
//! One frame is:
//!
//! ```text
//! | magic "PSOA" | version u8 | crc32 u32 LE | length u32 LE | payload (length bytes) |
//! ```
//!
//! Two payload formats exist behind the version byte, negotiated per connection (the client
//! advertises its highest version on a fresh connection; the server answers in the highest
//! version both sides speak):
//!
//! * **Version 1 (textual)** — the envelope's textual wire form ([`Envelope::to_wire`]) as
//!   UTF-8, exactly one envelope per frame. A framed message crossing a socket is then
//!   byte-for-byte the message the in-process transport serializes — the interoperability
//!   baseline every peer speaks.
//! * **Version 2 (binary, multi-envelope)** — `u32 count LE`, then `count` sections of
//!   `u32 len LE` + a [`pasoa_wire::codec`] binary envelope. One frame carries a whole
//!   request batch (a batched record flush crosses the socket in a single write), and the
//!   binary codec skips the XML escape/parse cost of the textual form.
//!
//! The CRC covers the payload in both versions, so *any* byte-level corruption of a frame is
//! detected and reported as a clean [`FrameError`] instead of being decoded into a silently
//! different message. The frame length is validated against a configurable ceiling — and
//! every envelope length and item count inside a binary payload against the bytes actually
//! present — **before** any allocation, so a corrupt or hostile claim can never OOM the
//! receiver.

use std::io::{ErrorKind, Read, Write};

use pasoa_wire::{codec, Envelope, WireError};

/// First bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PSOA";

/// The original textual frame version: one envelope per frame, textual wire form.
pub const VERSION_TEXT: u8 = 1;

/// The binary multi-envelope frame version (see the module docs).
pub const VERSION_BINARY: u8 = 2;

/// Highest frame version this build speaks.
pub const MAX_VERSION: u8 = VERSION_BINARY;

/// The baseline protocol version every peer speaks (alias of [`VERSION_TEXT`]).
pub const VERSION: u8 = VERSION_TEXT;

/// Bytes before the payload: magic + version + crc32 + length.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 4;

/// Default ceiling on a frame's payload size (64 MiB): far above any legitimate envelope
/// (unpaginated query responses are already capped by the router), far below an allocation
/// that could take the process down.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Why a frame could not be read or decoded. Every variant is a clean, reportable error —
/// the decoder never panics and never treats a short read as success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary (the peer closed the connection).
    Closed,
    /// The stream ended mid-frame: `got` of `expected` bytes arrived.
    Truncated {
        /// Bytes the frame section needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte named a protocol this decoder does not speak.
    BadVersion(u8),
    /// The header claimed a payload larger than the configured ceiling. Rejected before any
    /// allocation.
    Oversized {
        /// Claimed payload length.
        len: usize,
        /// Configured ceiling.
        max: usize,
    },
    /// The payload arrived but its checksum disagrees with the header.
    BadCrc {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum of the received payload.
        actual: u32,
    },
    /// The payload was not valid UTF-8.
    BadUtf8,
    /// The payload was UTF-8 but not a parseable envelope.
    BadEnvelope(String),
    /// The underlying stream failed.
    Io {
        /// The I/O error kind (`TimedOut`/`WouldBlock` are idle-timeout signals).
        kind: ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: got {got} of {expected} bytes")
            }
            FrameError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte ceiling"
                )
            }
            FrameError::BadCrc { stored, actual } => {
                write!(
                    f,
                    "frame crc mismatch: stored {stored:#010x}, actual {actual:#010x}"
                )
            }
            FrameError::BadUtf8 => write!(f, "frame payload is not valid UTF-8"),
            FrameError::BadEnvelope(reason) => {
                write!(f, "frame payload is not an envelope: {reason}")
            }
            FrameError::Io { kind, detail } => write!(f, "frame i/o error ({kind:?}): {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Whether this is an idle-timeout signal rather than a broken stream or bad bytes.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io {
                kind: ErrorKind::TimedOut | ErrorKind::WouldBlock,
                ..
            }
        )
    }

    fn from_io(error: std::io::Error) -> Self {
        FrameError::Io {
            kind: error.kind(),
            detail: error.to_string(),
        }
    }
}

impl From<FrameError> for WireError {
    fn from(error: FrameError) -> Self {
        WireError::Payload(format!("tcp transport: {error}"))
    }
}

/// CRC-32 (IEEE) of `data`, slicing-by-8: eight table lookups per 8-byte word instead of
/// one per byte, with the same output as the bytewise routine. `pasoa_kvdb::record::crc32`
/// is the same routine, duplicated on purpose: the transport must not depend on the storage
/// engine (nor the storage engine on the transport) for a checksum, so each keeps its own
/// copy, pinned by its own unit tests to the standard check value
/// (`crc32(b"123456789") == 0xCBF4_3926`) and to a bytewise reference.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// The slicing-by-8 tables, built at compile time: `CRC_TABLES[0]` is the classic bytewise
/// table of the reflected polynomial `0xEDB8_8320`, and `CRC_TABLES[k][i]` is the CRC state
/// after byte `i` is followed by `k` zero bytes, so eight lookups advance the CRC by a whole
/// 8-byte word.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// A fully decoded frame: its envelopes, the wire version it arrived in (so the receiver can
/// answer in kind), and the bytes it occupied on the stream.
#[derive(Debug)]
pub struct DecodedFrame {
    /// The envelopes the frame carried (exactly one for version-1 frames).
    pub envelopes: Vec<Envelope>,
    /// The frame's version byte.
    pub version: u8,
    /// Header + payload bytes consumed.
    pub bytes: usize,
}

/// Encode `envelopes` as one complete frame of `version` into `out` (cleared first, so a
/// pooled buffer is reused across calls instead of allocating per frame). Returns the frame
/// length. Version 1 carries exactly one envelope; version 2 carries any number.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    envelopes: &[Envelope],
    version: u8,
) -> Result<usize, FrameError> {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.extend_from_slice(&[0u8; 8]); // crc + length backfilled once the payload is written
    match version {
        VERSION_TEXT => {
            let [envelope] = envelopes else {
                return Err(FrameError::BadEnvelope(format!(
                    "version 1 frames carry exactly one envelope, not {}",
                    envelopes.len()
                )));
            };
            out.extend_from_slice(envelope.to_wire().as_bytes());
        }
        VERSION_BINARY => {
            out.extend_from_slice(
                &u32::try_from(envelopes.len())
                    .expect("envelope count fits u32")
                    .to_le_bytes(),
            );
            for envelope in envelopes {
                let len_at = out.len();
                out.extend_from_slice(&[0u8; 4]);
                codec::encode_envelope(envelope, out);
                let len = u32::try_from(out.len() - len_at - 4).expect("envelope section fits u32");
                out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
            }
        }
        other => return Err(FrameError::BadVersion(other)),
    }
    let payload_len = out.len() - HEADER_LEN;
    let len32 = u32::try_from(payload_len).map_err(|_| FrameError::Oversized {
        len: payload_len,
        max: u32::MAX as usize,
    })?;
    let crc = crc32(&out[HEADER_LEN..]);
    out[5..9].copy_from_slice(&crc.to_le_bytes());
    out[9..13].copy_from_slice(&len32.to_le_bytes());
    Ok(out.len())
}

/// Encode one envelope as a complete version-1 (textual) frame.
pub fn encode_frame(envelope: &Envelope) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, std::slice::from_ref(envelope), VERSION_TEXT)
        .expect("one textual envelope always frames");
    out
}

/// Decode one frame of any version up to `max_version` from the front of `buf`, enforcing
/// `max_payload`.
pub fn decode_frame_any(
    buf: &[u8],
    max_payload: usize,
    max_version: u8,
) -> Result<DecodedFrame, FrameError> {
    if buf.is_empty() {
        return Err(FrameError::Closed);
    }
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            expected: HEADER_LEN,
            got: buf.len(),
        });
    }
    let (version, crc_stored, len) = check_header(&buf[..HEADER_LEN], max_payload, max_version)?;
    let rest = &buf[HEADER_LEN..];
    if rest.len() < len {
        return Err(FrameError::Truncated {
            expected: len,
            got: rest.len(),
        });
    }
    let payload = &rest[..len];
    check_crc(payload, crc_stored)?;
    let envelopes = decode_payload(payload, version)?;
    Ok(DecodedFrame {
        envelopes,
        version,
        bytes: HEADER_LEN + len,
    })
}

/// Decode exactly one single-envelope frame (either version) from the front of `buf`,
/// enforcing `max_payload`. Returns the envelope and how many bytes the frame occupied, so
/// callers can resume at the next frame.
pub fn decode_frame(buf: &[u8], max_payload: usize) -> Result<(Envelope, usize), FrameError> {
    let mut frame = decode_frame_any(buf, max_payload, MAX_VERSION)?;
    if frame.envelopes.len() != 1 {
        return Err(FrameError::BadEnvelope(format!(
            "expected a single-envelope frame, got {} envelopes",
            frame.envelopes.len()
        )));
    }
    Ok((frame.envelopes.pop().expect("one envelope"), frame.bytes))
}

/// Write `envelopes` as one frame of `version`, serializing through the reusable `scratch`
/// buffer. Returns the bytes written.
pub fn write_frame_into(
    writer: &mut impl Write,
    scratch: &mut Vec<u8>,
    envelopes: &[Envelope],
    version: u8,
) -> Result<usize, FrameError> {
    let len = encode_frame_into(scratch, envelopes, version)?;
    writer.write_all(scratch).map_err(FrameError::from_io)?;
    writer.flush().map_err(FrameError::from_io)?;
    Ok(len)
}

/// Write one envelope as a version-1 frame. Returns the bytes written.
pub fn write_frame(writer: &mut impl Write, envelope: &Envelope) -> Result<usize, FrameError> {
    let mut scratch = Vec::new();
    write_frame_into(
        writer,
        &mut scratch,
        std::slice::from_ref(envelope),
        VERSION_TEXT,
    )
}

/// Read one frame of any version up to `max_version` off a stream, enforcing `max_payload`
/// before the payload is read into `payload_buf` (cleared and reused across calls, so a
/// steady-state connection stops allocating per frame). A clean EOF before any header byte
/// is [`FrameError::Closed`]; an EOF anywhere later is [`FrameError::Truncated`].
pub fn read_frame_any(
    reader: &mut impl Read,
    max_payload: usize,
    max_version: u8,
    payload_buf: &mut Vec<u8>,
) -> Result<DecodedFrame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_counted(reader, &mut header)? {
        0 => return Err(FrameError::Closed),
        got if got < HEADER_LEN => {
            return Err(FrameError::Truncated {
                expected: HEADER_LEN,
                got,
            })
        }
        _ => {}
    }
    let (version, crc_stored, len) = check_header(&header, max_payload, max_version)?;
    payload_buf.clear();
    payload_buf.resize(len, 0);
    let got = read_exact_counted(reader, payload_buf)?;
    if got < len {
        return Err(FrameError::Truncated { expected: len, got });
    }
    check_crc(payload_buf, crc_stored)?;
    let envelopes = decode_payload(payload_buf, version)?;
    Ok(DecodedFrame {
        envelopes,
        version,
        bytes: HEADER_LEN + len,
    })
}

/// Read one single-envelope frame (either version) off a stream. Returns the envelope and
/// the bytes consumed.
pub fn read_frame(
    reader: &mut impl Read,
    max_payload: usize,
) -> Result<(Envelope, usize), FrameError> {
    let mut payload_buf = Vec::new();
    let mut frame = read_frame_any(reader, max_payload, MAX_VERSION, &mut payload_buf)?;
    if frame.envelopes.len() != 1 {
        return Err(FrameError::BadEnvelope(format!(
            "expected a single-envelope frame, got {} envelopes",
            frame.envelopes.len()
        )));
    }
    Ok((frame.envelopes.pop().expect("one envelope"), frame.bytes))
}

/// Validate magic, version and length; returns `(version, stored crc, payload length)`.
fn check_header(
    header: &[u8],
    max_payload: usize,
    max_version: u8,
) -> Result<(u8, u32, usize), FrameError> {
    let magic: [u8; 4] = header[..4].try_into().expect("header holds 4 magic bytes");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = header[4];
    if !(VERSION_TEXT..=MAX_VERSION).contains(&version) || version > max_version {
        return Err(FrameError::BadVersion(version));
    }
    let crc_stored = u32::from_le_bytes(header[5..9].try_into().expect("4 crc bytes"));
    let len = u32::from_le_bytes(header[9..13].try_into().expect("4 length bytes")) as usize;
    if len > max_payload {
        return Err(FrameError::Oversized {
            len,
            max: max_payload,
        });
    }
    Ok((version, crc_stored, len))
}

/// Verify the payload checksum.
fn check_crc(payload: &[u8], crc_stored: u32) -> Result<(), FrameError> {
    let actual = crc32(payload);
    if actual != crc_stored {
        return Err(FrameError::BadCrc {
            stored: crc_stored,
            actual,
        });
    }
    Ok(())
}

/// Decode a checksum-verified payload into its envelopes, per the frame version. Every
/// length and count claim inside a binary payload is validated against the bytes actually
/// present before any allocation (see [`pasoa_wire::codec`]).
fn decode_payload(payload: &[u8], version: u8) -> Result<Vec<Envelope>, FrameError> {
    match version {
        VERSION_TEXT => {
            let text = std::str::from_utf8(payload).map_err(|_| FrameError::BadUtf8)?;
            let envelope =
                Envelope::from_wire(text).map_err(|e| FrameError::BadEnvelope(e.to_string()))?;
            Ok(vec![envelope])
        }
        VERSION_BINARY => {
            if payload.len() < 4 {
                return Err(FrameError::Truncated {
                    expected: 4,
                    got: payload.len(),
                });
            }
            let count =
                u32::from_le_bytes(payload[..4].try_into().expect("4 count bytes")) as usize;
            let mut rest = &payload[4..];
            if count == 0 {
                return Err(FrameError::BadEnvelope(
                    "a multi-envelope frame carries at least one envelope".into(),
                ));
            }
            // Each envelope section needs at least its 4-byte length prefix; a hostile
            // count fails here, before any loop or allocation.
            if count > rest.len() / 4 {
                return Err(FrameError::BadEnvelope(format!(
                    "frame claims {count} envelopes in {} payload bytes",
                    rest.len()
                )));
            }
            // Deliberately NOT `with_capacity(count)`: the claimed count must never size an
            // allocation — capacity grows only as envelopes actually decode.
            let mut envelopes = Vec::new();
            for _ in 0..count {
                let len =
                    u32::from_le_bytes(rest[..4].try_into().expect("4 length bytes")) as usize;
                rest = &rest[4..];
                if len > rest.len() {
                    return Err(FrameError::Truncated {
                        expected: len,
                        got: rest.len(),
                    });
                }
                let (envelope, consumed) = codec::decode_envelope(&rest[..len])
                    .map_err(|e| FrameError::BadEnvelope(e.to_string()))?;
                if consumed != len {
                    return Err(FrameError::BadEnvelope(format!(
                        "envelope section has {} trailing bytes",
                        len - consumed
                    )));
                }
                envelopes.push(envelope);
                rest = &rest[len..];
                if envelopes.len() < count && rest.len() < 4 {
                    return Err(FrameError::Truncated {
                        expected: 4,
                        got: rest.len(),
                    });
                }
            }
            if !rest.is_empty() {
                return Err(FrameError::BadEnvelope(format!(
                    "{} trailing bytes after the last envelope",
                    rest.len()
                )));
            }
            Ok(envelopes)
        }
        other => Err(FrameError::BadVersion(other)),
    }
}

/// Fill `buf` from `reader`, returning how many bytes actually arrived (short only on EOF).
/// `Interrupted` reads are retried; every other I/O error (including read timeouts) is
/// surfaced as [`FrameError::Io`].
fn read_exact_counted(reader: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::from_io(e)),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_wire::XmlElement;

    fn sample() -> Envelope {
        Envelope::request("provenance-store", "record")
            .with_header("message-id", "m-1")
            .with_body(XmlElement::new("data").text("a<b&c\"d'é"))
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32 the slicing-by-8 routine must agree with, bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        let buffer: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_bytewise_on_random_buffers(
            data in proptest::prop::collection::vec(proptest::prop::num::u8::ANY, 0..65_536),
        ) {
            proptest::prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let envelope = sample();
        let frame = encode_frame(&envelope);
        let (decoded, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(decoded, envelope);
        assert_eq!(decoded.to_wire(), envelope.to_wire());
    }

    #[test]
    fn stream_roundtrip_pipelined() {
        let a = sample();
        let b = Envelope::response("record").with_body(XmlElement::new("ok"));
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (first, _) = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap();
        let (second, _) = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(first, a);
        assert_eq!(second, b);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            FrameError::Closed
        );
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode_frame(&sample());
        // Claim a 3 GiB payload; the decoder must refuse using only the header.
        frame[9..13].copy_from_slice(&(3u32 * 1024 * 1024 * 1024).to_le_bytes());
        match decode_frame(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap_err() {
            FrameError::Oversized { len, max } => {
                assert_eq!(len, 3 * 1024 * 1024 * 1024);
                assert_eq!(max, DEFAULT_MAX_FRAME_BYTES);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Same guard on the streaming reader.
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            FrameError::Oversized { .. }
        ));
    }

    #[test]
    fn bad_magic_version_and_crc_are_distinct_errors() {
        let envelope = sample();
        let good = encode_frame(&envelope);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_frame(&bad_magic, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            FrameError::BadMagic(_)
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert_eq!(
            decode_frame(&bad_version, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            FrameError::BadVersion(9)
        );

        let mut bad_payload = good.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bad_payload, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            FrameError::BadCrc { .. }
        ));
    }

    #[test]
    fn truncation_anywhere_is_a_clean_error() {
        let frame = encode_frame(&sample());
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut], DEFAULT_MAX_FRAME_BYTES).unwrap_err();
            match err {
                FrameError::Closed => assert_eq!(cut, 0),
                FrameError::Truncated { .. } => {}
                other => panic!("cut at {cut}: unexpected error {other:?}"),
            }
            let mut cursor = std::io::Cursor::new(&frame[..cut]);
            assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).is_err());
        }
    }

    #[test]
    fn binary_multi_envelope_roundtrip_is_bit_exact() {
        let envelopes = vec![
            sample(),
            Envelope::response("record").with_body(XmlElement::new("ok")),
            Envelope::request("shard-1", "record")
                .with_header("sender", "shard-router")
                .with_body(XmlElement::new("json-payload").text(r#"{"k":"v \" w"}"#)),
        ];
        let mut frame = Vec::new();
        let len = encode_frame_into(&mut frame, &envelopes, VERSION_BINARY).unwrap();
        assert_eq!(len, frame.len());
        let decoded = decode_frame_any(&frame, DEFAULT_MAX_FRAME_BYTES, MAX_VERSION).unwrap();
        assert_eq!(decoded.version, VERSION_BINARY);
        assert_eq!(decoded.bytes, frame.len());
        assert_eq!(decoded.envelopes, envelopes);
        // The streaming reader agrees, reusing its payload buffer.
        let mut cursor = std::io::Cursor::new(&frame);
        let mut payload_buf = Vec::new();
        let streamed = read_frame_any(
            &mut cursor,
            DEFAULT_MAX_FRAME_BYTES,
            MAX_VERSION,
            &mut payload_buf,
        )
        .unwrap();
        assert_eq!(streamed.envelopes, envelopes);
    }

    #[test]
    fn a_version_one_peer_rejects_binary_frames() {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, &[sample()], VERSION_BINARY).unwrap();
        // Decoding with max_version = 1 emulates an old peer: clean BadVersion, no panic.
        assert_eq!(
            decode_frame_any(&frame, DEFAULT_MAX_FRAME_BYTES, VERSION_TEXT).unwrap_err(),
            FrameError::BadVersion(VERSION_BINARY)
        );
        // A current decoder accepts the same frame.
        assert!(decode_frame_any(&frame, DEFAULT_MAX_FRAME_BYTES, MAX_VERSION).is_ok());
    }

    #[test]
    fn multi_envelope_frames_refuse_the_single_envelope_api() {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, &[sample(), sample()], VERSION_BINARY).unwrap();
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            FrameError::BadEnvelope(_)
        ));
        // A single envelope in a binary frame is fine through the legacy API.
        let mut single = Vec::new();
        encode_frame_into(&mut single, &[sample()], VERSION_BINARY).unwrap();
        let (decoded, _) = decode_frame(&single, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(decoded, sample());
    }

    #[test]
    fn version_one_frames_carry_exactly_one_envelope() {
        let mut out = Vec::new();
        assert!(matches!(
            encode_frame_into(&mut out, &[sample(), sample()], VERSION_TEXT).unwrap_err(),
            FrameError::BadEnvelope(_)
        ));
    }

    #[test]
    fn hostile_envelope_counts_and_trailing_bytes_are_clean_errors() {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, &[sample()], VERSION_BINARY).unwrap();
        // Claim a huge envelope count; refresh the CRC so the count guard itself is tested.
        let mut hostile = frame.clone();
        hostile[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&hostile[HEADER_LEN..]);
        hostile[5..9].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame_any(&hostile, DEFAULT_MAX_FRAME_BYTES, MAX_VERSION).unwrap_err(),
            FrameError::BadEnvelope(_)
        ));
        // A zero count is refused too.
        let mut empty = frame.clone();
        empty[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&empty[HEADER_LEN..]);
        empty[5..9].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame_any(&empty, DEFAULT_MAX_FRAME_BYTES, MAX_VERSION).unwrap_err(),
            FrameError::BadEnvelope(_)
        ));
        // Trailing garbage after the last envelope is refused, not silently ignored.
        let mut padded = Vec::new();
        encode_frame_into(&mut padded, &[sample()], VERSION_BINARY).unwrap();
        padded.extend_from_slice(b"XX");
        let payload_len = padded.len() - HEADER_LEN;
        padded[9..13].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let crc = crc32(&padded[HEADER_LEN..]);
        padded[5..9].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame_any(&padded, DEFAULT_MAX_FRAME_BYTES, MAX_VERSION).unwrap_err(),
            FrameError::BadEnvelope(_)
        ));
    }

    #[test]
    fn binary_truncation_anywhere_is_a_clean_error() {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, &[sample(), sample()], VERSION_BINARY).unwrap();
        for cut in 0..frame.len() {
            let err =
                decode_frame_any(&frame[..cut], DEFAULT_MAX_FRAME_BYTES, MAX_VERSION).unwrap_err();
            match err {
                FrameError::Closed => assert_eq!(cut, 0),
                FrameError::Truncated { .. } => {}
                other => panic!("cut at {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn non_utf8_payload_is_rejected() {
        let payload = vec![0xFF, 0xFE, 0xFD];
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(
            decode_frame(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            FrameError::BadUtf8
        );
    }
}
