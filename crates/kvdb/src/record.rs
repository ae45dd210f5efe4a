//! On-disk record format.
//!
//! Every mutation is appended to the active segment as one self-describing, CRC-protected
//! record:
//!
//! ```text
//! +----------+---------+----------+------------+----------+------------+
//! | crc32 u32| kind u8 | key_len  | value_len  | key ...  | value ...  |
//! |          |         | u32  LE  | u32  LE    |          |            |
//! +----------+---------+----------+------------+----------+------------+
//! ```
//!
//! The CRC covers everything after the CRC field itself. A record that fails its CRC (or that
//! is truncated) marks the end of the recoverable log: recovery truncates the segment there,
//! which gives the same torn-write semantics Berkeley DB JE provides for its log.

use crate::error::{DbError, DbResult};

/// Maximum key length accepted by the store (64 KiB).
pub const MAX_KEY_LEN: usize = 64 * 1024;
/// Maximum value length accepted by the store (256 MiB).
pub const MAX_VALUE_LEN: usize = 256 * 1024 * 1024;
/// Fixed number of header bytes preceding the key and value payloads.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 4;

/// Kind discriminant stored in each record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// The record stores a live key/value pair.
    Put,
    /// The record marks the key as deleted (a tombstone).
    Delete,
}

impl RecordKind {
    fn as_byte(self) -> u8 {
        match self {
            RecordKind::Put => 1,
            RecordKind::Delete => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(RecordKind::Put),
            2 => Some(RecordKind::Delete),
            _ => None,
        }
    }
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Whether this is a put or a tombstone.
    pub kind: RecordKind,
    /// The key bytes.
    pub key: Vec<u8>,
    /// The value bytes (empty for tombstones).
    pub value: Vec<u8>,
}

impl Record {
    /// Create a put record, validating size limits.
    pub fn put(key: &[u8], value: &[u8]) -> DbResult<Self> {
        validate_sizes(key, value)?;
        Ok(Record {
            kind: RecordKind::Put,
            key: key.to_vec(),
            value: value.to_vec(),
        })
    }

    /// Create a tombstone record for `key`.
    pub fn delete(key: &[u8]) -> DbResult<Self> {
        validate_sizes(key, &[])?;
        Ok(Record {
            kind: RecordKind::Delete,
            key: key.to_vec(),
            value: Vec::new(),
        })
    }

    /// Number of bytes this record occupies on disk.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.key.len() + self.value.len()
    }

    /// Serialize the record into `buf` (appending).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0u8; 4]); // crc placeholder
        buf.push(self.kind.as_byte());
        buf.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.key);
        buf.extend_from_slice(&self.value);
        let crc = crc32(&buf[start + 4..]);
        buf[start..start + 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// Serialize the record into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Attempt to decode one record from the front of `buf`.
    ///
    /// Returns `Ok(None)` when the buffer is too short to contain the full record (the caller
    /// treats this as end-of-log). Returns `Err` when the record is present but fails
    /// validation. On success returns the record and the number of bytes consumed.
    pub fn decode(buf: &[u8], segment: u64, offset: u64) -> DbResult<Option<(Record, usize)>> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let crc_stored = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let kind_byte = buf[4];
        let key_len = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]) as usize;
        let value_len = u32::from_le_bytes([buf[9], buf[10], buf[11], buf[12]]) as usize;
        if key_len > MAX_KEY_LEN || value_len > MAX_VALUE_LEN {
            return Err(DbError::Corruption {
                segment,
                offset,
                reason: format!("implausible lengths key={key_len} value={value_len}"),
            });
        }
        let total = HEADER_LEN + key_len + value_len;
        if buf.len() < total {
            return Ok(None);
        }
        let crc_actual = crc32(&buf[4..total]);
        if crc_actual != crc_stored {
            return Err(DbError::Corruption {
                segment,
                offset,
                reason: format!("crc mismatch stored={crc_stored:#x} actual={crc_actual:#x}"),
            });
        }
        let kind = RecordKind::from_byte(kind_byte).ok_or_else(|| DbError::Corruption {
            segment,
            offset,
            reason: format!("unknown record kind {kind_byte}"),
        })?;
        let key = buf[HEADER_LEN..HEADER_LEN + key_len].to_vec();
        let value = buf[HEADER_LEN + key_len..total].to_vec();
        Ok(Some((Record { kind, key, value }, total)))
    }
}

fn validate_sizes(key: &[u8], value: &[u8]) -> DbResult<()> {
    if key.len() > MAX_KEY_LEN {
        return Err(DbError::KeyTooLarge(key.len()));
    }
    if value.len() > MAX_VALUE_LEN {
        return Err(DbError::ValueTooLarge(value.len()));
    }
    Ok(())
}

/// CRC-32 (IEEE 802.3 polynomial), slicing-by-8 (eight table lookups per 8-byte word, the
/// same output as the bytewise routine), implemented locally to avoid a dependency.
/// `pasoa_net::frame::crc32` is the same routine; neither crate depends on the other.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
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
    fn roundtrip_put() {
        let r = Record::put(b"key", b"value").unwrap();
        let buf = r.encode();
        let (decoded, used) = Record::decode(&buf, 0, 0).unwrap().unwrap();
        assert_eq!(decoded, r);
        assert_eq!(used, buf.len());
        assert_eq!(used, r.encoded_len());
    }

    #[test]
    fn roundtrip_delete() {
        let r = Record::delete(b"gone").unwrap();
        let buf = r.encode();
        let (decoded, _) = Record::decode(&buf, 0, 0).unwrap().unwrap();
        assert_eq!(decoded.kind, RecordKind::Delete);
        assert_eq!(decoded.key, b"gone");
        assert!(decoded.value.is_empty());
    }

    #[test]
    fn truncated_buffer_returns_none() {
        let r = Record::put(b"abc", b"defghij").unwrap();
        let buf = r.encode();
        for cut in 0..buf.len() {
            let out = Record::decode(&buf[..cut], 0, 0).unwrap();
            assert!(out.is_none(), "cut at {cut} should be incomplete");
        }
    }

    #[test]
    fn corrupt_crc_detected() {
        let r = Record::put(b"abc", b"def").unwrap();
        let mut buf = r.encode();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let err = Record::decode(&buf, 7, 42).unwrap_err();
        match err {
            DbError::Corruption {
                segment, offset, ..
            } => {
                assert_eq!(segment, 7);
                assert_eq!(offset, 42);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_kind_detected() {
        let r = Record::put(b"abc", b"def").unwrap();
        let mut buf = r.encode();
        buf[4] = 99;
        // Fix the crc so the kind check (not the crc check) trips.
        let crc = crc32(&buf[4..]);
        buf[..4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Record::decode(&buf, 0, 0),
            Err(DbError::Corruption { .. })
        ));
    }

    #[test]
    fn oversized_key_rejected() {
        let big = vec![0u8; MAX_KEY_LEN + 1];
        assert!(matches!(
            Record::put(&big, b""),
            Err(DbError::KeyTooLarge(_))
        ));
        assert!(matches!(Record::delete(&big), Err(DbError::KeyTooLarge(_))));
    }

    #[test]
    fn empty_key_and_value_roundtrip() {
        let r = Record::put(b"", b"").unwrap();
        let buf = r.encode();
        let (decoded, used) = Record::decode(&buf, 0, 0).unwrap().unwrap();
        assert_eq!(decoded, r);
        assert_eq!(used, HEADER_LEN);
    }

    #[test]
    fn decode_consumes_only_one_record() {
        let a = Record::put(b"a", b"1").unwrap();
        let b = Record::put(b"b", b"2").unwrap();
        let mut buf = a.encode();
        buf.extend_from_slice(&b.encode());
        let (first, used) = Record::decode(&buf, 0, 0).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, _) = Record::decode(&buf[used..], 0, used as u64)
            .unwrap()
            .unwrap();
        assert_eq!(second, b);
    }
}
