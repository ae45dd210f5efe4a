//! Segment files: append-only log files holding encoded [`Record`]s.
//!
//! A database directory contains segments named `seg-<id>.log`. Exactly one segment (the one
//! with the highest id) is active for writes; older segments are immutable and only read (for
//! `get` misses against the in-memory value cache, and during compaction).

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::{DbError, DbResult};
use crate::record::Record;

/// File-name prefix of segment files.
pub const SEGMENT_PREFIX: &str = "seg-";
/// File-name suffix of segment files.
pub const SEGMENT_SUFFIX: &str = ".log";

/// Location of a record inside the segment log, kept by the in-memory index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordPointer {
    /// Segment id containing the record.
    pub segment: u64,
    /// Byte offset of the record header within the segment.
    pub offset: u64,
    /// Total encoded length of the record.
    pub len: u32,
}

/// Build the path of segment `id` within `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{id:016}{SEGMENT_SUFFIX}"))
}

/// Parse a segment id out of a file name, if the name matches the segment pattern.
pub fn parse_segment_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix(SEGMENT_PREFIX)?;
    let digits = rest.strip_suffix(SEGMENT_SUFFIX)?;
    digits.parse().ok()
}

/// List all segment ids present in `dir`, sorted ascending.
pub fn list_segments(dir: &Path) -> DbResult<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(id) = parse_segment_id(name) {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// A writable, append-only segment.
///
/// Appends accumulate in an in-process buffer; `flush` hands them to the operating system and
/// `sync` forces them to stable storage. The writer tracks how far each of those stages has
/// progressed so a simulated crash ([`SegmentWriter::crash_discard_unsynced`]) can model
/// power-loss semantics exactly: everything past the last fsync point is gone.
#[derive(Debug)]
pub struct SegmentWriter {
    id: u64,
    file: File,
    /// Logical length: everything appended, including bytes still in `pending`.
    len: u64,
    /// Bytes known to be on stable storage (covered by an fsync). Everything appended beyond
    /// this is either in `pending` or in OS buffers, and is what a simulated crash discards.
    synced_len: u64,
    /// Appended but not yet written to the file.
    pending: Vec<u8>,
}

impl SegmentWriter {
    /// Create a fresh segment `id` in `dir` (truncating any pre-existing file).
    pub fn create(dir: &Path, id: u64) -> DbResult<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(segment_path(dir, id))?;
        Ok(SegmentWriter {
            id,
            file,
            len: 0,
            synced_len: 0,
            pending: Vec::with_capacity(8 * 1024),
        })
    }

    /// Re-open an existing segment `id` for appending at `len` bytes.
    ///
    /// Bytes already on disk survived whatever ended the previous process, so they count as
    /// synced for crash-simulation purposes.
    pub fn open_for_append(dir: &Path, id: u64, len: u64) -> DbResult<Self> {
        let mut file = OpenOptions::new().write(true).open(segment_path(dir, id))?;
        file.set_len(len)?; // truncate any torn tail discovered during recovery
        file.seek(SeekFrom::Start(len))?;
        Ok(SegmentWriter {
            id,
            file,
            len,
            synced_len: len,
            pending: Vec::with_capacity(8 * 1024),
        })
    }

    /// The id of this segment.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Bytes written to this segment so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes known to have reached stable storage.
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Append a record, returning its pointer. Data reaches the OS via `flush`/`sync`.
    pub fn append(&mut self, record: &Record) -> DbResult<RecordPointer> {
        let before = self.pending.len();
        record.encode_into(&mut self.pending);
        let encoded = (self.pending.len() - before) as u64;
        let ptr = RecordPointer {
            segment: self.id,
            offset: self.len,
            len: encoded as u32,
        };
        self.len += encoded;
        Ok(ptr)
    }

    /// Flush buffered data to the operating system.
    pub fn flush(&mut self) -> DbResult<()> {
        if !self.pending.is_empty() {
            self.file.write_all(&self.pending)?;
            self.pending.clear();
        }
        self.file.flush()?;
        Ok(())
    }

    /// Force data to stable storage (fsync). This is the durability point: an acked write is
    /// crash-safe once `sync` has returned with the write inside `synced_len`.
    pub fn sync(&mut self) -> DbResult<()> {
        self.flush()?;
        self.file.sync_data()?;
        self.synced_len = self.len;
        Ok(())
    }

    /// Simulate a crash: drop the in-process buffer and truncate the file back to the last
    /// fsync point, as a power loss would discard OS buffers that were never forced to disk.
    /// Returns the number of bytes that survived.
    pub fn crash_discard_unsynced(&mut self) -> DbResult<u64> {
        self.pending.clear();
        self.file.set_len(self.synced_len)?;
        self.file.seek(SeekFrom::Start(self.synced_len))?;
        self.len = self.synced_len;
        Ok(self.synced_len)
    }
}

impl Drop for SegmentWriter {
    /// Hand any still-buffered appends to the operating system (no fsync) on a clean close.
    /// Every append run flushes or fsyncs before it acks, so the buffer is normally empty
    /// here; bytes remain only when a run's write failed part-way, and that run returned its
    /// error instead of an ack. After a simulated crash the buffer is already empty, so this
    /// writes nothing.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Outcome of scanning one segment during recovery.
#[derive(Debug)]
pub struct SegmentScan {
    /// Cleanly decoded records with their pointers, in log order.
    pub records: Vec<(Record, RecordPointer)>,
    /// Number of bytes covered by cleanly decoded records; everything past this is a torn or
    /// corrupt tail the caller should truncate.
    pub clean_len: u64,
    /// Total bytes present in the segment file.
    pub file_len: u64,
    /// Why decoding stopped before the end of the file, when it did: a CRC failure or other
    /// validation error. `None` for a clean end or a merely incomplete (torn) final record.
    pub corruption: Option<String>,
    /// Records that still decode cleanly past the failed record's claimed extent. Non-zero
    /// means the damage sits in the *middle* of the log — data that was acked after the
    /// damaged bytes were — not the torn tail a crash leaves.
    pub records_beyond_corruption: u64,
}

impl SegmentScan {
    /// Bytes past the last cleanly decodable record.
    pub fn torn_bytes(&self) -> u64 {
        self.file_len - self.clean_len
    }
}

/// Read an entire segment into memory and decode its records.
///
/// Decoding stops at the first incomplete record (torn tail) or validation failure (CRC
/// mismatch, implausible lengths, unknown kind); both are reported through [`SegmentScan`] so
/// the caller can truncate the log there, matching write-ahead-log recovery semantics. Only an
/// I/O failure reading the file is an error.
pub fn scan_segment(dir: &Path, id: u64) -> DbResult<SegmentScan> {
    let mut file = File::open(segment_path(dir, id))?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut corruption = None;
    let mut records_beyond_corruption = 0u64;
    while offset < data.len() {
        match Record::decode(&data[offset..], id, offset as u64) {
            Ok(Some((record, used))) => {
                let ptr = RecordPointer {
                    segment: id,
                    offset: offset as u64,
                    len: used as u32,
                };
                records.push((record, ptr));
                offset += used;
            }
            Ok(None) => break, // torn tail: incomplete final record
            Err(e) => {
                // A record that fails validation ends the recoverable log. Whether truncating
                // here is safe depends on what lies beyond: the caller uses
                // `records_beyond_corruption` to tell a damaged tail from damaged middle.
                corruption = Some(e.to_string());
                records_beyond_corruption = probe_beyond_corruption(&data, offset, id);
                break;
            }
        }
    }
    Ok(SegmentScan {
        records,
        clean_len: offset as u64,
        file_len: data.len() as u64,
        corruption,
        records_beyond_corruption,
    })
}

/// After a validation failure at `offset`, count records that still decode cleanly past the
/// failed record's claimed extent. A CRC-failing or unknown-kind record carries a trustworthy
/// header (its lengths passed the plausibility check), so the next record boundary is known;
/// when the lengths themselves are implausible the log cannot be resynchronised and the probe
/// reports nothing.
fn probe_beyond_corruption(data: &[u8], offset: usize, id: u64) -> u64 {
    use crate::record::{HEADER_LEN, MAX_KEY_LEN, MAX_VALUE_LEN};
    let header = &data[offset..];
    if header.len() < HEADER_LEN {
        return 0;
    }
    let key_len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    let value_len = u32::from_le_bytes([header[9], header[10], header[11], header[12]]) as usize;
    if key_len > MAX_KEY_LEN || value_len > MAX_VALUE_LEN {
        return 0;
    }
    let mut probe = offset + HEADER_LEN + key_len + value_len;
    let mut found = 0u64;
    while probe < data.len() {
        match Record::decode(&data[probe..], id, probe as u64) {
            Ok(Some((_, used))) => {
                found += 1;
                probe += used;
            }
            _ => break,
        }
    }
    found
}

/// Truncate segment `id` to `len` bytes, discarding a torn or corrupt tail. In the open path
/// this truncation happens through `SegmentWriter::open_for_append` (which resumes the writer
/// at the clean length); this standalone form exists only for tests.
#[cfg(test)]
fn truncate_segment(dir: &Path, id: u64, len: u64) -> DbResult<()> {
    let file = OpenOptions::new().write(true).open(segment_path(dir, id))?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

/// Read a single record at `ptr` from disk.
pub fn read_record(dir: &Path, ptr: RecordPointer) -> DbResult<Record> {
    let mut file = File::open(segment_path(dir, ptr.segment))?;
    file.seek(SeekFrom::Start(ptr.offset))?;
    let mut buf = vec![0u8; ptr.len as usize];
    file.read_exact(&mut buf)?;
    match Record::decode(&buf, ptr.segment, ptr.offset)? {
        Some((record, _)) => Ok(record),
        None => Err(DbError::Corruption {
            segment: ptr.segment,
            offset: ptr.offset,
            reason: "pointer refers to an incomplete record".into(),
        }),
    }
}

/// Delete segment `id` from disk.
pub fn remove_segment(dir: &Path, id: u64) -> DbResult<()> {
    fs::remove_file(segment_path(dir, id))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kvdb-seg-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn segment_name_roundtrip() {
        let p = segment_path(Path::new("/tmp/x"), 42);
        let name = p.file_name().unwrap().to_str().unwrap().to_string();
        assert_eq!(parse_segment_id(&name), Some(42));
        assert_eq!(parse_segment_id("not-a-segment"), None);
        assert_eq!(parse_segment_id("seg-xyz.log"), None);
    }

    #[test]
    fn append_and_scan() {
        let dir = tempdir("append");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        let r1 = Record::put(b"a", b"1").unwrap();
        let r2 = Record::put(b"b", b"2").unwrap();
        let p1 = w.append(&r1).unwrap();
        let p2 = w.append(&r2).unwrap();
        w.sync().unwrap();
        assert_eq!(p1.offset, 0);
        assert_eq!(p2.offset, p1.len as u64);
        let scan = scan_segment(&dir, 1).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].0, r1);
        assert_eq!(scan.records[1].0, r2);
        assert_eq!(scan.clean_len, w.len());
        assert_eq!(scan.torn_bytes(), 0);
        assert!(scan.corruption.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_record_by_pointer() {
        let dir = tempdir("read-ptr");
        let mut w = SegmentWriter::create(&dir, 3).unwrap();
        let r = Record::put(b"key", b"value").unwrap();
        let ptr = w.append(&r).unwrap();
        w.sync().unwrap();
        assert_eq!(read_record(&dir, ptr).unwrap(), r);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored_by_scan() {
        let dir = tempdir("torn");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        let r = Record::put(b"good", b"record").unwrap();
        w.append(&r).unwrap();
        w.sync().unwrap();
        // Append garbage that looks like the start of a record but is cut short.
        let partial = Record::put(b"partial", b"payload-that-will-be-cut")
            .unwrap()
            .encode();
        let mut f = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, 1))
            .unwrap();
        f.write_all(&partial[..partial.len() / 2]).unwrap();
        f.sync_data().unwrap();
        let scan = scan_segment(&dir, 1).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.clean_len, scan.records[0].1.len as u64);
        assert!(scan.torn_bytes() > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_discards_everything_past_the_last_sync() {
        let dir = tempdir("crash");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(&Record::put(b"synced", b"1").unwrap()).unwrap();
        w.sync().unwrap();
        let durable = w.len();
        // One record flushed to the OS but never fsynced, one still in the writer's buffer.
        w.append(&Record::put(b"flushed", b"2").unwrap()).unwrap();
        w.flush().unwrap();
        w.append(&Record::put(b"pending", b"3").unwrap()).unwrap();
        assert_eq!(w.synced_len(), durable);
        let survived = w.crash_discard_unsynced().unwrap();
        assert_eq!(survived, durable);
        let scan = scan_segment(&dir, 1).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0.key, b"synced");
        assert_eq!(scan.file_len, durable);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_failing_tail_ends_the_scan_with_a_reason() {
        let dir = tempdir("crc-tail");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(&Record::put(b"good", b"record").unwrap()).unwrap();
        w.sync().unwrap();
        let clean = w.len();
        drop(w);
        // A complete record whose payload byte was flipped after the CRC was computed.
        let mut bad = Record::put(b"bad", b"payload").unwrap().encode();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let mut f = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, 1))
            .unwrap();
        f.write_all(&bad).unwrap();
        f.sync_data().unwrap();
        let scan = scan_segment(&dir, 1).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.clean_len, clean);
        assert!(scan.corruption.as_deref().unwrap().contains("crc mismatch"));
        // Truncating at the clean length removes the corruption permanently.
        truncate_segment(&dir, 1, scan.clean_len).unwrap();
        let rescan = scan_segment(&dir, 1).unwrap();
        assert!(rescan.corruption.is_none());
        assert_eq!(rescan.file_len, clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_reports_records_beyond_a_crc_failure() {
        let dir = tempdir("crc-mid");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        for i in 0..4u32 {
            w.append(&Record::put(format!("k{i}").as_bytes(), b"value").unwrap())
                .unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Flip a payload byte of the FIRST record: its CRC fails, but its header (and so the
        // next record's boundary) stays trustworthy and the three later records decode.
        let path = segment_path(&dir, 1);
        let mut data = fs::read(&path).unwrap();
        data[crate::record::HEADER_LEN] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let scan = scan_segment(&dir, 1).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.corruption.as_deref().unwrap().contains("crc mismatch"));
        assert_eq!(scan.records_beyond_corruption, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_segments_sorted() {
        let dir = tempdir("list");
        for id in [5u64, 1, 3] {
            SegmentWriter::create(&dir, id).unwrap();
        }
        assert_eq!(list_segments(&dir).unwrap(), vec![1, 3, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_for_append_truncates_and_continues() {
        let dir = tempdir("reopen");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        let r = Record::put(b"a", b"1").unwrap();
        w.append(&r).unwrap();
        w.sync().unwrap();
        let keep = w.len();
        drop(w);
        // Simulate a torn tail then reopen at the clean length.
        let mut f = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, 1))
            .unwrap();
        f.write_all(&[1, 2, 3]).unwrap();
        drop(f);
        let mut w = SegmentWriter::open_for_append(&dir, 1, keep).unwrap();
        let r2 = Record::put(b"b", b"2").unwrap();
        w.append(&r2).unwrap();
        w.sync().unwrap();
        let scan = scan_segment(&dir, 1).unwrap();
        assert_eq!(scan.records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
