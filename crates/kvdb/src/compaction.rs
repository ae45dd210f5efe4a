//! Log compaction: rewrite the live key set into a fresh segment and delete obsolete segments.
//!
//! Long-running provenance stores accumulate superseded records (a p-assertion documentation
//! element may be re-submitted, and batch imports create tombstoned staging keys). Compaction
//! bounds disk usage without ever blocking readers for the duration of the rewrite: the index
//! is only locked briefly to swap pointers at the end.

use crate::error::DbResult;
use crate::index::IndexEntry;
use crate::record::Record;
use crate::segment::{self, SegmentWriter};
use crate::store::Db;

/// Perform a full compaction of `db`.
///
/// Strategy: snapshot the live keys, re-read each live value, append them all into a brand-new
/// segment whose id is greater than every existing segment, atomically repoint the index, then
/// remove the old segments. Writes that land while compaction is running go to the (still
/// active) newest segment and are never lost: the repointing step only replaces entries whose
/// pointer still refers to a segment older than the compaction output.
pub fn compact(db: &Db) -> DbResult<()> {
    let inner = &db.inner;

    // 1. Seal the current active segment and start a new one, so the set of segments we are
    //    about to rewrite is immutable.
    let (rewrite_ids, output_id) = {
        let mut log = inner.log.lock();
        log.active.sync()?;
        let sealed_id = log.active.id();
        let output_id = sealed_id + 1;
        let fresh_active_id = sealed_id + 2;
        let new_active = SegmentWriter::create(&inner.dir, fresh_active_id)?;
        let old_active = std::mem::replace(&mut log.active, new_active);
        log.sealed.push(old_active.id());
        (log.sealed.clone(), output_id)
    };

    // 2. Snapshot the live entries that reside in the segments being rewritten.
    let snapshot: Vec<(Vec<u8>, IndexEntry)> = {
        let index = inner.index.read();
        index
            .iter()
            .filter(|(_, e)| rewrite_ids.contains(&e.ptr.segment))
            .collect()
    };

    // 3. Rewrite live records into the output segment.
    let mut output = SegmentWriter::create(&inner.dir, output_id)?;
    let mut moved = Vec::with_capacity(snapshot.len());
    for (key, entry) in snapshot {
        let record = segment::read_record(&inner.dir, entry.ptr)?;
        debug_assert_eq!(record.key, key);
        let new_ptr = output.append(&record)?;
        moved.push((key, entry, new_ptr, record));
    }
    output.sync()?;

    // 4. Repoint index entries that have not been superseded while we were copying.
    {
        let mut index = inner.index.write();
        for (key, old_entry, new_ptr, record) in moved {
            if let Some(current) = index.get(&key) {
                if current.ptr == old_entry.ptr {
                    index.insert(
                        &key,
                        IndexEntry {
                            ptr: new_ptr,
                            value_len: record.value.len() as u32,
                        },
                    );
                }
            }
        }
    }

    // 5. Retire the rewritten segments and account for the new layout.
    {
        let mut log = inner.log.lock();
        for id in &rewrite_ids {
            segment::remove_segment(&inner.dir, *id)?;
        }
        log.sealed.retain(|id| !rewrite_ids.contains(id));
        log.sealed.push(output_id);
        log.sealed.sort_unstable();
    }
    {
        let mut stats = inner.stats.lock();
        stats.compactions += 1;
        // After compaction the log contains only live data plus whatever the new active segment
        // has accumulated; reset the appended counter to the live estimate so the garbage ratio
        // reflects the post-compaction state.
        let index = inner.index.read();
        stats.appended_bytes = index.live_bytes();
        stats.live_keys = index.len() as u64;
        stats.live_bytes = index.live_bytes();
    }
    Ok(())
}

/// Encode the live contents of `db` as records, in key order — used by hot-backup tooling and
/// by tests to compare logical contents across compactions.
pub fn dump_live(db: &Db) -> DbResult<Vec<Record>> {
    let keys = db.scan_prefix(b"")?;
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        if let Some(value) = db.get(&key)? {
            out.push(Record::put(&key, &value)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{DbOptions, SyncPolicy};
    use std::path::PathBuf;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kvdb-compact-{}-{}-{}",
            name,
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn compaction_preserves_logical_contents() {
        let dir = tempdir("logical");
        let options = DbOptions {
            segment_target_bytes: 1024,
            auto_compact_garbage_ratio: 0.0,
            sync: SyncPolicy::OsFlush,
            ..Default::default()
        };
        let db = Db::open_with(&dir, options).unwrap();
        for i in 0..200u32 {
            db.put(
                format!("k{i:04}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
        }
        // Overwrite half and delete a quarter to create garbage.
        for i in 0..100u32 {
            db.put(
                format!("k{i:04}").as_bytes(),
                format!("updated-{i}").as_bytes(),
            )
            .unwrap();
        }
        for i in 150..200u32 {
            db.delete(format!("k{i:04}").as_bytes()).unwrap();
        }
        let before = dump_live(&db).unwrap();
        let segments_before = db.stats().segments;
        db.compact().unwrap();
        let after = dump_live(&db).unwrap();
        assert_eq!(before, after);
        assert_eq!(db.len(), 150);
        assert!(db.stats().segments <= segments_before);
        assert_eq!(db.get(b"k0000").unwrap().unwrap(), b"updated-0");
        assert!(db.get(b"k0199").unwrap().is_none());
        db.destroy().unwrap();
    }

    #[test]
    fn compaction_keeps_cached_values_readable() {
        let dir = tempdir("cache");
        let db = Db::open(&dir).unwrap();
        for i in 0..100u32 {
            db.put(
                format!("doc{i}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
            db.put(format!("marker{i}").as_bytes(), b"").unwrap();
        }
        let before = db.stats();
        db.compact().unwrap();
        for i in 0..100u32 {
            assert_eq!(
                db.get(format!("doc{i}").as_bytes()).unwrap().unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
        // Every read was a cache hit, and the cache holds what it held before.
        let after = db.stats();
        assert_eq!(after.cache_hits - before.cache_hits, 100);
        assert_eq!(
            (after.cache_entries, after.cache_bytes),
            (before.cache_entries, before.cache_bytes)
        );
        db.destroy().unwrap();
    }

    #[test]
    fn contents_survive_reopen_after_compaction() {
        let dir = tempdir("reopen");
        let options = DbOptions {
            segment_target_bytes: 512,
            auto_compact_garbage_ratio: 0.0,
            ..Default::default()
        };
        {
            let db = Db::open_with(&dir, options).unwrap();
            for i in 0..100u32 {
                db.put(format!("key{i}").as_bytes(), &[i as u8; 32])
                    .unwrap();
            }
            for i in 0..50u32 {
                db.delete(format!("key{i}").as_bytes()).unwrap();
            }
            db.compact().unwrap();
            db.sync().unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.len(), 50);
        assert_eq!(db.get(b"key75").unwrap().unwrap(), vec![75u8; 32]);
        assert!(db.get(b"key25").unwrap().is_none());
        db.destroy().unwrap();
    }

    #[test]
    fn writes_concurrent_with_compaction_are_kept() {
        let dir = tempdir("concurrent");
        let options = DbOptions {
            auto_compact_garbage_ratio: 0.0,
            ..Default::default()
        };
        let db = Db::open_with(&dir, options).unwrap();
        for i in 0..500u32 {
            db.put(format!("base{i}").as_bytes(), b"x").unwrap();
        }
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..500u32 {
                    db.put(format!("live{i}").as_bytes(), b"y").unwrap();
                }
            })
        };
        for _ in 0..5 {
            db.compact().unwrap();
        }
        writer.join().unwrap();
        db.compact().unwrap();
        assert_eq!(db.len(), 1000);
        assert_eq!(db.get(b"live499").unwrap().unwrap(), b"y");
        assert_eq!(db.get(b"base0").unwrap().unwrap(), b"x");
        db.destroy().unwrap();
    }

    #[test]
    fn repeated_compactions_are_idempotent() {
        let dir = tempdir("idempotent");
        let db = Db::open(&dir).unwrap();
        for i in 0..50u32 {
            db.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let before = dump_live(&db).unwrap();
        for _ in 0..3 {
            db.compact().unwrap();
            assert_eq!(dump_live(&db).unwrap(), before);
        }
        assert_eq!(db.stats().compactions, 3);
        db.destroy().unwrap();
    }
}
