//! Property-based tests: the on-disk store must behave exactly like an in-memory BTreeMap
//! under arbitrary interleavings of puts (empty values among them), deletes, reads, reopens and
//! compactions, with the value cache inside its budget throughout.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;

use pasoa_kvdb::{Db, DbOptions, SyncPolicy, WriteBatch};

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    /// Overwrite the key, switching its value between empty and `.1` (which is non-empty).
    Flip(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    Batch(Vec<(Vec<u8>, Option<Vec<u8>>)>),
    Compact,
    Reopen,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small key space so overwrites and deletes of existing keys actually happen.
    prop::collection::vec(prop::num::u8::ANY, 1..8).prop_map(|mut v| {
        for b in &mut v {
            *b %= 16;
        }
        v
    })
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Empty values are most of what the provenance store writes (its index entries).
    prop_oneof![
        1 => Just(Vec::new()),
        3 => nonempty_value_strategy(),
    ]
}

fn nonempty_value_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::num::u8::ANY, 1..64)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key_strategy(), value_strategy()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (key_strategy(), nonempty_value_strategy()).prop_map(|(k, v)| Op::Flip(k, v)),
        2 => key_strategy().prop_map(Op::Delete),
        3 => key_strategy().prop_map(Op::Get),
        2 => prop::collection::vec(
            (key_strategy(), prop::option::of(value_strategy())),
            1..6
        )
        .prop_map(Op::Batch),
        1 => Just(Op::Compact),
        1 => Just(Op::Reopen),
    ]
}

fn tempdir(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!("kvdb-prop-{}-{}", std::process::id(), tag))
}

fn options() -> DbOptions {
    DbOptions {
        segment_target_bytes: 2048,
        cache_budget_bytes: 4096,
        sync: SyncPolicy::OsFlush,
        auto_compact_garbage_ratio: 0.0,
    }
}

/// Path of the first (and, for the torn-tail test's write volume, only) segment file.
fn segment_one(dir: &std::path::Path) -> PathBuf {
    dir.join(format!("seg-{:016}.log", 1))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn store_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..60), tag in 0u64..u64::MAX) {
        let dir = tempdir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut db = Db::open_with(&dir, options()).unwrap();

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    db.put(&k, &v).unwrap();
                    model.insert(k, v);
                }
                Op::Flip(k, v) => {
                    let v = if model.get(&k).is_some_and(|old| !old.is_empty()) { Vec::new() } else { v };
                    db.put(&k, &v).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    db.delete(&k).unwrap();
                    model.remove(&k);
                }
                Op::Get(k) => {
                    let got = db.get(&k).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&k));
                }
                Op::Batch(entries) => {
                    let mut batch = WriteBatch::new();
                    for (k, maybe_v) in &entries {
                        match maybe_v {
                            Some(v) => { batch.put(k, v).unwrap(); }
                            None => { batch.delete(k).unwrap(); }
                        }
                    }
                    db.write_batch(batch).unwrap();
                    for (k, maybe_v) in entries {
                        match maybe_v {
                            Some(v) => { model.insert(k, v); }
                            None => { model.remove(&k); }
                        }
                    }
                }
                Op::Compact => db.compact().unwrap(),
                Op::Reopen => {
                    db.sync().unwrap();
                    drop(db);
                    db = Db::open_with(&dir, options()).unwrap();
                }
            }
            prop_assert!(db.stats().cache_bytes <= options().cache_budget_bytes as u64);
        }

        // Full logical equality with the model.
        prop_assert_eq!(db.len(), model.len());
        for (k, v) in &model {
            let got = db.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        let all_keys = db.scan_prefix(b"").unwrap();
        let model_keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        prop_assert_eq!(all_keys, model_keys);

        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Torn-tail recovery: once a batch has been committed (acked with an fsync behind it),
    /// truncating the segment log at ANY byte offset at or past the committed length — torn
    /// mid-record, mid-header, or through later un-acked writes — must still recover every
    /// acked key with its acked value.
    #[test]
    fn torn_tail_at_any_offset_recovers_every_acked_key(
        acked in prop::collection::btree_map(key_strategy(), value_strategy(), 1..20),
        unacked in prop::collection::btree_map(key_strategy(), value_strategy(), 0..10),
        cut_permille in 0u64..1000,
        tag in 0u64..u64::MAX,
    ) {
        let dir = tempdir(tag.wrapping_add(2));
        let _ = std::fs::remove_dir_all(&dir);
        // A large segment target keeps the whole workload in one active segment: the property
        // is about tearing the *tail of the log*; damage inside a sealed segment is a
        // different contract (the open refuses it rather than repairing silently).
        let one_segment = DbOptions {
            segment_target_bytes: 1 << 20,
            ..options()
        };
        let committed_len;
        {
            let db = Db::open_with(&dir, DbOptions { sync: SyncPolicy::Always, ..one_segment.clone() }).unwrap();
            let mut batch = WriteBatch::new();
            for (k, v) in &acked {
                batch.put(k, v).unwrap();
            }
            // Acked: under SyncPolicy::Always the batch is on stable storage when this returns.
            db.write_batch(batch).unwrap();
            committed_len = std::fs::metadata(segment_one(&dir)).unwrap().len();
            // Un-acked follow-on writes that the tear is allowed to destroy. Keys overlapping
            // the acked set are excluded so a lost overwrite cannot masquerade as data loss.
            for (k, v) in &unacked {
                if !acked.contains_key(k) {
                    db.put(k, v).unwrap();
                }
            }
            db.sync().unwrap();
        }
        // Tear the log at an arbitrary offset in [committed_len, file_len].
        let seg = segment_one(&dir);
        let file_len = std::fs::metadata(&seg).unwrap().len();
        let cut = committed_len + (file_len - committed_len) * cut_permille / 1000;
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let db = Db::open_with(&dir, one_segment).unwrap();
        for (k, v) in &acked {
            let got = db.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v), "acked key lost after tear at {}", cut);
        }
        // The recovery report accounts for exactly what was repaired.
        prop_assert!(db.recovery_report().records_recovered() >= acked.len() as u64);
        db.destroy().unwrap();
    }

    #[test]
    fn prefix_scan_matches_model(
        entries in prop::collection::btree_map(key_strategy(), value_strategy(), 0..40),
        prefix in prop::collection::vec(0u8..16, 0..3),
        tag in 0u64..u64::MAX,
    ) {
        let dir = tempdir(tag.wrapping_add(1));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Db::open_with(&dir, options()).unwrap();
        for (k, v) in &entries {
            db.put(k, v).unwrap();
        }
        let expected: Vec<Vec<u8>> =
            entries.keys().filter(|k| k.starts_with(&prefix)).cloned().collect();
        prop_assert_eq!(db.scan_prefix(&prefix).unwrap(), expected);
        db.destroy().unwrap();
    }
}
