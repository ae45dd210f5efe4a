//! Footprint regression test: the key index holds the provenance store's keys front-coded, at
//! a pinned number of heap bytes per key. Deterministic — it counts the index's own bytes
//! (`KeyIndex::heap_bytes`), not the process's RSS.

use pasoa_kvdb::index::{IndexEntry, KeyIndex};
use pasoa_kvdb::segment::RecordPointer;

/// Heap bytes per key the index may hold on corpus-shaped keys. The keys average 64.2 B; the
/// blocks hold ~43 B per key, where a `BTreeMap<Vec<u8>, IndexEntry>` holds ~171 B (counted
/// by allocation size, these keys in this order).
const MAX_BYTES_PER_KEY: usize = 48;

/// The keys the provenance store writes for a corpus of `sessions` sessions recorded
/// round-robin, `per_session` assertions each, in write order: per assertion a document, a
/// by-session and a by-actor entry, an interaction and a session marker for the two of every
/// three assertions that open an interaction, and an edge and a by-relation entry for every
/// relationship.
fn corpus_keys(sessions: usize, per_session: usize) -> Vec<Vec<u8>> {
    let stems: Vec<String> = (0..sessions as u64)
        .map(|s| {
            let hash = s.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
            format!("q:{hash:012x}:{s:04}")
        })
        .collect();
    let mut keys = Vec::new();
    for k in 0..per_session {
        for (s, stem) in stems.iter().enumerate() {
            let (opens, seq) = if k % 3 == 1 { (false, 1) } else { (true, 0) };
            let i = if opens { k } else { k - 1 };
            let interaction = format!("interaction:{stem}:{i:06}");
            let sort = format!("{interaction}/{seq:012}");
            let session = format!("session:{stem}");
            keys.push(format!("a/{sort}"));
            keys.push(format!("x/s/{session}/{sort}"));
            if k % 3 == 2 {
                keys.push(format!("x/e/{session}/data:{stem}:{k:06}/{seq:012}"));
                keys.push(format!("x/r/derived-from/{sort}"));
            }
            keys.push(format!("x/a/client-{:02}/{sort}", s % 8));
            if opens {
                keys.push(format!("i/{interaction}"));
                keys.push(format!("s/{session}/{interaction}"));
            }
        }
    }
    keys.into_iter().map(String::into_bytes).collect()
}

fn entry(n: u64) -> IndexEntry {
    IndexEntry {
        ptr: RecordPointer {
            segment: 1,
            offset: n * 96,
            len: 96,
        },
        value_len: 0,
    }
}

#[test]
fn corpus_shaped_keys_fit_the_byte_budget() {
    let keys = corpus_keys(100, 201);
    assert!(keys.len() >= 100_000, "{} keys", keys.len());
    let mut index = KeyIndex::new();
    for (n, key) in keys.iter().enumerate() {
        assert!(index.insert(key, entry(n as u64)).is_none());
    }
    assert_eq!(index.len(), keys.len());
    let key_bytes: usize = keys.iter().map(Vec::len).sum();
    let per_key = index.heap_bytes() / index.len();
    println!(
        "{} keys averaging {:.1} B: {} heap bytes, {per_key} B per key",
        keys.len(),
        key_bytes as f64 / keys.len() as f64,
        index.heap_bytes()
    );
    assert!(
        per_key <= MAX_BYTES_PER_KEY,
        "{per_key} B per key exceeds {MAX_BYTES_PER_KEY}"
    );

    // The index still answers exactly: every key, in order.
    let mut sorted = keys.clone();
    sorted.sort();
    assert!(index.iter().map(|(key, _)| key).eq(sorted.iter().cloned()));
    for (n, key) in keys.iter().enumerate().step_by(97) {
        assert_eq!(index.get(key), Some(entry(n as u64)));
    }
}
