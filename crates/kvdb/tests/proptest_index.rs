//! Model-based property test: the front-coded key index must behave exactly like a `BTreeMap`
//! under inserts, overwrites, removals down to empty, inserts below the first key, lookups,
//! prefix scans and range scans bounded on block boundaries, with `len` and `live_bytes` right
//! after every operation.
//!
//! Keys come from a three-letter alphabet behind a handful of stems that are prefixes of one
//! another, so neighbours share long prefixes and blocks split and re-key often. Stem lengths
//! put shared and unshared lengths on both sides of the one-byte varint boundary (127/128), and
//! one rare stem makes keys near `MAX_KEY_LEN`, past the two-byte boundary (16 383).

use std::collections::BTreeMap;

use proptest::prelude::*;

use pasoa_kvdb::index::{IndexEntry, KeyIndex};
use pasoa_kvdb::record::MAX_KEY_LEN;
use pasoa_kvdb::segment::RecordPointer;

const STEMS: [usize; 7] = [0, 3, 60, 126, 127, 128, 250];

/// The first `len` bytes of one long, repeating prefix: every stem is a prefix of the longer
/// ones.
fn stem(len: usize) -> Vec<u8> {
    b"x/s/session:q:"
        .iter()
        .cycle()
        .take(len)
        .copied()
        .collect()
}

fn with_tail(stem_len: usize, tail: Vec<u8>) -> Vec<u8> {
    let mut key = stem(stem_len);
    key.extend(tail.iter().map(|b| b'a' + b));
    key
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        40 => (0..STEMS.len(), prop::collection::vec(0u8..3, 0..51))
            .prop_map(|(s, tail)| with_tail(STEMS[s], tail)),
        1 => prop::collection::vec(0u8..3, 0..4)
            .prop_map(|tail| with_tail(MAX_KEY_LEN - 4, tail)),
    ]
}

fn entry_strategy() -> impl Strategy<Value = IndexEntry> {
    (0u64..4, 0u64..u64::MAX, 0u32..u32::MAX, 0u32..1000).prop_map(
        |(segment, offset, len, value_len)| IndexEntry {
            ptr: RecordPointer {
                segment,
                offset,
                len,
            },
            value_len,
        },
    )
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, IndexEntry),
    /// Overwrite the `n`-th live key (modulo the live count).
    Overwrite(usize, IndexEntry),
    /// Remove the `n`-th live key.
    Remove(usize),
    /// Remove a key that may or may not be live.
    RemoveAny(Vec<u8>),
    /// Insert a proper prefix of the current first key, which sorts below it.
    InsertBelowFirst(usize, IndexEntry),
    Get(Vec<u8>),
    /// Scan the prefix made of the first `len` bytes (modulo its length + 1) of the `n`-th
    /// live key.
    Prefix(usize, usize),
    /// Scan between two bounds, each a block's first key nudged by `Nudge`.
    Range((usize, Nudge), (usize, Nudge)),
}

/// How a range bound sits against a block's first key.
#[derive(Debug, Clone, Copy)]
enum Nudge {
    At,
    /// The first key with its last byte dropped: just below it.
    Below,
    /// The first key with a zero byte appended: just above it.
    Above,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let nudge = || prop_oneof![Just(Nudge::At), Just(Nudge::Below), Just(Nudge::Above)];
    prop_oneof![
        12 => (key_strategy(), entry_strategy()).prop_map(|(k, e)| Op::Insert(k, e)),
        3 => (0usize..usize::MAX, entry_strategy()).prop_map(|(n, e)| Op::Overwrite(n, e)),
        4 => (0usize..usize::MAX).prop_map(Op::Remove),
        1 => key_strategy().prop_map(Op::RemoveAny),
        1 => (0usize..usize::MAX, entry_strategy()).prop_map(|(n, e)| Op::InsertBelowFirst(n, e)),
        3 => key_strategy().prop_map(Op::Get),
        1 => (0usize..usize::MAX, 0usize..usize::MAX).prop_map(|(n, len)| Op::Prefix(n, len)),
        1 => ((0usize..usize::MAX, nudge()), (0usize..usize::MAX, nudge()))
            .prop_map(|(start, end)| Op::Range(start, end)),
    ]
}

fn live_bytes(model: &BTreeMap<Vec<u8>, IndexEntry>) -> u64 {
    model
        .iter()
        .map(|(k, e)| k.len() as u64 + e.value_len as u64)
        .sum()
}

fn nth_key(model: &BTreeMap<Vec<u8>, IndexEntry>, n: usize) -> Option<Vec<u8>> {
    (!model.is_empty()).then(|| model.keys().nth(n % model.len()).unwrap().clone())
}

fn bound(index: &KeyIndex, (n, nudge): (usize, Nudge)) -> Vec<u8> {
    let starts: Vec<&[u8]> = index.block_starts().collect();
    let mut key = if starts.is_empty() {
        Vec::new()
    } else {
        starts[n % starts.len()].to_vec()
    };
    match nudge {
        Nudge::At => {}
        Nudge::Below => {
            key.pop();
        }
        Nudge::Above => key.push(0),
    }
    key
}

fn check_all(index: &KeyIndex, model: &BTreeMap<Vec<u8>, IndexEntry>) -> Result<(), TestCaseError> {
    let got: Vec<(Vec<u8>, IndexEntry)> = index.iter().collect();
    let want: Vec<(Vec<u8>, IndexEntry)> = model.iter().map(|(k, e)| (k.clone(), *e)).collect();
    prop_assert_eq!(got.len(), want.len());
    prop_assert!(got == want, "iteration differs from the model");
    for (k, e) in model {
        prop_assert_eq!(index.get(k), Some(*e));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn index_matches_btreemap(
        ops in prop::collection::vec(op_strategy(), 1..400),
        drain_stride in 1usize..64,
    ) {
        let mut index = KeyIndex::new();
        let mut model: BTreeMap<Vec<u8>, IndexEntry> = BTreeMap::new();

        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(k, e) => {
                    prop_assert_eq!(index.insert(&k, e), model.insert(k, e));
                }
                Op::Overwrite(n, e) => {
                    if let Some(k) = nth_key(&model, n) {
                        prop_assert_eq!(index.insert(&k, e), model.insert(k, e));
                    }
                }
                Op::Remove(n) => {
                    if let Some(k) = nth_key(&model, n) {
                        prop_assert_eq!(index.remove(&k), model.remove(&k));
                    }
                }
                Op::RemoveAny(k) => {
                    prop_assert_eq!(index.remove(&k), model.remove(&k));
                }
                Op::InsertBelowFirst(n, e) => {
                    let first = model.keys().next().cloned();
                    if let Some(first) = first.filter(|k| !k.is_empty()) {
                        let k = first[..n % first.len()].to_vec();
                        prop_assert!(model.insert(k.clone(), e).is_none());
                        prop_assert!(index.insert(&k, e).is_none());
                        prop_assert_eq!(index.iter().next().map(|(k, _)| k), Some(k));
                    }
                }
                Op::Get(k) => {
                    prop_assert_eq!(index.get(&k), model.get(&k).copied());
                    prop_assert_eq!(index.contains(&k), model.contains_key(&k));
                }
                Op::Prefix(n, len) => {
                    if let Some(k) = nth_key(&model, n) {
                        let prefix = &k[..len % (k.len() + 1)];
                        let got: Vec<(Vec<u8>, IndexEntry)> = index.iter_prefix(prefix).collect();
                        let want: Vec<(Vec<u8>, IndexEntry)> = model
                            .iter()
                            .filter(|(k, _)| k.starts_with(prefix))
                            .map(|(k, e)| (k.clone(), *e))
                            .collect();
                        prop_assert!(got == want, "prefix scan of {} bytes differs", prefix.len());
                    }
                }
                Op::Range(start, end) => {
                    let (start, end) = (bound(&index, start), bound(&index, end));
                    let got: Vec<(Vec<u8>, IndexEntry)> =
                        index.iter_range(&start, &end).collect();
                    let want: Vec<(Vec<u8>, IndexEntry)> = if start <= end {
                        model
                            .range(start.clone()..end.clone())
                            .map(|(k, e)| (k.clone(), *e))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    prop_assert!(got == want, "range scan differs");
                }
            }
            prop_assert_eq!(index.len(), model.len());
            prop_assert_eq!(index.is_empty(), model.is_empty());
            prop_assert_eq!(index.live_bytes(), live_bytes(&model));
            if step.is_multiple_of(16) {
                check_all(&index, &model)?;
            }
        }
        check_all(&index, &model)?;

        // Remove everything, in an order that jumps around the key space.
        while let Some(k) = nth_key(&model, drain_stride.wrapping_mul(model.len() + 7)) {
            prop_assert_eq!(index.remove(&k), model.remove(&k));
            prop_assert_eq!(index.len(), model.len());
            prop_assert_eq!(index.live_bytes(), live_bytes(&model));
            if model.len().is_multiple_of(8) {
                check_all(&index, &model)?;
            }
        }
        prop_assert!(index.is_empty());
        prop_assert_eq!(index.iter().count(), 0);
        prop_assert_eq!(index.block_starts().count(), 0);
        prop_assert_eq!(index.heap_bytes(), 0);
    }
}
