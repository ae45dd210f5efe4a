//! In-memory ordered index mapping keys to their latest record location.
//!
//! The index is rebuilt on open by replaying the segment log in order; the last record for a
//! key wins (tombstones remove the entry). Ordered iteration supports the provenance store's
//! prefix scans (e.g. "all p-assertions for interaction X").
//!
//! ## Layout: front-coded blocks
//!
//! Every live key is held in RAM, so the index's footprint grows with the store. A
//! `BTreeMap<Vec<u8>, IndexEntry>` holds ~171 B per key on the provenance store's keys (64 B
//! on average, loaded in write order), most of it node slack and bytes a key repeats from its
//! sorted neighbour: the store's keyspaces are long shared prefixes
//! (`x/s/<session>/<interaction>/<seq>`), and sorted neighbours differ in ~8 of their 64 bytes.
//! The blocks below hold the same keys in ~43 B each.
//!
//! So the index keeps its entries in sorted *blocks*, LevelDB's data-block layout applied to an
//! in-memory keydir. A block is one `Vec<u8>` of [`BLOCK_BYTES`] capacity holding entries
//! encoded as
//!
//! ```text
//! varint shared | varint unshared | key[shared..] (unshared bytes) | IndexEntry (24 B, LE)
//! ```
//!
//! where `shared` is how many leading bytes the key has in common with the previous key of the
//! block. The first entry of a block has `shared == 0`, so it carries its whole key, and the
//! blocks sit in a `BTreeMap` keyed by that first key. The lengths are varints because a key
//! may be up to [`crate::record::MAX_KEY_LEN`] long.
//!
//! * **Lookup** finds the block whose first key is the greatest at or below the key, then walks
//!   the block comparing suffixes only: the walk tracks how many bytes the previous key shares
//!   with the sought one, so an entry's `shared` alone decides most comparisons and no key is
//!   rebuilt.
//! * **Insert** splices the entry into its block and re-codes only its successor, whose shared
//!   prefix can only grow. An insert that does not fit splits the block right after the new
//!   entry, so the block keeps the keys up to it and the tail moves to a new block; at a
//!   block's end the new key starts a block of its own. Keys that grow at the end of their
//!   range (each session's keys do) so leave full blocks behind them.
//! * **Remove** splices the entry out and re-codes its successor, drops an emptied block and
//!   re-keys a block whose first key went.
//! * **Iteration** starts where a lookup of its start would end, rebuilds each key in one
//!   buffer and yields an owned copy, in key order. A range scan visits only the blocks that
//!   start below its end, so only the last of them compares keys with the end; a prefix scan
//!   compares a key with the prefix only when it shares less than the prefix with the key
//!   before it.
//!
//! A block never grows past its allocation: it splits instead. So each block is one
//! allocation of one size for its whole life, and a load of half a million keys frees next to
//! nothing. Blocks that grew by reallocation as they filled left the allocator a heap of freed
//! chunks of every size, which slowed every other allocation in the process: the provenance
//! store's mixed query workload lost ~40 % of its throughput to malloc with them.

use std::collections::BTreeMap;
use std::ops::{Bound, Range};

use pasoa_obs::Gauge;

use crate::segment::RecordPointer;

/// Index entry: where the live value for a key resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Pointer into the segment log.
    pub ptr: RecordPointer,
    /// Length of the value payload (not the whole record).
    pub value_len: u32,
}

/// Bytes an [`IndexEntry`] takes in a block.
const ENTRY_BYTES: usize = 24;

impl IndexEntry {
    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.ptr.segment.to_le_bytes());
        out[8..16].copy_from_slice(&self.ptr.offset.to_le_bytes());
        out[16..20].copy_from_slice(&self.ptr.len.to_le_bytes());
        out[20..24].copy_from_slice(&self.value_len.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Self {
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        IndexEntry {
            ptr: RecordPointer {
                segment: u64_at(0),
                offset: u64_at(8),
                len: u32_at(16),
            },
            value_len: u32_at(20),
        }
    }
}

/// The capacity every block is allocated with (~28 entries of the provenance store's keys). A
/// block holding an entry larger than this is allocated to fit it.
pub const BLOCK_BYTES: usize = 1024;

/// Ordered key index.
#[derive(Default)]
pub struct KeyIndex {
    /// The blocks, keyed by their first key.
    blocks: BTreeMap<Box<[u8]>, Vec<u8>>,
    /// Number of live keys.
    len: usize,
    /// Bytes of live key+value data (used to estimate garbage for compaction decisions).
    live_bytes: u64,
    /// Block capacities plus the lengths of the map's keys.
    heap_bytes: usize,
    heap_gauge: Gauge,
}

impl std::fmt::Debug for KeyIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyIndex")
            .field("len", &self.len)
            .field("blocks", &self.blocks.len())
            .field("heap_bytes", &self.heap_bytes)
            .finish()
    }
}

impl KeyIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate bytes of live data referenced by the index.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Heap bytes the index holds: the capacity of every block plus the block map's keys.
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// Report [`KeyIndex::heap_bytes`] on `gauge` from now on. The level moves from the
    /// previous gauge to the new one, and every change is an adjustment, so indexes sharing a
    /// registry sum.
    pub fn attach(&mut self, gauge: Gauge) {
        let held = self.heap_bytes as i64;
        self.heap_gauge.adjust(-held);
        gauge.adjust(held);
        self.heap_gauge = gauge;
    }

    /// Record that `key` now lives at `entry`. Returns the previous entry if any.
    pub fn insert(&mut self, key: &[u8], entry: IndexEntry) -> Option<IndexEntry> {
        let Some((_, block)) = self.blocks.range_mut::<[u8], _>(upto(key)).next_back() else {
            return self.insert_first(key, entry);
        };
        let vacancy = match probe(block, key) {
            Probe::Found(slot) => {
                let old = slot.entry(block);
                entry.encode(&mut block[slot.suffix.end..slot.end()]);
                self.live_bytes = self.live_bytes - old.value_len as u64 + entry.value_len as u64;
                return Some(old);
            }
            Probe::Vacant(vacancy) => vacancy,
        };
        let capacity = block.capacity();
        let splice = Splice::plan(block, key, &vacancy);
        let tail = if block.len() + splice.growth() <= block.capacity() {
            splice.apply(block, key, entry);
            None
        } else if vacancy.at == block.len() {
            // After a full block's last key: the new key starts a block of its own.
            Some((key.into(), new_block(key, entry)))
        } else {
            // Split right after the new entry: the block keeps the keys up to it.
            let tail = split_off(block, vacancy.at);
            push_entry(block, vacancy.shared, &key[vacancy.shared..], entry);
            Some(tail)
        };
        let grown = block.capacity() as isize - capacity as isize;
        self.added(key, entry, grown, tail);
        None
    }

    /// Insert `key`, which precedes every key in the index: into the first block, re-keyed by
    /// it, if it fits there, else as a block of its own.
    fn insert_first(&mut self, key: &[u8], entry: IndexEntry) -> Option<IndexEntry> {
        let mut grown = key.len() as isize;
        let block = match self.blocks.pop_first() {
            Some((first, mut block)) => {
                let Probe::Vacant(vacancy) = probe(&block, key) else {
                    unreachable!("the key precedes every block");
                };
                let splice = Splice::plan(&block, key, &vacancy);
                if block.len() + splice.growth() <= block.capacity() {
                    splice.apply(&mut block, key, entry);
                    grown -= first.len() as isize;
                    block
                } else {
                    self.blocks.insert(first, block);
                    let block = new_block(key, entry);
                    grown += block.capacity() as isize;
                    block
                }
            }
            None => {
                let block = new_block(key, entry);
                grown += block.capacity() as isize;
                block
            }
        };
        self.blocks.insert(key.into(), block);
        self.added(key, entry, grown, None);
        None
    }

    /// Account for a newly inserted key whose block's heap grew by `grown`, and file the
    /// `tail` its block split off, if any.
    fn added(
        &mut self,
        key: &[u8],
        entry: IndexEntry,
        mut grown: isize,
        tail: Option<(Box<[u8]>, Vec<u8>)>,
    ) {
        self.len += 1;
        self.live_bytes += key.len() as u64 + entry.value_len as u64;
        if let Some((first, block)) = tail {
            grown += (first.len() + block.capacity()) as isize;
            self.blocks.insert(first, block);
        }
        self.account(grown);
    }

    /// Remove `key` from the index (because a tombstone was written). Returns the old entry.
    pub fn remove(&mut self, key: &[u8]) -> Option<IndexEntry> {
        let (_, block) = self.blocks.range_mut::<[u8], _>(upto(key)).next_back()?;
        let Probe::Found(slot) = probe(block, key) else {
            return None;
        };
        let old = slot.entry(block);
        let capacity = block.capacity();
        remove_slot(block, &slot);
        let mut grown = block.capacity() as isize - capacity as isize;
        if slot.start == 0 {
            // The block's first key went: re-key the block by its new first key, or drop it.
            let block = self
                .blocks
                .remove(key)
                .expect("the removed key keyed its block");
            grown -= key.len() as isize;
            if block.is_empty() {
                grown -= block.capacity() as isize;
            } else {
                let first: Box<[u8]> = slot_at(&block, 0).suffix(&block).into();
                grown += first.len() as isize;
                self.blocks.insert(first, block);
            }
        }
        self.len -= 1;
        self.live_bytes -= key.len() as u64 + old.value_len as u64;
        self.account(grown);
        Some(old)
    }

    fn account(&mut self, grown: isize) {
        if grown != 0 {
            self.heap_bytes = (self.heap_bytes as isize + grown) as usize;
            self.heap_gauge.adjust(grown as i64);
        }
    }

    /// Look up the entry for `key`.
    pub fn get(&self, key: &[u8]) -> Option<IndexEntry> {
        let (_, block) = self.blocks.range::<[u8], _>(upto(key)).next_back()?;
        match probe(block, key) {
            Probe::Found(slot) => Some(slot.entry(block)),
            Probe::Vacant(_) => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// The first key of every block, in order: where a scan crosses from one block to the
    /// next.
    pub fn block_starts(&self) -> impl Iterator<Item = &[u8]> {
        self.blocks.keys().map(|first| &**first)
    }

    /// Iterate over all `(key, entry)` pairs in key order.
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(b"", Stop::Never)
    }

    /// Iterate over keys beginning with `prefix`, in key order.
    pub fn iter_prefix<'a>(&'a self, prefix: &'a [u8]) -> Iter<'a> {
        self.iter_from(prefix, Stop::AfterPrefix(prefix))
    }

    /// Iterate over keys in the half-open range `[start, end)`.
    pub fn iter_range<'a>(&'a self, start: &[u8], end: &'a [u8]) -> Iter<'a> {
        self.iter_from(start, Stop::At(end))
    }

    /// Iterate over keys at or after `start`, in key order, until `stop`.
    fn iter_from<'a>(&'a self, start: &[u8], stop: Stop<'a>) -> Iter<'a> {
        let from = match self.blocks.range::<[u8], _>(upto(start)).next_back() {
            Some((first, _)) => Bound::Included(&**first),
            None => Bound::Unbounded,
        };
        let blocks = match stop {
            Stop::At(end) if start >= end => Default::default(),
            // Only blocks that start below `end` can hold keys below it.
            Stop::At(end) => self.blocks.range::<[u8], _>((from, Bound::Excluded(end))),
            _ => self.blocks.range::<[u8], _>((from, Bound::Unbounded)),
        };
        let mut iter = Iter {
            blocks,
            block: &[],
            pos: 0,
            key: Vec::new(),
            stop,
            last_block: false,
        };
        // Only the first block can hold keys below `start`: start at the first entry at or
        // above it. That entry shares with `start` at least the bytes it shares with the key
        // before it, so `start` can stand in for that key while it is rebuilt.
        if let Some((_, block)) = iter.blocks.next() {
            iter.enter(block);
            iter.pos = match probe(block, start) {
                Probe::Found(slot) => slot.start,
                Probe::Vacant(vacancy) => vacancy.at,
            };
            iter.key.extend_from_slice(start);
        }
        iter
    }
}

impl Drop for KeyIndex {
    fn drop(&mut self) {
        self.attach(Gauge::disabled());
    }
}

/// Iterator over `(key, entry)` pairs in key order; each key is an owned copy.
pub struct Iter<'a> {
    blocks: std::collections::btree_map::Range<'a, Box<[u8]>, Vec<u8>>,
    block: &'a [u8],
    pos: usize,
    /// Bytes that agree with the key of the entry at `pos` as far as that entry shares with
    /// the key before it: that key, or the scan's start.
    key: Vec<u8>,
    stop: Stop<'a>,
    /// Whether `block` is the last block to visit, the one whose keys may reach a `Stop::At`.
    last_block: bool,
}

/// Where an iteration ends.
#[derive(Clone, Copy)]
enum Stop<'a> {
    Never,
    /// At the first key at or above this one. Only the blocks that start below it are
    /// visited, so only the last of them compares its keys with it.
    At(&'a [u8]),
    /// At the first key without this prefix. A key sharing at least the prefix's length with
    /// the key before it has the prefix too, so only the others are compared with it.
    AfterPrefix(&'a [u8]),
}

impl<'a> Iter<'a> {
    /// The remaining keys, without decoding their entries: what a key scan needs.
    pub fn into_keys(mut self) -> impl Iterator<Item = Vec<u8>> + 'a {
        std::iter::from_fn(move || self.step().map(|_| self.key.clone()))
    }

    fn enter(&mut self, block: &'a [u8]) {
        self.block = block;
        self.pos = 0;
        self.last_block = matches!(self.stop, Stop::At(_)) && self.blocks.clone().next().is_none();
    }

    /// Move to the next entry and rebuild its key; returns where its entry is.
    fn step(&mut self) -> Option<Slot> {
        while self.pos == self.block.len() {
            let (_, block) = self.blocks.next()?;
            self.enter(block);
        }
        let slot = slot_at(self.block, self.pos);
        self.key.truncate(slot.shared);
        self.key.extend_from_slice(slot.suffix(self.block));
        let past = match self.stop {
            Stop::Never => false,
            Stop::At(end) => self.last_block && self.key.as_slice() >= end,
            Stop::AfterPrefix(prefix) => {
                slot.shared < prefix.len() && !self.key.starts_with(prefix)
            }
        };
        if past {
            self.blocks = Default::default();
            self.pos = self.block.len();
            return None;
        }
        self.pos = slot.end();
        Some(slot)
    }
}

impl Iterator for Iter<'_> {
    type Item = (Vec<u8>, IndexEntry);

    fn next(&mut self) -> Option<Self::Item> {
        let slot = self.step()?;
        Some((self.key.clone(), slot.entry(self.block)))
    }
}

/// The blocks whose first key is at or below `key`; the last of them is the one `key` belongs
/// in.
fn upto(key: &[u8]) -> (Bound<&[u8]>, Bound<&[u8]>) {
    (Bound::Unbounded, Bound::Included(key))
}

/// One encoded entry of a block.
struct Slot {
    /// Offset of the entry's first byte.
    start: usize,
    /// Bytes the key shares with the previous key of the block.
    shared: usize,
    /// Where the key's remaining bytes are.
    suffix: Range<usize>,
}

impl Slot {
    fn suffix<'a>(&self, block: &'a [u8]) -> &'a [u8] {
        &block[self.suffix.clone()]
    }

    fn entry(&self, block: &[u8]) -> IndexEntry {
        IndexEntry::decode(&block[self.suffix.end..self.end()])
    }

    /// Offset just past the entry.
    fn end(&self) -> usize {
        self.suffix.end + ENTRY_BYTES
    }
}

fn slot_at(block: &[u8], start: usize) -> Slot {
    // Both lengths take one byte each unless a key is 128 B or longer.
    if let [shared @ 0..=0x7f, unshared @ 0..=0x7f, ..] = block[start..] {
        let at = start + 2;
        return Slot {
            start,
            shared: shared as usize,
            suffix: at..at + unshared as usize,
        };
    }
    let (shared, a) = get_varint(&block[start..]);
    let (unshared, b) = get_varint(&block[start + a..]);
    let at = start + a + b;
    Slot {
        start,
        shared,
        suffix: at..at + unshared,
    }
}

/// Where an absent key would go in a block: at byte `at`, sharing `shared` bytes with the
/// entry before it and, if there is an entry after it, `next_shared` bytes with that one.
struct Vacancy {
    at: usize,
    shared: usize,
    next_shared: Option<usize>,
}

enum Probe {
    Found(Slot),
    Vacant(Vacancy),
}

/// Find `key` in a block without rebuilding any key. The walk keeps `matched`, the bytes the
/// previous key (which is below `key`) shares with `key`. An entry sharing more than that with
/// the previous key is also below `key`; one sharing fewer is above it; only an entry sharing
/// exactly `matched` bytes needs its suffix compared.
fn probe(block: &[u8], key: &[u8]) -> Probe {
    let (mut pos, mut matched) = (0, 0);
    while pos < block.len() {
        let slot = slot_at(block, pos);
        let above = |next_shared| {
            Probe::Vacant(Vacancy {
                at: pos,
                shared: matched,
                next_shared: Some(next_shared),
            })
        };
        if slot.shared < matched {
            return above(slot.shared);
        }
        if slot.shared == matched {
            let (suffix, rest) = (slot.suffix(block), &key[matched..]);
            let common = common_prefix(suffix, rest);
            match suffix[common..].first().cmp(&rest[common..].first()) {
                std::cmp::Ordering::Equal => return Probe::Found(slot),
                std::cmp::Ordering::Greater => return above(matched + common),
                std::cmp::Ordering::Less => matched += common,
            }
        }
        pos = slot.end();
    }
    Probe::Vacant(Vacancy {
        at: pos,
        shared: matched,
        next_shared: None,
    })
}

/// How many leading bytes `a` and `b` share, compared eight at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let len = a.len().min(b.len());
    let word = |s: &[u8], at: usize| u64::from_le_bytes(s[at..at + 8].try_into().unwrap());
    let mut at = 0;
    while at + 8 <= len {
        let diff = word(a, at) ^ word(b, at);
        if diff != 0 {
            return at + diff.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    at + a[at..len]
        .iter()
        .zip(&b[at..len])
        .take_while(|(x, y)| x == y)
        .count()
}

/// An insert at a vacancy: the new entry replaces the successor's header and the first bytes
/// of its suffix, which the successor now shares with the new key, and writes the successor's
/// new header after itself.
struct Splice {
    replaced: Range<usize>,
    shared: usize,
    /// The successor's new `shared` and `unshared`.
    successor: Option<(usize, usize)>,
    /// Bytes written in place of `replaced`.
    len: usize,
}

impl Splice {
    fn plan(block: &[u8], key: &[u8], vacancy: &Vacancy) -> Splice {
        let mut len = entry_len(vacancy.shared, key.len() - vacancy.shared);
        let (end, successor) = match vacancy.next_shared {
            Some(next) => {
                let slot = slot_at(block, vacancy.at);
                let cut = next - slot.shared;
                let unshared = slot.suffix.len() - cut;
                len += varint_len(next) + varint_len(unshared);
                (slot.suffix.start + cut, Some((next, unshared)))
            }
            None => (vacancy.at, None),
        };
        Splice {
            replaced: vacancy.at..end,
            shared: vacancy.shared,
            successor,
            len,
        }
    }

    /// Bytes the block grows by. The successor loses at most the new key's unshared bytes.
    fn growth(&self) -> usize {
        self.len - self.replaced.len()
    }

    fn apply(&self, block: &mut Vec<u8>, key: &[u8], entry: IndexEntry) {
        open_gap(block, self.replaced.clone(), self.len);
        let mut at = self.replaced.start;
        at += write_entry(&mut block[at..], self.shared, &key[self.shared..], entry);
        if let Some((shared, unshared)) = self.successor {
            at += put_varint(&mut block[at..], shared);
            put_varint(&mut block[at..], unshared);
        }
    }
}

/// Splice out the entry at `slot`. Its successor inherits the bytes it shared with the removed
/// key beyond what it shares with the key before.
fn remove_slot(block: &mut Vec<u8>, slot: &Slot) {
    let end = slot.end();
    match (end < block.len()).then(|| slot_at(block, end)) {
        Some(next) if next.shared > slot.shared => {
            // Keep the removed key's bytes [slot.shared, next.shared) as the start of the
            // successor's suffix, then give it the removed entry's header position.
            let inherited = next.shared - slot.shared;
            open_gap(block, slot.suffix.start + inherited..next.suffix.start, 0);
            let unshared = inherited + next.suffix.len();
            let header = varint_len(slot.shared) + varint_len(unshared);
            open_gap(block, slot.start..slot.suffix.start, header);
            let at = slot.start + put_varint(&mut block[slot.start..], slot.shared);
            put_varint(&mut block[at..], unshared);
        }
        _ => open_gap(block, slot.start..end, 0),
    }
    settle(block);
}

/// Move the entries from byte `at` on into a new block, returned with its first key.
fn split_off(block: &mut Vec<u8>, at: usize) -> (Box<[u8]>, Vec<u8>) {
    // The tail's first entry carries its whole key: rebuild it.
    let (mut pos, mut key) = (0, Vec::new());
    let slot = loop {
        let slot = slot_at(block, pos);
        key.truncate(slot.shared);
        key.extend_from_slice(slot.suffix(block));
        if pos == at {
            break slot;
        }
        pos = slot.end();
    };
    let rest = &block[slot.end()..];
    let mut tail = Vec::with_capacity(BLOCK_BYTES.max(entry_len(0, key.len()) + rest.len()));
    push_entry(&mut tail, 0, &key, slot.entry(block));
    tail.extend_from_slice(rest);
    block.truncate(at);
    settle(block);
    (key.into_boxed_slice(), tail)
}

/// A block holding just `key`.
fn new_block(key: &[u8], entry: IndexEntry) -> Vec<u8> {
    let mut block = Vec::with_capacity(BLOCK_BYTES.max(entry_len(0, key.len())));
    push_entry(&mut block, 0, key, entry);
    block
}

/// Give a block that held an oversized entry the standard capacity back once it fits again.
fn settle(block: &mut Vec<u8>) {
    if block.capacity() > BLOCK_BYTES && block.len() <= BLOCK_BYTES {
        block.shrink_to(BLOCK_BYTES);
    }
}

fn entry_len(shared: usize, unshared: usize) -> usize {
    varint_len(shared) + varint_len(unshared) + unshared + ENTRY_BYTES
}

/// Encode an entry at the start of `out`; returns its length.
fn write_entry(out: &mut [u8], shared: usize, suffix: &[u8], entry: IndexEntry) -> usize {
    let mut at = put_varint(out, shared);
    at += put_varint(&mut out[at..], suffix.len());
    out[at..at + suffix.len()].copy_from_slice(suffix);
    at += suffix.len();
    entry.encode(&mut out[at..at + ENTRY_BYTES]);
    at + ENTRY_BYTES
}

/// Append an entry, growing the allocation only for an entry that does not fit.
fn push_entry(block: &mut Vec<u8>, shared: usize, suffix: &[u8], entry: IndexEntry) {
    let at = block.len();
    open_gap(block, at..at, entry_len(shared, suffix.len()));
    write_entry(&mut block[at..], shared, suffix, entry);
}

/// Replace `range` of `block` with `len` bytes (zeroed when the range grows) for the caller to
/// fill. Callers split a block rather than grow it, so the allocation grows only to hold an
/// oversized entry.
fn open_gap(block: &mut Vec<u8>, range: Range<usize>, len: usize) {
    let (start, end) = (range.start, range.end);
    let old = end - start;
    if len > old {
        let grow = len - old;
        block.reserve_exact(grow);
        let tail = block.len();
        block.resize(tail + grow, 0);
        block.copy_within(end..tail, end + grow);
    } else if len < old {
        block.copy_within(end.., start + len);
        block.truncate(block.len() - (old - len));
    }
}

fn varint_len(value: usize) -> usize {
    1 + (usize::BITS - 1 - (value | 1).leading_zeros()) as usize / 7
}

fn put_varint(out: &mut [u8], mut value: usize) -> usize {
    let mut i = 0;
    while value >= 0x80 {
        out[i] = value as u8 | 0x80;
        value >>= 7;
        i += 1;
    }
    out[i] = value as u8;
    i + 1
}

fn get_varint(data: &[u8]) -> (usize, usize) {
    let (mut value, mut shift) = (0, 0);
    for (i, &byte) in data.iter().enumerate() {
        value |= ((byte & 0x7f) as usize) << shift;
        if byte < 0x80 {
            return (value, i + 1);
        }
        shift += 7;
    }
    unreachable!("a block's varints are complete")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(segment: u64, offset: u64) -> IndexEntry {
        IndexEntry {
            ptr: RecordPointer {
                segment,
                offset,
                len: 16,
            },
            value_len: 4,
        }
    }

    fn keys(idx: &KeyIndex) -> Vec<Vec<u8>> {
        idx.iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn insert_get_remove() {
        let mut idx = KeyIndex::new();
        assert!(idx.is_empty());
        assert!(idx.insert(b"k", ptr(1, 0)).is_none());
        assert!(idx.contains(b"k"));
        assert_eq!(idx.get(b"k").unwrap().ptr.segment, 1);
        let old = idx.insert(b"k", ptr(2, 8)).unwrap();
        assert_eq!(old.ptr.segment, 1);
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(b"k").is_some());
        assert!(idx.remove(b"k").is_none());
        assert!(idx.is_empty());
        assert_eq!(idx.heap_bytes(), 0);
    }

    #[test]
    fn live_bytes_tracks_inserts_and_removals() {
        let mut idx = KeyIndex::new();
        idx.insert(b"abcd", ptr(1, 0)); // 4 key + 4 value
        assert_eq!(idx.live_bytes(), 8);
        idx.insert(b"abcd", ptr(1, 16)); // overwrite, same sizes
        assert_eq!(idx.live_bytes(), 8);
        idx.insert(b"xy", ptr(1, 32));
        assert_eq!(idx.live_bytes(), 14);
        idx.remove(b"abcd");
        assert_eq!(idx.live_bytes(), 6);
        idx.remove(b"xy");
        assert_eq!(idx.live_bytes(), 0);
    }

    #[test]
    fn prefix_iteration_in_order() {
        let mut idx = KeyIndex::new();
        for key in ["session/1/a", "session/1/b", "session/2/a", "other"] {
            idx.insert(key.as_bytes(), ptr(1, 0));
        }
        let keys: Vec<_> = idx
            .iter_prefix(b"session/1/")
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(keys, vec!["session/1/a", "session/1/b"]);
        assert_eq!(idx.iter_prefix(b"nope").count(), 0);
        assert_eq!(idx.iter_prefix(b"").count(), 4);
    }

    #[test]
    fn range_iteration() {
        let mut idx = KeyIndex::new();
        for key in [b"a".as_ref(), b"b", b"c", b"d"] {
            idx.insert(key, ptr(1, 0));
        }
        let keys: Vec<_> = idx.iter_range(b"b", b"d").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn keys_sorted() {
        let mut idx = KeyIndex::new();
        for key in [b"zeta".as_ref(), b"alpha", b"mid"] {
            idx.insert(key, ptr(1, 0));
        }
        assert_eq!(
            keys(&idx),
            vec![b"alpha".to_vec(), b"mid".to_vec(), b"zeta".to_vec()]
        );
    }

    #[test]
    fn entries_round_trip_every_field() {
        let mut idx = KeyIndex::new();
        let entry = IndexEntry {
            ptr: RecordPointer {
                segment: u64::MAX - 1,
                offset: 1 << 40,
                len: u32::MAX,
            },
            value_len: 7,
        };
        idx.insert(b"key", entry);
        assert_eq!(idx.get(b"key"), Some(entry));
        assert_eq!(idx.iter().next(), Some((b"key".to_vec(), entry)));
    }

    #[test]
    fn keys_growing_at_the_end_of_their_range_leave_full_blocks() {
        // Ten sessions' keys recorded round-robin: each grows at the end of its own range.
        let mut idx = KeyIndex::new();
        for seq in 0..320u32 {
            for session in 0..10 {
                idx.insert(format!("x/s/{session}/{seq:08}").as_bytes(), ptr(1, 0));
            }
        }
        let used: usize = idx.blocks.values().map(Vec::len).sum();
        let held: usize = idx.blocks.values().map(Vec::capacity).sum();
        assert!(used * 10 >= held * 9, "{used} of {held} block bytes used");
        assert!(idx
            .blocks
            .values()
            .all(|block| block.capacity() == BLOCK_BYTES));
        let mut sorted = keys(&idx);
        sorted.sort();
        assert_eq!(keys(&idx), sorted);
    }

    #[test]
    fn heap_bytes_counts_block_capacities_and_first_keys() {
        let counted = |idx: &KeyIndex| -> usize {
            idx.blocks
                .iter()
                .map(|(first, block)| first.len() + block.capacity())
                .sum()
        };
        let mut idx = KeyIndex::new();
        for i in 0..1000u32 {
            idx.insert(
                format!("k{:05}", (i * 7919) % 1000).as_bytes(),
                ptr(1, i as u64),
            );
        }
        assert_eq!(idx.heap_bytes(), counted(&idx));
        // Oversized keys get blocks sized to fit, which return to the standard size once the
        // oversized entry goes.
        let big = |i: u32| format!("k{i:05}{}", "z".repeat(4 * BLOCK_BYTES)).into_bytes();
        for i in (0..1000u32).step_by(50) {
            idx.insert(&big(i), ptr(2, i as u64));
        }
        assert!(idx
            .blocks
            .values()
            .any(|block| block.capacity() > BLOCK_BYTES));
        assert_eq!(idx.heap_bytes(), counted(&idx));
        for i in (0..1000u32).step_by(3) {
            idx.remove(format!("k{i:05}").as_bytes());
        }
        assert_eq!(idx.heap_bytes(), counted(&idx));
        for i in (0..1000u32).step_by(50) {
            assert_eq!(idx.remove(&big(i)), Some(ptr(2, i as u64)));
        }
        assert!(idx
            .blocks
            .values()
            .all(|block| block.capacity() == BLOCK_BYTES));
        assert_eq!(idx.heap_bytes(), counted(&idx));
    }

    #[test]
    fn varints_round_trip_across_byte_boundaries() {
        for value in [0, 1, 127, 128, 16_383, 16_384, 65_536, 2_097_151, 2_097_152] {
            let mut buf = [0u8; 10];
            let len = put_varint(&mut buf, value);
            assert_eq!(len, varint_len(value), "{value}");
            assert_eq!(get_varint(&buf[..len]), (value, len));
        }
    }
}
