//! The public database handle.
//!
//! [`Db`] ties the pieces together: an append-only segment log on disk, an ordered in-memory
//! [`KeyIndex`] of every live key, and a bounded [`Memtable`] value cache. The handle is cheap
//! to clone and safe to share across threads (`Db: Send + Sync + Clone`), which lets the
//! provenance store serve concurrent record and query requests against one backend, as PReServ
//! does with its Berkeley DB backend.
//!
//! The cache holds only non-empty values: an [`IndexEntry`] records its value's length, so a
//! key whose value is empty is answered from the index alone. Most of the provenance store's
//! records are such index entries (an interaction marker, a by-session index key), so the
//! cache's budget goes to documents. Writes go through the
//! cache because the store reads what it has just recorded.
//!
//! The key index, unlike the cache, grows with the store: it holds every live key. It keeps
//! them front-coded in sorted blocks (see [`crate::index`]), ~43 B per key on the provenance
//! store's keys against ~171 B for a map with one allocation per key, and it is handed
//! borrowed keys, so neither the log replay in [`Db::open_with`] nor an append copies a key
//! for it. Its heap is the `kvdb.index_bytes` gauge and [`DbStats::index_bytes`].

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use pasoa_obs::{Histogram, Registry};

use crate::batch::WriteBatch;
use crate::error::{DbError, DbResult};
use crate::index::{IndexEntry, KeyIndex};
use crate::memtable::Memtable;
use crate::record::{Record, RecordKind};
use crate::segment::{self, SegmentWriter};
use crate::stats::DbStats;

/// When appended data is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every write — slowest, safest.
    Always,
    /// Flush to the OS after every write, fsync only on close/rotation — the default, and the
    /// behaviour the paper's asynchronous recording mode relies on.
    OsFlush,
}

/// Tunable options for opening a database.
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_target_bytes: u64,
    /// Byte budget for the in-memory value cache, which holds the non-empty values of recently
    /// written or read records, each charged [`Memtable::cost`]. Empty values are never cached:
    /// the key index records every value's length, so it answers them without the cache or the
    /// log.
    pub cache_budget_bytes: usize,
    /// Durability policy for appends.
    pub sync: SyncPolicy,
    /// Automatically compact when the garbage ratio exceeds this threshold (0 disables).
    pub auto_compact_garbage_ratio: f64,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            segment_target_bytes: 64 * 1024 * 1024,
            cache_budget_bytes: 32 * 1024 * 1024,
            sync: SyncPolicy::OsFlush,
            auto_compact_garbage_ratio: 0.6,
        }
    }
}

impl DbOptions {
    /// Options for a durability-critical deployment: every append run (put, delete or
    /// `WriteBatch`) is fsynced before the caller is acked, so an acked write survives a crash
    /// — the configuration the replicated provenance store tier runs its shards under.
    pub fn durable() -> Self {
        DbOptions {
            sync: SyncPolicy::Always,
            ..Default::default()
        }
    }
}

/// What recovery found in one segment while reopening a database.
#[derive(Debug, Clone)]
pub struct SegmentRecovery {
    /// Segment id.
    pub segment: u64,
    /// Records recovered cleanly.
    pub records: u64,
    /// Bytes covered by the recovered records.
    pub clean_bytes: u64,
    /// Torn or corrupt tail bytes truncated away.
    pub truncated_bytes: u64,
    /// Validation failure that ended the scan, if decoding stopped on a corrupt record rather
    /// than a merely incomplete one.
    pub corruption: Option<String>,
}

/// Summary of the log scan performed by [`Db::open_with`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Per-segment outcomes, in segment-id order.
    pub segments: Vec<SegmentRecovery>,
}

impl RecoveryReport {
    /// Total records recovered across all segments.
    pub fn records_recovered(&self) -> u64 {
        self.segments.iter().map(|s| s.records).sum()
    }

    /// Total torn/corrupt bytes truncated across all segments.
    pub fn truncated_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.truncated_bytes).sum()
    }

    /// Segments whose tails had to be truncated.
    pub fn torn_segments(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.truncated_bytes > 0)
            .count()
    }

    /// Whether every segment decoded end to end with nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.truncated_bytes() == 0
    }
}

pub(crate) struct DbInner {
    pub(crate) dir: PathBuf,
    pub(crate) options: DbOptions,
    /// Index and cache guarded together so readers see a consistent view.
    pub(crate) index: RwLock<KeyIndex>,
    pub(crate) cache: Mutex<Memtable>,
    /// The active segment writer plus ids of sealed segments.
    pub(crate) log: Mutex<LogState>,
    pub(crate) stats: Mutex<DbStats>,
    /// What the opening log scan found and repaired.
    pub(crate) recovery: RecoveryReport,
    /// Set by the crash-simulation hook; every subsequent operation fails with
    /// [`DbError::Closed`] until the directory is reopened.
    pub(crate) crashed: std::sync::atomic::AtomicBool,
    /// Armed crash point: 0 = disarmed, k > 0 = the k-th record append from now simulates a
    /// power loss instead of appending (see [`Db::arm_crash_after_appends`]).
    pub(crate) crash_after_appends: std::sync::atomic::AtomicU64,
    /// Observability handles, attached after open via [`Db::attach_observability`]. Until
    /// then every handle is disabled and the hot path pays one branch per sample.
    pub(crate) obs: RwLock<DbObs>,
}

/// Timing instruments for the append path.
pub(crate) struct DbObs {
    pub(crate) append_nanos: Histogram,
    pub(crate) fsync_nanos: Histogram,
}

impl DbObs {
    fn detached() -> Self {
        DbObs {
            append_nanos: Histogram::disabled(),
            fsync_nanos: Histogram::disabled(),
        }
    }
}

pub(crate) struct LogState {
    pub(crate) active: SegmentWriter,
    pub(crate) sealed: Vec<u64>,
}

/// A shared handle to an open database.
#[derive(Clone)]
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db").field("dir", &self.inner.dir).finish()
    }
}

impl Db {
    /// Open (creating if necessary) a database in `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> DbResult<Self> {
        Self::open_with(dir, DbOptions::default())
    }

    /// Open (creating if necessary) a database in `dir` with explicit options.
    ///
    /// Opening replays every segment in id order to rebuild the key index. A torn or
    /// CRC-failing tail on the *newest* segment marks the end of the recoverable log: it is
    /// truncated on disk and the repair is reported in the [`RecoveryReport`] available
    /// through [`Db::recovery_report`], matching write-ahead-log recovery semantics. Damage
    /// that is *not* a crash artefact fails the open with [`DbError::Corruption`] instead of
    /// silently discarding acked data: a torn or CRC-failing record in a *sealed* segment
    /// (sealed segments were fsynced whole before rotation), and a CRC-failing record in the
    /// newest segment with cleanly decodable records beyond it — records appended (and, under
    /// [`SyncPolicy::Always`], acked durable) after the damaged bytes were, which truncation
    /// would discard along with the damage.
    pub fn open_with(dir: impl AsRef<Path>, options: DbOptions) -> DbResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut index = KeyIndex::new();
        let mut stats = DbStats::default();
        let mut recovery = RecoveryReport::default();
        let ids = segment::list_segments(&dir)?;
        let mut clean_tail = 0u64;
        for &id in &ids {
            let scan = segment::scan_segment(&dir, id)?;
            let records_recovered = scan.records.len() as u64;
            let torn_bytes = scan.torn_bytes();
            for (record, ptr) in scan.records {
                stats.appended_bytes += ptr.len as u64;
                match record.kind {
                    RecordKind::Put => {
                        index.insert(
                            &record.key,
                            IndexEntry {
                                ptr,
                                value_len: record.value.len() as u32,
                            },
                        );
                    }
                    RecordKind::Delete => {
                        index.remove(&record.key);
                    }
                }
            }
            // Only the newest segment can legitimately end mid-record (a crash mid-append):
            // its tail is truncated by `open_for_append` below when the writer resumes at the
            // clean length. A sealed segment was fsynced whole before rotation, so a torn or
            // CRC-failing record there is damage to acked data — with later segments still
            // intact, silently truncating it would resurrect a state that never existed
            // (writes that causally followed the lost ones would survive). The same logic
            // applies *within* the newest segment: a CRC failure with cleanly decodable
            // records beyond it is mid-log damage, not a crash-torn tail — under
            // `SyncPolicy::Always` those later records were fsynced and acked, and truncating
            // would discard them. Refuse to open instead of repairing silently.
            let damage_mid_log =
                torn_bytes > 0 && (Some(&id) != ids.last() || scan.records_beyond_corruption > 0);
            if damage_mid_log {
                let mut reason = scan.corruption.unwrap_or_else(|| {
                    "sealed segment ends mid-record; non-tail damage to acked data".into()
                });
                if scan.records_beyond_corruption > 0 {
                    reason.push_str(&format!(
                        " ({} intact record(s) beyond the damage)",
                        scan.records_beyond_corruption
                    ));
                }
                return Err(DbError::Corruption {
                    segment: id,
                    offset: scan.clean_len,
                    reason,
                });
            }
            recovery.segments.push(SegmentRecovery {
                segment: id,
                records: records_recovered,
                clean_bytes: scan.clean_len,
                truncated_bytes: torn_bytes,
                corruption: scan.corruption,
            });
            clean_tail = scan.clean_len;
        }

        let (active, sealed) = match ids.last() {
            Some(&last) => {
                let sealed = ids[..ids.len() - 1].to_vec();
                (
                    SegmentWriter::open_for_append(&dir, last, clean_tail)?,
                    sealed,
                )
            }
            None => (SegmentWriter::create(&dir, 1)?, Vec::new()),
        };

        stats.live_keys = index.len() as u64;
        stats.live_bytes = index.live_bytes();
        stats.segments = 1 + sealed.len() as u64;

        let cache = Memtable::new(options.cache_budget_bytes);
        let inner = DbInner {
            dir,
            options,
            index: RwLock::new(index),
            cache: Mutex::new(cache),
            log: Mutex::new(LogState { active, sealed }),
            stats: Mutex::new(stats),
            recovery,
            crashed: std::sync::atomic::AtomicBool::new(false),
            crash_after_appends: std::sync::atomic::AtomicU64::new(0),
            obs: RwLock::new(DbObs::detached()),
        };
        Ok(Db {
            inner: Arc::new(inner),
        })
    }

    /// What the opening log scan found and repaired.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.inner.recovery
    }

    /// Attach this database to an observability registry: append/fsync latency lands in the
    /// `kvdb.append_nanos` / `kvdb.fsync_nanos` histograms, the value cache's size in the
    /// `kvdb.cache_bytes` / `kvdb.cache_entries` gauges and the key index's heap in the
    /// `kvdb.index_bytes` gauge (adjusted, never set, so databases sharing a registry sum), and
    /// what the opening recovery scan repaired is published as `kvdb.recovery.*` counters.
    /// Until attached (and on a detached handle forever) the instruments are disabled and the
    /// append path pays one branch.
    pub fn attach_observability(&self, registry: &Registry) {
        {
            let mut obs = self.inner.obs.write();
            obs.append_nanos = registry.histogram("kvdb.append_nanos");
            obs.fsync_nanos = registry.histogram("kvdb.fsync_nanos");
        }
        self.inner.cache.lock().attach(
            registry.gauge("kvdb.cache_bytes"),
            registry.gauge("kvdb.cache_entries"),
        );
        self.inner
            .index
            .write()
            .attach(registry.gauge("kvdb.index_bytes"));
        let report = &self.inner.recovery;
        registry
            .counter("kvdb.recovery.torn_segments")
            .add(report.torn_segments() as u64);
        registry
            .counter("kvdb.recovery.truncated_bytes")
            .add(report.truncated_bytes());
        registry
            .counter("kvdb.recovery.records_recovered")
            .add(report.records_recovered());
    }

    /// Simulate a crash: drop the writer's in-process buffer and truncate the active segment
    /// back to its last fsync point, exactly as a power loss would discard buffers the OS
    /// never forced to disk. The handle (and every clone of it) becomes unusable — every
    /// subsequent fallible operation (reads, writes, scans, sync, compact) fails with
    /// [`DbError::Closed`] — until the directory is reopened with [`Db::open`], whose
    /// recovery scan rebuilds the index from what survived. Infallible diagnostics
    /// ([`Db::len`], [`Db::stats`]) still report the pre-crash in-memory view.
    pub fn crash(&self) -> DbResult<()> {
        self.inner
            .crashed
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let mut log = self.inner.log.lock();
        log.active.crash_discard_unsynced()?;
        Ok(())
    }

    /// Whether this handle has observed a (simulated) crash and now refuses every fallible
    /// operation until the directory is reopened.
    pub fn is_crashed(&self) -> bool {
        self.inner.crashed.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Arm a seeded crash point: after `appends` further record appends succeed, the next
    /// append run simulates a power loss at that exact write — the handle crashes (as
    /// [`Db::crash`]) *before* the triggering record reaches the log, so the run fails with
    /// [`DbError::Closed`] and nothing it staged is acked. Deterministic given a fixed
    /// operation sequence, which is what lets a seeded simulation schedule "the disk dies
    /// mid-batch on the Nth write" and replay it bit-identically. A crash point fires at most
    /// once; arming again replaces any previously armed point.
    pub fn arm_crash_after_appends(&self, appends: u64) {
        self.inner.crash_after_appends.store(
            appends.saturating_add(1),
            std::sync::atomic::Ordering::SeqCst,
        );
    }

    /// Whether an armed crash point has not yet fired.
    #[cfg(test)]
    pub(crate) fn crash_point_armed(&self) -> bool {
        self.inner
            .crash_after_appends
            .load(std::sync::atomic::Ordering::SeqCst)
            > 0
    }

    /// Decrement the armed crash-point fuse for one record append; true when this append is
    /// the one that must simulate the power loss.
    fn crash_point_fires(&self) -> bool {
        use std::sync::atomic::Ordering;
        let fuse = &self.inner.crash_after_appends;
        loop {
            let current = fuse.load(Ordering::SeqCst);
            if current == 0 {
                return false;
            }
            if fuse
                .compare_exchange(current, current - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return current == 1;
            }
        }
    }

    fn check_open(&self) -> DbResult<()> {
        if self.inner.crashed.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(DbError::Closed);
        }
        Ok(())
    }

    /// Directory backing this database.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Store `value` under `key`, replacing any previous value.
    pub fn put(&self, key: &[u8], value: &[u8]) -> DbResult<()> {
        let record = Record::put(key, value)?;
        self.append_records(std::slice::from_ref(&record))?;
        Ok(())
    }

    /// Remove `key` if present. Removing an absent key is not an error.
    pub fn delete(&self, key: &[u8]) -> DbResult<()> {
        let record = Record::delete(key)?;
        self.append_records(std::slice::from_ref(&record))?;
        Ok(())
    }

    /// Apply every operation in `batch` as one append run (single lock acquisition, single
    /// flush), preserving order.
    pub fn write_batch(&self, batch: WriteBatch) -> DbResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let records = batch.into_records();
        self.append_records(&records)
    }

    /// Fetch the value stored under `key`.
    pub fn get(&self, key: &[u8]) -> DbResult<Option<Vec<u8>>> {
        self.check_open()?;
        let outcome = self.read(key);
        let mut stats = self.inner.stats.lock();
        stats.gets += 1;
        if let Ok((_, true)) = outcome {
            stats.cache_hits += 1;
        }
        drop(stats);
        outcome.map(|(value, _)| value)
    }

    /// Read `key`'s value, and whether it was answered without reading the log.
    fn read(&self, key: &[u8]) -> DbResult<(Option<Vec<u8>>, bool)> {
        let Some(mut entry) = self.inner.index.read().get(key) else {
            return Ok((None, false));
        };
        loop {
            // Every index entry was CRC-checked at open or written by this process, so an empty
            // value needs nothing the index does not hold; it counts as a cache hit.
            if entry.value_len == 0 {
                return Ok((Some(Vec::new()), true));
            }
            if let Some(value) = self.inner.cache.lock().get(key).map(<[u8]>::to_vec) {
                return Ok((Some(value), true));
            }
            // Cache miss: read from the log. Flush the active segment first so a freshly
            // appended record is visible to the read.
            {
                let mut log = self.inner.log.lock();
                if entry.ptr.segment == log.active.id() {
                    log.active.flush()?;
                }
            }
            match segment::read_record(&self.inner.dir, entry.ptr) {
                Ok(record) => {
                    // Cache only a value the index still points at: a write that landed since
                    // the lookup above has cached its own value, which this one must not replace.
                    let index = self.inner.index.read();
                    if index.get(key).is_some_and(|now| now.ptr == entry.ptr) {
                        self.inner.cache.lock().insert(key, &record.value);
                    }
                    return Ok((Some(record.value), false));
                }
                // Compaction repointed the key and retired its segment after the lookup: read
                // wherever the index points now. A pointer that did not move is a real loss.
                Err(DbError::Io(error)) if error.kind() == std::io::ErrorKind::NotFound => {
                    match self.inner.index.read().get(key) {
                        None => return Ok((None, false)),
                        Some(now) if now.ptr != entry.ptr => entry = now,
                        Some(_) => return Err(DbError::Io(error)),
                    }
                }
                Err(error) => return Err(error),
            }
        }
    }

    /// Whether `key` currently has a value.
    pub fn contains(&self, key: &[u8]) -> DbResult<bool> {
        self.check_open()?;
        Ok(self.inner.index.read().contains(key))
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.index.read().len()
    }

    /// Whether the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys starting with `prefix`, in order.
    pub fn scan_prefix(&self, prefix: &[u8]) -> DbResult<Vec<Vec<u8>>> {
        self.check_open()?;
        let index = self.inner.index.read();
        Ok(index.iter_prefix(prefix).into_keys().collect())
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, in key order.
    pub fn scan_prefix_values(&self, prefix: &[u8]) -> DbResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let keys = self.scan_prefix(prefix)?;
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(value) = self.get(&key)? {
                out.push((key, value));
            }
        }
        Ok(out)
    }

    /// At most `limit` keys in the half-open range `[start, end)`, in order. The iteration
    /// stops at the limit, so a bounded page over a huge range costs O(limit), not O(range) —
    /// what the provenance store's paginated queries run per page.
    pub fn scan_range_limited(
        &self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> DbResult<Vec<Vec<u8>>> {
        self.check_open()?;
        // Sized for the page up front: the keys' count is unknown, so collecting would grow
        // the page by doubling.
        let mut page = Vec::with_capacity(limit.min(1024));
        let index = self.inner.index.read();
        page.extend(index.iter_range(start, end).into_keys().take(limit));
        Ok(page)
    }

    /// Force all appended data to stable storage.
    pub fn sync(&self) -> DbResult<()> {
        self.check_open()?;
        let fsync_hist = self.inner.obs.read().fsync_nanos.clone();
        let fsync_timer = fsync_hist.is_enabled().then(std::time::Instant::now);
        let mut log = self.inner.log.lock();
        // Re-checked under the log lock: a crash() that won the lock first has already
        // truncated to the last fsync point, and a sync landing after it must not ack.
        self.check_open()?;
        log.active.sync()?;
        if let Some(t) = fsync_timer {
            fsync_hist.record_duration(t.elapsed());
        }
        Ok(())
    }

    /// A snapshot of operational statistics.
    pub fn stats(&self) -> DbStats {
        let mut stats = *self.inner.stats.lock();
        {
            let cache = self.inner.cache.lock();
            stats.cache_bytes = cache.bytes() as u64;
            stats.cache_entries = cache.len() as u64;
        }
        let index = self.inner.index.read();
        stats.live_keys = index.len() as u64;
        stats.live_bytes = index.live_bytes();
        stats.index_bytes = index.heap_bytes() as u64;
        stats.segments = 1 + self.inner.log.lock().sealed.len() as u64;
        stats
    }

    /// Rewrite live records into a fresh segment and delete obsolete segments.
    pub fn compact(&self) -> DbResult<()> {
        self.check_open()?;
        crate::compaction::compact(self)
    }

    fn append_records(&self, records: &[Record]) -> DbResult<()> {
        self.check_open()?;
        let (append_hist, fsync_hist) = {
            let obs = self.inner.obs.read();
            (obs.append_nanos.clone(), obs.fsync_nanos.clone())
        };
        let append_timer = append_hist.is_enabled().then(std::time::Instant::now);
        let mut pointers = Vec::with_capacity(records.len());
        {
            let mut log = self.inner.log.lock();
            // Re-checked under the log lock: a writer that passed the check above can race
            // crash() for this lock; losing the race must not append records beyond the
            // truncation point, or they would survive reopen and muddy the power-loss model.
            self.check_open()?;
            for record in records {
                // An armed crash point fires *before* the triggering record reaches the log:
                // the power loss lands mid-run, everything unsynced is discarded, and the
                // caller's append run fails without acking anything.
                if self.crash_point_fires() {
                    self.inner
                        .crashed
                        .store(true, std::sync::atomic::Ordering::SeqCst);
                    log.active.crash_discard_unsynced()?;
                    return Err(DbError::Closed);
                }
                let ptr = log.active.append(record)?;
                pointers.push(ptr);
            }
            match self.inner.options.sync {
                SyncPolicy::Always => {
                    let fsync_timer = fsync_hist.is_enabled().then(std::time::Instant::now);
                    log.active.sync()?;
                    if let Some(t) = fsync_timer {
                        fsync_hist.record_duration(t.elapsed());
                    }
                }
                SyncPolicy::OsFlush => log.active.flush()?,
            }
            if log.active.len() >= self.inner.options.segment_target_bytes {
                self.rotate_locked(&mut log)?;
            }
        }

        {
            let mut index = self.inner.index.write();
            let mut cache = self.inner.cache.lock();
            let mut stats = self.inner.stats.lock();
            for (record, ptr) in records.iter().zip(pointers) {
                stats.appended_bytes += ptr.len as u64;
                match record.kind {
                    RecordKind::Put => {
                        stats.puts += 1;
                        index.insert(
                            &record.key,
                            IndexEntry {
                                ptr,
                                value_len: record.value.len() as u32,
                            },
                        );
                        cache.insert(&record.key, &record.value);
                    }
                    RecordKind::Delete => {
                        stats.deletes += 1;
                        index.remove(&record.key);
                        cache.remove(&record.key);
                    }
                }
            }
            stats.live_keys = index.len() as u64;
            stats.live_bytes = index.live_bytes();
        }

        self.maybe_auto_compact()?;
        if let Some(t) = append_timer {
            append_hist.record_duration(t.elapsed());
        }
        Ok(())
    }

    fn rotate_locked(&self, log: &mut LogState) -> DbResult<()> {
        log.active.sync()?;
        let next_id = log.active.id() + 1;
        let new = SegmentWriter::create(&self.inner.dir, next_id)?;
        let old = std::mem::replace(&mut log.active, new);
        log.sealed.push(old.id());
        Ok(())
    }

    fn maybe_auto_compact(&self) -> DbResult<()> {
        let threshold = self.inner.options.auto_compact_garbage_ratio;
        if threshold <= 0.0 {
            return Ok(());
        }
        // The append path keeps these counters current; no other lock is needed to read them.
        let stats = *self.inner.stats.lock();
        // Only bother once a meaningful amount of data has been written.
        if stats.appended_bytes > 4 * 1024 * 1024 && stats.garbage_ratio() > threshold {
            self.compact()?;
        }
        Ok(())
    }
}

impl Db {
    /// Destroy the database directory entirely. Consumes the handle. Public for the
    /// integration tests, which clean up their scratch databases with it.
    pub fn destroy(self) -> DbResult<()> {
        let dir = self.inner.dir.clone();
        drop(self);
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        Ok(())
    }
}

/// Convenience: basic errors when handing paths around.
impl From<std::path::StripPrefixError> for DbError {
    fn from(e: std::path::StripPrefixError) -> Self {
        DbError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kvdb-store-{}-{}-{}",
            name,
            std::process::id(),
            rand_suffix()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rand_suffix() -> u64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos() as u64
    }

    #[test]
    fn attached_registry_sees_append_and_fsync_latency() {
        let dir = tempdir("obs");
        let registry = Registry::new();
        {
            let db = Db::open_with(&dir, DbOptions::durable()).unwrap();
            db.attach_observability(&registry);
            db.put(b"k1", b"v1").unwrap();
            db.put(b"k2", b"v2").unwrap();
            db.sync().unwrap();
        }
        let snapshot = registry.snapshot();
        let appends = snapshot.histogram("kvdb.append_nanos").unwrap();
        assert_eq!(appends.count, 2);
        // Two durable puts plus the explicit sync.
        let fsyncs = snapshot.histogram("kvdb.fsync_nanos").unwrap();
        assert_eq!(fsyncs.count, 3);
        assert_eq!(snapshot.counter("kvdb.recovery.torn_segments"), 0);
        // Reopen after a clean close: recovery counters report the replayed records.
        let registry = Registry::new();
        let db = Db::open(&dir).unwrap();
        db.attach_observability(&registry);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("kvdb.recovery.records_recovered"), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detached_db_pays_no_observability() {
        let dir = tempdir("obs-off");
        let db = Db::open(&dir).unwrap();
        db.put(b"k", b"v").unwrap();
        assert!(!db.inner.obs.read().append_nanos.is_enabled());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_get_delete_cycle() {
        let dir = tempdir("pgd");
        let db = Db::open(&dir).unwrap();
        assert!(db.is_empty());
        db.put(b"k1", b"v1").unwrap();
        db.put(b"k2", b"v2").unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(b"k1").unwrap().unwrap(), b"v1");
        db.put(b"k1", b"v1b").unwrap();
        assert_eq!(db.get(b"k1").unwrap().unwrap(), b"v1b");
        db.delete(b"k1").unwrap();
        assert!(db.get(b"k1").unwrap().is_none());
        assert!(!db.contains(b"k1").unwrap());
        assert!(db.contains(b"k2").unwrap());
        db.destroy().unwrap();
    }

    #[test]
    fn values_survive_reopen() {
        let dir = tempdir("reopen");
        {
            let db = Db::open(&dir).unwrap();
            for i in 0..100u32 {
                db.put(
                    format!("key-{i:04}").as_bytes(),
                    format!("value-{i}").as_bytes(),
                )
                .unwrap();
            }
            db.delete(b"key-0050").unwrap();
            db.sync().unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.len(), 99);
        assert_eq!(db.get(b"key-0001").unwrap().unwrap(), b"value-1");
        assert!(db.get(b"key-0050").unwrap().is_none());
        db.destroy().unwrap();
    }

    #[test]
    fn prefix_scan_returns_sorted_keys_and_values() {
        let dir = tempdir("scan");
        let db = Db::open(&dir).unwrap();
        db.put(b"interaction/2", b"b").unwrap();
        db.put(b"interaction/1", b"a").unwrap();
        db.put(b"actorstate/1", b"x").unwrap();
        let keys = db.scan_prefix(b"interaction/").unwrap();
        assert_eq!(
            keys,
            vec![b"interaction/1".to_vec(), b"interaction/2".to_vec()]
        );
        let kvs = db.scan_prefix_values(b"interaction/").unwrap();
        assert_eq!(kvs[0].1, b"a");
        assert_eq!(kvs[1].1, b"b");
        let range = db
            .scan_range_limited(b"actorstate/", b"interaction/", usize::MAX)
            .unwrap();
        assert_eq!(range, vec![b"actorstate/1".to_vec()]);
        db.destroy().unwrap();
    }

    #[test]
    fn batch_write_is_applied_in_order() {
        let dir = tempdir("batch");
        let db = Db::open(&dir).unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1").unwrap();
        batch.put(b"a", b"2").unwrap();
        batch.delete(b"b").unwrap();
        batch.put(b"b", b"fresh").unwrap();
        db.write_batch(batch).unwrap();
        assert_eq!(db.get(b"a").unwrap().unwrap(), b"2");
        assert_eq!(db.get(b"b").unwrap().unwrap(), b"fresh");
        db.write_batch(WriteBatch::new()).unwrap(); // empty batch is a no-op
        db.destroy().unwrap();
    }

    #[test]
    fn segment_rotation_under_small_target() {
        let dir = tempdir("rotate");
        let options = DbOptions {
            segment_target_bytes: 512,
            ..Default::default()
        };
        let db = Db::open_with(&dir, options).unwrap();
        for i in 0..100u32 {
            db.put(format!("k{i}").as_bytes(), &[7u8; 64]).unwrap();
        }
        assert!(
            db.stats().segments > 1,
            "expected rotation to create multiple segments"
        );
        // Everything still readable, including values in sealed segments.
        assert_eq!(db.get(b"k0").unwrap().unwrap(), vec![7u8; 64]);
        assert_eq!(db.get(b"k99").unwrap().unwrap(), vec![7u8; 64]);
        db.destroy().unwrap();
    }

    #[test]
    fn stats_track_operations() {
        let dir = tempdir("stats");
        let db = Db::open(&dir).unwrap();
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.delete(b"a").unwrap();
        let _ = db.get(b"b").unwrap();
        let _ = db.get(b"missing").unwrap();
        let stats = db.stats();
        assert_eq!(stats.puts, 2);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.live_keys, 1);
        assert!(stats.appended_bytes > 0);
        db.destroy().unwrap();
    }

    #[test]
    fn cache_serves_recent_writes() {
        let dir = tempdir("cache");
        let db = Db::open(&dir).unwrap();
        db.put(b"hot", b"value").unwrap();
        let _ = db.get(b"hot").unwrap();
        assert!(db.stats().cache_hits >= 1);
        db.destroy().unwrap();
    }

    #[test]
    fn empty_values_are_answered_from_the_index_without_caching() {
        let dir = tempdir("empty");
        let db = Db::open(&dir).unwrap();
        let key = |i: u32| format!("x/s/{i:05}").into_bytes();
        for i in 0..10_000 {
            db.put(&key(i), b"").unwrap();
        }
        assert_eq!((db.stats().cache_bytes, db.stats().cache_entries), (0, 0));
        for i in 0..10_000 {
            assert_eq!(db.get(&key(i)).unwrap(), Some(Vec::new()));
        }
        let stats = db.stats();
        assert_eq!((stats.cache_bytes, stats.cache_hits), (0, 10_000));
        db.destroy().unwrap();
    }

    #[test]
    fn cache_gauges_sum_across_databases_sharing_a_registry() {
        let registry = Registry::new();
        let level = || {
            let snapshot = registry.snapshot();
            (
                snapshot.gauge("kvdb.cache_bytes"),
                snapshot.gauge("kvdb.cache_entries"),
            )
        };
        let (a, b) = (tempdir("gauge-a"), tempdir("gauge-b"));
        let first = Db::open(&a).unwrap();
        first.put(b"before-attach", b"value").unwrap();
        first.attach_observability(&registry);
        let second = Db::open(&b).unwrap();
        second.attach_observability(&registry);
        second.put(b"doc", b"document").unwrap();
        second.put(b"marker", b"").unwrap();
        first.put(b"before-attach", b"overwritten").unwrap();
        let (one, two) = (first.stats(), second.stats());
        assert_eq!((one.cache_entries, two.cache_entries), (1, 1));
        assert_eq!(
            level(),
            ((one.cache_bytes + two.cache_bytes) as i64, 2),
            "the gauges are the sum of both caches"
        );
        first.destroy().unwrap();
        assert_eq!(level(), (two.cache_bytes as i64, 1));
        second.destroy().unwrap();
        assert_eq!(level(), (0, 0));
    }

    #[test]
    fn index_gauge_sums_across_databases_sharing_a_registry() {
        let registry = Registry::new();
        let level = || registry.snapshot().gauge("kvdb.index_bytes");
        let (a, b) = (tempdir("index-a"), tempdir("index-b"));
        let first = Db::open(&a).unwrap();
        first.put(b"before-attach", b"").unwrap();
        first.attach_observability(&registry);
        let second = Db::open(&b).unwrap();
        second.attach_observability(&registry);
        for i in 0..100u32 {
            second
                .put(format!("x/s/session/{i:012}").as_bytes(), b"")
                .unwrap();
        }
        first.delete(b"before-attach").unwrap();
        first.put(b"after", b"value").unwrap();
        let (one, two) = (first.stats().index_bytes, second.stats().index_bytes);
        assert!(one > 0 && two > one, "{one} {two}");
        assert_eq!(
            level(),
            (one + two) as i64,
            "the gauge is the sum of both indexes"
        );
        first.destroy().unwrap();
        assert_eq!(level(), two as i64);
        second.destroy().unwrap();
        assert_eq!(level(), 0);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let dir = tempdir("concurrent");
        let db = Db::open(&dir).unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let key = format!("t{t}/k{i}");
                    db.put(key.as_bytes(), format!("v{t}-{i}").as_bytes())
                        .unwrap();
                    let got = db.get(key.as_bytes()).unwrap().unwrap();
                    assert_eq!(got, format!("v{t}-{i}").as_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 800);
        for t in 0..4 {
            assert_eq!(
                db.scan_prefix(format!("t{t}/").as_bytes()).unwrap().len(),
                200
            );
        }
        db.destroy().unwrap();
    }

    #[test]
    fn acked_batch_survives_a_simulated_crash_under_durable_options() {
        let dir = tempdir("crash-batch");
        {
            let db = Db::open_with(&dir, DbOptions::durable()).unwrap();
            let mut batch = WriteBatch::new();
            for i in 0..50u32 {
                batch
                    .put(
                        format!("acked-{i:03}").as_bytes(),
                        format!("v{i}").as_bytes(),
                    )
                    .unwrap();
            }
            // `write_batch` returning Ok IS the ack: under durable options the batch was
            // fsynced, so a crash immediately afterwards must lose nothing.
            db.write_batch(batch).unwrap();
            db.crash().unwrap();
            // The crashed handle refuses every further fallible operation, reads included —
            // the pre-crash index must not leak state the power loss discarded.
            assert!(matches!(db.put(b"late", b"x"), Err(DbError::Closed)));
            assert!(matches!(db.get(b"acked-000"), Err(DbError::Closed)));
            assert!(matches!(db.contains(b"acked-000"), Err(DbError::Closed)));
            assert!(matches!(db.scan_prefix(b"acked-"), Err(DbError::Closed)));
            assert!(matches!(
                db.scan_range_limited(b"a", b"z", 1),
                Err(DbError::Closed)
            ));
            assert!(matches!(db.sync(), Err(DbError::Closed)));
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.len(), 50);
        for i in 0..50u32 {
            assert_eq!(
                db.get(format!("acked-{i:03}").as_bytes()).unwrap().unwrap(),
                format!("v{i}").as_bytes()
            );
        }
        assert!(db.recovery_report().is_clean());
        db.destroy().unwrap();
    }

    #[test]
    fn armed_crash_point_fires_mid_batch_without_acking_and_recovers_clean() {
        let dir = tempdir("crash-point");
        {
            let db = Db::open_with(&dir, DbOptions::durable()).unwrap();
            db.put(b"before", b"acked").unwrap();
            // Fire on the 3rd append of the next batch: 2 records reach the buffer, the 3rd
            // triggers the power loss, and the whole run fails unacked.
            db.arm_crash_after_appends(2);
            assert!(db.crash_point_armed());
            let mut batch = WriteBatch::new();
            for i in 0..5u32 {
                batch
                    .put(format!("batch-{i}").as_bytes(), b"never-acked")
                    .unwrap();
            }
            assert!(matches!(db.write_batch(batch), Err(DbError::Closed)));
            assert!(db.is_crashed());
            assert!(!db.crash_point_armed(), "a crash point fires at most once");
            assert!(matches!(db.get(b"before"), Err(DbError::Closed)));
        }
        let db = Db::open(&dir).unwrap();
        // The acked pre-crash write survived; nothing of the failed batch did.
        assert_eq!(db.get(b"before").unwrap().unwrap(), b"acked");
        assert_eq!(db.len(), 1);
        assert!(db.scan_prefix(b"batch-").unwrap().is_empty());
        assert!(db.recovery_report().is_clean());
        db.destroy().unwrap();
    }

    #[test]
    fn crash_point_at_zero_fails_the_very_next_append() {
        let dir = tempdir("crash-point-zero");
        {
            let db = Db::open(&dir).unwrap();
            db.arm_crash_after_appends(0);
            assert!(matches!(db.put(b"k", b"v"), Err(DbError::Closed)));
            assert!(db.is_crashed());
        }
        let db = Db::open(&dir).unwrap();
        assert!(db.is_empty());
        db.destroy().unwrap();
    }

    #[test]
    fn unsynced_writes_are_lost_by_a_crash_but_synced_ones_survive() {
        let dir = tempdir("crash-unsynced");
        {
            // Default options: appends are flushed to the OS but not fsynced.
            let db = Db::open(&dir).unwrap();
            db.put(b"durable", b"yes").unwrap();
            db.sync().unwrap();
            db.put(b"volatile", b"gone").unwrap();
            db.crash().unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.get(b"durable").unwrap().unwrap(), b"yes");
        assert!(db.get(b"volatile").unwrap().is_none());
        db.destroy().unwrap();
    }

    #[test]
    fn recovery_report_describes_a_truncated_tail() {
        use std::io::Write;
        let dir = tempdir("report");
        {
            let db = Db::open(&dir).unwrap();
            db.put(b"keep", b"me").unwrap();
            db.sync().unwrap();
        }
        // Tear the log by hand: garbage bytes after the last record.
        let seg = crate::segment::segment_path(&dir, 1);
        let clean = fs::metadata(&seg).unwrap().len();
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xAB; 7]).unwrap();
        drop(f);
        let db = Db::open(&dir).unwrap();
        let report = db.recovery_report();
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.records_recovered(), 1);
        assert_eq!(report.torn_segments(), 1);
        assert!(report.truncated_bytes() > 0);
        assert!(!report.is_clean());
        assert_eq!(report.segments[0].clean_bytes, clean);
        assert_eq!(db.get(b"keep").unwrap().unwrap(), b"me");
        // The torn bytes are gone from disk after the reopen cycle.
        drop(db);
        assert_eq!(fs::metadata(&seg).unwrap().len(), clean);
        let db = Db::open(&dir).unwrap();
        assert!(db.recovery_report().is_clean());
        db.destroy().unwrap();
    }

    #[test]
    fn corruption_in_a_sealed_segment_refuses_to_open() {
        use std::io::Write;
        let dir = tempdir("sealed-corrupt");
        {
            // Tiny target so the writes rotate into several sealed segments.
            let options = DbOptions {
                segment_target_bytes: 256,
                ..Default::default()
            };
            let db = Db::open_with(&dir, options).unwrap();
            for i in 0..40u32 {
                db.put(format!("k{i:03}").as_bytes(), &[9u8; 32]).unwrap();
            }
            db.sync().unwrap();
            assert!(db.stats().segments > 2, "need sealed segments to damage");
        }
        // Flip a byte early in the first (sealed) segment.
        let seg = crate::segment::segment_path(&dir, 1);
        let mut data = fs::read(&seg).unwrap();
        data[10] ^= 0xFF;
        let mut f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.write_all(&data).unwrap();
        drop(f);
        match Db::open(&dir) {
            Err(DbError::Corruption { segment, .. }) => assert_eq!(segment, 1),
            other => panic!("sealed-segment damage must fail the open, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_corrupt_tail_is_truncated_on_open() {
        use std::io::Write;
        let dir = tempdir("crc-open");
        {
            let db = Db::open(&dir).unwrap();
            db.put(b"good", b"value").unwrap();
            db.sync().unwrap();
        }
        // Append a complete record with a flipped payload byte (CRC failure, not a torn tail).
        let mut bad = Record::put(b"bad", b"payload").unwrap().encode();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let seg = crate::segment::segment_path(&dir, 1);
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&bad).unwrap();
        drop(f);
        let db = Db::open(&dir).unwrap();
        let report = db.recovery_report();
        assert_eq!(report.torn_segments(), 1);
        assert!(report.segments[0]
            .corruption
            .as_deref()
            .unwrap()
            .contains("crc mismatch"));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(b"good").unwrap().unwrap(), b"value");
        assert!(db.get(b"bad").unwrap().is_none());
        db.destroy().unwrap();
    }

    #[test]
    fn crc_damage_mid_active_segment_refuses_to_open() {
        let dir = tempdir("crc-mid-open");
        {
            let db = Db::open_with(&dir, DbOptions::durable()).unwrap();
            for i in 0..5u32 {
                db.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
        }
        // Flip a payload byte of the FIRST record in the (only, active) segment. The four
        // records after it were each fsynced and acked under SyncPolicy::Always; truncating
        // at the damage would silently discard them, so the open must refuse instead.
        let seg = crate::segment::segment_path(&dir, 1);
        let mut data = fs::read(&seg).unwrap();
        data[crate::record::HEADER_LEN] ^= 0xFF;
        fs::write(&seg, &data).unwrap();
        match Db::open(&dir) {
            Err(DbError::Corruption {
                segment, reason, ..
            }) => {
                assert_eq!(segment, 1);
                assert!(reason.contains("crc mismatch"), "reason: {reason}");
                assert!(reason.contains("beyond the damage"), "reason: {reason}");
            }
            other => panic!("mid-log CRC damage must fail the open, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_policy_always_is_durable() {
        let dir = tempdir("durable");
        {
            let options = DbOptions {
                sync: SyncPolicy::Always,
                ..Default::default()
            };
            let db = Db::open_with(&dir, options).unwrap();
            db.put(b"durable", b"yes").unwrap();
            // Dropped without an explicit sync.
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.get(b"durable").unwrap().unwrap(), b"yes");
        db.destroy().unwrap();
    }
}
