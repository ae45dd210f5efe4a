//! Storage backends — the bottom layer of the PReServ stack.
//!
//! "Currently, PReServ comes with in-memory, file system and database backends. Each of these
//! backends implements the same API, the Provenance Store Interface." The [`StorageBackend`]
//! trait is that interface; three implementations are provided:
//!
//! * [`MemoryBackend`] — a `BTreeMap`, fastest, not persistent;
//! * [`FileBackend`] — one file per key under a spill directory, simple and inspectable;
//! * [`KvBackend`] — the embedded `pasoa-kvdb` store, our substitute for the Berkeley DB Java
//!   Edition backend the paper's evaluation uses.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use parking_lot::RwLock;

use pasoa_kvdb::{Db, DbOptions};

/// Error produced by backend operations.
#[derive(Debug)]
pub struct BackendError {
    /// Human-readable description.
    pub reason: String,
}

impl BackendError {
    /// Create an error.
    pub fn new(reason: impl Into<String>) -> Self {
        BackendError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "backend error: {}", self.reason)
    }
}

impl std::error::Error for BackendError {}

/// `(key, value)` pairs produced by ordered scans.
pub type ScannedEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// The Provenance Store Interface: ordered key/value storage.
pub trait StorageBackend: Send + Sync {
    /// Store `value` under `key`, replacing any existing value.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), BackendError>;

    /// Store every `(key, value)` pair, replacing existing values. Backends with a group-commit
    /// primitive override this so a flushed recorder batch lands in one append run.
    fn put_many(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), BackendError> {
        for (key, value) in entries {
            self.put(key, value)?;
        }
        Ok(())
    }

    /// Fetch the value stored under `key`.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BackendError>;

    /// All keys starting with `prefix`, in ascending key order.
    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, BackendError>;

    /// All `(key, value)` pairs whose key starts with `prefix`, in ascending key order.
    fn scan_prefix_values(&self, prefix: &[u8]) -> Result<ScannedEntries, BackendError> {
        let mut out = Vec::new();
        for key in self.scan_prefix(prefix)? {
            if let Some(value) = self.get(&key)? {
                out.push((key, value));
            }
        }
        Ok(out)
    }

    /// Number of keys with the given prefix.
    fn count_prefix(&self, prefix: &[u8]) -> Result<usize, BackendError> {
        Ok(self.scan_prefix(prefix)?.len())
    }

    /// Up to `limit` keys with the given prefix that sort strictly after `after` (all of them
    /// from the start when `after` is `None`), in ascending key order — the bounded-page scan
    /// the paginated query path runs per request. The default walks the full prefix; ordered
    /// backends override it with a real range scan.
    fn scan_prefix_page(
        &self,
        prefix: &[u8],
        after: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, BackendError> {
        let mut out = Vec::with_capacity(limit.min(1024));
        for key in self.scan_prefix(prefix)? {
            if let Some(after) = after {
                if key.as_slice() <= after {
                    continue;
                }
            }
            out.push(key);
            if out.len() >= limit {
                break;
            }
        }
        Ok(out)
    }

    /// Remove every key in `keys` (keys that do not exist are ignored). Backends with a
    /// group-commit primitive override this so a purge lands in one append run. Used by the
    /// change-feed tier to purge acknowledged jobs out of the `f/` keyspaces.
    fn delete_many(&self, keys: &[Vec<u8>]) -> Result<(), BackendError>;

    /// Force pending writes to stable storage (no-op for memory).
    fn sync(&self) -> Result<(), BackendError> {
        Ok(())
    }

    /// What crash recovery found and repaired while opening this backend, for backends that
    /// run a recovery scan (`None` for backends with nothing to recover). Surfaced so every
    /// layer above — store, service, cluster — can report truncation/repair details instead of
    /// silently absorbing them.
    fn recovery_report(&self) -> Option<&pasoa_kvdb::RecoveryReport> {
        None
    }

    /// Attach the backend's internal instrumentation (append/fsync latency, recovery repairs)
    /// to `registry`. Backends with nothing to measure ignore the call.
    fn attach_observability(&self, registry: &pasoa_obs::Registry) {
        let _ = registry;
    }

    /// A short name identifying the backend kind in diagnostics and benchmarks.
    fn kind(&self) -> BackendKind;
}

/// The available backend kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// In-memory BTreeMap.
    Memory,
    /// One file per key.
    FileSystem,
    /// Embedded key-value database (`pasoa-kvdb`).
    Database,
}

impl BackendKind {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Memory => "memory",
            BackendKind::FileSystem => "file-system",
            BackendKind::Database => "database",
        }
    }
}

/// In-memory backend.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    map: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl MemoryBackend {
    /// Create an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), BackendError> {
        self.map.write().insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BackendError> {
        Ok(self.map.read().get(key).cloned())
    }

    fn put_many(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), BackendError> {
        let mut map = self.map.write();
        for (key, value) in entries {
            map.insert(key.clone(), value.clone());
        }
        Ok(())
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, BackendError> {
        let map = self.map.read();
        Ok(map
            .range::<[u8], _>((
                std::ops::Bound::Included(prefix),
                std::ops::Bound::Unbounded,
            ))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn scan_prefix_values(&self, prefix: &[u8]) -> Result<ScannedEntries, BackendError> {
        let map = self.map.read();
        Ok(map
            .range::<[u8], _>((
                std::ops::Bound::Included(prefix),
                std::ops::Bound::Unbounded,
            ))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    fn delete_many(&self, keys: &[Vec<u8>]) -> Result<(), BackendError> {
        let mut map = self.map.write();
        for key in keys {
            map.remove(key);
        }
        Ok(())
    }

    fn scan_prefix_page(
        &self,
        prefix: &[u8],
        after: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, BackendError> {
        let map = self.map.read();
        let start = match after {
            // An `after` below the prefix must not stall the scan on intervening
            // foreign-prefix keys: clamp it up to the prefix start (as KvBackend does).
            Some(after) if after >= prefix => std::ops::Bound::Excluded(after),
            _ => std::ops::Bound::Included(prefix),
        };
        Ok(map
            .range::<[u8], _>((start, std::ops::Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .take(limit)
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }
}

/// File-system backend: each key becomes one file whose name is the hex encoding of the key.
///
/// Hex naming keeps arbitrary key bytes legal on any filesystem while preserving lexicographic
/// order (hex of a prefix is a prefix of the hex), so ordered scans remain correct.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    /// An in-memory mirror of the key set, so scans need not hit the directory every time.
    keys: RwLock<BTreeMap<Vec<u8>, ()>>,
}

impl FileBackend {
    /// Open (creating if needed) a file backend rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, BackendError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| BackendError::new(e.to_string()))?;
        let mut keys = BTreeMap::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| BackendError::new(e.to_string()))? {
            let entry = entry.map_err(|e| BackendError::new(e.to_string()))?;
            if let Some(name) = entry.file_name().to_str() {
                if let Some(key) = decode_hex(name) {
                    keys.insert(key, ());
                }
            }
        }
        Ok(FileBackend {
            dir,
            keys: RwLock::new(keys),
        })
    }

    fn path_for(&self, key: &[u8]) -> PathBuf {
        self.dir.join(encode_hex(key))
    }
}

/// The smallest byte string greater than every key with `prefix`: the prefix with its last
/// non-0xFF byte incremented (and the tail dropped). `None` when no such bound exists.
fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(&last) = end.last() {
        if last < 0xFF {
            *end.last_mut().expect("non-empty") = last + 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn decode_hex(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).ok())
        .collect()
}

impl StorageBackend for FileBackend {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), BackendError> {
        std::fs::write(self.path_for(key), value).map_err(|e| BackendError::new(e.to_string()))?;
        self.keys.write().insert(key.to_vec(), ());
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BackendError> {
        if !self.keys.read().contains_key(key) {
            return Ok(None);
        }
        match std::fs::read(self.path_for(key)) {
            Ok(value) => Ok(Some(value)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(BackendError::new(e.to_string())),
        }
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, BackendError> {
        let keys = self.keys.read();
        Ok(keys
            .range::<[u8], _>((
                std::ops::Bound::Included(prefix),
                std::ops::Bound::Unbounded,
            ))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn delete_many(&self, keys: &[Vec<u8>]) -> Result<(), BackendError> {
        let mut set = self.keys.write();
        for key in keys {
            if set.remove(key).is_some() {
                match std::fs::remove_file(self.path_for(key)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(BackendError::new(e.to_string())),
                }
            }
        }
        Ok(())
    }

    fn kind(&self) -> BackendKind {
        BackendKind::FileSystem
    }
}

/// Database backend built on the embedded `pasoa-kvdb` store.
#[derive(Debug)]
pub struct KvBackend {
    db: Db,
}

impl KvBackend {
    /// Open (creating if needed) a database backend rooted at `dir`.
    ///
    /// Opening runs the database's crash-recovery scan: torn or CRC-failing log tails are
    /// truncated and the repairs are available through [`KvBackend::recovery_report`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, BackendError> {
        let db = Db::open(dir).map_err(|e| BackendError::new(e.to_string()))?;
        Ok(KvBackend { db })
    }

    /// Open with explicit kvdb options.
    pub fn open_with(dir: impl AsRef<Path>, options: DbOptions) -> Result<Self, BackendError> {
        let db = Db::open_with(dir, options).map_err(|e| BackendError::new(e.to_string()))?;
        Ok(KvBackend { db })
    }

    /// Open with every write fsynced before it is acked ([`DbOptions::durable`]) — the
    /// configuration a replicated store tier runs its shards under, so an acked batch survives
    /// a crash.
    pub fn open_durable(dir: impl AsRef<Path>) -> Result<Self, BackendError> {
        Self::open_with(dir, DbOptions::durable())
    }

    /// What the opening log scan found and repaired.
    pub fn recovery_report(&self) -> &pasoa_kvdb::RecoveryReport {
        self.db.recovery_report()
    }

    /// Access the underlying database (used by maintenance tooling and tests).
    pub fn db(&self) -> &Db {
        &self.db
    }
}

impl StorageBackend for KvBackend {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), BackendError> {
        self.db
            .put(key, value)
            .map_err(|e| BackendError::new(e.to_string()))
    }

    fn put_many(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), BackendError> {
        // One WriteBatch append run: a single log-lock acquisition and flush (group commit).
        let mut batch = pasoa_kvdb::WriteBatch::new();
        for (key, value) in entries {
            batch
                .put(key, value)
                .map_err(|e| BackendError::new(e.to_string()))?;
        }
        self.db
            .write_batch(batch)
            .map_err(|e| BackendError::new(e.to_string()))
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BackendError> {
        self.db
            .get(key)
            .map_err(|e| BackendError::new(e.to_string()))
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, BackendError> {
        self.db
            .scan_prefix(prefix)
            .map_err(|e| BackendError::new(e.to_string()))
    }

    fn delete_many(&self, keys: &[Vec<u8>]) -> Result<(), BackendError> {
        // One WriteBatch of tombstones: a purge is a single group append, and the tombstones
        // ride the same torn-tail recovery contract as every other record.
        let mut batch = pasoa_kvdb::WriteBatch::new();
        for key in keys {
            batch
                .delete(key)
                .map_err(|e| BackendError::new(e.to_string()))?;
        }
        self.db
            .write_batch(batch)
            .map_err(|e| BackendError::new(e.to_string()))
    }

    fn scan_prefix_page(
        &self,
        prefix: &[u8],
        after: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, BackendError> {
        // [start, end) range bounded by the prefix's upper bound, stopping at `limit` inside
        // the database — a page over a huge keyspace costs O(limit).
        let Some(end) = prefix_upper_bound(prefix) else {
            // Degenerate all-0xFF prefix: no exclusive upper bound exists, fall back.
            let mut out = Vec::new();
            for key in StorageBackend::scan_prefix(self, prefix)? {
                if after.is_none_or(|after| key.as_slice() > after) {
                    out.push(key);
                    if out.len() >= limit {
                        break;
                    }
                }
            }
            return Ok(out);
        };
        let start: Vec<u8> = match after {
            // The smallest key strictly greater than `after` is `after` + 0x00.
            Some(after) => {
                let mut start = after.to_vec();
                start.push(0);
                if start.as_slice() < prefix {
                    prefix.to_vec()
                } else {
                    start
                }
            }
            None => prefix.to_vec(),
        };
        self.db
            .scan_range_limited(&start, &end, limit)
            .map_err(|e| BackendError::new(e.to_string()))
    }

    fn sync(&self) -> Result<(), BackendError> {
        self.db.sync().map_err(|e| BackendError::new(e.to_string()))
    }

    fn recovery_report(&self) -> Option<&pasoa_kvdb::RecoveryReport> {
        Some(self.db.recovery_report())
    }

    fn attach_observability(&self, registry: &pasoa_obs::Registry) {
        self.db.attach_observability(registry);
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Database
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "preserv-backend-{}-{}-{}",
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

    fn exercise(backend: &dyn StorageBackend) {
        backend.put(b"a/int1/000", b"first").unwrap();
        backend.put(b"a/int1/001", b"second").unwrap();
        backend.put(b"a/int2/000", b"other").unwrap();
        backend.put(b"i/int1", b"").unwrap();
        assert_eq!(backend.get(b"a/int1/000").unwrap().unwrap(), b"first");
        assert!(backend.get(b"missing").unwrap().is_none());
        let keys = backend.scan_prefix(b"a/int1/").unwrap();
        assert_eq!(keys.len(), 2);
        assert!(keys[0] < keys[1]);
        assert_eq!(backend.count_prefix(b"a/").unwrap(), 3);
        let values = backend.scan_prefix_values(b"a/int1/").unwrap();
        assert_eq!(values[0].1, b"first");
        assert_eq!(values[1].1, b"second");
        // Overwrite keeps the latest value.
        backend.put(b"a/int1/000", b"replaced").unwrap();
        assert_eq!(backend.get(b"a/int1/000").unwrap().unwrap(), b"replaced");
        // Bounded page scans: from the start, resuming mid-stream, and past the end.
        let page = backend.scan_prefix_page(b"a/", None, 2).unwrap();
        assert_eq!(page, vec![b"a/int1/000".to_vec(), b"a/int1/001".to_vec()]);
        let page = backend
            .scan_prefix_page(b"a/", Some(b"a/int1/001"), 10)
            .unwrap();
        assert_eq!(page, vec![b"a/int2/000".to_vec()]);
        // An `after` sorting below the prefix behaves like no cursor at all.
        let page = backend.scan_prefix_page(b"i/", Some(b"a/zzz"), 10).unwrap();
        assert_eq!(page, vec![b"i/int1".to_vec()]);
        assert!(backend
            .scan_prefix_page(b"a/", Some(b"a/int2/000"), 10)
            .unwrap()
            .is_empty());
        // Deletes drop the keys from point reads and scans; missing keys are ignored.
        backend.put(b"f/j/sub/000", b"job").unwrap();
        backend.put(b"f/j/sub/001", b"job").unwrap();
        backend
            .delete_many(&[
                b"f/j/sub/000".to_vec(),
                b"f/j/sub/001".to_vec(),
                b"f/j/sub/999".to_vec(),
            ])
            .unwrap();
        assert!(backend.get(b"f/j/sub/000").unwrap().is_none());
        assert!(backend.scan_prefix(b"f/").unwrap().is_empty());
        assert_eq!(backend.count_prefix(b"a/").unwrap(), 3);
        backend.sync().unwrap();
    }

    #[test]
    fn memory_backend_contract() {
        let backend = MemoryBackend::new();
        exercise(&backend);
        assert_eq!(backend.kind(), BackendKind::Memory);
        assert_eq!(backend.kind().label(), "memory");
    }

    #[test]
    fn file_backend_contract_and_persistence() {
        let dir = tempdir("file");
        {
            let backend = FileBackend::open(&dir).unwrap();
            exercise(&backend);
            assert_eq!(backend.kind(), BackendKind::FileSystem);
        }
        // Re-open: the data is still there.
        let backend = FileBackend::open(&dir).unwrap();
        assert_eq!(backend.get(b"a/int1/001").unwrap().unwrap(), b"second");
        assert_eq!(backend.count_prefix(b"a/").unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kv_backend_contract_and_persistence() {
        let dir = tempdir("kv");
        {
            let backend = KvBackend::open(&dir).unwrap();
            exercise(&backend);
            assert_eq!(backend.kind(), BackendKind::Database);
        }
        let backend = KvBackend::open(&dir).unwrap();
        assert_eq!(backend.get(b"a/int2/000").unwrap().unwrap(), b"other");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_kv_backend_survives_a_simulated_crash() {
        let dir = tempdir("kv-crash");
        {
            let backend = KvBackend::open_durable(&dir).unwrap();
            let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..20)
                .map(|i| {
                    (
                        format!("a/int{i:02}/000").into_bytes(),
                        format!("assertion-{i}").into_bytes(),
                    )
                })
                .collect();
            // put_many returning Ok is the ack; durable options fsync before that.
            backend.put_many(&entries).unwrap();
            backend.db().crash().unwrap();
        }
        let backend = KvBackend::open(&dir).unwrap();
        assert_eq!(backend.count_prefix(b"a/").unwrap(), 20);
        assert_eq!(
            backend.get(b"a/int07/000").unwrap().unwrap(),
            b"assertion-7"
        );
        assert!(backend.recovery_report().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kv_backend_reopen_reports_torn_tail_repair() {
        use std::io::Write;
        let dir = tempdir("kv-torn");
        {
            let backend = KvBackend::open(&dir).unwrap();
            backend.put(b"a/int1/000", b"kept").unwrap();
            backend.sync().unwrap();
        }
        // Tear the shard's log as a crashed host would leave it.
        let seg = dir.join(format!("seg-{:016}.log", 1));
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0x5A; 11]).unwrap();
        drop(f);
        let backend = KvBackend::open(&dir).unwrap();
        let report = backend.recovery_report();
        assert_eq!(report.torn_segments(), 1);
        assert_eq!(report.truncated_bytes(), 11);
        assert_eq!(backend.get(b"a/int1/000").unwrap().unwrap(), b"kept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_durable_reports_torn_tail_repair_details() {
        use std::io::Write;
        let dir = tempdir("kv-durable-torn");
        {
            let backend = KvBackend::open_durable(&dir).unwrap();
            backend.put(b"a/int1/000", b"acked").unwrap();
            // Durable policy: the put was fsynced before it returned, no explicit sync needed.
        }
        // A crash mid-append leaves garbage past the last fsynced record.
        let seg = dir.join(format!("seg-{:016}.log", 1));
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xC3; 9]).unwrap();
        drop(f);
        let backend = KvBackend::open_durable(&dir).unwrap();
        let report = backend.recovery_report();
        assert!(!report.is_clean());
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.records_recovered(), 1);
        assert_eq!(report.torn_segments(), 1);
        assert_eq!(report.truncated_bytes(), 9);
        // The trait-level surface reports the same details as the inherent method.
        let via_trait = (&backend as &dyn StorageBackend).recovery_report().unwrap();
        assert_eq!(via_trait.truncated_bytes(), 9);
        assert_eq!(backend.get(b"a/int1/000").unwrap().unwrap(), b"acked");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_backend_has_no_recovery_report() {
        let backend = MemoryBackend::new();
        assert!((&backend as &dyn StorageBackend)
            .recovery_report()
            .is_none());
    }

    #[test]
    fn prefix_upper_bound_covers_edge_cases() {
        assert_eq!(prefix_upper_bound(b"a/").unwrap(), b"a0".to_vec());
        assert_eq!(prefix_upper_bound(b"x/s/").unwrap(), b"x/s0".to_vec());
        assert_eq!(prefix_upper_bound(&[0x61, 0xFF]).unwrap(), vec![0x62]);
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_upper_bound(b""), None);
    }

    #[test]
    fn hex_encoding_preserves_prefix_relation() {
        let key = b"s/session:1/interaction:2".to_vec();
        let prefix = b"s/session:1/".to_vec();
        assert!(encode_hex(&key).starts_with(&encode_hex(&prefix)));
        assert_eq!(decode_hex(&encode_hex(&key)).unwrap(), key);
        assert_eq!(decode_hex("zz"), None);
        assert_eq!(decode_hex("abc"), None);
    }

    #[test]
    fn backends_are_shareable_across_threads() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let backend = Arc::clone(&backend);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    backend
                        .put(
                            format!("t{t}/k{i:03}").as_bytes(),
                            format!("v{i}").as_bytes(),
                        )
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(backend.count_prefix(b"t").unwrap(), 400);
    }
}
