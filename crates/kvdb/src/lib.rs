//! # pasoa-kvdb — embedded key-value store
//!
//! The HPDC 2005 provenance paper stores p-assertions in a "database backend based on the
//! Berkeley DB Java Edition". This crate is the from-scratch Rust substitute for that backend:
//! a small, embedded, log-structured key-value store with
//!
//! * a write-ahead, append-only segment log on disk,
//! * an in-memory ordered key index (front-coded sorted blocks) rebuilt on open by scanning the
//!   log,
//! * CRC-protected records so torn writes are detected and truncated on recovery,
//! * ordered range scans (required by the provenance store's prefix queries), and
//! * log compaction that rewrites live records into a fresh segment and drops garbage.
//!
//! The store is intentionally single-node and embedded, exactly like Berkeley DB JE: the
//! provenance store (`pasoa-preserv`) layers its own concurrency and query semantics on top.
//!
//! ## Example
//!
//! ```
//! use pasoa_kvdb::Db;
//! let dir = std::env::temp_dir().join(format!("kvdb-doc-{}", std::process::id()));
//! let db = Db::open(&dir).unwrap();
//! db.put(b"interaction/1", b"record-one").unwrap();
//! assert_eq!(db.get(b"interaction/1").unwrap().as_deref(), Some(&b"record-one"[..]));
//! let keys: Vec<_> = db.scan_prefix(b"interaction/").unwrap();
//! assert_eq!(keys.len(), 1);
//! # drop(db);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod batch;
pub mod compaction;
pub mod error;
pub mod index;
pub mod memtable;
pub mod record;
pub mod segment;
pub mod stats;
pub mod store;

pub use batch::WriteBatch;
pub use error::{DbError, DbResult};
pub use record::{Record, RecordKind};
pub use stats::DbStats;
pub use store::{Db, DbOptions, RecoveryReport, SegmentRecovery, SyncPolicy};
