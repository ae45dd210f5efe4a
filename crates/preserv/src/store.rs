//! The provenance store proper — the layer behind the plug-ins.
//!
//! [`ProvenanceStore`] persists p-assertions and groups through a [`StorageBackend`] and
//! answers the queries the PReP protocol defines. It is "designed to store and maintain
//! provenance beyond the life of a Grid application": reopening a store over a persistent
//! backend recovers everything, and the store keeps its counters consistent by rebuilding them
//! from the backend at open time.
//!
//! ## The read path
//!
//! Every assertion-producing read is one call of one cursor primitive: `(request, access
//! path, after, limit) → (sort key, stored document)*`. The path comes from the
//! [`AccessPath::for_request`] table — consulted with this store's own configuration by the
//! plain entry points ([`ProvenanceStore::query`], [`ProvenanceStore::query_page`], the
//! `assertions_*` answers), or handed in by a caller that forces one
//! ([`ProvenanceStore::query_via`], [`ProvenanceStore::query_page_via`],
//! [`ProvenanceStore::assertions_via`] — the `pasoa-query` planner, and every equivalence test
//! comparing an index against the [`AccessPath::FullScan`] oracle). An unpaged answer is
//! simply every page at once.
//!
//! ## The stored form
//!
//! An `a/` document is the packed layout of one p-assertion — the bytes the record hop
//! carried ([`pasoa_core::prepwire::encode_document`]) — and this module's private
//! `encode_document` / `decode_document` are the only pair here that knows it. The cursor hands documents out
//! as stored: on every exact-prefix path (all of the access-path table but
//! `ActorStateByKind`, whose kind sits inside the document) nothing is decoded on the way to
//! an answer, and the wire answers are transcoded from the stored bytes by
//! [`pasoa_core::prepwire`]. Typed callers decode at their edge
//! ([`ProvenanceStore::decode_documents`]); the `preserv.read.documents_served` and
//! `preserv.read.documents_decoded` counters show which is which. Documents written by an
//! older layout (JSON) are rewritten in packed form by the open-time counter rebuild, the one
//! place that still reads them.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use pasoa_core::group::Group;
use pasoa_core::ids::{DataId, InteractionKey, SessionId};
use pasoa_core::passertion::{PAssertion, RecordedAssertion};
use pasoa_core::prep::{
    PagedQuery, QueryRequest, QueryResponse, ShardQueryPage, StoreStatistics, MAX_PAGE_SIZE,
};
use pasoa_core::prepwire::{self, CorruptDocument};
use pasoa_obs::{Counter, Registry};

use crate::access::AccessPath;
use crate::backend::{BackendError, StorageBackend};
use crate::index::{self, EdgeRecord, IndexMarker};
use crate::keys;

/// Legacy documents rewritten per backend batch by the open-time migration.
const MIGRATION_BATCH: usize = 512;

/// Error produced by store operations.
#[derive(Debug)]
pub enum StoreError {
    /// The backend failed.
    Backend(BackendError),
    /// A stored document could not be deserialized.
    Corrupt(String),
    /// The request itself is invalid (e.g. a page size of zero or beyond the hard ceiling);
    /// retrying without fixing the request cannot succeed. Raised loudly instead of silently
    /// truncating or clamping.
    InvalidRequest(String),
    /// The store (or part of a store tier) cannot currently accept or serve the named
    /// sessions; retrying later — or retrying just those sessions — may succeed. Produced by
    /// the cluster tier when a flush cannot deliver every buffered batch, so callers get the
    /// affected session ids as data rather than parsing them out of an error string.
    Unavailable {
        /// Distinct session ids (sorted) whose data could not be delivered.
        failed_sessions: Vec<String>,
        /// Human-readable cause.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Backend(e) => write!(f, "store backend failure: {e}"),
            StoreError::Corrupt(reason) => write!(f, "corrupt store document: {reason}"),
            StoreError::InvalidRequest(reason) => write!(f, "invalid request: {reason}"),
            StoreError::Unavailable {
                failed_sessions,
                reason,
            } => write!(
                f,
                "store unavailable for {} session(s) [{}]: {reason}",
                failed_sessions.len(),
                failed_sessions.join(", ")
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<BackendError> for StoreError {
    fn from(e: BackendError) -> Self {
        StoreError::Backend(e)
    }
}

impl From<CorruptDocument> for StoreError {
    fn from(e: CorruptDocument) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

/// How a store is opened.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Maintain the secondary-index keyspaces (see [`crate::index`]) write-through, and serve
    /// queries from them. Disabling reverts every query to the paper's bulk-retrieval scans —
    /// the configuration the planner's scan fallback and the equivalence oracles run against.
    pub maintain_indexes: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            maintain_indexes: true,
        }
    }
}

/// What the open-time index consistency check found and did (see [`crate::index`] for the
/// check itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexReport {
    /// Whether the store maintains indexes at all.
    pub enabled: bool,
    /// Whether the open-time check found the index stale or absent and rebuilt it.
    pub rebuilt: bool,
    /// Entries written by the rebuild — index entries, interaction markers and the version
    /// marker (0 when no rebuild ran).
    pub entries_rebuilt: usize,
}

/// A hook staging extra entries into the same backend write batch as a recorded batch of
/// p-assertions. This is how the change-feed tier (`pasoa-feed`) turns record-path plug-in
/// dispatch into a durable enqueue: the feed's job entries commit in the very `put_many` run
/// that commits the assertions, so an acked write can never lose its change events to a power
/// loss, and a torn batch can never surface a change event without its assertion (stager
/// entries are appended after every assertion document in the batch).
pub trait RecordStager: Send + Sync {
    /// Append extra `(key, value)` entries for `recorded` to `entries`. Keys must live outside
    /// the store's own keyspaces (the feed uses the dedicated `f/` prefix).
    fn stage_batch(
        &self,
        recorded: &[RecordedAssertion],
        entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError>;

    /// Called when the batch's backend commit failed: undo whatever allocation the
    /// immediately preceding [`Self::stage_batch`] made. The store serializes stage+commit
    /// while a stager is attached, so at most one staged batch is ever outstanding.
    fn stage_aborted(&self) {}
}

/// A provenance store over some backend.
pub struct ProvenanceStore {
    backend: Arc<dyn StorageBackend>,
    /// Monotonic sequence number appended to assertion keys so multiple assertions about the
    /// same interaction never collide.
    sequence: AtomicU64,
    /// What [`Self::statistics`] reports, kept current by every committed write.
    stats: Mutex<StoreStatistics>,
    /// Whether secondary indexes are maintained and served (see [`StoreOptions`]).
    maintain_indexes: bool,
    /// What the open-time consistency check did.
    index_report: Mutex<IndexReport>,
    /// Optional hook staging extra entries (change-feed jobs) into every record batch. Its
    /// lock doubles as the commit lock: interaction-marker checks, staging and the backend
    /// commit of one batch happen under it.
    stager: Mutex<Option<Arc<dyn RecordStager>>>,
    /// The read path's instruments (inert until [`Self::attach_observability`]).
    read_obs: RwLock<ReadObs>,
}

/// The read path's counters, resolved once per attached registry.
#[derive(Clone, Default)]
struct ReadObs {
    /// Documents the cursor handed out, decoded or not.
    served: Counter,
    /// Documents decoded on a read: the `ActorStateByKind` filter, the scan oracle, and typed
    /// callers at their edge.
    decoded: Counter,
}

impl ProvenanceStore {
    /// Open a store over `backend` with default options (secondary indexes maintained),
    /// rebuilding counters from its contents.
    pub fn open(backend: Arc<dyn StorageBackend>) -> Result<Self, StoreError> {
        Self::open_with_options(backend, StoreOptions::default())
    }

    /// Open a store over `backend` with explicit options. When indexes are enabled this runs
    /// the open-time consistency check: a store whose index keyspaces do not account for every
    /// assertion (a power loss truncated a write mid-batch, or the store was last written with
    /// indexing disabled or by an older layout) is rebuilt from the primary keyspace before any
    /// query is served — a stale index is never consulted.
    pub fn open_with_options(
        backend: Arc<dyn StorageBackend>,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let store = ProvenanceStore {
            backend,
            sequence: AtomicU64::new(0),
            stats: Mutex::new(StoreStatistics::default()),
            maintain_indexes: options.maintain_indexes,
            index_report: Mutex::new(IndexReport::default()),
            stager: Mutex::new(None),
            read_obs: RwLock::new(ReadObs::default()),
        };
        store.rebuild_counters()?;
        if options.maintain_indexes {
            store.ensure_indexes()?;
        } else {
            store.mark_indexes_disabled()?;
        }
        Ok(store)
    }

    fn rebuild_counters(&self) -> Result<(), StoreError> {
        let mut stats = StoreStatistics {
            interactions: self
                .backend
                .count_prefix(keys::INTERACTION_PREFIX.as_bytes())?
                as u64,
            groups: self.backend.count_prefix(keys::GROUP_PREFIX.as_bytes())? as u64,
            ..StoreStatistics::default()
        };
        let mut max_seq = 0u64;
        let mut legacy: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (key, value) in self
            .backend
            .scan_prefix_values(keys::ASSERTION_PREFIX.as_bytes())?
        {
            if let Ok(seq) = key_seq(&key) {
                max_seq = max_seq.max(seq + 1);
            }
            // A document an older layout wrote as JSON (a packed one starts with its layout
            // version byte, never `{`) is rewritten in packed form in place. Each rewrite is
            // idempotent, so a crash mid-migration leaves a mix the next open finishes.
            let recorded = if value.first() == Some(&b'{') {
                let recorded: RecordedAssertion =
                    serde_json::from_slice(&value).map_err(corrupt)?;
                legacy.push((key, encode_document(&recorded)));
                if legacy.len() == MIGRATION_BATCH {
                    self.backend.put_many(&legacy)?;
                    legacy.clear();
                }
                recorded
            } else {
                decode_document(&String::from_utf8_lossy(&key), &value)?
            };
            tally(&mut stats, &recorded.assertion);
        }
        if !legacy.is_empty() {
            self.backend.put_many(&legacy)?;
        }
        self.sequence.store(max_seq, Ordering::Relaxed);
        *self.stats.lock() = stats;
        Ok(())
    }

    fn index_marker_is_current(&self) -> Result<bool, StoreError> {
        let marker = self.backend.get(index::VERSION_KEY)?;
        Ok(marker.is_some_and(|payload| IndexMarker::payload_is_current(&payload)))
    }

    /// Verify the secondary indexes account for every stored assertion, rebuilding them when
    /// they don't (see [`crate::index`] for why count equality is a sufficient check).
    fn ensure_indexes(&self) -> Result<IndexReport, StoreError> {
        let assertions = self
            .backend
            .count_prefix(keys::ASSERTION_PREFIX.as_bytes())?;
        let by_session = self
            .backend
            .count_prefix(index::SESSION_IDX_PREFIX.as_bytes())?;
        let report = if by_session == assertions && self.index_marker_is_current()? {
            IndexReport {
                enabled: true,
                rebuilt: false,
                entries_rebuilt: 0,
            }
        } else if assertions == 0 && by_session == 0 {
            // Fresh (or empty) store: initialize the marker, nothing to rebuild.
            self.backend
                .put(index::VERSION_KEY, &IndexMarker::current().payload())?;
            IndexReport {
                enabled: true,
                rebuilt: false,
                entries_rebuilt: 0,
            }
        } else {
            self.rebuild_indexes()?
        };
        *self.index_report.lock() = report;
        Ok(report)
    }

    /// Delete what the retired keyspaces still hold, regenerate the index keyspaces and the
    /// interaction markers from the primary `a/` scan, recount the interactions, and stamp the
    /// version marker (written last, so a crash mid-rebuild is re-detected on the next open).
    /// Index entries and markers are pure functions of their assertions and assertions are
    /// immutable, so rewriting in place converges; orphan entries cannot exist because every
    /// entry is staged after its assertion document.
    fn rebuild_indexes(&self) -> Result<IndexReport, StoreError> {
        let mut retired = Vec::new();
        for prefix in index::RETIRED_PREFIXES {
            retired.extend(self.backend.scan_prefix(prefix.as_bytes())?);
        }
        if !retired.is_empty() {
            self.backend.delete_many(&retired)?;
        }
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut marker = Vec::new();
        for (key, value) in self
            .backend
            .scan_prefix_values(keys::ASSERTION_PREFIX.as_bytes())?
        {
            let recorded = decode_document(&String::from_utf8_lossy(&key), &value)?;
            // `a/` is interaction-ordered, so one marker per run of equal interactions.
            let interaction = keys::interaction_key(recorded.assertion.interaction_key().as_str());
            if interaction != marker {
                marker = interaction;
                entries.push((marker.clone(), Vec::new()));
            }
            index::stage_assertion_entries(&mut entries, &recorded, key_seq(&key)?);
        }
        entries.push((
            index::VERSION_KEY.to_vec(),
            IndexMarker::current().payload(),
        ));
        self.backend.put_many(&entries)?;
        self.stats.lock().interactions =
            self.backend
                .count_prefix(keys::INTERACTION_PREFIX.as_bytes())? as u64;
        Ok(IndexReport {
            enabled: true,
            rebuilt: true,
            entries_rebuilt: entries.len(),
        })
    }

    /// Invalidate the version marker on an index-disabled open: assertions recorded without
    /// index maintenance would otherwise leave a *stale* index that a later indexed open
    /// trusts. Downgrading the marker forces that open to rebuild.
    fn mark_indexes_disabled(&self) -> Result<(), StoreError> {
        if self.index_marker_is_current()? {
            self.backend
                .put(index::VERSION_KEY, &IndexMarker::disabled().payload())?;
        }
        Ok(())
    }

    /// Whether this store maintains and serves secondary indexes.
    pub fn indexes_enabled(&self) -> bool {
        self.maintain_indexes
    }

    /// What the open-time index consistency check did.
    pub fn index_report(&self) -> IndexReport {
        *self.index_report.lock()
    }

    /// What crash recovery found and repaired when the backing storage was opened (`None` for
    /// backends that run no recovery scan).
    pub fn recovery_report(&self) -> Option<&pasoa_kvdb::RecoveryReport> {
        self.backend.recovery_report()
    }

    /// Resolve the read path's counters (`preserv.read.documents_served`,
    /// `preserv.read.documents_decoded`) in `registry`.
    pub fn attach_observability(&self, registry: &Registry) {
        *self.read_obs.write() = ReadObs {
            served: registry.counter("preserv.read.documents_served"),
            decoded: registry.counter("preserv.read.documents_decoded"),
        };
    }

    fn note_read(&self, served: usize, decoded: usize) {
        let obs = self.read_obs.read();
        obs.served.add(served as u64);
        obs.decoded.add(decoded as u64);
    }

    /// Attach (or replace, or with `None` detach) the hook that stages extra entries into
    /// every record batch — see [`RecordStager`].
    pub fn set_record_stager(&self, stager: Option<Arc<dyn RecordStager>>) {
        *self.stager.lock() = stager;
    }

    /// Record one p-assertion.
    pub fn record(&self, recorded: &RecordedAssertion) -> Result<(), StoreError> {
        self.record_all(std::slice::from_ref(recorded)).map(|_| ())
    }

    /// Record a batch of p-assertions, returning how many were accepted.
    ///
    /// The assertion documents, interaction markers and index entries of the whole batch are
    /// staged and handed to the backend as one `put_many` run, so a flushed
    /// asynchronous-recorder batch commits as a single group append on the database backend
    /// instead of one write per assertion.
    pub fn record_all(&self, recorded: &[RecordedAssertion]) -> Result<usize, StoreError> {
        if recorded.is_empty() {
            return Ok(0);
        }
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(recorded.len() * 4);
        // Where in `entries` the interaction markers sit, one per distinct interaction of the
        // batch. Whether each is new is only decided under the commit lock.
        let mut marker_slots: Vec<usize> = Vec::new();
        let mut markers_in_batch = BTreeSet::new();

        for r in recorded {
            let interaction = r.assertion.interaction_key().as_str();
            let seq = self.sequence.fetch_add(1, Ordering::Relaxed);
            entries.push((keys::assertion_key(interaction, seq), encode_document(r)));

            let marker = keys::interaction_key(interaction);
            if markers_in_batch.insert(marker.clone()) {
                marker_slots.push(entries.len());
                entries.push((marker, Vec::new()));
            }
            if self.maintain_indexes {
                // Index entries follow their document and marker inside the same backend
                // batch, by-session last: a power loss can leave an assertion missing the rest
                // of its group (caught and rebuilt by the open-time count check) but never an
                // index entry without its assertion.
                index::stage_assertion_entries(&mut entries, r, seq);
            }
        }

        // Everything above (encoding included) ran unlocked; the marker existence check and
        // the commit are one critical section, so two recorders documenting the same fresh
        // interaction — the canonical PReP case of sender and receiver — cannot both find the
        // marker missing and both count the interaction as new. Markers that already exist
        // are dropped from the batch rather than rewritten.
        let stager = self.stager.lock();
        let mut existing = Vec::new();
        for &slot in &marker_slots {
            if self.backend.get(&entries[slot].0)?.is_some() {
                existing.push(slot);
            }
        }
        let new_interactions = (marker_slots.len() - existing.len()) as u64;
        let mut existing = existing.into_iter().peekable();
        let mut slot = 0;
        entries.retain(|_| {
            let stale = existing.next_if_eq(&slot).is_some();
            slot += 1;
            !stale
        });

        // Stager entries (change-feed jobs) ride the same group commit, appended after every
        // assertion document: an acked batch durably carries its change events, and a torn
        // batch prefix can never contain a job whose assertion was lost. Holding the lock
        // across the commit makes the stager's allocation order the commit order (keeps
        // per-subscriber queues gap-free), and a failed commit rolls the allocation back.
        if let Some(stager) = stager.as_ref() {
            stager.stage_batch(recorded, &mut entries)?;
        }
        if let Err(e) = self.backend.put_many(&entries) {
            if let Some(stager) = stager.as_ref() {
                stager.stage_aborted();
            }
            return Err(e.into());
        }
        drop(stager);

        let mut stats = self.stats.lock();
        stats.interactions += new_interactions;
        for r in recorded {
            tally(&mut stats, &r.assertion);
        }
        Ok(recorded.len())
    }

    /// Register (or replace) a group.
    pub fn register_group(&self, group: &Group) -> Result<(), StoreError> {
        let key = keys::group_key(group.kind.label(), &group.id);
        let existed = self.backend.get(&key)?.is_some();
        let payload = serde_json::to_vec(group).map_err(corrupt)?;
        self.backend.put(&key, &payload)?;
        if !existed {
            self.stats.lock().groups += 1;
        }
        Ok(())
    }

    /// All p-assertions recorded for `interaction`, in recording order.
    pub fn assertions_for_interaction(
        &self,
        interaction: &InteractionKey,
    ) -> Result<Vec<RecordedAssertion>, StoreError> {
        self.assertions(&QueryRequest::ByInteraction(interaction.clone()))
    }

    /// All p-assertions recorded under `session`, in `(interaction key, recording order)`
    /// order.
    pub fn assertions_for_session(
        &self,
        session: &SessionId,
    ) -> Result<Vec<RecordedAssertion>, StoreError> {
        self.assertions(&QueryRequest::BySession(session.clone()))
    }

    /// The access path this store's own configuration gives `request`.
    fn access_path(&self, request: &QueryRequest) -> AccessPath {
        AccessPath::for_request(request, self.indexes_enabled())
    }

    fn assertions(&self, request: &QueryRequest) -> Result<Vec<RecordedAssertion>, StoreError> {
        self.assertions_via(request, self.access_path(request))
    }

    /// The full answer of an assertion-producing request through a caller-chosen access path,
    /// decoded: [`Self::documents_via`] plus [`Self::decode_documents`]. Every path that can
    /// serve a request answers bit-identically (the equivalence proptests pin this);
    /// [`AccessPath::FullScan`] is the paper's bulk retrieval and the oracle the others are
    /// compared against.
    pub fn assertions_via(
        &self,
        request: &QueryRequest,
        path: AccessPath,
    ) -> Result<Vec<RecordedAssertion>, StoreError> {
        let documents = self.documents_via(request, path)?;
        Ok(self
            .decode_documents(documents)?
            .into_iter()
            .map(|(_, recorded)| recorded)
            .collect())
    }

    /// The full answer of an assertion-producing request through the store's own access
    /// path, in stored form.
    pub fn documents(&self, request: &QueryRequest) -> Result<Vec<(String, Vec<u8>)>, StoreError> {
        self.documents_via(request, self.access_path(request))
    }

    /// The full answer of an assertion-producing request through `path`, in stored form:
    /// every page of the cursor primitive at once, as `(sort key, stored document)` pairs.
    pub fn documents_via(
        &self,
        request: &QueryRequest,
        path: AccessPath,
    ) -> Result<Vec<(String, Vec<u8>)>, StoreError> {
        Ok(self.cursor(request, path, None, usize::MAX)?.items)
    }

    /// Decode stored documents at a typed caller's edge. A document that does not decode is
    /// [`StoreError::Corrupt`] naming its sort key.
    pub fn decode_documents(
        &self,
        documents: Vec<(String, Vec<u8>)>,
    ) -> Result<Vec<(String, RecordedAssertion)>, StoreError> {
        self.note_read(0, documents.len());
        documents
            .into_iter()
            .map(|(sort, document)| {
                let recorded = decode_document(&sort, &document)?;
                Ok((sort, recorded))
            })
            .collect()
    }

    /// Refuse a secondary-index path on a store that does not maintain indexes: whatever its
    /// index keyspaces hold is stale by definition.
    fn require_indexes(&self, path: AccessPath) -> Result<(), StoreError> {
        if path.needs_index() && !self.maintain_indexes {
            return Err(StoreError::InvalidRequest(format!(
                "{} requested but the store was opened without index maintenance",
                path.label()
            )));
        }
        Ok(())
    }

    /// The cursor primitive every assertion-producing read goes through: up to `limit`
    /// `(sort key, stored document)` pairs of `request` whose sort key is strictly greater
    /// than `after`, in global sort-key order, read through `path` — which must be the scan or
    /// the request's own row of the access-path table. The per-page cost is O(limit) through
    /// a key prefix (modulo filtering for `ActorStateByKind`), O(store) through the scan.
    fn cursor(
        &self,
        request: &QueryRequest,
        path: AccessPath,
        after: Option<&str>,
        limit: usize,
    ) -> Result<ShardQueryPage, StoreError> {
        if !request.is_pageable() {
            return Err(StoreError::InvalidRequest(format!(
                "{request:?} does not produce a p-assertion stream"
            )));
        }
        // The key prefix each non-scan row of the table reads: its interaction's slice of the
        // primary keyspace, or its session's slice of the by-session index.
        let prefix = match (path, request) {
            (AccessPath::FullScan, _) => return self.cursor_scan(request, after, limit),
            (
                AccessPath::AssertionPrefix,
                QueryRequest::ByInteraction(interaction)
                | QueryRequest::ActorStateByKind { interaction, .. },
            ) => keys::assertion_prefix(interaction.as_str()),
            (AccessPath::SessionIndex, QueryRequest::BySession(session)) => {
                index::session_entry_prefix(session.as_str())
            }
            _ => {
                return Err(StoreError::InvalidRequest(format!(
                    "{} cannot serve {request:?}",
                    path.label()
                )))
            }
        };
        self.require_indexes(path)?;
        // A key is `<base><sort key>`: primary keys drop `a/`, index entries their whole prefix.
        let base = match path {
            AccessPath::AssertionPrefix => keys::ASSERTION_PREFIX.as_bytes(),
            _ => prefix.as_slice(),
        };
        let mut after_key = after.map(|sort| [base, sort.as_bytes()].concat());
        // Every entry under a prefix belongs to the answer — except under the interaction
        // prefix serving `ActorStateByKind`, whose kind sits inside the document. That row
        // alone decodes to filter; every other page is served as stored.
        let filtered = matches!(request, QueryRequest::ActorStateByKind { .. });
        let mut items = Vec::new();
        let mut decoded = 0;
        // Raw pages are fetched until the page fills or the prefix is exhausted; only the
        // filtered row ever drops anything out of one.
        let exhausted = loop {
            let mut raw = self
                .backend
                .scan_prefix_page(&prefix, after_key.as_deref(), limit)?;
            let exhausted = raw.len() < limit;
            for key in &raw {
                let sort = index::sort_key_from_entry(key, base).ok_or_else(|| {
                    StoreError::Corrupt(format!("malformed key {}", String::from_utf8_lossy(key)))
                })?;
                let document = self.fetch_document(&sort)?;
                if filtered {
                    decoded += 1;
                    if !request_matches(request, &decode_document(&sort, &document)?) {
                        continue;
                    }
                }
                items.push((sort, document));
            }
            if items.len() >= limit {
                items.truncate(limit);
                break false;
            }
            if exhausted {
                break true;
            }
            after_key = raw.pop();
        };
        self.note_read(items.len(), decoded);
        Ok(ShardQueryPage { items, exhausted })
    }

    /// Fetch the stored document a sort key points at. A dangling entry is corruption by
    /// definition — index entries are never written before their document.
    fn fetch_document(&self, sort_key: &str) -> Result<Vec<u8>, StoreError> {
        let key = index::assertion_key_for_sort_key(sort_key);
        self.backend.get(&key)?.ok_or_else(|| {
            StoreError::Corrupt(format!("no assertion stored under sort key {sort_key}"))
        })
    }

    /// The cursor over [`AccessPath::FullScan`], the paper's bulk retrieval: one pass over
    /// every stored assertion per page, filtered and windowed to the same `(after, limit]`
    /// slice the prefix paths serve.
    fn cursor_scan(
        &self,
        request: &QueryRequest,
        after: Option<&str>,
        limit: usize,
    ) -> Result<ShardQueryPage, StoreError> {
        let mut items = Vec::new();
        let mut decoded = 0;
        let mut exhausted = true;
        for (key, value) in self
            .backend
            .scan_prefix_values(keys::ASSERTION_PREFIX.as_bytes())?
        {
            let Some(sort) = index::sort_key_from_entry(&key, keys::ASSERTION_PREFIX.as_bytes())
            else {
                continue;
            };
            if after.is_some_and(|after| sort.as_str() <= after) {
                continue;
            }
            decoded += 1;
            if !request_matches(request, &decode_document(&sort, &value)?) {
                continue;
            }
            if items.len() >= limit {
                exhausted = false;
                break;
            }
            items.push((sort, value));
        }
        self.note_read(items.len(), decoded);
        Ok(ShardQueryPage { items, exhausted })
    }

    /// Whether any p-assertion is recorded under `session`, read through this store's
    /// `BySession` row of the access-path table: one key of the by-session index, or the scan
    /// on a store without indexes.
    pub fn has_session(&self, session: &SessionId) -> Result<bool, StoreError> {
        let request = QueryRequest::BySession(session.clone());
        Ok(if self.access_path(&request) == AccessPath::SessionIndex {
            let prefix = index::session_entry_prefix(session.as_str());
            !self.backend.scan_prefix_page(&prefix, None, 1)?.is_empty()
        } else {
            !self.cursor_scan(&request, None, 1)?.items.is_empty()
        })
    }

    /// All interaction keys known to the store (optionally limited), in key order.
    pub fn list_interactions(
        &self,
        limit: Option<usize>,
    ) -> Result<Vec<InteractionKey>, StoreError> {
        let mut out = Vec::new();
        for key in self
            .backend
            .scan_prefix(keys::INTERACTION_PREFIX.as_bytes())?
        {
            if let Some(interaction) = keys::interaction_from_key(&key) {
                out.push(InteractionKey::new(interaction));
                if let Some(limit) = limit {
                    if out.len() >= limit {
                        break;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Whether a group with this id is registered, under any kind. The cluster tier's
    /// data-presence probe uses this: a session whose only documentation is its group
    /// registration must still count as resident on its shard, or a rebalance would re-route
    /// the next registration of the same id to a different shard and duplicate the group.
    pub fn has_group_id(&self, id: &str) -> Result<bool, StoreError> {
        // Keys-only: a group key is `g/<kind>/<id>` with both components slash-escaped, so a
        // key ending in `/<escaped id>` can only be a group whose id component equals `id` —
        // no value reads, no JSON parsing on this (per-probe) path.
        let suffix = format!("/{}", keys::escape_component(id)).into_bytes();
        Ok(self
            .backend
            .scan_prefix(keys::GROUP_PREFIX.as_bytes())?
            .iter()
            .any(|key| key.ends_with(&suffix)))
    }

    /// All groups whose kind label is `kind`.
    pub fn groups_by_kind(&self, kind: &str) -> Result<Vec<Group>, StoreError> {
        let prefix = keys::group_kind_prefix(kind);
        let mut out = Vec::new();
        for (_, value) in self.backend.scan_prefix_values(&prefix)? {
            out.push(serde_json::from_slice(&value).map_err(corrupt)?);
        }
        Ok(out)
    }

    /// The lineage edges recorded under `session`, in recording order — what the lineage
    /// traversals consume — through [`AccessPath::EdgeIndex`] (the adjacency index) or
    /// [`AccessPath::FullScan`] (extracted from the bulk session retrieval).
    pub fn session_edges(
        &self,
        session: &SessionId,
        path: AccessPath,
    ) -> Result<Vec<EdgeRecord>, StoreError> {
        let mut edges: Vec<(u64, EdgeRecord)> = Vec::new();
        match path {
            AccessPath::EdgeIndex => {
                self.require_indexes(path)?;
                let prefix = index::edge_session_prefix(session.as_str());
                for (key, value) in self.backend.scan_prefix_values(&prefix)? {
                    edges.push((key_seq(&key)?, EdgeRecord::from_stored(&value)?));
                }
            }
            AccessPath::FullScan => {
                let request = QueryRequest::BySession(session.clone());
                let documents = self.documents_via(&request, path)?;
                for (sort, recorded) in self.decode_documents(documents)? {
                    if let PAssertion::Relationship(rel) = &recorded.assertion {
                        edges.push((
                            key_seq(sort.as_bytes())?,
                            EdgeRecord::from_relationship(rel),
                        ));
                    }
                }
            }
            other => {
                return Err(StoreError::InvalidRequest(format!(
                    "{} cannot serve lineage edges",
                    other.label()
                )))
            }
        }
        // Both keyspaces order by something else first; recording order is plain seq order.
        edges.sort_by_key(|(seq, _)| *seq);
        Ok(edges.into_iter().map(|(_, edge)| edge).collect())
    }

    /// The derivation edges of one `(session, effect)` pair, in recording order — the per-node
    /// lookup a backward lineage traversal performs. Without the adjacency index it filters
    /// the session's scanned edges.
    pub fn edges_for_effect(
        &self,
        session: &SessionId,
        effect: &DataId,
    ) -> Result<Vec<EdgeRecord>, StoreError> {
        let path = AccessPath::for_lineage(self.indexes_enabled());
        if path != AccessPath::EdgeIndex {
            let mut edges = self.session_edges(session, path)?;
            edges.retain(|edge| edge.effect.as_str() == effect.as_str());
            return Ok(edges);
        }
        let prefix = index::edge_effect_prefix(session.as_str(), effect.as_str());
        let mut edges = Vec::new();
        for (_, value) in self.backend.scan_prefix_values(&prefix)? {
            edges.push(EdgeRecord::from_stored(&value)?);
        }
        // One (session, effect) prefix orders by seq already.
        Ok(edges)
    }

    /// Serve one cursor-carrying page request through the store's own access path, in stored
    /// form.
    pub fn query_page(&self, paged: &PagedQuery) -> Result<ShardQueryPage, StoreError> {
        self.query_page_via(paged, self.access_path(&paged.request))
    }

    /// Serve one cursor-carrying page request through `path`, validating its bounds loudly: a
    /// page size of zero or beyond [`MAX_PAGE_SIZE`] is refused, never clamped or truncated.
    pub fn query_page_via(
        &self,
        paged: &PagedQuery,
        path: AccessPath,
    ) -> Result<ShardQueryPage, StoreError> {
        if paged.page_size == 0 || paged.page_size > MAX_PAGE_SIZE {
            return Err(StoreError::InvalidRequest(format!(
                "page size {} outside 1..={MAX_PAGE_SIZE}",
                paged.page_size
            )));
        }
        let after = paged.cursor.as_ref().map(|cursor| cursor.after.as_str());
        self.cursor(&paged.request, path, after, paged.page_size)
    }

    /// Current store statistics.
    pub fn statistics(&self) -> StoreStatistics {
        *self.stats.lock()
    }

    /// Answer a protocol-level query through the store's own access path.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, StoreError> {
        self.query_via(request, self.access_path(request))
    }

    /// Answer a protocol-level query through `path`, decoded. Listings, groups and statistics
    /// have a single path each; everything else is an assertion stream and goes to the cursor
    /// primitive, which refuses a path that cannot serve the request.
    pub fn query_via(
        &self,
        request: &QueryRequest,
        path: AccessPath,
    ) -> Result<QueryResponse, StoreError> {
        Ok(match (path, request) {
            (AccessPath::InteractionMarkers, QueryRequest::ListInteractions { limit }) => {
                QueryResponse::Interactions(self.list_interactions(*limit)?)
            }
            (AccessPath::GroupPrefix, QueryRequest::GroupsByKind(kind)) => {
                QueryResponse::Groups(self.groups_by_kind(kind)?)
            }
            (AccessPath::Counters, QueryRequest::Statistics) => {
                QueryResponse::Statistics(self.statistics())
            }
            _ => {
                let assertions = self.assertions_via(request, path)?;
                if assertions.is_empty() {
                    QueryResponse::Empty
                } else {
                    QueryResponse::Assertions(assertions)
                }
            }
        })
    }

    /// Force pending writes to stable storage.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.backend.sync()?;
        Ok(())
    }
}

/// The sequence number an assertion or index key ends with.
fn key_seq(key: &[u8]) -> Result<u64, StoreError> {
    key.rsplit(|&b| b == b'/')
        .next()
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| {
            StoreError::Corrupt(format!(
                "key without a sequence number: {}",
                String::from_utf8_lossy(key)
            ))
        })
}

/// Count one stored assertion into `stats`.
fn tally(stats: &mut StoreStatistics, assertion: &PAssertion) {
    match assertion {
        PAssertion::Interaction(_) => stats.interaction_passertions += 1,
        PAssertion::ActorState(_) => stats.actor_state_passertions += 1,
        PAssertion::Relationship(_) => stats.relationship_passertions += 1,
    }
    stats.content_bytes += assertion.content_len() as u64;
}

pub(crate) fn corrupt(e: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(e.to_string())
}

/// The stored form of a p-assertion document — with [`decode_document`], the only place in
/// the store that knows it: the packed layout of [`prepwire::encode_document`].
fn encode_document(recorded: &RecordedAssertion) -> Vec<u8> {
    prepwire::encode_document(recorded)
}

/// Decode the document stored under `sort_key`, which a corruption report names.
fn decode_document(sort_key: &str, value: &[u8]) -> Result<RecordedAssertion, StoreError> {
    prepwire::decode_document(value).map_err(|error| {
        CorruptDocument {
            sort_key: sort_key.to_string(),
            error,
        }
        .into()
    })
}

/// Whether `recorded` belongs to the answer of an assertion-producing request — the predicate
/// the scan applies to the full bulk retrieval, and the prefix paths to what their prefix
/// over-approximates.
fn request_matches(request: &QueryRequest, recorded: &RecordedAssertion) -> bool {
    match request {
        QueryRequest::ByInteraction(key) => recorded.assertion.interaction_key() == key,
        QueryRequest::BySession(session) => recorded.session.as_str() == session.as_str(),
        QueryRequest::ByActor(actor) => recorded.assertion.asserter().as_str() == actor.as_str(),
        QueryRequest::ByRelation(relation) => matches!(
            &recorded.assertion,
            PAssertion::Relationship(rel) if rel.relation == *relation
        ),
        QueryRequest::ActorStateByKind { interaction, kind } => matches!(
            &recorded.assertion,
            PAssertion::ActorState(state)
                if recorded.assertion.interaction_key() == interaction
                    && state.kind.label() == kind
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FileBackend, KvBackend, MemoryBackend};
    use pasoa_core::group::GroupKind;
    use pasoa_core::ids::{ActorId, DataId};
    use pasoa_core::passertion::{
        ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertionContent,
        RelationshipPAssertion, ViewKind,
    };

    fn interaction_assertion(session: &str, key: &str, op: &str) -> RecordedAssertion {
        RecordedAssertion {
            session: SessionId::new(session),
            assertion: PAssertion::Interaction(InteractionPAssertion {
                interaction_key: InteractionKey::new(key),
                asserter: ActorId::new("workflow-engine"),
                view: ViewKind::Sender,
                sender: ActorId::new("workflow-engine"),
                receiver: ActorId::new(op),
                operation: op.to_string(),
                content: PAssertionContent::text(format!("invoke {op}")),
                data_ids: vec![DataId::new(format!("data:{key}"))],
            }),
        }
    }

    fn script_assertion(session: &str, key: &str, script: &str) -> RecordedAssertion {
        RecordedAssertion {
            session: SessionId::new(session),
            assertion: PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: InteractionKey::new(key),
                asserter: ActorId::new("service"),
                view: ViewKind::Receiver,
                kind: ActorStateKind::Script,
                content: PAssertionContent::text(script),
            }),
        }
    }

    fn populate(store: &ProvenanceStore) {
        for i in 0..5 {
            let key = format!("interaction:{i}");
            store
                .record(&interaction_assertion("session:A", &key, "gzip"))
                .unwrap();
            store
                .record(&script_assertion("session:A", &key, "gzip -9"))
                .unwrap();
        }
        for i in 5..8 {
            let key = format!("interaction:{i}");
            store
                .record(&interaction_assertion("session:B", &key, "ppmz"))
                .unwrap();
        }
        let mut group = Group::new("session:A", GroupKind::Session);
        group.add(InteractionKey::new("interaction:0"));
        store.register_group(&group).unwrap();
    }

    #[test]
    fn record_and_query_by_interaction() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        populate(&store);
        let assertions = store
            .assertions_for_interaction(&InteractionKey::new("interaction:0"))
            .unwrap();
        assert_eq!(assertions.len(), 2);
        assert!(matches!(
            assertions[0].assertion,
            PAssertion::Interaction(_)
        ));
        assert!(matches!(assertions[1].assertion, PAssertion::ActorState(_)));
        assert!(store
            .assertions_for_interaction(&InteractionKey::new("interaction:99"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn query_by_session_and_list_interactions() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        populate(&store);
        let a = store
            .assertions_for_session(&SessionId::new("session:A"))
            .unwrap();
        assert_eq!(a.len(), 10);
        let b = store
            .assertions_for_session(&SessionId::new("session:B"))
            .unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(store.list_interactions(None).unwrap().len(), 8);
        assert_eq!(store.list_interactions(Some(3)).unwrap().len(), 3);
        assert!(store.has_session(&SessionId::new("session:B")).unwrap());
        assert!(!store.has_session(&SessionId::new("session:none")).unwrap());
    }

    #[test]
    fn actor_state_by_kind_filters() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        populate(&store);
        let by_kind = |kind: &str| {
            store
                .assertions(&QueryRequest::ActorStateByKind {
                    interaction: InteractionKey::new("interaction:1"),
                    kind: kind.to_string(),
                })
                .unwrap()
        };
        assert_eq!(by_kind("script").len(), 1);
        assert!(by_kind("workflow").is_empty());
    }

    #[test]
    fn groups_and_statistics() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        populate(&store);
        let groups = store.groups_by_kind("session").unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].id, "session:A");
        assert!(store.groups_by_kind("thread").unwrap().is_empty());
        let stats = store.statistics();
        assert_eq!(stats.interaction_passertions, 8);
        assert_eq!(stats.actor_state_passertions, 5);
        assert_eq!(stats.relationship_passertions, 0);
        assert_eq!(stats.interactions, 8);
        assert_eq!(stats.groups, 1);
        assert!(stats.content_bytes > 0);
        assert_eq!(stats.total_passertions(), 13);
    }

    #[test]
    fn relationship_assertions_are_counted() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        store
            .record(&RecordedAssertion {
                session: SessionId::new("session:A"),
                assertion: PAssertion::Relationship(RelationshipPAssertion {
                    interaction_key: InteractionKey::new("interaction:1"),
                    asserter: ActorId::new("gzip"),
                    effect: DataId::new("data:out"),
                    causes: vec![(InteractionKey::new("interaction:0"), DataId::new("data:in"))],
                    relation: "compressed-from".into(),
                }),
            })
            .unwrap();
        assert_eq!(store.statistics().relationship_passertions, 1);
    }

    #[test]
    fn query_api_covers_all_request_kinds() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        populate(&store);
        assert!(matches!(
            store
                .query(&QueryRequest::ByInteraction(InteractionKey::new(
                    "interaction:0"
                )))
                .unwrap(),
            QueryResponse::Assertions(_)
        ));
        assert!(matches!(
            store
                .query(&QueryRequest::ByInteraction(InteractionKey::new("nope")))
                .unwrap(),
            QueryResponse::Empty
        ));
        assert!(matches!(
            store
                .query(&QueryRequest::BySession(SessionId::new("session:A")))
                .unwrap(),
            QueryResponse::Assertions(_)
        ));
        assert!(matches!(
            store
                .query(&QueryRequest::ListInteractions { limit: None })
                .unwrap(),
            QueryResponse::Interactions(_)
        ));
        assert!(matches!(
            store
                .query(&QueryRequest::GroupsByKind("session".into()))
                .unwrap(),
            QueryResponse::Groups(_)
        ));
        assert!(matches!(
            store
                .query(&QueryRequest::ActorStateByKind {
                    interaction: InteractionKey::new("interaction:0"),
                    kind: "script".into()
                })
                .unwrap(),
            QueryResponse::Assertions(_)
        ));
        assert!(matches!(
            store.query(&QueryRequest::Statistics).unwrap(),
            QueryResponse::Statistics(_)
        ));
    }

    fn relationship_assertion(session: &str, key: &str, effect: &str) -> RecordedAssertion {
        RecordedAssertion {
            session: SessionId::new(session),
            assertion: PAssertion::Relationship(RelationshipPAssertion {
                interaction_key: InteractionKey::new(key),
                asserter: ActorId::new("gzip"),
                effect: DataId::new(effect),
                causes: vec![(
                    InteractionKey::new(key),
                    DataId::new(format!("{effect}:in")),
                )],
                relation: "compressed-from".into(),
            }),
        }
    }

    #[test]
    fn indexed_answers_match_scan_answers() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        populate(&store);
        store
            .record(&relationship_assertion(
                "session:A",
                "interaction:1",
                "data:out",
            ))
            .unwrap();
        let requests = vec![
            QueryRequest::BySession(SessionId::new("session:A")),
            QueryRequest::BySession(SessionId::new("session:none")),
            QueryRequest::ByInteraction(InteractionKey::new("interaction:1")),
            QueryRequest::ByActor(ActorId::new("workflow-engine")),
            QueryRequest::ByActor(ActorId::new("nobody")),
            QueryRequest::ByRelation("compressed-from".into()),
            QueryRequest::ActorStateByKind {
                interaction: InteractionKey::new("interaction:1"),
                kind: "script".into(),
            },
        ];
        for request in requests {
            let indexed = store.query(&request).unwrap();
            let scanned = store
                .assertions_via(&request, AccessPath::FullScan)
                .unwrap();
            match indexed {
                QueryResponse::Assertions(indexed) => assert_eq!(indexed, scanned, "{request:?}"),
                QueryResponse::Empty => assert!(scanned.is_empty(), "{request:?}"),
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn disabled_index_store_answers_identically() {
        let backend = Arc::new(MemoryBackend::new());
        let indexed =
            ProvenanceStore::open(Arc::clone(&backend) as Arc<dyn StorageBackend>).unwrap();
        populate(&indexed);
        assert!(indexed.indexes_enabled());
        let unindexed = ProvenanceStore::open_with_options(
            backend,
            StoreOptions {
                maintain_indexes: false,
            },
        )
        .unwrap();
        assert!(!unindexed.indexes_enabled());
        let session = SessionId::new("session:A");
        assert_eq!(
            indexed.assertions_for_session(&session).unwrap(),
            unindexed.assertions_for_session(&session).unwrap()
        );
        assert_eq!(
            indexed
                .session_edges(&session, AccessPath::EdgeIndex)
                .unwrap(),
            unindexed
                .session_edges(&session, AccessPath::FullScan)
                .unwrap()
        );
        // An index-less store refuses a forced index path instead of serving stale entries.
        assert!(matches!(
            unindexed.session_edges(&session, AccessPath::EdgeIndex),
            Err(StoreError::InvalidRequest(_))
        ));
        assert!(matches!(
            unindexed.assertions_via(
                &QueryRequest::BySession(session.clone()),
                AccessPath::SessionIndex
            ),
            Err(StoreError::InvalidRequest(_))
        ));
    }

    #[test]
    fn session_edges_come_from_the_adjacency_index_in_recording_order() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        // Two edges for the same effect across differently-sorted interactions, plus one
        // other effect: recording order must win over keyspace order.
        store
            .record(&relationship_assertion(
                "session:E",
                "interaction:z",
                "data:x",
            ))
            .unwrap();
        store
            .record(&relationship_assertion(
                "session:E",
                "interaction:a",
                "data:x",
            ))
            .unwrap();
        store
            .record(&relationship_assertion(
                "session:E",
                "interaction:m",
                "data:y",
            ))
            .unwrap();
        let via_index = store
            .session_edges(&SessionId::new("session:E"), AccessPath::EdgeIndex)
            .unwrap();
        let via_scan = store
            .session_edges(&SessionId::new("session:E"), AccessPath::FullScan)
            .unwrap();
        assert_eq!(via_index, via_scan);
        assert_eq!(via_index.len(), 3);
        assert_eq!(via_index[0].effect, DataId::new("data:x"));
        assert_eq!(via_index[2].effect, DataId::new("data:y"));
        let for_x = store
            .edges_for_effect(&SessionId::new("session:E"), &DataId::new("data:x"))
            .unwrap();
        assert_eq!(for_x.len(), 2);
    }

    #[test]
    fn pages_concatenate_to_the_full_answer() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        populate(&store);
        let request = QueryRequest::BySession(SessionId::new("session:A"));
        let full = store
            .assertions_for_session(&SessionId::new("session:A"))
            .unwrap();
        for page_size in [1usize, 3, 7, 100] {
            let mut collected = Vec::new();
            let mut after: Option<String> = None;
            loop {
                let page = store
                    .cursor(
                        &request,
                        AccessPath::SessionIndex,
                        after.as_deref(),
                        page_size,
                    )
                    .unwrap();
                assert!(page.items.len() <= page_size);
                after = page.items.last().map(|(sort, _)| sort.clone());
                let decoded = store.decode_documents(page.items).unwrap();
                collected.extend(decoded.into_iter().map(|(_, recorded)| recorded));
                if page.exhausted {
                    break;
                }
            }
            assert_eq!(collected, full, "page_size {page_size}");
        }
    }

    #[test]
    fn page_requests_outside_bounds_error_loudly() {
        let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
        populate(&store);
        let request = QueryRequest::BySession(SessionId::new("session:A"));
        for page_size in [0usize, MAX_PAGE_SIZE + 1] {
            let err = store
                .query_page(&PagedQuery {
                    request: request.clone(),
                    cursor: None,
                    page_size,
                })
                .unwrap_err();
            assert!(matches!(err, StoreError::InvalidRequest(_)), "{page_size}");
        }
        // Non-pageable requests are refused, not silently answered.
        assert!(matches!(
            store.query_page(&PagedQuery {
                request: QueryRequest::Statistics,
                cursor: None,
                page_size: 10,
            }),
            Err(StoreError::InvalidRequest(_))
        ));
    }

    #[test]
    fn writes_without_indexes_force_a_rebuild_on_the_next_indexed_open() {
        let dir = std::env::temp_dir().join(format!(
            "preserv-store-idx-rebuild-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = ProvenanceStore::open(Arc::new(KvBackend::open(&dir).unwrap())).unwrap();
            populate(&store);
            assert!(!store.index_report().rebuilt);
            store.sync().unwrap();
        }
        {
            // Record more with indexing off: the marker is downgraded, the index goes stale.
            let store = ProvenanceStore::open_with_options(
                Arc::new(KvBackend::open(&dir).unwrap()),
                StoreOptions {
                    maintain_indexes: false,
                },
            )
            .unwrap();
            store
                .record(&interaction_assertion(
                    "session:C",
                    "interaction:50",
                    "ppmz",
                ))
                .unwrap();
            store.sync().unwrap();
        }
        let store = ProvenanceStore::open(Arc::new(KvBackend::open(&dir).unwrap())).unwrap();
        let report = store.index_report();
        assert!(report.enabled && report.rebuilt);
        assert!(report.entries_rebuilt > 0);
        // The rebuilt index serves the assertion recorded while indexing was off.
        let found = store
            .assertions_via(
                &QueryRequest::BySession(SessionId::new("session:C")),
                AccessPath::SessionIndex,
            )
            .unwrap();
        assert_eq!(found.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistence_across_reopen_with_kv_backend() {
        let dir = std::env::temp_dir().join(format!("preserv-store-kv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = ProvenanceStore::open(Arc::new(KvBackend::open(&dir).unwrap())).unwrap();
            populate(&store);
            store.sync().unwrap();
        }
        let store = ProvenanceStore::open(Arc::new(KvBackend::open(&dir).unwrap())).unwrap();
        let stats = store.statistics();
        assert_eq!(stats.interactions, 8);
        assert_eq!(stats.total_passertions(), 13);
        assert_eq!(stats.groups, 1);
        // New records continue the sequence without colliding with existing ones.
        store
            .record(&interaction_assertion(
                "session:C",
                "interaction:100",
                "bzip2",
            ))
            .unwrap();
        assert_eq!(store.statistics().interactions, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistence_across_reopen_with_file_backend() {
        let dir = std::env::temp_dir().join(format!("preserv-store-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = ProvenanceStore::open(Arc::new(FileBackend::open(&dir).unwrap())).unwrap();
            store
                .record(&script_assertion("session:A", "interaction:0", "#!/bin/sh"))
                .unwrap();
        }
        let store = ProvenanceStore::open(Arc::new(FileBackend::open(&dir).unwrap())).unwrap();
        assert_eq!(store.statistics().actor_state_passertions, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A memory backend that dawdles after reading an interaction marker, so recorders
    /// released together have all performed their marker existence check before any of them
    /// commits — unless check and commit are one critical section.
    struct SlowMarkerReads(MemoryBackend);

    impl StorageBackend for SlowMarkerReads {
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), BackendError> {
            self.0.put(key, value)
        }
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BackendError> {
            let found = self.0.get(key);
            if key.starts_with(keys::INTERACTION_PREFIX.as_bytes()) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            found
        }
        fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, BackendError> {
            self.0.scan_prefix(prefix)
        }
        fn delete_many(&self, keys: &[Vec<u8>]) -> Result<(), BackendError> {
            self.0.delete_many(keys)
        }
        fn kind(&self) -> crate::backend::BackendKind {
            self.0.kind()
        }
    }

    /// A memory backend that counts the entries it is asked to write.
    #[derive(Default)]
    struct CountingPuts {
        inner: MemoryBackend,
        entries: AtomicU64,
    }

    impl StorageBackend for CountingPuts {
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), BackendError> {
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.inner.put(key, value)
        }
        fn put_many(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), BackendError> {
            self.entries
                .fetch_add(entries.len() as u64, Ordering::Relaxed);
            self.inner.put_many(entries)
        }
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BackendError> {
            self.inner.get(key)
        }
        fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, BackendError> {
            self.inner.scan_prefix(prefix)
        }
        fn delete_many(&self, keys: &[Vec<u8>]) -> Result<(), BackendError> {
            self.inner.delete_many(keys)
        }
        fn kind(&self) -> crate::backend::BackendKind {
            self.inner.kind()
        }
    }

    #[test]
    fn an_interaction_of_one_assertion_writes_three_entries() {
        let backend = Arc::new(CountingPuts::default());
        let store = ProvenanceStore::open(Arc::clone(&backend) as Arc<dyn StorageBackend>).unwrap();
        let opened = backend.entries.load(Ordering::Relaxed);
        let batch: Vec<RecordedAssertion> = (0..50)
            .map(|i| interaction_assertion("session:count", &format!("interaction:{i}"), "gzip"))
            .collect();
        store.record_all(&batch).unwrap();
        // The document, its interaction marker and its by-session entry.
        assert_eq!(
            backend.entries.load(Ordering::Relaxed) - opened,
            3 * batch.len() as u64
        );
        let keys = backend.scan_prefix(b"").unwrap();
        assert_eq!(keys.len(), 3 * batch.len() + 1, "plus the version marker");
        for key in keys {
            assert!(
                ["a/", "i/", "x/s/", "x/!v"]
                    .iter()
                    .any(|prefix| key.starts_with(prefix.as_bytes())),
                "unexpected key {}",
                String::from_utf8_lossy(&key)
            );
        }
    }

    #[test]
    fn concurrent_recorders_of_one_interaction_count_it_once() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 5;
        let backend: Arc<dyn StorageBackend> = Arc::new(SlowMarkerReads(MemoryBackend::new()));
        let store = Arc::new(ProvenanceStore::open(Arc::clone(&backend)).unwrap());
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (store, barrier) = (Arc::clone(&store), Arc::clone(&barrier));
                scope.spawn(move || {
                    // Sender, receiver and friends each document the same fresh interaction.
                    for round in 0..ROUNDS {
                        barrier.wait();
                        store
                            .record(&script_assertion(
                                "session:shared",
                                &format!("interaction:shared:{round}"),
                                &format!("view {t}"),
                            ))
                            .unwrap();
                    }
                });
            }
        });
        let listed = store.list_interactions(None).unwrap().len() as u64;
        assert_eq!(listed, ROUNDS as u64);
        assert_eq!(store.statistics().interactions, listed);
        assert_eq!(
            store.statistics().actor_state_passertions,
            (THREADS * ROUNDS) as u64
        );
        let reopened = ProvenanceStore::open(backend).unwrap();
        assert_eq!(reopened.statistics().interactions, listed);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let store = Arc::new(ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let key = format!("interaction:t{t}:{i}");
                    store
                        .record(&interaction_assertion("session:mt", &key, "measure"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = store.statistics();
        assert_eq!(stats.interaction_passertions, 400);
        assert_eq!(stats.interactions, 400);
        assert_eq!(
            store
                .assertions_for_session(&SessionId::new("session:mt"))
                .unwrap()
                .len(),
            400
        );
    }
}
