//! The shard router: one wire-level endpoint in front of N `PreservService` shards.
//!
//! The router registers on the [`ServiceHost`] under the provenance store's well-known name,
//! so every existing recorder and reasoner talks to the cluster without change. It routes by
//! consistent hashing on the *session* id — a workflow run's p-assertions stay co-located on
//! one shard, which keeps lineage locally traceable — and it turns the record path into a
//! batched pipeline: incoming assertions buffer per shard and flush as bulk `Record` messages,
//! which the shard store commits through the backend's group-commit path (`put_many` /
//! `WriteBatch`). Queries first flush every buffer (read-your-writes), then scatter-gather
//! across all shards and merge, producing answers identical to a single store's.
//!
//! # The shard link
//!
//! Every message to a shard — a flushed batch, a group registration, a query — leaves
//! through one function (`call_shard`) over the link the router was built with (the private
//! `link` module): a direct hand-over to the shard's plug-in dispatcher when router and
//! shards share a process, or envelopes built by the [`pasoa_core::prepwire`] translator to
//! the shard's proxy when they do not. A flush is one or more `Record` messages sent in one
//! exchange and classified once: if the shard is down everything is restored for the
//! promoted owner, otherwise only what failed is, and replica holds are appended strictly
//! after the ack.
//!
//! # Replication and failover
//!
//! With [`RouterConfig::replication`] R > 1 the router is synchronously replicated: every
//! flushed batch commits on the session's primary shard and is then copied into the replica
//! holds of the primary's first R−1 live ring successors before the flush is acked, so an
//! acked flush holds min(R, live shards) copies. Replication is best-effort under
//! degradation: with fewer than R live shards the ack carries fewer copies (down to the
//! primary's alone) rather than failing the flush — the tier tolerates any *single* shard
//! loss as long as two shards were live when the batch was acked. Replica holds are shadow
//! copies invisible to queries,
//! so scatter-gather still sees each p-assertion exactly once. When a shard becomes
//! unreachable (killed through the wire layer's [`pasoa_wire::FaultInjector`], as a crashed
//! host would be), the router detects it on the next touch, marks it dead, and *promotes*: the
//! first live ring successor replays its replica hold for the dead primary into its own store,
//! affected sessions are re-pinned there, the dead shard's buffered work is redistributed, and
//! scatter-gather queries skip the dead shard — so answers remain identical to a fault-free
//! run, with zero acked p-assertions lost.

use std::collections::{BTreeMap, HashMap};

use parking_lot::{Mutex, RwLock};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pasoa_core::ids::{IdGenerator, MessageId};
use pasoa_core::passertion::RecordedAssertion;
use pasoa_core::prep::{
    PageCursor, PagedQuery, PrepMessage, QueryPage, QueryRequest, QueryResponse, RecordAck,
    ShardQueryPage, StoreStatistics, MAX_PAGE_SIZE,
};
use pasoa_core::prepwire;
use pasoa_core::Group;
use pasoa_obs::{Counter, Histogram, Registry, StatsSnapshot, TraceCtx};
use pasoa_preserv::plugins::PluginResponse;
use pasoa_preserv::{LineageGraph, PreservService, ProvenanceStore};
use pasoa_wire::{
    Envelope, FaultInjector, MessageHandler, ServiceHost, TransportConfig, WireError, WireResult,
};

use crate::link::ShardLink;
use crate::merge;
use crate::ring::HashRing;

/// How the router reaches its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InternalHop {
    /// Hand decoded PReP messages straight to the shard's plug-in dispatcher. The router and
    /// its shards share a process, so re-encoding the already-decoded client message would
    /// simply double the serialization cost of every p-assertion.
    #[default]
    Direct,
    /// Ship every internal message as an envelope to the shard's registered name — the hop of
    /// a router deployed on a separate host from its shards, whose proxies on the router's
    /// host carry the envelope over a socket (and pay, and account, the real serialization).
    Wire,
}

/// Default for [`RouterConfig::max_response_assertions`]: large enough for any interactive
/// answer, small enough that a runaway result set fails loudly instead of materializing an
/// unbounded wire message.
pub const DEFAULT_MAX_RESPONSE_ASSERTIONS: usize = 100_000;

/// Response header on a `record` ack naming how many shard flushes the call triggered.
/// Absent when the call merely buffered. A flushing call pays the whole batch's send inside
/// its own round trip, so latency measurements use this to separate batch amortization from
/// the per-call wire cost (otherwise p99 reports the shared flush wait, not the wire).
pub const FLUSHES_HEADER: &str = "router-flushes";

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-shard buffer threshold: reaching it flushes that shard's buffer as one batched
    /// `Record` message.
    pub batch_size: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub virtual_nodes: usize,
    /// How internal shard calls travel.
    pub internal_hop: InternalHop,
    /// Total copies of every flushed batch: the primary plus `replication - 1` replica holds.
    /// 1 (the default) disables replication; the cluster then tolerates no shard loss.
    pub replication: usize,
    /// Ceiling on the p-assertions a single (unpaginated) query response may carry. A merged
    /// answer above this errors loudly, naming the paginated path, rather than silently
    /// truncating or shipping an unbounded message.
    pub max_response_assertions: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            batch_size: 64,
            virtual_nodes: 64,
            internal_hop: InternalHop::Direct,
            replication: 1,
            max_response_assertions: DEFAULT_MAX_RESPONSE_ASSERTIONS,
        }
    }
}

/// Point-in-time copy of the router's counters, read from its `router.*` instruments (all
/// zero when the host's registry is disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// `Record` messages received from clients.
    pub record_messages: u64,
    /// Individual p-assertions routed to shard buffers.
    pub assertions_routed: u64,
    /// Batched `Record` messages sent to shards.
    pub batches_flushed: u64,
    /// Batches that were additionally copied into at least one replica hold.
    pub batches_replicated: u64,
    /// Group registrations routed.
    pub groups_routed: u64,
    /// Queries answered by scatter-gather.
    pub scatter_queries: u64,
    /// Bounded pages served by the paginated scatter-gather.
    pub page_queries: u64,
    /// Shards added after initial deployment.
    pub rebalances: u64,
    /// Shards marked dead after being detected unreachable.
    pub failovers: u64,
    /// Sessions replayed from a replica hold onto their promoted owner.
    pub sessions_promoted: u64,
}

/// The router's instruments, resolved once so the record path never looks one up by name.
/// They live in a [`pasoa_obs::Registry::child`] of the host registry, so `stats-snapshot`
/// answers aggregate the router's behaviour alongside every other instrument on the host.
struct RouterObs {
    registry: Registry,
    record_messages: Counter,
    assertions_routed: Counter,
    batches_flushed: Counter,
    batches_replicated: Counter,
    groups_routed: Counter,
    scatter_queries: Counter,
    page_queries: Counter,
    rebalances: Counter,
    failovers: Counter,
    sessions_promoted: Counter,
    flush_batch_size: Histogram,
    failed_send_restores: Counter,
    merge_skips: Counter,
}

impl RouterObs {
    fn new(registry: Registry) -> Self {
        RouterObs {
            record_messages: registry.counter("router.record_messages"),
            assertions_routed: registry.counter("router.assertions_routed"),
            batches_flushed: registry.counter("router.flush.batches"),
            batches_replicated: registry.counter("router.flush.replicated_batches"),
            groups_routed: registry.counter("router.groups_routed"),
            scatter_queries: registry.counter("router.scatter_queries"),
            page_queries: registry.counter("router.page_queries"),
            rebalances: registry.counter("router.rebalances"),
            failovers: registry.counter("router.failovers"),
            sessions_promoted: registry.counter("router.sessions_promoted"),
            flush_batch_size: registry.histogram("router.flush.batch_size"),
            failed_send_restores: registry.counter("router.flush.failed_send_restores"),
            merge_skips: registry.counter("router.flush.merge_skips"),
            registry,
        }
    }
}

/// A flush that could not deliver every buffered batch. Carries the distinct session ids whose
/// p-assertions were affected, so callers can retry selectively instead of replaying an entire
/// workload.
#[derive(Debug)]
pub struct FlushError {
    /// Distinct sessions (sorted) whose assertions were in the failed batch.
    pub failed_sessions: Vec<String>,
    /// The underlying wire failure.
    pub error: WireError,
}

impl std::fmt::Display for FlushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flush failed for {} session(s) [{}]: {}",
            self.failed_sessions.len(),
            self.failed_sessions.join(", "),
            self.error
        )
    }
}

impl std::error::Error for FlushError {}

impl From<FlushError> for WireError {
    fn from(e: FlushError) -> Self {
        WireError::Payload(e.to_string())
    }
}

fn distinct_sessions<'a>(batch: impl IntoIterator<Item = &'a RecordedAssertion>) -> Vec<String> {
    let mut sessions: Vec<String> = batch
        .into_iter()
        .map(|r| r.session.as_str().to_string())
        .collect();
    sessions.sort();
    sessions.dedup();
    sessions
}

/// A shard's shadow copy of batches for which it is a replica. Hold contents are invisible to
/// queries — each p-assertion is served by exactly one primary — and are replayed into the
/// holder's own store when it is promoted after its primary dies.
#[derive(Default)]
struct ReplicaHold {
    /// session id → (primary shard at write time, assertions in commit order).
    sessions: Mutex<BTreeMap<String, (usize, Vec<RecordedAssertion>)>>,
    /// (primary shard at write time, group), in registration order.
    groups: Mutex<Vec<(usize, Group)>>,
}

impl ReplicaHold {
    /// Append a committed batch for `primary`.
    fn append_assertions(&self, primary: usize, batch: &[RecordedAssertion]) {
        let mut sessions = self.sessions.lock();
        for recorded in batch {
            let entry = sessions
                .entry(recorded.session.as_str().to_string())
                .or_insert_with(|| (primary, Vec::new()));
            entry.0 = primary;
            entry.1.push(recorded.clone());
        }
    }

    /// Record a group registered on `primary`.
    fn append_group(&self, primary: usize, group: &Group) {
        self.groups.lock().push((primary, group.clone()));
    }

    /// Remove and return everything held on behalf of `primary`, sessions in id order.
    fn take_for_primary(
        &self,
        primary: usize,
    ) -> (Vec<(String, Vec<RecordedAssertion>)>, Vec<Group>) {
        let mut sessions = self.sessions.lock();
        let promoted: Vec<String> = sessions
            .iter()
            .filter(|(_, (p, _))| *p == primary)
            .map(|(session, _)| session.clone())
            .collect();
        let taken = promoted
            .into_iter()
            .map(|session| {
                let (_, assertions) = sessions.remove(&session).expect("key just listed");
                (session, assertions)
            })
            .collect();
        let mut groups = self.groups.lock();
        let mut taken_groups = Vec::new();
        groups.retain(|(p, group)| {
            if *p == primary {
                taken_groups.push(group.clone());
                false
            } else {
                true
            }
        });
        (taken, taken_groups)
    }

    /// Insert a session's complete assertion history for `primary`, replacing any existing
    /// entry. Used to put a copy back after a failed promotion replay, and to re-seed a hold
    /// when a rebalance moves the replica placement.
    fn restore(&self, primary: usize, session: String, assertions: Vec<RecordedAssertion>) {
        self.sessions.lock().insert(session, (primary, assertions));
    }

    /// Append a group copy for `primary` (failed-replay restore or rebalance re-seeding).
    fn restore_group(&self, primary: usize, group: Group) {
        self.groups.lock().push((primary, group));
    }

    /// Observable summary of the hold's contents (sessions in id order).
    fn snapshot(&self) -> (Vec<HeldSession>, Vec<(usize, String)>) {
        let sessions = self
            .sessions
            .lock()
            .iter()
            .map(|(session, (primary, assertions))| HeldSession {
                primary: *primary,
                session: session.clone(),
                assertions: assertions.len(),
            })
            .collect();
        let groups = self
            .groups
            .lock()
            .iter()
            .map(|(primary, group)| (*primary, group.id.clone()))
            .collect();
        (sessions, groups)
    }
}

/// One session's shadow copy inside a shard's replica hold, as reported by
/// [`ShardRouter::hold_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldSession {
    /// The shard that was the session's primary when the copy was appended.
    pub primary: usize,
    /// The session id.
    pub session: String,
    /// Number of held assertion copies.
    pub assertions: usize,
}

/// Observable state of one shard's replica hold — what the simulation harness audits for
/// stranded or duplicated copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoldSnapshot {
    /// Shard index holding these copies.
    pub shard: usize,
    /// Whether the holding shard is still serving.
    pub alive: bool,
    /// Held session copies, in session-id order.
    pub sessions: Vec<HeldSession>,
    /// Held group registrations as `(primary, group id)`, in registration order.
    pub groups: Vec<(usize, String)>,
}

struct ShardHandle {
    name: String,
    service: Arc<PreservService>,
    /// Shadow copies of batches this shard replicates for other primaries.
    hold: Arc<ReplicaHold>,
    /// Cleared when the shard is detected unreachable; a dead shard never serves again
    /// (rejoining is an `add_shard`, not a revival).
    alive: AtomicBool,
}

struct Placement {
    ring: HashRing,
    /// Ring snapshots taken before each rebalance, oldest first (one per `add_shard`).
    historical_rings: Vec<HashRing>,
    shards: Vec<ShardHandle>,
    /// Memoized placements that differ from the pure ring function: sessions kept sticky
    /// across a rebalance, sessions promoted to a replica after their primary died, and
    /// sessions whose ring owner was already dead when first routed.
    pinned: HashMap<String, usize>,
}

/// The shard router. Register it on a host via [`ShardRouter::register`].
pub struct ShardRouter {
    /// The host the shards are registered on; its fault injector is what failure detection
    /// scans.
    host: ServiceHost,
    link: ShardLink,
    config: RouterConfig,
    placement: RwLock<Placement>,
    /// Per-shard buffers of assertions awaiting a batched flush. Each shard's mutex is held
    /// only to append or drain — never across a wire send — so concurrent clients keep
    /// buffering into a shard while its previous batch is in flight.
    buffers: RwLock<Vec<Arc<Mutex<Vec<RecordedAssertion>>>>>,
    /// Per-shard send serialisation. A flush drains the buffer and sends while holding only
    /// this mutex, so batches destined for one shard still commit in buffer order — without
    /// stalling appends (or flushes of *different* shards) for the send's round trip. Lock
    /// order where both are taken: failover, then flusher, then buffer.
    flushers: RwLock<Vec<Arc<Mutex<()>>>>,
    /// Serializes failure handling (exclusive) against in-flight replicated sends (shared):
    /// one dead shard is promoted exactly once, and never in the window between a batch's
    /// primary commit and its replica-hold append — a promotion interleaving there would take
    /// the hold before the copy lands, stranding an acked batch on the dead shard's store.
    failover: RwLock<()>,
    /// Last fault-injector epoch whose kills have been fully handled; while the injector's
    /// epoch equals this, failure scans are skipped entirely (one atomic load per message).
    handled_fault_epoch: std::sync::atomic::AtomicU64,
    /// Dead shards whose promotion replay failed (target store error); their hold copies are
    /// preserved and `flush` retries the replay until it succeeds.
    pending_replays: Mutex<std::collections::BTreeSet<usize>>,
    ids: IdGenerator,
    obs: RouterObs,
}

impl ShardRouter {
    /// Create a router in front of `(service name, service)` shard pairs, which must be (or
    /// become) registered under those names on `host` for the [`InternalHop::Wire`] mode.
    pub fn new(
        host: &ServiceHost,
        shards: Vec<(String, Arc<PreservService>)>,
        config: RouterConfig,
    ) -> Self {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        let ring = HashRing::with_shards(shards.len(), config.virtual_nodes);
        let buffers = (0..shards.len())
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        let flushers = (0..shards.len())
            .map(|_| Arc::new(Mutex::new(())))
            .collect();
        let shards = shards
            .into_iter()
            .map(|(name, service)| ShardHandle {
                name,
                service,
                hold: Arc::new(ReplicaHold::default()),
                alive: AtomicBool::new(true),
            })
            .collect();
        ShardRouter {
            host: host.clone(),
            link: match config.internal_hop {
                InternalHop::Direct => ShardLink::Local,
                InternalHop::Wire => {
                    ShardLink::Remote(host.transport(TransportConfig::passthrough()))
                }
            },
            config,
            placement: RwLock::new(Placement {
                ring,
                historical_rings: Vec::new(),
                shards,
                pinned: HashMap::new(),
            }),
            buffers: RwLock::new(buffers),
            flushers: RwLock::new(flushers),
            failover: RwLock::new(()),
            handled_fault_epoch: std::sync::atomic::AtomicU64::new(0),
            pending_replays: Mutex::new(std::collections::BTreeSet::new()),
            ids: IdGenerator::new("shard-router"),
            obs: RouterObs::new(host.registry().child()),
        }
    }

    /// Register this router on `host` under `service_name` (typically
    /// [`pasoa_core::PROVENANCE_STORE_SERVICE`]). Returns the name used.
    pub fn register(self: &Arc<Self>, host: &ServiceHost, service_name: &str) -> String {
        host.register(service_name, Arc::clone(self) as Arc<dyn MessageHandler>);
        service_name.to_string()
    }

    /// Current shard service names, in shard-index order.
    pub fn shard_names(&self) -> Vec<String> {
        self.placement
            .read()
            .shards
            .iter()
            .map(|shard| shard.name.clone())
            .collect()
    }

    /// Router counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            record_messages: self.obs.record_messages.get(),
            assertions_routed: self.obs.assertions_routed.get(),
            batches_flushed: self.obs.batches_flushed.get(),
            batches_replicated: self.obs.batches_replicated.get(),
            groups_routed: self.obs.groups_routed.get(),
            scatter_queries: self.obs.scatter_queries.get(),
            page_queries: self.obs.page_queries.get(),
            rebalances: self.obs.rebalances.get(),
            failovers: self.obs.failovers.get(),
            sessions_promoted: self.obs.sessions_promoted.get(),
        }
    }

    /// The registry the router's instruments (`router.*`) and trace events write into — a
    /// child of the deployment host's registry.
    pub fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// The router's own observability snapshot, as served for `stats-snapshot` requests.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            service: "shard-router".to_string(),
            registry: self.obs.registry.snapshot(),
        }
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.config.replication.max(1)
    }

    /// Whether `shard` is still serving (not detected dead).
    pub fn is_alive(&self, shard: usize) -> bool {
        self.placement.read().shards[shard]
            .alive
            .load(Ordering::SeqCst)
    }

    /// Indices of live shards, ascending.
    pub fn live_shards(&self) -> Vec<usize> {
        self.placement
            .read()
            .shards
            .iter()
            .enumerate()
            .filter(|(_, handle)| handle.alive.load(Ordering::SeqCst))
            .map(|(index, _)| index)
            .collect()
    }

    /// Store handles of live shards, in shard-index order — what scatter-gather reads.
    pub fn live_stores(&self) -> Vec<Arc<ProvenanceStore>> {
        self.placement
            .read()
            .shards
            .iter()
            .filter(|handle| handle.alive.load(Ordering::SeqCst))
            .map(|handle| handle.service.store())
            .collect()
    }

    fn injector(&self) -> FaultInjector {
        self.host.fault_injector()
    }

    /// Observable replica-hold state of every shard (dead shards included, flagged), in shard
    /// index order. This is a diagnostic surface for invariant checkers — notably the
    /// simulation harness, which asserts that no hold strands a dead primary's acked data and
    /// that no `(primary, session)` copy is duplicated beyond the replication factor.
    pub fn hold_snapshot(&self) -> Vec<HoldSnapshot> {
        let placement = self.placement.read();
        placement
            .shards
            .iter()
            .enumerate()
            .map(|(shard, handle)| {
                let (sessions, groups) = handle.hold.snapshot();
                HoldSnapshot {
                    shard,
                    alive: handle.alive.load(Ordering::SeqCst),
                    sessions,
                    groups,
                }
            })
            .collect()
    }

    /// The current ring's successor order for `shard` (see
    /// [`HashRing::successors_of_shard`]) — the replica-placement and promotion order.
    pub fn ring_successors(&self, shard: usize) -> Vec<usize> {
        self.placement.read().ring.successors_of_shard(shard)
    }

    /// Dead shards whose promotion replay has not yet landed (retried on every flush),
    /// ascending. Empty whenever the tier holds no stranded acked data.
    pub fn pending_replay_shards(&self) -> Vec<usize> {
        self.pending_replays.lock().iter().copied().collect()
    }

    /// Add a shard service to the ring. Only *future* sessions can map to it; sessions that
    /// already hold documentation on their pre-rebalance shard stay there (see
    /// [`Self::shard_for_session`]), so lineage never splits.
    pub fn add_shard(
        &self,
        name: impl Into<String>,
        service: Arc<PreservService>,
    ) -> WireResult<usize> {
        // Flush first so existing sessions' buffered documentation is visible to the
        // data-presence check that keeps them sticky after the ring changes.
        self.flush().map_err(WireError::from)?;
        // Exclusive failover lock: no replicated send may be mid-flight (commit done, hold
        // append pending) while the holds are migrated below, and no promotion may interleave
        // with the ring change.
        let _failover = self.failover.write();
        // Grow the buffer table before the ring so no routing decision can ever index past it.
        self.buffers.write().push(Arc::new(Mutex::new(Vec::new())));
        self.flushers.write().push(Arc::new(Mutex::new(())));
        let mut placement = self.placement.write();
        let old_ring = placement.ring.clone();
        placement.historical_rings.push(old_ring.clone());
        let index = placement.ring.add_shard();
        placement.shards.push(ShardHandle {
            name: name.into(),
            service,
            hold: Arc::new(ReplicaHold::default()),
            alive: AtomicBool::new(true),
        });
        // Re-home replica holds to the changed ring. The placement rule is "first R−1 live
        // successors of the primary", and failover replays only the *current* ring's first
        // live successor's hold — so every primary's held history must move to where the new
        // rule expects it, or a post-rebalance kill would find an empty hold and silently
        // lose flushed, replicated p-assertions. The old ring's first live successor holds
        // the complete copy (the invariant this migration maintains across rebalances): take
        // it, discard the now-misplaced partial copies, and re-seed the new successors. The
        // placement write lock is held throughout, so no flush, query or failover can observe
        // a half-migrated hold.
        let replication = self.replication();
        if replication > 1 {
            let alive: Vec<bool> = placement
                .shards
                .iter()
                .map(|handle| handle.alive.load(Ordering::SeqCst))
                .collect();
            for primary in 0..old_ring.shard_count() {
                if !alive[primary] {
                    continue; // a dead primary's hold entries await a failover-replay retry
                }
                let Some(source) = old_ring
                    .successors_of_shard(primary)
                    .into_iter()
                    .find(|&s| alive[s])
                else {
                    continue;
                };
                let (sessions, groups) = placement.shards[source].hold.take_for_primary(primary);
                for (other, shard) in placement.shards.iter().enumerate() {
                    if other != source {
                        let _ = shard.hold.take_for_primary(primary);
                    }
                }
                if sessions.is_empty() && groups.is_empty() {
                    continue;
                }
                let targets: Vec<usize> = placement
                    .ring
                    .successors_of_shard(primary)
                    .into_iter()
                    .filter(|&s| alive[s])
                    .take(replication - 1)
                    .collect();
                for &target in &targets {
                    let hold = &placement.shards[target].hold;
                    for (session, assertions) in &sessions {
                        hold.restore(primary, session.clone(), assertions.clone());
                    }
                    for group in &groups {
                        hold.restore_group(primary, group.clone());
                    }
                }
            }
        }
        drop(placement);
        self.obs.rebalances.inc();
        Ok(index)
    }

    /// The shard index that owns `session` as its primary.
    ///
    /// Before any rebalance or failure this is a pure function of the ring — no per-session
    /// state, no write lock. Pinned entries (rebalance stickiness, failover promotions, and
    /// sessions first routed while their ring owner was dead) take precedence. After a
    /// rebalance, a session whose mapping changed but which already holds documentation on its
    /// old shard stays pinned there; every post-rebalance resolution is memoized (the
    /// data-presence probe scans shard state, far too costly to repeat per assertion).
    pub fn shard_for_session(&self, session: &str) -> usize {
        let (current, candidates) = {
            let placement = self.placement.read();
            let alive = |shard: usize| placement.shards[shard].alive.load(Ordering::SeqCst);
            // A pin whose shard has since died is stale (promotion re-pins only sessions it
            // found in a replica hold; a session with merely buffered data has none): fall
            // through and re-resolve onto a live shard, which re-pins below.
            if let Some(&pinned) = placement.pinned.get(session) {
                if alive(pinned) {
                    return pinned;
                }
            }
            let owner = placement.ring.shard_for(session);
            let current = if alive(owner) {
                // No rebalance has happened: the live ring owner is the answer, and it stays
                // a pure function of the ring — no memoization.
                if placement.historical_rings.is_empty() {
                    return owner;
                }
                owner
            } else {
                // Dead ring owner: the session goes where its data would have been promoted —
                // the first live ring successor of the dead shard. With no live shard left at
                // all, fall back to the dead owner (unpinned) so callers surface the outage as
                // an error instead of a panic.
                match placement
                    .ring
                    .successors_of_shard(owner)
                    .into_iter()
                    .find(|&s| alive(s))
                {
                    Some(successor) => successor,
                    None => return owner,
                }
            };
            // Live shards older rings mapped this session to, oldest first.
            let mut candidates: Vec<usize> = Vec::new();
            for ring in &placement.historical_rings {
                let historical = ring.shard_for(session);
                if historical != current && alive(historical) && !candidates.contains(&historical) {
                    candidates.push(historical);
                }
            }
            (current, candidates)
        };
        // Probed outside the placement lock: the presence probe takes buffer and store
        // locks, which must never nest inside placement (flush paths take them the other
        // way around).
        let owner = candidates
            .into_iter()
            .find(|&owner| self.shard_has_session_data(owner, session))
            .unwrap_or(current);
        self.placement
            .write()
            .pinned
            .insert(session.to_string(), owner);
        owner
    }

    /// Whether `shard` already holds (stored or buffered) documentation for `session` —
    /// p-assertions, or a group registered under the session's id. Group registrations must
    /// count: a session documented *only* by its group (registered, nothing recorded yet)
    /// would otherwise turn invisible to the stickiness probe, and re-registering the same
    /// group after a rebalance would land on the new ring owner — leaving the group duplicated
    /// across two shards where a single store would have replaced it in place. (Found by
    /// pasoa-sim seed 5, minimized to `register-group; add-shard; register-group`.)
    fn shard_has_session_data(&self, shard: usize, session: &str) -> bool {
        // Hold the shard's flusher across both checks: a batch drained for an in-flight send
        // is in neither the buffer nor the store until the send completes (or is restored),
        // and the probe must not pass through that window and miss the session.
        let flusher = Arc::clone(&self.flushers.read()[shard]);
        let _send = flusher.lock();
        {
            let buffer = Arc::clone(&self.buffers.read()[shard]);
            let guard = buffer.lock();
            if guard.iter().any(|r| r.session.as_str() == session) {
                return true;
            }
        }
        let store = self.shard_service(shard).store();
        match store
            .interactions_in_session(&pasoa_core::ids::SessionId::new(session))
            .map(|interactions| !interactions.is_empty())
        {
            Ok(true) => true,
            Ok(false) => store.has_group_id(session).unwrap_or(true),
            // Conservative on probe failure: keeping the old owner can never split a session.
            Err(_) => true,
        }
    }

    fn shard_service(&self, shard: usize) -> Arc<PreservService> {
        Arc::clone(&self.placement.read().shards[shard].service)
    }

    fn shard_count(&self) -> usize {
        self.placement.read().shards.len()
    }

    /// The replica placement rule — the single definition of it: batches whose primary is
    /// `shard` are copied to its first `count` live ring successors. Returns the successors'
    /// replica holds from one placement snapshot; fewer than `count` when the cluster is too
    /// small or too degraded.
    fn replica_holds(&self, shard: usize, count: usize) -> Vec<Arc<ReplicaHold>> {
        if count == 0 {
            return Vec::new();
        }
        let placement = self.placement.read();
        placement
            .ring
            .successors_of_shard(shard)
            .into_iter()
            .filter(|&s| placement.shards[s].alive.load(Ordering::SeqCst))
            .take(count)
            .map(|s| Arc::clone(&placement.shards[s].hold))
            .collect()
    }

    /// Detect and handle any shard the fault injector has downed since the last check. While
    /// the injector's epoch is unchanged from the last fully-handled scan, this is a single
    /// atomic load — a long-dead shard does not tax every subsequent message.
    fn maybe_handle_failures(&self) {
        let injector = self.injector();
        let epoch = injector.epoch();
        if epoch == self.handled_fault_epoch.load(Ordering::SeqCst) {
            return;
        }
        let suspects: Vec<usize> = {
            let placement = self.placement.read();
            placement
                .shards
                .iter()
                .enumerate()
                .filter(|(_, handle)| {
                    handle.alive.load(Ordering::SeqCst) && injector.is_down(&handle.name)
                })
                .map(|(index, _)| index)
                .collect()
        };
        for shard in suspects {
            self.handle_shard_failure(shard);
        }
        // Kills observed up to `epoch` are handled; a kill landing mid-scan bumps the epoch
        // past this value, so the next call rescans rather than missing it.
        self.handled_fault_epoch.store(epoch, Ordering::SeqCst);
    }

    /// Mark `dead` as failed, promote its replica holder, re-pin the affected sessions and
    /// redistribute its buffered work. Idempotent; serialized by the failover lock.
    fn handle_shard_failure(&self, dead: usize) {
        let _failover = self.failover.write();
        {
            let placement = self.placement.read();
            let handle = &placement.shards[dead];
            if !handle.alive.swap(false, Ordering::SeqCst) {
                return; // another caller already handled this shard
            }
        }
        self.obs.failovers.inc();

        let stranded = self.replay_holds_for(dead);
        if !stranded.is_empty() {
            // The copies are preserved in the hold; `flush` retries the replay (and fails
            // loudly, naming these sessions) until it succeeds, so the acked data is never
            // silently absent from query answers.
            self.pending_replays.lock().insert(dead);
        }

        // Buffered (acked but unflushed) work addressed to the dead shard re-routes to the
        // promoted owners; the next flush delivers it after the replayed history.
        self.redistribute_buffer(dead);
    }

    /// Replay the replica-held history of dead shard `dead` into its promotion target (the
    /// current ring's first live successor) and pin the replayed ids there. Returns the ids
    /// whose replay failed — their copies stay in the hold for a retry. Callers must hold the
    /// failover write lock.
    fn replay_holds_for(&self, dead: usize) -> Vec<String> {
        // Promotion target: the first live ring successor — by construction the first shard
        // every replicated batch of `dead` was copied to.
        let target = {
            let placement = self.placement.read();
            placement
                .ring
                .successors_of_shard(dead)
                .into_iter()
                .find(|&s| placement.shards[s].alive.load(Ordering::SeqCst))
        };
        let mut stranded = Vec::new();
        if let Some(target) = target {
            let hold = {
                let placement = self.placement.read();
                Arc::clone(&placement.shards[target].hold)
            };
            let (sessions, groups) = hold.take_for_primary(dead);
            let store = self.shard_service(target).store();
            let mut pins: Vec<String> = Vec::new();
            let mut promoted = 0u64;
            for (session, assertions) in sessions {
                match store.record_all(&assertions) {
                    Ok(_) => {
                        promoted += 1;
                        pins.push(session);
                    }
                    Err(_) => {
                        // Keep the copy so the flush-time retry can replay it.
                        stranded.push(session.clone());
                        hold.restore(dead, session, assertions);
                    }
                }
            }
            for group in groups {
                match store.register_group(&group) {
                    Ok(()) => pins.push(group.id.clone()),
                    // Keep the copy so the flush-time retry can replay it, same as the
                    // assertion branch above — an acked registration is never dropped.
                    Err(_) => {
                        stranded.push(group.id.clone());
                        hold.restore_group(dead, group);
                    }
                }
            }
            {
                let mut placement = self.placement.write();
                for id in pins {
                    placement.pinned.insert(id, target);
                }
            }
            self.obs.sessions_promoted.add(promoted);
            if stranded.is_empty() {
                // Fully replayed: discard the redundant copies other successors still hold
                // for this primary (R ≥ 3), or they leak for the process lifetime. While any
                // replay is stranded they are kept — if the target dies before the retry
                // lands, the retry's new target is one of these holders.
                let placement = self.placement.read();
                for (index, shard) in placement.shards.iter().enumerate() {
                    if index != target {
                        let _ = shard.hold.take_for_primary(dead);
                    }
                }
            }
        }
        stranded
    }

    /// Retry promotion replays that failed (e.g. the target's backend errored mid-replay).
    /// Succeeding clears the debt; failing again reports the still-stranded ids so callers —
    /// every query flushes first — error instead of silently answering without acked data.
    fn retry_stranded_replays(&self) -> Result<(), FlushError> {
        let pending: Vec<usize> = self.pending_replays.lock().iter().copied().collect();
        if pending.is_empty() {
            return Ok(());
        }
        let mut still_stranded = Vec::new();
        for dead in pending {
            let _failover = self.failover.write();
            let stranded = self.replay_holds_for(dead);
            if stranded.is_empty() {
                self.pending_replays.lock().remove(&dead);
            } else {
                still_stranded.extend(stranded);
            }
        }
        if still_stranded.is_empty() {
            return Ok(());
        }
        still_stranded.sort();
        still_stranded.dedup();
        Err(FlushError {
            failed_sessions: still_stranded,
            error: WireError::Payload(
                "promotion replay of replica holds is failing; the acked copies are preserved \
                 in the hold and the replay will be retried on the next flush"
                    .into(),
            ),
        })
    }

    /// Move `shard`'s buffered assertions to their current owners' buffers.
    fn redistribute_buffer(&self, shard: usize) {
        let leftover = {
            let buffer = Arc::clone(&self.buffers.read()[shard]);
            let mut guard = buffer.lock();
            std::mem::take(&mut *guard)
        };
        if leftover.is_empty() {
            return;
        }
        let mut per_shard: HashMap<usize, Vec<RecordedAssertion>> = HashMap::new();
        for recorded in leftover {
            // With no live shard left, the owner resolves back to `shard` itself: the work
            // stays buffered there, and `flush` reports its sessions as failed.
            let owner = self.shard_for_session(recorded.session.as_str());
            per_shard.entry(owner).or_default().push(recorded);
        }
        for (owner, batch) in per_shard {
            let buffer = Arc::clone(&self.buffers.read()[owner]);
            buffer.lock().extend(batch);
        }
    }

    /// Deliver `messages` to one shard through the router's [`ShardLink`], one result per
    /// message in order. Whatever the link, a shard downed by the fault injector is
    /// unreachable, exactly as a crashed remote host would be.
    fn call_shard(
        &self,
        shard: usize,
        action: &str,
        messages: &[PrepMessage],
        trace: Option<&TraceCtx>,
    ) -> Vec<WireResult<PluginResponse>> {
        let (name, service) = {
            let placement = self.placement.read();
            let handle = &placement.shards[shard];
            (handle.name.clone(), Arc::clone(&handle.service))
        };
        if self.injector().is_down(&name) {
            return messages
                .iter()
                .map(|_| Err(WireError::ServiceDown(name.clone())))
                .collect();
        }
        self.link.call(&name, &service, action, messages, trace)
    }

    /// [`Self::call_shard`] for a single message.
    fn call_shard_one(
        &self,
        shard: usize,
        action: &str,
        message: &PrepMessage,
    ) -> WireResult<PluginResponse> {
        self.call_shard(shard, action, std::slice::from_ref(message), None)
            .pop()
            .expect("the link answers every message")
    }

    /// Drain `shard`'s buffer and send the batch — as one `Record` message, or as several of
    /// at most the link's bound, pipelined in one exchange — then copy what the shard acked
    /// into the replica holds of its live ring successors; returning `Ok` is the replicated ack.
    ///
    /// The caller must hold the shard's flusher mutex (so same-shard sends stay in buffer
    /// order) and the shared failover lock; the buffer mutex itself is held only to drain and
    /// to restore, so appends racing the send proceed immediately. On failure, whatever is
    /// safe to resend is restored *ahead of* anything appended during the send, preserving
    /// buffer order and the zero-acked-loss contract:
    ///
    /// * any `ServiceDown` — the shard is dead, and whatever it committed is invisible after
    ///   failover (replicas see only hold copies, which are appended strictly after a
    ///   message's ack), so EVERY message is safe to restore and redeliver to the promoted
    ///   owner;
    /// * any other error — the shard is alive and committed the acked messages, so only the
    ///   failed ones are restored while the acked ones get their replica-hold copies
    ///   (resending those would leave duplicates in the store).
    fn send_buffer(&self, shard: usize, trace: Option<&TraceCtx>) -> Result<(), FlushError> {
        let buffer = Arc::clone(&self.buffers.read()[shard]);
        let batch = std::mem::take(&mut *buffer.lock());
        if batch.is_empty() {
            return Ok(());
        }
        let batch_len = batch.len();
        self.obs.flush_batch_size.record(batch_len as u64);
        let bound = self.link.record_assertions();
        let mut messages = Vec::with_capacity(batch_len.div_ceil(bound));
        let mut rest = batch;
        while !rest.is_empty() {
            let tail = rest.split_off(rest.len().min(bound));
            messages.push(PrepMessage::Record(pasoa_core::prep::RecordMessage {
                message_id: self.ids.message_id(),
                asserter: pasoa_core::ids::ActorId::new("shard-router"),
                assertions: rest,
            }));
            rest = tail;
        }
        let events = self.obs.registry.events();
        let timer = (trace.is_some() && events.is_enabled()).then(std::time::Instant::now);
        let results = self.call_shard(shard, "record", &messages, trace);
        let sent_nanos = timer.map(|t| t.elapsed().as_nanos() as u64);

        // One verdict per message, before touching holds or the buffer. The failure reported
        // is a `ServiceDown` if there was one (it decides what is restorable), else the first.
        enum Verdict {
            Acked,
            Resend,
            PartlyCommitted,
        }
        let is_down = |error: &WireError| matches!(error, WireError::ServiceDown(_));
        let mut failure: Option<WireError> = None;
        let verdicts: Vec<Verdict> = results
            .into_iter()
            .map(|result| {
                let (error, verdict) = match result {
                    Ok(PluginResponse::Ack(ack)) if ack.fully_accepted() => return Verdict::Acked,
                    // The shard committed the accepted remainder, and `RecordAck::rejected`
                    // carries only human-readable reasons — not the assertions themselves —
                    // so nothing can be re-buffered without duplicating what was committed:
                    // the message's sessions are reported failed and nothing is resent.
                    // `PreservService` accepts every assertion, so this arm is unreachable
                    // today; it exists for a future validating store.
                    Ok(PluginResponse::Ack(ack)) => {
                        debug_assert!(
                            false,
                            "PreservService never rejects assertions; partial accept is unexpected"
                        );
                        let reason = format!(
                            "shard {shard} rejected {} assertion(s); accepted remainder committed",
                            ack.rejected.len()
                        );
                        (WireError::Payload(reason), Verdict::PartlyCommitted)
                    }
                    Ok(other) => {
                        let reason = format!("unexpected shard record response: {other:?}");
                        (WireError::Payload(reason), Verdict::Resend)
                    }
                    Err(error) => (error, Verdict::Resend),
                };
                if failure
                    .as_ref()
                    .is_none_or(|held| is_down(&error) && !is_down(held))
                {
                    failure = Some(error);
                }
                verdict
            })
            .collect();
        let service_down = failure.as_ref().is_some_and(is_down);

        // Hold appends are infallible in-process writes, so an all-acked send IS the
        // replicated ack: copies = 1 + min(R-1, live-1) = min(R, live). This is best-effort,
        // not a quorum check — a cluster degraded below R live shards still acks with the
        // copies it can hold (see the module docs).
        let holds = if service_down {
            Vec::new()
        } else {
            self.replica_holds(shard, self.replication() - 1)
        };
        let mut restore = Vec::new();
        let mut unsendable = Vec::new();
        let mut flushed = 0u64;
        for (message, verdict) in messages.into_iter().zip(verdicts) {
            let PrepMessage::Record(record) = message else {
                unreachable!("send_buffer builds record messages")
            };
            match verdict {
                // A dead shard's commits are invisible after failover: everything is resent.
                _ if service_down => restore.extend(record.assertions),
                Verdict::Acked => {
                    for hold in &holds {
                        hold.append_assertions(shard, &record.assertions);
                    }
                    flushed += 1;
                }
                Verdict::Resend => restore.extend(record.assertions),
                Verdict::PartlyCommitted => unsendable.extend(record.assertions),
            }
        }
        self.obs.batches_flushed.add(flushed);
        if flushed > 0 && !holds.is_empty() {
            self.obs.batches_replicated.inc();
        }
        let Some(error) = failure else {
            if let (Some(trace), Some(nanos)) = (trace, sent_nanos) {
                events.push(
                    &trace.trace_id,
                    trace.span_id,
                    "router.flush",
                    format!("shard={shard} batch={batch_len}"),
                    nanos,
                );
            }
            return Ok(());
        };
        self.obs.failed_send_restores.inc();
        let failed_sessions = distinct_sessions(restore.iter().chain(&unsendable));
        let mut guard = buffer.lock();
        restore.append(&mut guard);
        *guard = restore;
        Err(FlushError {
            failed_sessions,
            error,
        })
    }

    /// Flush one shard's buffer as a batched `Record` message. The shard's flusher mutex is
    /// held across the send, so batches for one shard always commit in buffer order. A dead
    /// shard's buffer is redistributed to the promoted owners instead.
    fn flush_shard(&self, shard: usize) -> Result<(), FlushError> {
        if !self.is_alive(shard) {
            self.redistribute_buffer(shard);
            return Ok(());
        }
        // Shared failover lock across the whole send (acquired before the flusher mutex, the
        // one ordering that cannot deadlock against a promotion redistributing buffers): a
        // concurrent promotion waits until the batch's replica-hold copy has landed.
        let _failover = self.failover.read();
        let flusher = Arc::clone(&self.flushers.read()[shard]);
        let _send = flusher.lock();
        self.send_buffer(shard, None)
    }

    /// Flush every shard buffer. Called before queries (read-your-writes) and at the end of a
    /// load-generation run. Shards that turn out to be dead are failed over and their buffered
    /// work redistributed and delivered, so a single shard failure never surfaces here.
    pub fn flush(&self) -> Result<(), FlushError> {
        self.maybe_handle_failures();
        self.retry_stranded_replays()?;
        // Failover moves buffered work between shards, so drain in rounds until stable; each
        // round can absorb at most one newly-dead shard, so shard_count + 1 rounds suffice.
        let mut last_error: Option<FlushError> = None;
        for _round in 0..=self.shard_count() {
            last_error = None;
            for shard in 0..self.shard_count() {
                match self.flush_shard(shard) {
                    Ok(()) => {}
                    Err(e) if matches!(e.error, WireError::ServiceDown(_)) => {
                        // The shard died between the aliveness check and the send; fail it
                        // over and let the next round deliver the redistributed batch.
                        self.maybe_handle_failures();
                        last_error = Some(e);
                    }
                    Err(e) => return Err(e),
                }
            }
            let any_pending = self
                .buffers
                .read()
                .iter()
                .any(|buffer| !buffer.lock().is_empty());
            if !any_pending {
                // A failover handled *during* this flush (the ServiceDown arm above) may have
                // stranded a promotion replay after the entry check already passed; re-check
                // so a flush never acks while acked data sits unreplayed in a hold.
                return self.retry_stranded_replays();
            }
        }
        // Undeliverable: report every session still buffered so callers can retry selectively.
        let mut stranded: Vec<RecordedAssertion> = Vec::new();
        for buffer in self.buffers.read().iter() {
            stranded.extend(buffer.lock().iter().cloned());
        }
        let failed_sessions = distinct_sessions(&stranded);
        Err(match last_error {
            Some(mut e) => {
                e.failed_sessions = failed_sessions;
                e
            }
            None => FlushError {
                failed_sessions,
                error: WireError::Payload("no live shard can accept the buffered batches".into()),
            },
        })
    }

    /// Route a record submission: partition by session owner, buffer per shard, and flush any
    /// buffer that reached the batch threshold. Besides the ack, returns how many shard
    /// flushes this message triggered: a call that happened to cross the batch threshold
    /// pays the whole batch's send inside its own round trip, and callers measuring latency
    /// need to tell those amortization calls apart from pure buffered appends.
    fn handle_record(
        &self,
        message_id: MessageId,
        assertions: Vec<RecordedAssertion>,
        trace: Option<&TraceCtx>,
    ) -> WireResult<(RecordAck, u64)> {
        self.maybe_handle_failures();
        let accepted = assertions.len();
        let mut flushes = 0u64;
        // Partition first so each shard's buffer mutex is taken once per record message.
        let mut per_shard: HashMap<usize, Vec<RecordedAssertion>> = HashMap::new();
        for recorded in assertions {
            let shard = self.shard_for_session(recorded.session.as_str());
            per_shard.entry(shard).or_default().push(recorded);
        }
        for (shard, incoming) in per_shard {
            let outcome = {
                // Shared failover lock across the send window (see flush_shard); released
                // before the ServiceDown arm below, which needs the exclusive side.
                let _failover = self.failover.read();
                let over_threshold = {
                    let buffer = Arc::clone(&self.buffers.read()[shard]);
                    let mut guard = buffer.lock();
                    guard.extend(incoming);
                    guard.len() >= self.config.batch_size
                };
                if over_threshold {
                    // Send under the shard's flusher mutex, not the buffer mutex: same-shard
                    // batches stay ordered (and a failed send restores them in order), while
                    // other clients keep appending for the whole wire round trip.
                    //
                    // `try_lock`, not `lock`: if a flush for this shard is already on the
                    // wire, queueing here would stall this caller a full round trip only to
                    // send a batch the next trigger could carry. Skipping instead lets
                    // over-threshold batches MERGE — the records just appended hold exactly
                    // the guarantee every buffered ack holds (restorable, redelivered on
                    // failover, drained by any explicit flush), and the flush holder below
                    // re-drains until the buffer is back under threshold, so a merged
                    // backlog never outlives the last trigger by more than one send.
                    let flusher = Arc::clone(&self.flushers.read()[shard]);
                    let sent = match flusher.try_lock() {
                        Some(_send) => loop {
                            flushes += 1;
                            match self.send_buffer(shard, trace) {
                                Ok(()) => {
                                    let refilled = {
                                        let buffer = Arc::clone(&self.buffers.read()[shard]);
                                        let len = buffer.lock().len();
                                        len >= self.config.batch_size
                                    };
                                    if !refilled {
                                        break Ok(());
                                    }
                                }
                                Err(e) => break Err(e),
                            }
                        },
                        None => {
                            // A flush for this shard is already on the wire: the just-appended
                            // records merge into the in-flight holder's re-drain instead of
                            // paying their own send.
                            self.obs.merge_skips.inc();
                            Ok(())
                        }
                    };
                    sent
                } else {
                    Ok(())
                }
            };
            match outcome {
                Ok(()) => {}
                Err(e) if matches!(e.error, WireError::ServiceDown(_)) => {
                    // The shard died mid-message. The batch is restored in its buffer;
                    // failing over redistributes it to live owners, where the next flush
                    // delivers it — the client's ack stays honest.
                    self.maybe_handle_failures();
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.obs.record_messages.inc();
        self.obs.assertions_routed.add(accepted as u64);
        Ok((
            RecordAck {
                message_id,
                accepted,
                rejected: vec![],
            },
            flushes,
        ))
    }

    /// Route a group registration to the shard owning the group's id (session groups share
    /// their session's shard, so group queries co-locate with the session's assertions).
    /// With replication, the registration is also copied into the primary's replica holds.
    fn handle_register_group(&self, group: Group) -> WireResult<()> {
        self.maybe_handle_failures();
        let mut attempts = 0;
        loop {
            let shard = self.shard_for_session(&group.id);
            let outcome = {
                // Shared failover lock across register + hold append (see flush_shard).
                let _failover = self.failover.read();
                self.call_shard_one(
                    shard,
                    "register-group",
                    &PrepMessage::RegisterGroup(group.clone()),
                )
                .map(|_| {
                    let replication = self.replication();
                    if replication > 1 {
                        for hold in self.replica_holds(shard, replication - 1) {
                            hold.append_group(shard, &group);
                        }
                    }
                })
            };
            match outcome {
                Ok(()) => {
                    self.obs.groups_routed.inc();
                    return Ok(());
                }
                Err(WireError::ServiceDown(_)) if attempts < self.shard_count() => {
                    attempts += 1;
                    self.maybe_handle_failures();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// A shared guard excluding failovers, so a scatter-gather holding it reads either the
    /// pre- or the post-promotion placement — never a mix where a dying shard's answer and
    /// its promoted copy both appear. Drop it before any failover handling (the write side).
    pub(crate) fn gather_guard(&self) -> parking_lot::RwLockReadGuard<'_, ()> {
        self.failover.read()
    }

    /// Flush (read-your-writes), then put the same question to every live shard and collect
    /// what `expect` picks out of each answer, in shard order. The gather holds the failover
    /// lock shared, so a shard dying mid-gather fails the gather (which is then failed over
    /// and restarted) rather than letting a concurrent promotion double its answers — the
    /// result never mixes pre- and post-failover views.
    fn scatter<T>(
        &self,
        action: &str,
        message: &PrepMessage,
        expect: impl Fn(PluginResponse) -> Result<T, PluginResponse>,
    ) -> WireResult<Vec<T>> {
        self.flush().map_err(WireError::from)?;
        let mut attempts = 0;
        loop {
            let gathered: WireResult<Vec<T>> = {
                // Dropped before the retry arm below, whose failover handling takes the
                // write side.
                let _gather = self.gather_guard();
                self.live_shards()
                    .into_iter()
                    .map(|shard| {
                        expect(self.call_shard_one(shard, action, message)?).map_err(|other| {
                            WireError::Payload(format!("unexpected shard response: {other:?}"))
                        })
                    })
                    .collect()
            };
            match gathered {
                Err(WireError::ServiceDown(_)) if attempts < self.shard_count() => {
                    attempts += 1;
                    self.maybe_handle_failures();
                    self.flush().map_err(WireError::from)?;
                }
                other => return other,
            }
        }
    }

    /// Answer a query by scatter-gather over every live shard, merged to a single store's
    /// answer.
    fn handle_query(&self, request: QueryRequest) -> WireResult<QueryResponse> {
        let message = PrepMessage::Query(request.clone());
        let responses = self.scatter("query", &message, |response| match response {
            PluginResponse::Query(response) => Ok(response),
            other => Err(other),
        })?;
        self.obs.scatter_queries.inc();
        let merged = match &request {
            QueryRequest::ByInteraction(_)
            | QueryRequest::BySession(_)
            | QueryRequest::ByActor(_)
            | QueryRequest::ByRelation(_)
            | QueryRequest::ActorStateByKind { .. } => {
                let per_shard = collect_assertions(responses)?;
                let merged = merge::merge_assertions(per_shard);
                if merged.len() > self.config.max_response_assertions {
                    return Err(WireError::Payload(format!(
                        "query answer holds {} p-assertions, above the {}-assertion single-\
                         response ceiling; fetch it in bounded pages through 'query-page' \
                         instead",
                        merged.len(),
                        self.config.max_response_assertions
                    )));
                }
                if merged.is_empty() {
                    QueryResponse::Empty
                } else {
                    QueryResponse::Assertions(merged)
                }
            }
            QueryRequest::ListInteractions { limit } => {
                let per_shard = collect_interactions(responses)?;
                QueryResponse::Interactions(merge::merge_interactions(per_shard, *limit))
            }
            QueryRequest::GroupsByKind(_) => {
                let per_shard = collect_groups(responses)?;
                QueryResponse::Groups(merge::merge_groups(per_shard))
            }
            QueryRequest::Statistics => {
                let per_shard = collect_statistics(responses)?;
                QueryResponse::Statistics(merge::merge_statistics(per_shard))
            }
        };
        Ok(merged)
    }

    /// Answer one cursor-carrying page request by bounded scatter-gather: every live shard is
    /// asked for at most `page_size` items past the cursor (through the wire when the internal
    /// hop is [`InternalHop::Wire`]), and the per-shard pages are merged on the router up to
    /// the *fence* — the smallest last-key of any shard that may still hold more — so no item
    /// a lagging shard could still produce is ever skipped. The returned cursor is a single
    /// global sort key: `add_shard` never moves existing documentation, so a cursor taken
    /// before a rebalance stays valid after it, and each page's gather runs under the shared
    /// failover lock so it never mixes pre- and post-promotion placements.
    pub fn query_page(&self, paged: &PagedQuery) -> WireResult<QueryPage> {
        if !paged.request.is_pageable() {
            return Err(WireError::Payload(format!(
                "{:?} does not produce a p-assertion stream and cannot be paginated",
                paged.request
            )));
        }
        if paged.page_size == 0 || paged.page_size > MAX_PAGE_SIZE {
            return Err(WireError::Payload(format!(
                "page size {} outside 1..={MAX_PAGE_SIZE}",
                paged.page_size
            )));
        }
        let message = PrepMessage::QueryPage(paged.clone());
        let pages = self.scatter("query-page", &message, |response| match response {
            PluginResponse::Page(page) => Ok(page),
            other => Err(other),
        })?;
        self.obs.page_queries.inc();
        Ok(merge_shard_pages(pages, paged.page_size))
    }

    /// Answer a lineage request by merging every live shard's session lineage graph.
    fn handle_lineage(&self, request: QueryRequest) -> WireResult<LineageGraph> {
        let message = PrepMessage::Query(request);
        let graphs = self.scatter("lineage", &message, |response| match response {
            PluginResponse::Lineage(graph) => Ok(graph),
            other => Err(other),
        })?;
        self.obs.scatter_queries.inc();
        Ok(merge::merge_lineage(graphs))
    }
}

/// Merge bounded per-shard pages into one client page.
///
/// Each shard page covers that shard's full `(cursor, last item]` key range, and within one
/// shard sort keys are unique (the store's sequence disambiguates) — so every item with a key
/// at or below the *fence* (the minimum last-key over shards that are not exhausted) is
/// guaranteed fetched, and emitting up to the fence can never skip an item a lagging shard
/// still holds. Items past the fence are discarded and refetched on the next page. The emit
/// cap never splits a run of equal keys (they span shards, at most one per shard), so the
/// single returned cursor key is always a safe resume point. Within one interaction the merge
/// orders equal-prefix items by `(sort key, shard)`; for session- and interaction-co-located
/// data — the router's placement invariant — that coincides with the unpaginated merge order.
fn merge_shard_pages(pages: Vec<ShardQueryPage>, page_size: usize) -> QueryPage {
    let fence: Option<String> = pages
        .iter()
        .filter(|page| !page.exhausted)
        .filter_map(|page| page.items.last().map(|(sort, _)| sort.clone()))
        .min();
    let all_exhausted = pages.iter().all(|page| {
        // An unexhausted page with no items cannot make progress claims; treat it as drained.
        page.exhausted || page.items.is_empty()
    });
    let mut merged: Vec<(String, usize, RecordedAssertion)> = Vec::new();
    for (shard, page) in pages.into_iter().enumerate() {
        for (sort, recorded) in page.items {
            if fence.as_deref().is_none_or(|fence| sort.as_str() <= fence) {
                merged.push((sort, shard, recorded));
            }
        }
    }
    merged.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
    let total = merged.len();
    let mut emit = total.min(page_size);
    // Never split an equal-key run across pages: the resume key must cover it whole.
    while emit > 0 && emit < total && merged[emit].0 == merged[emit - 1].0 {
        emit += 1;
    }
    let done = all_exhausted && emit == total;
    let next = if done {
        None
    } else {
        Some(PageCursor {
            after: merged[emit - 1].0.clone(),
        })
    };
    QueryPage {
        assertions: merged
            .into_iter()
            .take(emit)
            .map(|(_, _, recorded)| recorded)
            .collect(),
        next,
    }
}

fn collect_assertions(responses: Vec<QueryResponse>) -> WireResult<Vec<Vec<RecordedAssertion>>> {
    responses
        .into_iter()
        .map(|response| match response {
            QueryResponse::Assertions(list) => Ok(list),
            QueryResponse::Empty => Ok(Vec::new()),
            other => Err(unexpected(&other)),
        })
        .collect()
}

fn collect_interactions(
    responses: Vec<QueryResponse>,
) -> WireResult<Vec<Vec<pasoa_core::ids::InteractionKey>>> {
    responses
        .into_iter()
        .map(|response| match response {
            QueryResponse::Interactions(list) => Ok(list),
            QueryResponse::Empty => Ok(Vec::new()),
            other => Err(unexpected(&other)),
        })
        .collect()
}

fn collect_groups(responses: Vec<QueryResponse>) -> WireResult<Vec<Vec<Group>>> {
    responses
        .into_iter()
        .map(|response| match response {
            QueryResponse::Groups(list) => Ok(list),
            QueryResponse::Empty => Ok(Vec::new()),
            other => Err(unexpected(&other)),
        })
        .collect()
}

fn collect_statistics(responses: Vec<QueryResponse>) -> WireResult<Vec<StoreStatistics>> {
    responses
        .into_iter()
        .map(|response| match response {
            QueryResponse::Statistics(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        })
        .collect()
}

fn unexpected(response: &QueryResponse) -> WireError {
    WireError::Payload(format!("unexpected shard query response: {response:?}"))
}

impl MessageHandler for ShardRouter {
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        let action = request
            .action()
            .ok_or_else(|| WireError::InvalidEnvelope("missing action header".into()))?
            .to_string();
        // Answer stats requests before touching the body (the request carries no PReP
        // message); the same envelope works in process and over the TCP fabric.
        if action == pasoa_wire::STATS_SNAPSHOT_ACTION {
            return Envelope::response(&action).with_json_payload(&self.stats_snapshot());
        }
        let trace = request.trace_ctx();
        let message = prepwire::decode_request(&request)?;
        match (action.as_str(), message) {
            ("record", PrepMessage::Record(record)) => {
                // The router is its own hop on the trace: shard-bound envelopes carry a
                // child span so per-hop timings nest under the client's span.
                let hop = trace.as_ref().map(|t| t.child());
                let (ack, flushes) =
                    self.handle_record(record.message_id.clone(), record.assertions, hop.as_ref())?;
                let response = prepwire::ack_envelope(&request, &ack)?;
                // Calls that triggered a shard flush carry the whole batch's send inside
                // their round trip; the header lets latency measurements separate that
                // amortization from the per-call wire cost.
                if flushes > 0 {
                    Ok(response.with_header(FLUSHES_HEADER, flushes.to_string()))
                } else {
                    Ok(response)
                }
            }
            ("register-group", PrepMessage::RegisterGroup(group)) => {
                self.handle_register_group(group)?;
                Envelope::response("register-group").with_json_payload(&"group-registered")
            }
            ("query", PrepMessage::Query(request)) => {
                let response = self.handle_query(request)?;
                Envelope::response("query").with_json_payload(&response)
            }
            ("query-page", PrepMessage::QueryPage(paged)) => {
                let page = self.query_page(&paged)?;
                Envelope::response("query-page").with_json_payload(&page)
            }
            ("lineage", PrepMessage::Query(request)) => {
                let graph = self.handle_lineage(request)?;
                Envelope::response("lineage").with_json_payload(&graph)
            }
            (action, _) => Err(WireError::Payload(format!(
                "shard router cannot handle action '{action}' with that payload"
            ))),
        }
    }

    fn name(&self) -> &str {
        "shard-router"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::{ActorId, InteractionKey, SessionId};
    use pasoa_core::passertion::{
        ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
    };

    fn item(sort: &str) -> (String, RecordedAssertion) {
        (
            sort.to_string(),
            RecordedAssertion {
                session: SessionId::new("session:m"),
                assertion: PAssertion::ActorState(ActorStatePAssertion {
                    interaction_key: InteractionKey::new("interaction:m"),
                    asserter: ActorId::new("a"),
                    view: ViewKind::Receiver,
                    kind: ActorStateKind::Script,
                    content: PAssertionContent::text(sort),
                }),
            },
        )
    }

    fn tag(page: &QueryPage) -> Vec<String> {
        page.assertions
            .iter()
            .map(|r| match &r.assertion {
                PAssertion::ActorState(a) => a.content.as_text().unwrap().to_string(),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn fence_holds_back_items_a_lagging_shard_could_still_produce() {
        // Shard 0 returned a full page up to "c" (not exhausted); shard 1 already produced
        // "e". "e" must wait: shard 0 may still hold "d".
        let pages = vec![
            ShardQueryPage {
                items: vec![item("a"), item("c")],
                exhausted: false,
            },
            ShardQueryPage {
                items: vec![item("b"), item("e")],
                exhausted: true,
            },
        ];
        let merged = merge_shard_pages(pages, 10);
        assert_eq!(tag(&merged), vec!["a", "b", "c"]);
        assert_eq!(merged.next.unwrap().after, "c");
    }

    #[test]
    fn all_exhausted_pages_drain_completely() {
        let pages = vec![
            ShardQueryPage {
                items: vec![item("a"), item("c")],
                exhausted: true,
            },
            ShardQueryPage {
                items: vec![item("b")],
                exhausted: true,
            },
        ];
        let merged = merge_shard_pages(pages, 10);
        assert_eq!(tag(&merged), vec!["a", "b", "c"]);
        assert!(merged.next.is_none());
    }

    #[test]
    fn emit_cap_never_splits_an_equal_key_run() {
        // Two shards share sort key "b" (possible only across shards); a page size of 2 must
        // stretch to include both copies, or resuming after "b" would skip the second.
        let pages = vec![
            ShardQueryPage {
                items: vec![item("a"), item("b")],
                exhausted: true,
            },
            ShardQueryPage {
                items: vec![item("b"), item("d")],
                exhausted: true,
            },
        ];
        let merged = merge_shard_pages(pages, 2);
        assert_eq!(tag(&merged), vec!["a", "b", "b"]);
        assert_eq!(merged.next.unwrap().after, "b");
    }

    #[test]
    fn empty_result_set_is_done_immediately() {
        let pages = vec![ShardQueryPage {
            items: vec![],
            exhausted: true,
        }];
        let merged = merge_shard_pages(pages, 4);
        assert!(merged.assertions.is_empty());
        assert!(merged.next.is_none());
    }
}
