//! The shard router: one wire-level endpoint in front of N `PreservService` shards.
//!
//! The router registers on the [`ServiceHost`] under the provenance store's well-known name,
//! so every existing recorder and reasoner talks to the cluster without change. This file is
//! message handling: a record message is partitioned by session owner, buffered per shard and
//! flushed as bulk `Record` messages; a query flushes every buffer (read-your-writes), then
//! scatter-gathers over the live shards. Every message to a shard leaves through the one
//! `ShardLink` (the private `link` module). What happens when a shard dies is the child
//! module `failover`; the other decisions (placement, replication, merging) and the lock
//! order are mapped in the crate docs.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use pasoa_core::ids::{IdGenerator, MessageId};
use pasoa_core::passertion::RecordedAssertion;
use pasoa_core::prep::{
    PagedQuery, PrepMessage, QueryPage, QueryRequest, RecordAck, ShardQueryPage, MAX_PAGE_SIZE,
};
use pasoa_core::prepwire::{self, CorruptDocument};
use pasoa_core::Group;
use pasoa_obs::{Counter, Gauge, Histogram, Registry, StatsSnapshot, TraceCtx};
use pasoa_preserv::plugins::PluginResponse;
use pasoa_preserv::{LineageGraph, PreservService, ProvenanceStore, StoreError};
use pasoa_wire::{Envelope, MessageHandler, ServiceHost, WireError, WireResult};

use crate::cluster::ClusterConfig;
use crate::link::ShardLink;
use crate::merge;
use crate::placement::Placement;
use crate::replication::{self, HoldSnapshot};
use crate::shard::{holds, Shard};

mod failover;

/// Default for [`ClusterConfig::max_response_assertions`]: large enough for any interactive
/// answer, small enough that a runaway result set fails loudly instead of materializing an
/// unbounded wire message.
pub const DEFAULT_MAX_RESPONSE_ASSERTIONS: usize = 100_000;

/// Response header on a `record` ack naming how many shard flushes the call triggered.
/// Absent when the call merely buffered. A flushing call pays the whole batch's send inside
/// its own round trip, so latency measurements use this to separate batch amortization from
/// the per-call wire cost (otherwise p99 reports the shared flush wait, not the wire).
pub const FLUSHES_HEADER: &str = "router-flushes";

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
    /// Entries in the pin map — what grows if placements are memoized needlessly.
    pinned_sessions: Gauge,
    /// Assertion copies across every replica hold.
    held_assertions: Gauge,
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
            pinned_sessions: registry.gauge("router.pinned_sessions"),
            held_assertions: registry.gauge("router.hold.assertions"),
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

/// The shard table and the placement that indexes into it, behind one lock.
struct Table {
    placement: Placement,
    shards: Vec<Arc<Shard>>,
}

/// The shard router. Register it on a host via [`ShardRouter::register`].
pub struct ShardRouter {
    /// The host the shards are registered on; its fault injector is what failure detection
    /// scans.
    host: ServiceHost,
    link: ShardLink,
    batch_size: usize,
    replication: usize,
    max_response_assertions: usize,
    table: RwLock<Table>,
    /// Serializes failure handling (exclusive) against in-flight replicated sends (shared):
    /// a promotion between a batch's primary commit and its replica-hold append would take
    /// the hold before the copy lands, stranding an acked batch on the dead shard's store.
    failover: RwLock<()>,
    /// Last fault-injector epoch whose kills have been fully handled; while the injector's
    /// epoch equals this, failure scans are skipped entirely (one atomic load per message).
    handled_fault_epoch: AtomicU64,
    /// Dead shards whose promotion replay failed (target store error); their hold copies are
    /// preserved and `flush` retries the replay until it succeeds.
    pending_replays: Mutex<BTreeSet<usize>>,
    ids: IdGenerator,
    obs: RouterObs,
}

impl ShardRouter {
    /// Create a router in front of `(service name, service)` shard pairs, which must be (or
    /// become) registered under those names on `host` when the transport is TCP.
    pub(crate) fn new(
        host: &ServiceHost,
        shards: Vec<(String, Arc<PreservService>)>,
        config: &ClusterConfig,
    ) -> Self {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        let obs = RouterObs::new(host.registry().child());
        let placement = Placement::new(shards.len(), config.virtual_nodes);
        let shards = shards
            .into_iter()
            .enumerate()
            .map(|(index, (name, service))| {
                Shard::new(index, name, service, obs.held_assertions.clone())
            })
            .collect();
        ShardRouter {
            host: host.clone(),
            link: ShardLink::new(config.transport, host),
            batch_size: config.batch_size,
            replication: config.replication.max(1),
            max_response_assertions: config.max_response_assertions,
            table: RwLock::new(Table { placement, shards }),
            failover: RwLock::new(()),
            handled_fault_epoch: AtomicU64::new(0),
            pending_replays: Mutex::new(BTreeSet::new()),
            ids: IdGenerator::new("shard-router"),
            obs,
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
        let table = self.table.read();
        table.shards.iter().map(|s| s.name.clone()).collect()
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
        self.replication
    }

    /// Whether `shard` is still serving (not detected dead).
    pub fn is_alive(&self, shard: usize) -> bool {
        self.table.read().placement.is_alive(shard)
    }

    /// Indices of live shards, ascending.
    pub fn live_shards(&self) -> Vec<usize> {
        self.table.read().placement.live_shards().collect()
    }

    /// Store handles of live shards, in shard-index order — what scatter-gather reads.
    pub fn live_stores(&self) -> Vec<Arc<ProvenanceStore>> {
        let table = self.table.read();
        let live = table.placement.live_shards();
        live.map(|shard| table.shards[shard].service.store())
            .collect()
    }

    /// Observable replica-hold state of every shard (dead shards included, flagged), in shard
    /// index order. This is a diagnostic surface for invariant checkers — notably the
    /// simulation harness, which asserts that no hold strands a dead primary's acked data and
    /// that no `(primary, session)` copy is duplicated beyond the replication factor.
    pub fn hold_snapshot(&self) -> Vec<HoldSnapshot> {
        let table = self.table.read();
        replication::snapshot(&holds(&table.shards), &table.placement)
    }

    /// The current ring's successor order for `shard` (see
    /// [`crate::HashRing::successors_of_shard`]) — the replica-placement and promotion order.
    pub fn ring_successors(&self, shard: usize) -> Vec<usize> {
        self.table.read().placement.ring_successors(shard)
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
        // append pending) while the holds are re-homed below, and no promotion may interleave
        // with the ring change.
        let _failover = self.failover.write();
        // The table write lock is held throughout: the ring never names a shard the table
        // lacks, and no flush, query or failover can observe a half-migrated hold.
        let mut table = self.table.write();
        let histories = replication::take_histories(&holds(&table.shards), &table.placement);
        let index = table.placement.add_shard();
        let held = self.obs.held_assertions.clone();
        table
            .shards
            .push(Shard::new(index, name.into(), service, held));
        replication::seed_histories(
            &holds(&table.shards),
            &table.placement,
            histories,
            self.replication - 1,
        );
        drop(table);
        self.obs.rebalances.inc();
        Ok(index)
    }

    /// The shard index that owns `session` as its primary.
    ///
    /// Before any rebalance or failure this is a pure function of the ring — no per-session
    /// state, no write lock — and it stays one for every session no older ring maps
    /// elsewhere. Pinned entries (rebalance stickiness, failover promotions, and sessions
    /// first routed while their ring owner was dead) take precedence. After a rebalance, a
    /// session whose mapping changed but which already holds documentation on its old shard
    /// stays pinned there; a resolution that needed the data-presence probe is memoized
    /// whatever it found (the probe scans shard state, far too costly to repeat per
    /// assertion).
    pub fn shard_for_session(&self, session: &str) -> usize {
        let resolution = self.table.read().placement.resolve(session);
        // Settled outside the table lock: the presence probe takes flusher, buffer and store
        // locks, which must never nest inside it (flush paths take them the other way around).
        let (owner, memoize) =
            resolution.settle(|shard| self.shard(shard).has_session_data(session));
        if memoize {
            self.pin([session.to_string()], owner);
        }
        owner
    }

    fn pin(&self, ids: impl IntoIterator<Item = String>, shard: usize) {
        let pinned = self.table.write().placement.pin(ids, shard);
        self.obs.pinned_sessions.set(pinned as i64);
    }

    /// `assertions` split by the shard that currently owns each one's session.
    fn partition(
        &self,
        assertions: Vec<RecordedAssertion>,
    ) -> HashMap<usize, Vec<RecordedAssertion>> {
        let mut per_shard: HashMap<usize, Vec<RecordedAssertion>> = HashMap::new();
        for recorded in assertions {
            let owner = self.shard_for_session(recorded.session.as_str());
            per_shard.entry(owner).or_default().push(recorded);
        }
        per_shard
    }

    fn shard(&self, index: usize) -> Arc<Shard> {
        Arc::clone(&self.table.read().shards[index])
    }

    /// The whole table, for walks that take per-shard locks (never under the table lock).
    fn shards(&self) -> Vec<Arc<Shard>> {
        self.table.read().shards.clone()
    }

    fn shard_count(&self) -> usize {
        self.table.read().shards.len()
    }

    /// The shards holding copies of batches whose primary is `shard`: its first R−1 live
    /// ring successors, from one table snapshot; fewer when the cluster is too small or too
    /// degraded.
    fn replicas(&self, shard: usize) -> Vec<Arc<Shard>> {
        if self.replication == 1 {
            return Vec::new(); // no ring walk on the unreplicated flush path
        }
        let table = self.table.read();
        let successors = table.placement.live_successors(shard);
        successors
            .take(self.replication - 1)
            .map(|replica| Arc::clone(&table.shards[replica]))
            .collect()
    }

    /// One message to one shard over the router's link.
    fn call_shard_one(
        &self,
        shard: &Shard,
        action: &str,
        message: &PrepMessage,
    ) -> WireResult<PluginResponse> {
        self.link
            .call(shard, action, std::slice::from_ref(message), None)
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
    fn send_buffer(&self, shard: &Shard, trace: Option<&TraceCtx>) -> Result<(), FlushError> {
        let batch = std::mem::take(&mut *shard.buffer.lock());
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
        let results = self.link.call(shard, "record", &messages, trace);
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
                            "shard {} rejected {} assertion(s); accepted remainder committed",
                            shard.index,
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
        let replicas = if service_down {
            Vec::new()
        } else {
            self.replicas(shard.index)
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
                    for replica in &replicas {
                        replica
                            .hold
                            .append_assertions(shard.index, &record.assertions);
                    }
                    flushed += 1;
                }
                Verdict::Resend => restore.extend(record.assertions),
                Verdict::PartlyCommitted => unsendable.extend(record.assertions),
            }
        }
        self.obs.batches_flushed.add(flushed);
        if flushed > 0 && !replicas.is_empty() {
            self.obs.batches_replicated.inc();
        }
        let Some(error) = failure else {
            if let (Some(trace), Some(nanos)) = (trace, sent_nanos) {
                events.push(
                    &trace.trace_id,
                    trace.span_id,
                    "router.flush",
                    format!("shard={} batch={batch_len}", shard.index),
                    nanos,
                );
            }
            return Ok(());
        };
        self.obs.failed_send_restores.inc();
        let failed_sessions = distinct_sessions(restore.iter().chain(&unsendable));
        let mut guard = shard.buffer.lock();
        restore.append(&mut guard);
        *guard = restore;
        Err(FlushError {
            failed_sessions,
            error,
        })
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
            let shards = self.shards();
            last_error = None;
            for shard in &shards {
                // A dead shard's buffer is redistributed to the promoted owners instead.
                if !self.is_alive(shard.index) {
                    self.redistribute_buffer(shard);
                    continue;
                }
                let sent = {
                    // Shared failover lock across the whole send (acquired before the
                    // flusher mutex, the one ordering that cannot deadlock against a
                    // promotion redistributing buffers): a concurrent promotion waits until
                    // the batch's replica-hold copy has landed. The flusher mutex keeps this
                    // shard's batches committing in buffer order.
                    let _failover = self.failover.read();
                    let _send = shard.flusher.lock();
                    self.send_buffer(shard, None)
                };
                match sent {
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
            if shards.iter().all(|shard| shard.buffer.lock().is_empty()) {
                // A failover handled *during* this flush (the ServiceDown arm above) may have
                // stranded a promotion replay after the entry check already passed; re-check
                // so a flush never acks while acked data sits unreplayed in a hold.
                return self.retry_stranded_replays();
            }
        }
        // Undeliverable: report every session still buffered so callers can retry selectively.
        let mut stranded: Vec<RecordedAssertion> = Vec::new();
        for shard in self.shards() {
            stranded.extend(shard.buffer.lock().iter().cloned());
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
        for (shard, incoming) in self.partition(assertions) {
            let shard = self.shard(shard);
            let outcome = {
                // Shared failover lock across the send window (see `flush`); released
                // before the ServiceDown arm below, which needs the exclusive side.
                let _failover = self.failover.read();
                let over_threshold = {
                    let mut buffer = shard.buffer.lock();
                    buffer.extend(incoming);
                    buffer.len() >= self.batch_size
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
                    let sent = match shard.flusher.try_lock() {
                        Some(_send) => loop {
                            flushes += 1;
                            if let Err(e) = self.send_buffer(&shard, trace) {
                                break Err(e);
                            }
                            if shard.buffer.lock().len() < self.batch_size {
                                break Ok(());
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
        let message = PrepMessage::RegisterGroup(group.clone());
        self.with_failover(|| {
            let shard = self.shard(self.shard_for_session(&group.id));
            // Shared failover lock across register + hold append (see `flush`).
            let _failover = self.failover.read();
            self.call_shard_one(&shard, "register-group", &message)?;
            for replica in self.replicas(shard.index) {
                replica.hold.append_group(shard.index, group.clone());
            }
            Ok(())
        })?;
        self.obs.groups_routed.inc();
        Ok(())
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
        self.with_failover(|| {
            self.flush().map_err(WireError::from)?;
            let _gather = self.gather_guard();
            self.live_shards()
                .into_iter()
                .map(|shard| {
                    let answer = self.call_shard_one(&self.shard(shard), action, message)?;
                    expect(answer).map_err(|other| {
                        WireError::Payload(format!("unexpected shard response: {other:?}"))
                    })
                })
                .collect()
        })
    }

    /// Answer the client query `envelope` carries by scatter-gather over every live shard,
    /// merged to a single store's answer. An assertion stream is merged on the shards' sort
    /// keys and answered straight from their stored documents, checked against the
    /// single-response ceiling by count before any of it is transcoded.
    fn handle_query(&self, envelope: &Envelope, request: QueryRequest) -> WireResult<Envelope> {
        let message = PrepMessage::Query(request.clone());
        if !request.is_pageable() {
            let responses = self.scatter("query", &message, |response| match response {
                PluginResponse::Query(response) => Ok(response),
                other => Err(other),
            })?;
            self.obs.scatter_queries.inc();
            let merged = merge::merge_responses(&request, responses)?;
            return Envelope::response("query").with_json_payload(&merged);
        }
        let per_shard = self.scatter("query", &message, |response| match response {
            PluginResponse::Documents(page) => Ok(page.items),
            other => Err(other),
        })?;
        self.obs.scatter_queries.inc();
        let items = merge::merge_documents(per_shard);
        if items.len() > self.max_response_assertions {
            return Err(WireError::Payload(format!(
                "query answer holds {} p-assertions, above the {}-assertion single-response \
                 ceiling; fetch it in bounded pages through 'query-page' instead",
                items.len(),
                self.max_response_assertions
            )));
        }
        let answer = ShardQueryPage {
            items,
            exhausted: true,
        };
        prepwire::documents_envelope(envelope, &answer).map_err(corrupt)
    }

    /// One cursor-carrying page by bounded scatter-gather, in stored form: every live shard is
    /// asked for at most `page_size` items past the cursor (through the wire when the
    /// transport is TCP) and the pages are merged up to the fence ([`merge`]). The page's
    /// cursor is a single global sort key: `add_shard` never moves existing documentation, so
    /// a cursor taken before a rebalance stays valid after it, and each page's gather runs
    /// under the shared failover lock so it never mixes pre- and post-promotion placements.
    fn gather_page(&self, paged: &PagedQuery) -> WireResult<ShardQueryPage> {
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
            PluginResponse::Documents(page) => Ok(page),
            other => Err(other),
        })?;
        self.obs.page_queries.inc();
        Ok(merge::merge_shard_pages(pages, paged.page_size))
    }

    /// Answer one cursor-carrying page request (see [`Self::gather_page`]), decoded for a
    /// typed caller.
    pub fn query_page(&self, paged: &PagedQuery) -> WireResult<QueryPage> {
        let page = self.gather_page(paged)?;
        let next = page.next();
        let assertions = page
            .items
            .into_iter()
            .map(|(sort_key, document)| {
                prepwire::decode_document(&document)
                    .map_err(|error| corrupt(CorruptDocument { sort_key, error }))
            })
            .collect::<WireResult<_>>()?;
        Ok(QueryPage { assertions, next })
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

/// A stored document that would not transcode or decode, reported as the store corruption it
/// is.
fn corrupt(error: CorruptDocument) -> WireError {
    WireError::Payload(StoreError::from(error).to_string())
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
            ("query", PrepMessage::Query(query)) => self.handle_query(&request, query),
            ("query-page", PrepMessage::QueryPage(paged)) => {
                let page = self.gather_page(&paged)?;
                prepwire::documents_envelope(&request, &page).map_err(corrupt)
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
