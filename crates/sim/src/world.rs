//! The simulated world: one deployed cluster, one golden single-store oracle, one scheduler.
//!
//! Everything runs on the calling thread. "Concurrency" is the interleaving the schedule
//! encodes — multiple logical clients whose operations are executed in plan order — which is
//! exactly what makes a run a pure function of its seed: there is no thread scheduler, no
//! wall clock and no shared RNG left to disagree between two executions.
//!
//! Every operation that the cluster acknowledges is also applied to a golden
//! [`ProvenanceStore`] over a plain memory backend. The oracle relation checked throughout:
//! **whatever a single store holding all acked documentation would answer, the cluster must
//! answer bit-for-bit** — under batching, sharding, replication, rebalances, shard kills,
//! database power losses and mid-batch crash points.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pasoa_cluster::{ClusterConfig, FeedOptions, PreservCluster};
use pasoa_core::ids::{ActorId, DataId, IdGenerator, InteractionKey, SessionId};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RecordedAssertion, RelationshipPAssertion, ViewKind,
};
use pasoa_core::prep::{PrepMessage, QueryRequest, RecordAck, RecordMessage};
use pasoa_core::recorder::{ProvenanceRecorder, RecordError, RecordingMode};
use pasoa_core::{Group, GroupKind, PROVENANCE_STORE_SERVICE};
use pasoa_dag::{
    ActivityError, Dag, DagSpec, DataItem, ExecutedDag, Executor, ExecutorConfig, FailurePolicy,
    FnActivity, RetryPolicy,
};
use pasoa_feed::{
    event_identity, FeedClock, FeedConfig, FeedEvent, FeedEventBody, FeedFilter, FeedQueue,
    FeedSubscriberClient,
};
use pasoa_kvdb::{Db, DbOptions};
use pasoa_obs::{Registry, TraceIdGen};
use pasoa_preserv::{
    AccessPath, KvBackend, LineageGraph, MemoryBackend, ProvenanceStore, StorageBackend,
};
use pasoa_query::{PlanMode, QueryEngine};
use pasoa_wire::{Envelope, ServiceHost, SimClock, Transport, TransportConfig};

use crate::plan::{QueryKind, SimBackend, SimConfig, SimOp};

/// A broken invariant: the reason a simulated schedule failed.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke (stable, grep-able name).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    pub(crate) fn new(invariant: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            invariant,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory for durable shards, removed on drop.
struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!(
            "pasoa-sim-{}-{}",
            std::process::id(),
            SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir { path }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Synchronous recorder shipping every p-assertion of a DAG run straight into the cluster
/// over the simulated wire, one record message each, while mirroring what the tier durably
/// holds so the golden oracle can be brought up to date after the run.
///
/// A send that fails at an armed crash point follows the same contract as a failed batched
/// record: the assertion was restored into the dead shard's buffer and failover redelivers
/// it, so it still counts as durably held. Any failure is also remembered so the world can
/// check it is explained by an injected fault.
struct MirrorRecorder {
    session: SessionId,
    transport: Transport,
    ids: IdGenerator,
    trace_ids: TraceIdGen,
    asserter: ActorId,
    /// Everything the tier durably holds (acked, or preserved for redelivery), in call order.
    sent: Mutex<Vec<RecordedAssertion>>,
    /// Errors surfaced to the executor; each must be explained by an armed crash point.
    failures: Mutex<Vec<String>>,
}

impl MirrorRecorder {
    fn new(
        session: SessionId,
        transport: Transport,
        ids: IdGenerator,
        trace_ids: TraceIdGen,
    ) -> Self {
        MirrorRecorder {
            session,
            transport,
            ids,
            trace_ids,
            asserter: ActorId::new("sim-dag-executor"),
            sent: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
        }
    }

    fn sent(&self) -> Vec<RecordedAssertion> {
        self.sent.lock().expect("mirror lock").clone()
    }

    fn failures(&self) -> Vec<String> {
        self.failures.lock().expect("mirror lock").clone()
    }
}

impl ProvenanceRecorder for MirrorRecorder {
    fn session(&self) -> &SessionId {
        &self.session
    }

    fn record(&self, assertion: PAssertion) -> Result<(), RecordError> {
        let recorded = RecordedAssertion {
            session: self.session.clone(),
            assertion,
        };
        let message = PrepMessage::Record(RecordMessage {
            message_id: self.ids.message_id(),
            asserter: self.asserter.clone(),
            assertions: vec![recorded.clone()],
        });
        let envelope = Envelope::request(PROVENANCE_STORE_SERVICE, message.action())
            .with_json_payload(&message)
            .map_err(RecordError::Wire)?
            .with_trace(&self.trace_ids.next());
        match self.transport.call(envelope) {
            Ok(response) => {
                let ack: RecordAck = response.json_payload().map_err(RecordError::Wire)?;
                if ack.accepted == 1 && ack.fully_accepted() {
                    self.sent.lock().expect("mirror lock").push(recorded);
                    Ok(())
                } else {
                    self.failures
                        .lock()
                        .expect("mirror lock")
                        .push(format!("record rejected: {:?}", ack.rejected));
                    Err(RecordError::Rejected(ack.rejected))
                }
            }
            Err(error) => {
                self.sent.lock().expect("mirror lock").push(recorded);
                self.failures
                    .lock()
                    .expect("mirror lock")
                    .push(error.to_string());
                Err(RecordError::Wire(error))
            }
        }
    }

    fn register_group(&self, _group: Group) -> Result<(), RecordError> {
        // The world registers the session group itself, with crash-point-aware retries.
        Ok(())
    }

    fn flush(&self) -> Result<(), RecordError> {
        Ok(())
    }

    fn mode(&self) -> RecordingMode {
        RecordingMode::Synchronous
    }
}

/// Build one of four small fixed topologies with per-task fault behaviour. Everything is a
/// pure function of the operands, so a replayed schedule executes the identical DAG.
fn build_sim_dag(name: &str, shape: u8, transient: u8, broken: u8) -> Result<Dag, Violation> {
    let edges: &[(usize, usize)] = match shape % 4 {
        0 => &[(0, 1), (1, 2), (2, 3)],
        1 => &[(0, 1), (0, 2), (1, 3), (2, 3)],
        2 => &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
        _ => &[(0, 1), (2, 3)],
    };
    let task_count = if shape % 4 == 2 { 5 } else { 4 };
    let build_error = |e: pasoa_dag::DagError| Violation::new("plan", format!("dag build: {e}"));
    let mut spec = DagSpec::new(name);
    let mut ids = Vec::with_capacity(task_count);
    for i in 0..task_count {
        let task = format!("t{i}");
        let doomed = broken & (1 << i) != 0;
        let flaky = transient & (1 << i) != 0;
        let attempts = Arc::new(AtomicU64::new(0));
        let marker = task.clone();
        let activity = FnActivity::new(
            format!("sim-activity-{i}"),
            format!("simulate --task {task}"),
            move |inputs, ctx| {
                let attempt = attempts.fetch_add(1, Ordering::SeqCst);
                if doomed {
                    return Err(ActivityError::new(&marker, "deliberate permanent failure"));
                }
                if flaky && attempt == 0 {
                    return Err(ActivityError::new(&marker, "deliberate transient failure"));
                }
                let mut bytes = Vec::new();
                for item in inputs {
                    bytes.extend_from_slice(&item.bytes);
                }
                bytes.extend_from_slice(marker.as_bytes());
                Ok(vec![DataItem::new(
                    ctx.ids.data_id(),
                    format!("{marker}-out"),
                    bytes,
                )])
            },
        );
        ids.push(
            spec.add_task(task, Arc::new(activity))
                .map_err(build_error)?,
        );
    }
    for &(p, c) in edges {
        spec.add_data_edge(&ids[p], &ids[c]).map_err(build_error)?;
    }
    spec.build().map_err(build_error)
}

/// One simulated feed subscriber: the filter it registered, one wire client per shard it has
/// reached, and the deduplicated set of change-event identities its consumer has processed.
struct FeedSubState {
    /// Durable subscriber name (`sub-{ordinal}`), identical on every shard and the oracle.
    name: String,
    filter: FeedFilter,
    /// Per-shard-index wire clients; a killed consumer drops these and reconnects fresh.
    clients: BTreeMap<usize, FeedSubscriberClient>,
    /// Every change-event identity delivered to the consumer, across replicas and replays.
    delivered: BTreeSet<String>,
}

pub(crate) struct SimWorld {
    config: SimConfig,
    host: ServiceHost,
    cluster: Arc<PreservCluster>,
    transport: Transport,
    golden: Arc<ProvenanceStore>,
    /// The deterministic feed clock shared by every shard queue and the golden oracle queue.
    feed_clock: SimClock,
    /// The oracle feed: a queue over the golden store's backend, subscribed in lockstep with
    /// the cluster. Whatever it enqueues after a subscription, the cluster must deliver.
    golden_feed: Arc<FeedQueue>,
    /// Registered subscribers by ordinal.
    feed_subs: BTreeMap<usize, FeedSubState>,
    /// Per-shard database handles (durable backend only), in shard-index order.
    dbs: Vec<Db>,
    scratch: Option<ScratchDir>,
    /// Next assertion ordinal per `[client][session]`.
    next_index: Vec<Vec<usize>>,
    ids: IdGenerator,
    /// The shard whose service has been killed (at most one per schedule).
    killed: Option<usize>,
    /// The shard with an armed crash point, if any.
    armed: Option<usize>,
    /// Sessions written by executed DAG runs: `(session name, dag name)` in run order. These
    /// take part in every session-level invariant alongside the synthetic client sessions.
    dag_sessions: Vec<(String, String)>,
    /// Deterministic trace-id source: the injection point that keeps replays bit-identical
    /// with observability enabled. One fresh generator per world, no clocks, no randomness.
    trace_ids: TraceIdGen,
    pub(crate) trace: Vec<String>,
}

impl SimWorld {
    pub(crate) fn new(config: &SimConfig) -> Result<Self, Violation> {
        let host = ServiceHost::new();
        let feed_clock = SimClock::new();
        let cluster_config = ClusterConfig {
            shards: config.shards,
            batch_size: config.batch_size,
            virtual_nodes: config.virtual_nodes,
            replication: config.replication,
            feed: Some(FeedOptions {
                config: FeedConfig::default(),
                clock: FeedClock::Simulated(feed_clock.clone()),
            }),
            ..Default::default()
        };
        let deploy_error =
            |e: pasoa_preserv::StoreError| Violation::new("deploy", format!("deploy failed: {e}"));
        let (cluster, dbs, scratch) = match config.backend {
            SimBackend::Memory => {
                let cluster = PreservCluster::deploy_with(&host, cluster_config, |_| {
                    Ok(Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
                })
                .map_err(deploy_error)?;
                (cluster, Vec::new(), None)
            }
            SimBackend::DurableKv => {
                let scratch = ScratchDir::new();
                let mut dbs = Vec::with_capacity(config.shards);
                let mut backends: Vec<Arc<dyn StorageBackend>> = Vec::with_capacity(config.shards);
                for shard in 0..config.shards {
                    let backend = KvBackend::open_with(
                        scratch.path.join(format!("shard-{shard}")),
                        DbOptions::durable(),
                    )
                    .map_err(|e| Violation::new("deploy", format!("open shard {shard}: {e}")))?;
                    dbs.push(backend.db().clone());
                    backends.push(Arc::new(backend));
                }
                let cluster = PreservCluster::deploy_with(&host, cluster_config, move |shard| {
                    Ok(Arc::clone(&backends[shard]))
                })
                .map_err(deploy_error)?;
                (cluster, dbs, Some(scratch))
            }
        };
        let golden_backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let golden = Arc::new(
            ProvenanceStore::open(Arc::clone(&golden_backend))
                .map_err(|e| Violation::new("deploy", format!("golden store: {e}")))?,
        );
        // The oracle queue shares the golden store's backend and the cluster's feed clock;
        // its registry is private so oracle traffic never pollutes the obs fingerprint.
        let golden_feed = FeedQueue::open(
            golden_backend,
            FeedConfig::default(),
            FeedClock::Simulated(feed_clock.clone()),
            &Registry::new(),
        )
        .map_err(|e| Violation::new("deploy", format!("golden feed: {e}")))?;
        golden.set_record_stager(Some(golden_feed.stager()));
        Ok(SimWorld {
            host: host.clone(),
            transport: host.transport(TransportConfig::free()),
            cluster,
            golden,
            feed_clock,
            golden_feed,
            feed_subs: BTreeMap::new(),
            dbs,
            scratch,
            next_index: vec![vec![0; config.sessions_per_client]; config.clients],
            ids: IdGenerator::new("sim"),
            killed: None,
            armed: None,
            dag_sessions: Vec::new(),
            trace_ids: TraceIdGen::new("sim-trace"),
            trace: Vec::new(),
            config: config.clone(),
        })
    }

    fn session_name(&self, client: usize, session: usize) -> String {
        format!("session:sim:c{client}:s{session}")
    }

    fn every_session(&self) -> Vec<(usize, usize)> {
        (0..self.config.clients)
            .flat_map(|c| (0..self.config.sessions_per_client).map(move |s| (c, s)))
            .collect()
    }

    /// Every session id the world may have written: the synthetic client sessions plus one
    /// session per executed DAG run.
    fn all_session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .every_session()
            .into_iter()
            .map(|(c, s)| SessionId::new(self.session_name(c, s)))
            .collect();
        ids.extend(
            self.dag_sessions
                .iter()
                .map(|(session, _)| SessionId::new(session.clone())),
        );
        ids
    }

    /// The deterministic p-assertion `k` of session `(client, session)` — a pure function, so
    /// minimizing a schedule never shifts the content of the ops that remain.
    fn assertion_for(&self, client: usize, session: usize, k: usize) -> RecordedAssertion {
        let sid = SessionId::new(self.session_name(client, session));
        let key =
            |i: usize| InteractionKey::new(format!("interaction:sim:c{client}:s{session}:{i:06}"));
        let data = |i: usize| DataId::new(format!("data:sim:c{client}:s{session}:{i:06}"));
        let asserter = ActorId::new(format!("sim-client-{client}"));
        // Mix the coordinates so the kind pattern differs across sessions but is stable for
        // any given (client, session, k).
        let mix = pasoa_cluster::ring::fnv1a64(format!("kind:{client}:{session}:{k}").as_bytes());
        let assertion = match if k == 0 { 0 } else { mix % 4 } {
            0 | 1 => PAssertion::Interaction(InteractionPAssertion {
                interaction_key: key(k),
                asserter: asserter.clone(),
                view: ViewKind::Sender,
                sender: asserter,
                receiver: ActorId::new("measure-service"),
                operation: "simulate".into(),
                content: PAssertionContent::text(format!("payload c{client}s{session}k{k}")),
                data_ids: vec![data(k)],
            }),
            2 => PAssertion::ActorState(ActorStatePAssertion {
                // Document state for the previous interaction: multiple assertions per
                // interaction key exercise within-interaction ordering.
                interaction_key: key(k - 1),
                asserter,
                view: ViewKind::Receiver,
                kind: ActorStateKind::Script,
                content: PAssertionContent::text(format!("script c{client}s{session}k{k}")),
            }),
            _ => {
                let mut causes = vec![(key(k - 1), data(k - 1))];
                if k >= 4 {
                    causes.push((key(k / 2), data(k / 2)));
                }
                PAssertion::Relationship(RelationshipPAssertion {
                    interaction_key: key(k),
                    asserter,
                    effect: data(k),
                    causes,
                    relation: "derived-from".into(),
                })
            }
        };
        RecordedAssertion {
            session: sid,
            assertion,
        }
    }

    /// If an armed crash point has fired (its database crashed) and the shard's service has
    /// not been killed yet, complete the power loss: the host is gone, so its service becomes
    /// unreachable. Returns whether a crash was absorbed.
    fn absorb_crash_point(&mut self) -> bool {
        let Some(armed) = self.armed else {
            return false;
        };
        if self.killed == Some(armed) || !self.dbs[armed].is_crashed() {
            return false;
        }
        let name = self.cluster.router().shard_names()[armed].clone();
        self.host.fault_injector().kill(name);
        self.killed = Some(armed);
        self.trace.push(format!(
            "      crash point fired: shard {armed} lost power, service killed"
        ));
        true
    }

    /// Run a fallible cluster interaction, absorbing at most a few armed-crash-point firings
    /// (each one kills the crashed shard and retries, as an operator-less failover would).
    /// Any error not explained by a crash point is an availability violation.
    fn with_crash_retry<T>(
        &mut self,
        what: &str,
        f: impl Fn(&SimWorld) -> Result<T, String>,
    ) -> Result<T, Violation> {
        for _ in 0..3 {
            let outcome = f(self);
            match outcome {
                Ok(value) => return Ok(value),
                Err(detail) => {
                    if self.absorb_crash_point() {
                        continue;
                    }
                    return Err(Violation::new(
                        "availability",
                        format!("{what} failed without an injected cause: {detail}"),
                    ));
                }
            }
        }
        Err(Violation::new(
            "availability",
            format!("{what} kept failing after absorbing the crash point"),
        ))
    }

    /// Reject ops whose coordinates don't fit this world — a hand-transcribed replay schedule
    /// run against the wrong `SimConfig` must fail with a readable violation naming the
    /// mismatch, not an index panic deep in the executor.
    fn validate(&self, op: &SimOp) -> Result<(), Violation> {
        let plan_error = |detail: String| Err(Violation::new("plan", detail));
        let shard_in_range = |victim: usize| {
            if victim >= self.config.shards {
                plan_error(format!(
                    "{op} targets shard {victim}, but the plan deploys only {} initial shards",
                    self.config.shards
                ))
            } else {
                Ok(())
            }
        };
        let client_session = |client: usize, session: usize| {
            if client >= self.config.clients || session >= self.config.sessions_per_client {
                plan_error(format!(
                    "{op} addresses client {client} session {session}, but the plan has {} \
                     clients x {} sessions",
                    self.config.clients, self.config.sessions_per_client
                ))
            } else {
                Ok(())
            }
        };
        match *op {
            SimOp::Record {
                client, session, ..
            }
            | SimOp::RegisterGroup { client, session }
            | SimOp::Query(
                QueryKind::Session { client, session }
                | QueryKind::Lineage { client, session }
                | QueryKind::WireSession { client, session },
            ) => client_session(client, session),
            SimOp::KillShard { victim } | SimOp::Revive { victim } => shard_in_range(victim),
            SimOp::CrashShard { victim } | SimOp::ArmCrashPoint { victim, .. } => {
                if self.config.backend != SimBackend::DurableKv {
                    return plan_error(format!(
                        "{op} requires the durable backend, but the plan runs {} shards",
                        self.config.backend.label()
                    ));
                }
                shard_in_range(victim)
            }
            // RunDag normalizes all of its operands internally, so any byte pattern is
            // valid; the feed ops derive their coordinates from the config the same way.
            SimOp::Flush
            | SimOp::AddShard
            | SimOp::Query(_)
            | SimOp::RunDag { .. }
            | SimOp::Subscribe { .. }
            | SimOp::FeedDrain { .. }
            | SimOp::KillSubscriber { .. } => Ok(()),
        }
    }

    pub(crate) fn execute(&mut self, op: &SimOp) -> Result<(), Violation> {
        self.validate(op)?;
        match op {
            SimOp::Record {
                client,
                session,
                assertions,
            } => self.execute_record(*client, *session, *assertions),
            SimOp::RegisterGroup { client, session } => {
                self.execute_register_group(*client, *session)
            }
            SimOp::Flush => {
                self.with_crash_retry("flush", |w| w.cluster.flush().map_err(|e| e.to_string()))?;
                self.trace.push("      flushed".into());
                Ok(())
            }
            SimOp::Query(kind) => self.execute_query(*kind),
            SimOp::AddShard => self.execute_add_shard(),
            SimOp::KillShard { victim } => {
                let name = self.cluster.router().shard_names()[*victim].clone();
                self.host.fault_injector().kill(name);
                self.killed = Some(*victim);
                self.trace.push(format!("      shard {victim} killed"));
                Ok(())
            }
            SimOp::CrashShard { victim } => {
                // Power loss: the database discards everything past its last fsync, then the
                // host drops off the network.
                let _ = self.dbs[*victim].crash();
                let name = self.cluster.router().shard_names()[*victim].clone();
                self.host.fault_injector().kill(name);
                self.killed = Some(*victim);
                self.trace
                    .push(format!("      shard {victim} crashed (database + service)"));
                Ok(())
            }
            SimOp::ArmCrashPoint {
                victim,
                after_appends,
            } => {
                self.dbs[*victim].arm_crash_after_appends(*after_appends);
                self.armed = Some(*victim);
                self.trace.push(format!(
                    "      shard {victim} armed to lose power after {after_appends} appends"
                ));
                Ok(())
            }
            SimOp::Revive { victim } => {
                let name = self.cluster.router().shard_names()[*victim].clone();
                let was_down = self.host.fault_injector().revive(&name);
                let detected = self.cluster.router().stats().failovers > 0;
                self.trace.push(format!(
                    "      shard {victim} revived (was_down={was_down}, failover_already_ran={detected})"
                ));
                // The revived shard lost no storage, but it missed any subscription
                // registered while it was down — re-register before the next record
                // can route to it, or its change events would never be enqueued.
                self.ensure_feed_clients()?;
                Ok(())
            }
            SimOp::RunDag {
                shape,
                transient,
                broken,
                policy,
                ..
            } => self.execute_run_dag(*shape, *transient, *broken, *policy),
            SimOp::Subscribe { subscriber, filter } => self.execute_subscribe(*subscriber, *filter),
            SimOp::FeedDrain { rounds } => self.execute_feed_drain(*rounds),
            SimOp::KillSubscriber { subscriber } => self.execute_kill_subscriber(*subscriber),
        }
    }

    /// Execute a small DAG through the real `pasoa-dag` executor, every state transition
    /// recorded into the cluster over the simulated wire. Afterwards the executed DAG must be
    /// reconstructible bit-exactly from the cluster's provenance answer alone — unless an
    /// armed crash point interrupted recording, in which case only durability is owed (a
    /// best-effort failure event may legitimately be missing from the record).
    fn execute_run_dag(
        &mut self,
        shape: u8,
        transient: u8,
        broken: u8,
        policy: u8,
    ) -> Result<(), Violation> {
        let ordinal = self.dag_sessions.len();
        let session = format!("session:sim:dag:{ordinal}");
        let dag_name = format!("sim-dag-{ordinal}");
        let dag = build_sim_dag(&dag_name, shape, transient, broken)?;
        let failure_policy = if policy.is_multiple_of(2) {
            FailurePolicy::Continue
        } else {
            FailurePolicy::FailFast
        };
        // A dedicated id generator per run keeps the main sequence untouched and the run a
        // pure function of its ordinal; one worker keeps the transition order deterministic.
        let ids = IdGenerator::new(format!("simdag{ordinal}"));
        let recorder = Arc::new(MirrorRecorder::new(
            SessionId::new(session.clone()),
            self.host.transport(TransportConfig::free()),
            ids.clone(),
            self.trace_ids.clone(),
        ));
        let executor = Executor::new(
            Arc::clone(&recorder) as Arc<dyn ProvenanceRecorder>,
            ids,
            ExecutorConfig {
                workers: 1,
                failure_policy,
                retry: RetryPolicy::retries(2, Duration::ZERO, Duration::ZERO),
                record_extra_actor_state: false,
                register_group: false,
            },
        )
        .with_actor(ActorId::new("sim-dag-executor"));
        let run = executor.run(&dag, BTreeMap::new());

        // Whatever the tier durably holds — acked, or preserved for redelivery after a
        // crash-point send failure — the golden model must also hold.
        let sent = recorder.sent();
        self.golden_record(&sent)?;
        self.dag_sessions.push((session.clone(), dag_name.clone()));
        let failures = recorder.failures();
        if !failures.is_empty() {
            if !self.absorb_crash_point() {
                return Err(Violation::new(
                    "availability",
                    format!(
                        "dag {dag_name} recording failed without an injected cause: {}",
                        failures[0]
                    ),
                ));
            }
            self.trace.push(format!(
                "      dag {dag_name} hit the crash point ({} failed sends preserved)",
                failures.len()
            ));
        }

        let report = match run {
            Ok(report) => report,
            Err(error) => {
                // `run` only errors on run-level recording failures; those must be explained
                // by the crash point absorbed above.
                if failures.is_empty() {
                    return Err(Violation::new(
                        "availability",
                        format!("dag {dag_name} aborted without an injected cause: {error}"),
                    ));
                }
                self.trace
                    .push(format!("      dag {dag_name} aborted at the crash point"));
                return Ok(());
            }
        };
        self.register_group_with_retry(executor.session_group(), &dag_name)?;

        if failures.is_empty() {
            self.with_crash_retry("dag flush", |w| {
                w.cluster.flush().map_err(|e| e.to_string())
            })?;
            let answer = {
                let sid = SessionId::new(session.clone());
                self.with_crash_retry("dag session query", move |w| {
                    w.cluster
                        .assertions_for_session(&sid)
                        .map_err(|e| e.to_string())
                })?
            };
            let from_provenance = ExecutedDag::from_assertions(&dag_name, &answer);
            let from_report = ExecutedDag::from_report(&dag, &report);
            if from_provenance != from_report {
                return Err(Violation::new(
                    "dag-reconstruction",
                    format!(
                        "dag {dag_name} reconstructed from provenance diverges from the \
                         executor's report: provenance {}, report {}",
                        serde_json::to_string(&from_provenance).expect("executed dag serializes"),
                        serde_json::to_string(&from_report).expect("executed dag serializes"),
                    ),
                ));
            }
        }
        self.trace.push(format!(
            "      dag {dag_name} ran ({}, shape {}): {} completed, {} failed, {} skipped, \
             {} attempts",
            failure_policy.label(),
            shape % 4,
            report.count(pasoa_dag::TaskState::Completed),
            report.count(pasoa_dag::TaskState::Failed),
            report.count(pasoa_dag::TaskState::Skipped),
            report.total_attempts(),
        ));
        Ok(())
    }

    fn execute_record(
        &mut self,
        client: usize,
        session: usize,
        assertions: usize,
    ) -> Result<(), Violation> {
        let first = self.next_index[client][session];
        self.next_index[client][session] += assertions;
        let batch: Vec<RecordedAssertion> = (first..first + assertions)
            .map(|k| self.assertion_for(client, session, k))
            .collect();
        let message = PrepMessage::Record(RecordMessage {
            message_id: self.ids.message_id(),
            asserter: ActorId::new(format!("sim-client-{client}")),
            assertions: batch.clone(),
        });
        let envelope = Envelope::request(PROVENANCE_STORE_SERVICE, message.action())
            .with_json_payload(&message)
            .map_err(|e| Violation::new("wire", format!("encode record: {e}")))?
            .with_trace(&self.trace_ids.next());
        match self.transport.call(envelope) {
            Ok(response) => {
                let ack: RecordAck = response
                    .json_payload()
                    .map_err(|e| Violation::new("wire", format!("decode ack: {e}")))?;
                if ack.accepted != assertions || !ack.fully_accepted() {
                    return Err(Violation::new(
                        "ack",
                        format!(
                            "record c{client}s{session} acked {}/{} with {} rejections",
                            ack.accepted,
                            assertions,
                            ack.rejected.len()
                        ),
                    ));
                }
                self.golden_record(&batch)?;
                self.trace
                    .push(format!("      acked {assertions} (k {first}..)"));
                Ok(())
            }
            Err(error) => {
                if self.absorb_crash_point() {
                    // The failed send restored the whole batch into the (now dead) shard's
                    // buffer; failover redistributes it and the next flush delivers it. The
                    // client saw an error, but the write is nonetheless durable in the tier —
                    // so the golden model must include it, or a later query would report the
                    // delivered copy as phantom data.
                    self.golden_record(&batch)?;
                    self.trace.push(
                        "      record failed at the crash point; batch preserved for redelivery"
                            .to_string(),
                    );
                    Ok(())
                } else {
                    Err(Violation::new(
                        "availability",
                        format!(
                            "record c{client}s{session} failed without an injected cause: {error}"
                        ),
                    ))
                }
            }
        }
    }

    fn golden_record(&self, batch: &[RecordedAssertion]) -> Result<(), Violation> {
        self.golden
            .record_all(batch)
            .map(|_| ())
            .map_err(|e| Violation::new("golden", format!("golden store rejected a batch: {e}")))
    }

    fn execute_register_group(&mut self, client: usize, session: usize) -> Result<(), Violation> {
        let group = Group::new(self.session_name(client, session), GroupKind::Session);
        let what = format!("c{client}s{session}");
        self.register_group_with_retry(group, &what)
    }

    /// Register a group over the wire with crash-point-aware retries, mirroring it into the
    /// golden store on success.
    fn register_group_with_retry(&mut self, group: Group, what: &str) -> Result<(), Violation> {
        for _ in 0..3 {
            let message = PrepMessage::RegisterGroup(group.clone());
            let envelope = Envelope::request(PROVENANCE_STORE_SERVICE, message.action())
                .with_json_payload(&message)
                .map_err(|e| Violation::new("wire", format!("encode group: {e}")))?;
            match self.transport.call(envelope) {
                Ok(_) => {
                    self.golden.register_group(&group).map_err(|e| {
                        Violation::new("golden", format!("golden group registration: {e}"))
                    })?;
                    self.trace.push("      group registered".into());
                    return Ok(());
                }
                Err(error) => {
                    // A registration is not buffered: a failure at the crash point means it
                    // was NOT applied, so the client (this harness) retries it after the
                    // failover, like any store client would.
                    if self.absorb_crash_point() {
                        self.trace
                            .push("      registration failed at the crash point; retrying".into());
                        continue;
                    }
                    return Err(Violation::new(
                        "availability",
                        format!("register-group {what} failed without an injected cause: {error}"),
                    ));
                }
            }
        }
        Err(Violation::new(
            "availability",
            "group registration kept failing after absorbing the crash point".to_string(),
        ))
    }

    fn execute_add_shard(&mut self) -> Result<(), Violation> {
        match self.config.backend {
            SimBackend::Memory => {
                self.with_crash_retry("add-shard", |w| {
                    w.cluster.add_shard().map(|_| ()).map_err(|e| e.to_string())
                })?;
            }
            SimBackend::DurableKv => {
                let scratch = self
                    .scratch
                    .as_ref()
                    .expect("durable worlds own a scratch dir")
                    .path
                    .clone();
                for attempt in 0..3 {
                    let index = self.cluster.shard_count();
                    let backend = KvBackend::open_with(
                        scratch.join(format!("shard-{index}-attempt-{attempt}")),
                        DbOptions::durable(),
                    )
                    .map_err(|e| Violation::new("deploy", format!("open added shard: {e}")))?;
                    let db = backend.db().clone();
                    match self.cluster.add_shard_with(Arc::new(backend)) {
                        Ok(_) => {
                            self.dbs.push(db);
                            break;
                        }
                        Err(error) => {
                            if self.absorb_crash_point() {
                                continue;
                            }
                            return Err(Violation::new(
                                "availability",
                                format!("add-shard failed without an injected cause: {error}"),
                            ));
                        }
                    }
                }
            }
        }
        self.trace.push(format!(
            "      cluster grown to {} shards",
            self.cluster.shard_count()
        ));
        // Register every live subscriber on the new shard before any flush can route a
        // batch there — an unsubscribed shard would silently swallow its change events.
        self.ensure_feed_clients()?;
        Ok(())
    }

    /// Deterministic filter selection for a [`SimOp::Subscribe`] byte: every third byte picks
    /// one of the three enqueue-time filter kinds, with the session/actor coordinates drawn
    /// from the remaining bits. Lineage filters need a chosen ancestor and are exercised by
    /// the end-to-end tests instead.
    fn filter_for(&self, byte: u8) -> FeedFilter {
        let client = ((byte >> 2) as usize) % self.config.clients.max(1);
        let session = ((byte >> 4) as usize) % self.config.sessions_per_client.max(1);
        match byte % 3 {
            0 => FeedFilter::All,
            1 => FeedFilter::BySession {
                session: self.session_name(client, session),
            },
            _ => FeedFilter::ByActor {
                actor: format!("sim-client-{client}"),
            },
        }
    }

    /// Register a subscriber on the golden oracle and on every reachable shard. The cluster
    /// is flushed first so both sides agree bit-for-bit on which records precede the
    /// subscription. Re-subscribing an existing ordinal reconnects it (original filter kept,
    /// consumer watermarks discarded) — the same replay path a killed consumer takes.
    fn execute_subscribe(&mut self, subscriber: usize, filter_byte: u8) -> Result<(), Violation> {
        if let Some(sub) = self.feed_subs.get_mut(&subscriber) {
            sub.clients.clear();
            self.trace.push(format!(
                "      sub-{subscriber} reconnected; replays from durable floors"
            ));
            return self.ensure_feed_clients();
        }
        self.with_crash_retry("pre-subscribe flush", |w| {
            w.cluster.flush().map_err(|e| e.to_string())
        })?;
        let filter = self.filter_for(filter_byte);
        let name = format!("sub-{subscriber}");
        self.golden_feed
            .subscribe(&name, filter.clone())
            .map_err(|e| Violation::new("feed-golden", format!("oracle subscribe: {e}")))?;
        self.feed_subs.insert(
            subscriber,
            FeedSubState {
                name,
                filter: filter.clone(),
                clients: BTreeMap::new(),
                delivered: BTreeSet::new(),
            },
        );
        self.ensure_feed_clients()?;
        let shards = self.feed_subs[&subscriber].clients.len();
        self.trace.push(format!(
            "      subscribed sub-{subscriber} ({filter:?}) on {shards} shards"
        ));
        Ok(())
    }

    /// Connect (and thereby register) every subscriber on every shard it has not reached
    /// yet. A connect refused by a killed shard — or by one the armed crash point takes down
    /// right now — is skipped: its events are owed by the replica holders instead, and a
    /// later revive re-runs this to close the gap.
    fn ensure_feed_clients(&mut self) -> Result<(), Violation> {
        if self.feed_subs.is_empty() {
            return Ok(());
        }
        let names = self.cluster.router().shard_names();
        let mut subs = std::mem::take(&mut self.feed_subs);
        let mut result = Ok(());
        'outer: for sub in subs.values_mut() {
            for (index, service) in names.iter().enumerate() {
                if sub.clients.contains_key(&index) {
                    continue;
                }
                let mut client = FeedSubscriberClient::new(
                    self.host.transport(TransportConfig::free()),
                    service.clone(),
                    sub.name.clone(),
                    sub.filter.clone(),
                );
                match client.connect() {
                    Ok(_) => {
                        sub.clients.insert(index, client);
                    }
                    Err(error) => {
                        if self.absorb_crash_point() || self.killed == Some(index) {
                            continue;
                        }
                        result = Err(Violation::new(
                            "feed-availability",
                            format!(
                                "subscribing {} on shard {index} failed without an injected \
                                 cause: {error}",
                                sub.name
                            ),
                        ));
                        break 'outer;
                    }
                }
            }
        }
        self.feed_subs = subs;
        result
    }

    /// One delivery pass: every subscriber polls every connected shard to quiescence,
    /// acknowledging as it goes, deduplicating replicated copies by content identity.
    /// Returns how many events reached consumers for the first time.
    fn feed_pass(&mut self) -> Result<usize, Violation> {
        let mut fresh_total = 0usize;
        let mut subs = std::mem::take(&mut self.feed_subs);
        let mut failure = None;
        'outer: for sub in subs.values_mut() {
            for (&index, client) in sub.clients.iter_mut() {
                loop {
                    let watermark = client.last_seen();
                    match client.poll_once(32) {
                        Ok(events) => {
                            let mut last = watermark;
                            for delivered in &events {
                                if delivered.seq <= last {
                                    failure = Some(Violation::new(
                                        "feed-order",
                                        format!(
                                            "{} got seq {} after {} from shard {index}",
                                            sub.name, delivered.seq, last
                                        ),
                                    ));
                                    break 'outer;
                                }
                                last = delivered.seq;
                                match &delivered.event.body {
                                    FeedEventBody::Change(_) => {
                                        if sub.delivered.insert(delivered.event.event_id.clone()) {
                                            fresh_total += 1;
                                        }
                                    }
                                    FeedEventBody::Overflow { dropped } => {
                                        failure = Some(Violation::new(
                                            "feed-overflow",
                                            format!(
                                                "{} overflowed on shard {index} ({dropped} \
                                                 dropped) under a cap the schedule cannot fill",
                                                sub.name
                                            ),
                                        ));
                                        break 'outer;
                                    }
                                }
                            }
                            // Progress is watermark movement, not fresh events: a replayed
                            // window after a reconnect is all duplicates yet must not end
                            // the drain.
                            if client.last_seen() == watermark {
                                break;
                            }
                        }
                        Err(error) => {
                            if self.absorb_crash_point() || self.killed == Some(index) {
                                break;
                            }
                            failure = Some(Violation::new(
                                "feed-availability",
                                format!(
                                    "feed poll of {} on shard {index} failed without an \
                                     injected cause: {error}",
                                    sub.name
                                ),
                            ));
                            break 'outer;
                        }
                    }
                }
            }
        }
        self.feed_subs = subs;
        match failure {
            Some(violation) => Err(violation),
            None => Ok(fresh_total),
        }
    }

    fn execute_feed_drain(&mut self, rounds: usize) -> Result<(), Violation> {
        self.ensure_feed_clients()?;
        self.feed_clock.advance(Duration::from_millis(50));
        let mut fresh = 0usize;
        for _ in 0..rounds.max(1) {
            fresh += self.feed_pass()?;
        }
        self.trace.push(format!(
            "      feed drained {fresh} fresh events across {} subscribers",
            self.feed_subs.len()
        ));
        Ok(())
    }

    fn execute_kill_subscriber(&mut self, subscriber: usize) -> Result<(), Violation> {
        match self.feed_subs.get_mut(&subscriber) {
            Some(sub) => {
                sub.clients.clear();
                self.trace.push(format!(
                    "      subscriber sub-{subscriber} killed; replacement replays from \
                     durable floors"
                ));
            }
            None => self.trace.push(format!(
                "      subscriber sub-{subscriber} never subscribed; kill is a no-op"
            )),
        }
        Ok(())
    }

    /// Every change-event identity in the golden store that `filter` admits, regardless of
    /// when it was recorded — the phantom-check universe. A failover legitimately replays a
    /// promoted session's full history through the record path, so a mid-run subscriber may
    /// receive matching events from before its subscription; what it must never receive is
    /// an event outside this universe.
    fn feed_universe(&self, filter: &FeedFilter) -> Result<BTreeSet<String>, Violation> {
        let mut universe = BTreeSet::new();
        for sid in self.all_session_ids() {
            let assertions = self
                .golden
                .assertions_for_session(&sid)
                .map_err(|e| Violation::new("golden", e.to_string()))?;
            for recorded in assertions {
                let event = FeedEvent {
                    event_id: event_identity(&recorded),
                    body: FeedEventBody::Change(recorded),
                    enqueued_nanos: 0,
                };
                if filter.enqueue_matches(&event) {
                    universe.insert(event.event_id);
                }
            }
        }
        Ok(universe)
    }

    /// Settle the subscription tier: drain every feed to quiescence (flushing in between, so
    /// crash-point firings and their promotion replays are absorbed), then hold each
    /// subscriber against the oracle — exactly-once is the pair of set containments checked
    /// here. Loss: everything the golden feed enqueued after the subscription reached the
    /// consumer. Phantom: nothing reached the consumer that no golden assertion explains.
    fn settle_feed(&mut self) -> Result<(), Violation> {
        if self.feed_subs.is_empty() {
            return Ok(());
        }
        for _ in 0..6 {
            self.ensure_feed_clients()?;
            self.feed_clock.advance(Duration::from_millis(100));
            if self.feed_pass()? == 0 {
                break;
            }
            self.with_crash_retry("feed settle flush", |w| {
                w.cluster.flush().map_err(|e| e.to_string())
            })?;
        }
        let ordinals: Vec<usize> = self.feed_subs.keys().copied().collect();
        for ordinal in ordinals {
            let (name, filter, delivered) = {
                let sub = &self.feed_subs[&ordinal];
                (sub.name.clone(), sub.filter.clone(), sub.delivered.clone())
            };
            let golden_fault =
                |e: pasoa_feed::FeedError| Violation::new("feed-golden", e.to_string());
            let mut owed = BTreeSet::new();
            loop {
                let batch = self.golden_feed.poll(&name, 64).map_err(golden_fault)?;
                if batch.ack_up_to == 0 {
                    break;
                }
                for event in &batch.events {
                    if matches!(event.event.body, FeedEventBody::Change(_)) {
                        owed.insert(event.event.event_id.clone());
                    }
                }
                self.golden_feed
                    .ack(&name, batch.ack_up_to)
                    .map_err(golden_fault)?;
            }
            for id in &owed {
                if !delivered.contains(id) {
                    return Err(Violation::new(
                        "feed-loss",
                        format!(
                            "{name} never received {id}, which the golden feed enqueued after \
                             its subscription"
                        ),
                    ));
                }
            }
            let universe = self.feed_universe(&filter)?;
            for id in &delivered {
                if !universe.contains(id) {
                    return Err(Violation::new(
                        "feed-phantom",
                        format!(
                            "{name} received {id}, which matches no golden assertion under \
                             its filter"
                        ),
                    ));
                }
            }
            self.trace.push(format!(
                "      feed {name} ok ({} delivered, {} owed, universe {})",
                delivered.len(),
                owed.len(),
                universe.len()
            ));
        }
        Ok(())
    }

    fn execute_query(&mut self, kind: QueryKind) -> Result<(), Violation> {
        match kind {
            QueryKind::Session { client, session } => self.check_session(client, session),
            QueryKind::Statistics => self.check_statistics(),
            QueryKind::Interactions => self.check_interactions(),
            QueryKind::Groups => self.check_groups(),
            QueryKind::Lineage { client, session } => self.check_lineage(client, session),
            QueryKind::WireSession { client, session } => self.check_wire_query(
                QueryRequest::BySession(SessionId::new(self.session_name(client, session))),
            ),
            QueryKind::WireStatistics => self.check_wire_query(QueryRequest::Statistics),
        }
    }

    /// Zero acked loss, zero phantom data, exactly-once: one session's cluster answer equals
    /// the golden store's, and its assertions live on exactly one live shard each.
    fn check_session(&mut self, client: usize, session: usize) -> Result<(), Violation> {
        let sid = SessionId::new(self.session_name(client, session));
        self.check_named_session(&sid)
    }

    /// [`check_session`](Self::check_session) by session id, shared with DAG run sessions.
    fn check_named_session(&mut self, sid: &SessionId) -> Result<(), Violation> {
        let sid = sid.clone();
        let got = {
            let sid = sid.clone();
            self.with_crash_retry("session query", move |w| {
                w.cluster
                    .assertions_for_session(&sid)
                    .map_err(|e| e.to_string())
            })?
        };
        let expected = self
            .golden
            .assertions_for_session(&sid)
            .map_err(|e| Violation::new("golden", e.to_string()))?;
        if got != expected {
            return Err(Violation::new(
                "acked-visibility",
                format!(
                    "session {} answered {} assertions, golden holds {}",
                    sid.as_str(),
                    got.len(),
                    expected.len()
                ),
            ));
        }
        // Exactly-once: summed per-live-shard counts must equal the merged answer (a promoted
        // copy surviving next to the original would double here even if the merge masked it).
        let mut per_store_total = 0usize;
        for store in self.cluster.live_stores() {
            per_store_total += store
                .assertions_for_session(&sid)
                .map_err(|e| Violation::new("availability", e.to_string()))?
                .len();
        }
        if per_store_total != expected.len() {
            return Err(Violation::new(
                "exactly-once",
                format!(
                    "session {} holds {} copies across live shards, expected {}",
                    sid.as_str(),
                    per_store_total,
                    expected.len()
                ),
            ));
        }
        // Index/scan equivalence: every live shard's indexed answer and its bulk-retrieval
        // scan answer, merged, must both reproduce the golden answer bit-for-bit — the query
        // runs both ways against the oracle on every schedule.
        self.check_dual_path_session(&sid, &expected)?;
        // And the paginated scatter-gather must stream the same answer in bounded pages.
        self.check_paginated_session(&sid, &expected)?;
        self.trace.push(format!(
            "      session answer ok ({} assertions)",
            got.len()
        ));
        Ok(())
    }

    /// Merge every live shard's indexed answer and scan answer separately; both must equal
    /// the golden store's.
    fn check_dual_path_session(
        &mut self,
        sid: &SessionId,
        expected: &[RecordedAssertion],
    ) -> Result<(), Violation> {
        let request = QueryRequest::BySession(sid.clone());
        let mut indexed_per_shard = Vec::new();
        let mut scanned_per_shard = Vec::new();
        for store in self.cluster.live_stores() {
            let decoded = |path| {
                store
                    .documents_via(&request, path)
                    .and_then(|documents| store.decode_documents(documents))
                    .map_err(|e| Violation::new("availability", e.to_string()))
            };
            indexed_per_shard.push(decoded(AccessPath::SessionIndex)?);
            scanned_per_shard.push(decoded(AccessPath::FullScan)?);
        }
        let merged = |per_shard| -> Vec<RecordedAssertion> {
            pasoa_cluster::merge::merge_documents(per_shard)
                .into_iter()
                .map(|(_, recorded)| recorded)
                .collect()
        };
        let indexed = merged(indexed_per_shard);
        if indexed != expected {
            return Err(Violation::new(
                "index-equivalence",
                format!(
                    "indexed answer for {} has {} assertions, golden {}",
                    sid.as_str(),
                    indexed.len(),
                    expected.len()
                ),
            ));
        }
        let scanned = merged(scanned_per_shard);
        if scanned != expected {
            return Err(Violation::new(
                "index-equivalence",
                format!(
                    "scan answer for {} has {} assertions, golden {}",
                    sid.as_str(),
                    scanned.len(),
                    expected.len()
                ),
            ));
        }
        Ok(())
    }

    /// Page through the cluster's cursor-carrying path and compare the concatenation.
    fn check_paginated_session(
        &mut self,
        sid: &SessionId,
        expected: &[RecordedAssertion],
    ) -> Result<(), Violation> {
        let mut streamed: Vec<RecordedAssertion> = Vec::new();
        let mut cursor: Option<pasoa_core::prep::PageCursor> = None;
        loop {
            let page = {
                let sid = sid.clone();
                let cursor = cursor.clone();
                self.with_crash_retry("paged session query", move |w| {
                    w.cluster
                        .query_page(&pasoa_core::prep::PagedQuery {
                            request: QueryRequest::BySession(sid.clone()),
                            cursor: cursor.clone(),
                            page_size: 3,
                        })
                        .map_err(|e| e.to_string())
                })?
            };
            streamed.extend(page.assertions);
            if streamed.len() > expected.len() {
                break; // caught below: more pages than the golden answer holds
            }
            match page.next {
                Some(next) => cursor = Some(next),
                None => break,
            }
        }
        if streamed != expected {
            return Err(Violation::new(
                "pagination",
                format!(
                    "paged answer for {} streamed {} assertions, golden holds {}",
                    sid.as_str(),
                    streamed.len(),
                    expected.len()
                ),
            ));
        }
        Ok(())
    }

    fn check_statistics(&mut self) -> Result<(), Violation> {
        let got = self.with_crash_retry("statistics query", |w| {
            w.cluster.statistics().map_err(|e| e.to_string())
        })?;
        let expected = self.golden.statistics();
        if got != expected {
            return Err(Violation::new(
                "scatter-gather",
                format!("statistics diverged: cluster {got:?}, golden {expected:?}"),
            ));
        }
        self.trace.push(format!(
            "      statistics ok ({} assertions)",
            got.total_passertions()
        ));
        Ok(())
    }

    fn check_interactions(&mut self) -> Result<(), Violation> {
        let got = self.with_crash_retry("interaction listing", |w| {
            w.cluster.list_interactions(None).map_err(|e| e.to_string())
        })?;
        let expected = self
            .golden
            .list_interactions(None)
            .map_err(|e| Violation::new("golden", e.to_string()))?;
        if got != expected {
            return Err(Violation::new(
                "scatter-gather",
                format!(
                    "interaction listing diverged: cluster {} keys, golden {} keys",
                    got.len(),
                    expected.len()
                ),
            ));
        }
        self.trace
            .push(format!("      interactions ok ({} keys)", got.len()));
        Ok(())
    }

    fn check_groups(&mut self) -> Result<(), Violation> {
        let got = self.with_crash_retry("group listing", |w| {
            w.cluster
                .groups_by_kind("session")
                .map_err(|e| e.to_string())
        })?;
        let expected = self
            .golden
            .groups_by_kind("session")
            .map_err(|e| Violation::new("golden", e.to_string()))?;
        if got != expected {
            return Err(Violation::new(
                "scatter-gather",
                format!(
                    "group listing diverged: cluster {} groups, golden {}",
                    got.len(),
                    expected.len()
                ),
            ));
        }
        self.trace.push(format!("      groups ok ({})", got.len()));
        Ok(())
    }

    /// Lineage closure integrity: the merged derivation graph equals the golden one, and every
    /// cause referenced by a relationship is present as a node or a known root.
    fn check_lineage(&mut self, client: usize, session: usize) -> Result<(), Violation> {
        let sid = SessionId::new(self.session_name(client, session));
        self.check_named_lineage(&sid)
    }

    /// [`check_lineage`](Self::check_lineage) by session id, shared with DAG run sessions.
    fn check_named_lineage(&mut self, sid: &SessionId) -> Result<(), Violation> {
        let sid = sid.clone();
        let got = {
            let sid = sid.clone();
            self.with_crash_retry("lineage query", move |w| {
                w.cluster.lineage_session(&sid).map_err(|e| e.to_string())
            })?
        };
        let expected = LineageGraph::trace_session(&self.golden, &sid)
            .map_err(|e| Violation::new("golden", e.to_string()))?;
        if got != expected {
            return Err(Violation::new(
                "lineage",
                format!(
                    "lineage of {} diverged: cluster {} nodes, golden {}",
                    sid.as_str(),
                    got.nodes.len(),
                    expected.nodes.len()
                ),
            ));
        }
        // Index/scan equivalence for the lineage paths: the per-shard edge-index graphs and
        // the per-shard scan graphs must both merge to the golden graph, and a lineage
        // closure through the adjacency index must match the trace-then-filter answer.
        {
            let mut indexed_per_shard = Vec::new();
            let mut scanned_per_shard = Vec::new();
            for store in self.cluster.live_stores() {
                let indexed = QueryEngine::with_mode(Arc::clone(&store), PlanMode::ForceIndex)
                    .lineage_session(&sid)
                    .map_err(|e| Violation::new("availability", e.to_string()))?;
                let scanned = QueryEngine::with_mode(store, PlanMode::ForceScan)
                    .lineage_session(&sid)
                    .map_err(|e| Violation::new("availability", e.to_string()))?;
                indexed_per_shard.push(indexed);
                scanned_per_shard.push(scanned);
            }
            for (label, graphs) in [("indexed", indexed_per_shard), ("scan", scanned_per_shard)] {
                let merged = pasoa_cluster::merge::merge_lineage(graphs);
                if merged != expected {
                    return Err(Violation::new(
                        "index-equivalence",
                        format!(
                            "{label} lineage of {} has {} nodes, golden {}",
                            sid.as_str(),
                            merged.nodes.len(),
                            expected.nodes.len()
                        ),
                    ));
                }
            }
            if let Some(target) = expected.nodes.keys().next_back().cloned() {
                let target = DataId::new(target);
                let closure_expected = LineageGraph::trace(&self.golden, &sid, &target)
                    .map_err(|e| Violation::new("golden", e.to_string()))?;
                let closure_indexed =
                    QueryEngine::with_mode(Arc::clone(&self.golden), PlanMode::ForceIndex)
                        .lineage_closure(&sid, &target)
                        .map_err(|e| Violation::new("golden", e.to_string()))?;
                if closure_indexed != closure_expected {
                    return Err(Violation::new(
                        "index-equivalence",
                        format!(
                            "edge-index closure of {} in {} has {} nodes, trace has {}",
                            target.as_str(),
                            sid.as_str(),
                            closure_indexed.nodes.len(),
                            closure_expected.nodes.len()
                        ),
                    ));
                }
            }
        }
        // Closure: walking every edge backwards stays inside the graph-or-roots universe —
        // a lost shard must never leave a dangling derivation.
        let recorded = self
            .golden
            .assertions_for_session(&sid)
            .map_err(|e| Violation::new("golden", e.to_string()))?;
        let mut known_data: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for r in &recorded {
            match &r.assertion {
                PAssertion::Interaction(i) => {
                    known_data.extend(i.data_ids.iter().map(|d| d.as_str().to_string()))
                }
                PAssertion::Relationship(rel) => {
                    known_data.insert(rel.effect.as_str().to_string());
                    known_data.extend(rel.causes.iter().map(|(_, d)| d.as_str().to_string()));
                }
                PAssertion::ActorState(_) => {}
            }
        }
        for node in got.nodes.values() {
            for parent in &node.derived_from {
                if !known_data.contains(parent.as_str()) {
                    return Err(Violation::new(
                        "lineage",
                        format!(
                            "derivation of {} references unknown ancestor {}",
                            node.data.as_str(),
                            parent.as_str()
                        ),
                    ));
                }
            }
        }
        self.trace
            .push(format!("      lineage ok ({} nodes)", got.nodes.len()));
        Ok(())
    }

    fn check_wire_query(&mut self, request: QueryRequest) -> Result<(), Violation> {
        let got = {
            let request = request.clone();
            self.with_crash_retry("wire query", move |w| {
                let message = PrepMessage::Query(request.clone());
                let envelope = Envelope::request(PROVENANCE_STORE_SERVICE, message.action())
                    .with_json_payload(&message)
                    .map_err(|e| e.to_string())?;
                let response = w.transport.call(envelope).map_err(|e| e.to_string())?;
                response
                    .json_payload::<pasoa_core::prep::QueryResponse>()
                    .map_err(|e| e.to_string())
            })?
        };
        let expected = self
            .golden
            .query(&request)
            .map_err(|e| Violation::new("golden", e.to_string()))?;
        if got != expected {
            return Err(Violation::new(
                "scatter-gather",
                format!("wire answer to {request:?} diverged from the golden store"),
            ));
        }
        self.trace.push("      wire query ok".into());
        Ok(())
    }

    /// Drain everything and run the full invariant suite.
    pub(crate) fn settle(&mut self) -> Result<(), Violation> {
        self.trace.push("settle".into());
        self.with_crash_retry("final flush", |w| {
            w.cluster.flush().map_err(|e| e.to_string())
        })?;
        self.settle_feed()?;
        for sid in self.all_session_ids() {
            self.check_named_session(&sid)?;
            self.check_named_lineage(&sid)?;
        }
        self.check_statistics()?;
        self.check_interactions()?;
        self.check_groups()?;
        self.check_hold_accounting()?;

        let router = self.cluster.router();
        let pending = router.pending_replay_shards();
        if !pending.is_empty() {
            return Err(Violation::new(
                "hold-accounting",
                format!("promotion replays still pending for shards {pending:?} after settling"),
            ));
        }
        let stats = router.stats();
        if stats.failovers > 1 {
            return Err(Violation::new(
                "failover",
                format!(
                    "{} failovers for at most one injected fault",
                    stats.failovers
                ),
            ));
        }
        self.check_crashed_durability()?;
        Ok(())
    }

    /// Replica-copy accounting over the live holds: no copy stranded for a dead primary, no
    /// copy parked off the placement rule, no `(primary, session)` duplicated beyond R−1, and
    /// never more held copies than the primary actually committed.
    fn check_hold_accounting(&mut self) -> Result<(), Violation> {
        let router = self.cluster.router();
        let replication = router.replication();
        let snapshot = router.hold_snapshot();
        let alive: Vec<bool> = snapshot.iter().map(|s| s.alive).collect();
        if replication < 2 {
            for shard in &snapshot {
                if !shard.sessions.is_empty() || !shard.groups.is_empty() {
                    return Err(Violation::new(
                        "hold-accounting",
                        format!("unreplicated cluster holds copies on shard {}", shard.shard),
                    ));
                }
            }
            return Ok(());
        }
        let stores = self.cluster.shard_stores();
        let mut holders: BTreeMap<(usize, String), usize> = BTreeMap::new();
        for shard in &snapshot {
            if !shard.alive {
                continue; // a dead holder's copies are unreachable by construction
            }
            for held in &shard.sessions {
                if !alive[held.primary] {
                    return Err(Violation::new(
                        "hold-accounting",
                        format!(
                            "shard {} still holds {} copies of {} for dead primary {}",
                            shard.shard, held.assertions, held.session, held.primary
                        ),
                    ));
                }
                let live_successors: Vec<usize> = router
                    .ring_successors(held.primary)
                    .into_iter()
                    .filter(|&s| alive[s])
                    .collect();
                let position = live_successors.iter().position(|&s| s == shard.shard);
                if !matches!(position, Some(p) if p < replication - 1) {
                    return Err(Violation::new(
                        "hold-accounting",
                        format!(
                            "shard {} holds a copy of {} (primary {}) outside the first {} live successors {:?}",
                            shard.shard,
                            held.session,
                            held.primary,
                            replication - 1,
                            live_successors
                        ),
                    ));
                }
                let committed = stores[held.primary]
                    .assertions_for_session(&SessionId::new(held.session.clone()))
                    .map_err(|e| Violation::new("availability", e.to_string()))?
                    .len();
                if held.assertions > committed {
                    return Err(Violation::new(
                        "hold-accounting",
                        format!(
                            "shard {} holds {} copies of {} but primary {} committed only {}",
                            shard.shard, held.assertions, held.session, held.primary, committed
                        ),
                    ));
                }
                *holders
                    .entry((held.primary, held.session.clone()))
                    .or_default() += 1;
            }
            for (primary, group) in &shard.groups {
                if !alive[*primary] {
                    return Err(Violation::new(
                        "hold-accounting",
                        format!(
                            "shard {} still holds group {} for dead primary {}",
                            shard.shard, group, primary
                        ),
                    ));
                }
            }
        }
        for ((primary, session), count) in holders {
            if count > replication - 1 {
                return Err(Violation::new(
                    "hold-accounting",
                    format!(
                        "{count} live shards hold copies of {session} (primary {primary}), \
                         replication allows {}",
                        replication - 1
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Post-mortem on crashed durable shards: the on-disk log reopens cleanly (the power loss
    /// truncated exactly to the fsync point) and recovers no phantom documentation — every
    /// recovered assertion is one the tier acked.
    fn check_crashed_durability(&mut self) -> Result<(), Violation> {
        let crashed: Vec<(usize, PathBuf)> = self
            .dbs
            .iter()
            .enumerate()
            .filter(|(_, db)| db.is_crashed())
            .map(|(shard, db)| (shard, db.dir().to_path_buf()))
            .collect();
        for (shard, dir) in crashed {
            let backend = KvBackend::open(&dir).map_err(|e| {
                Violation::new(
                    "recovery",
                    format!("crashed shard {shard} failed to reopen: {e}"),
                )
            })?;
            if !backend.recovery_report().is_clean() {
                return Err(Violation::new(
                    "recovery",
                    format!(
                        "crashed shard {shard} reopened dirty: {:?}",
                        backend.recovery_report()
                    ),
                ));
            }
            let recovered = ProvenanceStore::open(Arc::new(backend))
                .map_err(|e| Violation::new("recovery", e.to_string()))?;
            for sid in self.all_session_ids() {
                let salvaged = recovered
                    .assertions_for_session(&sid)
                    .map_err(|e| Violation::new("recovery", e.to_string()))?;
                let golden: Vec<String> = self
                    .golden
                    .assertions_for_session(&sid)
                    .map_err(|e| Violation::new("golden", e.to_string()))?
                    .iter()
                    .map(|r| serde_json::to_string(r).expect("assertions serialize"))
                    .collect();
                let mut budget: BTreeMap<String, usize> = BTreeMap::new();
                for line in golden {
                    *budget.entry(line).or_default() += 1;
                }
                for r in &salvaged {
                    let line = serde_json::to_string(r).expect("assertions serialize");
                    let remaining = budget.entry(line).or_default();
                    if *remaining == 0 {
                        return Err(Violation::new(
                            "recovery",
                            format!(
                                "crashed shard {shard} recovered a phantom assertion for {}",
                                sid.as_str()
                            ),
                        ));
                    }
                    *remaining -= 1;
                }
            }
            self.trace.push(format!(
                "      crashed shard {shard} reopened clean, no phantoms"
            ));
        }
        Ok(())
    }

    /// Lines summarizing the final observable state, hashed into the run fingerprint.
    pub(crate) fn digest(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for sid in self.all_session_ids() {
            let answer = self
                .cluster
                .assertions_for_session(&sid)
                .map(|a| serde_json::to_string(&a).expect("assertions serialize"))
                .unwrap_or_else(|e| format!("error: {e}"));
            lines.push(format!("session {}: {answer}", sid.as_str()));
            let lineage = self
                .cluster
                .lineage_session(&sid)
                .map(|g| serde_json::to_string(&g).expect("lineage serializes"))
                .unwrap_or_else(|e| format!("error: {e}"));
            lines.push(format!("lineage {}: {lineage}", sid.as_str()));
        }
        for (session, dag_name) in &self.dag_sessions {
            let sid = SessionId::new(session.clone());
            let executed = self
                .cluster
                .assertions_for_session(&sid)
                .map(|a| {
                    serde_json::to_string(&ExecutedDag::from_assertions(dag_name, &a))
                        .expect("executed dag serializes")
                })
                .unwrap_or_else(|e| format!("error: {e}"));
            lines.push(format!("dag {dag_name}: {executed}"));
        }
        lines.push(format!(
            "statistics: {:?}",
            self.cluster.statistics().map_err(|e| e.to_string())
        ));
        lines.push(format!(
            "interactions: {:?}",
            self.cluster
                .list_interactions(None)
                .map_err(|e| e.to_string())
        ));
        lines.push(format!(
            "groups: {:?}",
            self.cluster
                .groups_by_kind("session")
                .map(|groups| groups.iter().map(|g| g.id.clone()).collect::<Vec<_>>())
                .map_err(|e| e.to_string())
        ));
        for (ordinal, sub) in &self.feed_subs {
            let joined = sub.delivered.iter().cloned().collect::<Vec<_>>().join(",");
            lines.push(format!(
                "feed sub-{ordinal}: {} events {:016x}",
                sub.delivered.len(),
                pasoa_cluster::ring::fnv1a64(joined.as_bytes())
            ));
        }
        lines.push(format!(
            "holds: {:?}",
            self.cluster.router().hold_snapshot()
        ));
        lines.push(format!("router: {:?}", self.cluster.router().stats()));
        lines
    }

    /// Deterministic lines of the observability state, hashed into the run fingerprint: the
    /// registry's counters and the trace-event sequence (ids, spans, stages, details, order)
    /// — never the wall-clock timings or latency histograms, which legitimately vary run to
    /// run. A replay that allocates trace ids differently or routes a batch through
    /// different hops diverges here even when the stored data agrees.
    pub(crate) fn obs_digest(&self) -> Vec<String> {
        let snapshot = self.host.registry().snapshot();
        let mut lines: Vec<String> = snapshot
            .counters
            .iter()
            .map(|(name, value)| format!("obs.counter {name}={value}"))
            .collect();
        lines.extend(snapshot.events.iter().map(|event| {
            format!(
                "obs.event {}#{} {} {} seq={}",
                event.trace_id, event.span_id, event.stage, event.detail, event.seq
            )
        }));
        lines
    }

    pub(crate) fn router_stats(&self) -> pasoa_cluster::RouterStats {
        self.cluster.router().stats()
    }
}
