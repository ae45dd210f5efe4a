//! The full experiment runner: Figure 1 end to end, under a chosen recording configuration.
//!
//! A run deploys (or reuses) a PReServ store, builds the recorder matching the requested
//! configuration, generates the synthetic input sequences, invokes Collate Sample and Encode
//! by Groups (each documented by [`pasoa_dag::Invocation`], the record the DAG executor writes
//! per task), sweeps the permutations, collates the sizes and averages them into
//! compressibility results — and reports the overall execution time
//! "measured by the time difference between the last and first activities", which is the
//! quantity Figure 4 plots.
//!
//! The sweep runs measurements side by side, as Condor ran the paper's scripts on a cluster:
//! [`ExperimentConfig::workers`] threads (the calling thread among them) pull permutation
//! indices from a shared cursor and compress with no lock held, while a sequencer documents
//! the finished measurements strictly in index order. Interaction keys and message ids are
//! drawn inside that ordered section, so the stored documentation of a run is the same, byte
//! for byte and in the same order, whatever the worker count and thread schedule.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use pasoa_bioseq::grouping::StandardGrouping;
use pasoa_bioseq::synthetic::SyntheticConfig;
use pasoa_cluster::{PreservCluster, StoreHandle};
use pasoa_compress::Method;
use pasoa_core::group::{Group, GroupKind};
use pasoa_core::ids::{ActorId, IdGenerator, SessionId};
use pasoa_core::recorder::{
    AsyncRecorder, NullRecorder, ProvenanceRecorder, RecordingMode, SyncRecorder,
};
use pasoa_dag::{Activity, DataItem, Invocation};
use pasoa_preserv::PreservService;
use pasoa_wire::{LatencyModel, ServiceHost, Transport, TransportConfig};

use crate::activities::{synthetic_inputs, CollateSampleActivity, EncodeByGroupsActivity};
use crate::measure::{MeasureKit, MeasureOutcome};
use crate::results::{CompressibilityResult, SizesTable};

/// The four recording configurations of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RunRecording {
    /// "No recording".
    None,
    /// "Asynchronous recording": p-assertions accumulate locally and are shipped after the run
    /// (the shipping time is included in the reported execution time, as in the paper).
    Asynchronous,
    /// "Synchronous recording": each p-assertion is a store round trip during execution.
    Synchronous,
    /// "Synchronous recording with extra actor provenance".
    SynchronousWithExtra,
}

impl RunRecording {
    /// All four configurations, in the order the paper's legend lists them (slowest first).
    pub const ALL: [RunRecording; 4] = [
        RunRecording::SynchronousWithExtra,
        RunRecording::Synchronous,
        RunRecording::Asynchronous,
        RunRecording::None,
    ];

    /// The label used in Figure 4's legend.
    pub fn label(self) -> &'static str {
        match self {
            RunRecording::None => "No recording",
            RunRecording::Asynchronous => "Asynchronous recording",
            RunRecording::Synchronous => "Synchronous recording",
            RunRecording::SynchronousWithExtra => {
                "Synchronous recording with extra actor provenance"
            }
        }
    }

    /// Whether the extra actor-state p-assertions are recorded.
    pub fn extra_actor_state(self) -> bool {
        matches!(self, RunRecording::SynchronousWithExtra)
    }

    /// The underlying delivery mode.
    pub fn mode(self) -> RecordingMode {
        match self {
            RunRecording::None => RecordingMode::None,
            RunRecording::Asynchronous => RecordingMode::Asynchronous,
            RunRecording::Synchronous | RunRecording::SynchronousWithExtra => {
                RecordingMode::Synchronous
            }
        }
    }
}

/// What actually serves the provenance store's well-known name in a deployment.
pub enum StoreAccess {
    /// One `PreservService`, as in the paper's evaluation.
    Single(Arc<PreservService>),
    /// A sharded cluster behind a shard router (the production-scale tier).
    Sharded(Arc<PreservCluster>),
}

impl StoreAccess {
    /// A uniform query handle over the deployment.
    pub fn store_handle(&self) -> StoreHandle {
        match self {
            StoreAccess::Single(service) => StoreHandle::Single(service.store()),
            StoreAccess::Sharded(cluster) => StoreHandle::Cluster(Arc::clone(cluster)),
        }
    }
}

/// How the provenance store is deployed for a run.
pub struct StoreDeployment {
    /// The host the store (and any other services) are registered on.
    pub host: ServiceHost,
    /// The store tier registered under the provenance store's service name.
    pub access: StoreAccess,
    /// The latency model charged per store call.
    pub latency: LatencyModel,
    /// Whether the latency is actually slept (true) or only accounted virtually (false).
    pub sleep_latency: bool,
}

impl StoreDeployment {
    /// Deploy an in-memory store with the given latency model.
    pub fn in_memory(latency: LatencyModel, sleep_latency: bool) -> Self {
        let host = ServiceHost::new();
        let service = Arc::new(PreservService::in_memory().expect("memory store cannot fail"));
        service.register(&host);
        StoreDeployment {
            host,
            access: StoreAccess::Single(service),
            latency,
            sleep_latency,
        }
    }

    /// Deploy a sharded in-memory cluster (`shards` ≥ 1) behind a shard router registered
    /// under the provenance store's well-known name; recorders need no changes.
    pub fn sharded(shards: usize, latency: LatencyModel, sleep_latency: bool) -> Self {
        let host = ServiceHost::new();
        let cluster =
            PreservCluster::deploy_in_memory(&host, shards).expect("memory cluster cannot fail");
        StoreDeployment {
            host,
            access: StoreAccess::Sharded(cluster),
            latency,
            sleep_latency,
        }
    }

    /// Deploy a fault-tolerant sharded cluster: every flushed batch commits on a primary plus
    /// `replication - 1` replica holds, so killing any single shard mid-run loses no acked
    /// p-assertion (for `replication` ≥ 2). Recorders and reasoners need no changes.
    pub fn replicated(
        shards: usize,
        replication: usize,
        latency: LatencyModel,
        sleep_latency: bool,
    ) -> Self {
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_replicated(&host, shards, replication)
            .expect("memory cluster cannot fail");
        StoreDeployment {
            host,
            access: StoreAccess::Sharded(cluster),
            latency,
            sleep_latency,
        }
    }

    /// Deploy a sharded in-memory cluster whose every envelope crosses a real TCP socket on
    /// loopback (shards and router each behind their own listener — the paper's
    /// separate-hosts deployment shape). Recorders and reasoners need no changes: the
    /// caller's host holds a TCP proxy under the provenance store's well-known name.
    pub fn sharded_tcp(shards: usize, latency: LatencyModel, sleep_latency: bool) -> Self {
        let host = ServiceHost::new();
        let cluster = pasoa_cluster::PreservCluster::deploy_tcp(&host, shards)
            .expect("loopback tcp cluster deploys");
        StoreDeployment {
            host,
            access: StoreAccess::Sharded(cluster),
            latency,
            sleep_latency,
        }
    }

    /// A uniform query handle over whatever tier is deployed.
    pub fn store_handle(&self) -> StoreHandle {
        self.access.store_handle()
    }

    /// The cluster, when this deployment is sharded.
    pub fn cluster(&self) -> Option<&Arc<PreservCluster>> {
        match &self.access {
            StoreAccess::Single(_) => None,
            StoreAccess::Sharded(cluster) => Some(cluster),
        }
    }

    /// A transport towards the deployed services.
    pub fn transport(&self) -> Transport {
        let config = if self.sleep_latency {
            TransportConfig::sleeping(self.latency)
        } else {
            TransportConfig::virtual_time(self.latency)
        };
        self.host.transport(config)
    }
}

/// Parameters of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Target collated sample size in residues (paper: ~100 KB).
    pub sample_size: usize,
    /// Number of permutations to measure.
    pub permutations: usize,
    /// Threads measuring permutations side by side, the caller among them (default: every
    /// hardware thread; 0 counts as 1). `1` is the serial sweep of the paper's single machine,
    /// which wall-clock shape checks need. The stored documentation does not depend on it.
    pub workers: usize,
    /// The amino-acid grouping applied by *Encode by Groups*.
    pub grouping: StandardGrouping,
    /// Compression methods measured (paper: gzip and ppmz in the Measure workflow).
    pub methods: Vec<Method>,
    /// Recording configuration.
    pub recording: RunRecording,
    /// Base seed for synthetic data and shuffling.
    pub seed: u64,
    /// Synthetic input generation parameters.
    pub synthetic: SyntheticConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            sample_size: 100 * 1024,
            permutations: 100,
            workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            grouping: StandardGrouping::Dayhoff6,
            methods: vec![Method::Gzip, Method::Ppmz],
            recording: RunRecording::Asynchronous,
            seed: 20050624,
            synthetic: SyntheticConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// A scaled-down configuration for tests and the reduced-scale examples (a few KB sample,
    /// few permutations) that keeps every code path of the full experiment.
    pub fn small(permutations: usize, recording: RunRecording) -> Self {
        ExperimentConfig {
            sample_size: 8 * 1024,
            permutations,
            methods: vec![Method::Gzip, Method::Ppmz],
            recording,
            synthetic: SyntheticConfig {
                sequence_count: 8,
                sequence_length: 2048,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Configuration echoed back.
    pub recording: RunRecording,
    /// Number of permutations processed.
    pub permutations: usize,
    /// Overall execution time (first activity to last, including the asynchronous flush).
    pub execution_time: Duration,
    /// Simulated communication time accumulated on the transport's virtual clock (zero when
    /// latency is slept for real).
    pub simulated_comm_time: Duration,
    /// Number of p-assertions recorded.
    pub passertions: u64,
    /// Number of store round trips performed.
    pub store_calls: u64,
    /// The collated sizes table.
    pub sizes: SizesTable,
    /// The final compressibility results per method.
    pub results: Vec<CompressibilityResult>,
    /// The session under which the run was recorded.
    pub session: SessionId,
}

impl ExperimentReport {
    /// Execution time including simulated communication time — the quantity to compare across
    /// recording configurations when latencies are modelled rather than slept.
    pub fn total_time(&self) -> Duration {
        self.execution_time + self.simulated_comm_time
    }
}

/// Runs the experiment.
pub struct ExperimentRunner {
    deployment: StoreDeployment,
    /// Monotone run counter: sessions must stay distinguishable "even if multiple workflows were
    /// run simultaneously", so every run gets a unique session id regardless of configuration.
    run_counter: std::sync::atomic::AtomicU64,
}

impl ExperimentRunner {
    /// Create a runner against an existing deployment.
    pub fn new(deployment: StoreDeployment) -> Self {
        ExperimentRunner {
            deployment,
            run_counter: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The deployment in use (so callers can query the store afterwards).
    pub fn deployment(&self) -> &StoreDeployment {
        &self.deployment
    }

    /// Execute one run.
    pub fn run(&self, config: &ExperimentConfig) -> ExperimentReport {
        self.run_wrapped(config, |recorder| recorder)
    }

    /// [`Self::run`] with the run's recorder passed through `wrap` before anything records.
    fn run_wrapped(
        &self,
        config: &ExperimentConfig,
        wrap: impl FnOnce(Arc<dyn ProvenanceRecorder>) -> Arc<dyn ProvenanceRecorder>,
    ) -> ExperimentReport {
        let start = Instant::now();
        let transport = self.deployment.transport();
        let run = self
            .run_counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let session = SessionId::new(format!(
            "session:{}:{}perm:{}:run{}",
            match config.recording {
                RunRecording::None => "none",
                RunRecording::Asynchronous => "async",
                RunRecording::Synchronous => "sync",
                RunRecording::SynchronousWithExtra => "sync-extra",
            },
            config.permutations,
            config.seed,
            run
        ));
        let ids = IdGenerator::new(session.as_str().to_string());
        let asserter = ActorId::new("compressibility-experiment");

        let recorder: Arc<dyn ProvenanceRecorder> = wrap(match config.recording.mode() {
            RecordingMode::None => Arc::new(NullRecorder::new(session.clone())),
            RecordingMode::Asynchronous => Arc::new(AsyncRecorder::new(
                session.clone(),
                asserter.clone(),
                transport.clone(),
                ids.clone(),
                64,
            )),
            RecordingMode::Synchronous => Arc::new(SyncRecorder::new(
                session.clone(),
                asserter.clone(),
                transport.clone(),
                ids.clone(),
            )),
        });

        // Coarse-grained workflow prefix: Collate Sample then Encode by Groups, invoked by the
        // workflow engine and documented like any other activity invocation.
        let engine = ActorId::new("workflow-engine");
        let session_group =
            Mutex::new(Group::new(session.as_str().to_string(), GroupKind::Session));
        let invoke = |activity: &dyn Activity, inputs: &[DataItem]| {
            let request_key = ids.interaction_key();
            session_group.lock().add(request_key.clone());
            Invocation {
                caller: &engine,
                activity,
                inputs,
                request_key: &request_key,
                record_extra_actor_state: config.recording.extra_actor_state(),
                configuration: &[("invocation", serde_json::json!(0))],
            }
            .run(&ids, &session_group, &|assertion| {
                recorder.record(assertion)
            })
            .map(|invoked| invoked.outputs)
        };
        let inputs = synthetic_inputs(&config.synthetic, &ids);
        let collate = CollateSampleActivity {
            target_size: config.sample_size,
        };
        let sample = invoke(&collate, &inputs).expect("collation of synthetic inputs cannot fail");
        let encode = EncodeByGroupsActivity {
            coding: config.grouping.coding(),
        };
        let encoded =
            invoke(&encode, &sample).expect("encoding a valid protein sample cannot fail");

        // Permutation sweep: measurement index 0 is the unpermuted sample, then the requested
        // number of permutations.
        let kit = MeasureKit::new(&config.methods);
        let entries = Sweep {
            kit: &kit,
            sample: &encoded[0].bytes,
            seed: config.seed,
            recorder: recorder.as_ref(),
            ids: &ids,
            extra_actor_state: config.recording.extra_actor_state(),
            total: config.permutations + 1,
            cursor: AtomicUsize::new(0),
            sequencer: Mutex::default(),
        }
        .run(config.workers);
        let sizes = SizesTable { entries };
        let results = sizes.compressibility();

        // Close the session: register the group and ship any journalled documentation. The
        // paper includes this in the measured execution time for the asynchronous mode.
        recorder
            .register_group(session_group.into_inner())
            .expect("group registration cannot fail against a live store");
        recorder
            .flush()
            .expect("flush cannot fail against a live store");

        let execution_time = start.elapsed();
        ExperimentReport {
            recording: config.recording,
            permutations: config.permutations,
            execution_time,
            simulated_comm_time: transport.clock().elapsed(),
            passertions: recorder.stats().assertions_recorded,
            store_calls: transport.stats().calls,
            sizes,
            results,
            session,
        }
    }
}

/// One run's permutation sweep. Workers pull the next measurement index from `cursor` and
/// compute its sizes with no lock held; the [`Sequencer`] then has them documented strictly in
/// index order, so ids are drawn exactly as a one-thread sweep draws them.
struct Sweep<'a> {
    kit: &'a MeasureKit,
    sample: &'a [u8],
    seed: u64,
    recorder: &'a dyn ProvenanceRecorder,
    ids: &'a IdGenerator,
    extra_actor_state: bool,
    /// Measurements in the sweep (the permutations plus the unpermuted sample).
    total: usize,
    /// The next index to measure; moved to `total` when a worker fails, which stops the rest.
    cursor: AtomicUsize,
    sequencer: Mutex<Sequencer>,
}

/// Measurements whose sizes are known, on their way to the store in index order.
#[derive(Default)]
struct Sequencer {
    /// Measured ahead of their turn, by index.
    waiting: BTreeMap<usize, MeasureOutcome>,
    /// Documented, in index order: the next index to document is `documented.len()`.
    documented: Vec<MeasureOutcome>,
    /// A worker is documenting a run of consecutive measurements, outside the lock.
    documenting: bool,
}

impl Sweep<'_> {
    /// Measure and document every index on `workers` threads (the caller among them), and
    /// return the outcomes in index order. A worker's panic — a failed record among them —
    /// is re-raised here once the other workers have stopped.
    fn run(self, workers: usize) -> Vec<MeasureOutcome> {
        let workers = workers.clamp(1, self.total);
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(|| self.work())).collect();
            self.work();
            for helper in helpers {
                if let Err(panic) = helper.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        let documented = self.sequencer.into_inner().documented;
        debug_assert_eq!(documented.len(), self.total);
        documented
    }

    fn work(&self) {
        let _stop = StopOnUnwind(self);
        loop {
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= self.total {
                return;
            }
            let outcome = self.kit.sizes(self.sample, index, self.seed);

            let mut sequencer = self.sequencer.lock();
            sequencer.waiting.insert(index, outcome);
            if sequencer.documenting {
                // The documenting worker takes this one when its turn comes.
                continue;
            }
            sequencer.documenting = true;
            loop {
                let mut next = sequencer.documented.len();
                let mut run = Vec::new();
                while let Some(outcome) = sequencer.waiting.remove(&next) {
                    run.push(outcome);
                    next += 1;
                }
                if run.is_empty() {
                    sequencer.documenting = false;
                    break;
                }
                // A synchronous record is a store round trip: make it with the lock released,
                // so the other workers keep compressing and queueing meanwhile.
                drop(sequencer);
                for outcome in &run {
                    self.kit
                        .document(outcome, self.recorder, self.ids, self.extra_actor_state)
                        .expect("recording failure aborts the run");
                }
                sequencer = self.sequencer.lock();
                sequencer.documented.extend(run);
            }
        }
    }
}

/// Stops the sweep's cursor when its worker unwinds, so the other workers finish the index
/// they hold and exit instead of measuring the rest of a failed run.
struct StopOnUnwind<'a, 'b>(&'a Sweep<'b>);

impl Drop for StopOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.cursor.store(self.0.total, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::group::Group;
    use pasoa_core::passertion::{
        ActorStatePAssertion, PAssertion, PAssertionContent, RecordedAssertion,
    };
    use pasoa_core::recorder::{RecordError, RecorderStats};
    use pasoa_wire::NetworkProfile;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    const RECORDS: u64 = crate::measure::RECORDS_PER_PERMUTATION as u64;

    fn deployment() -> StoreDeployment {
        StoreDeployment::in_memory(NetworkProfile::InProcess.latency_model(), false)
    }

    /// Wraps a run's recorder and calls `tamper` with each record's draw number first: it may
    /// delay the record, fail it, or panic.
    struct TamperingRecorder {
        inner: Arc<dyn ProvenanceRecorder>,
        draws: AtomicU64,
        tamper: Box<dyn Fn(u64) -> Result<(), RecordError> + Send + Sync>,
    }

    impl TamperingRecorder {
        fn wrap(
            tamper: impl Fn(u64) -> Result<(), RecordError> + Send + Sync + 'static,
        ) -> impl FnOnce(Arc<dyn ProvenanceRecorder>) -> Arc<dyn ProvenanceRecorder> {
            |inner| {
                Arc::new(TamperingRecorder {
                    inner,
                    draws: AtomicU64::new(0),
                    tamper: Box::new(tamper),
                })
            }
        }
    }

    impl ProvenanceRecorder for TamperingRecorder {
        fn session(&self) -> &SessionId {
            self.inner.session()
        }
        fn record(&self, assertion: PAssertion) -> Result<(), RecordError> {
            (self.tamper)(self.draws.fetch_add(1, Ordering::Relaxed))?;
            self.inner.record(assertion)
        }
        fn register_group(&self, group: Group) -> Result<(), RecordError> {
            self.inner.register_group(group)
        }
        fn flush(&self) -> Result<(), RecordError> {
            self.inner.flush()
        }
        fn stats(&self) -> RecorderStats {
            self.inner.stats()
        }
        fn mode(&self) -> RecordingMode {
            self.inner.mode()
        }
    }

    /// Sleeps a seeded 0–2 ms per record (splitmix64 over `seed` and the draw number), so the
    /// workers of a parallel sweep reach the recorder in a different interleaving every run.
    fn jitter(seed: u64) -> impl Fn(u64) -> Result<(), RecordError> + Send + Sync {
        move |draw| {
            let mut x = seed ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            std::thread::sleep(Duration::from_micros(x % 2_001));
            Ok(())
        }
    }

    /// The stored documentation of a run without its one measured quantity: the prefix's
    /// per-activity `cpu_time_us`, recorded with extra actor provenance.
    fn stored_documentation(
        runner: &ExperimentRunner,
        session: &SessionId,
    ) -> Vec<RecordedAssertion> {
        let mut stored = runner
            .deployment()
            .store_handle()
            .assertions_for_session(session)
            .unwrap();
        for recorded in &mut stored {
            if let PAssertion::ActorState(ActorStatePAssertion {
                content: PAssertionContent::Structured(serde_json::Value::Object(usage)),
                ..
            }) = &mut recorded.assertion
            {
                usage.remove("cpu_time_us");
            }
        }
        stored
    }

    #[test]
    fn stored_documentation_is_identical_for_any_worker_count() {
        for recording in [
            RunRecording::Synchronous,
            RunRecording::Asynchronous,
            RunRecording::SynchronousWithExtra,
        ] {
            let runs: Vec<_> = [1, 2, 8]
                .into_iter()
                .map(|workers| {
                    let runner = ExperimentRunner::new(deployment());
                    let config = ExperimentConfig {
                        workers,
                        ..ExperimentConfig::small(12, recording)
                    };
                    let report = runner
                        .run_wrapped(&config, TamperingRecorder::wrap(jitter(workers as u64)));
                    let stored = stored_documentation(&runner, &report.session);
                    (workers, stored, report)
                })
                .collect();
            let (_, serial, serial_report) = &runs[0];
            assert_eq!(serial.len() as u64, serial_report.passertions);
            for (workers, stored, report) in &runs[1..] {
                assert_eq!(
                    stored.len(),
                    serial.len(),
                    "{recording:?}, {workers} workers"
                );
                for (i, (got, want)) in stored.iter().zip(serial).enumerate() {
                    assert_eq!(
                        got, want,
                        "{recording:?}: stored assertion {i} differs between 1 and {workers} workers"
                    );
                }
                assert_eq!(report.sizes, serial_report.sizes);
                assert_eq!(report.results, serial_report.results);
            }
        }
    }

    #[test]
    fn a_failed_record_aborts_the_run_and_stops_the_sweep() {
        let runner = ExperimentRunner::new(deployment());
        let config = ExperimentConfig {
            workers: 4,
            ..ExperimentConfig::small(30, RunRecording::Synchronous)
        };
        // The prefix's two invocations record 12; fail the third measurement's first record.
        let fail_at = 12 + 2 * RECORDS;
        let attempts = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&attempts);
        let panic = catch_unwind(AssertUnwindSafe(|| {
            runner.run_wrapped(
                &config,
                TamperingRecorder::wrap(move |draw| {
                    seen.fetch_add(1, Ordering::Relaxed);
                    if draw == fail_at {
                        Err(RecordError::Rejected(vec!["store is full".into()]))
                    } else {
                        Ok(())
                    }
                }),
            )
        }))
        .expect_err("a failed record must abort the run");
        let message = panic
            .downcast_ref::<String>()
            .expect("the run's own message");
        assert!(
            message.contains("recording failure aborts the run")
                && message.contains("store is full"),
            "{message}"
        );
        // Documentation stops at the failure: no later measurement reaches the recorder.
        assert_eq!(attempts.load(Ordering::Relaxed), fail_at + 1);
    }

    #[test]
    fn a_recorder_panic_propagates_as_itself() {
        let runner = ExperimentRunner::new(deployment());
        let config = ExperimentConfig {
            workers: 3,
            ..ExperimentConfig::small(20, RunRecording::Asynchronous)
        };
        let panic = catch_unwind(AssertUnwindSafe(|| {
            runner.run_wrapped(
                &config,
                TamperingRecorder::wrap(|draw| {
                    if draw == 12 + 5 * RECORDS {
                        panic!("journal disk vanished");
                    }
                    Ok(())
                }),
            )
        }))
        .expect_err("a recorder panic must abort the run");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"journal disk vanished"));
    }

    #[test]
    fn workers_default_to_every_hardware_thread_and_zero_counts_as_one() {
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(ExperimentConfig::default().workers, threads);
        assert_eq!(
            ExperimentConfig::small(3, RunRecording::None).workers,
            threads
        );

        let runner = ExperimentRunner::new(deployment());
        let sizes = |workers| {
            let config = ExperimentConfig {
                workers,
                ..ExperimentConfig::small(3, RunRecording::Synchronous)
            };
            runner.run(&config).sizes
        };
        let serial = sizes(1);
        assert_eq!(sizes(0), serial);
        assert_eq!(sizes(64), serial);
        let indices: Vec<usize> = serial.entries.iter().map(|e| e.permutation_index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_without_recording_produces_results() {
        let runner = ExperimentRunner::new(deployment());
        let report = runner.run(&ExperimentConfig::small(6, RunRecording::None));
        assert_eq!(report.permutations, 6);
        assert_eq!(report.sizes.len(), 7); // original + 6 permutations
        assert_eq!(report.passertions, 0);
        assert_eq!(report.store_calls, 0);
        assert_eq!(report.results.len(), 2);
        for r in &report.results {
            assert!(
                r.relative_compressibility < 1.0,
                "synthetic proteins have structure the compressor should find: {r:?}"
            );
        }
    }

    #[test]
    fn recording_configurations_produce_expected_passertion_counts() {
        let runner = ExperimentRunner::new(deployment());
        let permutations = 5;
        let sync = runner.run(&ExperimentConfig::small(
            permutations,
            RunRecording::Synchronous,
        ));
        let asyn = runner.run(&ExperimentConfig::small(
            permutations,
            RunRecording::Asynchronous,
        ));
        let extra = runner.run(&ExperimentConfig::small(
            permutations,
            RunRecording::SynchronousWithExtra,
        ));

        // 6 per measurement (original + permutations), plus the prefix's two invocations (6
        // each, 8 with extra actor provenance).
        let measurements = (permutations + 1) as u64;
        assert_eq!(sync.passertions, 6 * measurements + 12);
        assert_eq!(asyn.passertions, sync.passertions);
        assert_eq!(extra.passertions, 8 * measurements + 16);

        // Synchronous recording makes one store call per p-assertion (plus the group
        // registration); asynchronous batches them.
        assert!(sync.store_calls > asyn.store_calls);
        assert!(asyn.store_calls >= 1);
    }

    #[test]
    fn recorded_documentation_lands_in_the_store() {
        let runner = ExperimentRunner::new(deployment());
        let report = runner.run(&ExperimentConfig::small(4, RunRecording::Synchronous));
        let store = runner.deployment().store_handle();
        let recorded = store.assertions_for_session(&report.session).unwrap();
        assert_eq!(recorded.len() as u64, report.passertions);
        let stats = store.statistics().unwrap();
        assert!(stats.interaction_passertions > 0);
        assert!(stats.actor_state_passertions > 0);
        assert!(stats.relationship_passertions > 0);
        assert_eq!(store.groups_by_kind("session").unwrap().len(), 1);
    }

    #[test]
    fn same_seed_gives_identical_science_regardless_of_recording() {
        let runner = ExperimentRunner::new(deployment());
        let a = runner.run(&ExperimentConfig::small(4, RunRecording::None));
        let b = runner.run(&ExperimentConfig::small(4, RunRecording::Synchronous));
        assert_eq!(
            a.sizes, b.sizes,
            "provenance recording must not perturb the results"
        );
        assert_eq!(a.results.len(), b.results.len());
    }

    #[test]
    fn simulated_latency_separates_the_recording_configurations() {
        // With the paper's latency model applied virtually, the ordering of Figure 4's curves
        // emerges: none < async < sync < sync+extra.
        let deployment =
            StoreDeployment::in_memory(NetworkProfile::Paper2005.latency_model(), false);
        let runner = ExperimentRunner::new(deployment);
        let permutations = 4;
        let time = |recording| {
            let report = runner.run(&ExperimentConfig::small(permutations, recording));
            report.simulated_comm_time
        };
        let none = time(RunRecording::None);
        let asyn = time(RunRecording::Asynchronous);
        let sync = time(RunRecording::Synchronous);
        let extra = time(RunRecording::SynchronousWithExtra);
        assert_eq!(none, Duration::ZERO);
        assert!(asyn > none);
        assert!(sync > asyn, "sync {sync:?} should exceed async {asyn:?}");
        assert!(extra > sync, "extra {extra:?} should exceed sync {sync:?}");
    }

    #[test]
    fn labels_and_modes() {
        assert_eq!(RunRecording::None.label(), "No recording");
        assert!(RunRecording::SynchronousWithExtra.extra_actor_state());
        assert!(!RunRecording::Synchronous.extra_actor_state());
        assert_eq!(
            RunRecording::Asynchronous.mode(),
            RecordingMode::Asynchronous
        );
        assert_eq!(RunRecording::ALL.len(), 4);
    }
}
