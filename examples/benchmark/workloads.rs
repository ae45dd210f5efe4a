//! The four workloads. Each function here runs ONE round — a fresh deployment, its set-up, the
//! measured window, the verifiers — inside a child process, and returns what it measured. The
//! benchmark owns the load loop and the clock: it builds the envelopes and calls the transport
//! itself, so no number depends on program code a later change may touch under a claim.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use pasoa::cluster::{ClusterConfig, ClusterTransport, PreservCluster};
use pasoa::experiment::{
    ExperimentConfig, ExperimentReport, ExperimentRunner, RunRecording, StoreAccess,
    StoreDeployment,
};
use pasoa::model::prep::{
    PagedQuery, PrepMessage, QueryPage, QueryRequest, QueryResponse, RecordMessage,
};
use pasoa::model::{prepwire, PROVENANCE_STORE_SERVICE};
use pasoa::obs::RegistrySnapshot;
use pasoa::preserv::{
    KvBackend, LineageGraph, MemoryBackend, ProvenanceStore, StorageBackend, StoreError,
};
use pasoa::wire::{
    Envelope, LatencyModel, MessageHandler, ServiceHost, Transport, TransportConfig, WireResult,
};

use crate::gen::{self, Corpus, QueryOp, RecordShape};
use crate::spans::{self, Kind, TimedBackend, TimedHandler, Tracer};
use crate::stats;

/// Load-generator threads, fixed: the box this was sized on has two hardware threads, and a
/// count that followed the machine would make results from two machines incomparable.
pub const LANES: usize = 2;

/// Page size of the reader's paged query.
const PAGE: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RecordTcpMem,
    RecordDurable,
    QueryMixed,
    ExperimentPaper,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RecordTcpMem,
        Workload::RecordDurable,
        Workload::QueryMixed,
        Workload::ExperimentPaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RecordTcpMem => "record_tcp_mem",
            Workload::RecordDurable => "record_durable",
            Workload::QueryMixed => "query_mixed",
            Workload::ExperimentPaper => "experiment_paper",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Backend and flush policy, for the environment block.
    pub fn storage(self) -> &'static str {
        match self {
            Workload::RecordTcpMem => "4 shards over loopback TCP, MemoryBackend (no flush)",
            Workload::RecordDurable => {
                "4 shards in process, replication 2, KvBackend::open_durable (fsync per batch)"
            }
            Workload::QueryMixed => "4 shards in process, KvBackend::open (OS flush per write)",
            Workload::ExperimentPaper => "4 shards over loopback TCP, MemoryBackend (no flush)",
        }
    }
}

/// Fixed sizes of one round. `full` is what every reported number is measured at; `toy` is
/// what `check` runs, small enough for every verifier to finish in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub record_tcp: RecordShape,
    pub record_durable: RecordShape,
    pub warm: RecordShape,
    pub corpus_sessions: usize,
    pub corpus_per_session: usize,
    pub reader_ops: usize,
    pub writer_assertions_per_s: usize,
    pub permutations: usize,
    pub sample_kb: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            record_tcp: RecordShape {
                sessions: 50,
                per_session: 1000,
                per_message: 16,
                payload_bytes: 128,
            },
            record_durable: RecordShape {
                sessions: 40,
                per_session: 1000,
                per_message: 16,
                payload_bytes: 128,
            },
            warm: RecordShape {
                sessions: 4,
                per_session: 256,
                per_message: 16,
                payload_bytes: 128,
            },
            corpus_sessions: 100,
            corpus_per_session: 1000,
            reader_ops: 600,
            writer_assertions_per_s: 2000,
            permutations: 100,
            sample_kb: 100,
        }
    }

    pub fn toy() -> Sizes {
        let small = RecordShape {
            sessions: 8,
            per_session: 1024,
            per_message: 16,
            payload_bytes: 128,
        };
        Sizes {
            record_tcp: small,
            record_durable: small,
            warm: RecordShape {
                sessions: 2,
                per_session: 32,
                ..small
            },
            corpus_sessions: 8,
            corpus_per_session: 600,
            reader_ops: 120,
            writer_assertions_per_s: 2000,
            permutations: 4,
            sample_kb: 8,
        }
    }

    pub fn describe(&self, workload: Workload) -> String {
        let record = |s: RecordShape| {
            format!(
                "{LANES} recorders, {} sessions x {} assertions, {} per message, {} B payloads",
                s.sessions, s.per_session, s.per_message, s.payload_bytes
            )
        };
        match workload {
            Workload::RecordTcpMem => record(self.record_tcp),
            Workload::RecordDurable => record(self.record_durable),
            Workload::QueryMixed => format!(
                "corpus {} sessions x {} assertions; {} reader ops (60% page of {PAGE} / 20% \
                 session / 20% closure); writer paced at {} assertions/s, 16 per message",
                self.corpus_sessions,
                self.corpus_per_session,
                self.reader_ops,
                self.writer_assertions_per_s
            ),
            Workload::ExperimentPaper => format!(
                "{} KB sample, Dayhoff-6, gzip + ppmz, {} permutations; none / asynchronous / \
                 synchronous recording, order rotated per round",
                self.sample_kb, self.permutations
            ),
        }
    }
}

/// What the parent asks a child process to run.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpec {
    pub workload: Workload,
    pub seed: u64,
    pub round: u64,
    pub traced: bool,
    pub toy: bool,
}

/// What one round measured. `values` holds every metric by its reported name; the parent
/// takes medians over rounds and picks the ones each output needs.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Verifier findings; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Every latency sample of the round, ascending: the parent pools the rounds of a run and
    /// takes the tail percentile over all of them.
    pub latencies_ns: Vec<u64>,
}

impl Round {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

pub fn run_round(spec: RoundSpec) -> Round {
    let sizes = if spec.toy {
        Sizes::toy()
    } else {
        Sizes::full()
    };
    let mut round = match spec.workload {
        Workload::RecordTcpMem | Workload::RecordDurable => record_round(spec, &sizes),
        Workload::QueryMixed => query_round(spec, &sizes),
        Workload::ExperimentPaper => experiment_round(spec, &sizes),
    };
    round.set("peak_rss_mb", peak_rss_mb());
    round
}

/// Peak resident set of this process, from the kernel's own high-water mark.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// -- Deployment ---------------------------------------------------------------------------

enum Storage {
    Memory,
    Kv { dir: PathBuf, durable: bool },
}

struct Deployment {
    host: ServiceHost,
    cluster: Arc<PreservCluster>,
    /// The kvdb backends in shard order (empty on memory), kept to crash and size them.
    kv: Vec<Arc<KvBackend>>,
    tracer: Option<Arc<Tracer>>,
}

/// Deploy through the program's own `deploy_with`. With a tracer, each shard's backend and the
/// store handler are wrapped — through the backend factory and a re-registration under the
/// store's name on the host that serves it — and nothing else differs from an untraced round.
fn deploy(config: ClusterConfig, storage: Storage, tracer: Option<Arc<Tracer>>) -> Deployment {
    let host = ServiceHost::new();
    let kv: Arc<Mutex<Vec<Arc<KvBackend>>>> = Arc::default();
    let service_name = config.service_name.clone();
    let cluster = {
        let (kv, tracer) = (Arc::clone(&kv), tracer.clone());
        PreservCluster::deploy_with(&host, config, move |shard| {
            let backend: Arc<dyn StorageBackend> = match &storage {
                Storage::Memory => Arc::new(MemoryBackend::new()),
                Storage::Kv { dir, durable } => {
                    let dir = dir.join(format!("shard-{shard}"));
                    let backend = if *durable {
                        KvBackend::open_durable(dir)
                    } else {
                        KvBackend::open(dir)
                    };
                    let backend = Arc::new(backend.map_err(StoreError::Backend)?);
                    kv.lock().expect("kv list lock").push(Arc::clone(&backend));
                    backend
                }
            };
            Ok(match &tracer {
                Some(tracer) => Arc::new(TimedBackend::new(backend, Arc::clone(tracer))),
                None => backend,
            })
        })
        .expect("cluster deploys")
    };
    if let Some(tracer) = &tracer {
        let router: Arc<dyn MessageHandler> = cluster.router().clone();
        cluster.fabric().register(
            service_name,
            Arc::new(TimedHandler::new(router, Arc::clone(tracer))),
        );
    }
    let kv = std::mem::take(&mut *kv.lock().expect("kv list lock"));
    Deployment {
        host,
        cluster,
        kv,
        tracer,
    }
}

impl Deployment {
    /// The driver's transport. Over TCP the socket framing is the serialization; in process
    /// the envelope is handed over as a value, so that `net` and the `wire` codecs do nothing
    /// there and a transport change predicts no movement on the in-process workloads.
    fn transport(&self) -> Transport {
        self.host.transport(TransportConfig::passthrough())
    }

    /// One registry view over the tier: the caller's host, and over TCP also the fabric
    /// (router, its server and its shard clients) and every shard's own registry.
    fn registry(&self) -> RegistrySnapshot {
        let mut view = self.host.registry().snapshot();
        if self.cluster.transport() == ClusterTransport::Tcp {
            view.merge(&self.cluster.fabric().registry().snapshot());
            if let Ok(stats) = self.cluster.stats_snapshot() {
                for shard in &stats.shards {
                    view.merge(&shard.registry);
                }
            }
        }
        view
    }

    fn server_requests(&self) -> u64 {
        self.cluster
            .net_server_stats()
            .iter()
            .map(|(_, stats)| stats.requests)
            .sum()
    }

    /// Open the measured window: from here a traced deployment keeps spans and counts.
    fn open_window(&self) -> Window {
        let window = Window {
            registry_before: self.tracer.as_ref().map(|_| self.registry()),
            requests_before: self.server_requests(),
        };
        if let Some(tracer) = &self.tracer {
            tracer.set_recording(true);
        }
        window
    }

    /// Close the measured window; verification traffic after this leaves no trace.
    fn close_window(&self) {
        if let Some(tracer) = &self.tracer {
            tracer.set_recording(false);
        }
    }

    /// Frames the tier's servers served since `window` opened.
    fn served_since(&self, window: &Window) -> u64 {
        self.server_requests() - window.requests_before
    }
}

/// What the registries and servers read when the measured window opened.
struct Window {
    /// Taken only in a traced round.
    registry_before: Option<RegistrySnapshot>,
    requests_before: u64,
}

/// What the driver pushed through the window: the denominators of the per-layer ratios.
struct Work {
    assertions: u64,
    user_bytes: u64,
    results: u64,
}

/// A scratch directory under the checkout's own `target/`, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> WorkDir {
        let path = Path::new("target")
            .join("benchmark")
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("work directory is creatable under target/");
        WorkDir(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

// -- Driver calls -------------------------------------------------------------------------

pub fn record_envelope(message: &RecordMessage) -> Envelope {
    Envelope::request(PROVENANCE_STORE_SERVICE, "record")
        .with_header("sender", message.asserter.as_str())
        .with_body(prepwire::record_to_element(message))
}

fn json_envelope(action: &str, message: &PrepMessage) -> Envelope {
    Envelope::request(PROVENANCE_STORE_SERVICE, action)
        .with_json_payload(message)
        .expect("protocol messages serialize")
}

/// One driver call, inside a root span when the round is traced. Returns the response and
/// the call's duration in nanoseconds, measured from `since` — the call's start for a closed
/// loop, its due time for the paced writer.
fn call(
    transport: &Transport,
    tracer: Option<&Arc<Tracer>>,
    kind: Kind,
    envelope: Envelope,
    since: Instant,
) -> (WireResult<Envelope>, u64) {
    let response = match tracer {
        Some(tracer) => {
            let open = tracer.begin_root(kind);
            let response = transport.call(envelope.with_trace(&open.ctx()));
            tracer.end(open);
            response
        }
        None => transport.call(envelope),
    };
    let nanos = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (response, nanos)
}

/// Send one record message; `Ok(nanos)` when the store acked every assertion.
fn send_record(
    transport: &Transport,
    tracer: Option<&Arc<Tracer>>,
    kind: Kind,
    message: &RecordMessage,
    since: Instant,
) -> Result<u64, String> {
    let (response, nanos) = call(transport, tracer, kind, record_envelope(message), since);
    let response = response.map_err(|e| e.to_string())?;
    let ack = prepwire::ack_from_element(&response.body).map_err(|e| e.to_string())?;
    if ack.accepted == message.len() && ack.fully_accepted() {
        Ok(nanos)
    } else {
        Err(format!(
            "store accepted {} of {}",
            ack.accepted,
            message.len()
        ))
    }
}

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

/// The per-layer values of a traced round (nothing, for an untraced one): the analysed span
/// budget per primary call, the wrapper counts, and the registry deltas over the window.
fn layer_values(
    round: &mut Round,
    spec: RoundSpec,
    deployment: &Deployment,
    window: &Window,
    work: Work,
) {
    let (Some(tracer), Some(before)) = (&deployment.tracer, &window.registry_before) else {
        return;
    };
    let after = &deployment.registry();
    let mut spans = tracer.drain();
    let budget = spans::analyse(&mut spans);
    let path = trace_path(spec.workload);
    if let Err(error) = spans::dump(&spans, spec.workload.name(), &path) {
        round
            .problems
            .push(format!("trace file {}: {error}", path.display()));
    }
    let per_call = |ns: u64| micros(ns) / budget.calls.max(1) as f64;
    let op = |kind: Kind| per_call(budget.by_backend_op.get(&kind).copied().unwrap_or(0));
    round.set("driver.call_us", per_call(budget.call_ns));
    round.set("handler.store_us", per_call(budget.handler_ns));
    round.set("transport.self_us", per_call(budget.transport_self_ns));
    round.set(
        "cluster_preserv.self_us",
        per_call(budget.cluster_preserv_self_ns),
    );
    round.set("backend.self_us", per_call(budget.backend_self_ns));
    round.set("backend.put_many_us", op(Kind::PutMany));
    round.set("backend.get_us", op(Kind::Get));
    round.set("backend.scan_us", op(Kind::Scan));
    round.set("backend.sync_us", op(Kind::Sync));
    round.set("trace.sum_gap_pct", budget.sum_gap() * 100.0);
    round.set("trace.spans", spans.len() as f64);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    round.set(
        "backend.entries_per_assertion",
        ratio(tracer.put_entries.load(Ordering::Relaxed), work.assertions),
    );
    round.set(
        "backend.bytes_per_user_byte",
        ratio(tracer.put_bytes.load(Ordering::Relaxed), work.user_bytes),
    );
    round.set(
        "backend.gets_per_result",
        ratio(tracer.gets.load(Ordering::Relaxed), work.results),
    );

    let counter = |name: &str| after.counter_delta(before, name) as f64;
    let histogram = |name: &str| {
        let of =
            |snap: &RegistrySnapshot| snap.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let ((c1, s1), (c0, s0)) = (of(after), of(before));
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    };
    let (flush_batches, flush_assertions) = histogram("router.flush.batch_size");
    round.set(
        "registry.router_flush_batches",
        counter("router.flush.batches"),
    );
    round.set(
        "registry.router_flush_batch_mean",
        ratio(flush_assertions, flush_batches),
    );
    round.set("registry.net_client_calls", counter("net.client.calls"));
    round.set(
        "registry.net_client_bytes_sent",
        counter("net.client.bytes_sent"),
    );
    round.set(
        "registry.net_client_coalesced_calls",
        counter("net.client.coalesced_calls"),
    );
    round.set("registry.net_client_retries", counter("net.client.retries"));
    round.set(
        "registry.net_server_requests",
        deployment.served_since(window) as f64,
    );
    let (fsyncs, fsync_ns) = histogram("kvdb.fsync_nanos");
    round.set("registry.kvdb_fsyncs", fsyncs as f64);
    round.set("registry.kvdb_fsync_us", per_call(fsync_ns));
}

fn trace_path(workload: Workload) -> PathBuf {
    Path::new("target")
        .join("benchmark")
        .join(format!("trace-{}.json", workload.name()))
}

// -- record_tcp_mem / record_durable ------------------------------------------------------

/// Closed loop: [`LANES`] recorder threads, each sending its sessions' messages back to back.
fn record_round(spec: RoundSpec, sizes: &Sizes) -> Round {
    let mut round = Round::default();
    let durable = spec.workload == Workload::RecordDurable;
    let shape = if durable {
        sizes.record_durable
    } else {
        sizes.record_tcp
    };
    let tracer = spec.traced.then(Tracer::new);

    let setup = Instant::now();
    let lanes = gen::record_lanes(spec.seed, spec.round, "load", shape, LANES);
    let warm = gen::record_lanes(spec.seed, spec.round, "warm", sizes.warm, 1);
    let work = durable.then(|| WorkDir::new(spec.workload.name()));
    let deployment = match &work {
        Some(work) => deploy(
            ClusterConfig::replicated(4, 2),
            Storage::Kv {
                dir: work.0.clone(),
                durable: true,
            },
            tracer.clone(),
        ),
        None => deploy(
            ClusterConfig::with_shards(4).over_tcp(),
            Storage::Memory,
            tracer.clone(),
        ),
    };
    let transport = deployment.transport();
    let mut warmed = 0u64;
    for message in warm.iter().flatten() {
        match send_record(&transport, None, Kind::Call, message, Instant::now()) {
            Ok(_) => warmed += message.len() as u64,
            Err(error) => round.problems.push(format!("warm-up: {error}")),
        }
    }
    deployment.cluster.flush().expect("warm-up flushes");
    round.set("setup_s", setup.elapsed().as_secs_f64());

    let window = deployment.open_window();
    let barrier = Barrier::new(LANES + 1);
    let mut latencies: Vec<u64> = Vec::new();
    let (mut acked, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let mut first_error: Option<String> = None;
    let wall = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                let (transport, tracer, barrier) = (transport.clone(), tracer.as_ref(), &barrier);
                scope.spawn(move || {
                    let mut nanos = Vec::with_capacity(lane.len());
                    let (mut acked, mut error) = (0u64, None);
                    barrier.wait();
                    let sent = lane.len() as u64;
                    // Consumed by value: each message is freed once sent, so the inputs'
                    // memory drains while the store's grows.
                    for message in lane {
                        match send_record(&transport, tracer, Kind::Call, &message, Instant::now())
                        {
                            Ok(ns) => {
                                nanos.push(ns);
                                acked += message.len() as u64;
                            }
                            Err(e) => error = error.or(Some(e)),
                        }
                    }
                    (nanos, acked, sent, error)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            let (nanos, lane_acked, sent, error) = handle.join().expect("recorder thread");
            attempted += sent;
            failed += sent - nanos.len() as u64;
            latencies.extend(nanos);
            acked += lane_acked;
            first_error = first_error.take().or(error);
        }
        // The recorders' closing flush is part of the work: until it returns, acked
        // assertions still sit in the router's buffers.
        if let Err(error) = deployment.cluster.flush() {
            first_error = Some(format!("closing flush: {error}"));
            failed += 1;
        }
        start.elapsed()
    });
    deployment.close_window();
    round.attempted = attempted;
    round.failed = failed;
    if let Some(error) = first_error {
        round.problems.push(format!("record call failed: {error}"));
    }
    round.require(!latencies.is_empty(), || "no record call succeeded".into());
    if latencies.is_empty() {
        return round;
    }

    latencies.sort_unstable();
    let (_, tail_ns) = stats::tail_percentile(&latencies);
    round.set("work_per_s", acked as f64 / wall.as_secs_f64());
    round.set("tail_latency_us", micros(tail_ns));
    round.set(
        "driver.ack_p50_us",
        micros(stats::percentile(&latencies, 50.0)),
    );
    round.latencies_ns = latencies;

    // Zero loss, zero phantoms: the tier holds exactly what it acked.
    let stored = deployment
        .cluster
        .statistics()
        .map(|s| s.total_passertions());
    round.require(stored.as_ref().ok() == Some(&(acked + warmed)), || {
        format!(
            "acked {} (+{warmed} warm-up) but the cluster holds {stored:?}",
            acked
        )
    });
    if !durable {
        round.require(deployment.served_since(&window) > 0, || {
            "no frame crossed a socket".into()
        });
    }
    let work_done = Work {
        assertions: acked,
        user_bytes: shape.user_bytes() as u64,
        results: 0,
    };
    layer_values(&mut round, spec, &deployment, &window, work_done);
    if let Some(work) = &work {
        verify_durable(&mut round, deployment, work, acked + warmed, shape);
    }
    round
}

/// Power-loss check: crash every shard's database (buffers the OS never forced are gone),
/// reopen from the files alone, and require every acked assertion back.
fn verify_durable(
    round: &mut Round,
    deployment: Deployment,
    work: &WorkDir,
    expected: u64,
    shape: RecordShape,
) {
    for backend in &deployment.kv {
        if let Err(error) = backend.db().crash() {
            round.problems.push(format!("crash: {error}"));
        }
    }
    let shards = deployment.kv.len();
    drop(deployment);
    round.set(
        "durable.stored_bytes_per_user_byte",
        dir_bytes(&work.0) as f64 / shape.user_bytes() as f64,
    );
    let mut recovered = 0u64;
    let mut session_ok = true;
    for shard in 0..shards {
        let reopened = KvBackend::open(work.0.join(format!("shard-{shard}")))
            .map_err(StoreError::Backend)
            .and_then(|backend| ProvenanceStore::open(Arc::new(backend)));
        match reopened {
            Ok(store) => {
                recovered += store.statistics().total_passertions();
                // Counters could lie; read one whole session back per shard as well.
                if let Ok(keys) = store.list_interactions(Some(1)) {
                    for key in keys {
                        let read = store.assertions_for_interaction(&key);
                        session_ok &= matches!(read, Ok(found) if !found.is_empty());
                    }
                }
            }
            Err(error) => round
                .problems
                .push(format!("reopen shard {shard}: {error}")),
        }
    }
    round.require(recovered == expected, || {
        format!("acked {expected} but {recovered} survived crash-and-reopen")
    });
    round.require(session_ok, || {
        "a recovered interaction reads back empty".into()
    });
}

// -- query_mixed --------------------------------------------------------------------------

/// A closed-loop reader beside an open-loop writer, on a store loaded during set-up.
fn query_round(spec: RoundSpec, sizes: &Sizes) -> Round {
    let mut round = Round::default();
    let tracer = spec.traced.then(Tracer::new);

    let setup = Instant::now();
    let corpus = Corpus::new(
        spec.seed,
        spec.round,
        sizes.corpus_sessions,
        sizes.corpus_per_session,
    );
    let ops = gen::query_ops(
        spec.seed,
        spec.round,
        sizes.reader_ops,
        corpus.sessions.len(),
    );
    let work = WorkDir::new(spec.workload.name());
    let deployment = deploy(
        ClusterConfig::with_shards(4),
        Storage::Kv {
            dir: work.0.clone(),
            durable: false,
        },
        tracer.clone(),
    );
    let transport = deployment.transport();
    for message in corpus.messages(1024) {
        if let Err(error) = send_record(&transport, None, Kind::Call, &message, Instant::now()) {
            round.problems.push(format!("corpus load: {error}"));
        }
    }
    deployment.cluster.flush().expect("corpus flushes");
    let reader = Reader {
        transport: &transport,
        tracer: None,
        corpus: &corpus,
    };
    for op in ops.iter().take(ops.len().min(30)) {
        if let Err(error) = reader.run(*op) {
            round.problems.push(format!("warm-up {op:?}: {error}"));
        }
    }
    round.set("setup_s", setup.elapsed().as_secs_f64());

    let window = deployment.open_window();
    let reader = Reader {
        tracer: tracer.as_ref(),
        ..reader
    };
    let done = AtomicBool::new(false);
    let writer_shape = RecordShape {
        sessions: 1,
        per_session: 16 * 64,
        per_message: 16,
        payload_bytes: 128,
    };
    let interval = Duration::from_secs_f64(
        writer_shape.per_message as f64 / sizes.writer_assertions_per_s as f64,
    );
    let barrier = Barrier::new(2);
    let (wall, by_class, read_failures, written) = std::thread::scope(|scope| {
        // Open loop: message i is due at start + i × interval whatever the store is doing,
        // and its latency runs from that due time, so a stall charges every send it delays.
        let writer = scope.spawn(|| {
            let mut rng = gen::Rng::stream(spec.seed, spec.round, 4);
            let (mut latency, mut late) = (Vec::new(), Vec::new());
            let (mut acked, mut sent, mut errors) = (0u64, 0u64, Vec::new());
            let mut pending: Vec<RecordMessage> = Vec::new();
            let mut session = 0usize;
            barrier.wait();
            let start = Instant::now();
            while !done.load(Ordering::Acquire) {
                if pending.is_empty() {
                    pending = gen::session_messages(&mut rng, "write", session, writer_shape);
                    pending.reverse();
                    session += 1;
                }
                let message = pending.pop().expect("refilled above");
                let due = start + interval * u32::try_from(sent).unwrap_or(u32::MAX);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(u64::try_from(due.elapsed().as_nanos()).unwrap_or(u64::MAX));
                sent += 1;
                match send_record(reader.transport, reader.tracer, Kind::Write, &message, due) {
                    Ok(ns) => {
                        latency.push(ns);
                        acked += message.len() as u64;
                    }
                    Err(error) => errors.push(error),
                }
            }
            (latency, late, acked, sent, errors)
        });
        barrier.wait();
        let start = Instant::now();
        let mut by_class: [Vec<u64>; 3] = Default::default();
        let mut failures = Vec::new();
        for op in &ops {
            let began = Instant::now();
            match reader.run(*op) {
                Ok(()) => by_class[op_class(*op)]
                    .push(u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX)),
                Err(error) => failures.push(format!("{op:?}: {error}")),
            }
        }
        let wall = start.elapsed();
        done.store(true, Ordering::Release);
        (
            wall,
            by_class,
            failures,
            writer.join().expect("writer thread"),
        )
    });
    deployment.close_window();
    let (write_latency, mut late, written_acked, write_sent, write_errors) = written;
    round.attempted = ops.len() as u64 + write_sent;
    round.failed = (read_failures.len() + write_errors.len()) as u64;
    for problem in read_failures.iter().chain(&write_errors).take(3) {
        round.problems.push(problem.clone());
    }

    let mut all: Vec<u64> = by_class.iter().flatten().copied().collect();
    round.require(!all.is_empty(), || "no reader op succeeded".into());
    if all.is_empty() {
        return round;
    }
    all.sort_unstable();
    let (_, tail_ns) = stats::tail_percentile(&all);
    round.set("work_per_s", all.len() as f64 / wall.as_secs_f64());
    round.set("tail_latency_us", micros(tail_ns));
    round.latencies_ns = all;
    for (class, name) in ["page", "session", "closure"].into_iter().enumerate() {
        let mut sorted = by_class[class].clone();
        sorted.sort_unstable();
        if !sorted.is_empty() {
            round.set(
                &format!("driver.{name}_p50_us"),
                micros(stats::percentile(&sorted, 50.0)),
            );
        }
    }
    late.sort_unstable();
    if !late.is_empty() {
        round.set("writer.late_p99_us", micros(stats::percentile(&late, 99.0)));
    }
    let mut write_sorted = write_latency;
    write_sorted.sort_unstable();
    if !write_sorted.is_empty() {
        round.set(
            "driver.ack_p50_us",
            micros(stats::percentile(&write_sorted, 50.0)),
        );
    }

    let expected = corpus.total() as u64 + written_acked;
    let stored = deployment
        .cluster
        .statistics()
        .map(|s| s.total_passertions());
    round.require(stored.as_ref().ok() == Some(&expected), || {
        format!("loaded and acked {expected} but the cluster holds {stored:?}")
    });
    let work_done = Work {
        assertions: written_acked,
        user_bytes: written_acked * writer_shape.payload_bytes as u64,
        results: ops.iter().map(|op| reader.result_rows(*op)).sum(),
    };
    layer_values(&mut round, spec, &deployment, &window, work_done);
    round
}

fn op_class(op: QueryOp) -> usize {
    match op {
        QueryOp::Page(_) => 0,
        QueryOp::Session(_) => 1,
        QueryOp::Closure(_) => 2,
    }
}

struct Reader<'a> {
    transport: &'a Transport,
    tracer: Option<&'a Arc<Tracer>>,
    corpus: &'a Corpus,
}

impl Reader<'_> {
    /// Rows a correct answer to `op` carries — constants of the corpus, so every answer is
    /// checked, not sampled.
    fn result_rows(&self, op: QueryOp) -> u64 {
        (match op {
            QueryOp::Page(_) => PAGE.min(self.corpus.per_session),
            QueryOp::Session(_) => self.corpus.per_session,
            QueryOp::Closure(_) => self.corpus.closure_nodes(),
        }) as u64
    }

    /// Issue `op` over the wire, decode the answer as a client would, and check its size.
    fn run(&self, op: QueryOp) -> Result<(), String> {
        let (QueryOp::Page(s) | QueryOp::Session(s) | QueryOp::Closure(s)) = op;
        let by_session = QueryRequest::BySession(self.corpus.sessions[s].clone());
        let (action, message) = match op {
            QueryOp::Page(_) => (
                "query-page",
                PrepMessage::QueryPage(PagedQuery {
                    request: by_session,
                    cursor: None,
                    page_size: PAGE,
                }),
            ),
            QueryOp::Session(_) => ("query", PrepMessage::Query(by_session)),
            QueryOp::Closure(_) => ("lineage", PrepMessage::Query(by_session)),
        };
        let envelope = json_envelope(action, &message);
        let (response, _) = call(
            self.transport,
            self.tracer,
            Kind::Call,
            envelope,
            Instant::now(),
        );
        let response = response.map_err(|e| e.to_string())?;
        let rows = match op {
            QueryOp::Page(_) => {
                let page: QueryPage = response.json_payload().map_err(|e| e.to_string())?;
                let more = self.corpus.per_session > PAGE;
                if page.next.is_some() != more {
                    return Err(format!("page cursor present: {}", page.next.is_some()));
                }
                page.assertions.len()
            }
            QueryOp::Session(_) => match response.json_payload().map_err(|e| e.to_string())? {
                QueryResponse::Assertions(found) => found.len(),
                other => return Err(format!("unexpected response {other:?}")),
            },
            QueryOp::Closure(_) => {
                let graph: LineageGraph = response.json_payload().map_err(|e| e.to_string())?;
                graph.closure_of(&self.corpus.deepest(s)).len()
            }
        };
        if rows as u64 == self.result_rows(op) {
            Ok(())
        } else {
            Err(format!("{rows} rows, expected {}", self.result_rows(op)))
        }
    }
}

// -- experiment_paper ---------------------------------------------------------------------

const MODES: [RunRecording; 3] = [
    RunRecording::None,
    RunRecording::Asynchronous,
    RunRecording::Synchronous,
];

/// The store's name on the experiment's own host, forwarding into the deployment's host
/// inside a driver span: the recorder's store calls are made by program code, so this is the
/// one place the benchmark can put its clock around them.
struct TracedStoreCalls {
    inner: Transport,
    tracer: Arc<Tracer>,
}

impl MessageHandler for TracedStoreCalls {
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        call(
            &self.inner,
            Some(&self.tracer),
            Kind::Call,
            request,
            Instant::now(),
        )
        .0
    }
}

/// The paper's run (Figure 4): the experiment once under each recording mode, against one
/// 4-shard TCP store, the order rotated per round so no mode always runs first.
fn experiment_round(spec: RoundSpec, sizes: &Sizes) -> Round {
    let mut round = Round::default();
    let tracer = spec.traced.then(Tracer::new);
    let config = |recording: RunRecording| {
        let base = if spec.toy {
            ExperimentConfig::small(sizes.permutations, recording)
        } else {
            ExperimentConfig::default()
        };
        ExperimentConfig {
            permutations: sizes.permutations,
            recording,
            seed: spec.seed,
            ..base
        }
    };

    let setup = Instant::now();
    let deployment = deploy(
        ClusterConfig::with_shards(4).over_tcp(),
        Storage::Memory,
        tracer.clone(),
    );
    let host = match &tracer {
        Some(tracer) => {
            let front = ServiceHost::new();
            front.register(
                PROVENANCE_STORE_SERVICE,
                Arc::new(TracedStoreCalls {
                    inner: deployment.transport(),
                    tracer: Arc::clone(tracer),
                }),
            );
            front
        }
        None => deployment.host.clone(),
    };
    let runner = ExperimentRunner::new(StoreDeployment {
        host,
        access: StoreAccess::Sharded(Arc::clone(&deployment.cluster)),
        latency: LatencyModel::zero(),
        sleep_latency: false,
    });
    // Warm-up: one small recorded run opens the pooled connections and faults the code in.
    let warm = runner.run(&ExperimentConfig {
        seed: spec.seed,
        ..ExperimentConfig::small(8, RunRecording::Synchronous)
    });
    round.set("setup_s", setup.elapsed().as_secs_f64());

    let window = deployment.open_window();
    let mut reports: Vec<ExperimentReport> = Vec::new();
    for i in 0..MODES.len() {
        let mode = MODES[(i + spec.round as usize) % MODES.len()];
        reports.push(runner.run(&config(mode)));
    }
    deployment.close_window();
    round.attempted = reports.len() as u64;
    let wall = |mode: RunRecording| {
        reports
            .iter()
            .find(|r| r.recording == mode)
            .map_or(0.0, |r| r.execution_time.as_secs_f64())
    };
    let (none, asynchronous, synchronous) = (
        wall(RunRecording::None),
        wall(RunRecording::Asynchronous),
        wall(RunRecording::Synchronous),
    );
    round.set("work_per_s", sizes.permutations as f64 / asynchronous);
    round.set("tail_latency_us", synchronous * 1e6);
    round.latencies_ns = vec![(synchronous * 1e9) as u64];
    round.set("experiment.async_wall_s", asynchronous);
    round.set("experiment.sync_wall_s", synchronous);
    round.set("experiment.norecord_wall_s", none);
    round.set(
        "experiment.recording_overhead_pct",
        (asynchronous / none - 1.0) * 100.0,
    );

    // The science must not depend on how it was documented.
    let science = |r: &ExperimentReport| format!("{:?}", r.results);
    round.require(
        reports.iter().all(|r| science(r) == science(&reports[0])),
        || "compressibility results differ between recording modes".into(),
    );
    // 6 p-assertions per measurement (permutations + the unpermuted sample) + 12 fixed.
    let expected = 6 * (sizes.permutations as u64 + 1) + 12;
    for report in &reports {
        let want = if report.recording == RunRecording::None {
            0
        } else {
            expected
        };
        round.require(report.passertions == want, || {
            format!(
                "{}: {} p-assertions, expected {want}",
                report.recording.label(),
                report.passertions
            )
        });
    }
    let stored = deployment
        .cluster
        .statistics()
        .map(|s| s.total_passertions());
    let recorded = 2 * expected + warm.passertions;
    round.require(stored.as_ref().ok() == Some(&recorded), || {
        format!("recorders shipped {recorded} but the cluster holds {stored:?}")
    });
    round.require(deployment.served_since(&window) > 0, || {
        "no frame crossed a socket".into()
    });
    // An experiment run has no per-call failures; a run counts as failed when a verifier
    // above found fault with the round.
    round.failed = round.problems.len().min(reports.len()) as u64;
    // The experiment's payloads are its own business: no user-byte denominator.
    let work_done = Work {
        assertions: 2 * expected,
        user_bytes: 0,
        results: 0,
    };
    layer_values(&mut round, spec, &deployment, &window, work_done);
    round
}
