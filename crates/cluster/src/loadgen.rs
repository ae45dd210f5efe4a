//! Load driver: many concurrent recorders hammering a provenance store deployment.
//!
//! The paper measures one workflow at a time; the sharded tier has to sustain recording from
//! many clients at once. [`LoadGenerator`] spawns client threads, each documenting its own
//! sessions with interaction p-assertions shipped in configurable batches, optionally kills
//! services mid-run ([`FaultPlan`]), and reports what the run did: assertions delivered,
//! failures, throughput, per-message latency percentiles, and the per-service dispatch,
//! retry, eviction and flush counts as deltas of the host registry over the run.
//!
//! It drives `examples/cluster_loadgen.rs`, the feed and observability baseline examples and
//! the cluster test suites. Throughput and latency claims about the record path are made by
//! the repository benchmark (`examples/benchmark`), not by this driver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pasoa_core::ids::{ActorId, DataId, IdGenerator, InteractionKey, SessionId};
use pasoa_core::passertion::{
    InteractionPAssertion, PAssertion, PAssertionContent, RecordedAssertion, ViewKind,
};
use pasoa_core::prep::{PrepMessage, RecordMessage};
use pasoa_core::prepwire;
use pasoa_core::PROVENANCE_STORE_SERVICE;
use pasoa_obs::{EventLog, TraceIdGen};
use pasoa_wire::{
    FaultAction, FaultActionKind, FaultInjector, FaultSchedule, ServiceHost, TransportConfig,
};

/// A fault to inject mid-workload: kill `service` once the run has sent `after_messages`
/// record messages. The kill goes through the host's [`pasoa_wire::FaultInjector`], so the
/// service becomes unreachable exactly as a crashed remote host would.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Service name to kill (e.g. a shard's registered name).
    pub service: String,
    /// Total record messages (across all clients) after which the kill fires. `0` kills the
    /// service before the first message is sent — the workload starts against an already-dead
    /// shard. A threshold beyond the run's total message count never fires (and is reported as
    /// not fired, rather than erroring or stalling the run).
    pub after_messages: u64,
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Sessions (workflow runs) each client records.
    pub sessions_per_client: usize,
    /// P-assertions per session.
    pub assertions_per_session: usize,
    /// Assertions bundled into one `Record` message (1 = the paper's synchronous mode).
    pub batch_size: usize,
    /// Approximate content bytes per p-assertion.
    pub payload_bytes: usize,
    /// Service name to send to.
    pub service_name: String,
    /// Faults to inject while the workload runs, in `after_messages` order.
    pub faults: Vec<FaultPlan>,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            clients: 8,
            sessions_per_client: 4,
            assertions_per_session: 64,
            batch_size: 16,
            payload_bytes: 128,
            service_name: PROVENANCE_STORE_SERVICE.to_string(),
            faults: Vec::new(),
        }
    }
}

/// Outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// P-assertions carried by *successful* record messages (failed calls excluded).
    pub total_assertions: u64,
    /// `Record` messages sent.
    pub messages_sent: u64,
    /// Failed calls.
    pub failures: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Assertions per second of wall-clock time.
    pub throughput_per_sec: f64,
    /// Median round-trip latency of the successful record calls.
    pub latency_p50: Duration,
    /// 99th percentile round-trip latency of the successful record calls.
    pub latency_p99: Duration,
    /// Calls dispatched per service (router + shards) during the run (`wire.dispatch.*`
    /// deltas); services the run never reached are omitted.
    pub dispatch_counts: Vec<(String, u64)>,
    /// Services killed by the run's fault plans, in firing order.
    pub faults_injected: Vec<String>,
    /// Network-client call retries during the run (`net.client.retries` registry delta) —
    /// zero for in-process deployments, which have no socket clients.
    pub net_retries: u64,
    /// Pooled connections evicted during the run (`net.client.pool_evictions` delta). The
    /// clients always counted these, but no report ever surfaced them.
    pub pool_evictions: u64,
    /// Batched shard flushes the router committed during the run (`router.flush.batches`
    /// delta) — zero when the router runs on a different host (TCP deployments), where the
    /// router's registry is not reachable from the caller's.
    pub router_flushes: u64,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} assertions in {:.3} s ({:.0}/s), {} messages, {} failures",
            self.total_assertions,
            self.elapsed.as_secs_f64(),
            self.throughput_per_sec,
            self.messages_sent,
            self.failures
        )?;
        writeln!(
            f,
            "latency p50 {:?}  p99 {:?}",
            self.latency_p50, self.latency_p99
        )?;
        if !self.faults_injected.is_empty() {
            writeln!(f, "faults injected: {}", self.faults_injected.join(", "))?;
        }
        if self.net_retries + self.pool_evictions > 0 {
            writeln!(
                f,
                "net: {} retries, {} pool evictions",
                self.net_retries, self.pool_evictions
            )?;
        }
        if self.router_flushes > 0 {
            writeln!(f, "router flushes: {}", self.router_flushes)?;
        }
        for (service, calls) in &self.dispatch_counts {
            writeln!(f, "  {service:<32} {calls} calls")?;
        }
        Ok(())
    }
}

/// Drives concurrent recorders against whatever provenance service is registered on the host.
pub struct LoadGenerator {
    host: ServiceHost,
    config: LoadGenConfig,
    /// Wave counter: each `run` documents fresh sessions, so repeated runs against a grown
    /// cluster actually exercise the rebalanced ring instead of re-hitting pinned sessions.
    wave: std::sync::atomic::AtomicU64,
    /// Source of per-message trace ids. Injectable ([`Self::with_trace_source`]) so
    /// deterministic harnesses replay the same ids, seed for seed.
    trace_ids: TraceIdGen,
}

impl LoadGenerator {
    /// Create a generator against `host`.
    pub fn new(host: ServiceHost, config: LoadGenConfig) -> Self {
        LoadGenerator {
            host,
            config,
            wave: std::sync::atomic::AtomicU64::new(0),
            trace_ids: TraceIdGen::new("load"),
        }
    }

    /// Replace the trace-id source — the injection point that keeps replays bit-identical: a
    /// harness (today `tests/observability_e2e.rs`) hands every run a generator seeded the
    /// same way.
    pub fn with_trace_source(mut self, trace_ids: TraceIdGen) -> Self {
        self.trace_ids = trace_ids;
        self
    }

    /// Execute the run and gather the report.
    pub fn run(&self) -> LoadReport {
        let dispatch_before = self.host.dispatch_counts();
        let obs_before = self.host.registry().snapshot();
        let config = Arc::new(self.config.clone());
        let wave = self.wave.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let trigger = Arc::new(FaultTrigger::new(
            self.host.fault_injector(),
            config.faults.clone(),
        ));
        // Plans with `after_messages == 0` model a shard that is already dead when the
        // workload starts; fire them before any client thread sends a message.
        trigger.arm();
        let start = Instant::now();

        let mut latencies: Vec<u64> = Vec::new();
        let mut messages = 0u64;
        let mut failures = 0u64;
        let mut delivered = 0u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(config.clients);
            for client in 0..config.clients {
                let host = self.host.clone();
                let config = Arc::clone(&config);
                let trigger = Arc::clone(&trigger);
                let trace_ids = self.trace_ids.clone();
                handles.push(
                    scope.spawn(move || {
                        client_run(wave, client, &host, &config, &trigger, &trace_ids)
                    }),
                );
            }
            for handle in handles {
                let outcome = handle.join().expect("load client panicked");
                latencies.extend(outcome.latencies_nanos);
                messages += outcome.messages;
                failures += outcome.failures;
                delivered += outcome.assertions_delivered;
            }
        });
        let elapsed = start.elapsed();

        latencies.sort_unstable();
        let percentile = |p: f64| -> Duration {
            if latencies.is_empty() {
                return Duration::ZERO;
            }
            let rank = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            Duration::from_nanos(latencies[rank])
        };
        // Counters only grow, so the run's share of every one is after minus before.
        let dispatch_counts = self
            .host
            .dispatch_counts()
            .into_iter()
            .filter_map(|(service, calls)| {
                let earlier = dispatch_before
                    .iter()
                    .find(|(name, _)| *name == service)
                    .map_or(0, |(_, calls)| *calls);
                (calls > earlier).then(|| (service, calls - earlier))
            })
            .collect();
        let obs_after = self.host.registry().snapshot();
        let delta = |name: &str| obs_after.counter_delta(&obs_before, name);
        // Count only assertions whose record message succeeded, so a misbehaving
        // deployment is not credited with the configured workload.
        LoadReport {
            total_assertions: delivered,
            messages_sent: messages,
            failures,
            elapsed,
            throughput_per_sec: delivered as f64 / elapsed.as_secs_f64().max(1e-9),
            latency_p50: percentile(0.50),
            latency_p99: percentile(0.99),
            dispatch_counts,
            faults_injected: trigger.fired(),
            net_retries: delta("net.client.retries"),
            pool_evictions: delta("net.client.pool_evictions"),
            router_flushes: delta("router.flush.batches"),
        }
    }
}

/// Fires the configured [`FaultPlan`]s as the message count crosses their thresholds — a thin
/// counter over the wire layer's schedulable fault injection ([`FaultSchedule`]). Shared by
/// every client thread; each plan fires exactly once.
struct FaultTrigger {
    schedule: FaultSchedule,
    sent: AtomicU64,
}

impl FaultTrigger {
    fn new(injector: FaultInjector, plans: Vec<FaultPlan>) -> Self {
        let actions = plans
            .into_iter()
            .map(|plan| FaultAction {
                at: plan.after_messages,
                service: plan.service,
                kind: FaultActionKind::Kill,
            })
            .collect();
        FaultTrigger {
            schedule: FaultSchedule::new(injector, actions),
            sent: AtomicU64::new(0),
        }
    }

    /// Fire every plan due before any message is sent (`after_messages == 0`). Called once,
    /// before the client threads start.
    fn arm(&self) {
        self.schedule.advance(0);
    }

    /// Called once per record message sent (successful or not).
    fn on_message(&self) {
        let total = self.sent.fetch_add(1, Ordering::Relaxed) + 1;
        self.schedule.advance(total);
    }

    /// Killed service names, in firing order.
    fn fired(&self) -> Vec<String> {
        self.schedule
            .fired()
            .into_iter()
            .map(|action| action.service)
            .collect()
    }
}

struct ClientOutcome {
    /// Latencies of the successful record calls.
    latencies_nanos: Vec<u64>,
    messages: u64,
    failures: u64,
    assertions_delivered: u64,
}

fn client_run(
    wave: u64,
    client: usize,
    host: &ServiceHost,
    config: &LoadGenConfig,
    trigger: &FaultTrigger,
    trace_ids: &TraceIdGen,
) -> ClientOutcome {
    let transport = host.transport(TransportConfig::free());
    let events: EventLog = host.registry().events();
    let asserter = ActorId::new(format!("load-client-{client}"));
    let payload = "x".repeat(config.payload_bytes.max(1));
    let mut outcome = ClientOutcome {
        latencies_nanos: Vec::new(),
        messages: 0,
        failures: 0,
        assertions_delivered: 0,
    };

    for session_index in 0..config.sessions_per_client {
        let session = SessionId::new(format!("session:load:w{wave}:c{client}:s{session_index}"));
        let ids = IdGenerator::new(session.as_str().to_string());
        let assertions: Vec<RecordedAssertion> = (0..config.assertions_per_session)
            .map(|i| RecordedAssertion {
                session: session.clone(),
                assertion: PAssertion::Interaction(InteractionPAssertion {
                    interaction_key: InteractionKey::new(format!(
                        "interaction:load:w{wave}:c{client}:s{session_index}:{i:06}"
                    )),
                    asserter: asserter.clone(),
                    view: ViewKind::Sender,
                    sender: asserter.clone(),
                    receiver: ActorId::new("measure-service"),
                    operation: "measure".into(),
                    content: PAssertionContent::text(payload.clone()),
                    data_ids: vec![DataId::new(format!(
                        "data:load:w{wave}:c{client}:s{session_index}:{i:06}"
                    ))],
                }),
            })
            .collect();

        for chunk in assertions.chunks(config.batch_size.max(1)) {
            let record = PrepMessage::Record(RecordMessage {
                message_id: ids.message_id(),
                asserter: asserter.clone(),
                assertions: chunk.to_vec(),
            });
            // Each record message is the entry point of one trace: allocate the root
            // context here, stamp the envelope, and every downstream hop (router flush,
            // shard store) logs under the same trace id.
            let ctx = trace_ids.next();
            let envelope = prepwire::request_envelope(&config.service_name, "record", &record)
                .expect("record messages serialize")
                .with_header(
                    pasoa_wire::envelope::header_names::SENDER,
                    asserter.as_str(),
                )
                .with_trace(&ctx);
            let call_start = Instant::now();
            match transport.call(envelope) {
                Ok(_) => {
                    let nanos = u64::try_from(call_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    events.push(
                        &ctx.trace_id,
                        ctx.span_id,
                        "client.record",
                        format!("client={client} batch={}", chunk.len()),
                        nanos,
                    );
                    outcome.latencies_nanos.push(nanos);
                    outcome.messages += 1;
                    outcome.assertions_delivered += chunk.len() as u64;
                }
                Err(_) => outcome.failures += 1,
            }
            trigger.on_message();
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreservCluster;

    fn small_config(faults: Vec<FaultPlan>) -> LoadGenConfig {
        LoadGenConfig {
            clients: 2,
            sessions_per_client: 2,
            assertions_per_session: 8,
            batch_size: 4,
            payload_bytes: 32,
            faults,
            ..Default::default()
        }
    }

    /// A kill at message 0 fires before the workload starts: the run proceeds against an
    /// already-dead shard without panicking or hanging, the replicated tier absorbs it, and
    /// the report still accounts for every assertion.
    #[test]
    fn kill_at_message_zero_fires_before_the_first_message() {
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_replicated(&host, 4, 2).unwrap();
        let victim = cluster.router().shard_names()[0].clone();
        let generator = LoadGenerator::new(
            host.clone(),
            small_config(vec![FaultPlan {
                service: victim.clone(),
                after_messages: 0,
            }]),
        );
        let report = generator.run();
        assert_eq!(report.faults_injected, vec![victim]);
        assert_eq!(report.failures, 0, "the dead shard must stay invisible");
        assert_eq!(report.total_assertions, 2 * 2 * 8);
        cluster.flush().unwrap();
        assert_eq!(
            cluster.statistics().unwrap().total_passertions(),
            report.total_assertions
        );
        assert_eq!(cluster.router().stats().failovers, 1);
    }

    /// The report reads the host registry: an in-process run sees the router's flush count
    /// as a per-run delta (not an absolute), and every record message leaves a client-side
    /// trace event in the host's event log.
    #[test]
    fn report_surfaces_registry_counters_as_run_deltas() {
        let host = ServiceHost::new();
        let mut config = crate::ClusterConfig::with_shards(2);
        config.batch_size = 4; // below the per-session assertion count, so the run flushes
        let cluster = PreservCluster::deploy_with(&host, config, |_| {
            Ok(Arc::new(pasoa_preserv::MemoryBackend::new())
                as Arc<dyn pasoa_preserv::StorageBackend>)
        })
        .unwrap();
        let generator = LoadGenerator::new(host.clone(), small_config(vec![]));
        let first = generator.run();
        assert!(first.router_flushes > 0, "threshold crossings must flush");
        assert_eq!(first.net_retries, 0);
        assert_eq!(first.pool_evictions, 0);
        let events = host.registry().events();
        assert!(
            !events.snapshot().is_empty(),
            "each record message logs a client event"
        );
        assert!(events
            .snapshot()
            .iter()
            .any(|event| event.stage == "client.record"));
        // Deltas, not absolutes: a second identical run reports its own flushes, not the
        // accumulated registry total (which would roughly double run over run).
        let registry_total_before = host.registry().snapshot().counter("router.flush.batches");
        let second = generator.run();
        assert!(second.router_flushes > 0);
        assert!(second.router_flushes <= registry_total_before + second.router_flushes);
        assert!(
            second.router_flushes < host.registry().snapshot().counter("router.flush.batches"),
            "the registry keeps accumulating while the report stays per-run"
        );
        // Dispatch counts likewise: each run reports its own router calls.
        for report in [&first, &second] {
            assert_eq!(store_calls(report), report.messages_sent);
        }
        assert_eq!(
            host.registry().snapshot().counter(STORE_DISPATCH),
            first.messages_sent + second.messages_sent
        );
        drop(cluster);
    }

    const STORE_DISPATCH: &str = "wire.dispatch.provenance-store";

    /// Calls the run dispatched to the well-known store name (the router).
    fn store_calls(report: &LoadReport) -> u64 {
        report
            .dispatch_counts
            .iter()
            .find(|(service, _)| service == PROVENANCE_STORE_SERVICE)
            .map_or(0, |(_, calls)| *calls)
    }

    /// A run on a host that already served traffic reports only its own calls and never
    /// winds the host's dispatch counters back: the `stats` service reports those same
    /// counters, and every registry reader relies on them only growing.
    #[test]
    fn a_run_never_winds_the_host_dispatch_counters_back() {
        let host = ServiceHost::new();
        let _cluster = PreservCluster::deploy_in_memory(&host, 2).unwrap();
        let earlier = LoadGenerator::new(
            host.clone(),
            LoadGenConfig {
                sessions_per_client: 6,
                ..small_config(vec![])
            },
        )
        .run();
        let counter = || host.registry().snapshot().counter(STORE_DISPATCH);
        let before = counter();
        assert_eq!(before, earlier.messages_sent);

        let report = LoadGenerator::new(host.clone(), small_config(vec![])).run();
        assert_eq!(report.failures, 0);
        let after = counter();
        assert!(
            after >= before,
            "the run wound {STORE_DISPATCH} back from {before} to {after}"
        );
        assert!(
            report.messages_sent < before,
            "the earlier traffic must dominate"
        );
        assert_eq!(after - before, report.messages_sent);
        assert_eq!(store_calls(&report), report.messages_sent);
    }

    /// A kill threshold beyond the run's total message count never fires: no panic, no hang,
    /// no phantom fault in the report.
    #[test]
    fn kill_after_the_last_message_never_fires() {
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_replicated(&host, 4, 2).unwrap();
        let victim = cluster.router().shard_names()[1].clone();
        let generator = LoadGenerator::new(
            host.clone(),
            small_config(vec![FaultPlan {
                service: victim,
                after_messages: u64::MAX,
            }]),
        );
        let report = generator.run();
        assert!(report.faults_injected.is_empty());
        assert_eq!(report.failures, 0);
        assert_eq!(report.total_assertions, 2 * 2 * 8);
        assert_eq!(cluster.router().stats().failovers, 0);
        assert!(!host.fault_injector().any_down());
    }
}
