//! Record the observability-overhead baseline into `BENCH_obs.json`.
//!
//! ```sh
//! cargo run --release --example record_obs_overhead [output.json]
//! ```
//!
//! Runs one recording workload (8 concurrent recorders, in-memory 4-shard cluster) against
//! two otherwise-identical deployments: one on a default host (registry enabled — every
//! record allocates a trace context, bumps dispatch counters and lands flush events) and one
//! on a host built from `Registry::disabled()`, where the whole instrument tree hands out
//! inert handles and a metric update is a single branch on a null pointer.
//!
//! The ratio instrumented/uninstrumented is the price of always-on observability, and the
//! gate holds it at ≥ 0.95x (≤ 5% overhead). Each mode runs three interleaved times and
//! keeps its best throughput, so a scheduler hiccup on one run cannot fail the gate.

use pasoa::cluster::{LoadGenConfig, LoadGenerator, PreservCluster};
use pasoa::obs::Registry;
use pasoa::wire::ServiceHost;
use serde_json::json;

const ROUNDS: usize = 3;
/// Concurrent recorder clients driven against both deployments.
const CLIENTS: usize = 8;

fn throughput(host: &ServiceHost) -> f64 {
    let config = LoadGenConfig {
        clients: CLIENTS,
        sessions_per_client: 2,
        assertions_per_session: 64,
        batch_size: 16,
        payload_bytes: 128,
        ..Default::default()
    };
    let report = LoadGenerator::new(host.clone(), config).run();
    assert_eq!(report.failures, 0, "overhead baseline run must not fail");
    report.throughput_per_sec
}

fn round3(value: f64) -> f64 {
    (value * 1000.0).round() / 1000.0
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_obs.json".to_string());

    let instrumented_host = ServiceHost::new();
    assert!(instrumented_host.registry().is_enabled());
    let instrumented_cluster = PreservCluster::deploy_in_memory(&instrumented_host, 4).unwrap();

    let disabled_host = ServiceHost::with_registry(Registry::disabled());
    assert!(!disabled_host.registry().is_enabled());
    let _disabled_cluster = PreservCluster::deploy_in_memory(&disabled_host, 4).unwrap();

    // Interleave the modes so drift (thermal, page cache, background noise) hits both, and
    // keep each mode's best round.
    let (mut best_on, mut best_off) = (0f64, 0f64);
    for round in 0..ROUNDS {
        let off = throughput(&disabled_host);
        let on = throughput(&instrumented_host);
        println!("round {round}: disabled {off:>9.0}/s  enabled {on:>9.0}/s");
        best_off = best_off.max(off);
        best_on = best_on.max(on);
    }

    // The instrumented run must have actually instrumented: counters moved and trace events
    // landed, otherwise the "overhead" we just measured was of a no-op.
    let snapshot = instrumented_host.registry().snapshot();
    assert!(
        snapshot.counter("router.flush.batches") > 0,
        "instrumented cluster recorded no flushes"
    );
    assert!(
        snapshot
            .events
            .iter()
            .any(|event| event.stage == "router.flush"),
        "instrumented cluster logged no router.flush events"
    );
    let merged = instrumented_cluster.stats_snapshot().unwrap().merged();
    assert!(
        merged.counter("preserv.dispatch.record") > 0,
        "instrumented shards counted no record dispatches"
    );

    let ratio = best_on / best_off.max(1e-9);
    let baseline = json!({
        "bench": "obs_overhead",
        "clients": CLIENTS,
        "backend": "memory",
        "shards": 4,
        "rounds": ROUNDS,
        "uninstrumented_per_sec": best_off.round(),
        "instrumented_per_sec": best_on.round(),
        // Instrumented throughput as a fraction of the Registry::disabled() deployment —
        // the price of always-on counters, histograms and trace events.
        "instrumented_vs_uninstrumented": round3(ratio),
    });
    let mut json = serde_json::to_string(&baseline).expect("serialize baseline");
    json.push('\n');
    std::fs::write(&output, json).expect("write baseline json");
    println!("baseline written to {output}");

    // The ≤5% overhead gate: observability is designed to be cheap enough to never turn
    // off — relaxed instrument updates, lock-free histograms, one Instant read per flush.
    assert!(
        ratio >= 0.95,
        "instrumented cluster runs at {ratio:.3}x of uninstrumented; \
         observability must cost at most 5%"
    );
}
