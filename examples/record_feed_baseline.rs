//! Record the change-feed baseline into `BENCH_feed.json`.
//!
//! ```sh
//! cargo run --release --example record_feed_baseline [output.json]
//! ```
//!
//! Runs one recording workload (8 concurrent recorders, in-memory 4-shard cluster) against
//! three otherwise-identical deployments:
//!
//! - **baseline** — no feed attached: the raw recording throughput to beat.
//! - **tailed** — a feed with an `All` subscription drained concurrently by a tailer thread
//!   over the wire protocol, which yields the delivery throughput and the enqueue→delivery
//!   lag distribution (p50/p99 from the `feed.delivery.lag_nanos` histogram).
//! - **dead subscriber** — a feed with a small queue cap (256) and a subscriber that never
//!   polls, so every run overflows the queue. This is the no-stall gate: recording through
//!   a capped-out feed must stay ≥ 0.9x of the no-feed baseline.
//!
//! Each mode runs five interleaved scored rounds after one unscored warm-up and keeps its
//! best throughput, so a scheduler hiccup on one run cannot fail the gate. The warm-up also
//! fills the dead subscriber's queues, so every scored round measures the steady drop path
//! rather than the one-off cost of filling the queue.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pasoa::cluster::{ClusterConfig, FeedOptions, LoadGenConfig, LoadGenerator, PreservCluster};
use pasoa::feed::{FeedConfig, FeedFilter, FeedSubscriberClient};
use pasoa::preserv::{MemoryBackend, StorageBackend};
use pasoa::wire::{ServiceHost, TransportConfig};
use serde_json::json;

const ROUNDS: usize = 5;
const SHARDS: usize = 4;
/// Concurrent recorder clients driven against every deployment.
const CLIENTS: usize = 8;
/// Small enough that every round overflows it: the workload pushes ~256 events per shard.
const DEAD_QUEUE_CAP: usize = 256;

fn deploy(host: &ServiceHost, feed: Option<FeedOptions>) -> Arc<PreservCluster> {
    let mut config = ClusterConfig::with_shards(SHARDS);
    if let Some(options) = feed {
        config = config.with_feed(options);
    }
    PreservCluster::deploy_with(host, config, |_| {
        Ok(Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
    })
    .unwrap()
}

/// Register `subscriber` on every shard and return the connected wire clients.
fn subscribe_everywhere(cluster: &PreservCluster, subscriber: &str) -> Vec<FeedSubscriberClient> {
    cluster
        .router()
        .shard_names()
        .into_iter()
        .map(|shard| {
            let mut client = FeedSubscriberClient::new(
                cluster.fabric().transport(TransportConfig::free()),
                shard,
                subscriber,
                FeedFilter::All,
            );
            client.connect().unwrap();
            client
        })
        .collect()
}

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
    assert_eq!(report.failures, 0, "feed baseline run must not fail");
    report.throughput_per_sec
}

/// One tailed round: a tailer thread drains every shard concurrently while the load
/// generator records. Returns (recording throughput, delivered events, wall time from the
/// first record to the drained-empty tail).
fn tailed_round(host: &ServiceHost, cluster: &PreservCluster) -> (f64, u64, Duration) {
    let mut clients = subscribe_everywhere(cluster, "tailer");
    let stop = Arc::new(AtomicBool::new(false));
    let stop_tailer = Arc::clone(&stop);
    let start = Instant::now();
    let tailer = std::thread::spawn(move || {
        let mut delivered = 0u64;
        loop {
            let mut round = 0usize;
            for client in clients.iter_mut() {
                round += client.drain(64, 4).unwrap().len();
            }
            delivered += round as u64;
            if round == 0 {
                // Drained dry after the recorders finished: everything is delivered.
                if stop_tailer.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        delivered
    });
    let recording = throughput(host);
    stop.store(true, Ordering::Release);
    let delivered = tailer.join().expect("tailer thread");
    (recording, delivered, start.elapsed())
}

fn round3(value: f64) -> f64 {
    (value * 1000.0).round() / 1000.0
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_feed.json".to_string());

    let baseline_host = ServiceHost::new();
    let _baseline_cluster = deploy(&baseline_host, None);

    let tailed_host = ServiceHost::new();
    let tailed_cluster = deploy(&tailed_host, Some(FeedOptions::default()));

    let dead_host = ServiceHost::new();
    let dead_cluster = deploy(
        &dead_host,
        Some(FeedOptions {
            config: FeedConfig {
                queue_cap: DEAD_QUEUE_CAP,
                ..FeedConfig::default()
            },
            ..FeedOptions::default()
        }),
    );
    // Registered, then silent: the dead subscriber's queues cap out on every round.
    drop(subscribe_everywhere(&dead_cluster, "sleepy"));

    // Interleave the modes so drift (thermal, page cache, background noise) hits all three,
    // and keep each mode's best scored round. Round 0 warms every deployment up — caches,
    // allocator, and the dead subscriber's queues (which cap out during it) — and is not
    // scored.
    let (mut best_base, mut best_tailed, mut best_dead) = (0f64, 0f64, 0f64);
    let mut best_delivery = 0f64;
    let mut total_delivered = 0u64;
    for round in 0..=ROUNDS {
        let base = throughput(&baseline_host);
        let dead = throughput(&dead_host);
        let (tailed, delivered, elapsed) = tailed_round(&tailed_host, &tailed_cluster);
        let delivery = delivered as f64 / elapsed.as_secs_f64().max(1e-9);
        let tag = if round == 0 { " (warm-up)" } else { "" };
        println!(
            "round {round}{tag}: baseline {base:>9.0}/s  dead-sub {dead:>9.0}/s  \
             tailed {tailed:>9.0}/s  delivery {delivery:>9.0} ev/s"
        );
        // Warm-up deliveries still count toward the totals the sanity checks below compare
        // against the feed's counters; only the throughput scores ignore round 0.
        total_delivered += delivered;
        if round > 0 {
            best_base = best_base.max(base);
            best_dead = best_dead.max(dead);
            best_tailed = best_tailed.max(tailed);
            best_delivery = best_delivery.max(delivery);
        }
    }

    // The tailed cluster must have actually delivered: every staged event reached the
    // subscriber (the counter and the drain totals agree), and each delivery stamped the
    // lag histogram — otherwise the "delivery throughput" above measured a no-op.
    let tailed_stats = tailed_cluster.stats_snapshot().unwrap().merged();
    assert_eq!(
        tailed_stats.counter("feed.enqueued"),
        total_delivered,
        "the tailer must drain exactly what the feed enqueued"
    );
    let lag = tailed_stats
        .histogram("feed.delivery.lag_nanos")
        .expect("delivery lag histogram")
        .clone();
    assert_eq!(lag.count, total_delivered, "every delivery stamps its lag");
    let (lag_p50_us, lag_p99_us) = (
        lag.quantile(0.50) as f64 / 1_000.0,
        lag.quantile(0.99) as f64 / 1_000.0,
    );

    // The dead subscriber's queues must have overflowed loudly — bounded pending, a durable
    // dropped total — or the no-stall gate below gated nothing.
    let dead_snapshots: Vec<_> = dead_cluster
        .feed_queues()
        .iter()
        .flat_map(|queue| queue.snapshot())
        .collect();
    let dropped: u64 = dead_snapshots.iter().map(|snap| snap.dropped).sum();
    assert!(dropped > 0, "the dead subscriber's queues never capped out");
    for snap in &dead_snapshots {
        assert!(
            snap.pending <= DEAD_QUEUE_CAP as u64,
            "the cap must bound every queue ({} pending)",
            snap.pending
        );
    }

    let dead_ratio = best_dead / best_base.max(1e-9);
    let tailed_ratio = best_tailed / best_base.max(1e-9);
    let baseline = json!({
        "bench": "feed_baseline",
        "clients": CLIENTS,
        "backend": "memory",
        "shards": SHARDS,
        "rounds": ROUNDS,
        "baseline_per_sec": best_base.round(),
        "tailed_per_sec": best_tailed.round(),
        "dead_subscriber_per_sec": best_dead.round(),
        // Recording throughput with a capped-out, never-polling subscriber as a fraction of
        // the no-feed baseline — the price of the durable enqueue riding the record batch.
        "dead_subscriber_vs_baseline": round3(dead_ratio),
        "tailed_vs_baseline": round3(tailed_ratio),
        "delivery_events_per_sec": best_delivery.round(),
        "delivery_lag_p50_micros": round3(lag_p50_us),
        "delivery_lag_p99_micros": round3(lag_p99_us),
        "delivered_events": total_delivered,
        "dead_subscriber_dropped": dropped,
        "dead_subscriber_queue_cap": DEAD_QUEUE_CAP,
    });
    let mut json = serde_json::to_string(&baseline).expect("serialize baseline");
    json.push('\n');
    std::fs::write(&output, json).expect("write baseline json");
    println!("baseline written to {output}");

    // The no-stall gate: a slow or dead subscriber drops events, never records. Staging is
    // one extra key per matching subscriber inside the batch the record already pays for,
    // and a capped-out queue degrades to a single dropped-counter bump.
    assert!(
        dead_ratio >= 0.9,
        "recording through a capped-out feed runs at {dead_ratio:.3}x of the no-feed \
         baseline; a dead subscriber must cost at most 10%"
    );
}
