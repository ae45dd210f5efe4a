//! End-to-end observability over real sockets: one recorded batch must be followable by its
//! trace id from the client's entry point, through the router's flush, into the shard store
//! that committed it — and the `stats` service must answer structurally identical snapshots
//! whether the cluster runs in process or over TCP.

use std::collections::BTreeSet;
use std::sync::Arc;

use pasoa_cluster::{
    ClusterConfig, ClusterStatsSnapshot, LoadGenConfig, LoadGenerator, PreservCluster,
};
use pasoa_obs::TraceIdGen;
use pasoa_preserv::{MemoryBackend, StorageBackend};
use pasoa_wire::ServiceHost;

fn deploy(host: &ServiceHost, config: ClusterConfig) -> Arc<PreservCluster> {
    PreservCluster::deploy_with(host, config, |_| {
        Ok(Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
    })
    .expect("cluster deploys")
}

fn small_load(host: &ServiceHost) -> LoadGenerator {
    LoadGenerator::new(
        host.clone(),
        LoadGenConfig {
            clients: 2,
            sessions_per_client: 2,
            assertions_per_session: 12,
            batch_size: 4,
            payload_bytes: 32,
            ..Default::default()
        },
    )
    .with_trace_source(TraceIdGen::new("e2e"))
}

/// The tentpole's headline guarantee: with every envelope crossing a loopback socket, one
/// trace id ties together the client's `client.record` (span 0), the router's `router.flush`
/// hop (span 1) and the shard's `shard.store` (the same hop span, carried in the envelope's
/// trace header across the wire).
#[test]
fn a_batch_is_followable_client_to_router_to_shard_over_tcp() {
    let host = ServiceHost::new();
    let cluster = deploy(
        &host,
        ClusterConfig {
            shards: 2,
            batch_size: 4,
            ..Default::default()
        }
        .over_tcp(),
    );
    let report = small_load(&host).run();
    assert_eq!(report.failures, 0);

    // Client hop: the load generator allocated every root span from the injected source.
    let client_events = host.registry().snapshot().events;
    let client_ids: BTreeSet<String> = client_events
        .iter()
        .filter(|e| e.stage == "client.record")
        .map(|e| e.trace_id.clone())
        .collect();
    assert!(
        !client_ids.is_empty(),
        "no client.record events were logged"
    );
    assert!(
        client_ids.iter().all(|id| id.starts_with("e2e:")),
        "client spans must come from the injected trace source: {client_ids:?}"
    );

    // Router hop: batch_size 4 against 12-assertion sessions forces mid-run flushes, each
    // logged under the *client's* trace id at the router's child span.
    let router_events = cluster.router().stats_snapshot().registry.events;
    let flushes: Vec<_> = router_events
        .iter()
        .filter(|e| e.stage == "router.flush")
        .collect();
    assert!(!flushes.is_empty(), "no router.flush events were logged");

    // Shard hop: the same trace id crossed the second socket inside the envelope header.
    let stats = cluster.stats_snapshot().expect("stats scatter-gather");
    let stores: Vec<_> = stats
        .shards
        .iter()
        .flat_map(|shard| shard.registry.events.iter())
        .filter(|e| e.stage == "shard.store")
        .collect();
    assert!(!stores.is_empty(), "no shard.store events were logged");

    // Follow one flushed batch end to end.
    let flush = flushes[0];
    assert!(
        client_ids.contains(&flush.trace_id),
        "router flush trace id {} does not originate at any client",
        flush.trace_id
    );
    assert_eq!(
        flush.span_id, 1,
        "the router hop is the client's child span"
    );
    let client_span = client_events
        .iter()
        .find(|e| e.stage == "client.record" && e.trace_id == flush.trace_id)
        .expect("the client logged the root span");
    assert_eq!(client_span.span_id, 0, "clients allocate the root span");
    let store = stores
        .iter()
        .find(|e| e.trace_id == flush.trace_id)
        .expect("the flushed batch's trace id never reached a shard store event");
    assert_eq!(
        store.span_id, flush.span_id,
        "the shard logs at the router's hop span, as carried in the trace header"
    );
}

/// `stats_snapshot()` must answer the same *shape* over both transports: same shard roster,
/// same counter families per shard, the same well-known stages in the event logs — and the
/// whole thing must survive a JSON round trip (it crosses the wire as JSON).
#[test]
fn stats_snapshots_are_structurally_identical_over_tcp_and_in_process() {
    let snapshot_after_load = |config: ClusterConfig| -> ClusterStatsSnapshot {
        let host = ServiceHost::new();
        let cluster = deploy(&host, config);
        let report = small_load(&host).run();
        assert_eq!(report.failures, 0);
        cluster.stats_snapshot().expect("stats scatter-gather")
    };
    let base = || ClusterConfig {
        shards: 3,
        batch_size: 4,
        ..Default::default()
    };
    let inproc = snapshot_after_load(base());
    let tcp = snapshot_after_load(base().over_tcp());

    assert_eq!(inproc.router.service, tcp.router.service);
    assert_eq!(inproc.shards.len(), tcp.shards.len());
    for (a, b) in inproc.shards.iter().zip(&tcp.shards) {
        assert_eq!(a.service, b.service, "shard roster diverged");
        let families = |s: &pasoa_obs::StatsSnapshot| -> BTreeSet<String> {
            s.registry.counters.keys().cloned().collect()
        };
        assert_eq!(
            families(a),
            families(b),
            "shard {} reports different counter families per transport",
            a.service
        );
    }
    // Both transports committed the same workload through the same dispatch counter.
    for (label, stats) in [("in-process", &inproc), ("tcp", &tcp)] {
        let merged = stats.merged();
        assert!(
            merged.counter("preserv.dispatch.record") > 0,
            "{label}: no record dispatches reached the shards"
        );
        assert!(
            merged.events.iter().any(|e| e.stage == "shard.store"),
            "{label}: no shard.store events in the merged registry"
        );
    }

    // The snapshot is wire-safe: JSON out, JSON back, field-for-field equal.
    let json = serde_json::to_string(&tcp).expect("snapshot serializes");
    let back: ClusterStatsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
    assert_eq!(back.router, tcp.router);
    assert_eq!(back.shards, tcp.shards);
}

/// Every shard snapshot carries the read path's two counters, and over both transports a
/// JSON reader's pages, session queries and closures are served straight from the stored
/// documents: served grows, decoded does not. Only a typed gather decodes — at its edge.
#[test]
fn the_reader_path_serves_stored_documents_without_decoding() {
    use pasoa_core::prep::{PagedQuery, PrepMessage, QueryPage, QueryRequest, QueryResponse};
    use pasoa_core::{SessionId, PROVENANCE_STORE_SERVICE};
    use pasoa_preserv::LineageGraph;
    use pasoa_wire::{Envelope, TransportConfig};

    const SERVED: &str = "preserv.read.documents_served";
    const DECODED: &str = "preserv.read.documents_decoded";
    for config in [
        ClusterConfig::with_shards(3),
        ClusterConfig::with_shards(3).over_tcp(),
    ] {
        let host = ServiceHost::new();
        let cluster = deploy(&host, config);
        let report = small_load(&host).run();
        assert_eq!(report.failures, 0);
        cluster.flush().unwrap();
        let before = cluster.stats_snapshot().unwrap();
        for shard in &before.shards {
            let counters = &shard.registry.counters;
            assert!(counters.contains_key(SERVED) && counters.contains_key(DECODED));
        }
        // The load generator's first session (wave 0, client 0).
        let session = SessionId::new("session:load:w0:c0:s0");

        let client = host.transport(TransportConfig::passthrough());
        let ask = |message: PrepMessage| {
            let request = Envelope::request(PROVENANCE_STORE_SERVICE, message.action())
                .with_json_payload(&message)
                .unwrap();
            client.call(request).unwrap()
        };
        let by_session = QueryRequest::BySession(session.clone());
        let page: QueryPage = ask(PrepMessage::QueryPage(PagedQuery {
            request: by_session.clone(),
            cursor: None,
            page_size: 5,
        }))
        .json_payload()
        .unwrap();
        let answer: QueryResponse = ask(PrepMessage::Query(by_session.clone()))
            .json_payload()
            .unwrap();
        let lineage = Envelope::request(PROVENANCE_STORE_SERVICE, "lineage")
            .with_json_payload(&PrepMessage::Query(by_session))
            .unwrap();
        let _: LineageGraph = client.call(lineage).unwrap().json_payload().unwrap();
        let QueryResponse::Assertions(found) = answer else {
            panic!("session {} answered empty", session.as_str())
        };
        let after = cluster.stats_snapshot().unwrap().merged();
        let before = before.merged();
        assert_eq!(
            after.counter_delta(&before, SERVED),
            (page.assertions.len() + found.len()) as u64
        );
        assert_eq!(
            after.counter_delta(&before, DECODED),
            0,
            "the reader path decoded"
        );

        // A typed caller decodes at its edge, and that is what the counter shows.
        let typed = cluster.assertions_for_session(&session).unwrap();
        assert_eq!(typed, found);
        let last = cluster.stats_snapshot().unwrap().merged();
        assert_eq!(last.counter_delta(&after, DECODED), found.len() as u64);
    }
}
