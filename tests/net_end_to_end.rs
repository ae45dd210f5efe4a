//! End-to-end acceptance for the TCP transport tier: the full cluster stack — batched
//! recording, replication, failover, scatter-gather, pagination — running with every envelope
//! crossing a real loopback socket, proven indistinguishable from the in-process deployment.
//!
//! The centerpiece mirrors PR 2's kill-a-shard acceptance test, but the kill is a *real
//! socket kill*: the victim shard's TCP listener is shut down mid-workload with no fault
//! injector involved, and the router must discover the death through connection errors alone.

use std::sync::atomic::{AtomicU64, Ordering};

use pasoa::cluster::{ClusterTransport, PreservCluster};
use pasoa::model::ids::{ActorId, DataId, IdGenerator, InteractionKey, MessageId, SessionId};
use pasoa::model::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RecordedAssertion, RelationshipPAssertion, ViewKind,
};
use pasoa::model::prep::{
    PagedQuery, PrepMessage, QueryPage, QueryRequest, QueryResponse, RecordMessage,
};
use pasoa::model::{prepwire, PROVENANCE_STORE_SERVICE};
use pasoa::net::{NetClient, NetClientConfig, MAX_VERSION, VERSION_TEXT};
use pasoa::wire::{Envelope, ServiceHost, TransportConfig, WireResult};

const CLIENTS: usize = 4;
const SESSIONS: usize = 3;
const ASSERTIONS_PER_SESSION: usize = 40;
const CHUNK: usize = 8;
/// Record messages (across all clients) after which the victim's server is killed.
const KILL_AFTER_MESSAGES: u64 = 30;

fn workload_assertion(client: usize, session: usize, i: usize) -> RecordedAssertion {
    let session_id = SessionId::new(format!("session:nete2e:c{client}:s{session}"));
    RecordedAssertion {
        session: session_id,
        assertion: PAssertion::Interaction(InteractionPAssertion {
            interaction_key: InteractionKey::new(format!(
                "interaction:nete2e:c{client}:s{session}:{i:06}"
            )),
            asserter: ActorId::new(format!("load-client-{client}")),
            view: ViewKind::Sender,
            sender: ActorId::new(format!("load-client-{client}")),
            receiver: ActorId::new("measure-service"),
            operation: "measure".into(),
            content: PAssertionContent::text("x".repeat(64)),
            data_ids: vec![DataId::new(format!(
                "data:nete2e:c{client}:s{session}:{i:06}"
            ))],
        }),
    }
}

/// Run the standard concurrent workload against whatever serves the store name on `host`.
/// `on_message` observes the global record-message count *before* each send — the hook the
/// faulted run uses to kill the victim's server at a deterministic point in the workload.
fn run_workload(host: &ServiceHost, on_message: impl Fn(u64) + Sync) -> u64 {
    let sent = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let host = host.clone();
            let sent = &sent;
            let failures = &failures;
            let on_message = &on_message;
            scope.spawn(move || {
                let transport = host.transport(TransportConfig::free());
                let ids = IdGenerator::new(format!("nete2e-{client}"));
                for session in 0..SESSIONS {
                    let assertions: Vec<RecordedAssertion> = (0..ASSERTIONS_PER_SESSION)
                        .map(|i| workload_assertion(client, session, i))
                        .collect();
                    for chunk in assertions.chunks(CHUNK) {
                        on_message(sent.fetch_add(1, Ordering::SeqCst));
                        let message = PrepMessage::Record(RecordMessage {
                            message_id: ids.message_id(),
                            asserter: ActorId::new(format!("load-client-{client}")),
                            assertions: chunk.to_vec(),
                        });
                        let envelope = Envelope::request(
                            pasoa::model::PROVENANCE_STORE_SERVICE,
                            message.action(),
                        )
                        .with_json_payload(&message)
                        .unwrap();
                        if transport.call(envelope).is_err() {
                            failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
    });
    failures.load(Ordering::SeqCst)
}

fn ask(host: &ServiceHost, query: &PrepMessage) -> QueryResponse {
    let transport = host.transport(TransportConfig::free());
    let envelope = Envelope::request(pasoa::model::PROVENANCE_STORE_SERVICE, query.action())
        .with_json_payload(query)
        .unwrap();
    transport.call(envelope).unwrap().json_payload().unwrap()
}

/// The acceptance test: with R=2, killing any shard's TCP listener mid-workload — a real
/// socket kill — loses zero acked p-assertions, stays invisible to recording clients, and
/// leaves every answer bit-identical to a fault-free in-process run of the same workload.
#[test]
fn tcp_kill_a_shard_e2e_zero_acked_loss_and_identical_answers() {
    // Fault-free in-process reference run of the identical workload.
    let reference_host = ServiceHost::new();
    let reference = PreservCluster::deploy_replicated(&reference_host, 4, 2).unwrap();
    assert_eq!(run_workload(&reference_host, |_| {}), 0);

    // Faulted TCP run: shard 1's listener dies after KILL_AFTER_MESSAGES record messages.
    let host = ServiceHost::new();
    let cluster = PreservCluster::deploy_tcp_replicated(&host, 4, 2).unwrap();
    assert_eq!(cluster.transport(), ClusterTransport::Tcp);
    let killed = AtomicU64::new(0);
    let failures = run_workload(&host, |message_count| {
        if message_count == KILL_AFTER_MESSAGES && killed.fetch_add(1, Ordering::SeqCst) == 0 {
            assert!(cluster.shutdown_shard_server(1), "victim server was up");
        }
    });
    assert!(
        killed.load(Ordering::SeqCst) >= 1,
        "the kill fired mid-workload"
    );
    assert_eq!(
        failures, 0,
        "the socket kill must be invisible to recording clients"
    );

    // Flush (any query flushes first) and verify the failover machinery ran off the socket
    // error alone: no fault was ever injected in this test.
    cluster.flush().unwrap();
    let stats = cluster.router().stats();
    assert_eq!(stats.failovers, 1);
    assert_eq!(cluster.router().live_shards().len(), 3);
    assert!(stats.sessions_promoted > 0 || stats.batches_flushed > 0);

    // Every scatter-gather answer matches the fault-free reference bit-for-bit — both via
    // the direct query surface and via real envelopes through the TCP router.
    assert_eq!(
        cluster.statistics().unwrap(),
        reference.statistics().unwrap()
    );
    assert_eq!(
        cluster.list_interactions(None).unwrap(),
        reference.list_interactions(None).unwrap()
    );
    for client in 0..CLIENTS {
        for s in 0..SESSIONS {
            let session = SessionId::new(format!("session:nete2e:c{client}:s{s}"));
            assert_eq!(
                cluster.assertions_for_session(&session).unwrap(),
                reference.assertions_for_session(&session).unwrap(),
                "session {session:?} diverged from the fault-free run"
            );
            assert_eq!(
                cluster.lineage_session(&session).unwrap(),
                reference.lineage_session(&session).unwrap()
            );
        }
    }
    for query in [
        PrepMessage::Query(QueryRequest::BySession(SessionId::new(
            "session:nete2e:c0:s0",
        ))),
        PrepMessage::Query(QueryRequest::ListInteractions { limit: None }),
        PrepMessage::Query(QueryRequest::Statistics),
    ] {
        assert_eq!(
            ask(&host, &query),
            ask(&reference_host, &query),
            "wire-level query {query:?} diverged across transports"
        );
    }

    // Paginated scatter-gather returns identical pages over both transports, across the
    // failover. Each deployment is paged with its *own* cursor chain — cursors embed
    // deployment-local store sequence numbers, so the tokens are opaque, but the pages they
    // fence off must carry the same p-assertions and exhaust at the same point.
    let session = SessionId::new("session:nete2e:c1:s1");
    let mut tcp_cursor = None;
    let mut ref_cursor = None;
    let mut pages = 0usize;
    loop {
        let message = PrepMessage::QueryPage(PagedQuery {
            request: QueryRequest::BySession(session.clone()),
            page_size: 7,
            cursor: tcp_cursor.clone(),
        });
        let over_tcp: QueryPage = {
            let transport = host.transport(TransportConfig::free());
            let envelope =
                Envelope::request(pasoa::model::PROVENANCE_STORE_SERVICE, message.action())
                    .with_json_payload(&message)
                    .unwrap();
            transport.call(envelope).unwrap().json_payload().unwrap()
        };
        let in_process = reference
            .query_page(&PagedQuery {
                request: QueryRequest::BySession(session.clone()),
                page_size: 7,
                cursor: ref_cursor.clone(),
            })
            .unwrap();
        assert_eq!(
            over_tcp.assertions, in_process.assertions,
            "page {pages} diverged"
        );
        assert_eq!(
            over_tcp.next.is_none(),
            in_process.next.is_none(),
            "pagination exhausted at different points"
        );
        pages += 1;
        match (over_tcp.next, in_process.next) {
            (Some(t), Some(r)) => {
                tcp_cursor = Some(t);
                ref_cursor = Some(r);
            }
            _ => break,
        }
    }
    assert!(
        pages >= 6,
        "40 items at page size 7 must take several pages"
    );

    // The TCP tier's own counters (the ServiceHost-style observability surface): the router
    // server carried every record message and query; the victim is down; the survivors saw
    // batch traffic; nothing was rejected as malformed on the way.
    let net_stats = cluster.net_server_stats();
    assert_eq!(net_stats.len(), 5, "4 shard servers + the router server");
    let (router_name, router_stats) = net_stats.last().unwrap();
    assert_eq!(router_name, pasoa::model::PROVENANCE_STORE_SERVICE);
    let total_messages = (CLIENTS * SESSIONS * ASSERTIONS_PER_SESSION / CHUNK) as u64;
    assert!(
        router_stats.requests >= total_messages,
        "router server saw {} requests, expected at least {total_messages}",
        router_stats.requests
    );
    assert!(router_stats.bytes_in > 0 && router_stats.bytes_out > 0);
    assert_eq!(router_stats.rejected_frames, 0);
    assert_eq!(router_stats.protocol_errors, 0);
    let survivor_requests: u64 = net_stats[..4]
        .iter()
        .enumerate()
        .filter(|(shard, _)| *shard != 1)
        .map(|(_, (_, s))| s.requests)
        .sum();
    assert!(survivor_requests > 0, "no batch reached a surviving shard");
    let per_service_total: u64 = net_stats
        .iter()
        .flat_map(|(_, s)| s.per_service.iter().map(|(_, n)| *n))
        .sum();
    let all_requests: u64 = net_stats.iter().map(|(_, s)| s.requests).sum();
    assert_eq!(
        per_service_total, all_requests,
        "per-service counters account for every request"
    );
}

/// A growing TCP cluster stays correct: add a shard mid-life (its own new listener), rerun
/// the workload, and every answer still matches an in-process cluster grown the same way.
#[test]
fn tcp_cluster_grows_identically_to_in_process() {
    let tcp_host = ServiceHost::new();
    let tcp = PreservCluster::deploy_tcp(&tcp_host, 2).unwrap();
    let ref_host = ServiceHost::new();
    let reference = PreservCluster::deploy_in_memory(&ref_host, 2).unwrap();

    assert_eq!(run_workload(&tcp_host, |_| {}), 0);
    assert_eq!(run_workload(&ref_host, |_| {}), 0);
    tcp.add_shard().unwrap();
    reference.add_shard().unwrap();

    // Same post-rebalance state on both transports.
    assert_eq!(tcp.shard_count(), 3);
    assert_eq!(tcp.statistics().unwrap(), reference.statistics().unwrap());
    for client in 0..CLIENTS {
        for s in 0..SESSIONS {
            let session = SessionId::new(format!("session:nete2e:c{client}:s{s}"));
            assert_eq!(
                tcp.assertions_for_session(&session).unwrap(),
                reference.assertions_for_session(&session).unwrap()
            );
        }
    }
}

/// Sessions the seeded messages of the textual-peer test are spread over.
const SEEDED_SESSIONS: u64 = 5;

/// Record messages drawn from `seed`: every assertion kind, payloads of varied length with
/// XML-hostile and multi-byte text, spread over [`SEEDED_SESSIONS`] sessions.
fn seeded_messages(seed: u64, count: usize) -> Vec<RecordMessage> {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|m| {
            let asserter = ActorId::new(format!("v1peer-{}", next() % 3));
            let assertions = (0..1 + next() % 12)
                .map(|i| {
                    let session =
                        SessionId::new(format!("session:v1peer:{}", next() % SEEDED_SESSIONS));
                    let key = InteractionKey::new(format!("interaction:v1peer:{m}:{i}"));
                    let text = "<a&b> \"é環\" ".repeat((next() % 40) as usize);
                    let assertion = match next() % 3 {
                        0 => PAssertion::Interaction(InteractionPAssertion {
                            interaction_key: key,
                            asserter: asserter.clone(),
                            view: ViewKind::Sender,
                            sender: asserter.clone(),
                            receiver: ActorId::new("store"),
                            operation: "record".into(),
                            content: PAssertionContent::text(text),
                            data_ids: vec![DataId::new(format!("data:v1peer:{m}:{i}"))],
                        }),
                        1 => PAssertion::ActorState(ActorStatePAssertion {
                            interaction_key: key,
                            asserter: asserter.clone(),
                            view: ViewKind::Receiver,
                            kind: ActorStateKind::Script,
                            content: PAssertionContent::structured(&text),
                        }),
                        _ => PAssertion::Relationship(RelationshipPAssertion {
                            interaction_key: key.clone(),
                            asserter: asserter.clone(),
                            effect: DataId::new(format!("data:v1peer:{m}:{i}:out")),
                            causes: vec![(key, DataId::new(format!("data:v1peer:{m}:{i}")))],
                            relation: "derived-from".into(),
                        }),
                    };
                    RecordedAssertion { session, assertion }
                })
                .collect();
            RecordMessage {
                message_id: MessageId::new(format!("message:v1peer:{m}")),
                asserter,
                assertions,
            }
        })
        .collect()
}

/// Send every message in its packed body through `call` and check each ack.
fn record_packed(messages: &[RecordMessage], call: impl Fn(Envelope) -> WireResult<Envelope>) {
    for message in messages {
        let record = PrepMessage::Record(message.clone());
        let request =
            prepwire::request_envelope(PROVENANCE_STORE_SERVICE, record.action(), &record).unwrap();
        let response = call(request).unwrap();
        let ack = prepwire::ack_from_element(&response.body).unwrap();
        assert!(ack.fully_accepted(), "{:?}", ack.rejected);
        assert_eq!(ack.accepted, message.assertions.len());
    }
}

/// Every stored `a/` document of every session, per shard: `(shard, sort key, bytes)`.
fn stored_documents(cluster: &PreservCluster) -> Vec<(usize, String, Vec<u8>)> {
    let mut out = Vec::new();
    for (shard, store) in cluster.shard_stores().iter().enumerate() {
        for s in 0..SEEDED_SESSIONS {
            let session = QueryRequest::BySession(SessionId::new(format!("session:v1peer:{s}")));
            for (sort, bytes) in store.documents(&session).unwrap() {
                out.push((shard, sort, bytes));
            }
        }
    }
    out
}

/// A peer that speaks only textual (v1) frames — where packed bodies travel as base64 text —
/// and a default (binary v2) peer, where they travel as raw bytes, record the same seeded
/// messages into two TCP clusters. Both clusters store byte-identical documents, identical
/// to an in-process cluster's, whose envelopes never leave memory.
#[test]
fn a_textual_peer_and_a_binary_peer_store_identical_documents() {
    let messages = seeded_messages(0x5EED_0001, 40);
    let total: usize = messages.iter().map(|m| m.assertions.len()).sum();

    let host = ServiceHost::new();
    let in_process = PreservCluster::deploy_in_memory(&host, 2).unwrap();
    let transport = host.transport(TransportConfig::passthrough());
    record_packed(&messages, |request| transport.call(request));
    in_process.flush().unwrap();
    let reference = stored_documents(&in_process);
    assert_eq!(reference.len(), total, "every assertion is stored once");

    for max_wire_version in [VERSION_TEXT, MAX_VERSION] {
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_tcp(&host, 2).unwrap();
        let client = NetClient::new(
            cluster.router_addr().unwrap(),
            PROVENANCE_STORE_SERVICE,
            NetClientConfig {
                max_wire_version,
                ..NetClientConfig::default()
            },
        );
        record_packed(&messages, |request| client.call(&request));
        cluster.flush().unwrap();
        let (_, router) = cluster.net_server_stats().pop().unwrap();
        assert_eq!(
            router.binary_frames > 0,
            max_wire_version == MAX_VERSION,
            "the client spoke the pinned wire version"
        );
        assert!(
            stored_documents(&cluster) == reference,
            "v{max_wire_version} peer's stored documents differ from the in-process cluster's"
        );
    }
}
