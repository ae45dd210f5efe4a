//! The cluster tier over real sockets: `deploy_tcp` must behave exactly like the in-process
//! deployment — same answers, same elasticity, same failover guarantees — with every envelope
//! crossing a loopback TCP connection.

use std::sync::Arc;

use pasoa_cluster::{ClusterTransport, LoadGenConfig, LoadGenerator, PreservCluster};
use pasoa_core::ids::{ActorId, IdGenerator, SessionId};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
};
use pasoa_core::recorder::{ProvenanceRecorder, SyncRecorder};
use pasoa_core::{Group, GroupKind};
use pasoa_wire::{ServiceHost, TransportConfig};

fn assertion(session: &str, i: usize) -> PAssertion {
    PAssertion::ActorState(ActorStatePAssertion {
        interaction_key: pasoa_core::ids::InteractionKey::new(format!(
            "interaction:{session}:{i:04}"
        )),
        asserter: ActorId::new("engine"),
        view: ViewKind::Receiver,
        kind: ActorStateKind::Script,
        content: PAssertionContent::text(format!("script {i} <with> & \"escapes\"")),
    })
}

#[test]
fn tcp_cluster_answers_match_the_in_process_cluster() {
    let record_into = |host: &ServiceHost| {
        for s in 0..6 {
            let session = SessionId::new(format!("session:tcp-parity:{s}"));
            let recorder = SyncRecorder::new(
                session.clone(),
                ActorId::new("engine"),
                host.transport(TransportConfig::free()),
                IdGenerator::new(format!("r{s}")),
            );
            for i in 0..15 {
                recorder.record(assertion(session.as_str(), i)).unwrap();
            }
            recorder
                .register_group(Group::new(session.as_str(), GroupKind::Session))
                .unwrap();
        }
    };

    let inproc_host = ServiceHost::new();
    let inproc = PreservCluster::deploy_in_memory(&inproc_host, 4).unwrap();
    record_into(&inproc_host);

    let tcp_host = ServiceHost::new();
    let tcp = PreservCluster::deploy_tcp(&tcp_host, 4).unwrap();
    assert_eq!(tcp.transport(), ClusterTransport::Tcp);
    assert!(tcp.router_addr().is_some());
    record_into(&tcp_host);

    // Every query a reasoner can pose agrees bit-for-bit across the two transports.
    assert_eq!(tcp.statistics().unwrap(), inproc.statistics().unwrap());
    assert_eq!(
        tcp.list_interactions(None).unwrap(),
        inproc.list_interactions(None).unwrap()
    );
    assert_eq!(
        tcp.groups_by_kind("session").unwrap(),
        inproc.groups_by_kind("session").unwrap()
    );
    for s in 0..6 {
        let session = SessionId::new(format!("session:tcp-parity:{s}"));
        assert_eq!(
            tcp.assertions_for_session(&session).unwrap(),
            inproc.assertions_for_session(&session).unwrap()
        );
        assert_eq!(
            tcp.lineage_session(&session).unwrap(),
            inproc.lineage_session(&session).unwrap()
        );
    }

    // The messages really crossed sockets: the router's server carried every client call,
    // and the shard servers carried the flushed batches (a shard owning no session may
    // legitimately be idle, but the tier as a whole must have moved real bytes).
    let stats = tcp.net_server_stats();
    assert_eq!(stats.len(), 5, "4 shard servers + the router server");
    let router_stats = &stats.last().unwrap().1;
    assert!(
        router_stats.requests >= 6 * 15,
        "one frame per recorded assertion"
    );
    assert!(router_stats.bytes_in > 0 && router_stats.bytes_out > 0);
    let shard_requests: u64 = stats[..4].iter().map(|(_, s)| s.requests).sum();
    assert!(shard_requests > 0, "no batch ever crossed a shard socket");
}

#[test]
fn add_shard_works_over_tcp() {
    let host = ServiceHost::new();
    let cluster = PreservCluster::deploy_tcp(&host, 2).unwrap();
    let generator = LoadGenerator::new(
        host.clone(),
        LoadGenConfig {
            clients: 4,
            sessions_per_client: 2,
            assertions_per_session: 24,
            batch_size: 8,
            payload_bytes: 64,
            ..Default::default()
        },
    );
    let before = generator.run();
    assert_eq!(before.failures, 0);

    let name = cluster.add_shard().unwrap();
    assert_eq!(cluster.shard_count(), 3);
    assert!(cluster.shard_server_addr(2).is_some(), "new shard listens");

    let after = generator.run();
    assert_eq!(after.failures, 0);
    let stats = cluster.statistics().unwrap();
    assert_eq!(
        stats.total_passertions(),
        before.total_assertions + after.total_assertions
    );
    // The new shard's server is live on the fabric (the router can reach it).
    assert!(cluster.fabric().has_service(&name));
}

/// Killing a shard's *server* — a real socket kill, no injected fault anywhere — must flow
/// through connection errors into the same ServiceDown/failover path, with zero acked loss.
#[test]
fn real_socket_kill_fails_over_with_zero_acked_loss() {
    let host = ServiceHost::new();
    let cluster = PreservCluster::deploy_tcp_replicated(&host, 4, 2).unwrap();
    let reference_host = ServiceHost::new();
    let reference = PreservCluster::deploy_replicated(&reference_host, 4, 2).unwrap();

    let record_sessions = |host: &ServiceHost, upto: std::ops::Range<usize>| {
        for s in upto {
            let session = SessionId::new(format!("session:socket-kill:{s}"));
            let recorder = SyncRecorder::new(
                session.clone(),
                ActorId::new("engine"),
                host.transport(TransportConfig::free()),
                IdGenerator::new(format!("k{s}")),
            );
            for i in 0..20 {
                recorder.record(assertion(session.as_str(), i)).unwrap();
            }
        }
    };

    // Phase 1: record half the workload, fully flushed and replicated.
    record_sessions(&host, 0..4);
    record_sessions(&reference_host, 0..4);
    cluster.flush().unwrap();

    // Real kill: shut down shard 1's listener. No fault injector involved.
    assert!(cluster.shutdown_shard_server(1));
    assert!(!cluster.shutdown_shard_server(1), "second kill is a no-op");

    // Phase 2: keep recording; the dead server must be invisible to clients.
    record_sessions(&host, 4..8);
    record_sessions(&reference_host, 4..8);

    // The next flush touches the dead endpoint, maps the connection failure onto
    // ServiceDown, and fails over — exactly as an injected fault would.
    cluster.flush().unwrap();
    let stats = cluster.router().stats();
    assert_eq!(
        stats.failovers, 1,
        "the socket error drove exactly one failover"
    );
    assert_eq!(cluster.router().live_shards().len(), 3);
    // The connection failure was reported to the fabric's injector — fault parity.
    assert!(cluster
        .fabric()
        .fault_injector()
        .is_down(&cluster.router().shard_names()[1]));

    // Zero acked loss: every answer matches the fault-free reference run bit-for-bit.
    assert_eq!(
        cluster.statistics().unwrap(),
        reference.statistics().unwrap()
    );
    for s in 0..8 {
        let session = SessionId::new(format!("session:socket-kill:{s}"));
        assert_eq!(
            cluster.assertions_for_session(&session).unwrap(),
            reference.assertions_for_session(&session).unwrap(),
            "session {s} diverged after the socket kill"
        );
    }
}

/// `query_page` returns identical pages over both transports, page by page, cursor by cursor.
#[test]
fn paginated_scatter_gather_pages_identically_over_tcp() {
    use pasoa_core::prep::{PagedQuery, QueryRequest};

    let record_into = |host: &ServiceHost| {
        for s in 0..3 {
            let session = SessionId::new(format!("session:page:{s}"));
            let recorder = SyncRecorder::new(
                session.clone(),
                ActorId::new("engine"),
                host.transport(TransportConfig::free()),
                IdGenerator::new(format!("p{s}")),
            );
            for i in 0..40 {
                recorder.record(assertion(session.as_str(), i)).unwrap();
            }
        }
    };
    let inproc_host = ServiceHost::new();
    let inproc = PreservCluster::deploy_in_memory(&inproc_host, 4).unwrap();
    record_into(&inproc_host);
    let tcp_host = ServiceHost::new();
    let tcp = PreservCluster::deploy_tcp(&tcp_host, 4).unwrap();
    record_into(&tcp_host);

    for s in 0..3 {
        let session = SessionId::new(format!("session:page:{s}"));
        let mut cursor = None;
        let mut pages = 0;
        loop {
            let paged = PagedQuery {
                request: QueryRequest::BySession(session.clone()),
                page_size: 7,
                cursor: cursor.clone(),
            };
            let a = inproc.query_page(&paged).unwrap();
            let b = tcp.query_page(&paged).unwrap();
            assert_eq!(a.assertions, b.assertions, "page {pages} diverged");
            assert_eq!(a.next, b.next, "cursor after page {pages} diverged");
            pages += 1;
            match a.next {
                Some(next) => cursor = Some(next),
                None => break,
            }
        }
        assert!(
            pages >= 6,
            "40 items at page size 7 must take several pages"
        );
    }
}

/// One JSON client, three deployments — a lone `PreservService`, and 4-shard clusters in
/// process and over TCP — must page the same session to the same `QueryPage` sequence and
/// answer the same unpaged queries: the lone store answers `query-page` in the router's
/// client shape, never its internal sort-keyed page.
#[test]
fn one_json_client_pages_a_single_store_and_clusters_identically() {
    use pasoa_core::prep::{PagedQuery, PrepMessage, QueryPage, QueryRequest, QueryResponse};
    use pasoa_core::PROVENANCE_STORE_SERVICE;
    use pasoa_preserv::PreservService;
    use pasoa_wire::{Envelope, Transport};

    // One session only, so every deployment numbers its assertions alike and the cursors
    // (`<interaction>/<seq>` sort keys) agree too. Three assertions per interaction.
    let session = SessionId::new("session:one-client");
    let record_into = |host: &ServiceHost| {
        let recorder = SyncRecorder::new(
            session.clone(),
            ActorId::new("engine"),
            host.transport(TransportConfig::free()),
            IdGenerator::new("one"),
        );
        for i in 0..30 {
            recorder.record(assertion(session.as_str(), i / 3)).unwrap();
        }
    };
    let ask = |transport: &Transport, message: PrepMessage| {
        let request = Envelope::request(PROVENANCE_STORE_SERVICE, message.action())
            .with_json_payload(&message)
            .unwrap();
        transport.call(request).unwrap()
    };
    let page_through = |transport: &Transport, request: &QueryRequest, page_size: usize| {
        let mut pages: Vec<QueryPage> = Vec::new();
        loop {
            let paged = PagedQuery {
                request: request.clone(),
                cursor: pages.last().and_then(|page| page.next.clone()),
                page_size,
            };
            let page: QueryPage = ask(transport, PrepMessage::QueryPage(paged))
                .json_payload()
                .unwrap();
            let done = page.next.is_none();
            pages.push(page);
            if done {
                return pages;
            }
        }
    };

    let single_host = ServiceHost::new();
    Arc::new(PreservService::in_memory().unwrap()).register(&single_host);
    record_into(&single_host);
    let inproc_host = ServiceHost::new();
    let _inproc = PreservCluster::deploy_in_memory(&inproc_host, 4).unwrap();
    record_into(&inproc_host);
    let tcp_host = ServiceHost::new();
    let _tcp = PreservCluster::deploy_tcp(&tcp_host, 4).unwrap();
    record_into(&tcp_host);
    let clients: Vec<Transport> = [&single_host, &inproc_host, &tcp_host]
        .map(|host| host.transport(TransportConfig::passthrough()))
        .into();

    let requests = [
        QueryRequest::BySession(session.clone()),
        QueryRequest::ByInteraction(pasoa_core::ids::InteractionKey::new(format!(
            "interaction:{}:0004",
            session.as_str()
        ))),
        QueryRequest::BySession(SessionId::new("session:nobody")),
    ];
    for request in &requests {
        for page_size in [1, 4, 30, 64] {
            let expected = page_through(&clients[0], request, page_size);
            let total: usize = expected.iter().map(|page| page.assertions.len()).sum();
            assert!(expected
                .iter()
                .all(|page| page.assertions.len() <= page_size));
            for (name, client) in ["in-process", "tcp"].iter().zip(&clients[1..]) {
                assert_eq!(
                    page_through(client, request, page_size),
                    expected,
                    "{name} cluster paged {request:?} at {page_size} differently ({total} items)"
                );
            }
        }
        let expected: QueryResponse = ask(&clients[0], PrepMessage::Query(request.clone()))
            .json_payload()
            .unwrap();
        for client in &clients[1..] {
            let answer: QueryResponse = ask(client, PrepMessage::Query(request.clone()))
                .json_payload()
                .unwrap();
            assert_eq!(answer, expected, "{request:?}");
        }
    }
}

/// Shard stores behind TCP still plug into the direct store surface the experiment harness
/// and the promotion replay depend on.
#[test]
fn direct_store_access_remains_available_under_tcp() {
    let host = ServiceHost::new();
    let cluster = PreservCluster::deploy_tcp(&host, 2).unwrap();
    let session = SessionId::new("session:direct");
    let recorder = SyncRecorder::new(
        session.clone(),
        ActorId::new("engine"),
        host.transport(TransportConfig::free()),
        IdGenerator::new("d"),
    );
    for i in 0..5 {
        recorder.record(assertion(session.as_str(), i)).unwrap();
    }
    cluster.flush().unwrap();
    let total: usize = cluster
        .shard_stores()
        .iter()
        .map(|store| store.assertions_for_session(&session).unwrap().len())
        .sum();
    assert_eq!(total, 5);
}

// -- Multi-message flushes ----------------------------------------------------------------
//
// A backlog above the wire link's per-envelope bound (256 assertions) leaves as several
// `Record` envelopes in one exchange. The tests below watch that exchange from the shard's
// side of the socket, through a backend that logs every batch it is asked to commit.

mod chunked_flush {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    use pasoa_cluster::{ClusterConfig, HeldSession};
    use pasoa_core::passertion::RecordedAssertion;
    use pasoa_core::prep::{PrepMessage, RecordMessage};
    use pasoa_core::prepwire;
    use pasoa_preserv::backend::BackendError;
    use pasoa_preserv::{BackendKind, MemoryBackend, StorageBackend, StoreError};

    const SESSION: &str = "session:chunked";
    const WARM_UP: usize = 9000;
    const TAG: &[u8] = b"chunk-test ";

    /// One `put_many` as the shard's backend saw it: the lowest and highest assertion index
    /// among the documents in the batch, and whether the commit was let through.
    type Commit = (usize, usize, bool);

    /// A memory backend that logs every assertion batch and, while armed, refuses — once —
    /// the batch that contains assertion `poison`.
    struct LoggingBackend {
        inner: MemoryBackend,
        commits: Mutex<Vec<Commit>>,
        poison: usize,
        armed: AtomicBool,
    }

    impl LoggingBackend {
        fn commits(&self) -> Vec<Commit> {
            self.commits.lock().unwrap().clone()
        }
    }

    impl StorageBackend for LoggingBackend {
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), BackendError> {
            self.inner.put(key, value)
        }

        fn put_many(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), BackendError> {
            let indices: Vec<usize> = entries
                .iter()
                .filter_map(|(_, value)| {
                    let at = value.windows(TAG.len()).position(|w| w == TAG)? + TAG.len();
                    std::str::from_utf8(value.get(at..at + 4)?)
                        .ok()?
                        .parse()
                        .ok()
                })
                .collect();
            let (Some(&low), Some(&high)) = (indices.iter().min(), indices.iter().max()) else {
                return self.inner.put_many(entries);
            };
            let refuse = indices.contains(&self.poison) && self.armed.swap(false, Ordering::SeqCst);
            self.commits.lock().unwrap().push((low, high, !refuse));
            if refuse {
                return Err(BackendError::new("injected commit failure"));
            }
            self.inner.put_many(entries)
        }

        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BackendError> {
            self.inner.get(key)
        }

        fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, BackendError> {
            self.inner.scan_prefix(prefix)
        }

        fn delete_many(&self, keys: &[Vec<u8>]) -> Result<(), BackendError> {
            self.inner.delete_many(keys)
        }

        fn kind(&self) -> BackendKind {
            BackendKind::Memory
        }
    }

    struct Tier {
        host: ServiceHost,
        cluster: Arc<PreservCluster>,
        backends: Vec<Arc<LoggingBackend>>,
        /// The session's primary shard and the first replica of that primary.
        primary: usize,
        replica: usize,
    }

    /// Four shards over TCP, replication 2, a batch threshold no test reaches (so only an
    /// explicit flush sends), and a binary-negotiated connection to the session's primary
    /// already pooled — so the flush under test is one frame, not a negotiating call plus one.
    fn deploy(poison: usize) -> Tier {
        let host = ServiceHost::new();
        let backends: Arc<Mutex<Vec<Arc<LoggingBackend>>>> = Arc::default();
        let config = ClusterConfig {
            batch_size: 100_000,
            ..ClusterConfig::replicated(4, 2).over_tcp()
        };
        let cluster = {
            let backends = Arc::clone(&backends);
            PreservCluster::deploy_with(&host, config, move |_| {
                let backend = Arc::new(LoggingBackend {
                    inner: MemoryBackend::new(),
                    commits: Mutex::default(),
                    poison,
                    armed: AtomicBool::new(true),
                });
                backends.lock().unwrap().push(Arc::clone(&backend));
                Ok::<_, StoreError>(backend as Arc<dyn StorageBackend>)
            })
            .unwrap()
        };
        let backends = std::mem::take(&mut *backends.lock().unwrap());
        let primary = cluster.router().shard_for_session(SESSION);
        let replica = cluster.router().ring_successors(primary)[0];
        let tier = Tier {
            host,
            cluster,
            backends,
            primary,
            replica,
        };
        record(&tier.host, WARM_UP..WARM_UP + 1);
        tier.cluster.flush().unwrap();
        tier
    }

    fn batch(indices: std::ops::Range<usize>) -> Vec<RecordedAssertion> {
        indices
            .map(|i| RecordedAssertion {
                session: SessionId::new(SESSION),
                assertion: PAssertion::ActorState(ActorStatePAssertion {
                    interaction_key: pasoa_core::ids::InteractionKey::new(format!(
                        "interaction:chunked:{i:04}"
                    )),
                    asserter: ActorId::new("engine"),
                    view: ViewKind::Receiver,
                    kind: ActorStateKind::Script,
                    content: PAssertionContent::text(format!("chunk-test {i:04}")),
                }),
            })
            .collect()
    }

    /// Record `indices` as one packed `Record` message; the router only buffers it.
    fn record(host: &ServiceHost, indices: std::ops::Range<usize>) {
        let message = PrepMessage::Record(RecordMessage {
            message_id: pasoa_core::ids::MessageId::new(format!("message:{}", indices.start)),
            asserter: ActorId::new("engine"),
            assertions: batch(indices.clone()),
        });
        let envelope =
            prepwire::request_envelope(pasoa_core::PROVENANCE_STORE_SERVICE, "record", &message)
                .unwrap();
        let response = host
            .transport(TransportConfig::free())
            .call(envelope)
            .unwrap();
        let ack = prepwire::ack_from_element(&response.body).unwrap();
        assert_eq!(ack.accepted, indices.len());
    }

    fn batched_envelopes(tier: &Tier, shard: usize) -> u64 {
        tier.cluster.net_server_stats()[shard].1.batched_envelopes
    }

    fn held(tier: &Tier) -> Vec<HeldSession> {
        tier.cluster.router().hold_snapshot()[tier.replica]
            .sessions
            .clone()
    }

    fn held_copy(tier: &Tier, assertions: usize) -> Vec<HeldSession> {
        vec![HeldSession {
            primary: tier.primary,
            session: SESSION.to_string(),
            assertions,
        }]
    }

    /// What an in-process cluster answers for the same session after recording `indices`.
    fn reference(indices: std::ops::Range<usize>) -> Vec<RecordedAssertion> {
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_replicated(&host, 4, 2).unwrap();
        record(&host, WARM_UP..WARM_UP + 1);
        record(&host, indices);
        cluster
            .assertions_for_session(&SessionId::new(SESSION))
            .unwrap()
    }

    #[test]
    fn a_backlog_crosses_the_socket_as_one_multi_envelope_frame() {
        let tier = deploy(usize::MAX);
        let before = batched_envelopes(&tier, tier.primary);
        let flushed_before = tier.cluster.router().stats().batches_flushed;
        record(&tier.host, 0..600);
        tier.cluster.flush().unwrap();
        assert_eq!(
            batched_envelopes(&tier, tier.primary) - before,
            3,
            "600 assertions are three envelopes (256 + 256 + 88) in ONE frame"
        );
        assert_eq!(
            tier.backends[tier.primary].commits(),
            vec![
                (WARM_UP, WARM_UP, true),
                (0, 255, true),
                (256, 511, true),
                (512, 599, true)
            ]
        );
        assert_eq!(
            tier.cluster.router().stats().batches_flushed - flushed_before,
            3
        );
        assert_eq!(held(&tier), held_copy(&tier, 601));
        assert_eq!(
            tier.cluster
                .assertions_for_session(&SessionId::new(SESSION))
                .unwrap(),
            reference(0..600)
        );
    }

    #[test]
    fn a_failed_middle_message_alone_is_restored_ahead_of_later_appends() {
        let tier = deploy(300);
        record(&tier.host, 0..600);
        let error = tier.cluster.flush().unwrap_err();
        match error {
            StoreError::Unavailable {
                failed_sessions, ..
            } => assert_eq!(failed_sessions, vec![SESSION.to_string()]),
            other => panic!("expected the failed session to be named, got {other}"),
        }
        // The shard is alive: it committed the first and last message, and exactly those
        // reached the replica hold. Nothing failed over.
        assert_eq!(
            tier.backends[tier.primary].commits(),
            vec![
                (WARM_UP, WARM_UP, true),
                (0, 255, true),
                (256, 511, false),
                (512, 599, true)
            ]
        );
        assert_eq!(held(&tier), held_copy(&tier, 1 + 256 + 88));
        let stats = tier.cluster.router().stats();
        assert_eq!(stats.failovers, 0);
        assert_eq!(stats.batches_flushed, 1 + 2);
        assert_eq!(
            tier.cluster
                .router()
                .registry()
                .snapshot()
                .counter("router.flush.failed_send_restores"),
            1
        );

        // Later appends queue behind the restored message: the next flush sends the 256
        // restored assertions as its first envelope, then the new ones — each exactly once.
        record(&tier.host, 600..605);
        tier.cluster.flush().unwrap();
        assert_eq!(
            tier.backends[tier.primary].commits()[4..],
            [(256, 511, true), (600, 604, true)]
        );
        assert_eq!(held(&tier), held_copy(&tier, 606));
        assert_eq!(
            tier.cluster
                .assertions_for_session(&SessionId::new(SESSION))
                .unwrap(),
            reference(0..605)
        );
    }

    #[test]
    fn a_dead_shard_restores_every_message_for_the_promoted_owner() {
        let tier = deploy(usize::MAX);
        record(&tier.host, 0..600);
        assert!(tier.cluster.shutdown_shard_server(tier.primary));
        tier.cluster.flush().unwrap();

        let stats = tier.cluster.router().stats();
        assert_eq!(stats.failovers, 1);
        assert!(!tier.cluster.router().is_alive(tier.primary));
        // The dead primary saw nothing of the backlog; the promoted replica replayed its
        // hold (the warm-up) and then received the whole backlog, in order.
        assert_eq!(
            tier.backends[tier.primary].commits(),
            vec![(WARM_UP, WARM_UP, true)]
        );
        assert_eq!(
            tier.backends[tier.replica].commits(),
            vec![
                (WARM_UP, WARM_UP, true),
                (0, 255, true),
                (256, 511, true),
                (512, 599, true)
            ]
        );
        assert_eq!(
            tier.cluster.statistics().unwrap().total_passertions(),
            601,
            "every acked assertion exactly once"
        );
        assert_eq!(
            tier.cluster
                .assertions_for_session(&SessionId::new(SESSION))
                .unwrap(),
            reference(0..600)
        );
    }
}
