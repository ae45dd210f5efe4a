//! Live-socket integration: real services served by a [`NetServer`], reached through
//! [`NetClient`] proxies registered on a local [`ServiceHost`] — the deployment shape the
//! cluster tier uses, exercised end to end over loopback.

use std::sync::Arc;

use pasoa_core::ids::{ActorId, IdGenerator, SessionId};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, RecordedAssertion,
    ViewKind,
};
use pasoa_core::prep::{PrepMessage, QueryRequest, QueryResponse, RecordAck, RecordMessage};
use pasoa_net::{register_remote, NetClientConfig, NetServer, NetServerConfig};
use pasoa_preserv::PreservService;
use pasoa_registry::service::call_registry;
use pasoa_registry::{Registry, RegistryRequest, RegistryResponse, RegistryService};
use pasoa_wire::{Envelope, MessageHandler, ServiceHost, TransportConfig, WireError, WireResult};

struct Echo;
impl MessageHandler for Echo {
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        Ok(Envelope::response("echo").with_body(request.body))
    }
    fn name(&self) -> &str {
        "echo"
    }
}

fn serve_echo() -> (NetServer, ServiceHost) {
    let backend = ServiceHost::new();
    backend.register("echo", Arc::new(Echo));
    let server = NetServer::bind("127.0.0.1:0", &backend, NetServerConfig::default()).unwrap();
    (server, backend)
}

fn assertion(i: usize) -> RecordedAssertion {
    RecordedAssertion {
        session: SessionId::new("session:tcp"),
        assertion: PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: pasoa_core::ids::InteractionKey::new(format!("interaction:{i:02}")),
            asserter: ActorId::new("engine"),
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(format!("payload {i} with <escapes> & \"quotes\"")),
        }),
    }
}

#[test]
fn transport_call_reaches_a_remote_service_transparently() {
    let (server, _backend) = serve_echo();
    let front = ServiceHost::new();
    register_remote(
        &front,
        "echo",
        server.local_addr(),
        NetClientConfig::default(),
    );

    // The caller is an unmodified in-process transport; the hop to the socket is invisible.
    let transport = front.transport(TransportConfig::free());
    for i in 0..10 {
        let request = Envelope::request("echo", "ping")
            .with_body(pasoa_wire::XmlElement::new("data").text(format!("hello-{i}")));
        let response = transport.call(request).unwrap();
        assert_eq!(response.body.text_content(), format!("hello-{i}"));
    }
    assert_eq!(transport.stats().calls, 10);

    let stats = server.stats();
    assert_eq!(stats.requests, 10);
    // Pipelining: ten calls share one pooled connection instead of ten connects.
    assert_eq!(stats.connections_accepted, 1);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    assert_eq!(stats.per_service, vec![("echo".to_string(), 10)]);
}

#[test]
fn preserv_record_and_query_work_over_the_socket() {
    let backend = ServiceHost::new();
    let service = Arc::new(PreservService::in_memory().unwrap());
    service.register(&backend);
    let server = NetServer::bind("127.0.0.1:0", &backend, NetServerConfig::default()).unwrap();

    let front = ServiceHost::new();
    register_remote(
        &front,
        pasoa_core::PROVENANCE_STORE_SERVICE,
        server.local_addr(),
        NetClientConfig::default(),
    );
    let transport = front.transport(TransportConfig::free());
    let ids = IdGenerator::new("tcp");

    let message = PrepMessage::Record(RecordMessage {
        message_id: ids.message_id(),
        asserter: ActorId::new("engine"),
        assertions: (0..12).map(assertion).collect(),
    });
    let envelope = Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, message.action())
        .with_json_payload(&message)
        .unwrap();
    let ack: RecordAck = transport.call(envelope).unwrap().json_payload().unwrap();
    assert_eq!(ack.accepted, 12);

    let query = PrepMessage::Query(QueryRequest::BySession(SessionId::new("session:tcp")));
    let envelope = Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, query.action())
        .with_json_payload(&query)
        .unwrap();
    let response: QueryResponse = transport.call(envelope).unwrap().json_payload().unwrap();
    match response {
        QueryResponse::Assertions(found) => {
            assert_eq!(found.len(), 12);
            // The socket hop is transparent: the store saw exactly what was sent.
            assert_eq!(found, (0..12).map(assertion).collect::<Vec<_>>());
        }
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn registry_requests_work_over_the_socket() {
    let backend = ServiceHost::new();
    let registry = Arc::new(RegistryService::new(Arc::new(
        Registry::for_compressibility(),
    )));
    registry.register(&backend);
    let server = NetServer::bind("127.0.0.1:0", &backend, NetServerConfig::default()).unwrap();

    let front = ServiceHost::new();
    register_remote(
        &front,
        pasoa_core::REGISTRY_SERVICE,
        server.local_addr(),
        NetClientConfig::default(),
    );
    let transport = front.transport(TransportConfig::free());

    let desc = pasoa_registry::ServiceDescription::new("gzip-compression", "compress a sample");
    assert_eq!(
        call_registry(&transport, &RegistryRequest::Publish(desc)).unwrap(),
        RegistryResponse::Ok
    );
    match call_registry(
        &transport,
        &RegistryRequest::Describe("gzip-compression".into()),
    )
    .unwrap()
    {
        RegistryResponse::Description(d) => assert_eq!(d.name, "gzip-compression"),
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn remote_dispatch_errors_come_back_as_the_in_process_error() {
    let backend = ServiceHost::new();
    backend.register(
        "broken",
        Arc::new(|_req: Envelope| -> WireResult<Envelope> {
            Err(WireError::Payload("boom".into()))
        }),
    );
    let server = NetServer::bind("127.0.0.1:0", &backend, NetServerConfig::default()).unwrap();
    let front = ServiceHost::new();
    register_remote(
        &front,
        "broken",
        server.local_addr(),
        NetClientConfig::default(),
    );
    register_remote(
        &front,
        "absent",
        server.local_addr(),
        NetClientConfig::default(),
    );
    let transport = front.transport(TransportConfig::free());

    // A handler failure is a Fault naming the service and reason, exactly as in-process.
    match transport
        .call(Envelope::request("broken", "x"))
        .unwrap_err()
    {
        WireError::Fault { service, reason } => {
            assert_eq!(service, "broken");
            assert!(reason.contains("boom"), "reason was {reason:?}");
        }
        other => panic!("unexpected error {other:?}"),
    }
    // A service the remote host does not know is UnknownService, not a mystery fault.
    assert!(matches!(
        transport.call(Envelope::request("absent", "x")).unwrap_err(),
        WireError::UnknownService(name) if name == "absent"
    ));
    // Neither is a transport-level failure: the proxy must not have declared the host dead.
    assert!(!front.fault_injector().any_down());
    assert_eq!(server.stats().faults, 2);
}

#[test]
fn a_dead_server_maps_to_service_down_and_notifies_the_injector() {
    let (server, _backend) = serve_echo();
    let addr = server.local_addr();
    let front = ServiceHost::new();
    let client = register_remote(&front, "echo", addr, NetClientConfig::default());
    let transport = front.transport(TransportConfig::free());
    transport.call(Envelope::request("echo", "ping")).unwrap();

    server.shutdown();
    assert!(server.is_shut_down());

    // The pooled connection is stale and the relaunch refused: ServiceDown, exactly the
    // error the in-process fault injector produces for a killed service.
    let err = transport
        .call(Envelope::request("echo", "ping"))
        .unwrap_err();
    assert!(matches!(err, WireError::ServiceDown(name) if name == "echo"));
    // The failure was reported to the local injector, so in-process failure detection
    // (epoch-checked scans) observes the real socket error.
    assert!(front.fault_injector().is_down("echo"));
    assert!(client.stats().transport_failures >= 1);
}

/// A client built WITHOUT a failure notice (the caller-side router proxy configuration)
/// must not poison the host's injector on a transport failure: the error stays per-call,
/// and later calls keep re-attempting fresh connections instead of short-circuiting.
#[test]
fn a_client_without_failure_notice_leaves_the_injector_clean() {
    let (server, _backend) = serve_echo();
    let addr = server.local_addr();
    let front = ServiceHost::new();
    let client = Arc::new(pasoa_net::NetClient::new(
        addr,
        "echo",
        NetClientConfig::default(),
    ));
    front.register("echo", Arc::clone(&client) as Arc<dyn MessageHandler>);
    let transport = front.transport(TransportConfig::free());
    transport.call(Envelope::request("echo", "ping")).unwrap();

    server.shutdown();
    for _ in 0..3 {
        let err = transport
            .call(Envelope::request("echo", "ping"))
            .unwrap_err();
        assert!(matches!(err, WireError::ServiceDown(name) if name == "echo"));
    }
    // Each failure surfaced individually; nothing marked the service down for good, so a
    // recovered server would be reachable on the very next call.
    assert!(!front.fault_injector().any_down());
    assert!(client.stats().transport_failures >= 3);
}

/// A message too large for the transport is a *per-call* capacity error, not host death: the
/// client refuses its own oversized requests loudly, an oversized server-side rejection does
/// not poison the pool, and the healthy service is never marked down — so a legitimate-but-
/// huge payload can never trigger a spurious failover.
#[test]
fn oversized_requests_are_per_call_errors_not_a_death_sentence() {
    let (server, _backend) = serve_echo();
    let front = ServiceHost::new();
    // Client with a tiny outgoing ceiling: its own guard refuses before sending.
    let tiny = pasoa_net::NetClient::new(
        server.local_addr(),
        "echo",
        NetClientConfig {
            max_frame_bytes: 256,
            ..Default::default()
        },
    );
    let big = Envelope::request("echo", "ping")
        .with_body(pasoa_wire::XmlElement::new("d").text("x".repeat(4096)));
    match tiny.call(&big).unwrap_err() {
        WireError::Payload(reason) => assert!(reason.contains("ceiling"), "got {reason}"),
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(tiny.stats().protocol_failures, 1);
    assert_eq!(tiny.stats().transport_failures, 0);

    // Client ceiling above the server's: the server rejects the frame, announces the close
    // (so the dying stream is never pooled), and the client must NOT declare the host dead.
    let tiny_server = NetServer::bind(
        "127.0.0.1:0",
        &_backend,
        NetServerConfig {
            max_frame_bytes: 256,
            ..Default::default()
        },
    )
    .unwrap();
    let proxy =
        pasoa_net::NetClient::new(tiny_server.local_addr(), "echo", NetClientConfig::default())
            .with_failure_notice(front.fault_injector());
    let err = proxy.call(&big).unwrap_err();
    assert!(
        matches!(err, WireError::Fault { .. }),
        "server rejection surfaces in-band, got {err:?}"
    );
    // The healthy server was NOT declared dead...
    assert!(!front.fault_injector().any_down());
    // ...and the next (normally-sized) call works on a fresh connection.
    let ok = proxy
        .call(
            &Envelope::request("echo", "ping")
                .with_body(pasoa_wire::XmlElement::new("d").text("small")),
        )
        .unwrap();
    assert_eq!(ok.body.text_content(), "small");
    assert_eq!(tiny_server.stats().rejected_frames, 1);
}

#[test]
fn oversized_frames_are_rejected_loudly_and_counted() {
    use std::io::Write as _;
    let (server, _backend) = serve_echo();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // A header claiming a 1 GiB payload: the server must refuse it from the header alone.
    let mut header = Vec::new();
    header.extend_from_slice(&pasoa_net::MAGIC);
    header.push(pasoa_net::VERSION);
    header.extend_from_slice(&0u32.to_le_bytes());
    header.extend_from_slice(&(1024u32 * 1024 * 1024).to_le_bytes());
    stream.write_all(&header).unwrap();
    stream.flush().unwrap();
    // The server answers with an in-band error before closing the connection.
    let (response, _) =
        pasoa_net::read_frame(&mut stream, pasoa_net::DEFAULT_MAX_FRAME_BYTES).unwrap();
    let error = pasoa_net::proto::decode_error(&response).expect("an error envelope");
    assert!(error.to_string().contains("ceiling"), "got {error}");
    assert!(matches!(
        pasoa_net::read_frame(&mut stream, pasoa_net::DEFAULT_MAX_FRAME_BYTES),
        Err(pasoa_net::FrameError::Closed)
    ));
    assert_eq!(server.stats().rejected_frames, 1);
}

#[test]
fn garbage_bytes_are_a_protocol_error_not_a_crash() {
    use std::io::Write as _;
    let (server, _backend) = serve_echo();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    stream.flush().unwrap();
    // The server reports the framing error in-band and closes; it keeps serving others.
    let (response, _) =
        pasoa_net::read_frame(&mut stream, pasoa_net::DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert!(pasoa_net::proto::decode_error(&response).is_some());
    assert_eq!(server.stats().protocol_errors, 1);

    let front = ServiceHost::new();
    register_remote(
        &front,
        "echo",
        server.local_addr(),
        NetClientConfig::default(),
    );
    front
        .transport(TransportConfig::free())
        .call(Envelope::request("echo", "ping"))
        .unwrap();
}

#[test]
fn concurrent_clients_share_the_bounded_worker_pool() {
    let (server, _backend) = serve_echo();
    let addr = server.local_addr();
    let mut handles = Vec::new();
    for t in 0..8 {
        handles.push(std::thread::spawn(move || {
            let front = ServiceHost::new();
            register_remote(&front, "echo", addr, NetClientConfig::default());
            let transport = front.transport(TransportConfig::free());
            for i in 0..25 {
                let response = transport
                    .call(
                        Envelope::request("echo", "ping")
                            .with_body(pasoa_wire::XmlElement::new("d").text(format!("{t}:{i}"))),
                    )
                    .unwrap();
                assert_eq!(response.body.text_content(), format!("{t}:{i}"));
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(server.stats().requests, 200);
    // Client disconnects drain asynchronously: the workers observe the EOFs shortly after.
    for _ in 0..100 {
        if server.stats().active_connections == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(server.stats().active_connections, 0);
}

/// Wire-version negotiation: a current client talking to a version-1-only server settles on
/// the textual format (no binary frame ever reaches the socket), and a version-1-only client
/// talking to a current server is answered textually — both directions of the mixed-version
/// cluster work, with no configuration coordination.
#[test]
fn wire_version_negotiation_downgrades_to_the_older_peer() {
    let backend = ServiceHost::new();
    backend.register("echo", Arc::new(Echo));

    // Old server, new client: the advertisement is ignored value-wise (capped at v1).
    let old_server = NetServer::bind(
        "127.0.0.1:0",
        &backend,
        NetServerConfig {
            max_wire_version: pasoa_net::VERSION_TEXT,
            ..Default::default()
        },
    )
    .unwrap();
    let client =
        pasoa_net::NetClient::new(old_server.local_addr(), "echo", NetClientConfig::default());
    for i in 0..4 {
        let response = client
            .call(
                &Envelope::request("echo", "ping")
                    .with_body(pasoa_wire::XmlElement::new("d").text(format!("old-{i}"))),
            )
            .unwrap();
        assert_eq!(response.body.text_content(), format!("old-{i}"));
    }
    assert_eq!(old_server.stats().binary_frames, 0);

    // New server, old client: no advertisement is sent, so the server stays textual.
    let new_server = NetServer::bind("127.0.0.1:0", &backend, NetServerConfig::default()).unwrap();
    let old_client = pasoa_net::NetClient::new(
        new_server.local_addr(),
        "echo",
        NetClientConfig {
            max_wire_version: pasoa_net::VERSION_TEXT,
            ..Default::default()
        },
    );
    for i in 0..4 {
        let response = old_client
            .call(
                &Envelope::request("echo", "ping")
                    .with_body(pasoa_wire::XmlElement::new("d").text(format!("new-{i}"))),
            )
            .unwrap();
        assert_eq!(response.body.text_content(), format!("new-{i}"));
    }
    assert_eq!(new_server.stats().binary_frames, 0);

    // Current peers on both ends: after the first (advertising, textual) exchange, every
    // subsequent call rides the binary format on the pooled connection.
    let current =
        pasoa_net::NetClient::new(new_server.local_addr(), "echo", NetClientConfig::default());
    for i in 0..4 {
        current
            .call(
                &Envelope::request("echo", "ping")
                    .with_body(pasoa_wire::XmlElement::new("d").text(format!("bin-{i}"))),
            )
            .unwrap();
    }
    assert!(new_server.stats().binary_frames >= 3);
}

/// Batching: `call_many` ships a whole batch across the socket in as few frames as the
/// negotiated version allows, and the responses come back in request order, per-call errors
/// included — without disturbing the single-call path sharing the same pool.
#[test]
fn call_many_batches_envelopes_into_shared_frames() {
    let (server, _backend) = serve_echo();
    let client = pasoa_net::NetClient::new(server.local_addr(), "echo", NetClientConfig::default());

    let requests: Vec<Envelope> = (0..8)
        .map(|i| {
            Envelope::request("echo", "ping")
                .with_body(pasoa_wire::XmlElement::new("d").text(format!("batch-{i}")))
        })
        .collect();
    let results = client.call_many(&requests);
    assert_eq!(results.len(), 8);
    for (i, result) in results.iter().enumerate() {
        let response = result.as_ref().unwrap();
        assert_eq!(response.body.text_content(), format!("batch-{i}"));
    }

    let stats = server.stats();
    assert_eq!(stats.requests, 8);
    // The first request negotiates on a fresh connection; the remaining seven share one
    // binary multi-envelope frame.
    assert_eq!(stats.batched_envelopes, 7);
    assert_eq!(stats.connections_accepted, 1);

    // A second batch finds the pooled binary connection immediately: one frame for all.
    let results = client.call_many(&requests);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(server.stats().batched_envelopes, 15);
    assert_eq!(client.stats().calls, 16);
}

/// Idle-expired pooled connections are pruned eagerly and the evictions are observable: a
/// connection that outlives `pool_idle_timeout` is dropped at the next pool touch instead of
/// being handed to a caller as a soon-to-be-stale stream.
#[test]
fn idle_pool_entries_are_evicted_and_counted() {
    let (server, _backend) = serve_echo();
    let client = pasoa_net::NetClient::new(
        server.local_addr(),
        "echo",
        NetClientConfig {
            pool_idle_timeout: std::time::Duration::from_millis(20),
            ..Default::default()
        },
    );
    let ping =
        Envelope::request("echo", "ping").with_body(pasoa_wire::XmlElement::new("d").text("hi"));

    client.call(&ping).unwrap();
    assert_eq!(client.stats().connects, 1);
    std::thread::sleep(std::time::Duration::from_millis(60));

    // The pooled connection expired while idle: the next call evicts it and dials fresh.
    client.call(&ping).unwrap();
    let stats = client.stats();
    assert_eq!(stats.connects, 2);
    assert_eq!(stats.pool_evictions, 1);
    assert_eq!(stats.transport_failures, 0);
}

#[test]
fn shutdown_drains_in_flight_requests() {
    struct Slow;
    impl MessageHandler for Slow {
        fn handle(&self, request: Envelope) -> WireResult<Envelope> {
            std::thread::sleep(std::time::Duration::from_millis(150));
            Ok(Envelope::response("slow").with_body(request.body))
        }
    }
    let backend = ServiceHost::new();
    backend.register("slow", Arc::new(Slow));
    let server = NetServer::bind("127.0.0.1:0", &backend, NetServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let caller = std::thread::spawn(move || {
        let front = ServiceHost::new();
        register_remote(&front, "slow", addr, NetClientConfig::default());
        front
            .transport(TransportConfig::free())
            .call(
                Envelope::request("slow", "x")
                    .with_body(pasoa_wire::XmlElement::new("d").text("drain-me")),
            )
            .map(|r| r.body.text_content().into_owned())
    });
    // Let the request reach the handler, then shut down mid-dispatch.
    std::thread::sleep(std::time::Duration::from_millis(50));
    server.shutdown();

    // Graceful semantics: the in-flight request still received its response...
    assert_eq!(caller.join().unwrap().unwrap(), "drain-me");
    // ...and new connections are refused.
    assert!(std::net::TcpStream::connect(addr).is_err());
}
