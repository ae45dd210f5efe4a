//! A TCP server exposing one [`ServiceHost`]'s services over framed envelopes.
//!
//! The accept loop hands connections to a **bounded** pool of worker threads (a connection
//! past the pool size waits its turn instead of spawning unbounded threads). Each worker
//! serves its connection's request/response frames pipelined — read a frame, dispatch it on
//! the host, write the response frame — under per-connection read/write timeouts, so a
//! stalled peer reclaims its worker instead of pinning it forever.
//!
//! Shutdown is graceful: the listener stops accepting (new connections are refused), the read
//! half of every active connection is closed so idle workers wake immediately, and requests
//! already being dispatched still deliver their responses on the intact write half before the
//! connection closes — in-flight work drains, nothing new is admitted.
//!
//! Each connection negotiates its wire version: a client advertises its highest frame
//! version on its first request (or simply sends a binary frame, which is proof enough), and
//! the server answers in the highest version both sides speak — capped by
//! [`NetServerConfig::max_wire_version`], so a server can be pinned to the textual baseline
//! to emulate an old peer. Binary (version 2) frames may carry a whole request batch; the
//! batch is dispatched through the host's batch path and answered in ONE multi-envelope
//! response frame, so a batched record flush costs a single socket round trip.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use pasoa_obs::{Counter, Gauge, Registry};

use pasoa_wire::{Envelope, ServiceHost, WireError};

use crate::frame::{self, FrameError, DEFAULT_MAX_FRAME_BYTES, MAX_VERSION};
use crate::proto;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Worker threads — the bound on concurrently *served* connections. A worker is pinned
    /// to its connection until the peer closes it or it idles past the read timeout, so a
    /// deployment must size `workers` at or above its expected concurrently-open client
    /// connections (pooled connections included); connections beyond the bound wait
    /// unserved until a worker frees up, which a client sees as response latency. (An
    /// evented single-thread serving unlimited idle connections is future work — this is a
    /// std-only crate.)
    pub workers: usize,
    /// Ceiling on one frame's payload; oversized frames are rejected loudly (counted in
    /// [`NetServerStats::rejected_frames`]) and the connection closed, never buffered.
    pub max_frame_bytes: usize,
    /// Per-connection read timeout; an idle connection exceeding it is closed and its worker
    /// reclaimed. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout.
    pub write_timeout: Option<Duration>,
    /// Highest frame version this server speaks. Defaults to the binary version; set to
    /// [`frame::VERSION_TEXT`] to emulate an old textual-only server (clients then settle
    /// on textual frames in both directions).
    pub max_wire_version: u8,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            workers: 16,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_wire_version: MAX_VERSION,
        }
    }
}

/// Snapshot of a server's counters — the [`ServiceHost`]-style observability surface of the
/// TCP tier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections currently being served.
    pub active_connections: u64,
    /// Request frames decoded and dispatched.
    pub requests: u64,
    /// Payload + header bytes received in request frames.
    pub bytes_in: u64,
    /// Payload + header bytes written in response frames.
    pub bytes_out: u64,
    /// Dispatches that failed and were answered with an in-band error envelope.
    pub faults: u64,
    /// Frames refused for exceeding the configured payload ceiling.
    pub rejected_frames: u64,
    /// Malformed frames (bad magic/version/crc/UTF-8/envelope, truncation mid-frame).
    pub protocol_errors: u64,
    /// Binary (version 2) request frames received — observability for the negotiation:
    /// zero means every peer spoke (or was pinned to) the textual baseline.
    pub binary_frames: u64,
    /// Envelopes that arrived inside multi-envelope frames (frames carrying ≥ 2), i.e. the
    /// requests that crossed the socket batched instead of one write each.
    pub batched_envelopes: u64,
    /// Requests dispatched per destination service, sorted by name.
    pub per_service: Vec<(String, u64)>,
}

/// Metric-name prefix for per-service request counters in the host registry.
const SERVICE_PREFIX: &str = "net.server.service.";

/// The server's instrument handles into the host registry — one accounting path shared with
/// the `stats` service instead of a bespoke atomics struct.
struct ServerObs {
    registry: Registry,
    connections_accepted: Counter,
    active_connections: Gauge,
    requests: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    faults: Counter,
    rejected_frames: Counter,
    protocol_errors: Counter,
    binary_frames: Counter,
    batched_envelopes: Counter,
}

impl ServerObs {
    fn new(registry: Registry) -> Self {
        ServerObs {
            connections_accepted: registry.counter("net.server.connections_accepted"),
            active_connections: registry.gauge("net.server.active_connections"),
            requests: registry.counter("net.server.requests"),
            bytes_in: registry.counter("net.server.bytes_in"),
            bytes_out: registry.counter("net.server.bytes_out"),
            faults: registry.counter("net.server.faults"),
            rejected_frames: registry.counter("net.server.rejected_frames"),
            protocol_errors: registry.counter("net.server.protocol_errors"),
            binary_frames: registry.counter("net.server.binary_frames"),
            batched_envelopes: registry.counter("net.server.batched_envelopes"),
            registry,
        }
    }

    fn per_service_counter(&self, service: &str) -> Counter {
        self.registry.counter(&format!("{SERVICE_PREFIX}{service}"))
    }

    fn snapshot(&self) -> NetServerStats {
        let per_service = self
            .registry
            .snapshot()
            .counters_with_prefix(SERVICE_PREFIX)
            .into_iter()
            .map(|(name, count)| (name[SERVICE_PREFIX.len()..].to_string(), count))
            .collect();
        NetServerStats {
            connections_accepted: self.connections_accepted.get(),
            active_connections: u64::try_from(self.active_connections.get()).unwrap_or(0),
            requests: self.requests.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            faults: self.faults.get(),
            rejected_frames: self.rejected_frames.get(),
            protocol_errors: self.protocol_errors.get(),
            binary_frames: self.binary_frames.get(),
            batched_envelopes: self.batched_envelopes.get(),
            per_service,
        }
    }
}

/// Read halves of live connections, closable by [`NetServer::shutdown`] to wake blocked
/// workers without cutting their in-flight response writes.
#[derive(Default)]
struct ActiveConnections {
    next_id: AtomicU64,
    streams: Mutex<HashMap<u64, TcpStream>>,
}

impl ActiveConnections {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.streams.lock().remove(&id);
        }
    }

    fn close_read_halves(&self) {
        for stream in self.streams.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A listening envelope server over one [`ServiceHost`]. Dropping the server shuts it down.
pub struct NetServer {
    addr: SocketAddr,
    config: NetServerConfig,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServerObs>,
    active: Arc<ActiveConnections>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving `host`'s services.
    pub fn bind(
        addr: impl ToSocketAddrs,
        host: &ServiceHost,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServerObs::new(host.registry().clone()));
        let active = Arc::new(ActiveConnections::default());
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut threads = Vec::with_capacity(config.workers.max(1) + 1);
        for worker in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let host = host.clone();
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let active = Arc::clone(&active);
            let config = config.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pasoa-net-worker-{worker}"))
                    .spawn(move || loop {
                        let stream = {
                            let guard = rx.lock();
                            guard.recv()
                        };
                        match stream {
                            // Refuse (drop unanswered) connections queued behind a shutdown.
                            Ok(stream) if !shutdown.load(Ordering::SeqCst) => {
                                // Contain any panic to the one connection: an unwinding
                                // worker would silently and permanently shrink the pool.
                                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    serve_connection(
                                        stream, &host, &shutdown, &counters, &active, &config,
                                    );
                                }));
                            }
                            Ok(_) => {}
                            Err(_) => break,
                        }
                    })
                    .expect("spawn net worker"),
            );
        }
        {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            // Non-blocking accept with a short poll: the only std-portable way to guarantee
            // shutdown can always stop this loop. (A blocking accept would need a self-
            // connect to wake it, which fails for wildcard/external binds and would leave
            // `shutdown()` joining a thread that never exits.)
            listener.set_nonblocking(true)?;
            threads.push(
                std::thread::Builder::new()
                    .name("pasoa-net-accept".to_string())
                    .spawn(move || {
                        loop {
                            if shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    // Accepted sockets may inherit non-blocking mode on
                                    // some platforms; workers need blocking reads.
                                    if stream.set_nonblocking(false).is_err() {
                                        continue;
                                    }
                                    counters.connections_accepted.inc();
                                    if tx.send(stream).is_err() {
                                        break;
                                    }
                                }
                                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                    std::thread::sleep(Duration::from_millis(5));
                                }
                                Err(_) if shutdown.load(Ordering::SeqCst) => break,
                                Err(_) => {
                                    // Transient accept failure (e.g. fd exhaustion): back
                                    // off like the idle arm instead of hot-spinning a core
                                    // for as long as the condition persists.
                                    std::thread::sleep(Duration::from_millis(5));
                                }
                            }
                        }
                        // Dropping the listener here is what makes post-shutdown connections
                        // refused rather than silently queued.
                    })
                    .expect("spawn net acceptor"),
            );
        }

        Ok(NetServer {
            addr,
            config,
            shutdown,
            counters,
            active,
            threads: Mutex::new(threads),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's configuration.
    pub fn config(&self) -> &NetServerConfig {
        &self.config
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> NetServerStats {
        self.counters.snapshot()
    }

    /// Whether [`Self::shutdown`] has run.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Stop the server: refuse new connections, wake idle workers, let in-flight requests
    /// write their responses, then join every thread. Idempotent.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Close only the read halves: a worker blocked waiting for the next frame sees EOF
        // and exits, while a worker mid-dispatch still delivers its response. The polling
        // accept loop notices the flag on its own within its poll interval.
        self.active.close_read_halves();
        let mut threads = self.threads.lock();
        for thread in threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("shut_down", &self.is_shut_down())
            .finish()
    }
}

fn serve_connection(
    mut stream: TcpStream,
    host: &ServiceHost,
    shutdown: &AtomicBool,
    counters: &ServerObs,
    active: &ActiveConnections,
    config: &NetServerConfig,
) {
    let _ = stream.set_read_timeout(config.read_timeout);
    let _ = stream.set_write_timeout(config.write_timeout);
    let _ = stream.set_nodelay(true);
    let id = active.register(&stream);
    // A shutdown sweeping the registry just before this registration would miss the stream;
    // re-checking the flag after registering closes that window.
    if shutdown.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    counters.active_connections.adjust(1);

    // Reused across the connection's lifetime, so steady-state frame (de)serialization
    // stops allocating per exchange. The per-service counter cache keeps the registry's
    // name lookup off the per-envelope hot path.
    let mut per_service_cache: HashMap<String, Counter> = HashMap::new();
    let mut payload_buf = Vec::new();
    let mut write_buf = Vec::new();
    // The connection's negotiated wire version: textual until the peer advertises (or
    // simply sends) something better, capped by the server's own ceiling.
    let mut conn_version = frame::VERSION_TEXT;

    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match frame::read_frame_any(
            &mut stream,
            config.max_frame_bytes,
            config.max_wire_version,
            &mut payload_buf,
        ) {
            Ok(decoded) => {
                let mut envelopes = decoded.envelopes;
                counters.requests.add(envelopes.len() as u64);
                counters.bytes_in.add(decoded.bytes as u64);
                if decoded.version >= frame::VERSION_BINARY {
                    // A binary frame is itself proof the peer speaks version 2.
                    conn_version = conn_version.max(decoded.version);
                    counters.binary_frames.inc();
                }
                if envelopes.len() > 1 {
                    counters.batched_envelopes.add(envelopes.len() as u64);
                }
                let mut services = Vec::with_capacity(envelopes.len());
                for envelope in &mut envelopes {
                    if let Some(advertised) = proto::take_advertised_version(envelope) {
                        // Negotiate the highest version both sides speak, never below
                        // the textual baseline every peer understands. The response
                        // frame carries the verdict.
                        conn_version = advertised
                            .min(config.max_wire_version)
                            .max(frame::VERSION_TEXT);
                    }
                    let service = envelope.service().unwrap_or_default();
                    match per_service_cache.get(service) {
                        Some(counter) => counter.inc(),
                        None => {
                            let counter = counters.per_service_counter(service);
                            counter.inc();
                            per_service_cache.insert(service.to_string(), counter);
                        }
                    }
                    services.push(service.to_string());
                }
                let outcomes =
                    std::panic::catch_unwind(AssertUnwindSafe(|| host.dispatch_many(envelopes)));
                let responses: Vec<Envelope> = match outcomes {
                    Ok(results) => results
                        .into_iter()
                        .map(|result| match result {
                            Ok(response) => response,
                            Err(error) => {
                                counters.faults.inc();
                                proto::error_envelope(&error)
                            }
                        })
                        .collect(),
                    Err(_) => services
                        .iter()
                        .map(|service| {
                            counters.faults.inc();
                            proto::error_envelope(&WireError::Fault {
                                service: service.clone(),
                                reason: "service panicked while handling the request".into(),
                            })
                        })
                        .collect(),
                };
                match frame::write_frame_into(&mut stream, &mut write_buf, &responses, conn_version)
                {
                    Ok(written) => {
                        counters.bytes_out.add(written as u64);
                    }
                    Err(_) => break,
                }
            }
            Err(FrameError::Closed) => break,
            Err(e) if e.is_timeout() => break, // idle connection reclaimed
            Err(e @ FrameError::Oversized { .. }) => {
                counters.rejected_frames.inc();
                // The stream position is unknown past a refused length; report — announcing
                // the close, so the client drops the connection instead of pooling it — and
                // close.
                let _ = frame::write_frame(&mut stream, &closing_error(&WireError::from(e)));
                break;
            }
            Err(FrameError::Io { .. }) => break,
            Err(e) => {
                // Bad magic/version/crc/UTF-8/envelope or mid-frame truncation: the framing
                // is out of sync, so answer once (best effort, close announced) and drop the
                // connection.
                counters.protocol_errors.inc();
                let _ = frame::write_frame(&mut stream, &closing_error(&WireError::from(e)));
                break;
            }
        }
    }

    counters.active_connections.adjust(-1);
    active.deregister(id);
}

/// An error response after which this connection closes (frame-level failures leave the
/// stream unsynchronized), announced so the peer does not pool the dying connection.
fn closing_error(error: &WireError) -> pasoa_wire::Envelope {
    proto::error_envelope(error).with_header(proto::CONNECTION_HEADER, proto::CONNECTION_CLOSE)
}
