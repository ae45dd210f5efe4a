//! A connection-pooled TCP client that stands in for a remote service on a local
//! [`ServiceHost`].
//!
//! [`NetClient`] implements [`MessageHandler`], so registering it under a service's name makes
//! every in-process caller — recorders, the shard router, the registry clients, paginated
//! scatter-gather — reach the remote server over real sockets *without modification*: their
//! `Transport::call` finds the proxy where the service used to be.
//!
//! # Fault parity
//!
//! A refused connection, a dropped connection or a dead server maps onto
//! [`WireError::ServiceDown`] — exactly what the in-process fault injector produces for a
//! killed service — and the client reports the failure to the injector it was built with
//! ([`NetClient::with_failure_notice`]), so the cluster tier's failure detection
//! (epoch-checked injector scans) fires off real socket errors just as it does off injected
//! ones. Failover, replica promotion and the zero-acked-loss guarantees therefore hold
//! unchanged over TCP.
//!
//! # Retry discipline
//!
//! A pooled connection may have been closed by the server (idle timeout, restart) after the
//! previous call. Retrying is only safe while the request cannot have been processed, so the
//! client retries on a **fresh** connection only when the failure was on a *reused*
//! connection during the **write phase** — the request frame never fully left, so no handler
//! can have seen it. Read-phase failures are never retried: once the frame is on the wire,
//! an EOF before the response is ambiguous (the server may have dispatched the request and
//! then failed to write the response), and replaying a `Record` there would commit it twice.
//! Instead the pool evicts connections idle longer than
//! [`NetClientConfig::pool_idle_timeout`] (kept well under the server's read timeout), so a
//! server-side idle close is almost never encountered mid-call in the first place — and the
//! first stale-connection detection clears the whole pool, since after a server restart its
//! siblings are just as dead. Timeouts are never retried either; all non-retried transport
//! failures surface as [`WireError::ServiceDown`] for the failover tier to handle.
//!
//! # Wire-version negotiation and batching
//!
//! The first request on a fresh connection goes out as a textual (version 1) frame carrying
//! a [`proto::WIRE_VERSION_HEADER`] advertisement; the server's response *frame* arrives in
//! the highest version both sides speak and settles the connection's version for its
//! lifetime. Against a binary-capable (version 2) peer, [`NetClient::call_many`] sends a
//! whole request batch as one multi-envelope frame — a batched record flush crosses the
//! socket in a single write — and serialization runs through pooled scratch buffers, so
//! steady-state calls stop allocating per exchange. Old textual peers keep working
//! untouched: they ignore the advertisement header and answer textually.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pasoa_obs::{Counter, Registry};

use pasoa_wire::{Envelope, FaultInjector, MessageHandler, ServiceHost, WireError, WireResult};

use crate::frame::{self, FrameError, DEFAULT_MAX_FRAME_BYTES, MAX_VERSION, VERSION_BINARY};
use crate::proto;

/// Client configuration.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Ceiling on one response frame's payload.
    pub max_frame_bytes: usize,
    /// Timeout for establishing a connection.
    pub connect_timeout: Duration,
    /// Per-call read timeout (how long to wait for a response).
    pub read_timeout: Option<Duration>,
    /// Per-call write timeout.
    pub write_timeout: Option<Duration>,
    /// Idle connections kept for reuse; extras are closed on check-in.
    pub pool_capacity: usize,
    /// Pooled connections idle longer than this are discarded instead of reused (pruned
    /// eagerly on check-in and again at checkout). Kept well below the server's read
    /// timeout (30 s default), so the client practically never sends a request down a
    /// connection the server has already closed — the situation whose failure modes are
    /// ambiguous to retry.
    pub pool_idle_timeout: Duration,
    /// Highest frame version to advertise and accept. Defaults to the binary version; set
    /// to [`frame::VERSION_TEXT`] to emulate an old textual-only peer (the negotiation then
    /// settles on textual frames in both directions).
    pub max_wire_version: u8,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            pool_capacity: 8,
            pool_idle_timeout: Duration::from_secs(10),
            max_wire_version: MAX_VERSION,
        }
    }
}

/// Client-side traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetClientStats {
    /// Calls that returned a response envelope.
    pub calls: u64,
    /// New connections established (first call, pool misses, retries).
    pub connects: u64,
    /// Calls retried once on a fresh connection after a stale pooled connection failed.
    pub retries: u64,
    /// Calls that failed at the connection level (mapped to `ServiceDown`).
    pub transport_failures: u64,
    /// Calls that failed at the frame-protocol level (oversized/corrupt frames — per-call
    /// errors, NOT evidence the host is dead).
    pub protocol_failures: u64,
    /// Frame bytes sent.
    pub bytes_sent: u64,
    /// Frame bytes received.
    pub bytes_received: u64,
    /// Pooled connections dropped without being reused: idle-expired prunes (at check-in
    /// and checkout) plus pool clears after a stale-connection detection.
    pub pool_evictions: u64,
}

/// The client's instrument handles, backed by a `pasoa-obs` registry (by default its own;
/// [`NetClient::with_observability`] rebinds them into a child of a host registry so the
/// host's snapshot aggregates every proxy bound to it).
struct ClientObs {
    registry: Registry,
    calls: Counter,
    connects: Counter,
    retries: Counter,
    transport_failures: Counter,
    protocol_failures: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    pool_evictions: Counter,
}

impl ClientObs {
    fn new(registry: Registry) -> Self {
        ClientObs {
            calls: registry.counter("net.client.calls"),
            connects: registry.counter("net.client.connects"),
            retries: registry.counter("net.client.retries"),
            transport_failures: registry.counter("net.client.transport_failures"),
            protocol_failures: registry.counter("net.client.protocol_failures"),
            bytes_sent: registry.counter("net.client.bytes_sent"),
            bytes_received: registry.counter("net.client.bytes_received"),
            pool_evictions: registry.counter("net.client.pool_evictions"),
            registry,
        }
    }
}

/// Which phase of a call failed — decides whether a retry is safe.
enum Phase {
    /// The request frame never fully left: the server cannot have processed it.
    Write,
    /// The request left but the response failed.
    Read,
}

/// A live connection with its negotiated frame version. Fresh connections start
/// un-negotiated (textual frames plus a version advertisement); the first response frame's
/// version settles the connection's version for its lifetime.
struct Conn {
    stream: TcpStream,
    version: u8,
    negotiated: bool,
}

/// A pooled idle connection: negotiated version plus the check-in instant (for idle
/// eviction).
struct PooledConn {
    stream: TcpStream,
    version: u8,
    idle_since: Instant,
}

/// A pooled client towards one remote service.
pub struct NetClient {
    addr: SocketAddr,
    service: String,
    config: NetClientConfig,
    pool: Mutex<Vec<PooledConn>>,
    /// Reusable serialization buffers (frame encode + response payload), so steady-state
    /// calls stop allocating per exchange.
    buffers: Mutex<Vec<Vec<u8>>>,
    counters: ClientObs,
    on_down: Option<FaultInjector>,
}

impl NetClient {
    /// Create a client for the service named `service` listening at `addr`. No connection is
    /// opened until the first call.
    pub fn new(addr: SocketAddr, service: impl Into<String>, config: NetClientConfig) -> Self {
        NetClient {
            addr,
            service: service.into(),
            config,
            pool: Mutex::new(Vec::new()),
            buffers: Mutex::new(Vec::new()),
            counters: ClientObs::new(Registry::new()),
            on_down: None,
        }
    }

    /// Record this client's counters into a child of `registry`, so the registry's snapshot
    /// aggregates them (under `net.client.*`) across every client bound to it — the one
    /// accounting path the load generator and the `stats` service read. Call before the
    /// first exchange; counts recorded before the rebind stay in the old registry.
    pub fn with_observability(mut self, registry: &Registry) -> Self {
        self.counters = ClientObs::new(registry.child());
        self
    }

    /// The registry this client records into.
    pub fn registry(&self) -> &Registry {
        &self.counters.registry
    }

    /// Report transport-level failures to `injector` (killing this client's service name), so
    /// in-process failure detection — the shard router's epoch-checked injector scan — fires
    /// off real socket errors exactly as it fires off injected faults.
    pub fn with_failure_notice(mut self, injector: FaultInjector) -> Self {
        self.on_down = Some(injector);
        self
    }

    /// The remote address this client connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The remote service this client proxies.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// Snapshot of the client's counters.
    pub fn stats(&self) -> NetClientStats {
        NetClientStats {
            calls: self.counters.calls.get(),
            connects: self.counters.connects.get(),
            retries: self.counters.retries.get(),
            transport_failures: self.counters.transport_failures.get(),
            protocol_failures: self.counters.protocol_failures.get(),
            bytes_sent: self.counters.bytes_sent.get(),
            bytes_received: self.counters.bytes_received.get(),
            pool_evictions: self.counters.pool_evictions.get(),
        }
    }

    /// Send one request frame and return the decoded response. Server-reported errors are
    /// rebuilt into the [`WireError`] the in-process transport would have returned;
    /// connection-level failures become [`WireError::ServiceDown`]; frame-protocol failures
    /// (oversized or corrupt frames) are per-call [`WireError::Payload`] errors — a capacity
    /// or corruption problem is NOT evidence the host is dead, so it never feeds the fault
    /// injector or triggers a failover.
    pub fn call(&self, request: &Envelope) -> WireResult<Envelope> {
        let mut scratch = self.take_buffer();
        let mut payload_buf = self.take_buffer();
        let result = self.call_buffered(request, &mut scratch, &mut payload_buf);
        self.put_buffer(scratch);
        self.put_buffer(payload_buf);
        result
    }

    /// Send `requests` and collect one result per request, in order. On a connection
    /// already negotiated to the binary version the whole remainder crosses the socket as
    /// ONE multi-envelope frame — so a batched record flush pays a single round trip
    /// instead of one per envelope — while textual peers transparently fall back to
    /// per-request calls. Write-atomicity is preserved: a batch is a single frame, so the
    /// single-call retry discipline (retry only write-phase failures of a reused
    /// connection) applies to the batch as a whole.
    pub fn call_many(&self, requests: &[Envelope]) -> Vec<WireResult<Envelope>> {
        let mut results = Vec::with_capacity(requests.len());
        if requests.is_empty() {
            return results;
        }
        let mut scratch = self.take_buffer();
        let mut payload_buf = self.take_buffer();
        while results.len() < requests.len() {
            let remaining = &requests[results.len()..];
            // Batching needs a connection already negotiated to the binary version.
            // Without one, a single (negotiating) call either mints one — pooled for the
            // next loop iteration to batch over — or proves the peer is textual, in which
            // case every request goes out individually.
            let Some(conn) = self.checkout_binary() else {
                let result = self.call_buffered(&remaining[0], &mut scratch, &mut payload_buf);
                results.push(result);
                continue;
            };
            let encoded = frame::encode_frame_into(&mut scratch, remaining, conn.version);
            let fits = matches!(
                encoded,
                Ok(total) if total <= self.config.max_frame_bytes + frame::HEADER_LEN
            );
            if !fits {
                // A batch too large for one frame degrades to one-at-a-time calls (each
                // individually size-checked) instead of failing outright.
                self.checkin(conn);
                let result = self.call_buffered(&remaining[0], &mut scratch, &mut payload_buf);
                results.push(result);
                continue;
            }
            match self.exchange(conn, &scratch, &mut payload_buf) {
                Ok((responses, conn)) => {
                    if responses.len() != remaining.len() {
                        // Wrong arity is a server-side protocol bug, not a dead host: the
                        // in-flight remainder fails as per-call errors, and the connection
                        // is dropped rather than trusted again.
                        self.counters.protocol_failures.inc();
                        let error = WireError::Payload(format!(
                            "tcp transport: batched {} requests but received {} responses",
                            remaining.len(),
                            responses.len()
                        ));
                        results.extend(remaining.iter().map(|_| Err(error.clone())));
                        continue;
                    }
                    if !responses.iter().any(proto::announces_close) {
                        self.checkin(conn);
                    }
                    results.extend(responses.into_iter().map(|r| self.decode_response(r)));
                }
                Err((phase, error)) => {
                    if retry_is_safe(&phase, &error) {
                        // The pooled connection went stale without delivering the batch;
                        // its pool siblings point at the same (likely restarted) server,
                        // so clear them all and rebuild from a fresh negotiating call on
                        // the next iteration.
                        self.clear_pool();
                        self.counters.retries.inc();
                        continue;
                    }
                    let wire_error = self.fail(error);
                    results.extend(remaining.iter().map(|_| Err(wire_error.clone())));
                }
            }
        }
        self.put_buffer(scratch);
        self.put_buffer(payload_buf);
        results
    }

    /// One request through checkout → encode → exchange → retry, serializing through the
    /// caller's reusable buffers.
    fn call_buffered(
        &self,
        request: &Envelope,
        scratch: &mut Vec<u8>,
        payload_buf: &mut Vec<u8>,
    ) -> WireResult<Envelope> {
        let (conn, reused) = match self.checkout() {
            Some(conn) => {
                // The connection is untouched if encoding fails (an oversized request is a
                // per-call error) — hand it back before reporting.
                if let Err(error) = self.encode_single(true, conn.version, request, scratch) {
                    self.checkin(conn);
                    return Err(error);
                }
                (conn, true)
            }
            None => {
                // Encode before dialing: an oversized request must fail without consuming
                // a connection (or a server accept).
                self.encode_single(false, frame::VERSION_TEXT, request, scratch)?;
                (self.fresh_conn()?, false)
            }
        };
        let (phase, error) = match self.exchange_single(conn, scratch, payload_buf) {
            Ok((response, conn)) => return self.finish(response, conn),
            Err(failure) => failure,
        };
        if reused && retry_is_safe(&phase, &error) {
            // The stale pooled connection demonstrably never delivered the request. Its
            // pool siblings were opened against the same (likely restarted) server, so
            // drop them all — otherwise every one of them burns a failed call and a
            // one-shot retry before the pool heals — and let one fresh connection try.
            self.clear_pool();
            self.counters.retries.inc();
            self.encode_single(false, frame::VERSION_TEXT, request, scratch)?;
            let conn = self.fresh_conn()?;
            match self.exchange_single(conn, scratch, payload_buf) {
                Ok((response, conn)) => return self.finish(response, conn),
                Err((_, error)) => return Err(self.fail(error)),
            }
        }
        Err(self.fail(error))
    }

    /// Encode one request into `scratch` as the right frame for the connection's
    /// negotiation state: a fresh connection sends a textual frame carrying the client's
    /// version advertisement (so any peer can read it); a negotiated connection uses the
    /// settled version. Enforces the frame ceiling before anything is sent — the server
    /// would reject the frame anyway, and the caller should hear "your message is too
    /// large", not "the host died".
    fn encode_single(
        &self,
        negotiated: bool,
        version: u8,
        request: &Envelope,
        scratch: &mut Vec<u8>,
    ) -> WireResult<()> {
        let encoded = if negotiated {
            frame::encode_frame_into(scratch, std::slice::from_ref(request), version)
        } else if self.config.max_wire_version > frame::VERSION_TEXT {
            let advertised = proto::advertise_version(request, self.config.max_wire_version);
            frame::encode_frame_into(
                scratch,
                std::slice::from_ref(&advertised),
                frame::VERSION_TEXT,
            )
        } else {
            frame::encode_frame_into(scratch, std::slice::from_ref(request), frame::VERSION_TEXT)
        };
        let total = match encoded {
            Ok(total) => total,
            Err(error) => {
                self.counters.protocol_failures.inc();
                return Err(WireError::from(error));
            }
        };
        if total > self.config.max_frame_bytes + frame::HEADER_LEN {
            self.counters.protocol_failures.inc();
            return Err(WireError::Payload(format!(
                "tcp transport: request frame of {} bytes exceeds the {}-byte ceiling; \
                 fetch/ship it in bounded pieces instead",
                total - frame::HEADER_LEN,
                self.config.max_frame_bytes
            )));
        }
        Ok(())
    }

    fn finish(&self, response: Envelope, conn: Conn) -> WireResult<Envelope> {
        // Pool the connection only if the server did not announce it is closing it (it does
        // after frame-level errors, whose responses precede a guaranteed close — pooling
        // such a stream would hand the next call a dead connection).
        if !proto::announces_close(&response) {
            self.checkin(conn);
        }
        self.decode_response(response)
    }

    /// Count a completed exchange and rebuild any server-reported error.
    fn decode_response(&self, response: Envelope) -> WireResult<Envelope> {
        self.counters.calls.inc();
        if let Some(error) = proto::decode_error(&response) {
            // The server answered: the service is reachable, the *request* failed. No
            // injector notice — this mirrors an in-process handler error, not a dead host.
            return Err(error);
        }
        Ok(response)
    }

    /// One frame exchange on `conn`; the caller decides whether the connection returns to
    /// the pool. The response frame's version is the negotiation verdict — the highest
    /// version both sides speak — and settles the connection's version for its lifetime.
    fn exchange(
        &self,
        mut conn: Conn,
        request_frame: &[u8],
        payload_buf: &mut Vec<u8>,
    ) -> Result<(Vec<Envelope>, Conn), (Phase, FrameError)> {
        use std::io::Write as _;
        let _ = conn.stream.set_read_timeout(self.config.read_timeout);
        let _ = conn.stream.set_write_timeout(self.config.write_timeout);
        let _ = conn.stream.set_nodelay(true);
        let write_failure = |e: std::io::Error| {
            (
                Phase::Write,
                FrameError::Io {
                    kind: e.kind(),
                    detail: e.to_string(),
                },
            )
        };
        conn.stream
            .write_all(request_frame)
            .map_err(write_failure)?;
        conn.stream.flush().map_err(write_failure)?;
        // Counted at write success, so traffic sent before a failed read — and each send of
        // a retried call — is accounted, not just completed exchanges.
        self.counters.bytes_sent.add(request_frame.len() as u64);
        match frame::read_frame_any(
            &mut conn.stream,
            self.config.max_frame_bytes,
            self.config.max_wire_version,
            payload_buf,
        ) {
            Ok(decoded) => {
                self.counters.bytes_received.add(decoded.bytes as u64);
                conn.version = decoded.version;
                conn.negotiated = true;
                Ok((decoded.envelopes, conn))
            }
            Err(error) => Err((Phase::Read, error)),
        }
    }

    /// [`Self::exchange`], insisting on a single-envelope response.
    fn exchange_single(
        &self,
        conn: Conn,
        request_frame: &[u8],
        payload_buf: &mut Vec<u8>,
    ) -> Result<(Envelope, Conn), (Phase, FrameError)> {
        let (mut envelopes, conn) = self.exchange(conn, request_frame, payload_buf)?;
        if envelopes.len() != 1 {
            return Err((
                Phase::Read,
                FrameError::BadEnvelope(format!(
                    "expected a single-envelope response, got {} envelopes",
                    envelopes.len()
                )),
            ));
        }
        Ok((envelopes.pop().expect("one envelope"), conn))
    }

    fn connect(&self) -> WireResult<TcpStream> {
        match TcpStream::connect_timeout(&self.addr, self.config.connect_timeout) {
            Ok(stream) => {
                self.counters.connects.inc();
                Ok(stream)
            }
            Err(error) => Err(self.fail(FrameError::Io {
                kind: error.kind(),
                detail: error.to_string(),
            })),
        }
    }

    fn fresh_conn(&self) -> WireResult<Conn> {
        Ok(Conn {
            stream: self.connect()?,
            version: frame::VERSION_TEXT,
            negotiated: false,
        })
    }

    /// Drop idle-expired pooled connections, counting them as evictions. A connection idle
    /// long enough that the server may have reclaimed it must not be reused: doing so
    /// risks the ambiguous mid-call failures retry cannot safely paper over.
    fn prune_expired(&self, pool: &mut Vec<PooledConn>) {
        let before = pool.len();
        pool.retain(|conn| conn.idle_since.elapsed() < self.config.pool_idle_timeout);
        let evicted = before - pool.len();
        if evicted > 0 {
            self.counters.pool_evictions.add(evicted as u64);
        }
    }

    fn checkout(&self) -> Option<Conn> {
        let mut pool = self.pool.lock();
        self.prune_expired(&mut pool);
        pool.pop().map(|pooled| Conn {
            stream: pooled.stream,
            version: pooled.version,
            negotiated: true,
        })
    }

    /// Check out a pooled connection negotiated to the binary version (for batching),
    /// leaving textual connections in place for single calls.
    fn checkout_binary(&self) -> Option<Conn> {
        let mut pool = self.pool.lock();
        self.prune_expired(&mut pool);
        let index = pool
            .iter()
            .position(|pooled| pooled.version >= VERSION_BINARY)?;
        let pooled = pool.swap_remove(index);
        Some(Conn {
            stream: pooled.stream,
            version: pooled.version,
            negotiated: true,
        })
    }

    fn checkin(&self, conn: Conn) {
        // A never-negotiated connection is not pooled: it has not proven an exchange, and
        // pooling it would freeze the connection at the textual version without ever
        // having asked the server for better.
        if !conn.negotiated {
            return;
        }
        let mut pool = self.pool.lock();
        // Eager prune at check-in (not just checkout): entries that expired while the pool
        // sat idle are released now instead of lingering until the next checkout.
        self.prune_expired(&mut pool);
        if pool.len() < self.config.pool_capacity {
            pool.push(PooledConn {
                stream: conn.stream,
                version: conn.version,
                idle_since: Instant::now(),
            });
        }
    }

    fn take_buffer(&self) -> Vec<u8> {
        self.buffers.lock().pop().unwrap_or_default()
    }

    fn put_buffer(&self, mut buffer: Vec<u8>) {
        const MAX_POOLED_BUFFERS: usize = 16;
        buffer.clear();
        let mut buffers = self.buffers.lock();
        if buffers.len() < MAX_POOLED_BUFFERS {
            buffers.push(buffer);
        }
    }

    /// Record a failed exchange, distinguishing how it failed. Connection-level failures
    /// (refused, dropped, truncated mid-frame, timed out) mean the host is unreachable:
    /// count them, notify the fault injector, and produce the `ServiceDown` the failover
    /// tier keys on. Frame-protocol failures (oversized or corrupt frames) mean the host is
    /// alive but this *exchange* is unusable: they surface as per-call payload errors and
    /// never touch the injector — a legitimately-too-large response must not get a healthy
    /// shard declared dead and failed over.
    ///
    /// Timeouts are deliberately in the connection-level (crash-equivalent) bucket even
    /// though the host may merely be slow: a response that timed out is an
    /// *ambiguous commit* (the request may or may not have been handled), and declaring the
    /// shard dead is the one treatment that stays consistent — the failover tier excludes
    /// the shard, so its maybe-committed copy can never surface alongside a redelivered
    /// one. With replication ≥ 2 the promoted replica preserves every acked assertion; at
    /// R = 1 a false-positive timeout has the same consequences as a real crash (the
    /// documented non-guarantee of unreplicated deployments). Raising
    /// [`NetClientConfig::read_timeout`] is the lever against false positives.
    fn fail(&self, error: FrameError) -> WireError {
        match error {
            FrameError::Closed | FrameError::Truncated { .. } | FrameError::Io { .. } => {
                self.counters.transport_failures.inc();
                if let Some(injector) = &self.on_down {
                    injector.kill(self.service.clone());
                }
                WireError::ServiceDown(self.service.clone())
            }
            protocol @ (FrameError::BadMagic(_)
            | FrameError::BadVersion(_)
            | FrameError::Oversized { .. }
            | FrameError::BadCrc { .. }
            | FrameError::BadUtf8
            | FrameError::BadEnvelope(_)) => {
                self.counters.protocol_failures.inc();
                WireError::from(protocol)
            }
        }
    }

    /// Drop every pooled connection (counted as evictions). Called automatically on the
    /// first stale-connection detection — after a server restart every pooled connection
    /// is dead, and clearing them all at once means subsequent calls reconnect directly
    /// instead of each burning a failed exchange and a one-shot retry.
    pub fn clear_pool(&self) {
        let mut pool = self.pool.lock();
        let drained = pool.len();
        pool.clear();
        if drained > 0 {
            self.counters.pool_evictions.add(drained as u64);
        }
    }
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("addr", &self.addr)
            .field("service", &self.service)
            .finish()
    }
}

impl MessageHandler for NetClient {
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        self.call(&request)
    }

    fn handle_many(&self, requests: Vec<Envelope>) -> Vec<WireResult<Envelope>> {
        self.call_many(&requests)
    }

    fn name(&self) -> &str {
        "net-client-proxy"
    }
}

/// Whether a failed exchange may be replayed on a fresh connection without risking duplicate
/// processing: only failures proving the server never handled the frame qualify.
fn retry_is_safe(phase: &Phase, error: &FrameError) -> bool {
    match phase {
        // The request never fully left this connection: no handler can have seen it.
        Phase::Write => !error.is_timeout(),
        // Once the frame is on the wire, any read-phase failure — even a clean EOF at the
        // response boundary — is ambiguous: the server dispatches before writing its
        // response, so a response-write failure closes the connection AFTER the request was
        // handled, and a replay would process (e.g. commit) it twice. Never retried; the
        // pool's idle eviction keeps the benign stale-connection case from arising.
        Phase::Read => {
            let _ = error;
            false
        }
    }
}

/// Register a TCP proxy for `service` (listening at `addr`) on `host`: local callers reach
/// the remote transparently, and transport failures are reported to `host`'s fault injector
/// so the existing failure-detection/failover machinery observes real socket errors.
pub fn register_remote(
    host: &ServiceHost,
    service: &str,
    addr: SocketAddr,
    config: NetClientConfig,
) -> Arc<NetClient> {
    let client = Arc::new(
        NetClient::new(addr, service, config)
            .with_observability(host.registry())
            .with_failure_notice(host.fault_injector()),
    );
    host.register(service, Arc::clone(&client) as Arc<dyn MessageHandler>);
    client
}
