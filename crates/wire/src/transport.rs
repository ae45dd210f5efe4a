//! In-process service host and client transport.
//!
//! The paper deploys PReServ, the Grimoires registry and the workflow on separate hosts; actors
//! reach them through SOAP over HTTP. Here a [`ServiceHost`] plays the role of the network: a
//! registry of named services, each an implementation of [`MessageHandler`]. A [`Transport`]
//! is the client-side view an actor holds: it serializes envelopes to their wire form,
//! charges the configured latency model (either by sleeping or by advancing a virtual clock),
//! routes the message to the destination service and returns the response the same way.
//!
//! Because every byte really is serialized and re-parsed on both directions, the transport
//! exercises the same encode/decode code paths an actual remote deployment would, and the
//! traffic counters report genuine message sizes.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::RwLock;
use pasoa_obs::{Counter, Registry};

use crate::clock::SimClock;
use crate::envelope::Envelope;
use crate::error::{WireError, WireResult};
use crate::latency::LatencyModel;

/// A service implementation: receives a request envelope, returns a response envelope.
pub trait MessageHandler: Send + Sync {
    /// Handle one request.
    fn handle(&self, request: Envelope) -> WireResult<Envelope>;

    /// Handle a batch of requests, returning one result per request in order. The default
    /// simply loops over [`Self::handle`]; transport-hop handlers (the TCP client proxy)
    /// override it to ship the whole batch in one wire exchange.
    fn handle_many(&self, requests: Vec<Envelope>) -> Vec<WireResult<Envelope>> {
        requests.into_iter().map(|r| self.handle(r)).collect()
    }

    /// Human-readable name used in diagnostics.
    fn name(&self) -> &str {
        "anonymous-service"
    }
}

impl<F> MessageHandler for F
where
    F: Fn(Envelope) -> WireResult<Envelope> + Send + Sync,
{
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        self(request)
    }
}

/// How the modelled communication cost is realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyMode {
    /// Actually sleep for the modelled duration (real-time runs, small latencies).
    Sleep,
    /// Accumulate the modelled duration on the shared [`SimClock`] (simulated-time runs).
    #[default]
    Virtual,
    /// Ignore the latency model entirely.
    None,
}

/// Transport configuration: cost model plus how to apply it.
#[derive(Debug, Clone, Default)]
pub struct TransportConfig {
    /// Per-message cost model.
    pub latency: LatencyModel,
    /// Whether to sleep, accumulate, or ignore the cost.
    pub mode: LatencyMode,
    /// Skip the textual serialize/re-parse simulation and dispatch envelopes as-is. For a
    /// transport whose hop already crosses a *real* codec boundary (the shard router's
    /// internal hop over TCP frames), the simulation would be a second, redundant
    /// serialization of every message; byte accounting then lives at the frame layer.
    pub passthrough: bool,
}

impl TransportConfig {
    /// A configuration with no communication cost at all.
    pub fn free() -> Self {
        TransportConfig {
            latency: LatencyModel::zero(),
            mode: LatencyMode::None,
            passthrough: false,
        }
    }

    /// No modelled cost and no simulated serialization: for hops that already pay a real
    /// codec (see [`TransportConfig::passthrough`]).
    pub fn passthrough() -> Self {
        TransportConfig {
            latency: LatencyModel::zero(),
            mode: LatencyMode::None,
            passthrough: true,
        }
    }

    /// Real-time configuration: sleep for the modelled cost.
    pub fn sleeping(latency: LatencyModel) -> Self {
        TransportConfig {
            latency,
            mode: LatencyMode::Sleep,
            passthrough: false,
        }
    }

    /// Simulated-time configuration: accumulate the modelled cost on the clock.
    pub fn virtual_time(latency: LatencyModel) -> Self {
        TransportConfig {
            latency,
            mode: LatencyMode::Virtual,
            passthrough: false,
        }
    }
}

/// Point-in-time copy of one transport's traffic counters, read from its `wire.transport.*`
/// instruments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Number of request/response exchanges completed.
    pub calls: u64,
    /// Bytes sent (serialized requests).
    pub bytes_sent: u64,
    /// Bytes received (serialized responses).
    pub bytes_received: u64,
    /// Number of calls that returned a fault or routing error.
    pub failures: u64,
    /// Total modelled communication time charged (whether slept or accumulated).
    pub modelled_nanos: u64,
}

impl TransportStats {
    /// Mean modelled round-trip time per call.
    pub fn mean_round_trip(&self) -> Duration {
        self.modelled_nanos
            .checked_div(self.calls)
            .map(Duration::from_nanos)
            .unwrap_or(Duration::ZERO)
    }
}

/// A transport's instruments, resolved once so a call never looks one up by name. They live
/// in a [`Registry::child`] of the host registry: [`Transport::stats`] reads this transport's
/// own tallies, and the host's snapshot sums every transport's under the same names. (A host
/// built on [`Registry::disabled`] hands its transports a private registry instead, so their
/// tallies — Figure 4 reads `modelled_nanos` — stay live.)
#[derive(Clone)]
struct TransportObs {
    calls: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    failures: Counter,
    modelled_nanos: Counter,
}

impl TransportObs {
    fn new(host: &Registry) -> Self {
        let registry = if host.is_enabled() {
            host.child()
        } else {
            Registry::new()
        };
        TransportObs {
            calls: registry.counter("wire.transport.calls"),
            bytes_sent: registry.counter("wire.transport.bytes_sent"),
            bytes_received: registry.counter("wire.transport.bytes_received"),
            failures: registry.counter("wire.transport.failures"),
            modelled_nanos: registry.counter("wire.transport.modelled_nanos"),
        }
    }

    /// Tally one exchange's outcome: a response is a completed call (and a failure too if it
    /// is a fault), an error a failure only.
    fn tally(&self, outcome: &WireResult<Envelope>) {
        match outcome {
            Ok(response) => {
                self.calls.inc();
                if response.is_fault() {
                    self.failures.inc();
                }
            }
            Err(_) => self.failures.inc(),
        }
    }
}

/// Metric-name prefix for per-service dispatch counters in the host registry.
const DISPATCH_PREFIX: &str = "wire.dispatch.";

/// One registered service: its handler and its `wire.dispatch.<name>` counter, resolved on
/// the first dispatch (so a snapshot never lists a service nobody called) and never looked
/// up by name again.
#[derive(Clone)]
struct Route {
    handler: Arc<dyn MessageHandler>,
    dispatched: Arc<OnceLock<Counter>>,
}

/// The "network": a registry of named services reachable from any [`Transport`].
#[derive(Default, Clone)]
pub struct ServiceHost {
    services: Arc<RwLock<HashMap<String, Route>>>,
    /// The host's observability registry: per-service dispatch counters live here (under
    /// `wire.dispatch.<service>`), and every component bound to the host — net servers,
    /// shard routers, client proxies — records into it so one snapshot covers the tier.
    obs: Registry,
    /// Shared fault state: services listed here are unreachable until revived.
    faults: crate::fault::FaultInjector,
}

impl std::fmt::Debug for ServiceHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.services.read().keys().cloned().collect();
        f.debug_struct("ServiceHost")
            .field("services", &names)
            .finish()
    }
}

impl ServiceHost {
    /// Create an empty host with an enabled observability registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty host writing into the given registry — pass
    /// [`Registry::disabled`] to turn the whole host's observability into near-no-ops.
    pub fn with_registry(obs: Registry) -> Self {
        ServiceHost {
            obs,
            ..Self::default()
        }
    }

    /// The host's observability registry.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    /// Register (or replace) a service under `name`.
    pub fn register(&self, name: impl Into<String>, handler: Arc<dyn MessageHandler>) {
        let route = Route {
            handler,
            dispatched: Arc::default(),
        };
        self.services.write().insert(name.into(), route);
    }

    /// Remove a service. Returns whether it existed.
    pub fn deregister(&self, name: &str) -> bool {
        self.services.write().remove(name).is_some()
    }

    /// Whether `name` is registered. Kept for the cluster crate's tests, which check that a
    /// deployment registered each shard's service.
    pub fn has_service(&self, name: &str) -> bool {
        self.services.read().contains_key(name)
    }

    fn lookup(&self, name: &str) -> Option<Route> {
        self.services.read().get(name).cloned()
    }

    /// The dispatch counter of service `name`, resolved into its route on the first dispatch.
    fn dispatch_counter<'a>(&self, route: &'a Route, name: &str) -> &'a Counter {
        route
            .dispatched
            .get_or_init(|| self.obs.counter(&format!("{DISPATCH_PREFIX}{name}")))
    }

    /// Route one decoded envelope to its destination service: the dispatch core shared by the
    /// in-process [`Transport`] and the TCP tier's `NetServer` (which decodes frames off a
    /// socket and must not pay a second in-process serialization). Applies the host's fault
    /// state and per-service dispatch counters.
    ///
    /// Handler errors that are themselves routing outcomes — [`WireError::ServiceDown`],
    /// [`WireError::UnknownService`], [`WireError::Fault`] — pass through unchanged: a handler
    /// may be a transport hop in its own right (a TCP proxy towards a remote host, the shard
    /// router mid-failover), and wrapping its verdict would erase the distinction failover
    /// logic keys on (a `ServiceDown` is safely retriable against a replica; a `Fault` is
    /// not). Every other handler error is wrapped as a [`WireError::Fault`] naming the
    /// service.
    pub fn dispatch(&self, request: Envelope) -> WireResult<Envelope> {
        let service_name = request
            .service()
            .ok_or_else(|| WireError::InvalidEnvelope("missing service header".into()))?
            .to_string();
        let route = self
            .lookup(&service_name)
            .ok_or_else(|| WireError::UnknownService(service_name.clone()))?;
        if self.faults.is_down(&service_name) {
            return Err(WireError::ServiceDown(service_name));
        }
        self.dispatch_counter(&route, &service_name).inc();
        route.handler.handle(request).map_err(|error| match error {
            routed @ (WireError::ServiceDown(_)
            | WireError::UnknownService(_)
            | WireError::Fault { .. }) => routed,
            other => WireError::Fault {
                service: service_name,
                reason: other.to_string(),
            },
        })
    }

    /// Route a batch of decoded envelopes, returning one result per envelope in order. A
    /// batch addressed to a single service resolves the handler once and rides the handler's
    /// own [`MessageHandler::handle_many`] — a TCP proxy turns it into one multi-envelope
    /// frame. Mixed-service batches fall back to per-envelope [`Self::dispatch`].
    pub fn dispatch_many(&self, requests: Vec<Envelope>) -> Vec<WireResult<Envelope>> {
        let first_service = requests
            .first()
            .and_then(|r| r.service())
            .map(str::to_string);
        let same_service = first_service.is_some()
            && requests
                .iter()
                .all(|r| r.service() == first_service.as_deref());
        if !same_service {
            return requests.into_iter().map(|r| self.dispatch(r)).collect();
        }
        let service_name = first_service.expect("non-empty same-service batch");
        let Some(route) = self.lookup(&service_name) else {
            return requests
                .iter()
                .map(|_| Err(WireError::UnknownService(service_name.clone())))
                .collect();
        };
        if self.faults.is_down(&service_name) {
            return requests
                .iter()
                .map(|_| Err(WireError::ServiceDown(service_name.clone())))
                .collect();
        }
        let expected = requests.len();
        self.dispatch_counter(&route, &service_name)
            .add(expected as u64);
        let mut results: Vec<WireResult<Envelope>> = route
            .handler
            .handle_many(requests)
            .into_iter()
            .map(|result| {
                result.map_err(|error| match error {
                    routed @ (WireError::ServiceDown(_)
                    | WireError::UnknownService(_)
                    | WireError::Fault { .. }) => routed,
                    other => WireError::Fault {
                        service: service_name.clone(),
                        reason: other.to_string(),
                    },
                })
            })
            .collect();
        // A handler returning the wrong arity is a bug; keep the caller's alignment intact
        // by erroring the missing tail rather than panicking or misattributing responses.
        while results.len() < expected {
            results.push(Err(WireError::Fault {
                service: service_name.clone(),
                reason: "batch handler returned fewer responses than requests".into(),
            }));
        }
        results.truncate(expected);
        results
    }

    /// Calls dispatched to each service so far, sorted by service name. Reads the
    /// `wire.dispatch.*` counters of the host registry — the one accounting path, and one
    /// that only grows: a caller wanting a bounded workload's share diffs two reads.
    /// Services never called are omitted.
    pub fn dispatch_counts(&self) -> Vec<(String, u64)> {
        self.obs
            .snapshot()
            .counters_with_prefix(DISPATCH_PREFIX)
            .into_iter()
            .filter(|(_, count)| *count > 0)
            .map(|(name, count)| (name[DISPATCH_PREFIX.len()..].to_string(), count))
            .collect()
    }

    /// The host's fault injector: kill a service to make it unreachable, revive it to model a
    /// restart. Every transport bound to this host observes the same faults.
    pub fn fault_injector(&self) -> crate::fault::FaultInjector {
        self.faults.clone()
    }

    /// Create a client transport bound to this host.
    pub fn transport(&self, config: TransportConfig) -> Transport {
        self.transport_with_clock(config, SimClock::new())
    }

    /// Create a client transport sharing an existing virtual clock.
    pub fn transport_with_clock(&self, config: TransportConfig, clock: SimClock) -> Transport {
        Transport {
            host: self.clone(),
            config,
            clock,
            obs: TransportObs::new(&self.obs),
        }
    }
}

/// Client-side view of the network. Cheap to clone; clones share statistics and the clock.
#[derive(Clone)]
pub struct Transport {
    host: ServiceHost,
    config: TransportConfig,
    clock: SimClock,
    obs: TransportObs,
}

impl std::fmt::Debug for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transport")
            .field("mode", &self.config.mode)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Transport {
    /// Send `request` to the service named in its `service` header and return the response.
    pub fn call(&self, request: Envelope) -> WireResult<Envelope> {
        if self.config.passthrough {
            return self.call_passthrough(request);
        }
        // Serialize and re-parse the request: this is what would cross the network.
        let request_text = request.to_wire();
        let request_bytes = request_text.len();
        let decoded_request = Envelope::from_wire(&request_text)?;

        let response = match self.host.dispatch(decoded_request) {
            Ok(r) => r,
            Err(e) => {
                self.obs.failures.inc();
                return Err(e);
            }
        };

        let response_text = response.to_wire();
        let response_bytes = response_text.len();
        let decoded_response = Envelope::from_wire(&response_text)?;

        let cost = self
            .config
            .latency
            .round_trip(request_bytes, response_bytes);
        self.charge(cost);

        self.obs.bytes_sent.add(request_bytes as u64);
        self.obs.bytes_received.add(response_bytes as u64);
        self.obs
            .modelled_nanos
            .add(u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX));
        let outcome = Ok(decoded_response);
        self.obs.tally(&outcome);
        outcome
    }

    /// Send a batch of requests, returning one result per request in order. Passthrough
    /// transports hand the whole batch to [`ServiceHost::dispatch_many`] (a single-service
    /// batch then crosses a TCP hop as one multi-envelope frame); simulating transports pay
    /// the per-message serialization exactly as today, call by call.
    pub fn call_many(&self, requests: Vec<Envelope>) -> Vec<WireResult<Envelope>> {
        if requests.is_empty() {
            return Vec::new();
        }
        if !self.config.passthrough {
            return requests.into_iter().map(|r| self.call(r)).collect();
        }
        let results = self.host.dispatch_many(requests);
        results.iter().for_each(|result| self.obs.tally(result));
        results
    }

    /// Dispatch without the wire simulation: the hop's real codec (TCP frames) does the
    /// serializing, so byte and latency accounting live there, not here.
    fn call_passthrough(&self, request: Envelope) -> WireResult<Envelope> {
        let outcome = self.host.dispatch(request);
        self.obs.tally(&outcome);
        outcome
    }

    /// The shared virtual clock (meaningful in [`LatencyMode::Virtual`]).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            calls: self.obs.calls.get(),
            bytes_sent: self.obs.bytes_sent.get(),
            bytes_received: self.obs.bytes_received.get(),
            failures: self.obs.failures.get(),
            modelled_nanos: self.obs.modelled_nanos.get(),
        }
    }

    /// The host this transport routes through.
    pub fn host(&self) -> &ServiceHost {
        &self.host
    }

    /// The configured latency model.
    pub fn latency_model(&self) -> LatencyModel {
        self.config.latency
    }

    fn charge(&self, cost: Duration) {
        match self.config.mode {
            LatencyMode::Sleep => {
                if !cost.is_zero() {
                    std::thread::sleep(cost);
                }
            }
            LatencyMode::Virtual => self.clock.advance(cost),
            LatencyMode::None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::NetworkProfile;
    use crate::xml::XmlElement;

    struct Echo;
    impl MessageHandler for Echo {
        fn handle(&self, request: Envelope) -> WireResult<Envelope> {
            Ok(Envelope::response("echo").with_body(request.body))
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    fn host_with_echo() -> ServiceHost {
        let host = ServiceHost::new();
        host.register("echo", Arc::new(Echo));
        host
    }

    #[test]
    fn register_and_route() {
        let host = host_with_echo();
        assert!(host.has_service("echo"));
        assert!(!host.has_service("nowhere"));
        let transport = host.transport(TransportConfig::free());
        let req =
            Envelope::request("echo", "ping").with_body(XmlElement::new("data").text("hello"));
        let resp = transport.call(req).unwrap();
        assert_eq!(resp.body.text_content(), "hello");
        assert_eq!(transport.stats().calls, 1);
        assert!(transport.stats().bytes_sent > 0);
    }

    #[test]
    fn unknown_service_is_an_error_and_counted() {
        let host = ServiceHost::new();
        let transport = host.transport(TransportConfig::free());
        let err = transport
            .call(Envelope::request("nowhere", "x"))
            .unwrap_err();
        assert!(matches!(err, WireError::UnknownService(_)));
        assert_eq!(transport.stats().failures, 1);
        assert_eq!(transport.stats().calls, 0);
    }

    #[test]
    fn handler_error_becomes_fault() {
        let host = ServiceHost::new();
        host.register(
            "broken",
            Arc::new(|_req: Envelope| -> WireResult<Envelope> {
                Err(WireError::Payload("boom".into()))
            }),
        );
        let transport = host.transport(TransportConfig::free());
        let err = transport
            .call(Envelope::request("broken", "x"))
            .unwrap_err();
        assert!(matches!(err, WireError::Fault { .. }));
        assert_eq!(transport.stats().failures, 1);
    }

    #[test]
    fn routing_errors_from_handlers_pass_through_unchanged() {
        // A handler acting as a transport hop (e.g. a TCP proxy) reports ServiceDown; the
        // transport must not blur it into a Fault, or failover logic loses its retry signal.
        let host = ServiceHost::new();
        host.register(
            "proxied",
            Arc::new(|_req: Envelope| -> WireResult<Envelope> {
                Err(WireError::ServiceDown("proxied".into()))
            }),
        );
        let transport = host.transport(TransportConfig::free());
        let err = transport
            .call(Envelope::request("proxied", "x"))
            .unwrap_err();
        assert!(matches!(err, WireError::ServiceDown(name) if name == "proxied"));
        assert_eq!(transport.stats().failures, 1);
    }

    #[test]
    fn host_dispatch_matches_transport_semantics() {
        let host = host_with_echo();
        let ok = host
            .dispatch(
                Envelope::request("echo", "ping").with_body(XmlElement::new("data").text("d")),
            )
            .unwrap();
        assert_eq!(ok.body.text_content(), "d");
        assert!(matches!(
            host.dispatch(Envelope::request("nowhere", "x"))
                .unwrap_err(),
            WireError::UnknownService(_)
        ));
        host.fault_injector().kill("echo");
        assert!(matches!(
            host.dispatch(Envelope::request("echo", "x")).unwrap_err(),
            WireError::ServiceDown(_)
        ));
        // The dispatch core maintains the same per-service counters the transport does.
        assert_eq!(host.dispatch_counts(), vec![("echo".to_string(), 1)]);
    }

    #[test]
    fn virtual_latency_accumulates_on_clock() {
        let host = host_with_echo();
        let latency = NetworkProfile::Paper2005.latency_model();
        let transport = host.transport(TransportConfig::virtual_time(latency));
        for _ in 0..10 {
            transport.call(Envelope::request("echo", "ping")).unwrap();
        }
        let stats = transport.stats();
        assert_eq!(stats.calls, 10);
        assert!(transport.clock().elapsed() >= Duration::from_millis(100));
        assert_eq!(
            Duration::from_nanos(stats.modelled_nanos),
            transport.clock().elapsed()
        );
        assert!(stats.mean_round_trip() >= Duration::from_millis(10));
    }

    #[test]
    fn sleeping_latency_actually_takes_time() {
        let host = host_with_echo();
        let latency = LatencyModel {
            fixed: Duration::from_millis(2),
            bandwidth_bytes_per_sec: None,
            service_processing: Duration::ZERO,
        };
        let transport = host.transport(TransportConfig::sleeping(latency));
        let start = std::time::Instant::now();
        for _ in 0..3 {
            transport.call(Envelope::request("echo", "ping")).unwrap();
        }
        // 3 calls × 2 one-way messages × 2 ms fixed = at least 12 ms.
        assert!(start.elapsed() >= Duration::from_millis(12));
    }

    #[test]
    fn zero_cost_mode_charges_nothing() {
        let host = host_with_echo();
        let transport = host.transport(TransportConfig::free());
        transport.call(Envelope::request("echo", "ping")).unwrap();
        assert_eq!(transport.clock().elapsed(), Duration::ZERO);
        assert_eq!(transport.stats().modelled_nanos, 0);
    }

    #[test]
    fn clones_share_stats_and_clock() {
        let host = host_with_echo();
        let latency = NetworkProfile::FastLocal.latency_model();
        let a = host.transport(TransportConfig::virtual_time(latency));
        let b = a.clone();
        a.call(Envelope::request("echo", "ping")).unwrap();
        b.call(Envelope::request("echo", "ping")).unwrap();
        assert_eq!(a.stats().calls, 2);
        assert_eq!(b.stats().calls, 2);
        assert_eq!(a.clock().elapsed(), b.clock().elapsed());
    }

    #[test]
    fn host_snapshot_sums_every_transports_counters() {
        let host = host_with_echo();
        let latency = NetworkProfile::FastLocal.latency_model();
        let a = host.transport(TransportConfig::virtual_time(latency));
        let b = host.transport(TransportConfig::passthrough());
        a.call(Envelope::request("echo", "ping")).unwrap();
        b.call(Envelope::request("echo", "ping")).unwrap();
        assert!(b.call(Envelope::request("nowhere", "x")).is_err());
        // Each transport reads its own tallies ...
        assert_eq!((a.stats().calls, a.stats().failures), (1, 0));
        assert_eq!((b.stats().calls, b.stats().failures), (1, 1));
        // ... and the host's snapshot reports their sums under `wire.transport.*`.
        let snapshot = host.registry().snapshot();
        assert_eq!(snapshot.counter("wire.transport.calls"), 2);
        assert_eq!(snapshot.counter("wire.transport.failures"), 1);
        assert_eq!(
            snapshot.counter("wire.transport.bytes_sent"),
            a.stats().bytes_sent
        );
        assert_eq!(
            snapshot.counter("wire.transport.bytes_received"),
            a.stats().bytes_received
        );
        assert_eq!(
            snapshot.counter("wire.transport.modelled_nanos"),
            a.stats().modelled_nanos
        );
        assert!(a.stats().modelled_nanos > 0);
    }

    #[test]
    fn a_disabled_host_registry_leaves_transport_stats_live() {
        let host = ServiceHost::with_registry(Registry::disabled());
        host.register("echo", Arc::new(Echo));
        let latency = NetworkProfile::Paper2005.latency_model();
        let transport = host.transport(TransportConfig::virtual_time(latency));
        transport.call(Envelope::request("echo", "ping")).unwrap();
        assert_eq!(transport.stats().calls, 1);
        assert_eq!(
            Duration::from_nanos(transport.stats().modelled_nanos),
            transport.clock().elapsed()
        );
        assert!(host.registry().snapshot().counters.is_empty());
    }

    #[test]
    fn killed_service_is_unreachable_until_revived() {
        let host = host_with_echo();
        let transport = host.transport(TransportConfig::free());
        host.fault_injector().kill("echo");
        let err = transport
            .call(Envelope::request("echo", "ping"))
            .unwrap_err();
        assert!(matches!(err, WireError::ServiceDown(name) if name == "echo"));
        assert_eq!(transport.stats().failures, 1);
        // A downed service is not dispatched to (no counter increment).
        assert!(host.dispatch_counts().is_empty());
        host.fault_injector().revive("echo");
        transport.call(Envelope::request("echo", "ping")).unwrap();
        assert_eq!(transport.stats().calls, 1);
    }

    #[test]
    fn deregister_removes_service() {
        let host = host_with_echo();
        assert!(host.deregister("echo"));
        assert!(!host.deregister("echo"));
        let transport = host.transport(TransportConfig::free());
        assert!(transport.call(Envelope::request("echo", "ping")).is_err());
    }

    #[test]
    fn concurrent_calls_from_many_threads() {
        let host = host_with_echo();
        let transport = host.transport(TransportConfig::free());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = transport.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    t.call(Envelope::request("echo", "ping")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(transport.stats().calls, 400);
        assert_eq!(transport.stats().failures, 0);
    }

    #[test]
    fn passthrough_dispatches_without_simulated_serialization() {
        let host = host_with_echo();
        let transport = host.transport(TransportConfig::passthrough());
        let resp = transport
            .call(Envelope::request("echo", "ping").with_body(XmlElement::new("d").text("raw")))
            .unwrap();
        assert_eq!(resp.body.text_content(), "raw");
        let stats = transport.stats();
        assert_eq!(stats.calls, 1);
        // No simulated wire: byte accounting belongs to the real codec layer.
        assert_eq!(stats.bytes_sent, 0);
        assert!(matches!(
            transport
                .call(Envelope::request("nowhere", "x"))
                .unwrap_err(),
            WireError::UnknownService(_)
        ));
        assert_eq!(transport.stats().failures, 1);
    }

    #[test]
    fn dispatch_many_keeps_per_request_alignment() {
        let host = host_with_echo();
        let requests: Vec<Envelope> = (0..4)
            .map(|i| {
                Envelope::request("echo", "ping")
                    .with_body(XmlElement::new("d").text(format!("r{i}")))
            })
            .collect();
        let results = host.dispatch_many(requests);
        assert_eq!(results.len(), 4);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(
                result.as_ref().unwrap().body.text_content(),
                format!("r{i}")
            );
        }
        assert_eq!(host.dispatch_counts(), vec![("echo".to_string(), 4)]);

        // Unknown and downed services answer every request in the batch.
        let missing = host.dispatch_many(vec![
            Envelope::request("nowhere", "x"),
            Envelope::request("nowhere", "y"),
        ]);
        assert_eq!(missing.len(), 2);
        assert!(missing
            .iter()
            .all(|r| matches!(r, Err(WireError::UnknownService(_)))));

        // A mixed-service batch still answers each request against its own service.
        let mixed = host.dispatch_many(vec![
            Envelope::request("echo", "ping").with_body(XmlElement::new("d").text("a")),
            Envelope::request("nowhere", "x"),
        ]);
        assert!(mixed[0].is_ok());
        assert!(matches!(mixed[1], Err(WireError::UnknownService(_))));
    }

    #[test]
    fn call_many_matches_per_call_semantics() {
        let host = host_with_echo();
        let passthrough = host.transport(TransportConfig::passthrough());
        let simulated = host.transport(TransportConfig::free());
        for transport in [&passthrough, &simulated] {
            let requests: Vec<Envelope> = (0..3)
                .map(|i| {
                    Envelope::request("echo", "ping")
                        .with_body(XmlElement::new("d").text(format!("b{i}")))
                })
                .collect();
            let results = transport.call_many(requests);
            assert_eq!(results.len(), 3);
            for (i, result) in results.iter().enumerate() {
                assert_eq!(
                    result.as_ref().unwrap().body.text_content(),
                    format!("b{i}")
                );
            }
            assert_eq!(transport.stats().calls, 3);
        }
    }
}
