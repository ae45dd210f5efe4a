//! The `stats` well-known service: observability snapshots over the same envelopes as
//! everything else.
//!
//! Any [`ServiceHost`] can install a [`StatsService`]; it answers the
//! [`STATS_SNAPSHOT_ACTION`] request with a JSON-encoded
//! [`pasoa_obs::StatsSnapshot`] of the host's registry. Because it is an
//! ordinary [`MessageHandler`], the same request works in-process (via
//! [`ServiceHost::dispatch`]) and over TCP (a `NetServer` bound to the host serves it like
//! any other service) — the snapshot a remote peer sees is structurally identical to the
//! local one, which is what lets the cluster scatter-gather per-shard statistics without a
//! side channel.

use std::sync::Arc;

use pasoa_obs::{Registry, StatsSnapshot};

use crate::envelope::Envelope;
use crate::error::{WireError, WireResult};
use crate::transport::{MessageHandler, ServiceHost};

/// Well-known service name the stats responder registers under.
pub const STATS_SERVICE: &str = "stats";

/// Action requesting a [`StatsSnapshot`] of the responder's registry.
pub const STATS_SNAPSHOT_ACTION: &str = "stats-snapshot";

/// Responder for the `stats` service: snapshots one registry on demand.
pub struct StatsService {
    service: String,
    registry: Registry,
}

impl StatsService {
    /// A responder reporting `registry` under the component name `service`.
    pub fn new(service: impl Into<String>, registry: Registry) -> Self {
        StatsService {
            service: service.into(),
            registry,
        }
    }

    /// Register a responder for the host's own registry under [`STATS_SERVICE`], naming the
    /// report `service`.
    pub fn install(host: &ServiceHost, service: impl Into<String>) {
        host.register(
            STATS_SERVICE,
            Arc::new(StatsService::new(service, host.registry().clone())),
        );
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            service: self.service.clone(),
            registry: self.registry.snapshot(),
        }
    }
}

impl MessageHandler for StatsService {
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        match request.action() {
            Some(STATS_SNAPSHOT_ACTION) => {
                Envelope::response(STATS_SNAPSHOT_ACTION).with_json_payload(&self.snapshot())
            }
            other => Err(WireError::Payload(format!(
                "stats service does not understand action {other:?}"
            ))),
        }
    }

    fn name(&self) -> &str {
        "stats"
    }
}

/// Build the request envelope asking `service` for its stats snapshot.
#[cfg(test)]
pub(crate) fn snapshot_request(service: &str) -> Envelope {
    Envelope::request(service, STATS_SNAPSHOT_ACTION)
}

/// Decode a [`StatsService`] response.
pub fn decode_snapshot(response: &Envelope) -> WireResult<StatsSnapshot> {
    if response.is_fault() {
        return Err(WireError::Payload(format!(
            "stats request faulted: {}",
            response.fault_reason().unwrap_or_default()
        )));
    }
    response.json_payload()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportConfig;

    #[test]
    fn stats_service_answers_with_the_host_registry() {
        let host = ServiceHost::new();
        host.registry().counter("demo.hits").add(3);
        StatsService::install(&host, "test-host");
        let transport = host.transport(TransportConfig::free());
        let response = transport.call(snapshot_request(STATS_SERVICE)).unwrap();
        let snapshot = decode_snapshot(&response).unwrap();
        assert_eq!(snapshot.service, "test-host");
        assert_eq!(snapshot.registry.counter("demo.hits"), 3);
    }

    #[test]
    fn unknown_action_is_a_fault() {
        let host = ServiceHost::new();
        StatsService::install(&host, "test-host");
        let err = host
            .dispatch(Envelope::request(STATS_SERVICE, "bogus"))
            .unwrap_err();
        assert!(matches!(err, WireError::Fault { .. }));
    }

    #[test]
    fn dispatch_counts_ride_the_registry() {
        // Satellite check: the per-service dispatch counters and the stats service share one
        // accounting path — a dispatch shows up in the snapshot without extra bookkeeping.
        let host = ServiceHost::new();
        StatsService::install(&host, "host");
        host.dispatch(snapshot_request(STATS_SERVICE)).unwrap();
        let response = host.dispatch(snapshot_request(STATS_SERVICE)).unwrap();
        let snapshot = decode_snapshot(&response).unwrap();
        assert_eq!(snapshot.registry.counter("wire.dispatch.stats"), 2);
        assert_eq!(host.dispatch_counts(), vec![("stats".to_string(), 2)]);
        // Only growing: the snapshot's own dispatch lands on the same counter.
        let response = host.dispatch(snapshot_request(STATS_SERVICE)).unwrap();
        let snapshot = decode_snapshot(&response).unwrap();
        assert_eq!(snapshot.registry.counter("wire.dispatch.stats"), 3);
        assert_eq!(host.dispatch_counts(), vec![("stats".to_string(), 3)]);
    }
}
