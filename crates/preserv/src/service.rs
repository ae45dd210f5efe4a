//! The PReServ service: message translator + plug-in dispatch.
//!
//! This is the top layer of Figure 3: envelopes arrive from the wire, the translator
//! ([`pasoa_core::prepwire`], shared with the cluster tier's router) decodes the PReP message
//! in the body, the service routes it to the plug-in that declares it handles the envelope's
//! action, and wraps the plug-in's response back into an envelope. Registering the
//! service on a [`pasoa_wire::ServiceHost`] makes it reachable by every recorder and reasoner
//! in the process, exactly as deploying the servlet in Tomcat made it reachable over HTTP.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use pasoa_core::prep::PrepMessage;
use pasoa_core::prepwire;
use pasoa_obs::{Counter, Registry, StatsSnapshot, TraceCtx};
use pasoa_wire::{
    Envelope, MessageHandler, ServiceHost, WireError, WireResult, STATS_SNAPSHOT_ACTION,
};

use crate::backend::{KvBackend, MemoryBackend, StorageBackend};
use crate::plugins::{BasicQueryPlugin, LineageQueryPlugin, PagedQueryPlugin, PlugIn, StorePlugin};
use crate::store::ProvenanceStore;

/// Configuration of a PReServ deployment.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Service name to register under (defaults to [`pasoa_core::PROVENANCE_STORE_SERVICE`]).
    pub service_name: String,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            service_name: pasoa_core::PROVENANCE_STORE_SERVICE.to_string(),
        }
    }
}

/// The PReP actions whose `preserv.dispatch.<action>` counters are resolved once rather than
/// looked up by name per request; any other action a custom plug-in answers is counted by
/// name.
const PREP_ACTIONS: [&str; 5] = ["record", "register-group", "query", "query-page", "lineage"];

/// The service's instruments. Each dispatch counter is resolved on its action's first
/// dispatch, so a snapshot never lists an action nobody sent.
struct ServiceObs {
    registry: Registry,
    dispatched: [OnceLock<Counter>; PREP_ACTIONS.len()],
}

impl ServiceObs {
    fn new(registry: Registry) -> Self {
        ServiceObs {
            registry,
            dispatched: Default::default(),
        }
    }

    fn note_dispatch(&self, action: &str) {
        let counter = |action: &str| self.registry.counter(&format!("preserv.dispatch.{action}"));
        match PREP_ACTIONS.iter().position(|known| *known == action) {
            Some(slot) => self.dispatched[slot].get_or_init(|| counter(action)).inc(),
            None => counter(action).inc(),
        }
    }
}

/// A deployed provenance store service.
pub struct PreservService {
    store: Arc<ProvenanceStore>,
    backend: Arc<dyn StorageBackend>,
    plugins: Vec<Arc<dyn PlugIn>>,
    config: ServiceConfig,
    obs: ServiceObs,
    /// Handler for the change-feed wire actions (`subscribe`/`feed-poll`/`feed-ack`),
    /// installed by the feed tier. Feed envelopes arrive on the store's own service name, so
    /// a remote subscriber reaches the feed through exactly the proxies that carry records.
    /// Interior-mutable because the feed is wired after deployment shares the service.
    feed: parking_lot::Mutex<Option<Arc<dyn MessageHandler>>>,
}

impl PreservService {
    /// Create a service over an explicit backend.
    pub fn with_backend(backend: Arc<dyn StorageBackend>) -> Result<Self, crate::StoreError> {
        let obs = Registry::new();
        backend.attach_observability(&obs);
        let store = Arc::new(ProvenanceStore::open(Arc::clone(&backend))?);
        store.attach_observability(&obs);
        let plugins: Vec<Arc<dyn PlugIn>> = vec![
            Arc::new(StorePlugin::new(Arc::clone(&store))),
            Arc::new(BasicQueryPlugin::new(Arc::clone(&store))),
            Arc::new(PagedQueryPlugin::new(Arc::clone(&store))),
            Arc::new(LineageQueryPlugin::new(Arc::clone(&store))),
        ];
        Ok(PreservService {
            store,
            backend,
            plugins,
            config: ServiceConfig::default(),
            obs: ServiceObs::new(obs),
            feed: parking_lot::Mutex::new(None),
        })
    }

    /// Create a service over an in-memory backend.
    pub fn in_memory() -> Result<Self, crate::StoreError> {
        Self::with_backend(Arc::new(MemoryBackend::new()))
    }

    /// Create a service over the database backend rooted at `dir` (the configuration the
    /// paper's evaluation uses).
    pub fn with_database_backend(dir: impl AsRef<Path>) -> Result<Self, crate::StoreError> {
        let backend = KvBackend::open(dir).map_err(crate::StoreError::Backend)?;
        Self::with_backend(Arc::new(backend))
    }

    /// Create a service over a durably-synced database backend: every acked write is fsynced,
    /// so the service survives a crash losing nothing it acknowledged. Reopening after a crash
    /// runs the backend's recovery scan (torn/corrupt log tails are truncated).
    pub fn with_durable_database_backend(dir: impl AsRef<Path>) -> Result<Self, crate::StoreError> {
        let backend = KvBackend::open_durable(dir).map_err(crate::StoreError::Backend)?;
        Self::with_backend(Arc::new(backend))
    }

    /// Override the service name.
    pub fn with_config(mut self, config: ServiceConfig) -> Self {
        self.config = config;
        self
    }

    /// Fold this service's metrics into `registry`: the service keeps its own exact registry
    /// (a [`Registry::child`]), the parent's snapshots aggregate it, and the backend's and the
    /// store's instruments are re-attached so kvdb latency and read-path counts land in the
    /// same tree. Passing a disabled registry turns the service's observability off entirely.
    pub fn with_observability(mut self, registry: &Registry) -> Self {
        self.obs = ServiceObs::new(registry.child());
        self.backend.attach_observability(&self.obs.registry);
        self.store.attach_observability(&self.obs.registry);
        self
    }

    /// Install the handler answering the change-feed actions ([`pasoa_core::FEED_SUBSCRIBE_ACTION`],
    /// [`pasoa_core::FEED_POLL_ACTION`], [`pasoa_core::FEED_ACK_ACTION`]) on this service's name.
    pub fn with_feed_handler(self, handler: Arc<dyn MessageHandler>) -> Self {
        self.set_feed_handler(handler);
        self
    }

    /// Install (or replace) the change-feed handler on an already-shared service — the
    /// deployment path: the feed queue opens over the shard's backend after the service
    /// exists.
    pub fn set_feed_handler(&self, handler: Arc<dyn MessageHandler>) {
        *self.feed.lock() = Some(handler);
    }

    /// The registry this service's instruments (and its backend's) write into.
    pub fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// The [`StatsSnapshot`] this service answers `stats-snapshot` requests with.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            service: self.config.service_name.clone(),
            registry: self.obs.registry.snapshot(),
        }
    }

    /// Direct access to the store (for in-process reasoners and tests).
    pub fn store(&self) -> Arc<ProvenanceStore> {
        Arc::clone(&self.store)
    }

    /// What crash recovery found and repaired when this service's storage was opened (`None`
    /// for backends that run no recovery scan). A service deployed over
    /// [`Self::with_durable_database_backend`] after a crash reports torn-tail truncation here.
    pub fn recovery_report(&self) -> Option<&pasoa_kvdb::RecoveryReport> {
        self.store.recovery_report()
    }

    /// Register an additional plug-in.
    pub fn add_plugin(&mut self, plugin: Arc<dyn PlugIn>) {
        self.plugins.push(plugin);
    }

    /// Names of the installed plug-ins.
    pub fn plugin_names(&self) -> Vec<String> {
        self.plugins.iter().map(|p| p.name().to_string()).collect()
    }

    /// Register this service on `host`, making it reachable through transports. Returns the
    /// service name used.
    pub fn register(self: &Arc<Self>, host: &ServiceHost) -> String {
        let name = self.config.service_name.clone();
        host.register(name.clone(), Arc::clone(self) as Arc<dyn MessageHandler>);
        name
    }
}

impl PreservService {
    /// Dispatch a decoded protocol message to the plug-in that declares it handles `action`.
    ///
    /// This is the message translator minus the envelope codec. The wire path
    /// ([`MessageHandler::handle`]) decodes and re-encodes around it; in-process callers —
    /// notably the cluster tier's shard router, for which a second serialisation hop would
    /// double the recording cost — invoke it directly.
    pub fn dispatch(
        &self,
        action: &str,
        message: &PrepMessage,
    ) -> WireResult<crate::plugins::PluginResponse> {
        self.dispatch_traced(action, message, None)
    }

    /// [`Self::dispatch`] with an optional trace context: the shard-side hop of a traced batch
    /// lands in this service's event log (stage `shard.store`) with the plug-in's wall time,
    /// whether the envelope travelled over TCP or the router handed the message over
    /// in-process.
    pub fn dispatch_traced(
        &self,
        action: &str,
        message: &PrepMessage,
        trace: Option<&TraceCtx>,
    ) -> WireResult<crate::plugins::PluginResponse> {
        self.obs.note_dispatch(action);
        let plugin = self
            .plugins
            .iter()
            .find(|p| p.handles(action))
            .ok_or_else(|| WireError::Payload(format!("no plug-in handles action '{action}'")))?;
        let events = self.obs.registry.events();
        let timer = (trace.is_some() && events.is_enabled()).then(std::time::Instant::now);
        // Panic containment: a plug-in is third-party code, and a panic inside it must come
        // back as a structured fault on this one call instead of poisoning the worker thread
        // serving it (the DAG executor applies the same discipline to task bodies).
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plugin.handle(message)));
        let response = match outcome {
            Ok(result) => result.map_err(|e| {
                WireError::Payload(format!("plug-in {} failed: {e}", plugin.name()))
            })?,
            Err(panic) => {
                self.obs.registry.counter("preserv.plugin_panics").inc();
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return Err(WireError::Payload(format!(
                    "plug-in {} panicked handling '{action}': {detail}",
                    plugin.name()
                )));
            }
        };
        if let (Some(trace), Some(t)) = (trace, timer) {
            events.push(
                &trace.trace_id,
                trace.span_id,
                "shard.store",
                format!("service={} action={action}", self.config.service_name),
                t.elapsed().as_nanos() as u64,
            );
        }
        Ok(response)
    }
}

impl MessageHandler for PreservService {
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        let action = request
            .action()
            .ok_or_else(|| WireError::InvalidEnvelope("missing action header".into()))?
            .to_string();
        // Answer stats requests before touching the body: the request carries no PReP message,
        // and handling it here means the very same envelope works against an in-process shard
        // and a TCP-served one — the per-shard snapshot is transport-independent.
        if action == STATS_SNAPSHOT_ACTION {
            return Envelope::response(&action).with_json_payload(&self.stats_snapshot());
        }
        // Change-feed actions carry no PReP message either; hand the whole envelope to the
        // feed tier when one is installed.
        if action == pasoa_core::FEED_SUBSCRIBE_ACTION
            || action == pasoa_core::FEED_POLL_ACTION
            || action == pasoa_core::FEED_ACK_ACTION
        {
            let feed = self.feed.lock().clone();
            return match feed {
                Some(feed) => feed.handle(request),
                None => Err(WireError::Payload(format!(
                    "no change feed is attached to service '{}'",
                    self.config.service_name
                ))),
            };
        }
        let trace = request.trace_ctx();
        let message = prepwire::decode_request(&request)?;
        let response = self.dispatch_traced(&action, &message, trace.as_ref())?;
        match response {
            crate::plugins::PluginResponse::Ack(ack) => prepwire::ack_envelope(&request, &ack),
            crate::plugins::PluginResponse::Query(q) => {
                Envelope::response(&action).with_json_payload(&q)
            }
            crate::plugins::PluginResponse::Documents(page) => {
                prepwire::documents_envelope(&request, &page)
                    .map_err(|e| WireError::Payload(crate::StoreError::from(e).to_string()))
            }
            crate::plugins::PluginResponse::Lineage(graph) => {
                Envelope::response(&action).with_json_payload(&graph)
            }
            crate::plugins::PluginResponse::GroupRegistered => {
                Envelope::response(&action).with_json_payload(&"group-registered")
            }
        }
    }

    fn name(&self) -> &str {
        "preserv"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::group::{Group, GroupKind};
    use pasoa_core::ids::{ActorId, IdGenerator, SessionId};
    use pasoa_core::passertion::{
        ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
    };
    use pasoa_core::prep::{QueryRequest, QueryResponse, RecordAck, RecordMessage};
    use pasoa_core::recorder::{AsyncRecorder, ProvenanceRecorder, SyncRecorder};
    use pasoa_wire::TransportConfig;

    fn deploy() -> (Arc<PreservService>, ServiceHost) {
        let service = Arc::new(PreservService::in_memory().unwrap());
        let host = ServiceHost::new();
        service.register(&host);
        (service, host)
    }

    fn script_assertion(i: usize) -> PAssertion {
        PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: pasoa_core::ids::InteractionKey::new(format!("interaction:{i}")),
            asserter: ActorId::new("measure"),
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(format!("gzip --level 9 # permutation {i}")),
        })
    }

    #[test]
    fn end_to_end_record_then_query_over_the_wire() {
        let (service, host) = deploy();
        let transport = host.transport(TransportConfig::free());

        // Record through the wire-level protocol.
        let assertions = (0..6).map(script_assertion).collect::<Vec<_>>();
        let message = PrepMessage::Record(RecordMessage {
            message_id: pasoa_core::ids::MessageId::new("message:1"),
            asserter: ActorId::new("engine"),
            assertions: assertions
                .into_iter()
                .map(|assertion| pasoa_core::passertion::RecordedAssertion {
                    session: SessionId::new("session:wire"),
                    assertion,
                })
                .collect(),
        });
        let envelope = Envelope::request("provenance-store", message.action())
            .with_json_payload(&message)
            .unwrap();
        let response = transport.call(envelope).unwrap();
        let ack: RecordAck = response.json_payload().unwrap();
        assert_eq!(ack.accepted, 6);

        // Query back through the wire.
        let query = PrepMessage::Query(QueryRequest::BySession(SessionId::new("session:wire")));
        let envelope = Envelope::request("provenance-store", query.action())
            .with_json_payload(&query)
            .unwrap();
        let response = transport.call(envelope).unwrap();
        let result: QueryResponse = response.json_payload().unwrap();
        match result {
            QueryResponse::Assertions(found) => assert_eq!(found.len(), 6),
            other => panic!("unexpected query response {other:?}"),
        }
        assert_eq!(service.store().statistics().actor_state_passertions, 6);
    }

    #[test]
    fn recorders_work_against_the_real_service() {
        let (service, host) = deploy();
        let sync = SyncRecorder::new(
            SessionId::new("session:sync"),
            ActorId::new("engine"),
            host.transport(TransportConfig::free()),
            IdGenerator::new("sync"),
        );
        let asyn = AsyncRecorder::new(
            SessionId::new("session:async"),
            ActorId::new("engine"),
            host.transport(TransportConfig::free()),
            IdGenerator::new("async"),
            8,
        );
        for i in 0..20 {
            sync.record(script_assertion(i)).unwrap();
            asyn.record(script_assertion(100 + i)).unwrap();
        }
        sync.register_group(Group::new("session:sync", GroupKind::Session))
            .unwrap();
        asyn.register_group(Group::new("session:async", GroupKind::Session))
            .unwrap();
        asyn.flush().unwrap();

        let store = service.store();
        assert_eq!(
            store
                .assertions_for_session(&SessionId::new("session:sync"))
                .unwrap()
                .len(),
            20
        );
        assert_eq!(
            store
                .assertions_for_session(&SessionId::new("session:async"))
                .unwrap()
                .len(),
            20
        );
        assert_eq!(store.groups_by_kind("session").unwrap().len(), 2);
    }

    #[test]
    fn stats_snapshot_and_trace_events_ride_the_service() {
        let (service, host) = deploy();
        let transport = host.transport(TransportConfig::free());

        // A traced record lands a shard.store event carrying the caller's trace id.
        let trace = TraceCtx::root("trace:svc");
        let message = PrepMessage::Record(RecordMessage {
            message_id: pasoa_core::ids::MessageId::new("message:traced"),
            asserter: ActorId::new("engine"),
            assertions: vec![pasoa_core::passertion::RecordedAssertion {
                session: SessionId::new("session:traced"),
                assertion: script_assertion(0),
            }],
        });
        let envelope = Envelope::request("provenance-store", message.action())
            .with_json_payload(&message)
            .unwrap()
            .with_trace(&trace);
        transport.call(envelope).unwrap();
        let events = service.registry().events().events_for("trace:svc");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, "shard.store");
        assert!(events[0].detail.contains("action=record"));

        // The stats action answers without a PReP body, with the same registry the events
        // live in, over the same transport as everything else.
        let response = transport
            .call(Envelope::request("provenance-store", STATS_SNAPSHOT_ACTION))
            .unwrap();
        let snapshot: StatsSnapshot = response.json_payload().unwrap();
        assert_eq!(snapshot.service, "provenance-store");
        assert_eq!(snapshot.registry.counter("preserv.dispatch.record"), 1);
        assert_eq!(snapshot.registry.events.len(), 1);
        // In-process call is byte-for-byte the wire path, so the direct snapshot matches.
        assert_eq!(
            service.stats_snapshot().registry.counters,
            snapshot.registry.counters
        );
    }

    #[test]
    fn database_backend_latency_lands_in_the_service_registry() {
        let dir = std::env::temp_dir().join(format!(
            "preserv-service-obs-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Arc::new(PreservService::with_durable_database_backend(&dir).unwrap());
        let host = ServiceHost::new();
        service.register(&host);
        let recorder = SyncRecorder::new(
            SessionId::new("session:obs"),
            ActorId::new("engine"),
            host.transport(TransportConfig::free()),
            IdGenerator::new("o"),
        );
        for i in 0..3 {
            recorder.record(script_assertion(i)).unwrap();
        }
        let snapshot = service.stats_snapshot();
        let appends = snapshot.registry.histogram("kvdb.append_nanos").unwrap();
        assert!(appends.count >= 3);
        let fsyncs = snapshot.registry.histogram("kvdb.fsync_nanos").unwrap();
        assert!(fsyncs.count >= 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_action_is_a_fault() {
        let (_, host) = deploy();
        let transport = host.transport(TransportConfig::free());
        let envelope = Envelope::request("provenance-store", "not-an-action")
            .with_json_payload(&PrepMessage::Query(QueryRequest::Statistics))
            .unwrap();
        // The action routing uses the envelope header, which does not match any plug-in.
        let err = transport.call(envelope).unwrap_err();
        assert!(matches!(err, WireError::Fault { .. }));
    }

    #[test]
    fn malformed_payload_is_a_fault_not_a_crash() {
        let (_, host) = deploy();
        let transport = host.transport(TransportConfig::free());
        let envelope = Envelope::request("provenance-store", "record")
            .with_json_payload(&"this is not a prep message")
            .unwrap();
        assert!(transport.call(envelope).is_err());
    }

    #[test]
    fn service_exposes_its_plugins_and_accepts_new_ones() {
        let (service, _) = deploy();
        let names = service.plugin_names();
        assert_eq!(
            names,
            vec!["store", "basic-query", "paged-query", "lineage-query"]
        );
        assert_eq!(MessageHandler::name(service.as_ref()), "preserv");
    }

    #[test]
    fn panicking_plugin_becomes_a_structured_fault_and_the_service_survives() {
        struct PanickingPlugin;
        impl PlugIn for PanickingPlugin {
            fn name(&self) -> &str {
                "panicker"
            }
            fn handles(&self, action: &str) -> bool {
                action == "panic-action"
            }
            fn handle(
                &self,
                _message: &PrepMessage,
            ) -> Result<crate::plugins::PluginResponse, crate::StoreError> {
                panic!("deliberate test panic");
            }
        }
        let mut service = PreservService::in_memory().unwrap();
        service.add_plugin(Arc::new(PanickingPlugin));
        let service = Arc::new(service);
        let host = ServiceHost::new();
        service.register(&host);
        let transport = host.transport(TransportConfig::free());

        // The panic comes back as a fault on this call, naming the plug-in and the action.
        let envelope = Envelope::request("provenance-store", "panic-action")
            .with_json_payload(&PrepMessage::Query(QueryRequest::Statistics))
            .unwrap();
        let err = transport.call(envelope).unwrap_err();
        let rendered = err.to_string();
        assert!(
            rendered.contains("panicker"),
            "fault names the plug-in: {rendered}"
        );
        assert!(
            rendered.contains("deliberate test panic"),
            "fault carries the payload: {rendered}"
        );
        assert_eq!(
            service
                .stats_snapshot()
                .registry
                .counter("preserv.plugin_panics"),
            1
        );

        // The service (and the worker that served the panicking call) keeps working.
        let query = PrepMessage::Query(QueryRequest::Statistics);
        let envelope = Envelope::request("provenance-store", query.action())
            .with_json_payload(&query)
            .unwrap();
        let response = transport.call(envelope).unwrap();
        let result: QueryResponse = response.json_payload().unwrap();
        assert!(matches!(result, QueryResponse::Statistics(_)));
    }

    #[test]
    fn feed_actions_without_a_feed_handler_fail_loudly() {
        let (_, host) = deploy();
        let transport = host.transport(TransportConfig::free());
        let err = transport
            .call(Envelope::request(
                "provenance-store",
                pasoa_core::FEED_SUBSCRIBE_ACTION,
            ))
            .unwrap_err();
        assert!(err.to_string().contains("no change feed"));
    }

    #[test]
    fn durable_service_reports_torn_tail_recovery_through_every_layer() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!(
            "preserv-service-recovery-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let service = Arc::new(PreservService::with_durable_database_backend(&dir).unwrap());
            // A fresh directory recovers nothing and repairs nothing.
            let report = service.recovery_report().expect("database backend reports");
            assert!(report.is_clean());
            assert_eq!(report.records_recovered(), 0);
            let host = ServiceHost::new();
            service.register(&host);
            let recorder = SyncRecorder::new(
                SessionId::new("session:recovery"),
                ActorId::new("engine"),
                host.transport(TransportConfig::free()),
                IdGenerator::new("r"),
            );
            for i in 0..5 {
                recorder.record(script_assertion(i)).unwrap();
            }
            // Durable policy fsyncs every acked record; no explicit sync needed.
        }
        // Crash artefact: garbage bytes past the last fsynced record.
        let seg = dir.join(format!("seg-{:016}.log", 1));
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0x77; 13]).unwrap();
        drop(f);

        let service = PreservService::with_durable_database_backend(&dir).unwrap();
        // Service-level surface...
        let report = service.recovery_report().expect("database backend reports");
        assert!(!report.is_clean());
        assert_eq!(report.torn_segments(), 1);
        assert_eq!(report.truncated_bytes(), 13);
        assert!(report.records_recovered() > 0);
        // ... agrees with the store-level surface, and the acked data survived whole.
        let store = service.store();
        assert_eq!(store.recovery_report().unwrap().truncated_bytes(), 13);
        assert_eq!(
            service
                .store()
                .assertions_for_session(&SessionId::new("session:recovery"))
                .unwrap()
                .len(),
            5
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn database_backed_service_persists_across_redeployment() {
        let dir = std::env::temp_dir().join(format!("preserv-service-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let service = Arc::new(PreservService::with_database_backend(&dir).unwrap());
            let host = ServiceHost::new();
            service.register(&host);
            let recorder = SyncRecorder::new(
                SessionId::new("session:persist"),
                ActorId::new("engine"),
                host.transport(TransportConfig::free()),
                IdGenerator::new("p"),
            );
            for i in 0..10 {
                recorder.record(script_assertion(i)).unwrap();
            }
            service.store().sync().unwrap();
        }
        let service = PreservService::with_database_backend(&dir).unwrap();
        assert_eq!(
            service
                .store()
                .assertions_for_session(&SessionId::new("session:persist"))
                .unwrap()
                .len(),
            10
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
