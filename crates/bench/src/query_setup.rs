//! Corpus and deployments of the `query_latency` Criterion bench.

use std::sync::Arc;

use pasoa_cluster::PreservCluster;
use pasoa_core::ids::{ActorId, DataId, IdGenerator, InteractionKey, SessionId};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RecordedAssertion, RelationshipPAssertion, ViewKind,
};
use pasoa_core::prep::{PrepMessage, RecordMessage};
use pasoa_preserv::{MemoryBackend, ProvenanceStore};
use pasoa_wire::{Envelope, ServiceHost, TransportConfig};

/// Sessions the corpus spreads its assertions over. Queries target one session, so the
/// index-vs-scan gap at `total` assertions is roughly `SESSIONS : 1` before constant factors.
pub const SESSIONS: usize = 50;

/// Corpus sizes the bench and baseline compare (assertions in the store).
pub const SIZES: [usize; 2] = [10_000, 100_000];

/// The deterministic assertion `k` of `session` (every third one a derivation edge extending
/// the session's lineage chain, so closure traversals are non-trivial).
pub fn corpus_assertion(session: usize, k: usize) -> RecordedAssertion {
    let sid = SessionId::new(format!("session:q:{session:03}"));
    let key = |i: usize| InteractionKey::new(format!("interaction:q:{session:03}:{i:06}"));
    let data = |i: usize| DataId::new(format!("data:q:{session:03}:{i:06}"));
    let asserter = ActorId::new(format!("client-{:02}", session % 8));
    let assertion = match k % 3 {
        0 => PAssertion::Interaction(InteractionPAssertion {
            interaction_key: key(k),
            asserter: asserter.clone(),
            view: ViewKind::Sender,
            sender: asserter,
            receiver: ActorId::new("measure-service"),
            operation: "measure".into(),
            content: PAssertionContent::text(format!("payload s{session}k{k}")),
            data_ids: vec![data(k)],
        }),
        1 => PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: key(k - 1),
            asserter,
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(format!("script s{session}k{k}")),
        }),
        _ => PAssertion::Relationship(RelationshipPAssertion {
            interaction_key: key(k),
            asserter,
            effect: data(k),
            causes: vec![(key(k.saturating_sub(3)), data(k.saturating_sub(3)))],
            relation: "derived-from".into(),
        }),
    };
    RecordedAssertion {
        session: sid,
        assertion,
    }
}

/// An in-memory store (indexes maintained) holding `total` assertions over [`SESSIONS`]
/// sessions, recorded in round-robin batches.
pub fn corpus_store(total: usize) -> Arc<ProvenanceStore> {
    let store = Arc::new(ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap());
    let mut batch = Vec::with_capacity(1024);
    for k in 0..total {
        batch.push(corpus_assertion(k % SESSIONS, k / SESSIONS));
        if batch.len() == 1024 {
            store.record_all(&batch).unwrap();
            batch.clear();
        }
    }
    if !batch.is_empty() {
        store.record_all(&batch).unwrap();
    }
    store
}

/// The session every measurement queries (mid-corpus, fully populated).
pub fn target_session() -> SessionId {
    SessionId::new(format!("session:q:{:03}", SESSIONS / 2))
}

/// The deepest data item of the target session at corpus size `total`: its closure walks the
/// session's whole derivation chain.
pub fn closure_target(total: usize) -> DataId {
    let per_session = total / SESSIONS;
    let mut k = per_session - 1;
    while k % 3 != 2 {
        k -= 1;
    }
    DataId::new(format!("data:q:{:03}:{k:06}", SESSIONS / 2))
}

/// A 4-shard in-memory cluster loaded with `total` corpus assertions through the wire, for the
/// paginated scatter-gather measurement. Returns the host (for transports) and the cluster.
pub fn corpus_cluster(total: usize) -> (ServiceHost, Arc<PreservCluster>) {
    let host = ServiceHost::new();
    let cluster = PreservCluster::deploy_in_memory(&host, 4).unwrap();
    let transport = host.transport(TransportConfig::free());
    let ids = IdGenerator::new("query-bench");
    let mut batch = Vec::with_capacity(1024);
    let ship = |batch: &mut Vec<RecordedAssertion>| {
        if batch.is_empty() {
            return;
        }
        let message = PrepMessage::Record(RecordMessage {
            message_id: ids.message_id(),
            asserter: ActorId::new("query-bench"),
            assertions: std::mem::take(batch),
        });
        let envelope = Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, message.action())
            .with_json_payload(&message)
            .unwrap();
        transport.call(envelope).unwrap();
    };
    for k in 0..total {
        batch.push(corpus_assertion(k % SESSIONS, k / SESSIONS));
        if batch.len() == 1024 {
            ship(&mut batch);
        }
    }
    ship(&mut batch);
    cluster.flush().unwrap();
    (host, cluster)
}
