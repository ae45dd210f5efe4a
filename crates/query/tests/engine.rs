//! Engine integration tests: Explain output, forced modes, and closure traversal shape.

use std::sync::Arc;

use pasoa_core::ids::{ActorId, DataId, InteractionKey, SessionId};
use pasoa_core::passertion::{PAssertion, RecordedAssertion, RelationshipPAssertion};
use pasoa_core::prep::{PagedQuery, QueryRequest};
use pasoa_preserv::{MemoryBackend, ProvenanceStore, StorageBackend, StoreOptions};
use pasoa_query::{AccessPath, PlanMode, QueryEngine, QueryError};

fn relationship(session: &str, effect: &str, causes: &[&str]) -> RecordedAssertion {
    RecordedAssertion {
        session: SessionId::new(session),
        assertion: PAssertion::Relationship(RelationshipPAssertion {
            interaction_key: InteractionKey::new(format!("interaction:{effect}")),
            asserter: ActorId::new("activity"),
            effect: DataId::new(effect),
            causes: causes
                .iter()
                .map(|c| {
                    (
                        InteractionKey::new(format!("interaction:{c}")),
                        DataId::new(*c),
                    )
                })
                .collect(),
            relation: "derived-from".into(),
        }),
    }
}

fn chain_store() -> Arc<ProvenanceStore> {
    // data:a -> data:b -> data:c, with an unrelated branch data:x -> data:y.
    let store = Arc::new(ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap());
    store
        .record_all(&[
            relationship("session:L", "data:b", &["data:a"]),
            relationship("session:L", "data:c", &["data:b"]),
            relationship("session:L", "data:y", &["data:x"]),
        ])
        .unwrap();
    store
}

#[test]
fn explain_names_the_plan_on_an_indexed_store() {
    let engine = QueryEngine::new(chain_store());
    let explain = engine
        .explain(&QueryRequest::BySession(SessionId::new("session:L")))
        .unwrap();
    assert_eq!(explain.plan.path, AccessPath::SessionIndex);
    assert!(explain.to_string().contains("session-index"));
    let explain = engine.explain_lineage(true).unwrap();
    assert_eq!(explain.plan.path, AccessPath::EdgeIndex);
}

#[test]
fn explain_names_the_fallback_on_an_unindexed_store() {
    let backend = Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>;
    let store = Arc::new(
        ProvenanceStore::open_with_options(
            backend,
            StoreOptions {
                maintain_indexes: false,
            },
        )
        .unwrap(),
    );
    let engine = QueryEngine::new(Arc::clone(&store));
    let explain = engine
        .explain(&QueryRequest::BySession(SessionId::new("session:L")))
        .unwrap();
    assert_eq!(explain.plan.path, AccessPath::FullScan);
    assert!(explain.plan.reason.contains("without index maintenance"));
    // ForceIndex refuses instead of silently scanning — pages included.
    let forced = QueryEngine::with_mode(store, PlanMode::ForceIndex);
    let request = QueryRequest::BySession(SessionId::new("session:L"));
    assert!(matches!(
        forced.query(&request),
        Err(QueryError::IndexUnavailable(_))
    ));
    assert!(matches!(
        forced.page(&PagedQuery {
            request,
            cursor: None,
            page_size: 10,
        }),
        Err(QueryError::IndexUnavailable(_))
    ));
}

#[test]
fn closure_reads_only_the_reachable_subgraph() {
    let engine = QueryEngine::new(chain_store());
    let session = SessionId::new("session:L");
    let closure = engine
        .lineage_closure(&session, &DataId::new("data:c"))
        .unwrap();
    assert!(closure.nodes.contains_key("data:c"));
    assert!(closure.nodes.contains_key("data:b"));
    assert!(!closure.nodes.contains_key("data:y"));
    assert!(closure.is_ancestor(&DataId::new("data:a"), &DataId::new("data:c")));
    // A target with no recorded derivation yields an empty graph on every path.
    let empty = engine
        .lineage_closure(&session, &DataId::new("data:unknown"))
        .unwrap();
    assert!(empty.is_empty());
}

#[test]
fn forced_modes_apply_to_pages() {
    let page = PagedQuery {
        request: QueryRequest::BySession(SessionId::new("session:L")),
        cursor: None,
        page_size: 2,
    };
    for (mode, label) in [
        (PlanMode::ForceScan, "query.plan.full-scan"),
        (PlanMode::ForceIndex, "query.plan.session-index"),
    ] {
        let engine = QueryEngine::with_mode(chain_store(), mode);
        let served = engine.page(&page).unwrap();
        assert_eq!(served.items.len(), 2);
        assert!(!served.exhausted);
        assert_eq!(engine.registry().snapshot().counter(label), 1, "{label}");
    }
}
