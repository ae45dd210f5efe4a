//! Property tests: every access path answers bit-identically.
//!
//! For arbitrary assertion sets — mixed kinds, sessions that share interaction keys, repeated
//! effects, duplicate relations — the planner's indexed paths, the bulk-retrieval scan
//! fallback, and the paginated path must return exactly the same answers in exactly the same
//! order. This is the contract that lets the planner choose plans on cost alone. Pages come
//! back in stored form; on every exact-prefix path they are served without a single decode,
//! and decoded at the edge they equal the scan oracle's answer. Actor and relation requests
//! have no index: forcing one is `IndexUnavailable`, and the other modes scan.

use std::sync::Arc;

use proptest::prelude::*;

use pasoa_core::ids::{ActorId, DataId, InteractionKey, SessionId};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RecordedAssertion, RelationshipPAssertion, ViewKind,
};
use pasoa_core::prep::{PageCursor, PagedQuery, QueryRequest, QueryResponse};
use pasoa_obs::Registry;
use pasoa_preserv::{LineageGraph, MemoryBackend, ProvenanceStore};
use pasoa_query::{PlanMode, QueryEngine, QueryError};

const RELATIONS: [&str; 3] = ["compressed-from", "encoded-from", "shuffled-from"];

/// One assertion spec: (session, kind selector, interaction, actor, effect, causes, relation).
type Spec = (u8, u8, u8, u8, u8, Vec<u8>, u8);

fn assertion_strategy() -> impl Strategy<Value = Spec> {
    (
        0u8..4,
        0u8..3,
        0u8..6,
        0u8..3,
        0u8..8,
        prop::collection::vec(0u8..8, 0..3),
        0u8..3,
    )
}

fn build(specs: &[Spec]) -> Vec<RecordedAssertion> {
    specs
        .iter()
        .map(
            |(session, kind, interaction, actor, effect, causes, relation)| {
                let session = SessionId::new(format!("session:eq:{session}"));
                // Interactions are deliberately shared across sessions: the by-session semantics
                // ("recorded under the session") must hold on every path even then.
                let key = InteractionKey::new(format!("interaction:eq:{interaction}"));
                let asserter = ActorId::new(format!("actor:eq:{actor}"));
                let assertion = match kind % 3 {
                    0 => PAssertion::Interaction(InteractionPAssertion {
                        interaction_key: key,
                        asserter: asserter.clone(),
                        view: ViewKind::Sender,
                        sender: asserter,
                        receiver: ActorId::new("service"),
                        operation: "op".into(),
                        content: PAssertionContent::text("payload"),
                        data_ids: vec![DataId::new(format!("data:eq:{effect}"))],
                    }),
                    1 => PAssertion::ActorState(ActorStatePAssertion {
                        interaction_key: key,
                        asserter,
                        view: ViewKind::Receiver,
                        kind: ActorStateKind::Script,
                        content: PAssertionContent::text("script"),
                    }),
                    _ => PAssertion::Relationship(RelationshipPAssertion {
                        interaction_key: key.clone(),
                        asserter,
                        effect: DataId::new(format!("data:eq:{effect}")),
                        causes: causes
                            .iter()
                            .map(|cause| (key.clone(), DataId::new(format!("data:eq:{cause}"))))
                            .collect(),
                        relation: RELATIONS[*relation as usize % RELATIONS.len()].to_string(),
                    }),
                };
                RecordedAssertion { session, assertion }
            },
        )
        .collect()
}

fn requests() -> Vec<QueryRequest> {
    let mut requests = Vec::new();
    for session in 0..4 {
        requests.push(QueryRequest::BySession(SessionId::new(format!(
            "session:eq:{session}"
        ))));
    }
    for interaction in 0..6 {
        requests.push(QueryRequest::ByInteraction(InteractionKey::new(format!(
            "interaction:eq:{interaction}"
        ))));
        requests.push(QueryRequest::ActorStateByKind {
            interaction: InteractionKey::new(format!("interaction:eq:{interaction}")),
            kind: "script".into(),
        });
    }
    for actor in 0..3 {
        requests.push(QueryRequest::ByActor(ActorId::new(format!(
            "actor:eq:{actor}"
        ))));
    }
    for relation in RELATIONS {
        requests.push(QueryRequest::ByRelation(relation.to_string()));
    }
    requests
}

fn response_assertions(response: QueryResponse) -> Vec<RecordedAssertion> {
    match response {
        QueryResponse::Assertions(list) => list,
        QueryResponse::Empty => Vec::new(),
        other => panic!("unexpected response {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn indexed_scan_and_paginated_answers_are_bit_identical(
        specs in prop::collection::vec(assertion_strategy(), 1..60),
    ) {
        let store = Arc::new(ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap());
        store.record_all(&build(&specs)).unwrap();
        let registry = Registry::new();
        store.attach_observability(&registry);
        let decoded = || registry.snapshot().counter("preserv.read.documents_decoded");
        let auto = QueryEngine::new(Arc::clone(&store));
        let forced_index = QueryEngine::with_mode(Arc::clone(&store), PlanMode::ForceIndex);
        let forced_scan = QueryEngine::with_mode(Arc::clone(&store), PlanMode::ForceScan);

        for request in requests() {
            let indexed = !matches!(request, QueryRequest::ByActor(_) | QueryRequest::ByRelation(_));
            // Every page of an exact-prefix path is served without a decode.
            let exact = indexed && !matches!(request, QueryRequest::ActorStateByKind { .. });
            let expected = response_assertions(store.query(&request).unwrap());
            let via_auto = response_assertions(auto.query(&request).unwrap());
            let via_scan = response_assertions(forced_scan.query(&request).unwrap());
            prop_assert_eq!(&via_auto, &expected, "auto diverged on {:?}", &request);
            prop_assert_eq!(&via_scan, &expected, "scan diverged on {:?}", &request);
            let via_index = forced_index.query(&request);
            if indexed {
                let via_index = response_assertions(via_index.unwrap());
                prop_assert_eq!(&via_index, &expected, "index diverged on {:?}", &request);
            } else {
                prop_assert!(
                    matches!(via_index, Err(QueryError::IndexUnavailable(_))),
                    "forced index planned {:?}", &request
                );
                let page = forced_index.page(&PagedQuery {
                    request: request.clone(),
                    cursor: None,
                    page_size: 1,
                });
                prop_assert!(matches!(page, Err(QueryError::IndexUnavailable(_))));
            }

            // Paginated, through the planner's own choice, the index and the scan, from
            // one-item pages to a page larger than the whole answer: concatenated pages
            // reproduce it exactly.
            let mut engines = vec![("auto", &auto), ("scan", &forced_scan)];
            if indexed {
                engines.push(("index", &forced_index));
            }
            for (mode, engine) in engines {
                for page_size in [1, 2, 7, expected.len() + 1] {
                    let mut paged = Vec::new();
                    let mut cursor: Option<PageCursor> = None;
                    loop {
                        let before = decoded();
                        let page = engine
                            .page(&PagedQuery {
                                request: request.clone(),
                                cursor: cursor.clone(),
                                page_size,
                            })
                            .unwrap();
                        if mode != "scan" && exact {
                            prop_assert_eq!(decoded(), before, "{:?} page decoded", &request);
                        }
                        prop_assert!(page.items.len() <= page_size);
                        cursor = page.items.last().map(|(sort, _)| PageCursor {
                            after: sort.clone(),
                        });
                        let items = store.decode_documents(page.items).unwrap();
                        paged.extend(items.into_iter().map(|(_, recorded)| recorded));
                        if page.exhausted {
                            break;
                        }
                    }
                    prop_assert_eq!(
                        &paged, &expected,
                        "{} pages of {} diverged on {:?}", mode, page_size, &request
                    );
                }
            }
        }
    }

    #[test]
    fn lineage_paths_are_bit_identical(
        specs in prop::collection::vec(assertion_strategy(), 1..60),
    ) {
        let store = Arc::new(ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap());
        store.record_all(&build(&specs)).unwrap();
        let forced_index = QueryEngine::with_mode(Arc::clone(&store), PlanMode::ForceIndex);
        let forced_scan = QueryEngine::with_mode(Arc::clone(&store), PlanMode::ForceScan);

        for session in (0..4).map(|s| SessionId::new(format!("session:eq:{s}"))) {
            let expected = LineageGraph::trace_session(&store, &session).unwrap();
            let via_index = forced_index.lineage_session(&session).unwrap();
            let via_scan = forced_scan.lineage_session(&session).unwrap();
            prop_assert_eq!(&via_index, &expected);
            prop_assert_eq!(&via_scan, &expected);

            // Closure of every data id that appears at all: the index traversal (which reads
            // only reachable edges) must equal the trace-then-filter answer.
            for effect in 0..8 {
                let target = DataId::new(format!("data:eq:{effect}"));
                let expected = LineageGraph::trace(&store, &session, &target).unwrap();
                let via_index = forced_index.lineage_closure(&session, &target).unwrap();
                let via_scan = forced_scan.lineage_closure(&session, &target).unwrap();
                prop_assert_eq!(&via_index, &expected, "closure of {:?}", &target);
                prop_assert_eq!(&via_scan, &expected, "scan closure of {:?}", &target);
            }
        }
    }
}
