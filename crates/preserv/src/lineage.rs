//! Lineage traversal over relationship p-assertions.
//!
//! The paper requires that provenance "maintain a link between the inputs and the outputs of
//! each workflow run in an accurate manner: it should be possible to determine which inputs
//! were used to produce which output unambiguously ... even if multiple workflows were run
//! simultaneously". Relationship p-assertions carry exactly that edge information; this module
//! assembles them into a queryable derivation graph.
//!
//! Two ways to an ancestry, one answer: [`LineageGraph::trace`] builds the whole session graph
//! and filters it (the oracle), while [`walk_back`] — the single backward walk over the
//! adjacency index, shared by the query engine's closure and the change feed's lineage filter —
//! reads only the edges reachable from its starting point.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use pasoa_core::ids::{DataId, SessionId};

use crate::access::AccessPath;
use crate::index::EdgeRecord;
use crate::store::{ProvenanceStore, StoreError};

/// Walk derivation edges backwards from `from` through
/// [`ProvenanceStore::edges_for_effect`], handing each reachable edge to `visit` exactly once;
/// `visit` returning `true` ends the walk early. Returns whether it was ended early.
pub fn walk_back(
    store: &ProvenanceStore,
    session: &SessionId,
    from: &DataId,
    mut visit: impl FnMut(&EdgeRecord) -> bool,
) -> Result<bool, StoreError> {
    let mut visited = BTreeSet::new();
    let mut queue = vec![from.clone()];
    while let Some(current) = queue.pop() {
        if !visited.insert(current.as_str().to_string()) {
            continue;
        }
        for edge in store.edges_for_effect(session, &current)? {
            if visit(&edge) {
                return Ok(true);
            }
            queue.extend(edge.causes.iter().cloned());
        }
    }
    Ok(false)
}

/// One node of the lineage graph: a data item and the items it was directly derived from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineageNode {
    /// The data item.
    pub data: DataId,
    /// Immediate ancestors (inputs it was derived from).
    pub derived_from: Vec<DataId>,
    /// The relation labels of the derivations that produced it.
    pub relations: Vec<String>,
}

/// A derivation graph for a session (or a single data item's ancestry).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineageGraph {
    /// Nodes keyed by data id string.
    pub nodes: BTreeMap<String, LineageNode>,
}

impl LineageGraph {
    /// Build the full derivation graph of a session from its relationship p-assertions,
    /// through the access path the store's own configuration gives lineage edges.
    pub fn trace_session(store: &ProvenanceStore, session: &SessionId) -> Result<Self, StoreError> {
        let path = AccessPath::for_lineage(store.indexes_enabled());
        Self::trace_session_via(store, session, path)
    }

    /// [`Self::trace_session`] through a caller-chosen access path (see
    /// [`ProvenanceStore::session_edges`]).
    pub fn trace_session_via(
        store: &ProvenanceStore,
        session: &SessionId,
        path: AccessPath,
    ) -> Result<Self, StoreError> {
        let mut graph = LineageGraph::default();
        for edge in store.session_edges(session, path)? {
            graph.absorb_edge(&edge);
        }
        Ok(graph)
    }

    /// The ancestry of `target` gathered by [`walk_back`]: only reachable edges are read, so
    /// the cost is proportional to the answer, not to the session. Equals [`Self::trace`].
    pub fn trace_reachable(
        store: &ProvenanceStore,
        session: &SessionId,
        target: &DataId,
    ) -> Result<Self, StoreError> {
        let mut graph = LineageGraph::default();
        walk_back(store, session, target, |edge| {
            graph.absorb_edge(edge);
            false
        })?;
        Ok(graph)
    }

    /// Fold one derivation edge into the graph, deduplicating repeated causes and relation
    /// labels exactly as repeated relationship p-assertions always were.
    pub fn absorb_edge(&mut self, edge: &EdgeRecord) {
        let node = self
            .nodes
            .entry(edge.effect.as_str().to_string())
            .or_insert_with(|| LineageNode {
                data: edge.effect.clone(),
                derived_from: Vec::new(),
                relations: Vec::new(),
            });
        for cause in &edge.causes {
            if !node.derived_from.contains(cause) {
                node.derived_from.push(cause.clone());
            }
        }
        if !node.relations.contains(&edge.relation) {
            node.relations.push(edge.relation.clone());
        }
    }

    /// Trace the ancestry of one data item within a session: the subgraph reachable from
    /// `target` by following derivation edges backwards.
    pub fn trace(
        store: &ProvenanceStore,
        session: &SessionId,
        target: &DataId,
    ) -> Result<Self, StoreError> {
        Ok(Self::trace_session(store, session)?.closure_of(target))
    }

    /// The subgraph reachable from `target` by following derivation edges backwards — the
    /// lineage-closure filter [`Self::trace`] applies, exposed so the index-driven
    /// [`Self::trace_reachable`] can be checked against the full-graph answer.
    pub fn closure_of(&self, target: &DataId) -> LineageGraph {
        let mut keep = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(target.as_str().to_string());
        while let Some(current) = queue.pop_front() {
            if !keep.insert(current.clone()) {
                continue;
            }
            if let Some(node) = self.nodes.get(&current) {
                for parent in &node.derived_from {
                    queue.push_back(parent.as_str().to_string());
                }
            }
        }
        let nodes = self
            .nodes
            .iter()
            .filter(|(id, _)| keep.contains(*id))
            .map(|(id, node)| (id.clone(), node.clone()))
            .collect();
        LineageGraph { nodes }
    }

    /// Every ancestor (transitively) of `data`, not including `data` itself.
    pub fn ancestors(&self, data: &DataId) -> BTreeSet<DataId> {
        let mut out = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(data.clone());
        while let Some(current) = queue.pop_front() {
            if let Some(node) = self.nodes.get(current.as_str()) {
                for parent in &node.derived_from {
                    if out.insert(parent.clone()) {
                        queue.push_back(parent.clone());
                    }
                }
            }
        }
        out
    }

    /// Whether `ancestor` was used (directly or transitively) to produce `descendant` — the
    /// paper's "decide if a specific data item was used as input to a computation" use case,
    /// kept for paper fidelity.
    pub fn is_ancestor(&self, ancestor: &DataId, descendant: &DataId) -> bool {
        self.ancestors(descendant).contains(ancestor)
    }

    /// Number of nodes in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use pasoa_core::ids::{ActorId, InteractionKey};
    use pasoa_core::passertion::{PAssertion, RecordedAssertion, RelationshipPAssertion};
    use std::sync::Arc;

    fn relationship(
        session: &str,
        effect: &str,
        causes: &[&str],
        relation: &str,
    ) -> RecordedAssertion {
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
                relation: relation.into(),
            }),
        }
    }

    fn experiment_store() -> Arc<ProvenanceStore> {
        // Mirror the compressibility data flow:
        // sequences → sample → encoded → {original size, permutations → sizes} → results
        let store = Arc::new(ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap());
        store
            .record(&relationship(
                "session:X",
                "data:sample",
                &["data:seq1", "data:seq2"],
                "collated-from",
            ))
            .unwrap();
        store
            .record(&relationship(
                "session:X",
                "data:encoded",
                &["data:sample"],
                "encoded-from",
            ))
            .unwrap();
        store
            .record(&relationship(
                "session:X",
                "data:perm1",
                &["data:encoded"],
                "shuffled-from",
            ))
            .unwrap();
        store
            .record(&relationship(
                "session:X",
                "data:size-orig",
                &["data:encoded"],
                "compressed-from",
            ))
            .unwrap();
        store
            .record(&relationship(
                "session:X",
                "data:size-perm1",
                &["data:perm1"],
                "compressed-from",
            ))
            .unwrap();
        store
            .record(&relationship(
                "session:X",
                "data:results",
                &["data:size-orig", "data:size-perm1"],
                "averaged-from",
            ))
            .unwrap();
        // A second, unrelated session must not leak into session X's lineage.
        store
            .record(&relationship(
                "session:Y",
                "data:other",
                &["data:foreign"],
                "copied-from",
            ))
            .unwrap();
        store
    }

    #[test]
    fn session_graph_contains_only_that_session() {
        let store = experiment_store();
        let graph = LineageGraph::trace_session(&store, &SessionId::new("session:X")).unwrap();
        assert_eq!(graph.len(), 6);
        assert!(!graph.nodes.contains_key("data:other"));
        let empty = LineageGraph::trace_session(&store, &SessionId::new("session:none")).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn ancestry_of_the_final_result_reaches_the_raw_sequences() {
        let store = experiment_store();
        let graph = LineageGraph::trace_session(&store, &SessionId::new("session:X")).unwrap();
        let ancestors = graph.ancestors(&DataId::new("data:results"));
        for expected in [
            "data:seq1",
            "data:seq2",
            "data:sample",
            "data:encoded",
            "data:perm1",
        ] {
            assert!(
                ancestors.contains(&DataId::new(expected)),
                "missing ancestor {expected}"
            );
        }
        assert!(graph.is_ancestor(&DataId::new("data:seq1"), &DataId::new("data:results")));
        assert!(!graph.is_ancestor(&DataId::new("data:results"), &DataId::new("data:seq1")));
        assert!(!graph.is_ancestor(&DataId::new("data:foreign"), &DataId::new("data:results")));
    }

    #[test]
    fn targeted_trace_returns_only_the_relevant_subgraph() {
        let store = experiment_store();
        let graph = LineageGraph::trace(
            &store,
            &SessionId::new("session:X"),
            &DataId::new("data:size-perm1"),
        )
        .unwrap();
        // Only the chain sample→encoded→perm1→size-perm1 should appear; the averaged results
        // node is not an ancestor.
        assert!(graph.nodes.contains_key("data:size-perm1"));
        assert!(graph.nodes.contains_key("data:perm1"));
        assert!(graph.nodes.contains_key("data:encoded"));
        assert!(!graph.nodes.contains_key("data:results"));
        assert!(!graph.nodes.contains_key("data:size-orig"));
    }

    #[test]
    fn serde_roundtrip() {
        let store = experiment_store();
        let graph = LineageGraph::trace_session(&store, &SessionId::new("session:X")).unwrap();
        let json = serde_json::to_string(&graph).unwrap();
        assert_eq!(serde_json::from_str::<LineageGraph>(&json).unwrap(), graph);
    }
}
