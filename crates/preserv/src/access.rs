//! The read path's one decision: which access path serves which request.
//!
//! Every read — a protocol query, a cursor-carrying page, a lineage traversal — touches
//! storage through exactly one [`AccessPath`], and [`AccessPath::for_request`] /
//! [`AccessPath::for_lineage`] are the only place that maps a request onto one. The
//! index-or-scan fallback rule lives here and nowhere else: the store consults the table with
//! its own configuration, and the `pasoa-query` planner overlays its forced modes on the same
//! table. Only two rows have a secondary index: `BySession` (`x/s/`) and lineage edges
//! (`x/e/`). `ByActor` and `ByRelation` are always the bulk-retrieval scan — neither of the
//! paper's reasoners asks them, so no write pays for an index that would serve them.

use serde::{Deserialize, Serialize};

use pasoa_core::prep::QueryRequest;

/// How a read touches storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPath {
    /// Bounded lookup through the by-session secondary index (`x/s/`).
    SessionIndex,
    /// Traversal over the lineage adjacency index (`x/e/`).
    EdgeIndex,
    /// Prefix scan of the primary assertion keyspace (`a/<interaction>/`), which is already
    /// interaction-ordered — the primary keyspace acts as its own index here.
    AssertionPrefix,
    /// The paper's bulk retrieval: deserialize every stored assertion and filter.
    FullScan,
    /// Keys-only scan of the interaction markers (`i/`).
    InteractionMarkers,
    /// Prefix scan of the group keyspace (`g/<kind>/`).
    GroupPrefix,
    /// In-memory counter read; touches no keyspace.
    Counters,
}

impl AccessPath {
    /// Every path, in declaration order (so `path as usize` indexes it).
    pub const ALL: [AccessPath; 7] = [
        AccessPath::SessionIndex,
        AccessPath::EdgeIndex,
        AccessPath::AssertionPrefix,
        AccessPath::FullScan,
        AccessPath::InteractionMarkers,
        AccessPath::GroupPrefix,
        AccessPath::Counters,
    ];

    /// The request→access-path table. A store that maintains secondary indexes serves session
    /// requests through the by-session index; one that does not falls back to the
    /// bulk-retrieval scan. Actor and relation requests are the scan on any store. Every other
    /// request has a single path regardless.
    pub fn for_request(request: &QueryRequest, indexes_enabled: bool) -> AccessPath {
        match request {
            QueryRequest::ByInteraction(_) | QueryRequest::ActorStateByKind { .. } => {
                AccessPath::AssertionPrefix
            }
            QueryRequest::ListInteractions { .. } => AccessPath::InteractionMarkers,
            QueryRequest::GroupsByKind(_) => AccessPath::GroupPrefix,
            QueryRequest::Statistics => AccessPath::Counters,
            QueryRequest::BySession(_) if indexes_enabled => AccessPath::SessionIndex,
            QueryRequest::BySession(_) | QueryRequest::ByActor(_) | QueryRequest::ByRelation(_) => {
                AccessPath::FullScan
            }
        }
    }

    /// The table's row for lineage edges: the adjacency index when maintained, otherwise edges
    /// extracted from the bulk session retrieval.
    pub fn for_lineage(indexes_enabled: bool) -> AccessPath {
        if indexes_enabled {
            AccessPath::EdgeIndex
        } else {
            AccessPath::FullScan
        }
    }

    /// Whether this path reads a secondary-index keyspace, which only exists (and is only
    /// trustworthy) on a store opened with index maintenance.
    pub fn needs_index(self) -> bool {
        matches!(self, AccessPath::SessionIndex | AccessPath::EdgeIndex)
    }

    /// Short name used in `Explain` output, metric names and logs.
    pub fn label(self) -> &'static str {
        match self {
            AccessPath::SessionIndex => "session-index",
            AccessPath::EdgeIndex => "edge-index",
            AccessPath::AssertionPrefix => "assertion-prefix",
            AccessPath::FullScan => "full-scan",
            AccessPath::InteractionMarkers => "interaction-markers",
            AccessPath::GroupPrefix => "group-prefix",
            AccessPath::Counters => "counters",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_positions() {
        assert_eq!(AccessPath::SessionIndex.label(), "session-index");
        for (position, path) in AccessPath::ALL.into_iter().enumerate() {
            assert_eq!(path as usize, position);
        }
    }
}
