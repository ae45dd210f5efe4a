//! Compiling [`QueryRequest`]s and lineage requests into [`QueryPlan`]s.
//!
//! The request→access-path table — including the rule that a store without indexes falls
//! back to the bulk-retrieval scan — is `pasoa-preserv`'s ([`AccessPath::for_request`],
//! [`AccessPath::for_lineage`]). The planner only overlays its [`PlanMode`] on that table and
//! says why.

use pasoa_core::prep::QueryRequest;

use crate::plan::{AccessPath, QueryPlan};
use crate::QueryError;

/// How the planner chooses between indexes and scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Use an index whenever the store maintains one, fall back to scans otherwise.
    #[default]
    Auto,
    /// Always take the bulk-retrieval scan — the oracle mode equivalence checks and the
    /// `query_latency` bench run against.
    ForceScan,
    /// Demand an index; planning fails if the store does not maintain one, or if no index
    /// serves the request at all (`ByActor`, `ByRelation`). For callers that would rather
    /// error than absorb a surprise full scan.
    ForceIndex,
}

/// The query planner: a pure function of `(mode, store-has-indexes, request)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner {
    mode: PlanMode,
}

impl Planner {
    /// A planner in the given mode.
    pub fn new(mode: PlanMode) -> Self {
        Planner { mode }
    }

    /// The configured mode.
    pub fn mode(&self) -> PlanMode {
        self.mode
    }

    /// Compile one protocol query against a store that does (or does not) maintain indexes.
    /// Requests with a single access path (listings, groups, counters) ignore the mode.
    pub fn plan(
        &self,
        indexes_enabled: bool,
        request: &QueryRequest,
    ) -> Result<QueryPlan, QueryError> {
        self.overlay(indexes_enabled, request.is_pageable(), |indexes| {
            AccessPath::for_request(request, indexes)
        })
    }

    /// Compile a lineage request (session graph or targeted ancestry: both read the same
    /// edges, the closure just reads fewer of them).
    pub fn plan_lineage(&self, indexes_enabled: bool) -> Result<QueryPlan, QueryError> {
        self.overlay(indexes_enabled, true, AccessPath::for_lineage)
    }

    /// Overlay the mode on one row of the store's table (`table(indexes)` is the row's path
    /// for a store that does or does not maintain indexes; `scannable` whether the bulk
    /// retrieval can serve it at all).
    fn overlay(
        &self,
        indexes_enabled: bool,
        scannable: bool,
        table: impl Fn(bool) -> AccessPath,
    ) -> Result<QueryPlan, QueryError> {
        // A row that is the scan even on an indexed store has no index to force.
        let unindexed = table(true) == AccessPath::FullScan;
        let path = match self.mode {
            PlanMode::ForceScan if scannable => AccessPath::FullScan,
            PlanMode::ForceIndex if unindexed => {
                return Err(QueryError::IndexUnavailable(
                    "no secondary index serves this request".into(),
                ))
            }
            PlanMode::ForceIndex => table(true),
            _ => table(indexes_enabled),
        };
        if path.needs_index() && !indexes_enabled {
            return Err(QueryError::IndexUnavailable(format!(
                "{} required but the store was opened without index maintenance",
                path.label()
            )));
        }
        let reason = match path {
            AccessPath::FullScan if self.mode == PlanMode::ForceScan => {
                "scan forced by the caller (oracle mode)"
            }
            AccessPath::FullScan if unindexed => {
                "no secondary index serves this request; bulk retrieval"
            }
            AccessPath::FullScan => {
                "store opened without index maintenance; falling back to bulk retrieval"
            }
            AccessPath::SessionIndex => "secondary index maintained by the store",
            AccessPath::EdgeIndex => {
                "lineage adjacency index: edge records only, no full-assertion deserialization"
            }
            AccessPath::AssertionPrefix => "primary keyspace is interaction-ordered",
            AccessPath::InteractionMarkers => "keys-only scan of the interaction markers",
            AccessPath::GroupPrefix => "groups are stored kind-first",
            AccessPath::Counters => "served from in-memory counters",
        };
        Ok(QueryPlan {
            path,
            reason: reason.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::{ActorId, InteractionKey, SessionId};

    #[test]
    fn auto_mode_prefers_indexes_and_falls_back() {
        let planner = Planner::default();
        let by_session = QueryRequest::BySession(SessionId::new("s"));
        assert_eq!(
            planner.plan(true, &by_session).unwrap().path,
            AccessPath::SessionIndex
        );
        assert_eq!(
            planner.plan(false, &by_session).unwrap().path,
            AccessPath::FullScan
        );
        // No index serves actor or relation requests, whatever the store maintains.
        for request in [
            QueryRequest::ByActor(ActorId::new("a")),
            QueryRequest::ByRelation("r".into()),
        ] {
            let plan = planner.plan(true, &request).unwrap();
            assert_eq!(plan.path, AccessPath::FullScan);
            assert!(
                plan.reason.contains("no secondary index"),
                "{}",
                plan.reason
            );
        }
    }

    #[test]
    fn sole_path_requests_ignore_the_mode() {
        for mode in [PlanMode::Auto, PlanMode::ForceScan, PlanMode::ForceIndex] {
            let planner = Planner::new(mode);
            assert_eq!(
                planner.plan(false, &QueryRequest::Statistics).unwrap().path,
                AccessPath::Counters
            );
            assert_eq!(
                planner
                    .plan(false, &QueryRequest::ListInteractions { limit: None })
                    .unwrap()
                    .path,
                AccessPath::InteractionMarkers
            );
            assert_eq!(
                planner
                    .plan(false, &QueryRequest::GroupsByKind("session".into()))
                    .unwrap()
                    .path,
                AccessPath::GroupPrefix
            );
        }
    }

    #[test]
    fn force_index_fails_without_indexes() {
        let planner = Planner::new(PlanMode::ForceIndex);
        let err = planner
            .plan(false, &QueryRequest::BySession(SessionId::new("s")))
            .unwrap_err();
        assert!(matches!(err, QueryError::IndexUnavailable(_)));
        // But interaction-prefix requests still plan: the primary keyspace is their index.
        assert_eq!(
            planner
                .plan(
                    false,
                    &QueryRequest::ByInteraction(InteractionKey::new("i"))
                )
                .unwrap()
                .path,
            AccessPath::AssertionPrefix
        );
        assert!(planner.plan_lineage(false).is_err());
        // Nor do actor and relation requests, whose only path is the scan.
        for request in [
            QueryRequest::ByActor(ActorId::new("a")),
            QueryRequest::ByRelation("r".into()),
        ] {
            for indexes in [true, false] {
                assert!(matches!(
                    planner.plan(indexes, &request),
                    Err(QueryError::IndexUnavailable(_))
                ));
            }
        }
        assert_eq!(
            planner.plan_lineage(true).unwrap().path,
            AccessPath::EdgeIndex
        );
    }

    #[test]
    fn force_scan_always_scans_assertion_streams() {
        let planner = Planner::new(PlanMode::ForceScan);
        for request in [
            QueryRequest::BySession(SessionId::new("s")),
            QueryRequest::ByInteraction(InteractionKey::new("i")),
            QueryRequest::ByActor(ActorId::new("a")),
            QueryRequest::ByRelation("r".into()),
        ] {
            assert_eq!(
                planner.plan(true, &request).unwrap().path,
                AccessPath::FullScan
            );
        }
        assert_eq!(
            planner.plan_lineage(true).unwrap().path,
            AccessPath::FullScan
        );
    }
}
