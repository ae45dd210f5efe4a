//! # pasoa-query — the indexed provenance query engine
//!
//! The source paper makes provenance *recording* cheap but leaves *querying* as bulk
//! retrieval: every question is answered by fetching and deserializing the store wholesale.
//! This crate closes that gap on top of the secondary indexes `pasoa-preserv` maintains
//! write-through (see `pasoa_preserv::index` for the keyspaces and their crash-consistency
//! story):
//!
//! * a [`Planner`] compiles each [`pasoa_core::prep::QueryRequest`] — and lineage requests —
//!   into a [`QueryPlan`] naming the access path: a secondary index, the interaction-ordered
//!   primary keyspace, or the explicit bulk-retrieval fallback. The request→path table and
//!   its fallback rule are the store's own ([`AccessPath::for_request`]); the planner only
//!   overlays its [`PlanMode`] (Auto / ForceScan oracle / ForceIndex);
//! * a [`QueryEngine`] hands the planned path to the store's single read primitive — for
//!   queries, cursor-carrying pages and lineage alike, so a forced mode applies to all three
//!   — and runs lineage closures that read only reachable edges;
//! * [`Explain`] reports the chosen plan (and why) without executing it.
//!
//! Plans change cost, never answers: every access path returns bit-identical results, pinned
//! by the equivalence proptests in `tests/` and re-checked continuously by the simulation
//! harness, which runs every scheduled query both ways against its golden oracle.

pub mod engine;
pub mod plan;
pub mod planner;

pub use engine::QueryEngine;
pub use plan::{AccessPath, Explain, QueryPlan};
pub use planner::{PlanMode, Planner};

use pasoa_preserv::StoreError;

/// Error produced by planning or executing a query.
#[derive(Debug)]
pub enum QueryError {
    /// The underlying store failed.
    Store(StoreError),
    /// [`PlanMode::ForceIndex`] demanded an index the store does not maintain.
    IndexUnavailable(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Store(e) => write!(f, "query failed in the store: {e}"),
            QueryError::IndexUnavailable(reason) => write!(f, "index unavailable: {reason}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<StoreError> for QueryError {
    fn from(e: StoreError) -> Self {
        QueryError::Store(e)
    }
}
