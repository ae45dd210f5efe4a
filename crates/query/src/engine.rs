//! Running planned queries against a [`ProvenanceStore`].
//!
//! The engine is not an executor of its own: it plans (the store's access-path table with
//! the engine's [`PlanMode`] overlaid), counts the plan, and hands the planned path to the
//! store's single read primitive — for queries, pages and lineage alike.

use std::sync::Arc;

use pasoa_core::ids::{DataId, SessionId};
use pasoa_core::prep::{PagedQuery, QueryRequest, QueryResponse, ShardQueryPage};
use pasoa_obs::{Counter, Histogram, Registry};
use pasoa_preserv::{LineageGraph, ProvenanceStore};

use crate::plan::{AccessPath, Explain, QueryPlan};
use crate::planner::{PlanMode, Planner};
use crate::QueryError;

/// The engine's instruments, resolved once so no query looks one up by name.
struct EngineObs {
    registry: Registry,
    /// `query.plan.<label>`, indexed by `AccessPath as usize`.
    plans: [Counter; AccessPath::ALL.len()],
    pages_served: Counter,
    page_len: Histogram,
}

impl EngineObs {
    fn new(registry: Registry) -> Self {
        EngineObs {
            plans: AccessPath::ALL
                .map(|path| registry.counter(&format!("query.plan.{}", path.label()))),
            pages_served: registry.counter("query.pages_served"),
            page_len: registry.histogram("query.page_len"),
            registry,
        }
    }
}

/// The query engine: plans a request, has the store serve it through the planned path, and
/// can explain itself.
///
/// The engine never changes what a query *answers* — every access path returns bit-identical
/// results (pinned by the equivalence proptests) — only what it *costs*.
pub struct QueryEngine {
    store: Arc<ProvenanceStore>,
    planner: Planner,
    obs: EngineObs,
}

impl QueryEngine {
    /// An engine in [`PlanMode::Auto`] over `store`.
    pub fn new(store: Arc<ProvenanceStore>) -> Self {
        Self::with_mode(store, PlanMode::Auto)
    }

    /// An engine with an explicit planning mode.
    pub fn with_mode(store: Arc<ProvenanceStore>, mode: PlanMode) -> Self {
        QueryEngine {
            store,
            planner: Planner::new(mode),
            obs: EngineObs::new(Registry::new()),
        }
    }

    /// Fold this engine's metrics (`query.plan.*` choices, pages served) into `registry`.
    pub fn with_observability(mut self, registry: &Registry) -> Self {
        self.obs = EngineObs::new(registry.child());
        self
    }

    /// The registry the engine's instruments write into.
    pub fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// The store under the engine.
    pub fn store(&self) -> &Arc<ProvenanceStore> {
        &self.store
    }

    fn plan(&self, request: &QueryRequest) -> Result<QueryPlan, QueryError> {
        self.planner.plan(self.store.indexes_enabled(), request)
    }

    fn plan_lineage(&self) -> Result<QueryPlan, QueryError> {
        self.planner.plan_lineage(self.store.indexes_enabled())
    }

    /// Count a plan that is about to run and return its path.
    fn chosen(&self, plan: QueryPlan) -> AccessPath {
        self.obs.plans[plan.path as usize].inc();
        plan.path
    }

    /// What plan `request` would run under, without running it.
    pub fn explain(&self, request: &QueryRequest) -> Result<Explain, QueryError> {
        Ok(Explain {
            request: format!("{request:?}"),
            plan: self.plan(request)?,
        })
    }

    /// What plan a lineage request would run under.
    pub fn explain_lineage(&self, closure: bool) -> Result<Explain, QueryError> {
        Ok(Explain {
            request: if closure {
                "LineageClosure".into()
            } else {
                "LineageSession".into()
            },
            plan: self.plan_lineage()?,
        })
    }

    /// Plan one protocol query and have the store answer it through the planned path,
    /// decoded.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, QueryError> {
        let path = self.chosen(self.plan(request)?);
        Ok(self.store.query_via(request, path)?)
    }

    /// Serve one bounded page through the planned path, in stored form (decode it with
    /// [`ProvenanceStore::decode_documents`]): every path serves the same `(after, limit]`
    /// windows of the same global order.
    pub fn page(&self, paged: &PagedQuery) -> Result<ShardQueryPage, QueryError> {
        let path = self.chosen(self.plan(&paged.request)?);
        let page = self.store.query_page_via(paged, path)?;
        self.obs.pages_served.inc();
        self.obs.page_len.record(page.items.len() as u64);
        Ok(page)
    }

    /// The session's full derivation graph, through the planned path.
    pub fn lineage_session(&self, session: &SessionId) -> Result<LineageGraph, QueryError> {
        let path = self.chosen(self.plan_lineage()?);
        Ok(LineageGraph::trace_session_via(&self.store, session, path)?)
    }

    /// The lineage closure of one data item: the subgraph reachable backwards from `target`.
    /// Through the adjacency index this reads only the reachable edges — cost proportional to
    /// the answer, not to the session (let alone the store); through the scan it is the
    /// session graph, filtered.
    pub fn lineage_closure(
        &self,
        session: &SessionId,
        target: &DataId,
    ) -> Result<LineageGraph, QueryError> {
        let path = self.chosen(self.plan_lineage()?);
        Ok(if path == AccessPath::EdgeIndex {
            LineageGraph::trace_reachable(&self.store, session, target)?
        } else {
            LineageGraph::trace_session_via(&self.store, session, path)?.closure_of(target)
        })
    }
}
