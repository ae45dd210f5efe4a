//! Workflow definitions: DAGs of named activity nodes.
//!
//! This plays the role of the VDL/DAGMan workflow description: nodes name the activity they
//! invoke, edges carry data from a producer node to a consumer node. Unknown nodes are rejected
//! as edges are added; [`Workflow::to_dag`] lowers the definition onto [`pasoa_dag::Dag`], which
//! owns ordering, reachability and cycle rejection.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::activity::Activity;

/// Identifier of a node within one workflow definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub String);

impl NodeId {
    /// Create a node id.
    pub fn new(name: impl Into<String>) -> Self {
        NodeId(name.into())
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Errors raised while building or validating a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// A node id was used twice.
    DuplicateNode(String),
    /// An edge refers to a node that does not exist.
    UnknownNode(String),
    /// The graph contains a cycle.
    Cycle,
    /// A data edge connects activities whose declared semantic types are incompatible.
    IncompatibleTypes(String),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::DuplicateNode(n) => write!(f, "duplicate node id: {n}"),
            WorkflowError::UnknownNode(n) => write!(f, "edge refers to unknown node: {n}"),
            WorkflowError::Cycle => write!(f, "workflow contains a cycle"),
            WorkflowError::IncompatibleTypes(detail) => {
                write!(f, "incompatible activity types: {detail}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<pasoa_dag::DagError> for WorkflowError {
    fn from(e: pasoa_dag::DagError) -> Self {
        match e {
            pasoa_dag::DagError::DuplicateTask(t) => WorkflowError::DuplicateNode(t),
            pasoa_dag::DagError::UnknownTask(t) => WorkflowError::UnknownNode(t),
            pasoa_dag::DagError::Cycle => WorkflowError::Cycle,
            mismatch @ pasoa_dag::DagError::TypeMismatch { .. } => {
                WorkflowError::IncompatibleTypes(mismatch.to_string())
            }
        }
    }
}

/// A workflow definition.
pub struct Workflow {
    /// Human-readable name (recorded as a `workflow` actor-state p-assertion).
    pub name: String,
    nodes: BTreeMap<NodeId, Arc<dyn Activity>>,
    /// Edges: consumer → producers (in the order inputs should be presented).
    inputs: BTreeMap<NodeId, Vec<NodeId>>,
}

impl Workflow {
    /// Create an empty workflow.
    pub fn new(name: impl Into<String>) -> Self {
        Workflow {
            name: name.into(),
            nodes: BTreeMap::new(),
            inputs: BTreeMap::new(),
        }
    }

    /// Add a node invoking `activity`.
    pub fn add_node(
        &mut self,
        id: impl Into<String>,
        activity: Arc<dyn Activity>,
    ) -> Result<NodeId, WorkflowError> {
        let id = NodeId::new(id);
        if self.nodes.contains_key(&id) {
            return Err(WorkflowError::DuplicateNode(id.0));
        }
        self.nodes.insert(id.clone(), activity);
        self.inputs.entry(id.clone()).or_default();
        Ok(id)
    }

    /// Declare that `consumer` takes the outputs of `producer` as (part of) its inputs.
    pub fn add_edge(&mut self, producer: &NodeId, consumer: &NodeId) -> Result<(), WorkflowError> {
        if !self.nodes.contains_key(producer) {
            return Err(WorkflowError::UnknownNode(producer.0.clone()));
        }
        if !self.nodes.contains_key(consumer) {
            return Err(WorkflowError::UnknownNode(consumer.0.clone()));
        }
        self.inputs
            .entry(consumer.clone())
            .or_default()
            .push(producer.clone());
        Ok(())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.inputs.values().map(|v| v.len()).sum()
    }

    /// The activity bound to a node.
    pub fn activity(&self, id: &NodeId) -> Option<Arc<dyn Activity>> {
        self.nodes.get(id).cloned()
    }

    /// All node ids, sorted.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().cloned().collect()
    }

    /// Lower this definition into a frozen [`pasoa_dag::Dag`] ready for the parallel
    /// executor. Every workflow edge becomes a data edge; builder errors map back onto
    /// [`WorkflowError`].
    pub fn to_dag(&self) -> Result<pasoa_dag::Dag, WorkflowError> {
        let mut spec = pasoa_dag::DagSpec::new(self.name.clone());
        let mut tasks: BTreeMap<&NodeId, pasoa_dag::TaskId> = BTreeMap::new();
        for (id, activity) in &self.nodes {
            let task = spec.add_task(id.as_str(), Arc::clone(activity))?;
            tasks.insert(id, task);
        }
        for (consumer, producers) in &self.inputs {
            for producer in producers {
                spec.add_data_edge(&tasks[producer], &tasks[consumer])?;
            }
        }
        Ok(spec.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::FnActivity;
    use crate::data::DataItem;

    fn noop(name: &str) -> Arc<dyn Activity> {
        let name_owned = name.to_string();
        Arc::new(FnActivity::new(
            name,
            format!("run {name}"),
            move |inputs, ctx| {
                let _ = &name_owned;
                Ok(vec![DataItem::new(
                    ctx.ids.data_id(),
                    "out",
                    inputs.len().to_le_bytes().to_vec(),
                )])
            },
        ))
    }

    fn diamond() -> (Workflow, NodeId, NodeId, NodeId, NodeId) {
        let mut wf = Workflow::new("diamond");
        let a = wf.add_node("a", noop("a")).unwrap();
        let b = wf.add_node("b", noop("b")).unwrap();
        let c = wf.add_node("c", noop("c")).unwrap();
        let d = wf.add_node("d", noop("d")).unwrap();
        wf.add_edge(&a, &b).unwrap();
        wf.add_edge(&a, &c).unwrap();
        wf.add_edge(&b, &d).unwrap();
        wf.add_edge(&c, &d).unwrap();
        (wf, a, b, c, d)
    }

    #[test]
    fn build_and_inspect() {
        let (wf, _a, b, _c, _d) = diamond();
        assert_eq!(wf.node_count(), 4);
        assert_eq!(wf.edge_count(), 4);
        assert!(wf.activity(&b).is_some());
        assert!(wf.activity(&NodeId::new("zz")).is_none());
    }

    #[test]
    fn duplicate_and_unknown_nodes_rejected() {
        let mut wf = Workflow::new("bad");
        let a = wf.add_node("a", noop("a")).unwrap();
        assert_eq!(
            wf.add_node("a", noop("a")).unwrap_err(),
            WorkflowError::DuplicateNode("a".into())
        );
        assert_eq!(
            wf.add_edge(&a, &NodeId::new("ghost")).unwrap_err(),
            WorkflowError::UnknownNode("ghost".into())
        );
        assert_eq!(
            wf.add_edge(&NodeId::new("ghost"), &a).unwrap_err(),
            WorkflowError::UnknownNode("ghost".into())
        );
    }

    #[test]
    fn lowering_to_dag_preserves_structure() {
        let (wf, _a, _b, _c, d) = diamond();
        let dag = wf.to_dag().unwrap();
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.edges().len(), 4);
        assert!(dag.edges().iter().all(|(_, _, kind)| kind == "data"));
        let di = dag.index_of(d.as_str()).unwrap();
        assert_eq!(dag.data_parents(di).len(), 2);

        let mut cyclic = Workflow::new("cyclic");
        let a = cyclic.add_node("a", noop("a")).unwrap();
        let b = cyclic.add_node("b", noop("b")).unwrap();
        cyclic.add_edge(&a, &b).unwrap();
        cyclic.add_edge(&b, &a).unwrap();
        assert_eq!(cyclic.to_dag().unwrap_err(), WorkflowError::Cycle);
    }

    #[test]
    fn error_display() {
        assert!(WorkflowError::Cycle.to_string().contains("cycle"));
        assert!(WorkflowError::DuplicateNode("x".into())
            .to_string()
            .contains('x'));
        assert!(WorkflowError::UnknownNode("y".into())
            .to_string()
            .contains('y'));
        assert!(WorkflowError::IncompatibleTypes("p -> c".into())
            .to_string()
            .contains("incompatible"));
    }
}
