//! DAG specifications: a builder validated acyclic (and type-compatible) at build time.
//!
//! [`DagSpec`] is the mutable builder — tasks are activity closures with typed inputs and
//! outputs, edges are either *data* dependencies (the producer's outputs become part of the
//! consumer's inputs) or pure *ordering* dependencies (the consumer merely waits). `build`
//! freezes the spec into an indexed [`Dag`] after checking for duplicate ids, dangling edges,
//! cycles and declared semantic-type mismatches, so the executor never has to re-validate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::task::Activity;

/// Identifier of a task within one DAG specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub String);

impl TaskId {
    /// Create a task id.
    pub fn new(name: impl Into<String>) -> Self {
        TaskId(name.into())
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Whether an edge carries data or only enforces ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Producer outputs are appended to the consumer's inputs.
    Data,
    /// The consumer waits for the producer but receives none of its outputs.
    Ordering,
}

impl EdgeKind {
    /// Stable label used in provenance and reconstruction.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Data => "data",
            EdgeKind::Ordering => "ordering",
        }
    }
}

/// Errors raised while building or validating a DAG spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A task id was used twice.
    DuplicateTask(String),
    /// An edge refers to a task that does not exist.
    UnknownTask(String),
    /// The graph contains a cycle.
    Cycle,
    /// A data edge connects a producer whose declared output types share nothing with the
    /// consumer's declared input types.
    TypeMismatch {
        /// Producing task.
        producer: String,
        /// Consuming task.
        consumer: String,
        /// What the producer claims to emit.
        produced: Vec<String>,
        /// What the consumer says it expects.
        expected: Vec<String>,
    },
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::DuplicateTask(t) => write!(f, "duplicate task id: {t}"),
            DagError::UnknownTask(t) => write!(f, "edge refers to unknown task: {t}"),
            DagError::Cycle => write!(f, "dag contains a cycle"),
            DagError::TypeMismatch {
                producer,
                consumer,
                produced,
                expected,
            } => write!(
                f,
                "data edge {producer} -> {consumer} is type-incompatible: \
                 produces {produced:?}, consumer expects {expected:?}"
            ),
        }
    }
}

impl std::error::Error for DagError {}

/// Mutable DAG builder.
pub struct DagSpec {
    /// Human-readable name (recorded as the session's `workflow` actor-state p-assertion).
    pub name: String,
    tasks: Vec<(TaskId, Arc<dyn Activity>)>,
    index: BTreeMap<TaskId, usize>,
    data_edges: Vec<(usize, usize)>,
    ordering_edges: Vec<(usize, usize)>,
}

impl DagSpec {
    /// Create an empty spec.
    pub fn new(name: impl Into<String>) -> Self {
        DagSpec {
            name: name.into(),
            tasks: Vec::new(),
            index: BTreeMap::new(),
            data_edges: Vec::new(),
            ordering_edges: Vec::new(),
        }
    }

    /// Add a task running `activity`.
    pub fn add_task(
        &mut self,
        id: impl Into<String>,
        activity: Arc<dyn Activity>,
    ) -> Result<TaskId, DagError> {
        let id = TaskId::new(id);
        if self.index.contains_key(&id) {
            return Err(DagError::DuplicateTask(id.0));
        }
        self.index.insert(id.clone(), self.tasks.len());
        self.tasks.push((id.clone(), activity));
        Ok(id)
    }

    /// Declare that `consumer` takes the outputs of `producer` as (part of) its inputs.
    /// Edge declaration order determines input presentation order.
    pub fn add_data_edge(&mut self, producer: &TaskId, consumer: &TaskId) -> Result<(), DagError> {
        let edge = self.edge_indices(producer, consumer)?;
        self.data_edges.push(edge);
        Ok(())
    }

    /// Declare that `consumer` must wait for `producer` without consuming its outputs.
    pub fn add_ordering_edge(
        &mut self,
        producer: &TaskId,
        consumer: &TaskId,
    ) -> Result<(), DagError> {
        let edge = self.edge_indices(producer, consumer)?;
        self.ordering_edges.push(edge);
        Ok(())
    }

    fn edge_indices(
        &self,
        producer: &TaskId,
        consumer: &TaskId,
    ) -> Result<(usize, usize), DagError> {
        let p = *self
            .index
            .get(producer)
            .ok_or_else(|| DagError::UnknownTask(producer.0.clone()))?;
        let c = *self
            .index
            .get(consumer)
            .ok_or_else(|| DagError::UnknownTask(consumer.0.clone()))?;
        Ok((p, c))
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Validate and freeze into an executable [`Dag`].
    pub fn build(self) -> Result<Dag, DagError> {
        let n = self.tasks.len();

        // Declared semantic types must overlap on every data edge (empty lists opt out).
        for &(p, c) in &self.data_edges {
            let produced = self.tasks[p].1.output_types();
            let expected = self.tasks[c].1.input_types();
            if !produced.is_empty()
                && !expected.is_empty()
                && !produced.iter().any(|t| expected.contains(t))
            {
                return Err(DagError::TypeMismatch {
                    producer: self.tasks[p].0 .0.clone(),
                    consumer: self.tasks[c].0 .0.clone(),
                    produced,
                    expected,
                });
            }
        }

        let mut data_parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(p, c) in &self.data_edges {
            data_parents[c].push(p);
        }
        let mut parent_edges: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); n];
        for &(p, c) in &self.data_edges {
            if !parent_edges[c].contains(&(p, EdgeKind::Data)) {
                parent_edges[c].push((p, EdgeKind::Data));
            }
        }
        for &(p, c) in &self.ordering_edges {
            if !parent_edges[c].contains(&(p, EdgeKind::Ordering)) {
                parent_edges[c].push((p, EdgeKind::Ordering));
            }
        }
        for edges in &mut parent_edges {
            edges.sort();
        }

        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (c, edges) in parent_edges.iter().enumerate() {
            let distinct: BTreeSet<usize> = edges.iter().map(|&(p, _)| p).collect();
            for p in distinct {
                parents[c].push(p);
                children[p].push(c);
            }
        }
        for kids in &mut children {
            kids.sort_unstable();
            kids.dedup();
        }

        // Kahn's algorithm: cycle check + topological order (by task index for determinism).
        let mut indegree: Vec<usize> = parents.iter().map(|p| p.len()).collect();
        let mut frontier: BTreeSet<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(&next) = frontier.iter().next() {
            frontier.remove(&next);
            topo.push(next);
            for &child in &children[next] {
                indegree[child] -= 1;
                if indegree[child] == 0 {
                    frontier.insert(child);
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }

        let index = self.index.into_iter().map(|(id, i)| (id.0, i)).collect();
        Ok(Dag {
            name: self.name,
            tasks: self.tasks,
            index,
            data_parents,
            parent_edges,
            parents,
            children,
            topo,
        })
    }
}

/// A frozen, validated DAG ready for execution.
pub struct Dag {
    name: String,
    tasks: Vec<(TaskId, Arc<dyn Activity>)>,
    index: BTreeMap<String, usize>,
    /// Data producers per consumer, in edge declaration order (duplicates allowed: inputs are
    /// concatenated once per declared edge).
    data_parents: Vec<Vec<usize>>,
    /// Distinct (parent, kind) pairs per consumer, sorted.
    parent_edges: Vec<Vec<(usize, EdgeKind)>>,
    /// Distinct parents per consumer (what the scheduler counts).
    parents: Vec<Vec<usize>>,
    /// Distinct children per producer.
    children: Vec<Vec<usize>>,
    topo: Vec<usize>,
}

impl std::fmt::Debug for Dag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dag")
            .field("name", &self.name)
            .field(
                "tasks",
                &self.tasks.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            )
            .field("edges", &self.edges())
            .finish()
    }
}

impl Dag {
    /// DAG name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The id of task `i`.
    pub fn task_id(&self, i: usize) -> &TaskId {
        &self.tasks[i].0
    }

    /// The activity of task `i`.
    pub fn activity(&self, i: usize) -> &Arc<dyn Activity> {
        &self.tasks[i].1
    }

    /// Index of a task by id string.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// Data producers of task `i` in edge declaration order.
    pub fn data_parents(&self, i: usize) -> &[usize] {
        &self.data_parents[i]
    }

    /// Distinct (parent, kind) edges into task `i`, sorted.
    pub fn parent_edges(&self, i: usize) -> &[(usize, EdgeKind)] {
        &self.parent_edges[i]
    }

    /// Distinct parents of task `i`.
    pub fn parents(&self, i: usize) -> &[usize] {
        &self.parents[i]
    }

    /// Distinct children of task `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// A topological order of all task indices.
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }

    /// Every distinct edge as `(parent, child, kind)` id triples.
    pub fn edges(&self) -> BTreeSet<(String, String, String)> {
        let mut out = BTreeSet::new();
        for (c, edges) in self.parent_edges.iter().enumerate() {
            for &(p, kind) in edges {
                out.insert((
                    self.tasks[p].0 .0.clone(),
                    self.tasks[c].0 .0.clone(),
                    kind.label().to_string(),
                ));
            }
        }
        out
    }

    /// All strict descendants of task `i` (children, their children, ...).
    pub fn descendants_of(&self, i: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        let mut queue: VecDeque<usize> = self.children[i].iter().copied().collect();
        while let Some(t) = queue.pop_front() {
            if out.insert(t) {
                queue.extend(self.children[t].iter().copied());
            }
        }
        out
    }

    /// Structured description of the graph, recorded as the run's `workflow` actor-state
    /// p-assertion (and usable for post-hoc comparison of definitions).
    pub fn describe_json(&self) -> serde_json::Value {
        let tasks: Vec<serde_json::Value> = self
            .topo
            .iter()
            .map(|&i| {
                serde_json::json!({
                    "task": self.tasks[i].0 .0,
                    "activity": self.tasks[i].1.name(),
                    "parents": self.parent_edges[i]
                        .iter()
                        .map(|&(p, kind)| serde_json::json!({
                            "task": self.tasks[p].0 .0,
                            "kind": kind.label(),
                        }))
                        .collect::<Vec<_>>(),
                })
            })
            .collect();
        serde_json::json!({
            "dag": self.name,
            "tasks": tasks,
            "edge_count": self.edges().len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataItem;
    use crate::task::FnActivity;

    fn noop(name: &str) -> Arc<dyn Activity> {
        Arc::new(FnActivity::new(
            name,
            format!("run {name}"),
            |inputs, ctx| {
                Ok(vec![DataItem::new(
                    ctx.ids.data_id(),
                    "out",
                    inputs.len().to_le_bytes().to_vec(),
                )])
            },
        ))
    }

    fn diamond() -> (Dag, [TaskId; 4]) {
        let mut spec = DagSpec::new("diamond");
        let a = spec.add_task("a", noop("a")).unwrap();
        let b = spec.add_task("b", noop("b")).unwrap();
        let c = spec.add_task("c", noop("c")).unwrap();
        let d = spec.add_task("d", noop("d")).unwrap();
        spec.add_data_edge(&a, &b).unwrap();
        spec.add_data_edge(&a, &c).unwrap();
        spec.add_data_edge(&b, &d).unwrap();
        spec.add_data_edge(&c, &d).unwrap();
        (spec.build().unwrap(), [a, b, c, d])
    }

    #[test]
    fn build_and_inspect() {
        let (dag, [a, _b, _c, d]) = diamond();
        assert_eq!(dag.len(), 4);
        assert!(!dag.is_empty());
        assert_eq!(dag.name(), "diamond");
        let ai = dag.index_of(a.as_str()).unwrap();
        let di = dag.index_of(d.as_str()).unwrap();
        assert_eq!(dag.parents(ai), &[] as &[usize]);
        assert_eq!(dag.parents(di).len(), 2);
        assert_eq!(dag.children(ai).len(), 2);
        assert_eq!(dag.edges().len(), 4);
        assert_eq!(dag.descendants_of(ai).len(), 3);
        assert!(dag.descendants_of(di).is_empty());
        let desc = dag.describe_json();
        let fields = desc.as_object().unwrap();
        assert_eq!(fields["dag"].as_str(), Some("diamond"));
        assert_eq!(fields["edge_count"].to_string(), "4");
    }

    #[test]
    fn topological_order_respects_edges() {
        let (dag, ids) = diamond();
        let order = dag.topo_order();
        let pos = |id: &TaskId| {
            let i = dag.index_of(id.as_str()).unwrap();
            order.iter().position(|&t| t == i).unwrap()
        };
        assert!(pos(&ids[0]) < pos(&ids[1]));
        assert!(pos(&ids[0]) < pos(&ids[2]));
        assert!(pos(&ids[1]) < pos(&ids[3]));
        assert!(pos(&ids[2]) < pos(&ids[3]));
    }

    #[test]
    fn duplicate_and_unknown_tasks_rejected() {
        let mut spec = DagSpec::new("bad");
        let a = spec.add_task("a", noop("a")).unwrap();
        assert_eq!(
            spec.add_task("a", noop("a")).unwrap_err(),
            DagError::DuplicateTask("a".into())
        );
        assert_eq!(
            spec.add_data_edge(&a, &TaskId::new("ghost")).unwrap_err(),
            DagError::UnknownTask("ghost".into())
        );
        assert_eq!(
            spec.add_ordering_edge(&TaskId::new("ghost"), &a)
                .unwrap_err(),
            DagError::UnknownTask("ghost".into())
        );
    }

    #[test]
    fn cycles_are_detected() {
        let mut spec = DagSpec::new("cyclic");
        let a = spec.add_task("a", noop("a")).unwrap();
        let b = spec.add_task("b", noop("b")).unwrap();
        spec.add_data_edge(&a, &b).unwrap();
        spec.add_ordering_edge(&b, &a).unwrap();
        assert_eq!(spec.build().unwrap_err(), DagError::Cycle);
    }

    #[test]
    fn declared_types_must_overlap_on_data_edges() {
        struct Typed(&'static str, Vec<String>, Vec<String>);
        impl Activity for Typed {
            fn name(&self) -> &str {
                self.0
            }
            fn script(&self) -> String {
                "typed".into()
            }
            fn invoke(
                &self,
                _: &[DataItem],
                _: &crate::task::ActivityContext,
            ) -> Result<Vec<DataItem>, crate::task::ActivityError> {
                Ok(vec![])
            }
            fn input_types(&self) -> Vec<String> {
                self.1.clone()
            }
            fn output_types(&self) -> Vec<String> {
                self.2.clone()
            }
        }
        let mut spec = DagSpec::new("typed");
        let p = spec
            .add_task("p", Arc::new(Typed("p", vec![], vec!["bio:Sample".into()])))
            .unwrap();
        let c = spec
            .add_task("c", Arc::new(Typed("c", vec!["bio:Sizes".into()], vec![])))
            .unwrap();
        spec.add_data_edge(&p, &c).unwrap();
        match spec.build().unwrap_err() {
            DagError::TypeMismatch {
                producer, consumer, ..
            } => {
                assert_eq!(producer, "p");
                assert_eq!(consumer, "c");
            }
            other => panic!("expected type mismatch, got {other:?}"),
        }

        // Ordering edges are exempt: no data flows, so no type constraint.
        let mut spec = DagSpec::new("ordered");
        let p = spec
            .add_task("p", Arc::new(Typed("p", vec![], vec!["bio:Sample".into()])))
            .unwrap();
        let c = spec
            .add_task("c", Arc::new(Typed("c", vec!["bio:Sizes".into()], vec![])))
            .unwrap();
        spec.add_ordering_edge(&p, &c).unwrap();
        assert!(spec.build().is_ok());
    }

    #[test]
    fn error_display() {
        assert!(DagError::Cycle.to_string().contains("cycle"));
        assert!(DagError::DuplicateTask("x".into())
            .to_string()
            .contains('x'));
        assert!(DagError::UnknownTask("y".into()).to_string().contains('y'));
        let mismatch = DagError::TypeMismatch {
            producer: "p".into(),
            consumer: "c".into(),
            produced: vec!["a".into()],
            expected: vec!["b".into()],
        };
        assert!(mismatch.to_string().contains("type-incompatible"));
    }
}
