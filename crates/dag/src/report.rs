//! Run reports and the executed-DAG reconstruction.
//!
//! [`DagRunReport`] is what the executor observed directly; [`ExecutedDag`] is the normalized
//! "what actually happened" summary — topology, retry counts, skip set — computable both from
//! the report and, independently, from the recorded provenance ([`ExecutedDag::from_assertions`]).
//! The paper's validation claim is exactly that the two agree bit-for-bit.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use pasoa_core::passertion::{ActorStateKind, PAssertion, PAssertionContent, RecordedAssertion};
use serde::Serialize;
use serde_json::Value;

/// Field lookup on a structured event (the vendored `Value` has no `Index` impl).
fn field<'a>(event: &'a Value, key: &str) -> Option<&'a Value> {
    event.as_object().and_then(|map| map.get(key))
}

fn field_str<'a>(event: &'a Value, key: &str) -> Option<&'a str> {
    field(event, key).and_then(Value::as_str)
}

fn field_u64(event: &Value, key: &str) -> Option<u64> {
    match field(event, key) {
        Some(Value::Number(n)) => n.as_u64(),
        _ => None,
    }
}

use crate::data::DataItem;
use crate::spec::Dag;
use crate::state::{SkipCause, TaskState};

/// Label of the actor-state kind the executor uses for state-transition assertions.
pub const TRANSITION_KIND: &str = "dag-transition";

/// Final outcome of one task.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// Task id.
    pub task: String,
    /// Terminal state (completed, failed or skipped).
    pub state: TaskState,
    /// Attempts actually started (0 for skipped tasks).
    pub attempts: usize,
    /// Outputs of the successful attempt (empty otherwise).
    pub outputs: Vec<DataItem>,
    /// Failure reason of the last attempt, if the task failed.
    pub error: Option<String>,
    /// Why the task was skipped, if it was.
    pub skip_cause: Option<SkipCause>,
    /// When the first attempt started, relative to the run start.
    pub started_at: Option<Duration>,
    /// When the task reached its terminal state, relative to the run start.
    pub finished_at: Option<Duration>,
}

/// Summary of one DAG execution.
#[derive(Debug, Clone)]
pub struct DagRunReport {
    /// DAG name.
    pub dag: String,
    /// Terminal outcome of every task, keyed by task id.
    pub outcomes: BTreeMap<String, TaskOutcome>,
    /// Wall-clock execution time.
    pub wall_time: Duration,
    /// P-assertions successfully handed to the recorder during this run.
    pub passertions_recorded: u64,
    /// Best-effort transition assertions that failed to record (failure/skip documentation is
    /// never allowed to wedge the run).
    pub recording_errors: u64,
}

impl DagRunReport {
    /// The outcome of one task.
    pub fn outcome(&self, task: &str) -> Option<&TaskOutcome> {
        self.outcomes.get(task)
    }

    /// Outputs of one task, if it completed. Public for the integration tests, which check
    /// the data a run produced against its stored provenance.
    pub fn outputs_of(&self, task: &str) -> Option<&Vec<DataItem>> {
        self.outcomes.get(task).map(|o| &o.outputs)
    }

    /// Whether every task completed.
    pub fn succeeded(&self) -> bool {
        self.outcomes
            .values()
            .all(|o| o.state == TaskState::Completed)
    }

    /// Number of tasks in the given terminal state.
    pub fn count(&self, state: TaskState) -> usize {
        self.outcomes.values().filter(|o| o.state == state).count()
    }

    /// Total attempts across all tasks.
    pub fn total_attempts(&self) -> usize {
        self.outcomes.values().map(|o| o.attempts).sum()
    }
}

/// The normalized record of what a run did: terminal states, retry counts, skip causes and the
/// edge set that scheduling honored. Comparable (`PartialEq`) so provenance-derived and
/// report-derived views can be asserted bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExecutedDag {
    /// DAG name.
    pub dag: String,
    /// Tasks that completed.
    pub completed: BTreeSet<String>,
    /// Tasks that exhausted their attempts.
    pub failed: BTreeSet<String>,
    /// Skipped tasks with their cause labels.
    pub skipped: BTreeMap<String, String>,
    /// Attempts per task that ran at least once.
    pub attempts: BTreeMap<String, usize>,
    /// Every `(parent, child, kind)` edge incident to an executed or skipped task.
    pub edges: BTreeSet<(String, String, String)>,
}

impl ExecutedDag {
    /// Build from the executor's own report plus the DAG it ran.
    pub fn from_report(dag: &Dag, report: &DagRunReport) -> Self {
        let mut out = ExecutedDag {
            dag: report.dag.clone(),
            completed: BTreeSet::new(),
            failed: BTreeSet::new(),
            skipped: BTreeMap::new(),
            attempts: BTreeMap::new(),
            edges: dag.edges(),
        };
        for (task, outcome) in &report.outcomes {
            match outcome.state {
                TaskState::Completed => {
                    out.completed.insert(task.clone());
                }
                TaskState::Failed => {
                    out.failed.insert(task.clone());
                }
                TaskState::Skipped => {
                    let cause = outcome
                        .skip_cause
                        .as_ref()
                        .map(SkipCause::label)
                        .unwrap_or_else(|| "unknown".to_string());
                    out.skipped.insert(task.clone(), cause);
                }
                _ => {}
            }
            if outcome.attempts > 0 {
                out.attempts.insert(task.clone(), outcome.attempts);
            }
        }
        out
    }

    /// Rebuild the executed DAG purely from recorded provenance: the `dag-transition`
    /// actor-state assertions the executor emitted for `dag_name`. Assertions from other
    /// sessions or DAGs are ignored.
    pub fn from_assertions(dag_name: &str, assertions: &[RecordedAssertion]) -> Self {
        let mut out = ExecutedDag {
            dag: dag_name.to_string(),
            completed: BTreeSet::new(),
            failed: BTreeSet::new(),
            skipped: BTreeMap::new(),
            attempts: BTreeMap::new(),
            edges: BTreeSet::new(),
        };
        for recorded in assertions {
            let PAssertion::ActorState(state) = &recorded.assertion else {
                continue;
            };
            if state.kind != ActorStateKind::Other(TRANSITION_KIND.to_string()) {
                continue;
            }
            let PAssertionContent::Structured(event) = &state.content else {
                continue;
            };
            if field_str(event, "dag") != Some(dag_name) {
                continue;
            }
            let Some(task) = field_str(event, "task") else {
                continue;
            };
            if let Some(parents) = field(event, "parents").and_then(Value::as_array) {
                for parent in parents {
                    if let (Some(p), Some(kind)) =
                        (field_str(parent, "task"), field_str(parent, "kind"))
                    {
                        out.edges
                            .insert((p.to_string(), task.to_string(), kind.to_string()));
                    }
                }
            }
            match field_str(event, "event") {
                Some("start") => {
                    let attempt = field_u64(event, "attempt").unwrap_or(1) as usize;
                    let entry = out.attempts.entry(task.to_string()).or_insert(0);
                    *entry = (*entry).max(attempt);
                }
                Some("completed") => {
                    out.completed.insert(task.to_string());
                }
                Some("failed") => {
                    out.failed.insert(task.to_string());
                }
                Some("skipped") => {
                    let cause = field_str(event, "cause").unwrap_or("unknown").to_string();
                    out.skipped.insert(task.to_string(), cause);
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::{ActorId, DataId, InteractionKey, SessionId};
    use pasoa_core::passertion::{ActorStatePAssertion, ViewKind};

    fn outcome(task: &str, state: TaskState, attempts: usize) -> TaskOutcome {
        TaskOutcome {
            task: task.into(),
            state,
            attempts,
            outputs: Vec::new(),
            error: None,
            skip_cause: None,
            started_at: (attempts > 0).then_some(Duration::from_millis(1)),
            finished_at: Some(Duration::from_millis(2)),
        }
    }

    fn transition(session: &str, event: serde_json::Value) -> RecordedAssertion {
        RecordedAssertion {
            session: SessionId::new(session),
            assertion: PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: InteractionKey::new("interaction:x:1"),
                asserter: ActorId::new("dag-executor"),
                view: ViewKind::Sender,
                kind: ActorStateKind::Other(TRANSITION_KIND.into()),
                content: PAssertionContent::Structured(event),
            }),
        }
    }

    #[test]
    fn report_helpers() {
        let mut outcomes = BTreeMap::new();
        outcomes.insert("a".into(), outcome("a", TaskState::Completed, 1));
        outcomes.insert("b".into(), outcome("b", TaskState::Failed, 2));
        let mut skipped = outcome("c", TaskState::Skipped, 0);
        skipped.skip_cause = Some(SkipCause::UpstreamFailed {
            upstream: "b".into(),
        });
        outcomes.insert("c".into(), skipped);
        let report = DagRunReport {
            dag: "t".into(),
            outcomes,
            wall_time: Duration::from_millis(5),
            passertions_recorded: 0,
            recording_errors: 0,
        };
        assert!(!report.succeeded());
        assert_eq!(report.count(TaskState::Completed), 1);
        assert_eq!(report.count(TaskState::Skipped), 1);
        assert_eq!(report.total_attempts(), 3);
        assert!(report.outcome("a").is_some());
        assert!(report.outputs_of("a").unwrap().is_empty());
    }

    #[test]
    fn reconstruction_from_assertions_reads_only_matching_events() {
        let assertions = vec![
            transition(
                "s",
                serde_json::json!({
                    "dag": "t", "task": "a", "event": "start", "attempt": 1,
                    "parents": Vec::<serde_json::Value>::new(),
                }),
            ),
            transition(
                "s",
                serde_json::json!({
                    "dag": "t", "task": "a", "event": "completed", "attempt": 1,
                    "outputs": ["data:x:1"],
                }),
            ),
            transition(
                "s",
                serde_json::json!({
                    "dag": "t", "task": "b", "event": "start", "attempt": 2,
                    "parents": [serde_json::json!({"task": "a", "kind": "data"})],
                }),
            ),
            transition(
                "s",
                serde_json::json!({
                    "dag": "t", "task": "b", "event": "failed", "attempt": 2,
                    "error": "kaput",
                }),
            ),
            transition(
                "s",
                serde_json::json!({
                    "dag": "t", "task": "c", "event": "skipped",
                    "cause": "upstream-failed:b",
                    "parents": [serde_json::json!({"task": "b", "kind": "ordering"})],
                }),
            ),
            // Different DAG: must be ignored.
            transition(
                "s",
                serde_json::json!({"dag": "other", "task": "z", "event": "completed"}),
            ),
            // Non-transition assertion: must be ignored.
            RecordedAssertion {
                session: SessionId::new("s"),
                assertion: PAssertion::Relationship(
                    pasoa_core::passertion::RelationshipPAssertion {
                        interaction_key: InteractionKey::new("interaction:x:9"),
                        asserter: ActorId::new("a"),
                        effect: DataId::new("data:x:1"),
                        causes: vec![],
                        relation: "produced-by-a".into(),
                    },
                ),
            },
        ];
        let executed = ExecutedDag::from_assertions("t", &assertions);
        assert_eq!(executed.completed, BTreeSet::from(["a".to_string()]));
        assert_eq!(executed.failed, BTreeSet::from(["b".to_string()]));
        assert_eq!(
            executed.skipped,
            BTreeMap::from([("c".to_string(), "upstream-failed:b".to_string())])
        );
        assert_eq!(executed.attempts["a"], 1);
        assert_eq!(executed.attempts["b"], 2);
        assert_eq!(executed.edges.len(), 2);
        assert!(executed
            .edges
            .contains(&("a".into(), "b".into(), "data".into())));
        assert!(executed
            .edges
            .contains(&("b".into(), "c".into(), "ordering".into())));
    }
}
