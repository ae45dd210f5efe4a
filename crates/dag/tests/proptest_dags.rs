//! Property tests: arbitrary DAGs with seeded failure/retry injection.
//!
//! For random task graphs (random topology, random edge kinds, random healthy / flaky /
//! doomed task behaviours) executed with random worker counts under both failure policies:
//!
//! 1. execution respects the topology — a task only starts after every parent completed, and
//!    completed tasks see their data parents' outputs in edge-declaration order;
//! 2. the executed DAG reconstructed from recorded p-assertions alone equals the executor's
//!    own report bit-exactly, including retry counts and the skip set;
//! 3. policy semantics hold: continue completes every task with no failed ancestor and never
//!    cancels, fail-fast never completes a descendant of a failure and only ever skips.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use proptest::prelude::*;

use pasoa_core::group::Group;
use pasoa_core::ids::{IdGenerator, SessionId};
use pasoa_core::passertion::{PAssertion, RecordedAssertion};
use pasoa_core::recorder::{ProvenanceRecorder, RecordError, RecordingMode};
use pasoa_dag::{
    ActivityError, DagSpec, DataItem, ExecutedDag, Executor, ExecutorConfig, FailurePolicy,
    FnActivity, RetryPolicy, SkipCause, TaskState,
};

/// Captures every assertion in memory so `ExecutedDag::from_assertions` can be checked without
/// deploying a store.
struct CapturingRecorder {
    session: SessionId,
    assertions: Mutex<Vec<RecordedAssertion>>,
}

impl CapturingRecorder {
    fn new() -> Self {
        CapturingRecorder {
            session: SessionId::new("session:prop-dag"),
            assertions: Mutex::new(Vec::new()),
        }
    }

    fn recorded(&self) -> Vec<RecordedAssertion> {
        self.assertions.lock().clone()
    }
}

impl ProvenanceRecorder for CapturingRecorder {
    fn session(&self) -> &SessionId {
        &self.session
    }

    fn record(&self, assertion: PAssertion) -> Result<(), RecordError> {
        self.assertions.lock().push(RecordedAssertion {
            session: self.session.clone(),
            assertion,
        });
        Ok(())
    }

    fn register_group(&self, _group: Group) -> Result<(), RecordError> {
        Ok(())
    }

    fn flush(&self) -> Result<(), RecordError> {
        Ok(())
    }

    fn mode(&self) -> RecordingMode {
        RecordingMode::Synchronous
    }
}

/// Behaviour codes drawn per task: 0..=2 healthy, 3 flaky (fails its first attempt), 4 doomed
/// (fails every attempt).
const FLAKY: u8 = 3;
const DOOMED: u8 = 4;

/// One task: (parent bitmask over earlier tasks, ordering-edge bitmask, behaviour code).
fn task_strategy() -> impl Strategy<Value = (u16, u16, u8)> {
    (0u16..1024, 0u16..1024, 0u8..5)
}

fn dag_strategy() -> impl Strategy<Value = Vec<(u16, u16, u8)>> {
    proptest::collection::vec(task_strategy(), 1..10)
}

fn task_name(i: usize) -> String {
    format!("t{i}")
}

/// Shared execution trace: ("start" | "end", task index), appended under one lock so the
/// interleaving the workers produced is observable.
type Trace = Arc<Mutex<Vec<(&'static str, usize)>>>;

struct BuiltDag {
    dag: pasoa_dag::Dag,
    /// Parent sets (all edge kinds) per task index.
    parents: Vec<BTreeSet<usize>>,
    /// Data parents per task index, in edge declaration (ascending) order.
    data_parents: Vec<Vec<usize>>,
    behaviours: Vec<u8>,
    trace: Trace,
}

fn build_dag(tasks: &[(u16, u16, u8)]) -> BuiltDag {
    let trace: Trace = Arc::new(Mutex::new(Vec::new()));
    let mut spec = DagSpec::new("prop-dag");
    let mut ids = Vec::new();
    let mut parents = Vec::new();
    let mut data_parents = Vec::new();
    let mut behaviours = Vec::new();
    for (i, &(parent_mask, ordering_mask, behaviour)) in tasks.iter().enumerate() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let trace_ref = Arc::clone(&trace);
        let name = task_name(i);
        let activity_name = name.clone();
        let activity = Arc::new(FnActivity::new(
            name.clone(),
            format!("run {name}"),
            move |inputs: &[DataItem], ctx| {
                trace_ref.lock().push(("start", i));
                let attempt = attempts.fetch_add(1, Ordering::SeqCst);
                let result = if behaviour == DOOMED || (behaviour == FLAKY && attempt == 0) {
                    Err(ActivityError::new(activity_name.clone(), "injected"))
                } else {
                    // Output: concatenated parent outputs plus this task's own marker, so
                    // data-flow order is checkable downstream.
                    let mut bytes = Vec::new();
                    for item in inputs {
                        bytes.extend_from_slice(&item.bytes);
                    }
                    bytes.extend_from_slice(format!("[{activity_name}]").as_bytes());
                    Ok(vec![DataItem::new(
                        ctx.ids.data_id(),
                        activity_name.clone(),
                        bytes,
                    )])
                };
                trace_ref.lock().push(("end", i));
                result
            },
        ));
        let task = spec.add_task(name, activity).expect("unique task ids");
        let mut parent_set = BTreeSet::new();
        let mut data = Vec::new();
        for (j, parent) in ids.iter().enumerate().take(i) {
            if parent_mask & (1 << j) == 0 {
                continue;
            }
            parent_set.insert(j);
            if ordering_mask & (1 << j) == 0 {
                spec.add_data_edge(parent, &task)
                    .expect("edge endpoints exist");
                data.push(j);
            } else {
                spec.add_ordering_edge(parent, &task)
                    .expect("edge endpoints exist");
            }
        }
        ids.push(task);
        parents.push(parent_set);
        data_parents.push(data);
        behaviours.push(behaviour);
    }
    BuiltDag {
        dag: spec.build().expect("edges only point forward, so no cycle"),
        parents,
        data_parents,
        behaviours,
        trace,
    }
}

/// All ancestors (over every edge kind) of each task, from the generator's own parent sets.
fn ancestor_sets(parents: &[BTreeSet<usize>]) -> Vec<BTreeSet<usize>> {
    let mut ancestors: Vec<BTreeSet<usize>> = Vec::with_capacity(parents.len());
    for (i, ps) in parents.iter().enumerate() {
        let mut set = BTreeSet::new();
        for &p in ps {
            set.insert(p);
            let inherited: Vec<usize> = ancestors[p].iter().copied().collect();
            set.extend(inherited);
        }
        let _ = i;
        ancestors.push(set);
    }
    ancestors
}

fn run_case(
    built: &BuiltDag,
    policy: FailurePolicy,
    workers: usize,
) -> (pasoa_dag::DagRunReport, Vec<RecordedAssertion>) {
    let recorder = Arc::new(CapturingRecorder::new());
    let executor = Executor::new(
        Arc::clone(&recorder) as Arc<dyn ProvenanceRecorder>,
        IdGenerator::new("prop"),
        ExecutorConfig {
            workers,
            failure_policy: policy,
            retry: RetryPolicy::retries(2, Duration::ZERO, Duration::ZERO),
            ..ExecutorConfig::default()
        },
    );
    let report = executor
        .run(&built.dag, BTreeMap::new())
        .expect("no initial inputs, so no invalid task names");
    (report, recorder.recorded())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn random_dags_execute_and_document_correctly(
        tasks in dag_strategy(),
        policy_code in 0u8..2,
        workers in 1usize..4,
    ) {
        let policy = if policy_code == 0 {
            FailurePolicy::Continue
        } else {
            FailurePolicy::FailFast
        };
        let built = build_dag(&tasks);
        let n = tasks.len();
        let ancestors = ancestor_sets(&built.parents);
        let (report, recorded) = run_case(&built, policy, workers);

        // Every task reached a terminal state.
        let completed = report.count(TaskState::Completed);
        let failed = report.count(TaskState::Failed);
        let skipped = report.count(TaskState::Skipped);
        prop_assert_eq!(completed + failed + skipped, n);

        let state_of = |i: usize| report.outcome(&task_name(i)).unwrap().state;

        // ---- Property 1: topological execution -------------------------------------------
        // A task only runs once every parent completed; in the shared trace each parent's
        // "end" precedes the child's first "start".
        let trace = built.trace.lock().clone();
        let first_start: BTreeMap<usize, usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, (kind, _))| *kind == "start")
            .map(|(pos, (_, task))| (*task, pos))
            .rev()
            .collect();
        let last_end: BTreeMap<usize, usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, (kind, _))| *kind == "end")
            .map(|(pos, (_, task))| (*task, pos))
            .collect();
        for i in 0..n {
            if !matches!(state_of(i), TaskState::Completed | TaskState::Failed) {
                continue;
            }
            for &p in &built.parents[i] {
                prop_assert_eq!(
                    state_of(p),
                    TaskState::Completed,
                    "t{} ran although parent t{} did not complete",
                    i,
                    p
                );
                prop_assert!(
                    last_end[&p] < first_start[&i],
                    "t{} started (trace {}) before parent t{} finished (trace {})",
                    i,
                    first_start[&i],
                    p,
                    last_end[&p]
                );
            }
            // Completed tasks assembled their data parents' outputs in declaration order.
            if state_of(i) == TaskState::Completed {
                let mut expected = Vec::new();
                for &p in &built.data_parents[i] {
                    expected.extend_from_slice(&report.outputs_of(&task_name(p)).unwrap()[0].bytes);
                }
                expected.extend_from_slice(format!("[{}]", task_name(i)).as_bytes());
                prop_assert_eq!(&report.outputs_of(&task_name(i)).unwrap()[0].bytes, &expected);
            }
        }

        // ---- Property 2: provenance closure == executed DAG ------------------------------
        // Reconstruction from the recorded p-assertions alone is bit-exact against the
        // executor's report: topology, attempt counts (retries included), skip set.
        prop_assert_eq!(recorded.len() as u64, report.passertions_recorded);
        let from_provenance = ExecutedDag::from_assertions("prop-dag", &recorded);
        let from_report = ExecutedDag::from_report(&built.dag, &report);
        prop_assert_eq!(&from_provenance, &from_report);
        for i in 0..n {
            let outcome = report.outcome(&task_name(i)).unwrap();
            match state_of(i) {
                TaskState::Completed if built.behaviours[i] == FLAKY => {
                    prop_assert_eq!(outcome.attempts, 2, "flaky t{} must retry once", i);
                    prop_assert_eq!(from_provenance.attempts[&task_name(i)], 2);
                }
                TaskState::Failed => {
                    prop_assert_eq!(built.behaviours[i], DOOMED);
                    prop_assert_eq!(outcome.attempts, 2, "doomed t{} exhausts both attempts", i);
                    prop_assert_eq!(from_provenance.attempts[&task_name(i)], 2);
                }
                _ => {}
            }
        }

        // ---- Property 3: failure-policy semantics ----------------------------------------
        let any_failed = (0..n).any(|i| state_of(i) == TaskState::Failed);
        for (i, ancestor_set) in ancestors.iter().enumerate() {
            let outcome = report.outcome(&task_name(i)).unwrap();
            let failed_ancestor = ancestor_set
                .iter()
                .any(|&a| state_of(a) == TaskState::Failed);
            match state_of(i) {
                TaskState::Completed => {
                    prop_assert!(
                        !failed_ancestor,
                        "t{} completed below a failed ancestor",
                        i
                    );
                }
                TaskState::Skipped => {
                    prop_assert!(any_failed, "skips require a failure somewhere");
                    match (policy, outcome.skip_cause.as_ref().unwrap()) {
                        (_, SkipCause::UpstreamFailed { .. }) => {
                            prop_assert!(
                                failed_ancestor
                                    || ancestor_set
                                        .iter()
                                        .any(|&a| state_of(a) == TaskState::Skipped),
                                "upstream-failed skip of t{} needs a bad ancestor",
                                i
                            );
                        }
                        (FailurePolicy::FailFast, SkipCause::Cancelled { .. }) => {}
                        (FailurePolicy::Continue, cause) => {
                            prop_assert!(
                                false,
                                "continue policy never cancels, got {:?} for t{}",
                                cause,
                                i
                            );
                        }
                    }
                }
                _ => {}
            }
            // Under continue, everything without a bad ancestor actually runs to a verdict.
            if policy == FailurePolicy::Continue {
                let bad_ancestor = ancestor_set
                    .iter()
                    .any(|&a| matches!(state_of(a), TaskState::Failed | TaskState::Skipped));
                if !bad_ancestor {
                    let expected = if built.behaviours[i] == DOOMED {
                        TaskState::Failed
                    } else {
                        TaskState::Completed
                    };
                    prop_assert_eq!(state_of(i), expected, "t{} under continue", i);
                }
            }
        }
        // A failure-free population completes wholesale under either policy.
        if built.behaviours.iter().all(|&b| b != DOOMED) {
            prop_assert!(report.succeeded());
            prop_assert_eq!(completed, n);
        }
    }

    #[test]
    fn worker_count_never_changes_the_continue_outcome(
        tasks in dag_strategy(),
    ) {
        // Under the continue policy terminal states are topology-determined, so any worker
        // count must agree (fail-fast cancellation is inherently timing-dependent and is
        // exercised above instead).
        let states = |workers: usize| {
            let built = build_dag(&tasks);
            let (report, _) = run_case(&built, FailurePolicy::Continue, workers);
            (0..tasks.len())
                .map(|i| {
                    let o = report.outcome(&task_name(i)).unwrap();
                    (o.state, o.attempts, o.outputs.iter().map(|d| d.bytes.clone()).collect::<Vec<_>>())
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(states(1), states(3));
    }
}
