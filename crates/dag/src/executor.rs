//! The DAG executor: a bounded std-thread worker pool with exact provenance capture.
//!
//! Ready tasks (all parents terminal and successful) are pulled from a shared frontier by a
//! fixed pool of scoped threads — no async runtime, matching the `pasoa-net` discipline. Every
//! state transition is documented through the configured [`ProvenanceRecorder`]:
//!
//! - one `workflow` actor-state p-assertion describing the DAG itself,
//! - per attempt: a `dag-transition` "start" event (carrying the task's parent edges), both
//!   views of the request interaction, the activity's script, and — on success — one
//!   relationship p-assertion per output, both views of the response interaction and a
//!   "completed" event; on failure a "retrying" or "failed" event,
//! - per skipped task: a single "skipped" event carrying the cause and parent edges.
//!
//! The records between an attempt's "start" and "completed" events are those of
//! [`Invocation`], the same set the experiment writes for its Collate/Encode prefix.
//!
//! [`ExecutedDag::from_assertions`](crate::report::ExecutedDag::from_assertions) inverts this
//! mapping, so recorded provenance reconstructs the executed DAG (topology, retry counts, skip
//! set) bit-exactly — the paper's "use provenance to validate the experiment" claim.
//!
//! Failure containment mirrors `NetServer`: activity panics are caught with `catch_unwind`,
//! become a failed attempt with a recorded failure assertion, and never poison the pool or
//! lose sibling tasks' provenance.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use pasoa_core::group::{Group, GroupKind};
use pasoa_core::ids::{ActorId, IdGenerator, InteractionKey};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
};
use pasoa_core::recorder::{ProvenanceRecorder, RecordError};
use pasoa_obs::Registry;

use crate::data::DataItem;
use crate::report::{DagRunReport, TaskOutcome, TRANSITION_KIND};
use crate::spec::Dag;
use crate::state::{ExecutorConfig, FailurePolicy, SkipCause, TaskState};
use crate::task::Invocation;

/// Errors that abort a run before or outside task execution. Individual task failures do not
/// abort the run — they land in the report, governed by the failure policy.
#[derive(Debug)]
pub enum DagRunError {
    /// `initial_inputs` names a task the DAG does not contain.
    UnknownTask(String),
    /// Recording the run-level provenance (DAG description, session group) failed.
    Recording(RecordError),
}

impl std::fmt::Display for DagRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagRunError::UnknownTask(t) => write!(f, "initial inputs refer to unknown task: {t}"),
            DagRunError::Recording(e) => write!(f, "provenance recording error: {e}"),
        }
    }
}

impl std::error::Error for DagRunError {}

impl From<RecordError> for DagRunError {
    fn from(e: RecordError) -> Self {
        DagRunError::Recording(e)
    }
}

/// Per-task bookkeeping shared by the worker pool.
struct TaskCell {
    state: TaskState,
    attempts: usize,
    outputs: Vec<DataItem>,
    error: Option<String>,
    skip_cause: Option<SkipCause>,
    /// When the task became runnable (all parents terminal), for queue-wait measurement.
    ready_at: Option<Duration>,
    started_at: Option<Duration>,
    finished_at: Option<Duration>,
}

struct Inner {
    cells: Vec<TaskCell>,
    remaining_parents: Vec<usize>,
    ready: BTreeSet<usize>,
    /// Tasks not yet in a terminal state. When it hits 0, the pool drains.
    unresolved: usize,
}

struct Shared {
    inner: Mutex<Inner>,
    // The vendored parking_lot stub wraps std mutexes (its guard *is* a std MutexGuard), so
    // std's Condvar pairs with it directly.
    cv: std::sync::Condvar,
}

/// The DAG executor.
pub struct Executor {
    recorder: Arc<dyn ProvenanceRecorder>,
    ids: IdGenerator,
    config: ExecutorConfig,
    actor: ActorId,
    group: Mutex<Group>,
    passertions: AtomicU64,
    recording_errors: AtomicU64,
    obs: Registry,
}

impl Executor {
    /// Create an executor recording through `recorder`.
    pub fn new(
        recorder: Arc<dyn ProvenanceRecorder>,
        ids: IdGenerator,
        config: ExecutorConfig,
    ) -> Self {
        let group = Group::new(recorder.session().as_str().to_string(), GroupKind::Session);
        Executor {
            recorder,
            ids,
            config,
            actor: ActorId::new("dag-executor"),
            group: Mutex::new(group),
            passertions: AtomicU64::new(0),
            recording_errors: AtomicU64::new(0),
            obs: Registry::new(),
        }
    }

    /// Fold this executor's metrics (`dag.transition.*` counters and the
    /// `dag.queue_wait_nanos` histogram) into `registry`.
    pub fn with_observability(mut self, registry: &Registry) -> Self {
        self.obs = registry.child();
        self
    }

    /// The registry the executor's instruments write into.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    fn note_transition(&self, to: &str) {
        self.obs.counter(&format!("dag.transition.{to}")).inc();
    }

    /// Override the actor identity the executor asserts under (default `dag-executor`).
    pub fn with_actor(mut self, actor: ActorId) -> Self {
        self.actor = actor;
        self
    }

    /// The identifier generator shared by this run.
    pub fn ids(&self) -> &IdGenerator {
        &self.ids
    }

    /// Execute `dag`. `initial_inputs` provides extra inputs by task id (typically for source
    /// tasks); every task additionally receives its data parents' outputs in edge declaration
    /// order. Task failures and skips land in the report; `Err` is reserved for invalid inputs
    /// and run-level recording failures.
    pub fn run(
        &self,
        dag: &Dag,
        initial_inputs: BTreeMap<String, Vec<DataItem>>,
    ) -> Result<DagRunReport, DagRunError> {
        for task in initial_inputs.keys() {
            if dag.index_of(task).is_none() {
                return Err(DagRunError::UnknownTask(task.clone()));
            }
        }
        let start = Instant::now();
        let n = dag.len();

        // Document the DAG definition itself for the session.
        let dag_key = self.ids.interaction_key();
        self.record(PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: dag_key.clone(),
            asserter: self.actor.clone(),
            view: ViewKind::Sender,
            kind: ActorStateKind::Workflow,
            content: PAssertionContent::Structured(serde_json::json!({
                "definition": dag.describe_json(),
                "workers": self.config.workers,
                "failure_policy": self.config.failure_policy.label(),
                "max_attempts": self.config.retry.max_attempts,
            })),
        }))?;
        self.group.lock().add(dag_key);

        let mut cells: Vec<TaskCell> = (0..n)
            .map(|_| TaskCell {
                state: TaskState::Pending,
                attempts: 0,
                outputs: Vec::new(),
                error: None,
                skip_cause: None,
                ready_at: None,
                started_at: None,
                finished_at: None,
            })
            .collect();
        let remaining_parents: Vec<usize> = (0..n).map(|i| dag.parents(i).len()).collect();
        let ready: BTreeSet<usize> = (0..n).filter(|&i| remaining_parents[i] == 0).collect();
        for &i in &ready {
            cells[i].ready_at = Some(Duration::ZERO);
        }
        let shared = Shared {
            inner: Mutex::new(Inner {
                cells,
                remaining_parents,
                ready,
                unresolved: n,
            }),
            cv: std::sync::Condvar::new(),
        };

        if n > 0 {
            let workers = self.config.workers.clamp(1, n);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| self.worker_loop(dag, &initial_inputs, &shared, start));
                }
            });
        }

        if self.config.register_group {
            self.recorder.register_group(self.group.lock().clone())?;
        }

        let inner = shared.inner.into_inner();
        let outcomes = inner
            .cells
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                let task = dag.task_id(i).as_str().to_string();
                (
                    task.clone(),
                    TaskOutcome {
                        task,
                        state: cell.state,
                        attempts: cell.attempts,
                        outputs: cell.outputs,
                        error: cell.error,
                        skip_cause: cell.skip_cause,
                        started_at: cell.started_at,
                        finished_at: cell.finished_at,
                    },
                )
            })
            .collect();
        Ok(DagRunReport {
            dag: dag.name().to_string(),
            outcomes,
            wall_time: start.elapsed(),
            passertions_recorded: self.passertions.load(Ordering::SeqCst),
            recording_errors: self.recording_errors.load(Ordering::SeqCst),
        })
    }

    /// A copy of the session group accumulated so far (callers that disabled
    /// `register_group` register it themselves).
    pub fn session_group(&self) -> Group {
        self.group.lock().clone()
    }

    fn worker_loop(
        &self,
        dag: &Dag,
        initial_inputs: &BTreeMap<String, Vec<DataItem>>,
        shared: &Shared,
        run_start: Instant,
    ) {
        loop {
            let (task, queue_wait) = {
                let mut inner = shared.inner.lock();
                loop {
                    if inner.unresolved == 0 {
                        shared.cv.notify_all();
                        return;
                    }
                    if let Some(&t) = inner.ready.iter().next() {
                        inner.ready.remove(&t);
                        inner.cells[t].state = TaskState::Running;
                        let started = run_start.elapsed();
                        inner.cells[t].started_at = Some(started);
                        let waited = inner.cells[t]
                            .ready_at
                            .map(|ready| started.saturating_sub(ready));
                        break (t, waited);
                    }
                    inner = shared
                        .cv
                        .wait(inner)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            self.note_transition("running");
            if let Some(waited) = queue_wait {
                self.obs
                    .histogram("dag.queue_wait_nanos")
                    .record_duration(waited);
            }

            // Assemble inputs: initial inputs first, then data parents in declaration order.
            // Parents are terminal by construction, so their outputs are stable.
            let inputs: Vec<DataItem> = {
                let inner = shared.inner.lock();
                let mut v = initial_inputs
                    .get(dag.task_id(task).as_str())
                    .cloned()
                    .unwrap_or_default();
                for &p in dag.data_parents(task) {
                    v.extend(inner.cells[p].outputs.iter().cloned());
                }
                v
            };

            let (result, attempts) = self.run_attempts(dag, task, &inputs, shared);

            let newly_skipped = {
                let mut inner = shared.inner.lock();
                let elapsed = run_start.elapsed();
                let failed = {
                    let cell = &mut inner.cells[task];
                    cell.attempts = attempts;
                    cell.finished_at = Some(elapsed);
                    match result {
                        Ok(outputs) => {
                            cell.state = TaskState::Completed;
                            cell.outputs = outputs;
                            self.note_transition("completed");
                            false
                        }
                        Err(reason) => {
                            cell.state = TaskState::Failed;
                            cell.error = Some(reason);
                            self.note_transition("failed");
                            true
                        }
                    }
                };
                inner.unresolved -= 1;
                let mut skips = Vec::new();
                self.resolve_children(dag, &mut inner, task, elapsed, &mut skips);
                if failed && self.config.failure_policy == FailurePolicy::FailFast {
                    self.cancel_pending(dag, &mut inner, task, elapsed, &mut skips);
                }
                shared.cv.notify_all();
                skips
            };

            // Skip documentation happens outside the lock: recording must never serialize the
            // pool, and a recording failure must never wedge scheduling.
            for (skipped, cause) in newly_skipped {
                self.emit_skip(dag, skipped, &cause);
            }
        }
    }

    /// Propagate a newly terminal `parent`: decrement children, schedule the runnable ones and
    /// cascade skips through tasks whose parents failed or were skipped.
    fn resolve_children(
        &self,
        dag: &Dag,
        inner: &mut Inner,
        parent: usize,
        elapsed: Duration,
        skips: &mut Vec<(usize, SkipCause)>,
    ) {
        let mut queue = vec![parent];
        while let Some(p) = queue.pop() {
            for &child in dag.children(p) {
                if inner.cells[child].state != TaskState::Pending {
                    continue;
                }
                inner.remaining_parents[child] -= 1;
                if inner.remaining_parents[child] > 0 {
                    continue;
                }
                // All parents terminal: runnable unless one of them went bad. Picking the
                // smallest bad parent index keeps the recorded cause deterministic.
                let bad_parent = dag.parents(child).iter().copied().find(|&q| {
                    matches!(inner.cells[q].state, TaskState::Failed | TaskState::Skipped)
                });
                match bad_parent {
                    None => {
                        inner.ready.insert(child);
                        inner.cells[child].ready_at = Some(elapsed);
                    }
                    Some(bad) => {
                        let cause = SkipCause::UpstreamFailed {
                            upstream: dag.task_id(bad).as_str().to_string(),
                        };
                        self.mark_skipped(inner, child, cause, elapsed, skips);
                        queue.push(child);
                    }
                }
            }
        }
    }

    /// Fail-fast sweep: every task that has not started yet is skipped — descendants of the
    /// failed root as upstream failures, unrelated branches as cancellations. Running tasks
    /// are left to finish so their provenance is never lost.
    fn cancel_pending(
        &self,
        dag: &Dag,
        inner: &mut Inner,
        root: usize,
        elapsed: Duration,
        skips: &mut Vec<(usize, SkipCause)>,
    ) {
        let root_name = dag.task_id(root).as_str().to_string();
        let descendants = dag.descendants_of(root);
        for t in 0..dag.len() {
            if inner.cells[t].state != TaskState::Pending {
                continue;
            }
            inner.ready.remove(&t);
            let cause = if descendants.contains(&t) {
                SkipCause::UpstreamFailed {
                    upstream: root_name.clone(),
                }
            } else {
                SkipCause::Cancelled {
                    root: root_name.clone(),
                }
            };
            self.mark_skipped(inner, t, cause, elapsed, skips);
        }
    }

    fn mark_skipped(
        &self,
        inner: &mut Inner,
        task: usize,
        cause: SkipCause,
        elapsed: Duration,
        skips: &mut Vec<(usize, SkipCause)>,
    ) {
        let cell = &mut inner.cells[task];
        cell.state = TaskState::Skipped;
        cell.skip_cause = Some(cause.clone());
        cell.finished_at = Some(elapsed);
        inner.unresolved -= 1;
        self.note_transition("skipped");
        skips.push((task, cause));
    }

    /// Run one task to a terminal attempt result. Returns the outcome and attempts started.
    fn run_attempts(
        &self,
        dag: &Dag,
        task: usize,
        inputs: &[DataItem],
        shared: &Shared,
    ) -> (Result<Vec<DataItem>, String>, usize) {
        let max_attempts = self.config.retry.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            let delay = self.config.retry.delay_before(attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            if attempt > 1 {
                shared.inner.lock().cells[task].state = TaskState::Running;
            }
            match self.attempt_once(dag, task, inputs, attempt) {
                Ok(outputs) => return (Ok(outputs), attempt),
                Err(reason) => {
                    if attempt < max_attempts {
                        shared.inner.lock().cells[task].state = TaskState::Retrying;
                        self.note_transition("retrying");
                        self.emit_transition(
                            self.ids.interaction_key(),
                            serde_json::json!({
                                "dag": dag.name(),
                                "task": dag.task_id(task).as_str(),
                                "event": "retrying",
                                "attempt": attempt,
                                "error": reason,
                            }),
                        );
                    } else {
                        self.emit_transition(
                            self.ids.interaction_key(),
                            serde_json::json!({
                                "dag": dag.name(),
                                "task": dag.task_id(task).as_str(),
                                "event": "failed",
                                "attempt": attempt,
                                "error": reason,
                            }),
                        );
                        return (Err(reason), attempt);
                    }
                }
            }
        }
        unreachable!("attempt loop always returns")
    }

    /// One attempt: the `start` transition, the documented [`Invocation`] and the `completed`
    /// transition, all under the invocation's request and response keys. Any recording
    /// failure on the success path fails the attempt — a task only counts as completed once
    /// its provenance is durably acknowledged.
    fn attempt_once(
        &self,
        dag: &Dag,
        task: usize,
        inputs: &[DataItem],
        attempt: usize,
    ) -> Result<Vec<DataItem>, String> {
        let activity = dag.activity(task);
        let task_name = dag.task_id(task).as_str();

        let request_key = self.ids.interaction_key();
        self.group.lock().add(request_key.clone());
        let parents: Vec<serde_json::Value> = dag
            .parent_edges(task)
            .iter()
            .map(|&(p, kind)| {
                serde_json::json!({
                    "task": dag.task_id(p).as_str(),
                    "kind": kind.label(),
                })
            })
            .collect();
        self.try_record(PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: request_key.clone(),
            asserter: self.actor.clone(),
            view: ViewKind::Sender,
            kind: ActorStateKind::Other(TRANSITION_KIND.into()),
            content: PAssertionContent::Structured(serde_json::json!({
                "dag": dag.name(),
                "task": task_name,
                "event": "start",
                "attempt": attempt,
                "parents": parents,
            })),
        }))?;

        let invoked = Invocation {
            caller: &self.actor,
            activity: activity.as_ref(),
            inputs,
            request_key: &request_key,
            record_extra_actor_state: self.config.record_extra_actor_state,
            configuration: &[
                ("task", serde_json::json!(task_name)),
                ("attempt", serde_json::json!(attempt)),
            ],
        }
        .run(&self.ids, &self.group, &|assertion| self.record(assertion))
        .map_err(|e| e.to_string())?;

        self.try_record(PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: invoked.response_key,
            asserter: self.actor.clone(),
            view: ViewKind::Sender,
            kind: ActorStateKind::Other(TRANSITION_KIND.into()),
            content: PAssertionContent::Structured(serde_json::json!({
                "dag": dag.name(),
                "task": task_name,
                "event": "completed",
                "attempt": attempt,
                "outputs": invoked.outputs.iter().map(|i| i.id.as_str()).collect::<Vec<_>>(),
            })),
        }))?;

        Ok(invoked.outputs)
    }

    fn emit_skip(&self, dag: &Dag, task: usize, cause: &SkipCause) {
        let key = self.ids.interaction_key();
        self.group.lock().add(key.clone());
        let parents: Vec<serde_json::Value> = dag
            .parent_edges(task)
            .iter()
            .map(|&(p, kind)| {
                serde_json::json!({
                    "task": dag.task_id(p).as_str(),
                    "kind": kind.label(),
                })
            })
            .collect();
        self.emit_transition(
            key,
            serde_json::json!({
                "dag": dag.name(),
                "task": dag.task_id(task).as_str(),
                "event": "skipped",
                "cause": cause.label(),
                "parents": parents,
            }),
        );
    }

    /// Best-effort transition documentation (retry/failure/skip): a recording error is counted
    /// but never blocks scheduling.
    fn emit_transition(&self, key: InteractionKey, event: serde_json::Value) {
        self.group.lock().add(key.clone());
        let assertion = PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: key,
            asserter: self.actor.clone(),
            view: ViewKind::Sender,
            kind: ActorStateKind::Other(TRANSITION_KIND.into()),
            content: PAssertionContent::Structured(event),
        });
        if self.record(assertion).is_err() {
            self.recording_errors.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Success-path recording: an error fails the attempt.
    fn try_record(&self, assertion: PAssertion) -> Result<(), String> {
        self.record(assertion)
            .map_err(|e| format!("provenance recording failed: {e}"))
    }

    fn record(&self, assertion: PAssertion) -> Result<(), RecordError> {
        self.recorder.record(assertion)?;
        self.passertions.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ExecutedDag;
    use crate::spec::DagSpec;
    use crate::state::RetryPolicy;
    use crate::task::{Activity, ActivityError, FnActivity};
    use pasoa_core::ids::SessionId;
    use pasoa_core::recorder::{NullRecorder, RecordingMode};
    use std::sync::atomic::AtomicUsize;

    /// In-memory recorder capturing everything, so tests can reconstruct from assertions
    /// without deploying a store.
    struct CapturingRecorder {
        session: SessionId,
        assertions: Mutex<Vec<pasoa_core::passertion::RecordedAssertion>>,
        groups: Mutex<Vec<Group>>,
        fail_after: Option<usize>,
    }

    impl CapturingRecorder {
        fn new(session: &str) -> Self {
            CapturingRecorder {
                session: SessionId::new(session),
                assertions: Mutex::new(Vec::new()),
                groups: Mutex::new(Vec::new()),
                fail_after: None,
            }
        }

        fn failing_after(session: &str, n: usize) -> Self {
            CapturingRecorder {
                fail_after: Some(n),
                ..CapturingRecorder::new(session)
            }
        }

        fn recorded(&self) -> Vec<pasoa_core::passertion::RecordedAssertion> {
            self.assertions.lock().clone()
        }
    }

    impl ProvenanceRecorder for CapturingRecorder {
        fn session(&self) -> &SessionId {
            &self.session
        }

        fn record(&self, assertion: PAssertion) -> Result<(), RecordError> {
            let mut assertions = self.assertions.lock();
            if let Some(limit) = self.fail_after {
                if assertions.len() >= limit {
                    return Err(RecordError::Rejected(vec!["store unavailable".into()]));
                }
            }
            assertions.push(pasoa_core::passertion::RecordedAssertion {
                session: self.session.clone(),
                assertion,
            });
            Ok(())
        }

        fn register_group(&self, group: Group) -> Result<(), RecordError> {
            self.groups.lock().push(group);
            Ok(())
        }

        fn flush(&self) -> Result<(), RecordError> {
            Ok(())
        }

        fn stats(&self) -> pasoa_core::recorder::RecorderStats {
            pasoa_core::recorder::RecorderStats {
                assertions_recorded: self.assertions.lock().len() as u64,
                ..Default::default()
            }
        }

        fn mode(&self) -> RecordingMode {
            RecordingMode::Synchronous
        }
    }

    fn passthrough(name: &str) -> Arc<dyn Activity> {
        let slot = format!("{name}-out");
        Arc::new(FnActivity::new(
            name,
            format!("run {name}"),
            move |inputs, ctx| {
                let mut bytes = Vec::new();
                for i in inputs {
                    bytes.extend_from_slice(&i.bytes);
                }
                Ok(vec![DataItem::new(ctx.ids.data_id(), slot.clone(), bytes)])
            },
        ))
    }

    fn failing(name: &str) -> Arc<dyn Activity> {
        let owned = name.to_string();
        Arc::new(FnActivity::new(name, "exit 1", move |_, _| {
            Err(ActivityError::new(owned.clone(), "kaput"))
        }))
    }

    fn diamond_dag() -> Dag {
        let mut spec = DagSpec::new("diamond");
        let a = spec.add_task("a", passthrough("a")).unwrap();
        let b = spec.add_task("b", passthrough("b")).unwrap();
        let c = spec.add_task("c", passthrough("c")).unwrap();
        let d = spec.add_task("d", passthrough("d")).unwrap();
        spec.add_data_edge(&a, &b).unwrap();
        spec.add_data_edge(&a, &c).unwrap();
        spec.add_data_edge(&b, &d).unwrap();
        spec.add_data_edge(&c, &d).unwrap();
        spec.build().unwrap()
    }

    fn executor(recorder: Arc<dyn ProvenanceRecorder>, config: ExecutorConfig) -> Executor {
        Executor::new(recorder, IdGenerator::new("run"), config)
    }

    fn seed_inputs(ids: &IdGenerator) -> BTreeMap<String, Vec<DataItem>> {
        BTreeMap::from([(
            "a".to_string(),
            vec![DataItem::new(ids.data_id(), "seed", b"AB".to_vec())],
        )])
    }

    #[test]
    fn runs_a_diamond_with_correct_data_flow() {
        let dag = diamond_dag();
        let exec = executor(
            Arc::new(NullRecorder::new(SessionId::new("s"))),
            ExecutorConfig::default(),
        );
        let report = exec.run(&dag, seed_inputs(exec.ids())).unwrap();
        assert!(report.succeeded());
        assert_eq!(report.count(TaskState::Completed), 4);
        // d concatenates b's and c's outputs; both doubled nothing, just passed "AB" through.
        assert_eq!(report.outputs_of("d").unwrap()[0].as_text(), "ABAB");
        assert_eq!(report.total_attempts(), 4);
        assert!(report.wall_time > Duration::ZERO);
    }

    #[test]
    fn unknown_initial_input_is_rejected() {
        let dag = diamond_dag();
        let exec = executor(
            Arc::new(NullRecorder::new(SessionId::new("s"))),
            ExecutorConfig::default(),
        );
        let err = exec
            .run(&dag, BTreeMap::from([("ghost".to_string(), vec![])]))
            .unwrap_err();
        assert!(matches!(err, DagRunError::UnknownTask(_)));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn provenance_reconstructs_the_executed_dag() {
        let dag = diamond_dag();
        let recorder = Arc::new(CapturingRecorder::new("session:dag"));
        let exec = executor(recorder.clone(), ExecutorConfig::default());
        let report = exec.run(&dag, seed_inputs(exec.ids())).unwrap();
        // 1 workflow assertion + 4 tasks x (start + 2 request + script + 1 relationship
        // + 2 response + completed) = 1 + 4*8 = 33.
        assert_eq!(report.passertions_recorded, 33);
        assert_eq!(report.recording_errors, 0);
        let executed = ExecutedDag::from_assertions("diamond", &recorder.recorded());
        assert_eq!(executed, ExecutedDag::from_report(&dag, &report));
        assert_eq!(executed.completed.len(), 4);
        assert_eq!(executed.edges.len(), 4);
        // Group registered once, covering every interaction key.
        assert_eq!(recorder.groups.lock().len(), 1);
    }

    #[test]
    fn extra_actor_state_adds_two_assertions_per_completed_task() {
        let dag = diamond_dag();
        let recorder = Arc::new(CapturingRecorder::new("session:extra"));
        let exec = executor(
            recorder,
            ExecutorConfig {
                record_extra_actor_state: true,
                ..Default::default()
            },
        );
        let report = exec.run(&dag, seed_inputs(exec.ids())).unwrap();
        assert_eq!(report.passertions_recorded, 1 + 4 * 10);
    }

    #[test]
    fn continue_policy_completes_independent_branches() {
        // a -> b -> d, c -> d ; b fails => d skipped (upstream), c completes.
        let mut spec = DagSpec::new("forked");
        let a = spec.add_task("a", passthrough("a")).unwrap();
        let b = spec.add_task("b", failing("b")).unwrap();
        let c = spec.add_task("c", passthrough("c")).unwrap();
        let d = spec.add_task("d", passthrough("d")).unwrap();
        spec.add_data_edge(&a, &b).unwrap();
        spec.add_data_edge(&b, &d).unwrap();
        spec.add_data_edge(&c, &d).unwrap();
        let dag = spec.build().unwrap();
        let recorder = Arc::new(CapturingRecorder::new("session:cont"));
        let exec = executor(
            recorder.clone(),
            ExecutorConfig {
                failure_policy: FailurePolicy::Continue,
                ..Default::default()
            },
        );
        let report = exec.run(&dag, BTreeMap::new()).unwrap();
        assert_eq!(report.outcome("a").unwrap().state, TaskState::Completed);
        assert_eq!(report.outcome("b").unwrap().state, TaskState::Failed);
        assert_eq!(report.outcome("c").unwrap().state, TaskState::Completed);
        let d = report.outcome("d").unwrap();
        assert_eq!(d.state, TaskState::Skipped);
        assert_eq!(
            d.skip_cause,
            Some(SkipCause::UpstreamFailed {
                upstream: "b".into()
            })
        );
        assert!(report
            .outcome("b")
            .unwrap()
            .error
            .as_deref()
            .unwrap()
            .contains("kaput"));
        let executed = ExecutedDag::from_assertions("forked", &recorder.recorded());
        assert_eq!(executed, ExecutedDag::from_report(&dag, &report));
    }

    #[test]
    fn fail_fast_cancels_unstarted_branches() {
        // Chain a -> b plus a long independent chain c -> e; b fails under a single worker,
        // so the untouched chain is cancelled, not upstream-failed.
        let mut spec = DagSpec::new("ff");
        let a = spec.add_task("a", passthrough("a")).unwrap();
        let b = spec.add_task("b", failing("b")).unwrap();
        let c = spec.add_task("c", passthrough("c")).unwrap();
        let e = spec.add_task("e", passthrough("e")).unwrap();
        let f = spec.add_task("f", passthrough("f")).unwrap();
        spec.add_data_edge(&a, &b).unwrap();
        spec.add_data_edge(&b, &f).unwrap();
        spec.add_data_edge(&c, &e).unwrap();
        let dag = spec.build().unwrap();
        let recorder = Arc::new(CapturingRecorder::new("session:ff"));
        let exec = executor(
            recorder.clone(),
            ExecutorConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let report = exec.run(&dag, BTreeMap::new()).unwrap();
        assert_eq!(report.outcome("b").unwrap().state, TaskState::Failed);
        // f is b's descendant; with one worker, a and b ran first (index order), c had not
        // started yet when fail-fast tripped... but c is ready at index 2 < b's children.
        // Deterministic single-worker order is a, b, then the sweep hits c, e, f.
        let f_outcome = report.outcome("f").unwrap();
        assert_eq!(f_outcome.state, TaskState::Skipped);
        assert_eq!(
            f_outcome.skip_cause,
            Some(SkipCause::UpstreamFailed {
                upstream: "b".into()
            })
        );
        let c_outcome = report.outcome("c").unwrap();
        assert_eq!(c_outcome.state, TaskState::Skipped);
        assert_eq!(
            c_outcome.skip_cause,
            Some(SkipCause::Cancelled { root: "b".into() })
        );
        let executed = ExecutedDag::from_assertions("ff", &recorder.recorded());
        assert_eq!(executed, ExecutedDag::from_report(&dag, &report));
        assert_eq!(executed.skipped.len(), 3);
    }

    #[test]
    fn retries_with_backoff_then_succeeds() {
        let counter = Arc::new(AtomicUsize::new(0));
        let flaky_counter = counter.clone();
        let flaky = Arc::new(FnActivity::new("flaky", "retry me", move |_, ctx| {
            if flaky_counter.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(ActivityError::new("flaky", "transient"))
            } else {
                Ok(vec![DataItem::new(ctx.ids.data_id(), "out", vec![1])])
            }
        }));
        let mut spec = DagSpec::new("retrying");
        spec.add_task("flaky", flaky).unwrap();
        let dag = spec.build().unwrap();
        let recorder = Arc::new(CapturingRecorder::new("session:retry"));
        let exec = executor(
            recorder.clone(),
            ExecutorConfig {
                retry: RetryPolicy::retries(3, Duration::from_millis(1), Duration::from_millis(2)),
                ..Default::default()
            },
        );
        let report = exec.run(&dag, BTreeMap::new()).unwrap();
        let outcome = report.outcome("flaky").unwrap();
        assert_eq!(outcome.state, TaskState::Completed);
        assert_eq!(outcome.attempts, 3);
        let executed = ExecutedDag::from_assertions("retrying", &recorder.recorded());
        assert_eq!(executed.attempts["flaky"], 3);
        assert_eq!(executed, ExecutedDag::from_report(&dag, &report));
        // Two failed attempts leave two "retrying" events in the provenance.
        let retry_events = recorder
            .recorded()
            .iter()
            .filter(|r| {
                let PAssertion::ActorState(s) = &r.assertion else {
                    return false;
                };
                let PAssertionContent::Structured(v) = &s.content else {
                    return false;
                };
                v.as_object()
                    .and_then(|m| m.get("event"))
                    .and_then(|e| e.as_str())
                    == Some("retrying")
            })
            .count();
        assert_eq!(retry_events, 2);
    }

    #[test]
    fn retries_exhausted_is_failed() {
        let mut spec = DagSpec::new("exhausted");
        spec.add_task("boom", failing("boom")).unwrap();
        let dag = spec.build().unwrap();
        let recorder = Arc::new(CapturingRecorder::new("session:exh"));
        let exec = executor(
            recorder.clone(),
            ExecutorConfig {
                retry: RetryPolicy::retries(2, Duration::ZERO, Duration::ZERO),
                ..Default::default()
            },
        );
        let report = exec.run(&dag, BTreeMap::new()).unwrap();
        let outcome = report.outcome("boom").unwrap();
        assert_eq!(outcome.state, TaskState::Failed);
        assert_eq!(outcome.attempts, 2);
        let executed = ExecutedDag::from_assertions("exhausted", &recorder.recorded());
        assert_eq!(executed.failed, BTreeSet::from(["boom".to_string()]));
        assert_eq!(executed, ExecutedDag::from_report(&dag, &report));
    }

    #[test]
    fn panics_become_failed_tasks_without_poisoning_the_pool() {
        let mut spec = DagSpec::new("panicky");
        let p = spec
            .add_task(
                "panics",
                Arc::new(FnActivity::new("panics", "boom", |_, _| {
                    panic!("deliberate test panic")
                })) as Arc<dyn Activity>,
            )
            .unwrap();
        let s = spec.add_task("sibling", passthrough("sibling")).unwrap();
        let t = spec.add_task("tail", passthrough("tail")).unwrap();
        spec.add_data_edge(&p, &t).unwrap();
        let _ = s;
        let dag = spec.build().unwrap();
        let recorder = Arc::new(CapturingRecorder::new("session:panic"));
        let exec = executor(
            recorder.clone(),
            ExecutorConfig {
                failure_policy: FailurePolicy::Continue,
                workers: 2,
                ..Default::default()
            },
        );
        let report = exec.run(&dag, BTreeMap::new()).unwrap();
        let outcome = report.outcome("panics").unwrap();
        assert_eq!(outcome.state, TaskState::Failed);
        assert!(outcome
            .error
            .as_deref()
            .unwrap()
            .contains("task panicked: deliberate test panic"));
        // Sibling provenance intact despite the panic.
        assert_eq!(
            report.outcome("sibling").unwrap().state,
            TaskState::Completed
        );
        assert_eq!(report.outcome("tail").unwrap().state, TaskState::Skipped);
        let executed = ExecutedDag::from_assertions("panicky", &recorder.recorded());
        assert_eq!(executed, ExecutedDag::from_report(&dag, &report));
        assert!(executed.completed.contains("sibling"));
    }

    #[test]
    fn recording_failure_on_success_path_fails_the_task() {
        let mut spec = DagSpec::new("unrecordable");
        spec.add_task("a", passthrough("a")).unwrap();
        let dag = spec.build().unwrap();
        // Allow the workflow assertion + the start event, then reject everything.
        let recorder = Arc::new(CapturingRecorder::failing_after("session:rec", 2));
        let exec = executor(recorder, ExecutorConfig::default());
        let report = exec.run(&dag, BTreeMap::new()).unwrap();
        let outcome = report.outcome("a").unwrap();
        assert_eq!(outcome.state, TaskState::Failed);
        assert!(outcome
            .error
            .as_deref()
            .unwrap()
            .contains("provenance recording failed"));
        // The best-effort "failed" event also failed to record and was counted.
        assert_eq!(report.recording_errors, 1);
    }

    #[test]
    fn empty_dag_runs_to_an_empty_report() {
        let dag = DagSpec::new("empty").build().unwrap();
        let exec = executor(
            Arc::new(NullRecorder::new(SessionId::new("s"))),
            ExecutorConfig::default(),
        );
        let report = exec.run(&dag, BTreeMap::new()).unwrap();
        assert!(report.outcomes.is_empty());
        assert!(report.succeeded());
    }

    #[test]
    fn parallel_and_single_worker_runs_agree_on_outcomes() {
        let dag = diamond_dag();
        let run = |workers: usize| {
            let recorder = Arc::new(CapturingRecorder::new("session:par"));
            let exec = executor(
                recorder,
                ExecutorConfig {
                    workers,
                    ..Default::default()
                },
            );
            let report = exec.run(&dag, seed_inputs(exec.ids())).unwrap();
            ExecutedDag::from_report(&dag, &report)
        };
        assert_eq!(run(1), run(4));
    }
}
