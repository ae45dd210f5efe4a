//! The workflow execution engine.
//!
//! The engine plays the role VDT/Condor play in the paper: it lowers the workflow definition
//! onto the `pasoa-dag` parallel executor ([`Workflow::to_dag`]), which schedules independent
//! activities concurrently on a bounded worker pool, charges the configured grid overhead per
//! scheduled activity, and — crucially — documents every invocation in the provenance store
//! through whichever [`ProvenanceRecorder`] it was given. DAG execution additionally records a
//! `dag-transition` actor-state p-assertion at the start and end of every task, so the executed
//! graph can be reconstructed bit-exactly from provenance alone.
//!
//! [`WorkflowEngine::invoke_activity`] remains the direct invocation path for applications with
//! dynamic fan-out (the permutation sweep); it produces the standard set of p-assertions the
//! paper counts ("each permutation involves the creation of 6 records"):
//!
//! 1. the request interaction, asserted by the engine (sender view),
//! 2. the request interaction, asserted by the activity (receiver view),
//! 3. the activity's script as an actor-state p-assertion,
//! 4. a relationship p-assertion linking the outputs to the inputs,
//! 5. the response interaction, asserted by the activity (sender view),
//! 6. the response interaction, asserted by the engine (receiver view).
//!
//! With [`EngineConfig::record_extra_actor_state`] enabled (the paper's fourth configuration,
//! "synchronous recording with extra actor provenance"), both paths additionally record the
//! activity's configuration and resource usage.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use pasoa_core::group::{Group, GroupKind};
use pasoa_core::ids::{ActorId, DataId, IdGenerator};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RelationshipPAssertion, ViewKind,
};
use pasoa_core::recorder::{ProvenanceRecorder, RecordError};

use crate::activity::{Activity, ActivityContext, ActivityError};
use crate::dag::{NodeId, Workflow, WorkflowError};
use crate::data::DataItem;
use crate::scheduler::OverheadModel;

/// Errors raised during execution.
#[derive(Debug)]
pub enum EngineError {
    /// The workflow definition is invalid.
    Workflow(WorkflowError),
    /// An activity failed.
    Activity(ActivityError),
    /// Provenance recording failed.
    Recording(RecordError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Workflow(e) => write!(f, "workflow error: {e}"),
            EngineError::Activity(e) => write!(f, "activity error: {e}"),
            EngineError::Recording(e) => write!(f, "provenance recording error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<WorkflowError> for EngineError {
    fn from(e: WorkflowError) -> Self {
        EngineError::Workflow(e)
    }
}
impl From<ActivityError> for EngineError {
    fn from(e: ActivityError) -> Self {
        EngineError::Activity(e)
    }
}
impl From<RecordError> for EngineError {
    fn from(e: RecordError) -> Self {
        EngineError::Recording(e)
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Grid scheduling/staging overhead charged per activity invocation.
    pub overhead: OverheadModel,
    /// Record the additional actor-state p-assertions (configuration, resource usage) of the
    /// paper's "synchronous recording with extra actor provenance" configuration.
    pub record_extra_actor_state: bool,
}

/// Summary of one workflow execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Workflow name.
    pub workflow: String,
    /// Number of activity invocations performed.
    pub invocations: usize,
    /// Total p-assertions handed to the recorder (0 when recording is disabled).
    pub passertions_recorded: u64,
    /// Wall-clock execution time (activity work + any slept overhead; excludes async flush).
    pub wall_time: Duration,
    /// Outputs of every node, keyed by node id string.
    pub outputs: BTreeMap<String, Vec<DataItem>>,
}

impl ExecutionReport {
    /// Outputs of the given node.
    pub fn outputs_of(&self, node: &NodeId) -> Option<&Vec<DataItem>> {
        self.outputs.get(node.as_str())
    }
}

/// The engine.
pub struct WorkflowEngine {
    recorder: Arc<dyn ProvenanceRecorder>,
    ids: IdGenerator,
    config: EngineConfig,
    engine_actor: ActorId,
    session_group: Mutex<Group>,
}

impl WorkflowEngine {
    /// Create an engine recording through `recorder`.
    pub fn new(
        recorder: Arc<dyn ProvenanceRecorder>,
        ids: IdGenerator,
        config: EngineConfig,
    ) -> Self {
        let session_group = Group::new(recorder.session().as_str().to_string(), GroupKind::Session);
        WorkflowEngine {
            recorder,
            ids,
            config,
            engine_actor: ActorId::new("workflow-engine"),
            session_group: Mutex::new(session_group),
        }
    }

    /// The identifier generator shared by this run.
    pub fn ids(&self) -> &IdGenerator {
        &self.ids
    }

    /// The recorder in use.
    pub fn recorder(&self) -> &Arc<dyn ProvenanceRecorder> {
        &self.recorder
    }

    /// Execute `workflow` by lowering it onto the `pasoa-dag` parallel executor.
    /// `initial_inputs` provides the inputs of source nodes (nodes with no producers); all
    /// other nodes receive the concatenated outputs of their producers. The executor records
    /// the run's provenance (including the session group) through this engine's recorder.
    pub fn execute(
        &self,
        workflow: &Workflow,
        initial_inputs: BTreeMap<NodeId, Vec<DataItem>>,
    ) -> Result<ExecutionReport, EngineError> {
        let start = Instant::now();
        let dag = workflow.to_dag()?;

        let overhead = self.config.overhead.clone();
        let executor = pasoa_dag::Executor::new(
            Arc::clone(&self.recorder),
            self.ids.clone(),
            pasoa_dag::ExecutorConfig {
                workers: dag.max_level_width().max(1),
                failure_policy: pasoa_dag::FailurePolicy::FailFast,
                retry: pasoa_dag::RetryPolicy::none(),
                record_extra_actor_state: self.config.record_extra_actor_state,
                register_group: true,
            },
        )
        .with_actor(self.engine_actor.clone())
        .with_stage_charge(Arc::new(move |bytes| overhead.charge(bytes)));

        let inputs: BTreeMap<String, Vec<DataItem>> = initial_inputs
            .into_iter()
            .map(|(node, items)| (node.0, items))
            .collect();
        let report = executor.run(&dag, inputs).map_err(|e| match e {
            pasoa_dag::DagRunError::UnknownTask(t) => {
                EngineError::Workflow(WorkflowError::UnknownNode(t))
            }
            pasoa_dag::DagRunError::Recording(e) => EngineError::Recording(e),
        })?;

        // Preserve the legacy fail-fast contract: a failed task surfaces as an activity error.
        if let Some(failed) = report.first_failure() {
            let activity = workflow
                .activity(&NodeId::new(failed.task.clone()))
                .map(|a| a.name().to_string())
                .unwrap_or_else(|| failed.task.clone());
            let raw = failed
                .error
                .clone()
                .unwrap_or_else(|| "task failed".to_string());
            let reason = raw
                .strip_prefix(&format!("activity {activity} failed: "))
                .map(str::to_string)
                .unwrap_or(raw);
            return Err(EngineError::Activity(ActivityError::new(activity, reason)));
        }

        let outputs: BTreeMap<String, Vec<DataItem>> = report
            .outcomes
            .iter()
            .map(|(task, outcome)| (task.clone(), outcome.outputs.clone()))
            .collect();
        Ok(ExecutionReport {
            workflow: workflow.name.clone(),
            invocations: report.count(pasoa_dag::TaskState::Completed),
            passertions_recorded: self.recorder.stats().assertions_recorded,
            wall_time: start.elapsed(),
            outputs,
        })
    }

    /// Invoke one activity as an actor, documenting the invocation with the standard set of
    /// p-assertions. Public so applications with dynamic fan-out (the permutation sweep of the
    /// compressibility experiment) can drive invocations themselves while still producing
    /// exactly the same provenance as DAG execution.
    pub fn invoke_activity(
        &self,
        activity: &dyn Activity,
        inputs: &[DataItem],
        invocation: usize,
    ) -> Result<Vec<DataItem>, EngineError> {
        let staged_bytes: usize = inputs.iter().map(|i| i.len()).sum();
        self.config.overhead.charge(staged_bytes);

        let activity_actor = ActorId::new(activity.name().to_string());
        let request_key = self.ids.interaction_key();
        let started = Instant::now();

        // 1 & 2: both views of the request interaction.
        let request_content = PAssertionContent::text(format!(
            "invoke {} with {} input item(s), {} byte(s)",
            activity.name(),
            inputs.len(),
            staged_bytes
        ));
        let input_ids: Vec<DataId> = inputs.iter().map(|i| i.id.clone()).collect();
        for (asserter, view) in [
            (self.engine_actor.clone(), ViewKind::Sender),
            (activity_actor.clone(), ViewKind::Receiver),
        ] {
            self.recorder
                .record(PAssertion::Interaction(InteractionPAssertion {
                    interaction_key: request_key.clone(),
                    asserter,
                    view,
                    sender: self.engine_actor.clone(),
                    receiver: activity_actor.clone(),
                    operation: activity.name().to_string(),
                    content: request_content.clone(),
                    data_ids: input_ids.clone(),
                }))?;
        }

        // 3: the script the activity executes.
        self.recorder
            .record(PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: request_key.clone(),
                asserter: activity_actor.clone(),
                view: ViewKind::Receiver,
                kind: ActorStateKind::Script,
                content: PAssertionContent::text(activity.script()),
            }))?;

        // The actual work.
        let ctx = ActivityContext::new(self.ids.clone(), invocation);
        let produced = activity.invoke(inputs, &ctx)?;
        let elapsed = started.elapsed();

        // 4: relationship linking outputs to inputs.
        let response_key = self.ids.interaction_key();
        for item in &produced {
            self.recorder
                .record(PAssertion::Relationship(RelationshipPAssertion {
                    interaction_key: response_key.clone(),
                    asserter: activity_actor.clone(),
                    effect: item.id.clone(),
                    causes: input_ids
                        .iter()
                        .map(|d| (request_key.clone(), d.clone()))
                        .collect(),
                    relation: format!("produced-by-{}", activity.name()),
                }))?;
        }

        // Extra actor provenance (Figure 4's fourth configuration).
        if self.config.record_extra_actor_state {
            self.recorder
                .record(PAssertion::ActorState(ActorStatePAssertion {
                    interaction_key: request_key.clone(),
                    asserter: activity_actor.clone(),
                    view: ViewKind::Receiver,
                    kind: ActorStateKind::Configuration,
                    content: PAssertionContent::structured(&serde_json::json!({
                        "activity": activity.name(),
                        "invocation": invocation,
                        "input_items": inputs.len(),
                        "input_bytes": staged_bytes,
                    })),
                }))?;
            self.recorder
                .record(PAssertion::ActorState(ActorStatePAssertion {
                    interaction_key: request_key.clone(),
                    asserter: activity_actor.clone(),
                    view: ViewKind::Receiver,
                    kind: ActorStateKind::ResourceUsage,
                    content: PAssertionContent::structured(&serde_json::json!({
                        "cpu_time_us": elapsed.as_micros() as u64,
                        "output_bytes": produced.iter().map(|i| i.len()).sum::<usize>(),
                    })),
                }))?;
        }

        // 5 & 6: both views of the response interaction.
        let output_ids: Vec<DataId> = produced.iter().map(|i| i.id.clone()).collect();
        let response_content = PAssertionContent::text(format!(
            "{} returned {} output item(s)",
            activity.name(),
            produced.len()
        ));
        for (asserter, view) in [
            (activity_actor.clone(), ViewKind::Sender),
            (self.engine_actor.clone(), ViewKind::Receiver),
        ] {
            self.recorder
                .record(PAssertion::Interaction(InteractionPAssertion {
                    interaction_key: response_key.clone(),
                    asserter,
                    view,
                    sender: activity_actor.clone(),
                    receiver: self.engine_actor.clone(),
                    operation: format!("{}-response", activity.name()),
                    content: response_content.clone(),
                    data_ids: output_ids.clone(),
                }))?;
        }

        {
            let mut group = self.session_group.lock();
            group.add(request_key);
            group.add(response_key);
        }
        Ok(produced)
    }

    /// Register the accumulated session group explicitly (used by applications driving
    /// [`Self::invoke_activity`] directly instead of [`Self::execute`]).
    pub fn finish_session(&self) -> Result<(), EngineError> {
        self.recorder
            .register_group(self.session_group.lock().clone())?;
        Ok(())
    }

    /// Number of p-assertions the engine records per activity invocation with the current
    /// configuration (per produced output item for the relationship component).
    pub fn passertions_per_invocation(&self, outputs: usize) -> usize {
        let base = 2 + 1 + outputs + 2;
        if self.config.record_extra_actor_state {
            base + 2
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::FnActivity;
    use pasoa_core::ids::SessionId;
    use pasoa_core::recorder::{AsyncRecorder, NullRecorder, SyncRecorder};
    use pasoa_preserv_test_support::deploy_store;

    /// Minimal in-crate stand-in for a provenance store service, so the engine tests do not
    /// depend on `pasoa-preserv` (which depends on this crate's siblings, not on it).
    mod pasoa_preserv_test_support {
        use super::*;
        use pasoa_core::prep::{PrepMessage, QueryRequest, RecordAck};
        use pasoa_core::prepwire;
        use pasoa_wire::{Envelope, ServiceHost, TransportConfig, WireResult};
        use std::sync::atomic::{AtomicUsize, Ordering};

        pub struct CountingStore {
            pub assertions: AtomicUsize,
            pub groups: AtomicUsize,
        }

        impl pasoa_wire::MessageHandler for CountingStore {
            fn handle(&self, request: Envelope) -> WireResult<Envelope> {
                match prepwire::decode_request(&request)? {
                    PrepMessage::Record(msg) => {
                        self.assertions.fetch_add(msg.len(), Ordering::SeqCst);
                        let ack = RecordAck {
                            message_id: msg.message_id,
                            accepted: msg.assertions.len(),
                            rejected: vec![],
                        };
                        prepwire::ack_envelope(&request, &ack)
                    }
                    PrepMessage::RegisterGroup(_) => {
                        self.groups.fetch_add(1, Ordering::SeqCst);
                        Envelope::response("register-group").with_json_payload(&"ok")
                    }
                    PrepMessage::Query(QueryRequest::Statistics)
                    | PrepMessage::Query(_)
                    | PrepMessage::QueryPage(_) => Ok(Envelope::fault("not supported")),
                }
            }
        }

        pub fn deploy_store() -> (ServiceHost, Arc<CountingStore>) {
            let host = ServiceHost::new();
            let store = Arc::new(CountingStore {
                assertions: AtomicUsize::new(0),
                groups: AtomicUsize::new(0),
            });
            host.register(pasoa_core::PROVENANCE_STORE_SERVICE, store.clone());
            let _ = host.transport(TransportConfig::free());
            (host, store)
        }
    }

    fn doubling_workflow() -> (Workflow, NodeId, NodeId, NodeId) {
        let double = Arc::new(FnActivity::new(
            "double",
            "awk '{print $0 $0}'",
            |inputs, ctx| {
                Ok(inputs
                    .iter()
                    .map(|i| {
                        let mut bytes = i.bytes.clone();
                        bytes.extend_from_slice(&i.bytes);
                        DataItem::new(ctx.ids.data_id(), format!("{}-doubled", i.name), bytes)
                    })
                    .collect())
            },
        ));
        let concat = Arc::new(FnActivity::new("concat", "cat", |inputs, ctx| {
            let mut bytes = Vec::new();
            for i in inputs {
                bytes.extend_from_slice(&i.bytes);
            }
            Ok(vec![DataItem::new(ctx.ids.data_id(), "joined", bytes)])
        }));
        let mut wf = Workflow::new("doubling");
        let a = wf
            .add_node("double-a", Arc::clone(&double) as Arc<dyn Activity>)
            .unwrap();
        let b = wf
            .add_node("double-b", double as Arc<dyn Activity>)
            .unwrap();
        let c = wf.add_node("concat", concat as Arc<dyn Activity>).unwrap();
        wf.add_edge(&a, &c).unwrap();
        wf.add_edge(&b, &c).unwrap();
        (wf, a, b, c)
    }

    fn initial_inputs(
        a: &NodeId,
        b: &NodeId,
        ids: &IdGenerator,
    ) -> BTreeMap<NodeId, Vec<DataItem>> {
        BTreeMap::from([
            (
                a.clone(),
                vec![DataItem::new(ids.data_id(), "left", b"AB".to_vec())],
            ),
            (
                b.clone(),
                vec![DataItem::new(ids.data_id(), "right", b"cd".to_vec())],
            ),
        ])
    }

    #[test]
    fn execute_produces_correct_data_flow_without_recording() {
        let (wf, a, b, c) = doubling_workflow();
        let ids = IdGenerator::new("run");
        let engine = WorkflowEngine::new(
            Arc::new(NullRecorder::new(SessionId::new("session:none"))),
            ids.clone(),
            EngineConfig::default(),
        );
        let report = engine.execute(&wf, initial_inputs(&a, &b, &ids)).unwrap();
        assert_eq!(report.invocations, 3);
        assert_eq!(report.workflow, "doubling");
        let joined = &report.outputs_of(&c).unwrap()[0];
        assert_eq!(joined.as_text(), "ABABcdcd");
        assert_eq!(report.passertions_recorded, 0);
        assert!(report.outputs_of(&NodeId::new("ghost")).is_none());
    }

    #[test]
    fn execute_records_the_expected_number_of_passertions() {
        let (wf, a, b, _c) = doubling_workflow();
        let (host, store) = deploy_store();
        let ids = IdGenerator::new("run");
        let recorder = Arc::new(SyncRecorder::new(
            SessionId::new("session:sync"),
            ActorId::new("engine"),
            host.transport(pasoa_wire::TransportConfig::free()),
            ids.clone(),
        ));
        let engine = WorkflowEngine::new(recorder, ids.clone(), EngineConfig::default());
        // Direct invocation records the paper's 6 per activity; DAG execution adds the two
        // dag-transition events per task (8), plus the run-level workflow assertion = 25.
        assert_eq!(engine.passertions_per_invocation(1), 6);
        let report = engine.execute(&wf, initial_inputs(&a, &b, &ids)).unwrap();
        assert_eq!(report.passertions_recorded, 3 * 8 + 1);
        assert_eq!(
            store.assertions.load(std::sync::atomic::Ordering::SeqCst) as u64,
            report.passertions_recorded
        );
        assert_eq!(store.groups.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn extra_actor_state_adds_two_assertions_per_invocation() {
        let (wf, a, b, _c) = doubling_workflow();
        let (host, _) = deploy_store();
        let ids = IdGenerator::new("run");
        let recorder = Arc::new(SyncRecorder::new(
            SessionId::new("session:extra"),
            ActorId::new("engine"),
            host.transport(pasoa_wire::TransportConfig::free()),
            ids.clone(),
        ));
        let engine = WorkflowEngine::new(
            recorder,
            ids.clone(),
            EngineConfig {
                record_extra_actor_state: true,
                ..Default::default()
            },
        );
        assert_eq!(engine.passertions_per_invocation(1), 8);
        let report = engine.execute(&wf, initial_inputs(&a, &b, &ids)).unwrap();
        assert_eq!(report.passertions_recorded, 3 * 10 + 1);
    }

    #[test]
    fn async_recording_defers_shipping_until_flush() {
        let (wf, a, b, _c) = doubling_workflow();
        let (host, store) = deploy_store();
        let ids = IdGenerator::new("run");
        let recorder = Arc::new(AsyncRecorder::new(
            SessionId::new("session:async"),
            ActorId::new("engine"),
            host.transport(pasoa_wire::TransportConfig::free()),
            ids.clone(),
            64,
        ));
        let engine = WorkflowEngine::new(
            Arc::clone(&recorder) as _,
            ids.clone(),
            EngineConfig::default(),
        );
        engine.execute(&wf, initial_inputs(&a, &b, &ids)).unwrap();
        assert_eq!(
            store.assertions.load(std::sync::atomic::Ordering::SeqCst),
            0
        );
        recorder.flush().unwrap();
        assert_eq!(
            store.assertions.load(std::sync::atomic::Ordering::SeqCst),
            25
        );
    }

    #[test]
    fn activity_failure_propagates() {
        let mut wf = Workflow::new("failing");
        wf.add_node(
            "boom",
            Arc::new(FnActivity::new("boom", "exit 1", |_, _| {
                Err(ActivityError::new("boom", "kaput"))
            })) as Arc<dyn Activity>,
        )
        .unwrap();
        let ids = IdGenerator::new("run");
        let engine = WorkflowEngine::new(
            Arc::new(NullRecorder::new(SessionId::new("s"))),
            ids,
            EngineConfig::default(),
        );
        let err = engine.execute(&wf, BTreeMap::new()).unwrap_err();
        assert!(matches!(err, EngineError::Activity(_)));
        assert!(err.to_string().contains("kaput"));
    }

    #[test]
    fn overhead_model_is_charged_per_invocation() {
        let clock = pasoa_wire::SimClock::new();
        let (wf, a, b, _c) = doubling_workflow();
        let ids = IdGenerator::new("run");
        let engine = WorkflowEngine::new(
            Arc::new(NullRecorder::new(SessionId::new("s"))),
            ids.clone(),
            EngineConfig {
                overhead: OverheadModel::virtual_time(
                    Duration::from_secs(30),
                    Duration::ZERO,
                    clock.clone(),
                ),
                record_extra_actor_state: false,
            },
        );
        engine.execute(&wf, initial_inputs(&a, &b, &ids)).unwrap();
        assert_eq!(clock.elapsed(), Duration::from_secs(90));
    }

    #[test]
    fn direct_invocation_matches_dag_provenance_shape() {
        let (host, store) = deploy_store();
        let ids = IdGenerator::new("run");
        let recorder = Arc::new(SyncRecorder::new(
            SessionId::new("session:direct"),
            ActorId::new("engine"),
            host.transport(pasoa_wire::TransportConfig::free()),
            ids.clone(),
        ));
        let engine = WorkflowEngine::new(recorder, ids.clone(), EngineConfig::default());
        let activity = FnActivity::new("identity", "cat", |inputs, ctx| {
            Ok(vec![DataItem::new(
                ctx.ids.data_id(),
                "copy",
                inputs[0].bytes.clone(),
            )])
        });
        let input = DataItem::new(ids.data_id(), "in", b"xyz".to_vec());
        for i in 0..5 {
            let out = engine
                .invoke_activity(&activity, std::slice::from_ref(&input), i)
                .unwrap();
            assert_eq!(out[0].as_text(), "xyz");
        }
        engine.finish_session().unwrap();
        assert_eq!(
            store.assertions.load(std::sync::atomic::Ordering::SeqCst),
            30
        );
        assert_eq!(store.groups.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
