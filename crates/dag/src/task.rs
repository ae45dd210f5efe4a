//! Activities: the task bodies composed by a DAG, and the documentation of one invocation.
//!
//! An activity is an actor in the paper's sense: it "takes some inputs and returns some
//! outputs". Activities receive an [`ActivityContext`] giving them access to the identifier
//! generator and to descriptive information they may wish to document as actor-state
//! p-assertions. Whoever invokes an activity — the DAG executor, or the experiment's
//! Collate/Encode prefix — does so through [`Invocation`], which records the standard set on
//! the activity's behalf.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use pasoa_core::group::Group;
use pasoa_core::ids::{ActorId, DataId, IdGenerator, InteractionKey};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RelationshipPAssertion, ViewKind,
};
use pasoa_core::recorder::RecordError;

use crate::data::DataItem;

/// Error raised by an activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityError {
    /// Which activity failed.
    pub activity: String,
    /// Why.
    pub reason: String,
}

impl ActivityError {
    /// Create an error.
    pub fn new(activity: impl Into<String>, reason: impl Into<String>) -> Self {
        ActivityError {
            activity: activity.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ActivityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "activity {} failed: {}", self.activity, self.reason)
    }
}

impl std::error::Error for ActivityError {}

/// Invocation context handed to every activity.
#[derive(Clone)]
pub struct ActivityContext {
    /// Identifier generator shared by the whole run (fresh data ids come from here).
    pub ids: IdGenerator,
}

impl ActivityContext {
    /// Create a context.
    pub fn new(ids: IdGenerator) -> Self {
        ActivityContext { ids }
    }
}

/// A workflow step.
pub trait Activity: Send + Sync {
    /// The activity's (service) name, used as its actor identity in provenance.
    fn name(&self) -> &str;

    /// The script or command-line this activity stands for. Recorded as a `script` actor-state
    /// p-assertion so use case 1 can compare configurations across runs.
    fn script(&self) -> String;

    /// Execute the activity.
    fn invoke(
        &self,
        inputs: &[DataItem],
        ctx: &ActivityContext,
    ) -> Result<Vec<DataItem>, ActivityError>;

    /// Semantic types this activity expects for its inputs, in input order (used by the
    /// registry population helpers and the spec builder's edge type check). Empty when
    /// unspecified.
    fn input_types(&self) -> Vec<String> {
        Vec::new()
    }

    /// Semantic types this activity claims for its outputs, in output order.
    fn output_types(&self) -> Vec<String> {
        Vec::new()
    }
}

/// An activity built from a closure — convenient for tests and small glue steps.
pub struct FnActivity {
    name: String,
    script: String,
    #[allow(clippy::type_complexity)]
    body: Arc<
        dyn Fn(&[DataItem], &ActivityContext) -> Result<Vec<DataItem>, ActivityError> + Send + Sync,
    >,
}

impl FnActivity {
    /// Create a closure-backed activity.
    pub fn new<F>(name: impl Into<String>, script: impl Into<String>, body: F) -> Self
    where
        F: Fn(&[DataItem], &ActivityContext) -> Result<Vec<DataItem>, ActivityError>
            + Send
            + Sync
            + 'static,
    {
        FnActivity {
            name: name.into(),
            script: script.into(),
            body: Arc::new(body),
        }
    }
}

impl Activity for FnActivity {
    fn name(&self) -> &str {
        &self.name
    }

    fn script(&self) -> String {
        self.script.clone()
    }

    fn invoke(
        &self,
        inputs: &[DataItem],
        ctx: &ActivityContext,
    ) -> Result<Vec<DataItem>, ActivityError> {
        (self.body)(inputs, ctx)
    }
}

/// One invocation of an activity by a caller, documented with the standard set of
/// p-assertions the paper counts ("each permutation involves the creation of 6 records"):
///
/// 1. the request interaction, asserted by the caller (sender view),
/// 2. the request interaction, asserted by the activity (receiver view),
/// 3. the activity's script as an actor-state p-assertion,
/// 4. a relationship p-assertion per output, linking it to the inputs,
/// 5. the response interaction, asserted by the activity (sender view),
/// 6. the response interaction, asserted by the caller (receiver view).
///
/// With [`Self::record_extra_actor_state`] (the paper's fourth configuration, "synchronous
/// recording with extra actor provenance") the activity's configuration and resource usage
/// are recorded between 4 and 5.
pub struct Invocation<'a> {
    /// The invoking actor: the request's sender and the response's receiver.
    pub caller: &'a ActorId,
    /// The activity invoked.
    pub activity: &'a dyn Activity,
    /// Its inputs.
    pub inputs: &'a [DataItem],
    /// The request's interaction key. The caller draws it (and adds it to its session group),
    /// so it can document its own events under the same key before the invocation records
    /// anything.
    pub request_key: &'a InteractionKey,
    /// Record the configuration and resource-usage actor state too.
    pub record_extra_actor_state: bool,
    /// The caller's fields of the configuration p-assertion, beside the activity's name and
    /// the number and size of its inputs.
    pub configuration: &'a [(&'a str, serde_json::Value)],
}

/// A completed [`Invocation`].
#[derive(Debug)]
pub struct Invoked {
    /// What the activity produced.
    pub outputs: Vec<DataItem>,
    /// The response's interaction key.
    pub response_key: InteractionKey,
}

/// Why an [`Invocation`] did not complete.
#[derive(Debug)]
pub enum InvocationError {
    /// The activity returned an error.
    Activity(ActivityError),
    /// The activity panicked; the payload's message.
    Panicked(String),
    /// A p-assertion could not be recorded.
    Recording(RecordError),
}

impl std::fmt::Display for InvocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvocationError::Activity(e) => e.fmt(f),
            InvocationError::Panicked(msg) => write!(f, "task panicked: {msg}"),
            InvocationError::Recording(e) => write!(f, "provenance recording failed: {e}"),
        }
    }
}

impl std::error::Error for InvocationError {}

impl From<RecordError> for InvocationError {
    fn from(e: RecordError) -> Self {
        InvocationError::Recording(e)
    }
}

impl Invocation<'_> {
    /// Invoke the activity and document the invocation through `record`. The response key is
    /// drawn from `ids` once the activity has returned (the activity draws its outputs' data
    /// ids from the same generator) and joins `session` at once. A panic in the activity is
    /// contained and becomes [`InvocationError::Panicked`].
    pub fn run(
        self,
        ids: &IdGenerator,
        session: &Mutex<Group>,
        record: &dyn Fn(PAssertion) -> Result<(), RecordError>,
    ) -> Result<Invoked, InvocationError> {
        let activity = self.activity;
        let activity_actor = ActorId::new(activity.name().to_string());
        let request_key = self.request_key;
        let staged_bytes: usize = self.inputs.iter().map(|i| i.len()).sum();

        // 1 & 2: both views of the request interaction.
        let input_ids: Vec<DataId> = self.inputs.iter().map(|i| i.id.clone()).collect();
        let request_content = PAssertionContent::text(format!(
            "invoke {} with {} input item(s), {} byte(s)",
            activity.name(),
            self.inputs.len(),
            staged_bytes
        ));
        for (asserter, view) in [
            (self.caller.clone(), ViewKind::Sender),
            (activity_actor.clone(), ViewKind::Receiver),
        ] {
            record(PAssertion::Interaction(InteractionPAssertion {
                interaction_key: request_key.clone(),
                asserter,
                view,
                sender: self.caller.clone(),
                receiver: activity_actor.clone(),
                operation: activity.name().to_string(),
                content: request_content.clone(),
                data_ids: input_ids.clone(),
            }))?;
        }

        // 3: the script the activity executes.
        record(PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: request_key.clone(),
            asserter: activity_actor.clone(),
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(activity.script()),
        }))?;

        // The actual work — panics are contained, exactly like NetServer's dispatch.
        let ctx = ActivityContext::new(ids.clone());
        let started = Instant::now();
        let invoked =
            std::panic::catch_unwind(AssertUnwindSafe(|| activity.invoke(self.inputs, &ctx)));
        let elapsed = started.elapsed();
        let produced = match invoked {
            Ok(Ok(outputs)) => outputs,
            Ok(Err(e)) => return Err(InvocationError::Activity(e)),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload");
                return Err(InvocationError::Panicked(msg.to_string()));
            }
        };

        // 4: relationships linking every output to the inputs.
        let response_key = ids.interaction_key();
        session.lock().add(response_key.clone());
        for item in &produced {
            record(PAssertion::Relationship(RelationshipPAssertion {
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
        if self.record_extra_actor_state {
            let mut configuration: serde_json::Map = self
                .configuration
                .iter()
                .map(|(field, value)| (field.to_string(), value.clone()))
                .collect();
            configuration.insert("activity".into(), serde_json::json!(activity.name()));
            configuration.insert("input_items".into(), serde_json::json!(self.inputs.len()));
            configuration.insert("input_bytes".into(), serde_json::json!(staged_bytes));
            record(PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: request_key.clone(),
                asserter: activity_actor.clone(),
                view: ViewKind::Receiver,
                kind: ActorStateKind::Configuration,
                content: PAssertionContent::Structured(serde_json::Value::Object(configuration)),
            }))?;
            record(PAssertion::ActorState(ActorStatePAssertion {
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
            (self.caller.clone(), ViewKind::Receiver),
        ] {
            record(PAssertion::Interaction(InteractionPAssertion {
                interaction_key: response_key.clone(),
                asserter,
                view,
                sender: activity_actor.clone(),
                receiver: self.caller.clone(),
                operation: format!("{}-response", activity.name()),
                content: response_content.clone(),
                data_ids: output_ids.clone(),
            }))?;
        }

        Ok(Invoked {
            outputs: produced,
            response_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::DataId;

    #[test]
    fn fn_activity_invokes_its_closure() {
        let upper = FnActivity::new("uppercase", "tr a-z A-Z", |inputs, ctx| {
            Ok(inputs
                .iter()
                .map(|i| {
                    DataItem::new(
                        ctx.ids.data_id(),
                        format!("{}-upper", i.name),
                        i.as_text().to_uppercase().into_bytes(),
                    )
                })
                .collect())
        });
        assert_eq!(upper.name(), "uppercase");
        assert_eq!(upper.script(), "tr a-z A-Z");
        let ctx = ActivityContext::new(IdGenerator::new("test"));
        let input = DataItem::new(DataId::new("data:in"), "text", b"hello".to_vec());
        let out = upper.invoke(&[input], &ctx).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_text(), "HELLO");
        assert!(upper.input_types().is_empty());
        assert!(upper.output_types().is_empty());
    }

    #[test]
    fn activity_errors_carry_context() {
        let failing = FnActivity::new("broken", "false", |_, _| {
            Err(ActivityError::new("broken", "deliberate failure"))
        });
        let ctx = ActivityContext::new(IdGenerator::new("test"));
        let err = failing.invoke(&[], &ctx).unwrap_err();
        assert_eq!(err.activity, "broken");
        assert!(err.to_string().contains("deliberate failure"));
    }

    /// Invoke `activity` `times` times on one input, the way the executor and the experiment
    /// do: the caller draws each request key and adds it to the session group.
    fn invoke_repeatedly(
        activity: &dyn Activity,
        times: usize,
        extra: bool,
    ) -> (
        Vec<PAssertion>,
        Group,
        Vec<Result<Invoked, InvocationError>>,
    ) {
        let ids = IdGenerator::new("run");
        let caller = ActorId::new("engine");
        let session = Mutex::new(Group::new("session", pasoa_core::group::GroupKind::Session));
        let recorded = Mutex::new(Vec::new());
        let input = DataItem::new(ids.data_id(), "in", b"xyz".to_vec());
        let results = (0..times)
            .map(|i| {
                let request_key = ids.interaction_key();
                session.lock().add(request_key.clone());
                Invocation {
                    caller: &caller,
                    activity,
                    inputs: std::slice::from_ref(&input),
                    request_key: &request_key,
                    record_extra_actor_state: extra,
                    configuration: &[("invocation", serde_json::json!(i))],
                }
                .run(&ids, &session, &|assertion| {
                    recorded.lock().push(assertion);
                    Ok(())
                })
            })
            .collect();
        (recorded.into_inner(), session.into_inner(), results)
    }

    fn identity() -> FnActivity {
        FnActivity::new("identity", "cat", |inputs, ctx| {
            Ok(vec![DataItem::new(
                ctx.ids.data_id(),
                "copy",
                inputs[0].bytes.clone(),
            )])
        })
    }

    #[test]
    fn an_invocation_records_six_passertions_and_eight_with_extra_actor_state() {
        let (recorded, session, results) = invoke_repeatedly(&identity(), 5, false);
        assert_eq!(recorded.len(), 5 * 6);
        for result in &results {
            assert_eq!(result.as_ref().unwrap().outputs[0].as_text(), "xyz");
        }
        // Both keys of every invocation joined the session group, request before response.
        assert_eq!(session.len(), 5 * 2);
        assert_eq!(
            session.members[1],
            results[0].as_ref().unwrap().response_key
        );
        let shape: Vec<&str> = recorded[..6]
            .iter()
            .map(|assertion| match assertion {
                PAssertion::Interaction(i) if i.view == ViewKind::Sender => "sent",
                PAssertion::Interaction(_) => "received",
                PAssertion::ActorState(_) => "script",
                PAssertion::Relationship(_) => "relationship",
            })
            .collect();
        assert_eq!(
            shape,
            [
                "sent",
                "received",
                "script",
                "relationship",
                "sent",
                "received"
            ]
        );

        let (recorded, _, _) = invoke_repeatedly(&identity(), 5, true);
        assert_eq!(recorded.len(), 5 * 8);
        let PAssertion::ActorState(configuration) = &recorded[4] else {
            panic!(
                "the configuration follows the relationship: {:?}",
                recorded[4]
            );
        };
        assert_eq!(configuration.kind, ActorStateKind::Configuration);
        assert_eq!(
            configuration.content,
            PAssertionContent::Structured(serde_json::json!({
                "activity": "identity",
                "input_bytes": 3usize,
                "input_items": 1usize,
                "invocation": 0usize,
            }))
        );
    }

    #[test]
    fn a_failed_invocation_documents_only_its_request() {
        let failing = FnActivity::new("broken", "false", |_, _| {
            Err(ActivityError::new("broken", "deliberate failure"))
        });
        let (recorded, session, results) = invoke_repeatedly(&failing, 1, true);
        assert_eq!(recorded.len(), 3);
        assert_eq!(session.len(), 1);
        let err = results.into_iter().next().unwrap().unwrap_err();
        assert_eq!(
            err.to_string(),
            "activity broken failed: deliberate failure"
        );

        let panicking = FnActivity::new("panics", "boom", |_, _| panic!("deliberate panic"));
        let (recorded, _, results) = invoke_repeatedly(&panicking, 1, false);
        assert_eq!(recorded.len(), 3);
        let err = results.into_iter().next().unwrap().unwrap_err();
        assert_eq!(err.to_string(), "task panicked: deliberate panic");
    }
}
