//! The stored documentation of the experiment and of the DAG executor, pinned by a golden
//! fixture.
//!
//! Two producers write the paper's per-invocation p-assertions: the experiment
//! (`ExperimentRunner`, its Collate/Encode prefix and its permutation sweep) and the DAG
//! executor. Each line of `tests/fixtures/documentation_golden.txt` is
//! `case<TAB>index<TAB>what<TAB>fnv1a64 hex`, one per assertion the store holds for the case's
//! session (in the store's session order) plus one per registered session group, hashing the
//! canonical JSON of each, after a `case<TAB>-<TAB>stored<TAB>count` line. The cases are:
//!
//! - `ExperimentConfig::small(4, ..)` under each of the four recording configurations, with the
//!   one measured quantity of the documentation (`cpu_time_us`) stripped;
//! - a one-worker `Executor` run of a fixed diamond DAG under a synchronous recorder, with and
//!   without the extra actor-state p-assertions.
//!
//! A refactor of either producer must keep this green. Regenerate the fixture only for a
//! deliberate change of what is documented:
//! `cargo test --release --test documentation_golden -- --ignored bless`.

use std::collections::BTreeMap;
use std::sync::Arc;

use pasoa::dag::{DagSpec, DataItem, Executor, ExecutorConfig, FnActivity};
use pasoa::experiment::{ExperimentConfig, ExperimentRunner, RunRecording, StoreDeployment};
use pasoa::model::ids::{ActorId, IdGenerator, SessionId};
use pasoa::model::passertion::{
    ActorStatePAssertion, PAssertion, PAssertionContent, RecordedAssertion,
};
use pasoa::model::recorder::{ProvenanceRecorder, SyncRecorder};
use pasoa::wire::NetworkProfile;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/documentation_golden.txt"
);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn deployment() -> StoreDeployment {
    StoreDeployment::in_memory(NetworkProfile::InProcess.latency_model(), false)
}

/// One line per stored assertion and per session group of `session`.
fn lines_for(case: &str, deployment: &StoreDeployment, session: &SessionId) -> Vec<String> {
    let store = deployment.store_handle();
    let stored = store
        .assertions_for_session(session)
        .expect("session query");
    let mut lines = vec![format!("{case}\t-\tstored\t{}", stored.len())];
    for (index, mut recorded) in stored.into_iter().enumerate() {
        strip_cpu_time(&mut recorded);
        let what = match &recorded.assertion {
            PAssertion::Interaction(_) => "interaction",
            PAssertion::ActorState(_) => "actor-state",
            PAssertion::Relationship(_) => "relationship",
        };
        let json = serde_json::to_string(&recorded).expect("assertions serialize");
        lines.push(format!(
            "{case}\t{index}\t{what}\t{:016x}",
            fnv1a64(json.as_bytes())
        ));
    }
    for (index, group) in store
        .groups_by_kind("session")
        .expect("group query")
        .iter()
        .filter(|group| group.id == session.as_str())
        .enumerate()
    {
        let json = serde_json::to_string(group).expect("groups serialize");
        lines.push(format!(
            "{case}\t{index}\tgroup\t{:016x}",
            fnv1a64(json.as_bytes())
        ));
    }
    lines
}

/// Remove the activity's measured CPU time: the only field of the documentation that is not a
/// function of the configuration.
fn strip_cpu_time(recorded: &mut RecordedAssertion) {
    if let PAssertion::ActorState(ActorStatePAssertion {
        content: PAssertionContent::Structured(serde_json::Value::Object(usage)),
        ..
    }) = &mut recorded.assertion
    {
        usage.remove("cpu_time_us");
    }
}

fn experiment_lines(recording: RunRecording) -> Vec<String> {
    let runner = ExperimentRunner::new(deployment());
    let report = runner.run(&ExperimentConfig::small(4, recording));
    let case = format!("experiment/{recording:?}");
    lines_for(&case, runner.deployment(), &report.session)
}

fn executor_lines(extra: bool) -> Vec<String> {
    let passthrough = |name: &str| {
        let slot = format!("{name}-out");
        Arc::new(FnActivity::new(
            name,
            format!("run {name}"),
            move |inputs: &[DataItem], ctx: &pasoa::dag::ActivityContext| {
                let mut bytes = Vec::new();
                for input in inputs {
                    bytes.extend_from_slice(&input.bytes);
                }
                Ok(vec![DataItem::new(ctx.ids.data_id(), slot.clone(), bytes)])
            },
        ))
    };
    let mut spec = DagSpec::new("golden-diamond");
    let a = spec.add_task("a", passthrough("a")).unwrap();
    let b = spec.add_task("b", passthrough("b")).unwrap();
    let c = spec.add_task("c", passthrough("c")).unwrap();
    let d = spec.add_task("d", passthrough("d")).unwrap();
    spec.add_data_edge(&a, &b).unwrap();
    spec.add_data_edge(&a, &c).unwrap();
    spec.add_data_edge(&b, &d).unwrap();
    spec.add_data_edge(&c, &d).unwrap();
    let dag = spec.build().unwrap();

    let deployment = deployment();
    let session = SessionId::new(format!("session:golden-dag:extra={extra}"));
    let ids = IdGenerator::new(session.as_str().to_string());
    let recorder: Arc<dyn ProvenanceRecorder> = Arc::new(SyncRecorder::new(
        session.clone(),
        ActorId::new("golden"),
        deployment.transport(),
        ids.clone(),
    ));
    let executor = Executor::new(
        recorder,
        ids.clone(),
        ExecutorConfig {
            workers: 1,
            record_extra_actor_state: extra,
            ..Default::default()
        },
    );
    let seed = BTreeMap::from([(
        "a".to_string(),
        vec![DataItem::new(ids.data_id(), "seed", b"ACGT".to_vec())],
    )]);
    let report = executor.run(&dag, seed).expect("the diamond runs");
    assert!(report.succeeded());
    let case = format!("executor/extra={extra}");
    lines_for(&case, &deployment, &session)
}

fn generate() -> Vec<String> {
    let mut lines = Vec::new();
    for recording in RunRecording::ALL {
        lines.extend(experiment_lines(recording));
    }
    for extra in [false, true] {
        lines.extend(executor_lines(extra));
    }
    lines
}

#[test]
fn stored_documentation_reproduces_the_golden_fixture() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("fixture exists; bless it first");
    let expected: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = generate();
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(got, want, "stored documentation moved");
    }
    assert_eq!(actual.len(), expected.len(), "fixture covers every case");
}

#[test]
#[ignore]
fn bless() {
    let mut text = String::from("# case\tindex\twhat\tfnv1a64 of the canonical JSON\n");
    for line in generate() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, text).unwrap();
}
