//! End-to-end: the experiment's own activities executed as a parallel DAG by `pasoa-dag`'s
//! executor over a real TCP-backed provenance cluster, with the executed DAG reconstructed
//! bit-exactly from the recorded p-assertions gathered back over the wire.

use std::collections::BTreeMap;
use std::sync::Arc;

use pasoa::compress::Method;
use pasoa::dag::{
    ActivityContext, DagSpec, DataItem, ExecutedDag, Executor, ExecutorConfig, FnActivity,
};
use pasoa::experiment::activities::{
    synthetic_inputs, CollateSampleActivity, EncodeByGroupsActivity,
};
use pasoa::experiment::{ExperimentConfig, RunRecording, StoreDeployment};
use pasoa::model::ids::{ActorId, IdGenerator, SessionId};
use pasoa::model::recorder::{ProvenanceRecorder, SyncRecorder};
use pasoa::wire::NetworkProfile;

/// Measure Size for one method: the encoded sample's compressed length, as text.
fn measure(method: Method) -> Arc<FnActivity> {
    Arc::new(FnActivity::new(
        format!("measure-{}", method.name()),
        format!("{} -9 < $SAMPLE | wc -c", method.name()),
        move |inputs: &[DataItem], ctx: &ActivityContext| {
            let size = method.compressor().compressed_len(&inputs[0].bytes);
            Ok(vec![DataItem::new(
                ctx.ids.data_id(),
                format!("{}-size", method.name()),
                size.to_string().into_bytes(),
            )])
        },
    ))
}

#[test]
fn parallel_pipeline_over_tcp_cluster_is_reconstructible() {
    let deployment =
        StoreDeployment::sharded_tcp(2, NetworkProfile::InProcess.latency_model(), false);
    let config = ExperimentConfig::small(0, RunRecording::Synchronous);

    // Collate Sample -> Encode by Groups -> one Measure Size per method, side by side ->
    // Collate Sizes.
    let mut spec = DagSpec::new("protein-pipeline");
    let collate = spec
        .add_task(
            "collate-sample",
            Arc::new(CollateSampleActivity {
                target_size: config.sample_size,
            }),
        )
        .unwrap();
    let encode = spec
        .add_task(
            "encode-by-groups",
            Arc::new(EncodeByGroupsActivity {
                coding: config.grouping.coding(),
            }),
        )
        .unwrap();
    spec.add_data_edge(&collate, &encode).unwrap();
    let sizes = spec
        .add_task(
            "collate-sizes",
            Arc::new(FnActivity::new(
                "collate-sizes",
                "paste -d' ' $SIZES",
                |inputs: &[DataItem], ctx: &ActivityContext| {
                    let row: Vec<String> = inputs.iter().map(|i| i.as_text()).collect();
                    Ok(vec![DataItem::new(
                        ctx.ids.data_id(),
                        "sizes",
                        row.join(" ").into_bytes(),
                    )])
                },
            )),
        )
        .unwrap();
    for &method in &config.methods {
        let task = spec
            .add_task(format!("measure-{}", method.name()), measure(method))
            .unwrap();
        spec.add_data_edge(&encode, &task).unwrap();
        spec.add_data_edge(&task, &sizes).unwrap();
    }
    let dag = spec.build().unwrap();

    let session = SessionId::new("session:dag-e2e");
    let ids = IdGenerator::new(session.as_str().to_string());
    let recorder: Arc<dyn ProvenanceRecorder> = Arc::new(SyncRecorder::new(
        session.clone(),
        ActorId::new("protein-pipeline"),
        deployment.transport(),
        ids.clone(),
    ));
    let executor = Executor::new(
        recorder,
        ids.clone(),
        ExecutorConfig {
            workers: config.methods.len(),
            ..Default::default()
        },
    );
    let inputs = synthetic_inputs(&config.synthetic, &ids);
    let sequences = inputs[0].id.clone();
    let report = executor
        .run(
            &dag,
            BTreeMap::from([("collate-sample".to_string(), inputs)]),
        )
        .unwrap();

    // The science came out: one compressed size per method, each the codec's own count on
    // the encoded sample.
    assert!(report.succeeded());
    let encoded = &report.outputs_of("encode-by-groups").unwrap()[0];
    let expected: Vec<String> = config
        .methods
        .iter()
        .map(|m| m.compressor().compressed_len(&encoded.bytes).to_string())
        .collect();
    let collated = &report.outputs_of("collate-sizes").unwrap()[0];
    assert_eq!(collated.as_text(), expected.join(" "));

    // Every p-assertion the executor recorded crossed real TCP into the sharded cluster and
    // is retrievable via scatter-gather.
    let store = deployment.store_handle();
    let assertions = store.assertions_for_session(&session).unwrap();
    assert_eq!(assertions.len() as u64, report.passertions_recorded);

    // Reconstruction from the gathered provenance matches the executor's own report exactly:
    // topology, attempt counts, terminal states.
    let from_provenance = ExecutedDag::from_assertions("protein-pipeline", &assertions);
    assert_eq!(from_provenance, ExecutedDag::from_report(&dag, &report));
    assert_eq!(from_provenance.completed.len(), dag.len());
    assert!(from_provenance.skipped.is_empty());

    // Lineage gathered across shards links the collated sizes back through every stage to
    // the input sequences.
    let graph = store.lineage_session(&session).unwrap();
    let ancestors = graph.ancestors(&collated.id);
    assert!(ancestors.contains(&encoded.id), "{ancestors:?}");
    assert!(ancestors.contains(&sequences), "{ancestors:?}");
}
