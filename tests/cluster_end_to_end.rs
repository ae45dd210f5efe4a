//! End-to-end acceptance for the sharded store tier: a full experiment run recorded through a
//! 4-shard cluster must be indistinguishable — to every query a reasoner can pose — from the
//! same run recorded against the paper's single store.

use pasoa::cluster::{FaultPlan, LoadGenConfig, LoadGenerator, PreservCluster};
use pasoa::experiment::{ExperimentConfig, ExperimentRunner, RunRecording, StoreDeployment};
use pasoa::model::ids::SessionId;
use pasoa::model::prep::{PrepMessage, QueryRequest, QueryResponse};
use pasoa::wire::{Envelope, NetworkProfile, ServiceHost, TransportConfig};

/// The default (parallel) sweep: measurements are documented in permutation order whatever
/// the thread schedule, so the recorded documentation of two runs is byte-comparable.
fn run_config(recording: RunRecording) -> ExperimentConfig {
    ExperimentConfig::small(6, recording)
}

#[test]
fn experiment_through_cluster_matches_single_store() {
    let single = ExperimentRunner::new(StoreDeployment::in_memory(
        NetworkProfile::InProcess.latency_model(),
        false,
    ));
    let sharded = ExperimentRunner::new(StoreDeployment::sharded(
        4,
        NetworkProfile::InProcess.latency_model(),
        false,
    ));

    let config = run_config(RunRecording::Synchronous);
    let single_report = single.run(&config);
    let sharded_report = sharded.run(&config);

    // Same session naming, same documentation volume, same science.
    assert_eq!(single_report.session, sharded_report.session);
    assert_eq!(single_report.passertions, sharded_report.passertions);
    assert_eq!(single_report.sizes, sharded_report.sizes);

    // Scatter-gather BySession answers are identical to the single store's.
    let single_assertions = single
        .deployment()
        .store_handle()
        .assertions_for_session(&single_report.session)
        .unwrap();
    let sharded_assertions = sharded
        .deployment()
        .store_handle()
        .assertions_for_session(&sharded_report.session)
        .unwrap();
    assert_eq!(single_assertions, sharded_assertions);
    assert_eq!(single_assertions.len() as u64, single_report.passertions);

    // Lineage traces agree node-for-node.
    let single_lineage = single
        .deployment()
        .store_handle()
        .lineage_session(&single_report.session)
        .unwrap();
    let sharded_lineage = sharded
        .deployment()
        .store_handle()
        .lineage_session(&sharded_report.session)
        .unwrap();
    assert_eq!(single_lineage, sharded_lineage);
    assert!(!sharded_lineage.is_empty());

    // Statistics and group registrations agree too.
    let single_stats = single.deployment().store_handle().statistics().unwrap();
    let sharded_stats = sharded.deployment().store_handle().statistics().unwrap();
    assert_eq!(single_stats, sharded_stats);
    assert_eq!(
        single
            .deployment()
            .store_handle()
            .groups_by_kind("session")
            .unwrap(),
        sharded
            .deployment()
            .store_handle()
            .groups_by_kind("session")
            .unwrap()
    );
}

#[test]
fn experiment_over_tcp_cluster_matches_single_store() {
    // The same run over the paper's single store and over a cluster behind real sockets:
    // transport is invisible to the science and to the stored documentation.
    let config = run_config(RunRecording::Synchronous);
    let single = ExperimentRunner::new(StoreDeployment::in_memory(
        NetworkProfile::InProcess.latency_model(),
        false,
    ));
    let tcp = ExperimentRunner::new(StoreDeployment::sharded_tcp(
        2,
        NetworkProfile::InProcess.latency_model(),
        false,
    ));
    let single_report = single.run(&config);
    let tcp_report = tcp.run(&config);

    assert_eq!(single_report.sizes, tcp_report.sizes);
    assert_eq!(single_report.results, tcp_report.results);
    assert_eq!(single_report.passertions, tcp_report.passertions);
    let stored = |runner: &ExperimentRunner, session: &SessionId| {
        runner
            .deployment()
            .store_handle()
            .assertions_for_session(session)
            .unwrap()
    };
    assert_eq!(
        stored(&single, &single_report.session),
        stored(&tcp, &tcp_report.session)
    );
}

#[test]
fn wire_level_queries_agree_between_deployments() {
    let single = ExperimentRunner::new(StoreDeployment::in_memory(
        NetworkProfile::InProcess.latency_model(),
        false,
    ));
    let sharded = ExperimentRunner::new(StoreDeployment::sharded(
        4,
        NetworkProfile::InProcess.latency_model(),
        false,
    ));
    let config = run_config(RunRecording::Asynchronous);
    let single_report = single.run(&config);
    let sharded_report = sharded.run(&config);
    assert_eq!(single_report.session, sharded_report.session);

    let ask = |runner: &ExperimentRunner, query: &PrepMessage| -> QueryResponse {
        let transport = runner.deployment().host.transport(TransportConfig::free());
        let envelope = Envelope::request(pasoa::model::PROVENANCE_STORE_SERVICE, query.action())
            .with_json_payload(query)
            .unwrap();
        transport.call(envelope).unwrap().json_payload().unwrap()
    };

    for query in [
        PrepMessage::Query(QueryRequest::BySession(single_report.session.clone())),
        PrepMessage::Query(QueryRequest::ListInteractions { limit: None }),
        PrepMessage::Query(QueryRequest::GroupsByKind("session".into())),
        PrepMessage::Query(QueryRequest::Statistics),
    ] {
        assert_eq!(
            ask(&single, &query),
            ask(&sharded, &query),
            "query {query:?} diverged"
        );
    }
}

#[test]
fn figure4_runs_against_the_sharded_deployment() {
    use pasoa::experiment::figure4::Figure4Series;
    let deployment = StoreDeployment::sharded(4, NetworkProfile::FastLocal.latency_model(), false);
    let base = ExperimentConfig::small(0, RunRecording::None);
    let series = Figure4Series::collect(deployment, &[4, 8], &base);
    assert_eq!(series.points.len(), 8);
    for recording in RunRecording::ALL {
        assert_eq!(series.series(recording.label()).len(), 2);
    }
    // The qualitative ordering of the recording configurations survives sharding
    // (checked on the deterministic communication component, as in figure4.rs).
    assert!(
        series.mean_comm_seconds(RunRecording::Synchronous.label())
            > series.mean_comm_seconds(RunRecording::Asynchronous.label())
    );
}

/// The acceptance test for the fault-tolerant tier: with replication factor 2, killing any
/// single shard in the middle of a concurrent recording workload loses zero acked
/// p-assertions, produces zero client-visible failures, and leaves every scatter-gather query
/// and lineage answer identical to a fault-free run of the same workload.
#[test]
fn killing_a_shard_mid_workload_preserves_every_acked_assertion() {
    const CLIENTS: usize = 4;
    const SESSIONS: usize = 3;
    let load = |faults: Vec<FaultPlan>| LoadGenConfig {
        clients: CLIENTS,
        sessions_per_client: SESSIONS,
        assertions_per_session: 40,
        batch_size: 8,
        payload_bytes: 64,
        faults,
        ..Default::default()
    };

    // Fault-free reference run of the identical workload.
    let reference_host = ServiceHost::new();
    let reference = PreservCluster::deploy_replicated(&reference_host, 4, 2).unwrap();
    let reference_report = LoadGenerator::new(reference_host.clone(), load(vec![])).run();
    assert_eq!(reference_report.failures, 0);

    // Faulted run: shard 1 dies after 30 record messages, mid-workload.
    let host = ServiceHost::new();
    let cluster = PreservCluster::deploy_replicated(&host, 4, 2).unwrap();
    let victim = cluster.router().shard_names()[1].clone();
    let report = LoadGenerator::new(
        host.clone(),
        load(vec![FaultPlan {
            service: victim.clone(),
            after_messages: 30,
        }]),
    )
    .run();

    assert_eq!(report.faults_injected, vec![victim]);
    assert_eq!(
        report.failures, 0,
        "the kill must be invisible to recording clients"
    );
    assert_eq!(report.total_assertions, reference_report.total_assertions);

    let stats = cluster.router().stats();
    assert_eq!(stats.failovers, 1);
    assert_eq!(cluster.router().live_shards().len(), 3);

    // Scatter-gather answers match the fault-free run exactly.
    assert_eq!(
        cluster.statistics().unwrap(),
        reference.statistics().unwrap()
    );
    assert_eq!(
        cluster.list_interactions(None).unwrap(),
        reference.list_interactions(None).unwrap()
    );
    for client in 0..CLIENTS {
        for s in 0..SESSIONS {
            let session = SessionId::new(format!("session:load:w0:c{client}:s{s}"));
            assert_eq!(
                cluster.assertions_for_session(&session).unwrap(),
                reference.assertions_for_session(&session).unwrap(),
                "session {session:?} diverged from the fault-free run"
            );
            assert_eq!(
                cluster.lineage_session(&session).unwrap(),
                reference.lineage_session(&session).unwrap()
            );
        }
    }
}

/// A full Figure-1 experiment recorded through the replicated deployment is indistinguishable
/// from the paper's single store, exactly as PR 1 proved for the unreplicated cluster.
#[test]
fn experiment_through_replicated_cluster_matches_single_store() {
    let single = ExperimentRunner::new(StoreDeployment::in_memory(
        NetworkProfile::InProcess.latency_model(),
        false,
    ));
    let replicated = ExperimentRunner::new(StoreDeployment::replicated(
        4,
        2,
        NetworkProfile::InProcess.latency_model(),
        false,
    ));

    let config = run_config(RunRecording::Synchronous);
    let single_report = single.run(&config);
    let replicated_report = replicated.run(&config);

    assert_eq!(single_report.session, replicated_report.session);
    assert_eq!(single_report.passertions, replicated_report.passertions);
    assert_eq!(single_report.sizes, replicated_report.sizes);
    assert_eq!(
        single
            .deployment()
            .store_handle()
            .assertions_for_session(&single_report.session)
            .unwrap(),
        replicated
            .deployment()
            .store_handle()
            .assertions_for_session(&replicated_report.session)
            .unwrap()
    );
    assert_eq!(
        single.deployment().store_handle().statistics().unwrap(),
        replicated.deployment().store_handle().statistics().unwrap()
    );
}

#[test]
fn load_generator_drives_a_growing_cluster() {
    let host = ServiceHost::new();
    let cluster = PreservCluster::deploy_in_memory(&host, 2).unwrap();
    let generator = LoadGenerator::new(
        host.clone(),
        LoadGenConfig {
            clients: 4,
            sessions_per_client: 2,
            assertions_per_session: 30,
            batch_size: 10,
            payload_bytes: 64,
            ..Default::default()
        },
    );
    let before = generator.run();
    assert_eq!(before.failures, 0);

    // Elasticity: add two shards mid-life, rerun; everything stays queryable and consistent.
    cluster.add_shard().unwrap();
    cluster.add_shard().unwrap();
    let after = generator.run();
    assert_eq!(after.failures, 0);
    let stats = cluster.statistics().unwrap();
    assert_eq!(
        stats.total_passertions(),
        before.total_assertions + after.total_assertions
    );
    assert_eq!(cluster.shard_count(), 4);
}
