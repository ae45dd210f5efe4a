//! Integration tests asserting the *shape* of the paper's evaluation results on reduced-scale
//! runs (the full-scale series are produced by the example binaries).

use pasoa::experiment::figure4::Figure4Series;
use pasoa::experiment::{ExperimentConfig, RunRecording, StoreDeployment};
use pasoa::usecases::figure5::{Figure5Deployment, Figure5Series};
use pasoa::wire::NetworkProfile;

#[test]
fn figure4_ordering_and_async_bound_hold_at_reduced_scale() {
    let deployment = StoreDeployment::in_memory(NetworkProfile::FastLocal.latency_model(), false);
    let base = ExperimentConfig {
        workers: 1, // serial sweep, as on the paper's single machine
        ..ExperimentConfig::small(0, RunRecording::None)
    };
    let series = Figure4Series::collect(deployment, &[5, 15, 30], &base);

    let none = series.mean_overhead_vs_baseline(RunRecording::None.label());
    let asyn = series.mean_overhead_vs_baseline(RunRecording::Asynchronous.label());
    assert_eq!(none, 0.0);
    assert!(
        asyn < 0.15,
        "async overhead {asyn} should stay small (paper: < 10 %)"
    );
    // Configuration ordering is asserted on the deterministic communication component; the
    // wall-clock part is too noisy at this reduced scale to order near-identical curves.
    let asyn_comm = series.mean_comm_seconds(RunRecording::Asynchronous.label());
    let sync_comm = series.mean_comm_seconds(RunRecording::Synchronous.label());
    let extra_comm = series.mean_comm_seconds(RunRecording::SynchronousWithExtra.label());
    assert!(
        sync_comm > asyn_comm,
        "sync comm {sync_comm} vs async comm {asyn_comm}"
    );
    assert!(
        extra_comm >= sync_comm,
        "extra comm {extra_comm} vs sync comm {sync_comm}"
    );
}

#[test]
fn figure5_slope_ratio_matches_the_call_count_model() {
    let deployment = Figure5Deployment::new(NetworkProfile::Paper2005.latency_model());
    let series = Figure5Series::collect(&deployment, &[25, 50, 100]);
    assert!(series.linearity(false) > 0.99);
    assert!(series.linearity(true) > 0.99);
    let ratio = series.slope_ratio();
    assert!(
        ratio > 5.0 && ratio < 20.0,
        "semantic validity should be roughly an order of magnitude steeper (paper: ~11), got {ratio}"
    );
}
