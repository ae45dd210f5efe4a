//! Regenerate Figure 4 ("Recording Provenance"): overall execution time against the number of
//! permutations for the four recording configurations.
//!
//! ```sh
//! cargo run --release --example figure4_recording             # reduced scale (fast)
//! cargo run --release --example figure4_recording -- --full   # paper-scale permutation counts
//! ```

use pasoa::experiment::figure4::Figure4Series;
use pasoa::experiment::{ExperimentConfig, RunRecording, StoreDeployment};
use pasoa::wire::NetworkProfile;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    // Paper-like communication costs, charged on the virtual clock so the sweep completes in a
    // reasonable wall-clock time; the compression work itself is real.
    let deployment = StoreDeployment::in_memory(NetworkProfile::Paper2005.latency_model(), false);

    let (counts, base): (Vec<usize>, ExperimentConfig) = if full {
        (
            vec![100, 200, 300, 400, 500, 600, 700, 800],
            ExperimentConfig::default(), // 100 KB sample, gzip + ppmz, every hardware thread
        )
    } else {
        (
            vec![10, 20, 30, 40],
            ExperimentConfig {
                workers: 1, // serial, so wall-clock time grows linearly with the count
                ..ExperimentConfig::small(0, RunRecording::None)
            },
        )
    };

    println!(
        "Figure 4 — Recording Provenance ({} scale)",
        if full { "paper" } else { "reduced" }
    );
    let series = Figure4Series::collect(deployment, &counts, &base);
    println!("{}", series.render_table());

    for recording in RunRecording::ALL {
        println!(
            "{:<52} linearity r = {:.4}, mean overhead vs baseline = {:+.1} %",
            recording.label(),
            series.linearity(recording.label()),
            series.mean_overhead_vs_baseline(recording.label()) * 100.0
        );
    }
    let violations = series.check_paper_observations(0.10);
    if violations.is_empty() {
        println!("\nAll of the paper's qualitative observations hold (async overhead < 10 %).");
    } else {
        println!("\nDeviations from the paper's observations:");
        for v in violations {
            println!("  - {v}");
        }
    }
}
