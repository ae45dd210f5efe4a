//! The seed matrix CI smokes: 20 seeds for each of {R=1, R=2} × {memory, durable kvdb}.
//!
//! Every cell runs the same seeds through `pasoa_sim::plan_for`, so a failure anywhere prints
//! `pasoa-sim seed N ...` with the violated invariant and a minimized schedule. To chase an
//! extra seed locally: `PASOA_SIM_SEED=12345 cargo test -p pasoa-sim extra_seed_from_env`.

use pasoa_sim::{check_plan, plan_for, SimBackend};

const SEEDS: u64 = 20;

/// Run seeds `1..=SEEDS` for one `(replication, backend)` cell; `plan_for` varies the ring
/// density per seed, so rebalances exercise both the production ring and the sparse one that
/// moves promotion targets often.
fn seed_matrix_cell(replication: usize, backend: SimBackend) {
    for seed in 1..=SEEDS {
        check_plan(&plan_for(seed, replication, backend));
    }
}

#[test]
fn seed_matrix_memory_unreplicated() {
    seed_matrix_cell(1, SimBackend::Memory);
}

#[test]
fn seed_matrix_memory_replicated() {
    seed_matrix_cell(2, SimBackend::Memory);
}

#[test]
fn seed_matrix_durable_unreplicated() {
    seed_matrix_cell(1, SimBackend::DurableKv);
}

#[test]
fn seed_matrix_durable_replicated() {
    seed_matrix_cell(2, SimBackend::DurableKv);
}

/// Reproduce one specific seed across the whole matrix: the escape hatch the failure message
/// points at (`PASOA_SIM_SEED=N cargo test -p pasoa-sim extra_seed_from_env`).
#[test]
fn extra_seed_from_env() {
    let Ok(value) = std::env::var("PASOA_SIM_SEED") else {
        return;
    };
    let seed: u64 = value
        .parse()
        .unwrap_or_else(|_| panic!("PASOA_SIM_SEED must be a u64, got '{value}'"));
    for backend in [SimBackend::Memory, SimBackend::DurableKv] {
        for replication in [1usize, 2] {
            let report = check_plan(&plan_for(seed, replication, backend));
            eprintln!(
                "seed {seed} R={replication} {}: fingerprint {:016x}",
                backend.label(),
                report.fingerprint
            );
        }
    }
}
