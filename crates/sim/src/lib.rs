//! # pasoa-sim — deterministic simulation testing for the clustered provenance store
//!
//! PR 2's review cycle caught three real data-loss races (rebalance holds, promotion-vs-ack,
//! scatter-gather-vs-replay) only because someone hand-crafted the exact interleaving. This
//! crate makes that class of bug *enumerable* instead of lucky, FoundationDB-style: the whole
//! stack — recorders, [`pasoa_cluster::ShardRouter`] with replication, the wire layer's fault
//! injection, durable `pasoa-kvdb` backends with power-loss crash points — runs under a single
//! seeded scheduler, and a battery of invariant checkers audits every run against a golden
//! single-store model.
//!
//! ```text
//!   SimPlan { seed, config }
//!        │ expand()                      deterministic — the seed IS the repro
//!        ▼
//!   [record c0s1 +3, flush, kill shard 2, query …]     explicit SimOp schedule
//!        │ run_ops()                     single thread, no wall clock, no shared RNG
//!        ▼
//!   PreservCluster  ⇄  golden ProvenanceStore          every acked op applied to both
//!        │
//!        ▼ settle()
//!   invariants: zero acked loss · exactly-once · scatter-gather == golden ·
//!               lineage closure · replica-hold accounting · clean crash recovery
//! ```
//!
//! On failure the harness prints the seed, the violated invariant and a **minimized** op
//! schedule; because op payloads are pure functions of their coordinates, the minimized list
//! replays identically and can be committed verbatim as a regression test (see
//! `tests/regressions.rs`).
//!
//! Invariants checked after (and, for queries, during) every schedule:
//!
//! * **Zero acked loss / zero phantoms** — every session's cluster answer equals the golden
//!   single store's, bit for bit.
//! * **Exactly-once** — per-live-shard copies of a session sum to the merged answer; a
//!   promotion must never leave data counted twice.
//! * **Scatter-gather fidelity** — statistics, interaction listings, group listings and
//!   wire-level query responses all match the golden store.
//! * **Lineage closure** — merged derivation graphs equal the golden ones and never dangle.
//! * **Replica-hold accounting** — no copy stranded for a dead primary, none parked outside
//!   the placement rule, none duplicated beyond R−1, never more held than committed.
//! * **Recovery** — a crashed durable shard reopens clean and resurrects no phantom data.

pub mod harness;
pub mod plan;
mod world;

pub use harness::{check_plan, minimize, run_ops, run_plan, SimFailure, SimReport};
pub use plan::{QueryKind, SimBackend, SimConfig, SimOp, SimPlan};
pub use world::Violation;

/// The canonical plan for a matrix seed (shared by CI, the example runner and
/// `PASOA_SIM_SEED` reproduction so "seed N" always means the same schedule).
pub fn plan_for(seed: u64, replication: usize, backend: SimBackend) -> SimPlan {
    SimPlan::with_config(
        seed,
        SimConfig {
            replication,
            backend,
            // Odd seeds run the sparse ring: rebalances then move promotion targets with
            // high probability, which is where the PR 2 hold-migration race lived.
            virtual_nodes: if seed.is_multiple_of(2) { 64 } else { 8 },
            ..Default::default()
        },
    )
}
