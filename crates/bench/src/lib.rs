//! Benchmark-only crate: the Criterion harnesses in `benches/` regenerate every figure and
//! table of the paper's evaluation (see DESIGN.md §2 and EXPERIMENTS.md). The library holds
//! only setup shared between a bench and the example that records its baseline.

pub mod cluster_setup;
pub mod query_setup;
