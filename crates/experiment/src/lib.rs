//! # pasoa-experiment — the protein compressibility experiment
//!
//! This crate assembles the paper's application: the comparative protein compressibility
//! workflow of Figure 1 (Collate Sample → Encode by Groups → Shuffle/Measure over N
//! permutations → Collate Sizes → Average) and the Measure sub-workflow of Figure 2
//! (gzip/ppmz compression → Measure Size → Collate Sizes), with provenance recorded through
//! PReP into PReServ.
//!
//! The experiment is the workload of the paper's evaluation:
//!
//! * §6 "Recording Evaluation" / Figure 4 — the workflow is run with samples of ~100 KB and an
//!   increasing number of permutations under four recording configurations (none /
//!   asynchronous / synchronous / synchronous with extra actor provenance). [`figure4`]
//!   regenerates that series.
//! * the prose micro-benchmark (≈18 ms to record one pre-generated message) is checked
//!   against the paper-2005 latency model by the tests of [`passertions`].
//!
//! Per permutation the experiment records **six p-assertions** covering the activities of the
//! measure workflow (the paper: "each permutation involves the creation of 6 records"). The
//! paper grouped permutations 100-to-a-script for Condor; here the sweep instead runs one
//! measurement at a time per worker thread on every hardware thread (see [`experiment`]), and
//! the 100-to-a-script granularity lives on only in the `ablations` example's scheduling
//! overhead model ([`overhead::GranularityPartitioner`]).

pub mod activities;
pub mod experiment;
pub mod figure4;
pub mod measure;
pub mod overhead;
pub mod passertions;
pub mod results;

pub use experiment::{
    ExperimentConfig, ExperimentReport, ExperimentRunner, RunRecording, StoreAccess,
    StoreDeployment,
};
pub use measure::MeasureOutcome;
pub use pasoa_cluster::StoreHandle;
pub use results::{CompressibilityResult, SizesTable};
