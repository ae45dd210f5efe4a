//! # pasoa-experiment — the protein compressibility experiment
//!
//! This crate assembles the paper's application: the comparative protein compressibility
//! workflow of Figure 1 (Collate Sample → Encode by Groups → Shuffle/Measure over N
//! permutations → Collate Sizes → Average) and the Measure sub-workflow of Figure 2
//! (gzip/ppmz compression → Measure Size → Collate Sizes), executed over the workflow
//! substrate with provenance recorded through PReP into PReServ.
//!
//! The experiment is the workload of the paper's evaluation:
//!
//! * §6 "Recording Evaluation" / Figure 4 — the workflow is run with samples of ~100 KB and an
//!   increasing number of permutations under four recording configurations (none /
//!   asynchronous / synchronous / synchronous with extra actor provenance). [`figure4`]
//!   regenerates that series.
//! * the prose micro-benchmark (≈18 ms to record one pre-generated message) is checked
//!   against the paper-2005 latency model with [`passertions::pregenerated_record_message`].
//!
//! Per permutation the experiment records **six p-assertions** covering the activities of the
//! measure workflow (the paper: "each permutation involves the creation of 6 records"), and
//! permutations are grouped 100-to-a-script before being handed to the scheduler, mirroring the
//! paper's granularity partitioning.

pub mod activities;
pub mod experiment;
pub mod figure4;
pub mod measure;
pub mod passertions;
pub mod pipeline;
pub mod results;

pub use experiment::{
    ExperimentConfig, ExperimentReport, ExperimentRunner, RunRecording, StoreAccess,
    StoreDeployment,
};
pub use measure::MeasureOutcome;
pub use pasoa_cluster::StoreHandle;
pub use pipeline::{
    build_pipeline_dag, MeasureSliceActivity, PipelineConfig, PipelineReport, PipelineRunner,
};
pub use results::{CompressibilityResult, SizesTable};
