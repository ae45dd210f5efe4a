//! # pasoa-workflow — a VDT/DAGMan-style workflow substrate with provenance hooks
//!
//! The paper runs its application under the Virtual Data Toolkit: workflows are DAGs of
//! activities scheduled by Condor, with the processing of permutations "partitioned into
//! scripts that provided a sufficient granularity of computation (the order of 15 minutes) in
//! order to offset the overhead of grid scheduling and file transfer". This crate is the
//! from-scratch substitute for that substrate:
//!
//! * [`data`] — the data items that flow along workflow edges (re-exported from `pasoa-dag`);
//! * [`activity`] — the [`activity::Activity`] trait every workflow step implements, plus the
//!   invocation context through which activities see the provenance recorder (re-exported
//!   from `pasoa-dag`);
//! * [`dag`] — workflow definitions: named nodes and data-flow edges, lowered onto `pasoa-dag`
//!   ([`dag::Workflow::to_dag`]), which owns ordering and cycle rejection;
//! * [`scheduler`] — the grid-overhead model (scheduling delay + data staging) and the
//!   granularity partitioner that groups fine-grained tasks into coarser jobs;
//! * [`engine`] — the execution engine: lowers the workflow onto the `pasoa-dag` parallel
//!   executor (independent nodes run concurrently on a bounded thread pool), invokes each
//!   activity as an actor, and records interaction, actor-state and relationship p-assertions
//!   for every invocation through whichever [`pasoa_core::ProvenanceRecorder`] is configured.
//!
//! The engine is deliberately unaware of *how* provenance is delivered (none / asynchronous /
//! synchronous): that is the recorder's concern, which is exactly the separation the paper's
//! architecture argues for.

pub mod activity;
pub mod dag;
pub mod data;
pub mod engine;
pub mod scheduler;

pub use activity::{Activity, ActivityContext, ActivityError, FnActivity};
pub use dag::{NodeId, Workflow, WorkflowError};
pub use data::DataItem;
pub use engine::{EngineConfig, ExecutionReport, WorkflowEngine};
pub use scheduler::{GranularityPartitioner, OverheadMode, OverheadModel};
