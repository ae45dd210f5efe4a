//! # pasoa-dag
//!
//! DAG workflow execution with exact provenance capture.
//!
//! The paper's protein-compressibility experiment is a multi-stage DAG (sample → sequence
//! prep → parallel compression → collation). This crate provides the execution engine that
//! runs such graphs with maximum parallelism while documenting *everything* — every node
//! start/finish, every edge relationship, every retry attempt and every skip cause — as
//! p-assertions through the standard recorder path, so that lineage closure over the recorded
//! provenance reconstructs the executed DAG bit-exactly.
//!
//! - [`spec`]: the [`DagSpec`] builder (tasks = activity closures with typed inputs/outputs,
//!   edges = data or ordering dependencies), validated acyclic at build time.
//! - [`state`]: task states (pending/running/retrying/completed/failed/skipped), failure
//!   policies (fail-fast, continue) and retry-with-backoff budgets.
//! - [`executor`]: the bounded std-thread worker pool (no async, matching the `pasoa-net`
//!   discipline) with `catch_unwind` panic containment per task.
//! - [`report`]: run reports and [`ExecutedDag`] — the normalized "what happened" view,
//!   computable independently from the report and from recorded provenance.
//! - [`task`] / [`data`]: the `Activity` trait, [`Invocation`] — the one place an activity
//!   invocation is documented with the paper's standard p-assertions, for the executor and for
//!   the experiment's Collate/Encode prefix alike — and the `DataItem` values flowing along
//!   edges.

pub mod data;
pub mod executor;
pub mod report;
pub mod spec;
pub mod state;
pub mod task;

pub use data::DataItem;
pub use executor::{DagRunError, Executor};
pub use report::{DagRunReport, ExecutedDag, TaskOutcome, TRANSITION_KIND};
pub use spec::{Dag, DagError, DagSpec, EdgeKind, TaskId};
pub use state::{ExecutorConfig, FailurePolicy, RetryPolicy, SkipCause, TaskState};
pub use task::{
    Activity, ActivityContext, ActivityError, FnActivity, Invocation, InvocationError, Invoked,
};
