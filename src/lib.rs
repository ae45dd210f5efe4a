//! # pasoa — reproduction of "Recording and Using Provenance in a Protein Compressibility Experiment"
//!
//! This facade crate re-exports the workspace members so applications can depend on a single
//! crate:
//!
//! * [`model`] (`pasoa-core`) — p-assertions, groups, the PReP protocol and recording clients;
//! * [`preserv`] — the provenance store service with memory / file / database backends;
//! * [`query`] — the indexed query engine: planner, executor, `Explain` and lineage closure;
//! * [`registry`] — the Grimoires-style semantic registry;
//! * [`wire`] — envelopes, the simulated transport and latency models;
//! * [`net`] — the real TCP transport: framed envelopes, `NetServer`, pooled `NetClient`;
//! * [`obs`] — the observability substrate: metrics registry, span tracing, stats snapshots;
//! * [`kvdb`] — the embedded key-value store backing the database backend;
//! * [`compress`] — gzip-, bzip2- and ppm-class codecs;
//! * [`bioseq`] — sequences, group codings, shuffling and synthetic data;
//! * [`dag`] — the parallel DAG executor: typed task graphs, bounded worker pool, retry and
//!   skip policies, every state transition recorded as p-assertions;
//! * [`feed`] — the durable asynchronous subscription tier: provenance change feeds with
//!   per-subscriber job queues, capped backoff redelivery and replay-on-reconnect;
//! * [`experiment`] — the protein compressibility experiment and the Figure 4 harness;
//! * [`usecases`] — execution comparison, semantic validation and the Figure 5 harness.
//!
//! See `examples/quickstart.rs` for an end-to-end tour: run the experiment, record provenance,
//! then reason over it.

pub use pasoa_bioseq as bioseq;
pub use pasoa_cluster as cluster;
pub use pasoa_compress as compress;
pub use pasoa_core as model;
pub use pasoa_dag as dag;
pub use pasoa_experiment as experiment;
pub use pasoa_feed as feed;
pub use pasoa_kvdb as kvdb;
pub use pasoa_net as net;
pub use pasoa_obs as obs;
pub use pasoa_preserv as preserv;
pub use pasoa_query as query;
pub use pasoa_registry as registry;
pub use pasoa_sim as sim;
pub use pasoa_usecases as usecases;
pub use pasoa_wire as wire;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Touch one item from each re-export so a missing wiring fails to compile.
        let _ = crate::model::PROVENANCE_STORE_SERVICE;
        let _ = crate::compress::Method::ALL;
        let _ = crate::bioseq::AMINO_ACIDS;
        let _ = crate::wire::LatencyModel::zero();
        let _ = crate::net::DEFAULT_MAX_FRAME_BYTES;
        let _ = crate::experiment::RunRecording::ALL;
        let _ = crate::dag::FailurePolicy::FailFast;
        let _ = crate::feed::FeedFilter::All;
    }
}
