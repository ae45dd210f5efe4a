//! Shared deployment and workload setup for the cluster-throughput measurements.
//!
//! The `cluster_throughput` Criterion bench and the feed / observability baseline examples
//! build their deployments and load here, so they all measure the same workload.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pasoa_cluster::{ClusterConfig, LoadGenConfig, PreservCluster};
use pasoa_preserv::{KvBackend, PreservService, StoreError};
use pasoa_wire::ServiceHost;

/// Concurrent recorder clients driven against every deployment.
pub const CLIENTS: usize = 8;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory, removed on drop.
pub struct TempDirGuard {
    /// The directory's path; created lazily by whatever backend opens inside it.
    pub path: PathBuf,
}

impl TempDirGuard {
    /// Reserve a fresh scratch directory for `tag`.
    pub fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "pasoa-bench-cluster-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDirGuard { path }
    }
}

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One `PreservService` behind the well-known store name: the paper's single-store deployment.
pub fn single_host(database: bool) -> (ServiceHost, Option<TempDirGuard>) {
    let host = ServiceHost::new();
    if database {
        let guard = TempDirGuard::new("single");
        let service = Arc::new(PreservService::with_database_backend(&guard.path).unwrap());
        service.register(&host);
        (host, Some(guard))
    } else {
        let service = Arc::new(PreservService::in_memory().unwrap());
        service.register(&host);
        (host, None)
    }
}

/// An unreplicated `shards`-shard cluster.
pub fn cluster_host(shards: usize, database: bool) -> (ServiceHost, Option<TempDirGuard>) {
    let host = ServiceHost::new();
    if database {
        let guard = TempDirGuard::new("cluster");
        let _cluster = PreservCluster::deploy_database(&host, &guard.path, shards).unwrap();
        (host, Some(guard))
    } else {
        let _cluster = PreservCluster::deploy_in_memory(&host, shards).unwrap();
        (host, None)
    }
}

/// A replicated cluster; on the database backend every shard opens durable (fsync per batch).
pub fn replicated_host(
    shards: usize,
    replication: usize,
    database: bool,
) -> (ServiceHost, Option<TempDirGuard>) {
    let host = ServiceHost::new();
    if database {
        let guard = TempDirGuard::new("replicated");
        let dir = guard.path.clone();
        let _cluster = PreservCluster::deploy_with(
            &host,
            ClusterConfig::replicated(shards, replication),
            move |shard| {
                let backend = KvBackend::open_durable(dir.join(format!("shard-{shard}")))
                    .map_err(StoreError::Backend)?;
                Ok(Arc::new(backend) as _)
            },
        )
        .unwrap();
        (host, Some(guard))
    } else {
        let _cluster = PreservCluster::deploy_replicated(&host, shards, replication).unwrap();
        (host, None)
    }
}

/// The standard workload at a given client-side batch size (1 = the paper's synchronous mode).
pub fn load_config(batch_size: usize) -> LoadGenConfig {
    LoadGenConfig {
        clients: CLIENTS,
        sessions_per_client: 2,
        assertions_per_session: 64,
        batch_size,
        payload_bytes: 128,
        ..Default::default()
    }
}
