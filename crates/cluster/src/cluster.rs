//! Cluster deployment: N `PreservService` shards plus a [`ShardRouter`] on one [`ServiceHost`]
//! — reachable in process, or over real TCP sockets when the configuration asks for it.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use parking_lot::RwLock;

use pasoa_core::ids::SessionId;
use pasoa_core::passertion::RecordedAssertion;
use pasoa_core::prep::{QueryRequest, StoreStatistics};
use pasoa_core::Group;
use pasoa_feed::{FeedClock, FeedConfig, FeedQueue, FeedService, StoreLineageResolver};
use pasoa_net::{
    register_remote, NetClient, NetClientConfig, NetServer, NetServerConfig, NetServerStats,
};
use pasoa_obs::{RegistrySnapshot, StatsSnapshot};
use pasoa_preserv::{
    LineageGraph, MemoryBackend, PreservService, ProvenanceStore, ServiceConfig, StorageBackend,
    StoreError,
};
use pasoa_wire::{Envelope, ServiceHost, StatsService, STATS_SNAPSHOT_ACTION};
use serde::{Deserialize, Serialize};

use crate::merge;
use crate::router::ShardRouter;

/// How the cluster's services are reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterTransport {
    /// Router and shards are plain in-process services on the caller's host; internal hops
    /// dispatch directly. The fastest configuration, and the only one available to the
    /// deterministic simulation harness.
    #[default]
    InProcess,
    /// Every shard runs behind its own TCP listener on loopback, the router reaches them
    /// through pooled [`pasoa_net::NetClient`] proxies, and the router itself is served over
    /// TCP — the caller's host holds only a proxy under the well-known store name. This is
    /// the paper's deployment shape (separate communicating processes) with every message
    /// really crossing a socket.
    Tcp,
}

/// Change-feed deployment options: when present on a [`ClusterConfig`], every shard opens a
/// durable [`FeedQueue`] over its own backend, wires it into the store's record batches (so
/// acked writes durably enqueue their change events in the same backend commit), and answers
/// the feed wire actions on its shard service name.
#[derive(Debug, Clone, Default)]
pub struct FeedOptions {
    /// Queue tuning (cap, batch size, backoff).
    pub config: FeedConfig,
    /// The clock driving backoff deadlines (the simulation harness injects a virtual one).
    pub clock: FeedClock,
}

/// Configuration of a cluster deployment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of initial shards.
    pub shards: usize,
    /// Router batching threshold (assertions per shard buffer before a flush).
    pub batch_size: usize,
    /// Virtual nodes per shard on the hash ring.
    pub virtual_nodes: usize,
    /// Total copies of every flushed batch (primary + replicas); 1 disables replication.
    pub replication: usize,
    /// Ceiling on the p-assertions a single (unpaginated) query response may carry. A merged
    /// answer above this errors loudly, naming the paginated path, rather than silently
    /// truncating or shipping an unbounded message.
    pub max_response_assertions: usize,
    /// Name the router registers under (what clients address).
    pub service_name: String,
    /// Prefix for shard service names; shard `i` registers as `<prefix><i>`.
    pub shard_name_prefix: String,
    /// Whether envelopes travel in process or over TCP sockets.
    pub transport: ClusterTransport,
    /// Worker threads per TCP server (TCP transport only) — the bound on concurrently
    /// *served* connections per listener, since a worker is pinned to its connection until
    /// it closes or idles out. Size at or above the expected concurrently-open client
    /// connections (each recording client typically pins one pooled connection on the
    /// router's server, and each concurrent router worker one per shard server).
    pub net_workers: usize,
    /// Change-feed tier: `Some` deploys a durable [`FeedQueue`] per shard (see
    /// [`FeedOptions`]); `None` (the default) deploys no feed at all.
    pub feed: Option<FeedOptions>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            batch_size: 64,
            virtual_nodes: 64,
            replication: 1,
            max_response_assertions: crate::router::DEFAULT_MAX_RESPONSE_ASSERTIONS,
            service_name: pasoa_core::PROVENANCE_STORE_SERVICE.to_string(),
            shard_name_prefix: "provenance-store-shard-".to_string(),
            transport: ClusterTransport::InProcess,
            net_workers: 16,
            feed: None,
        }
    }
}

impl ClusterConfig {
    /// Default configuration with `shards` initial shards.
    pub fn with_shards(shards: usize) -> Self {
        ClusterConfig {
            shards: shards.max(1),
            ..Default::default()
        }
    }

    /// Configuration with `shards` initial shards and `replication` total copies per batch.
    pub fn replicated(shards: usize, replication: usize) -> Self {
        ClusterConfig {
            shards: shards.max(1),
            replication: replication.max(1),
            ..Default::default()
        }
    }

    /// Switch this configuration to the TCP transport.
    pub fn over_tcp(mut self) -> Self {
        self.transport = ClusterTransport::Tcp;
        self
    }

    /// Enable the change-feed tier with the given options.
    pub fn with_feed(mut self, options: FeedOptions) -> Self {
        self.feed = Some(options);
        self
    }
}

/// A deployed provenance store cluster: the shards, their router, and direct query access.
pub struct PreservCluster {
    /// The caller-facing host (where clients' transports are bound).
    host: ServiceHost,
    /// The host the router and shard endpoints live on: identical to `host` for the
    /// in-process transport, a private fabric holding the shard proxies for TCP.
    fabric: ServiceHost,
    router: Arc<ShardRouter>,
    shards: RwLock<Vec<Arc<PreservService>>>,
    /// Per-shard feed queues, in shard-index order (empty when the feed tier is disabled).
    feeds: RwLock<Vec<Arc<FeedQueue>>>,
    /// Per-shard TCP servers, in shard-index order (empty for the in-process transport). A
    /// shard's backend host serves only that shard, so shutting its server down is
    /// indistinguishable from the shard's machine dying.
    net: RwLock<Vec<NetServer>>,
    /// The router's own TCP server (None for the in-process transport).
    router_server: Option<NetServer>,
    config: ClusterConfig,
}

impl PreservCluster {
    /// Deploy a cluster of in-memory shards on `host` and register the router under the
    /// provenance store's well-known service name.
    pub fn deploy_in_memory(host: &ServiceHost, shards: usize) -> Result<Arc<Self>, StoreError> {
        Self::deploy_with(host, ClusterConfig::with_shards(shards), memory_backend)
    }

    /// Deploy a fault-tolerant in-memory cluster: every flushed batch is committed on its
    /// primary shard plus `replication - 1` replica holds, and killing any single shard loses
    /// no acked p-assertion (for `replication` ≥ 2).
    pub fn deploy_replicated(
        host: &ServiceHost,
        shards: usize,
        replication: usize,
    ) -> Result<Arc<Self>, StoreError> {
        let config = ClusterConfig::replicated(shards, replication);
        Self::deploy_with(host, config, memory_backend)
    }

    /// Deploy a cluster whose shard `i` persists in `dir/shard-i` through the database
    /// backend (the paper's Berkeley-DB-class configuration, horizontally sharded).
    pub fn deploy_database(
        host: &ServiceHost,
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<Arc<Self>, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        Self::deploy_with(host, ClusterConfig::with_shards(shards), move |shard| {
            let backend = pasoa_preserv::KvBackend::open(dir.join(format!("shard-{shard}")))
                .map_err(StoreError::Backend)?;
            Ok(Arc::new(backend) as Arc<dyn StorageBackend>)
        })
    }

    /// Deploy an in-memory cluster whose every envelope really crosses a TCP socket: each
    /// shard listens on its own loopback port, the router reaches shards through pooled
    /// socket clients, and the caller's host holds a TCP proxy to the router under the
    /// provenance store's well-known name. See [`ClusterTransport::Tcp`].
    pub fn deploy_tcp(host: &ServiceHost, shards: usize) -> Result<Arc<Self>, StoreError> {
        let config = ClusterConfig::with_shards(shards).over_tcp();
        Self::deploy_with(host, config, memory_backend)
    }

    /// [`Self::deploy_tcp`] with synchronous replication: killing any single shard's server —
    /// a real socket kill, not an injected fault — loses no acked p-assertion (for
    /// `replication` ≥ 2).
    pub fn deploy_tcp_replicated(
        host: &ServiceHost,
        shards: usize,
        replication: usize,
    ) -> Result<Arc<Self>, StoreError> {
        let config = ClusterConfig::replicated(shards, replication).over_tcp();
        Self::deploy_with(host, config, memory_backend)
    }

    /// Deploy a cluster with an explicit configuration and per-shard backend factory.
    pub fn deploy_with(
        host: &ServiceHost,
        config: ClusterConfig,
        backend_for_shard: impl Fn(usize) -> Result<Arc<dyn StorageBackend>, StoreError>,
    ) -> Result<Arc<Self>, StoreError> {
        assert!(config.shards >= 1, "a cluster needs at least one shard");
        // For TCP the router and the shard proxies live on a private fabric host: the
        // caller's host sees only the router's proxy, exactly as a client machine sees only
        // the store's published endpoint.
        let fabric = match config.transport {
            ClusterTransport::InProcess => host.clone(),
            ClusterTransport::Tcp => ServiceHost::new(),
        };
        let mut shards = Vec::with_capacity(config.shards);
        let mut feeds = Vec::new();
        let mut router_shards = Vec::with_capacity(config.shards);
        let mut net = Vec::with_capacity(config.shards);
        for index in 0..config.shards {
            let backend = backend_for_shard(index)?;
            let (name, service, server) =
                start_shard(&fabric, &config, index, Arc::clone(&backend))?;
            net.extend(server);
            if let Some(options) = &config.feed {
                feeds.push(attach_feed(&service, backend, options)?);
            }
            router_shards.push((name, Arc::clone(&service)));
            shards.push(service);
        }
        let router = Arc::new(ShardRouter::new(&fabric, router_shards, &config));
        router.register(&fabric, &config.service_name);
        // The well-known `stats` service reports the fabric's whole registry — the router's
        // child plus (in process) every shard's. Over TCP the router's server makes it
        // remotely queryable on the same port that serves recording traffic.
        StatsService::install(&fabric, &config.service_name);
        let router_server = match config.transport {
            ClusterTransport::InProcess => None,
            ClusterTransport::Tcp => {
                let server = NetServer::bind(("127.0.0.1", 0), &fabric, net_server_config(&config))
                    .map_err(bind_to_store)?;
                // The caller-side router proxy deliberately carries NO failure notice,
                // unlike the shard proxies on the fabric. A shard-proxy kill feeds the
                // router's failure detection, which owns failover and recovery; nothing
                // watches the caller's injector, and a killed name short-circuits dispatch
                // before the proxy could ever try again — so a notice here would turn one
                // transient socket error into a permanent client-side outage. Without it,
                // each failed call surfaces as its own `ServiceDown` and the next call
                // re-attempts on a fresh connection.
                let proxy = Arc::new(
                    NetClient::new(
                        server.local_addr(),
                        &config.service_name,
                        NetClientConfig::default(),
                    )
                    // Callers' retries and pool evictions land in the caller host's
                    // registry, where a co-located load generator reads them.
                    .with_observability(host.registry()),
                );
                host.register(
                    &config.service_name,
                    proxy as Arc<dyn pasoa_wire::MessageHandler>,
                );
                Some(server)
            }
        };
        Ok(Arc::new(PreservCluster {
            host: host.clone(),
            fabric,
            router,
            shards: RwLock::new(shards),
            feeds: RwLock::new(feeds),
            net: RwLock::new(net),
            router_server,
            config,
        }))
    }

    /// The router in front of the shards.
    pub fn router(&self) -> &Arc<ShardRouter> {
        &self.router
    }

    /// The host the cluster is deployed on.
    pub fn host(&self) -> &ServiceHost {
        &self.host
    }

    /// The host the router and shard endpoints are registered on: the caller's host for the
    /// in-process transport, the private fabric (holding the shard TCP proxies) for TCP.
    pub fn fabric(&self) -> &ServiceHost {
        &self.fabric
    }

    /// The configured transport.
    pub fn transport(&self) -> ClusterTransport {
        self.config.transport
    }

    /// The address clients connect to for the router, when deployed over TCP.
    pub fn router_addr(&self) -> Option<SocketAddr> {
        self.router_server.as_ref().map(|s| s.local_addr())
    }

    /// The loopback address `shard`'s server listens on, when deployed over TCP.
    pub fn shard_server_addr(&self, shard: usize) -> Option<SocketAddr> {
        self.net.read().get(shard).map(|server| server.local_addr())
    }

    /// Kill `shard`'s TCP server — a *real* socket kill: in-flight requests drain, further
    /// connections are refused, and the router discovers the death through connection errors
    /// mapped onto `ServiceDown`, exactly as it discovers injected faults. Returns whether a
    /// server existed and was still up. (TCP transport only.)
    pub fn shutdown_shard_server(&self, shard: usize) -> bool {
        let net = self.net.read();
        match net.get(shard) {
            Some(server) if !server.is_shut_down() => {
                server.shutdown();
                true
            }
            _ => false,
        }
    }

    /// Scatter-gather every live shard's observability snapshot plus the router's own.
    ///
    /// Each shard is asked with the same [`STATS_SNAPSHOT_ACTION`] envelope the `stats`
    /// service answers everywhere; dispatched on the fabric, the request is handled in process
    /// or crosses the shard's TCP socket, whichever the deployment uses — so the gathered
    /// structure is identical across transports (the acceptance bar for remote monitoring: no
    /// side channel, no transport-specific shape).
    pub fn stats_snapshot(&self) -> Result<ClusterStatsSnapshot, StoreError> {
        let names = self.router.shard_names();
        let mut shards = Vec::new();
        for shard in self.router.live_shards() {
            let response = self
                .fabric
                .dispatch(Envelope::request(&names[shard], STATS_SNAPSHOT_ACTION))
                .map_err(wire_to_store)?;
            shards.push(pasoa_wire::stats::decode_snapshot(&response).map_err(wire_to_store)?);
        }
        Ok(ClusterStatsSnapshot {
            router: self.router.stats_snapshot(),
            shards,
        })
    }

    /// Traffic counters of every TCP server — shards in index order, then the router's —
    /// as `(service name, stats)`. Empty for the in-process transport.
    pub fn net_server_stats(&self) -> Vec<(String, NetServerStats)> {
        let names = self.router.shard_names();
        let net = self.net.read();
        let mut stats: Vec<(String, NetServerStats)> = names
            .into_iter()
            .zip(net.iter().map(NetServer::stats))
            .collect();
        if let Some(server) = &self.router_server {
            stats.push((self.config.service_name.clone(), server.stats()));
        }
        stats
    }

    /// Number of shards currently deployed.
    pub fn shard_count(&self) -> usize {
        self.shards.read().len()
    }

    /// Direct handles to every shard's store, in shard-index order — including dead shards'
    /// stores (useful to inspect what a failed shard held). Queries should use
    /// [`Self::live_stores`] so promoted data is seen exactly once.
    pub fn shard_stores(&self) -> Vec<Arc<ProvenanceStore>> {
        self.shards
            .read()
            .iter()
            .map(|service| service.store())
            .collect()
    }

    /// Store handles of live shards only, in shard-index order.
    pub fn live_stores(&self) -> Vec<Arc<ProvenanceStore>> {
        self.router.live_stores()
    }

    /// Add one shard (in-memory backend), register it, and extend the router's ring: the
    /// elasticity path. Only future sessions map to the new shard. Returns its service name.
    pub fn add_shard(&self) -> Result<String, StoreError> {
        self.add_shard_with(Arc::new(MemoryBackend::new()))
    }

    /// Add one shard over an explicit backend. Returns its service name. Under the TCP
    /// transport the new shard gets its own listening server, like the initial shards.
    pub fn add_shard_with(&self, backend: Arc<dyn StorageBackend>) -> Result<String, StoreError> {
        // The shards write lock is held across the router update so concurrent add_shard
        // calls cannot interleave and leave `self.shards` ordered differently from the
        // router's ring indices.
        let mut shards = self.shards.write();
        // Make the service reachable before the router can route to it.
        let (name, service, server) = start_shard(
            &self.fabric,
            &self.config,
            shards.len(),
            Arc::clone(&backend),
        )?;
        if let Err(error) = self.router.add_shard(name.clone(), Arc::clone(&service)) {
            // Roll back reachability: the fabric must not keep a proxy (or service) for a
            // shard the router never adopted, and `self.net` must stay index-aligned with
            // `self.shards` — pushing the server before this point would leave
            // `shard_server_addr`/`shutdown_shard_server` resolving wrong servers forever
            // after one failed add. (The server's listener shuts down when it drops.)
            self.fabric.deregister(&name);
            return Err(wire_to_store(error));
        }
        self.net.write().extend(server);
        if let Some(options) = &self.config.feed {
            self.feeds
                .write()
                .push(attach_feed(&service, backend, options)?);
        }
        shards.push(service);
        Ok(name)
    }

    /// Per-shard feed queues, in shard-index order (empty when the feed tier is disabled).
    pub fn feed_queues(&self) -> Vec<Arc<FeedQueue>> {
        self.feeds.read().clone()
    }

    /// Flush every buffered batch down to the shards. On failure the error is
    /// [`StoreError::Unavailable`], carrying the affected session ids as structured data so
    /// callers can retry selectively.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.router.flush().map_err(flush_to_store)
    }

    /// Fetch one bounded page of an assertion-producing query: each live shard serves at most
    /// `page_size` items past the cursor, and the router merges them (see
    /// [`ShardRouter::query_page`] for the fence rule and cursor stability across
    /// `add_shard`). Page through until `next` is `None` to stream an arbitrarily large
    /// result set in bounded messages.
    pub fn query_page(
        &self,
        paged: &pasoa_core::prep::PagedQuery,
    ) -> Result<pasoa_core::prep::QueryPage, StoreError> {
        self.router.query_page(paged).map_err(wire_to_store)
    }

    // -- Direct scatter-gather queries (bypassing the wire, for reasoners and tests) --------

    /// Flush (read-your-writes), then ask every live shard's store the same question, in
    /// shard order. The gather holds the router's failover lock shared so a concurrent
    /// promotion cannot replay a dying shard's data into a successor mid-iteration (which
    /// would double it).
    fn gather<T>(
        &self,
        ask: impl Fn(&ProvenanceStore) -> Result<T, StoreError>,
    ) -> Result<Vec<T>, StoreError> {
        self.flush()?;
        let _gather = self.router.gather_guard();
        self.live_stores().iter().map(|store| ask(store)).collect()
    }

    /// All p-assertions recorded under `session`, merged identically to a single store:
    /// each shard decodes its own documents, the merge orders them by sort key.
    pub fn assertions_for_session(
        &self,
        session: &SessionId,
    ) -> Result<Vec<RecordedAssertion>, StoreError> {
        let request = QueryRequest::BySession(session.clone());
        let per_shard = self.gather(|store| store.decode_documents(store.documents(&request)?))?;
        Ok(merge::merge_documents(per_shard)
            .into_iter()
            .map(|(_, recorded)| recorded)
            .collect())
    }

    /// Merged statistics across every live shard.
    pub fn statistics(&self) -> Result<StoreStatistics, StoreError> {
        self.gather(|store| Ok(store.statistics()))
            .map(merge::merge_statistics)
    }

    /// Groups of a kind across every live shard, in single-store key order.
    pub fn groups_by_kind(&self, kind: &str) -> Result<Vec<Group>, StoreError> {
        self.gather(|store| store.groups_by_kind(kind))
            .map(merge::merge_groups)
    }

    /// All interaction keys across live shards, globally sorted, optionally limited.
    pub fn list_interactions(
        &self,
        limit: Option<usize>,
    ) -> Result<Vec<pasoa_core::ids::InteractionKey>, StoreError> {
        self.gather(|store| store.list_interactions(None))
            .map(|per_shard| merge::merge_interactions(per_shard, limit))
    }

    /// The session's derivation graph, merged across live shards (normally resident on one
    /// shard, thanks to session co-location).
    pub fn lineage_session(&self, session: &SessionId) -> Result<LineageGraph, StoreError> {
        self.gather(|store| LineageGraph::trace_session(store, session))
            .map(merge::merge_lineage)
    }
}

/// Observability snapshots gathered across one cluster deployment: the router's registry
/// plus every live shard's, in shard-index order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterStatsSnapshot {
    /// The router's own snapshot (flush batching, merge skips, trace events).
    pub router: StatsSnapshot,
    /// Per-shard snapshots as served by each shard's `stats-snapshot` responder.
    pub shards: Vec<StatsSnapshot>,
}

impl ClusterStatsSnapshot {
    /// One registry view over the whole cluster: counters summed, histograms bucket-merged
    /// (percentiles identical to a single registry over the union), events concatenated.
    pub fn merged(&self) -> RegistrySnapshot {
        let mut merged = self.router.registry.clone();
        for shard in &self.shards {
            merged.merge(&shard.registry);
        }
        merged
    }
}

/// The backend factory of the in-memory deployments.
fn memory_backend(_shard: usize) -> Result<Arc<dyn StorageBackend>, StoreError> {
    Ok(Arc::new(MemoryBackend::new()))
}

/// Bring shard `index` up over `backend` and make it reachable on `fabric`. In process the
/// service registers on the fabric itself. Over TCP the shard gets a private backend host (so
/// its server exposes exactly that shard, as a dedicated machine would), a loopback listener
/// (the returned server), and a pooled proxy under its name on the fabric so the router
/// reaches it through real sockets; connection failures are reported to the fabric's fault
/// injector, which is what the router's failure detection scans. Either way the shard's
/// instruments (and its backend's kvdb latencies) fold into the registry of the host actually
/// serving it — the tree a `stats` request against that host reports, over TCP alongside the
/// server's own `net.server.*` counters.
fn start_shard(
    fabric: &ServiceHost,
    config: &ClusterConfig,
    index: usize,
    backend: Arc<dyn StorageBackend>,
) -> Result<(String, Arc<PreservService>, Option<NetServer>), StoreError> {
    let name = format!("{}{index}", config.shard_name_prefix);
    let service = PreservService::with_backend(backend)?.with_config(ServiceConfig {
        service_name: name.clone(),
    });
    let serving_host = match config.transport {
        ClusterTransport::InProcess => fabric.clone(),
        ClusterTransport::Tcp => ServiceHost::new(),
    };
    let service = Arc::new(service.with_observability(serving_host.registry()));
    service.register(&serving_host);
    let server = match config.transport {
        ClusterTransport::InProcess => None,
        ClusterTransport::Tcp => {
            StatsService::install(&serving_host, &name);
            let server =
                NetServer::bind(("127.0.0.1", 0), &serving_host, net_server_config(config))
                    .map_err(bind_to_store)?;
            let addr = server.local_addr();
            register_remote(fabric, &name, addr, NetClientConfig::default());
            Some(server)
        }
    };
    Ok((name, service, server))
}

/// Server tuning for cluster deployments: [`ClusterConfig::net_workers`] workers (default
/// 16 — headroom over the standard 8-recorder workloads); the library's default timeouts
/// (30 s read / 10 s write) bound how long a wedged peer can pin a worker.
fn net_server_config(config: &ClusterConfig) -> NetServerConfig {
    NetServerConfig {
        workers: config.net_workers.max(1),
        ..Default::default()
    }
}

/// Open a shard's feed queue over the shard's own backend and wire all three couplings: the
/// stager into the store's record batches, the lineage resolver onto the store's edge index,
/// and the feed wire actions onto the shard's service name. Instruments land in the shard
/// service's registry, so `stats-snapshot` (and [`ClusterStatsSnapshot::merged`]) report them.
fn attach_feed(
    service: &Arc<PreservService>,
    backend: Arc<dyn StorageBackend>,
    options: &FeedOptions,
) -> Result<Arc<FeedQueue>, StoreError> {
    let queue = FeedQueue::open(
        backend,
        options.config.clone(),
        options.clock.clone(),
        service.registry(),
    )
    .map_err(feed_to_store)?;
    queue.set_resolver(Arc::new(StoreLineageResolver::new(service.store())));
    service.store().set_record_stager(Some(queue.stager()));
    service.set_feed_handler(Arc::new(FeedService::new(Arc::clone(&queue))));
    Ok(queue)
}

fn feed_to_store(error: pasoa_feed::FeedError) -> StoreError {
    StoreError::Corrupt(format!("feed deployment failed: {error}"))
}

fn bind_to_store(error: std::io::Error) -> StoreError {
    StoreError::Unavailable {
        failed_sessions: Vec::new(),
        reason: format!("tcp listener bind failed: {error}"),
    }
}

fn wire_to_store(error: pasoa_wire::WireError) -> StoreError {
    StoreError::Corrupt(format!("cluster wire failure: {error}"))
}

fn flush_to_store(error: crate::router::FlushError) -> StoreError {
    StoreError::Unavailable {
        reason: error.error.to_string(),
        failed_sessions: error.failed_sessions,
    }
}

/// Uniform query access over a single store or a cluster — what the experiment harness hands
/// to reasoners so Figure 4 can run unchanged against either deployment.
#[derive(Clone)]
pub enum StoreHandle {
    /// One `ProvenanceStore`.
    Single(Arc<ProvenanceStore>),
    /// A sharded cluster.
    Cluster(Arc<PreservCluster>),
}

impl StoreHandle {
    /// All p-assertions recorded under `session`.
    pub fn assertions_for_session(
        &self,
        session: &SessionId,
    ) -> Result<Vec<RecordedAssertion>, StoreError> {
        match self {
            StoreHandle::Single(store) => store.assertions_for_session(session),
            StoreHandle::Cluster(cluster) => cluster.assertions_for_session(session),
        }
    }

    /// Store statistics (merged across shards for a cluster).
    pub fn statistics(&self) -> Result<StoreStatistics, StoreError> {
        match self {
            StoreHandle::Single(store) => Ok(store.statistics()),
            StoreHandle::Cluster(cluster) => cluster.statistics(),
        }
    }

    /// Groups of a kind.
    pub fn groups_by_kind(&self, kind: &str) -> Result<Vec<Group>, StoreError> {
        match self {
            StoreHandle::Single(store) => store.groups_by_kind(kind),
            StoreHandle::Cluster(cluster) => cluster.groups_by_kind(kind),
        }
    }

    /// The session's derivation graph.
    pub fn lineage_session(&self, session: &SessionId) -> Result<LineageGraph, StoreError> {
        match self {
            StoreHandle::Single(store) => LineageGraph::trace_session(store, session),
            StoreHandle::Cluster(cluster) => cluster.lineage_session(session),
        }
    }
}
