//! # pasoa-cluster — a sharded provenance store tier
//!
//! The paper's PReServ is one servlet over one Berkeley DB backend. This crate grows that
//! single store into a horizontally sharded tier while keeping every existing client working
//! unchanged:
//!
//! ```text
//!   recorders / reasoners                (unchanged: they address "provenance-store")
//!            │
//!     ┌──────▼──────────┐
//!     │   ShardRouter    │   consistent hashing on SessionId + per-shard batching
//!     └──┬─────┬─────┬──┘
//!        │     │     │        scatter-gather with result merging for queries
//!   ┌────▼─┐ ┌─▼───┐ ┌▼────┐
//!   │shard0│ │shard1│ │shardN│   independent PreservService instances
//!   └──────┘ └──────┘ └──────┘   (memory or kvdb WriteBatch group-commit backends)
//! ```
//!
//! Design points:
//!
//! * **Session co-location.** Record messages route by consistent hashing on the session id,
//!   so one workflow run's p-assertions — and therefore its lineage graph — live on one shard.
//! * **Batched recording.** The router buffers per shard and flushes bulk `Record` messages;
//!   the shard store commits each batch through the backend's `put_many` group-commit path
//!   (`kvdb::WriteBatch` on the database backend).
//! * **Identical answers.** Queries flush the buffers first (read-your-writes) and then
//!   scatter-gather with merges ([`merge`]) designed to reproduce a single store's responses
//!   bit-for-bit.
//! * **Elasticity.** [`PreservCluster::add_shard`] registers a new shard and extends the hash
//!   ring; only future sessions map to it, while already-pinned sessions stay put.
//! * **Load driving.** [`LoadGenerator`] runs many concurrent recorders against whatever
//!   deployment is registered, optionally killing services mid-run, and reports what the run
//!   did: throughput, latency percentiles and per-service dispatch deltas.
//!
//! # Module map: which file owns which decision
//!
//! | file | owns |
//! |---|---|
//! | `ring.rs` | the hash: key → shard, and the ring walk from a shard |
//! | `placement.rs` | where a session lives: ring + historical rings + liveness + pins; the one placement rule `live_successors` (replica targets, promotion target, dead-owner routing, hold re-homing) |
//! | `shard.rs` | one row of the shard table: name, service, replica hold, buffer, flusher |
//! | `replication.rs` | what replicas hold: `ReplicaHold`, re-homing across a ring change, promotion replay |
//! | `merge.rs` | how per-shard answers become one (unpaged merges, the page fence) |
//! | `link.rs` | how a message reaches a shard (in process or as envelopes) |
//! | `router.rs` | message handling: `handle`, record → buffer → `send_buffer`, `flush`, `scatter` |
//! | `router/failover.rs` | what happens when a shard dies: detection, promotion, replay retries |
//! | `cluster.rs` | deployment: shards + router on one host, in process or over TCP |
//!
//! # Lock order
//!
//! Where more than one is held: the router's **failover** lock (shared around a send and its
//! replica-hold append, and around a gather; exclusive around failure handling and
//! `add_shard`), then a shard's **flusher** mutex (across a send, so same-shard batches commit
//! in buffer order), then that shard's **buffer** mutex (only to append, drain or restore —
//! never across a send), then store locks. The **table** lock (placement + shard table) is a
//! leaf taken for the length of a look-up — the data-presence probe, which takes flusher,
//! buffer and store locks, therefore runs outside it. Only a replica hold's own mutexes nest
//! inside it (`add_shard` re-homes the holds under the table write lock, `hold_snapshot`
//! reads them under the read lock); nothing takes the table lock while holding one.

pub mod cluster;
mod link;
pub mod loadgen;
pub mod merge;
mod placement;
mod replication;
pub mod ring;
pub mod router;
mod shard;

pub use cluster::{
    ClusterConfig, ClusterStatsSnapshot, ClusterTransport, FeedOptions, PreservCluster, StoreHandle,
};
pub use loadgen::{FaultPlan, LoadGenConfig, LoadGenerator, LoadReport};
pub use replication::{HeldSession, HoldSnapshot};
pub use ring::HashRing;
pub use router::{FlushError, RouterStats, ShardRouter, DEFAULT_MAX_RESPONSE_ASSERTIONS};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use pasoa_core::ids::{ActorId, IdGenerator, SessionId};
    use pasoa_core::passertion::{
        ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
    };
    use pasoa_core::prep::{PrepMessage, QueryRequest, QueryResponse};
    use pasoa_core::recorder::{AsyncRecorder, ProvenanceRecorder, SyncRecorder};
    use pasoa_core::{Group, GroupKind};
    use pasoa_wire::{Envelope, ServiceHost, TransportConfig};

    fn deploy(shards: usize) -> (ServiceHost, Arc<PreservCluster>) {
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_in_memory(&host, shards).unwrap();
        (host, cluster)
    }

    fn assertion(session: &str, i: usize) -> PAssertion {
        PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: pasoa_core::ids::InteractionKey::new(format!(
                "interaction:{session}:{i:04}"
            )),
            asserter: ActorId::new("engine"),
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(format!("script {i}")),
        })
    }

    #[test]
    fn recorders_work_against_the_cluster_unchanged() {
        let (host, cluster) = deploy(4);
        let session = SessionId::new("session:cluster-sync");
        let sync = SyncRecorder::new(
            session.clone(),
            ActorId::new("engine"),
            host.transport(TransportConfig::free()),
            IdGenerator::new("sync"),
        );
        for i in 0..20 {
            sync.record(assertion(session.as_str(), i)).unwrap();
        }
        sync.register_group(Group::new(session.as_str(), GroupKind::Session))
            .unwrap();

        let recorded = cluster.assertions_for_session(&session).unwrap();
        assert_eq!(recorded.len(), 20);
        assert_eq!(cluster.groups_by_kind("session").unwrap().len(), 1);
        // Sessions are co-located: exactly one shard holds everything.
        let occupied = cluster
            .shard_stores()
            .iter()
            .filter(|store| !store.assertions_for_session(&session).unwrap().is_empty())
            .count();
        assert_eq!(occupied, 1);
    }

    #[test]
    fn async_batches_group_commit_and_spread_sessions() {
        let (host, cluster) = deploy(4);
        let mut sessions = Vec::new();
        for s in 0..12 {
            let session = SessionId::new(format!("session:spread:{s}"));
            let recorder = AsyncRecorder::new(
                session.clone(),
                ActorId::new("engine"),
                host.transport(TransportConfig::free()),
                IdGenerator::new(format!("run{s}")),
                32,
            );
            for i in 0..25 {
                recorder.record(assertion(session.as_str(), i)).unwrap();
            }
            recorder.flush().unwrap();
            sessions.push(session);
        }
        cluster.flush().unwrap();

        // Every session is fully queryable and the population spread across shards.
        for session in &sessions {
            assert_eq!(cluster.assertions_for_session(session).unwrap().len(), 25);
        }
        let stats = cluster.statistics().unwrap();
        assert_eq!(stats.total_passertions(), 12 * 25);
        let occupied = cluster
            .shard_stores()
            .iter()
            .filter(|store| store.statistics().total_passertions() > 0)
            .count();
        assert!(
            occupied >= 2,
            "12 sessions should land on several of 4 shards"
        );
        assert!(cluster.router().stats().batches_flushed > 0);
    }

    #[test]
    fn wire_level_scatter_gather_queries() {
        let (host, cluster) = deploy(3);
        let transport = host.transport(TransportConfig::free());
        for s in 0..6 {
            let session = SessionId::new(format!("session:wire:{s}"));
            let recorder = SyncRecorder::new(
                session.clone(),
                ActorId::new("engine"),
                transport.clone(),
                IdGenerator::new(format!("wire{s}")),
            );
            for i in 0..4 {
                recorder.record(assertion(session.as_str(), i)).unwrap();
            }
        }
        let _ = &cluster;
        // Statistics aggregate over all shards, through the wire.
        let query = PrepMessage::Query(QueryRequest::Statistics);
        let envelope = Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, query.action())
            .with_json_payload(&query)
            .unwrap();
        let response: QueryResponse = transport.call(envelope).unwrap().json_payload().unwrap();
        match response {
            QueryResponse::Statistics(stats) => assert_eq!(stats.total_passertions(), 24),
            other => panic!("unexpected response {other:?}"),
        }
        // ListInteractions merges sorted across shards.
        let query = PrepMessage::Query(QueryRequest::ListInteractions { limit: None });
        let envelope = Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, query.action())
            .with_json_payload(&query)
            .unwrap();
        let response: QueryResponse = transport.call(envelope).unwrap().json_payload().unwrap();
        match response {
            QueryResponse::Interactions(keys) => {
                assert_eq!(keys.len(), 24);
                let mut sorted = keys.clone();
                sorted.sort();
                assert_eq!(
                    keys, sorted,
                    "merged interaction list must be globally sorted"
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn paginated_scatter_gather_streams_the_full_answer() {
        use pasoa_core::prep::{PageCursor, PagedQuery, QueryPage, QueryRequest};
        let (host, cluster) = deploy(3);
        let transport = host.transport(TransportConfig::free());
        for s in 0..5 {
            let session = SessionId::new(format!("session:page:{s}"));
            let recorder = SyncRecorder::new(
                session.clone(),
                ActorId::new("engine"),
                transport.clone(),
                IdGenerator::new(format!("page{s}")),
            );
            for i in 0..9 {
                recorder.record(assertion(session.as_str(), i)).unwrap();
            }
        }
        let session = SessionId::new("session:page:2");
        let full = cluster.assertions_for_session(&session).unwrap();
        assert_eq!(full.len(), 9);
        // Page through the wire with a page size that forces several round trips; the
        // concatenated pages reproduce the unpaginated answer, in order.
        let mut streamed = Vec::new();
        let mut cursor: Option<PageCursor> = None;
        let mut pages = 0;
        loop {
            let message = PrepMessage::QueryPage(PagedQuery {
                request: QueryRequest::BySession(session.clone()),
                cursor: cursor.clone(),
                page_size: 4,
            });
            let envelope =
                Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, message.action())
                    .with_json_payload(&message)
                    .unwrap();
            let page: QueryPage = transport.call(envelope).unwrap().json_payload().unwrap();
            assert!(page.assertions.len() <= 4 + cluster.shard_count());
            streamed.extend(page.assertions);
            pages += 1;
            match page.next {
                Some(next) => cursor = Some(next),
                None => break,
            }
        }
        assert_eq!(streamed, full);
        assert!(pages >= 3, "page size 4 over 9 items needs several pages");
        // Growing the cluster mid-pagination does not invalidate a cursor: existing
        // documentation never moves on add_shard.
        let first = cluster
            .query_page(&PagedQuery {
                request: QueryRequest::BySession(session.clone()),
                cursor: None,
                page_size: 4,
            })
            .unwrap();
        cluster.add_shard().unwrap();
        let mut resumed = first.assertions.clone();
        let mut cursor = first.next;
        while let Some(next) = cursor {
            let page = cluster
                .query_page(&PagedQuery {
                    request: QueryRequest::BySession(session.clone()),
                    cursor: Some(next),
                    page_size: 4,
                })
                .unwrap();
            resumed.extend(page.assertions);
            cursor = page.next;
        }
        assert_eq!(resumed, full);
        assert!(cluster.router().stats().page_queries >= pages);
    }

    #[test]
    fn oversized_page_requests_and_responses_error_loudly() {
        use pasoa_core::prep::{PagedQuery, QueryRequest, MAX_PAGE_SIZE};
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_with(
            &host,
            ClusterConfig {
                shards: 2,
                // A deliberately tiny single-response ceiling to prove the guard trips.
                max_response_assertions: 5,
                ..Default::default()
            },
            |_| Ok(Arc::new(pasoa_preserv::MemoryBackend::new()) as _),
        )
        .unwrap();
        let transport = host.transport(TransportConfig::free());
        let session = SessionId::new("session:cap");
        let recorder = SyncRecorder::new(
            session.clone(),
            ActorId::new("engine"),
            transport.clone(),
            IdGenerator::new("cap"),
        );
        for i in 0..8 {
            recorder.record(assertion(session.as_str(), i)).unwrap();
        }
        // The unpaginated wire query refuses: 8 assertions > the 5-assertion ceiling.
        let query = PrepMessage::Query(QueryRequest::BySession(session.clone()));
        let envelope = Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, query.action())
            .with_json_payload(&query)
            .unwrap();
        let err = transport.call(envelope).unwrap_err();
        assert!(
            err.to_string().contains("query-page"),
            "guard must point at the paginated path: {err}"
        );
        // The paginated path streams the same data without tripping the ceiling.
        let page = cluster
            .query_page(&PagedQuery {
                request: QueryRequest::BySession(session.clone()),
                cursor: None,
                page_size: 5,
            })
            .unwrap();
        assert!(!page.assertions.is_empty());
        // Out-of-bounds page sizes are refused outright.
        for page_size in [0usize, MAX_PAGE_SIZE + 1] {
            assert!(cluster
                .query_page(&PagedQuery {
                    request: QueryRequest::BySession(session.clone()),
                    cursor: None,
                    page_size,
                })
                .is_err());
        }
        // Non-pageable requests cannot be paginated.
        assert!(cluster
            .query_page(&PagedQuery {
                request: QueryRequest::Statistics,
                cursor: None,
                page_size: 5,
            })
            .is_err());
    }

    #[test]
    fn add_shard_remaps_only_future_sessions() {
        let (host, cluster) = deploy(2);
        let transport = host.transport(TransportConfig::free());
        // Record a session, pinning it.
        let pinned = SessionId::new("session:pinned");
        let recorder = SyncRecorder::new(
            pinned.clone(),
            ActorId::new("engine"),
            transport.clone(),
            IdGenerator::new("pin"),
        );
        recorder.record(assertion(pinned.as_str(), 0)).unwrap();
        let owner_before = cluster.router().shard_for_session(pinned.as_str());

        let name = cluster.add_shard().unwrap();
        assert_eq!(cluster.shard_count(), 3);
        assert!(host.has_service(&name));
        assert_eq!(
            cluster.router().shard_for_session(pinned.as_str()),
            owner_before
        );

        // The pinned session keeps recording to its original shard.
        recorder.record(assertion(pinned.as_str(), 1)).unwrap();
        cluster.flush().unwrap();
        assert_eq!(cluster.assertions_for_session(&pinned).unwrap().len(), 2);

        // New sessions can reach the new shard.
        let mut newest_used = false;
        for s in 0..200 {
            let shard = cluster
                .router()
                .shard_for_session(&format!("session:fresh:{s}"));
            if shard == 2 {
                newest_used = true;
                break;
            }
        }
        assert!(
            newest_used,
            "the added shard should own a share of fresh sessions"
        );
        assert_eq!(cluster.router().stats().rebalances, 1);
    }

    /// Regression: after the first `add_shard` every routed session used to be memoized into
    /// the pin map, one entry per session forever. Only placements that needed the
    /// data-presence probe (an older ring maps the session elsewhere) are remembered: the
    /// sessions that stayed sticky, and the ones the probe let move to the added shard.
    #[test]
    fn pins_grow_only_with_sessions_the_rebalance_remapped() {
        let (host, cluster) = deploy(2);
        let vnodes = ClusterConfig::default().virtual_nodes;
        let old_ring = HashRing::with_shards(2, vnodes);
        let new_ring = HashRing::with_shards(3, vnodes);
        let remapped = |id: &str| old_ring.shard_for(id) != new_ring.shard_for(id);
        let pinned = || {
            let snapshot = cluster.stats_snapshot().unwrap().merged();
            snapshot.gauge("router.pinned_sessions") as usize
        };

        let transport = host.transport(TransportConfig::free());
        let old: Vec<String> = (0..60).map(|s| format!("session:old:{s}")).collect();
        for id in &old {
            let recorder = SyncRecorder::new(
                SessionId::new(id.clone()),
                ActorId::new("engine"),
                transport.clone(),
                IdGenerator::new(id.clone()),
            );
            recorder.record(assertion(id, 0)).unwrap();
        }
        assert_eq!(
            pinned(),
            0,
            "before any rebalance placement is a pure function"
        );
        cluster.add_shard().unwrap();

        let router = cluster.router();
        for id in &old {
            assert_eq!(router.shard_for_session(id), old_ring.shard_for(id));
        }
        let sticky = old.iter().filter(|id| remapped(id)).count();
        assert!(
            sticky > 0,
            "vacuous test: the rebalance remapped no session"
        );
        assert_eq!(pinned(), sticky);

        let fresh: Vec<String> = (0..5000).map(|s| format!("session:fresh:{s}")).collect();
        for id in &fresh {
            assert_eq!(router.shard_for_session(id), new_ring.shard_for(id));
        }
        let probed = fresh.iter().filter(|id| remapped(id)).count();
        assert!(
            probed < fresh.len() / 2,
            "consistent hashing remaps a minority"
        );
        assert_eq!(pinned(), sticky + probed);
    }

    #[test]
    fn load_generator_reports_balanced_dispatch() {
        let (host, cluster) = deploy(4);
        let generator = LoadGenerator::new(
            host.clone(),
            LoadGenConfig {
                clients: 4,
                sessions_per_client: 4,
                assertions_per_session: 40,
                batch_size: 8,
                payload_bytes: 64,
                ..Default::default()
            },
        );
        let report = generator.run();
        cluster.flush().unwrap();
        assert_eq!(report.failures, 0);
        assert_eq!(report.total_assertions, 4 * 4 * 40);
        assert!(report.throughput_per_sec > 0.0);
        assert!(report.latency_p50 > std::time::Duration::ZERO);
        assert!(report.latency_p50 <= report.latency_p99);
        let stats = cluster.statistics().unwrap();
        assert_eq!(stats.total_passertions(), report.total_assertions);
        // The router fronted all the wire traffic (internal hops are direct dispatch) ...
        assert!(
            report
                .dispatch_counts
                .iter()
                .any(|(name, calls)| name == pasoa_core::PROVENANCE_STORE_SERVICE && *calls > 0),
            "dispatch counts: {:?}",
            report.dispatch_counts
        );
        // ... and the sessions spread across more than one shard store.
        let occupied = cluster
            .shard_stores()
            .iter()
            .filter(|store| store.statistics().total_passertions() > 0)
            .count();
        assert!(
            occupied >= 2,
            "16 sessions should occupy several of 4 shards"
        );
        let text = report.to_string();
        assert!(text.contains("assertions"));
    }

    /// Record the same deterministic workload into a deployment and return the session ids.
    fn record_workload(host: &ServiceHost, sessions: usize, per_session: usize) -> Vec<SessionId> {
        let transport = host.transport(TransportConfig::free());
        let mut ids = Vec::new();
        for s in 0..sessions {
            let session = SessionId::new(format!("session:repl:{s}"));
            let recorder = SyncRecorder::new(
                session.clone(),
                ActorId::new("engine"),
                transport.clone(),
                IdGenerator::new(format!("repl{s}")),
            );
            for i in 0..per_session {
                recorder.record(assertion(session.as_str(), i)).unwrap();
            }
            recorder
                .register_group(Group::new(session.as_str(), GroupKind::Session))
                .unwrap();
            ids.push(session);
        }
        ids
    }

    #[test]
    fn replicated_cluster_answers_match_an_unreplicated_one() {
        let (host_r, replicated) = {
            let host = ServiceHost::new();
            let cluster = PreservCluster::deploy_replicated(&host, 4, 2).unwrap();
            (host, cluster)
        };
        let (host_p, plain) = deploy(4);
        let sessions = record_workload(&host_r, 10, 12);
        record_workload(&host_p, 10, 12);

        // Replica holds are invisible: every query answer matches the unreplicated cluster.
        for session in &sessions {
            assert_eq!(
                replicated.assertions_for_session(session).unwrap(),
                plain.assertions_for_session(session).unwrap()
            );
        }
        assert_eq!(
            replicated.statistics().unwrap(),
            plain.statistics().unwrap()
        );
        assert_eq!(
            replicated.list_interactions(None).unwrap(),
            plain.list_interactions(None).unwrap()
        );
        assert_eq!(
            replicated.groups_by_kind("session").unwrap(),
            plain.groups_by_kind("session").unwrap()
        );
        assert!(replicated.router().stats().batches_replicated > 0);
        assert_eq!(replicated.router().replication(), 2);
    }

    #[test]
    fn killing_any_single_shard_loses_no_acked_assertion() {
        for victim in 0..4usize {
            let host = ServiceHost::new();
            let cluster = PreservCluster::deploy_replicated(&host, 4, 2).unwrap();
            let reference_host = ServiceHost::new();
            let reference = PreservCluster::deploy_in_memory(&reference_host, 4).unwrap();

            // First half of the workload, fully acked and flushed before the kill.
            let sessions = record_workload(&host, 8, 10);
            record_workload(&reference_host, 8, 10);
            cluster.flush().unwrap();

            let victim_name = cluster.router().shard_names()[victim].clone();
            host.fault_injector().kill(victim_name.clone());

            // Second half: same sessions keep recording after the kill, without client errors.
            let transport = host.transport(TransportConfig::free());
            let reference_transport = reference_host.transport(TransportConfig::free());
            for (s, session) in sessions.iter().enumerate() {
                for (t, tr) in [&transport, &reference_transport].into_iter().enumerate() {
                    let recorder = SyncRecorder::new(
                        session.clone(),
                        ActorId::new("engine"),
                        tr.clone(),
                        IdGenerator::new(format!("post{t}:{s}")),
                    );
                    for i in 10..16 {
                        recorder.record(assertion(session.as_str(), i)).unwrap();
                    }
                }
            }

            // Every acked p-assertion answers identically to the fault-free reference run.
            for session in &sessions {
                assert_eq!(
                    cluster.assertions_for_session(session).unwrap(),
                    reference.assertions_for_session(session).unwrap(),
                    "session diverged after killing shard {victim}"
                );
                assert_eq!(
                    cluster.lineage_session(session).unwrap(),
                    reference.lineage_session(session).unwrap()
                );
            }
            assert_eq!(
                cluster.statistics().unwrap(),
                reference.statistics().unwrap(),
                "statistics diverged after killing shard {victim}"
            );
            assert_eq!(
                cluster.list_interactions(None).unwrap(),
                reference.list_interactions(None).unwrap()
            );
            assert_eq!(
                cluster.groups_by_kind("session").unwrap(),
                reference.groups_by_kind("session").unwrap()
            );

            let stats = cluster.router().stats();
            assert_eq!(
                stats.failovers, 1,
                "exactly one failover for shard {victim}"
            );
            assert!(!cluster.router().is_alive(victim));
            assert_eq!(cluster.router().live_shards().len(), 3);
        }
    }

    /// Regression: replica holds must follow the ring when it changes. Flushed, replicated
    /// history was copied to the OLD ring's successors, but failover replays only the NEW
    /// ring's first live successor's hold — so `add_shard` must migrate the held copies, or
    /// killing a pre-rebalance primary finds an empty hold and silently loses acked, flushed,
    /// replicated p-assertions.
    #[test]
    fn flushed_replicated_data_survives_a_primary_kill_after_a_rebalance() {
        // Few virtual nodes so that adding two shards demonstrably moves several shards'
        // first ring successor — the promotion target. (With the default 64 vnodes this
        // particular rebalance happens to leave every promotion target in place, which would
        // make the test vacuous.) Guard against hash changes re-introducing vacuity:
        const VNODES: usize = 8;
        let old_ring = HashRing::with_shards(4, VNODES);
        let mut new_ring = old_ring.clone();
        new_ring.add_shard();
        new_ring.add_shard();
        let moved = (0..4)
            .filter(|&s| old_ring.successors_of_shard(s)[0] != new_ring.successors_of_shard(s)[0])
            .count();
        assert!(
            moved > 0,
            "vacuous test: the rebalance moved no promotion target"
        );

        for victim in 0..4usize {
            let host = ServiceHost::new();
            let cluster = PreservCluster::deploy_with(
                &host,
                ClusterConfig {
                    shards: 4,
                    virtual_nodes: VNODES,
                    replication: 2,
                    ..Default::default()
                },
                |_| Ok(Arc::new(pasoa_preserv::MemoryBackend::new()) as _),
            )
            .unwrap();
            let reference_host = ServiceHost::new();
            let reference = PreservCluster::deploy_in_memory(&reference_host, 4).unwrap();

            // Fully flushed and replicated BEFORE the ring changes: every copy sits in a
            // replica hold placed by the old ring.
            let sessions = record_workload(&host, 10, 10);
            record_workload(&reference_host, 10, 10);
            cluster.flush().unwrap();

            // Rebalance (twice, to reshuffle successor orders), then kill the old primary
            // with nothing buffered — recovery can only come from a replica hold.
            cluster.add_shard().unwrap();
            cluster.add_shard().unwrap();
            let victim_name = cluster.router().shard_names()[victim].clone();
            host.fault_injector().kill(victim_name);

            for session in &sessions {
                assert_eq!(
                    cluster.assertions_for_session(session).unwrap(),
                    reference.assertions_for_session(session).unwrap(),
                    "flushed session lost after rebalance + kill of shard {victim}"
                );
            }
            assert_eq!(
                cluster.groups_by_kind("session").unwrap(),
                reference.groups_by_kind("session").unwrap(),
                "registered groups lost after rebalance + kill of shard {victim}"
            );
            assert_eq!(
                cluster.list_interactions(None).unwrap(),
                reference.list_interactions(None).unwrap()
            );
            assert_eq!(
                cluster.statistics().unwrap(),
                reference.statistics().unwrap(),
                "statistics diverged after rebalance + kill of shard {victim}"
            );
            assert_eq!(cluster.router().stats().failovers, 1);
        }
    }

    /// Regression: after a rebalance routed sessions may be memoized into the pin map. A
    /// session whose only data is still buffered (never flushed, so no replica hold exists)
    /// must not stay pinned to its shard when that shard dies — the stale pin would route the
    /// buffered batch back to the dead shard forever, wedging flush and every query.
    #[test]
    fn buffered_session_pinned_to_a_dead_shard_re_resolves_to_a_live_one() {
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_replicated(&host, 4, 2).unwrap();
        // Rebalance, and pick a session the rebalance remaps: routing it runs the
        // data-presence probe, so shard_for_session memoizes a pin for it.
        cluster.add_shard().unwrap();
        let vnodes = ClusterConfig::default().virtual_nodes;
        let (old_ring, new_ring) = (
            HashRing::with_shards(4, vnodes),
            HashRing::with_shards(5, vnodes),
        );
        let session = (0..500)
            .map(|i| format!("session:buffered-pin:{i}"))
            .find(|id| old_ring.shard_for(id) != new_ring.shard_for(id))
            .expect("some session id must move when the ring grows");
        let session = SessionId::new(session);
        let recorder = SyncRecorder::new(
            session.clone(),
            ActorId::new("engine"),
            host.transport(TransportConfig::free()),
            IdGenerator::new("bp"),
        );
        // One assertion: stays in the router buffer (default batch_size is 64).
        recorder.record(assertion(session.as_str(), 0)).unwrap();
        let owner = cluster.router().shard_for_session(session.as_str());
        let pins = cluster.router().stats_snapshot().registry;
        assert_eq!(pins.gauge("router.pinned_sessions"), 1);
        let owner_name = cluster.router().shard_names()[owner].clone();
        host.fault_injector().kill(owner_name);

        // The buffered (acked) assertion must re-route and stay fully queryable.
        cluster.flush().unwrap();
        assert_eq!(cluster.assertions_for_session(&session).unwrap().len(), 1);
        let new_owner = cluster.router().shard_for_session(session.as_str());
        assert_ne!(new_owner, owner, "session must re-pin to a live shard");
        assert!(cluster.router().is_alive(new_owner));
        // Recording continues against the new owner without loss.
        recorder.record(assertion(session.as_str(), 1)).unwrap();
        assert_eq!(cluster.assertions_for_session(&session).unwrap().len(), 2);
    }

    /// A memory backend whose writes can be made to fail on demand — the model of a promotion
    /// target whose store errors mid-replay.
    struct FlakyBackend {
        inner: pasoa_preserv::MemoryBackend,
        fail_writes: std::sync::atomic::AtomicBool,
    }

    impl FlakyBackend {
        fn new() -> Self {
            FlakyBackend {
                inner: pasoa_preserv::MemoryBackend::new(),
                fail_writes: std::sync::atomic::AtomicBool::new(false),
            }
        }

        fn set_failing(&self, failing: bool) {
            self.fail_writes
                .store(failing, std::sync::atomic::Ordering::SeqCst);
        }

        fn check(&self) -> Result<(), pasoa_preserv::backend::BackendError> {
            if self.fail_writes.load(std::sync::atomic::Ordering::SeqCst) {
                Err(pasoa_preserv::backend::BackendError::new(
                    "injected write failure",
                ))
            } else {
                Ok(())
            }
        }
    }

    impl pasoa_preserv::StorageBackend for FlakyBackend {
        fn put(
            &self,
            key: &[u8],
            value: &[u8],
        ) -> Result<(), pasoa_preserv::backend::BackendError> {
            self.check()?;
            self.inner.put(key, value)
        }

        fn put_many(
            &self,
            entries: &[(Vec<u8>, Vec<u8>)],
        ) -> Result<(), pasoa_preserv::backend::BackendError> {
            self.check()?;
            self.inner.put_many(entries)
        }

        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, pasoa_preserv::backend::BackendError> {
            self.inner.get(key)
        }

        fn scan_prefix(
            &self,
            prefix: &[u8],
        ) -> Result<Vec<Vec<u8>>, pasoa_preserv::backend::BackendError> {
            self.inner.scan_prefix(prefix)
        }

        fn delete_many(
            &self,
            keys: &[Vec<u8>],
        ) -> Result<(), pasoa_preserv::backend::BackendError> {
            self.check()?;
            self.inner.delete_many(keys)
        }

        fn kind(&self) -> pasoa_preserv::BackendKind {
            self.inner.kind()
        }
    }

    /// Regression: a promotion replay that fails (target store error) must not silently drop
    /// the acked data. The copy stays in the hold, queries fail loudly naming the session, and
    /// the next flush retries the replay until it lands.
    #[test]
    fn failed_promotion_replay_is_retried_instead_of_silently_dropped() {
        let host = ServiceHost::new();
        let backends: Vec<Arc<FlakyBackend>> =
            (0..3).map(|_| Arc::new(FlakyBackend::new())).collect();
        let cluster = {
            let backends = backends.clone();
            PreservCluster::deploy_with(
                &host,
                ClusterConfig {
                    shards: 3,
                    replication: 2,
                    ..Default::default()
                },
                move |shard| Ok(Arc::clone(&backends[shard]) as _),
            )
            .unwrap()
        };

        // Flushed, replicated history for one session; its copy sits in the hold of the
        // victim's first live ring successor — the promotion target.
        let session = SessionId::new("session:flaky-replay");
        let victim = cluster.router().shard_for_session(session.as_str());
        let ring = HashRing::with_shards(3, ClusterConfig::default().virtual_nodes);
        let target = ring.successors_of_shard(victim)[0];
        let recorder = SyncRecorder::new(
            session.clone(),
            ActorId::new("engine"),
            host.transport(TransportConfig::free()),
            IdGenerator::new("flaky"),
        );
        for i in 0..6 {
            recorder.record(assertion(session.as_str(), i)).unwrap();
        }
        cluster.flush().unwrap();

        // The target's store starts failing writes, then the primary dies: promotion replay
        // fails, and every query must error (naming the session) rather than answer without
        // the acked data.
        backends[target].set_failing(true);
        host.fault_injector()
            .kill(cluster.router().shard_names()[victim].clone());
        match cluster.assertions_for_session(&session) {
            Err(pasoa_preserv::StoreError::Unavailable {
                failed_sessions, ..
            }) => assert_eq!(failed_sessions, vec![session.as_str().to_string()]),
            other => panic!("query during a stranded replay must fail loudly, got {other:?}"),
        }

        // Once the target heals, the next flush retries the replay and the acked data is
        // fully queryable again.
        backends[target].set_failing(false);
        assert_eq!(cluster.assertions_for_session(&session).unwrap().len(), 6);
        assert!(cluster.router().is_alive(target));
        assert!(!cluster.router().is_alive(victim));
    }

    #[test]
    fn flush_error_names_the_stranded_sessions() {
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_with(
            &host,
            ClusterConfig {
                shards: 1,
                batch_size: 1000, // never auto-flush
                ..Default::default()
            },
            |_| Ok(std::sync::Arc::new(pasoa_preserv::MemoryBackend::new()) as _),
        )
        .unwrap();
        let session = SessionId::new("session:stranded");
        let recorder = SyncRecorder::new(
            session.clone(),
            ActorId::new("engine"),
            host.transport(TransportConfig::free()),
            IdGenerator::new("stranded"),
        );
        recorder.record(assertion(session.as_str(), 0)).unwrap();
        // Kill the only shard: the buffered assertion has nowhere to go.
        let name = cluster.router().shard_names()[0].clone();
        host.fault_injector().kill(name);
        let error = cluster.router().flush().unwrap_err();
        assert_eq!(error.failed_sessions, vec!["session:stranded".to_string()]);
        let text = error.to_string();
        assert!(text.contains("session:stranded"), "error text: {text}");
    }

    /// Regression (found by pasoa-sim seed 5): a session documented ONLY by its group
    /// registration must stay sticky across a rebalance. The data-presence probe used to look
    /// only at assertions and buffers, so re-registering the same group after `add_shard`
    /// landed on the new ring owner — duplicating a group a single store would have replaced.
    #[test]
    fn group_reregistration_after_a_rebalance_replaces_instead_of_duplicating() {
        // Sparse ring so rebalances move owners often; pick a group id that provably moves.
        const VNODES: usize = 8;
        let old_ring = HashRing::with_shards(2, VNODES);
        let mut new_ring = old_ring.clone();
        new_ring.add_shard();
        let id = (0..500)
            .map(|i| format!("session:regroup:{i}"))
            .find(|id| old_ring.shard_for(id) != new_ring.shard_for(id))
            .expect("some group id must move when the ring grows");

        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_with(
            &host,
            ClusterConfig {
                shards: 2,
                virtual_nodes: VNODES,
                ..Default::default()
            },
            |_| Ok(Arc::new(pasoa_preserv::MemoryBackend::new()) as _),
        )
        .unwrap();
        let recorder = SyncRecorder::new(
            SessionId::new(id.clone()),
            ActorId::new("engine"),
            host.transport(TransportConfig::free()),
            IdGenerator::new("regroup"),
        );
        recorder
            .register_group(Group::new(id.clone(), GroupKind::Session))
            .unwrap();
        cluster.add_shard().unwrap();
        // Re-register (a client extending the same group after the cluster grew).
        recorder
            .register_group(Group::new(id.clone(), GroupKind::Session))
            .unwrap();

        let copies: Vec<_> = cluster
            .groups_by_kind("session")
            .unwrap()
            .into_iter()
            .filter(|group| group.id == id)
            .collect();
        assert_eq!(copies.len(), 1, "the group must exist exactly once");
        // And it lives on exactly one shard store.
        let resident = cluster
            .shard_stores()
            .iter()
            .filter(|store| {
                store
                    .groups_by_kind("session")
                    .unwrap()
                    .iter()
                    .any(|group| group.id == id)
            })
            .count();
        assert_eq!(resident, 1, "the group must live on exactly one shard");
    }

    #[test]
    fn empty_session_queries_answer_empty() {
        let (host, cluster) = deploy(2);
        let transport = host.transport(TransportConfig::free());
        let query = PrepMessage::Query(QueryRequest::BySession(SessionId::new("session:none")));
        let envelope = Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, query.action())
            .with_json_payload(&query)
            .unwrap();
        let response: QueryResponse = transport.call(envelope).unwrap().json_payload().unwrap();
        assert!(matches!(response, QueryResponse::Empty));
        assert!(cluster
            .assertions_for_session(&SessionId::new("session:none"))
            .unwrap()
            .is_empty());
    }
}
