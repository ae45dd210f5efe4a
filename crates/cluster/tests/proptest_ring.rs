//! Ring determinism properties: placement is a pure function of (shard count, vnode count),
//! stable across processes and runs, and a rebalance moves keys only onto the shard that was
//! added — the contract replica placement, failover promotion and the deterministic
//! simulation harness all lean on. The last property ties the ring to the router: whatever
//! shards are down, a primary's copies sit on the shard its death promotes.

use proptest::prelude::*;

use pasoa_cluster::{ClusterConfig, HashRing, PreservCluster};
use pasoa_core::ids::{ActorId, IdGenerator, InteractionKey, SessionId};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
};
use pasoa_core::recorder::{ProvenanceRecorder, SyncRecorder};
use pasoa_preserv::MemoryBackend;
use pasoa_wire::{ServiceHost, TransportConfig};

fn keys(indices: &[usize]) -> Vec<String> {
    indices.iter().map(|i| format!("session:run-{i}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Two rings built independently from the same parameters agree on every placement and on
    /// every successor walk — there is no hidden per-instance or per-process state.
    #[test]
    fn same_shard_set_and_vnodes_give_identical_placement(
        shards in 1usize..9,
        vnodes in 1usize..96,
        key_indices in prop::collection::vec(0usize..100_000, 1..40),
    ) {
        let a = HashRing::with_shards(shards, vnodes);
        let b = HashRing::with_shards(shards, vnodes);
        for key in keys(&key_indices) {
            prop_assert_eq!(a.shard_for(&key), b.shard_for(&key), "key {} diverged", key);
        }
        for shard in 0..shards {
            prop_assert_eq!(a.successors_of_shard(shard), b.successors_of_shard(shard));
        }
    }

    /// Consistent hashing's defining property: growing the ring by one shard moves a key only
    /// if its new owner IS the added shard. Nothing ever migrates between pre-existing shards.
    #[test]
    fn rebalance_moves_keys_only_onto_the_added_shard(
        shards in 1usize..9,
        vnodes in 1usize..96,
        key_indices in prop::collection::vec(0usize..100_000, 1..60),
    ) {
        let before = HashRing::with_shards(shards, vnodes);
        let mut after = before.clone();
        let added = after.add_shard();
        prop_assert_eq!(added, shards);
        for key in keys(&key_indices) {
            let old_owner = before.shard_for(&key);
            let new_owner = after.shard_for(&key);
            if new_owner != old_owner {
                prop_assert_eq!(
                    new_owner, added,
                    "key {} moved from shard {} to pre-existing shard {}",
                    key, old_owner, new_owner
                );
            }
        }
    }

    /// Growing the ring never changes the relative successor order of the pre-existing
    /// shards as seen from any pre-existing shard — only the new shard splices in. (This is
    /// what lets `add_shard` migrate replica holds by recomputing placements instead of
    /// diffing them.)
    #[test]
    fn successor_walks_of_old_shards_only_gain_the_added_shard(
        shards in 2usize..8,
        vnodes in 1usize..64,
    ) {
        let before = HashRing::with_shards(shards, vnodes);
        let mut after = before.clone();
        let added = after.add_shard();
        for shard in 0..shards {
            let old: Vec<usize> = before.successors_of_shard(shard);
            let new_without_added: Vec<usize> = after
                .successors_of_shard(shard)
                .into_iter()
                .filter(|&s| s != added)
                .collect();
            prop_assert_eq!(&old, &new_without_added,
                "shard {}'s successor order of old shards changed", shard);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// For any liveness mask, the shard that holds a primary's replica copies is the shard
    /// that is promoted when the primary dies: replica placement and promotion read the same
    /// rule (the primary's live ring successors), so acked data is where failover looks.
    #[test]
    fn the_shard_that_holds_the_copies_is_the_shard_that_is_promoted(
        shards in 3usize..7,
        vnodes in 4usize..48,
        mask in 0u32..64,
        victim_pick in 0usize..8,
    ) {
        // Any mask that leaves a primary and a replica standing.
        let mut dead: Vec<usize> = (0..shards).filter(|s| mask & (1 << s) != 0).collect();
        dead.truncate(shards - 2);
        let host = ServiceHost::new();
        let config = ClusterConfig {
            shards,
            virtual_nodes: vnodes,
            replication: 2,
            batch_size: 4,
            ..Default::default()
        };
        let cluster = PreservCluster::deploy_with(&host, config, |_| {
            Ok(std::sync::Arc::new(MemoryBackend::new()) as _)
        })
        .unwrap();
        let router = cluster.router();
        let names = router.shard_names();
        for &shard in &dead {
            host.fault_injector().kill(names[shard].clone());
        }
        cluster.flush().unwrap();
        prop_assert_eq!(router.live_shards().len(), shards - dead.len());

        // Document sessions until the victim — a live shard — is primary for some of them.
        let victim = router.live_shards()[victim_pick % (shards - dead.len())];
        let transport = host.transport(TransportConfig::free());
        let mut owned = Vec::new();
        for s in 0..4000 {
            let session = SessionId::new(format!("session:mask:{s}"));
            if router.shard_for_session(session.as_str()) != victim {
                continue;
            }
            let recorder = SyncRecorder::new(
                session.clone(),
                ActorId::new("engine"),
                transport.clone(),
                IdGenerator::new(format!("mask{s}")),
            );
            for i in 0..3 {
                recorder
                    .record(PAssertion::ActorState(ActorStatePAssertion {
                        interaction_key: InteractionKey::new(format!("interaction:{s}:{i}")),
                        asserter: ActorId::new("engine"),
                        view: ViewKind::Receiver,
                        kind: ActorStateKind::Script,
                        content: PAssertionContent::text("x"),
                    }))
                    .unwrap();
            }
            owned.push(session);
            if owned.len() == 3 {
                break;
            }
        }
        prop_assert!(!owned.is_empty(), "shard {} owns none of 4000 sessions", victim);
        cluster.flush().unwrap();

        // Exactly one live shard holds the victim's copies (R = 2), all of them.
        let holders: Vec<usize> = router
            .hold_snapshot()
            .into_iter()
            .filter(|hold| hold.sessions.iter().any(|held| held.primary == victim))
            .map(|hold| hold.shard)
            .collect();
        prop_assert_eq!(holders.len(), 1, "holders of shard {}: {:?}", victim, &holders);
        let holder = holders[0];
        prop_assert!(router.is_alive(holder));
        let before: Vec<_> = owned
            .iter()
            .map(|session| cluster.assertions_for_session(session).unwrap())
            .collect();

        host.fault_injector().kill(names[victim].clone());
        cluster.flush().unwrap();
        for (session, before) in owned.iter().zip(&before) {
            prop_assert_eq!(router.shard_for_session(session.as_str()), holder);
            prop_assert_eq!(&cluster.assertions_for_session(session).unwrap(), before);
            let promoted = cluster.shard_stores()[holder]
                .assertions_for_session(session)
                .unwrap();
            prop_assert_eq!(&promoted, before, "the promoted copy lives on the holder");
        }
        prop_assert!(router.pending_replay_shards().is_empty());
    }
}

/// Placement pinned across processes, compiler versions and runs: these exact mappings were
/// produced by the current hash; any change to `fnv1a64`, the vnode naming scheme or the ring
/// walk shows up here as a loud diff instead of silently remapping every deployed session
/// (and invalidating every committed simulation seed).
#[test]
fn golden_placements_are_stable_across_processes() {
    let production = HashRing::with_shards(4, 64);
    let owners: Vec<usize> = (0..12)
        .map(|i| production.shard_for(&format!("session:golden:{i}")))
        .collect();
    assert_eq!(owners, vec![0, 2, 1, 0, 3, 0, 3, 1, 2, 0, 0, 3]);

    let sparse = HashRing::with_shards(5, 8);
    let owners: Vec<usize> = (0..12)
        .map(|i| sparse.shard_for(&format!("session:golden:{i}")))
        .collect();
    assert_eq!(owners, vec![3, 0, 1, 0, 1, 1, 3, 1, 0, 1, 1, 3]);
    let successors: Vec<Vec<usize>> = (0..5).map(|s| sparse.successors_of_shard(s)).collect();
    assert_eq!(
        successors,
        vec![
            vec![3, 2, 1, 4],
            vec![2, 0, 3, 4],
            vec![4, 1, 0, 3],
            vec![1, 0, 2, 4],
            vec![2, 1, 3, 0],
        ]
    );
}
