//! Replica holds: what a shard keeps on behalf of other primaries, how those copies follow
//! the ring when it changes, and how they become the promoted owner's own data.
//!
//! With replication R > 1 the router is synchronously replicated: every flushed batch commits
//! on the session's primary shard and is then copied into the replica holds of the primary's
//! first R−1 [`Placement::live_successors`] before the flush is acked, so an acked flush
//! holds min(R, live shards) copies. Replication is best-effort under degradation: with fewer
//! than R live shards the ack carries fewer copies (down to the primary's alone) rather than
//! failing the flush — the tier tolerates any *single* shard loss as long as two shards were
//! live when the batch was acked. Hold contents are shadow copies invisible to queries, so
//! scatter-gather still sees each p-assertion exactly once. When a primary dies, its first
//! live successor — by the same rule the first shard every batch was copied to — replays its
//! hold into its own store ([`replay`]); when the ring changes, every live primary's history
//! moves to where the new ring's rule expects it ([`take_histories`], [`seed_histories`]).
//!
//! Nothing here takes a router lock: callers hold the failover lock exclusively around
//! [`replay`] and the re-homing pair, and shared around the appends that follow a commit.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use pasoa_core::passertion::RecordedAssertion;
use pasoa_core::Group;
use pasoa_obs::Gauge;
use pasoa_preserv::ProvenanceStore;

use crate::placement::Placement;

/// Everything replicas hold on behalf of one primary: sessions in id order with their
/// assertions in commit order, and groups in registration order.
pub(crate) type History = (Vec<(String, Vec<RecordedAssertion>)>, Vec<Group>);

/// A shard's shadow copy of batches for which it is a replica.
#[derive(Default)]
pub(crate) struct ReplicaHold {
    /// session id → (primary shard at write time, assertions in commit order).
    sessions: Mutex<BTreeMap<String, (usize, Vec<RecordedAssertion>)>>,
    /// (primary shard at write time, group), in registration order.
    groups: Mutex<Vec<(usize, Group)>>,
    /// `router.hold.assertions`, shared by every hold of one router: assertion copies held.
    held: Gauge,
}

impl ReplicaHold {
    pub(crate) fn new(held: Gauge) -> Self {
        ReplicaHold {
            held,
            ..Default::default()
        }
    }

    /// Append a committed batch for `primary`.
    pub(crate) fn append_assertions(&self, primary: usize, batch: &[RecordedAssertion]) {
        let mut sessions = self.sessions.lock();
        for recorded in batch {
            let entry = sessions
                .entry(recorded.session.as_str().to_string())
                .or_insert_with(|| (primary, Vec::new()));
            entry.0 = primary;
            entry.1.push(recorded.clone());
        }
        self.held.adjust(batch.len() as i64);
    }

    /// Add a copy of a group registered on `primary`.
    pub(crate) fn append_group(&self, primary: usize, group: Group) {
        self.groups.lock().push((primary, group));
    }

    /// Remove and return everything held on behalf of `primary`.
    pub(crate) fn take_for_primary(&self, primary: usize) -> History {
        let mut taken = Vec::new();
        let mut released = 0;
        // `retain` visits in ascending key order, so `taken` comes out in session-id order.
        self.sessions.lock().retain(|session, (p, assertions)| {
            if *p == primary {
                released += assertions.len() as i64;
                taken.push((session.clone(), std::mem::take(assertions)));
            }
            *p != primary
        });
        self.held.adjust(-released);
        let mut taken_groups = Vec::new();
        self.groups.lock().retain(|(p, group)| {
            if *p == primary {
                taken_groups.push(group.clone());
            }
            *p != primary
        });
        (taken, taken_groups)
    }

    /// Insert a session's complete assertion history for `primary`, replacing any existing
    /// entry. Used to put a copy back after a failed promotion replay, and to re-seed a hold
    /// when a rebalance moves the replica placement.
    pub(crate) fn restore(
        &self,
        primary: usize,
        session: String,
        assertions: Vec<RecordedAssertion>,
    ) {
        let added = assertions.len() as i64;
        let replaced = self.sessions.lock().insert(session, (primary, assertions));
        self.held
            .adjust(added - replaced.map_or(0, |(_, held)| held.len() as i64));
    }
}

/// One session's shadow copy inside a shard's replica hold, as reported by
/// [`crate::ShardRouter::hold_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldSession {
    /// The shard that was the session's primary when the copy was appended.
    pub primary: usize,
    /// The session id.
    pub session: String,
    /// Number of held assertion copies.
    pub assertions: usize,
}

/// Observable state of one shard's replica hold — what the simulation harness audits for
/// stranded or duplicated copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoldSnapshot {
    /// Shard index holding these copies.
    pub shard: usize,
    /// Whether the holding shard is still serving.
    pub alive: bool,
    /// Held session copies, in session-id order.
    pub sessions: Vec<HeldSession>,
    /// Held group registrations as `(primary, group id)`, in registration order.
    pub groups: Vec<(usize, String)>,
}

/// Every shard's hold (indexed by shard), dead shards included and flagged.
pub(crate) fn snapshot(holds: &[&ReplicaHold], placement: &Placement) -> Vec<HoldSnapshot> {
    let held_session =
        |(session, (primary, assertions)): (&String, &(usize, Vec<_>))| HeldSession {
            primary: *primary,
            session: session.clone(),
            assertions: assertions.len(),
        };
    holds
        .iter()
        .enumerate()
        .map(|(shard, hold)| HoldSnapshot {
            shard,
            alive: placement.is_alive(shard),
            sessions: hold.sessions.lock().iter().map(held_session).collect(),
            groups: (hold.groups.lock().iter())
                .map(|(primary, group)| (*primary, group.id.clone()))
                .collect(),
        })
        .collect()
}

/// First half of re-homing, run *before* the ring changes: lift every live primary's held
/// history off the holds (indexed by shard). The first live successor holds the complete
/// copy — the invariant re-homing maintains across rebalances — so that one is returned and
/// the partial copies further along are discarded. A dead primary's entries stay where they
/// are: they await a promotion-replay retry.
pub(crate) fn take_histories(
    holds: &[&ReplicaHold],
    placement: &Placement,
) -> Vec<(usize, History)> {
    let mut histories = Vec::new();
    for primary in placement.live_shards() {
        let Some(source) = placement.live_successors(primary).next() else {
            continue;
        };
        let history = holds[source].take_for_primary(primary);
        for (other, hold) in holds.iter().enumerate() {
            if other != source {
                let _ = hold.take_for_primary(primary);
            }
        }
        if !(history.0.is_empty() && history.1.is_empty()) {
            histories.push((primary, history));
        }
    }
    histories
}

/// Second half, run *after* the ring changed: seed each history onto its primary's first
/// `copies` live successors under the new ring. Failover replays only the current ring's
/// first live successor's hold, so without this a post-rebalance kill would find an empty
/// hold and silently lose flushed, replicated p-assertions.
pub(crate) fn seed_histories(
    holds: &[&ReplicaHold],
    placement: &Placement,
    histories: Vec<(usize, History)>,
    copies: usize,
) {
    for (primary, (sessions, groups)) in histories {
        for target in placement.live_successors(primary).take(copies) {
            for (session, assertions) in &sessions {
                holds[target].restore(primary, session.clone(), assertions.clone());
            }
            for group in &groups {
                holds[target].append_group(primary, group.clone());
            }
        }
    }
}

/// Outcome of one promotion [`replay`].
#[derive(Default)]
pub(crate) struct Replay {
    /// Session and group ids now served by the target: pin them there.
    pub(crate) pins: Vec<String>,
    /// Ids whose replay failed; their copies are back in the target's hold for a retry.
    pub(crate) stranded: Vec<String>,
    /// Sessions replayed.
    pub(crate) promoted: u64,
}

/// Replay the history `holds[target]` keeps for dead primary `dead` into `store`, the
/// target's own. An acked record or registration is never dropped: whatever the store
/// refuses goes back into the hold and is reported as stranded.
pub(crate) fn replay(
    holds: &[&ReplicaHold],
    dead: usize,
    target: usize,
    store: &ProvenanceStore,
) -> Replay {
    let hold = holds[target];
    let (sessions, groups) = hold.take_for_primary(dead);
    let mut replay = Replay::default();
    for (session, assertions) in sessions {
        match store.record_all(&assertions) {
            Ok(_) => {
                replay.promoted += 1;
                replay.pins.push(session);
            }
            Err(_) => {
                replay.stranded.push(session.clone());
                hold.restore(dead, session, assertions);
            }
        }
    }
    for group in groups {
        match store.register_group(&group) {
            Ok(()) => replay.pins.push(group.id.clone()),
            Err(_) => {
                replay.stranded.push(group.id.clone());
                hold.append_group(dead, group);
            }
        }
    }
    if replay.stranded.is_empty() {
        // Fully replayed: discard the redundant copies other successors still hold for this
        // primary (R ≥ 3), or they leak for the process lifetime. While any replay is
        // stranded they are kept — if the target dies before the retry lands, the retry's
        // new target is one of these holders.
        for (other, hold) in holds.iter().enumerate() {
            if other != target {
                let _ = hold.take_for_primary(dead);
            }
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::{ActorId, InteractionKey, SessionId};
    use pasoa_core::passertion::{
        ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
    };
    use pasoa_core::GroupKind;

    fn assertion(session: &str, i: usize) -> RecordedAssertion {
        RecordedAssertion {
            session: SessionId::new(session),
            assertion: PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: InteractionKey::new(format!("interaction:{session}:{i}")),
                asserter: ActorId::new("a"),
                view: ViewKind::Receiver,
                kind: ActorStateKind::Script,
                content: PAssertionContent::text(format!("{i}")),
            }),
        }
    }

    /// `(holder, held (session, assertion count)s, held group ids)`.
    type Copy = (usize, Vec<(String, usize)>, Vec<String>);

    /// Which holds keep a copy for `primary`, with what.
    fn copies_of(snapshots: &[HoldSnapshot], primary: usize) -> Vec<Copy> {
        snapshots
            .iter()
            .map(|hold| {
                let sessions: Vec<(String, usize)> = (hold.sessions.iter())
                    .filter(|held| held.primary == primary)
                    .map(|held| (held.session.clone(), held.assertions))
                    .collect();
                let groups: Vec<String> = (hold.groups.iter())
                    .filter(|(p, _)| *p == primary)
                    .map(|(_, id)| id.clone())
                    .collect();
                (hold.shard, sessions, groups)
            })
            .filter(|(_, sessions, groups)| !(sessions.is_empty() && groups.is_empty()))
            .collect()
    }

    /// Re-homing across a ring change leaves each live primary's complete history on exactly
    /// its new first R−1 live successors and nowhere else — while a dead primary's copies,
    /// which await a promotion-replay retry, stay where they were.
    #[test]
    fn rehoming_follows_the_new_ring_exactly() {
        const COPIES: usize = 2; // R = 3
        let held = pasoa_obs::Registry::new().gauge("held");
        let mut placement = Placement::new(5, 8);
        let mut holds: Vec<ReplicaHold> = (0..5).map(|_| ReplicaHold::new(held.clone())).collect();
        fn refs(holds: &[ReplicaHold]) -> Vec<&ReplicaHold> {
            holds.iter().collect()
        }

        // Every primary flushed two batches for one session and registered one group, each
        // copied to its first COPIES live successors; shard 4 then died un-promoted.
        for primary in 0..5 {
            let session = format!("session:of:{primary}");
            for target in placement.live_successors(primary).take(COPIES) {
                let batches = [
                    [assertion(&session, 0), assertion(&session, 1)],
                    [assertion(&session, 2), assertion(&session, 3)],
                ];
                for batch in &batches {
                    holds[target].append_assertions(primary, batch);
                }
                holds[target].append_group(primary, Group::new(&session, GroupKind::Session));
            }
        }
        placement.mark_dead(4);
        assert_eq!(held.get(), 5 * 2 * 4);
        let stranded_before = copies_of(&snapshot(&refs(&holds), &placement), 4);
        let before: Vec<Vec<usize>> = (0..4)
            .map(|p| placement.live_successors(p).take(COPIES).collect())
            .collect();

        let histories = take_histories(&refs(&holds), &placement);
        assert_eq!(histories.len(), 4, "one history per live primary");
        for _ in 0..2 {
            placement.add_shard();
            holds.push(ReplicaHold::new(held.clone()));
        }
        seed_histories(&refs(&holds), &placement, histories, COPIES);

        let snapshots = snapshot(&refs(&holds), &placement);
        let mut moved = 0;
        for (primary, before) in before.iter().enumerate() {
            let targets: Vec<usize> = placement.live_successors(primary).take(COPIES).collect();
            moved += usize::from(&targets != before);
            let mut holders = Vec::new();
            for (holder, sessions, groups) in copies_of(&snapshots, primary) {
                let session = format!("session:of:{primary}");
                assert_eq!(sessions, vec![(session.clone(), 4)], "complete history");
                assert_eq!(groups, vec![session]);
                holders.push(holder);
            }
            holders.sort_unstable();
            let mut expected = targets.clone();
            expected.sort_unstable();
            assert_eq!(holders, expected, "primary {primary}'s copies");
        }
        assert!(
            moved > 0,
            "vacuous test: the rebalance moved no replica set"
        );
        assert_eq!(copies_of(&snapshots, 4), stranded_before);
        assert_eq!(
            held.get(),
            5 * 2 * 4,
            "re-homing neither drops nor duplicates copies"
        );
    }
}
