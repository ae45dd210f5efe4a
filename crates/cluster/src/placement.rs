//! Where a session lives: the ring, its history, liveness and the pins — and nothing else.
//!
//! [`Placement`] is plain data with no store and no lock of its own (the router keeps it
//! behind its table lock), so every placement decision can be tested against a liveness mask
//! alone. The one placement rule is [`Placement::live_successors`]: the live shards after
//! `s`, in ring-walk order. A primary's replicas are the first R−1 of them, its promotion
//! target after it dies is the first, a session whose ring owner is dead routes to the first,
//! and re-homing replica holds across a ring change reads it once before and once after — so
//! the shard that holds the copies is, by construction, the shard that takes over.

use std::collections::HashMap;

use crate::ring::HashRing;

/// Ring, historical rings, liveness and pins of one router.
pub(crate) struct Placement {
    ring: HashRing,
    /// Ring snapshots taken before each rebalance, oldest first (one per `add_shard`).
    historical_rings: Vec<HashRing>,
    /// Cleared when a shard is detected unreachable; a dead shard never serves again
    /// (rejoining is an `add_shard`, not a revival).
    alive: Vec<bool>,
    /// Memoized placements that differ from the pure ring function or needed a probe:
    /// sessions kept sticky across a rebalance (or probed and found to have moved), sessions
    /// promoted to a replica after their primary died, and sessions whose ring owner was
    /// already dead when first routed.
    pinned: HashMap<String, usize>,
}

/// What [`Placement::resolve`] could decide without looking at any shard's data. The rest is
/// [`Resolution::settle`], which takes the data-presence probe as a closure: the probe takes
/// buffer and store locks, which must never nest inside the lock guarding the placement.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Resolution {
    /// The answer, with nothing to remember: a live pin, or the pure ring function.
    Pure(usize),
    /// To be pinned once settled: the first of `candidates` (live shards older rings mapped
    /// the session to, oldest first) that already holds the session's documentation, else
    /// `fallback`.
    Memoize {
        candidates: Vec<usize>,
        fallback: usize,
    },
}

impl Resolution {
    /// Decide the owner, asking `has_data(shard)` about each candidate in turn. Returns the
    /// owner and whether it must be pinned (so the probe never repeats per assertion).
    pub(crate) fn settle(self, mut has_data: impl FnMut(usize) -> bool) -> (usize, bool) {
        match self {
            Resolution::Pure(owner) => (owner, false),
            Resolution::Memoize {
                candidates,
                fallback,
            } => {
                let sticky = candidates.into_iter().find(|&shard| has_data(shard));
                (sticky.unwrap_or(fallback), true)
            }
        }
    }
}

impl Placement {
    /// `shards` live shards on a fresh ring.
    pub(crate) fn new(shards: usize, virtual_nodes: usize) -> Self {
        Placement {
            ring: HashRing::with_shards(shards, virtual_nodes),
            historical_rings: Vec::new(),
            alive: vec![true; shards],
            pinned: HashMap::new(),
        }
    }

    pub(crate) fn is_alive(&self, shard: usize) -> bool {
        self.alive[shard]
    }

    /// Indices of live shards, ascending.
    pub(crate) fn live_shards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.alive.len()).filter(|&shard| self.alive[shard])
    }

    /// Mark `shard` dead. Returns whether it was alive (false: someone already did).
    pub(crate) fn mark_dead(&mut self, shard: usize) -> bool {
        std::mem::replace(&mut self.alive[shard], false)
    }

    /// Grow the ring by one live shard, remembering the ring it replaces. Returns the new
    /// shard's index.
    pub(crate) fn add_shard(&mut self) -> usize {
        self.historical_rings.push(self.ring.clone());
        self.alive.push(true);
        self.ring.add_shard()
    }

    /// Every other shard in the current ring's walk order from `shard`, dead ones included.
    pub(crate) fn ring_successors(&self, shard: usize) -> Vec<usize> {
        self.ring.successors_of_shard(shard)
    }

    /// The placement rule (see the module docs): live shards after `shard`, in ring order.
    pub(crate) fn live_successors(&self, shard: usize) -> impl Iterator<Item = usize> + '_ {
        self.ring_successors(shard)
            .into_iter()
            .filter(|&successor| self.alive[successor])
    }

    /// Resolve `session`'s primary as far as ring, liveness and pins allow.
    ///
    /// A pin wins while its shard lives; a pin whose shard has since died is stale
    /// (promotion re-pins only the sessions it found in a replica hold; one with merely
    /// buffered data has none) and re-resolves. A dead ring owner sends the session where its
    /// data would have been promoted, the owner's first live successor — or, with no live
    /// shard left at all, back to the dead owner, unpinned, so callers surface the outage as
    /// an error. The live ring owner is final unless an older ring mapped the session to a
    /// different live shard, in which case only the data-presence probe can tell whether the
    /// session started there and must stay.
    pub(crate) fn resolve(&self, session: &str) -> Resolution {
        if let Some(&pinned) = self.pinned.get(session) {
            if self.alive[pinned] {
                return Resolution::Pure(pinned);
            }
        }
        let owner = self.ring.shard_for(session);
        let fallback = if self.alive[owner] {
            owner
        } else {
            match self.live_successors(owner).next() {
                Some(successor) => successor,
                None => return Resolution::Pure(owner),
            }
        };
        let mut candidates: Vec<usize> = Vec::new();
        for ring in &self.historical_rings {
            let historical = ring.shard_for(session);
            if historical != fallback && self.alive[historical] && !candidates.contains(&historical)
            {
                candidates.push(historical);
            }
        }
        if candidates.is_empty() && fallback == owner {
            // Still a pure function of the ring: nothing to probe, nothing to memoize.
            return Resolution::Pure(owner);
        }
        Resolution::Memoize {
            candidates,
            fallback,
        }
    }

    /// Pin `ids` (session or group ids) to `shard`. Returns the number of pins now held.
    pub(crate) fn pin(&mut self, ids: impl IntoIterator<Item = String>, shard: usize) -> usize {
        self.pinned.extend(ids.into_iter().map(|id| (id, shard)));
        self.pinned.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (shard count, vnodes) × liveness mask the tables below run over.
    fn placements() -> Vec<Placement> {
        let mut all = Vec::new();
        for (shards, vnodes) in [(1, 16), (3, 8), (4, 64), (5, 8)] {
            for mask in 0..(1u32 << shards) {
                let mut placement = Placement::new(shards, vnodes);
                for shard in 0..shards {
                    if mask & (1 << shard) == 0 {
                        assert!(placement.mark_dead(shard));
                        assert!(!placement.mark_dead(shard), "a shard dies once");
                    }
                }
                all.push(placement);
            }
        }
        all
    }

    /// A session id whose ring owner is `shard`.
    fn session_owned_by(placement: &Placement, shard: usize) -> String {
        (0..10_000)
            .map(|i| format!("session:owned:{i}"))
            .find(|id| placement.ring.shard_for(id) == shard)
            .expect("every shard owns some session")
    }

    #[test]
    fn one_rule_places_replicas_promotions_and_dead_owner_sessions() {
        for placement in placements() {
            let shards = placement.alive.len();
            let live: Vec<usize> = placement.live_shards().collect();
            for shard in 0..shards {
                // The rule: the ring walk from `shard`, minus the dead, order preserved.
                let successors: Vec<usize> = placement.live_successors(shard).collect();
                let expected: Vec<usize> = placement
                    .ring_successors(shard)
                    .into_iter()
                    .filter(|s| placement.is_alive(*s))
                    .collect();
                assert_eq!(successors, expected);
                assert!(!successors.contains(&shard));
                assert_eq!(
                    successors.len(),
                    live.iter().filter(|&&s| s != shard).count()
                );
                // Replica targets for any R are a prefix of it, so the first replica — the
                // complete copy — is always the promotion target.
                for replication in 1..=shards + 1 {
                    let replicas: Vec<usize> = placement
                        .live_successors(shard)
                        .take(replication - 1)
                        .collect();
                    assert!(successors.starts_with(&replicas));
                }
                // A session whose ring owner is dead routes to that same first successor,
                // and the placement is memoized (it differs from the pure ring function).
                if !placement.is_alive(shard) {
                    let session = session_owned_by(&placement, shard);
                    let resolution = placement.resolve(&session);
                    match successors.first() {
                        Some(&target) => {
                            assert_eq!(
                                resolution,
                                Resolution::Memoize {
                                    candidates: vec![],
                                    fallback: target
                                }
                            );
                            let probed = std::cell::Cell::new(false);
                            let settled = resolution.settle(|_| {
                                probed.set(true);
                                true
                            });
                            assert_eq!(settled, (target, true));
                            assert!(!probed.get(), "no candidate, no probe");
                        }
                        // Total outage: the dead owner, unpinned, so callers see the error.
                        None => assert_eq!(resolution, Resolution::Pure(shard)),
                    }
                } else {
                    let session = session_owned_by(&placement, shard);
                    assert_eq!(placement.resolve(&session), Resolution::Pure(shard));
                }
            }
        }
    }

    #[test]
    fn a_pin_wins_while_its_shard_lives_and_re_resolves_once_it_dies() {
        let mut placement = Placement::new(4, 8);
        let session = session_owned_by(&placement, 0);
        assert_eq!(placement.pin([session.clone()], 2), 1);
        assert_eq!(placement.resolve(&session), Resolution::Pure(2));
        placement.mark_dead(2);
        // Stale pin: back to the (live) ring owner.
        assert_eq!(placement.resolve(&session), Resolution::Pure(0));
        placement.mark_dead(0);
        // Owner dead too: its first live successor, to be pinned.
        let target = placement.live_successors(0).next().unwrap();
        assert_eq!(
            placement.resolve(&session).settle(|_| false),
            (target, true)
        );
        assert_eq!(
            placement.pin([session.clone()], target),
            1,
            "re-pin replaces"
        );
        assert_eq!(placement.resolve(&session), Resolution::Pure(target));
    }

    #[test]
    fn after_a_rebalance_stickiness_follows_the_probe_and_nothing_else_is_memoized() {
        let mut placement = Placement::new(3, 8);
        let before = placement.ring.clone();
        let added = placement.add_shard();
        placement.add_shard();
        let ids: Vec<String> = (0..400)
            .map(|i| format!("session:rebalanced:{i}"))
            .collect();
        let (mut moved, mut unmoved) = (0, 0);
        for id in &ids {
            let old = before.shard_for(id);
            let new = placement.ring.shard_for(id);
            let resolution = placement.resolve(id);
            if old == new {
                // No ring disagrees: still the pure function, nothing to probe or pin.
                unmoved += 1;
                assert_eq!(resolution, Resolution::Pure(new));
                continue;
            }
            moved += 1;
            assert!(new >= added, "keys move only onto added shards");
            let Resolution::Memoize {
                candidates,
                fallback,
            } = &resolution
            else {
                panic!("a moved session needs the probe: {resolution:?}");
            };
            assert_eq!(candidates.first(), Some(&old), "oldest ring first");
            assert!(!candidates.contains(&new));
            assert_eq!(*fallback, new);
            // Data on the old shard keeps the session there; none lets it move.
            assert_eq!(
                placement.resolve(id).settle(|shard| shard == old),
                (old, true)
            );
            assert_eq!(resolution.settle(|_| false), (new, true));
        }
        assert!(
            moved > 0 && unmoved > moved,
            "{moved} moved, {unmoved} stayed"
        );
        // A dead historical owner is no candidate: its data was promoted elsewhere.
        let id = ids
            .iter()
            .find(|id| before.shard_for(id) == 0 && placement.ring.shard_for(id) != 0)
            .expect("some session moved off shard 0");
        let Resolution::Memoize {
            candidates,
            fallback,
        } = placement.resolve(id)
        else {
            panic!("a moved session needs the probe");
        };
        placement.mark_dead(0);
        let remaining: Vec<usize> = candidates.into_iter().filter(|&s| s != 0).collect();
        let expected = if remaining.is_empty() {
            Resolution::Pure(fallback)
        } else {
            Resolution::Memoize {
                candidates: remaining,
                fallback,
            }
        };
        assert_eq!(placement.resolve(id), expected);
    }
}
