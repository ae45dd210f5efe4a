//! Subscription filters, compiled onto the query tier's access paths.
//!
//! The cheap predicates (session, actor) are pure functions of the event and run at enqueue
//! time, so non-matching events never cost a queue slot. The lineage predicate needs the
//! store's adjacency index and runs at delivery time instead: by then the event's own edge is
//! committed (it rode the same batch), so a backward walk from the event's effect —
//! [`pasoa_preserv::lineage::walk_back`], the very traversal the query engine's lineage closure
//! performs — decides membership.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pasoa_core::ids::{DataId, SessionId};
use pasoa_core::passertion::{PAssertion, RecordedAssertion};
use pasoa_preserv::lineage::walk_back;
use pasoa_preserv::ProvenanceStore;

use crate::event::{FeedEvent, FeedEventBody};
use crate::queue::FeedError;

/// What subset of change events a subscription sees.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FeedFilter {
    /// Every change event.
    All,
    /// Events recorded under one session (workflow run).
    BySession {
        /// The session id.
        session: String,
    },
    /// Events asserted by one actor.
    ByActor {
        /// The actor id.
        actor: String,
    },
    /// Relationship events within `session` whose effect data item derives — directly or
    /// transitively — from `target`: "notify me when anything downstream of X changes".
    LineageDownstream {
        /// The session whose derivation graph is consulted.
        session: String,
        /// The ancestor data item.
        target: String,
    },
}

impl FeedFilter {
    /// The enqueue-time predicate: purely a function of the event, evaluated while staging
    /// the record batch. For [`FeedFilter::LineageDownstream`] this is only the session
    /// pre-filter; the lineage refinement runs at delivery time.
    pub fn enqueue_matches(&self, event: &FeedEvent) -> bool {
        match &event.body {
            FeedEventBody::Change(recorded) => self.matches_assertion(recorded),
            FeedEventBody::Overflow { .. } => matches!(self, FeedFilter::All),
        }
    }

    /// The same enqueue predicate straight off the assertion, without constructing (or
    /// serializing) a [`FeedEvent`] — the staging hot path runs this per subscriber per
    /// assertion, so non-matching and capped-out subscribers cost a few string compares.
    pub fn matches_assertion(&self, recorded: &RecordedAssertion) -> bool {
        match self {
            FeedFilter::All => true,
            FeedFilter::BySession { session } => recorded.session.as_str() == session,
            FeedFilter::ByActor { actor } => recorded.assertion.asserter().as_str() == actor,
            FeedFilter::LineageDownstream { session, .. } => {
                // Only relationship events participate in the derivation graph.
                recorded.session.as_str() == session
                    && matches!(recorded.assertion, PAssertion::Relationship(_))
            }
        }
    }

    /// The delivery-time refinement. Overflow notices always pass (a dropped-events warning
    /// must reach the subscriber regardless of its filter). Events rejected here are
    /// acknowledged silently — they were enqueued by the coarse pre-filter but do not match.
    pub fn delivery_matches(
        &self,
        event: &FeedEvent,
        resolver: &dyn LineageResolver,
    ) -> Result<bool, FeedError> {
        if matches!(event.body, crate::event::FeedEventBody::Overflow { .. }) {
            return Ok(true);
        }
        match self {
            FeedFilter::LineageDownstream { session, target } => {
                let Some(effect) = event.effect() else {
                    return Ok(false);
                };
                if effect == target {
                    return Ok(true);
                }
                resolver.derives_from(
                    &SessionId::new(session.clone()),
                    &DataId::new(effect),
                    &DataId::new(target.clone()),
                )
            }
            _ => Ok(true),
        }
    }
}

/// Answers "does `effect` derive from `target`?" — the one question the lineage filter needs.
pub trait LineageResolver: Send + Sync {
    /// Whether `target` is reachable backwards from `effect` through the session's
    /// derivation edges.
    fn derives_from(
        &self,
        session: &SessionId,
        effect: &DataId,
        target: &DataId,
    ) -> Result<bool, FeedError>;
}

/// [`LineageResolver`] over a provenance store's adjacency index:
/// [`pasoa_preserv::lineage::walk_back`] from the effect, reading only reachable edges and
/// stopping at the first one that names `target` as a cause.
pub struct StoreLineageResolver {
    store: Arc<ProvenanceStore>,
}

impl StoreLineageResolver {
    /// Resolve against `store`.
    pub fn new(store: Arc<ProvenanceStore>) -> Self {
        StoreLineageResolver { store }
    }
}

impl LineageResolver for StoreLineageResolver {
    fn derives_from(
        &self,
        session: &SessionId,
        effect: &DataId,
        target: &DataId,
    ) -> Result<bool, FeedError> {
        if effect == target {
            return Ok(true);
        }
        walk_back(&self.store, session, effect, |edge| {
            edge.causes.contains(target)
        })
        .map_err(|e| FeedError::Storage(e.to_string()))
    }
}

/// A resolver for deployments without lineage subscriptions: answers "no" to everything, so
/// a misconfigured lineage filter silently acks instead of erroring.
pub struct NoLineageResolver;

impl LineageResolver for NoLineageResolver {
    fn derives_from(
        &self,
        _session: &SessionId,
        _effect: &DataId,
        _target: &DataId,
    ) -> Result<bool, FeedError> {
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{event_identity, FeedEvent, FeedEventBody};
    use pasoa_core::ids::{ActorId, InteractionKey};
    use pasoa_core::passertion::{PAssertion, RecordedAssertion, RelationshipPAssertion};
    use pasoa_preserv::{LineageGraph, MemoryBackend};

    fn rel(session: &str, effect: &str, causes: &[&str]) -> RecordedAssertion {
        RecordedAssertion {
            session: SessionId::new(session),
            assertion: PAssertion::Relationship(RelationshipPAssertion {
                interaction_key: InteractionKey::new(format!("interaction:{effect}")),
                asserter: ActorId::new("actor:f"),
                effect: DataId::new(effect),
                causes: causes
                    .iter()
                    .map(|c| {
                        (
                            InteractionKey::new(format!("interaction:{c}")),
                            DataId::new(*c),
                        )
                    })
                    .collect(),
                relation: "derived-from".into(),
            }),
        }
    }

    fn event_of(recorded: RecordedAssertion) -> FeedEvent {
        FeedEvent {
            event_id: event_identity(&recorded),
            body: FeedEventBody::Change(recorded),
            enqueued_nanos: 0,
        }
    }

    #[test]
    fn enqueue_predicates_match_on_event_fields() {
        let event = event_of(rel("session:f", "data:b", &["data:a"]));
        assert!(FeedFilter::All.enqueue_matches(&event));
        assert!(FeedFilter::BySession {
            session: "session:f".into()
        }
        .enqueue_matches(&event));
        assert!(!FeedFilter::BySession {
            session: "session:other".into()
        }
        .enqueue_matches(&event));
        assert!(FeedFilter::ByActor {
            actor: "actor:f".into()
        }
        .enqueue_matches(&event));
        assert!(FeedFilter::LineageDownstream {
            session: "session:f".into(),
            target: "data:a".into()
        }
        .enqueue_matches(&event));
    }

    #[test]
    fn lineage_refinement_walks_the_edge_index_transitively() {
        let store =
            Arc::new(ProvenanceStore::open(Arc::new(MemoryBackend::new()) as Arc<_>).unwrap());
        // x -> b -> c, plus an unrelated d.
        store
            .record(&rel("session:f", "data:b", &["data:x"]))
            .unwrap();
        store
            .record(&rel("session:f", "data:c", &["data:b"]))
            .unwrap();
        store
            .record(&rel("session:f", "data:d", &["data:other"]))
            .unwrap();
        let resolver = StoreLineageResolver::new(Arc::clone(&store));
        let filter = FeedFilter::LineageDownstream {
            session: "session:f".into(),
            target: "data:x".into(),
        };
        let direct = event_of(rel("session:f", "data:b", &["data:x"]));
        let transitive = event_of(rel("session:f", "data:c", &["data:b"]));
        let unrelated = event_of(rel("session:f", "data:d", &["data:other"]));
        assert!(filter.delivery_matches(&direct, &resolver).unwrap());
        assert!(filter.delivery_matches(&transitive, &resolver).unwrap());
        assert!(!filter.delivery_matches(&unrelated, &resolver).unwrap());
        // The target itself changing matches without any walk.
        let itself = event_of(rel("session:f", "data:x", &["data:seed"]));
        assert!(filter.delivery_matches(&itself, &resolver).unwrap());
        // Overflow notices bypass the filter entirely.
        let overflow = FeedEvent {
            body: FeedEventBody::Overflow { dropped: 1 },
            event_id: "overflow:s:1".into(),
            enqueued_nanos: 0,
        };
        assert!(filter
            .delivery_matches(&overflow, &NoLineageResolver)
            .unwrap());

        // Oracle: the early-exit walk answers exactly what building the session graph and
        // tracing the effect's ancestry answers — on the chain above and on a diamond
        // (p -> {l, r} -> q), for every (effect, target) pair including unrelated ones.
        for (effect, causes) in [
            ("data:l", &["data:p"][..]),
            ("data:r", &["data:p"]),
            ("data:q", &["data:l", "data:r"]),
        ] {
            store.record(&rel("session:f", effect, causes)).unwrap();
        }
        let session = SessionId::new("session:f");
        let ids = [
            "data:x",
            "data:b",
            "data:c",
            "data:d",
            "data:other",
            "data:p",
            "data:l",
            "data:r",
            "data:q",
            "data:nowhere",
        ];
        for effect in ids.map(DataId::new) {
            let ancestry = LineageGraph::trace(&store, &session, &effect).unwrap();
            for target in ids.map(DataId::new) {
                let reaches = effect == target || ancestry.is_ancestor(&target, &effect);
                assert_eq!(
                    resolver.derives_from(&session, &effect, &target).unwrap(),
                    reaches,
                    "{effect:?} from {target:?}"
                );
            }
        }
    }
}
