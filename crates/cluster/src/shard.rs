//! One row of the router's shard table: everything the router keeps per shard, created and
//! published together so no index can exist for one part and not another.

use std::sync::Arc;

use parking_lot::Mutex;

use pasoa_core::passertion::RecordedAssertion;
use pasoa_obs::Gauge;
use pasoa_preserv::PreservService;

use crate::replication::ReplicaHold;

pub(crate) struct Shard {
    pub(crate) index: usize,
    pub(crate) name: String,
    pub(crate) service: Arc<PreservService>,
    /// Shadow copies of batches this shard replicates for other primaries.
    pub(crate) hold: ReplicaHold,
    /// Assertions awaiting a batched flush. Never held across a wire send, so concurrent
    /// clients keep buffering while the previous batch is in flight.
    pub(crate) buffer: Mutex<Vec<RecordedAssertion>>,
    /// Send serialisation: held across a drain-and-send, so this shard's batches commit in
    /// buffer order without stalling appends (or other shards' flushes) for the round trip.
    pub(crate) flusher: Mutex<()>,
}

impl Shard {
    pub(crate) fn new(
        index: usize,
        name: String,
        service: Arc<PreservService>,
        held: Gauge,
    ) -> Arc<Self> {
        Arc::new(Shard {
            index,
            name,
            service,
            hold: ReplicaHold::new(held),
            buffer: Mutex::new(Vec::new()),
            flusher: Mutex::new(()),
        })
    }

    /// Whether this shard already holds (stored or buffered) documentation for `session` —
    /// p-assertions, or a group registered under the session's id. Group registrations must
    /// count: a session documented *only* by its group (registered, nothing recorded yet)
    /// would otherwise turn invisible to the stickiness probe, and re-registering the same
    /// group after a rebalance would land on the new ring owner — leaving the group duplicated
    /// across two shards where a single store would have replaced it in place. (Found by
    /// pasoa-sim seed 5, minimized to `register-group; add-shard; register-group`.)
    pub(crate) fn has_session_data(&self, session: &str) -> bool {
        // Hold the flusher across both checks: a batch drained for an in-flight send
        // is in neither the buffer nor the store until the send completes (or is restored),
        // and the probe must not pass through that window and miss the session.
        let _send = self.flusher.lock();
        if self
            .buffer
            .lock()
            .iter()
            .any(|r| r.session.as_str() == session)
        {
            return true;
        }
        let store = self.service.store();
        match store.has_session(&pasoa_core::ids::SessionId::new(session)) {
            Ok(true) => true,
            Ok(false) => store.has_group_id(session).unwrap_or(true),
            // Conservative on probe failure: keeping the old owner can never split a session.
            Err(_) => true,
        }
    }
}

/// Every shard's replica hold, indexed by shard.
pub(crate) fn holds(shards: &[Arc<Shard>]) -> Vec<&ReplicaHold> {
    shards.iter().map(|shard| &shard.hold).collect()
}
