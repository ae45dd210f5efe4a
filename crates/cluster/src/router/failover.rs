//! What the router does when a shard dies: detection off the host's fault injector,
//! promotion of the dead shard's replica holder (the replay itself is
//! [`crate::replication::replay`]), the retry debt of a replay that failed, and re-routing of
//! the dead shard's buffered work. Promotion and its retries hold the router's failover lock
//! exclusively; sends and gathers hold it shared.

use std::sync::atomic::Ordering;

use pasoa_wire::{WireError, WireResult};

use super::{FlushError, ShardRouter};
use crate::replication;
use crate::shard::{holds, Shard};

impl ShardRouter {
    /// Detect and handle any shard the fault injector has downed since the last check. While
    /// the injector's epoch is unchanged from the last fully-handled scan, this is a single
    /// atomic load — a long-dead shard does not tax every subsequent message.
    pub(super) fn maybe_handle_failures(&self) {
        let injector = self.host.fault_injector();
        let epoch = injector.epoch();
        if epoch == self.handled_fault_epoch.load(Ordering::SeqCst) {
            return;
        }
        let suspects: Vec<usize> = {
            let table = self.table.read();
            let live = table.placement.live_shards();
            live.filter(|&shard| injector.is_down(&table.shards[shard].name))
                .collect()
        };
        for shard in suspects {
            self.handle_shard_failure(shard);
        }
        // Kills observed up to `epoch` are handled; a kill landing mid-scan bumps the epoch
        // past this value, so the next call rescans rather than missing it.
        self.handled_fault_epoch.store(epoch, Ordering::SeqCst);
    }

    /// Mark `dead` as failed, promote its replica holder, re-pin the affected sessions and
    /// redistribute its buffered work. Idempotent; serialized by the failover lock.
    fn handle_shard_failure(&self, dead: usize) {
        let _failover = self.failover.write();
        if !self.table.write().placement.mark_dead(dead) {
            return; // another caller already handled this shard
        }
        self.obs.failovers.inc();

        if !self.replay_holds_for(dead).is_empty() {
            // The copies are preserved in the hold; `flush` retries the replay (and fails
            // loudly, naming these sessions) until it succeeds, so the acked data is never
            // silently absent from query answers.
            self.pending_replays.lock().insert(dead);
        }

        // Buffered (acked but unflushed) work addressed to the dead shard re-routes to the
        // promoted owners; the next flush delivers it after the replayed history.
        self.redistribute_buffer(&self.shard(dead));
    }

    /// Replay the replica-held history of dead shard `dead` into its promotion target (its
    /// first live successor — by construction the first shard every replicated batch of
    /// `dead` was copied to) and pin the replayed ids there. Returns the ids whose replay
    /// failed — their copies stay in the hold for a retry. Callers must hold the failover
    /// write lock.
    fn replay_holds_for(&self, dead: usize) -> Vec<String> {
        let (target, shards) = {
            let table = self.table.read();
            let target = table.placement.live_successors(dead).next();
            (target, table.shards.clone())
        };
        let Some(target) = target else {
            return Vec::new();
        };
        let store = shards[target].service.store();
        let replay = replication::replay(&holds(&shards), dead, target, &store);
        self.pin(replay.pins, target);
        self.obs.sessions_promoted.add(replay.promoted);
        replay.stranded
    }

    /// Retry promotion replays that failed (e.g. the target's backend errored mid-replay).
    /// Succeeding clears the debt; failing again reports the still-stranded ids so callers —
    /// every query flushes first — error instead of silently answering without acked data.
    pub(super) fn retry_stranded_replays(&self) -> Result<(), FlushError> {
        let pending = self.pending_replay_shards();
        let mut still_stranded = Vec::new();
        for dead in pending {
            let _failover = self.failover.write();
            let stranded = self.replay_holds_for(dead);
            if stranded.is_empty() {
                self.pending_replays.lock().remove(&dead);
            } else {
                still_stranded.extend(stranded);
            }
        }
        if still_stranded.is_empty() {
            return Ok(());
        }
        still_stranded.sort();
        still_stranded.dedup();
        Err(FlushError {
            failed_sessions: still_stranded,
            error: WireError::Payload(
                "promotion replay of replica holds is failing; the acked copies are preserved \
                 in the hold and the replay will be retried on the next flush"
                    .into(),
            ),
        })
    }

    /// Move `shard`'s buffered assertions to their current owners' buffers.
    pub(super) fn redistribute_buffer(&self, shard: &Shard) {
        let leftover = std::mem::take(&mut *shard.buffer.lock());
        // With no live shard left, the owner resolves back to `shard` itself: the work stays
        // buffered there, and `flush` reports its sessions as failed.
        for (owner, batch) in self.partition(leftover) {
            self.shard(owner).buffer.lock().extend(batch);
        }
    }

    /// A shared guard excluding failovers, so a scatter-gather holding it reads either the
    /// pre- or the post-promotion placement — never a mix where a dying shard's answer and
    /// its promoted copy both appear. Drop it before any failover handling (the write side).
    pub(crate) fn gather_guard(&self) -> parking_lot::RwLockReadGuard<'_, ()> {
        self.failover.read()
    }

    /// Run `attempt` until it stops failing with `ServiceDown`, failing the dead shard over
    /// before each retry; every shard can die at most once, which bounds the retries.
    /// `attempt` must have released the shared failover lock by the time it returns (the
    /// failover handling takes the write side).
    pub(super) fn with_failover<T>(&self, attempt: impl Fn() -> WireResult<T>) -> WireResult<T> {
        let mut attempts = 0;
        loop {
            match attempt() {
                Err(WireError::ServiceDown(_)) if attempts < self.shard_count() => {
                    attempts += 1;
                    self.maybe_handle_failures();
                }
                other => return other,
            }
        }
    }
}
