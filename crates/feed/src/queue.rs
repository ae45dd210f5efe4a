//! The durable per-subscriber job queue.
//!
//! One [`FeedQueue`] sits next to one [`pasoa_preserv::ProvenanceStore`], sharing its
//! [`StorageBackend`]. The queue's write half is the [`pasoa_preserv::RecordStager`] hook
//! ([`FeedQueue::stager`]): while the store commits a record batch, the queue stages one job
//! per matching subscriber into the same batch — the enqueue is exactly as durable as the
//! record it documents. The read half is `poll`/`ack`/`fail`: in-order windows per subscriber,
//! at-least-once, attempts counted, redelivery pushed back by capped exponential backoff on an
//! injectable [`FeedClock`].
//!
//! The queue is bounded: at `queue_cap` pending jobs the next matching event is replaced by a
//! single [`crate::event::FeedEventBody::Overflow`] notice and further events are dropped —
//! loudly: a durable per-subscriber dropped total (`f/o/`), the `feed.overflow.dropped`
//! counter, and the notice itself, which is delivered through any filter.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use pasoa_core::passertion::RecordedAssertion;
use pasoa_obs::{Counter, Gauge, Histogram, Registry};
use pasoa_preserv::backend::StorageBackend;
use pasoa_preserv::store::{RecordStager, StoreError};
use pasoa_wire::SimClock;

use crate::event::{identity_of_canonical_json, FeedEvent, FeedEventBody, SequencedEvent};
use crate::filter::{FeedFilter, LineageResolver, NoLineageResolver};
use crate::keys;
use crate::service::FeedBatch;

/// Error produced by feed operations.
#[derive(Debug)]
pub enum FeedError {
    /// The backing storage failed.
    Storage(String),
    /// A persisted feed document could not be decoded.
    Corrupt(String),
    /// The named subscriber is not registered.
    UnknownSubscriber(String),
    /// A subscriber rejected a delivery (carried back so the dispatcher schedules backoff).
    Delivery(String),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Storage(reason) => write!(f, "feed storage failure: {reason}"),
            FeedError::Corrupt(reason) => write!(f, "corrupt feed document: {reason}"),
            FeedError::UnknownSubscriber(name) => write!(f, "unknown subscriber '{name}'"),
            FeedError::Delivery(reason) => write!(f, "delivery failed: {reason}"),
        }
    }
}

impl std::error::Error for FeedError {}

impl From<pasoa_preserv::backend::BackendError> for FeedError {
    fn from(e: pasoa_preserv::backend::BackendError) -> Self {
        FeedError::Storage(e.to_string())
    }
}

/// The time source driving backoff deadlines and delivery-lag measurement. Deployments run on
/// the wall clock; the simulation harness injects a [`SimClock`] it advances explicitly, so
/// backoff behaviour replays bit-identically, seed for seed.
#[derive(Clone, Debug)]
pub enum FeedClock {
    /// Monotonic wall time, anchored at creation.
    Wall(Arc<Instant>),
    /// A shared simulated clock, advanced by the harness.
    Simulated(SimClock),
}

impl FeedClock {
    /// A wall clock starting now.
    pub fn wall() -> Self {
        FeedClock::Wall(Arc::new(Instant::now()))
    }

    /// Nanoseconds since this clock's origin.
    pub fn now_nanos(&self) -> u64 {
        match self {
            FeedClock::Wall(anchor) => anchor.elapsed().as_nanos() as u64,
            FeedClock::Simulated(clock) => clock.elapsed().as_nanos() as u64,
        }
    }
}

impl Default for FeedClock {
    fn default() -> Self {
        FeedClock::wall()
    }
}

/// Queue tuning.
#[derive(Clone, Debug)]
pub struct FeedConfig {
    /// Maximum pending jobs per subscriber; the cap slot itself is spent on the overflow
    /// notice. Values below 2 are raised to 2.
    pub queue_cap: usize,
    /// Maximum events handed out per poll window.
    pub batch_size: usize,
    /// Backoff after the first failed delivery; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub max_backoff: Duration,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            queue_cap: 65_536,
            batch_size: 32,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(5),
        }
    }
}

/// A durable subscriber registration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Subscription {
    /// Subscriber name (the queue identity).
    pub name: String,
    /// What the subscriber sees.
    pub filter: FeedFilter,
}

/// Delivery state of one job, as persisted under `f/t/`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct JobStateRecord {
    /// "in-flight" while handed out, "pending" after a failed delivery.
    state: String,
    /// Deliveries attempted so far.
    attempts: u32,
}

/// Introspection of one subscriber's queue (tests, stats, the sim's invariant checks).
#[derive(Clone, Debug, PartialEq)]
pub struct SubscriberSnapshot {
    /// Subscriber name.
    pub name: String,
    /// Jobs enqueued and not yet acknowledged.
    pub pending: u64,
    /// Highest acknowledged sequence.
    pub ack_floor: u64,
    /// Lifetime change events dropped at the cap.
    pub dropped: u64,
    /// Whether a window is currently handed out.
    pub in_flight: bool,
    /// Feed-clock deadline before which polls are deferred (0 = none).
    pub backoff_until_nanos: u64,
}

struct SubState {
    subscription: Subscription,
    /// Next sequence to allocate (sequences start at 1).
    next_seq: u64,
    /// Every sequence at or below this is acknowledged.
    ack_floor: u64,
    /// Attempt counts of unacknowledged jobs.
    attempts: BTreeMap<u64, u32>,
    /// Highest sequence of the currently handed-out window.
    in_flight_up_to: Option<u64>,
    /// Feed-clock deadline before which polls return empty.
    backoff_until: u64,
    /// The queue is at its cap and dropping events.
    overflow_active: bool,
    /// Lifetime dropped total.
    dropped: u64,
}

impl SubState {
    fn pending(&self) -> u64 {
        self.next_seq - 1 - self.ack_floor
    }
}

/// Undo log of the latest [`FeedQueue::stage_events`] call, applied if the store's backend
/// commit fails (the store serializes stage+commit, so at most one is outstanding).
#[derive(Default)]
struct StageUndo {
    entries: Vec<(String, u64, u64, bool)>,
}

struct Instruments {
    enqueued: Counter,
    acked: Counter,
    overflow_dropped: Counter,
    redelivery: Counter,
    backoff_scheduled: Counter,
    inflight_resets: Counter,
    recovered: Counter,
    queue_depth: Gauge,
    delivery_lag: Histogram,
    batch_len: Histogram,
}

impl Instruments {
    fn new(registry: &Registry) -> Self {
        Instruments {
            enqueued: registry.counter("feed.enqueued"),
            acked: registry.counter("feed.acked"),
            overflow_dropped: registry.counter("feed.overflow.dropped"),
            redelivery: registry.counter("feed.redelivery"),
            backoff_scheduled: registry.counter("feed.backoff.scheduled"),
            inflight_resets: registry.counter("feed.inflight_resets"),
            recovered: registry.counter("feed.recovered_jobs"),
            queue_depth: registry.gauge("feed.queue_depth"),
            delivery_lag: registry.histogram("feed.delivery.lag_nanos"),
            batch_len: registry.histogram("feed.delivery.batch_size"),
        }
    }
}

/// Serialize a change event byte-for-byte as `serde_json::to_vec(&FeedEvent { body:
/// Change(r), event_id, enqueued_nanos })` would, while serializing the assertion exactly
/// once: the content identity is a digest of the assertion's canonical JSON, and the event
/// envelope is assembled around those same bytes (`test_encode_matches_serde` pins the
/// equivalence). On the staging hot path this halves the serialization work per job.
fn encode_change_event(recorded: &RecordedAssertion, now: u64) -> Result<Vec<u8>, StoreError> {
    let assertion = serde_json::to_vec(recorded)
        .map_err(|e| StoreError::Corrupt(format!("feed event: {e}")))?;
    let event_id = identity_of_canonical_json(&assertion);
    let mut payload = Vec::with_capacity(assertion.len() + 64);
    payload.extend_from_slice(b"{\"body\":{\"Change\":");
    payload.extend_from_slice(&assertion);
    payload.extend_from_slice(b"},\"enqueued_nanos\":");
    payload.extend_from_slice(now.to_string().as_bytes());
    payload.extend_from_slice(b",\"event_id\":\"");
    payload.extend_from_slice(event_id.as_bytes());
    payload.extend_from_slice(b"\"}");
    Ok(payload)
}

/// The durable per-subscriber job queue. See the module docs for the contract.
pub struct FeedQueue {
    backend: Arc<dyn StorageBackend>,
    config: FeedConfig,
    clock: FeedClock,
    subs: Mutex<BTreeMap<String, SubState>>,
    undo: Mutex<StageUndo>,
    resolver: Mutex<Arc<dyn LineageResolver>>,
    waker: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
    obs: Instruments,
}

impl FeedQueue {
    /// Open (recovering any persisted subscriptions and jobs) a queue over `backend`.
    ///
    /// Recovery re-reads every registration, ack floor, job and state record: jobs at or
    /// below the floor (a crash between floor advance and purge) are purged, persisted
    /// in-flight states collapse back to pending (the crash reset every window), and attempt
    /// counts survive so backoff resumes where it left off.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        config: FeedConfig,
        clock: FeedClock,
        registry: &Registry,
    ) -> Result<Arc<Self>, FeedError> {
        let config = FeedConfig {
            queue_cap: config.queue_cap.max(2),
            batch_size: config.batch_size.max(1),
            ..config
        };
        let obs = Instruments::new(registry);
        let mut subs = BTreeMap::new();
        for (_, value) in backend.scan_prefix_values(keys::REGISTRATION_PREFIX.as_bytes())? {
            let subscription: Subscription = serde_json::from_slice(&value)
                .map_err(|e| FeedError::Corrupt(format!("registration: {e}")))?;
            let name = subscription.name.clone();
            let ack_floor = read_u64(&*backend, &keys::ack_key(&name))?;
            let dropped = read_u64(&*backend, &keys::drop_key(&name))?;

            // Purge leftovers a crash may have stranded below the floor, then account for
            // what survives above it.
            let job_keys = backend.scan_prefix(&keys::job_prefix(&name))?;
            let mut stale: Vec<Vec<u8>> = Vec::new();
            let mut live = 0u64;
            let mut max_seq = ack_floor;
            for key in &job_keys {
                let Some(seq) = keys::key_seq(key) else {
                    continue;
                };
                if seq <= ack_floor {
                    stale.push(key.clone());
                    stale.push(keys::state_key(&name, seq));
                } else {
                    live += 1;
                    max_seq = max_seq.max(seq);
                }
            }
            if !stale.is_empty() {
                backend.delete_many(&stale)?;
            }

            let mut attempts = BTreeMap::new();
            for (key, value) in backend.scan_prefix_values(&keys::state_prefix(&name))? {
                let Some(seq) = keys::key_seq(&key) else {
                    continue;
                };
                if seq <= ack_floor {
                    continue;
                }
                let record: JobStateRecord = serde_json::from_slice(&value)
                    .map_err(|e| FeedError::Corrupt(format!("job state: {e}")))?;
                // A persisted in-flight window did not survive the crash: the job is simply
                // pending again, attempts intact.
                attempts.insert(seq, record.attempts);
            }

            obs.recovered.add(live);
            let state = SubState {
                subscription,
                next_seq: max_seq + 1,
                ack_floor,
                attempts,
                in_flight_up_to: None,
                backoff_until: 0,
                overflow_active: live >= config.queue_cap as u64,
                dropped,
            };
            subs.insert(name, state);
        }
        let queue = FeedQueue {
            backend,
            config,
            clock,
            subs: Mutex::new(subs),
            undo: Mutex::new(StageUndo::default()),
            resolver: Mutex::new(Arc::new(NoLineageResolver)),
            waker: Mutex::new(None),
            obs,
        };
        queue.refresh_depth_gauge();
        Ok(Arc::new(queue))
    }

    /// The clock driving backoff and lag measurement.
    pub fn clock(&self) -> &FeedClock {
        &self.clock
    }

    /// The queue configuration.
    pub fn config(&self) -> &FeedConfig {
        &self.config
    }

    /// Install the lineage resolver the delivery-time filter refinement consults (defaults to
    /// one that matches nothing).
    pub fn set_resolver(&self, resolver: Arc<dyn LineageResolver>) {
        *self.resolver.lock() = resolver;
    }

    /// Install a callback invoked after events are staged — the dispatcher parks its workers
    /// on this.
    pub fn set_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        *self.waker.lock() = Some(waker);
    }

    /// The [`RecordStager`] half: attach the result to the co-located store with
    /// [`pasoa_preserv::ProvenanceStore::set_record_stager`].
    pub fn stager(self: &Arc<Self>) -> Arc<FeedStager> {
        Arc::new(FeedStager(Arc::clone(self)))
    }

    /// Register `name` (durably) or re-attach to it. Re-attaching resets any in-flight
    /// window, so the next poll replays from the last acknowledged sequence — the
    /// replay-on-reconnect half of the delivery contract. Returns the subscriber's ack floor.
    pub fn subscribe(&self, name: &str, filter: FeedFilter) -> Result<u64, FeedError> {
        let mut subs = self.subs.lock();
        if let Some(state) = subs.get_mut(name) {
            if state.in_flight_up_to.take().is_some() {
                self.obs.inflight_resets.inc();
            }
            if state.subscription.filter != filter {
                state.subscription.filter = filter;
                self.backend.put(
                    &keys::registration_key(name),
                    &serde_json::to_vec(&state.subscription)
                        .map_err(|e| FeedError::Corrupt(e.to_string()))?,
                )?;
            }
            return Ok(state.ack_floor);
        }
        let subscription = Subscription {
            name: name.to_string(),
            filter,
        };
        self.backend.put(
            &keys::registration_key(name),
            &serde_json::to_vec(&subscription).map_err(|e| FeedError::Corrupt(e.to_string()))?,
        )?;
        subs.insert(
            name.to_string(),
            SubState {
                subscription,
                next_seq: 1,
                ack_floor: 0,
                attempts: BTreeMap::new(),
                in_flight_up_to: None,
                backoff_until: 0,
                overflow_active: false,
                dropped: 0,
            },
        );
        Ok(0)
    }

    /// Drop `name` entirely: registration, jobs, states, floor and drop count.
    #[cfg(test)]
    pub(crate) fn unsubscribe(&self, name: &str) -> Result<(), FeedError> {
        let mut subs = self.subs.lock();
        if subs.remove(name).is_none() {
            return Err(FeedError::UnknownSubscriber(name.to_string()));
        }
        let mut doomed = self.backend.scan_prefix(&keys::job_prefix(name))?;
        doomed.extend(self.backend.scan_prefix(&keys::state_prefix(name))?);
        doomed.push(keys::registration_key(name));
        doomed.push(keys::ack_key(name));
        doomed.push(keys::drop_key(name));
        self.backend.delete_many(&doomed)?;
        drop(subs);
        self.refresh_depth_gauge();
        Ok(())
    }

    /// Registered subscriber names, sorted.
    pub fn subscribers(&self) -> Vec<String> {
        self.subs.lock().keys().cloned().collect()
    }

    /// Introspect every subscriber's queue.
    pub fn snapshot(&self) -> Vec<SubscriberSnapshot> {
        self.subs
            .lock()
            .iter()
            .map(|(name, s)| SubscriberSnapshot {
                name: name.clone(),
                pending: s.pending(),
                ack_floor: s.ack_floor,
                dropped: s.dropped,
                in_flight: s.in_flight_up_to.is_some(),
                backoff_until_nanos: s.backoff_until,
            })
            .collect()
    }

    /// Stage the change events of a record batch into `entries` (called by [`FeedStager`]
    /// under the store's commit serialization — allocation order IS commit order, which is
    /// what keeps every queue gap-free and the floor monotone).
    fn stage_events(
        &self,
        recorded: &[RecordedAssertion],
        entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError> {
        let now = self.clock.now_nanos();
        let mut subs = self.subs.lock();
        if subs.is_empty() {
            return Ok(());
        }
        let mut undo = StageUndo::default();
        let mut dropped_dirty: Vec<String> = Vec::new();
        for r in recorded {
            // Serialized lazily, at most once per assertion: filters match on the assertion
            // itself, so non-matching and capped-out subscribers never pay for the event's
            // JSON or its content identity — that is what keeps a dead subscriber's cost on
            // the record path to a counter bump.
            let mut staged_payload: Option<Vec<u8>> = None;
            for (name, state) in subs.iter_mut() {
                if !state.subscription.filter.matches_assertion(r) {
                    continue;
                }
                if !undo.entries.iter().any(|(n, ..)| n == name) {
                    undo.entries.push((
                        name.clone(),
                        state.next_seq,
                        state.dropped,
                        state.overflow_active,
                    ));
                }
                if state.overflow_active {
                    state.dropped += 1;
                    self.obs.overflow_dropped.inc();
                    if !dropped_dirty.iter().any(|n| n == name) {
                        dropped_dirty.push(name.clone());
                    }
                } else if state.pending() >= self.config.queue_cap as u64 - 1 {
                    // Last slot: spend it on the overflow notice instead of the event, which
                    // is the first drop.
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    state.dropped += 1;
                    state.overflow_active = true;
                    self.obs.overflow_dropped.inc();
                    let notice = FeedEvent {
                        body: FeedEventBody::Overflow {
                            dropped: state.dropped,
                        },
                        event_id: format!("overflow:{name}:{seq}"),
                        enqueued_nanos: now,
                    };
                    let notice_payload = serde_json::to_vec(&notice)
                        .map_err(|e| StoreError::Corrupt(format!("feed notice: {e}")))?;
                    entries.push((keys::job_key(name, seq), notice_payload));
                    if !dropped_dirty.iter().any(|n| n == name) {
                        dropped_dirty.push(name.clone());
                    }
                } else {
                    let payload = if let Some(payload) = &staged_payload {
                        payload.clone()
                    } else {
                        let payload = encode_change_event(r, now)?;
                        staged_payload = Some(payload.clone());
                        payload
                    };
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    entries.push((keys::job_key(name, seq), payload));
                    self.obs.enqueued.inc();
                }
            }
        }
        // One durable dropped-total write per subscriber per batch, not one per dropped
        // event: the total is cumulative, so only the last value matters.
        for name in &dropped_dirty {
            if let Some(state) = subs.get(name) {
                entries.push((keys::drop_key(name), state.dropped.to_string().into_bytes()));
            }
        }
        let depth: u64 = subs.values().map(|s| s.pending()).sum();
        drop(subs);
        *self.undo.lock() = undo;
        self.obs.queue_depth.set(depth as i64);
        if let Some(waker) = self.waker.lock().clone() {
            waker();
        }
        Ok(())
    }

    /// Roll back the in-memory allocation of the immediately preceding [`Self::stage_events`]
    /// — the store calls this when the batch's backend commit failed, so sequences never
    /// point at jobs that were never written.
    fn stage_aborted(&self) {
        let undo = std::mem::take(&mut *self.undo.lock());
        let mut subs = self.subs.lock();
        for (name, next_seq, dropped, overflow_active) in undo.entries {
            if let Some(state) = subs.get_mut(&name) {
                state.next_seq = next_seq;
                state.dropped = dropped;
                state.overflow_active = overflow_active;
            }
        }
        drop(subs);
        self.refresh_depth_gauge();
    }

    /// Hand out the next in-order window for `name`: up to `max` events past the ack floor.
    ///
    /// The window is marked in-flight (state records persisted with incremented attempt
    /// counts); polling again before an ack returns the same window — consumers suppress the
    /// duplicates by sequence. During a backoff period the poll returns an empty batch.
    /// Events failing the delivery-time filter refinement are acknowledged silently: a
    /// leading run advances the floor immediately, interleaved ones ride the window's
    /// `ack_up_to`.
    pub fn poll(&self, name: &str, max: usize) -> Result<FeedBatch, FeedError> {
        let resolver = self.resolver.lock().clone();
        let mut subs = self.subs.lock();
        let state = subs
            .get_mut(name)
            .ok_or_else(|| FeedError::UnknownSubscriber(name.to_string()))?;
        let now = self.clock.now_nanos();
        if now < state.backoff_until {
            return Ok(FeedBatch::empty());
        }
        let max = max.clamp(1, self.config.batch_size);
        let rest = loop {
            let after = (state.ack_floor > 0).then(|| keys::job_key(name, state.ack_floor));
            let window =
                self.backend
                    .scan_prefix_page(&keys::job_prefix(name), after.as_deref(), max)?;
            if window.is_empty() {
                drop(subs);
                self.refresh_depth_gauge();
                return Ok(FeedBatch::empty());
            }

            let mut scanned: Vec<(u64, FeedEvent, bool)> = Vec::with_capacity(window.len());
            for key in &window {
                let Some(seq) = keys::key_seq(key) else {
                    continue;
                };
                let value = self.backend.get(key)?.ok_or_else(|| {
                    FeedError::Corrupt(format!("job {seq} of '{name}' vanished mid-poll"))
                })?;
                let mut event: FeedEvent = serde_json::from_slice(&value)
                    .map_err(|e| FeedError::Corrupt(format!("job {seq}: {e}")))?;
                // Overflow notices report the dropped total as of delivery, not as of enqueue.
                if let FeedEventBody::Overflow { dropped } = &mut event.body {
                    *dropped = state.dropped;
                }
                let matches = state
                    .subscription
                    .filter
                    .delivery_matches(&event, resolver.as_ref())?;
                scanned.push((seq, event, matches));
            }
            if scanned.is_empty() {
                drop(subs);
                self.refresh_depth_gauge();
                return Ok(FeedBatch::empty());
            }

            // A leading run of filtered-out jobs is acknowledged right away, so a
            // subscription whose refinement rejects everything still makes floor progress.
            let first_match = scanned.iter().position(|(.., m)| *m);
            let lead_end = first_match.unwrap_or(scanned.len());
            if lead_end > 0 {
                let up_to = scanned[lead_end - 1].0;
                self.advance_floor(name, state, up_to, 0)?;
            }
            match first_match {
                // The whole window was filtered and acked: the floor moved, so scanning
                // again makes progress. Keep going until a matching event or a truly empty
                // queue — an empty batch must always mean "nothing pending".
                None => continue,
                Some(first_match) => break scanned.split_off(first_match),
            }
        };
        let rest = &rest[..];
        let ack_up_to = rest.last().map(|(seq, ..)| *seq).unwrap_or(0);
        let mut states: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(rest.len());
        let mut events = Vec::with_capacity(rest.len());
        for (seq, event, matches) in rest {
            let attempts = state.attempts.entry(*seq).or_insert(0);
            *attempts += 1;
            if *attempts > 1 {
                self.obs.redelivery.inc();
            }
            let record = JobStateRecord {
                state: "in-flight".into(),
                attempts: *attempts,
            };
            states.push((
                keys::state_key(name, *seq),
                serde_json::to_vec(&record).map_err(|e| FeedError::Corrupt(e.to_string()))?,
            ));
            if *matches {
                self.obs
                    .delivery_lag
                    .record(now.saturating_sub(event.enqueued_nanos));
                events.push(SequencedEvent {
                    seq: *seq,
                    event: event.clone(),
                });
            }
        }
        self.backend.put_many(&states)?;
        state.in_flight_up_to = Some(ack_up_to);
        self.obs.batch_len.record(events.len() as u64);
        Ok(FeedBatch { events, ack_up_to })
    }

    /// Acknowledge every sequence up to `up_to`: the floor advances durably, the covered jobs
    /// and state records are purged, backoff resets. Returns the new floor. Acking at or
    /// below the floor is a no-op (duplicate acks are expected under replay).
    pub fn ack(&self, name: &str, up_to: u64) -> Result<u64, FeedError> {
        let mut subs = self.subs.lock();
        let state = subs
            .get_mut(name)
            .ok_or_else(|| FeedError::UnknownSubscriber(name.to_string()))?;
        let up_to = up_to.min(state.next_seq.saturating_sub(1));
        if up_to <= state.ack_floor {
            return Ok(state.ack_floor);
        }
        let acked = up_to - state.ack_floor;
        self.advance_floor(name, state, up_to, acked)?;
        state.backoff_until = 0;
        if let Some(in_flight) = state.in_flight_up_to {
            if in_flight <= up_to {
                state.in_flight_up_to = None;
            }
        }
        let floor = state.ack_floor;
        drop(subs);
        self.refresh_depth_gauge();
        Ok(floor)
    }

    /// Report a failed delivery of the in-flight window: the window resets to pending (state
    /// records rewritten), and the next poll is deferred by a capped exponential backoff
    /// derived from the head job's attempt count. Returns the scheduled backoff.
    pub fn fail(&self, name: &str) -> Result<Duration, FeedError> {
        let mut subs = self.subs.lock();
        let state = subs
            .get_mut(name)
            .ok_or_else(|| FeedError::UnknownSubscriber(name.to_string()))?;
        let head_attempts = state
            .attempts
            .get(&(state.ack_floor + 1))
            .copied()
            .unwrap_or(1)
            .max(1);
        let backoff = backoff_for(
            head_attempts,
            self.config.base_backoff,
            self.config.max_backoff,
        );
        state.backoff_until = self.clock.now_nanos() + backoff.as_nanos() as u64;
        self.obs.backoff_scheduled.inc();
        if let Some(up_to) = state.in_flight_up_to.take() {
            let mut states: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            for (&seq, &attempts) in state.attempts.range(state.ack_floor + 1..=up_to) {
                let record = JobStateRecord {
                    state: "pending".into(),
                    attempts,
                };
                states.push((
                    keys::state_key(name, seq),
                    serde_json::to_vec(&record).map_err(|e| FeedError::Corrupt(e.to_string()))?,
                ));
            }
            self.backend.put_many(&states)?;
        }
        Ok(backoff)
    }

    /// Advance the floor and purge covered jobs. The floor write lands before the purge: a
    /// crash in between leaves stale sub-floor jobs, which recovery purges at open.
    fn advance_floor(
        &self,
        name: &str,
        state: &mut SubState,
        up_to: u64,
        acked_for_stats: u64,
    ) -> Result<(), FeedError> {
        let from = state.ack_floor + 1;
        self.backend
            .put(&keys::ack_key(name), up_to.to_string().as_bytes())?;
        let mut doomed = Vec::with_capacity(((up_to + 1 - from) * 2) as usize);
        for seq in from..=up_to {
            doomed.push(keys::job_key(name, seq));
            doomed.push(keys::state_key(name, seq));
        }
        self.backend.delete_many(&doomed)?;
        state.ack_floor = up_to;
        state.attempts = state.attempts.split_off(&(up_to + 1));
        if state.overflow_active && state.pending() < self.config.queue_cap as u64 {
            state.overflow_active = false;
        }
        if acked_for_stats > 0 {
            self.obs.acked.add(acked_for_stats);
        }
        Ok(())
    }

    fn refresh_depth_gauge(&self) {
        let total: u64 = self.subs.lock().values().map(|s| s.pending()).sum();
        self.obs.queue_depth.set(total as i64);
    }
}

/// The [`RecordStager`] adapter handed to the store.
pub struct FeedStager(Arc<FeedQueue>);

impl FeedStager {
    /// The queue this stager feeds.
    pub fn queue(&self) -> Arc<FeedQueue> {
        Arc::clone(&self.0)
    }
}

impl RecordStager for FeedStager {
    fn stage_batch(
        &self,
        recorded: &[RecordedAssertion],
        entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError> {
        self.0.stage_events(recorded, entries)
    }

    fn stage_aborted(&self) {
        self.0.stage_aborted();
    }
}

fn read_u64(backend: &dyn StorageBackend, key: &[u8]) -> Result<u64, FeedError> {
    match backend.get(key)? {
        None => Ok(0),
        Some(value) => std::str::from_utf8(&value)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| FeedError::Corrupt("unparseable counter value".into())),
    }
}

/// Exponential backoff: `base * 2^(attempts-1)`, saturating at `max`. Monotone in
/// `attempts`, which is what makes consecutive failure deadlines monotone under a monotone
/// clock.
pub fn backoff_for(attempts: u32, base: Duration, max: Duration) -> Duration {
    let exp = attempts.saturating_sub(1).min(32);
    let nanos = (base.as_nanos() as u64).saturating_mul(1u64 << exp);
    Duration::from_nanos(nanos).min(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::{ActorId, InteractionKey, SessionId};
    use pasoa_core::passertion::{
        ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
    };
    use pasoa_preserv::{MemoryBackend, ProvenanceStore};

    fn assertion(session: &str, i: usize) -> RecordedAssertion {
        RecordedAssertion {
            session: SessionId::new(session),
            assertion: PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: InteractionKey::new(format!("interaction:q{i}")),
                asserter: ActorId::new("actor:q"),
                view: ViewKind::Receiver,
                kind: ActorStateKind::Script,
                content: PAssertionContent::text(format!("step {i}")),
            }),
        }
    }

    fn store_with_feed(config: FeedConfig) -> (Arc<ProvenanceStore>, Arc<FeedQueue>) {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let store = Arc::new(ProvenanceStore::open(Arc::clone(&backend)).unwrap());
        let queue = FeedQueue::open(backend, config, FeedClock::wall(), &Registry::new()).unwrap();
        store.set_record_stager(Some(queue.stager()));
        (store, queue)
    }

    /// The hand-assembled staging payload must stay byte-identical to what serde would
    /// produce for the equivalent [`FeedEvent`] — the job format readers decode with serde.
    #[test]
    fn test_encode_matches_serde() {
        let recorded = assertion("session:\"tricky\" \\ unicode é", 7);
        let via_serde = serde_json::to_vec(&FeedEvent {
            body: FeedEventBody::Change(recorded.clone()),
            event_id: crate::event::event_identity(&recorded),
            enqueued_nanos: 123_456_789,
        })
        .unwrap();
        let assembled = encode_change_event(&recorded, 123_456_789).unwrap();
        assert_eq!(assembled, via_serde);
    }

    #[test]
    fn events_flow_in_order_and_acks_purge() {
        let (store, queue) = store_with_feed(FeedConfig::default());
        queue.subscribe("sub", FeedFilter::All).unwrap();
        for i in 0..5 {
            store.record(&assertion("session:q", i)).unwrap();
        }
        let batch = queue.poll("sub", 3).unwrap();
        assert_eq!(
            batch.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Same window again before the ack (at-least-once).
        let again = queue.poll("sub", 3).unwrap();
        assert_eq!(again.ack_up_to, 3);
        assert_eq!(queue.ack("sub", 3).unwrap(), 3);
        let rest = queue.poll("sub", 10).unwrap();
        assert_eq!(
            rest.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        queue.ack("sub", rest.ack_up_to).unwrap();
        assert!(queue.poll("sub", 10).unwrap().events.is_empty());
        let snap = &queue.snapshot()[0];
        assert_eq!((snap.pending, snap.ack_floor), (0, 5));
    }

    #[test]
    fn queue_survives_reopen_with_inflight_reset_and_attempts_intact() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let store = Arc::new(ProvenanceStore::open(Arc::clone(&backend)).unwrap());
        let queue = FeedQueue::open(
            Arc::clone(&backend),
            FeedConfig::default(),
            FeedClock::wall(),
            &Registry::new(),
        )
        .unwrap();
        store.set_record_stager(Some(queue.stager()));
        queue.subscribe("sub", FeedFilter::All).unwrap();
        for i in 0..4 {
            store.record(&assertion("session:r", i)).unwrap();
        }
        let batch = queue.poll("sub", 2).unwrap();
        queue.ack("sub", batch.ack_up_to).unwrap();
        // Window 3..4 handed out but never acked, then the process "restarts".
        let _ = queue.poll("sub", 2).unwrap();
        drop(queue);
        let reopened = FeedQueue::open(
            Arc::clone(&backend),
            FeedConfig::default(),
            FeedClock::wall(),
            &Registry::new(),
        )
        .unwrap();
        let snap = &reopened.snapshot()[0];
        assert_eq!(
            (snap.pending, snap.ack_floor, snap.in_flight),
            (2, 2, false)
        );
        let replay = reopened.poll("sub", 10).unwrap();
        assert_eq!(
            replay.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // The replayed window counts as redelivery: attempts were recovered from `f/t/`.
        assert!(replay.events.iter().all(|e| e.seq > 2));
    }

    #[test]
    fn overflow_caps_the_queue_loudly_and_recovers_after_acks() {
        let (store, queue) = store_with_feed(FeedConfig {
            queue_cap: 4,
            ..FeedConfig::default()
        });
        queue.subscribe("sub", FeedFilter::All).unwrap();
        for i in 0..10 {
            store.record(&assertion("session:o", i)).unwrap();
        }
        // 3 real events, the 4th slot is the notice, 10-3=7 dropped.
        let snap = &queue.snapshot()[0];
        assert_eq!((snap.pending, snap.dropped), (4, 7));
        let batch = queue.poll("sub", 10).unwrap();
        assert_eq!(batch.events.len(), 4);
        match &batch.events[3].event.body {
            FeedEventBody::Overflow { dropped } => assert_eq!(*dropped, 7),
            other => panic!("expected overflow notice, got {other:?}"),
        }
        queue.ack("sub", batch.ack_up_to).unwrap();
        // Space again: events flow normally.
        store.record(&assertion("session:o", 99)).unwrap();
        let after = queue.poll("sub", 10).unwrap();
        assert_eq!(after.events.len(), 1);
        assert!(matches!(
            after.events[0].event.body,
            FeedEventBody::Change(_)
        ));
    }

    #[test]
    fn failed_deliveries_back_off_exponentially_on_the_injected_clock() {
        let sim = SimClock::new();
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let store = Arc::new(ProvenanceStore::open(Arc::clone(&backend)).unwrap());
        let queue = FeedQueue::open(
            Arc::clone(&backend),
            FeedConfig::default(),
            FeedClock::Simulated(sim.clone()),
            &Registry::new(),
        )
        .unwrap();
        store.set_record_stager(Some(queue.stager()));
        queue.subscribe("sub", FeedFilter::All).unwrap();
        store.record(&assertion("session:b", 0)).unwrap();

        let _ = queue.poll("sub", 1).unwrap();
        let first = queue.fail("sub").unwrap();
        assert_eq!(first, Duration::from_millis(25));
        // Deferred until the clock passes the deadline.
        assert!(queue.poll("sub", 1).unwrap().events.is_empty());
        sim.advance(Duration::from_millis(26));
        let retry = queue.poll("sub", 1).unwrap();
        assert_eq!(retry.events.len(), 1);
        let second = queue.fail("sub").unwrap();
        assert_eq!(second, Duration::from_millis(50));
        // A success resets the backoff entirely.
        sim.advance(Duration::from_millis(51));
        let batch = queue.poll("sub", 1).unwrap();
        queue.ack("sub", batch.ack_up_to).unwrap();
        assert_eq!(queue.snapshot()[0].backoff_until_nanos, 0);
    }

    #[test]
    fn backoff_saturates_at_the_cap() {
        let base = Duration::from_millis(25);
        let max = Duration::from_secs(5);
        let mut last = Duration::ZERO;
        for attempts in 1..64 {
            let b = backoff_for(attempts, base, max);
            assert!(b >= last, "backoff must be monotone in attempts");
            assert!(b <= max);
            last = b;
        }
        assert_eq!(backoff_for(63, base, max), max);
    }

    #[test]
    fn enqueue_filters_spare_queue_slots() {
        let (store, queue) = store_with_feed(FeedConfig::default());
        queue
            .subscribe(
                "sessions",
                FeedFilter::BySession {
                    session: "session:yes".into(),
                },
            )
            .unwrap();
        store.record(&assertion("session:yes", 0)).unwrap();
        store.record(&assertion("session:no", 1)).unwrap();
        store.record(&assertion("session:yes", 2)).unwrap();
        let snap = &queue.snapshot()[0];
        assert_eq!(snap.pending, 2);
        let batch = queue.poll("sessions", 10).unwrap();
        assert!(batch
            .events
            .iter()
            .all(|e| e.event.session() == Some("session:yes")));
    }

    #[test]
    fn aborted_commits_roll_the_allocation_back() {
        let (_, queue) = store_with_feed(FeedConfig::default());
        queue.subscribe("sub", FeedFilter::All).unwrap();
        let mut entries = Vec::new();
        queue
            .stage_events(&[assertion("session:a", 0)], &mut entries)
            .unwrap();
        assert_eq!(queue.snapshot()[0].pending, 1);
        queue.stage_aborted();
        assert_eq!(queue.snapshot()[0].pending, 0);
        // The next staged event reuses the rolled-back sequence.
        let mut entries = Vec::new();
        queue
            .stage_events(&[assertion("session:a", 1)], &mut entries)
            .unwrap();
        assert!(entries.iter().any(|(k, _)| k == &keys::job_key("sub", 1)));
    }

    #[test]
    fn unsubscribe_clears_every_keyspace() {
        let (store, queue) = store_with_feed(FeedConfig::default());
        queue.subscribe("sub", FeedFilter::All).unwrap();
        store.record(&assertion("session:u", 0)).unwrap();
        let _ = queue.poll("sub", 1).unwrap();
        queue.unsubscribe("sub").unwrap();
        assert!(queue.subscribers().is_empty());
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        drop(backend);
        assert!(matches!(
            queue.poll("sub", 1),
            Err(FeedError::UnknownSubscriber(_))
        ));
    }
}
