//! In-process delivery: the bounded worker pool draining queues into [`Subscriber`]s.
//!
//! The dispatcher owns no queue state — it is purely a drive loop around
//! [`FeedQueue::poll`]/[`FeedQueue::ack`]/[`FeedQueue::fail`]. That keeps two properties:
//! delivery failures (including subscriber panics, which are contained with `catch_unwind`)
//! become ordinary backoff, and the tests can skip the threads entirely and drain the same
//! code path single-threaded and deterministically.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::event::SequencedEvent;
use crate::filter::FeedFilter;
use crate::queue::{FeedError, FeedQueue};

/// An in-process consumer of change events.
pub trait Subscriber: Send + Sync {
    /// Consume one in-order window. Returning an error (or panicking) rejects the whole
    /// window: nothing is acknowledged and redelivery follows after backoff.
    fn deliver(&self, events: &[SequencedEvent]) -> Result<(), FeedError>;
}

struct SubEntry {
    subscriber: Arc<dyn Subscriber>,
    /// Highest sequence handed to the subscriber — the duplicate-suppression watermark for
    /// windows replayed after a failed ack.
    last_delivered: AtomicU64,
}

struct Shared {
    queue: Arc<FeedQueue>,
    subscribers: Mutex<BTreeMap<String, Arc<SubEntry>>>,
    /// Names currently being drained by a worker (so two workers never interleave one
    /// subscriber's windows, which would break in-order delivery).
    busy: Mutex<BTreeSet<String>>,
    // std's pair, not parking_lot's: the vendored parking_lot has no Condvar.
    signal: std::sync::Mutex<bool>,
    wake: std::sync::Condvar,
    shutdown: AtomicBool,
    panics: AtomicU64,
    drive_errors: AtomicU64,
}

impl Shared {
    fn notify(&self) {
        let mut pending = self.signal.lock().unwrap_or_else(|e| e.into_inner());
        *pending = true;
        self.wake.notify_all();
    }
}

/// The worker pool. Create one per [`FeedQueue`]; attach subscribers; call
/// [`FeedDispatcher::start`] for the background threads.
pub struct FeedDispatcher {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl FeedDispatcher {
    /// A dispatcher over `queue`. Installs itself as the queue's waker, so staged events wake
    /// parked workers.
    pub fn new(queue: Arc<FeedQueue>) -> Arc<Self> {
        let shared = Arc::new(Shared {
            queue: Arc::clone(&queue),
            subscribers: Mutex::new(BTreeMap::new()),
            busy: Mutex::new(BTreeSet::new()),
            signal: std::sync::Mutex::new(false),
            wake: std::sync::Condvar::new(),
            shutdown: AtomicBool::new(false),
            panics: AtomicU64::new(0),
            drive_errors: AtomicU64::new(0),
        });
        let waker = Arc::clone(&shared);
        queue.set_waker(Arc::new(move || waker.notify()));
        Arc::new(FeedDispatcher {
            shared,
            workers: Mutex::new(Vec::new()),
        })
    }

    /// The queue this dispatcher drains.
    pub fn queue(&self) -> Arc<FeedQueue> {
        Arc::clone(&self.shared.queue)
    }

    /// Register `subscriber` under `name` with `filter` (durably, via
    /// [`FeedQueue::subscribe`]) and start delivering to it.
    pub fn attach(
        &self,
        name: &str,
        filter: FeedFilter,
        subscriber: Arc<dyn Subscriber>,
    ) -> Result<(), FeedError> {
        let floor = self.shared.queue.subscribe(name, filter)?;
        self.shared.subscribers.lock().insert(
            name.to_string(),
            Arc::new(SubEntry {
                subscriber,
                last_delivered: AtomicU64::new(floor),
            }),
        );
        self.shared.notify();
        Ok(())
    }

    /// One synchronous delivery pass over every attached subscriber, in name order. Returns
    /// the number of events delivered: the tests' deterministic stand-in for the worker
    /// threads.
    #[cfg(test)]
    pub(crate) fn pump(&self) -> Result<usize, FeedError> {
        let names: Vec<String> = self.shared.subscribers.lock().keys().cloned().collect();
        let mut delivered = 0;
        for name in names {
            delivered += drain_one(&self.shared, &name)?;
        }
        Ok(delivered)
    }

    /// Pump until a pass delivers nothing (or `max_passes` is spent). Returns the total.
    #[cfg(test)]
    pub(crate) fn pump_until_idle(&self, max_passes: usize) -> Result<usize, FeedError> {
        let mut total = 0;
        for _ in 0..max_passes {
            let got = self.pump()?;
            if got == 0 {
                break;
            }
            total += got;
        }
        Ok(total)
    }

    /// Start `workers` background threads draining queues as events arrive.
    pub fn start(self: &Arc<Self>, workers: usize) {
        let mut handles = self.workers.lock();
        for i in 0..workers.max(1) {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("feed-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn feed worker");
            handles.push(handle);
        }
    }

    /// Stop the workers and join them.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// How many subscriber panics have been contained.
    #[cfg(test)]
    pub(crate) fn contained_panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// How many drive-loop errors (storage failures while polling/acking) were swallowed by
    /// background workers.
    pub fn drive_errors(&self) -> u64 {
        self.shared.drive_errors.load(Ordering::Relaxed)
    }
}

impl Drop for FeedDispatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let names: Vec<String> = shared.subscribers.lock().keys().cloned().collect();
        let mut delivered = 0;
        for name in names {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Claim the subscriber so windows never interleave across workers.
            if !shared.busy.lock().insert(name.clone()) {
                continue;
            }
            let outcome = drain_one(shared, &name);
            shared.busy.lock().remove(&name);
            match outcome {
                Ok(n) => delivered += n,
                Err(_) => {
                    shared.drive_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if delivered == 0 {
            let mut pending = shared.signal.lock().unwrap_or_else(|e| e.into_inner());
            if !*pending {
                // Park briefly; the timeout keeps backoff deadlines honoured even with no
                // waker activity.
                let (guard, _) = shared
                    .wake
                    .wait_timeout(pending, Duration::from_millis(5))
                    .unwrap_or_else(|e| e.into_inner());
                pending = guard;
            }
            *pending = false;
        }
    }
}

/// Drain one window for one subscriber: poll, deliver (panic-contained), ack or fail.
fn drain_one(shared: &Shared, name: &str) -> Result<usize, FeedError> {
    let Some(entry) = shared.subscribers.lock().get(name).cloned() else {
        return Ok(0);
    };
    let batch = shared.queue.poll(name, shared.queue.config().batch_size)?;
    if batch.ack_up_to == 0 {
        return Ok(0);
    }
    let watermark = entry.last_delivered.load(Ordering::Acquire);
    let fresh: Vec<SequencedEvent> = batch
        .events
        .iter()
        .filter(|e| e.seq > watermark)
        .cloned()
        .collect();
    let outcome = if fresh.is_empty() {
        Ok(())
    } else {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            entry.subscriber.deliver(&fresh)
        }))
        .unwrap_or_else(|panic| {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            Err(FeedError::Delivery(format!(
                "subscriber '{name}' panicked: {}",
                panic_detail(&panic)
            )))
        })
    };
    match outcome {
        Ok(()) => {
            shared.queue.ack(name, batch.ack_up_to)?;
            entry
                .last_delivered
                .fetch_max(batch.ack_up_to, Ordering::AcqRel);
            Ok(fresh.len())
        }
        Err(_) => {
            shared.queue.fail(name)?;
            Ok(0)
        }
    }
}

fn panic_detail(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{FeedClock, FeedConfig};
    use pasoa_core::ids::{ActorId, InteractionKey, SessionId};
    use pasoa_core::passertion::{
        ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, RecordedAssertion,
        ViewKind,
    };
    use pasoa_obs::Registry;
    use pasoa_preserv::{MemoryBackend, ProvenanceStore, StorageBackend};
    use pasoa_wire::SimClock;

    /// Collects everything it receives, with injectable failures and panics.
    #[derive(Default)]
    struct CollectingSubscriber {
        events: Mutex<Vec<SequencedEvent>>,
        fail_remaining: AtomicU64,
        panic_remaining: AtomicU64,
    }

    impl CollectingSubscriber {
        fn new() -> Arc<Self> {
            Arc::new(Self::default())
        }

        /// Reject the next `n` windows with a delivery error.
        fn fail_next(&self, n: u64) {
            self.fail_remaining.store(n, Ordering::SeqCst);
        }

        /// Panic on the next `n` windows.
        fn panic_next(&self, n: u64) {
            self.panic_remaining.store(n, Ordering::SeqCst);
        }

        /// The received sequences, in delivery order.
        fn seqs(&self) -> Vec<u64> {
            self.events.lock().iter().map(|e| e.seq).collect()
        }

        fn len(&self) -> usize {
            self.events.lock().len()
        }
    }

    impl Subscriber for CollectingSubscriber {
        fn deliver(&self, events: &[SequencedEvent]) -> Result<(), FeedError> {
            let take_one = |n: &AtomicU64| {
                n.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            };
            if take_one(&self.panic_remaining) {
                panic!("deliberate subscriber panic");
            }
            if take_one(&self.fail_remaining) {
                return Err(FeedError::Delivery("deliberate test failure".into()));
            }
            self.events.lock().extend_from_slice(events);
            Ok(())
        }
    }

    fn assertion(i: usize) -> RecordedAssertion {
        RecordedAssertion {
            session: SessionId::new("session:d"),
            assertion: PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: InteractionKey::new(format!("interaction:d{i}")),
                asserter: ActorId::new("actor:d"),
                view: ViewKind::Receiver,
                kind: ActorStateKind::Script,
                content: PAssertionContent::text(format!("step {i}")),
            }),
        }
    }

    fn rig(clock: FeedClock) -> (Arc<ProvenanceStore>, Arc<FeedDispatcher>) {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let store = Arc::new(ProvenanceStore::open(Arc::clone(&backend)).unwrap());
        let queue =
            crate::queue::FeedQueue::open(backend, FeedConfig::default(), clock, &Registry::new())
                .unwrap();
        store.set_record_stager(Some(queue.stager()));
        (store, FeedDispatcher::new(queue))
    }

    #[test]
    fn pump_delivers_in_order_exactly_once() {
        let (store, dispatcher) = rig(FeedClock::wall());
        let sink = CollectingSubscriber::new();
        dispatcher
            .attach("sink", FeedFilter::All, sink.clone())
            .unwrap();
        for i in 0..7 {
            store.record(&assertion(i)).unwrap();
        }
        dispatcher.pump_until_idle(16).unwrap();
        // A second pump redelivers nothing.
        dispatcher.pump_until_idle(16).unwrap();
        assert_eq!(sink.seqs(), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn failed_windows_are_redelivered_after_backoff_without_duplicates() {
        let sim = SimClock::new();
        let (store, dispatcher) = rig(FeedClock::Simulated(sim.clone()));
        let sink = CollectingSubscriber::new();
        dispatcher
            .attach("sink", FeedFilter::All, sink.clone())
            .unwrap();
        store.record(&assertion(0)).unwrap();
        sink.fail_next(1);
        assert_eq!(dispatcher.pump().unwrap(), 0);
        // Backoff holds the window back until the clock moves.
        assert_eq!(dispatcher.pump().unwrap(), 0);
        sim.advance(Duration::from_millis(30));
        assert_eq!(dispatcher.pump().unwrap(), 1);
        assert_eq!(sink.seqs(), vec![1]);
    }

    #[test]
    fn subscriber_panics_are_contained_and_retried() {
        let sim = SimClock::new();
        let (store, dispatcher) = rig(FeedClock::Simulated(sim.clone()));
        let sink = CollectingSubscriber::new();
        dispatcher
            .attach("sink", FeedFilter::All, sink.clone())
            .unwrap();
        store.record(&assertion(0)).unwrap();
        sink.panic_next(1);
        assert_eq!(dispatcher.pump().unwrap(), 0);
        assert_eq!(dispatcher.contained_panics(), 1);
        sim.advance(Duration::from_millis(30));
        assert_eq!(dispatcher.pump().unwrap(), 1);
        assert_eq!(sink.seqs(), vec![1]);
    }

    #[test]
    fn worker_pool_drains_asynchronously() {
        let (store, dispatcher) = rig(FeedClock::wall());
        let sink = CollectingSubscriber::new();
        dispatcher
            .attach("sink", FeedFilter::All, sink.clone())
            .unwrap();
        dispatcher.start(2);
        for i in 0..20 {
            store.record(&assertion(i)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sink.len() < 20 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        dispatcher.shutdown();
        assert_eq!(sink.seqs(), (1..=20).collect::<Vec<u64>>());
    }

    #[test]
    fn two_subscribers_with_different_filters_see_disjoint_views() {
        let (store, dispatcher) = rig(FeedClock::wall());
        let all = CollectingSubscriber::new();
        let by_actor = CollectingSubscriber::new();
        dispatcher
            .attach("all", FeedFilter::All, all.clone())
            .unwrap();
        dispatcher
            .attach(
                "actor",
                FeedFilter::ByActor {
                    actor: "actor:none".into(),
                },
                by_actor.clone(),
            )
            .unwrap();
        for i in 0..3 {
            store.record(&assertion(i)).unwrap();
        }
        dispatcher.pump_until_idle(16).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(by_actor.len(), 0);
    }
}
