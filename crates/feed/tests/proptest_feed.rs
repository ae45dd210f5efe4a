//! Property tests for the feed tier's scheduling and capacity contracts, plus a crash sweep
//! that truncates a kvdb-backed job queue's log tail at every 7th byte and proves recovery
//! always lands in a consistent state: the committed prefix intact, sequences contiguous,
//! every window reset, nothing invented.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use pasoa_core::ids::{ActorId, InteractionKey, SessionId};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, RecordedAssertion,
    ViewKind,
};
use pasoa_feed::{
    backoff_for, event_identity, FeedClock, FeedConfig, FeedEventBody, FeedFilter, FeedQueue,
};
use pasoa_kvdb::{DbOptions, SyncPolicy};
use pasoa_obs::Registry;
use pasoa_preserv::{KvBackend, MemoryBackend, ProvenanceStore, StorageBackend};
use pasoa_wire::SimClock;

fn assertion(session: &str, i: usize) -> RecordedAssertion {
    RecordedAssertion {
        session: SessionId::new(session),
        assertion: PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: InteractionKey::new(format!("interaction:p{i}")),
            asserter: ActorId::new("actor:p"),
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(format!("step {i}")),
        }),
    }
}

fn store_with_feed(config: FeedConfig, clock: FeedClock) -> (Arc<ProvenanceStore>, Arc<FeedQueue>) {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let store = Arc::new(ProvenanceStore::open(Arc::clone(&backend)).unwrap());
    let queue = FeedQueue::open(backend, config, clock, &Registry::new()).unwrap();
    store.set_record_stager(Some(queue.stager()));
    (store, queue)
}

/// What the model expects to occupy one queue slot.
#[derive(Clone, Debug, PartialEq)]
enum Slot {
    Change(usize),
    Notice,
}

#[derive(Clone, Debug)]
enum Step {
    Enqueue,
    Drain,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![5 => Just(Step::Enqueue), 1 => Just(Step::Drain)],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// The pure scheduling function: deadlines grow monotonically with the attempt count,
    /// never exceed the cap, never undershoot the base, and saturate (no wraparound back to
    /// short waits at absurd attempt counts).
    #[test]
    fn backoff_is_monotone_capped_and_floored(
        base_ms in 1u64..1_000,
        max_ms in 1u64..60_000,
        attempts in 1u32..200,
    ) {
        let base = Duration::from_millis(base_ms);
        let max = Duration::from_millis(max_ms);
        let here = backoff_for(attempts, base, max);
        let next = backoff_for(attempts + 1, base, max);
        prop_assert!(here <= next, "deadlines must be monotone in attempts");
        prop_assert!(here <= max, "the cap is a hard ceiling");
        prop_assert!(here >= base.min(max), "even the first failure waits");
        prop_assert_eq!(backoff_for(u32::MAX, base, max), max);
    }

    /// No starvation: however many consecutive failures a subscriber racks up, advancing the
    /// clock past the (capped) deadline always re-opens delivery, and a single ack resets the
    /// schedule entirely.
    #[test]
    fn repeated_failures_delay_but_never_starve_delivery(
        fails in 1u32..12,
        slack_ms in 1u64..40,
    ) {
        let config = FeedConfig {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(160),
            ..FeedConfig::default()
        };
        let max_backoff = config.max_backoff;
        let sim = SimClock::new();
        let (store, queue) = store_with_feed(config, FeedClock::Simulated(sim.clone()));
        queue.subscribe("fragile", FeedFilter::All).unwrap();
        store.record(&assertion("session:starve", 0)).unwrap();

        let mut last = Duration::ZERO;
        for round in 0..fails {
            let batch = queue.poll("fragile", 1).unwrap();
            prop_assert_eq!(
                batch.events.len(), 1,
                "round {}: past the deadline the window must be handed out again", round
            );
            let backoff = queue.fail("fragile").unwrap();
            prop_assert!(backoff >= last, "consecutive failure deadlines must not shrink");
            prop_assert!(backoff <= max_backoff, "the deadline may never pass the cap");
            last = backoff;
            // Deferred while the deadline is in the future...
            prop_assert!(queue.poll("fragile", 1).unwrap().events.is_empty());
            // ...and advancing past it always suffices, no matter the attempt count.
            sim.advance(backoff + Duration::from_millis(slack_ms));
        }
        let batch = queue.poll("fragile", 1).unwrap();
        prop_assert_eq!(
            batch.events.len(), 1,
            "a recovered consumer drains regardless of its failure history"
        );
        queue.ack("fragile", batch.ack_up_to).unwrap();
        prop_assert_eq!(queue.snapshot()[0].backoff_until_nanos, 0);
    }

    /// The capacity contract, against a slot-for-slot model: pending never exceeds the cap,
    /// the first drop spends the last slot on an overflow notice carrying the dropped total
    /// as of delivery, further drops only bump the total, and acks restore normal flow.
    #[test]
    fn the_cap_drops_loudly_and_recovers_after_acks(steps in steps(), cap in 2usize..6) {
        let config = FeedConfig {
            queue_cap: cap,
            batch_size: 64,
            ..FeedConfig::default()
        };
        let (store, queue) = store_with_feed(config, FeedClock::wall());
        queue.subscribe("sub", FeedFilter::All).unwrap();

        let mut queued: Vec<Slot> = Vec::new();
        let mut dropped = 0u64;
        let mut overflow_active = false;
        let mut next_record = 0usize;
        for step in &steps {
            match step {
                Step::Enqueue => {
                    store.record(&assertion("session:cap", next_record)).unwrap();
                    if overflow_active {
                        dropped += 1;
                    } else if queued.len() >= cap - 1 {
                        // Last slot: the notice takes it, the event is the first drop.
                        dropped += 1;
                        overflow_active = true;
                        queued.push(Slot::Notice);
                    } else {
                        queued.push(Slot::Change(next_record));
                    }
                    next_record += 1;
                }
                Step::Drain => {
                    let batch = queue.poll("sub", 64).unwrap();
                    prop_assert_eq!(batch.events.len(), queued.len());
                    for (delivered, slot) in batch.events.iter().zip(&queued) {
                        match (&delivered.event.body, slot) {
                            (FeedEventBody::Change(_), Slot::Change(i)) => {
                                prop_assert_eq!(
                                    &delivered.event.event_id,
                                    &event_identity(&assertion("session:cap", *i)),
                                    "slot {} must hold the event staged into it", delivered.seq
                                );
                            }
                            (FeedEventBody::Overflow { dropped: reported }, Slot::Notice) => {
                                prop_assert_eq!(
                                    *reported, dropped,
                                    "the notice reports the dropped total as of delivery"
                                );
                            }
                            (body, slot) => {
                                return Err(TestCaseError::fail(format!(
                                    "delivered {body:?} where the model queued {slot:?}"
                                )));
                            }
                        }
                    }
                    queue.ack("sub", batch.ack_up_to).unwrap();
                    queued.clear();
                    overflow_active = false;
                }
            }
            let snap = &queue.snapshot()[0];
            prop_assert!(snap.pending <= cap as u64, "pending may never exceed the cap");
            prop_assert_eq!(snap.pending, queued.len() as u64);
            prop_assert_eq!(snap.dropped, dropped);
        }
    }
}

fn one_segment_options() -> DbOptions {
    DbOptions {
        // Large enough that the whole test lives in one segment — the file the sweep cuts.
        segment_target_bytes: 1 << 20,
        cache_budget_bytes: 1 << 20,
        sync: SyncPolicy::Always,
        auto_compact_garbage_ratio: 0.0,
    }
}

fn segment_one(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join(format!("seg-{:016}.log", 1))
}

/// The crash sweep: build a kvdb-backed queue, mark the committed prefix, stage a tail of
/// jobs (with an ack buried inside it, so cuts can land between the floor write and the
/// purge), then truncate the log at every 7th byte of the tail and reopen. Every cut must
/// recover to a consistent queue: registration and committed floor intact, surviving
/// sequences contiguous from the floor, every job decoding to the event staged at that
/// sequence, and nothing staged before the committed mark missing.
#[test]
fn torn_job_queue_tails_recover_consistently_at_every_cut() {
    let base = std::env::temp_dir().join(format!("feed-crash-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let seed_dir = base.join("seed");

    const COMMITTED: usize = 6; // phase-A records → sequences 1..=6
    const ACKED: u64 = 2; // phase-A floor
    const TAIL: usize = 6; // phase-B records → sequences 7..=12
    let committed_len;
    {
        let backend: Arc<dyn StorageBackend> =
            Arc::new(KvBackend::open_with(&seed_dir, one_segment_options()).unwrap());
        let store = Arc::new(ProvenanceStore::open(Arc::clone(&backend)).unwrap());
        let queue = FeedQueue::open(
            Arc::clone(&backend),
            FeedConfig::default(),
            FeedClock::wall(),
            &Registry::new(),
        )
        .unwrap();
        store.set_record_stager(Some(queue.stager()));
        queue.subscribe("sweep", FeedFilter::All).unwrap();

        // Phase A: the committed prefix every cut must preserve.
        for i in 0..COMMITTED {
            store.record(&assertion("session:sweep", i)).unwrap();
        }
        let batch = queue.poll("sweep", ACKED as usize).unwrap();
        assert_eq!(batch.ack_up_to, ACKED);
        queue.ack("sweep", ACKED).unwrap();
        committed_len = std::fs::metadata(segment_one(&seed_dir)).unwrap().len();

        // Phase B: the tail the sweep tears — jobs, then an ack whose floor write and purge
        // are separate appends a cut can split, then more jobs.
        for i in COMMITTED..COMMITTED + TAIL / 2 {
            store.record(&assertion("session:sweep", i)).unwrap();
        }
        let batch = queue.poll("sweep", 2).unwrap(); // hands out sequences 3..=4
        queue.ack("sweep", batch.ack_up_to).unwrap(); // floor → 4
        for i in COMMITTED + TAIL / 2..COMMITTED + TAIL {
            store.record(&assertion("session:sweep", i)).unwrap();
        }
    }

    let expected_ids: Vec<String> = (0..COMMITTED + TAIL)
        .map(|i| event_identity(&assertion("session:sweep", i)))
        .collect();
    let file_len = std::fs::metadata(segment_one(&seed_dir)).unwrap().len();
    assert!(
        file_len > committed_len,
        "the tail phase must have appended"
    );

    // Snapshot the seed directory once; every cut restores it and truncates the segment.
    let files: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(&seed_dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (entry.file_name(), std::fs::read(entry.path()).unwrap())
        })
        .collect();

    let dir = base.join("cut");
    let mut cut = committed_len;
    loop {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in &files {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        std::fs::OpenOptions::new()
            .write(true)
            .open(segment_one(&dir))
            .unwrap()
            .set_len(cut)
            .unwrap();

        let backend = KvBackend::open_with(&dir, one_segment_options()).unwrap_or_else(|e| {
            panic!("cut at byte {cut}: the log scan must repair, not refuse: {e}")
        });
        assert!(backend.recovery_report().records_recovered() > 0);
        let backend: Arc<dyn StorageBackend> = Arc::new(backend);
        let queue = FeedQueue::open(
            Arc::clone(&backend),
            FeedConfig::default(),
            FeedClock::wall(),
            &Registry::new(),
        )
        .unwrap_or_else(|e| panic!("cut at byte {cut}: feed recovery must never refuse: {e}"));

        let snaps = queue.snapshot();
        assert_eq!(snaps.len(), 1, "cut {cut}: the registration is committed");
        let snap = &snaps[0];
        assert!(
            snap.ack_floor == ACKED || snap.ack_floor == 4,
            "cut {cut}: the floor is either the committed ack or the tail ack, got {}",
            snap.ack_floor
        );
        assert!(!snap.in_flight, "cut {cut}: a crash resets every window");

        // Drain whatever survived; sequences must run contiguously from the floor and every
        // event must be the one staged at its sequence.
        let mut seqs: Vec<u64> = Vec::new();
        loop {
            let batch = queue
                .poll("sweep", 64)
                .unwrap_or_else(|e| panic!("cut {cut}: polling recovered queue: {e}"));
            if batch.events.is_empty() {
                break;
            }
            for delivered in &batch.events {
                seqs.push(delivered.seq);
                match &delivered.event.body {
                    FeedEventBody::Change(_) => assert_eq!(
                        delivered.event.event_id,
                        expected_ids[(delivered.seq - 1) as usize],
                        "cut {cut}: job {} must carry the event staged at that sequence",
                        delivered.seq
                    ),
                    other => panic!("cut {cut}: unexpected body {other:?}"),
                }
            }
            queue.ack("sweep", batch.ack_up_to).unwrap();
        }
        if let Some(&first) = seqs.first() {
            assert_eq!(
                first,
                snap.ack_floor + 1,
                "cut {cut}: replay starts right after the recovered floor"
            );
        }
        for pair in seqs.windows(2) {
            assert_eq!(
                pair[1],
                pair[0] + 1,
                "cut {cut}: a torn tail may shorten the queue but never punch holes in it"
            );
        }
        let committed_jobs_due = if snap.ack_floor == ACKED {
            // Only the committed ack survived: all unacked committed jobs (3..=6) are owed.
            COMMITTED as u64 - ACKED
        } else {
            // The tail ack's floor write survived, so every job staged before it in the log
            // (5..=9) is owed too.
            (COMMITTED + TAIL / 2) as u64 - 4
        };
        assert!(
            seqs.len() as u64 >= committed_jobs_due,
            "cut {cut}: jobs synced before the cut went missing (floor {}, got {seqs:?})",
            snap.ack_floor
        );

        if cut == file_len {
            break;
        }
        cut = (cut + 7).min(file_len);
    }

    let _ = std::fs::remove_dir_all(&base);
}
