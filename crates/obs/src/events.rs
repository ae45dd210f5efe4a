//! Bounded ring-buffer event log — where per-hop trace timings land.
//!
//! Every hop that participates in a trace ([`crate::TraceCtx`]) pushes one [`TraceEvent`]
//! into the event log of its local registry: the client when the acknowledgement returns,
//! the router when it flushes a batch, the shard store when it applies the batch. The log is
//! a fixed-capacity ring — old events are overwritten, never reallocated — so leaving
//! observability enabled in a long-running process costs a constant amount of memory.
//!
//! Events are ordered by a monotone per-log sequence number, not wall-clock time: the
//! simulation harness replays schedules deterministically and must stay bit-identical with
//! observability enabled, so nothing in this module reads a clock.

use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// Default ring capacity — enough to hold every hop of a few hundred in-flight batches.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// One hop's worth of trace context: who (stage), for which trace/span, how long.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Trace this hop belongs to (same id on every hop of one batch's journey).
    pub trace_id: String,
    /// Hop depth within the trace: 0 at the client entry point, +1 per forwarding hop.
    pub span_id: u64,
    /// Which instrumented site recorded the event, e.g. `client.record`, `router.flush`,
    /// `shard.store`.
    pub stage: String,
    /// Free-form detail (batch size, shard name, plan choice…).
    pub detail: String,
    /// Duration of the work this hop timed, in nanoseconds (0 when untimed).
    pub nanos: u64,
    /// Position in this log's total ordering (monotone per log, not global).
    pub seq: u64,
}

#[derive(Debug, Default)]
struct Ring {
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    next_seq: u64,
}

/// Fixed-capacity event sink. `capacity == 0` is the disabled mode: pushes are dropped at a
/// single branch. Cloning shares the ring — an `EventLog` is a handle.
#[derive(Clone, Debug)]
pub struct EventLog {
    capacity: usize,
    ring: Arc<Mutex<Ring>>,
}

impl EventLog {
    /// A log keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            capacity,
            ring: Arc::new(Mutex::new(Ring::default())),
        }
    }

    /// A log that drops everything.
    pub fn disabled() -> Self {
        EventLog::new(0)
    }

    /// Whether pushes are kept.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Append an event, assigning it the next sequence number and evicting the oldest entry
    /// when full.
    pub fn push(&self, trace_id: &str, span_id: u64, stage: &str, detail: String, nanos: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("event log lock");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let event = TraceEvent {
            trace_id: trace_id.to_string(),
            span_id,
            stage: stage.to_string(),
            detail,
            nanos,
            seq,
        };
        if ring.events.len() < self.capacity {
            ring.events.push(event);
        } else {
            let head = ring.head;
            ring.events[head] = event;
            ring.head = (head + 1) % self.capacity;
        }
    }

    /// Events currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("event log lock");
        let mut out = Vec::with_capacity(ring.events.len());
        out.extend_from_slice(&ring.events[ring.head..]);
        out.extend_from_slice(&ring.events[..ring.head]);
        out
    }

    /// Events belonging to one trace, oldest first.
    #[cfg(test)]
    pub(crate) fn events_for(&self, trace_id: &str) -> Vec<TraceEvent> {
        self.snapshot()
            .into_iter()
            .filter(|e| e.trace_id == trace_id)
            .collect()
    }

    /// Total events ever pushed (including evicted ones).
    #[cfg(test)]
    pub(crate) fn pushed(&self) -> u64 {
        self.ring.lock().expect("event log lock").next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_events_in_order() {
        let log = EventLog::new(3);
        for i in 0..5u64 {
            log.push("t", 0, "stage", format!("e{i}"), i);
        }
        let events = log.snapshot();
        assert_eq!(
            events.iter().map(|e| e.detail.as_str()).collect::<Vec<_>>(),
            ["e2", "e3", "e4"]
        );
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(log.pushed(), 5);
    }

    #[test]
    fn disabled_log_drops_everything() {
        let log = EventLog::disabled();
        log.push("t", 0, "stage", "x".into(), 0);
        assert!(log.snapshot().is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn events_for_filters_by_trace() {
        let log = EventLog::new(8);
        log.push("a", 0, "client.record", String::new(), 1);
        log.push("b", 0, "client.record", String::new(), 2);
        log.push("a", 1, "router.flush", String::new(), 3);
        let a = log.events_for("a");
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].stage, "router.flush");
    }
}
