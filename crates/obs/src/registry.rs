//! The metrics registry: named instruments, child aggregation, serializable snapshots.
//!
//! One [`Registry`] per `ServiceHost` is the deployment convention: everything attached to a
//! host — its dispatch counters, the net server bound to it, the shard router — writes to
//! that host's registry, and short-lived components with their own identity (pooled net
//! clients) write to a [`Registry::child`] whose totals fold into the parent's snapshot. A
//! [`RegistrySnapshot`] is the serializable unit of aggregation: shard snapshots travel over
//! the wire as JSON (answering the `stats` service) and merge into cluster-wide totals with
//! counters summed and histograms bucket-merged.
//!
//! A disabled registry (`Registry::disabled()`) hands out inert instruments — every update
//! is one branch on a null pointer — and produces empty snapshots, which is the ≤5%-overhead
//! escape hatch the benchmarks gate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::events::{EventLog, TraceEvent, DEFAULT_EVENT_CAPACITY};
use crate::metrics::{Counter, Gauge, Histogram, HistogramCore, HistogramSnapshot};

#[derive(Debug)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    events: EventLog,
    children: Mutex<Vec<Registry>>,
}

/// Named-instrument registry. Cloning shares the underlying storage (a registry is a
/// handle); instrument lookup get-or-creates, so any site can name a metric into existence.
#[derive(Clone, Debug)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Default for Registry {
    /// Enabled by default: hosts come up observable, and the bench that wants the
    /// uninstrumented number opts out with [`Registry::disabled`].
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry with the default event-log capacity.
    pub fn new() -> Self {
        Registry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled registry whose event ring keeps `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Registry {
            inner: Some(Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: EventLog::new(capacity),
                children: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A registry whose instruments are all inert and whose snapshot is empty.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether instruments handed out by this registry actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::disabled(),
            Some(inner) => {
                let mut counters = inner.counters.lock().expect("registry counters lock");
                let cell = counters
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Counter(Some(Arc::clone(cell)))
            }
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::disabled(),
            Some(inner) => {
                let mut gauges = inner.gauges.lock().expect("registry gauges lock");
                let cell = gauges
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicI64::new(0)));
                Gauge(Some(Arc::clone(cell)))
            }
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::disabled(),
            Some(inner) => {
                let mut histograms = inner.histograms.lock().expect("registry histograms lock");
                let core = histograms
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::default()));
                Histogram(Some(Arc::clone(core)))
            }
        }
    }

    /// This registry's event log (a shared handle; disabled registries return a log that
    /// drops everything).
    pub fn events(&self) -> EventLog {
        match &self.inner {
            None => EventLog::disabled(),
            Some(inner) => inner.events.clone(),
        }
    }

    /// Spawn a child registry whose totals fold into this registry's [`Registry::snapshot`]
    /// (counters summed, histograms merged, events appended). Children of a disabled
    /// registry are disabled — one switch turns the whole tree off.
    pub fn child(&self) -> Registry {
        match &self.inner {
            None => Registry::disabled(),
            Some(inner) => {
                let child = Registry::new();
                inner
                    .children
                    .lock()
                    .expect("registry children lock")
                    .push(child.clone());
                child
            }
        }
    }

    /// Immutable, serializable copy of every instrument, with child registries folded in.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let Some(inner) = &self.inner else {
            return RegistrySnapshot::default();
        };
        let mut snap = RegistrySnapshot {
            counters: inner
                .counters
                .lock()
                .expect("registry counters lock")
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .expect("registry gauges lock")
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .lock()
                .expect("registry histograms lock")
                .iter()
                .map(|(name, core)| (name.clone(), Histogram(Some(Arc::clone(core))).snapshot()))
                .collect(),
            events: inner.events.snapshot(),
        };
        let children: Vec<Registry> = inner
            .children
            .lock()
            .expect("registry children lock")
            .clone();
        for child in children {
            snap.merge(&child.snapshot());
        }
        snap
    }
}

/// Point-in-time copy of a registry: the unit that crosses the wire (as JSON) and merges
/// into cluster totals.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram distributions by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained trace events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl RegistrySnapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name, if any samples were recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// `(name, value)` pairs of every counter whose name starts with `prefix`.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, value)| (name.clone(), *value))
            .collect()
    }

    /// Fold another snapshot in: counters and gauges sum, histograms bucket-merge, events
    /// append.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += value;
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
        self.events.extend(other.events.iter().cloned());
    }

    /// Difference of every counter against an earlier snapshot of the same registry —
    /// what a bounded workload (a load-generator run) actually caused.
    pub fn counter_delta(&self, earlier: &RegistrySnapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// JSON export of the whole snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("registry snapshot serializes")
    }
}

/// Answer of the `stats` well-known service: who is reporting, plus their registry.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Name of the reporting component (host, shard service…).
    pub service: String,
    /// Its registry at the time of the request.
    pub registry: RegistrySnapshot,
}

impl StatsSnapshot {
    /// JSON export.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("stats snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let registry = Registry::new();
        registry.counter("hits").add(2);
        registry.counter("hits").inc();
        assert_eq!(registry.counter("hits").get(), 3);
        registry.gauge("depth").set(4);
        registry.gauge("depth").adjust(-1);
        assert_eq!(registry.gauge("depth").get(), 3);
        registry.histogram("lat").record(10);
        assert_eq!(registry.histogram("lat").snapshot().count, 1);
    }

    #[test]
    fn disabled_registry_is_empty_everywhere() {
        let registry = Registry::disabled();
        registry.counter("hits").inc();
        registry.histogram("lat").record(5);
        registry.events().push("t", 0, "stage", String::new(), 0);
        let snap = registry.snapshot();
        assert_eq!(snap, RegistrySnapshot::default());
        assert!(!registry.child().is_enabled());
    }

    #[test]
    fn child_totals_fold_into_parent_snapshot() {
        let parent = Registry::new();
        parent.counter("net.client.retries").add(1);
        let a = parent.child();
        let b = parent.child();
        a.counter("net.client.retries").add(2);
        b.counter("net.client.retries").add(4);
        a.histogram("router.flush.batch_size").record(3);
        b.histogram("router.flush.batch_size").record(5);
        let snap = parent.snapshot();
        assert_eq!(snap.counter("net.client.retries"), 7);
        assert_eq!(
            snap.histogram("router.flush.batch_size").map(|h| h.count),
            Some(2)
        );
        // The children keep their own views too.
        assert_eq!(a.snapshot().counter("net.client.retries"), 2);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let registry = Registry::new();
        registry.counter("c").add(9);
        registry.histogram("h").record(100);
        registry
            .events()
            .push("trace:0", 1, "router.flush", "batch=16".into(), 250);
        let snap = StatsSnapshot {
            service: "shard-0".into(),
            registry: registry.snapshot(),
        };
        let json = snap.to_json();
        let back: StatsSnapshot = serde_json::from_str(&json).expect("parse snapshot json");
        assert_eq!(back, snap);
    }

    #[test]
    fn counter_delta_subtracts_earlier_snapshot() {
        let registry = Registry::new();
        registry.counter("c").add(5);
        let before = registry.snapshot();
        registry.counter("c").add(3);
        let after = registry.snapshot();
        assert_eq!(after.counter_delta(&before, "c"), 3);
        assert_eq!(after.counter_delta(&before, "missing"), 0);
    }
}
