//! Atomic metric instruments: counters, gauges and log-bucketed latency histograms.
//!
//! Instruments are cheap handles (an `Option<Arc<..>>`) handed out by a
//! [`Registry`](crate::Registry). A handle from a disabled registry carries `None` and every
//! operation on it is a branch on a null pointer — the "disabled mode compiled down to
//! near-no-ops" the observability layer promises. Handles from an enabled registry update a
//! shared atomic cell with `Relaxed` ordering: metrics are monotonic tallies, not
//! synchronization, so no ordering stronger than atomicity is needed on the hot path.
//!
//! Histograms use base-2 log bucketing with [`SUB_BITS`] linear sub-buckets per octave
//! (HdrHistogram-style): bucketing is a pure function of the value, so two histograms built
//! from the same values — or merged from disjoint shards — are bit-identical, and quantile
//! estimates carry a bounded relative error of `2^-SUB_BITS` (12.5%). Count, sum, min and
//! max are tracked exactly.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power-of-two octave, as a bit count: 2^3 = 8 sub-buckets, so a
/// quantile estimate is at most one part in eight away from the true value.
pub const SUB_BITS: u32 = 3;

const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total bucket count: values below `2^SUB_BITS` get one exact bucket each, then every
/// octave up to `u64::MAX` contributes `SUB_COUNT` sub-buckets.
pub const BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// Bucket index for a recorded value — a pure function, so merged histograms agree with a
/// histogram built from the union of their samples.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let sub = ((value >> (msb - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
    SUB_COUNT + (msb - SUB_BITS) as usize * SUB_COUNT + sub
}

/// Upper bound of a bucket — the value reported for quantiles falling in it, so estimates
/// never understate a latency.
#[inline]
pub fn bucket_bound(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let octave = (index - SUB_COUNT) / SUB_COUNT;
    let sub = ((index - SUB_COUNT) % SUB_COUNT) as u128;
    let base = 1u128 << (octave as u32 + SUB_BITS);
    let width = base >> SUB_BITS;
    // The very top bucket's bound is exactly u64::MAX; compute in u128 to avoid overflow.
    u64::try_from(base + (sub + 1) * width - 1).unwrap_or(u64::MAX)
}

/// Monotonic event tally. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that ignores every update — what disabled registries hand out.
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Add `n` to the tally.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current tally (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Point-in-time level (queue depth, active connections): settable and signed-adjustable.
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicI64>>);

impl Gauge {
    /// A gauge that ignores every update.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adjust the level by a signed delta.
    #[inline]
    pub fn adjust(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Shared histogram storage: lock-free bucket array plus exact count/sum/min/max.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Log-bucketed latency/size distribution. Cloning shares the underlying storage.
#[derive(Clone, Debug, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A histogram that ignores every sample.
    pub fn disabled() -> Self {
        Histogram(None)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.record(value);
        }
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if self.0.is_some() {
            self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Whether samples are actually kept — lets callers skip `Instant::now()` entirely when
    /// observability is disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Immutable copy of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |core| core.snapshot())
    }
}

/// Immutable, serializable, mergeable copy of a [`Histogram`] — sparse `(bucket, count)`
/// pairs plus exact count/sum/min/max. The unit of shard→cluster aggregation.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Sparse non-empty buckets as `(bucket index, sample count)`, ascending by index.
    pub counts: Vec<(u32, u64)>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Fold another snapshot in. Merging shard snapshots is bit-identical to one histogram
    /// over the union of their samples (bucketing is a pure function of the value).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged: Vec<(u32, u64)> =
            Vec::with_capacity(self.counts.len() + other.counts.len());
        let (mut a, mut b) = (
            self.counts.iter().peekable(),
            other.counts.iter().peekable(),
        );
        while let (Some(&&(ia, na)), Some(&&(ib, nb))) = (a.peek(), b.peek()) {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    merged.push((ia, na));
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push((ib, nb));
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ia, na + nb));
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.counts = merged;
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket holding the
    /// `ceil(q * count)`-th sample. 0 when empty; relative error ≤ `2^-SUB_BITS`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.counts {
            seen += n;
            if seen >= rank {
                // Clamp into the exact min/max envelope so p0/p100 are exact.
                return bucket_bound(index as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_bounded() {
        let mut last = 0usize;
        for value in [0u64, 1, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, u64::MAX] {
            let index = bucket_index(value);
            assert!(index >= last, "bucket index must not decrease ({value})");
            assert!(index < BUCKETS, "index {index} out of range for {value}");
            assert!(
                bucket_bound(index) >= value,
                "bound {} below value {value}",
                bucket_bound(index)
            );
            last = index;
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn bound_relative_error_is_bounded() {
        for value in [10u64, 123, 999, 4096, 65_537, 1_000_000_007] {
            let bound = bucket_bound(bucket_index(value));
            assert!(bound >= value);
            assert!(
                (bound - value) as f64 <= value as f64 / SUB_COUNT as f64,
                "error too large for {value}: bound {bound}"
            );
        }
    }

    #[test]
    fn disabled_instruments_are_inert() {
        let counter = Counter::disabled();
        counter.add(5);
        assert_eq!(counter.get(), 0);
        let gauge = Gauge::disabled();
        gauge.set(3);
        gauge.adjust(-1);
        assert_eq!(gauge.get(), 0);
        let histogram = Histogram::disabled();
        histogram.record(42);
        assert!(!histogram.is_enabled());
        assert_eq!(histogram.snapshot().count, 0);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let core = HistogramCore::default();
        for v in 1..=1000u64 {
            core.record(v);
        }
        let snap = core.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        let p50 = snap.p50();
        assert!((438..=563).contains(&p50), "p50 {p50} outside 500±12.5%");
        let p99 = snap.p99();
        assert!((866..=1000).contains(&p99), "p99 {p99} outside 990 bounds");
    }

    #[test]
    fn merge_equals_union() {
        let a = HistogramCore::default();
        let b = HistogramCore::default();
        let union = HistogramCore::default();
        for v in [3u64, 9, 17, 90, 1_000_000] {
            a.record(v);
            union.record(v);
        }
        for v in [1u64, 9, 250, 17_000] {
            b.record(v);
            union.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
    }
}
