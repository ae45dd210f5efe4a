//! Order statistics: the only arithmetic the benchmark applies to its samples.

/// Median of `values` (mean of the two middle values for an even count). Panics when empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile of `values`, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive method), because that is
/// the rule the acceptance check applies to this benchmark's own output. A single sample is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of one metric's per-round values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub rounds: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            rounds: values.len(),
        }
    }

    /// Inter-quartile range as a share of the median: the run-to-run spread `compare` sets
    /// against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The percentiles the bounded tail metric may be reported at. The ladder stops at p95: the
/// p99 of a two-thread closed loop against ~80 server threads on two hardware threads is set
/// by the host's scheduler (it moved 7–17 % between identical ten-run sets), so it is reported
/// beside the tail, without a bound, and not as it.
const LADDER: [f64; 3] = [50.0, 90.0, 95.0];

/// Value at percentile `p` of `sorted` (ascending) by nearest rank, when at least ten
/// samples lie beyond it — fewer, and the percentile describes those few samples.
pub fn resolved_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, p) >= 10).then(|| sorted[rank(n, p) - 1])
}

/// The highest percentile of [`LADDER`] that has at least ten samples beyond it, as
/// `(percentile, value)`. With fewer than twenty samples none qualifies and the median is
/// reported.
pub fn tail_percentile(sorted: &[u64]) -> (f64, u64) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    LADDER
        .iter()
        .rev()
        .find_map(|p| resolved_percentile(sorted, *p).map(|value| (*p, value)))
        .unwrap_or((LADDER[0], percentile(sorted, LADDER[0])))
}

/// Value at percentile `p` of `sorted` (ascending) by nearest rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from CPython: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.rounds), (3.0, 1.5, 4.5, 5));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
        let samples = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 200 samples: p95 leaves exactly ten beyond it.
        assert_eq!(tail_percentile(&samples(200)), (95.0, 190));
        // 199 samples: p95 is rank 190, nine beyond — fall back to p90.
        assert_eq!(tail_percentile(&samples(199)), (90.0, 180));
        // 100 samples: p90 leaves ten beyond.
        assert_eq!(tail_percentile(&samples(100)), (90.0, 90));
        // 99 samples: p90 is rank 90, nine beyond — the median it is.
        assert_eq!(tail_percentile(&samples(99)), (50.0, 50));
        // Too few for any tail: still the median, never a panic.
        assert_eq!(tail_percentile(&samples(3)), (50.0, 2));
    }

    #[test]
    fn a_percentile_resolves_only_with_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(resolved_percentile(&samples, 99.0), Some(990));
        assert_eq!(resolved_percentile(&samples[..999], 99.0), None);
        assert_eq!(resolved_percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 50.0), 100);
        assert_eq!(percentile(&v, 99.0), 198);
        assert_eq!(percentile(&v, 100.0), 200);
    }
}
