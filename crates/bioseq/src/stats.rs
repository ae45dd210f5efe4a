//! Summary statistics for the result tables, plus (for the tests) residue frequencies and
//! empirical entropy.
//!
//! The paper frames compressibility as a bound on the structure present in a sequence; the
//! zeroth-order empirical entropy gives the baseline any compressor must beat to demonstrate it
//! found context-dependent correlations. The synthetic generator's tests check their samples
//! against it.

#[cfg(test)]
use std::collections::BTreeMap;

/// Count occurrences of each byte value.
#[cfg(test)]
pub(crate) fn frequencies(data: &[u8]) -> BTreeMap<u8, usize> {
    let mut counts = BTreeMap::new();
    for &b in data {
        *counts.entry(b).or_insert(0) += 1;
    }
    counts
}

/// Zeroth-order empirical entropy in bits per symbol.
#[cfg(test)]
pub(crate) fn entropy_bits_per_symbol(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let counts = frequencies(data);
    let n = data.len() as f64;
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Number of distinct byte values present.
#[cfg(test)]
pub(crate) fn distinct_symbols(data: &[u8]) -> usize {
    frequencies(data).len()
}

/// Summary statistics over a set of observations (used for the permutation size distribution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for fewer than two observations).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

/// Compute [`Summary`] statistics of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary {
            count: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let count = values.len();
    let mean = values.iter().sum::<f64>() / count as f64;
    let var = if count > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64
    } else {
        0.0
    };
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Summary {
        count,
        mean,
        std_dev: var.sqrt(),
        min,
        max,
    }
}

/// Pearson correlation coefficient between paired observations — the paper reports its
/// execution-time plots are linear with correlation coefficients above 0.99, and the benchmark
/// harness checks the same property of our reproductions.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(
        xs.len(),
        ys.len(),
        "correlation requires paired observations"
    );
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mean_x = xs.iter().sum::<f64>() / n as f64;
    let mean_y = ys.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mean_x) * (y - mean_y);
        var_x += (x - mean_x).powi(2);
        var_y += (y - mean_y).powi(2);
    }
    if var_x == 0.0 || var_y == 0.0 {
        return 0.0;
    }
    cov / (var_x.sqrt() * var_y.sqrt())
}

/// Least-squares slope and intercept of `ys` against `xs`.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mean_x) * (y - mean_y);
        den += (x - mean_x).powi(2);
    }
    let slope = if den == 0.0 { 0.0 } else { num / den };
    (slope, mean_y - slope * mean_x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_count_correctly() {
        let f = frequencies(b"AABBBC");
        assert_eq!(f[&b'A'], 2);
        assert_eq!(f[&b'B'], 3);
        assert_eq!(f[&b'C'], 1);
        assert_eq!(distinct_symbols(b"AABBBC"), 3);
        assert!(frequencies(b"").is_empty());
    }

    #[test]
    fn entropy_of_uniform_and_constant_data() {
        let uniform: Vec<u8> = (0..=255u8).collect();
        assert!((entropy_bits_per_symbol(&uniform) - 8.0).abs() < 1e-9);
        assert_eq!(entropy_bits_per_symbol(&[b'A'; 100]), 0.0);
        assert_eq!(entropy_bits_per_symbol(b""), 0.0);
        let two: Vec<u8> = b"AB".repeat(100);
        assert!((entropy_bits_per_symbol(&two) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_statistics() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(summarize(&[]).count, 0);
        assert_eq!(summarize(&[3.5]).std_dev, 0.0);
    }

    #[test]
    fn correlation_of_perfectly_linear_data_is_one() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let ys_neg: Vec<f64> = xs.iter().map(|x| -2.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys_neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_edge_cases() {
        assert_eq!(correlation(&[1.0], &[2.0]), 0.0);
        assert_eq!(correlation(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn linear_fit_recovers_slope_and_intercept() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.5 * x + 10.0).collect();
        let (slope, intercept) = linear_fit(&xs, &ys);
        assert!((slope - 4.5).abs() < 1e-9);
        assert!((intercept - 10.0).abs() < 1e-9);
        assert_eq!(linear_fit(&[], &[]), (0.0, 0.0));
    }
}
