//! Result tables: compressed sizes and compressibility statistics.
//!
//! "From the results, a compressibility value is obtained for the sample sequence that is
//! relative to both the compression method and group coding employed. The variability in the
//! compressed length of the permuted sequences leads to a distribution of compressibility
//! values. The workflow entails a sufficient number of compressions of permuted sequences to
//! estimate the standard deviation for the compressibility."

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use pasoa_bioseq::stats::summarize;
use pasoa_compress::Method;

use crate::measure::MeasureOutcome;

/// The collated sizes table (output of *Collate Sizes*).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SizesTable {
    /// One entry per measured permutation (index 0 is the unpermuted encoded sample).
    pub entries: Vec<MeasureOutcome>,
}

impl SizesTable {
    /// Add one measurement.
    pub fn push(&mut self, outcome: MeasureOutcome) {
        self.entries.push(outcome);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The measurement of the unpermuted sample (permutation index 0), if present.
    pub fn original(&self) -> Option<&MeasureOutcome> {
        self.entries.iter().find(|e| e.permutation_index == 0)
    }

    /// Compute the per-method compressibility results (the *Average* activity).
    pub fn compressibility(&self) -> Vec<CompressibilityResult> {
        let mut methods: BTreeMap<Method, Vec<&MeasureOutcome>> = BTreeMap::new();
        for entry in &self.entries {
            for method in entry.sizes.keys() {
                methods.entry(*method).or_default().push(entry);
            }
        }
        let mut results = Vec::new();
        for (method, entries) in methods {
            let original = entries
                .iter()
                .find(|e| e.permutation_index == 0)
                .and_then(|e| e.sizes.get(&method).copied());
            let permuted: Vec<f64> = entries
                .iter()
                .filter(|e| e.permutation_index > 0)
                .filter_map(|e| e.sizes.get(&method).map(|&s| s as f64))
                .collect();
            let summary = summarize(&permuted);
            let original_len = entries.first().map(|e| e.original_len).unwrap_or(0).max(1) as f64;
            let original_size = original.unwrap_or(0) as f64;
            // Compressibility relative to the permutation standard: how much smaller the
            // structured sample compresses compared with its shuffled versions. Values below 1
            // indicate context-dependent structure the compressor could exploit.
            let relative = if summary.mean > 0.0 {
                original_size / summary.mean
            } else {
                1.0
            };
            results.push(CompressibilityResult {
                method,
                original_compressed: original.unwrap_or(0),
                original_ratio: original_size / original_len,
                permutation_mean: summary.mean,
                permutation_std_dev: summary.std_dev,
                permutation_count: permuted.len(),
                relative_compressibility: relative,
            });
        }
        results
    }
}

/// Compressibility of the sample under one compression method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressibilityResult {
    /// The compression method.
    pub method: Method,
    /// Compressed size of the unpermuted encoded sample.
    pub original_compressed: usize,
    /// Compressed size over original size for the unpermuted sample.
    pub original_ratio: f64,
    /// Mean compressed size of the permutations (the randomised standard).
    pub permutation_mean: f64,
    /// Sample standard deviation of the permutation compressed sizes.
    pub permutation_std_dev: f64,
    /// Number of permutations measured.
    pub permutation_count: usize,
    /// Original compressed size relative to the permutation mean (< 1 ⇒ structure discovered).
    pub relative_compressibility: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(index: usize, gzip: usize, ppmz: usize) -> MeasureOutcome {
        MeasureOutcome {
            permutation_index: index,
            original_len: 10_000,
            sizes: [(Method::Gzip, gzip), (Method::Ppmz, ppmz)]
                .into_iter()
                .collect(),
        }
    }

    fn table() -> SizesTable {
        let mut t = SizesTable::default();
        t.push(outcome(0, 3_000, 2_500)); // structured original compresses best
        for i in 1..=10 {
            t.push(outcome(i, 4_000 + i * 10, 3_600 + i * 5));
        }
        t
    }

    #[test]
    fn original_entry_and_lengths() {
        let t = table();
        assert_eq!(t.len(), 11);
        assert!(!t.is_empty());
        assert_eq!(t.original().unwrap().permutation_index, 0);
        assert!(SizesTable::default().original().is_none());
    }

    #[test]
    fn compressibility_detects_structure() {
        let results = table().compressibility();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.permutation_count, 10);
            assert!(r.relative_compressibility < 1.0, "{:?}", r);
            assert!(r.permutation_std_dev > 0.0);
            assert!(r.original_ratio > 0.0 && r.original_ratio < 1.0);
        }
        // ppmz compresses this synthetic table further than gzip by construction.
        let gzip = results.iter().find(|r| r.method == Method::Gzip).unwrap();
        let ppmz = results.iter().find(|r| r.method == Method::Ppmz).unwrap();
        assert!(ppmz.original_compressed < gzip.original_compressed);
    }

    #[test]
    fn compressibility_with_no_permutations_degrades_gracefully() {
        let mut t = SizesTable::default();
        t.push(outcome(0, 3_000, 2_500));
        let results = t.compressibility();
        assert_eq!(results[0].permutation_count, 0);
        assert_eq!(results[0].relative_compressibility, 1.0);
        assert_eq!(results[0].permutation_std_dev, 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let t = table();
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<SizesTable>(&json).unwrap(), t);
        let results = t.compressibility();
        let json = serde_json::to_string(&results).unwrap();
        let back: Vec<CompressibilityResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), results.len());
        for (a, b) in back.iter().zip(&results) {
            assert_eq!(a.method, b.method);
            assert_eq!(a.original_compressed, b.original_compressed);
            assert!((a.permutation_std_dev - b.permutation_std_dev).abs() < 1e-9);
        }
    }
}
