//! The Figure 5 harness: "Execution Comparison and Semantic Validity".
//!
//! Figure 5 plots, against the number of interaction records in the provenance store, the time
//! to (a) retrieve and categorise every script (use case 1) and (b) semantically validate the
//! execution (use case 2). Both are linear in the store size; the semantic-validity slope is
//! about eleven times the script-comparison slope because each interaction costs one store call
//! plus ten registry calls instead of a single store call.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use pasoa_bioseq::stats::{correlation, linear_fit};
use pasoa_preserv::PreservService;
use pasoa_registry::description::{Operation, PartPath, ServiceDescription};
use pasoa_registry::ontology::{types, SemanticType};
use pasoa_registry::registry::Registry;
use pasoa_registry::service::RegistryService;
use pasoa_wire::{LatencyModel, ServiceHost, Transport, TransportConfig};

use crate::comparison::ScriptCategorizer;
use crate::semantic::SemanticValidator;

/// One measured point of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure5Point {
    /// Number of interaction records in the store.
    pub interaction_records: usize,
    /// Script comparison (use case 1) time in milliseconds (wall + modelled communication).
    pub script_comparison_ms: f64,
    /// Semantic validity (use case 2) time in milliseconds (wall + modelled communication).
    pub semantic_validity_ms: f64,
    /// Store calls issued by the script comparison.
    pub comparison_store_calls: u64,
    /// Store + registry calls issued by the semantic validation.
    pub validation_calls: u64,
}

/// The full Figure 5 series.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Figure5Series {
    /// All measured points, ordered by store size.
    pub points: Vec<Figure5Point>,
}

/// A deployment holding the store, the registry and transports for the two reasoners.
pub struct Figure5Deployment {
    /// The shared host.
    pub host: ServiceHost,
    /// The provenance store.
    pub preserv: std::sync::Arc<PreservService>,
    /// The registry.
    pub registry: std::sync::Arc<Registry>,
    /// Latency charged per call (virtually).
    pub latency: LatencyModel,
}

impl Figure5Deployment {
    /// Deploy store + registry, publish and annotate the experiment's service description so
    /// the validator has ten registry lookups to make per interaction (the paper's count).
    pub fn new(latency: LatencyModel) -> Self {
        let host = ServiceHost::new();
        let preserv = std::sync::Arc::new(PreservService::in_memory().expect("memory store"));
        preserv.register(&host);
        let registry = std::sync::Arc::new(Registry::for_compressibility());
        std::sync::Arc::new(RegistryService::new(std::sync::Arc::clone(&registry))).register(&host);

        // The populated interactions all invoke gzip-compression/gzip-compress; give that
        // operation enough annotated parts that validating one interaction costs ~10 registry
        // calls (1 describe + 9 part lookups), as in the paper's deployment.
        registry.publish(
            ServiceDescription::new("gzip-compression", "compress a permuted sample").operation(
                Operation::new("gzip-compress")
                    .input("sample", "bytes")
                    .input("level", "int")
                    .input("dictionary", "bytes")
                    .input("window", "int")
                    .input("threads", "int")
                    .output("compressed-sample", "bytes")
                    .output("size", "int")
                    .output("checksum", "string")
                    .output("log", "text"),
            ),
        );
        let annotate = |path: PartPath, t: &str| {
            registry
                .annotate_part(path, SemanticType::new(t))
                .expect("annotation");
        };
        annotate(
            PartPath::input("gzip-compression", "gzip-compress", "sample"),
            types::PERMUTED_SAMPLE,
        );
        annotate(
            PartPath::input("gzip-compression", "gzip-compress", "level"),
            types::GROUP_CODING,
        );
        annotate(
            PartPath::input("gzip-compression", "gzip-compress", "dictionary"),
            types::SEQUENCE,
        );
        annotate(
            PartPath::input("gzip-compression", "gzip-compress", "window"),
            types::GROUP_CODING,
        );
        annotate(
            PartPath::input("gzip-compression", "gzip-compress", "threads"),
            types::GROUP_CODING,
        );
        annotate(
            PartPath::output("gzip-compression", "gzip-compress", "compressed-sample"),
            types::COMPRESSED_SIZE,
        );
        annotate(
            PartPath::output("gzip-compression", "gzip-compress", "size"),
            types::COMPRESSED_SIZE,
        );
        annotate(
            PartPath::output("gzip-compression", "gzip-compress", "checksum"),
            types::COMPRESSED_SIZE,
        );
        annotate(
            PartPath::output("gzip-compression", "gzip-compress", "log"),
            types::SIZES_TABLE,
        );

        Figure5Deployment {
            host,
            preserv,
            registry,
            latency,
        }
    }

    /// A transport with the configured latency applied virtually.
    pub fn transport(&self) -> Transport {
        self.host
            .transport(TransportConfig::virtual_time(self.latency))
    }
}

impl Figure5Series {
    /// Populate the store to each size in `record_counts` (cumulatively) and measure both use
    /// cases at every size.
    pub fn collect(deployment: &Figure5Deployment, record_counts: &[usize]) -> Self {
        let mut points = Vec::new();
        let populate_transport = deployment.host.transport(TransportConfig::free());
        let mut populated = 0usize;
        let mut counts = record_counts.to_vec();
        counts.sort_unstable();
        for &target in &counts {
            let missing = target.saturating_sub(populated);
            if missing > 0 {
                pasoa_experiment::passertions::populate_interactions(
                    &populate_transport,
                    &format!("upto-{target}"),
                    1,
                    missing,
                );
                populated = target;
            }

            // Use case 1.
            let comparison_transport = deployment.transport();
            let categorizer = ScriptCategorizer::new(comparison_transport.clone());
            let started = Instant::now();
            let categories = categorizer.categorize().expect("store reachable");
            let comparison_time = started.elapsed() + comparison_transport.clock().elapsed();

            // Use case 2.
            let store_transport = deployment.transport();
            let registry_transport = deployment.transport();
            let validator =
                SemanticValidator::new(store_transport.clone(), registry_transport.clone());
            let started = Instant::now();
            let report = validator
                .validate_store()
                .expect("store and registry reachable");
            let validation_time = started.elapsed()
                + store_transport.clock().elapsed()
                + registry_transport.clock().elapsed();

            points.push(Figure5Point {
                interaction_records: target,
                script_comparison_ms: comparison_time.as_secs_f64() * 1e3,
                semantic_validity_ms: validation_time.as_secs_f64() * 1e3,
                comparison_store_calls: categories.store_calls as u64,
                validation_calls: (report.store_calls + report.registry_calls) as u64,
            });
        }
        Figure5Series { points }
    }

    /// Linearity (Pearson r) of one series against the store size.
    pub fn linearity(&self, semantic: bool) -> f64 {
        let xs: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.interaction_records as f64)
            .collect();
        let ys: Vec<f64> = self
            .points
            .iter()
            .map(|p| {
                if semantic {
                    p.semantic_validity_ms
                } else {
                    p.script_comparison_ms
                }
            })
            .collect();
        correlation(&xs, &ys)
    }

    /// Ratio of the semantic-validity slope to the script-comparison slope (paper: ≈11).
    pub fn slope_ratio(&self) -> f64 {
        let xs: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.interaction_records as f64)
            .collect();
        let comparison: Vec<f64> = self.points.iter().map(|p| p.script_comparison_ms).collect();
        let semantic: Vec<f64> = self.points.iter().map(|p| p.semantic_validity_ms).collect();
        let (slope_c, _) = linear_fit(&xs, &comparison);
        let (slope_s, _) = linear_fit(&xs, &semantic);
        if slope_c == 0.0 {
            0.0
        } else {
            slope_s / slope_c
        }
    }

    /// Mean per-record script retrieval time (the paper's ≈15 ms with its deployment).
    pub fn mean_script_retrieval(&self) -> Duration {
        let mut per_record = Vec::new();
        for p in &self.points {
            if p.interaction_records > 0 {
                per_record.push(p.script_comparison_ms / p.interaction_records as f64);
            }
        }
        if per_record.is_empty() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(per_record.iter().sum::<f64>() / per_record.len() as f64 / 1e3)
        }
    }

    /// Render the two series as the table `examples/figure5_usecases.rs` prints.
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "interaction_records  script_comparison_ms  semantic_validity_ms  comparison_calls  validation_calls\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>19}  {:>20.2}  {:>20.2}  {:>16}  {:>16}\n",
                p.interaction_records,
                p.script_comparison_ms,
                p.semantic_validity_ms,
                p.comparison_store_calls,
                p.validation_calls
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_wire::NetworkProfile;

    #[test]
    fn series_reproduces_figure5_shape() {
        let deployment = Figure5Deployment::new(NetworkProfile::Paper2005.latency_model());
        let series = Figure5Series::collect(&deployment, &[20, 40, 80]);
        assert_eq!(series.points.len(), 3);

        // Both series grow with the store size and are strongly linear.
        assert!(
            series.linearity(false) > 0.99,
            "comparison r = {}",
            series.linearity(false)
        );
        assert!(
            series.linearity(true) > 0.99,
            "semantic r = {}",
            series.linearity(true)
        );

        // The semantic-validity series is far steeper — the paper reports a slope ratio of
        // about 11 (one store call vs one store call + ten registry calls per interaction).
        let ratio = series.slope_ratio();
        assert!(ratio > 5.0 && ratio < 20.0, "slope ratio {ratio}");

        // Per-interaction call counts match the cost model.
        let last = series.points.last().unwrap();
        assert_eq!(last.comparison_store_calls, 81); // list + one per record
        assert!(last.validation_calls as usize >= 80 * 11);

        let table = series.render_table();
        assert!(table.lines().count() == 4);
        assert!(series.mean_script_retrieval() > Duration::ZERO);
    }

    #[test]
    fn empty_series_degrades_gracefully() {
        let series = Figure5Series::default();
        assert_eq!(series.slope_ratio(), 0.0);
        assert_eq!(series.mean_script_retrieval(), Duration::ZERO);
        assert_eq!(series.linearity(true), 0.0);
    }
}
