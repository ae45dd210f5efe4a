//! The protein pipeline as a real parallel DAG.
//!
//! Where [`crate::experiment::ExperimentRunner`] drives the Figure 1 workflow activity by
//! activity (the shape the paper's Figure 4 sweep needs), this module expresses the same
//! science as one [`pasoa_dag::Dag`] — Collate Sample → Encode by Groups → a configurable-width
//! parallel compression-measurement stage → Collate Sizes → Average — and hands it to the
//! `pasoa-dag` executor. Independent measurement slices genuinely run concurrently on the
//! bounded worker pool, the configured grid overhead is charged per scheduled task, and every
//! task transition lands in the provenance store, so the executed DAG is reconstructible from
//! recorded p-assertions alone.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use pasoa_bioseq::grouping::StandardGrouping;
use pasoa_bioseq::synthetic::SyntheticConfig;
use pasoa_compress::Method;
use pasoa_core::ids::{ActorId, IdGenerator, SessionId};
use pasoa_core::recorder::{
    AsyncRecorder, NullRecorder, ProvenanceRecorder, RecordingMode, SyncRecorder,
};
use pasoa_dag::{
    Activity, ActivityContext, ActivityError, Dag, DagRunReport, DagSpec, DataItem, Executor,
    ExecutorConfig, FailurePolicy, RetryPolicy, TaskId,
};
use pasoa_workflow::OverheadModel;

use crate::activities::{
    semantic, synthetic_inputs, AverageActivity, CollateSampleActivity, CollateSizesActivity,
    EncodeByGroupsActivity,
};
use crate::experiment::{RunRecording, StoreDeployment};
use crate::measure::MeasureKit;
use crate::results::{CompressibilityResult, SizesTable};

/// *Measure (slice)*: run the Figure 2 measure sub-workflow over a contiguous slice of
/// permutation indices. The pipeline fans the permutation space out over several of these, so
/// the compression stage runs genuinely in parallel.
pub struct MeasureSliceActivity {
    name: String,
    /// Permutation indices measured by this slice (index 0 is the unpermuted sample).
    pub range: Range<usize>,
    /// Compression methods measured.
    pub methods: Vec<Method>,
    /// Base seed for the permutation shuffles.
    pub seed: u64,
}

impl MeasureSliceActivity {
    /// Create the activity for slice `slice_index` covering `range`.
    pub fn new(slice_index: usize, range: Range<usize>, methods: Vec<Method>, seed: u64) -> Self {
        MeasureSliceActivity {
            name: format!("measure-slice-{slice_index}"),
            range,
            methods,
            seed,
        }
    }
}

impl Activity for MeasureSliceActivity {
    fn name(&self) -> &str {
        &self.name
    }

    fn script(&self) -> String {
        let methods: Vec<&str> = self.methods.iter().map(|m| m.name()).collect();
        format!(
            "measure --permutations {}..{} --methods {}",
            self.range.start,
            self.range.end,
            methods.join(",")
        )
    }

    fn invoke(
        &self,
        inputs: &[DataItem],
        ctx: &ActivityContext,
    ) -> Result<Vec<DataItem>, ActivityError> {
        let encoded = inputs
            .first()
            .ok_or_else(|| ActivityError::new(self.name(), "missing encoded sample"))?;
        let kit = MeasureKit::new(&self.methods);
        let mut table = SizesTable::default();
        for index in self.range.clone() {
            table.push(kit.sizes(&encoded.bytes, index, self.seed));
        }
        let bytes = serde_json::to_vec(&table)
            .map_err(|e| ActivityError::new(self.name(), e.to_string()))?;
        Ok(vec![DataItem::new(
            ctx.ids.data_id(),
            self.name.clone(),
            bytes,
        )
        .with_semantic_type(semantic::SIZES_TABLE)])
    }

    fn input_types(&self) -> Vec<String> {
        vec![semantic::GROUP_ENCODED_SAMPLE.to_string()]
    }

    fn output_types(&self) -> Vec<String> {
        vec![semantic::SIZES_TABLE.to_string()]
    }
}

/// Parameters of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target collated sample size in residues.
    pub sample_size: usize,
    /// Number of parallel measurement slices (the width of the compression stage).
    pub slices: usize,
    /// Number of permutations to measure (plus the unpermuted sample).
    pub permutations: usize,
    /// The amino-acid grouping applied by *Encode by Groups*.
    pub grouping: StandardGrouping,
    /// Compression methods measured.
    pub methods: Vec<Method>,
    /// Recording configuration.
    pub recording: RunRecording,
    /// Base seed for synthetic data and shuffling.
    pub seed: u64,
    /// Synthetic input generation parameters.
    pub synthetic: SyntheticConfig,
    /// Worker pool size handed to the executor (1 = sequential execution of the same DAG).
    pub workers: usize,
    /// Grid scheduling/staging overhead charged per scheduled task.
    pub overhead: OverheadModel,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            sample_size: 100 * 1024,
            slices: 4,
            permutations: 100,
            grouping: StandardGrouping::Dayhoff6,
            methods: vec![Method::Gzip, Method::Ppmz],
            recording: RunRecording::Synchronous,
            seed: 20050624,
            synthetic: SyntheticConfig::default(),
            workers: 4,
            overhead: OverheadModel::free(),
        }
    }
}

impl PipelineConfig {
    /// A scaled-down configuration suitable for tests: a few KB sample, few permutations,
    /// every code path intact.
    pub fn small(permutations: usize, recording: RunRecording) -> Self {
        PipelineConfig {
            sample_size: 8 * 1024,
            permutations,
            recording,
            synthetic: SyntheticConfig {
                sequence_count: 8,
                sequence_length: 2048,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The permutation index ranges of each measurement slice.
    pub fn slice_ranges(&self) -> Vec<Range<usize>> {
        let total = self.permutations + 1;
        let slices = self.slices.max(1).min(total.max(1));
        let per = total.div_ceil(slices);
        (0..slices)
            .map(|s| (s * per).min(total)..((s + 1) * per).min(total))
            .filter(|r| !r.is_empty())
            .collect()
    }
}

/// The outcome of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The session under which the run was recorded.
    pub session: SessionId,
    /// The executor's run report (terminal states, timings, recorded-assertion count).
    pub report: DagRunReport,
    /// Task ids of the parallel measurement stage.
    pub measure_tasks: Vec<String>,
    /// The collated sizes table (empty if the run failed before collation).
    pub sizes: SizesTable,
    /// The final compressibility results per method (empty if the run failed).
    pub results: Vec<CompressibilityResult>,
    /// Number of p-assertions recorded over the whole run.
    pub passertions: u64,
}

impl PipelineReport {
    /// Whether every task completed.
    pub fn succeeded(&self) -> bool {
        self.report.succeeded()
    }

    /// Wall-clock span of the parallel measurement stage (latest slice finish minus earliest
    /// slice start) — the quantity the workflow baseline compares across worker counts.
    pub fn measure_stage_span(&self) -> Option<Duration> {
        let refs: Vec<&str> = self.measure_tasks.iter().map(String::as_str).collect();
        self.report.stage_span(&refs)
    }
}

/// Build the pipeline DAG for `config`. Returns the frozen DAG plus the measurement-stage task
/// ids in slice order.
pub fn build_pipeline_dag(config: &PipelineConfig) -> (Dag, Vec<String>) {
    let mut spec = DagSpec::new("protein-pipeline");
    let collate = spec
        .add_task(
            "collate-sample",
            Arc::new(CollateSampleActivity {
                target_size: config.sample_size,
            }),
        )
        .expect("fresh spec accepts the collate task");
    let encode = spec
        .add_task(
            "encode-by-groups",
            Arc::new(EncodeByGroupsActivity {
                coding: config.grouping.coding(),
            }),
        )
        .expect("fresh spec accepts the encode task");
    spec.add_data_edge(&collate, &encode)
        .expect("both endpoints exist");

    let mut measure_tasks: Vec<TaskId> = Vec::new();
    for (slice_index, range) in config.slice_ranges().into_iter().enumerate() {
        let task = spec
            .add_task(
                format!("measure-slice-{slice_index}"),
                Arc::new(MeasureSliceActivity::new(
                    slice_index,
                    range,
                    config.methods.clone(),
                    config.seed,
                )),
            )
            .expect("slice task ids are unique");
        spec.add_data_edge(&encode, &task)
            .expect("both endpoints exist");
        measure_tasks.push(task);
    }

    let collate_sizes = spec
        .add_task("collate-sizes", Arc::new(CollateSizesActivity))
        .expect("fresh spec accepts the collate-sizes task");
    for task in &measure_tasks {
        spec.add_data_edge(task, &collate_sizes)
            .expect("both endpoints exist");
    }
    let average = spec
        .add_task("average", Arc::new(AverageActivity))
        .expect("fresh spec accepts the average task");
    spec.add_data_edge(&collate_sizes, &average)
        .expect("both endpoints exist");

    let dag = spec.build().expect("the pipeline shape is acyclic");
    let names = measure_tasks.into_iter().map(|t| t.0).collect();
    (dag, names)
}

/// Runs the pipeline against a store deployment.
pub struct PipelineRunner {
    deployment: StoreDeployment,
    run_counter: std::sync::atomic::AtomicU64,
}

impl PipelineRunner {
    /// Create a runner against an existing deployment.
    pub fn new(deployment: StoreDeployment) -> Self {
        PipelineRunner {
            deployment,
            run_counter: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The deployment in use (so callers can query the store afterwards).
    pub fn deployment(&self) -> &StoreDeployment {
        &self.deployment
    }

    /// Execute one run.
    pub fn run(&self, config: &PipelineConfig) -> PipelineReport {
        let transport = self.deployment.transport();
        let run = self
            .run_counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let session = SessionId::new(format!(
            "session:dagpipe:{}w:{}perm:run{}",
            config.workers, config.permutations, run
        ));
        let ids = IdGenerator::new(session.as_str().to_string());
        let asserter = ActorId::new("protein-pipeline");
        let recorder: Arc<dyn ProvenanceRecorder> = match config.recording.mode() {
            RecordingMode::None => Arc::new(NullRecorder::new(session.clone())),
            RecordingMode::Asynchronous => Arc::new(AsyncRecorder::new(
                session.clone(),
                asserter.clone(),
                transport.clone(),
                ids.clone(),
                64,
            )),
            RecordingMode::Synchronous => Arc::new(SyncRecorder::new(
                session.clone(),
                asserter.clone(),
                transport.clone(),
                ids.clone(),
            )),
        };

        let (dag, measure_tasks) = build_pipeline_dag(config);
        let overhead = config.overhead.clone();
        let executor = Executor::new(
            Arc::clone(&recorder),
            ids.clone(),
            ExecutorConfig {
                workers: config.workers.max(1),
                failure_policy: FailurePolicy::FailFast,
                retry: RetryPolicy::none(),
                record_extra_actor_state: config.recording.extra_actor_state(),
                register_group: true,
            },
        )
        .with_actor(asserter)
        .with_stage_charge(Arc::new(move |bytes| overhead.charge(bytes)));

        let inputs = synthetic_inputs(&config.synthetic, &ids);
        let report = executor
            .run(
                &dag,
                BTreeMap::from([("collate-sample".to_string(), inputs)]),
            )
            .expect("the pipeline's initial inputs name an existing task");

        let sizes = report
            .outputs_of("collate-sizes")
            .and_then(|items| items.first())
            .and_then(|item| serde_json::from_slice::<SizesTable>(&item.bytes).ok())
            .unwrap_or_default();
        let results = report
            .outputs_of("average")
            .and_then(|items| items.first())
            .and_then(|item| serde_json::from_slice::<Vec<CompressibilityResult>>(&item.bytes).ok())
            .unwrap_or_default();

        recorder
            .flush()
            .expect("flush cannot fail against a live store");
        let passertions = recorder.stats().assertions_recorded;
        PipelineReport {
            session,
            report,
            measure_tasks,
            sizes,
            results,
            passertions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_dag::ExecutedDag;
    use pasoa_wire::NetworkProfile;

    fn deployment() -> StoreDeployment {
        StoreDeployment::in_memory(NetworkProfile::InProcess.latency_model(), false)
    }

    #[test]
    fn pipeline_runs_and_produces_science() {
        let runner = PipelineRunner::new(deployment());
        let report = runner.run(&PipelineConfig::small(7, RunRecording::Synchronous));
        assert!(report.succeeded());
        assert_eq!(report.sizes.len(), 8); // original + 7 permutations
        assert_eq!(report.results.len(), 2);
        for r in &report.results {
            assert!(
                r.relative_compressibility < 1.0,
                "synthetic proteins have structure the compressor should find: {r:?}"
            );
        }
        assert_eq!(report.measure_tasks.len(), 4);
        assert!(report.measure_stage_span().is_some());
    }

    #[test]
    fn recorded_provenance_reconstructs_the_executed_pipeline() {
        let runner = PipelineRunner::new(deployment());
        let config = PipelineConfig::small(5, RunRecording::Synchronous);
        let (dag, _) = build_pipeline_dag(&config);
        let report = runner.run(&config);
        let store = runner.deployment().store_handle();
        let assertions = store.assertions_for_session(&report.session).unwrap();
        assert_eq!(assertions.len() as u64, report.passertions);
        assert_eq!(report.report.passertions_recorded, report.passertions);
        let from_provenance = ExecutedDag::from_assertions("protein-pipeline", &assertions);
        let from_report = ExecutedDag::from_report(&dag, &report.report);
        assert_eq!(from_provenance, from_report);
        assert_eq!(from_provenance.completed.len(), dag.len());
    }

    #[test]
    fn parallel_and_sequential_runs_agree_on_the_science() {
        let runner = PipelineRunner::new(deployment());
        let base = PipelineConfig::small(6, RunRecording::None);
        let parallel = runner.run(&PipelineConfig {
            workers: 4,
            ..base.clone()
        });
        let sequential = runner.run(&PipelineConfig {
            workers: 1,
            ..base.clone()
        });
        assert_eq!(
            parallel.sizes, sequential.sizes,
            "worker count must not perturb the results"
        );
        assert_eq!(parallel.results.len(), sequential.results.len());
    }

    #[test]
    fn parallel_measure_stage_overlaps_scheduling_overhead() {
        // With a slept per-task scheduling overhead, four workers overlap the four slices'
        // overhead; one worker pays it serially. (CPU parallelism is irrelevant — this holds
        // on a single-core host.)
        let runner = PipelineRunner::new(deployment());
        let base = PipelineConfig {
            overhead: OverheadModel::sleeping(Duration::from_millis(15), Duration::ZERO),
            ..PipelineConfig::small(3, RunRecording::None)
        };
        let parallel = runner.run(&PipelineConfig {
            workers: 4,
            ..base.clone()
        });
        let sequential = runner.run(&PipelineConfig {
            workers: 1,
            ..base.clone()
        });
        let par = parallel.measure_stage_span().unwrap();
        let seq = sequential.measure_stage_span().unwrap();
        assert!(
            par < seq,
            "parallel stage {par:?} should beat sequential {seq:?}"
        );
    }

    #[test]
    fn slice_ranges_cover_every_permutation_exactly_once() {
        let config = PipelineConfig {
            permutations: 9,
            slices: 4,
            ..PipelineConfig::default()
        };
        let ranges = config.slice_ranges();
        assert_eq!(ranges.len(), 4);
        let covered: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(covered, (0..10).collect::<Vec<_>>());

        // More slices than measurements: empty slices are dropped.
        let tiny = PipelineConfig {
            permutations: 1,
            slices: 4,
            ..PipelineConfig::default()
        };
        let tiny_ranges = tiny.slice_ranges();
        assert!(tiny_ranges.iter().all(|r| !r.is_empty()));
        let covered: usize = tiny_ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 2);
    }
}
