//! Grid-scheduling overhead model and granularity partitioning.
//!
//! "Given that for a typical sample, compression takes of the order of 100 ms, we have
//! partitioned the processing of permutations into scripts that provided a sufficient
//! granularity of computation (the order of 15 minutes) in order to offset the overhead of grid
//! scheduling and file transfer." Two pieces reproduce that reality:
//!
//! * [`OverheadModel`] charges each scheduled job a fixed scheduling delay plus a staging cost
//!   proportional to the bytes moved, either by sleeping (real-time runs) or by accumulating on
//!   a virtual clock;
//! * [`GranularityPartitioner`] groups a large fan-out (the permutations) into jobs of a
//!   configurable size (the paper groups 100 permutations per script), so the overhead is paid
//!   per job rather than per permutation.

use std::time::Duration;

use pasoa_wire::SimClock;

/// How modelled overhead is realised.
#[derive(Debug, Clone, Default)]
pub enum OverheadMode {
    /// Ignore the model (pure in-process execution).
    #[default]
    None,
    /// Sleep for the modelled duration.
    Sleep,
    /// Accumulate the modelled duration on a shared virtual clock.
    Virtual(SimClock),
}

/// The grid overhead model.
#[derive(Debug, Clone, Default)]
pub struct OverheadModel {
    /// Fixed cost of scheduling one job (matchmaking, queueing, job start-up).
    pub scheduling: Duration,
    /// Cost per byte of staging job inputs and outputs.
    pub transfer_per_byte: Duration,
    /// How the cost is realised.
    pub mode: OverheadMode,
}

impl OverheadModel {
    /// A model that charges nothing.
    pub fn free() -> Self {
        Self::default()
    }

    /// A model with the given costs, realised by sleeping.
    pub fn sleeping(scheduling: Duration, transfer_per_byte: Duration) -> Self {
        OverheadModel {
            scheduling,
            transfer_per_byte,
            mode: OverheadMode::Sleep,
        }
    }

    /// A model with the given costs, accumulated on `clock`.
    pub fn virtual_time(
        scheduling: Duration,
        transfer_per_byte: Duration,
        clock: SimClock,
    ) -> Self {
        OverheadModel {
            scheduling,
            transfer_per_byte,
            mode: OverheadMode::Virtual(clock),
        }
    }

    /// The modelled cost of scheduling one job that stages `bytes` bytes.
    pub fn job_cost(&self, bytes: usize) -> Duration {
        self.scheduling + self.transfer_per_byte.saturating_mul(bytes as u32)
    }

    /// Charge the cost of one job according to the configured mode.
    pub fn charge(&self, bytes: usize) {
        let cost = self.job_cost(bytes);
        match &self.mode {
            OverheadMode::None => {}
            OverheadMode::Sleep => {
                if !cost.is_zero() {
                    std::thread::sleep(cost);
                }
            }
            OverheadMode::Virtual(clock) => clock.advance(cost),
        }
    }
}

/// Groups a fan-out of `total` fine-grained tasks into jobs of at most `per_job` tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GranularityPartitioner {
    /// Number of fine-grained tasks bundled into one scheduled job.
    pub per_job: usize,
}

impl GranularityPartitioner {
    /// Create a partitioner (a `per_job` of 0 is treated as 1).
    pub fn new(per_job: usize) -> Self {
        GranularityPartitioner {
            per_job: per_job.max(1),
        }
    }

    /// Number of jobs needed for `total` tasks.
    pub fn job_count(&self, total: usize) -> usize {
        total.div_ceil(self.per_job)
    }

    /// The half-open task ranges of each job.
    pub fn jobs(&self, total: usize) -> Vec<std::ops::Range<usize>> {
        (0..self.job_count(total))
            .map(|j| {
                let start = j * self.per_job;
                start..(start + self.per_job).min(total)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_cost_combines_scheduling_and_transfer() {
        let model = OverheadModel {
            scheduling: Duration::from_millis(10),
            transfer_per_byte: Duration::from_nanos(100),
            mode: OverheadMode::None,
        };
        assert_eq!(model.job_cost(0), Duration::from_millis(10));
        assert_eq!(model.job_cost(1_000_000), Duration::from_millis(110));
        model.charge(1_000_000); // mode None: must not sleep
    }

    #[test]
    fn virtual_mode_accumulates_on_the_clock() {
        let clock = SimClock::new();
        let model =
            OverheadModel::virtual_time(Duration::from_secs(2), Duration::ZERO, clock.clone());
        for _ in 0..5 {
            model.charge(123);
        }
        assert_eq!(clock.elapsed(), Duration::from_secs(10));
    }

    #[test]
    fn sleep_mode_takes_real_time() {
        let model = OverheadModel::sleeping(Duration::from_millis(5), Duration::ZERO);
        let start = std::time::Instant::now();
        model.charge(0);
        model.charge(0);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn free_model_is_zero() {
        let model = OverheadModel::free();
        assert_eq!(model.job_cost(1 << 20), Duration::ZERO);
    }

    #[test]
    fn partitioner_covers_every_task_exactly_once() {
        let p = GranularityPartitioner::new(100);
        assert_eq!(p.job_count(800), 8);
        assert_eq!(p.job_count(801), 9);
        assert_eq!(p.job_count(0), 0);
        let jobs = p.jobs(250);
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0], 0..100);
        assert_eq!(jobs[2], 200..250);
        let covered: usize = jobs.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 250);
    }

    #[test]
    fn partitioner_clamps_zero_and_matches_paper_default() {
        assert_eq!(GranularityPartitioner::new(0).per_job, 1);
        // Finer granularity means more scheduled jobs — the trade-off the paper discusses.
        assert!(
            GranularityPartitioner::new(1).job_count(800)
                > GranularityPartitioner::new(100).job_count(800)
        );
    }
}
