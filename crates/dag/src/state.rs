//! Task states, failure policies and executor configuration.

use std::time::Duration;

/// Lifecycle state of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting for parents (or for a worker).
    Pending,
    /// An attempt is executing on a worker.
    Running,
    /// A failed attempt is waiting out its backoff before the next try.
    Retrying,
    /// The task finished successfully.
    Completed,
    /// Every allowed attempt failed (or fail-fast recorded the defeat).
    Failed,
    /// The task never ran: an upstream failure or a fail-fast cancellation removed it.
    Skipped,
}

impl TaskState {
    /// Stable label used in provenance and display.
    pub fn label(self) -> &'static str {
        match self {
            TaskState::Pending => "pending",
            TaskState::Running => "running",
            TaskState::Retrying => "retrying",
            TaskState::Completed => "completed",
            TaskState::Failed => "failed",
            TaskState::Skipped => "skipped",
        }
    }
}

impl std::fmt::Display for TaskState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a task was skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipCause {
    /// A (transitive) parent failed or was itself skipped.
    UpstreamFailed {
        /// The nearest failed/skipped upstream task.
        upstream: String,
    },
    /// Fail-fast cancelled the task after an unrelated branch failed.
    Cancelled {
        /// The failed task that tripped fail-fast.
        root: String,
    },
}

impl SkipCause {
    /// Stable label recorded in provenance; reconstruction compares these strings.
    pub fn label(&self) -> String {
        match self {
            SkipCause::UpstreamFailed { upstream } => format!("upstream-failed:{upstream}"),
            SkipCause::Cancelled { root } => format!("cancelled:{root}"),
        }
    }
}

impl std::fmt::Display for SkipCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// What the executor does once a task exhausts its attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Skip the failed task's descendants and cancel every other not-yet-started task;
    /// running siblings finish (their provenance is never lost).
    #[default]
    FailFast,
    /// Skip only the failed task's descendants; independent branches keep executing.
    Continue,
}

impl FailurePolicy {
    /// Stable label used in provenance and display.
    pub fn label(self) -> &'static str {
        match self {
            FailurePolicy::FailFast => "fail-fast",
            FailurePolicy::Continue => "continue",
        }
    }
}

/// Retry budget with exponential backoff capped at `backoff_cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed per task (1 = no retries).
    pub max_attempts: usize,
    /// Delay before the first retry; doubles per further retry.
    pub backoff: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    /// Retry up to `max_attempts` total attempts with exponential backoff.
    pub fn retries(max_attempts: usize, backoff: Duration, backoff_cap: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff,
            backoff_cap,
        }
    }

    /// Delay slept before attempt `attempt` (attempts are 1-based; attempt 1 never waits).
    pub fn delay_before(&self, attempt: usize) -> Duration {
        if attempt <= 1 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let doublings = (attempt - 2).min(32) as u32;
        let delay = self
            .backoff
            .checked_mul(1u32 << doublings.min(31))
            .unwrap_or(self.backoff_cap);
        delay.min(self.backoff_cap.max(self.backoff))
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Bounded worker pool size (clamped to at least 1 and at most the task count).
    pub workers: usize,
    /// What happens to the rest of the DAG when a task fails.
    pub failure_policy: FailurePolicy,
    /// Retry budget applied to every task.
    pub retry: RetryPolicy,
    /// Record the additional actor-state p-assertions (configuration, resource usage) of the
    /// paper's "synchronous recording with extra actor provenance" configuration.
    pub record_extra_actor_state: bool,
    /// Register the session group at the end of the run. Disable when the caller manages
    /// group registration itself (the simulation harness does).
    pub register_group: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 4,
            failure_policy: FailurePolicy::default(),
            retry: RetryPolicy::none(),
            record_extra_actor_state: false,
            register_group: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(TaskState::Pending.label(), "pending");
        assert_eq!(TaskState::Retrying.to_string(), "retrying");
        assert_eq!(FailurePolicy::FailFast.label(), "fail-fast");
        assert_eq!(FailurePolicy::Continue.label(), "continue");
        assert_eq!(
            SkipCause::UpstreamFailed {
                upstream: "b".into()
            }
            .label(),
            "upstream-failed:b"
        );
        assert_eq!(
            SkipCause::Cancelled { root: "a".into() }.to_string(),
            "cancelled:a"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy::retries(5, Duration::from_millis(10), Duration::from_millis(25));
        assert_eq!(policy.delay_before(1), Duration::ZERO);
        assert_eq!(policy.delay_before(2), Duration::from_millis(10));
        assert_eq!(policy.delay_before(3), Duration::from_millis(20));
        assert_eq!(policy.delay_before(4), Duration::from_millis(25));
        assert_eq!(policy.delay_before(5), Duration::from_millis(25));
        let none = RetryPolicy::none();
        assert_eq!(none.max_attempts, 1);
        assert_eq!(none.delay_before(3), Duration::ZERO);
        assert_eq!(
            RetryPolicy::retries(0, Duration::ZERO, Duration::ZERO).max_attempts,
            1
        );
    }

    #[test]
    fn config_default_is_fail_fast() {
        let config = ExecutorConfig::default();
        assert_eq!(config.failure_policy, FailurePolicy::FailFast);
        assert_eq!(config.retry.max_attempts, 1);
        assert!(config.register_group);
        assert!(!config.record_extra_actor_state);
    }
}
