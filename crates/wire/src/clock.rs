//! A virtual clock for simulated-time runs.
//!
//! When benchmarks want to charge paper-scale communication latencies (tens of milliseconds per
//! call, thousands of calls) without actually sleeping, the transport accumulates the modelled
//! cost on a [`SimClock`] instead. The clock is shared, thread-safe and monotone; harnesses read
//! it alongside real elapsed time and report both.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shared, thread-safe accumulator of simulated time.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Create a clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `d`.
    pub fn advance(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Current simulated elapsed time.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_accumulates() {
        let clock = SimClock::new();
        assert_eq!(clock.elapsed(), Duration::ZERO);
        clock.advance(Duration::from_millis(18));
        clock.advance(Duration::from_millis(15));
        assert_eq!(clock.elapsed(), Duration::from_millis(33));
    }

    #[test]
    fn clones_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(1));
        assert_eq!(b.elapsed(), Duration::from_secs(1));
    }

    #[test]
    fn concurrent_advances_are_not_lost() {
        let clock = SimClock::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let clock = clock.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    clock.advance(Duration::from_nanos(10));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.elapsed(), Duration::from_nanos(80_000));
    }
}
