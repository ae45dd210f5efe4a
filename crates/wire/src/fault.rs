//! Fault injection: make registered services unreachable on demand.
//!
//! The replicated store tier must be proven against shard failures, and the only honest way to
//! do that is to kill shards mid-workload. A [`FaultInjector`] is a shared handle onto a host's
//! set of downed service names: while a service is down, every call to it — through a
//! [`crate::Transport`] or checked explicitly by in-process dispatchers — fails with
//! [`crate::WireError::ServiceDown`], exactly as a crashed remote host would time out. Reviving
//! a service models a restart (its in-memory state is whatever survived, which for a killed
//! shard is decided by the storage layer's recovery, not by this layer).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

/// A shared handle for downing and reviving services on one host.
///
/// Cheap to clone; clones share state. Obtain the host's injector via
/// [`crate::ServiceHost::fault_injector`].
#[derive(Clone, Default)]
pub struct FaultInjector {
    down: Arc<RwLock<HashSet<String>>>,
    /// Bumped on every kill/revive so observers can cache "nothing changed since I last
    /// looked" instead of rescanning the fault set on every message.
    epoch: Arc<AtomicU64>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("down", &self.downed())
            .finish()
    }
}

impl FaultInjector {
    /// Create an injector with no faults active.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make `service` unreachable until revived. Idempotent; returns whether the service was
    /// previously up.
    pub fn kill(&self, service: impl Into<String>) -> bool {
        let inserted = self.down.write().insert(service.into());
        if inserted {
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
        inserted
    }

    /// Make `service` reachable again. Returns whether it was down.
    pub fn revive(&self, service: &str) -> bool {
        let removed = self.down.write().remove(service);
        if removed {
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
        removed
    }

    /// A counter bumped on every effective kill or revive. Observers that handled everything
    /// up to a given epoch can skip rescanning until it changes.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether `service` is currently unreachable.
    pub fn is_down(&self, service: &str) -> bool {
        self.down.read().contains(service)
    }

    /// Names of currently downed services, sorted.
    pub fn downed(&self) -> Vec<String> {
        let mut names: Vec<String> = self.down.read().iter().cloned().collect();
        names.sort();
        names
    }

    /// Whether any fault is active. Public for the net and cluster tests, which check that a
    /// real socket failure left no fault behind.
    pub fn any_down(&self) -> bool {
        !self.down.read().is_empty()
    }
}

/// What a scheduled fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultActionKind {
    /// Make the service unreachable ([`FaultInjector::kill`]).
    Kill,
    /// Make the service reachable again ([`FaultInjector::revive`]).
    Revive,
}

/// One scheduled fault: when the observed progress counter reaches `at`, apply `kind` to
/// `service`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultAction {
    /// Progress threshold (in whatever unit the driver counts: messages sent, simulation
    /// steps, ...). An action with `at == 0` is due before any progress is made.
    pub at: u64,
    /// The service the action targets.
    pub service: String,
    /// Kill or revive.
    pub kind: FaultActionKind,
}

/// A deterministic fault script: an ordered set of [`FaultAction`]s applied against one
/// [`FaultInjector`] as a driver-owned progress counter advances.
///
/// This is the schedulable face of fault injection: a load generator counts record messages, a
/// simulation harness counts executed plan steps — either way, calling [`FaultSchedule::advance`]
/// with the current count fires every action whose threshold has been crossed, exactly once,
/// in threshold order (ties fire in construction order). Safe to drive from many threads:
/// application is serialized, so a kill at 2 and a revive at 7 always reach the injector in
/// that order no matter which threads' `advance` calls observe them.
pub struct FaultSchedule {
    injector: FaultInjector,
    /// Actions sorted by threshold (stable, so equal thresholds keep construction order).
    actions: Vec<FaultAction>,
    /// Index of the next action not yet fired. Mutations happen only under `apply`;
    /// kept atomic so `is_exhausted` stays lock-free.
    next: AtomicUsize,
    /// Serializes firing: selection AND injector application happen under this lock, so
    /// concurrent `advance` calls cannot apply a later action before an earlier one.
    apply: Mutex<()>,
    /// Actions applied so far, in firing order.
    fired: Mutex<Vec<FaultAction>>,
}

impl FaultSchedule {
    /// Build a schedule over `actions`, applied to `injector` as the counter advances.
    pub fn new(injector: FaultInjector, mut actions: Vec<FaultAction>) -> Self {
        actions.sort_by_key(|action| action.at);
        FaultSchedule {
            injector,
            actions,
            next: AtomicUsize::new(0),
            apply: Mutex::new(()),
            fired: Mutex::new(Vec::new()),
        }
    }

    /// Fire every not-yet-fired action whose threshold is `<= now`. Returns how many actions
    /// this call fired.
    pub fn advance(&self, now: u64) -> usize {
        // Fast path: nothing due (one atomic load per message once the schedule is drained
        // past `now`).
        let peek = self.next.load(Ordering::SeqCst);
        if peek >= self.actions.len() || self.actions[peek].at > now {
            return 0;
        }
        let _guard = self.apply.lock();
        let mut fired_here = 0;
        loop {
            let index = self.next.load(Ordering::SeqCst);
            if index >= self.actions.len() || self.actions[index].at > now {
                return fired_here;
            }
            let action = &self.actions[index];
            match action.kind {
                FaultActionKind::Kill => {
                    self.injector.kill(action.service.clone());
                }
                FaultActionKind::Revive => {
                    self.injector.revive(&action.service);
                }
            }
            self.fired.lock().push(action.clone());
            // Advance only after the action has been applied, so a concurrent fast-path
            // reader never concludes an unapplied action already fired.
            self.next.store(index + 1, Ordering::SeqCst);
            fired_here += 1;
        }
    }

    /// Actions applied so far, in firing order.
    pub fn fired(&self) -> Vec<FaultAction> {
        self.fired.lock().clone()
    }

    /// Whether every scheduled action has fired.
    #[cfg(test)]
    pub(crate) fn is_exhausted(&self) -> bool {
        self.next.load(Ordering::SeqCst) >= self.actions.len()
    }

    /// Number of scheduled actions (fired or not).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the schedule holds no actions at all.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_revive_cycle() {
        let injector = FaultInjector::new();
        assert!(!injector.is_down("shard-0"));
        assert!(injector.kill("shard-0"));
        assert!(!injector.kill("shard-0"), "second kill is a no-op");
        assert!(injector.is_down("shard-0"));
        assert!(injector.any_down());
        assert_eq!(injector.downed(), vec!["shard-0".to_string()]);
        assert!(injector.revive("shard-0"));
        assert!(!injector.revive("shard-0"));
        assert!(!injector.any_down());
    }

    #[test]
    fn clones_share_fault_state() {
        let a = FaultInjector::new();
        let b = a.clone();
        a.kill("svc");
        assert!(b.is_down("svc"));
        b.revive("svc");
        assert!(!a.is_down("svc"));
    }

    fn action(at: u64, service: &str, kind: FaultActionKind) -> FaultAction {
        FaultAction {
            at,
            service: service.to_string(),
            kind,
        }
    }

    #[test]
    fn schedule_fires_each_action_once_in_threshold_order() {
        let injector = FaultInjector::new();
        let schedule = FaultSchedule::new(
            injector.clone(),
            vec![
                action(5, "b", FaultActionKind::Kill),
                action(2, "a", FaultActionKind::Kill),
                action(7, "a", FaultActionKind::Revive),
            ],
        );
        assert_eq!(schedule.len(), 3);
        assert!(!schedule.is_empty());
        assert_eq!(schedule.advance(1), 0);
        assert!(!injector.any_down());
        assert_eq!(schedule.advance(2), 1);
        assert!(injector.is_down("a"));
        // Re-advancing past an already-fired threshold fires nothing new.
        assert_eq!(schedule.advance(2), 0);
        // A jump past several thresholds fires all of them, in order.
        assert_eq!(schedule.advance(10), 2);
        assert!(injector.is_down("b"));
        assert!(
            !injector.is_down("a"),
            "the revive at 7 fired after the kill"
        );
        assert!(schedule.is_exhausted());
        let fired: Vec<(u64, String)> = schedule
            .fired()
            .into_iter()
            .map(|a| (a.at, a.service))
            .collect();
        assert_eq!(
            fired,
            vec![
                (2, "a".to_string()),
                (5, "b".to_string()),
                (7, "a".to_string())
            ]
        );
    }

    #[test]
    fn schedule_at_zero_is_due_before_any_progress() {
        let injector = FaultInjector::new();
        let schedule = FaultSchedule::new(
            injector.clone(),
            vec![action(0, "svc", FaultActionKind::Kill)],
        );
        assert_eq!(schedule.advance(0), 1);
        assert!(injector.is_down("svc"));
    }

    #[test]
    fn concurrent_advances_fire_each_action_exactly_once() {
        let injector = FaultInjector::new();
        let schedule = std::sync::Arc::new(FaultSchedule::new(
            injector.clone(),
            (0..50)
                .map(|i| action(i, &format!("svc-{i}"), FaultActionKind::Kill))
                .collect(),
        ));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let schedule = std::sync::Arc::clone(&schedule);
            handles.push(std::thread::spawn(move || {
                let mut fired = 0;
                for now in 0..50 {
                    fired += schedule.advance(now);
                }
                fired
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 50, "every action fires exactly once across threads");
        assert_eq!(injector.downed().len(), 50);
        assert!(schedule.is_exhausted());
    }
}
