//! Query plans and their `Explain` rendering.

use serde::{Deserialize, Serialize};

pub use pasoa_preserv::AccessPath;

/// A compiled query: the chosen access path and why it was chosen.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryPlan {
    /// The access path the executor will take.
    pub path: AccessPath,
    /// Why the planner chose it (names the fallback cause when a scan replaces an index).
    pub reason: String,
}

/// The `Explain` output: what would run, without running it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Explain {
    /// Debug rendering of the request.
    pub request: String,
    /// The chosen plan.
    pub plan: QueryPlan,
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} => {} ({})",
            self.request,
            self.plan.path.label(),
            self.plan.reason
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_renders_path_and_reason() {
        let explain = Explain {
            request: "BySession(..)".into(),
            plan: QueryPlan {
                path: AccessPath::SessionIndex,
                reason: "indexes enabled".into(),
            },
        };
        let text = explain.to_string();
        assert!(text.contains("session-index"));
        assert!(text.contains("indexes enabled"));
    }
}
