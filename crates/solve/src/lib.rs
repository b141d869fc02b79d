//! Workspace-wide solver vocabulary: statuses, structured errors,
//! solve budgets and degradation reports.
//!
//! Every public solver entry point in the workspace — the simplex LP
//! (`epplan-lp`), the GAP pipeline (`epplan-gap`), the min-cost
//! assignment (`epplan-flow`), and the GEPC/IEP solvers in `epplan-core`
//! — speaks this vocabulary: it returns `Result<_, SolveError<_>>`,
//! spends work against a [`SolveBudget`], and (at the facade level)
//! records what it tried in a [`SolveReport`]. A solver may *degrade*
//! (hand back a [`SolveStatus::BestEffort`] artifact, or attach a
//! partial result to its error) but it may not panic and it may not
//! spin forever on a pathological instance.
//!
//! The crate is dependency-free on purpose: `epplan-lp`, `epplan-flow`
//! and `epplan-gap` sit below `epplan-core` in the crate graph, so the
//! shared vocabulary has to live below all of them.


// Solver code must degrade with typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
mod budget;
pub mod certify;
mod error;
mod report;

pub use budget::{BudgetGuard, DeadlineExceeded, DeadlineFlag, SolveBudget};
pub use certify::{
    certify_delta, certify_plan, certify_plan_tally, recompute_dif, CertTally, CertViolation,
    Certificate, PlanView,
};
pub use error::{FailureKind, SolveError};
pub use report::{AttemptOutcome, SolveAttempt, SolveReport};

/// How good a *successful* solve is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// The solver ran to completion and its optimality/approximation
    /// guarantee holds for the returned artifact.
    Optimal,
    /// The solver degraded — it hit a budget, a numerical guard or a
    /// fallback path — but the returned artifact was validated and is
    /// the best one available.
    BestEffort,
}

impl SolveStatus {
    /// `true` when the solver's full guarantee applies.
    pub fn is_optimal(self) -> bool {
        matches!(self, SolveStatus::Optimal)
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveStatus::Optimal => f.write_str("optimal"),
            SolveStatus::BestEffort => f.write_str("best-effort"),
        }
    }
}
