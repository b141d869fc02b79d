//! GEPC solvers (Section III of the paper).
//!
//! The paper's two-step framework:
//!
//! 1. solve **ξ-GEPC** — the restricted problem with every event's
//!    upper bound temporarily set to its lower bound, so each event
//!    receives exactly `ξ_j` users — with either the
//!    [`GapBasedSolver`] (Section III-A: GAP reduction via event
//!    copies, LP relaxation, Shmoys–Tardos rounding, then the Conflict
//!    Adjusting algorithm) or the [`GreedySolver`] (Section III-B:
//!    Algorithm 2);
//! 2. fill the remaining per-event capacity `η_j − ξ_j` with the
//!    utility-aware greedy of reference \[4\] ([`filler::fill_to_upper`]).
//!
//! [`ExactSolver`] provides a brute-force optimum for small instances,
//! used by tests and the approximation-ratio ablation, and
//! [`LnsSolver`] an anytime large-neighbourhood search.
//!
//! Each solver implements one budgeted, fallible body,
//! [`GepcSolver::try_solve`]; the provided [`GepcSolver::solve`] is
//! its total wrapper. The filler likewise has one body,
//! [`filler::try_fill_to_upper`], which [`filler::fill_to_upper`] runs
//! without a deadline.

pub mod conflict_adjust;
pub mod exact;
pub mod filler;
mod gap_based;
mod greedy;
mod lns;
mod local_search;

pub use exact::ExactSolver;
pub use gap_based::GapBasedSolver;
pub use greedy::GreedySolver;
pub use lns::LnsSolver;
pub use local_search::LocalSearch;

use crate::model::{EventId, Instance};
use crate::plan::Plan;

pub use epplan_solve::{
    FailureKind, SolveBudget, SolveError, SolveReport, SolveStatus,
};

/// A solution to a GEPC instance.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The produced global plan. Always free of hard violations
    /// (conflicts, budgets, upper bounds, zero-utility assignments).
    pub plan: Plan,
    /// Global utility `U_P` of the plan.
    pub utility: f64,
    /// Events whose participation lower bound `ξ` could not be met —
    /// empty when the plan is fully feasible.
    pub shortfall: Vec<EventId>,
    /// How the plan was obtained: the chain of solver attempts,
    /// including any degradation (e.g. `gap_based (budget exhausted)
    /// -> greedy (best-effort)`). Empty for solvers that do not track
    /// attempts.
    pub report: SolveReport,
}

impl Solution {
    /// Wraps a plan, computing utility and lower-bound shortfalls.
    pub fn from_plan(instance: &Instance, plan: Plan) -> Self {
        Solution {
            utility: plan.total_utility(instance),
            shortfall: plan.shortfall(instance),
            plan,
            report: SolveReport::default(),
        }
    }

    /// Whether every event met its lower bound.
    pub fn fully_feasible(&self) -> bool {
        self.shortfall.is_empty()
    }
}

/// A GEPC solving strategy.
pub trait GepcSolver {
    /// Produces a plan for `instance` under `budget`, returning a typed
    /// [`SolveError`] on bad input, infeasibility, or budget
    /// exhaustion. Where a partial or fallback plan exists it travels
    /// in [`SolveError::partial`]. Every plan, returned or partial, is
    /// free of hard violations; lower-bound shortfalls are reported in
    /// [`Solution::shortfall`].
    fn try_solve(
        &self,
        instance: &Instance,
        budget: SolveBudget,
    ) -> Result<Solution, SolveError<Solution>>;

    /// Total entry point: [`GepcSolver::try_solve`] without a budget,
    /// degrading to the error's partial plan, or to the empty plan when
    /// the error carries none.
    fn solve(&self, instance: &Instance) -> Solution {
        self.try_solve(instance, SolveBudget::UNLIMITED)
            .unwrap_or_else(|e| {
                e.partial
                    .unwrap_or_else(|| Solution::from_plan(instance, Plan::for_instance(instance)))
            })
    }

    /// Short name for logs and benchmark tables.
    fn name(&self) -> &'static str;
}
