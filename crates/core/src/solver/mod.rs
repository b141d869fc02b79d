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
//! used by tests and the approximation-ratio ablation.
//!
//! Each solver implements one budgeted, fallible body,
//! [`GepcSolver::try_solve`]; the provided [`GepcSolver::solve`] is
//! its total wrapper. The filler has one entry point,
//! [`filler::fill_to_upper`].

pub mod conflict_adjust;
mod event_orders;
pub mod exact;
pub mod filler;
mod gap_based;
mod greedy;

pub use exact::ExactSolver;
pub use gap_based::GapBasedSolver;
pub use greedy::GreedySolver;

use crate::model::{EventId, Instance};
use crate::plan::Plan;

pub use epplan_solve::{
    FailureKind, SolveBudget, SolveError, SolveReport, SolveStatus,
};
use epplan_solve::CertTally;

/// A solution to a GEPC instance, certified once when it is built.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The produced global plan. Every plan a solver returns, or
    /// attaches to its error as the partial, is free of hard violations
    /// (conflicts, budgets, upper bounds, zero-utility assignments);
    /// the certificate in [`Solution::report`] is the proof.
    pub plan: Plan,
    /// Global utility `U_P` of the plan, as the certifier recounted it.
    pub utility: f64,
    /// Events whose participation lower bound `ξ` could not be met —
    /// empty when the plan is fully feasible.
    pub shortfall: Vec<EventId>,
    /// How the plan was obtained: the chain of solver attempts,
    /// including any degradation (e.g. `gap_based (budget exhausted)
    /// -> greedy (best-effort)`), and the plan's certificate, always
    /// `Some`. The chain is empty for solvers that do not track
    /// attempts.
    pub report: SolveReport,
    /// The certifier's running totals for the plan, from the same
    /// pass as the certificate: the starting point of the serving
    /// daemon's per-op delta certification.
    pub tally: CertTally,
}

impl Solution {
    /// Wraps a plan, certifying it ([`crate::certify::certify_tally`])
    /// and reading `U_P` from the certificate. This is the only place
    /// a solver's result is built, so every solve certifies the plan
    /// it returns exactly once.
    pub fn from_plan(instance: &Instance, plan: Plan) -> Self {
        let (certificate, tally) = crate::certify::certify_tally(instance, &plan);
        Solution {
            utility: certificate.utility,
            shortfall: plan.shortfall(instance),
            plan,
            report: SolveReport {
                certificate: Some(certificate),
                ..SolveReport::default()
            },
            tally,
        }
    }

    /// Whether the plan passed certification: every hard constraint
    /// holds.
    pub fn certified(&self) -> bool {
        self.report.certificate.as_ref().is_some_and(|c| c.hard_ok())
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
    /// certified free of hard violations; lower-bound shortfalls are
    /// reported in [`Solution::shortfall`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Event, TimeInterval, User, UserId, UtilityMatrix};
    use epplan_geo::Point;
    use epplan_solve::certify::constraint;

    /// Two overlapping events, each wanting one user.
    fn overlapping() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 50.0),
            User::new(Point::new(1.0, 0.0), 50.0),
        ];
        let events = vec![
            Event::new(Point::new(0.0, 1.0), 1, 2, TimeInterval::new(0, 59)),
            Event::new(Point::new(0.0, 2.0), 1, 2, TimeInterval::new(30, 119)),
        ];
        let utilities =
            UtilityMatrix::from_rows(vec![vec![0.9, 0.4], vec![0.2, 0.8]]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    #[test]
    fn from_plan_rejects_a_plan_with_a_time_conflict() {
        let inst = overlapping();
        let mut plan = Plan::for_instance(&inst);
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(0), EventId(1));
        let sol = Solution::from_plan(&inst, plan);
        assert!(!sol.certified());
        let cert = sol.report.certificate.as_ref().unwrap();
        assert_eq!(cert.violated_constraints(), vec![constraint::TIME_CONFLICT]);
        // The utility is still the certificate's recount of the plan.
        assert_eq!(sol.utility.to_bits(), cert.utility.to_bits());
        assert_eq!(sol.tally.utility().to_bits(), cert.utility.to_bits());
        assert!((sol.utility - 1.3).abs() < 1e-12);
    }

    #[test]
    fn from_plan_certifies_the_empty_plan_with_its_shortfalls() {
        let inst = overlapping();
        let sol = Solution::from_plan(&inst, Plan::for_instance(&inst));
        assert!(sol.certified());
        assert_eq!(sol.utility, 0.0);
        assert_eq!(sol.shortfall, vec![EventId(0), EventId(1)]);
        assert!(!sol.fully_feasible());
        let cert = sol.report.certificate.as_ref().unwrap();
        assert!(cert.hard_violations.is_empty());
        assert_eq!(cert.soft_violations.len(), 2, "{cert}");
    }
}
