//! Brute-force exact GEPC solver for small instances.
//!
//! Enumerates, per user, every *individually feasible* event subset
//! (conflict-free, within budget, positive utilities), then searches
//! the cross product with branch-and-bound: partial attendance above
//! `η` prunes immediately and an optimistic utility bound (each
//! remaining user's best subset) prunes dominated branches. Lower
//! bounds `ξ` are checked at the leaves.
//!
//! Used by unit/property tests and the approximation-ratio ablation
//! experiment (A1 in DESIGN.md); the size guards keep accidental
//! exponential blow-ups out of CI.

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;
use crate::solver::{GepcSolver, Solution};
use epplan_solve::{BudgetGuard, SolveBudget, SolveError, SolveStatus};
use std::time::Duration;

const STAGE: &str = "core.exact";

/// Exact solver with hard instance-size limits.
#[derive(Debug, Clone)]
pub struct ExactSolver {
    /// Maximum number of users accepted.
    pub max_users: usize,
    /// Maximum number of events accepted.
    pub max_events: usize,
}

impl Default for ExactSolver {
    fn default() -> Self {
        ExactSolver {
            max_users: 10,
            max_events: 8,
        }
    }
}

impl ExactSolver {
    /// Lists every individually feasible event subset for `u`,
    /// including the empty one, as bitmasks over `EventId` indices.
    fn feasible_subsets(&self, instance: &Instance, u: UserId) -> Vec<(u32, f64)> {
        let m = instance.n_events();
        let mut out = Vec::new();
        // epplan-lint: allow(sparse/dense-scan) — exhaustive 2^|E| subset enumeration is the exact solver's contract; it only runs on deliberately tiny instances
        'mask: for mask in 0u32..(1 << m) {
            let events: Vec<EventId> = (0..m)
                .filter(|&j| mask & (1 << j) != 0)
                .map(|j| EventId(j as u32))
                .collect();
            let mut utility = 0.0;
            for (k, &a) in events.iter().enumerate() {
                if instance.utility(u, a) <= 0.0 {
                    continue 'mask;
                }
                utility += instance.utility(u, a);
                for &b in &events[k + 1..] {
                    if instance.conflicts(a, b) {
                        continue 'mask;
                    }
                }
            }
            if instance.travel_cost(u, &events) > instance.user(u).budget + 1e-9 {
                continue;
            }
            out.push((mask, utility));
        }
        out
    }
}

impl GepcSolver for ExactSolver {
    /// Finds the optimal fully feasible plan under `budget`.
    ///
    /// Errors are typed: `BadInput` when the instance exceeds the
    /// configured size limits, `Infeasible` (carrying the empty plan as
    /// a partial) when no plan satisfies every constraint, and
    /// `BudgetExhausted` (carrying the best incumbent found, if any)
    /// when the search runs out of budget.
    fn try_solve(
        &self,
        instance: &Instance,
        budget: SolveBudget,
    ) -> Result<Solution, SolveError<Solution>> {
        if instance.n_users() > self.max_users || instance.n_events() > self.max_events {
            return Err(SolveError::bad_input(
                STAGE,
                format!(
                    "exact solver limited to {}×{} (got {}×{})",
                    self.max_users,
                    self.max_events,
                    instance.n_users(),
                    instance.n_events()
                ),
            ));
        }
        let n = instance.n_users();
        let m = instance.n_events();
        let subsets: Vec<Vec<(u32, f64)>> = instance
            .user_ids()
            .map(|u| {
                let mut s = self.feasible_subsets(instance, u);
                // Try high-utility subsets first for better pruning.
                s.sort_by(|a, b| b.1.total_cmp(&a.1));
                s
            })
            .collect();
        // Optimistic utility of users `u..`: sum of their best subsets.
        let mut suffix_best = vec![0.0; n + 1];
        for u in (0..n).rev() {
            suffix_best[u] =
                suffix_best[u + 1] + subsets[u].first().map_or(0.0, |&(_, ut)| ut);
        }

        struct Ctx<'a> {
            instance: &'a Instance,
            subsets: &'a [Vec<(u32, f64)>],
            suffix_best: &'a [f64],
            attendance: Vec<u32>,
            chosen: Vec<u32>,
            best_utility: f64,
            best: Option<Vec<u32>>,
            guard: BudgetGuard,
        }

        fn dfs(ctx: &mut Ctx<'_>, u: usize, utility: f64) -> Result<(), SolveError<()>> {
            ctx.guard.tick(STAGE)?;
            if utility + ctx.suffix_best[u] <= ctx.best_utility + 1e-12 && ctx.best.is_some()
            {
                return Ok(());
            }
            let n = ctx.subsets.len();
            if u == n {
                // Leaf: verify lower bounds.
                let feasible = ctx
                    .instance
                    .event_ids()
                    .all(|e| ctx.attendance[e.index()] >= ctx.instance.event(e).lower);
                if feasible && (ctx.best.is_none() || utility > ctx.best_utility) {
                    ctx.best_utility = utility;
                    ctx.best = Some(ctx.chosen.clone());
                }
                return Ok(());
            }
            'subset: for &(mask, ut) in &ctx.subsets[u] {
                // Apply with η pruning.
                let mut applied = 0u32;
                for j in 0..ctx.attendance.len() {
                    if mask & (1 << j) != 0 {
                        if ctx.attendance[j] + 1 > ctx.instance.event(EventId(j as u32)).upper
                        {
                            // Roll back partial application.
                            for k in 0..j {
                                if mask & (1 << k) != 0 {
                                    ctx.attendance[k] -= 1;
                                }
                            }
                            let _ = applied;
                            continue 'subset;
                        }
                        ctx.attendance[j] += 1;
                        applied += 1;
                    }
                }
                ctx.chosen[u] = mask;
                let r = dfs(ctx, u + 1, utility + ut);
                for j in 0..ctx.attendance.len() {
                    if mask & (1 << j) != 0 {
                        ctx.attendance[j] -= 1;
                    }
                }
                r?;
            }
            Ok(())
        }

        let mut ctx = Ctx {
            instance,
            subsets: &subsets,
            suffix_best: &suffix_best,
            attendance: vec![0; m],
            chosen: vec![0; n],
            best_utility: f64::NEG_INFINITY,
            best: None,
            guard: BudgetGuard::new(budget),
        };
        let search = dfs(&mut ctx, 0, 0.0);

        let reconstruct = |chosen: &[u32], status: SolveStatus| {
            let mut plan = Plan::for_instance(instance);
            for (u, mask) in chosen.iter().enumerate() {
                // epplan-lint: allow(sparse/dense-scan) — unpacking a per-user subset bitmask is O(|E|) by construction; exact instances are tiny
                for j in 0..m {
                    if mask & (1 << j) != 0 {
                        plan.add(UserId(u as u32), EventId(j as u32));
                    }
                }
            }
            let mut sol = Solution::from_plan(instance, plan);
            sol.report.record_success("exact", status, Duration::ZERO);
            sol
        };

        match search {
            Ok(()) => ctx
                .best
                .as_deref()
                .map(|chosen| reconstruct(chosen, SolveStatus::Optimal))
                .ok_or_else(|| {
                    SolveError::infeasible(
                        STAGE,
                        "no plan satisfies every constraint including the lower bounds",
                    )
                    .with_partial(Solution::from_plan(instance, Plan::for_instance(instance)))
                }),
            Err(e) => {
                // Budget ran out mid-search: surface the best incumbent
                // (a fully feasible but possibly sub-optimal plan) when
                // one was found.
                let mut out: SolveError<Solution> = e.discard_partial();
                if let Some(chosen) = ctx.best.as_deref() {
                    out = out.with_partial(reconstruct(chosen, SolveStatus::BestEffort));
                }
                Err(out)
            }
        }
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{Event, TimeInterval, User, UtilityMatrix};
    use epplan_geo::Point;

    fn inst() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 30.0),
            User::new(Point::new(1.0, 0.0), 30.0),
        ];
        let events = vec![
            Event::new(Point::new(0.0, 1.0), 1, 2, TimeInterval::new(0, 59)),
            Event::new(Point::new(0.0, 2.0), 0, 1, TimeInterval::new(60, 119)),
        ];
        let utilities =
            UtilityMatrix::from_rows(vec![vec![0.5, 0.9], vec![0.6, 0.8]]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    #[test]
    fn finds_optimum() {
        let instance = inst();
        let sol = ExactSolver::default()
            .try_solve(&instance, SolveBudget::UNLIMITED)
            .unwrap();
        // Best: u0 {e0, e1} = 1.4, u1 {e0} = 0.6 — e1 capacity 1 so only
        // one of them gets it; u0 values it more… check: u1 {e0,e1} =
        // 1.4 and u0 {e0,e1} = 1.4; both want e1 (cap 1). Optimum:
        // one takes {e0,e1}, other {e0} → 1.4 + 0.6 = 2.0 or 1.4 + 0.5
        // = 1.9 → 2.0.
        assert!((sol.utility - 2.0).abs() < 1e-9);
        assert!(sol.fully_feasible());
        let cert = certify(&instance, &sol.plan);
        assert!(cert.hard_ok() && cert.soft_violations.is_empty(), "{cert}");
    }

    #[test]
    fn detects_infeasible_lower_bound() {
        let mut instance = inst();
        instance.set_event_bounds(EventId(1), 2, 2); // η=2 now, ξ=2
        instance.set_utility(UserId(0), EventId(1), 0.0);
        // Only u1 can attend e1 → ξ=2 unreachable.
        assert!(ExactSolver::default()
            .try_solve(&instance, SolveBudget::UNLIMITED)
            .is_err());
    }

    #[test]
    fn trait_fallback_returns_empty_plan() {
        let mut instance = inst();
        instance.set_event_bounds(EventId(1), 2, 2);
        instance.set_utility(UserId(0), EventId(1), 0.0);
        let sol = ExactSolver::default().solve(&instance);
        assert_eq!(sol.plan.total_assignments(), 0);
        assert!(!sol.fully_feasible());
    }

    #[test]
    fn exact_dominates_both_approximations() {
        let instance = inst();
        let exact = ExactSolver::default()
            .try_solve(&instance, SolveBudget::UNLIMITED)
            .unwrap();
        let greedy = crate::solver::GreedySolver::seeded(3).solve(&instance);
        let gap = crate::solver::GapBasedSolver::default().solve(&instance);
        assert!(exact.utility >= greedy.utility - 1e-9);
        assert!(exact.utility >= gap.utility - 1e-9);
    }

    #[test]
    fn size_guard_is_typed_bad_input() {
        let n = 11;
        let users = vec![User::new(Point::new(0.0, 0.0), 1.0); n];
        let events = vec![];
        let instance = Instance::new(users, events, UtilityMatrix::zeros(n, 0)).unwrap();
        let err = ExactSolver::default()
            .try_solve(&instance, SolveBudget::UNLIMITED)
            .unwrap_err();
        assert_eq!(err.kind, epplan_solve::FailureKind::BadInput);
        assert!(err.message.contains("exact solver limited"));
        // The total entry point degrades to the empty plan instead of
        // panicking.
        assert_eq!(
            ExactSolver::default()
                .solve(&instance)
                .plan
                .total_assignments(),
            0
        );
    }

    #[test]
    fn infeasible_error_carries_empty_plan() {
        let mut instance = inst();
        instance.set_event_bounds(EventId(1), 2, 2);
        instance.set_utility(UserId(0), EventId(1), 0.0);
        let err = ExactSolver::default()
            .try_solve(&instance, SolveBudget::UNLIMITED)
            .unwrap_err();
        assert_eq!(err.kind, epplan_solve::FailureKind::Infeasible);
        let partial = err.partial.expect("empty plan travels as partial");
        assert_eq!(partial.plan.total_assignments(), 0);
    }

    #[test]
    fn budget_exhaustion_is_typed() {
        let instance = inst();
        let err = ExactSolver::default()
            .try_solve(&instance, SolveBudget::from_iteration_cap(1))
            .unwrap_err();
        assert_eq!(err.kind, epplan_solve::FailureKind::BudgetExhausted);
    }

    #[test]
    fn respects_budget_and_conflicts() {
        let mut instance = inst();
        instance.set_budget(UserId(0), 2.0); // only e0 reachable (cost 2)
        instance.set_event_time(EventId(1), TimeInterval::new(0, 59)); // conflicts e0
        let sol = ExactSolver::default()
            .try_solve(&instance, SolveBudget::UNLIMITED)
            .unwrap();
        let cert = certify(&instance, &sol.plan);
        assert!(cert.hard_ok() && cert.soft_violations.is_empty(), "{cert}");
        // u0 can only do e0; u1 must pick one of e0/e1 (conflict).
        for u in instance.user_ids() {
            assert!(sol.plan.user_plan(u).len() <= 1 || u == UserId(1));
        }
    }
}
