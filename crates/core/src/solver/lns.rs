//! Large Neighborhood Search (LNS) for GEPC — a third solving strategy
//! beyond the paper's two, exploring the design space its conclusion
//! leaves open.
//!
//! LNS alternates **destroy** (release a random subset of users'
//! assignments) and **repair** (rebuild greedily with the step-2
//! filler, then re-secure any lower bound the destruction broke with
//! the Algorithm-4 transfer machinery), keeping the best plan seen.
//! Because repair reuses the same constraint-checked primitives as the
//! paper's algorithms, every intermediate plan stays hard-feasible.
//!
//! Seeded from the greedy solution, LNS trades extra wall-clock for
//! utility — typically landing between the greedy and GAP-based
//! results at a fraction of the GAP pipeline's cost (see the
//! `gepc/lns` Criterion bench).

use crate::incremental::repair::transfer_users_to;
use crate::model::{Instance, UserId};
use crate::plan::Plan;
use crate::solver::{filler, GepcSolver, GreedySolver, LocalSearch, Solution};
use epplan_solve::{
    BudgetGuard, DeadlineExceeded, DeadlineFlag, FailureKind, SolveBudget, SolveError,
};
use rand::prelude::*;

/// Stage label on budget errors from the budgeted LNS entry point.
const STAGE: &str = "core.lns";

/// Users (or events) per chunk in the acceptance-test scans.
const SCORE_MIN_CHUNK: usize = 256;

/// Plan utility, parallel over user chunks. Chunk subtotals merge in
/// index order, so the value depends only on the fixed chunk plan —
/// every LNS acceptance test sees the same score at any thread count.
fn plan_utility(instance: &Instance, plan: &Plan) -> f64 {
    epplan_par::par_range_reduce(
        instance.n_users(),
        SCORE_MIN_CHUNK,
        |users| {
            users
                .map(|ui| plan.user_utility(instance, UserId(ui as u32)))
                .sum::<f64>()
        },
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// Configurable LNS solver.
#[derive(Debug, Clone)]
pub struct LnsSolver {
    /// RNG seed (destroy choices and the greedy seed).
    pub seed: u64,
    /// Number of destroy/repair iterations.
    pub iterations: usize,
    /// Fraction of users whose plans are released per iteration.
    pub destroy_fraction: f64,
    /// Run a final [`LocalSearch`] polish on the best plan.
    pub polish: bool,
}

impl Default for LnsSolver {
    fn default() -> Self {
        LnsSolver {
            seed: 0,
            iterations: 30,
            destroy_fraction: 0.2,
            polish: true,
        }
    }
}

impl LnsSolver {
    /// LNS with a fixed seed and default intensity.
    pub fn seeded(seed: u64) -> Self {
        LnsSolver {
            seed,
            ..Default::default()
        }
    }

    /// One destroy/repair round on `plan`. A tripped `deadline` aborts
    /// mid-repair with the plan in a valid (possibly under-filled)
    /// state; callers discard it and keep the incumbent.
    fn destroy_and_repair(
        &self,
        instance: &Instance,
        plan: &mut Plan,
        rng: &mut StdRng,
        deadline: &DeadlineFlag,
    ) -> Result<(), DeadlineExceeded> {
        let n = instance.n_users();
        if n == 0 {
            return Ok(());
        }
        let k = ((n as f64 * self.destroy_fraction).ceil() as usize).clamp(1, n);
        let mut users: Vec<u32> = (0..n as u32).collect();
        users.shuffle(rng);
        let victims: Vec<UserId> = users[..k].iter().map(|&u| UserId(u)).collect();

        // Destroy: release the victims' assignments.
        for &u in &victims {
            for e in plan.user_plan(u).to_vec() {
                plan.remove(u, e);
            }
        }
        // Repair 1: re-secure lower bounds the destruction may have
        // broken, transferring spare users (Algorithm 4 machinery).
        // epplan-lint: allow(sparse/dense-scan) — lower-bound triage is one O(|E|) attendance sweep per LNS iteration; the transfers it triggers dominate the cost
        for e in instance.event_ids() {
            let lower = instance.event(e).lower;
            if plan.attendance(e) < lower {
                deadline.poll()?;
                let _ = transfer_users_to(instance, plan, e, lower);
            }
        }
        // Repair 2: refill the victims (and any capacity the transfers
        // opened) with the utility-aware filler.
        filler::try_fill_to_upper(instance, plan, Some(&victims), deadline)?;
        filler::try_fill_to_upper(instance, plan, None, deadline)?;
        Ok(())
    }
}

impl GepcSolver for LnsSolver {
    /// The anytime LNS. One guard tick per destroy/repair iteration
    /// enforces the iteration cap; the wall-clock deadline is shared
    /// into the repair machinery via a [`DeadlineFlag`], so a trip cuts
    /// a fill mid-flight instead of waiting the iteration out. On
    /// exhaustion the best plan seen so far travels as the error's
    /// partial — always hard-feasible, never the half-repaired working
    /// copy.
    fn try_solve(
        &self,
        instance: &Instance,
        budget: SolveBudget,
    ) -> Result<Solution, SolveError<Solution>> {
        let mut guard = BudgetGuard::new(budget);
        let deadline = guard.deadline_flag();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Seed with the paper's greedy two-step solution.
        let mut best = GreedySolver::seeded(self.seed).solve(instance).plan;
        let mut best_utility = plan_utility(instance, &best);
        let mut best_shortfall = best.shortfall(instance).len();

        let mut current = best.clone();
        for _ in 0..self.iterations {
            if let Err(e) = guard.tick(STAGE) {
                return Err(e
                    .discard_partial()
                    .with_partial(Solution::from_plan(instance, best)));
            }
            if self
                .destroy_and_repair(instance, &mut current, &mut rng, &deadline)
                .is_err()
            {
                // The flag only latches once the monotonic clock passed
                // the deadline, so this point check errs; the
                // interrupted iteration's working copy is discarded.
                let e = match guard.check_deadline(STAGE) {
                    Err(e) => e,
                    Ok(()) => SolveError::new(
                        FailureKind::BudgetExhausted,
                        STAGE,
                        "deadline flag tripped".to_string(),
                    ),
                };
                return Err(e
                    .discard_partial()
                    .with_partial(Solution::from_plan(instance, best)));
            }
            let utility = plan_utility(instance, &current);
            let shortfall = current.shortfall(instance).len();
            // Accept lexicographically: fewer shortfalls first, then
            // higher utility.
            if shortfall < best_shortfall
                || (shortfall == best_shortfall && utility > best_utility + 1e-12)
            {
                best = current.clone();
                best_utility = utility;
                best_shortfall = shortfall;
            } else {
                // Restart from the incumbent to avoid drifting into
                // poor regions.
                current = best.clone();
            }
        }
        if let Err(e) = guard.check_deadline(STAGE) {
            // All iterations ran but the deadline is already blown:
            // skip the polish and surface the exhaustion with the
            // unpolished best as the partial.
            return Err(e
                .discard_partial()
                .with_partial(Solution::from_plan(instance, best)));
        }
        if self.polish {
            LocalSearch::default().improve(instance, &mut best);
        }
        Ok(Solution::from_plan(instance, best))
    }

    fn name(&self) -> &'static str {
        "lns"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{InstanceBuilder, TimeInterval};
    use epplan_geo::Point;

    fn random_instance(seed: u64, n_users: usize, n_events: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = InstanceBuilder::new();
        for _ in 0..n_users {
            b.user(
                Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)),
                rng.gen_range(8.0..40.0),
            );
        }
        for k in 0..n_events as u32 {
            let s = 180 * k;
            b.event(
                Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)),
                rng.gen_range(0..3),
                rng.gen_range(3..9),
                TimeInterval::new(s, s + 90),
            );
        }
        for u in 0..n_users as u32 {
            for e in 0..n_events as u32 {
                if rng.gen_bool(0.5) {
                    b.utility(
                        crate::model::UserId(u),
                        crate::model::EventId(e),
                        rng.gen_range(0.05..1.0),
                    );
                }
            }
        }
        b.build()
    }

    #[test]
    fn produces_hard_feasible_plans() {
        for seed in 0..4 {
            let inst = random_instance(seed, 25, 7);
            let sol = LnsSolver::seeded(seed).solve(&inst);
            let v = certify(&inst, &sol.plan);
            assert!(v.hard_ok(), "seed {seed}: {:?}", v.hard_violations);
        }
    }

    #[test]
    fn never_worse_than_its_greedy_seed() {
        for seed in 0..4 {
            let inst = random_instance(100 + seed, 30, 8);
            let greedy = GreedySolver::seeded(seed).solve(&inst);
            let lns = LnsSolver::seeded(seed).solve(&inst);
            assert!(
                lns.utility >= greedy.utility - 1e-9,
                "seed {seed}: lns {} < greedy {}",
                lns.utility,
                greedy.utility
            );
            // Lexicographic acceptance also protects lower bounds.
            assert!(lns.shortfall.len() <= greedy.shortfall.len());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = random_instance(7, 20, 6);
        let a = LnsSolver::seeded(3).solve(&inst);
        let b = LnsSolver::seeded(3).solve(&inst);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn zero_iterations_equals_polished_greedy() {
        let inst = random_instance(9, 20, 6);
        let lns = LnsSolver {
            seed: 1,
            iterations: 0,
            polish: false,
            ..Default::default()
        }
        .solve(&inst);
        let greedy = GreedySolver::seeded(1).solve(&inst);
        assert_eq!(lns.plan, greedy.plan);
    }

    #[test]
    fn zero_deadline_returns_feasible_partial() {
        let inst = random_instance(12, 25, 7);
        let err = LnsSolver::seeded(4)
            .try_solve(
                &inst,
                SolveBudget::from_time_limit(std::time::Duration::ZERO),
            )
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
        let partial = err.partial.expect("best-so-far travels as the partial");
        // The partial is the greedy seed (or better) and hard-feasible.
        assert!(certify(&inst, &partial.plan).hard_ok());
        let greedy = GreedySolver::seeded(4).solve(&inst);
        assert!(partial.utility >= greedy.utility - 1e-9);
    }

    #[test]
    fn iteration_cap_trips_with_partial() {
        let inst = random_instance(13, 20, 6);
        let err = LnsSolver::seeded(5)
            .try_solve(&inst, SolveBudget::from_iteration_cap(3))
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
        assert!(certify(&inst, &err.partial.unwrap().plan).hard_ok());
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new().build();
        let sol = LnsSolver::default().solve(&inst);
        assert_eq!(sol.utility, 0.0);
    }
}
