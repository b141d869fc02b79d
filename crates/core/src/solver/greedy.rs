//! The Greedy-based ξ-GEPC algorithm (Section III-B, Algorithm 2).
//!
//! Events are conceptually copied `ξ_j` times (`m⁺ = Σ_j ξ_j` copies);
//! users are visited in random order, each greedily taking their
//! favorite still-available events until no further event fits their
//! plan (conflicts) and budget. Copies of the same event conflict with
//! each other, so a user takes at most one copy per event; tracking a
//! per-event remaining-copy counter is therefore equivalent to
//! materializing the copies.
//!
//! The paper proves an approximation ratio of `1 / (2·Uc_max)` for this
//! step (Section III-B.1). The full GEPC solution then applies the
//! step-2 capacity filler (Section III's two-step framework).

use crate::model::Instance;
use crate::plan::Plan;
use crate::solver::{filler, GepcSolver, Solution};
use epplan_solve::{SolveBudget, SolveError};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Users per parallel ranking chunk (each costs an `O(m log m)` sort).
const RANK_MIN_CHUNK: usize = 16;

/// Configurable greedy solver. Deterministic for a fixed [`seed`]
/// (`GreedySolver::seeded`): the paper notes the random user order
/// influences total utility (Example 5), so benchmarks fix seeds.
///
/// ```
/// use epplan_core::model::{InstanceBuilder, TimeInterval};
/// use epplan_core::solver::{GepcSolver, GreedySolver};
/// use epplan_geo::Point;
///
/// let mut b = InstanceBuilder::new();
/// let u = b.user(Point::new(0.0, 0.0), 10.0);
/// let e = b.event(Point::new(1.0, 0.0), 1, 5, TimeInterval::new(540, 600));
/// b.utility(u, e, 0.8);
/// let instance = b.build();
///
/// let solution = GreedySolver::seeded(42).solve(&instance);
/// assert_eq!(solution.plan.attendance(e), 1);   // ξ met
/// assert!(solution.fully_feasible());
/// ```
///
/// [`seed`]: GreedySolver::seeded
#[derive(Debug, Clone)]
pub struct GreedySolver {
    /// RNG seed for the user visiting order.
    pub seed: u64,
    /// Run step 2 (fill remaining capacity to `η`) after ξ-GEPC.
    /// Disabled only by ablation benchmarks.
    pub two_step: bool,
}

impl Default for GreedySolver {
    fn default() -> Self {
        GreedySolver {
            seed: 0,
            two_step: true,
        }
    }
}

impl GreedySolver {
    /// Greedy solver with a fixed seed and step 2 enabled.
    pub fn seeded(seed: u64) -> Self {
        GreedySolver {
            seed,
            two_step: true,
        }
    }

    /// Runs only step 1 (ξ-GEPC), without the capacity filler.
    pub fn xi_only(seed: u64) -> Self {
        GreedySolver {
            seed,
            two_step: false,
        }
    }
}

impl GepcSolver for GreedySolver {
    /// Algorithm 2 is one bounded pass over the users, so it never
    /// exhausts `budget` and always returns `Ok`.
    fn try_solve(
        &self,
        instance: &Instance,
        _budget: SolveBudget,
    ) -> Result<Solution, SolveError<Solution>> {
        // Algorithm 2 (ranking and take loop); the filler opens its own
        // `solve.fill` span.
        let step1 = epplan_obs::span("solve.greedy");
        let mut plan = Plan::for_instance(instance);
        // Remaining copies of each event: ξ_j (Algorithm 2's E′ after
        // the copy transformation).
        let mut copies: Vec<u32> = instance.events().iter().map(|e| e.lower).collect();
        let mut total_copies: u64 = copies.iter().map(|&c| c as u64).sum();

        let mut order: Vec<u32> = (0..instance.n_users() as u32).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        order.shuffle(&mut rng);

        // Each user's utility-descending event ranking is independent
        // of every other user's, so all rankings are precomputed in
        // parallel; the take loop below stays sequential (it threads
        // shared copy counters) and reads them in shuffled order.
        //
        // Rankings come from the candidate set, not a dense event scan:
        // only events the user values (μ > 0) *and* can ever afford are
        // sorted. Dropping the unaffordable ones cannot change the
        // output — `can_attend_with` rejects them in every plan state
        // (the round trip to the lone event already busts the budget).
        let ranked_all: Vec<Vec<(crate::model::EventId, f64)>> = if total_copies == 0 {
            Vec::new()
        } else {
            let cands = instance.candidates();
            if epplan_obs::metrics_enabled() {
                epplan_obs::gauge_set("greedy.par.threads", epplan_par::threads() as f64);
                epplan_obs::gauge_set(
                    "greedy.par.chunks",
                    epplan_par::chunk_count(instance.n_users(), RANK_MIN_CHUNK) as f64,
                );
            }
            epplan_par::par_range_map(instance.n_users(), RANK_MIN_CHUNK, |users| {
                users
                    .map(|ui| {
                        let u = crate::model::UserId(ui as u32);
                        let (events, utils) = cands.row(u);
                        let mut ranked: Vec<(crate::model::EventId, f64)> = events
                            .iter()
                            .zip(utils)
                            .map(|(&e, &mu)| (crate::model::EventId(e), mu))
                            .collect();
                        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                        ranked
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };

        'users: for &u in &order {
            if total_copies == 0 {
                break;
            }
            let u = crate::model::UserId(u);
            // The user repeatedly takes their favorite remaining event
            // that fits (Algorithm 2, lines 5–13), until nothing more
            // fits their plan and budget. One pass over the descending
            // ranking does this exactly: an event rejected before a take
            // stays rejected after it, because copies only fall and the
            // user's plan only grows (more conflicts, less residual
            // budget). The plan starts empty and the ranking lists each
            // event once, so no taken event is met again.
            for &(e, _) in &ranked_all[u.index()] {
                if copies[e.index()] > 0 && instance.can_attend_with(u, plan.user_plan(u), e) {
                    plan.add(u, e);
                    copies[e.index()] -= 1;
                    total_copies -= 1;
                    if total_copies == 0 {
                        break 'users;
                    }
                }
            }
        }
        drop(step1);

        if self.two_step {
            filler::fill_to_upper(instance, &mut plan, None);
        }
        Ok(Solution::from_plan(instance, plan))
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{Event, EventId, TimeInterval, User, UserId, UtilityMatrix};
    use epplan_geo::Point;

    /// Small instance where each event wants exactly 1 user.
    fn small() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 50.0),
            User::new(Point::new(1.0, 0.0), 50.0),
        ];
        let events = vec![
            Event::new(Point::new(0.0, 1.0), 1, 2, TimeInterval::new(0, 59)),
            Event::new(Point::new(0.0, 2.0), 1, 2, TimeInterval::new(60, 119)),
        ];
        let utilities =
            UtilityMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    #[test]
    fn meets_lower_bounds_when_possible() {
        let inst = small();
        let sol = GreedySolver::seeded(1).solve(&inst);
        assert!(sol.fully_feasible(), "shortfall: {:?}", sol.shortfall);
        assert!(certify(&inst, &sol.plan).hard_ok());
        for e in inst.event_ids() {
            assert!(sol.plan.attendance(e) >= inst.event(e).lower);
        }
    }

    #[test]
    fn xi_only_assigns_exactly_lower_bound() {
        let inst = small();
        let sol = GreedySolver::xi_only(1).solve(&inst);
        for e in inst.event_ids() {
            assert_eq!(sol.plan.attendance(e), inst.event(e).lower);
        }
    }

    #[test]
    fn two_step_fills_extra_capacity() {
        let inst = small();
        let xi = GreedySolver::xi_only(1).solve(&inst);
        let full = GreedySolver::seeded(1).solve(&inst);
        assert!(full.utility >= xi.utility);
        // Both users can attend both events here.
        assert_eq!(full.plan.total_assignments(), 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = small();
        let a = GreedySolver::seeded(7).solve(&inst);
        let b = GreedySolver::seeded(7).solve(&inst);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn never_assigns_zero_utility() {
        let mut inst = small();
        inst.set_utility(UserId(0), EventId(0), 0.0);
        inst.set_utility(UserId(1), EventId(0), 0.0);
        let sol = GreedySolver::seeded(3).solve(&inst);
        assert_eq!(sol.plan.attendance(EventId(0)), 0);
        assert_eq!(sol.shortfall, vec![EventId(0)]);
    }

    #[test]
    fn respects_budget() {
        let mut inst = small();
        inst.set_budget(UserId(0), 2.0); // can reach e0 (round trip 2) only
        inst.set_budget(UserId(1), 0.0);
        let sol = GreedySolver::seeded(5).solve(&inst);
        assert!(certify(&inst, &sol.plan).hard_ok());
        assert!(sol.plan.user_plan(UserId(1)).is_empty());
    }

    #[test]
    fn conflicting_events_not_in_one_plan() {
        let mut inst = small();
        inst.set_event_time(EventId(1), TimeInterval::new(0, 59));
        let sol = GreedySolver::seeded(2).solve(&inst);
        assert!(certify(&inst, &sol.plan).hard_ok());
        for u in inst.user_ids() {
            assert!(sol.plan.user_plan(u).len() <= 1);
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], vec![], UtilityMatrix::zeros(0, 0)).unwrap();
        let sol = GreedySolver::default().solve(&inst);
        assert_eq!(sol.utility, 0.0);
        assert!(sol.fully_feasible());
    }

    /// `n_users` users and `n_events` back-to-back events with random
    /// bounds, budgets and a half-dense utility matrix.
    fn random_instance(seed: u64, n_users: usize, n_events: usize) -> Instance {
        use crate::model::InstanceBuilder;
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = InstanceBuilder::new();
        for _ in 0..n_users {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            b.user(at, rng.gen_range(8.0..40.0));
        }
        for k in 0..n_events as u32 {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            let time = TimeInterval::new(90 * k, 90 * k + 120);
            b.event(at, rng.gen_range(0..3), rng.gen_range(3..9), time);
        }
        for u in 0..n_users as u32 {
            for e in 0..n_events as u32 {
                if rng.gen_bool(0.5) {
                    b.utility(UserId(u), EventId(e), rng.gen_range(0.05..1.0));
                }
            }
        }
        b.build()
    }

    #[test]
    fn random_instances_get_hard_feasible_plans() {
        for seed in 0..4 {
            let inst = random_instance(seed, 25, 7);
            let sol = GreedySolver::seeded(seed).solve(&inst);
            let v = certify(&inst, &sol.plan);
            assert!(v.hard_ok(), "seed {seed}: {:?}", v.hard_violations);
        }
    }

    #[test]
    fn xi_only_never_exceeds_lower_bounds() {
        for seed in 0..4 {
            let inst = random_instance(10 + seed, 30, 8);
            let sol = GreedySolver::xi_only(seed).solve(&inst);
            for e in inst.event_ids() {
                assert!(
                    sol.plan.attendance(e) <= inst.event(e).lower,
                    "seed {seed}: {e:?} took more than its ξ copies"
                );
            }
        }
    }

    #[test]
    fn two_step_only_adds_to_the_xi_plan() {
        for seed in 0..4 {
            let inst = random_instance(100 + seed, 30, 8);
            let xi = GreedySolver::xi_only(seed).solve(&inst);
            let full = GreedySolver::seeded(seed).solve(&inst);
            for u in inst.user_ids() {
                for &e in xi.plan.user_plan(u) {
                    assert!(full.plan.contains(u, e), "seed {seed}: step 2 dropped {u:?}→{e:?}");
                }
            }
            assert!(full.utility >= xi.utility - 1e-9, "seed {seed}");
            assert!(full.shortfall.len() <= xi.shortfall.len(), "seed {seed}");
        }
    }

    #[test]
    fn budgets_never_trip() {
        use std::time::Duration;
        let inst = random_instance(12, 25, 7);
        let unlimited = GreedySolver::seeded(4).solve(&inst);
        for budget in [
            SolveBudget::from_time_limit(Duration::ZERO),
            SolveBudget::from_iteration_cap(1),
        ] {
            let sol = GreedySolver::seeded(4)
                .try_solve(&inst, budget)
                .unwrap_or_else(|e| panic!("{budget:?}: {}", e.message));
            assert_eq!(sol.plan, unlimited.plan, "{budget:?}");
        }
    }

    #[test]
    fn takes_the_favorite_of_two_conflicting_events() {
        let mut inst = small();
        inst.set_event_time(EventId(1), TimeInterval::new(0, 59));
        for seed in 0..8 {
            let sol = GreedySolver::xi_only(seed).solve(&inst);
            // Each user ranks a different event first, and both fit.
            assert_eq!(sol.plan.user_plan(UserId(0)), [EventId(0)], "seed {seed}");
            assert_eq!(sol.plan.user_plan(UserId(1)), [EventId(1)], "seed {seed}");
        }
    }
}
