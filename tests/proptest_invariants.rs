//! Property-based invariants across the whole pipeline: any generated
//! instance, any seed, any atomic operation — plans stay hard-feasible
//! and the bookkeeping (attendance counts, utilities, dif) stays
//! consistent.

use epplan::core::incremental::{AtomicOp, IncrementalPlanner};
use epplan::core::model::TimeInterval;
use epplan::core::plan::dif;
use epplan::core::solver::SolveBudget;
use epplan::datagen::{generate, GeneratorConfig};
use epplan::prelude::*;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..40, 1usize..10, 0u64..10_000, 0.0..0.6f64).prop_map(
        |(n_users, n_events, seed, conflict_ratio)| GeneratorConfig {
            n_users,
            n_events,
            seed,
            conflict_ratio,
            mean_lower: 2,
            mean_upper: 6,
            ..Default::default()
        },
    )
}

/// The pairs step 2 could still add: the user does not attend the
/// event, the event has room, and the user can attend it on top of
/// their plan. A finished fill leaves none.
fn open_pairs(inst: &Instance, plan: &Plan) -> Vec<(UserId, EventId)> {
    let mut open = Vec::new();
    for u in inst.user_ids() {
        for e in inst.event_ids() {
            if !plan.contains(u, e)
                && plan.attendance(e) < inst.event(e).upper
                && inst.can_attend_with(u, plan.user_plan(u), e)
            {
                open.push((u, e));
            }
        }
    }
    open
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn greedy_always_hard_feasible(cfg in arb_config(), seed in 0u64..100) {
        let inst = generate(&cfg);
        let sol = GreedySolver::seeded(seed).solve(&inst);
        let v = certify(&inst, &sol.plan);
        prop_assert!(v.hard_ok(), "{:?}", v.hard_violations);
    }

    #[test]
    fn gap_always_hard_feasible(cfg in arb_config()) {
        let inst = generate(&cfg);
        let sol = GapBasedSolver::default().solve(&inst);
        let v = certify(&inst, &sol.plan);
        prop_assert!(v.hard_ok(), "{:?}", v.hard_violations);
    }

    #[test]
    fn greedy_fill_leaves_no_open_pair(cfg in arb_config(), seed in 0u64..100) {
        let inst = generate(&cfg);
        let plan = GreedySolver::seeded(seed).solve(&inst).plan;
        prop_assert_eq!(open_pairs(&inst, &plan), Vec::<(UserId, EventId)>::new());
    }

    #[test]
    fn gap_fill_leaves_no_open_pair(cfg in arb_config()) {
        let inst = generate(&cfg);
        let plan = GapBasedSolver::default().solve(&inst).plan;
        prop_assert_eq!(open_pairs(&inst, &plan), Vec::<(UserId, EventId)>::new());
    }

    #[test]
    fn two_step_only_adds_to_the_xi_plan(cfg in arb_config(), seed in 0u64..100) {
        let inst = generate(&cfg);
        let gap_xi = GapBasedSolver { two_step: false, ..Default::default() };
        for (xi, full) in [
            (GreedySolver::xi_only(seed).solve(&inst), GreedySolver::seeded(seed).solve(&inst)),
            (gap_xi.solve(&inst), GapBasedSolver::default().solve(&inst)),
        ] {
            for u in inst.user_ids() {
                for &e in xi.plan.user_plan(u) {
                    prop_assert!(full.plan.contains(u, e), "step 2 dropped {:?} from {:?}", u, e);
                }
            }
            prop_assert!(full.utility >= xi.utility - 1e-9);
        }
    }

    #[test]
    fn attendance_counts_consistent(cfg in arb_config(), seed in 0u64..100) {
        let inst = generate(&cfg);
        let plan = GreedySolver::seeded(seed).solve(&inst).plan;
        for e in inst.event_ids() {
            let listed = plan.attendees(e).len() as u32;
            prop_assert_eq!(listed, plan.attendance(e));
        }
        let total: usize = inst.event_ids().map(|e| plan.attendance(e) as usize).sum();
        prop_assert_eq!(total, plan.total_assignments());
    }

    #[test]
    fn utility_is_sum_of_user_utilities(cfg in arb_config(), seed in 0u64..100) {
        let inst = generate(&cfg);
        let sol = GreedySolver::seeded(seed).solve(&inst);
        let total: f64 = inst
            .user_ids()
            .map(|u| sol.plan.user_utility(&inst, u))
            .sum();
        prop_assert!((total - sol.utility).abs() < 1e-6);
    }

    #[test]
    fn incremental_ops_preserve_feasibility(
        cfg in arb_config(),
        op_kind in 0usize..6,
        ev in 0usize..10,
        val in 0u32..8,
    ) {
        let inst = generate(&cfg);
        let plan = GreedySolver::seeded(1).solve(&inst).plan;
        let e = EventId((ev % inst.n_events()) as u32);
        let op = match op_kind {
            0 => AtomicOp::EtaDecrease { event: e, new_upper: val.max(1) },
            1 => AtomicOp::EtaIncrease {
                event: e,
                new_upper: inst.event(e).upper + val,
            },
            2 => AtomicOp::XiIncrease {
                event: e,
                new_lower: val.min(inst.event(e).upper),
            },
            3 => AtomicOp::XiDecrease { event: e, new_lower: 0 },
            4 => {
                let t = inst.event(e).time;
                AtomicOp::TimeChange {
                    event: e,
                    new_time: TimeInterval::new(t.start + val * 17, t.end + val * 17),
                }
            }
            _ => AtomicOp::BudgetChange {
                user: UserId(0),
                new_budget: val as f64 * 20.0,
            },
        };
        let out = IncrementalPlanner.apply(&inst, &plan, &op);
        let v = certify(&out.instance, &out.plan);
        prop_assert!(v.hard_ok(), "op {:?}: {:?}", op, v.hard_violations);
        // dif is consistent with the plans.
        prop_assert_eq!(out.dif, dif(&plan, &out.plan));
    }

    #[test]
    fn dif_is_monotone_under_extra_removals(
        cfg in arb_config(),
        seed in 0u64..50,
    ) {
        let inst = generate(&cfg);
        let plan = GreedySolver::seeded(seed).solve(&inst).plan;
        let mut smaller = plan.clone();
        // Remove one arbitrary assignment if any exist.
        let mut removed = false;
        'outer: for u in inst.user_ids() {
            if let Some(&e) = smaller.user_plan(u).first() {
                smaller.remove(u, e);
                removed = true;
                break 'outer;
            }
        }
        if removed {
            prop_assert_eq!(dif(&plan, &smaller), 1);
            prop_assert_eq!(dif(&smaller, &plan), 0, "additions are free");
        }
    }

    #[test]
    fn exact_dominates_approximations_when_feasible(
        seed in 0u64..300,
    ) {
        let inst = generate(&GeneratorConfig {
            n_users: 4,
            n_events: 4,
            seed,
            mean_lower: 1,
            mean_upper: 3,
            n_tags: 6,
            ..Default::default()
        });
        let exact = ExactSolver { max_users: 5, max_events: 5 }
            .try_solve(&inst, SolveBudget::UNLIMITED)
            .ok();
        if let Some(exact) = exact {
            // Dominance only holds over the same feasible region: an
            // approximate plan that *fails* some lower bound is outside
            // it and may legally carry more raw utility.
            let greedy = GreedySolver::seeded(0).solve(&inst);
            if greedy.fully_feasible() {
                prop_assert!(exact.utility >= greedy.utility - 1e-9);
            }
            let gap = GapBasedSolver::default().solve(&inst);
            if gap.fully_feasible() {
                prop_assert!(exact.utility >= gap.utility - 1e-9);
            }
        }
    }
}
