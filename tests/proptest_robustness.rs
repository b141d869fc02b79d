//! Adversarial robustness properties: every solver entry point must be
//! total — `Ok` with a hard-feasible plan or a typed [`SolveError`],
//! never a panic — even on degenerate instances that the strict
//! validators would reject: empty user/event sets, all-zero utility
//! matrices, users with zero travel budget (every event unreachable),
//! and events saturated at `η = ξ`.
//!
//! These instances are built through the *lenient* constructors
//! (`Instance::new` et al.) on purpose: `validate_strict` refuses zero
//! budgets, but a solver must still survive them.

use epplan::core::incremental::{AtomicOp, IncrementalPlanner};
use epplan::core::model::{Event, Instance, TimeInterval, User, UtilityMatrix};
use epplan::core::solver::{ExactSolver, FailureKind, SolveBudget};
use epplan::datagen::{generate, GeneratorConfig};
use epplan::prelude::*;
use proptest::prelude::*;

/// Degenerate-instance regimes the strategies below cycle through.
const REGIME_ALL_ZERO_UTILITY: usize = 0;
const REGIME_ZERO_BUDGET: usize = 1;
const REGIME_SATURATED: usize = 2; // η = ξ on every event
const REGIME_MIXED: usize = 3;

/// Builds an adversarial instance through the lenient constructors.
///
/// `n_users` and `n_events` may be zero; utilities may be identically
/// zero; budgets may be zero while every event sits at distance ≥ 5;
/// lower bounds may equal upper bounds (and may exceed the population,
/// making the instance infeasible — that must surface as a typed error
/// or a best-effort plan, not a crash).
fn adversarial_instance(n_users: usize, n_events: usize, regime: usize, seed: u64) -> Instance {
    let mix = |a: usize, b: u64| (a as u64).wrapping_mul(31).wrapping_add(b.wrapping_mul(17));
    let users = (0..n_users)
        .map(|u| {
            let budget = match regime {
                REGIME_ZERO_BUDGET => 0.0,
                REGIME_MIXED if u % 2 == 0 => 0.0,
                _ => 50.0,
            };
            User::new(Point::new(u as f64, 0.0), budget)
        })
        .collect::<Vec<_>>();
    let events = (0..n_events)
        .map(|e| {
            let k = 1 + (mix(e, seed) % 4) as u32;
            let (lower, upper) = match regime {
                REGIME_SATURATED => (k, k),
                REGIME_MIXED if e % 2 == 1 => (k, k),
                _ => (0, k + 2),
            };
            // Offset venues so zero-budget users genuinely cannot reach
            // them, and stagger times so some windows overlap.
            let start = (mix(e, seed) % 120) as u32;
            Event::new(
                Point::new(e as f64, 5.0),
                lower,
                upper,
                TimeInterval::new(start, start + 60),
            )
        })
        .collect::<Vec<_>>();
    let mut matrix = UtilityMatrix::zeros(n_users, n_events);
    if regime != REGIME_ALL_ZERO_UTILITY {
        for u in 0..n_users {
            for e in 0..n_events {
                let h = mix(u, seed).wrapping_add(mix(e, seed ^ 0x9e37));
                matrix.set(
                    UserId(u as u32),
                    EventId(e as u32),
                    (h % 101) as f64 / 100.0,
                );
            }
        }
    }
    Instance::new(users, events, matrix).unwrap()
}

fn arb_adversarial() -> impl Strategy<Value = Instance> {
    (0usize..10, 0usize..6, 0usize..4, 0u64..10_000)
        .prop_map(|(u, e, regime, seed)| adversarial_instance(u, e, regime, seed))
}

/// A small well-formed base for the incremental-op property.
fn base_instance(seed: u64) -> Instance {
    generate(&GeneratorConfig {
        n_users: 12,
        n_events: 4,
        seed,
        mean_lower: 2,
        mean_upper: 6,
        ..Default::default()
    })
}

/// Generates an atomic operation that may be malformed: out-of-range
/// ids, NaN/∞/negative money, utilities outside `[0, 1]`, inverted time
/// windows, wrong-arity utility vectors.
fn adversarial_op(kind: usize, ev: u32, uv: u32, raw: u32, poison: usize) -> AtomicOp {
    let event = EventId(ev);
    let bad_money = [f64::NAN, f64::INFINITY, -3.0];
    let bad_utility = [f64::NAN, 1.5, -0.25];
    match kind % 8 {
        0 => AtomicOp::EtaDecrease { event, new_upper: raw },
        1 => AtomicOp::EtaIncrease { event, new_upper: raw + 1 },
        2 => AtomicOp::XiIncrease { event, new_lower: raw },
        3 => AtomicOp::XiDecrease { event, new_lower: 0 },
        4 => AtomicOp::TimeChange {
            event,
            // Inverted on odd raws: start after end.
            new_time: if raw.is_multiple_of(2) {
                TimeInterval::new(0, 60)
            } else {
                TimeInterval { start: 90, end: 30 }
            },
        },
        5 => AtomicOp::LocationChange {
            event,
            new_location: if raw.is_multiple_of(2) {
                Point::new(1.0, 1.0)
            } else {
                Point::new(f64::NAN, 0.0)
            },
        },
        6 => AtomicOp::UtilityChange {
            user: UserId(uv),
            event,
            new_utility: if poison.is_multiple_of(2) {
                0.5
            } else {
                bad_utility[poison % bad_utility.len()]
            },
        },
        _ => AtomicOp::FeeChange {
            event,
            new_fee: if poison.is_multiple_of(2) {
                1.0
            } else {
                bad_money[poison % bad_money.len()]
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn greedy_is_total_on_adversarial_instances(inst in arb_adversarial(), seed in 0u64..50) {
        let sol = GreedySolver::seeded(seed).solve(&inst);
        let v = certify(&inst, &sol.plan);
        prop_assert!(v.hard_ok(), "{:?}", v.hard_violations);
    }

    #[test]
    fn gap_try_solve_is_ok_or_typed_error(inst in arb_adversarial()) {
        match GapBasedSolver::default().try_solve(&inst, SolveBudget::UNLIMITED) {
            Ok(sol) => {
                let v = certify(&inst, &sol.plan);
                prop_assert!(v.hard_ok(), "{:?}", v.hard_violations);
            }
            Err(e) => {
                prop_assert!(!e.stage.is_empty());
                if let Some(partial) = e.partial {
                    let v = certify(&inst, &partial.plan);
                    prop_assert!(v.hard_ok(), "{:?}", v.hard_violations);
                }
            }
        }
    }

    #[test]
    fn gap_starved_budget_degrades_gracefully(inst in arb_adversarial()) {
        let budget = SolveBudget::from_iteration_cap(1);
        match GapBasedSolver::default().try_solve(&inst, budget) {
            Ok(sol) => {
                prop_assert!(certify(&inst, &sol.plan).hard_ok());
            }
            Err(e) => {
                // The degradation chain guarantees a usable fallback.
                let partial = e.partial.as_ref().expect("chain always yields a plan");
                let v = certify(&inst, &partial.plan);
                prop_assert!(v.hard_ok(), "{:?}", v.hard_violations);
                prop_assert!(partial.report.degraded());
            }
        }
    }

    #[test]
    fn exact_solver_is_typed_on_adversarial_instances(
        u in 0usize..6, e in 0usize..4, regime in 0usize..4, seed in 0u64..10_000,
    ) {
        let inst = adversarial_instance(u, e, regime, seed);
        match ExactSolver::default().try_solve(&inst, SolveBudget::UNLIMITED) {
            Ok(sol) => {
                prop_assert!(certify(&inst, &sol.plan).hard_ok());
            }
            Err(err) => {
                prop_assert!(matches!(
                    err.kind,
                    FailureKind::BadInput
                        | FailureKind::Infeasible
                        | FailureKind::BudgetExhausted
                ));
                if let Some(partial) = err.partial {
                    prop_assert!(certify(&inst, &partial.plan).hard_ok());
                }
            }
        }
    }

    #[test]
    fn incremental_try_apply_is_total(
        seed in 0u64..500,
        kind in 0usize..8,
        ev in 0u32..12,
        uv in 0u32..40,
        raw in 0u32..12,
        poison in 0usize..6,
    ) {
        let inst = base_instance(seed);
        let plan = GreedySolver::seeded(seed).solve(&inst).plan;
        let op = adversarial_op(kind, ev, uv, raw, poison);
        match IncrementalPlanner.try_apply_budgeted(&inst, &plan, &op, SolveBudget::UNLIMITED) {
            Ok(out) => {
                // A structurally valid op may still be unsatisfiable
                // (e.g. ξ raised beyond the population). The planner
                // then leaves the affected events short rather than
                // failing; the plan must hold every hard constraint,
                // and its ξ shortfalls must be exactly the plan's own.
                let v = certify(&out.instance, &out.plan);
                prop_assert!(v.hard_ok(), "hard violation after op {:?}: {}", op, v);
                let shortfall = out.plan.shortfall(&out.instance);
                prop_assert_eq!(v.soft_violations.len(), shortfall.len());
                for e in &shortfall {
                    let head = format!("event {} has", e.index());
                    prop_assert!(
                        v.soft_violations.iter().any(|s| s.detail.starts_with(&head)),
                        "declared shortfall {:?} not certified: {}", e, v
                    );
                }
            }
            Err(e) => {
                prop_assert_eq!(e.kind, FailureKind::BadInput);
                // The partial outcome is the unchanged plan.
                let partial = e.partial.expect("rejection keeps the old plan");
                prop_assert_eq!(&partial.plan, &plan);
                prop_assert_eq!(partial.dif, 0);
            }
        }
    }
}

#[test]
fn empty_instance_is_survivable_by_every_solver() {
    let inst = Instance::new(Vec::new(), Vec::new(), UtilityMatrix::zeros(0, 0)).unwrap();

    let sol = GreedySolver::seeded(7).solve(&inst);
    assert!(certify(&inst, &sol.plan).hard_ok());
    assert_eq!(sol.plan.total_assignments(), 0);

    let sol = GapBasedSolver::default()
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .expect("empty instance is trivially solvable");
    assert!(certify(&inst, &sol.plan).hard_ok());

    let sol = ExactSolver::default()
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .expect("empty instance is trivially optimal");
    assert!(certify(&inst, &sol.plan).hard_ok());
}

#[test]
fn zero_budget_users_produce_empty_but_valid_plans() {
    let inst = adversarial_instance(6, 3, REGIME_ZERO_BUDGET, 11);
    let sol = GreedySolver::seeded(3).solve(&inst);
    assert!(certify(&inst, &sol.plan).hard_ok());
    // Every event is 5 units away and every budget is 0: nobody travels.
    assert_eq!(sol.plan.total_assignments(), 0);
}

#[test]
fn eta_equals_xi_saturation_never_overfills() {
    let inst = adversarial_instance(9, 4, REGIME_SATURATED, 23);
    for seed in 0..5 {
        let sol = GreedySolver::seeded(seed).solve(&inst);
        assert!(certify(&inst, &sol.plan).hard_ok());
        for e in inst.event_ids() {
            assert!(sol.plan.attendance(e) <= inst.event(e).upper);
        }
    }
    match GapBasedSolver::default().try_solve(&inst, SolveBudget::UNLIMITED) {
        Ok(sol) => assert!(certify(&inst, &sol.plan).hard_ok()),
        Err(e) => {
            if let Some(partial) = e.partial {
                assert!(certify(&inst, &partial.plan).hard_ok());
            }
        }
    }
}
