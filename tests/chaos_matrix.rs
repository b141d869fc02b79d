//! Chaos matrix: every registered fault-injection site crossed with
//! every fault action and every solver entry point (lp, flow, gap,
//! exact, greedy, gap_based, iep). The contract under test is the
//! robustness tentpole of the fault layer:
//!
//! * **never a panic** — every entry point stays total under injected
//!   faults;
//! * **never an uncertified plan** — a run that reports success (or
//!   carries a fallback partial) must pass independent certification
//!   of every GEPC hard constraint.
//!
//! Fault state is process-global, so every test serializes on one
//! mutex and disarms through a drop guard (panic-safe).

use epplan::core::certify::certify;
use epplan::core::incremental::{AtomicOp, IncrementalPlanner};
use epplan::core::model::{Event, Instance, TimeInterval, User, UtilityMatrix};
use epplan::core::solver::{FailureKind, SolveBudget};
use epplan::fault::{FaultAction, FaultPlan};
use epplan::gap::{GapConfig, GapInstance, GapSolver as GapPipeline};
use epplan::lp::{Problem, Relation};
use epplan::prelude::*;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests touching the process-global fault plan. Poison is
/// tolerated: a previous test's assertion failure must not cascade.
fn exclusive() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Disarms the fault layer when dropped, even on panic.
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        epplan::fault::clear();
    }
}

fn arm(plan: FaultPlan) -> Armed {
    epplan::fault::install(plan);
    Armed
}

/// Builds a single-fault plan for a registered site; the registry loop
/// guarantees validity.
fn plan_for(site: &str, hit: u64, action: FaultAction) -> FaultPlan {
    FaultPlan::single_at(site, hit, action)
        .unwrap_or_else(|e| panic!("plan for registered site {site}: {e}"))
}

const ACTIONS: [FaultAction; 4] = [
    FaultAction::TypedError,
    FaultAction::DeadlineTrip,
    FaultAction::PoisonValue,
    FaultAction::AllocPressure,
];

/// A small but non-trivial GEPC instance: overlapping time windows,
/// one tight budget, one zero-utility pair, ξ > 0 lower bounds.
fn instance() -> Instance {
    let users = vec![
        User::new(Point::new(0.0, 0.0), 50.0),
        User::new(Point::new(1.0, 0.0), 50.0),
        User::new(Point::new(2.0, 0.0), 50.0),
        User::new(Point::new(3.0, 0.0), 4.0),
    ];
    let events = vec![
        Event::new(Point::new(0.0, 1.0), 2, 3, TimeInterval::new(0, 59)),
        Event::new(Point::new(0.0, 2.0), 1, 2, TimeInterval::new(30, 119)),
        Event::new(Point::new(4.0, 1.0), 0, 2, TimeInterval::new(140, 200)),
    ];
    let utilities = UtilityMatrix::from_rows(vec![
        vec![0.9, 0.4, 0.3],
        vec![0.7, 0.8, 0.2],
        vec![0.5, 0.6, 0.9],
        vec![0.3, 0.0, 0.8],
    ]).unwrap();
    Instance::new(users, events, utilities).unwrap()
}

/// Asserts the universal outcome contract for a GEPC solve under an
/// armed fault: a success must certify, a failure must be typed and
/// any fallback partial must certify too — each carrying the very
/// certificate a fresh check gives.
fn assert_certified_or_typed(
    label: &str,
    instance: &Instance,
    result: Result<Solution, epplan::solve::SolveError<Solution>>,
) {
    match result {
        Ok(sol) => {
            let cert = certify(instance, &sol.plan);
            assert!(
                cert.hard_ok(),
                "{label}: success returned an uncertified plan: {cert}"
            );
            assert_eq!(
                sol.report.certificate.as_ref(),
                Some(&cert),
                "{label}: the carried certificate differs from a fresh check"
            );
        }
        Err(e) => {
            assert!(!e.message.is_empty(), "{label}: typed error without message");
            if let Some(partial) = e.partial {
                let cert = certify(instance, &partial.plan);
                assert!(
                    cert.hard_ok(),
                    "{label}: fallback partial is uncertified: {cert}"
                );
                assert_eq!(
                    partial.report.certificate.as_ref(),
                    Some(&cert),
                    "{label}: the partial's certificate differs from a fresh check"
                );
            }
        }
    }
}

/// Entry point: the dense simplex (carries `lp.simplex.pivot`).
fn run_lp() {
    let mut lp = Problem::minimize(2);
    lp.set_objective(&[(0, 1.0), (1, 2.0)]);
    lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
    lp.add_constraint(&[(0, 1.0)], Relation::Le, 0.7);
    match lp.solve_with_budget(SolveBudget::UNLIMITED) {
        Ok(sol) => assert!(sol.x.iter().all(|v| v.is_finite())),
        Err(e) => assert!(!e.message.is_empty()),
    }
}

/// Entry point: min-cost assignment (carries `flow.mcmf.augment`).
fn run_flow() {
    let edges = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)];
    match epplan::flow::min_cost_assignment_with_budget(2, 2, &edges, &[1, 1], SolveBudget::UNLIMITED)
    {
        Ok(a) => assert_eq!(a.left_to_right.len(), 2),
        Err(e) => assert!(!e.message.is_empty()),
    }
}

/// Entry point: the GAP pipeline (carries the three `gap.*` sites).
fn run_gap() {
    let g = GapInstance::from_matrices(
        vec![vec![1.0, 4.0, 2.0], vec![2.0, 1.0, 3.0]],
        vec![vec![1.0, 2.0, 1.5], vec![2.0, 1.0, 1.0]],
        vec![2.5, 2.0],
    );
    match GapPipeline::new(GapConfig::default()).solve(&g) {
        Ok(sol) => assert_eq!(sol.assignment.len(), 3),
        Err(e) => assert!(!e.message.is_empty()),
    }
}

#[test]
fn every_site_and_action_yields_certified_plan_or_typed_error() {
    let _guard = exclusive();
    let inst = instance();
    for &site in epplan::fault::SITES {
        for action in ACTIONS {
            for hit in [1u64, 2] {
                let label = format!("{site}@{hit}={action}");

                // Substrate entry points: totality only.
                {
                    let _armed = arm(plan_for(site, hit, action));
                    run_lp();
                }
                {
                    let _armed = arm(plan_for(site, hit, action));
                    run_flow();
                }
                {
                    let _armed = arm(plan_for(site, hit, action));
                    run_gap();
                }

                // GEPC entry points: totality + certification.
                {
                    let _armed = arm(plan_for(site, hit, action));
                    let result = GapBasedSolver::default().try_solve(&inst, SolveBudget::UNLIMITED);
                    assert_certified_or_typed(&format!("gap_based {label}"), &inst, result);
                }
                {
                    let _armed = arm(plan_for(site, hit, action));
                    let result = GreedySolver::seeded(7).try_solve(&inst, SolveBudget::UNLIMITED);
                    assert_certified_or_typed(&format!("greedy {label}"), &inst, result);
                }
                {
                    let _armed = arm(plan_for(site, hit, action));
                    let result = ExactSolver::default().try_solve(&inst, SolveBudget::UNLIMITED);
                    assert_certified_or_typed(&format!("exact {label}"), &inst, result);
                }

                // IEP entry point (carries `core.iep.apply`).
                {
                    let _armed = arm(plan_for(site, hit, action));
                    let plan = GreedySolver::seeded(7).solve(&inst).plan;
                    let op = AtomicOp::BudgetChange {
                        user: UserId(0),
                        new_budget: 10.0,
                    };
                    match IncrementalPlanner.try_apply_budgeted(
                        &inst,
                        &plan,
                        &op,
                        SolveBudget::UNLIMITED,
                    ) {
                        Ok(out) => {
                            let cert = certify(&out.instance, &out.plan);
                            assert!(cert.hard_ok(), "iep {label}: uncertified outcome: {cert}");
                        }
                        Err(e) => {
                            assert!(!e.message.is_empty());
                            if let Some(out) = e.partial {
                                assert!(
                                    certify(&out.instance, &out.plan).hard_ok(),
                                    "iep {label}: uncertified degraded outcome"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn unarmed_runs_are_unaffected_by_the_fault_layer() {
    let _guard = exclusive();
    epplan::fault::clear();
    let inst = instance();
    let sol = GapBasedSolver::default()
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .unwrap_or_else(|e| panic!("clean solve failed: {}", e.message));
    let cert = sol.report.certificate.clone().expect("every solution carries its certificate");
    assert!(cert.hard_ok());
    assert!(!sol.report.degraded());
}

#[test]
fn budgeted_solves_are_certified_or_typed() {
    let _guard = exclusive();
    epplan::fault::clear();
    let inst = instance();
    let budgets = [
        SolveBudget::from_iteration_cap(1),
        SolveBudget::from_iteration_cap(2),
        SolveBudget::from_iteration_cap(8),
        SolveBudget::from_time_limit(std::time::Duration::ZERO),
    ];
    for budget in budgets {
        let label = format!("{budget:?}");
        let result = GapBasedSolver::default().try_solve(&inst, budget);
        assert_certified_or_typed(&format!("gap_based {label}"), &inst, result);
        let result = GreedySolver::seeded(7).try_solve(&inst, budget);
        assert_certified_or_typed(&format!("greedy {label}"), &inst, result);
        let result = ExactSolver::default().try_solve(&inst, budget);
        assert_certified_or_typed(&format!("exact {label}"), &inst, result);
    }
    // A 1-iteration cap cannot cover the GAP pipeline: the budget is
    // spent, and the fallback plan travels as the partial.
    let err = GapBasedSolver::default()
        .try_solve(&inst, SolveBudget::from_iteration_cap(1))
        .expect_err("a 1-iteration cap cannot cover the GAP pipeline");
    assert_eq!(err.kind, FailureKind::BudgetExhausted);
    assert!(err.partial.is_some(), "no fallback partial");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized corner of the matrix: any (site, action, hit) triple
    /// against the certified gap_based chain keeps the contract.
    #[test]
    fn random_fault_keeps_certified_or_typed(
        site_idx in 0usize..10,
        action_idx in 0usize..4,
        hit in 1u64..4,
    ) {
        let _guard = exclusive();
        let inst = instance();
        let site = epplan::fault::SITES[site_idx];
        let action = ACTIONS[action_idx];
        let _armed = arm(plan_for(site, hit, action));
        let result = GapBasedSolver::default()
            .try_solve(&inst, SolveBudget::UNLIMITED);
        match result {
            Ok(sol) => {
                let cert = sol.report.certificate.clone()
                    .unwrap_or_else(|| panic!("solution carries no certificate"));
                prop_assert!(cert.hard_ok());
            }
            Err(e) => {
                prop_assert!(!e.message.is_empty());
                if let Some(partial) = e.partial {
                    prop_assert!(certify(&inst, &partial.plan).hard_ok());
                }
            }
        }
    }
}
