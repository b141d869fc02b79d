//! End-to-end reproduction of the paper's worked examples (Examples
//! 1–8) against the reconstructed Example-1 instance.

use epplan::core::certify::certify_tally;
use epplan::core::incremental::{AtomicOp, IncrementalPlanner};
use epplan::core::model::TimeInterval;
use epplan::core::plan::Plan;
use epplan::core::solver::SolveBudget;
use epplan::datagen::paper_example;
use epplan::prelude::*;
use epplan::solve::Certificate;

/// The certified IEP step on copies of `(inst, plan)`, its tally
/// seeded by one full certify: the repaired state and its certificate.
fn step(inst: &Instance, plan: &Plan, op: &AtomicOp) -> (Instance, Plan, Certificate) {
    let (mut inst2, mut plan2) = (inst.clone(), plan.clone());
    let mut tally = certify_tally(inst, plan).1;
    let cert = IncrementalPlanner
        .try_apply_certified(&mut inst2, &mut plan2, &mut tally, op, SolveBudget::UNLIMITED)
        .unwrap_or_else(|e| panic!("{op:?}: {e}"));
    (inst2, plan2, cert)
}

/// The colored plan of Table I (Example 2).
fn example_2_plan(inst: &Instance) -> Plan {
    let mut plan = Plan::for_instance(inst);
    let pairs = [
        (0u32, 0u32),
        (0, 1),
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (3, 2),
        (3, 3),
        (4, 3),
    ];
    for (u, e) in pairs {
        plan.add(UserId(u), EventId(e));
    }
    plan
}

#[test]
fn example_2_plan_feasible_with_utility_6_3() {
    let inst = paper_example();
    let plan = example_2_plan(&inst);
    let v = certify(&inst, &plan);
    assert!(v.hard_ok() && v.soft_violations.is_empty(), "{v}");
    assert!((plan.total_utility(&inst) - 6.3).abs() < 1e-9);
}

#[test]
fn example_2_plan_is_optimal() {
    // The exact solver confirms 6.3 is the optimum for Example 1.
    let inst = paper_example();
    let exact = ExactSolver::default()
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .unwrap();
    assert!((exact.utility - 6.3).abs() < 1e-9);
}

#[test]
fn example_3_eta_decrease_to_1() {
    // "assume that η4 is decreased from 5 to 1. The solution … removes
    // e4 from u4's plan (μ(u5,e4) > μ(u4,e4)) … e2 is then added to
    // u4's plan … negative impact 1."
    let inst = paper_example();
    let plan = example_2_plan(&inst);
    let (out_inst, out_plan, cert) = step(
        &inst,
        &plan,
        &AtomicOp::EtaDecrease {
            event: EventId(3),
            new_upper: 1,
        },
    );
    assert_eq!(cert.dif, Some(1));
    assert!(!out_plan.contains(UserId(3), EventId(3)), "u4 loses e4");
    assert!(out_plan.contains(UserId(4), EventId(3)), "u5 keeps e4");
    assert!(out_plan.contains(UserId(3), EventId(1)), "u4 gains e2");
    assert!(certify(&out_inst, &out_plan).hard_ok());
}

#[test]
fn example_6_eta_decrease_to_4_is_noop() {
    let inst = paper_example();
    let plan = example_2_plan(&inst);
    let (_, out_plan, cert) = step(
        &inst,
        &plan,
        &AtomicOp::EtaDecrease {
            event: EventId(3),
            new_upper: 4,
        },
    );
    assert_eq!(cert.dif, Some(0));
    assert_eq!(out_plan, plan);
}

#[test]
fn example_7_xi_increase_noop_when_satisfied() {
    // "If ξ4 is increased from 1 to 2, no update is needed" (e4 has 2
    // attendees in the Example-2 plan).
    let inst = paper_example();
    let plan = example_2_plan(&inst);
    let (_, out_plan, cert) = step(
        &inst,
        &plan,
        &AtomicOp::XiIncrease {
            event: EventId(3),
            new_lower: 2,
        },
    );
    assert_eq!(cert.dif, Some(0));
    assert_eq!(out_plan, plan);
}

#[test]
fn example_7_xi_increase_transfers_best_delta() {
    // The paper's Example 7 narrative: raising e4's lower bound to 3
    // pulls one user from an event with spare attendees, choosing the
    // largest Δ = μ(u, e4) − μ(u, e_src); the move must keep all
    // constraints and achieve dif = 1.
    let inst = paper_example();
    let plan = example_2_plan(&inst);
    let (out_inst, out_plan, cert) = step(
        &inst,
        &plan,
        &AtomicOp::XiIncrease {
            event: EventId(3),
            new_lower: 3,
        },
    );
    assert!(out_plan.attendance(EventId(3)) >= 3, "lower bound met");
    assert!(certify(&out_inst, &out_plan).hard_ok());
    assert_eq!(cert.dif, Some(1), "exactly one user loses one event");
}

#[test]
fn example_8_time_change_removes_conflicted_and_refills() {
    // "If e1 is changed to 3:30–5:30 p.m., e1 conflicts with e2 …
    // remove e1 from u1's plan … we find that u4 can attend e1."
    let inst = paper_example();
    let plan = example_2_plan(&inst);
    let pm = |h: u32, m: u32| (12 + h) * 60 + m;
    let (out_inst, out_plan, _) = step(
        &inst,
        &plan,
        &AtomicOp::TimeChange {
            event: EventId(0),
            new_time: TimeInterval::new(pm(3, 30), pm(5, 30)),
        },
    );
    assert!(
        !out_plan.contains(UserId(0), EventId(0)),
        "u1 loses e1 (conflicts its e2)"
    );
    // e1's lower bound (1) must be restored by another user; the paper
    // finds u4 — but u4's plan has e3 (1:30–3:00), which does NOT
    // conflict with the new slot, and e4 (6:00–8:00) which doesn't
    // either, so u4 is indeed eligible.
    assert!(out_plan.attendance(EventId(0)) >= 1, "ξ1 restored");
    assert!(certify(&out_inst, &out_plan).hard_ok());
}

#[test]
fn greedy_on_paper_example_matches_table_iii_shape() {
    // With some user order, greedy's ξ-GEPC step ends with e3 chosen by
    // 3 users, e2 by 2, e1 and e4 by 1 (all lower bounds exactly met).
    let inst = paper_example();
    let sol = GreedySolver::xi_only(0).solve(&inst);
    for e in inst.event_ids() {
        assert!(
            sol.plan.attendance(e) <= inst.event(e).lower,
            "ξ-GEPC never exceeds ξ in step 1"
        );
    }
    assert!(certify(&inst, &sol.plan).hard_ok());
}

#[test]
fn all_solvers_feasible_on_paper_example() {
    let inst = paper_example();
    for solver in [
        Box::new(GreedySolver::seeded(0)) as Box<dyn GepcSolver>,
        Box::new(GapBasedSolver::default()),
        Box::new(ExactSolver::default()),
    ] {
        let sol = solver.solve(&inst);
        assert!(
            certify(&inst, &sol.plan).hard_ok(),
            "{} infeasible",
            solver.name()
        );
        assert!(sol.utility <= 6.3 + 1e-9, "{} beats the optimum?!", solver.name());
    }
}
