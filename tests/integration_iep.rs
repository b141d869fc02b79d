//! Cross-crate integration tests for the IEP repair algorithms.

use epplan::core::certify::certify_tally;
use epplan::core::incremental::{AtomicOp, IncrementalPlanner, RepairError};
use epplan::core::model::{Event, TimeInterval};
use epplan::datagen::{generate, GeneratorConfig};
use epplan::geo::Point;
use epplan::prelude::*;
use epplan::solve::{Certificate, SolveBudget};
use rand::prelude::*;

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

fn setup(seed: u64) -> (Instance, epplan::core::plan::Plan) {
    let inst = generate(&GeneratorConfig {
        n_users: 80,
        n_events: 14,
        seed,
        mean_lower: 3,
        mean_upper: 12,
        ..Default::default()
    });
    let plan = GreedySolver::seeded(seed).solve(&inst).plan;
    (inst, plan)
}

fn random_op(inst: &Instance, plan: &epplan::core::plan::Plan, rng: &mut StdRng) -> AtomicOp {
    let e = EventId(rng.gen_range(0..inst.n_events()) as u32);
    let u = UserId(rng.gen_range(0..inst.n_users()) as u32);
    match rng.gen_range(0..9) {
        0 => AtomicOp::EtaDecrease {
            event: e,
            new_upper: plan.attendance(e).saturating_sub(1).max(1),
        },
        1 => AtomicOp::EtaIncrease {
            event: e,
            new_upper: inst.event(e).upper + 5,
        },
        2 => AtomicOp::XiIncrease {
            event: e,
            new_lower: (plan.attendance(e) + 2).min(inst.event(e).upper),
        },
        3 => AtomicOp::XiDecrease {
            event: e,
            new_lower: inst.event(e).lower / 2,
        },
        4 => {
            let t = inst.event(e).time;
            AtomicOp::TimeChange {
                event: e,
                new_time: TimeInterval::new(t.start + 45, t.end + 45),
            }
        }
        5 => AtomicOp::LocationChange {
            event: e,
            new_location: Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
        },
        6 => AtomicOp::NewEvent {
            event: Event::new(
                Point::new(50.0, 50.0),
                2,
                15,
                TimeInterval::new(30_000, 30_120),
            ),
            utilities: (0..inst.n_users())
                .map(|k| if k % 2 == 0 { 0.5 } else { 0.0 })
                .collect(),
        },
        7 => AtomicOp::UtilityChange {
            user: u,
            event: e,
            new_utility: if rng.gen_bool(0.5) { 0.0 } else { 0.75 },
        },
        _ => AtomicOp::BudgetChange {
            user: u,
            new_budget: rng.gen_range(0.0..200.0),
        },
    }
}

#[test]
fn random_op_stream_preserves_feasibility() {
    let (mut inst, mut plan) = setup(1);
    let mut tally = certify_tally(&inst, &plan).1;
    let planner = IncrementalPlanner;
    let mut rng = StdRng::seed_from_u64(42);
    for step in 0..40 {
        let op = random_op(&inst, &plan, &mut rng);
        // A malformed op is rejected and leaves the state; a repair
        // that fails certification is a bug.
        match planner.try_apply_certified(&mut inst, &mut plan, &mut tally, &op, SolveBudget::UNLIMITED) {
            Ok(_) | Err(RepairError::Failed(_)) => {}
            Err(e) => panic!("step {step} op {op:?}: {e}"),
        }
        let v = certify(&inst, &plan);
        assert!(
            v.hard_ok(),
            "step {step} op {op:?} violations {:?}",
            v.hard_violations
        );
    }
}

#[test]
fn eta_decrease_dif_is_exactly_the_paper_minimum() {
    let (inst, plan) = setup(2);
    // Pick the busiest event so the repair has real work.
    let e = inst
        .event_ids()
        .max_by_key(|&e| plan.attendance(e))
        .unwrap();
    let n = plan.attendance(e);
    assert!(n >= 2, "premise: busiest event has ≥ 2 attendees");
    let new_upper = n / 2;
    let (_, _, cert) = step(
        &inst,
        &plan,
        &AtomicOp::EtaDecrease {
            event: e,
            new_upper,
        },
    );
    // dif(P, P') = n_j − η'_j (Section IV-A).
    assert_eq!(cert.dif, Some((n - new_upper) as usize));
}

#[test]
fn additive_ops_have_zero_dif() {
    let (inst, plan) = setup(3);
    let e = EventId(0);
    for op in [
        AtomicOp::EtaIncrease {
            event: e,
            new_upper: inst.event(e).upper + 10,
        },
        AtomicOp::XiDecrease {
            event: e,
            new_lower: 0,
        },
        AtomicOp::BudgetChange {
            user: UserId(0),
            new_budget: inst.user(UserId(0)).budget * 2.0,
        },
    ] {
        let (_, _, cert) = step(&inst, &plan, &op);
        assert_eq!(cert.dif, Some(0), "op {op:?} caused losses");
        assert!(cert.utility >= plan.total_utility(&inst) - 1e-9);
    }
}

#[test]
fn incremental_utility_tracks_rerun_utility() {
    // Section V-C's headline: incremental repair utilities are "almost
    // the same" as re-running the solver from scratch. Check they stay
    // within 20% across a batch of η decreases.
    let (inst, plan) = setup(4);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..10 {
        let e = EventId(rng.gen_range(0..inst.n_events()) as u32);
        let n = plan.attendance(e);
        if n < 2 {
            continue;
        }
        let (out_inst, _, cert) = step(
            &inst,
            &plan,
            &AtomicOp::EtaDecrease {
                event: e,
                new_upper: n / 2,
            },
        );
        let rerun = GreedySolver::seeded(11).solve(&out_inst);
        assert!(
            cert.utility >= 0.8 * rerun.utility,
            "incremental {} far below rerun {}",
            cert.utility,
            rerun.utility
        );
    }
}

#[test]
fn incremental_is_much_cheaper_than_rerun() {
    // The point of IEP: repair beats recompute on wall-clock.
    let mut inst = generate(&GeneratorConfig {
        n_users: 800,
        n_events: 40,
        seed: 5,
        mean_lower: 5,
        mean_upper: 25,
        ..Default::default()
    });
    let solver = GreedySolver::seeded(5);
    let Solution { mut plan, mut tally, .. } = solver.solve(&inst);
    let e = inst
        .event_ids()
        .max_by_key(|&e| plan.attendance(e))
        .unwrap();
    let op = AtomicOp::EtaDecrease {
        event: e,
        new_upper: (plan.attendance(e) / 2).max(1),
    };

    let t0 = std::time::Instant::now();
    let step = IncrementalPlanner.try_apply_certified(&mut inst, &mut plan, &mut tally, &op, SolveBudget::UNLIMITED);
    let inc = t0.elapsed();
    assert!(step.is_ok(), "{step:?}");

    let t1 = std::time::Instant::now();
    let _ = solver.solve(&inst);
    let rerun = t1.elapsed();

    assert!(
        inc < rerun,
        "incremental {inc:?} not faster than rerun {rerun:?}"
    );
}

#[test]
fn new_event_is_reduction_to_xi_increase() {
    let (inst, plan) = setup(6);
    let (out_inst, out_plan, _) = step(
        &inst,
        &plan,
        &AtomicOp::NewEvent {
            event: Event::new(
                Point::new(50.0, 50.0),
                4,
                20,
                TimeInterval::new(40_000, 40_090),
            ),
            utilities: vec![0.7; inst.n_users()],
        },
    );
    let new_id = EventId(inst.n_events() as u32);
    assert_eq!(out_inst.n_events(), inst.n_events() + 1);
    assert!(
        out_plan.attendance(new_id) >= 4 || out_plan.shortfall(&out_inst).contains(&new_id),
        "either the lower bound is met or it is reported"
    );
    assert!(certify(&out_inst, &out_plan).hard_ok());
}

#[test]
fn utility_zero_forces_removal_everywhere() {
    let (inst, plan) = setup(7);
    // One event's worth of removals is plenty.
    if let Some(e) = inst.event_ids().next() {
        for u in plan.attendees(e) {
            let (out_inst, out_plan, _) = step(
                &inst,
                &plan,
                &AtomicOp::UtilityChange {
                    user: u,
                    event: e,
                    new_utility: 0.0,
                },
            );
            assert!(!out_plan.contains(u, e));
            assert!(certify(&out_inst, &out_plan).hard_ok());
        }
    }
}
