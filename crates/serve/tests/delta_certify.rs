//! The delta certifier against the from-scratch oracle, and the undo
//! journal of in-place IEP operations.
//!
//! Random instances and op streams (well-formed ops from the stream
//! sampler, with malformed ones mixed in) are applied in place with
//! [`IncrementalPlanner::try_apply_in_place`]. After every op:
//!
//! * the delta certificate ([`certify_delta`]) equals
//!   [`certify_incremental`] of the pre-op plan against the post-op one
//!   on `hard_ok`, violated constraint names, soft shortfalls and `dif`,
//!   with `U_P` within 1e-9 relative;
//! * the tally's running `U_P` stays within 1e-9 relative of a
//!   from-scratch [`certify`], rejected ops included;
//! * rolling the op back restores the pre-op instance and plan, by
//!   `PartialEq` and by serialized bytes, and re-applying it reproduces
//!   the first application exactly;
//! * a rejected op leaves the state untouched.
//!
//! Streams run at 1 and 4 threads and must agree byte for byte.
//!
//! The same streams also run through the certified step
//! ([`IncrementalPlanner::try_apply_certified`]), checked op by op
//! against the copy form ([`IncrementalPlanner::try_apply_budgeted`])
//! and the from-scratch certifier: its certificate (or rejection)
//! equals [`certify_incremental`] of the pre-op plan against the
//! post-op one, a rejected op leaves the state and the tally byte for
//! byte as they were, and its plan trail equals the in-place
//! runner's at 1 and 4 threads.
//!
//! The mutation guard breaks the post-op state by hand — the op's
//! instance transition without its repair — for each op kind whose
//! affected users the certifier must find without the repair's journal,
//! and checks that the delta certificate names the same violated
//! constraint as the full certifier.

use epplan_core::certify::{certify, certify_delta, certify_incremental, certify_tally};
use epplan_core::incremental::{AtomicOp, IncrementalPlanner, RepairError};
use epplan_core::model::{Event, EventId, Instance, TimeInterval, User, UserId, UtilityMatrix};
use epplan_core::plan::{dif, Plan, PlanJournal};
use epplan_core::solver::{GepcSolver, GreedySolver};
use epplan_datagen::{generate, GeneratorConfig, OpStreamSampler};
use epplan_geo::Point;
use epplan_solve::certify::constraint;
use epplan_solve::{CertTally, Certificate, FailureKind, SolveBudget};
use proptest::prelude::*;

/// A malformed op for stream position `k`: each is rejected by
/// validation as `BadInput`.
fn malformed(k: usize, instance: &Instance) -> AtomicOp {
    let out_of_range = EventId(instance.n_events() as u32 + 3);
    match k % 5 {
        0 => AtomicOp::EtaDecrease { event: out_of_range, new_upper: 1 },
        1 => AtomicOp::UtilityChange {
            user: UserId(0),
            event: EventId(0),
            new_utility: f64::NAN,
        },
        2 => AtomicOp::BudgetChange { user: UserId(0), new_budget: -1.0 },
        3 => AtomicOp::TimeChange {
            event: EventId(0),
            new_time: TimeInterval { start: 90, end: 30 },
        },
        _ => AtomicOp::XiDecrease {
            event: EventId(0),
            new_lower: instance.event(EventId(0)).lower + 1,
        },
    }
}

fn bytes<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

/// The delta certificate agrees with the from-scratch one.
fn assert_same_verdict(delta: &Certificate, full: &Certificate, what: &str) {
    assert_eq!(delta.hard_ok(), full.hard_ok(), "{what}: {delta} vs {full}");
    assert_eq!(
        delta.violated_constraints(),
        full.violated_constraints(),
        "{what}"
    );
    assert_eq!(delta.soft_violations, full.soft_violations, "{what}");
    assert_eq!(delta.dif, full.dif, "{what}");
    assert_close(delta.utility, full.utility, what);
}

/// `U_P` values agree within 1e-9 relative.
fn assert_close(running: f64, recount: f64, what: &str) {
    let scale = recount.abs().max(1.0);
    assert!(
        (running - recount).abs() <= 1e-9 * scale,
        "{what}: U_P {running} vs {recount}"
    );
}

/// The tally's running `U_P` agrees with a from-scratch recount.
fn assert_tally_utility(tally: &CertTally, instance: &Instance, plan: &Plan, what: &str) {
    assert_close(tally.utility(), certify(instance, plan).utility, what);
}

/// The instance a stream of `seed` starts from, with `threads` set.
fn stream_instance(seed: u64, pruned: bool, threads: usize) -> Instance {
    epplan_par::set_threads(threads);
    generate(&GeneratorConfig {
        n_users: 40 + (seed % 3) as usize * 20,
        n_events: 8 + (seed % 4) as usize,
        seed,
        budget_frac: (0.3, 1.2),
        candidate_pruned: pruned,
        ..GeneratorConfig::default()
    })
}

/// Stream op `k`: every seventh a malformed one, the rest sampled.
fn stream_op(k: usize, sampler: &mut OpStreamSampler, instance: &Instance, plan: &Plan) -> AtomicOp {
    if k % 7 == 3 {
        malformed(k, instance)
    } else {
        sampler.next_op(instance, plan)
    }
}

/// Runs one stream at `threads`, checking every op; returns the plan
/// bytes after each op.
fn run_stream(seed: u64, pruned: bool, threads: usize) -> Vec<String> {
    let mut instance = stream_instance(seed, pruned, threads);
    let mut plan = GreedySolver::seeded(seed).solve(&instance).plan;
    let mut tally = certify_tally(&instance, &plan).1;
    let mut sampler = OpStreamSampler::new(seed ^ 0x5eed);
    let mut trail = Vec::new();
    for k in 0..30 {
        let op = stream_op(k, &mut sampler, &instance, &plan);
        let what = format!("seed {seed} op {k} {op:?}");
        let (inst0, plan0) = (instance.clone(), plan.clone());
        let (inst0_bytes, plan0_bytes) = (bytes(&instance), bytes(&plan));
        let journal = match IncrementalPlanner.try_apply_in_place(
            &mut instance,
            &mut plan,
            &op,
            SolveBudget::UNLIMITED,
        ) {
            Ok(journal) => journal,
            Err(e) => {
                assert_eq!(e.kind, FailureKind::BadInput, "{what}");
                assert!(instance == inst0 && plan == plan0, "{what}: rejection changed state");
                assert_tally_utility(&tally, &instance, &plan, &what);
                trail.push(bytes(&plan));
                continue;
            }
        };
        assert_eq!(journal.plan().dif(&plan), dif(&plan0, &plan), "{what}");
        let (inst1, plan1) = (instance.clone(), plan.clone());

        // Roll back, compare with the pre-op state, then re-apply.
        journal.clone().rollback(&mut instance, &mut plan);
        assert!(instance == inst0, "{what}: instance not restored");
        assert!(plan == plan0, "{what}: plan not restored");
        assert_eq!(bytes(&instance), inst0_bytes, "{what}: instance bytes");
        assert_eq!(bytes(&plan), plan0_bytes, "{what}: plan bytes");
        let again = IncrementalPlanner
            .try_apply_in_place(&mut instance, &mut plan, &op, SolveBudget::UNLIMITED)
            .unwrap_or_else(|e| panic!("{what}: re-apply failed: {e}"));
        assert!(instance == inst1 && plan == plan1, "{what}: re-apply diverged");
        assert_eq!(again.plan().users(), journal.plan().users(), "{what}");

        let delta = certify_delta(&instance, &plan, &op, again.plan(), &mut tally);
        let full = certify_incremental(&instance, &plan0, &plan);
        assert_same_verdict(&delta, &full, &what);
        if !full.hard_ok() {
            tally = certify_tally(&instance, &plan).1;
        }
        let recount = certify_tally(&instance, &plan).1;
        assert_eq!(tally.attendance(), recount.attendance(), "{what}: tally drifted");
        assert_tally_utility(&tally, &instance, &plan, &what);
        trail.push(bytes(&plan));
    }
    trail
}

/// [`run_stream`]'s streams through the certified step, each op
/// checked against the copy form and the from-scratch certifier;
/// returns the plan bytes after each op.
fn run_certified_stream(seed: u64, pruned: bool, threads: usize) -> Vec<String> {
    let mut instance = stream_instance(seed, pruned, threads);
    let solution = GreedySolver::seeded(seed).solve(&instance);
    let (mut plan, mut tally) = (solution.plan, solution.tally);
    let mut sampler = OpStreamSampler::new(seed ^ 0x5eed);
    let mut trail = Vec::new();
    for k in 0..30 {
        let op = stream_op(k, &mut sampler, &instance, &plan);
        let what = format!("seed {seed} op {k} {op:?}");
        let (plan0, before) = (plan.clone(), (bytes(&instance), bytes(&plan), tally.clone()));
        let budget = SolveBudget::UNLIMITED;
        let copy = IncrementalPlanner.try_apply_budgeted(&instance, &plan, &op, budget);
        let step = IncrementalPlanner.try_apply_certified(&mut instance, &mut plan, &mut tally, &op, budget);
        let rejected = step.is_err();
        match (step, copy) {
            (Ok(cert), Ok(out)) => {
                let full = certify_incremental(&out.instance, &plan0, &out.plan);
                assert_same_verdict(&cert, &full, &what);
                assert!(instance == out.instance && plan == out.plan, "{what}: diverged");
                let recount = certify_tally(&instance, &plan).1;
                assert_eq!(tally.attendance(), recount.attendance(), "{what}: tally drifted");
                assert_tally_utility(&tally, &instance, &plan, &what);
            }
            (Err(RepairError::Uncertified(cert)), Ok(out)) => {
                let full = certify_incremental(&out.instance, &plan0, &out.plan);
                assert!(!full.hard_ok(), "{what}: a certifying repair was rejected");
                assert_same_verdict(&cert, &full, &what);
            }
            (Err(RepairError::Failed(e)), Err(copy_err)) => {
                assert_eq!(e.kind, FailureKind::BadInput, "{what}");
                assert_eq!(copy_err.kind, e.kind, "{what}");
            }
            (step, copy) => panic!("{what}: step {step:?} vs copy form {:?}", copy.map(|o| o.dif)),
        }
        if rejected {
            let after = (bytes(&instance), bytes(&plan), tally.clone());
            assert_eq!(after, before, "{what}: a rejection changed the state or the tally");
        }
        trail.push(bytes(&plan));
    }
    trail
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn certified_step_matches_the_full_certifier_and_the_in_place_trail(
        seed in 0u64..10_000,
        pruned in 0u8..2,
    ) {
        let pruned = pruned == 1;
        let reference = run_stream(seed, pruned, 1);
        let one = run_certified_stream(seed, pruned, 1);
        let four = run_certified_stream(seed, pruned, 4);
        epplan_par::set_threads(1);
        prop_assert_eq!(&one, &reference);
        prop_assert_eq!(one, four);
    }

    #[test]
    fn delta_certificate_equals_full_certificate_after_every_op(
        seed in 0u64..10_000,
        pruned in 0u8..2,
    ) {
        let pruned = pruned == 1;
        let one = run_stream(seed, pruned, 1);
        let four = run_stream(seed, pruned, 4);
        epplan_par::set_threads(1);
        prop_assert_eq!(one, four);
    }
}

/// Three users, three events: e0 09:00–10:00 and e1 10:30–11:30 do not
/// overlap; e2 is far away. Every pair has positive utility.
fn guard_instance() -> Instance {
    let users = vec![
        User::new(Point::new(0.0, 0.0), 20.0),
        User::new(Point::new(1.0, 0.0), 20.0),
        User::new(Point::new(0.0, 1.0), 20.0),
    ];
    let events = vec![
        Event::new(Point::new(1.0, 1.0), 0, 3, TimeInterval::new(540, 600)),
        Event::new(Point::new(2.0, 1.0), 0, 3, TimeInterval::new(630, 690)),
        Event::new(Point::new(3.0, 3.0), 0, 3, TimeInterval::new(720, 780)),
    ];
    let utilities = UtilityMatrix::from_rows(vec![
        vec![0.9, 0.8, 0.2],
        vec![0.7, 0.6, 0.3],
        vec![0.5, 0.4, 0.6],
    ])
    .unwrap();
    Instance::new(users, events, utilities).unwrap()
}

/// Applies `op`'s instance transition but not its repair, then checks
/// that the delta certifier — given no journal, so it must find the
/// affected users itself — rejects the state with `expected`, as the
/// full certifier does.
fn assert_guarded(plan: &Plan, op: AtomicOp, expected: &'static str) {
    let mut instance = guard_instance();
    let (cert, mut tally) = certify_tally(&instance, plan);
    assert!(cert.hard_ok(), "premise: the pre-op plan certifies: {cert}");
    let _ = IncrementalPlanner::apply_to_instance_in_place(&mut instance, &op);
    let full = certify_incremental(&instance, plan, plan);
    let delta = certify_delta(&instance, plan, &op, &PlanJournal::default(), &mut tally);
    assert!(
        full.violated_constraints().contains(&expected),
        "premise: {op:?} breaks {expected}: {full}"
    );
    assert!(!delta.hard_ok(), "{op:?}: delta certificate missed {expected}");
    assert_eq!(
        delta.violated_constraints(),
        full.violated_constraints(),
        "{op:?}"
    );
    assert_same_verdict(&delta, &full, &format!("{op:?}"));
}

#[test]
fn delta_certifier_finds_the_users_an_op_breaks_without_the_journal() {
    let instance = guard_instance();
    let mut plan = Plan::for_instance(&instance);
    for (u, e) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)] {
        plan.add(UserId(u), EventId(e));
    }
    // u0 and u1 attend e0 and e1: moving e1 onto e0's window leaves
    // both with a conflicting pair.
    assert_guarded(
        &plan,
        AtomicOp::TimeChange {
            event: EventId(1),
            new_time: TimeInterval::new(550, 610),
        },
        constraint::TIME_CONFLICT,
    );
    // A fee above every budget on e0 leaves its attendees over budget.
    assert_guarded(
        &plan,
        AtomicOp::FeeChange { event: EventId(0), new_fee: 25.0 },
        constraint::TRAVEL_BUDGET,
    );
    // u2 keeps e2 after its utility drops to 0.
    assert_guarded(
        &plan,
        AtomicOp::UtilityChange {
            user: UserId(2),
            event: EventId(2),
            new_utility: 0.0,
        },
        constraint::ZERO_UTILITY,
    );
    // e0 keeps both attendees after η drops to 1.
    assert_guarded(
        &plan,
        AtomicOp::EtaDecrease { event: EventId(0), new_upper: 1 },
        constraint::ETA_UPPER_BOUND,
    );
    // u1 keeps both events after their budget is cut to 1.
    assert_guarded(
        &plan,
        AtomicOp::BudgetChange { user: UserId(1), new_budget: 1.0 },
        constraint::TRAVEL_BUDGET,
    );
}

#[test]
fn rejected_delta_leaves_the_tally_untouched() {
    let instance = guard_instance();
    let mut plan = Plan::for_instance(&instance);
    plan.add(UserId(0), EventId(0));
    plan.add(UserId(1), EventId(0));
    let (_, mut tally) = certify_tally(&instance, &plan);
    let before = tally.clone();
    let mut shrunk = instance.clone();
    let op = AtomicOp::EtaDecrease { event: EventId(0), new_upper: 1 };
    let _ = IncrementalPlanner::apply_to_instance_in_place(&mut shrunk, &op);
    let cert = certify_delta(&shrunk, &plan, &op, &PlanJournal::default(), &mut tally);
    assert!(!cert.hard_ok());
    assert_eq!(tally, before);
}
