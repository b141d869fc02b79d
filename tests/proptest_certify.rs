//! Certification must reject corrupted plans and name the precise
//! constraint each corruption violates. Corruptions are injected the
//! way they would arrive in the wild:
//!
//! * **duplicate / out-of-range assignments** through serde (the JSON
//!   loader bypasses [`Plan::add`]'s dedup guard);
//! * **overfull events** (η overflow) through repeated `add`;
//! * **budget-busting** itineraries for a user with a tight budget;
//! * **ξ-violating events** — a *soft* shortfall: flagged, named, but
//!   the certificate still passes the hard check.

use epplan::core::certify::{certify, certify_incremental};
use epplan::core::model::{Event, Instance, TimeInterval, User, UtilityMatrix};
use epplan::core::plan::Plan;
use epplan::datagen::{generate, GeneratorConfig};
use epplan::core::solver::SolveBudget;
use epplan::prelude::*;
use epplan::solve::certify::constraint;
use proptest::prelude::*;

/// Deterministic instance with one of everything: overlapping events,
/// a far-away venue, a tight-budget user, a zero-utility pair, ξ > 0.
fn instance() -> Instance {
    let users = vec![
        User::new(Point::new(0.0, 0.0), 50.0),
        User::new(Point::new(1.0, 0.0), 50.0),
        User::new(Point::new(2.0, 0.0), 0.5), // tight budget
    ];
    let events = vec![
        Event::new(Point::new(0.0, 1.0), 1, 2, TimeInterval::new(0, 59)),
        Event::new(Point::new(0.0, 2.0), 0, 1, TimeInterval::new(30, 119)), // overlaps e0
        Event::new(Point::new(9.0, 9.0), 0, 3, TimeInterval::new(140, 200)), // far away
    ];
    let utilities = UtilityMatrix::from_rows(vec![
        vec![0.9, 0.4, 0.3],
        vec![0.7, 0.8, 0.2],
        vec![0.5, 0.0, 0.9], // zero utility for (u2, e1)
    ]).unwrap();
    Instance::new(users, events, utilities).unwrap()
}

/// Deserializes a handcrafted plan JSON — the only way to construct
/// the malformed states [`Plan`]'s own API refuses to build.
fn plan_from_json(json: &str) -> Plan {
    serde_json::from_str(json).unwrap_or_else(|e| panic!("plan JSON: {e}"))
}

#[test]
fn feasible_plan_certifies_clean() {
    let inst = instance();
    let mut plan = Plan::for_instance(&inst);
    plan.add(UserId(0), EventId(0));
    plan.add(UserId(1), EventId(1));
    let cert = certify(&inst, &plan);
    assert!(cert.hard_ok(), "{cert}");
    assert!(cert.soft_violations.is_empty());
    assert!((cert.utility - 1.7).abs() < 1e-12);
}

#[test]
fn duplicate_assignment_via_serde_is_named() {
    let inst = instance();
    // User 0 attends event 0 twice — impossible through Plan::add,
    // trivial through the JSON loader.
    let plan = plan_from_json(r#"{"assignments":[[0,0],[],[]],"attendance":[2,0,0]}"#);
    let cert = certify(&inst, &plan);
    assert!(!cert.hard_ok());
    assert!(
        cert.violated_constraints()
            .contains(&constraint::DUPLICATE_ASSIGNMENT),
        "got {:?}",
        cert.violated_constraints()
    );
}

#[test]
fn out_of_range_assignment_via_serde_is_named() {
    let inst = instance();
    let plan = plan_from_json(r#"{"assignments":[[7],[],[]],"attendance":[0,0,0]}"#);
    let cert = certify(&inst, &plan);
    assert!(!cert.hard_ok());
    assert!(cert
        .violated_constraints()
        .contains(&constraint::INVALID_ASSIGNMENT));
}

#[test]
fn overfull_event_is_named() {
    let inst = instance();
    let mut plan = Plan::for_instance(&inst);
    // η(e1) = 1; assign two users.
    plan.add(UserId(1), EventId(1));
    plan.add(UserId(0), EventId(1));
    let cert = certify(&inst, &plan);
    assert!(!cert.hard_ok());
    assert!(cert
        .violated_constraints()
        .contains(&constraint::ETA_UPPER_BOUND));
}

#[test]
fn budget_busting_user_is_named() {
    let inst = instance();
    let mut plan = Plan::for_instance(&inst);
    plan.add(UserId(0), EventId(0)); // keep ξ(e0) satisfied
    plan.add(UserId(2), EventId(2)); // budget 0.5, venue ~11.4 away
    let cert = certify(&inst, &plan);
    assert!(!cert.hard_ok());
    assert!(cert
        .violated_constraints()
        .contains(&constraint::TRAVEL_BUDGET));
}

#[test]
fn time_conflict_is_named() {
    let inst = instance();
    let mut plan = Plan::for_instance(&inst);
    plan.add(UserId(0), EventId(0));
    plan.add(UserId(0), EventId(1)); // windows overlap
    let cert = certify(&inst, &plan);
    assert!(!cert.hard_ok());
    assert!(cert
        .violated_constraints()
        .contains(&constraint::TIME_CONFLICT));
}

#[test]
fn zero_utility_assignment_is_named() {
    let inst = instance();
    let mut plan = Plan::for_instance(&inst);
    plan.add(UserId(0), EventId(0));
    plan.add(UserId(2), EventId(1)); // μ(u2, e1) = 0
    let cert = certify(&inst, &plan);
    assert!(!cert.hard_ok());
    assert!(cert
        .violated_constraints()
        .contains(&constraint::ZERO_UTILITY));
}

#[test]
fn xi_shortfall_is_soft_and_named() {
    let inst = instance();
    // ξ(e0) = 1 but nobody attends: flagged, named, still hard-ok.
    let plan = Plan::for_instance(&inst);
    let cert = certify(&inst, &plan);
    assert!(cert.hard_ok());
    assert_eq!(cert.soft_violations.len(), 1);
    assert_eq!(cert.soft_violations[0].constraint, constraint::XI_LOWER_BOUND);
}

#[test]
fn incremental_certificate_recomputes_dif() {
    let inst = instance();
    let mut old = Plan::for_instance(&inst);
    old.add(UserId(0), EventId(0));
    old.add(UserId(1), EventId(1));
    let mut new = Plan::for_instance(&inst);
    new.add(UserId(0), EventId(0));
    let cert = certify_incremental(&inst, &old, &new);
    assert_eq!(cert.dif, Some(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On generated instances: the greedy plan certifies clean, and
    /// every systematic corruption is flagged with its precise name.
    #[test]
    fn corruptions_are_flagged_on_generated_instances(
        seed in 0u64..1_000,
        n_users in 4usize..16,
        n_events in 2usize..5,
    ) {
        let inst = generate(&GeneratorConfig {
            n_users,
            n_events,
            seed,
            ..Default::default()
        });
        let sol = GreedySolver::seeded(seed).solve(&inst);
        let base = certify(&inst, &sol.plan);
        prop_assert!(base.hard_ok(), "greedy plan failed certification: {base}");

        // η overflow: pile every user onto event 0 (η < n_users holds
        // for the generator's bounds at these sizes).
        let e0 = EventId(0);
        if inst.event(e0).upper < n_users as u32 {
            let mut plan = sol.plan.clone();
            for u in inst.user_ids() {
                plan.add(u, e0);
            }
            let cert = certify(&inst, &plan);
            prop_assert!(!cert.hard_ok());
            prop_assert!(
                cert.violated_constraints().contains(&constraint::ETA_UPPER_BOUND),
                "got {:?}", cert.violated_constraints()
            );
        }

        // Duplicate assignment via the serde loader: rebuild the plan
        // JSON by hand with one user's first event doubled.
        let mut assignments: Vec<Vec<usize>> = (0..inst.n_users())
            .map(|u| {
                sol.plan
                    .user_plan(UserId(u as u32))
                    .iter()
                    .map(|e| e.index())
                    .collect()
            })
            .collect();
        let victim = assignments.iter().position(|evs| !evs.is_empty());
        if let Some(u) = victim {
            let first = assignments[u][0];
            assignments[u].push(first);
            let mut attendance = vec![0u32; inst.n_events()];
            for evs in &assignments {
                for &e in evs {
                    attendance[e] += 1;
                }
            }
            let rows: Vec<String> = assignments
                .iter()
                .map(|evs| {
                    let inner: Vec<String> = evs.iter().map(|e| e.to_string()).collect();
                    format!("[{}]", inner.join(","))
                })
                .collect();
            let att: Vec<String> = attendance.iter().map(|a| a.to_string()).collect();
            let json = format!(
                r#"{{"assignments":[{}],"attendance":[{}]}}"#,
                rows.join(","),
                att.join(",")
            );
            let plan = plan_from_json(&json);
            let cert = certify(&inst, &plan);
            prop_assert!(!cert.hard_ok());
            prop_assert!(
                cert.violated_constraints().contains(&constraint::DUPLICATE_ASSIGNMENT),
                "got {:?}", cert.violated_constraints()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every solver's solution, returned or attached to its error as
    /// the partial, carries a checked certificate equal to a
    /// from-scratch `certify` of its plan, `U_P` included, and reads
    /// its utility and tally from it. Caps below 40 iterations make the
    /// budgeted solvers (gap, exact, LNS) hand back partials too; the
    /// rest run unlimited.
    #[test]
    fn every_solution_carries_the_certificate_of_its_plan(
        seed in 0u64..1_000,
        n_users in 2usize..6,
        n_events in 1usize..5,
        cap in 1u64..80,
    ) {
        let inst = generate(&GeneratorConfig {
            n_users,
            n_events,
            seed,
            mean_lower: 2,
            mean_upper: 5,
            ..Default::default()
        });
        let budget = if cap < 40 {
            SolveBudget::from_iteration_cap(cap)
        } else {
            SolveBudget::UNLIMITED
        };
        let solvers: [&dyn GepcSolver; 3] = [
            &GreedySolver::seeded(seed),
            &GapBasedSolver::default(),
            &ExactSolver::default(),
        ];
        for solver in solvers {
            let solutions: Vec<Solution> = match solver.try_solve(&inst, budget) {
                Ok(sol) => vec![sol],
                Err(e) => e.partial.into_iter().collect(),
            };
            for sol in solutions {
                let fresh = certify(&inst, &sol.plan);
                prop_assert!(fresh.checked && fresh.hard_ok(), "{}: {fresh}", solver.name());
                prop_assert_eq!(sol.report.certificate.as_ref(), Some(&fresh), "{}", solver.name());
                prop_assert_eq!(sol.utility.to_bits(), fresh.utility.to_bits());
                prop_assert_eq!(sol.tally.utility().to_bits(), fresh.utility.to_bits());
            }
        }
    }
}
