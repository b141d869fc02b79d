//! Differential test of the GAP solve against its public stage chain.
//!
//! `GapBasedSolver` builds one event-major pair store after the GAP
//! solve and hands it to Algorithm 1, budget repair and the step-2
//! fill in turn. The public stage functions each build their own. The
//! chain below runs those public functions in the solver's order, so
//! both routes must produce the same plan, byte for byte, at every
//! thread count.
//!
//! The instances have quarter utilities (ties decide many ranks),
//! events whose `ξ = η` so that Algorithm 1 already fills them, and
//! users with no candidate event at all. Budgets are tight, so that
//! the rounding's load slack leaves some user over budget after
//! Algorithm 1 in about one instance of five, and budget repair
//! rehomes events.
//!
//! A candidate build keeps only the best 256 pairs of an event with
//! more than 512 candidates until a read goes past them. The wide
//! instances give one event 513–800 candidates and room for 300 or
//! more, so the fill reads past them. There the chain fills through
//! the listed-users form, whose store gathers every pair up front, so
//! it checks the solver's reads past a head against a store that never
//! truncates.

use epplan_core::model::{Event, EventId, Instance, InstanceBuilder, TimeInterval, UserId};
use epplan_core::plan::Plan;
use epplan_core::solver::conflict_adjust::{budget_repair, conflict_adjust, RawAssignment};
use epplan_core::solver::filler::fill_to_upper;
use epplan_core::solver::{GapBasedSolver, GepcSolver};
use epplan_gap::GapSolver;
use epplan_geo::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `build_gap` → `GapSolver::solve` → `conflict_adjust` →
/// `budget_repair` → `fill_to_upper`, as `GapBasedSolver` runs them;
/// the fill restricted to `fill_users` when given.
fn stage_chain(instance: &Instance, fill_users: Option<&[UserId]>) -> Plan {
    let solver = GapBasedSolver::default();
    let (gap, jobs) = solver.build_gap(instance);
    let solution = GapSolver::new(solver.gap.clone())
        .solve(&gap)
        .expect("the GAP pipeline solves every test instance");
    let mut raw: RawAssignment = vec![Vec::new(); instance.n_users()];
    for (job, machine) in solution.assignment.iter().enumerate() {
        if let (Some(i), Some(&e)) = (*machine, jobs.get(job)) {
            raw[i].push(e);
        }
    }
    let mut plan = conflict_adjust(instance, raw);
    budget_repair(instance, &mut plan);
    fill_to_upper(instance, &mut plan, fill_users);
    plan
}

/// A random instance: users and venues on a 10 × 10 square, quarter
/// utilities, some events with `ξ = η`, some users with no candidate.
fn instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new();
    let n_users = rng.gen_range(2..=60);
    let n_events = rng.gen_range(1..=12);
    let users: Vec<(UserId, bool)> = (0..n_users)
        .map(|_| {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            // A zero budget affords no event: the user has no candidate.
            let idle = rng.gen_bool(0.1);
            let budget = if idle { 0.0 } else { rng.gen_range(2.0..20.0) };
            (b.user(at, budget), idle)
        })
        .collect();
    let events: Vec<_> = (0..n_events)
        .map(|_| {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            let lower = rng.gen_range(0..=4);
            let upper = if rng.gen_bool(0.3) {
                lower
            } else {
                lower + rng.gen_range(1..=6)
            };
            let start = rng.gen_range(0..480);
            let time = TimeInterval::new(start, start + rng.gen_range(30..150));
            b.event_raw(Event::new(at, lower, upper, time))
        })
        .collect();
    for &(u, idle) in &users {
        // Some users with a budget have no utility for anything either.
        let blank = idle || rng.gen_bool(0.05);
        for &e in &events {
            let mu = if blank {
                0.0
            } else {
                rng.gen_range(0..=4) as f64 * 0.25
            };
            b.utility(u, e, mu);
        }
    }
    b.build()
}

/// A wide instance: event 0 has every user as a candidate, a lower
/// bound of at most 8, room for at least 300 users and no conflict with
/// the other events, and every budget affords every route.
fn wide_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new();
    let n_users = rng.gen_range(513..=800);
    let n_events = rng.gen_range(1..=3);
    let users: Vec<UserId> = (0..n_users)
        .map(|_| {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            b.user(at, rng.gen_range(80.0..120.0))
        })
        .collect();
    let events: Vec<_> = (0..n_events)
        .map(|k| {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            let lower = rng.gen_range(0..=8);
            let upper = if k == 0 {
                rng.gen_range(300..=n_users as u32)
            } else {
                lower + rng.gen_range(1..=20)
            };
            let start = if k == 0 { 0 } else { rng.gen_range(60..480) };
            let time = TimeInterval::new(start, start + rng.gen_range(30..59));
            b.event_raw(Event::new(at, lower, upper, time))
        })
        .collect();
    for &u in &users {
        for &e in &events {
            let lowest = usize::from(e == events[0]);
            b.utility(u, e, rng.gen_range(lowest..=4) as f64 * 0.25);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gap_solve_matches_public_stage_chain(seed in 0u64..u64::MAX) {
        for threads in [1, 4] {
            epplan_par::set_threads(threads);
            // A fresh instance, so the candidate cache is rebuilt at
            // this thread count.
            let inst = instance(seed);
            let solution = GapBasedSolver::default().solve(&inst);
            prop_assert_eq!(solution.report.winner(), Some("gap_based"), "seed {}", seed);
            let chained = stage_chain(&inst, None);
            prop_assert_eq!(
                serde_json::to_string(&solution.plan).unwrap(),
                serde_json::to_string(&chained).unwrap(),
                "seed {} threads {}", seed, threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wide_gap_solve_matches_an_untruncated_fill(seed in 0u64..u64::MAX) {
        for threads in [1, 4] {
            epplan_par::set_threads(threads);
            let inst = wide_instance(seed);
            let solution = GapBasedSolver::default().solve(&inst);
            prop_assert_eq!(solution.report.winner(), Some("gap_based"), "seed {}", seed);
            prop_assert!(solution.plan.attendance(EventId(0)) >= 300, "seed {}", seed);
            let every: Vec<UserId> = inst.user_ids().collect();
            let chained = stage_chain(&inst, Some(&every));
            prop_assert_eq!(
                serde_json::to_string(&solution.plan).unwrap(),
                serde_json::to_string(&chained).unwrap(),
                "seed {} threads {}", seed, threads
            );
        }
    }
}
