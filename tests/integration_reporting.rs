//! Integration tests for the reporting layer: statistics, itineraries
//! and their consistency with the raw plan/instance data.

use epplan::core::plan::{all_itineraries, Itinerary, PlanStatistics};
use epplan::datagen::{generate, GeneratorConfig};
use epplan::prelude::*;

fn setup(seed: u64) -> (Instance, epplan::core::plan::Plan) {
    let inst = generate(&GeneratorConfig {
        n_users: 60,
        n_events: 12,
        seed,
        mean_lower: 3,
        mean_upper: 10,
        ..Default::default()
    });
    let plan = GreedySolver::seeded(seed).solve(&inst).plan;
    (inst, plan)
}

#[test]
fn statistics_agree_with_plan() {
    let (inst, plan) = setup(1);
    let s = PlanStatistics::of(&inst, &plan);
    assert_eq!(s.assignments, plan.total_assignments());
    assert!((s.total_utility - plan.total_utility(&inst)).abs() < 1e-9);
    let active = inst
        .user_ids()
        .filter(|&u| !plan.user_plan(u).is_empty())
        .count();
    assert_eq!(s.active_users, active);
    // Histogram mass equals the user count.
    let hist = PlanStatistics::plan_length_histogram(&inst, &plan);
    assert_eq!(hist.iter().sum::<usize>(), inst.n_users());
    // Weighted histogram equals total assignments.
    let weighted: usize = hist.iter().enumerate().map(|(k, &c)| k * c).sum();
    assert_eq!(weighted, plan.total_assignments());
}

#[test]
fn itineraries_cover_every_active_user() {
    let (inst, plan) = setup(2);
    let its = all_itineraries(&inst, &plan);
    let active = inst
        .user_ids()
        .filter(|&u| !plan.user_plan(u).is_empty())
        .count();
    assert_eq!(its.len(), active);
    for it in &its {
        assert!(it.is_consistent(), "{} has out-of-order stops", it.user);
        assert!(it.within_budget(), "{} over budget", it.user);
        // Total cost must equal the instance's travel-cost metric.
        let expected = plan.travel_cost(&inst, it.user);
        assert!((it.total_cost - expected).abs() < 1e-9);
        // Stops must be exactly the user's plan.
        assert_eq!(it.stops.len(), plan.user_plan(it.user).len());
    }
}

#[test]
fn itinerary_legs_sum_to_total() {
    let (inst, plan) = setup(3);
    for it in all_itineraries(&inst, &plan) {
        let legs: f64 = it.stops.iter().map(|s| s.leg_distance + s.fee).sum();
        assert!((legs + it.return_distance - it.total_cost).abs() < 1e-9);
    }
}

#[test]
fn statistics_track_incremental_changes() {
    use epplan::core::incremental::{AtomicOp, IncrementalPlanner};
    let (inst, plan) = setup(4);
    let before = PlanStatistics::of(&inst, &plan);
    let busiest = inst
        .event_ids()
        .max_by_key(|&e| plan.attendance(e))
        .unwrap();
    let out = IncrementalPlanner
        .try_apply_budgeted(
            &inst,
            &plan,
            &AtomicOp::EtaDecrease {
                event: busiest,
                new_upper: 1,
            },
            epplan::core::solver::SolveBudget::UNLIMITED,
        )
        .unwrap();
    let after = PlanStatistics::of(&out.instance, &out.plan);
    // The event kept exactly one attendee.
    assert_eq!(out.plan.attendance(busiest), 1);
    // Assignment delta is consistent with dif minus refills.
    assert!(after.assignments + out.dif >= before.assignments);
}

#[test]
fn itinerary_of_idle_user_is_empty() {
    let (inst, _) = setup(5);
    let empty = epplan::core::plan::Plan::for_instance(&inst);
    let it = Itinerary::of(&inst, &empty, UserId(0));
    assert!(it.stops.is_empty());
    assert_eq!(it.total_cost, 0.0);
    assert!(it.within_budget());
}
