//! City-scale planning: generate a synthetic Meetup-like city, solve
//! the GEPC problem with both approximation algorithms, and report the
//! quality/efficiency trade-off plus the paper's theoretical bounds.
//!
//! Run with: `cargo run --release --example city_planning`

use epplan::core::analysis::InstanceAnalysis;
use epplan::datagen::City;
use epplan::prelude::*;
use std::time::Instant;

fn main() {
    // The synthetic stand-in for the paper's Auckland dataset
    // (569 users, 37 events — Table IV).
    let city = City::Auckland;
    let instance = city.instance();
    println!(
        "{}: {} users, {} events, conflict ratio {:.2}",
        city,
        instance.n_users(),
        instance.n_events(),
        epplan::datagen::conflict_ratio(&instance)
    );

    // The reachability analysis behind the approximation ratios:
    // Uc_i = events within B_i/2 of user i.
    let analysis = InstanceAnalysis::of(&instance);
    println!(
        "Uc_max = {} → theoretical ratios: GAP ≥ 1/{}, greedy ≥ 1/{}",
        analysis.uc_max,
        analysis.uc_max.saturating_sub(1),
        2 * analysis.uc_max,
    );

    for (name, solver) in [
        ("greedy", Box::new(GreedySolver::seeded(1)) as Box<dyn GepcSolver>),
        ("gap", Box::new(GapBasedSolver::default())),
    ] {
        let start = Instant::now();
        let sol = solver.solve(&instance);
        let secs = start.elapsed().as_secs_f64();
        let v = certify(&instance, &sol.plan);
        assert!(v.hard_ok());

        let attending: usize = instance
            .user_ids()
            .filter(|&u| !sol.plan.user_plan(u).is_empty())
            .count();
        let held = instance
            .event_ids()
            .filter(|&e| sol.plan.attendance(e) >= instance.event(e).lower)
            .count();
        println!("\n=== {name} ({secs:.3}s) ===");
        println!("global utility: {:.1}", sol.utility);
        println!(
            "events meeting their lower bound: {held}/{} (shortfalls: {})",
            instance.n_events(),
            sol.shortfall.len()
        );
        println!(
            "users with a non-empty plan: {attending}/{}",
            instance.n_users()
        );
        let busiest = instance
            .event_ids()
            .max_by_key(|&e| sol.plan.attendance(e))
            .expect("events exist");
        println!(
            "busiest event: {busiest} with {}/{} participants",
            sol.plan.attendance(busiest),
            instance.event(busiest).upper
        );
    }
}
