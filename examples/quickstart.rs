//! Quickstart: solve the paper's running example (Example 1) with all
//! three solvers and inspect the plans.
//!
//! Run with: `cargo run --example quickstart`

use epplan::prelude::*;

fn print_solution(instance: &Instance, name: &str, solution: &Solution) {
    println!("\n--- {name} ---");
    println!("global utility: {:.2}", solution.utility);
    println!(
        "fully feasible: {} (lower-bound shortfalls: {:?})",
        solution.fully_feasible(),
        solution.shortfall
    );
    for u in instance.user_ids() {
        let events = solution.plan.user_plan(u);
        let cost = solution.plan.travel_cost(instance, u);
        let names: Vec<String> = events.iter().map(|e| e.to_string()).collect();
        println!(
            "  {u}: attends [{}], travel cost {:.2} / budget {:.0}",
            names.join(", "),
            cost,
            instance.user(u).budget
        );
    }
}

fn main() {
    // The 5-user / 4-event EBSN of the paper's Example 1 (Fig. 1 +
    // Table I): four events with participation bounds, two time
    // conflicts (e1/e3 overlap, e2/e4 are back-to-back).
    let instance = epplan::datagen::paper_example();

    println!("users: {}, events: {}", instance.n_users(), instance.n_events());
    for e in instance.event_ids() {
        let ev = instance.event(e);
        println!(
            "  {e}: xi={}, eta={}, time {}",
            ev.lower, ev.upper, ev.time
        );
    }

    // The exact optimum (small instances only) — the paper's Example 2
    // plan reaches global utility 6.3, which is optimal here.
    let exact = ExactSolver::default().solve(&instance);
    print_solution(&instance, "exact optimum", &exact);

    // The GAP-based approximation (Section III-A): LP relaxation of
    // the event-copy reduction + Shmoys–Tardos rounding + conflict
    // adjusting.
    let gap = GapBasedSolver::default().solve(&instance);
    print_solution(&instance, "GAP-based algorithm", &gap);

    // The greedy approximation (Section III-B, Algorithm 2).
    let greedy = GreedySolver::seeded(42).solve(&instance);
    print_solution(&instance, "greedy algorithm", &greedy);

    // Every solver's plan respects all hard constraints.
    for (name, sol) in [("exact", &exact), ("gap", &gap), ("greedy", &greedy)] {
        let v = certify(&instance, &sol.plan);
        assert!(v.hard_ok(), "{name} produced violations: {:?}", v.hard_violations);
    }
    println!("\nall plans validate.");

    // The "Plan for Today" a user would actually see:
    println!();
    for it in epplan::core::plan::all_itineraries(&instance, &exact.plan) {
        println!("{it}\n");
    }
}
