//! Festival scheduling: why participation lower bounds matter.
//!
//! A festival day has workshops that are only viable above a minimum
//! head-count (the paper's "Seminar on Healthy Living" motivation).
//! This example constructs a situation where classic GEP planning —
//! which ignores lower bounds — maximizes *nominal* utility but leaves
//! a workshop below break-even, so it gets cancelled and its
//! participants' utility evaporates. GEPC planning pulls enough users
//! to meet the minimum and ends up with strictly more *realized*
//! utility.
//!
//! Run with: `cargo run --example festival_scheduler`

use epplan::core::model::{Event, TimeInterval, User, UtilityMatrix};
use epplan::geo::Point;
use epplan::prelude::*;

const NAMES: [&str; 4] = [
    "sunrise yoga",
    "fermentation lab",
    "wood carving",
    "evening jam session",
];

fn build_festival() -> Instance {
    // 12 attendees in a compact festival ground; walking budgets are
    // ample so the tension is purely about conflicts and head-counts.
    let users: Vec<User> = (0..12)
        .map(|u| User::new(Point::new((u % 4) as f64, (u / 4) as f64), 50.0))
        .collect();

    let h = |hh: u32, mm: u32| hh * 60 + mm;
    let events = vec![
        // yoga: early, independent, needs 3.
        Event::new(Point::new(1.0, 1.0), 3, 12, TimeInterval::new(h(7, 0), h(8, 0))),
        // fermentation lab: the crowd favorite, capacity 8, no minimum.
        Event::new(Point::new(2.0, 1.0), 0, 8, TimeInterval::new(h(12, 0), h(14, 0))),
        // wood carving: overlaps the lab and needs 6 to break even.
        Event::new(Point::new(1.0, 2.0), 6, 10, TimeInterval::new(h(12, 30), h(14, 30))),
        // jam session: evening, independent, needs 4.
        Event::new(Point::new(2.0, 2.0), 4, 12, TimeInterval::new(h(18, 0), h(21, 0))),
    ];

    // Everyone likes yoga and the jam a bit; the lab is loved by all;
    // carving is a second choice for everyone.
    let mut utilities = UtilityMatrix::zeros(12, 4);
    for u in 0..12u32 {
        utilities.set(UserId(u), EventId(0), 0.4);
        utilities.set(UserId(u), EventId(1), if u < 8 { 0.9 } else { 0.8 });
        utilities.set(UserId(u), EventId(2), if u < 8 { 0.5 } else { 0.6 });
        utilities.set(UserId(u), EventId(3), 0.45);
    }
    Instance::new(users, events, utilities).unwrap()
}

/// Utility that actually materializes: assignments to events below
/// their break-even head-count are cancelled and count zero.
fn realized_utility(instance: &Instance, plan: &epplan::core::plan::Plan) -> (f64, Vec<usize>) {
    let mut total = 0.0;
    let mut cancelled = Vec::new();
    for e in instance.event_ids() {
        let viable = plan.attendance(e) >= instance.event(e).lower;
        if !viable {
            cancelled.push(e.index());
            continue;
        }
        for u in plan.attendees(e) {
            total += instance.utility(u, e);
        }
    }
    (total, cancelled)
}

fn report(instance: &Instance, label: &str, plan: &epplan::core::plan::Plan) {
    let (realized, cancelled) = realized_utility(instance, plan);
    println!("\n=== {label} ===");
    println!("nominal utility : {:.2}", plan.total_utility(instance));
    println!("realized utility: {realized:.2}");
    for e in instance.event_ids() {
        let n = plan.attendance(e);
        let ev = instance.event(e);
        let status = if n >= ev.lower { "viable" } else { "CANCELLED" };
        println!(
            "  {:<20} {n:>2}/{:<2} signed up (break-even {:>2}) → {status}",
            NAMES[e.index()],
            ev.upper,
            ev.lower,
        );
    }
    if !cancelled.is_empty() {
        println!(
            "  cancelled: {:?} — their participants go home empty-handed",
            cancelled.iter().map(|&e| NAMES[e]).collect::<Vec<_>>()
        );
    }
}

fn main() {
    let instance = build_festival();

    // --- GEP: lower bounds ignored (simulated by zeroing every ξ) ---
    let mut gep_instance = instance.clone();
    for e in gep_instance.event_ids() {
        let upper = gep_instance.event(e).upper;
        gep_instance.set_event_bounds(e, 0, upper);
    }
    let gep = GreedySolver::seeded(5).solve(&gep_instance);
    report(&instance, "GEP (minimums ignored at planning time)", &gep.plan);

    // --- GEPC: lower bounds enforced -------------------------------
    let gepc = GreedySolver::seeded(5).solve(&instance);
    report(&instance, "GEPC (minimums planned for)", &gepc.plan);
    assert!(certify(&instance, &gepc.plan).hard_ok());

    let (gep_real, _) = realized_utility(&instance, &gep.plan);
    let (gepc_real, _) = realized_utility(&instance, &gepc.plan);
    println!(
        "\nGEPC realizes {:.2} vs GEP's {:.2} — planning for minimums pays off.",
        gepc_real, gep_real
    );
    assert!(
        gepc_real > gep_real,
        "scenario should demonstrate the GEPC advantage"
    );
}
