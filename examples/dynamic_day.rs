//! Incremental planning over a stream of changes: the IEP problem in
//! action. A day of EBSN operation is simulated — organizers shrink
//! venues, raise minimum head-counts, move time slots, post new
//! events; users lose interest and budgets. After each atomic change
//! the plan is repaired incrementally, and the result is compared with
//! re-solving from scratch (the paper's Re-Greedy baseline).
//!
//! Run with: `cargo run --release --example dynamic_day`

use epplan::core::incremental::IncrementalPlanner;
use epplan::core::model::{Event, TimeInterval};
use epplan::datagen::{generate, GeneratorConfig};
use epplan::prelude::*;
use epplan::solve::SolveBudget;
use std::time::Instant;

fn main() {
    let cfg = GeneratorConfig {
        n_users: 400,
        n_events: 25,
        seed: 2024,
        mean_lower: 5,
        mean_upper: 20,
        ..Default::default()
    };
    let mut instance = generate(&cfg);
    let solver = GreedySolver::seeded(3);
    // The solve's certifier tally seeds the certified repair steps.
    let Solution { mut plan, mut tally, .. } = solver.solve(&instance);
    println!(
        "initial plan: utility {:.1}, {} assignments",
        tally.utility(),
        plan.total_assignments()
    );

    // A plausible stream of atomic operations.
    let busiest = instance
        .event_ids()
        .max_by_key(|&e| plan.attendance(e))
        .expect("events exist");
    let moved = EventId(3.min(instance.n_events() as u32 - 1));
    let t = instance.event(moved).time;
    let ops: Vec<(&str, AtomicOp)> = vec![
        (
            "venue shrinks: busiest event halves its capacity",
            AtomicOp::EtaDecrease {
                event: busiest,
                new_upper: (plan.attendance(busiest) / 2).max(1),
            },
        ),
        (
            "organizer needs more heads to cover costs",
            AtomicOp::XiIncrease {
                event: EventId(1),
                new_lower: (plan.attendance(EventId(1)) + 2)
                    .min(instance.event(EventId(1)).upper),
            },
        ),
        (
            "venue double-booked: event moves two hours later",
            AtomicOp::TimeChange {
                event: moved,
                new_time: TimeInterval::new(t.start + 120, t.end + 120),
            },
        ),
        (
            "a new pop-up event is announced",
            AtomicOp::NewEvent {
                event: Event::new(
                    epplan::geo::Point::new(50.0, 50.0),
                    3,
                    30,
                    TimeInterval::new(21 * 60, 23 * 60),
                ),
                utilities: (0..instance.n_users())
                    .map(|u| if u % 3 == 0 { 0.6 } else { 0.0 })
                    .collect(),
            },
        ),
        (
            "storm warning: user 7 cuts their travel budget",
            AtomicOp::BudgetChange {
                user: UserId(7),
                new_budget: instance.user(UserId(7)).budget / 4.0,
            },
        ),
    ];

    let planner = IncrementalPlanner;
    for (label, op) in ops {
        let before = plan.clone();
        let t0 = Instant::now();
        let cert = planner
            .try_apply_certified(&mut instance, &mut plan, &mut tally, &op, SolveBudget::UNLIMITED)
            .expect("every scripted repair certifies");
        let inc_time = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let rerun = solver.solve(&instance);
        let rerun_time = t1.elapsed().as_secs_f64();

        println!("\n>> {label}");
        println!(
            "   incremental: utility {:.1}, dif {}, {:.4}s",
            cert.utility, cert.dif.unwrap_or(0), inc_time
        );
        println!(
            "   re-solve:    utility {:.1}, dif {}, {:.4}s  ({}x slower)",
            rerun.utility,
            epplan::core::plan::dif(&before, &rerun.plan),
            rerun_time,
            (rerun_time / inc_time.max(1e-9)).round()
        );
    }

    println!(
        "\nend of scripted day: utility {:.1}, {} assignments",
        tally.utility(),
        plan.total_assignments()
    );

    // --- Stress phase: a whole week of random churn ------------------
    // `OpStreamSampler` draws a realistic mix of atomic operations
    // (budget/utility churn dominating, occasional organizer changes
    // and new events), each consistent with the evolving state. A
    // batch is the certified step run once per operation.
    let mut sampler = epplan::datagen::OpStreamSampler::new(7);
    let ops = sampler.stream(&instance, &plan, 100);
    let start = plan.clone();
    let mut step_difs = 0;
    let t0 = Instant::now();
    for op in &ops {
        let cert = planner
            .try_apply_certified(&mut instance, &mut plan, &mut tally, op, SolveBudget::UNLIMITED)
            .expect("sampled ops are consistent with the evolving state");
        step_difs += cert.dif.unwrap_or(0);
    }
    println!(
        "\nstress phase: {} random operations in {:.3}s",
        ops.len(),
        t0.elapsed().as_secs_f64()
    );
    println!(
        "  net dif {} (sum of per-op difs: {step_difs})",
        epplan::core::plan::dif(&start, &plan)
    );
    println!(
        "  final utility {:.1}, {} events below their minimum",
        tally.utility(),
        plan.shortfall(&instance).len()
    );
    assert!(certify(&instance, &plan).hard_ok());
    println!("  plan still satisfies every hard constraint.");
}
