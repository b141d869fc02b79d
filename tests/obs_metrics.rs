//! Tier-1 observability test: a GAP-based solve on a real generated
//! instance must leave non-trivial tracks in the global metrics
//! registry — LP pivots, MW epochs, and rounding slot-graph sizes —
//! and a greedy solve must record its Algorithm 2 and filler stages.
//!
//! Metrics are process-global, so every solver configuration runs
//! inside one test function with a `reset_metrics` between them.

use epplan::datagen::{generate, GeneratorConfig};
use epplan::gap::{FractionalMethod, GapConfig};
use epplan::obs;
use epplan::prelude::*;

#[test]
fn gap_solve_emits_stage_metrics() {
    let instance = generate(&GeneratorConfig {
        n_users: 60,
        n_events: 8,
        seed: 3,
        ..Default::default()
    });
    obs::enable_metrics();

    // Simplex path: the LP relaxation must pivot and the ST rounding
    // must build a non-empty slot graph.
    obs::reset_metrics();
    let solver = GapBasedSolver::with_gap_config(GapConfig {
        method: FractionalMethod::Simplex,
        ..Default::default()
    });
    let solution = solver.solve(&instance);
    assert!(certify(&instance, &solution.plan).hard_ok());
    assert!(
        obs::counter_value("lp.iterations") > 0,
        "simplex solve recorded no LP pivots"
    );
    assert!(
        obs::counter_value("rounding.slots") > 0,
        "rounding recorded no slots"
    );
    assert!(
        obs::counter_value("flow.augmentations") > 0,
        "rounding recorded no matcher augmentations"
    );
    let stages: Vec<&str> = solution.report.stages.iter().map(|s| s.name.as_str()).collect();
    assert!(
        stages.contains(&"lp.simplex")
            && stages.contains(&"gap.rounding")
            && stages.contains(&"flow.matching"),
        "SolveReport stage summary missing expected stages: {stages:?}"
    );

    // Multiplicative-weights path: epochs and oracle calls instead of
    // pivots.
    obs::reset_metrics();
    let solver = GapBasedSolver::with_gap_config(GapConfig {
        method: FractionalMethod::MultiplicativeWeights,
        ..Default::default()
    });
    let solution = solver.solve(&instance);
    assert!(certify(&instance, &solution.plan).hard_ok());
    assert!(
        obs::counter_value("packing.epochs") > 0,
        "MW solve recorded no packing epochs"
    );
    assert!(
        obs::counter_value("packing.oracle_scanned") > 0,
        "MW solve recorded no oracle penalty evaluations"
    );
    assert!(
        obs::counter_value("rounding.slots") > 0,
        "rounding recorded no slots on the MW path"
    );

    // Greedy path: Algorithm 2 and the step-2 filler each run inside
    // their own span.
    obs::reset_metrics();
    let solution = GreedySolver::seeded(1).solve(&instance);
    assert!(certify(&instance, &solution.plan).hard_ok());
    let stages: Vec<String> = obs::stage_stats().into_iter().map(|s| s.name).collect();
    assert!(
        stages.iter().any(|s| s == "solve.greedy") && stages.iter().any(|s| s == "solve.fill"),
        "greedy solve missing its stages: {stages:?}"
    );

    obs::disable_metrics();
}
