//! Regression guards on the city presets: the harness numbers quoted
//! in EXPERIMENTS.md depend on these instances being stable across
//! refactors. Rather than brittle exact snapshots, we pin the
//! structural facts and loose utility bands that the experiment
//! write-up relies on.

use epplan::core::plan::PlanStatistics;
use epplan::datagen::{conflict_ratio, City};
use epplan::prelude::*;

#[test]
fn city_shapes_match_table_iv() {
    for city in City::ALL {
        let (u, e) = city.sizes();
        let inst = city.instance();
        assert_eq!(inst.n_users(), u, "{city}");
        assert_eq!(inst.n_events(), e, "{city}");
        let r = conflict_ratio(&inst);
        assert!(
            (r - 0.25).abs() <= 0.07,
            "{city}: conflict ratio {r} strays from 0.25"
        );
        let mean_lower: f64 =
            inst.events().iter().map(|ev| ev.lower as f64).sum::<f64>() / e as f64;
        assert!(
            (mean_lower - 10.0).abs() <= 4.0,
            "{city}: mean xi {mean_lower}"
        );
    }
}

#[test]
fn city_instances_are_stable_across_runs() {
    // The seeds are pinned, so two constructions must agree exactly —
    // this is what makes EXPERIMENTS.md numbers reproducible.
    for city in City::ALL {
        assert_eq!(city.instance(), city.instance(), "{city}");
    }
}

#[test]
fn beijing_utility_band() {
    // Under the vendored deterministic RNG backend the pinned Beijing
    // draw gives greedy ≈ 75.4 and GAP ≈ 69.3 (see the backend note in
    // EXPERIMENTS.md). Guard the band loosely so refactors that change
    // the numbers get noticed (and the doc updated) without pinning
    // exact floats.
    let inst = City::Beijing.instance();
    let greedy = GreedySolver::seeded(7).solve(&inst);
    assert!(
        (60.0..90.0).contains(&greedy.utility),
        "greedy utility {} left the documented band",
        greedy.utility
    );
    assert!(certify(&inst, &greedy.plan).hard_ok());
    let gap = GapBasedSolver::default().solve(&inst);
    assert!(
        gap.utility >= greedy.utility * 0.85,
        "gap {} no longer competitive with greedy {}",
        gap.utility,
        greedy.utility
    );
}

#[test]
fn auckland_statistics_sane() {
    let inst = City::Auckland.instance();
    let plan = GreedySolver::seeded(7).solve(&inst).plan;
    let s = PlanStatistics::of(&inst, &plan);
    assert!(s.active_users > inst.n_users() / 2, "{s:?}");
    assert!(s.viable_events >= inst.n_events() * 8 / 10, "{s:?}");
    assert!(s.max_budget_used <= 1.0 + 1e-9, "{s:?}");
}
