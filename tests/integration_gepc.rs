//! Cross-crate integration tests for the GEPC solvers: generated
//! instances flow through datagen → core solvers → validation, and the
//! paper's structural claims are checked end to end.

use epplan::core::analysis::InstanceAnalysis;
use epplan::core::solver::SolveBudget;
use epplan::datagen::{generate, City, GeneratorConfig};
use epplan::prelude::*;

fn small_cfg(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_users: 60,
        n_events: 12,
        seed,
        mean_lower: 3,
        mean_upper: 10,
        ..Default::default()
    }
}

#[test]
fn both_solvers_produce_hard_feasible_plans() {
    for seed in 0..5 {
        let inst = generate(&small_cfg(seed));
        for solver in [
            Box::new(GreedySolver::seeded(seed)) as Box<dyn GepcSolver>,
            Box::new(GapBasedSolver::default()),
        ] {
            let sol = solver.solve(&inst);
            let v = certify(&inst, &sol.plan);
            assert!(
                v.hard_ok(),
                "{} seed {seed}: {:?}",
                solver.name(),
                v.hard_violations
            );
        }
    }
}

#[test]
fn solution_shortfall_matches_validation() {
    let inst = generate(&small_cfg(3));
    let sol = GreedySolver::seeded(0).solve(&inst);
    let v = certify(&inst, &sol.plan);
    assert_eq!(sol.shortfall, sol.plan.shortfall(&inst));
    // The certifier recounts attendance: one ξ finding per short event.
    assert_eq!(v.soft_violations.len(), sol.shortfall.len());
}

#[test]
fn gap_utility_competitive_with_greedy() {
    // Table VI shape: GAP-based utility is at least in the greedy's
    // ballpark (the paper finds it slightly larger; both are
    // approximations so we allow 15% slack rather than strict order).
    let mut gap_total = 0.0;
    let mut greedy_total = 0.0;
    for seed in 10..15 {
        let inst = generate(&small_cfg(seed));
        gap_total += GapBasedSolver::default().solve(&inst).utility;
        greedy_total += GreedySolver::seeded(1).solve(&inst).utility;
    }
    assert!(
        gap_total >= 0.85 * greedy_total,
        "gap {gap_total} vs greedy {greedy_total}"
    );
}

#[test]
fn approximation_bounds_hold_vs_exact() {
    // The paper's ratios: greedy ≥ OPT/(2·Uc_max), GAP ≥
    // OPT/(Uc_max−1) · (1−O(ε)). Verified on tiny instances where the
    // exact optimum is computable.
    let mut checked = 0;
    for seed in 0..30 {
        let inst = generate(&GeneratorConfig {
            n_users: 5,
            n_events: 4,
            seed: 3000 + seed,
            mean_lower: 1,
            mean_upper: 3,
            n_tags: 6,
            ..Default::default()
        });
        let Some(exact) = (ExactSolver {
            max_users: 6,
            max_events: 5,
        })
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .ok() else {
            continue;
        };
        if exact.utility <= 0.0 {
            continue;
        }
        let analysis = InstanceAnalysis::of(&inst);
        let greedy = GreedySolver::seeded(9).solve(&inst);
        if let Some(bound) = analysis.greedy_bound() {
            assert!(
                greedy.utility >= bound * exact.utility - 1e-9,
                "seed {seed}: greedy {} < bound {} × exact {}",
                greedy.utility,
                bound,
                exact.utility
            );
        }
        let gap = GapBasedSolver::default().solve(&inst);
        if let Some(bound) = analysis.gap_bound() {
            // Allow the (1−O(ε)) LP slack on top of the 1/(Uc_max−1).
            assert!(
                gap.utility >= 0.8 * bound * exact.utility - 1e-9,
                "seed {seed}: gap {} < bound {} × exact {}",
                gap.utility,
                bound,
                exact.utility
            );
        }
        checked += 1;
    }
    assert!(checked >= 5, "too few feasible tiny instances ({checked})");
}

#[test]
fn two_step_framework_never_loses_utility() {
    for seed in 0..5 {
        let inst = generate(&small_cfg(100 + seed));
        let xi_only = GreedySolver::xi_only(seed).solve(&inst);
        let two_step = GreedySolver::seeded(seed).solve(&inst);
        assert!(two_step.utility >= xi_only.utility - 1e-9);
        // Step 2 only adds assignments.
        assert!(
            two_step.plan.total_assignments() >= xi_only.plan.total_assignments()
        );
    }
}

#[test]
fn city_preset_roundtrip_through_solver() {
    // Beijing-sized end-to-end smoke test (113 × 16, Table IV).
    let inst = City::Beijing.instance();
    let sol = GreedySolver::seeded(2).solve(&inst);
    assert!(certify(&inst, &sol.plan).hard_ok());
    assert!(sol.utility > 0.0);
}

#[test]
fn solvers_are_deterministic() {
    let inst = generate(&small_cfg(77));
    let a = GreedySolver::seeded(5).solve(&inst);
    let b = GreedySolver::seeded(5).solve(&inst);
    assert_eq!(a.plan, b.plan);
    let c = GapBasedSolver::default().solve(&inst);
    let d = GapBasedSolver::default().solve(&inst);
    assert_eq!(c.plan, d.plan);
}

#[test]
fn zero_utility_assignments_never_made() {
    for seed in 0..3 {
        let inst = generate(&small_cfg(200 + seed));
        for solver in [
            Box::new(GreedySolver::seeded(0)) as Box<dyn GepcSolver>,
            Box::new(GapBasedSolver::default()),
        ] {
            let sol = solver.solve(&inst);
            for u in inst.user_ids() {
                for &e in sol.plan.user_plan(u) {
                    assert!(
                        inst.utility(u, e) > 0.0,
                        "{} assigned zero-utility pair ({u}, {e})",
                        solver.name()
                    );
                }
            }
        }
    }
}

/// The per-user → per-event transpose the reduction used to build: one
/// `Vec` per event, filled by walking users in ascending order. Kept as
/// the reference the counting-sort transpose of `build_gap` must match.
fn reference_gap_rows(inst: &Instance) -> Vec<Vec<(usize, f64, f64)>> {
    let cands = inst.candidates();
    let mut rows = vec![Vec::new(); inst.n_events()];
    for u in inst.user_ids() {
        let (events, utils) = cands.row(u);
        for (k, &e) in events.iter().enumerate() {
            rows[e as usize].push((
                u.index(),
                1.0 - utils[k],
                2.0 * inst.distance(u, EventId(e)),
            ));
        }
    }
    rows
}

fn assert_gap_matches_reference_transpose(inst: &Instance, label: &str) {
    let (gap, jobs) = GapBasedSolver::default().build_gap(inst);
    assert!(gap.defect().is_none(), "{label}: {:?}", gap.defect());
    let rows = reference_gap_rows(inst);
    assert_eq!(gap.n_candidate_rows(), rows.len(), "{label}");
    let bits = |v: &[(usize, f64, f64)]| -> Vec<(usize, u64, u64)> {
        v.iter().map(|&(i, c, t)| (i, c.to_bits(), t.to_bits())).collect()
    };
    for (r, want) in rows.iter().enumerate() {
        let got: Vec<(usize, f64, f64)> = gap.row_allowed_triples(r).collect();
        assert_eq!(bits(&got), bits(want), "{label}: row {r}");
    }
    let want_jobs: Vec<EventId> = inst
        .event_ids()
        .flat_map(|e| std::iter::repeat_n(e, inst.event(e).lower as usize))
        .collect();
    assert_eq!(jobs, want_jobs, "{label}");
    for (j, e) in jobs.iter().enumerate() {
        assert_eq!(gap.candidate_row_of(j), e.index(), "{label}: job {j}");
    }
}

#[test]
fn build_gap_transpose_matches_the_reference_rows() {
    let dense_cfg = GeneratorConfig {
        n_users: 300,
        n_events: 40,
        seed: 11,
        ..Default::default()
    };
    let pruned_cfg = GeneratorConfig {
        candidate_pruned: true,
        ..dense_cfg.clone()
    };
    let dense = generate(&dense_cfg);
    assert_gap_matches_reference_transpose(&dense, "dense");
    let pruned = generate(&pruned_cfg);
    assert_gap_matches_reference_transpose(&pruned, "pruned");
    // A utility edit drops the pair from the candidate lists, and with
    // it from the event's row.
    let mut edited = pruned;
    let (events, _) = edited.candidates().row(UserId(0));
    let e = EventId(*events.first().expect("user 0 has a candidate"));
    edited.set_utility(UserId(0), e, 0.0);
    assert_gap_matches_reference_transpose(&edited, "edited");
    let (gap, _) = GapBasedSolver::default().build_gap(&edited);
    assert!(gap.row_allowed_triples(e.index()).all(|(i, _, _)| i != 0));
}

#[test]
fn gap_based_mw_path_is_thread_invariant() {
    // Enough stored candidates that the MW oracle splits its rows into
    // several mass-balanced chunks (4 096 candidates each).
    let cfg = GeneratorConfig {
        n_users: 600,
        n_events: 40,
        candidate_pruned: true,
        seed: 7,
        ..Default::default()
    };
    let inst = generate(&cfg);
    let solver = GapBasedSolver::default();
    let (gap, _) = solver.build_gap(&inst);
    let stored: usize = (0..gap.n_candidate_rows())
        .map(|r| gap.row_allowed_triples(r).count())
        .sum();
    assert!(stored > 2 * 4096, "only {stored} stored candidates");
    assert!(gap.allowed_pairs_count() > solver.gap.auto_simplex_limit);
    let before = epplan::par::threads();
    epplan::par::set_threads(1);
    let serial = solver.try_solve(&inst, SolveBudget::UNLIMITED).unwrap();
    epplan::par::set_threads(4);
    let parallel = solver.try_solve(&inst, SolveBudget::UNLIMITED).unwrap();
    epplan::par::set_threads(before);
    assert_eq!(serial.plan, parallel.plan);
    assert_eq!(serial.utility.to_bits(), parallel.utility.to_bits());
}
