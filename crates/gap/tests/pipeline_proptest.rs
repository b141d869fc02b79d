//! Property tests for the end-to-end GAP pipeline against the exact
//! branch-and-bound optimum on small random instances, and for the
//! candidate-row storage against the dense matrices it is built from.
//!
//! Shmoys–Tardos guarantees: whenever the instance has *any* complete
//! feasible assignment, (a) the pipeline also produces a complete
//! assignment, (b) its cost is at most the optimum (cost ≤ fractional
//! optimum ≤ integral optimum), and (c) every machine's load is at most
//! `T_i + max_j p_{i,j}`.

use epplan_gap::{exact, FractionalMethod, GapConfig, GapInstance, GapSolver};
use proptest::prelude::*;

fn st_load_ok(inst: &GapInstance, sol: &epplan_gap::GapSolution) -> bool {
    let mut max_p = vec![0.0f64; inst.n_machines()];
    for (j, &mi) in sol.assignment.iter().enumerate() {
        if let Some(i) = mi {
            max_p[i] = max_p[i].max(inst.time(i, j));
        }
    }
    sol.loads
        .iter()
        .enumerate()
        .all(|(i, &l)| l <= inst.capacity(i) + max_p[i] + 1e-6)
}

fn arb_instance() -> impl Strategy<Value = GapInstance> {
    (2usize..4, 2usize..7, 0u64..1_000_000).prop_map(|(m, n, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut costs: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let times: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| rng.gen_range(0.2..2.0)).collect())
            .collect();
        let caps: Vec<f64> = (0..m).map(|_| rng.gen_range(0.5..4.0)).collect();
        // Sprinkle forbidden pairs.
        for row in costs.iter_mut() {
            for c in row.iter_mut() {
                if rng.gen_bool(0.15) {
                    *c = f64::INFINITY;
                }
            }
        }
        GapInstance::from_matrices(costs, times, caps)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The candidate-row storage answers exactly what the dense
    /// matrices it was built from say: `+∞` forbids a pair, any other
    /// pair is allowed iff its time fits the machine's capacity, and a
    /// forbidden pair reads as cost `∞` and time 0.
    #[test]
    fn candidate_rows_match_the_source_matrices(
        m in 1usize..5,
        n in 0usize..7,
        seed in 0u64..1_000_000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let costs: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n)
                .map(|_| if rng.gen_bool(0.3) { f64::INFINITY } else { rng.gen_range(-1.0..1.0) })
                .collect())
            .collect();
        let times: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..2.0)).collect())
            .collect();
        let caps: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..2.0)).collect();
        let inst = GapInstance::from_matrices(costs.clone(), times.clone(), caps.clone());
        prop_assert!(inst.defect().is_none());
        let mut allowed_pairs = 0;
        for j in 0..n {
            for i in 0..m {
                let allowed = costs[i][j].is_finite() && times[i][j] <= caps[i] + 1e-12;
                prop_assert_eq!(inst.allowed(i, j), allowed, "pair ({}, {})", i, j);
                let (cost, time) = if allowed { (costs[i][j], times[i][j]) } else { (f64::INFINITY, 0.0) };
                prop_assert_eq!(inst.cost(i, j), cost);
                prop_assert_eq!(inst.time(i, j), time);
                allowed_pairs += usize::from(allowed);
            }
            let want: Vec<usize> = (0..m).filter(|&i| inst.allowed(i, j)).collect();
            prop_assert_eq!(inst.allowed_machines(j).collect::<Vec<_>>(), want);
        }
        prop_assert_eq!(inst.allowed_pairs_count(), allowed_pairs);
    }

    #[test]
    fn st_guarantees_hold(inst in arb_instance()) {
        let solver = GapSolver::new(GapConfig {
            method: FractionalMethod::Simplex,
            ..Default::default()
        });
        let sol = solver.solve(&inst).unwrap();
        let opt = exact::branch_and_bound(&inst).ok();

        prop_assert!(st_load_ok(&inst, &sol));

        if let Some(opt) = opt {
            // (a) completeness whenever a complete assignment exists.
            prop_assert!(sol.is_complete(),
                "pipeline incomplete on a feasible instance");
            // (b) cost never exceeds the exact optimum (the LP bound).
            prop_assert!(sol.cost <= opt.cost + 1e-6,
                "pipeline {} > optimum {}", sol.cost, opt.cost);
            // Fractional bound is a valid lower bound.
            if let Some(fc) = sol.fractional_cost {
                prop_assert!(fc <= opt.cost + 1e-6);
            }
        }
    }

    #[test]
    fn mw_pipeline_is_total_and_bounded(inst in arb_instance()) {
        let solver = GapSolver::new(GapConfig {
            method: FractionalMethod::MultiplicativeWeights,
            ..Default::default()
        });
        let sol = solver.solve(&inst).unwrap();
        prop_assert!(st_load_ok(&inst, &sol));
        for (j, &mi) in sol.assignment.iter().enumerate() {
            if let Some(i) = mi {
                prop_assert!(inst.allowed(i, j), "forbidden pair used ({i},{j})");
            }
        }
    }
}
