//! Thread-count determinism: the `epplan-par` contract says a parallel
//! run is bit-identical to a serial one (fixed chunk boundaries, chunk
//! results merged in index order). These properties pin that contract
//! end-to-end: every solver, and the generator itself, must produce
//! the *same plan and the same total utility, to the bit*, at
//! `threads = 1` and `threads = 4` on a single-core machine alike.

use epplan::core::solver::{LnsSolver, LocalSearch};
use epplan::datagen::{generate, GeneratorConfig};
use epplan::gap::packing::{mw_fractional, PackingConfig};
use epplan::gap::{lp_relaxation, round_shmoys_tardos, GapInstance};
use epplan::prelude::*;
use proptest::prelude::*;
use std::sync::Mutex;

/// The worker-count knob is process-global; integration-test cases run
/// on multiple threads, so every case that flips it holds this lock.
static THREADS: Mutex<()> = Mutex::new(());

/// Runs `f` at `threads = 1` and again at `threads = 4`, restoring the
/// serial default afterwards, and returns both results for comparison.
fn at_both_thread_counts<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = THREADS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    epplan::par::set_threads(1);
    let serial = f();
    epplan::par::set_threads(4);
    let parallel = f();
    epplan::par::set_threads(1);
    (serial, parallel)
}

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..50, 1usize..10, 0u64..10_000, 0.0..0.6f64).prop_map(
        |(n_users, n_events, seed, conflict_ratio)| GeneratorConfig {
            n_users,
            n_events,
            seed,
            conflict_ratio,
            mean_lower: 2,
            mean_upper: 6,
            ..Default::default()
        },
    )
}

/// Arbitrary dense GAP instances: costs/times in (0, 1], capacities
/// loose enough that the LP relaxation stays feasible yet tight enough
/// to force genuinely fractional optima (the slot-splitting path).
fn arb_gap() -> impl Strategy<Value = GapInstance> {
    (2usize..5, 2usize..9, 0u64..10_000).prop_map(|(m, n, seed)| {
        // Splitmix-style hash keeps instance generation self-contained
        // (no dependence on the datagen crate's RNG stream).
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 30;
            state = state.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            state ^= state >> 27;
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let costs: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| 0.05 + 0.95 * next()).collect())
            .collect();
        let times: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| 0.1 + 0.9 * next()).collect())
            .collect();
        // Total capacity ≈ 1.2 × the mean per-machine load of a
        // balanced fractional assignment.
        let cap = 1.2 * (n as f64) * 0.55 / (m as f64);
        GapInstance::from_matrices(costs, times, vec![cap.max(1.0); m])
    })
}

/// GAP instances whose candidate rows are longer than the MW oracle's
/// cost-sorted prefix (256 entries). When most of a row shares one
/// cost the prefix cannot settle it, so the full-scan fallback runs
/// too.
fn arb_long_row_gap() -> impl Strategy<Value = GapInstance> {
    (300usize..360, 40usize..80, 0u8..2, 0u64..10_000).prop_map(|(m, rows, cost_mode, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut offsets = vec![0u32];
        let (mut machines, mut costs, mut times) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..rows {
            for i in 0..m as u32 {
                if rng.gen_bool(0.95) {
                    machines.push(i);
                    costs.push(if cost_mode == 1 {
                        // Over 256 entries share the lowest cost.
                        if rng.gen_bool(0.9) {
                            0.25
                        } else {
                            0.75
                        }
                    } else {
                        rng.gen_range(0.0..1.0)
                    });
                    times.push(rng.gen_range(0.1..1.0));
                }
            }
            offsets.push(machines.len() as u32);
        }
        // One job per row, plus a second copy of every tenth row.
        let job_group: Vec<u32> = (0..rows as u32)
            .chain((0..rows as u32).step_by(10))
            .collect();
        // Every time is below 1, so no pair is capacity-gated and every
        // row keeps its ~315 entries.
        let cap = 1.0;
        GapInstance::from_csr(m, vec![cap; m], job_group, offsets, machines, costs, times)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generator_is_thread_invariant(cfg in arb_config()) {
        let (serial, parallel) = at_both_thread_counts(|| generate(&cfg));
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn greedy_is_thread_invariant(cfg in arb_config(), seed in 0u64..100) {
        let inst = generate(&cfg);
        let (serial, parallel) =
            at_both_thread_counts(|| GreedySolver::seeded(seed).solve(&inst));
        prop_assert_eq!(&serial.plan, &parallel.plan);
        prop_assert_eq!(serial.utility.to_bits(), parallel.utility.to_bits());
    }

    #[test]
    fn gap_based_is_thread_invariant(cfg in arb_config()) {
        let inst = generate(&cfg);
        let (serial, parallel) =
            at_both_thread_counts(|| GapBasedSolver::default().solve(&inst));
        prop_assert_eq!(&serial.plan, &parallel.plan);
        prop_assert_eq!(serial.utility.to_bits(), parallel.utility.to_bits());
    }

    #[test]
    fn local_search_is_thread_invariant(cfg in arb_config(), seed in 0u64..100) {
        let inst = generate(&cfg);
        let base = GreedySolver::seeded(seed).solve(&inst).plan;
        let (serial, parallel) = at_both_thread_counts(|| {
            let mut plan = base.clone();
            let gain = LocalSearch::default().improve(&inst, &mut plan);
            (plan, gain)
        });
        prop_assert_eq!(&serial.0, &parallel.0);
        prop_assert_eq!(serial.1.to_bits(), parallel.1.to_bits());
    }

    #[test]
    fn rounding_slot_graph_is_thread_invariant(g in arb_gap()) {
        // The PR-4 rewrite replaced the rounding slot map's HashMap
        // with an index-keyed Vec; this property pins the whole
        // fractional → slot-graph → matching path to the bit across
        // thread counts, over both fractional front-ends.
        let (serial, parallel) = at_both_thread_counts(|| {
            let lp = lp_relaxation(&g).ok().map(|x| round_shmoys_tardos(&g, &x).ok());
            let mw = mw_fractional(&g, &PackingConfig::default())
                .ok()
                .map(|x| round_shmoys_tardos(&g, &x).ok());
            (lp, mw)
        });
        let flat = |r: Option<Option<epplan::gap::GapSolution>>| r.flatten();
        let (s_lp, s_mw) = serial;
        let (p_lp, p_mw) = parallel;
        for (s, p) in [(flat(s_lp), flat(p_lp)), (flat(s_mw), flat(p_mw))] {
            prop_assert_eq!(s.is_some(), p.is_some());
            if let (Some(s), Some(p)) = (s, p) {
                prop_assert_eq!(&s.assignment, &p.assignment);
                prop_assert_eq!(s.cost.to_bits(), p.cost.to_bits());
                prop_assert_eq!(&s.unassigned_jobs(), &p.unassigned_jobs());
            }
        }
    }

    #[test]
    fn dense_and_sparse_instances_solve_identically(cfg in arb_config()) {
        // The CSR instance layout contract: generating the same config
        // with `candidate_pruned` on must yield bit-identical solver
        // output — the pruned pairs (μ = 0, or unaffordable even
        // alone) can never appear in any feasible plan. Checked at
        // both thread counts so the sparse path also honours the
        // determinism contract.
        let dense_cfg = cfg.clone();
        let sparse_cfg = GeneratorConfig { candidate_pruned: true, ..cfg };
        let (serial, parallel) = at_both_thread_counts(|| {
            let dense = GapBasedSolver::default().solve(&generate(&dense_cfg));
            let sparse = GapBasedSolver::default().solve(&generate(&sparse_cfg));
            (dense, sparse)
        });
        prop_assert_eq!(&serial.0.plan, &serial.1.plan);
        prop_assert_eq!(serial.0.utility.to_bits(), serial.1.utility.to_bits());
        prop_assert_eq!(&serial.1.plan, &parallel.1.plan);
        prop_assert_eq!(parallel.0.utility.to_bits(), parallel.1.utility.to_bits());
        prop_assert_eq!(serial.1.utility.to_bits(), parallel.1.utility.to_bits());
    }

    #[test]
    fn lns_is_thread_invariant(cfg in arb_config(), seed in 0u64..50) {
        let inst = generate(&cfg);
        let (serial, parallel) =
            at_both_thread_counts(|| LnsSolver::seeded(seed).solve(&inst));
        prop_assert_eq!(&serial.plan, &parallel.plan);
        prop_assert_eq!(serial.utility.to_bits(), parallel.utility.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn long_row_mw_is_thread_invariant(g in arb_long_row_gap()) {
        let (serial, parallel) = at_both_thread_counts(|| {
            mw_fractional(&g, &PackingConfig::default())
                .ok()
                .map(|x| (round_shmoys_tardos(&g, &x).ok().map(|s| s.assignment), x))
        });
        prop_assert_eq!(serial.is_some(), parallel.is_some());
        if let (Some((s_round, s_frac)), Some((p_round, p_frac))) = (serial, parallel) {
            prop_assert_eq!(s_round, p_round);
            for j in 0..g.n_jobs() {
                let bits = |x: &epplan::gap::FractionalSolution| -> Vec<(u32, u64)> {
                    x.support(j).iter().map(|&(i, v)| (i, v.to_bits())).collect()
                };
                prop_assert_eq!(bits(&s_frac), bits(&p_frac));
            }
        }
    }
}
