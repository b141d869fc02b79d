//! The composed GAP pipeline: fractional solve → ST rounding →
//! greedy completion fallback.

use crate::packing::{mw_fractional, PackingConfig};
use crate::{
    lp_relaxation_with_budget, round_shmoys_tardos_with_budget, GapInstance, GapSolution,
};
use epplan_solve::{BudgetGuard, FailureKind, SolveBudget, SolveError};

/// Pipeline-stage label used in this solver's errors.
const STAGE: &str = "gap.pipeline";

/// How to obtain the fractional relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FractionalMethod {
    /// Pick [`FractionalMethod::Simplex`] when the number of allowed
    /// pairs is at most [`GapConfig::auto_simplex_limit`], otherwise
    /// [`FractionalMethod::MultiplicativeWeights`]. This mirrors the
    /// paper's setup: an exact LP where affordable, the
    /// Plotkin–Shmoys–Tardos relaxation at scale.
    #[default]
    Auto,
    /// Exact LP relaxation via the dense two-phase simplex.
    Simplex,
    /// Multiplicative-weights approximate fractional solver.
    MultiplicativeWeights,
}

/// Configuration of [`GapSolver`].
#[derive(Debug, Clone)]
pub struct GapConfig {
    /// Fractional-solver selection policy.
    pub method: FractionalMethod,
    /// `Auto` switches from simplex to MW above this many LP variables
    /// (allowed machine–job pairs).
    pub auto_simplex_limit: usize,
    /// Multiplicative-weights tuning.
    pub packing: PackingConfig,
    /// Before rounding, prune each job's fractional support to its top
    /// `rounding_top_k` machines (renormalized). Keeps the slot-graph
    /// matching near-linear on large MW solutions; see
    /// [`crate::FractionalSolution::prune_top_k`].
    pub rounding_top_k: usize,
    /// Work allowance for the whole pipeline. The wall-clock portion is
    /// shared across stages (each stage receives what the previous ones
    /// left); iteration caps apply per stage in that stage's natural
    /// unit. Combined with [`PackingConfig::budget`] by taking the
    /// tighter limit.
    pub budget: SolveBudget,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            method: FractionalMethod::Auto,
            auto_simplex_limit: 12_000,
            packing: PackingConfig::default(),
            rounding_top_k: 8,
            budget: SolveBudget::UNLIMITED,
        }
    }
}

/// End-to-end GAP solver: fractional relaxation, Shmoys–Tardos
/// rounding, and a greedy completion pass for any job the rounding
/// could not place (only possible when the relaxation itself was
/// infeasible or approximate).
#[derive(Debug, Clone, Default)]
pub struct GapSolver {
    /// Solver configuration.
    pub config: GapConfig,
}

impl GapSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: GapConfig) -> Self {
        GapSolver { config }
    }

    /// Solves `inst` within the configured budget.
    ///
    /// `fractional_cost` is populated when the exact simplex solved the
    /// relaxation, giving the lower bound used in approximation-ratio
    /// reporting; it stays `None` when the MW relaxation was used.
    /// A fractionally infeasible (or numerically degenerate) instance
    /// does not fail the pipeline: the solver falls back from the exact
    /// LP to the multiplicative-weights relaxation, whose output the
    /// rounding and completion passes can still turn into a best-effort
    /// partial assignment — per-job infeasibility then surfaces through
    /// [`GapSolution::unassigned_jobs`]. Typed failures are reserved
    /// for a poisoned instance (`BadInput`) and an exhausted budget
    /// (`BudgetExhausted`, carrying the best partial solution when one
    /// exists).
    pub fn solve(&self, inst: &GapInstance) -> Result<GapSolution, SolveError<GapSolution>> {
        if let Some(defect) = inst.defect() {
            return Err(SolveError::bad_input(
                STAGE,
                format!("malformed GAP instance: {defect}"),
            ));
        }
        let _sp = epplan_obs::span("gap.pipeline");
        let guard = BudgetGuard::new(self.config.budget);
        let n_pairs = inst.allowed_pairs_count();
        let use_simplex = match self.config.method {
            FractionalMethod::Auto => n_pairs <= self.config.auto_simplex_limit,
            FractionalMethod::Simplex => true,
            FractionalMethod::MultiplicativeWeights => false,
        };

        // Only the simplex optimum lower-bounds the integral cost; an
        // MW solution is approximate, and pruning changes its cost.
        let (mut frac, lp_bound) = if use_simplex {
            match lp_relaxation_with_budget(inst, guard.remaining_budget()) {
                Ok(f) => {
                    let bound = f.cost(inst);
                    (f, Some(bound))
                }
                Err(e)
                    if matches!(
                        e.kind,
                        FailureKind::Infeasible | FailureKind::NumericalInstability
                    ) =>
                {
                    // Fractionally infeasible (or pathological): fall
                    // back to the MW solver, which always produces a
                    // job-mass-1 solution (possibly overloading
                    // machines) that the rounding and completion passes
                    // can still work with.
                    (self.mw_within(inst, guard.remaining_budget())?, None)
                }
                Err(e) => return Err(e.discard_partial()),
            }
        } else {
            (self.mw_within(inst, guard.remaining_budget())?, None)
        };
        guard
            .check_deadline(STAGE)
            .map_err(SolveError::discard_partial)?;

        if self.config.rounding_top_k > 0 {
            frac.prune_top_k(self.config.rounding_top_k);
        }
        match round_shmoys_tardos_with_budget(inst, &frac, guard.remaining_budget()) {
            Ok(mut sol) => {
                complete_solution(inst, &mut sol);
                sol.fractional_cost = lp_bound;
                Ok(sol)
            }
            Err(mut e) if e.kind == FailureKind::BudgetExhausted => {
                // The partially-matched solution is still worth
                // repairing: it may be the best artifact the caller
                // gets before degrading to a pure greedy plan.
                if let Some(sol) = e.partial.as_mut() {
                    complete_solution(inst, sol);
                    sol.fractional_cost = lp_bound;
                }
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Runs the MW fractional solver under the tighter of its own
    /// configured budget and the pipeline's remaining allowance.
    fn mw_within(
        &self,
        inst: &GapInstance,
        remaining: SolveBudget,
    ) -> Result<crate::FractionalSolution, SolveError<GapSolution>> {
        let mut packing = self.config.packing.clone();
        packing.budget = packing.budget.min(remaining);
        mw_fractional(inst, &packing).map_err(SolveError::discard_partial)
    }
}

/// Post-rounding repair: enforce the ST load bound, then greedily place
/// leftover jobs within strict capacity.
fn complete_solution(inst: &GapInstance, sol: &mut GapSolution) {
    enforce_st_load_bound(inst, sol);
    // Greedy completion for any leftover job, within the ST load
    // slack (capacity + the job's own time), preferring cheap pairs.
    let leftovers = sol.unassigned_jobs();
    for j in leftovers {
        let mut best: Option<(usize, f64, f64)> = None;
        for (i, c, t) in inst.allowed_triples(j) {
            if sol.loads[i] + t <= inst.capacity(i) + 1e-9
                && best.is_none_or(|(_, bc, _)| c < bc)
            {
                best = Some((i, c, t));
            }
        }
        if let Some((i, c, t)) = best {
            sol.assignment[j] = Some(i);
            sol.loads[i] += t;
            sol.cost += c;
        }
    }
}

/// Enforces the Shmoys–Tardos load guarantee `load_i ≤ T_i + max_j
/// p_{i,j}` on the rounded solution.
///
/// For a *feasible* fractional input the rounding satisfies this by
/// construction and the pass is a no-op. When the fractional stage had
/// to run on an infeasible instance (MW fallback), machines can end up
/// arbitrarily overloaded; we evict the most expensive (lowest-utility,
/// in the GEPC reduction) jobs until the bound holds, leaving them for
/// the greedy completion pass (which respects strict capacity).
fn enforce_st_load_bound(inst: &GapInstance, sol: &mut GapSolution) {
    // One pass over the assignment builds every machine's job list
    // (ascending job ids); the eviction loops then never rescan the
    // full assignment, keeping this O(assigned + evictions·list).
    let mut on_machine: Vec<Vec<usize>> = vec![Vec::new(); inst.n_machines()];
    for (j, &mi) in sol.assignment.iter().enumerate() {
        if let Some(i) = mi {
            on_machine[i].push(j);
        }
    }
    for (i, on_i) in on_machine.into_iter().enumerate() {
        let mut on_i = on_i;
        loop {
            let max_p = on_i
                .iter()
                .map(|&j| inst.time(i, j))
                .fold(0.0f64, f64::max);
            if sol.loads[i] <= inst.capacity(i) + max_p + 1e-9 {
                break;
            }
            // Evict the most expensive job on this machine; `>=` over
            // the ascending list keeps the largest job id among cost
            // ties, matching the stable sort-and-take-last this
            // replaced.
            let mut victim: Option<(usize, f64)> = None;
            for (k, &j) in on_i.iter().enumerate() {
                let c = inst.cost(i, j);
                if victim.is_none_or(|(_, bc)| c >= bc) {
                    victim = Some((k, c));
                }
            }
            let Some((k, _)) = victim else {
                break;
            };
            let j = on_i.remove(k);
            sol.assignment[j] = None;
            sol.loads[i] -= inst.time(i, j);
            sol.cost -= inst.cost(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy;

    fn random_instance(m: usize, n: usize, seed: u64, cap_scale: f64) -> GapInstance {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let costs: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let times: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| rng.gen_range(0.5..2.0)).collect())
            .collect();
        let caps: Vec<f64> = (0..m)
            .map(|_| rng.gen_range(1.0..3.0) * cap_scale)
            .collect();
        GapInstance::from_matrices(costs, times, caps)
    }

    #[test]
    fn simplex_pipeline_beats_or_matches_greedy() {
        for seed in 0..5 {
            let g = random_instance(4, 8, seed, 3.0);
            let lp_sol = GapSolver::new(GapConfig {
                method: FractionalMethod::Simplex,
                ..Default::default()
            })
            .solve(&g)
            .unwrap();
            let greedy_sol = greedy::greedy_assign(&g);
            if lp_sol.is_complete() && greedy_sol.is_complete() {
                // LP + ST rounding is cost-optimal up to the fractional
                // bound; greedy has no guarantee. Allow small numeric slack.
                assert!(
                    lp_sol.cost <= greedy_sol.cost + 0.75,
                    "seed {seed}: lp {} vs greedy {}",
                    lp_sol.cost,
                    greedy_sol.cost
                );
            }
        }
    }

    #[test]
    fn rounding_cost_within_fractional_bound() {
        for seed in 10..16 {
            let g = random_instance(3, 9, seed, 4.0);
            let sol = GapSolver::new(GapConfig {
                method: FractionalMethod::Simplex,
                ..Default::default()
            })
            .solve(&g)
            .unwrap();
            if let Some(fc) = sol.fractional_cost {
                if sol.is_complete() {
                    assert!(sol.cost <= fc + 1e-6, "seed {seed}: {} > {fc}", sol.cost);
                }
            }
        }
    }

    #[test]
    fn lp_bound_is_the_unpruned_simplex_optimum() {
        // Pruning to one machine per job changes the fractional cost;
        // the reported bound must still be the LP optimum.
        for seed in 10..16 {
            let g = random_instance(3, 9, seed, 4.0);
            let lp = crate::lp_relaxation(&g).unwrap().cost(&g);
            let sol = GapSolver::new(GapConfig {
                method: FractionalMethod::Simplex,
                rounding_top_k: 1,
                ..Default::default()
            })
            .solve(&g)
            .unwrap();
            assert_eq!(sol.fractional_cost, Some(lp), "seed {seed}");
        }
    }

    #[test]
    fn exact_matches_pipeline_on_tiny_instances() {
        for seed in 20..30 {
            let g = random_instance(3, 6, seed, 5.0);
            let exact = crate::exact::branch_and_bound(&g).ok();
            let sol = GapSolver::default().solve(&g).unwrap();
            if let Some(e) = exact {
                assert!(sol.is_complete());
                // ST rounding cost ≤ fractional ≤ exact optimum.
                assert!(
                    sol.cost <= e.cost + 1e-6,
                    "seed {seed}: pipeline {} vs exact {}",
                    sol.cost,
                    e.cost
                );
            }
        }
    }

    #[test]
    fn auto_switches_to_mw_for_large_instances() {
        let g = random_instance(20, 30, 99, 10.0);
        let solver = GapSolver::new(GapConfig {
            auto_simplex_limit: 10, // force MW
            ..Default::default()
        });
        let sol = solver.solve(&g).unwrap();
        assert!(sol.is_complete());
        // An MW relaxation is approximate: it bounds nothing.
        assert!(sol.fractional_cost.is_none());
    }

    #[test]
    fn mw_pipeline_solution_quality() {
        let g = random_instance(6, 18, 7, 4.0);
        let mw = GapSolver::new(GapConfig {
            method: FractionalMethod::MultiplicativeWeights,
            ..Default::default()
        })
        .solve(&g)
        .unwrap();
        let lp = GapSolver::new(GapConfig {
            method: FractionalMethod::Simplex,
            ..Default::default()
        })
        .solve(&g)
        .unwrap();
        assert!(mw.is_complete());
        assert!(lp.is_complete());
        // MW is approximate; require it within a generous constant of LP.
        assert!(mw.cost <= lp.cost + 0.25 * g.n_jobs() as f64);
    }

    #[test]
    fn infeasible_instance_best_effort() {
        // Far more work than capacity: some jobs must stay unassigned,
        // but assigned jobs never break the ST load bound.
        let g = GapInstance::from_matrices(
            vec![vec![0.5; 6]],
            vec![vec![1.0; 6]],
            vec![2.0],
        );
        let sol = GapSolver::default().solve(&g).unwrap();
        assert!(!sol.is_complete());
        assert!(sol.loads[0] <= 2.0 + 1.0 + 1e-9);
    }

    #[test]
    fn poisoned_instance_is_bad_input() {
        let g = GapInstance::from_matrices(vec![vec![0.0; 2]; 3], vec![vec![0.0; 2]; 3], vec![1.0]);
        let err = GapSolver::default().solve(&g).unwrap_err();
        assert_eq!(err.kind, FailureKind::BadInput);
        assert_eq!(err.stage, STAGE);
    }

    #[test]
    fn exhausted_time_budget_is_typed() {
        let g = random_instance(6, 18, 3, 4.0);
        // A zero allowance is pre-expired by construction, so the
        // first budget check inside solve() trips deterministically —
        // no sleeping against clock granularity.
        let solver = GapSolver::new(GapConfig {
            budget: SolveBudget::from_time_limit(std::time::Duration::ZERO),
            ..Default::default()
        });
        let err = solver.solve(&g).unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
    }

    #[test]
    fn generous_budget_solves_normally() {
        let g = random_instance(4, 8, 11, 3.0);
        let solver = GapSolver::new(GapConfig {
            budget: SolveBudget::from_time_limit(std::time::Duration::from_secs(30)),
            ..Default::default()
        });
        let sol = solver.solve(&g).unwrap();
        assert!(sol.is_complete());
    }
}
