//! Shmoys–Tardos rounding of a fractional GAP solution.
//!
//! The classical scheme from *An approximation algorithm for the
//! generalized assignment problem* (Shmoys & Tardos, Math. Prog. 1993),
//! cited as \[6\] by the paper:
//!
//! 1. for each machine `i`, create `k_i = ⌈Σ_j x_{i,j}⌉` unit-capacity
//!    **slots**;
//! 2. order the jobs fractionally assigned to `i` by non-increasing
//!    processing time `p_{i,j}` and pour their fractions into the slots
//!    in that order, splitting a job across two consecutive slots when
//!    it straddles a unit boundary;
//! 3. every (job, slot) contact becomes an edge of a bipartite graph
//!    with cost `c_{i,j}`; the fractional solution is, by construction,
//!    a fractional matching saturating all jobs, so an **integral**
//!    min-cost matching saturating all jobs exists and is found with
//!    `epplan-flow`;
//! 4. assigning each job to its matched slot's machine yields cost at
//!    most the fractional cost and machine load at most
//!    `T_i + max_j p_{i,j}` (< 2·T_i after the `p ≤ T` preprocessing).
//!
//! If the matching layer nonetheless reports some job unplaceable
//! (float drift can perturb the certificate), that job falls back to
//! its highest-fraction machine rather than aborting; a job with no
//! fractional mass anywhere simply stays unassigned and is reported via
//! [`GapSolution::unassigned_jobs`].

use crate::{FractionalSolution, GapInstance, GapSolution};
use epplan_flow::min_cost_assignment_with_budget;
use epplan_solve::{FailureKind, SolveBudget, SolveError};

const EPS: f64 = 1e-9;

/// Rounds `frac` to an integral assignment with no budget. Jobs in
/// `frac.unassigned` stay unassigned; every other job is matched.
///
/// The result leaves `fractional_cost` unset: only the caller knows
/// whether `frac` was an LP optimum, and hence a lower bound.
pub fn round_shmoys_tardos(
    inst: &GapInstance,
    frac: &FractionalSolution,
) -> Result<GapSolution, SolveError<GapSolution>> {
    round_shmoys_tardos_with_budget(inst, frac, SolveBudget::UNLIMITED)
}

/// [`round_shmoys_tardos`] under a [`SolveBudget`] spent one matching
/// augmentation per iteration. A `BudgetExhausted` error carries the
/// partially-matched integral solution as its partial artifact.
pub fn round_shmoys_tardos_with_budget(
    inst: &GapInstance,
    frac: &FractionalSolution,
    budget: SolveBudget,
) -> Result<GapSolution, SolveError<GapSolution>> {
    if let Some(defect) = inst.defect() {
        return Err(SolveError::bad_input(
            "gap.rounding",
            format!("malformed GAP instance: {defect}"),
        ));
    }
    let m = inst.n_machines();
    let n = inst.n_jobs();
    if frac.n_machines() != m || frac.n_jobs() != n {
        return Err(SolveError::bad_input(
            "gap.rounding",
            format!(
                "fractional solution is {} × {} but instance is {m} × {n}",
                frac.n_machines(),
                frac.n_jobs()
            ),
        ));
    }

    let mut sp = epplan_obs::span("gap.rounding");

    // Jobs that carry fractional mass. The reverse map (job id → index
    // in `active`) is an index-keyed Vec: dense, O(1), and free of the
    // hash-order hazards the determinism contract bans.
    let active: Vec<usize> = (0..n).filter(|&j| frac.job_mass(j) > 0.5).collect();
    let mut job_slot_index = vec![usize::MAX; n];
    for (k, &j) in active.iter().enumerate() {
        job_slot_index[j] = k;
    }

    // Gather every (machine, job, fraction) contact job-major (support
    // lists are machine-ascending), then stable-sort by machine: each
    // machine's run keeps ascending job order — the same scan order the
    // dense layout produced — in O(nnz log nnz) instead of O(m·n).
    let mut triples: Vec<(usize, usize, f64)> = Vec::new();
    for &j in &active {
        for &(i, v) in frac.support(j) {
            if v > EPS {
                triples.push((i as usize, j, v));
            }
        }
    }
    triples.sort_by_key(|&(i, _, _)| i);

    // Build slots machine by machine (runs of equal machine in the
    // sorted triples, ascending — the dense `0..m` order minus the
    // machines with no mass).
    let mut slot_machine: Vec<usize> = Vec::new(); // slot id → machine
    let mut edges: Vec<(usize, usize, f64)> = Vec::new(); // (job idx, slot id, cost)
    let mut pos = 0usize;
    while pos < triples.len() {
        let i = triples[pos].0;
        let mut end = pos;
        while end < triples.len() && triples[end].0 == i {
            end += 1;
        }
        let mut jobs: Vec<(usize, f64)> =
            triples[pos..end].iter().map(|&(_, j, v)| (j, v)).collect();
        pos = end;
        // Non-increasing processing time (ties by job id for determinism).
        jobs.sort_by(|a, b| {
            inst.time(i, b.0)
                .total_cmp(&inst.time(i, a.0))
                .then(a.0.cmp(&b.0))
        });
        let total: f64 = jobs.iter().map(|&(_, v)| v).sum();
        let k_i = (total - EPS).ceil().max(1.0) as usize;
        let base = slot_machine.len();
        slot_machine.extend(std::iter::repeat_n(i, k_i));

        let mut slot = 0usize;
        let mut fill = 0.0f64;
        for (j, mut v) in jobs {
            let jk = job_slot_index[j];
            while v > EPS {
                debug_assert!(slot < k_i, "slot overflow on machine {i}");
                let take = v.min(1.0 - fill);
                edges.push((jk, base + slot, inst.cost(i, j)));
                v -= take;
                fill += take;
                if fill >= 1.0 - EPS && slot + 1 < k_i {
                    slot += 1;
                    fill = 0.0;
                } else if fill >= 1.0 - EPS {
                    // Last slot exactly full; any residual v is float
                    // noise.
                    debug_assert!(v <= 1e-6, "residual mass {v}");
                    break;
                }
            }
        }
    }

    // Slot-graph size: the knob that drives the matching's cost.
    sp.add_iters(slot_machine.len() as u64);
    epplan_obs::counter_add("rounding.slots", slot_machine.len() as u64);
    epplan_obs::counter_add("rounding.edges", edges.len() as u64);

    // Deterministic fault injection in front of the matching dispatch
    // (the augmentation loop has its own `flow.mcmf.augment` site).
    if let Some(action) = epplan_fault::point("gap.rounding.match") {
        return Err(SolveError::from_fault(
            "gap.rounding",
            "gap.rounding.match",
            action,
        ));
    }
    let caps = vec![1usize; slot_machine.len()];
    let matching =
        min_cost_assignment_with_budget(active.len(), slot_machine.len(), &edges, &caps, budget);

    // Each active job's highest-fraction machine, the fallback when the
    // matching cannot place it. `None` only for a job with no mass
    // anywhere — which `active` excludes, but stay defensive.
    let fallback_machine = |j: usize| -> Option<usize> {
        frac.support(j)
            .iter()
            .filter(|&&(_, v)| v > EPS)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(i, _)| i as usize)
    };

    let place = |left_to_right: &[usize]| -> Vec<Option<usize>> {
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        for (k, &slot) in left_to_right.iter().enumerate() {
            if slot != usize::MAX {
                assignment[active[k]] = Some(slot_machine[slot]);
            }
        }
        assignment
    };

    let finish = |assignment| GapSolution::from_assignment(inst, assignment);

    match matching {
        Ok(a) => Ok(finish(place(&a.left_to_right))),
        Err(e) if e.kind == FailureKind::Infeasible => {
            // Should not happen (the fractional solution certifies a
            // saturating fractional matching), but degrade per job: keep
            // what the partial matching placed and send each unplaced
            // active job to its highest-fraction machine. Jobs with no
            // fractional support stay unassigned and surface through
            // `GapSolution::unassigned_jobs`.
            let mut assignment = match e.partial {
                Some(partial) => place(&partial.left_to_right),
                None => vec![None; n],
            };
            for &j in &active {
                if assignment[j].is_none() {
                    assignment[j] = fallback_machine(j);
                }
            }
            Ok(finish(assignment))
        }
        Err(e) if e.kind == FailureKind::BudgetExhausted => {
            let partial_assignment = match e.partial {
                Some(ref partial) => place(&partial.left_to_right),
                None => vec![None; n],
            };
            Err(e.discard_partial().with_partial(finish(partial_assignment)))
        }
        Err(e) => Err(e.discard_partial()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_relaxation;
    use crate::packing::{mw_fractional, PackingConfig};

    /// Load bound from the ST theorem: `T_i + max_{j assigned} p_{i,j}`.
    fn st_load_ok(inst: &GapInstance, sol: &GapSolution) -> bool {
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

    #[test]
    fn integral_fractional_round_trips() {
        // Already-integral fractional solution must round to itself.
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 5.0], vec![5.0, 1.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![2.0, 2.0],
        );
        let x = lp_relaxation(&g).unwrap();
        let s = round_shmoys_tardos(&g, &x).unwrap();
        assert!(s.is_complete());
        assert_eq!(s.assignment, vec![Some(0), Some(1)]);
        assert!((s.cost - 2.0).abs() < 1e-7);
    }

    #[test]
    fn cost_at_most_fractional_plus_eps() {
        let g = GapInstance::from_matrices(
            vec![
                vec![0.2, 0.8, 0.4, 0.6],
                vec![0.7, 0.1, 0.9, 0.3],
                vec![0.5, 0.5, 0.2, 0.8],
            ],
            vec![
                vec![1.0, 2.0, 1.0, 2.0],
                vec![2.0, 1.0, 2.0, 1.0],
                vec![1.5, 1.5, 1.5, 1.5],
            ],
            vec![3.0, 3.0, 3.0],
        );
        let x = lp_relaxation(&g).unwrap();
        let s = round_shmoys_tardos(&g, &x).unwrap();
        assert!(s.is_complete());
        // The ST theorem: integral cost ≤ fractional cost.
        assert!(
            s.cost <= x.cost(&g) + 1e-6,
            "integral {} > fractional {}",
            s.cost,
            x.cost(&g)
        );
        assert!(st_load_ok(&g, &s));
    }

    #[test]
    fn load_bound_holds_under_pressure() {
        // Tight capacities force genuinely fractional LP solutions.
        let g = GapInstance::from_matrices(
            vec![vec![0.0, 0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0, 1.0]],
            vec![vec![1.0, 1.0, 1.0, 1.0], vec![1.0, 1.0, 1.0, 1.0]],
            vec![2.0, 2.0],
        );
        let x = lp_relaxation(&g).unwrap();
        let s = round_shmoys_tardos(&g, &x).unwrap();
        assert!(s.is_complete());
        assert!(st_load_ok(&g, &s));
    }

    #[test]
    fn works_on_mw_fractional_input() {
        let g = GapInstance::from_matrices(
            vec![vec![0.3, 0.6, 0.1], vec![0.4, 0.2, 0.9], vec![0.8, 0.5, 0.3]],
            vec![vec![1.0; 3], vec![1.0; 3], vec![1.0; 3]],
            vec![1.5, 1.5, 1.5],
        );
        let x = mw_fractional(&g, &PackingConfig::default()).unwrap();
        let s = round_shmoys_tardos(&g, &x).unwrap();
        assert!(s.is_complete());
        assert!(st_load_ok(&g, &s));
    }

    #[test]
    fn unassigned_jobs_stay_unassigned() {
        let g = GapInstance::from_matrices(
            vec![vec![f64::INFINITY, 1.0]],
            vec![vec![1.0, 1.0]],
            vec![5.0],
        );
        let x = lp_relaxation(&g).unwrap();
        assert_eq!(x.unassigned, vec![0]);
        let s = round_shmoys_tardos(&g, &x).unwrap();
        assert_eq!(s.assignment[0], None);
        assert_eq!(s.assignment[1], Some(0));
    }

    #[test]
    fn empty_instance() {
        let g = GapInstance::from_matrices(vec![vec![]], vec![vec![]], vec![1.0]);
        let x = lp_relaxation(&g).unwrap();
        let s = round_shmoys_tardos(&g, &x).unwrap();
        assert!(s.assignment.is_empty());
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn dimension_mismatch_is_bad_input() {
        let g = GapInstance::from_matrices(
            vec![vec![0.0; 2]; 2],
            vec![vec![0.0; 2]; 2],
            vec![1.0, 1.0],
        );
        let x = FractionalSolution::zero(3, 2);
        let err = round_shmoys_tardos(&g, &x).unwrap_err();
        assert_eq!(err.kind, FailureKind::BadInput);
        assert_eq!(err.stage, "gap.rounding");
    }

    #[test]
    fn poisoned_instance_is_bad_input() {
        let g = GapInstance::from_matrices(
            vec![vec![0.0; 2]; 2],
            vec![vec![0.0; 2]; 2],
            vec![-1.0, 1.0],
        );
        let x = FractionalSolution::zero(2, 2);
        let err = round_shmoys_tardos(&g, &x).unwrap_err();
        assert_eq!(err.kind, FailureKind::BadInput);
    }

    #[test]
    fn budget_exhaustion_carries_partial_solution() {
        let g = GapInstance::from_matrices(
            vec![vec![0.2, 0.8, 0.4], vec![0.7, 0.1, 0.9]],
            vec![vec![1.0; 3], vec![1.0; 3]],
            vec![2.0, 2.0],
        );
        let x = lp_relaxation(&g).unwrap();
        let err = round_shmoys_tardos_with_budget(&g, &x, SolveBudget::from_iteration_cap(1))
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
        let partial = err.partial.expect("partially-matched solution");
        // At most one augmentation ran, so at most one job is placed —
        // but the artifact is still a structurally valid GapSolution.
        assert!(partial.assignment.iter().flatten().count() <= 1);
        assert!(partial.fractional_cost.is_none());
    }

    #[test]
    fn infeasible_matching_falls_back_per_job() {
        // A doctored fractional solution (sub-unit masses, as a drifted
        // MW average could produce): three active jobs with mass 0.6
        // each on one machine yield total mass 1.8 → only 2 slots, so
        // the saturating matching is infeasible. The rounder must not
        // panic: the unmatched job falls back to its highest-fraction
        // machine and every job ends up placed.
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 1.0, 1.0]],
            vec![vec![1.0, 1.0, 1.0]],
            vec![5.0],
        );
        let mut x = FractionalSolution::zero(1, 3);
        for j in 0..3 {
            x.set(0, j, 0.6);
        }
        let s = round_shmoys_tardos(&g, &x).unwrap();
        for j in 0..3 {
            assert_eq!(s.assignment[j], Some(0), "job {j} dropped");
        }
    }
}
