//! Exact LP relaxation of GAP via the dense simplex in `epplan-lp`.
//!
//! Variables `x_{i,j} ≥ 0` for every *allowed* machine–job pair;
//! `Σ_i x_{i,j} = 1` per assignable job; `Σ_j p_{i,j} x_{i,j} ≤ T_i`
//! per machine. Jobs with no allowed machine are reported in
//! [`FractionalSolution::unassigned`] rather than making the whole LP
//! infeasible — the ξ-GEPC layer turns those into lower-bound
//! shortfall diagnostics.
//!
//! Failures follow the `epplan-solve` contract: a poisoned instance is
//! `BadInput`, an over-constrained system is `Infeasible`, and a pivot
//! loop stopped by a [`SolveBudget`] is `BudgetExhausted` carrying the
//! feasible point reached so far as a partial fractional solution.

use crate::{FractionalSolution, GapInstance};
use epplan_lp::{Problem, Relation};
use epplan_solve::{SolveBudget, SolveError};

/// Solves the LP relaxation exactly with no budget. Returns the
/// fractional solution (with `unassigned` holding jobs that no machine
/// can take) or a typed error when the remaining system is infeasible.
pub fn lp_relaxation(inst: &GapInstance) -> Result<FractionalSolution, SolveError<FractionalSolution>> {
    lp_relaxation_with_budget(inst, SolveBudget::UNLIMITED)
}

/// [`lp_relaxation`] under a [`SolveBudget`] spent one pivot per
/// iteration. On `BudgetExhausted` the error carries the last feasible
/// point as a partial fractional solution when phase 1 completed.
pub fn lp_relaxation_with_budget(
    inst: &GapInstance,
    budget: SolveBudget,
) -> Result<FractionalSolution, SolveError<FractionalSolution>> {
    if let Some(defect) = inst.defect() {
        return Err(SolveError::bad_input(
            "gap.lp_relax",
            format!("malformed GAP instance: {defect}"),
        ));
    }
    let mut sp = epplan_obs::span("gap.lp_relax");
    let m = inst.n_machines();
    let n = inst.n_jobs();
    let unassignable = inst.unassignable_jobs();

    // Sparse variable numbering over allowed pairs only, machine-major
    // ((i, j) ascending) — the same order the old dense `i × j` scan
    // enumerated, so the simplex sees identical columns and pivots. The
    // pairs come out of the candidate iterator job-major; one sort on
    // the integer key restores machine-major without ever allocating an
    // m × n table.
    let mut pairs: Vec<(usize, usize, f64, f64)> = Vec::new();
    for j in 0..n {
        for (i, c, t) in inst.allowed_triples(j) {
            pairs.push((i, j, c, t));
        }
    }
    pairs.sort_unstable_by_key(|&(i, j, _, _)| (i, j));

    let mut lp = Problem::minimize(pairs.len());
    let obj: Vec<(usize, f64)> = pairs
        .iter()
        .enumerate()
        .map(|(v, &(_, _, c, _))| (v, c))
        .collect();
    lp.set_objective(&obj);

    // Assignment constraints for assignable jobs; machine-major pair
    // order makes each job's variable list i-ascending for free.
    let mut job_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (v, &(_, j, _, _)) in pairs.iter().enumerate() {
        job_rows[j].push((v, 1.0));
    }
    for (j, row) in job_rows.into_iter().enumerate() {
        if unassignable.contains(&j) {
            continue;
        }
        lp.add_constraint(&row, Relation::Eq, 1.0);
    }
    // Capacity constraints: contiguous same-machine runs of the sorted
    // pairs (machines ascending, jobs ascending within each run).
    let mut pos = 0usize;
    while pos < pairs.len() {
        let i = pairs[pos].0;
        let mut end = pos;
        let mut row: Vec<(usize, f64)> = Vec::new();
        while end < pairs.len() && pairs[end].0 == i {
            row.push((end, pairs[end].3));
            end += 1;
        }
        pos = end;
        lp.add_constraint(&row, Relation::Le, inst.capacity(i));
    }

    let extract = |x: &[f64]| {
        let mut frac = FractionalSolution::zero(m, n);
        for (v, &(i, j, _, _)) in pairs.iter().enumerate() {
            let val = x[v];
            if val > 1e-12 {
                frac.set(i, j, val.min(1.0));
            }
        }
        frac.unassigned = unassignable.clone();
        frac
    };

    // Deterministic fault injection in front of the simplex dispatch
    // (the pivot loop has its own `lp.simplex.pivot` site).
    if let Some(action) = epplan_fault::point("gap.lp_relax.solve") {
        return Err(SolveError::from_fault(
            "gap.lp_relax",
            "gap.lp_relax.solve",
            action,
        ));
    }
    match lp.solve_with_budget(budget) {
        Ok(sol) => {
            sp.add_iters(sol.pivots);
            Ok(extract(&sol.x))
        }
        Err(e) => {
            // A partial simplex point satisfies all constraints
            // (including the per-job equalities), so it converts to a
            // valid — merely suboptimal — fractional solution.
            let partial = e.partial.as_ref().map(|p| extract(&p.x));
            let mut out = e.discard_partial();
            if let Some(frac) = partial {
                out = out.with_partial(frac);
            }
            Err(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epplan_solve::FailureKind;

    #[test]
    fn relaxation_of_easy_instance_is_integral() {
        // Plenty of capacity: each job goes wholly to its cheapest machine.
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 5.0], vec![5.0, 1.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![10.0, 10.0],
        );
        let x = lp_relaxation(&g).unwrap();
        assert!(x.check(&g, 1e-7).is_ok());
        assert!((x.cost(&g) - 2.0).abs() < 1e-7);
        assert!((x.get(0, 0) - 1.0).abs() < 1e-7);
        assert!((x.get(1, 1) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn capacity_forces_split_or_reroute() {
        // Machine 0 is cheap but can hold only one unit-time job.
        let g = GapInstance::from_matrices(
            vec![vec![0.0, 0.0], vec![10.0, 10.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![1.0, 10.0],
        );
        let x = lp_relaxation(&g).unwrap();
        assert!(x.check(&g, 1e-7).is_ok());
        let loads = x.loads(&g);
        assert!(loads[0] <= 1.0 + 1e-7);
        // One job's worth of mass must be on machine 1 → cost 10.
        assert!((x.cost(&g) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_cost_lower_bounds_integral() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 4.0, 2.0], vec![2.0, 1.0, 3.0]],
            vec![vec![1.0, 2.0, 1.5], vec![2.0, 1.0, 1.0]],
            vec![2.5, 2.0],
        );
        let x = lp_relaxation(&g).unwrap();
        let exact = crate::exact::branch_and_bound(&g).unwrap();
        assert!(x.cost(&g) <= exact.cost + 1e-7);
    }

    #[test]
    fn infeasible_capacities() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0], vec![1.0]],
            vec![vec![5.0], vec![5.0]],
            vec![1.0, 1.0], // job needs 5, both capacities are 1
        );
        // The job is not allowed anywhere → reported unassigned, LP trivial.
        let x = lp_relaxation(&g).unwrap();
        assert_eq!(x.unassigned, vec![0]);
    }

    #[test]
    fn genuinely_infeasible_lp() {
        // Machine 1 forbidden for both jobs (p=1 > 0.5); machine 0 can
        // take only one job fractionally (total work 1.8 > cap 0.9).
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![vec![0.9, 0.9], vec![1.0, 1.0]],
            vec![0.9, 0.5],
        );
        let err = lp_relaxation(&g).unwrap_err();
        assert_eq!(err.kind, FailureKind::Infeasible);
    }

    #[test]
    fn poisoned_instance_is_bad_input() {
        let g = GapInstance::from_matrices(vec![vec![0.0; 2]; 2], vec![vec![0.0; 2]; 2], vec![1.0]);
        let err = lp_relaxation(&g).unwrap_err();
        assert_eq!(err.kind, FailureKind::BadInput);
        assert_eq!(err.stage, "gap.lp_relax");
    }

    #[test]
    fn budget_exhaustion_surfaces() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 4.0, 2.0], vec![2.0, 1.0, 3.0]],
            vec![vec![1.0, 2.0, 1.5], vec![2.0, 1.0, 1.0]],
            vec![2.5, 2.0],
        );
        let err =
            lp_relaxation_with_budget(&g, SolveBudget::from_iteration_cap(1)).unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
    }
}
