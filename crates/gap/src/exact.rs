//! Exact GAP optimum by depth-first branch-and-bound.
//!
//! Exponential in the number of jobs; intended for the small instances
//! used in tests and in the approximation-ratio ablation experiment
//! (DESIGN.md, experiment A1). Jobs are explored in order of fewest
//! allowed machines first (fail-first), and branches are pruned with an
//! admissible lower bound: current cost plus each remaining job's
//! cheapest allowed cost (capacity ignored).

use crate::{GapInstance, GapSolution};
use epplan_solve::{BudgetGuard, SolveBudget, SolveError};

/// Upper limit on jobs before we refuse to run (avoids accidental
/// exponential blow-ups in benchmarks). Exceeding it is a `BadInput`
/// error, not a panic.
pub const MAX_EXACT_JOBS: usize = 24;

/// Pipeline-stage label used in this solver's errors.
const STAGE: &str = "gap.exact";

/// Finds a minimum-cost complete assignment with no budget, or an
/// `Infeasible` error when no complete assignment satisfies the
/// capacities. Instances beyond [`MAX_EXACT_JOBS`] jobs (or poisoned
/// ones) are `BadInput` errors.
pub fn branch_and_bound(inst: &GapInstance) -> Result<GapSolution, SolveError<GapSolution>> {
    branch_and_bound_with_budget(inst, SolveBudget::UNLIMITED)
}

/// [`branch_and_bound`] under a [`SolveBudget`] spent one DFS node per
/// iteration. A `BudgetExhausted` error carries the best complete
/// assignment found before the cutoff, when one exists.
pub fn branch_and_bound_with_budget(
    inst: &GapInstance,
    budget: SolveBudget,
) -> Result<GapSolution, SolveError<GapSolution>> {
    if let Some(defect) = inst.defect() {
        return Err(SolveError::bad_input(
            STAGE,
            format!("malformed GAP instance: {defect}"),
        ));
    }
    if inst.n_jobs() > MAX_EXACT_JOBS {
        return Err(SolveError::bad_input(
            STAGE,
            format!(
                "exact solver limited to {MAX_EXACT_JOBS} jobs, got {}",
                inst.n_jobs()
            ),
        ));
    }
    let n = inst.n_jobs();
    let m = inst.n_machines();
    if n == 0 {
        return Ok(GapSolution::from_assignment(inst, Vec::new()));
    }

    // Cheapest allowed cost per job (lower-bound contribution), and the
    // job order: fewest options first.
    let mut min_cost = vec![f64::INFINITY; n];
    let mut options = vec![0usize; n];
    for j in 0..n {
        for (_, c, _) in inst.allowed_triples(j) {
            options[j] += 1;
            if c < min_cost[j] {
                min_cost[j] = c;
            }
        }
        if options[j] == 0 {
            return Err(SolveError::infeasible(
                STAGE,
                format!("job {j} has no machine that can take it"),
            ));
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&j| options[j]);
    // Suffix lower bounds over the chosen order.
    let mut suffix_lb = vec![0.0; n + 1];
    for k in (0..n).rev() {
        suffix_lb[k] = suffix_lb[k + 1] + min_cost[order[k]];
    }

    struct Ctx<'a> {
        inst: &'a GapInstance,
        order: &'a [usize],
        suffix_lb: &'a [f64],
        guard: BudgetGuard,
        loads: Vec<f64>,
        assign: Vec<Option<usize>>,
        best_cost: f64,
        best: Option<Vec<Option<usize>>>,
    }

    fn dfs(ctx: &mut Ctx<'_>, depth: usize, cost: f64) -> Result<(), SolveError<()>> {
        ctx.guard.tick(STAGE)?;
        if cost + ctx.suffix_lb[depth] >= ctx.best_cost - 1e-12 {
            return Ok(());
        }
        if depth == ctx.order.len() {
            ctx.best_cost = cost;
            ctx.best = Some(ctx.assign.clone());
            return Ok(());
        }
        let j = ctx.order[depth];
        // Try machines in increasing cost for better pruning.
        let mut ms: Vec<usize> = ctx.inst.allowed_machines(j).collect();
        ms.sort_by(|&a, &b| ctx.inst.cost(a, j).total_cmp(&ctx.inst.cost(b, j)));
        for i in ms {
            let t = ctx.inst.time(i, j);
            if ctx.loads[i] + t <= ctx.inst.capacity(i) + 1e-12 {
                ctx.loads[i] += t;
                ctx.assign[j] = Some(i);
                let r = dfs(ctx, depth + 1, cost + ctx.inst.cost(i, j));
                ctx.assign[j] = None;
                ctx.loads[i] -= t;
                r?;
            }
        }
        Ok(())
    }

    let mut ctx = Ctx {
        inst,
        order: &order,
        suffix_lb: &suffix_lb,
        guard: BudgetGuard::new(budget),
        loads: vec![0.0; m],
        assign: vec![None; n],
        best_cost: f64::INFINITY,
        best: None,
    };
    let search = dfs(&mut ctx, 0, 0.0);
    let best = ctx
        .best
        .map(|assignment| GapSolution::from_assignment(inst, assignment));
    match search {
        Ok(()) => best.ok_or_else(|| {
            SolveError::infeasible(STAGE, "no complete assignment fits the capacities")
        }),
        Err(e) => {
            // Budget ran out mid-search; the best complete assignment
            // found so far (if any) is a valid incumbent, just not
            // proven optimal.
            let mut out = e.discard_partial();
            if let Some(sol) = best {
                out = out.with_partial(sol);
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
    fn trivial_single_pair() {
        let g = GapInstance::from_matrices(vec![vec![2.0]], vec![vec![1.0]], vec![1.0]);
        let s = branch_and_bound(&g).unwrap();
        assert_eq!(s.assignment, vec![Some(0)]);
        assert_eq!(s.cost, 2.0);
    }

    #[test]
    fn picks_global_optimum_over_greedy() {
        // Both jobs prefer machine 0, which fits only one. Greedy on
        // job order would take (m0, j0) cost 0 and be forced to pay 10
        // for j1; optimum is 2 + 0.5 = 2.5.
        let g = GapInstance::from_matrices(
            vec![vec![0.0, 0.5], vec![2.0, 10.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![1.0, 1.0],
        );
        let s = branch_and_bound(&g).unwrap();
        assert_eq!(s.cost, 2.5);
        assert_eq!(s.assignment, vec![Some(1), Some(0)]);
    }

    #[test]
    fn respects_capacity() {
        // Both jobs prefer machine 0 but it fits only one.
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 1.0], vec![5.0, 5.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![1.0, 2.0],
        );
        let s = branch_and_bound(&g).unwrap();
        assert_eq!(s.cost, 6.0);
        assert!(s.within_capacity(&g, 1.0));
    }

    #[test]
    fn detects_infeasibility() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 1.0]],
            vec![vec![1.0, 1.0]],
            vec![1.5], // two unit jobs, capacity 1.5
        );
        let err = branch_and_bound(&g).unwrap_err();
        assert_eq!(err.kind, FailureKind::Infeasible);
    }

    #[test]
    fn empty_instance() {
        let g =
            GapInstance::from_matrices(vec![vec![], vec![]], vec![vec![], vec![]], vec![1.0, 1.0]);
        let s = branch_and_bound(&g).unwrap();
        assert!(s.assignment.is_empty());
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn forbidden_pairs_block_assignment() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0], vec![f64::INFINITY]],
            vec![vec![1.0], vec![1.0]],
            vec![2.0, 2.0],
        );
        let s = branch_and_bound(&g).unwrap();
        assert_eq!(s.assignment, vec![Some(0)]);
    }

    #[test]
    fn too_many_jobs_is_bad_input() {
        let zeros = vec![vec![0.0; MAX_EXACT_JOBS + 1]];
        let g = GapInstance::from_matrices(zeros.clone(), zeros, vec![1.0]);
        let err = branch_and_bound(&g).unwrap_err();
        assert_eq!(err.kind, FailureKind::BadInput);
        assert!(err.message.contains("exact solver limited"));
    }

    #[test]
    fn budget_exhaustion_may_carry_incumbent() {
        let g = GapInstance::from_matrices(
            vec![vec![0.0, 0.5, 0.3], vec![2.0, 10.0, 1.0]],
            vec![vec![1.0; 3], vec![1.0; 3]],
            vec![2.0, 2.0],
        );
        let err =
            branch_and_bound_with_budget(&g, SolveBudget::from_iteration_cap(1)).unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
        // With a roomier cap the incumbent survives as a partial.
        let err =
            branch_and_bound_with_budget(&g, SolveBudget::from_iteration_cap(5)).unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
        if let Some(sol) = err.partial {
            assert!(sol.is_complete());
        }
    }
}
