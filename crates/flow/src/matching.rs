use epplan_solve::{SolveBudget, SolveError};

use crate::{EdgeId, MinCostFlow};

/// An assignment of every left vertex to one right vertex.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// `left_to_right[l]` is the right vertex chosen for left vertex `l`.
    /// In the *partial* assignment attached to an `Infeasible` error,
    /// unplaceable left vertices hold `usize::MAX`.
    pub left_to_right: Vec<usize>,
    /// Total cost of the chosen edges.
    pub cost: f64,
}

/// Pipeline-stage label used in this solver's errors.
const STAGE: &str = "flow.matching";

/// Minimum-cost assignment saturating all left vertices.
///
/// Given a bipartite graph described by `edges = (left, right, cost)`
/// and a per-right-vertex capacity, finds an assignment of **every**
/// left vertex to an adjacent right vertex such that no right vertex
/// exceeds its capacity and total cost is minimum.
///
/// When no complete assignment exists the call fails with an
/// [`epplan_solve::FailureKind::Infeasible`] error whose partial
/// artifact is the best *incomplete* assignment found (unmatched left
/// vertices hold `usize::MAX`), so callers can degrade instead of
/// aborting.
///
/// This is exactly the integral matching step of the Shmoys–Tardos GAP
/// rounding: left vertices are jobs, right vertices are machine slots.
///
/// # Example
/// ```
/// use epplan_flow::min_cost_assignment;
/// // 2 jobs, 2 slots with capacity 1 each.
/// let edges = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 4.0), (1, 1, 8.0)];
/// let a = min_cost_assignment(2, 2, &edges, &[1, 1]).unwrap();
/// // job 1 must not steal slot 0 from job 0: 2 + 4 < 1 + 8.
/// assert_eq!(a.left_to_right, vec![1, 0]);
/// assert_eq!(a.cost, 6.0);
/// ```
pub fn min_cost_assignment(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, f64)],
    right_capacity: &[usize],
) -> Result<Assignment, SolveError<Assignment>> {
    min_cost_assignment_with_budget(n_left, n_right, edges, right_capacity, SolveBudget::UNLIMITED)
}

/// [`min_cost_assignment`] under `budget`; the underlying flow spends
/// one budget iteration per augmentation. A `BudgetExhausted` error
/// carries the (incomplete) assignment routed so far as its partial
/// artifact.
pub fn min_cost_assignment_with_budget(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, f64)],
    right_capacity: &[usize],
    budget: SolveBudget,
) -> Result<Assignment, SolveError<Assignment>> {
    if right_capacity.len() != n_right {
        return Err(SolveError::bad_input(
            STAGE,
            format!(
                "capacity vector has {} entries for {n_right} right vertices",
                right_capacity.len()
            ),
        ));
    }
    if let Some(&(l, r, _)) = edges.iter().find(|&&(l, r, _)| l >= n_left || r >= n_right) {
        return Err(SolveError::bad_input(
            STAGE,
            format!("edge ({l}, {r}) endpoint out of range ({n_left} × {n_right})"),
        ));
    }
    if let Some(&(l, r, c)) = edges.iter().find(|&&(_, _, c)| !c.is_finite()) {
        return Err(SolveError::bad_input(
            STAGE,
            format!("edge ({l}, {r}) has non-finite cost {c}"),
        ));
    }
    if n_left == 0 {
        return Ok(Assignment {
            left_to_right: Vec::new(),
            cost: 0.0,
        });
    }
    // Node layout: 0 = source, 1..=n_left = lefts,
    // n_left+1..=n_left+n_right = rights, last = sink.
    let s = 0;
    let left = |l: usize| 1 + l;
    let right = |r: usize| 1 + n_left + r;
    let t = 1 + n_left + n_right;
    let mut g = MinCostFlow::new(t + 1);
    for l in 0..n_left {
        g.add_edge(s, left(l), 1.0, 0.0);
    }
    for (r, &cap) in right_capacity.iter().enumerate() {
        g.add_edge(right(r), t, cap as f64, 0.0);
    }
    let mut ids: Vec<(EdgeId, usize, usize)> = Vec::with_capacity(edges.len());
    for &(l, r, c) in edges {
        ids.push((g.add_edge(left(l), right(r), 1.0, c), l, r));
    }
    let extract = |g: &MinCostFlow, ids: &[(EdgeId, usize, usize)], cost: f64| {
        let mut left_to_right = vec![usize::MAX; n_left];
        for &(id, l, r) in ids {
            if g.flow_on(id) > 0.5 {
                left_to_right[l] = r;
            }
        }
        Assignment { left_to_right, cost }
    };
    let res = match g.max_flow_min_cost(s, t, budget) {
        Ok(res) => res,
        Err(e) => {
            let partial_cost = e.partial.map_or(0.0, |f| f.cost);
            let partial = extract(&g, &ids, partial_cost);
            return Err(e.discard_partial().with_partial(partial));
        }
    };
    if (res.flow - n_left as f64).abs() > 1e-6 {
        let unplaced = n_left - res.flow.round() as usize;
        let partial = extract(&g, &ids, res.cost);
        return Err(SolveError::infeasible(
            STAGE,
            format!("{unplaced} of {n_left} left vertices cannot be matched"),
        )
        .with_partial(partial));
    }
    let assignment = extract(&g, &ids, res.cost);
    debug_assert!(assignment.left_to_right.iter().all(|&r| r != usize::MAX));
    Ok(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epplan_solve::FailureKind;

    #[test]
    fn perfect_matching_unit_capacities() {
        // 3 jobs, 3 slots, cost matrix with known optimum 1+2+3.
        let edges = [
            (0, 0, 1.0),
            (0, 1, 9.0),
            (0, 2, 9.0),
            (1, 0, 9.0),
            (1, 1, 2.0),
            (1, 2, 9.0),
            (2, 0, 9.0),
            (2, 1, 9.0),
            (2, 2, 3.0),
        ];
        let a = min_cost_assignment(3, 3, &edges, &[1, 1, 1]).unwrap();
        assert_eq!(a.left_to_right, vec![0, 1, 2]);
        assert_eq!(a.cost, 6.0);
    }

    #[test]
    fn capacity_two_slot_takes_both() {
        let edges = [(0, 0, 1.0), (1, 0, 1.0), (1, 1, 0.5)];
        let a = min_cost_assignment(2, 2, &edges, &[2, 1]).unwrap();
        assert_eq!(a.left_to_right[0], 0);
        assert_eq!(a.left_to_right[1], 1);
        assert_eq!(a.cost, 1.5);
    }

    #[test]
    fn infeasible_when_capacity_insufficient() {
        let edges = [(0, 0, 1.0), (1, 0, 1.0)];
        let e = min_cost_assignment(2, 1, &edges, &[1]).unwrap_err();
        assert_eq!(e.kind, FailureKind::Infeasible);
        // The partial assignment places exactly one of the two jobs.
        let partial = e.partial.expect("partial assignment");
        let placed = partial.left_to_right.iter().filter(|&&r| r != usize::MAX).count();
        assert_eq!(placed, 1);
    }

    #[test]
    fn infeasible_when_left_vertex_isolated() {
        let edges = [(0, 0, 1.0)];
        let e = min_cost_assignment(2, 1, &edges, &[2]).unwrap_err();
        assert_eq!(e.kind, FailureKind::Infeasible);
        let partial = e.partial.expect("partial assignment");
        assert_eq!(partial.left_to_right[0], 0);
        assert_eq!(partial.left_to_right[1], usize::MAX);
    }

    #[test]
    fn empty_left_is_trivially_assigned() {
        let a = min_cost_assignment(0, 3, &[], &[1, 1, 1]).unwrap();
        assert!(a.left_to_right.is_empty());
        assert_eq!(a.cost, 0.0);
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        // Capacity vector of the wrong length.
        let e = min_cost_assignment(1, 2, &[(0, 0, 1.0)], &[1]).unwrap_err();
        assert_eq!(e.kind, FailureKind::BadInput);
        // Edge endpoint out of range.
        let e = min_cost_assignment(1, 1, &[(0, 7, 1.0)], &[1]).unwrap_err();
        assert_eq!(e.kind, FailureKind::BadInput);
        // Non-finite cost.
        let e = min_cost_assignment(1, 1, &[(0, 0, f64::NAN)], &[1]).unwrap_err();
        assert_eq!(e.kind, FailureKind::BadInput);
    }

    #[test]
    fn negative_costs_allowed() {
        let edges = [(0, 0, -2.0), (0, 1, 1.0), (1, 0, -3.0), (1, 1, -1.0)];
        let a = min_cost_assignment(2, 2, &edges, &[1, 1]).unwrap();
        // Optimal: 0→0 (-2) + 1→1 (-1) = -3 vs 0→1 (1) + 1→0 (-3) = -2.
        assert_eq!(a.cost, -3.0);
        assert_eq!(a.left_to_right, vec![0, 1]);
    }

    #[test]
    fn parallel_edges_pick_cheapest() {
        let edges = [(0, 0, 5.0), (0, 0, 2.0)];
        let a = min_cost_assignment(1, 1, &edges, &[1]).unwrap();
        assert_eq!(a.cost, 2.0);
    }

    #[test]
    fn greedy_would_be_suboptimal() {
        // Greedy gives 0→A (cost 0) forcing 1→B (cost 10) = 10;
        // optimum is 0→B (1) + 1→A (2) = 3.
        let edges = [(0, 0, 0.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 10.0)];
        let a = min_cost_assignment(2, 2, &edges, &[1, 1]).unwrap();
        assert_eq!(a.cost, 3.0);
    }

    #[test]
    fn budget_exhaustion_carries_partial_assignment() {
        // Two jobs, two slots; one augmentation allowed.
        let edges = [(0, 0, 1.0), (1, 1, 2.0)];
        let e = min_cost_assignment_with_budget(
            2,
            2,
            &edges,
            &[1, 1],
            SolveBudget::from_iteration_cap(1),
        )
        .unwrap_err();
        assert_eq!(e.kind, FailureKind::BudgetExhausted);
        let partial = e.partial.expect("partial assignment");
        let placed = partial.left_to_right.iter().filter(|&&r| r != usize::MAX).count();
        assert_eq!(placed, 1);
    }
}
