use std::cmp::Reverse;
use std::collections::BinaryHeap;

use epplan_solve::{BudgetGuard, SolveBudget, SolveError};

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

/// Pipeline-stage label used in this solver's errors and span.
const STAGE: &str = "flow.matching";

/// Marks "no vertex" in the match, predecessor and holder lists.
const NONE: usize = usize::MAX;

/// Minimum-cost assignment saturating all left vertices.
///
/// Given a bipartite graph described by `edges = (left, right, cost)`
/// and a per-right-vertex capacity, finds an assignment of **every**
/// left vertex to an adjacent right vertex such that no right vertex
/// exceeds its capacity and total cost is minimum. Costs may be
/// negative; of several parallel edges between one pair, the cheapest
/// counts.
///
/// When no complete assignment exists the call fails with an
/// [`epplan_solve::FailureKind::Infeasible`] error whose partial
/// artifact is a maximum-cardinality assignment (unmatched left
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

/// [`min_cost_assignment`] under `budget`, spent one iteration per
/// augmentation. A `BudgetExhausted` error carries the (incomplete)
/// assignment matched so far as its partial artifact.
///
/// Left vertices are added in ascending order, each by one shortest
/// augmenting path: Dijkstra from that vertex alone over the residual
/// graph, on reduced costs `c + π_l − π_r` (left→right, unmatched
/// pairs) and `0` (right→left, matched pairs), stopped at the first
/// right vertex with spare capacity. Initial potentials `π_l =
/// −min_r c(l, r)`, `π_r = 0` make every reduced cost non-negative, and
/// shifting each node settled before the free vertex by `dist − D`
/// keeps them so. The matching therefore stays cost-minimal for the
/// lefts placed so far, and a left with no augmenting path stays
/// unmatched without disturbing the others.
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
    let mut sp = epplan_obs::span(STAGE);
    let mut m = Matcher::new(n_left, n_right, edges, right_capacity);
    let mut guard = BudgetGuard::new(budget);
    let mut unplaced = 0usize;
    let mut outcome = Ok(());
    for s in 0..n_left {
        let Some((free, d)) = m.search(s) else {
            unplaced += 1;
            continue;
        };
        // Deterministic fault injection, then the real budget: both
        // exits carry the assignment matched so far. Ticking only once
        // a path exists keeps an exactly-budgeted run from failing.
        if let Some(action) = epplan_fault::point("flow.mcmf.augment") {
            outcome = Err(SolveError::from_fault(STAGE, "flow.mcmf.augment", action));
            break;
        }
        if let Err(e) = guard.tick(STAGE) {
            outcome = Err(e.discard_partial());
            break;
        }
        m.augment(free, d);
    }
    sp.add_iters(guard.iterations());
    epplan_obs::counter_add("flow.augmentations", guard.iterations());
    let assignment = m.into_assignment();
    match outcome {
        Err(e) => Err(e.with_partial(assignment)),
        Ok(()) if unplaced > 0 => Err(SolveError::infeasible(
            STAGE,
            format!("{unplaced} of {n_left} left vertices cannot be matched"),
        )
        .with_partial(assignment)),
        Ok(()) => Ok(assignment),
    }
}

/// Search state of [`min_cost_assignment_with_budget`], all in flat
/// arrays. Nodes are numbered lefts first (`0..n_left`), then rights
/// (`n_left + r`).
struct Matcher {
    n_left: usize,
    /// CSR adjacency of each left: `(right, cost)` in input order.
    row_start: Vec<usize>,
    adj: Vec<(usize, f64)>,
    /// Potential of every node.
    pot: Vec<f64>,
    /// Tentative distance of every node in the current search; `∞`
    /// outside it.
    dist: Vec<f64>,
    /// Nodes whose `dist` the current search set.
    touched: Vec<usize>,
    /// Dijkstra queue keyed by `(dist.to_bits(), node)`: distances are
    /// non-negative, where bit order is `total_cmp` order, so the
    /// smallest distance pops first and ties go to the smaller node id.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Left a right was reached from in the current search.
    pred: Vec<usize>,
    /// Right each left is matched to, or `NONE`.
    matched: Vec<usize>,
    /// Capacity each right has left.
    spare: Vec<usize>,
    /// Lefts matched to each right, as an intrusive list: `head[r]` is
    /// the first left and `next[l]` the one after `l`.
    head: Vec<usize>,
    next: Vec<usize>,
}

impl Matcher {
    fn new(
        n_left: usize,
        n_right: usize,
        edges: &[(usize, usize, f64)],
        capacity: &[usize],
    ) -> Self {
        // Counting sort into CSR rows: `row_start[l]` first counts row
        // `l`, becomes its end after the prefix sum, and is walked back
        // to its start while edges are placed in reverse, which keeps
        // input order inside each row.
        let mut row_start = vec![0usize; n_left + 1];
        for &(l, _, _) in edges {
            row_start[l] += 1;
        }
        for l in 1..=n_left {
            row_start[l] += row_start[l - 1];
        }
        let mut adj = vec![(0usize, 0.0f64); edges.len()];
        for &(l, r, c) in edges.iter().rev() {
            row_start[l] -= 1;
            adj[row_start[l]] = (r, c);
        }
        let mut pot = vec![0.0f64; n_left + n_right];
        for l in 0..n_left {
            let row = &adj[row_start[l]..row_start[l + 1]];
            if let Some(min) = row.iter().map(|&(_, c)| c).min_by(f64::total_cmp) {
                pot[l] = -min;
            }
        }
        Matcher {
            n_left,
            row_start,
            adj,
            pot,
            dist: vec![f64::INFINITY; n_left + n_right],
            touched: Vec::with_capacity(n_left + n_right),
            heap: BinaryHeap::with_capacity(n_left + n_right),
            pred: vec![NONE; n_right],
            matched: vec![NONE; n_left],
            spare: capacity.to_vec(),
            head: vec![NONE; n_right],
            next: vec![NONE; n_left],
        }
    }

    /// Lowers `node`'s tentative distance to `d`; `true` if it did.
    fn relax(&mut self, node: usize, d: f64) -> bool {
        if d >= self.dist[node] {
            return false;
        }
        if self.dist[node] == f64::INFINITY {
            self.touched.push(node);
        }
        self.dist[node] = d;
        self.heap.push(Reverse((d.to_bits(), node)));
        true
    }

    /// Dijkstra from the unmatched left `s`. Returns the first right
    /// with spare capacity to be settled and its distance, or `None`
    /// (distances reset) when no augmenting path leaves `s`.
    fn search(&mut self, s: usize) -> Option<(usize, f64)> {
        let n_left = self.n_left;
        self.relax(s, 0.0);
        while let Some(Reverse((bits, node))) = self.heap.pop() {
            let d = f64::from_bits(bits);
            if d > self.dist[node] {
                continue;
            }
            if node < n_left {
                let pl = self.pot[node];
                for k in self.row_start[node]..self.row_start[node + 1] {
                    let (r, c) = self.adj[k];
                    if r == self.matched[node] {
                        continue;
                    }
                    let rc = c + pl - self.pot[n_left + r];
                    debug_assert!(rc >= -1e-6, "negative reduced cost {rc}");
                    if self.relax(n_left + r, d + rc.max(0.0)) {
                        self.pred[r] = node;
                    }
                }
            } else {
                let r = node - n_left;
                if self.spare[r] > 0 {
                    self.heap.clear();
                    return Some((r, d));
                }
                // Matched pairs have zero reduced cost.
                let mut l = self.head[r];
                while l != NONE {
                    self.relax(l, d);
                    l = self.next[l];
                }
            }
        }
        for &v in &self.touched {
            self.dist[v] = f64::INFINITY;
        }
        self.touched.clear();
        None
    }

    /// Flips the path ending at the free right `free` (distance `d`),
    /// then shifts the potentials of the nodes settled before it and
    /// resets the search state.
    fn augment(&mut self, free: usize, d: f64) {
        self.spare[free] -= 1;
        let mut r = free;
        loop {
            let l = self.pred[r];
            let old = self.matched[l];
            if old != NONE {
                self.unlink(old, l);
            }
            self.matched[l] = r;
            self.next[l] = self.head[r];
            self.head[r] = l;
            if old == NONE {
                break;
            }
            r = old;
        }
        for &v in &self.touched {
            let dv = self.dist[v];
            if dv < d {
                self.pot[v] += dv - d;
            }
            self.dist[v] = f64::INFINITY;
        }
        self.touched.clear();
    }

    /// Removes left `l` from right `r`'s holder list.
    fn unlink(&mut self, r: usize, l: usize) {
        if self.head[r] == l {
            self.head[r] = self.next[l];
            return;
        }
        let mut prev = self.head[r];
        while self.next[prev] != l {
            prev = self.next[prev];
        }
        self.next[prev] = self.next[l];
    }

    /// The current matching, unmatched lefts as `usize::MAX`, costed by
    /// the cheapest edge of each matched pair.
    fn into_assignment(self) -> Assignment {
        let mut cost = 0.0;
        for (l, &r) in self.matched.iter().enumerate() {
            if r != NONE {
                cost += self.adj[self.row_start[l]..self.row_start[l + 1]]
                    .iter()
                    .filter(|&&(rr, _)| rr == r)
                    .map(|&(_, c)| c)
                    .fold(f64::INFINITY, f64::min);
            }
        }
        Assignment {
            left_to_right: self.matched,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epplan_solve::FailureKind;

    fn placed(a: &Assignment) -> usize {
        a.left_to_right.iter().filter(|&&r| r != NONE).count()
    }

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
        assert_eq!(placed(&partial), 1);
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
    fn isolated_left_does_not_block_later_lefts() {
        // Left 1 has no edge; the search skips it and still places
        // left 2, and the partial is costed over the placed lefts only.
        let edges = [(0, 0, 1.0), (2, 0, 0.5), (2, 1, 3.0)];
        let e = min_cost_assignment(3, 2, &edges, &[1, 1]).unwrap_err();
        assert_eq!(e.kind, FailureKind::Infeasible);
        assert!(e.message.contains("1 of 3"), "{}", e.message);
        let partial = e.partial.expect("partial assignment");
        assert_eq!(partial.left_to_right, vec![0, usize::MAX, 1]);
        assert_eq!(partial.cost, 4.0);
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
    fn negative_costs_reroute_an_earlier_left() {
        // Left 0 first takes its cheapest slot 0 (-1); left 1 gains most
        // from slot 0 (-6), so it must push left 0 over to slot 1 (0):
        // -6 + 0 beats -1 + -2.
        let edges = [(0, 0, -1.0), (0, 1, 0.0), (1, 0, -6.0), (1, 1, -2.0)];
        let a = min_cost_assignment(2, 2, &edges, &[1, 1]).unwrap();
        assert_eq!(a.left_to_right, vec![1, 0]);
        assert_eq!(a.cost, -6.0);
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
    fn reroutes_through_a_long_alternating_path() {
        // Lefts 0..3 each sit on their cheap slot i; left 3 only reaches
        // slot 0, so every earlier left shifts one slot to the right
        // along the alternating path 3→0→1→2→3.
        let edges = [
            (0, 0, 0.0),
            (0, 1, 1.0),
            (1, 1, 0.0),
            (1, 2, 1.0),
            (2, 2, 0.0),
            (2, 3, 1.0),
            (3, 0, 0.0),
        ];
        let a = min_cost_assignment(4, 4, &edges, &[1, 1, 1, 1]).unwrap();
        assert_eq!(a.left_to_right, vec![1, 2, 3, 0]);
        assert_eq!(a.cost, 3.0);
    }

    #[test]
    fn rerouting_moves_one_holder_of_a_shared_slot() {
        // Slot 0 holds lefts 0 and 1 (capacity 2). Left 2 only reaches
        // slot 0, so the holder with the cheaper way out (left 0, to
        // slot 1 at +1) leaves while the other stays.
        let edges = [
            (0, 0, 0.0),
            (0, 1, 1.0),
            (1, 0, 0.0),
            (1, 1, 5.0),
            (2, 0, 0.0),
        ];
        let a = min_cost_assignment(3, 2, &edges, &[2, 1]).unwrap();
        assert_eq!(a.left_to_right, vec![1, 0, 0]);
        assert_eq!(a.cost, 1.0);
    }

    #[test]
    fn rerouting_unlinks_a_middle_holder() {
        // Slot 0 (capacity 3) holds lefts 0, 1 and 2; left 3 only
        // reaches slot 0, and left 1 has the cheapest way out.
        let edges = [
            (0, 0, 0.0),
            (0, 1, 5.0),
            (1, 0, 0.0),
            (1, 1, 1.0),
            (2, 0, 0.0),
            (2, 1, 5.0),
            (3, 0, 0.0),
        ];
        let a = min_cost_assignment(4, 2, &edges, &[3, 1]).unwrap();
        assert_eq!(a.left_to_right, vec![0, 1, 0, 0]);
        assert_eq!(a.cost, 1.0);
    }

    #[test]
    fn equal_cost_ties_go_to_the_lowest_slot() {
        // Determinism contract: heap ties break by node id, so of two
        // equally cheap free slots the lower-numbered one is taken,
        // whatever the input order.
        let edges = [(0, 2, 1.0), (0, 1, 1.0), (1, 2, 1.0), (1, 1, 1.0)];
        let a = min_cost_assignment(2, 3, &edges, &[1, 1, 1]).unwrap();
        assert_eq!(a.left_to_right, vec![1, 2]);
    }

    #[test]
    fn unplaceable_left_leaves_earlier_matches_alone() {
        // Left 0 takes the only slot; left 1 would be cheaper there but
        // has no augmenting path, so it stays unmatched and left 0
        // keeps the slot.
        let edges = [(0, 0, 10.0), (1, 0, 0.0)];
        let e = min_cost_assignment(2, 1, &edges, &[1]).unwrap_err();
        assert_eq!(e.kind, FailureKind::Infeasible);
        let partial = e.partial.expect("partial assignment");
        assert_eq!(partial.left_to_right, vec![0, usize::MAX]);
        assert_eq!(partial.cost, 10.0);
    }

    #[test]
    fn zero_capacity_slot_is_never_used() {
        // Slot 0 is the cheapest for both lefts but holds nobody.
        let edges = [(0, 0, 0.0), (0, 1, 2.0), (1, 0, 0.0), (1, 2, 3.0)];
        let a = min_cost_assignment(2, 3, &edges, &[0, 1, 1]).unwrap();
        assert_eq!(a.left_to_right, vec![1, 2]);
        assert_eq!(a.cost, 5.0);
        // With no other slot the left is unplaceable.
        let e = min_cost_assignment(1, 1, &[(0, 0, 0.0)], &[0]).unwrap_err();
        assert_eq!(e.kind, FailureKind::Infeasible);
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
        assert_eq!(partial.left_to_right, vec![0, usize::MAX]);
        assert_eq!(partial.cost, 1.0);
    }

    #[test]
    fn expired_deadline_stops_before_the_first_augmentation() {
        let edges = [(0, 0, 1.0), (1, 1, 2.0)];
        let budget = SolveBudget::from_time_limit(std::time::Duration::ZERO);
        let e = min_cost_assignment_with_budget(2, 2, &edges, &[1, 1], budget).unwrap_err();
        assert_eq!(e.kind, FailureKind::BudgetExhausted);
        let partial = e.partial.expect("partial assignment");
        assert_eq!(placed(&partial), 0);
        assert_eq!(partial.cost, 0.0);
    }

    #[test]
    fn exact_budget_completes() {
        // One tick per augmentation and none for the unplaceable left,
        // so a cap equal to the placeable count is enough.
        let edges = [(0, 0, 1.0), (2, 1, 2.0)];
        let budget = SolveBudget::from_iteration_cap(2);
        let e = min_cost_assignment_with_budget(3, 2, &edges, &[1, 1], budget).unwrap_err();
        assert_eq!(e.kind, FailureKind::Infeasible);
        let a = min_cost_assignment_with_budget(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)], &[1, 1], budget)
            .unwrap();
        assert_eq!(a.cost, 3.0);
    }
}
