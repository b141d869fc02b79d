use std::collections::VecDeque;

use epplan_solve::{BudgetGuard, SolveBudget, SolveError};

/// Identifier of an edge added to a [`MinCostFlow`] graph; use it to
/// query the final flow with [`MinCostFlow::flow_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeId(usize);

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: f64,
    cost: f64,
}

/// Result of a min-cost max-flow computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Total flow pushed from source to sink.
    pub flow: f64,
    /// Total cost `Σ flow(e) · cost(e)` over forward edges.
    pub cost: f64,
}

/// Pipeline-stage label used in this solver's errors.
const STAGE: &str = "flow.mcmf";

/// A directed flow network solved with successive shortest paths.
///
/// One Bellman–Ford pass computes Johnson potentials that absorb the
/// negative arc costs, after which every augmentation runs Dijkstra on
/// non-negative reduced costs. That tolerates negative edge costs as
/// long as the network has no negative-cost *cycle* — true for every
/// graph built in this workspace (bipartite source→left→right→sink
/// layerings).
///
/// Malformed edges (out-of-range endpoints, negative or non-finite
/// capacities, non-finite costs) do not panic at build time; they mark
/// the graph defective and every subsequent solve returns a
/// [`epplan_solve::FailureKind::BadInput`] error.
///
/// # Example
/// ```
/// use epplan_flow::MinCostFlow;
/// use epplan_solve::SolveBudget;
/// let mut g = MinCostFlow::new(4);
/// let s = 0; let t = 3;
/// g.add_edge(s, 1, 2.0, 1.0);
/// g.add_edge(s, 2, 1.0, 2.0);
/// g.add_edge(1, t, 1.0, 1.0);
/// g.add_edge(1, 2, 1.0, 0.0);
/// g.add_edge(2, t, 2.0, 1.0);
/// let r = g.max_flow_min_cost(s, t, SolveBudget::UNLIMITED).expect("well-formed graph");
/// assert_eq!(r.flow, 3.0);
/// assert_eq!(r.cost, 7.0);
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    n: usize,
    /// Edges stored in pairs: forward at even index, residual at odd.
    edges: Vec<Edge>,
    adj: Vec<Vec<u32>>,
    /// First build-time defect, reported by the solve entry points.
    defect: Option<String>,
}

const EPS: f64 = 1e-9;

impl MinCostFlow {
    /// Creates a network with `n` nodes (numbered `0..n`) and no edges.
    pub fn new(n: usize) -> Self {
        MinCostFlow {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
            defect: None,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `from → to` with capacity `cap ≥ 0` and
    /// per-unit cost `cost`. Returns an id for flow inspection.
    ///
    /// A malformed edge is recorded as inert (it carries no flow) and
    /// poisons the graph: the next solve call reports `BadInput`.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: f64, cost: f64) -> EdgeId {
        let id = self.edges.len();
        let mut flaw = None;
        if from >= self.n || to >= self.n {
            flaw = Some(format!("edge {from}->{to} endpoint out of range (n = {})", self.n));
        } else if cap < 0.0 || !cap.is_finite() {
            flaw = Some(format!("edge {from}->{to} has invalid capacity {cap}"));
        } else if !cost.is_finite() {
            flaw = Some(format!("edge {from}->{to} has non-finite cost {cost}"));
        }
        if let Some(flaw) = flaw {
            if self.defect.is_none() {
                self.defect = Some(flaw);
            }
            // Keep edge ids stable but leave the pair unreachable.
            self.edges.push(Edge { to: 0, cap: 0.0, cost: 0.0 });
            self.edges.push(Edge { to: 0, cap: 0.0, cost: 0.0 });
            return EdgeId(id);
        }
        self.edges.push(Edge { to, cap, cost });
        self.edges.push(Edge {
            to: from,
            cap: 0.0,
            cost: -cost,
        });
        self.adj[from].push(id as u32);
        self.adj[to].push(id as u32 + 1);
        EdgeId(id)
    }

    /// Flow currently routed through the forward edge `id`.
    pub fn flow_on(&self, id: EdgeId) -> f64 {
        // Residual capacity of the reverse edge equals the flow pushed.
        self.edges[id.0 + 1].cap
    }

    /// Rejects defective graphs and out-of-range terminals.
    fn check_inputs(&self, s: usize, t: usize) -> Result<(), SolveError<FlowResult>> {
        if let Some(defect) = &self.defect {
            return Err(SolveError::bad_input(STAGE, defect.clone()));
        }
        if s >= self.n || t >= self.n {
            return Err(SolveError::bad_input(
                STAGE,
                format!("terminal out of range: s = {s}, t = {t}, n = {}", self.n),
            ));
        }
        Ok(())
    }

    /// Sends as much flow as possible from `s` to `t`, minimizing cost
    /// among all maximum flows. Can be called once per graph.
    ///
    /// The guard over `budget` ticks once per augmentation, and
    /// exhaustion returns a `BudgetExhausted` error carrying the flow
    /// routed so far as its partial artifact (a valid, possibly
    /// non-maximum flow that is cost-optimal for its value).
    pub fn max_flow_min_cost(
        &mut self,
        s: usize,
        t: usize,
        budget: SolveBudget,
    ) -> Result<FlowResult, SolveError<FlowResult>> {
        self.check_inputs(s, t)?;
        let mut sp = epplan_obs::span("flow.mcmf");
        let mut guard = BudgetGuard::new(budget);
        let mut total = FlowResult { flow: 0.0, cost: 0.0 };
        if s == t {
            return Ok(total);
        }
        // Initial potentials via Bellman–Ford (queue-based) over
        // residual arcs with capacity.
        let mut pot = vec![f64::INFINITY; self.n];
        pot[s] = 0.0;
        {
            let _sp = epplan_obs::span("flow.potentials");
            let mut in_queue = vec![false; self.n];
            let mut queue = VecDeque::new();
            queue.push_back(s);
            in_queue[s] = true;
            while let Some(u) = queue.pop_front() {
                in_queue[u] = false;
                let du = pot[u];
                for &eid in &self.adj[u] {
                    let e = &self.edges[eid as usize];
                    if e.cap > EPS && du + e.cost < pot[e.to] - EPS {
                        pot[e.to] = du + e.cost;
                        if !in_queue[e.to] {
                            in_queue[e.to] = true;
                            queue.push_back(e.to);
                        }
                    }
                }
            }
        }
        // Unreachable nodes keep ∞ potential; clamp so reduced costs
        // stay finite for arcs we may later traverse (they become
        // reachable only through augmentation, which cannot happen from
        // an unreachable component).
        for p in pot.iter_mut() {
            if !p.is_finite() {
                *p = 0.0;
            }
        }

        let mut dist = vec![f64::INFINITY; self.n];
        let mut pre_edge = vec![u32::MAX; self.n];
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(ordered::F64, usize)>> =
            std::collections::BinaryHeap::new();
        loop {
            dist.iter_mut().for_each(|d| *d = f64::INFINITY);
            pre_edge.iter_mut().for_each(|p| *p = u32::MAX);
            dist[s] = 0.0;
            heap.clear();
            heap.push(std::cmp::Reverse((ordered::F64(0.0), s)));
            while let Some(std::cmp::Reverse((ordered::F64(d), u))) = heap.pop() {
                if d > dist[u] + EPS {
                    continue;
                }
                for &eid in &self.adj[u] {
                    let e = &self.edges[eid as usize];
                    if e.cap <= EPS {
                        continue;
                    }
                    let rc = e.cost + pot[u] - pot[e.to];
                    debug_assert!(rc >= -1e-6, "negative reduced cost {rc}");
                    let nd = d + rc.max(0.0);
                    if nd < dist[e.to] - EPS {
                        dist[e.to] = nd;
                        pre_edge[e.to] = eid;
                        heap.push(std::cmp::Reverse((ordered::F64(nd), e.to)));
                    }
                }
            }
            if pre_edge[t] == u32::MAX {
                break;
            }
            // Deterministic fault injection, then the real budget: both
            // exits carry the flow routed so far, which successive
            // shortest paths keeps cost-optimal for its value.
            if let Some(action) = epplan_fault::point("flow.mcmf.augment") {
                sp.add_iters(guard.iterations());
                epplan_obs::counter_add("flow.augmentations", guard.iterations());
                return Err(SolveError::from_fault(STAGE, "flow.mcmf.augment", action)
                    .with_partial(total));
            }
            // Budget is spent per augmentation; ticking only once a
            // path exists avoids a false exhaustion on the final
            // (empty) search of an exactly-budgeted run.
            if let Err(e) = guard.tick(STAGE) {
                sp.add_iters(guard.iterations());
                epplan_obs::counter_add("flow.augmentations", guard.iterations());
                return Err(e.discard_partial().with_partial(total));
            }
            // Update potentials with the new distances.
            for v in 0..self.n {
                if dist[v].is_finite() {
                    pot[v] += dist[v];
                }
            }
            // Bottleneck and augment.
            let mut push = f64::INFINITY;
            let mut v = t;
            while v != s {
                let eid = pre_edge[v] as usize;
                push = push.min(self.edges[eid].cap);
                v = self.edges[eid ^ 1].to;
            }
            let mut v = t;
            let mut path_cost = 0.0;
            while v != s {
                let eid = pre_edge[v] as usize;
                self.edges[eid].cap -= push;
                self.edges[eid ^ 1].cap += push;
                path_cost += self.edges[eid].cost;
                v = self.edges[eid ^ 1].to;
            }
            total.flow += push;
            total.cost += push * path_cost;
        }
        sp.add_iters(guard.iterations());
        epplan_obs::counter_add("flow.augmentations", guard.iterations());
        Ok(total)
    }

    /// Reduced-cost optimality certificate: `true` when the residual
    /// graph (arcs with remaining capacity) contains no negative-cost
    /// cycle, which proves the current flow is cost-minimal among all
    /// flows of its value. Successive shortest paths maintains this
    /// invariant after every augmentation, so both complete runs and
    /// budget-exhausted partials should certify; call this after a
    /// solve for `--certify` runs and chaos tests. `O(V·E)`
    /// Bellman–Ford — cheap next to the solve, not free.
    ///
    /// Defective (poisoned) graphs never certify.
    pub fn verify_reduced_cost_optimality(&self) -> bool {
        if self.defect.is_some() {
            return false;
        }
        // Bellman–Ford from a virtual super-source (all distances 0):
        // if a full extra pass still relaxes after `n` rounds, a
        // negative-cost residual cycle exists.
        let mut dist = vec![0.0f64; self.n];
        let relax_all = |dist: &mut [f64]| {
            let mut relaxed = false;
            for u in 0..self.n {
                let du = dist[u];
                for &eid in &self.adj[u] {
                    let e = &self.edges[eid as usize];
                    if e.cap > EPS && du + e.cost < dist[e.to] - EPS {
                        dist[e.to] = du + e.cost;
                        relaxed = true;
                    }
                }
            }
            relaxed
        };
        for _ in 0..self.n {
            if !relax_all(&mut dist) {
                return true;
            }
        }
        !relax_all(&mut dist)
    }
}

/// Total-ordered `f64` wrapper for the Dijkstra heap (all values are
/// finite, non-NaN path costs).
mod ordered {
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(super) struct F64(pub f64);
    impl Eq for F64 {}
    impl PartialOrd for F64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epplan_solve::FailureKind;

    const UNLIMITED: SolveBudget = SolveBudget::UNLIMITED;

    #[test]
    fn simple_two_path_network() {
        let mut g = MinCostFlow::new(4);
        let e_cheap = g.add_edge(0, 1, 1.0, 1.0);
        g.add_edge(1, 3, 1.0, 1.0);
        let e_dear = g.add_edge(0, 2, 1.0, 5.0);
        g.add_edge(2, 3, 1.0, 5.0);
        let r = g.max_flow_min_cost(0, 3, UNLIMITED).unwrap();
        assert_eq!(r.flow, 2.0);
        assert_eq!(r.cost, 1.0 + 1.0 + 5.0 + 5.0);
        assert_eq!(g.flow_on(e_cheap), 1.0);
        assert_eq!(g.flow_on(e_dear), 1.0);
    }

    #[test]
    fn disconnected_yields_zero() {
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 1.0, 1.0);
        let r = g.max_flow_min_cost(0, 2, UNLIMITED).unwrap();
        assert_eq!(r.flow, 0.0);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn source_equals_sink() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 1.0, 1.0);
        let r = g.max_flow_min_cost(0, 0, UNLIMITED).unwrap();
        assert_eq!(r.flow, 0.0);
    }

    #[test]
    fn negative_cost_edges() {
        // Taking the negative edge reduces total cost; no negative cycle.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1.0, 2.0);
        let neg = g.add_edge(1, 2, 1.0, -1.5);
        g.add_edge(2, 3, 1.0, 0.5);
        g.add_edge(0, 3, 1.0, 3.0);
        let r = g.max_flow_min_cost(0, 3, UNLIMITED).unwrap();
        assert_eq!(r.flow, 2.0);
        assert!((r.cost - 4.0).abs() < 1e-9);
        assert_eq!(g.flow_on(neg), 1.0);
    }

    #[test]
    fn cost_reroutes_via_residual() {
        // Classic example where a later augmentation must undo part of
        // an earlier one through the residual edge.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1.0, 1.0);
        g.add_edge(0, 2, 1.0, 4.0);
        g.add_edge(1, 2, 1.0, 1.0);
        g.add_edge(1, 3, 1.0, 6.0);
        g.add_edge(2, 3, 2.0, 1.0);
        let r = g.max_flow_min_cost(0, 3, UNLIMITED).unwrap();
        assert_eq!(r.flow, 2.0);
        // Best: 0→1→2→3 (3) and 0→2→3 (5) = 8.
        assert!((r.cost - 8.0).abs() < 1e-9);
    }

    #[test]
    fn integral_capacities_give_integral_flow() {
        let mut g = MinCostFlow::new(6);
        let mut ids = Vec::new();
        for l in 1..=2 {
            g.add_edge(0, l, 1.0, 0.0);
        }
        for r in 3..=4 {
            g.add_edge(r, 5, 1.0, 0.0);
        }
        for l in 1..=2 {
            for r in 3..=4 {
                ids.push(g.add_edge(l, r, 1.0, (l * r) as f64));
            }
        }
        let res = g.max_flow_min_cost(0, 5, UNLIMITED).unwrap();
        assert_eq!(res.flow, 2.0);
        for id in ids {
            let f = g.flow_on(id);
            assert!(f == 0.0 || f == 1.0, "non-integral flow {f}");
        }
    }

    #[test]
    fn bad_edge_poisons_graph_instead_of_panicking() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 5, 1.0, 0.0);
        let e = g.max_flow_min_cost(0, 1, UNLIMITED).unwrap_err();
        assert_eq!(e.kind, FailureKind::BadInput);
    }

    #[test]
    fn nan_capacity_and_negative_capacity_rejected() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, f64::NAN, 0.0);
        let e = g.max_flow_min_cost(0, 1, UNLIMITED).unwrap_err();
        assert_eq!(e.kind, FailureKind::BadInput);

        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, -1.0, 0.0);
        let e = g.max_flow_min_cost(0, 1, UNLIMITED).unwrap_err();
        assert_eq!(e.kind, FailureKind::BadInput);
    }

    #[test]
    fn terminal_out_of_range_rejected() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 1.0, 0.0);
        let e = g.max_flow_min_cost(0, 9, UNLIMITED).unwrap_err();
        assert_eq!(e.kind, FailureKind::BadInput);
    }

    /// Two disjoint unit paths of costs 1 and 5.
    fn two_unit_paths() -> MinCostFlow {
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1.0, 1.0);
        g.add_edge(1, 3, 1.0, 0.0);
        g.add_edge(0, 2, 1.0, 5.0);
        g.add_edge(2, 3, 1.0, 0.0);
        g
    }

    #[test]
    fn augmentation_budget_returns_partial_flow() {
        // A 1-augmentation budget routes only the cheaper path and
        // reports exhaustion with that partial.
        let e = two_unit_paths()
            .max_flow_min_cost(0, 3, SolveBudget::from_iteration_cap(1))
            .unwrap_err();
        assert_eq!(e.kind, FailureKind::BudgetExhausted);
        let partial = e.partial.expect("augmentation budget keeps partial flow");
        assert_eq!(partial.flow, 1.0);
        assert_eq!(partial.cost, 1.0);
    }

    #[test]
    fn completed_and_partial_flows_certify_reduced_cost_optimality() {
        let mut g = two_unit_paths();
        g.max_flow_min_cost(0, 3, UNLIMITED).unwrap();
        assert!(g.verify_reduced_cost_optimality(), "complete flow certifies");

        // Successive shortest paths keeps even a truncated flow
        // cost-optimal for its value, so the partial certifies too.
        let mut g = two_unit_paths();
        let e = g
            .max_flow_min_cost(0, 3, SolveBudget::from_iteration_cap(1))
            .unwrap_err();
        assert_eq!(e.kind, FailureKind::BudgetExhausted);
        assert!(g.verify_reduced_cost_optimality(), "SSP partial certifies");
    }

    #[test]
    fn negative_cycle_fails_the_optimality_certificate() {
        // A capacitated negative-cost cycle means cost could still be
        // reduced without changing the flow value: not optimal.
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 1.0, 1.0);
        g.add_edge(1, 0, 1.0, -2.0);
        assert!(!g.verify_reduced_cost_optimality());

        // Poisoned graphs never certify.
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 5, 1.0, 0.0);
        assert!(!g.verify_reduced_cost_optimality());
    }
}
