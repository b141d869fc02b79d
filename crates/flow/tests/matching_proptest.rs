//! Property tests: min-cost assignment must match a brute-force search
//! on small instances and always respect capacities, and min-cost flow
//! must match an SPFA successive-shortest-paths oracle.

use epplan_flow::{min_cost_assignment, MinCostFlow};
use epplan_solve::SolveBudget;
use proptest::prelude::*;

/// Brute force: try every assignment of lefts to adjacent rights.
fn brute_force(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, f64)],
    caps: &[usize],
) -> Option<f64> {
    // adjacency with min edge cost per (l, r)
    let mut cost = vec![vec![f64::INFINITY; n_right]; n_left];
    for &(l, r, c) in edges {
        if c < cost[l][r] {
            cost[l][r] = c;
        }
    }
    #[allow(clippy::too_many_arguments)]
    fn rec(
        l: usize,
        n_left: usize,
        n_right: usize,
        cost: &[Vec<f64>],
        used: &mut [usize],
        caps: &[usize],
        acc: f64,
        best: &mut Option<f64>,
    ) {
        if l == n_left {
            if best.is_none() || acc < best.unwrap() {
                *best = Some(acc);
            }
            return;
        }
        for r in 0..n_right {
            if used[r] < caps[r] && cost[l][r].is_finite() {
                used[r] += 1;
                rec(l + 1, n_left, n_right, cost, used, caps, acc + cost[l][r], best);
                used[r] -= 1;
            }
        }
    }
    let mut best = None;
    let mut used = vec![0; n_right];
    rec(0, n_left, n_right, &cost, &mut used, caps, 0.0, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn matches_brute_force(
        n_left in 1usize..5,
        n_right in 1usize..5,
        density in 0.3..1.0f64,
        seed in 0u64..10_000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for l in 0..n_left {
            for r in 0..n_right {
                if rng.gen_bool(density) {
                    edges.push((l, r, (rng.gen_range(-50..50) as f64) / 4.0));
                }
            }
        }
        let caps: Vec<usize> = (0..n_right).map(|_| rng.gen_range(0..3)).collect();

        let got = min_cost_assignment(n_left, n_right, &edges, &caps);
        let want = brute_force(n_left, n_right, &edges, &caps);
        match (got, want) {
            (Err(e), None) => {
                prop_assert_eq!(e.kind, epplan_solve::FailureKind::Infeasible);
            }
            (Ok(a), Some(w)) => {
                prop_assert!((a.cost - w).abs() < 1e-6,
                    "flow cost {} vs brute force {}", a.cost, w);
                // capacities respected
                let mut used = vec![0usize; n_right];
                for &r in &a.left_to_right { used[r] += 1; }
                for r in 0..n_right {
                    prop_assert!(used[r] <= caps[r]);
                }
                // every chosen edge exists
                for (l, &r) in a.left_to_right.iter().enumerate() {
                    prop_assert!(edges.iter().any(|&(el, er, _)| el == l && er == r));
                }
            }
            (g, w) => prop_assert!(false, "feasibility disagrees: flow={:?} bf={:?}",
                g.map(|a| a.cost).ok(), w),
        }
    }
}

/// Reference min-cost max-flow: successive shortest paths with SPFA
/// (queue-based Bellman–Ford) path search on the plain residual costs.
/// Slower than the library's Dijkstra-over-potentials search, but
/// simple enough to trust as an oracle. Returns `(flow, cost)`.
fn spfa_max_flow_min_cost(
    n: usize,
    edges: &[(usize, usize, f64, f64)],
    s: usize,
    t: usize,
) -> (f64, f64) {
    const EPS: f64 = 1e-9;
    // Arcs in pairs: forward at even index, residual at odd.
    let mut to = Vec::new();
    let mut cap = Vec::new();
    let mut cost = Vec::new();
    let mut adj = vec![Vec::new(); n];
    for &(u, v, c, w) in edges {
        adj[u].push(to.len());
        to.push(v);
        cap.push(c);
        cost.push(w);
        adj[v].push(to.len());
        to.push(u);
        cap.push(0.0);
        cost.push(-w);
    }
    let (mut flow, mut total) = (0.0, 0.0);
    loop {
        let mut dist = vec![f64::INFINITY; n];
        let mut pre = vec![usize::MAX; n];
        let mut in_queue = vec![false; n];
        let mut queue = std::collections::VecDeque::from([s]);
        dist[s] = 0.0;
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            for &a in &adj[u] {
                if cap[a] > EPS && dist[u] + cost[a] < dist[to[a]] - EPS {
                    dist[to[a]] = dist[u] + cost[a];
                    pre[to[a]] = a;
                    if !in_queue[to[a]] {
                        in_queue[to[a]] = true;
                        queue.push_back(to[a]);
                    }
                }
            }
        }
        if pre[t] == usize::MAX {
            return (flow, total);
        }
        let mut push = f64::INFINITY;
        let mut v = t;
        while v != s {
            push = push.min(cap[pre[v]]);
            v = to[pre[v] ^ 1];
        }
        let mut v = t;
        while v != s {
            cap[pre[v]] -= push;
            cap[pre[v] ^ 1] += push;
            v = to[pre[v] ^ 1];
        }
        flow += push;
        total += push * dist[t];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The potential-based Dijkstra solver must agree with the SPFA
    /// oracle on max flow and min cost for arbitrary layered networks,
    /// and its result must pass the reduced-cost certificate.
    #[test]
    fn mcmf_matches_spfa_oracle(
        n_mid in 1usize..6,
        seed in 0u64..20_000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Layered s → mid → t network (no negative cycles by shape),
        // with some negative mid-layer costs.
        let n = n_mid + 2;
        let s = 0;
        let t = n - 1;
        let mut edges = Vec::new();
        for v in 1..=n_mid {
            if rng.gen_bool(0.8) {
                edges.push((s, v, rng.gen_range(1..4) as f64,
                            rng.gen_range(0.0..3.0)));
            }
            if rng.gen_bool(0.8) {
                edges.push((v, t, rng.gen_range(1..4) as f64,
                            rng.gen_range(-2.0..3.0)));
            }
        }
        for a in 1..=n_mid {
            for b in (a + 1)..=n_mid {
                if rng.gen_bool(0.3) {
                    edges.push((a, b, rng.gen_range(1..3) as f64,
                                rng.gen_range(-1.0..2.0)));
                }
            }
        }
        let mut g = MinCostFlow::new(n);
        for &(u, v, c, w) in &edges {
            g.add_edge(u, v, c, w);
        }
        let got = g.max_flow_min_cost(s, t, SolveBudget::UNLIMITED).unwrap();
        prop_assert!(g.verify_reduced_cost_optimality());
        let (flow, cost) = spfa_max_flow_min_cost(n, &edges, s, t);
        prop_assert!((got.flow - flow).abs() < 1e-9,
            "flow {} vs {}", got.flow, flow);
        prop_assert!((got.cost - cost).abs() < 1e-6,
            "cost {} vs {}", got.cost, cost);
    }
}
