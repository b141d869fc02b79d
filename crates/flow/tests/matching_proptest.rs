//! Property tests: min-cost assignment must match a brute-force search
//! on small instances, and an SPFA successive-shortest-paths min-cost
//! max-flow oracle on larger ones, while always respecting capacities.

use epplan_flow::{min_cost_assignment, min_cost_assignment_with_budget, Assignment};
use epplan_solve::{FailureKind, SolveBudget};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

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

/// The oracle's `(max flow, min cost)` on the network source → lefts
/// (capacity 1) → rights (capacity 1 per edge) → sink (right capacity).
fn oracle(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, f64)],
    caps: &[usize],
) -> (usize, f64) {
    let (s, t) = (0, 1 + n_left + n_right);
    let mut net = Vec::new();
    net.extend((0..n_left).map(|l| (s, 1 + l, 1.0, 0.0)));
    net.extend(edges.iter().map(|&(l, r, c)| (1 + l, 1 + n_left + r, 1.0, c)));
    net.extend(caps.iter().enumerate().map(|(r, &k)| (1 + n_left + r, t, k as f64, 0.0)));
    let (flow, cost) = spfa_max_flow_min_cost(t + 1, &net, s, t);
    (flow.round() as usize, cost)
}

/// Every matched pair is an input edge, no right exceeds its capacity,
/// and `cost` is the sum of the cheapest edge of each matched pair.
/// Returns the number of placed lefts.
fn check_valid(
    a: &Assignment,
    n_right: usize,
    edges: &[(usize, usize, f64)],
    caps: &[usize],
) -> Result<usize, TestCaseError> {
    let mut used = vec![0usize; n_right];
    let mut cost = 0.0;
    for (l, &r) in a.left_to_right.iter().enumerate() {
        if r == usize::MAX {
            continue;
        }
        used[r] += 1;
        let cheapest = edges
            .iter()
            .filter(|&&(el, er, _)| el == l && er == r)
            .map(|&(_, _, c)| c)
            .fold(f64::INFINITY, f64::min);
        prop_assert!(cheapest.is_finite(), "pair ({l}, {r}) is not an input edge");
        cost += cheapest;
    }
    for r in 0..n_right {
        prop_assert!(used[r] <= caps[r], "right {r} holds {} > {}", used[r], caps[r]);
    }
    prop_assert!((a.cost - cost).abs() < 1e-6, "reported cost {} vs {cost}", a.cost);
    Ok(used.iter().sum())
}

/// Checks `min_cost_assignment` against the oracle on one graph.
fn check_against_oracle(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, f64)],
    caps: &[usize],
) -> Result<(), TestCaseError> {
    let (max_flow, min_cost) = oracle(n_left, n_right, edges, caps);
    match min_cost_assignment(n_left, n_right, edges, caps) {
        Ok(a) => {
            prop_assert_eq!(max_flow, n_left, "matched all lefts but the oracle did not");
            prop_assert_eq!(check_valid(&a, n_right, edges, caps)?, n_left);
            prop_assert!((a.cost - min_cost).abs() < 1e-6,
                "cost {} vs oracle {}", a.cost, min_cost);
        }
        Err(e) => {
            prop_assert_eq!(e.kind, FailureKind::Infeasible);
            prop_assert!(max_flow < n_left, "oracle matched all lefts: {}", e.message);
            let partial = e.partial.expect("infeasible carries a partial");
            prop_assert_eq!(check_valid(&partial, n_right, edges, caps)?, max_flow);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The shortest-augmenting-path matcher must agree with the SPFA
    /// min-cost max-flow oracle on random bipartite graphs with tied
    /// (quarter-unit) costs, parallel edges and capacities 0–3, and an
    /// iteration cap below the placeable count must place exactly that
    /// many lefts.
    #[test]
    fn assignment_matches_spfa_oracle(
        n_left in 1usize..=40,
        n_right in 1usize..=60,
        seed in 0u64..20_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let density = rng.gen_range(0.02..0.2);
        let mut edges = Vec::new();
        for l in 0..n_left {
            for r in 0..n_right {
                if rng.gen_bool(density) {
                    edges.push((l, r, rng.gen_range(-20..=20) as f64 / 4.0));
                    if rng.gen_bool(0.1) {
                        edges.push((l, r, rng.gen_range(-20..=20) as f64 / 4.0));
                    }
                }
            }
        }
        let caps: Vec<usize> = (0..n_right).map(|_| rng.gen_range(0..=3)).collect();
        check_against_oracle(n_left, n_right, &edges, &caps)?;

        let (placeable, _) = oracle(n_left, n_right, &edges, &caps);
        if placeable > 0 {
            let k = rng.gen_range(0..placeable);
            let e = min_cost_assignment_with_budget(
                n_left, n_right, &edges, &caps,
                SolveBudget::from_iteration_cap(k as u64),
            ).unwrap_err();
            prop_assert_eq!(e.kind, FailureKind::BudgetExhausted);
            let partial = e.partial.expect("budget exhaustion carries a partial");
            prop_assert_eq!(check_valid(&partial, n_right, &edges, &caps)?, k);
        }
    }
}

/// A slot graph shaped like Shmoys–Tardos rounding's: 300 jobs with 2–8
/// edges each into unit slots near their own index, costs quantized to
/// twentieths so many matchings tie.
#[test]
fn slot_graph_matches_spfa_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let (n_jobs, n_slots) = (300, 360);
    let mut edges = Vec::new();
    for j in 0..n_jobs {
        let base = j * n_slots / n_jobs;
        for _ in 0..rng.gen_range(2..=8) {
            let slot = (base + rng.gen_range(0..12)).min(n_slots - 1);
            edges.push((j, slot, rng.gen_range(0..=20) as f64 / 20.0));
        }
    }
    let caps = vec![1; n_slots];
    check_against_oracle(n_jobs, n_slots, &edges, &caps).unwrap();
}
