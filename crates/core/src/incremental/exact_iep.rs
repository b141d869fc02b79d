//! Exact reference solver for the IEP problem on tiny instances.
//!
//! Definition 2 is lexicographic: among plans minimizing the negative
//! impact `dif(P, P′)`, pick one maximizing utility. The repair
//! algorithms of Section IV only *approximate* the utility part (the
//! paper proves ratios like `1/((n_j−η'_j)(Uc_max−1))`), but their
//! `dif` is claimed **minimal**. This module brute-forces the true
//! lexicographic optimum so tests and the ablation harness can check
//! both claims on instances small enough to enumerate.

use crate::model::{EventId, Instance, UserId};
use crate::plan::{dif, Plan};
use crate::solver::ExactSolver;

/// The exact lexicographic IEP optimum.
#[derive(Debug, Clone)]
pub struct ExactIepResult {
    /// An optimal repaired plan.
    pub plan: Plan,
    /// Its negative impact against the old plan (minimum possible).
    pub dif: usize,
    /// Its utility (maximum among minimum-impact plans).
    pub utility: f64,
}

/// Enumerates every feasible plan of `instance` (hard constraints and
/// lower bounds all satisfied) and returns one minimizing
/// `dif(old_plan, ·)`, breaking ties by maximum utility. Returns
/// `None` when no fully feasible plan exists.
///
/// Complexity is the product over users of their feasible subset
/// counts; the same size guards as [`ExactSolver`] apply.
///
/// # Panics
/// Panics when the instance exceeds `solver`'s size limits.
pub fn exact_iep(
    solver: &ExactSolver,
    instance: &Instance,
    old_plan: &Plan,
) -> Option<ExactIepResult> {
    assert!(
        instance.n_users() <= solver.max_users && instance.n_events() <= solver.max_events,
        "exact IEP limited to {}×{}",
        solver.max_users,
        solver.max_events
    );
    let n = instance.n_users();
    let m = instance.n_events();

    // Per-user individually-feasible subsets (masks) with their
    // utilities and their dif contribution against the old plan.
    let mut per_user: Vec<Vec<(u32, f64, usize)>> = Vec::with_capacity(n);
    for u in instance.user_ids() {
        let old: u32 = old_plan
            .user_plan(u)
            .iter()
            .filter(|e| e.index() < 32)
            .fold(0u32, |acc, e| acc | (1 << e.index()));
        let mut subsets = Vec::new();
        'mask: for mask in 0u32..(1 << m) {
            let events: Vec<EventId> = (0..m)
                .filter(|&j| mask & (1 << j) != 0)
                .map(|j| EventId(j as u32))
                .collect();
            let mut utility = 0.0;
            for (k, &a) in events.iter().enumerate() {
                if instance.utility(u, a) <= 0.0 {
                    continue 'mask;
                }
                utility += instance.utility(u, a);
                for &b in &events[k + 1..] {
                    if instance.conflicts(a, b) {
                        continue 'mask;
                    }
                }
            }
            if instance.travel_cost(u, &events) > instance.user(u).budget + 1e-9 {
                continue;
            }
            let lost = (old & !mask).count_ones() as usize;
            subsets.push((mask, utility, lost));
        }
        // Try low-dif, high-utility subsets first for better pruning.
        subsets.sort_by(|a, b| a.2.cmp(&b.2).then(b.1.total_cmp(&a.1)));
        per_user.push(subsets);
    }

    // Optimistic per-suffix bounds: minimum additional dif and maximum
    // additional utility from users `u..`.
    let mut suffix_min_dif = vec![0usize; n + 1];
    let mut suffix_max_util = vec![0.0f64; n + 1];
    for u in (0..n).rev() {
        let min_dif = per_user[u].iter().map(|&(_, _, d)| d).min().unwrap_or(0);
        let max_util = per_user[u]
            .iter()
            .map(|&(_, ut, _)| ut)
            .fold(0.0f64, f64::max);
        suffix_min_dif[u] = suffix_min_dif[u + 1] + min_dif;
        suffix_max_util[u] = suffix_max_util[u + 1] + max_util;
    }

    struct Ctx<'a> {
        instance: &'a Instance,
        per_user: &'a [Vec<(u32, f64, usize)>],
        suffix_min_dif: &'a [usize],
        suffix_max_util: &'a [f64],
        attendance: Vec<u32>,
        chosen: Vec<u32>,
        best: Option<(usize, f64, Vec<u32>)>,
    }

    fn better(best: &Option<(usize, f64, Vec<u32>)>, dif: usize, util: f64) -> bool {
        match best {
            None => true,
            Some((bd, bu, _)) => dif < *bd || (dif == *bd && util > *bu + 1e-12),
        }
    }

    fn dfs(ctx: &mut Ctx<'_>, u: usize, cur_dif: usize, cur_util: f64) {
        // Lexicographic pruning.
        if let Some((bd, bu, _)) = &ctx.best {
            let opt_dif = cur_dif + ctx.suffix_min_dif[u];
            let opt_util = cur_util + ctx.suffix_max_util[u];
            if opt_dif > *bd || (opt_dif == *bd && opt_util <= *bu + 1e-12) {
                return;
            }
        }
        let n = ctx.per_user.len();
        if u == n {
            let feasible = ctx
                .instance
                .event_ids()
                .all(|e| ctx.attendance[e.index()] >= ctx.instance.event(e).lower);
            if feasible && better(&ctx.best, cur_dif, cur_util) {
                ctx.best = Some((cur_dif, cur_util, ctx.chosen.clone()));
            }
            return;
        }
        'subset: for &(mask, ut, lost) in &ctx.per_user[u] {
            for j in 0..ctx.attendance.len() {
                if mask & (1 << j) != 0
                    && ctx.attendance[j] + 1 > ctx.instance.event(EventId(j as u32)).upper
                {
                    // Roll back what we applied so far in this subset.
                    for k in 0..j {
                        if mask & (1 << k) != 0 {
                            ctx.attendance[k] -= 1;
                        }
                    }
                    continue 'subset;
                } else if mask & (1 << j) != 0 {
                    ctx.attendance[j] += 1;
                }
            }
            ctx.chosen[u] = mask;
            dfs(ctx, u + 1, cur_dif + lost, cur_util + ut);
            for j in 0..ctx.attendance.len() {
                if mask & (1 << j) != 0 {
                    ctx.attendance[j] -= 1;
                }
            }
        }
    }

    let mut ctx = Ctx {
        instance,
        per_user: &per_user,
        suffix_min_dif: &suffix_min_dif,
        suffix_max_util: &suffix_max_util,
        attendance: vec![0; m],
        chosen: vec![0; n],
        best: None,
    };
    dfs(&mut ctx, 0, 0, 0.0);

    let (_, _, chosen) = ctx.best?;
    let mut plan = Plan::for_instance(instance);
    for (u, mask) in chosen.iter().enumerate() {
        for j in 0..m {
            if mask & (1 << j) != 0 {
                plan.add(UserId(u as u32), EventId(j as u32));
            }
        }
    }
    let d = dif(old_plan, &plan);
    let utility = plan.total_utility(instance);
    Some(ExactIepResult {
        plan,
        dif: d,
        utility,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::tests::step;
    use crate::incremental::AtomicOp;
    use crate::model::{InstanceBuilder, TimeInterval};
    use epplan_geo::Point;

    /// Small instance mirroring the paper's Example 3 shape.
    fn setup() -> (Instance, Plan) {
        let mut b = InstanceBuilder::new();
        let u: Vec<UserId> = (0..4)
            .map(|k| b.user(Point::new(0.0, k as f64), 50.0))
            .collect();
        let e0 = b.event(Point::new(1.0, 0.0), 0, 4, TimeInterval::new(0, 59));
        let e1 = b.event(Point::new(1.0, 1.0), 0, 4, TimeInterval::new(60, 119));
        for (k, &uu) in u.iter().enumerate() {
            b.utility(uu, e0, 0.3 + 0.1 * k as f64);
            b.utility(uu, e1, 0.9 - 0.1 * k as f64);
        }
        let inst = b.build();
        let mut plan = Plan::for_instance(&inst);
        for &uu in &u {
            plan.add(uu, e0);
            plan.add(uu, e1);
        }
        (inst, plan)
    }

    #[test]
    fn eta_decrease_dif_matches_exact_minimum() {
        let (inst, plan) = setup();
        let op = AtomicOp::EtaDecrease {
            event: EventId(0),
            new_upper: 2,
        };
        let (approx_inst, _, approx) = step(&inst, &plan, &op);
        let exact = exact_iep(&ExactSolver::default(), &approx_inst, &plan)
            .expect("feasible");
        // Algorithm 3's dif is provably minimal.
        assert_eq!(approx.dif, Some(exact.dif));
        // And its utility is within the approximation of the optimum.
        assert!(approx.utility <= exact.utility + 1e-9);
    }

    #[test]
    fn xi_increase_dif_matches_exact_minimum() {
        let (inst, plan) = setup();
        // First make e0 scarce so the transfer machinery fires:
        // restrict e1 and demand more participants on e0… simpler:
        // raise e0's ξ beyond its current attendance is impossible
        // (everyone already attends). Remove two users from e0 first.
        let mut plan2 = plan.clone();
        plan2.remove(UserId(0), EventId(0));
        plan2.remove(UserId(1), EventId(0));
        let op = AtomicOp::XiIncrease {
            event: EventId(0),
            new_lower: 3,
        };
        let (approx_inst, _, approx) = step(&inst, &plan2, &op);
        let exact = exact_iep(&ExactSolver::default(), &approx_inst, &plan2)
            .expect("feasible");
        assert_eq!(approx.dif, Some(exact.dif), "Algorithm 4 dif is minimal");
    }

    #[test]
    fn exact_iep_prefers_min_dif_over_utility() {
        // A plan where a higher-utility alternative exists but costs a
        // removal: the exact optimum must keep dif = 0.
        let mut b = InstanceBuilder::new();
        let u0 = b.user(Point::new(0.0, 0.0), 50.0);
        let e0 = b.event(Point::new(1.0, 0.0), 0, 1, TimeInterval::new(0, 59));
        let e1 = b.event(Point::new(1.0, 0.5), 0, 1, TimeInterval::new(0, 59));
        b.utility(u0, e0, 0.4);
        b.utility(u0, e1, 0.9); // conflicts with e0, higher utility
        let inst = b.build();
        let mut old = Plan::for_instance(&inst);
        old.add(u0, e0);
        let exact = exact_iep(&ExactSolver::default(), &inst, &old).unwrap();
        assert_eq!(exact.dif, 0, "keeping e0 costs nothing");
        assert!(exact.plan.contains(u0, e0));
        // (Definition 2's lexicographic order sacrifices the 0.5 gain.)
        assert!((exact.utility - 0.4).abs() < 1e-12);
    }

    #[test]
    fn returns_none_when_infeasible() {
        let mut b = InstanceBuilder::new();
        let u0 = b.user(Point::new(0.0, 0.0), 50.0);
        let e0 = b.event(Point::new(1.0, 0.0), 2, 3, TimeInterval::new(0, 59));
        b.utility(u0, e0, 0.5);
        let inst = b.build(); // ξ = 2 with a single user: impossible
        let old = Plan::for_instance(&inst);
        assert!(exact_iep(&ExactSolver::default(), &inst, &old).is_none());
    }

    #[test]
    fn empty_change_has_zero_dif() {
        let (inst, plan) = setup();
        let exact = exact_iep(&ExactSolver::default(), &inst, &plan).unwrap();
        assert_eq!(exact.dif, 0);
        assert!(exact.utility >= plan.total_utility(&inst) - 1e-9);
    }
}
