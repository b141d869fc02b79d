//! Local-search post-optimization of a feasible plan.
//!
//! Neither of the paper's algorithms revisits its choices: greedy
//! commits per user, the GAP pipeline per event copy. This module adds
//! an optional hill-climbing pass over three utility-improving moves —
//! a natural extension the paper leaves open. Every move preserves all
//! hard constraints **and** never breaks an event's already-satisfied
//! lower bound, so the pass composes safely with both solvers:
//!
//! * **add** — give a user an extra event they can afford (what step 2
//!   does, re-checked in case earlier moves opened capacity);
//! * **swap** — replace one event in a user's plan by a higher-utility
//!   one;
//! * **transfer** — hand an assignment to a user who values the event
//!   more (attendance unchanged, so bounds are unaffected).
//!
//! The `ablation-local-search` harness target measures its utility
//! contribution on the city datasets.

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;

/// Users per parallel proposal chunk (a proposal costs `O(m · |plan|)`
/// feasibility checks).
const PROPOSE_MIN_CHUNK: usize = 8;

/// A user's best candidate moves, evaluated against a plan snapshot.
/// Application re-validates against the live plan, since earlier users'
/// applied moves may have consumed the capacity a proposal relied on.
#[derive(Debug, Clone, Copy, Default)]
struct Proposal {
    /// Best extra event and its utility.
    add: Option<(EventId, f64)>,
    /// Best `(old, new, gain)` replacement.
    swap: Option<(EventId, EventId, f64)>,
}

/// Configuration for [`LocalSearch::improve`].
#[derive(Debug, Clone, Copy)]
pub struct LocalSearch {
    /// Maximum full improvement sweeps; each sweep is O(n·m) move
    /// evaluations.
    pub max_rounds: usize,
    /// Minimum utility gain for a move to be taken (guards against
    /// floating-point churn).
    pub min_gain: f64,
}

impl Default for LocalSearch {
    fn default() -> Self {
        LocalSearch {
            max_rounds: 8,
            min_gain: 1e-9,
        }
    }
}

impl LocalSearch {
    /// Runs improvement sweeps until a sweep finds no move or the round
    /// budget is spent. Returns the total utility gained.
    pub fn improve(&self, instance: &Instance, plan: &mut Plan) -> f64 {
        if epplan_obs::metrics_enabled() {
            epplan_obs::gauge_set("local_search.par.threads", epplan_par::threads() as f64);
            epplan_obs::gauge_set(
                "local_search.par.chunks",
                epplan_par::chunk_count(instance.n_users(), PROPOSE_MIN_CHUNK) as f64,
            );
        }
        let mut total_gain = 0.0;
        for _ in 0..self.max_rounds {
            let gain = self.sweep(instance, plan);
            total_gain += gain;
            if gain <= self.min_gain {
                break;
            }
        }
        total_gain
    }

    /// One improvement pass: every user's best add/swap is *proposed*
    /// in parallel against a frozen snapshot of the plan, then the
    /// proposals are *applied* sequentially in user-id order, each
    /// re-validated against the live plan (an earlier user's applied
    /// move may have consumed the capacity a later proposal assumed).
    /// The apply order is fixed, so the sweep's outcome depends only on
    /// the snapshot — not on the thread count. Moves invalidated at
    /// apply time are simply dropped; the next sweep re-proposes
    /// against the updated plan.
    fn sweep(&self, instance: &Instance, plan: &mut Plan) -> f64 {
        let snapshot: &Plan = plan;
        // Move candidates come from the candidate set: only events a
        // user values (μ > 0) and can ever afford are proposed. The
        // dropped pairs could never pass `can_attend_with` anyway, so
        // the sweep's outcome is unchanged — each proposal just costs
        // O(candidates(u)) instead of O(events).
        let cands = instance.candidates();
        let proposals: Vec<Proposal> =
            epplan_par::par_range_map(instance.n_users(), PROPOSE_MIN_CHUNK, |users| {
                users
                    .map(|ui| {
                        let u = UserId(ui as u32);
                        Proposal {
                            add: self.propose_add(instance, cands, snapshot, u),
                            swap: self.propose_swap(instance, cands, snapshot, u),
                        }
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        let mut gain = 0.0;
        for (ui, p) in proposals.iter().enumerate() {
            let u = UserId(ui as u32);
            if let Some((e, mu)) = p.add {
                if self.add_still_valid(instance, plan, u, e) {
                    plan.add(u, e);
                    gain += mu;
                }
            }
            if let Some((old, new, delta)) = p.swap {
                if self.swap_still_valid(instance, plan, u, old, new) {
                    plan.remove(u, old);
                    plan.add(u, new);
                    gain += delta;
                }
            }
        }
        gain += self.transfers(instance, plan);
        gain
    }

    /// Proposes the best feasible extra event for `u` under `plan`.
    fn propose_add(
        &self,
        instance: &Instance,
        cands: &crate::model::CandidateSet,
        plan: &Plan,
        u: UserId,
    ) -> Option<(EventId, f64)> {
        let mut best: Option<(EventId, f64)> = None;
        let (events, utils) = cands.row(u);
        for (&ei, &mu) in events.iter().zip(utils) {
            let e = EventId(ei);
            if mu <= self.min_gain || plan.contains(u, e) {
                continue;
            }
            if plan.attendance(e) >= instance.event(e).upper {
                continue;
            }
            if !instance.can_attend_with(u, plan.user_plan(u), e) {
                continue;
            }
            if best.is_none_or(|(_, b)| mu > b) {
                best = Some((e, mu));
            }
        }
        best
    }

    /// Re-checks a proposed add against the live plan.
    fn add_still_valid(
        &self,
        instance: &Instance,
        plan: &Plan,
        u: UserId,
        e: EventId,
    ) -> bool {
        !plan.contains(u, e)
            && plan.attendance(e) < instance.event(e).upper
            && instance.can_attend_with(u, plan.user_plan(u), e)
    }

    /// Proposes the best utility-improving swap in `u`'s plan.
    fn propose_swap(
        &self,
        instance: &Instance,
        cands: &crate::model::CandidateSet,
        plan: &Plan,
        u: UserId,
    ) -> Option<(EventId, EventId, f64)> {
        let current: Vec<EventId> = plan.user_plan(u).to_vec();
        let mut best: Option<(EventId, EventId, f64)> = None;
        let (cand_events, cand_utils) = cands.row(u);
        for &old in &current {
            // Removing `old` must not break its lower bound.
            if plan.attendance(old) <= instance.event(old).lower {
                continue;
            }
            let mu_old = instance.utility(u, old);
            let rest: Vec<EventId> = current.iter().copied().filter(|&e| e != old).collect();
            for (&ni, &mu_new) in cand_events.iter().zip(cand_utils) {
                let new = EventId(ni);
                if mu_new <= mu_old + self.min_gain || current.contains(&new) {
                    continue;
                }
                if plan.attendance(new) >= instance.event(new).upper {
                    continue;
                }
                if !instance.can_attend_with(u, &rest, new) {
                    continue;
                }
                let delta = mu_new - mu_old;
                if best.is_none_or(|(_, _, b)| delta > b) {
                    best = Some((old, new, delta));
                }
            }
        }
        best
    }

    /// Re-checks a proposed swap against the live plan (including the
    /// user's own just-applied add, which may conflict with `new`).
    fn swap_still_valid(
        &self,
        instance: &Instance,
        plan: &Plan,
        u: UserId,
        old: EventId,
        new: EventId,
    ) -> bool {
        let current = plan.user_plan(u);
        if !current.contains(&old) || current.contains(&new) {
            return false;
        }
        if plan.attendance(old) <= instance.event(old).lower {
            return false;
        }
        if plan.attendance(new) >= instance.event(new).upper {
            return false;
        }
        let rest: Vec<EventId> = current.iter().copied().filter(|&e| e != old).collect();
        instance.can_attend_with(u, &rest, new)
    }

    /// Transfers assignments to users who value them more. Attendance
    /// is unchanged so participation bounds cannot be affected.
    fn transfers(&self, instance: &Instance, plan: &mut Plan) -> f64 {
        // Per-event receiver candidates (users ascending, with their
        // utilities), transposed once from the user-major candidate
        // lists: O(candidates) total instead of a users × events sweep.
        // Non-candidates either value the event at 0 or cannot afford
        // it alone, so `can_attend_with` would reject them regardless.
        let cands = instance.candidates();
        let mut by_event: Vec<Vec<(u32, f64)>> = vec![Vec::new(); instance.n_events()];
        for u in instance.user_ids() {
            let (events, utils) = cands.row(u);
            for (&e, &mu) in events.iter().zip(utils) {
                by_event[e as usize].push((u.0, mu));
            }
        }
        let mut gain = 0.0;
        // epplan-lint: allow(sparse/dense-scan) — per-event pass over the CSR transpose built above: O(|E| + candidates), not a users × events product
        for e in instance.event_ids() {
            // The current attendee valuing the event least…
            let attendees = plan.attendees(e);
            let Some(&worst) = attendees.iter().min_by(|&&a, &&b| {
                instance
                    .utility(a, e)
                    .total_cmp(&instance.utility(b, e))
                    .then(a.cmp(&b))
            }) else {
                continue;
            };
            let mu_worst = instance.utility(worst, e);
            // …versus the best-valuing feasible outsider.
            let candidate = by_event[e.index()]
                .iter()
                .map(|&(u, mu)| (UserId(u), mu))
                .filter(|&(u, _)| !plan.contains(u, e))
                .filter(|&(_, mu)| mu > mu_worst + self.min_gain)
                .filter(|&(u, _)| instance.can_attend_with(u, plan.user_plan(u), e))
                .max_by(|&(a, mua), &(b, mub)| mua.total_cmp(&mub).then(b.cmp(&a)))
                .map(|(u, _)| u);
            if let Some(receiver) = candidate {
                plan.remove(worst, e);
                plan.add(receiver, e);
                gain += instance.utility(receiver, e) - mu_worst;
            }
        }
        gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{InstanceBuilder, TimeInterval};
    use crate::solver::{GepcSolver, GreedySolver};
    use epplan_geo::Point;

    /// Two events; u0 holds the one it values less and e1 has room.
    #[test]
    fn swap_improves_utility() {
        let mut b = InstanceBuilder::new();
        let u0 = b.user(Point::new(0.0, 0.0), 20.0);
        let e0 = b.event(Point::new(1.0, 0.0), 0, 2, TimeInterval::new(0, 30));
        let e1 = b.event(Point::new(0.0, 1.0), 0, 2, TimeInterval::new(0, 30));
        b.utility(u0, e0, 0.3);
        b.utility(u0, e1, 0.9);
        let inst = b.build();
        let mut plan = Plan::for_instance(&inst);
        plan.add(u0, e0);
        let gain = LocalSearch::default().improve(&inst, &mut plan);
        assert!((gain - 0.6).abs() < 1e-9);
        assert!(plan.contains(u0, e1));
        assert!(!plan.contains(u0, e0));
        assert!(certify(&inst, &plan).hard_ok());
    }

    #[test]
    fn swap_respects_lower_bound_of_old_event() {
        let mut b = InstanceBuilder::new();
        let u0 = b.user(Point::new(0.0, 0.0), 20.0);
        let e0 = b.event(Point::new(1.0, 0.0), 1, 2, TimeInterval::new(0, 30));
        let e1 = b.event(Point::new(0.0, 1.0), 0, 2, TimeInterval::new(60, 90));
        b.utility(u0, e0, 0.3);
        b.utility(u0, e1, 0.9);
        let inst = b.build();
        let mut plan = Plan::for_instance(&inst);
        plan.add(u0, e0); // e0 at exactly ξ = 1: swapping would break it
        LocalSearch::default().improve(&inst, &mut plan);
        assert!(plan.contains(u0, e0), "ξ-protected event kept");
        // e1 is later in the day, so the add move still takes it.
        assert!(plan.contains(u0, e1));
    }

    #[test]
    fn transfer_moves_to_higher_value_user() {
        let mut b = InstanceBuilder::new();
        let u0 = b.user(Point::new(0.0, 0.0), 20.0);
        let u1 = b.user(Point::new(0.0, 0.5), 20.0);
        let e0 = b.event(Point::new(1.0, 0.0), 1, 1, TimeInterval::new(0, 30));
        b.utility(u0, e0, 0.2);
        b.utility(u1, e0, 0.8);
        let inst = b.build();
        let mut plan = Plan::for_instance(&inst);
        plan.add(u0, e0);
        let gain = LocalSearch::default().improve(&inst, &mut plan);
        assert!((gain - 0.6).abs() < 1e-9);
        assert!(plan.contains(u1, e0));
        assert_eq!(plan.attendance(e0), 1, "attendance preserved");
    }

    #[test]
    fn never_decreases_utility_or_breaks_feasibility() {
        use epplan_datagen_free::gen_instance;
        // Local mini-generator to avoid a circular dev-dependency on
        // epplan-datagen.
        mod epplan_datagen_free {
            use super::*;
            use rand::prelude::*;
            pub fn gen_instance(seed: u64) -> Instance {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut b = InstanceBuilder::new();
                for _ in 0..30 {
                    b.user(
                        Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)),
                        rng.gen_range(5.0..40.0),
                    );
                }
                for k in 0..8u32 {
                    let s = 60 * k * 3;
                    b.event(
                        Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)),
                        rng.gen_range(0..3),
                        rng.gen_range(3..10),
                        TimeInterval::new(s, s + 90),
                    );
                }
                let (nu, ne) = (b.n_users(), b.n_events());
                for u in 0..nu as u32 {
                    for e in 0..ne as u32 {
                        if rng.gen_bool(0.6) {
                            b.utility(UserId(u), EventId(e), rng.gen_range(0.05..1.0));
                        }
                    }
                }
                b.build()
            }
        }
        for seed in 0..5 {
            let inst = gen_instance(seed);
            let sol = GreedySolver::seeded(seed).solve(&inst);
            let before_shortfall = sol.shortfall.clone();
            let mut plan = sol.plan.clone();
            let before = plan.total_utility(&inst);
            let gain = LocalSearch::default().improve(&inst, &mut plan);
            let after = plan.total_utility(&inst);
            assert!(gain >= 0.0);
            assert!((after - before - gain).abs() < 1e-6);
            assert!(after >= before - 1e-9);
            let v = certify(&inst, &plan);
            assert!(v.hard_ok(), "seed {seed}: {:?}", v.hard_violations);
            // Previously-satisfied lower bounds stay satisfied.
            for e in inst.event_ids() {
                if !before_shortfall.contains(&e) {
                    assert!(
                        plan.attendance(e) >= inst.event(e).lower,
                        "seed {seed}: local search broke ξ of {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn idempotent_at_local_optimum() {
        let mut b = InstanceBuilder::new();
        let u0 = b.user(Point::new(0.0, 0.0), 20.0);
        let e0 = b.event(Point::new(1.0, 0.0), 0, 1, TimeInterval::new(0, 30));
        b.utility(u0, e0, 0.5);
        let inst = b.build();
        let mut plan = Plan::for_instance(&inst);
        plan.add(u0, e0);
        let ls = LocalSearch::default();
        assert_eq!(ls.improve(&inst, &mut plan), 0.0);
        let snapshot = plan.clone();
        assert_eq!(ls.improve(&inst, &mut plan), 0.0);
        assert_eq!(plan, snapshot);
    }
}
