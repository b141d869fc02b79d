//! Shared repair primitives used by the IEP algorithms.

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;
use crate::solver::filler::Candidate;

/// Result of `transfer_users_to`.
#[derive(Debug, Clone, Default)]
pub struct TransferResult {
    /// Users moved to the target event (each lost one source event).
    pub moved: Vec<UserId>,
    /// Whether the target reached its requested attendance.
    pub reached: bool,
}

/// The heart of Algorithm 4: raise `event`'s attendance to `target`
/// by transferring users away from events that have spare participants
/// (`n_{j'} > ξ_{j'}`), choosing transfers by largest utility delta
/// `Δ = μ(u, event) − μ(u, source)`.
///
/// The heap is built in one pass over the user-major plan, which is
/// the event→donor index the search needs: each user who does not
/// attend `event` and holds a source above its `ξ` has `μ(u, event)`
/// read once and one `(Δ, user, source)` entry pushed per such source.
/// Keys are unique, so the pop order does not depend on push order.
///
/// The paper stores the Δ's in a heap and eagerly deletes entries
/// invalidated by each transfer (Algorithm 4, lines 12–16); we use the
/// equivalent lazy strategy — every popped entry is re-validated
/// against the current plan, which keeps the code free of bookkeeping
/// index maps while performing the same transfers in the same order.
pub fn transfer_users_to(
    instance: &Instance,
    plan: &mut Plan,
    event: EventId,
    target: u32,
) -> TransferResult {
    let mut result = TransferResult::default();
    if plan.attendance(event) >= target {
        result.reached = true;
        return result;
    }

    let mut heap = std::collections::BinaryHeap::new();
    let spare = |source: EventId| plan.attendance(source) > instance.event(source).lower;
    for user in instance.user_ids() {
        let held = plan.user_plan(user);
        if held.contains(&event) || !held.iter().any(|&s| spare(s)) {
            continue;
        }
        let mu = instance.utility(user, event);
        if mu <= 0.0 {
            continue;
        }
        for &source in held.iter().filter(|&&s| spare(s)) {
            heap.push(Candidate {
                score: mu - instance.utility(user, source),
                user,
                event: source,
            });
        }
    }

    while plan.attendance(event) < target {
        let Some(Candidate {
            user,
            event: source,
            ..
        }) = heap.pop()
        else {
            break;
        };
        // Lazy re-validation.
        if !plan.contains(user, source)
            || plan.contains(user, event)
            || plan.attendance(source) <= instance.event(source).lower
            || plan.attendance(event) >= instance.event(event).upper
        {
            continue;
        }
        // Check the swap: replace `source` by `event` in the user's plan.
        let rest: Vec<EventId> = plan
            .user_plan(user)
            .iter()
            .copied()
            .filter(|&e| e != source)
            .collect();
        if !instance.can_attend_with(user, &rest, event) {
            continue;
        }
        plan.remove(user, source);
        plan.add(user, event);
        result.moved.push(user);
    }
    result.reached = plan.attendance(event) >= target;
    result
}

/// Removes the lowest-utility events from `user`'s plan until their
/// travel cost fits the (possibly reduced) budget. Returns the removed
/// events (each a negative-impact unit).
pub fn shed_to_budget(instance: &Instance, plan: &mut Plan, user: UserId) -> Vec<EventId> {
    let mut removed = Vec::new();
    while plan.travel_cost(instance, user) > instance.user(user).budget + 1e-9 {
        let Some(&victim) = plan.user_plan(user).iter().min_by(|&&a, &&b| {
            instance
                .utility(user, a)
                .total_cmp(&instance.utility(user, b))
                .then(a.cmp(&b))
        }) else {
            break;
        };
        plan.remove(user, victim);
        removed.push(victim);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{Event, InstanceBuilder, TimeInterval, User, UtilityMatrix};
    use epplan_geo::Point;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// 3 users, 3 events. All events pairwise non-conflicting, close by.
    fn inst() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 100.0),
            User::new(Point::new(0.0, 1.0), 100.0),
            User::new(Point::new(0.0, 2.0), 100.0),
        ];
        let events = vec![
            Event::new(Point::new(1.0, 0.0), 0, 3, TimeInterval::new(0, 59)),
            Event::new(Point::new(1.0, 1.0), 0, 3, TimeInterval::new(60, 119)),
            Event::new(Point::new(1.0, 2.0), 0, 3, TimeInterval::new(120, 179)),
        ];
        let utilities = UtilityMatrix::from_rows(vec![
            vec![0.9, 0.5, 0.3],
            vec![0.4, 0.8, 0.6],
            vec![0.2, 0.3, 0.7],
        ]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    #[test]
    fn transfer_picks_largest_delta() {
        let instance = inst();
        let mut plan = Plan::for_instance(&instance);
        // e1 has 2 attendees, lower bound 0 → both spare.
        plan.add(UserId(0), EventId(1)); // Δ to e0: 0.9−0.5 = 0.4
        plan.add(UserId(1), EventId(1)); // Δ to e0: 0.4−0.8 = −0.4
        let r = transfer_users_to(&instance, &mut plan, EventId(0), 1);
        assert!(r.reached);
        assert_eq!(r.moved, vec![UserId(0)]);
        assert!(plan.contains(UserId(0), EventId(0)));
        assert!(!plan.contains(UserId(0), EventId(1)));
        assert!(plan.contains(UserId(1), EventId(1)));
    }

    #[test]
    fn transfer_respects_source_lower_bound() {
        let mut instance = inst();
        instance.set_event_bounds(EventId(1), 2, 3); // ξ=2
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(1));
        plan.add(UserId(1), EventId(1)); // n=ξ=2: no spare users
        let r = transfer_users_to(&instance, &mut plan, EventId(0), 1);
        assert!(!r.reached);
        assert!(r.moved.is_empty());
    }

    #[test]
    fn transfer_stops_when_target_reached() {
        let instance = inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(1));
        plan.add(UserId(1), EventId(1));
        plan.add(UserId(2), EventId(1));
        let r = transfer_users_to(&instance, &mut plan, EventId(0), 2);
        assert!(r.reached);
        assert_eq!(r.moved.len(), 2);
        assert_eq!(plan.attendance(EventId(0)), 2);
        assert_eq!(plan.attendance(EventId(1)), 1);
    }

    #[test]
    fn transfer_skips_zero_utility_users() {
        let mut instance = inst();
        instance.set_utility(UserId(0), EventId(0), 0.0);
        instance.set_utility(UserId(1), EventId(0), 0.0);
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(1));
        plan.add(UserId(1), EventId(1));
        let r = transfer_users_to(&instance, &mut plan, EventId(0), 1);
        assert!(!r.reached);
    }

    #[test]
    fn shed_to_budget_removes_lowest_utility() {
        let mut instance = inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(0), EventId(1));
        plan.add(UserId(0), EventId(2));
        instance.set_budget(UserId(0), 5.0);
        // Route 0→e0→e1→e2→0 = 1 + 1 + 1 + sqrt(1+4)=2.24 → 5.24 > 5.
        let removed = shed_to_budget(&instance, &mut plan, UserId(0));
        assert!(!removed.is_empty());
        assert_eq!(removed[0], EventId(2), "lowest utility (0.3) goes first");
        assert!(plan.travel_cost(&instance, UserId(0)) <= 5.0 + 1e-9);
    }

    #[test]
    fn shed_noop_when_within_budget() {
        let instance = inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(0));
        assert!(shed_to_budget(&instance, &mut plan, UserId(0)).is_empty());
    }

    /// Differential oracle for the donor pass: Algorithm 4's transfers
    /// with the Δ-heap filled the older way, by one `attendees()` sweep
    /// per source event above its `ξ`. Pops and re-validation are the
    /// same, so plans, `moved` and `reached` must match.
    fn oracle_transfer(
        instance: &Instance,
        plan: &mut Plan,
        event: EventId,
        target: u32,
    ) -> TransferResult {
        let mut result = TransferResult::default();
        if plan.attendance(event) >= target {
            result.reached = true;
            return result;
        }
        let mut heap = std::collections::BinaryHeap::new();
        for source in instance.event_ids() {
            if source == event || plan.attendance(source) <= instance.event(source).lower {
                continue;
            }
            for user in plan.attendees(source) {
                let mu = instance.utility(user, event);
                if plan.contains(user, event) || mu <= 0.0 {
                    continue;
                }
                let score = mu - instance.utility(user, source);
                heap.push(Candidate {
                    score,
                    user,
                    event: source,
                });
            }
        }
        while plan.attendance(event) < target {
            let Some(Candidate {
                user,
                event: source,
                ..
            }) = heap.pop()
            else {
                break;
            };
            if !plan.contains(user, source)
                || plan.contains(user, event)
                || plan.attendance(source) <= instance.event(source).lower
                || plan.attendance(event) >= instance.event(event).upper
            {
                continue;
            }
            let rest: Vec<EventId> = plan
                .user_plan(user)
                .iter()
                .copied()
                .filter(|&e| e != source)
                .collect();
            if instance.can_attend_with(user, &rest, event) {
                plan.remove(user, source);
                plan.add(user, event);
                result.moved.push(user);
            }
        }
        result.reached = plan.attendance(event) >= target;
        result
    }

    /// A random instance on a 10 × 10 square: quarter utilities (zero
    /// included, so equal Δs are common and the tie-breaks decide),
    /// random fees, tight to generous budgets, small bounds and
    /// overlapping windows; then a random hard-feasible plan with some
    /// events topped up to `η`, so donors above, at and below `ξ` occur.
    fn random_case(rng: &mut StdRng) -> (Instance, Plan) {
        let mut b = InstanceBuilder::new();
        let users: Vec<UserId> = (0..rng.gen_range(1..=30))
            .map(|_| {
                let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                b.user(at, rng.gen_range(1.0..40.0))
            })
            .collect();
        let events: Vec<EventId> = (0..rng.gen_range(2..=10))
            .map(|_| {
                let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                let lower = rng.gen_range(0..=3);
                let upper = lower + rng.gen_range(0..=4);
                let start = rng.gen_range(0..480);
                let time = TimeInterval::new(start, start + rng.gen_range(30..180));
                let fee = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.0..4.0) };
                b.event_raw(Event::new(at, lower, upper, time).with_fee(fee))
            })
            .collect();
        for &u in &users {
            for &e in &events {
                b.utility(u, e, rng.gen_range(0..=4) as f64 * 0.25);
            }
        }
        let instance = b.build();

        let mut plan = Plan::for_instance(&instance);
        let mut pairs: Vec<(UserId, EventId)> = users
            .iter()
            .flat_map(|&u| events.iter().map(move |&e| (u, e)))
            .collect();
        pairs.shuffle(rng);
        let density = [0.2, 0.5, 0.8][rng.gen_range(0..3)];
        let topped: Vec<bool> = events.iter().map(|_| rng.gen_bool(0.3)).collect();
        for (u, e) in pairs {
            if (topped[e.index()] || rng.gen_bool(density))
                && plan.attendance(e) < instance.event(e).upper
                && instance.can_attend_with(u, plan.user_plan(u), e)
            {
                plan.add(u, e);
            }
        }
        (instance, plan)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn donor_pass_matches_per_event_sweep(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (inst, start) = random_case(&mut rng);
            prop_assert!(certify(&inst, &start).hard_ok());
            for event in inst.event_ids() {
                // Targets from 0 (already reached) past `η` (never reached).
                let target = rng.gen_range(0..=inst.event(event).upper + 2);
                let mut expected = start.clone();
                let want = oracle_transfer(&inst, &mut expected, event, target);
                let mut plan = start.clone();
                let got = transfer_users_to(&inst, &mut plan, event, target);
                prop_assert_eq!(&got.moved, &want.moved, "moved, seed {} event {}", seed, event);
                prop_assert_eq!(got.reached, want.reached, "reached, seed {} event {}", seed, event);
                prop_assert!(plan == expected, "plan differs, seed {} event {}", seed, event);
                prop_assert!(certify(&inst, &plan).hard_ok());
            }
        }
    }
}
