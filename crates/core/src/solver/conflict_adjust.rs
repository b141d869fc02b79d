//! The Conflict Adjusting algorithm (Section III-A, Algorithm 1) and
//! the budget-repair pass the Shmoys–Tardos load slack requires.
//!
//! The GAP reduction ignores time conflicts, so its raw output may put
//! conflicting events — including several *copies of the same event* —
//! into one user's plan. Algorithm 1 repairs this: for each user, while
//! the plan contains conflicting events, the conflicting event with the
//! **smallest** utility is removed and offered to the remaining users
//! in **descending** utility order; the first user who can take it
//! without conflicts and within budget receives it, otherwise the copy
//! is dropped (a potential lower-bound shortfall).
//!
//! Offers read an event's receivers in that order from the
//! event-major pair store (`EventOrders`). A GAP solve hands one store
//! to both passes and the filler (the `*_with` forms); the public
//! functions build their own, over only the events they can offer.
//!
//! The ST rounding also only guarantees per-user load ≤ `T_i + max p`,
//! i.e. travel cost up to about `2·(2+ε)·B_i`, so a further
//! [`budget_repair`] pass removes (and tries to rehome) the
//! lowest-utility events of over-budget users. The paper folds this
//! into its `(2+ε)` budget scaling argument; an executable system must
//! enforce the real budgets explicitly.

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;
use crate::solver::event_orders::EventOrders;

/// A raw (pre-repair) assignment: per-user event multiset, possibly
/// containing duplicates and time conflicts. This is what the GAP
/// rounding hands back, with one entry per assigned event copy.
pub type RawAssignment = Vec<Vec<EventId>>;

/// Indices of entries in `events` that conflict with at least one
/// other entry (duplicates always conflict — copies of an event share
/// its time window).
fn conflicting_entries(instance: &Instance, events: &[EventId]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, &a) in events.iter().enumerate() {
        let hit = events
            .iter()
            .enumerate()
            .any(|(j, &b)| i != j && (a == b || instance.conflicts(a, b)));
        if hit {
            out.push(i);
        }
    }
    out
}

/// Tries to reassign event `e` to the best other user (descending
/// utility), skipping `exclude`. (Algorithm 1, lines 7–13.)
///
/// Until a user has been processed their events live in the `working`
/// multiset; afterwards they live in `plan`. A candidate receiver is
/// therefore checked against whichever structure currently holds their
/// events: no duplicate copy of `e`, no time conflict, and within
/// budget after adding `e`. On success the event is placed into the
/// receiver's current structure and `Some(receiver)` is returned.
fn try_reassign(
    instance: &Instance,
    plan: &mut Plan,
    working: &mut [Vec<EventId>],
    processed: usize,
    e: EventId,
    exclude: UserId,
    orders: &mut EventOrders,
) -> Option<UserId> {
    let mut k = 0;
    while let Some((u, _)) = orders.get(e, k) {
        k += 1;
        if u == exclude {
            continue;
        }
        let current: &[EventId] = if u.index() < processed {
            plan.user_plan(u)
        } else {
            &working[u.index()]
        };
        if current.contains(&e) {
            continue;
        }
        if instance.can_attend_with(u, current, e) {
            if u.index() < processed {
                plan.add(u, e);
            } else {
                working[u.index()].push(e);
            }
            return Some(u);
        }
    }
    None
}

/// Algorithm 1: turns a raw conflicted multiset assignment into a
/// conflict-free [`Plan`]. Event copies that no user can absorb are
/// dropped. The returned plan can still carry budget overruns
/// inherited from the ST load slack — run [`budget_repair`] next.
pub fn conflict_adjust(instance: &Instance, raw: RawAssignment) -> Plan {
    // Only events present in the raw assignment can ever be offered
    // around (reassignment moves existing copies; it never conjures new
    // events), so their receiver orders cover every offer.
    let mut needed = vec![false; instance.n_events()];
    for e in raw.iter().flatten() {
        if let Some(flag) = needed.get_mut(e.index()) {
            *flag = true;
        }
    }
    let mut orders = EventOrders::from_candidates(instance, &needed);
    conflict_adjust_with(instance, raw, &mut orders)
}

/// [`conflict_adjust`] reading receivers from `orders`, which must
/// hold the candidate lists of every event in `raw`.
pub(crate) fn conflict_adjust_with(
    instance: &Instance,
    raw: RawAssignment,
    orders: &mut EventOrders,
) -> Plan {
    let mut working = raw;
    // Defensive normalization instead of a panic: a well-formed raw
    // assignment has exactly one multiset per user. Extra multisets are
    // dropped, missing ones treated as empty, and out-of-range event
    // ids discarded.
    working.resize(instance.n_users(), Vec::new());
    for multiset in &mut working {
        multiset.retain(|e| e.index() < instance.n_events());
    }
    let mut plan = Plan::for_instance(instance);

    for u in 0..working.len() {
        let user = UserId(u as u32);
        // Resolve this user's conflicts on the multiset.
        loop {
            let conflicted = conflicting_entries(instance, &working[u]);
            let Some(&victim_idx) = conflicted.iter().min_by(|&&i, &&j| {
                instance
                    .utility(user, working[u][i])
                    .total_cmp(&instance.utility(user, working[u][j]))
                    .then(working[u][i].cmp(&working[u][j]))
            }) else {
                break;
            };
            let e = working[u].remove(victim_idx);
            // Offer the removed copy to the other users; if no one can
            // absorb it, the copy is dropped (the shortfall surfaces in
            // validation).
            let _ = try_reassign(instance, &mut plan, &mut working, u, e, user, orders);
        }
        // Commit the now conflict-free multiset (`Plan::add` ignores
        // any residual duplicate defensively).
        let events = std::mem::take(&mut working[u]);
        for e in events {
            plan.add(user, e);
        }
    }
    plan
}

/// Removes the lowest-utility events from over-budget users until all
/// budgets hold, offering each removed event to other users first
/// (same policy as Algorithm 1's reassignment step). Returns the
/// number of assignments that had to be dropped entirely.
pub fn budget_repair(instance: &Instance, plan: &mut Plan) -> usize {
    let over = over_budget(instance, plan);
    if over.is_empty() {
        return 0;
    }
    // Victims only come out of the entry plans of the users in `over`,
    // so only those events need receiver orders.
    let mut needed = vec![false; instance.n_events()];
    for e in over.iter().flat_map(|&u| plan.user_plan(u)) {
        needed[e.index()] = true;
    }
    let mut orders = EventOrders::from_candidates(instance, &needed);
    repair(instance, plan, over, &mut orders)
}

/// [`budget_repair`] reading receivers from `orders`, which must hold
/// the candidate lists of every event an over-budget user attends.
pub(crate) fn budget_repair_with(
    instance: &Instance,
    plan: &mut Plan,
    orders: &mut EventOrders,
) -> usize {
    let over = over_budget(instance, plan);
    repair(instance, plan, over, orders)
}

/// The users over budget in `plan`, the only ones budget repair ever
/// strips: a receiver passes `can_attend_with`'s budget check on the
/// event list it then holds, so it stays within budget.
fn over_budget(instance: &Instance, plan: &Plan) -> Vec<UserId> {
    instance
        .user_ids()
        .filter(|&u| plan.travel_cost(instance, u) > instance.user(u).budget + 1e-9)
        .collect()
}

/// Strips each of the `over` users down to budget.
fn repair(
    instance: &Instance,
    plan: &mut Plan,
    over: Vec<UserId>,
    orders: &mut EventOrders,
) -> usize {
    let mut dropped = 0;
    for u in over {
        while plan.travel_cost(instance, u) > instance.user(u).budget + 1e-9 {
            // Remove the event contributing the least utility.
            let Some(&victim) = plan.user_plan(u).iter().min_by(|&&a, &&b| {
                instance
                    .utility(u, a)
                    .total_cmp(&instance.utility(u, b))
                    .then(a.cmp(&b))
            }) else {
                break; // empty plan cannot exceed a non-negative budget
            };
            plan.remove(u, victim);
            // All users are "processed" here: reassignment checks go
            // against the committed plan only.
            let n = instance.n_users();
            if try_reassign(instance, plan, &mut [], n, victim, u, orders).is_none() {
                dropped += 1;
            }
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{Event, TimeInterval, User, UtilityMatrix};
    use epplan_geo::Point;

    /// 3 users, 3 events; e0 and e1 conflict.
    fn inst() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 100.0),
            User::new(Point::new(1.0, 0.0), 100.0),
            User::new(Point::new(2.0, 0.0), 100.0),
        ];
        let events = vec![
            Event::new(Point::new(0.0, 1.0), 1, 3, TimeInterval::new(0, 60)),
            Event::new(Point::new(0.0, 2.0), 1, 3, TimeInterval::new(30, 90)),
            Event::new(Point::new(0.0, 3.0), 1, 3, TimeInterval::new(120, 180)),
        ];
        let utilities = UtilityMatrix::from_rows(vec![
            vec![0.5, 0.9, 0.3],
            vec![0.8, 0.2, 0.4],
            vec![0.6, 0.7, 0.5],
        ]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    #[test]
    fn resolves_conflict_by_moving_smallest_utility() {
        let inst = inst();
        // u0 got both e0 (0.5) and e1 (0.9): conflict. e0 is smaller →
        // removed and offered to u1 (0.8, highest among others).
        let raw = vec![vec![EventId(0), EventId(1)], vec![], vec![]];
        let plan = conflict_adjust(&inst, raw);
        assert!(certify(&inst, &plan).hard_ok());
        assert!(plan.contains(UserId(0), EventId(1)));
        assert!(plan.contains(UserId(1), EventId(0)));
    }

    #[test]
    fn duplicate_copies_are_spread() {
        let inst = inst();
        // GAP assigned two copies of e2 to u0.
        let raw = vec![vec![EventId(2), EventId(2)], vec![], vec![]];
        let plan = conflict_adjust(&inst, raw);
        assert!(certify(&inst, &plan).hard_ok());
        assert_eq!(plan.attendance(EventId(2)), 2);
        assert!(plan.contains(UserId(0), EventId(2)));
        // The spare copy goes to u2 (0.5 > 0.4 of u1).
        assert!(plan.contains(UserId(2), EventId(2)));
    }

    #[test]
    fn drops_copy_when_nobody_can_take_it() {
        let mut inst = inst();
        // Nobody else finds e0 interesting.
        inst.set_utility(UserId(1), EventId(0), 0.0);
        inst.set_utility(UserId(2), EventId(0), 0.0);
        let raw = vec![vec![EventId(0), EventId(1)], vec![], vec![]];
        let plan = conflict_adjust(&inst, raw);
        assert!(certify(&inst, &plan).hard_ok());
        assert_eq!(plan.attendance(EventId(0)), 0);
        assert!(plan.contains(UserId(0), EventId(1)));
    }

    #[test]
    fn receiver_must_not_have_conflicts() {
        let inst = inst();
        // u1 already holds e1, which conflicts with e0; u2 is free.
        let raw = vec![
            vec![EventId(0), EventId(1)],
            vec![EventId(1)],
            vec![],
        ];
        let plan = conflict_adjust(&inst, raw);
        assert!(certify(&inst, &plan).hard_ok());
        // e0 (utility 0.5 < 0.9) leaves u0; u1 blocked (has e1);
        // u2 takes it.
        assert!(plan.contains(UserId(2), EventId(0)));
    }

    #[test]
    fn malformed_raw_assignment_is_normalized() {
        let inst = inst();
        // Too few multisets, one out-of-range event id, and one extra
        // multiset beyond the user count: all tolerated.
        let raw = vec![vec![EventId(0), EventId(99)]];
        let plan = conflict_adjust(&inst, raw);
        assert!(certify(&inst, &plan).hard_ok());
        assert!(plan.contains(UserId(0), EventId(0)));
        assert_eq!(plan.attendance(EventId(0)), 1);

        let raw = vec![vec![], vec![], vec![], vec![EventId(1)]];
        let plan = conflict_adjust(&inst, raw);
        assert_eq!(plan.total_assignments(), 0);
    }

    #[test]
    fn clean_input_passes_through() {
        let inst = inst();
        let raw = vec![vec![EventId(0)], vec![EventId(2)], vec![EventId(1)]];
        let plan = conflict_adjust(&inst, raw.clone());
        for (u, evs) in raw.iter().enumerate() {
            for e in evs {
                assert!(plan.contains(UserId(u as u32), *e));
            }
        }
    }

    #[test]
    fn budget_repair_drops_cheapest_utility_first() {
        let mut instance = inst();
        instance.set_budget(UserId(0), 5.0);
        let mut plan = Plan::for_instance(&instance);
        // Route 0→e0? No — use non-conflicting e0 (0–60) + e2 (120–180):
        // cost d(u0,e0)+d(e0,e2)+d(e2,u0) = 1 + 2 + 3 = 6 > 5.
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(0), EventId(2));
        // Block every other user from taking the dropped event.
        instance.set_utility(UserId(1), EventId(2), 0.0);
        instance.set_utility(UserId(2), EventId(2), 0.0);
        let dropped = budget_repair(&instance, &mut plan);
        assert!(certify(&instance, &plan).hard_ok());
        // e2 has utility 0.3 < 0.5 → removed first; nobody takes it.
        assert_eq!(dropped, 1);
        assert!(plan.contains(UserId(0), EventId(0)));
        assert!(!plan.contains(UserId(0), EventId(2)));
    }

    #[test]
    fn budget_repair_rehomes_when_possible() {
        let mut instance = inst();
        instance.set_budget(UserId(0), 5.0);
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(0), EventId(2));
        let dropped = budget_repair(&instance, &mut plan);
        assert_eq!(dropped, 0);
        // e2 moved to another user (u2 has 0.5 ≥ u1's 0.4).
        assert!(plan.contains(UserId(2), EventId(2)));
        assert!(certify(&instance, &plan).hard_ok());
    }

    /// `budget_repair` as it reads without the over-budget shortcut:
    /// every user is visited and each victim's receivers are sorted in
    /// full.
    fn budget_repair_eager(instance: &Instance, plan: &mut Plan) -> usize {
        let mut dropped = 0;
        for u in instance.user_ids() {
            while plan.travel_cost(instance, u) > instance.user(u).budget + 1e-9 {
                let Some(&victim) = plan.user_plan(u).iter().min_by(|&&a, &&b| {
                    instance
                        .utility(u, a)
                        .total_cmp(&instance.utility(u, b))
                        .then(a.cmp(&b))
                }) else {
                    break;
                };
                plan.remove(u, victim);
                let mut receivers: Vec<UserId> = instance
                    .user_ids()
                    .filter(|&r| instance.candidates().contains(r, victim))
                    .collect();
                receivers.sort_by(|&a, &b| {
                    let (ma, mb) = (instance.utility(a, victim), instance.utility(b, victim));
                    mb.total_cmp(&ma).then(a.cmp(&b))
                });
                let receiver = receivers.into_iter().find(|&r| {
                    r != u
                        && !plan.contains(r, victim)
                        && instance.can_attend_with(r, plan.user_plan(r), victim)
                });
                match receiver {
                    Some(r) => {
                        plan.add(r, victim);
                    }
                    None => dropped += 1,
                }
            }
        }
        dropped
    }

    #[test]
    fn budget_repair_matches_the_eager_repair() {
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (n_users, n_events) = (rng.gen_range(2..40), rng.gen_range(1..10u32));
            let users = (0..n_users)
                .map(|_| {
                    let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                    User::new(at, rng.gen_range(2.0..40.0))
                })
                .collect();
            let events = (0..n_events)
                .map(|_| {
                    let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                    let start = 30 * rng.gen_range(0..8);
                    Event::new(at, 1, 4, TimeInterval::new(start, start + 45))
                })
                .collect();
            let rows = (0..n_users)
                .map(|_| {
                    (0..n_events)
                        .map(|_| [0.0, 0.2, 0.5, 0.9][rng.gen_range(0..4)])
                        .collect()
                })
                .collect();
            let instance =
                Instance::new(users, events, UtilityMatrix::from_rows(rows).unwrap()).unwrap();
            // A conflict-free plan with many users over budget.
            let raw = (0..n_users)
                .map(|_| {
                    (0..n_events)
                        .filter(|_| rng.gen_bool(0.5))
                        .map(EventId)
                        .collect()
                })
                .collect();
            let plan = conflict_adjust(&instance, raw);
            let (mut lazy, mut eager) = (plan.clone(), plan);
            let dropped = budget_repair(&instance, &mut lazy);
            assert_eq!(dropped, budget_repair_eager(&instance, &mut eager), "seed {seed}");
            assert_eq!(lazy, eager, "seed {seed}");
            for u in instance.user_ids() {
                assert!(lazy.travel_cost(&instance, u) <= instance.user(u).budget + 1e-9);
            }
        }
    }

    #[test]
    fn noop_on_within_budget_plans() {
        let instance = inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(1));
        let before = plan.clone();
        assert_eq!(budget_repair(&instance, &mut plan), 0);
        assert_eq!(plan, before);
    }
}
