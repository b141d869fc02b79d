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
//! The ST rounding also only guarantees per-user load ≤ `T_i + max p`,
//! i.e. travel cost up to about `2·(2+ε)·B_i`, so a further
//! [`budget_repair`] pass removes (and tries to rehome) the
//! lowest-utility events of over-budget users. The paper folds this
//! into its `(2+ε)` budget scaling argument; an executable system must
//! enforce the real budgets explicitly.

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;

/// Events per parallel receiver-ranking chunk (each costs an
/// `O(n log n)` sort over the users).
const ORDER_MIN_CHUNK: usize = 8;

/// Precomputes the receiver preference order — users with positive
/// utility, descending utility then ascending id — for every event
/// marked in `needed`, fanned out across event chunks. Reassignment
/// then consumes a fixed order instead of re-sorting per offer; the
/// offering user is skipped at iteration time, which yields exactly
/// the per-offer order the sequential sort produced.
fn receiver_orders(instance: &Instance, needed: &[bool]) -> Vec<Option<Vec<UserId>>> {
    // Transpose the user-major candidate lists into per-event receiver
    // lists (users ascending), touching only needed events, then sort
    // each list in parallel — O(candidates) total instead of a full
    // users × events sweep. Restricting receivers to candidates is
    // lossless: a non-candidate either has μ = 0 (never in the old
    // order) or cannot afford the event on its own, which
    // `can_attend_with` rejects in every plan state.
    let cands = instance.candidates();
    let mut lists: Vec<Option<Vec<(u32, f64)>>> =
        needed.iter().map(|&nd| nd.then(Vec::new)).collect();
    for u in instance.user_ids() {
        let (events, utils) = cands.row(u);
        for (&e, &mu) in events.iter().zip(utils) {
            if let Some(list) = lists.get_mut(e as usize).and_then(|o| o.as_mut()) {
                list.push((u.0, mu));
            }
        }
    }
    let sorted: Result<(), std::convert::Infallible> =
        epplan_par::try_par_chunks_for_each_mut(&mut lists, ORDER_MIN_CHUNK, |_, chunk| {
            for slot in chunk.iter_mut() {
                if let Some(list) = slot.as_mut() {
                    list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                }
            }
            Ok(())
        });
    if let Err(never) = sorted {
        match never {}
    }
    lists
        .into_iter()
        .map(|slot| slot.map(|list| list.into_iter().map(|(u, _)| UserId(u)).collect()))
        .collect()
}

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
    order: &[UserId],
) -> Option<UserId> {
    for &u in order {
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

    // Only events present in the raw assignment can ever be offered
    // around (reassignment moves existing copies; it never conjures new
    // events), so their receiver orders cover every offer below.
    let mut needed = vec![false; instance.n_events()];
    for multiset in &working {
        for e in multiset {
            needed[e.index()] = true;
        }
    }
    let orders = receiver_orders(instance, &needed);
    const NO_ORDER: &[UserId] = &[];

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
            let order = orders[e.index()].as_deref().unwrap_or(NO_ORDER);
            let _ = try_reassign(instance, &mut plan, &mut working, u, e, user, order);
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
    let mut dropped = 0;
    // Victims only ever come out of the incoming plan, so the events
    // currently planned bound the receiver orders needed.
    let mut needed = vec![false; instance.n_events()];
    for u in instance.user_ids() {
        for e in plan.user_plan(u) {
            needed[e.index()] = true;
        }
    }
    let orders = receiver_orders(instance, &needed);
    for u in instance.user_ids() {
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
            let order = orders[victim.index()].as_deref().unwrap_or(&[]);
            if try_reassign(instance, plan, &mut [], n, victim, u, order).is_none() {
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
