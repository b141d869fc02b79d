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
//! Offers read an event's receivers in that order from
//! `ReceiverOrders`: one flat event-major transpose of the candidate
//! lists, each event's list sorted only as far as its offers read it.
//! Some ~1 400 offers read the orders of a 24 000-user solve, so
//! sorting its ~1.8 M receiver pairs in full would be almost all of
//! the work.
//!
//! The ST rounding also only guarantees per-user load ≤ `T_i + max p`,
//! i.e. travel cost up to about `2·(2+ε)·B_i`, so a further
//! [`budget_repair`] pass removes (and tries to rehome) the
//! lowest-utility events of over-budget users. The paper folds this
//! into its `(2+ε)` budget scaling argument; an executable system must
//! enforce the real budgets explicitly.

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;

/// Receivers sorted per step when an offer first reads past the sorted
/// part of an event's list; later steps double.
const ORDER_CHUNK: usize = 32;

/// Receiver preference orders — users with positive utility, descending
/// utility then ascending id — of the events marked in `needed`, sorted
/// only as far as offers read them.
///
/// One flat event-major transpose of the user-major candidate lists
/// holds every needed event's `(user, μ)` pairs: two linear passes over
/// the candidate arrays, not a users × events sweep. An offer reads its event's list front to
/// back. A read past the sorted part sorts the next chunk in place,
/// with `select_nth_unstable_by` and then a sort on the same key. The
/// key is a total order (users are distinct within a list), so every
/// sorted prefix is exactly that of the fully sorted list. The offering
/// user is skipped at iteration time, which yields exactly the
/// per-offer order a sequential sort would produce.
///
/// Restricting receivers to candidates is lossless: a non-candidate
/// either has μ = 0 (never in the order) or cannot afford the event on
/// its own, which `can_attend_with` rejects in every plan state.
struct ReceiverOrders {
    /// Event `e`'s list is `pairs[offsets[e]..offsets[e + 1]]`.
    offsets: Vec<u32>,
    /// `(user, μ)` pairs.
    pairs: Vec<(u32, f64)>,
    /// Per event, the length of the list's sorted prefix.
    sorted: Vec<u32>,
}

/// The receiver order: μ descending, then user ascending.
fn by_rank(a: &(u32, f64), b: &(u32, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

impl ReceiverOrders {
    fn new(instance: &Instance, needed: &[bool]) -> ReceiverOrders {
        let cands = instance.candidates();
        let (events, utils) = (cands.event_ids(), cands.utilities());
        let mut offsets = vec![0u32; needed.len() + 1];
        for &e in events {
            offsets[e as usize + 1] += u32::from(needed[e as usize]);
        }
        for e in 0..needed.len() {
            offsets[e + 1] += offsets[e];
        }
        let total = offsets[needed.len()];
        // One branch-free pass over the flat candidate arrays: pairs of
        // events not needed all land in one spare slot past the end,
        // which is cut off afterwards.
        let mut next: Vec<u32> = (0..needed.len())
            .map(|e| if needed[e] { offsets[e] } else { total })
            .collect();
        let mut pairs = vec![(0u32, 0.0f64); total as usize + 1];
        for (u, row) in cands.row_offsets().windows(2).enumerate() {
            for k in row[0] as usize..row[1] as usize {
                let e = events[k] as usize;
                pairs[next[e] as usize] = (u as u32, utils[k]);
                next[e] += u32::from(needed[e]);
            }
        }
        pairs.truncate(total as usize);
        ReceiverOrders {
            offsets,
            pairs,
            sorted: vec![0; needed.len()],
        }
    }

    /// The `k`-th receiver of `e` in preference order, `None` past the
    /// end of the list (or for an event not marked as needed).
    fn get(&mut self, e: EventId, k: usize) -> Option<UserId> {
        let lo = self.offsets[e.index()] as usize;
        let list = &mut self.pairs[lo..self.offsets[e.index() + 1] as usize];
        if k >= list.len() {
            return None;
        }
        let sorted = &mut self.sorted[e.index()];
        while k >= *sorted as usize {
            let rest = &mut list[*sorted as usize..];
            let step = (*sorted as usize).max(ORDER_CHUNK).min(rest.len());
            if step < rest.len() {
                rest.select_nth_unstable_by(step, by_rank);
            }
            rest[..step].sort_unstable_by(by_rank);
            *sorted += step as u32;
        }
        Some(UserId(list[k].0))
    }
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
    orders: &mut ReceiverOrders,
) -> Option<UserId> {
    let mut k = 0;
    while let Some(u) = orders.get(e, k) {
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
    let mut orders = ReceiverOrders::new(instance, &needed);

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
            let _ = try_reassign(instance, &mut plan, &mut working, u, e, user, &mut orders);
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
    // A receiver passes `can_attend_with`'s budget check on exactly the
    // event list it then holds, so a user within budget on entry stays
    // within it. Victims therefore only come out of the entry plans of
    // users already over budget, and only those events need receiver
    // orders.
    let over: Vec<UserId> = instance
        .user_ids()
        .filter(|&u| plan.travel_cost(instance, u) > instance.user(u).budget + 1e-9)
        .collect();
    if over.is_empty() {
        return 0;
    }
    let mut needed = vec![false; instance.n_events()];
    for &u in &over {
        for e in plan.user_plan(u) {
            needed[e.index()] = true;
        }
    }
    let mut orders = ReceiverOrders::new(instance, &needed);
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
            if try_reassign(instance, plan, &mut [], n, victim, u, &mut orders).is_none() {
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

    /// The eager receiver orders: every needed event's candidate users,
    /// fully sorted by μ descending, then user ascending.
    fn eager_orders(instance: &Instance, needed: &[bool]) -> Vec<Vec<UserId>> {
        let cands = instance.candidates();
        let mut lists: Vec<Vec<(u32, f64)>> = vec![Vec::new(); needed.len()];
        for u in instance.user_ids() {
            let (events, utils) = cands.row(u);
            for (&e, &mu) in events.iter().zip(utils) {
                if needed[e as usize] {
                    lists[e as usize].push((u.0, mu));
                }
            }
        }
        lists
            .into_iter()
            .map(|mut list| {
                list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                list.into_iter().map(|(u, _)| UserId(u)).collect()
            })
            .collect()
    }

    #[test]
    fn lazy_receiver_orders_match_the_eager_sort() {
        use rand::{Rng, SeedableRng};
        // Event 0's list holds every user: lengths at and just past the
        // sort-step boundaries (32, 64, 128, 256), then others.
        let lengths = [1, 32, 33, 64, 65, 100, 128, 129, 256, 257, 399];
        for (seed, n_users) in lengths.into_iter().enumerate() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
            let n_events: u32 = rng.gen_range(1..6);
            let users = (0..n_users)
                .map(|_| {
                    let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                    User::new(at, 1000.0)
                })
                .collect();
            let events = (0..n_events)
                .map(|k| {
                    let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                    Event::new(at, 1, 3, TimeInterval::new(60 * k, 60 * k + 30))
                })
                .collect();
            // Few distinct utilities, so most ranks are decided by the
            // user-id tie-break.
            let rows = (0..n_users)
                .map(|_| {
                    (0..n_events)
                        .map(|e| [0.0, 0.3, 0.6, 0.9][rng.gen_range(usize::from(e == 0)..4)])
                        .collect()
                })
                .collect();
            let instance =
                Instance::new(users, events, UtilityMatrix::from_rows(rows).unwrap()).unwrap();
            let needed: Vec<bool> = (0..n_events).map(|e| e == 0 || rng.gen_bool(0.8)).collect();
            let eager = eager_orders(&instance, &needed);
            assert_eq!(eager[0].len(), n_users);
            let mut lazy = ReceiverOrders::new(&instance, &needed);
            // Interleave partial reads of random events before reading
            // every list through its end.
            for _ in 0..20 {
                let e = rng.gen_range(0..n_events);
                let order = &eager[e as usize];
                for k in 0..rng.gen_range(0..=order.len() + 1) {
                    assert_eq!(lazy.get(EventId(e), k), order.get(k).copied());
                }
            }
            for (e, order) in eager.iter().enumerate() {
                for k in 0..=order.len() {
                    assert_eq!(
                        lazy.get(EventId(e as u32), k),
                        order.get(k).copied(),
                        "{n_users} users, event {e}, rank {k}"
                    );
                }
            }
        }
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
    /// every user is visited and every event's receivers are eagerly
    /// sorted.
    fn budget_repair_eager(instance: &Instance, plan: &mut Plan) -> usize {
        let orders = eager_orders(instance, &vec![true; instance.n_events()]);
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
                let receiver = orders[victim.index()].iter().copied().find(|&r| {
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
