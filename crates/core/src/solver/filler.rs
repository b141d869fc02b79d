//! Step 2 of the two-step framework: the utility-aware capacity filler.
//!
//! After ξ-GEPC assigns exactly `ξ_j` users to each event, "we then
//! check whether users can possibly participate in more events than
//! those assigned … solving for event participation upper bounds set to
//! `η_j − ξ_j`", which "can be solved using existing methods with
//! provable approximation ratio (e.g., see \[4\])" (Section III). The
//! method of \[4\] (She, Tong, Chen — SIGMOD 2015, *Utility-aware social
//! event-participant planning*) is a utility-descending greedy over
//! user–event pairs; this module implements it.
//!
//! The same drain backs the IEP repairs. Restricted to a `users` list
//! it is the final step of Algorithms 3–5 ("use methods in \[4\] to
//! check if the … users can attend other events"); scoped to one event
//! ([`fill_event`]) it is Algorithm 5's refill (lines 8–13) and the
//! `η`-increase, new-event and cheaper-fee repairs.
//!
//! # Event-major drain
//!
//! The greedy visits the open `(user, event)` pairs in one total order
//! — utility descending, ties to the lower user id, then the lower
//! event id — and adds each pair that still fits. Few pairs are ever
//! placed (an event takes at most `η_j` users), so the drain never
//! orders all of them:
//!
//! 1. the pairs sit in an event-major pair store (`EventOrders`),
//!    each event's list lazily sorted by utility descending, then the
//!    lower user. The batch fill builds it from the candidate cache;
//!    a GAP solve hands over the store its Algorithm 1 already read;
//!    the repair scopes build a small one from their candidate pairs;
//! 2. a per-event cursor walks the list and skips users who already
//!    attend the event. A pair can only become attended by its own
//!    pop, so this skips exactly the pairs that were not open when the
//!    fill began;
//! 3. a heads heap holds each open event's best unread pair. After a
//!    pop, the event's cursor feeds the heap only while the event is
//!    below `η`; a full event's list is abandoned unread.
//!
//! A k-way merge of lists, each sorted by the one total order
//! restricted to its event, yields the same sequence as a single heap
//! over every pair. The only pairs it skips belong to full events, and
//! a single-heap drain would pop and discard each of those: attendance
//! only rises, so a full event stays full. Every add therefore happens
//! in the same order as in the single-heap drain, and the plan is the
//! same byte for byte.
//!
//! Rejections are final too: adding assignments only tightens the
//! constraints (more conflicts, less residual budget, less capacity),
//! so a pair that fails once is discarded for good.

use crate::model::candidates::{for_each_candidate_in_row, is_candidate};
use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;
use crate::solver::event_orders::{pair, EventOrders};
use epplan_solve::{DeadlineExceeded, DeadlineFlag};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Users (while gathering pairs or building a store) or heap pops (in
/// the drain) between deadline polls: each step is cheap, so a modest
/// stride keeps the poll cost invisible while still bounding overshoot.
pub(crate) const POLL_STRIDE: usize = 64;

/// A max-heap key: `score` descending, ties to the lower user, then
/// the lower event. The filler scores a pair by its utility;
/// Algorithm 4's transfers score a donor `(user, source)` by its `Δ`.
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    pub(crate) score: f64,
    pub(crate) user: UserId,
    pub(crate) event: EventId,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| Reverse(self.user).cmp(&Reverse(other.user)))
            .then_with(|| Reverse(self.event).cmp(&Reverse(other.event)))
    }
}

/// Greedily adds assignments in descending-utility order while all
/// hard constraints and the upper bounds `η` hold. Restricted to
/// `users` when given (IEP repair mode); considers every user
/// otherwise. Returns the number of assignments added.
pub fn fill_to_upper(instance: &Instance, plan: &mut Plan, users: Option<&[UserId]>) -> usize {
    try_fill_to_upper(instance, plan, users, &DeadlineFlag::unlimited())
        .unwrap_or_else(|DeadlineExceeded| unreachable!("an unlimited deadline never trips"))
}

/// Fills `event` alone, best utility first (ties to the lower user),
/// until it reaches `η` or no further user fits. Returns the number of
/// users added.
///
/// Each user's `μ(u, e)` is tested with the candidate predicate, since
/// incremental ops invalidate the candidate cache.
pub fn fill_event(instance: &Instance, plan: &mut Plan, event: EventId) -> usize {
    let _sp = epplan_obs::span("solve.fill");
    let mut pairs = Vec::new();
    for u in instance.user_ids() {
        let mu = instance.utility(u, event);
        if is_candidate(instance, u, event, mu) {
            pairs.push(pair(u, event, mu));
        }
    }
    let mut orders = EventOrders::from_pairs(instance.n_events(), pairs);
    drain(instance, plan, &mut orders, &DeadlineFlag::unlimited())
        .unwrap_or_else(|DeadlineExceeded| unreachable!("an unlimited deadline never trips"))
}

/// [`fill_to_upper`] under a wall-clock deadline: the budget-governed
/// entry point for anytime solvers and per-op serving budgets. Runs
/// inside the `solve.fill` span.
///
/// The batch fill builds an event-major store from the candidate
/// cache; a `users` fill gathers those users' candidate pairs (from
/// their utility rows, since incremental ops invalidate the cache) into
/// a small one. Both are drained as a k-way merge of per-event lists
/// (see the module docs). The flag is polled every [`POLL_STRIDE`]
/// users while the store is built and every [`POLL_STRIDE`] heap pops
/// in the drain.
///
/// On `Err` the plan holds a *valid partial fill* — a prefix of the
/// same deterministic descending-utility add sequence the unbudgeted
/// fill follows — and every hard constraint still holds. Callers that
/// need all-or-nothing semantics should clone the plan first.
pub fn try_fill_to_upper(
    instance: &Instance,
    plan: &mut Plan,
    users: Option<&[UserId]>,
    deadline: &DeadlineFlag,
) -> Result<usize, DeadlineExceeded> {
    let _sp = epplan_obs::span("solve.fill");
    let mut orders = match users {
        None => {
            let every = vec![true; instance.n_events()];
            EventOrders::try_from_candidates(instance, &every, deadline)?
        }
        Some(us) => {
            let mut pairs = Vec::new();
            for (i, &u) in us.iter().enumerate() {
                if i.is_multiple_of(POLL_STRIDE) {
                    deadline.poll()?;
                }
                for_each_candidate_in_row(instance, u, |e, mu| pairs.push(pair(u, e, mu)));
            }
            EventOrders::from_pairs(instance.n_events(), pairs)
        }
    };
    drain(instance, plan, &mut orders, deadline)
}

/// The batch fill over a store of every event's candidate pairs, as a
/// GAP solve hands it over: the plan [`fill_to_upper`] would produce.
pub(crate) fn fill_to_upper_with(
    instance: &Instance,
    plan: &mut Plan,
    orders: &mut EventOrders,
) -> usize {
    let _sp = epplan_obs::span("solve.fill");
    drain(instance, plan, orders, &DeadlineFlag::unlimited())
        .unwrap_or_else(|DeadlineExceeded| unreachable!("an unlimited deadline never trips"))
}

/// The k-way merge over `orders`' event lists (see the module docs).
fn drain(
    instance: &Instance,
    plan: &mut Plan,
    orders: &mut EventOrders,
    deadline: &DeadlineFlag,
) -> Result<usize, DeadlineExceeded> {
    let mut heads: BinaryHeap<(Candidate, usize)> = BinaryHeap::new();
    for e in 0..orders.n_lists() {
        heads.extend(next_open(instance, plan, orders, EventId(e as u32), 0));
    }
    let mut added = 0;
    let mut pops = 0usize;
    while let Some((c, k)) = heads.pop() {
        pops += 1;
        if pops.is_multiple_of(POLL_STRIDE) {
            deadline.poll()?;
        }
        if instance.can_attend_with(c.user, plan.user_plan(c.user), c.event) {
            plan.add(c.user, c.event);
            added += 1;
        }
        heads.extend(next_open(instance, plan, orders, c.event, k + 1));
    }
    Ok(added)
}

/// The first pair of `e`'s list at rank `k` or later whose user does
/// not attend `e` yet, with its rank; `None` once `e` is full.
fn next_open(
    instance: &Instance,
    plan: &Plan,
    orders: &mut EventOrders,
    e: EventId,
    mut k: usize,
) -> Option<(Candidate, usize)> {
    if plan.attendance(e) >= instance.event(e).upper {
        return None;
    }
    while let Some((user, score)) = orders.get(e, k) {
        if !plan.contains(user, e) {
            let head = Candidate {
                score,
                user,
                event: e,
            };
            return Some((head, k));
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{Event, TimeInterval, User, UtilityMatrix};
    use epplan_geo::Point;

    /// 2 users at the origin with generous budgets; 3 non-conflicting
    /// nearby events with spare capacity.
    fn open_instance() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 100.0),
            User::new(Point::new(0.0, 1.0), 100.0),
        ];
        let events = vec![
            Event::new(Point::new(1.0, 0.0), 0, 2, TimeInterval::new(0, 59)),
            Event::new(Point::new(2.0, 0.0), 0, 2, TimeInterval::new(60, 119)),
            Event::new(Point::new(3.0, 0.0), 0, 1, TimeInterval::new(120, 179)),
        ];
        let utilities = UtilityMatrix::from_rows(vec![
            vec![0.9, 0.8, 0.7],
            vec![0.6, 0.5, 0.95],
        ]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    #[test]
    fn fills_everything_when_unconstrained() {
        let inst = open_instance();
        let mut plan = Plan::for_instance(&inst);
        let added = fill_to_upper(&inst, &mut plan, None);
        // e2 has capacity 1 and u1 wants it more (0.95 > 0.7);
        // everything else fits everyone.
        assert_eq!(added, 5);
        assert!(plan.contains(UserId(1), EventId(2)));
        assert!(!plan.contains(UserId(0), EventId(2)));
        assert!(certify(&inst, &plan).hard_ok());
    }

    #[test]
    fn respects_upper_bounds() {
        let inst = open_instance();
        let mut plan = Plan::for_instance(&inst);
        fill_to_upper(&inst, &mut plan, None);
        for e in inst.event_ids() {
            assert!(plan.attendance(e) <= inst.event(e).upper);
        }
    }

    #[test]
    fn respects_existing_assignments() {
        let inst = open_instance();
        let mut plan = Plan::for_instance(&inst);
        plan.add(UserId(0), EventId(2)); // capacity 1 now full
        let added = fill_to_upper(&inst, &mut plan, None);
        assert_eq!(added, 4);
        assert!(!plan.contains(UserId(1), EventId(2)));
    }

    #[test]
    fn user_restriction() {
        let inst = open_instance();
        let mut plan = Plan::for_instance(&inst);
        let added = fill_to_upper(&inst, &mut plan, Some(&[UserId(1)]));
        assert_eq!(added, 3);
        assert!(plan.user_plan(UserId(0)).is_empty());
    }

    #[test]
    fn budget_limits_fill() {
        let mut inst = open_instance();
        inst.set_budget(UserId(0), 4.0); // only e1 round trip (4) fits… and e0 (2)
        let mut plan = Plan::for_instance(&inst);
        fill_to_upper(&inst, &mut plan, Some(&[UserId(0)]));
        // Greedy adds e0 (μ=.9, cost 2 ≤ 4); then e1 alone would cost 4
        // but combined route 1+1+2 = 4 ≤ 4 → allowed; e2 pushes beyond.
        let v = certify(&inst, &plan);
        assert!(v.hard_ok());
        assert!(plan.travel_cost(&inst, UserId(0)) <= 4.0 + 1e-9);
    }

    #[test]
    fn zero_utility_pairs_never_added() {
        let mut inst = open_instance();
        inst.set_utility(UserId(0), EventId(0), 0.0);
        let mut plan = Plan::for_instance(&inst);
        fill_to_upper(&inst, &mut plan, None);
        assert!(!plan.contains(UserId(0), EventId(0)));
    }

    #[test]
    fn conflicting_events_not_combined() {
        let mut inst = open_instance();
        inst.set_event_time(EventId(1), TimeInterval::new(0, 59)); // now conflicts e0
        let mut plan = Plan::for_instance(&inst);
        fill_to_upper(&inst, &mut plan, Some(&[UserId(0)]));
        let p = plan.user_plan(UserId(0));
        assert!(
            !(p.contains(&EventId(0)) && p.contains(&EventId(1))),
            "conflicting pair assigned together"
        );
        // Higher-utility e0 wins.
        assert!(p.contains(&EventId(0)));
    }

    #[test]
    fn generous_deadline_matches_unbudgeted_fill() {
        let inst = open_instance();
        let mut p1 = Plan::for_instance(&inst);
        let mut p2 = Plan::for_instance(&inst);
        let n1 = fill_to_upper(&inst, &mut p1, None);
        let flag = DeadlineFlag::unlimited();
        let n2 = try_fill_to_upper(&inst, &mut p2, None, &flag).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn expired_deadline_trips_and_leaves_a_feasible_plan() {
        use epplan_solve::{BudgetGuard, SolveBudget};
        let inst = open_instance();
        let mut plan = Plan::for_instance(&inst);
        // A zero allowance is pre-expired: every poll trips.
        let guard =
            BudgetGuard::new(SolveBudget::from_time_limit(std::time::Duration::ZERO));
        let flag = guard.deadline_flag();
        let err = try_fill_to_upper(&inst, &mut plan, None, &flag);
        assert_eq!(err, Err(DeadlineExceeded));
        // Whatever prefix landed before the trip is still hard-feasible.
        assert!(certify(&inst, &plan).hard_ok());
        // Restricted mode polls too.
        let err = try_fill_to_upper(&inst, &mut plan, Some(&[UserId(0)]), &flag);
        assert_eq!(err, Err(DeadlineExceeded));
    }

    /// 3 users, 3 pairwise non-conflicting events close by, each with
    /// room for everyone.
    fn three_by_three() -> Instance {
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
        ])
        .unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    #[test]
    fn fill_event_orders_by_utility() {
        let mut inst = three_by_three();
        inst.set_event_bounds(EventId(0), 0, 2);
        let mut plan = Plan::for_instance(&inst);
        // μ to e0: u0 0.9, u1 0.4, u2 0.2 → capacity 2 takes u0, u1.
        assert_eq!(fill_event(&inst, &mut plan, EventId(0)), 2);
        assert!(plan.contains(UserId(0), EventId(0)));
        assert!(plan.contains(UserId(1), EventId(0)));
        assert!(!plan.contains(UserId(2), EventId(0)));
        // Only e0 is filled.
        assert_eq!(plan.total_assignments(), 2);
    }

    #[test]
    fn fill_event_respects_conflicts() {
        let mut inst = three_by_three();
        inst.set_event_time(EventId(1), TimeInterval::new(0, 59)); // conflicts e0
        let mut plan = Plan::for_instance(&inst);
        plan.add(UserId(0), EventId(1));
        fill_event(&inst, &mut plan, EventId(0));
        assert!(!plan.contains(UserId(0), EventId(0)));
        assert!(plan.contains(UserId(1), EventId(0)));
    }

    /// A random instance for the deadline cases: quarter utilities, so
    /// that ties are common, and events with room for many users.
    fn crowded_instance(seed: u64) -> Instance {
        use crate::model::InstanceBuilder;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = InstanceBuilder::new();
        let users: Vec<UserId> = (0..rng.gen_range(100..180))
            .map(|_| {
                let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                b.user(at, rng.gen_range(10.0..40.0))
            })
            .collect();
        let events: Vec<EventId> = (0..rng.gen_range(8..16))
            .map(|_| {
                let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                let start = rng.gen_range(0..480);
                let time = TimeInterval::new(start, start + rng.gen_range(30..120));
                b.event_raw(Event::new(at, 0, rng.gen_range(10..40), time))
            })
            .collect();
        for &u in &users {
            for &e in &events {
                b.utility(u, e, rng.gen_range(0..=4) as f64 * 0.25);
            }
        }
        b.build()
    }

    /// A random hard-feasible plan with attendees in most events.
    fn prefilled(instance: &Instance, seed: u64) -> Plan {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(!seed);
        let mut plan = Plan::for_instance(instance);
        for u in instance.user_ids() {
            for e in instance.event_ids() {
                if rng.gen_bool(0.15)
                    && plan.attendance(e) < instance.event(e).upper
                    && instance.can_attend_with(u, plan.user_plan(u), e)
                {
                    plan.add(u, e);
                }
            }
        }
        plan
    }

    /// The single-heap greedy over the open pairs of `users` (every
    /// user when `None`): each pop it does not discard, as `(user,
    /// event, added)`. These are the pops the filler makes, in order.
    fn live_pops(
        instance: &Instance,
        start: &Plan,
        users: Option<&[UserId]>,
    ) -> Vec<(UserId, EventId, bool)> {
        let mut plan = start.clone();
        let listed: Vec<UserId> =
            users.map_or_else(|| instance.user_ids().collect(), <[_]>::to_vec);
        let mut heap = BinaryHeap::new();
        for &u in &listed {
            for e in instance.event_ids() {
                if instance.candidates().contains(u, e)
                    && !plan.contains(u, e)
                    && plan.attendance(e) < instance.event(e).upper
                {
                    heap.push(Candidate {
                        score: instance.utility(u, e),
                        user: u,
                        event: e,
                    });
                }
            }
        }
        let mut pops = Vec::new();
        while let Some(c) = heap.pop() {
            if plan.attendance(c.event) >= instance.event(c.event).upper
                || plan.contains(c.user, c.event)
            {
                continue;
            }
            let added = instance.can_attend_with(c.user, plan.user_plan(c.user), c.event);
            if added {
                plan.add(c.user, c.event);
            }
            pops.push((c.user, c.event, added));
        }
        pops
    }

    #[test]
    fn tripped_fill_stops_after_whole_strides_of_live_pops() {
        use rand::{Rng, SeedableRng};
        let mut drained_past_a_poll = 0;
        for seed in 0..16 {
            let inst = crowded_instance(seed);
            let start = prefilled(&inst, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Unsorted, with duplicates.
            let listed: Vec<UserId> = (0..rng.gen_range(60..200))
                .map(|_| UserId(rng.gen_range(0..inst.n_users()) as u32))
                .collect();
            for users in [None, Some(&listed[..])] {
                let pops = live_pops(&inst, &start, users);
                let adds: Vec<(UserId, EventId)> =
                    pops.iter().filter(|p| p.2).map(|p| (p.0, p.1)).collect();
                // Assignments added when the flag allows `n` polls.
                let mut made = Vec::new();
                for n in 0.. {
                    let mut plan = start.clone();
                    let flag = DeadlineFlag::after_polls(n);
                    let result = try_fill_to_upper(&inst, &mut plan, users, &flag);
                    let m = plan.total_assignments() - start.total_assignments();
                    let mut expected = start.clone();
                    for &(u, e) in &adds[..m] {
                        expected.add(u, e);
                    }
                    let msg = "not a prefix of the adds";
                    assert!(plan == expected, "seed {seed}, {n} polls: {msg}");
                    made.push(m);
                    if let Ok(added) = result {
                        assert_eq!(added, adds.len(), "seed {seed}");
                        break;
                    }
                }
                // The drain polls before every POLL_STRIDE-th pop, after
                // some fixed number `g` of polls while the store is built.
                let adds_within = |k: usize| pops.iter().take(k).filter(|p| p.2).count();
                let explained = (0..made.len()).any(|g| {
                    made.iter().enumerate().all(|(n, &m)| {
                        let polls_in_drain = (n + 1).saturating_sub(g);
                        m == adds_within((POLL_STRIDE * polls_in_drain).saturating_sub(1))
                    })
                });
                assert!(
                    explained,
                    "seed {seed}: adds per allowed poll {made:?} are not whole strides of live pops"
                );
                drained_past_a_poll += usize::from(pops.len() > 2 * POLL_STRIDE);
            }
        }
        assert!(drained_past_a_poll >= 16, "too few fills poll in the drain");
    }

    #[test]
    fn deterministic_output() {
        let inst = open_instance();
        let mut p1 = Plan::for_instance(&inst);
        let mut p2 = Plan::for_instance(&inst);
        fill_to_upper(&inst, &mut p1, None);
        fill_to_upper(&inst, &mut p2, None);
        assert_eq!(p1, p2);
    }
}
