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
//!    lower user. The batch fill builds it from the candidate cache,
//!    keeping only the best 256 pairs of an event with more than 512
//!    until the drain reads past them; a GAP solve hands over the
//!    store its Algorithm 1 already read; the repair scopes build a
//!    small one from their candidate pairs, whole;
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
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// otherwise. Returns the number of assignments added. Runs inside the
/// `solve.fill` span.
///
/// The batch fill builds an event-major store from the candidate
/// cache; a `users` fill gathers those users' candidate pairs (from
/// their utility rows, since incremental ops invalidate the cache) into
/// a small one. Both are drained as a k-way merge of per-event lists
/// (see the module docs).
pub fn fill_to_upper(instance: &Instance, plan: &mut Plan, users: Option<&[UserId]>) -> usize {
    let _sp = epplan_obs::span("solve.fill");
    let mut orders = match users {
        None => {
            let every = vec![true; instance.n_events()];
            EventOrders::from_candidates(instance, &every)
        }
        Some(us) => {
            let mut pairs = Vec::new();
            for &u in us {
                for_each_candidate_in_row(instance, u, |e, mu| pairs.push(pair(u, e, mu)));
            }
            EventOrders::from_pairs(instance.n_events(), pairs)
        }
    };
    drain(instance, plan, &mut orders)
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
    drain(instance, plan, &mut orders)
}

/// The batch fill over a store of every event's candidate pairs, as a
/// GAP solve hands it over: the plan [`fill_to_upper`] would produce.
pub(crate) fn fill_to_upper_with(
    instance: &Instance,
    plan: &mut Plan,
    orders: &mut EventOrders<'_>,
) -> usize {
    let _sp = epplan_obs::span("solve.fill");
    drain(instance, plan, orders)
}

/// The k-way merge over `orders`' event lists (see the module docs).
fn drain(instance: &Instance, plan: &mut Plan, orders: &mut EventOrders<'_>) -> usize {
    let mut heads: BinaryHeap<(Candidate, usize)> = BinaryHeap::new();
    for e in 0..orders.n_lists() {
        heads.extend(next_open(instance, plan, orders, EventId(e as u32), 0));
    }
    let mut added = 0;
    while let Some((c, k)) = heads.pop() {
        if instance.can_attend_with(c.user, plan.user_plan(c.user), c.event) {
            plan.add(c.user, c.event);
            added += 1;
        }
        heads.extend(next_open(instance, plan, orders, c.event, k + 1));
    }
    added
}

/// The first pair of `e`'s list at rank `k` or later whose user does
/// not attend `e` yet, with its rank; `None` once `e` is full.
fn next_open(
    instance: &Instance,
    plan: &Plan,
    orders: &mut EventOrders<'_>,
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

    #[test]
    fn deterministic_output() {
        let inst = open_instance();
        let mut p1 = Plan::for_instance(&inst);
        let mut p2 = Plan::for_instance(&inst);
        fill_to_upper(&inst, &mut p1, None);
        fill_to_upper(&inst, &mut p2, None);
        assert_eq!(p1, p2);
    }

    /// A random instance with `n_users` users and events of room
    /// `uppers`: quarter utilities, so that ties are common.
    fn crowded_instance(
        seed: u64,
        n_users: std::ops::Range<usize>,
        uppers: std::ops::Range<u32>,
    ) -> Instance {
        use crate::model::InstanceBuilder;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = InstanceBuilder::new();
        let users: Vec<UserId> = (0..rng.gen_range(n_users))
            .map(|_| {
                let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                b.user(at, rng.gen_range(10.0..40.0))
            })
            .collect();
        let events: Vec<EventId> = (0..rng.gen_range(3..12))
            .map(|_| {
                let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                let start = rng.gen_range(0..480);
                let time = TimeInterval::new(start, start + rng.gen_range(30..120));
                b.event_raw(Event::new(at, 0, rng.gen_range(uppers.clone()), time))
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

    /// Every assignment of `sub` is in `plan`.
    fn keeps_all_of(instance: &Instance, plan: &Plan, sub: &Plan) -> bool {
        instance
            .user_ids()
            .all(|u| sub.user_plan(u).iter().all(|&e| plan.contains(u, e)))
    }

    #[test]
    fn fill_of_a_prefilled_plan_keeps_it_and_stays_hard_feasible() {
        for seed in 0..8 {
            let inst = crowded_instance(seed, 100..180, 10..40);
            let start = prefilled(&inst, seed);
            let mut plan = start.clone();
            let added = fill_to_upper(&inst, &mut plan, None);
            assert_eq!(plan.total_assignments(), start.total_assignments() + added);
            assert!(keeps_all_of(&inst, &plan, &start), "seed {seed}");
            let v = certify(&inst, &plan);
            assert!(v.hard_ok(), "seed {seed}: {:?}", v.hard_violations);
        }
    }

    #[test]
    fn a_second_fill_adds_nothing() {
        for seed in 0..8 {
            let inst = crowded_instance(seed, 100..180, 10..40);
            let mut plan = prefilled(&inst, seed);
            fill_to_upper(&inst, &mut plan, None);
            let filled = plan.clone();
            assert_eq!(fill_to_upper(&inst, &mut plan, None), 0, "seed {seed}");
            for e in inst.event_ids() {
                assert_eq!(fill_event(&inst, &mut plan, e), 0, "seed {seed}, {e:?}");
            }
            assert_eq!(plan, filled, "seed {seed}");
        }
    }

    #[test]
    fn restricted_fill_touches_only_listed_users() {
        use rand::{Rng, SeedableRng};
        for seed in 0..8 {
            let inst = crowded_instance(seed, 100..180, 10..40);
            let start = prefilled(&inst, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Unsorted, with duplicates.
            let listed: Vec<UserId> = (0..rng.gen_range(20..80))
                .map(|_| UserId(rng.gen_range(0..inst.n_users()) as u32))
                .collect();
            let mut plan = start.clone();
            let added = fill_to_upper(&inst, &mut plan, Some(&listed));
            assert!(added > 0, "seed {seed}: nothing to fill");
            for u in inst.user_ids() {
                if !listed.contains(&u) {
                    assert_eq!(plan.user_plan(u), start.user_plan(u), "seed {seed}, {u:?}");
                }
            }
            assert!(keeps_all_of(&inst, &plan, &start), "seed {seed}");
            assert!(certify(&inst, &plan).hard_ok(), "seed {seed}");
        }
    }

    #[test]
    fn a_shared_store_read_before_the_fill_gives_the_same_plan() {
        use rand::{Rng, SeedableRng};
        // More than 2·HEAD_LEN candidates per event, so that the store
        // keeps heads only; the larger rooms make the drain itself read
        // past them.
        let head = crate::solver::event_orders::HEAD_LEN;
        for (seed, uppers) in [(0, 10..40), (1, 10..40), (2, 300..400), (3, 300..400)] {
            let inst = crowded_instance(seed, 800..900, uppers.clone());
            let mut counts = vec![0; inst.n_events()];
            for u in inst.user_ids() {
                for &e in inst.candidates().row(u).0 {
                    counts[e as usize] += 1;
                }
            }
            assert!(counts.iter().all(|&n| n > 2 * head), "seed {seed}: {counts:?}");
            let start = prefilled(&inst, seed);
            let mut expected = start.clone();
            let added = fill_to_upper(&inst, &mut expected, None);
            let deepest = inst.event_ids().map(|e| expected.attendance(e)).max();
            assert_eq!(deepest > Some(head as u32), uppers.start > head as u32);
            let every = vec![true; inst.n_events()];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // As Algorithm 1 and budget repair do, read some lists
            // before the fill; odd seeds read one past a head.
            let mut orders = EventOrders::from_candidates(&inst, &every);
            for e in inst.event_ids() {
                for k in 0..rng.gen_range(0..head) {
                    orders.get(e, k);
                }
            }
            if seed % 2 == 1 {
                assert!(orders.get(EventId(0), head).is_some(), "seed {seed}");
            }
            let mut plan = start.clone();
            assert_eq!(fill_to_upper_with(&inst, &mut plan, &mut orders), added);
            assert_eq!(plan, expected, "seed {seed}");
        }
    }
}
