//! Differential test of the step-2 filler against a single-heap oracle.
//!
//! The filler drains its candidates as a k-way merge of per-event
//! heaps and abandons an event once it is full. The oracle below is the
//! straightforward form of the same greedy: one max-heap over every
//! open `(user, event)` pair, each popped pair re-checked against
//! capacity, membership and `can_attend_with`. Both must produce the
//! same plan and the same add count, for full fills and for restricted
//! fills with unsorted, duplicated user lists, at every thread count.
//!
//! The event scope ([`fill_event`]) has its own oracle: the
//! sort-and-scan refill it replaced, which sorts every user with
//! `μ > 0` by utility descending, then user id, and adds each in turn
//! while the event is below `η`.
//!
//! Utilities are quantized to quarters so that ties are common and the
//! `(user, event)` tie-breaks decide the order.
//!
//! A batch fill keeps only the best 256 pairs of an event with more
//! than 512 candidates until a read goes past them. The wide instances
//! give one event 513–900 candidates and room for 300 or more of them,
//! so the fill reads that event's list past its first 256 pairs.

use epplan_core::certify::certify;
use epplan_core::model::{Event, EventId, Instance, InstanceBuilder, TimeInterval, UserId};
use epplan_core::plan::Plan;
use epplan_core::solver::filler::{fill_event, fill_to_upper};
use epplan_geo::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `(utility, Reverse(user), Reverse(event))`: max-heap order is utility
/// descending, then the lower user, then the lower event.
type Key = (OrderedUtility, Reverse<UserId>, Reverse<EventId>);

#[derive(Clone, Copy, PartialEq)]
struct OrderedUtility(f64);

impl Eq for OrderedUtility {}

impl PartialOrd for OrderedUtility {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedUtility {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The single-heap filler: every open candidate pair in one heap,
/// popped to exhaustion.
fn oracle_fill(instance: &Instance, plan: &mut Plan, users: Option<&[UserId]>) -> usize {
    let listed: Vec<UserId> = match users {
        Some(us) => us.to_vec(),
        None => instance.user_ids().collect(),
    };
    let mut heap: BinaryHeap<Key> = BinaryHeap::new();
    for &u in &listed {
        for e in instance.event_ids() {
            let mu = instance.utility(u, e);
            let candidate = mu > 0.0
                && 2.0 * instance.distance(u, e) + instance.event(e).fee
                    <= instance.user(u).budget + 1e-9;
            if candidate && !plan.contains(u, e) && plan.attendance(e) < instance.event(e).upper {
                heap.push((OrderedUtility(mu), Reverse(u), Reverse(e)));
            }
        }
    }
    let mut added = 0;
    while let Some((_, Reverse(u), Reverse(e))) = heap.pop() {
        if plan.attendance(e) >= instance.event(e).upper || plan.contains(u, e) {
            continue;
        }
        if instance.can_attend_with(u, plan.user_plan(u), e) {
            plan.add(u, e);
            added += 1;
        }
    }
    added
}

/// The sort-and-scan refill of one event.
fn oracle_fill_event(instance: &Instance, plan: &mut Plan, event: EventId) -> usize {
    let mut users: Vec<UserId> = instance
        .user_ids()
        .filter(|&u| !plan.contains(u, event) && instance.utility(u, event) > 0.0)
        .collect();
    users.sort_by(|&a, &b| {
        instance
            .utility(b, event)
            .total_cmp(&instance.utility(a, event))
            .then(a.cmp(&b))
    });
    let mut added = 0;
    for u in users {
        if plan.attendance(event) >= instance.event(event).upper {
            break;
        }
        if instance.can_attend_with(u, plan.user_plan(u), event) {
            plan.add(u, event);
            added += 1;
        }
    }
    added
}

/// A random instance: users and venues on a 10 × 10 square, quarter
/// utilities, random fees, budgets, bounds and overlapping windows.
fn instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_users = rng.gen_range(1..=40);
    let n_events = rng.gen_range(1..=12);
    let mut b = InstanceBuilder::new();
    let users: Vec<UserId> = (0..n_users)
        .map(|_| {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            b.user(at, rng.gen_range(1.0..40.0))
        })
        .collect();
    let events: Vec<EventId> = (0..n_events)
        .map(|_| {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            let lower = rng.gen_range(0..=2);
            let upper = lower + rng.gen_range(0..=4);
            let start = rng.gen_range(0..480);
            let time = TimeInterval::new(start, start + rng.gen_range(30..180));
            let fee = if rng.gen_bool(0.5) {
                0.0
            } else {
                rng.gen_range(0.0..4.0)
            };
            b.event_raw(Event::new(at, lower, upper, time).with_fee(fee))
        })
        .collect();
    for &u in &users {
        for &e in &events {
            b.utility(u, e, rng.gen_range(0..=4) as f64 * 0.25);
        }
    }
    b.build()
}

/// A wide instance: event 0 has every user as a candidate, room for at
/// least 300 of them and no conflict with the other events, and every
/// budget affords every route, so the fill adds at least 300 users to
/// it.
fn wide_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_users = rng.gen_range(513..=900);
    let n_events = rng.gen_range(1..=4);
    let mut b = InstanceBuilder::new();
    let users: Vec<UserId> = (0..n_users)
        .map(|_| {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            b.user(at, rng.gen_range(80.0..120.0))
        })
        .collect();
    let events: Vec<EventId> = (0..n_events)
        .map(|k| {
            let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            let start = if k == 0 { 0 } else { rng.gen_range(60..480) };
            let time = TimeInterval::new(start, start + rng.gen_range(30..59));
            let upper = if k == 0 {
                rng.gen_range(300..=n_users)
            } else {
                rng.gen_range(0..=200)
            };
            b.event_raw(Event::new(at, 0, upper, time))
        })
        .collect();
    for &u in &users {
        for &e in &events {
            let lowest = usize::from(e == events[0]);
            b.utility(u, e, rng.gen_range(lowest..=4) as f64 * 0.25);
        }
    }
    b.build()
}

/// A random hard-feasible plan. Some events are topped up to `η`, so
/// the fill meets events that are full before it starts.
fn prefilled_plan(instance: &Instance, seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut plan = Plan::for_instance(instance);
    let mut pairs: Vec<(UserId, EventId)> = instance
        .user_ids()
        .flat_map(|u| instance.event_ids().map(move |e| (u, e)))
        .collect();
    pairs.shuffle(&mut rng);
    let density = [0.0, 0.2, 0.6][rng.gen_range(0..3)];
    let topped: Vec<bool> = instance.event_ids().map(|_| rng.gen_bool(0.3)).collect();
    for (u, e) in pairs {
        let wanted = topped[e.index()] || rng.gen_bool(density);
        if wanted
            && plan.attendance(e) < instance.event(e).upper
            && instance.can_attend_with(u, plan.user_plan(u), e)
        {
            plan.add(u, e);
        }
    }
    plan
}

/// `None`, or a random user list: unsorted, with duplicates, possibly
/// empty.
fn user_list(instance: &Instance, seed: u64) -> Option<Vec<UserId>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x115D);
    if rng.gen_bool(0.4) {
        return None;
    }
    let len = rng.gen_range(0..=2 * instance.n_users());
    Some(
        (0..len)
            .map(|_| UserId(rng.gen_range(0..instance.n_users()) as u32))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn filler_matches_single_heap_oracle(seed in 0u64..u64::MAX) {
        let probe = instance(seed);
        let start = prefilled_plan(&probe, seed);
        prop_assert!(certify(&probe, &start).hard_ok());
        let users = user_list(&probe, seed);

        let mut expected = start.clone();
        let expected_added = oracle_fill(&probe, &mut expected, users.as_deref());

        for threads in [1, 4] {
            epplan_par::set_threads(threads);
            // A fresh instance, so the candidate cache is rebuilt at
            // this thread count.
            let inst = instance(seed);
            let mut plan = start.clone();
            let added = fill_to_upper(&inst, &mut plan, users.as_deref());
            prop_assert_eq!(added, expected_added, "add count, seed {} threads {}", seed, threads);
            prop_assert!(plan == expected, "plan differs from the oracle, seed {} threads {}", seed, threads);
            prop_assert!(certify(&inst, &plan).hard_ok());
        }
    }

    #[test]
    fn event_fill_matches_sort_and_scan_oracle(seed in 0u64..u64::MAX) {
        let inst = instance(seed);
        let start = prefilled_plan(&inst, seed);
        for event in inst.event_ids() {
            let mut expected = start.clone();
            let expected_added = oracle_fill_event(&inst, &mut expected, event);
            let mut plan = start.clone();
            let added = fill_event(&inst, &mut plan, event);
            prop_assert_eq!(added, expected_added, "add count, seed {} event {}", seed, event);
            prop_assert!(plan == expected, "plan differs from the oracle, seed {} event {}", seed, event);
            prop_assert!(certify(&inst, &plan).hard_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_fill_matches_single_heap_oracle(seed in 0u64..u64::MAX) {
        let probe = wide_instance(seed);
        // Event 0 starts empty, so its fill reads past its best 256.
        let mut start = prefilled_plan(&probe, seed);
        for u in probe.user_ids() {
            start.remove(u, EventId(0));
        }
        let mut expected = start.clone();
        let expected_added = oracle_fill(&probe, &mut expected, None);
        prop_assert!(expected.attendance(EventId(0)) >= 300);
        for threads in [1, 4] {
            epplan_par::set_threads(threads);
            let inst = wide_instance(seed);
            let mut plan = start.clone();
            let added = fill_to_upper(&inst, &mut plan, None);
            prop_assert_eq!(added, expected_added, "add count, seed {} threads {}", seed, threads);
            prop_assert!(plan == expected, "plan differs from the oracle, seed {} threads {}", seed, threads);
        }
    }
}
