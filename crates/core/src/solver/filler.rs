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
//! 1. a count pass and a scatter pass group the open pairs by event
//!    into one flat arena (a counting sort over only the events that
//!    have an open pair);
//! 2. each event's slice becomes a max-heap in place;
//! 3. a heads heap holds each open event's best remaining pair. After
//!    a pop, the event's next-best pair is pushed only while the event
//!    is below `η`; a full event's slice is abandoned unpopped.
//!
//! A k-way merge of heaps under one total order yields the same
//! sequence as a single heap over every pair. The only pairs it skips
//! belong to full events, and a single-heap drain would pop and discard
//! each of those: attendance only rises, so a full event stays full.
//! Every add therefore happens in the same order as in the single-heap
//! drain, and the plan is the same byte for byte.
//!
//! Rejections are final too: adding assignments only tightens the
//! constraints (more conflicts, less residual budget, less capacity),
//! so a pair that fails once is discarded for good.

use crate::model::candidates::{for_each_candidate_in_row, is_candidate};
use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;
use epplan_solve::{DeadlineExceeded, DeadlineFlag};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Users (in the gather passes) or heap pops (in the drain) between
/// deadline polls. Each step is cheap (one candidate row, or a heap
/// sift plus a few constraint checks), so a modest stride keeps the
/// poll cost invisible while still bounding overshoot.
const POLL_STRIDE: usize = 64;

/// The open pairs one fill considers.
#[derive(Clone, Copy)]
enum Scope<'a> {
    /// Every user's cached candidate row: the batch fill.
    All,
    /// The listed users' utility rows: IEP repairs of touched users.
    Users(&'a [UserId]),
    /// Every user's pair with one event: IEP refills of that event.
    Event(EventId),
}

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
pub fn fill_event(instance: &Instance, plan: &mut Plan, event: EventId) -> usize {
    try_fill(
        instance,
        plan,
        Scope::Event(event),
        &DeadlineFlag::unlimited(),
    )
    .unwrap_or_else(|DeadlineExceeded| unreachable!("an unlimited deadline never trips"))
}

/// [`fill_to_upper`] under a wall-clock deadline: the budget-governed
/// entry point for anytime solvers and per-op serving budgets. Runs
/// inside the `solve.fill` span.
///
/// The open pairs are grouped by event and drained as a k-way merge of
/// per-event max-heaps (see the module docs): the add sequence is the
/// one a single heap over every pair would produce, but a full event's
/// remaining pairs are never popped. The flag is polled every
/// [`POLL_STRIDE`] users in each gather pass and every [`POLL_STRIDE`]
/// heap pops in the drain.
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
    try_fill(
        instance,
        plan,
        users.map_or(Scope::All, Scope::Users),
        deadline,
    )
}

/// The fill over `scope`'s open pairs (see [`try_fill_to_upper`]).
fn try_fill(
    instance: &Instance,
    plan: &mut Plan,
    scope: Scope,
    deadline: &DeadlineFlag,
) -> Result<usize, DeadlineExceeded> {
    let _sp = epplan_obs::span("solve.fill");

    // Gather the open pairs grouped by event into one arena: slot `s`
    // owns `arena[start[s]..end[s]]`, and `end[s]` is then the end of
    // its live heap. Events are numbered into slots in first-seen
    // order, so nothing below touches an event without one.
    let mut slot_of: Vec<u32> = vec![u32::MAX; instance.n_events()];
    let mut start: Vec<usize> = Vec::new();
    // Count pass: open pairs per slot.
    for_each_open(instance, plan, scope, deadline, |_, e, _| {
        let slot = &mut slot_of[e.index()];
        if *slot == u32::MAX {
            *slot = start.len() as u32;
            start.push(0);
        }
        start[*slot as usize] += 1;
    })?;
    // Exclusive prefix sum: counts become slice starts.
    let mut total = 0;
    for s in start.iter_mut() {
        let count = *s;
        *s = total;
        total += count;
    }
    // Scatter pass through each slot's write cursor.
    let mut end = start.clone();
    let mut arena = vec![
        Candidate {
            score: 0.0,
            user: UserId(0),
            event: EventId(0),
        };
        total
    ];
    for_each_open(instance, plan, scope, deadline, |user, event, score| {
        let slot = slot_of[event.index()] as usize;
        arena[end[slot]] = Candidate { score, user, event };
        end[slot] += 1;
    })?;

    let mut heads: BinaryHeap<Candidate> = BinaryHeap::with_capacity(start.len());
    for (&lo, hi) in start.iter().zip(end.iter_mut()) {
        heapify(&mut arena[lo..*hi]);
        heads.extend(pop_max(&mut arena, lo, hi));
    }

    let mut added = 0;
    let mut pops = 0usize;
    while let Some(c) = heads.pop() {
        pops += 1;
        if pops.is_multiple_of(POLL_STRIDE) {
            deadline.poll()?;
        }
        if !plan.contains(c.user, c.event)
            && instance.can_attend_with(c.user, plan.user_plan(c.user), c.event)
        {
            plan.add(c.user, c.event);
            added += 1;
        }
        if plan.attendance(c.event) < instance.event(c.event).upper {
            let slot = slot_of[c.event.index()] as usize;
            heads.extend(pop_max(&mut arena, start[slot], &mut end[slot]));
        }
    }
    Ok(added)
}

/// Calls `f(u, e, μ)` for every open pair in `scope`: `e` is a
/// candidate of `u`, `e` is below `η`, and `u` does not attend `e` yet.
/// Polls `deadline` every [`POLL_STRIDE`] users.
///
/// The batch scope reads the cached candidate rows, so each user costs
/// O(candidates). The repair scopes instead apply the candidate
/// predicate to utility rows (or, for one event, to each user's
/// `μ(u, e)`): incremental ops mutate the instance, which invalidates
/// the candidate cache, and rebuilding the whole arena to repair a
/// handful of users would put an O(|U|·|E|) step on the serving hot
/// path. Every scope yields the pairs the cached rows would.
fn for_each_open(
    instance: &Instance,
    plan: &Plan,
    scope: Scope,
    deadline: &DeadlineFlag,
    mut f: impl FnMut(UserId, EventId, f64),
) -> Result<(), DeadlineExceeded> {
    let mut open = |u: UserId, e: EventId, mu: f64| {
        if plan.attendance(e) < instance.event(e).upper && !plan.contains(u, e) {
            f(u, e, mu);
        }
    };
    match scope {
        Scope::All => {
            let cands = instance.candidates();
            for ui in 0..cands.n_users() {
                if ui.is_multiple_of(POLL_STRIDE) {
                    deadline.poll()?;
                }
                let u = UserId(ui as u32);
                let (events, utils) = cands.row(u);
                for (&e, &mu) in events.iter().zip(utils) {
                    open(u, EventId(e), mu);
                }
            }
        }
        Scope::Users(us) => {
            for (i, &u) in us.iter().enumerate() {
                if i.is_multiple_of(POLL_STRIDE) {
                    deadline.poll()?;
                }
                for_each_candidate_in_row(instance, u, |e, mu| open(u, e, mu));
            }
        }
        Scope::Event(e) => {
            for u in instance.user_ids() {
                if u.index().is_multiple_of(POLL_STRIDE) {
                    deadline.poll()?;
                }
                let mu = instance.utility(u, e);
                if is_candidate(instance, u, e, mu) {
                    open(u, e, mu);
                }
            }
        }
    }
    Ok(())
}

/// Orders `heap` as a max-heap in place.
fn heapify(heap: &mut [Candidate]) {
    for i in (0..heap.len() / 2).rev() {
        sift_down(heap, i);
    }
}

/// Restores the max-heap property below `i`.
fn sift_down(heap: &mut [Candidate], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let child = if right < heap.len() && heap[right] > heap[left] {
            right
        } else {
            left
        };
        if heap[child] <= heap[i] {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

/// Removes and returns the maximum of the max-heap `arena[lo..*hi]`,
/// shrinking it by one; `None` once it is empty.
fn pop_max(arena: &mut [Candidate], lo: usize, hi: &mut usize) -> Option<Candidate> {
    if *hi == lo {
        return None;
    }
    *hi -= 1;
    arena.swap(lo, *hi);
    sift_down(&mut arena[lo..*hi], 0);
    Some(arena[*hi])
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
