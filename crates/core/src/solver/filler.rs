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
//! The same routine backs the IEP algorithms' final step ("use methods
//! in \[4\] to check if the … users can attend other events", Algorithms
//! 3–5), via the `users` restriction parameter.

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;
use epplan_solve::{DeadlineExceeded, DeadlineFlag};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Users per parallel candidate-scan chunk (each user costs an `O(m)`
/// pass over the events).
const SCAN_MIN_CHUNK: usize = 16;

/// Heap pops between deadline polls in the drain loop. Pops are cheap
/// (a heap sift plus a few constraint checks), so a modest stride keeps
/// the poll cost invisible while still bounding overshoot.
const POLL_STRIDE: usize = 64;

/// A max-heap key ordering candidate assignments by utility.
#[derive(PartialEq)]
struct Candidate {
    utility: f64,
    user: UserId,
    event: EventId,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Primary: utility; ties broken on (user, event) for
        // deterministic output.
        self.utility
            .total_cmp(&other.utility)
            .then_with(|| Reverse(self.user).cmp(&Reverse(other.user)))
            .then_with(|| Reverse(self.event).cmp(&Reverse(other.event)))
    }
}

/// Greedily adds assignments in descending-utility order while all
/// hard constraints and the upper bounds `η` hold. Restricted to
/// `users` when given (IEP repair mode); considers every user
/// otherwise. Returns the number of assignments added.
///
/// Candidates are validated lazily at pop time: adding assignments
/// only ever tightens the constraints (more conflicts, less residual
/// budget, less capacity), so a candidate that fails once can be
/// discarded permanently.
pub fn fill_to_upper(instance: &Instance, plan: &mut Plan, users: Option<&[UserId]>) -> usize {
    try_fill_to_upper(instance, plan, users, &DeadlineFlag::unlimited())
        .unwrap_or_else(|DeadlineExceeded| unreachable!("an unlimited deadline never trips"))
}

/// [`fill_to_upper`] under a wall-clock deadline: the budget-governed
/// entry point for anytime solvers and per-op serving budgets. The flag
/// is polled between per-user candidate scans and every
/// [`POLL_STRIDE`] heap pops.
///
/// On `Err` the plan holds a *valid partial fill* — a prefix of the
/// same deterministic descending-utility pop order the unbudgeted fill
/// follows — and every hard constraint still holds. Callers that need
/// all-or-nothing semantics should clone the plan first.
pub fn try_fill_to_upper(
    instance: &Instance,
    plan: &mut Plan,
    users: Option<&[UserId]>,
    deadline: &DeadlineFlag,
) -> Result<usize, DeadlineExceeded> {
    let user_iter: Vec<UserId> = match users {
        Some(us) => us.to_vec(),
        None => instance.user_ids().collect(),
    };
    // Candidate generation is a pure scan of the (frozen) plan, so it
    // fans out across user chunks. Candidates are pairwise distinct
    // under `Candidate`'s total order, so the heap's pop sequence — and
    // with it the fill — is independent of push order entirely.
    let snapshot: &Plan = plan;
    if epplan_obs::metrics_enabled() {
        epplan_obs::gauge_set("filler.par.threads", epplan_par::threads() as f64);
        epplan_obs::gauge_set(
            "filler.par.chunks",
            epplan_par::chunk_count(user_iter.len(), SCAN_MIN_CHUNK) as f64,
        );
    }
    // Full fills iterate the cached candidate arena — each user costs
    // O(candidates), not O(events), and the μ > 0 / single-event
    // affordability prefilters are already encoded in the rows.
    // Restricted (repair-mode) fills instead scan the few listed users'
    // dense rows with the same predicate applied inline: incremental
    // ops mutate the instance, which invalidates the candidate cache,
    // and rebuilding the whole arena to repair a handful of users would
    // put an O(|U|·|E|) step on the serving hot path. The two paths
    // admit identical candidate pairs, and heap pop order is a total
    // order, so the fill itself is byte-for-byte the same either way.
    let mut heap: BinaryHeap<Candidate> = if users.is_some() {
        let mut out: Vec<Candidate> = Vec::new();
        for &u in &user_iter {
            deadline.poll()?;
            instance.utilities().for_each_positive_in_row(u, |e, mu| {
                if !crate::model::candidates::is_candidate(instance, u, e, mu) {
                    return;
                }
                if snapshot.contains(u, e) {
                    return;
                }
                if snapshot.attendance(e) >= instance.event(e).upper {
                    return;
                }
                out.push(Candidate {
                    utility: mu,
                    user: u,
                    event: e,
                });
            });
        }
        BinaryHeap::from(out)
    } else {
        let cands = instance.candidates();
        // One poll per chunk: the flag latches on first expiry, so the
        // whole parallel scan drains promptly (see `gap.packing`).
        let parts: Vec<Result<Vec<Candidate>, DeadlineExceeded>> =
            epplan_par::par_chunks_map(&user_iter, SCAN_MIN_CHUNK, |_, chunk| {
                deadline.poll()?;
                let mut out: Vec<Candidate> = Vec::new();
                for &u in chunk {
                    let (events, utils) = cands.row(u);
                    for (&ei, &mu) in events.iter().zip(utils) {
                        let e = EventId(ei);
                        if snapshot.contains(u, e) {
                            continue;
                        }
                        if snapshot.attendance(e) >= instance.event(e).upper {
                            continue;
                        }
                        out.push(Candidate {
                            utility: mu,
                            user: u,
                            event: e,
                        });
                    }
                }
                Ok(out)
            });
        let mut all: Vec<Candidate> = Vec::new();
        for part in parts {
            all.extend(part?);
        }
        BinaryHeap::from(all)
    };

    let mut added = 0;
    let mut pops = 0usize;
    while let Some(c) = heap.pop() {
        pops += 1;
        if pops.is_multiple_of(POLL_STRIDE) {
            deadline.poll()?;
        }
        if plan.attendance(c.event) >= instance.event(c.event).upper {
            continue;
        }
        if plan.contains(c.user, c.event) {
            continue;
        }
        if !instance.can_attend_with(c.user, plan.user_plan(c.user), c.event) {
            continue;
        }
        plan.add(c.user, c.event);
        added += 1;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(plan.validate(&inst).hard_ok());
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
        let v = plan.validate(&inst);
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
        assert!(plan.validate(&inst).hard_ok());
        // Restricted mode polls too.
        let err = try_fill_to_upper(&inst, &mut plan, Some(&[UserId(0)]), &flag);
        assert_eq!(err, Err(DeadlineExceeded));
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
