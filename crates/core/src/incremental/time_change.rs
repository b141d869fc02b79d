//! Algorithm 5: the `t^s/t^t` Changing algorithm (Section IV-C), also
//! reused for event-location changes (which affect budgets the same
//! way a time shift affects conflicts).
//!
//! 1. Remove `e_j` from every attendee whose plan now conflicts with
//!    the new time (lines 1–4); we also drop attendees whose *travel
//!    cost* no longer fits their budget — a time shift reorders the
//!    user's route, which the paper's cost model implies but its
//!    pseudo-code does not spell out.
//! 2. If attendance still meets `ξ_j`, stop (lines 5–6).
//! 3. Otherwise refill from non-attendees in descending utility order
//!    up to `η_j` (lines 8–13).
//! 4. If still short of `ξ_j`, fall back to Algorithm 4's transfer
//!    machinery (lines 16–18).

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;
use crate::solver::filler;

use super::repair::transfer_users_to;

/// Outcome of the time/location-change repair.
#[derive(Debug, Clone)]
pub struct TimeChangeOutcome {
    /// Attendees who had to drop the event (`uc_j` in the paper).
    pub removed: Vec<UserId>,
    /// Users transferred from other events in the Algorithm-4 fallback.
    pub moved: Vec<UserId>,
    /// Whether `ξ_j` is met afterwards.
    pub reached: bool,
}

/// Applies the time-change repair in place. `instance` must already
/// carry the new time window (or location).
pub fn time_change(instance: &Instance, plan: &mut Plan, event: EventId) -> TimeChangeOutcome {
    // Lines 1–4: drop attendees whose plans the change breaks.
    let mut removed = Vec::new();
    for u in plan.attendees(event) {
        let rest: Vec<EventId> = plan
            .user_plan(u)
            .iter()
            .copied()
            .filter(|&e| e != event)
            .collect();
        let conflicted = rest.iter().any(|&e| instance.conflicts(e, event));
        let over_budget = instance.travel_cost_with(u, &rest, event)
            > instance.user(u).budget + 1e-9;
        if conflicted || over_budget {
            plan.remove(u, event);
            removed.push(u);
        }
    }

    // Lines 5–13: below ξ_j, refill from other users, best utility
    // first. Either way, freed users may pick up replacements —
    // additions only, no extra negative impact.
    let lower = instance.event(event).lower;
    if plan.attendance(event) < lower {
        filler::fill_event(instance, plan, event);
    }
    if plan.attendance(event) >= lower {
        if !removed.is_empty() {
            filler::fill_to_upper(instance, plan, Some(&removed));
        }
        return TimeChangeOutcome {
            removed,
            moved: Vec::new(),
            reached: true,
        };
    }

    // Lines 16–18: Algorithm 4 with ξ' := ξ_j from the current n_j.
    let transfer = transfer_users_to(instance, plan, event, lower);
    let mut touched = removed.clone();
    touched.extend_from_slice(&transfer.moved);
    if !touched.is_empty() {
        filler::fill_to_upper(instance, plan, Some(&touched));
    }
    TimeChangeOutcome {
        removed,
        moved: transfer.moved,
        reached: transfer.reached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{Event, TimeInterval, User, UtilityMatrix};
    use epplan_geo::Point;

    /// u0 attends e0 and e1; u1, u2 idle. e2 has spare users scenario
    /// covered in dedicated tests below.
    fn setup() -> (Instance, Plan) {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 100.0),
            User::new(Point::new(0.0, 1.0), 100.0),
            User::new(Point::new(0.0, 2.0), 100.0),
        ];
        let events = vec![
            Event::new(Point::new(1.0, 0.0), 1, 2, TimeInterval::new(0, 59)),
            Event::new(Point::new(1.0, 1.0), 0, 2, TimeInterval::new(60, 119)),
        ];
        let utilities = UtilityMatrix::from_rows(vec![
            vec![0.9, 0.8],
            vec![0.5, 0.4],
            vec![0.3, 0.2],
        ]).unwrap();
        let instance = Instance::new(users, events, utilities).unwrap();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(0), EventId(1));
        (instance, plan)
    }

    #[test]
    fn noop_when_no_conflicts_created() {
        let (mut instance, mut plan) = setup();
        instance.set_event_time(EventId(0), TimeInterval::new(10, 50));
        let before = plan.clone();
        let out = time_change(&instance, &mut plan, EventId(0));
        assert!(out.reached);
        assert!(out.removed.is_empty());
        assert_eq!(plan, before);
    }

    #[test]
    fn removes_conflicted_attendee_and_refills() {
        let (mut instance, mut plan) = setup();
        // Shift e0 onto e1's slot: u0 cannot keep both.
        instance.set_event_time(EventId(0), TimeInterval::new(60, 119));
        let out = time_change(&instance, &mut plan, EventId(0));
        assert_eq!(out.removed, vec![UserId(0)]);
        // ξ_0 = 1 → refilled from u1 (utility 0.5 > 0.3).
        assert!(out.reached);
        assert!(plan.contains(UserId(1), EventId(0)));
        assert!(plan.contains(UserId(0), EventId(1)), "u0 keeps e1");
        assert!(certify(&instance, &plan).hard_ok());
    }

    #[test]
    fn falls_back_to_transfers_when_no_fresh_users() {
        let (mut instance, mut plan) = setup();
        // Make u1/u2 uninterested in e0 directly… but attending e1 with
        // spare capacity so the Algorithm-4 fallback can move them.
        plan.add(UserId(1), EventId(1));
        plan.add(UserId(2), EventId(1));
        instance.set_event_bounds(EventId(1), 0, 3);
        // Shift e0 to overlap e1: u0 drops e0 (keeps higher-utility e0?
        // u0's μ(e0)=0.9 > μ(e1)=0.8 — but Algorithm 5 removes e_j from
        // conflicted attendees unconditionally).
        instance.set_event_time(EventId(0), TimeInterval::new(60, 119));
        let out = time_change(&instance, &mut plan, EventId(0));
        assert_eq!(out.removed, vec![UserId(0)]);
        // Direct refill fails (everyone attends the conflicting e1),
        // so the Algorithm-4 transfer step swaps someone out of e1.
        // All three Δ's tie at 0.1; the deterministic tie-break picks
        // the smallest user id, u0 — who thereby swaps back into e0.
        assert!(out.reached);
        assert_eq!(out.moved, vec![UserId(0)]);
        assert!(plan.contains(UserId(0), EventId(0)));
        assert!(!plan.contains(UserId(0), EventId(1)));
        assert!(plan.contains(UserId(1), EventId(1)));
        assert!(certify(&instance, &plan).hard_ok());
    }

    #[test]
    fn reports_unreachable_lower_bound() {
        let (mut instance, mut plan) = setup();
        instance.set_utility(UserId(1), EventId(0), 0.0);
        instance.set_utility(UserId(2), EventId(0), 0.0);
        // Pin u0 to e1 (ξ = 1 with u0 its only attendee) so the
        // Algorithm-4 fallback cannot swap them back into e0 either.
        instance.set_event_bounds(EventId(1), 1, 2);
        instance.set_event_time(EventId(0), TimeInterval::new(60, 119));
        let out = time_change(&instance, &mut plan, EventId(0));
        assert!(!out.reached);
        assert_eq!(plan.attendance(EventId(0)), 0);
    }

    #[test]
    fn location_change_over_budget_attendee_dropped() {
        let (mut instance, mut plan) = setup();
        // Move e0's venue out of u0's budget.
        instance.set_event_location(EventId(0), Point::new(1000.0, 0.0));
        let out = time_change(&instance, &mut plan, EventId(0));
        assert!(out.removed.contains(&UserId(0)));
        assert!(!plan.contains(UserId(0), EventId(0)));
        assert!(certify(&instance, &plan).hard_ok());
    }

    #[test]
    fn freed_user_picks_up_replacement() {
        let (mut instance, mut plan) = setup();
        // Add a third event u0 could take after losing e0.
        let e2 = instance.add_event(
            Event::new(Point::new(1.0, 0.5), 0, 2, TimeInterval::new(200, 260)),
            &[0.6, 0.1, 0.1],
        );
        plan.resize_events(instance.n_events());
        instance.set_event_time(EventId(0), TimeInterval::new(60, 119));
        let out = time_change(&instance, &mut plan, EventId(0));
        assert!(out.removed.contains(&UserId(0)));
        assert!(plan.contains(UserId(0), e2), "filler found the new slot");
    }
}
