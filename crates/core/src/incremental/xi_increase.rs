//! Algorithm 4: the `ξ` Increasing algorithm (Section IV-B).
//!
//! When event `e_j`'s participation lower bound rises from `ξ_j` to
//! `ξ'_j > n_j`, the algorithm transfers `ξ'_j − n_j` users to `e_j`
//! from events that have spare participants (`n_{j'} > ξ_{j'}`),
//! choosing transfers by largest utility delta
//! `Δ = μ(u_i, e_j) − μ(u_i, e_{j'})` (heap order), then lets the moved
//! users pick up further events with the methods of \[4\]. The negative
//! impact is `ξ'_j − n_j` — each transferred user loses exactly one
//! event — which is minimal.

use crate::model::{EventId, Instance};
use crate::plan::Plan;
use crate::solver::filler;

use super::repair::{transfer_users_to, TransferResult};

/// Applies the `ξ`-increase repair in place. `instance` must already
/// carry the new bound. `reached == false` means the event still falls
/// short (reported as shortfall upstream).
pub fn xi_increase(instance: &Instance, plan: &mut Plan, event: EventId) -> TransferResult {
    // Lines 1–16: Δ-heap transfers; none when the bound already holds.
    let result = transfer_users_to(instance, plan, event, instance.event(event).lower);
    // Lines 17–19: moved users may attend additional events.
    if !result.moved.is_empty() {
        filler::fill_to_upper(instance, plan, Some(&result.moved));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{Event, TimeInterval, User, UserId, UtilityMatrix};
    use epplan_geo::Point;

    /// Paper-like setup: e1 holds spare users that e0 can poach.
    fn setup() -> (Instance, Plan) {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 100.0),
            User::new(Point::new(0.0, 1.0), 100.0),
            User::new(Point::new(0.0, 2.0), 100.0),
        ];
        let events = vec![
            Event::new(Point::new(1.0, 0.0), 0, 3, TimeInterval::new(0, 59)),
            Event::new(Point::new(1.0, 1.0), 0, 3, TimeInterval::new(60, 119)),
        ];
        let utilities = UtilityMatrix::from_rows(vec![
            vec![0.7, 0.8], // Δ to e0 = −0.1
            vec![0.4, 0.6], // Δ to e0 = −0.2
            vec![0.2, 0.5], // Δ to e0 = −0.3
        ]).unwrap();
        let instance = Instance::new(users, events, utilities).unwrap();
        let mut plan = Plan::for_instance(&instance);
        for u in instance.user_ids() {
            plan.add(u, EventId(1));
        }
        (instance, plan)
    }

    #[test]
    fn noop_when_already_satisfied() {
        let (mut instance, mut plan) = setup();
        instance.set_event_bounds(EventId(1), 2, 3); // n=3 ≥ ξ'=2
        let before = plan.clone();
        let out = xi_increase(&instance, &mut plan, EventId(1));
        assert!(out.reached);
        assert!(out.moved.is_empty());
        assert_eq!(plan, before);
    }

    #[test]
    fn transfers_largest_delta_first() {
        let (mut instance, mut plan) = setup();
        instance.set_event_bounds(EventId(0), 1, 3);
        let out = xi_increase(&instance, &mut plan, EventId(0));
        assert!(out.reached);
        // u0 has the largest Δ (−0.1): moved. (The step-2 refill may
        // later restore e1 to u0 — additions are free — so only the
        // *move* itself is asserted here.)
        assert_eq!(out.moved, vec![UserId(0)]);
        assert!(plan.contains(UserId(0), EventId(0)));
    }

    #[test]
    fn moved_users_refill_their_plans() {
        let (mut instance, mut plan) = setup();
        instance.set_event_bounds(EventId(0), 1, 3);
        xi_increase(&instance, &mut plan, EventId(0));
        // After moving to e0 (0–59), u0 can *also* re-attend e1
        // (60–119, no conflict, η=3 has room) via the filler — exactly
        // the paper's "check if the users can attend other events".
        assert!(plan.contains(UserId(0), EventId(1)));
        assert!(certify(&instance, &plan).hard_ok());
    }

    #[test]
    fn respects_source_lower_bounds() {
        let (mut instance, mut plan) = setup();
        instance.set_event_bounds(EventId(1), 3, 3); // e1 may not lose anyone
        instance.set_event_bounds(EventId(0), 1, 3);
        let out = xi_increase(&instance, &mut plan, EventId(0));
        assert!(!out.reached);
        assert_eq!(plan.attendance(EventId(1)), 3);
    }

    #[test]
    fn dif_is_number_of_moves() {
        let (mut instance, mut plan) = setup();
        let old = plan.clone();
        instance.set_event_bounds(EventId(0), 2, 3);
        let out = xi_increase(&instance, &mut plan, EventId(0));
        assert!(out.reached);
        assert_eq!(crate::plan::dif(&old, &plan), 0, "refill restored e1");
        // Without the refill the theoretical dif would equal the number
        // of moves; the filler only adds events so dif can only shrink.
        assert_eq!(out.moved.len(), 2);
    }

    #[test]
    fn unreachable_bound_reports_shortfall() {
        let (mut instance, mut plan) = setup();
        // Nobody else exists to transfer: demand more than the user base.
        instance.set_event_bounds(EventId(0), 3, 3);
        instance.set_utility(UserId(2), EventId(0), 0.0);
        let out = xi_increase(&instance, &mut plan, EventId(0));
        assert!(!out.reached);
        assert!(plan.attendance(EventId(0)) < 3);
    }
}
