//! Algorithm 3: the `η` Decreasing algorithm (Section IV-A).
//!
//! When event `e_j`'s participation upper bound drops from `η_j` to
//! `η'_j < n_j` (its current attendance), the minimum possible negative
//! impact is `n_j − η'_j` removals. To keep utility maximal the
//! algorithm removes the attendees with the **smallest** utility scores
//! for `e_j`, then lets the freed users pick up other events with the
//! "methods in \[4\]" — the utility-aware filler restricted to those
//! users (which only *adds* events, so the negative impact stays
//! minimal).

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;
use crate::solver::filler;

/// Applies the `η`-decrease repair in place. `instance` must already
/// carry the new bound. Returns the users whose plans lost `event`.
pub fn eta_decrease(instance: &Instance, plan: &mut Plan, event: EventId) -> Vec<UserId> {
    let new_upper = instance.event(event).upper;
    let n = plan.attendance(event);
    if n <= new_upper {
        return Vec::new(); // Lines 1–2: no update needed.
    }

    // Lines 4–5: sort attendees by utility descending, drop the tail.
    let mut attendees = plan.attendees(event);
    attendees.sort_by(|&a, &b| {
        instance
            .utility(b, event)
            .total_cmp(&instance.utility(a, event))
            .then(a.cmp(&b))
    });
    let removed: Vec<UserId> = attendees.split_off(new_upper as usize);
    for &u in &removed {
        plan.remove(u, event);
    }

    // Lines 6–8: let the freed users attend other events.
    filler::fill_to_upper(instance, plan, Some(&removed));
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{Event, TimeInterval, User, UtilityMatrix};
    use epplan_geo::Point;

    /// 3 users attending e0; a spare event e1 exists.
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
            vec![0.9, 0.5],
            vec![0.6, 0.8],
            vec![0.3, 0.7],
        ]).unwrap();
        let instance = Instance::new(users, events, utilities).unwrap();
        let mut plan = Plan::for_instance(&instance);
        for u in instance.user_ids() {
            plan.add(u, EventId(0));
        }
        (instance, plan)
    }

    #[test]
    fn noop_when_bound_still_satisfied() {
        let (mut instance, mut plan) = setup();
        instance.set_event_bounds(EventId(0), 0, 3);
        let before = plan.clone();
        let removed = eta_decrease(&instance, &mut plan, EventId(0));
        assert!(removed.is_empty());
        assert_eq!(plan, before);
    }

    #[test]
    fn removes_smallest_utility_attendees() {
        let (mut instance, mut plan) = setup();
        instance.set_event_bounds(EventId(0), 0, 1);
        let removed = eta_decrease(&instance, &mut plan, EventId(0));
        // Utilities to e0: u0 0.9, u1 0.6, u2 0.3 → keep u0.
        assert_eq!(removed, vec![UserId(1), UserId(2)]);
        assert_eq!(plan.attendance(EventId(0)), 1);
        assert!(plan.contains(UserId(0), EventId(0)));
    }

    #[test]
    fn freed_users_pick_up_other_events() {
        let (mut instance, mut plan) = setup();
        instance.set_event_bounds(EventId(0), 0, 1);
        eta_decrease(&instance, &mut plan, EventId(0));
        // u1 and u2 can now also attend e1 (no conflict, budget fine).
        assert!(plan.contains(UserId(1), EventId(1)));
        assert!(plan.contains(UserId(2), EventId(1)));
        assert!(certify(&instance, &plan).hard_ok());
    }

    #[test]
    fn dif_equals_paper_minimum() {
        let (mut instance, mut plan) = setup();
        let old = plan.clone();
        instance.set_event_bounds(EventId(0), 0, 1);
        eta_decrease(&instance, &mut plan, EventId(0));
        // dif(P, P') = n_j − η'_j = 3 − 1 = 2.
        assert_eq!(crate::plan::dif(&old, &plan), 2);
    }

    #[test]
    fn untouched_users_keep_their_plans() {
        let (mut instance, mut plan) = setup();
        plan.add(UserId(0), EventId(1));
        instance.set_event_bounds(EventId(0), 0, 2);
        eta_decrease(&instance, &mut plan, EventId(0));
        assert!(plan.contains(UserId(0), EventId(0)));
        assert!(plan.contains(UserId(0), EventId(1)));
    }
}
