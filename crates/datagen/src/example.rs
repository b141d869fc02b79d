//! The paper's running example (Example 1: Figure 1 + Table I).

use epplan_core::model::{Event, Instance, TimeInterval, User, UtilityMatrix};
use epplan_geo::Point;

/// Builds the 5-user / 4-event instance of the paper's Example 1.
///
/// Utilities, budgets, participation bounds and times are copied
/// verbatim from Table I. The 2-D coordinates are *reconstructed* from
/// every distance the text states (Figure 1 only shows a drawing):
///
/// * `d(u_1, e_1) = √17`, `d(e_1, e_2) = √41`, `d(e_2, u_1) = 6`, so
///   `D_1 = 16.53` for the plan `{e_1, e_2}` (Section II);
/// * `u_1`'s budget (18) does not cover `e_2` or `e_4` after taking
///   `e_3` (Example 5);
/// * `u_5` cannot afford `e_1` (Example 5) but reaches `e_4`;
/// * `u_4` can add `e_1` to a plan containing `e_4` (Example 4), and
///   can attend `e_2` after dropping `e_4` (Example 6).
///
/// ```
/// use epplan_datagen::paper_example;
/// let inst = paper_example();
/// assert_eq!(inst.n_users(), 5);
/// assert_eq!(inst.n_events(), 4);
/// ```
pub fn paper_example() -> Instance {
    let users = vec![
        User::new(Point::new(2.0, 3.0), 18.0),
        User::new(Point::new(9.0, 2.0), 20.0),
        User::new(Point::new(10.0, 5.0), 20.0),
        User::new(Point::new(13.0, 8.0), 30.0),
        User::new(Point::new(14.0, 6.0), 10.0),
    ];
    let pm = |h: u32, m: u32| (12 + h) * 60 + m;
    let events = vec![
        // e_1 (ξ=1, η=3), 1:00–3:00 p.m.
        Event::new(Point::new(3.0, 7.0), 1, 3, TimeInterval::new(pm(1, 0), pm(3, 0))),
        // e_2 (ξ=2, η=4), 4:00–6:00 p.m.
        Event::new(Point::new(8.0, 3.0), 2, 4, TimeInterval::new(pm(4, 0), pm(6, 0))),
        // e_3 (ξ=3, η=4), 1:30–3:00 p.m.
        Event::new(Point::new(10.0, 6.0), 3, 4, TimeInterval::new(pm(1, 30), pm(3, 0))),
        // e_4 (ξ=1, η=5), 6:00–8:00 p.m.
        Event::new(Point::new(14.0, 4.0), 1, 5, TimeInterval::new(pm(6, 0), pm(8, 0))),
    ];
    // Table I, columns 2–6 (rows are events; transpose to user rows).
    let utilities = match UtilityMatrix::from_rows(vec![
        vec![0.7, 0.6, 0.9, 0.3], // u1
        vec![0.6, 0.5, 0.8, 0.4], // u2
        vec![0.4, 0.7, 0.9, 0.5], // u3
        vec![0.2, 0.3, 0.8, 0.6], // u4
        vec![0.3, 0.1, 0.6, 0.7], // u5
    ]) {
        Ok(m) => m,
        Err(_) => unreachable!("Table I rows are rectangular"),
    };
    match Instance::new(users, events, utilities) {
        Ok(inst) => inst,
        Err(_) => unreachable!("Table I shape is 5 × 4"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epplan_core::certify::certify;
    use epplan_core::model::{EventId, UserId};
    use epplan_core::plan::Plan;

    #[test]
    fn example_1_travel_cost() {
        // D_1 = d(u1,e1) + d(e1,e2) + d(e2,u1) = 16.53 (Section II).
        let inst = paper_example();
        let d = inst.travel_cost(UserId(0), &[EventId(0), EventId(1)]);
        assert!((d - 16.53).abs() < 0.01, "D_1 = {d}");
    }

    #[test]
    fn example_1_conflicts() {
        let inst = paper_example();
        // e1 conflicts e3 (e3 starts before e1 ends).
        assert!(inst.conflicts(EventId(0), EventId(2)));
        // e2 conflicts e4 (back-to-back).
        assert!(inst.conflicts(EventId(1), EventId(3)));
        // e1 and e2 do not conflict.
        assert!(!inst.conflicts(EventId(0), EventId(1)));
    }

    #[test]
    fn example_2_plan_is_feasible_with_utility_6_3() {
        // The colored plan of Table I: P1={e1,e2}, P2={e2,e3},
        // P3={e2,e3}, P4={e3,e4}, P5={e4}; global utility 6.3.
        let inst = paper_example();
        let mut plan = Plan::for_instance(&inst);
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(0), EventId(1));
        plan.add(UserId(1), EventId(1));
        plan.add(UserId(1), EventId(2));
        plan.add(UserId(2), EventId(1));
        plan.add(UserId(2), EventId(2));
        plan.add(UserId(3), EventId(2));
        plan.add(UserId(3), EventId(3));
        plan.add(UserId(4), EventId(3));
        let v = certify(&inst, &plan);
        assert!(v.hard_ok() && v.soft_violations.is_empty(), "{v}");
        assert!((plan.total_utility(&inst) - 6.3).abs() < 1e-9);
    }

    #[test]
    fn example_5_budget_claims() {
        let inst = paper_example();
        // u1 takes e3 then cannot afford e2 or e4.
        assert!(inst.can_attend_with(UserId(0), &[], EventId(2)));
        assert!(!inst.can_attend_with(UserId(0), &[EventId(2)], EventId(1)));
        assert!(!inst.can_attend_with(UserId(0), &[EventId(2)], EventId(3)));
        // u5 cannot afford e1 at all.
        assert!(!inst.can_attend_with(UserId(4), &[], EventId(0)));
        // u5 can afford e4.
        assert!(inst.can_attend_with(UserId(4), &[], EventId(3)));
    }

    #[test]
    fn example_4_u4_can_take_e1_alongside_e4() {
        let inst = paper_example();
        assert!(inst.can_attend_with(UserId(3), &[EventId(3)], EventId(0)));
    }

    #[test]
    fn example_6_u4_can_swap_e4_for_e2() {
        let inst = paper_example();
        // u4's plan {e3, e4} minus e4 plus e2 must be feasible.
        assert!(inst.can_attend_with(UserId(3), &[EventId(2)], EventId(1)));
    }
}
