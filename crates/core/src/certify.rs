//! Independent plan certification: the [`epplan_solve::PlanView`]
//! bridge from an [`Instance`] + [`Plan`] pair to the constraint
//! checker in `epplan-solve`.
//!
//! The checker recomputes every GEPC quantity (pairwise time conflicts,
//! per-user travel cost against `B_i`, per-event attendance against
//! `η`/`ξ`, per-assignment utility, `U_P`, and — for the incremental
//! variant — `dif(P, P′)`) **from scratch** through the raw instance
//! accessors, never from the plan's own attendance counts. It is the
//! one GEPC constraint checker: solvers, the CLI and the serving daemon
//! all judge plans through it.
//!
//! [`certify_delta`] is the per-op form the certified IEP step runs
//! (`IncrementalPlanner::try_apply_certified`): the same checks over
//! only what an in-place operation could have changed, against running
//! tallies of the last certified plan.

use crate::incremental::AtomicOp;
use crate::model::{EventId, Instance, UserId};
use crate::plan::{Plan, PlanJournal};
use epplan_solve::{certify_plan, certify_plan_tally, CertTally, Certificate, PlanView};

/// Adapter exposing an instance/plan pair through the checker's
/// [`PlanView`] interface.
struct CertView<'a> {
    instance: &'a Instance,
    plan: &'a Plan,
}

impl PlanView for CertView<'_> {
    fn n_users(&self) -> usize {
        self.instance.n_users()
    }

    fn n_events(&self) -> usize {
        self.instance.n_events()
    }

    fn assignments(&self, user: usize) -> Vec<usize> {
        self.plan
            .user_plan(UserId(user as u32))
            .iter()
            .map(|e| e.index())
            .collect()
    }

    fn conflicts(&self, a: usize, b: usize) -> bool {
        self.instance.conflicts(EventId(a as u32), EventId(b as u32))
    }

    fn travel_cost(&self, user: usize, events: &[usize]) -> f64 {
        let evs: Vec<EventId> = events.iter().map(|&e| EventId(e as u32)).collect();
        self.instance.travel_cost(UserId(user as u32), &evs)
    }

    fn budget(&self, user: usize) -> f64 {
        self.instance.user(UserId(user as u32)).budget
    }

    fn bounds(&self, event: usize) -> (u32, u32) {
        let e = self.instance.event(EventId(event as u32));
        (e.lower, e.upper)
    }

    fn utility(&self, user: usize, event: usize) -> f64 {
        self.instance.utility(UserId(user as u32), EventId(event as u32))
    }
}

/// Certifies `plan` against every GEPC constraint of `instance`,
/// recomputing `U_P` from scratch. See [`Certificate`] for the verdict
/// structure.
pub fn certify(instance: &Instance, plan: &Plan) -> Certificate {
    let _sp = epplan_obs::span("solve.certify");
    certify_plan(&CertView { instance, plan }, None)
}

/// [`certify`], additionally recomputing the IEP negative impact
/// `dif(old, new)` — assignments of `old` missing from `new` — into
/// [`Certificate::dif`].
pub fn certify_incremental(instance: &Instance, old: &Plan, new: &Plan) -> Certificate {
    let _sp = epplan_obs::span("solve.certify");
    let baseline: Vec<Vec<usize>> = (0..old.n_users())
        .map(|u| {
            old.user_plan(UserId(u as u32))
                .iter()
                .map(|e| e.index())
                .collect()
        })
        .collect();
    certify_plan(&CertView { instance, plan: new }, Some(&baseline))
}

/// [`certify`], also returning the [`CertTally`] that
/// [`certify_delta`] patches op by op.
pub fn certify_tally(instance: &Instance, plan: &Plan) -> (Certificate, CertTally) {
    let _sp = epplan_obs::span("solve.certify");
    certify_plan_tally(&CertView { instance, plan }, None)
}

/// Certifies the state an in-place IEP operation produced
/// ([`crate::incremental::IncrementalPlanner::try_apply_in_place`]),
/// re-deriving only what `op` could have changed: every user in the
/// repair's `journal` (their saved lists are the `dif` baseline), the
/// users whose constraints the instance transition itself touched (the
/// affected-user map below), and every event's bounds against the
/// patched attendance. `tally` must describe the pre-op plan; it is patched
/// when the state certifies. The verdict, `dif` included, equals
/// [`certify_incremental`] of the pre-op plan against this one, `U_P`
/// up to rounding.
pub fn certify_delta(
    instance: &Instance,
    plan: &Plan,
    op: &AtomicOp,
    journal: &PlanJournal,
    tally: &mut CertTally,
) -> Certificate {
    let _sp = epplan_obs::span("solve.certify");
    let changed = delta_scope(plan, op, journal);
    epplan_solve::certify_delta(&CertView { instance, plan }, tally, &changed)
}

/// The affected-user map: the users whose list or constraints `op`
/// may have changed, in ascending order, each with their pre-op list.
/// The repair's journal names everyone whose list changed; on top of
/// those, a budget or utility change can break its own user's
/// itinerary, and a time, venue or fee change can break the itinerary
/// of any attendee of its event while leaving the list alone. Bound
/// changes and new events only move attendance, which the certifier
/// checks for every event.
fn delta_scope(plan: &Plan, op: &AtomicOp, journal: &PlanJournal) -> Vec<(usize, Vec<usize>)> {
    let indices = |events: &[EventId]| events.iter().map(|e| e.index()).collect::<Vec<_>>();
    let mut changed: Vec<(usize, Vec<usize>)> = journal
        .users()
        .iter()
        .map(|(u, old)| (u.index(), indices(old)))
        .collect();
    let mut unchanged = |u: UserId| {
        if !changed.iter().any(|(v, _)| *v == u.index()) {
            changed.push((u.index(), indices(plan.user_plan(u))));
        }
    };
    match op {
        AtomicOp::BudgetChange { user, .. } | AtomicOp::UtilityChange { user, .. } => {
            unchanged(*user);
        }
        AtomicOp::TimeChange { event, .. }
        | AtomicOp::LocationChange { event, .. }
        | AtomicOp::FeeChange { event, .. } => plan.attendees(*event).into_iter().for_each(unchanged),
        AtomicOp::EtaDecrease { .. }
        | AtomicOp::EtaIncrease { .. }
        | AtomicOp::XiIncrease { .. }
        | AtomicOp::XiDecrease { .. }
        | AtomicOp::NewEvent { .. } => {}
    }
    changed.sort_unstable_by_key(|(u, _)| *u);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Event, TimeInterval, User, UtilityMatrix};
    use crate::plan::dif;
    use epplan_geo::Point;
    use epplan_solve::certify::constraint;
    use epplan_solve::CertViolation;

    fn inst() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 50.0),
            User::new(Point::new(1.0, 0.0), 50.0),
            User::new(Point::new(2.0, 0.0), 0.5), // tight budget
        ];
        let events = vec![
            Event::new(Point::new(0.0, 1.0), 1, 2, TimeInterval::new(0, 59)),
            // Overlaps event 0 in time → conflicting pair.
            Event::new(Point::new(0.0, 2.0), 0, 3, TimeInterval::new(30, 119)),
        ];
        let utilities = UtilityMatrix::from_rows(vec![
            vec![0.9, 0.4],
            vec![0.7, 0.8],
            vec![0.5, 0.0], // zero utility for (u2, e1)
        ]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    /// Two users, three events: e0 and e1 overlap in time, e2 is later
    /// and far away; u1 has budget 1 and scores e1 at 0.
    fn bounds_inst() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 10.0),
            User::new(Point::new(1.0, 0.0), 1.0),
        ];
        let events = vec![
            Event::new(Point::new(0.0, 1.0), 1, 1, TimeInterval::new(60, 120)),
            Event::new(Point::new(0.0, 2.0), 0, 2, TimeInterval::new(90, 150)),
            Event::new(Point::new(50.0, 0.0), 2, 3, TimeInterval::new(200, 260)),
        ];
        let utilities = UtilityMatrix::from_rows(vec![
            vec![0.5, 0.5, 0.5],
            vec![0.5, 0.0, 0.5],
        ]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    /// The violation details reported for `constraint`.
    fn details(violations: &[CertViolation], constraint: &str) -> Vec<String> {
        violations
            .iter()
            .filter(|v| v.constraint == constraint)
            .map(|v| v.detail.clone())
            .collect()
    }

    #[test]
    fn feasible_plan_certifies_with_its_utility() {
        let instance = inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(1), EventId(1));
        let cert = certify(&instance, &plan);
        assert!(cert.hard_ok(), "violations: {:?}", cert.hard_violations);
        assert!((cert.utility - (0.9 + 0.8)).abs() < 1e-12);
    }

    #[test]
    fn empty_plan_reports_only_shortfalls() {
        let instance = bounds_inst();
        let plan = Plan::for_instance(&instance);
        let cert = certify(&instance, &plan);
        assert!(cert.hard_ok());
        assert_eq!(
            details(&cert.soft_violations, constraint::XI_LOWER_BOUND),
            [
                "event 0 has 0 attendees under lower bound 1",
                "event 2 has 0 attendees under lower bound 2",
            ],
            "events with ξ > 0 are short"
        );
        assert_eq!(cert.soft_violations.len(), 2);
        assert_eq!(plan.shortfall(&instance), vec![EventId(0), EventId(2)]);
    }

    #[test]
    fn detects_time_conflict() {
        let instance = bounds_inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(0), EventId(1));
        let cert = certify(&instance, &plan);
        assert!(!cert.hard_ok());
        assert_eq!(
            details(&cert.hard_violations, constraint::TIME_CONFLICT),
            ["user 0 attends overlapping events 0 and 1"]
        );
    }

    #[test]
    fn detects_budget_overrun() {
        let instance = bounds_inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(1), EventId(2)); // round trip ~98 ≫ budget 1
        let cert = certify(&instance, &plan);
        let busts = details(&cert.hard_violations, constraint::TRAVEL_BUDGET);
        assert_eq!(busts.len(), 1);
        assert!(busts[0].starts_with("user 1 travel cost"), "{busts:?}");
    }

    #[test]
    fn detects_upper_bound() {
        let instance = bounds_inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(1), EventId(0)); // η = 1
        let cert = certify(&instance, &plan);
        assert_eq!(
            details(&cert.hard_violations, constraint::ETA_UPPER_BOUND),
            ["event 0 has 2 attendees over upper bound 1"]
        );
    }

    #[test]
    fn detects_zero_utility_assignment() {
        let instance = bounds_inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(1), EventId(1)); // μ = 0
        let cert = certify(&instance, &plan);
        assert_eq!(
            details(&cert.hard_violations, constraint::ZERO_UTILITY),
            ["user 1 assigned to event 1 with utility 0"]
        );
    }

    #[test]
    fn feasible_plan_passes() {
        let instance = bounds_inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(0)); // fills ξ_0 = 1, cost 2 ≤ 10
        // e2 (ξ=2) stays short; hard constraints all fine.
        let cert = certify(&instance, &plan);
        assert!(cert.hard_ok(), "violations: {:?}", cert.hard_violations);
        assert_eq!(
            details(&cert.soft_violations, constraint::XI_LOWER_BOUND),
            ["event 2 has 0 attendees under lower bound 2"]
        );
        assert_eq!(plan.shortfall(&instance), vec![EventId(2)]);
    }

    #[test]
    fn conflicting_assignments_are_rejected() {
        let instance = inst();
        let mut plan = Plan::for_instance(&instance);
        plan.add(UserId(0), EventId(0));
        plan.add(UserId(0), EventId(1)); // overlapping intervals
        let cert = certify(&instance, &plan);
        assert!(!cert.hard_ok());
        assert!(cert
            .violated_constraints()
            .contains(&constraint::TIME_CONFLICT));
    }

    #[test]
    fn budget_and_zero_utility_are_rejected() {
        let instance = inst();
        let mut plan = Plan::for_instance(&instance);
        // u2 has budget 0.5; event 0 is far away → budget bust. Its
        // utility for e1 is 0 → zero-utility violation.
        plan.add(UserId(2), EventId(0));
        plan.add(UserId(2), EventId(1));
        let cert = certify(&instance, &plan);
        let names = cert.violated_constraints();
        assert!(names.contains(&constraint::TRAVEL_BUDGET));
        assert!(names.contains(&constraint::ZERO_UTILITY));
    }

    #[test]
    fn incremental_certificate_agrees_with_plan_dif() {
        let instance = inst();
        let mut old = Plan::for_instance(&instance);
        old.add(UserId(0), EventId(0));
        old.add(UserId(1), EventId(1));
        let mut new = Plan::for_instance(&instance);
        new.add(UserId(1), EventId(1));
        let cert = certify_incremental(&instance, &old, &new);
        assert_eq!(cert.dif, Some(1));
        assert_eq!(cert.dif, Some(dif(&old, &new)));
    }
}
