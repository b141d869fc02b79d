//! Global plans and their metrics.
//!
//! A global plan `P = {P_i : P_i ⊆ E}` assigns each user a set of
//! events (Section II). [`Plan`] maintains the per-user sets and the
//! per-event attendance counts `n_j`; metrics (global utility, travel
//! costs, the IEP negative impact [`dif`]) live alongside. Checking a
//! plan against Definition 1 is [`crate::certify`]'s job.

mod itinerary;
mod metrics;
mod stats;

pub use itinerary::{all_itineraries, Itinerary, Stop};
pub use metrics::dif;
pub use stats::{user_utilities, PlanStatistics};

use crate::model::{EventId, Instance, UserId};
use serde::{Content, DeError, Deserialize, Serialize};

/// A global plan: one event set per user plus attendance counts.
///
/// While a [`PlanJournal`] is open ([`Plan::begin_journal`]), every
/// [`Plan::add`]/[`Plan::remove`] that changes a user's list first
/// saves that list, once per user, so an in-place IEP operation can be
/// undone exactly. The journal never takes part in equality or
/// serialization.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `assignments[u]` = events of user `u`, in insertion order,
    /// duplicate-free.
    assignments: Vec<Vec<EventId>>,
    /// `attendance[e]` = `n_e`, the number of users assigned to `e`.
    attendance: Vec<u32>,
    /// The open undo journal, if any.
    journal: Option<PlanJournal>,
}

impl PartialEq for Plan {
    fn eq(&self, other: &Self) -> bool {
        self.assignments == other.assignments && self.attendance == other.attendance
    }
}

impl Eq for Plan {}

// Hand-written (the serde shim has no `skip`): the derived layout of
// the two data fields, with the journal left out.
impl Serialize for Plan {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("assignments".to_string(), self.assignments.to_content()),
            ("attendance".to_string(), self.attendance.to_content()),
        ])
    }
}

impl Deserialize for Plan {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| DeError::new("expected map for `Plan`"))?;
        Ok(Plan {
            assignments: serde::__field(m, "assignments")?,
            attendance: serde::__field(m, "attendance")?,
            journal: None,
        })
    }
}

/// The plan half of an in-place IEP operation's undo record: each
/// user's assignment list as it stood before the operation first
/// changed it (first-touch order), plus the event count to shrink back
/// to. These lists are also the operation's `dif` baseline.
#[derive(Debug, Clone, Default)]
pub struct PlanJournal {
    n_events: usize,
    saved: Vec<(UserId, Vec<EventId>)>,
}

impl PlanJournal {
    /// Every user the operation changed, with their pre-operation list.
    pub fn users(&self) -> &[(UserId, Vec<EventId>)] {
        &self.saved
    }

    /// `dif(P, P′)` of the journaled operation against the plan it
    /// produced: only journaled users can have lost an event.
    pub fn dif(&self, plan: &Plan) -> usize {
        self.saved
            .iter()
            .map(|(u, old)| {
                let now = plan.user_plan(*u);
                old.iter().filter(|e| !now.contains(e)).count()
            })
            .sum()
    }
}

impl Plan {
    /// An empty plan for `n_users` users and `n_events` events.
    pub fn empty(n_users: usize, n_events: usize) -> Self {
        Plan {
            assignments: vec![Vec::new(); n_users],
            attendance: vec![0; n_events],
            journal: None,
        }
    }

    /// An empty plan shaped for `instance`.
    pub fn for_instance(instance: &Instance) -> Self {
        Plan::empty(instance.n_users(), instance.n_events())
    }

    /// Number of users the plan covers.
    pub fn n_users(&self) -> usize {
        self.assignments.len()
    }

    /// Number of events the plan covers.
    pub fn n_events(&self) -> usize {
        self.attendance.len()
    }

    /// Grows the event dimension (used after a `NewEvent` operation).
    pub fn resize_events(&mut self, n_events: usize) {
        assert!(n_events >= self.attendance.len(), "cannot shrink events");
        self.attendance.resize(n_events, 0);
    }

    /// The events of user `u` (insertion order).
    #[inline]
    pub fn user_plan(&self, u: UserId) -> &[EventId] {
        &self.assignments[u.index()]
    }

    /// Whether `u` attends `e`.
    pub fn contains(&self, u: UserId, e: EventId) -> bool {
        self.assignments[u.index()].contains(&e)
    }

    /// Attendance count `n_e`.
    #[inline]
    pub fn attendance(&self, e: EventId) -> u32 {
        self.attendance[e.index()]
    }

    /// The users assigned to `e`.
    pub fn attendees(&self, e: EventId) -> Vec<UserId> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, evs)| evs.contains(&e))
            .map(|(u, _)| UserId(u as u32))
            .collect()
    }

    /// Adds `e` to `u`'s plan. Returns `false` (and does nothing) when
    /// already present.
    pub fn add(&mut self, u: UserId, e: EventId) -> bool {
        if self.assignments[u.index()].contains(&e) {
            return false;
        }
        self.touch(u);
        self.assignments[u.index()].push(e);
        self.attendance[e.index()] += 1;
        true
    }

    /// Removes `e` from `u`'s plan. Returns `false` when absent.
    pub fn remove(&mut self, u: UserId, e: EventId) -> bool {
        match self.assignments[u.index()].iter().position(|&x| x == e) {
            Some(pos) => {
                self.touch(u);
                self.assignments[u.index()].remove(pos);
                self.attendance[e.index()] -= 1;
                true
            }
            None => false,
        }
    }

    /// Saves `u`'s list into the open journal before its first change.
    fn touch(&mut self, u: UserId) {
        if let Some(j) = &mut self.journal {
            if !j.saved.iter().any(|(v, _)| *v == u) {
                j.saved.push((u, self.assignments[u.index()].clone()));
            }
        }
    }

    /// Opens an undo journal: from now until [`Plan::end_journal`],
    /// every changed user's list is saved before its first change.
    ///
    /// # Panics
    /// If a journal is already open.
    pub fn begin_journal(&mut self) {
        assert!(self.journal.is_none(), "plan journal already open");
        self.journal = Some(PlanJournal {
            n_events: self.n_events(),
            saved: Vec::new(),
        });
    }

    /// Closes the open journal and returns it; without an open journal
    /// the result is empty (its rollback changes nothing).
    pub fn end_journal(&mut self) -> PlanJournal {
        let n_events = self.n_events();
        self.journal.take().unwrap_or(PlanJournal {
            n_events,
            saved: Vec::new(),
        })
    }

    /// Undoes everything `journal` recorded: each saved list is put
    /// back as it was (insertion order included), attendance follows,
    /// and events appended since the journal opened are dropped.
    pub fn rollback(&mut self, journal: PlanJournal) {
        for (u, old) in journal.saved {
            for e in &self.assignments[u.index()] {
                self.attendance[e.index()] -= 1;
            }
            for e in &old {
                self.attendance[e.index()] += 1;
            }
            self.assignments[u.index()] = old;
        }
        self.attendance.truncate(journal.n_events);
    }

    /// Checks what deserialization skips: the plan is shaped for
    /// `instance`, and replaying its assignments into an empty plan
    /// (event ids in range, none twice per user) reproduces it,
    /// attendance counts included.
    pub fn is_consistent(&self, instance: &Instance) -> bool {
        let mut replay = Plan::for_instance(instance);
        let in_range = |e: EventId| e.index() < self.n_events();
        self.n_users() == instance.n_users()
            && self.n_events() == instance.n_events()
            && instance
                .user_ids()
                .zip(&self.assignments)
                .all(|(u, evs)| evs.iter().all(|&e| in_range(e) && replay.add(u, e)))
            && replay == *self
    }

    /// Total number of (user, event) assignments.
    pub fn total_assignments(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Global utility `U_P = Σ_i Σ_{e ∈ P_i} μ(u_i, e)`.
    pub fn total_utility(&self, instance: &Instance) -> f64 {
        self.assignments
            .iter()
            .enumerate()
            .map(|(u, evs)| {
                evs.iter()
                    .map(|&e| instance.utility(UserId(u as u32), e))
                    .sum::<f64>()
            })
            .sum()
    }

    /// The events whose attendance is below their lower bound `ξ`, in
    /// id order.
    pub fn shortfall(&self, instance: &Instance) -> Vec<EventId> {
        instance
            .event_ids()
            .filter(|&e| self.attendance(e) < instance.event(e).lower)
            .collect()
    }

    /// One user's utility `μ_i`.
    pub fn user_utility(&self, instance: &Instance, u: UserId) -> f64 {
        self.user_plan(u)
            .iter()
            .map(|&e| instance.utility(u, e))
            .sum()
    }

    /// One user's travel cost `D_i` under `instance`.
    pub fn travel_cost(&self, instance: &Instance, u: UserId) -> f64 {
        instance.travel_cost(u, self.user_plan(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip() {
        let mut p = Plan::empty(2, 3);
        assert!(p.add(UserId(0), EventId(1)));
        assert!(!p.add(UserId(0), EventId(1)), "duplicate add rejected");
        assert_eq!(p.attendance(EventId(1)), 1);
        assert!(p.contains(UserId(0), EventId(1)));
        assert!(p.remove(UserId(0), EventId(1)));
        assert!(!p.remove(UserId(0), EventId(1)));
        assert_eq!(p.attendance(EventId(1)), 0);
    }

    #[test]
    fn attendees_lists_users() {
        let mut p = Plan::empty(3, 1);
        p.add(UserId(0), EventId(0));
        p.add(UserId(2), EventId(0));
        assert_eq!(p.attendees(EventId(0)), vec![UserId(0), UserId(2)]);
        assert_eq!(p.attendance(EventId(0)), 2);
    }

    #[test]
    fn resize_events_grows() {
        let mut p = Plan::empty(1, 1);
        p.resize_events(3);
        assert_eq!(p.n_events(), 3);
        assert_eq!(p.attendance(EventId(2)), 0);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn resize_events_shrink_panics() {
        let mut p = Plan::empty(1, 3);
        p.resize_events(1);
    }

    #[test]
    fn is_consistent_rejects_what_deserialization_lets_through() {
        use crate::model::{Event, TimeInterval, User, UtilityMatrix};
        use epplan_geo::Point;
        let users = vec![User::new(Point::new(0.0, 0.0), 10.0); 2];
        let events = vec![Event::new(Point::new(1.0, 0.0), 0, 2, TimeInterval::new(0, 9)); 2];
        let instance = Instance::new(users, events, UtilityMatrix::zeros(2, 2)).unwrap();
        let plan = |assignments: Vec<Vec<EventId>>, attendance: Vec<u32>| Plan {
            assignments,
            attendance,
            journal: None,
        };
        let e0 = EventId(0);
        assert!(plan(vec![vec![e0], vec![e0]], vec![2, 0]).is_consistent(&instance));
        assert!(!Plan::empty(3, 2).is_consistent(&instance), "extra user");
        assert!(!Plan::empty(2, 3).is_consistent(&instance), "extra event");
        let unknown = plan(vec![vec![EventId(5)], vec![]], vec![0, 0]);
        assert!(!unknown.is_consistent(&instance), "unknown event");
        let twice = plan(vec![vec![e0, e0], vec![]], vec![2, 0]);
        assert!(!twice.is_consistent(&instance), "event listed twice");
        let miscounted = plan(vec![vec![e0], vec![]], vec![2, 0]);
        assert!(!miscounted.is_consistent(&instance), "attendance miscounted");
    }

    #[test]
    fn journal_rollback_restores_lists_order_and_event_count() {
        let mut p = Plan::empty(3, 2);
        p.add(UserId(0), EventId(0));
        p.add(UserId(0), EventId(1));
        p.add(UserId(1), EventId(1));
        let before = p.clone();
        let bytes = serde_json::to_string(&p).unwrap();

        p.begin_journal();
        // Remove and re-add: the same set in another insertion order.
        p.remove(UserId(0), EventId(0));
        p.add(UserId(0), EventId(0));
        p.resize_events(3);
        p.add(UserId(2), EventId(2));
        p.remove(UserId(1), EventId(1));
        assert!(!p.add(UserId(2), EventId(2)));
        assert!(!p.remove(UserId(1), EventId(0)));
        // The open journal is invisible to serialization.
        assert!(!serde_json::to_string(&p).unwrap().contains("journal"));
        let j = p.end_journal();
        // First-touch order, each user once, with the pre-op list.
        assert_eq!(
            j.users(),
            &[
                (UserId(0), vec![EventId(0), EventId(1)]),
                (UserId(2), vec![]),
                (UserId(1), vec![EventId(1)]),
            ]
        );
        assert_eq!(j.dif(&p), 1, "only u1 lost an event");
        p.rollback(j);
        assert_eq!(p, before);
        assert_eq!(serde_json::to_string(&p).unwrap(), bytes);
        assert_eq!(p.n_events(), 2);
    }

    #[test]
    fn total_assignments_counts_pairs() {
        let mut p = Plan::empty(2, 2);
        p.add(UserId(0), EventId(0));
        p.add(UserId(0), EventId(1));
        p.add(UserId(1), EventId(0));
        assert_eq!(p.total_assignments(), 3);
    }
}
