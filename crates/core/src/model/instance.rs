use crate::model::{
    CandidateSet, Event, EventId, InstanceError, TimeInterval, User, UserId, UtilityMatrix,
};
use epplan_geo::Point;
use serde::{Content, DeError, Deserialize, Serialize};
use std::sync::OnceLock;

/// Routes of up to this many events are costed in a stack buffer; the
/// rare longer one is copied into a `Vec`.
const STACK_ROUTE: usize = 16;

/// A complete EBSN problem instance: the users `U`, the events `E`,
/// and the utility matrix `μ` (Section II of the paper).
///
/// The instance is the single source of truth for distances, time
/// conflicts and travel costs; plans and solvers hold only indices
/// ([`UserId`], [`EventId`]) into it. Incremental (IEP) atomic
/// operations mutate it in place through the `set_*`/`add_event`
/// methods, and undo themselves through the crate's restoring
/// counterparts.
///
/// The per-user candidate lists (`Uc_i`, the CSR arena every hot
/// solver path iterates) are derived lazily on first use and cached;
/// any mutation that can change candidate membership invalidates the
/// cache. The cache never takes part in equality or serialization.
#[derive(Debug, Clone)]
pub struct Instance {
    users: Vec<User>,
    events: Vec<Event>,
    utilities: UtilityMatrix,
    candidates: OnceLock<CandidateSet>,
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.users == other.users
            && self.events == other.events
            && self.utilities == other.utilities
    }
}

// Hand-written (the serde shim has no `skip`): the derived layout for
// the three data fields, with the candidate cache left out and rebuilt
// lazily after deserialization.
impl Serialize for Instance {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("users".to_string(), self.users.to_content()),
            ("events".to_string(), self.events.to_content()),
            ("utilities".to_string(), self.utilities.to_content()),
        ])
    }
}

impl Deserialize for Instance {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| DeError::new("expected map for `Instance`"))?;
        Ok(Instance {
            users: serde::__field(m, "users")?,
            events: serde::__field(m, "events")?,
            utilities: serde::__field(m, "utilities")?,
            candidates: OnceLock::new(),
        })
    }
}

impl Instance {
    /// Assembles an instance; rejects a utility matrix whose shape
    /// disagrees with the user/event counts with a typed
    /// [`InstanceError::ShapeMismatch`].
    pub fn new(
        users: Vec<User>,
        events: Vec<Event>,
        utilities: UtilityMatrix,
    ) -> Result<Self, InstanceError> {
        if utilities.n_users() != users.len() || utilities.n_events() != events.len() {
            return Err(InstanceError::ShapeMismatch {
                matrix: (utilities.n_users(), utilities.n_events()),
                expected: (users.len(), events.len()),
            });
        }
        Ok(Instance {
            users,
            events,
            utilities,
            candidates: OnceLock::new(),
        })
    }

    /// Assembles an instance under strict validation, rejecting every
    /// silently-broken input a trust boundary can deliver: shape
    /// mismatches, NaN or out-of-range utilities, non-positive budgets,
    /// non-finite coordinates, inverted time windows, `η < ξ`, and
    /// invalid fees. Prefer this over [`Instance::new`] for
    /// deserialized or generated data.
    pub fn try_new(
        users: Vec<User>,
        events: Vec<Event>,
        utilities: UtilityMatrix,
    ) -> Result<Self, InstanceError> {
        let inst = Instance::new(users, events, utilities)?;
        inst.validate_strict()?;
        Ok(inst)
    }

    /// Re-checks the strict invariants of [`Instance::try_new`] on an
    /// already-assembled instance. Useful after deserialization, which
    /// bypasses every constructor check.
    pub fn validate_strict(&self) -> Result<(), InstanceError> {
        self.validate_with(false)
    }

    /// [`Instance::validate_strict`], except that a zero budget passes:
    /// the invariants every incremental operation preserves. A
    /// `BudgetChange` to 0 is a legal operation, so a state reached
    /// through accepted operations (a serving snapshot, say) may hold
    /// one.
    pub fn validate_reachable(&self) -> Result<(), InstanceError> {
        self.validate_with(true)
    }

    fn validate_with(&self, zero_budget_ok: bool) -> Result<(), InstanceError> {
        if self.utilities.n_users() != self.users.len()
            || self.utilities.n_events() != self.events.len()
        {
            return Err(InstanceError::ShapeMismatch {
                matrix: (self.utilities.n_users(), self.utilities.n_events()),
                expected: (self.users.len(), self.events.len()),
            });
        }
        for u in self.user_ids() {
            let user = self.user(u);
            let above_floor = if zero_budget_ok {
                user.budget >= 0.0
            } else {
                user.budget > 0.0
            };
            if !user.budget.is_finite() || !above_floor {
                return Err(InstanceError::InvalidBudget {
                    user: u,
                    value: user.budget,
                });
            }
            if !user.location.x.is_finite() || !user.location.y.is_finite() {
                return Err(InstanceError::NonFiniteLocation {
                    owner: format!("user {u}"),
                });
            }
        }
        for e in self.event_ids() {
            let ev = self.event(e);
            if ev.time.start >= ev.time.end {
                return Err(InstanceError::InvertedInterval {
                    event: e,
                    window: (ev.time.start, ev.time.end),
                });
            }
            if ev.lower > ev.upper {
                return Err(InstanceError::InvertedBounds {
                    event: e,
                    lower: ev.lower,
                    upper: ev.upper,
                });
            }
            if !ev.fee.is_finite() || ev.fee < 0.0 {
                return Err(InstanceError::InvalidFee {
                    event: e,
                    value: ev.fee,
                });
            }
            if !ev.location.x.is_finite() || !ev.location.y.is_finite() {
                return Err(InstanceError::NonFiniteLocation {
                    owner: format!("event {e}"),
                });
            }
        }
        // Validates every *stored* utility entry plus the storage
        // structure itself — O(stored entries), not O(|U|·|E|), so
        // strict validation stays affordable on sparse instances.
        self.utilities.validate()
    }

    /// Number of users `n`.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// Number of events `m`.
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// All user ids `u_0 … u_{n−1}`.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> {
        (0..self.users.len() as u32).map(UserId)
    }

    /// All event ids `e_0 … e_{m−1}`.
    pub fn event_ids(&self) -> impl Iterator<Item = EventId> {
        (0..self.events.len() as u32).map(EventId)
    }

    /// The user with id `u`.
    #[inline]
    pub fn user(&self, u: UserId) -> &User {
        &self.users[u.index()]
    }

    /// The event with id `e`.
    #[inline]
    pub fn event(&self, e: EventId) -> &Event {
        &self.events[e.index()]
    }

    /// All users as a slice.
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// All events as a slice.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// `μ(u, e)`.
    #[inline]
    pub fn utility(&self, u: UserId, e: EventId) -> f64 {
        self.utilities.get(u, e)
    }

    /// The full utility matrix.
    pub fn utilities(&self) -> &UtilityMatrix {
        &self.utilities
    }

    /// The per-user candidate lists (`Uc_i`), derived on first use and
    /// cached until a mutation invalidates them.
    pub fn candidates(&self) -> &CandidateSet {
        self.candidates.get_or_init(|| {
            let _sp = epplan_obs::span("core.candidates.build");
            let cs = CandidateSet::build(self);
            epplan_obs::gauge_set("gap.candidates.per_user", cs.density());
            cs
        })
    }

    /// Euclidean distance from a user's origin to an event venue.
    #[inline]
    pub fn distance(&self, u: UserId, e: EventId) -> f64 {
        self.user(u).location.distance(&self.event(e).location)
    }

    /// Euclidean distance between two event venues.
    #[inline]
    pub fn event_distance(&self, a: EventId, b: EventId) -> f64 {
        self.event(a).location.distance(&self.event(b).location)
    }

    /// The paper's time-conflict relation on two events.
    #[inline]
    pub fn conflicts(&self, a: EventId, b: EventId) -> bool {
        self.event(a).conflicts_with(self.event(b))
    }

    /// Travel cost `D` of attending `events` (any order): the route
    /// origin → events in start-time order → origin (Section II,
    /// matching the worked example `D_1 = d(u_1,e_1) + d(e_1,e_2) +
    /// d(e_2,u_1)`), plus any admission fees (the Section VII
    /// extension; zero in the base model).
    pub fn travel_cost(&self, u: UserId, events: &[EventId]) -> f64 {
        self.buffered_route_cost(u, events, None)
    }

    /// Travel cost if `extra` were added to `events`: the route of
    /// `events` followed by `extra`, built once.
    pub fn travel_cost_with(&self, u: UserId, events: &[EventId], extra: EventId) -> f64 {
        self.buffered_route_cost(u, events, Some(extra))
    }

    /// [`Instance::route_cost`] of `events` followed by `extra`, copied
    /// into a stack buffer when at most [`STACK_ROUTE`] long and into a
    /// `Vec` otherwise.
    fn buffered_route_cost(&self, u: UserId, events: &[EventId], extra: Option<EventId>) -> f64 {
        let n = events.len() + usize::from(extra.is_some());
        if n <= STACK_ROUTE {
            let mut buf = [EventId(0); STACK_ROUTE];
            buf[..events.len()].copy_from_slice(events);
            if let Some(x) = extra {
                buf[events.len()] = x;
            }
            self.route_cost(u, &mut buf[..n])
        } else {
            let mut route = Vec::with_capacity(n);
            route.extend_from_slice(events);
            route.extend(extra);
            self.route_cost(u, &mut route)
        }
    }

    /// [`Instance::travel_cost`] of `route`, which it sorts into start
    /// order in place. Fees are summed in the order given, so two
    /// callers passing the same sequence get the same bits.
    fn route_cost(&self, u: UserId, route: &mut [EventId]) -> f64 {
        let fees: f64 = route.iter().map(|&e| self.event(e).fee).sum();
        fees + match route.len() {
            0 => 0.0,
            1 => 2.0 * self.distance(u, route[0]),
            _ => {
                route.sort_by_key(|e| self.event(*e).time);
                let mut cost = self.distance(u, route[0]);
                for w in route.windows(2) {
                    cost += self.event_distance(w[0], w[1]);
                }
                cost + self.distance(u, route[route.len() - 1])
            }
        }
    }

    /// Whether `extra` can be added to `events` without any time
    /// conflict and within `u`'s budget, with positive utility
    /// (`μ > 0`, since a zero score means "cannot participate").
    pub fn can_attend_with(&self, u: UserId, events: &[EventId], extra: EventId) -> bool {
        self.utility(u, extra) > 0.0
            && !events.iter().any(|&e| self.conflicts(e, extra))
            && self.travel_cost_with(u, events, extra) <= self.user(u).budget + 1e-9
    }

    // ---- mutation API for IEP atomic operations ----
    //
    // Every mutation that can change candidate membership (utility,
    // budget, venue, fee, new event) routes through
    // `invalidate_candidates`; time windows and participation bounds do
    // not enter the candidate predicate, so those setters leave the
    // cache alone (each carries the audited-allow explaining why —
    // `sparse/cache-invalidate` proves the routing for everything else).

    /// Drops the cached CSR candidate lists; the next `candidates()`
    /// call rebuilds them against the current utilities/budgets/events.
    /// Every state-writing mutator must reach this (enforced by the
    /// `sparse/cache-invalidate` lint rule).
    pub fn invalidate_candidates(&mut self) {
        self.candidates.take();
    }

    /// Sets `μ(u, e)`.
    pub fn set_utility(&mut self, u: UserId, e: EventId, value: f64) {
        self.utilities.set(u, e, value);
        self.invalidate_candidates();
    }

    /// `μ(u, e)` as stored: `None` when the sparse layout holds no
    /// entry for the pair.
    pub(crate) fn utility_slot(&self, u: UserId, e: EventId) -> Option<f64> {
        self.utilities.slot(u, e)
    }

    /// Restores a slot read by [`Instance::utility_slot`]: the exact
    /// inverse of [`Instance::set_utility`], sparse layout included.
    pub(crate) fn restore_utility(&mut self, u: UserId, e: EventId, slot: Option<f64>) {
        self.utilities.restore_slot(u, e, slot);
        self.invalidate_candidates();
    }

    /// Sets a user's travel budget.
    pub fn set_budget(&mut self, u: UserId, budget: f64) {
        assert!(budget >= 0.0, "negative travel budget");
        self.users[u.index()].budget = budget;
        self.invalidate_candidates();
    }

    /// Sets an event's time window.
    pub fn set_event_time(&mut self, e: EventId, time: TimeInterval) {
        // epplan-lint: allow(sparse/cache-invalidate) — time windows are not in the candidate predicate (only μ > 0 and lone-event affordability); conflict checks read them live
        self.events[e.index()].time = time;
    }

    /// Sets an event's venue location.
    pub fn set_event_location(&mut self, e: EventId, location: Point) {
        self.events[e.index()].location = location;
        self.invalidate_candidates();
    }

    /// Sets an event's admission fee (the Section VII extension).
    pub fn set_event_fee(&mut self, e: EventId, fee: f64) {
        assert!(fee >= 0.0, "negative admission fee");
        self.events[e.index()].fee = fee;
        self.invalidate_candidates();
    }

    /// Sets an event's participation bounds; panics if inverted.
    pub fn set_event_bounds(&mut self, e: EventId, lower: u32, upper: u32) {
        assert!(lower <= upper, "lower bound {lower} exceeds upper {upper}");
        // epplan-lint: allow(sparse/cache-invalidate) — participation bounds are plan-side constraints, not part of the per-user candidate predicate
        let ev = &mut self.events[e.index()];
        ev.lower = lower;
        ev.upper = upper;
    }

    /// Appends a new event with the given per-user utilities, returning
    /// its id (the `e_j added` atomic operation).
    pub fn add_event(&mut self, event: Event, utilities: &[f64]) -> EventId {
        let id = self.utilities.push_event_column(utilities);
        self.events.push(event);
        debug_assert_eq!(id.index(), self.events.len() - 1);
        self.invalidate_candidates();
        id
    }

    /// Removes the most recently added event and its utility column:
    /// the inverse of [`Instance::add_event`].
    pub(crate) fn pop_event(&mut self) {
        self.utilities.pop_event_column();
        self.events.pop();
        self.invalidate_candidates();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 10.0),
            User::new(Point::new(10.0, 0.0), 5.0),
        ];
        let events = vec![
            Event::new(Point::new(0.0, 3.0), 1, 2, TimeInterval::new(60, 120)),
            Event::new(Point::new(4.0, 0.0), 0, 2, TimeInterval::new(180, 240)),
        ];
        let utilities =
            UtilityMatrix::from_rows(vec![vec![0.9, 0.5], vec![0.2, 0.0]]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    #[test]
    fn distances() {
        let inst = two_by_two();
        assert_eq!(inst.distance(UserId(0), EventId(0)), 3.0);
        assert_eq!(inst.distance(UserId(0), EventId(1)), 4.0);
        assert_eq!(inst.event_distance(EventId(0), EventId(1)), 5.0);
    }

    #[test]
    fn travel_cost_single_event_is_round_trip() {
        let inst = two_by_two();
        assert_eq!(inst.travel_cost(UserId(0), &[EventId(0)]), 6.0);
    }

    #[test]
    fn travel_cost_route_in_time_order() {
        let inst = two_by_two();
        // e0 (60–120) then e1 (180–240): 3 + 5 + 4 = 12 regardless of
        // the order the ids are passed in.
        let c1 = inst.travel_cost(UserId(0), &[EventId(0), EventId(1)]);
        let c2 = inst.travel_cost(UserId(0), &[EventId(1), EventId(0)]);
        assert_eq!(c1, 12.0);
        assert_eq!(c1, c2);
    }

    #[test]
    fn travel_cost_empty_is_zero() {
        let inst = two_by_two();
        assert_eq!(inst.travel_cost(UserId(0), &[]), 0.0);
    }

    #[test]
    fn travel_cost_with_matches_travel_cost_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Few distinct windows, so many events share a start time and
        // the stable sort's input order decides the route.
        let events: Vec<Event> = (0..12)
            .map(|_| {
                let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                let start = 60 * rng.gen_range(0..3);
                let fee = [0.0, 0.1, 0.7][rng.gen_range(0..3)];
                Event::new(at, 0, 3, TimeInterval::new(start, start + rng.gen_range(10..50)))
                    .with_fee(fee)
            })
            .collect();
        let users = vec![User::new(Point::new(3.0, 4.0), 100.0)];
        let inst = Instance::new(users, events, UtilityMatrix::zeros(1, 12)).unwrap();
        for _ in 0..500 {
            let len = rng.gen_range(0..6);
            let mut evs: Vec<EventId> =
                (0..len).map(|_| EventId(rng.gen_range(0..12))).collect();
            let extra = EventId(rng.gen_range(0..12));
            let with = inst.travel_cost_with(UserId(0), &evs, extra);
            evs.push(extra);
            assert_eq!(with.to_bits(), inst.travel_cost(UserId(0), &evs).to_bits(), "{evs:?}");
        }
    }

    #[test]
    fn routes_on_either_side_of_the_stack_buffer_cost_the_same_bits() {
        let events: Vec<Event> = (0..24u32)
            .map(|i| {
                let at = Point::new(f64::from(i * 7 % 11), f64::from(i * 5 % 13));
                let start = 60 * (i % 3);
                Event::new(at, 0, 3, TimeInterval::new(start, start + 10))
                    .with_fee(f64::from(i % 4) * 0.3)
            })
            .collect();
        let users = vec![User::new(Point::new(3.0, 4.0), 100.0)];
        let inst = Instance::new(users, events, UtilityMatrix::zeros(1, 24)).unwrap();
        let u = UserId(0);
        for len in STACK_ROUTE - 2..=STACK_ROUTE + 2 {
            let evs: Vec<EventId> = (0..len as u32).map(|i| EventId((i * 5) % 24)).collect();
            // The route as the paper writes it: fees in the given
            // order, then origin → start order (stable) → origin.
            let fees: f64 = evs.iter().map(|&e| inst.event(e).fee).sum();
            let mut order = evs.clone();
            order.sort_by_key(|&e| inst.event(e).time);
            let mut trip = inst.distance(u, order[0]);
            for w in order.windows(2) {
                trip += inst.event_distance(w[0], w[1]);
            }
            let expected = fees + (trip + inst.distance(u, order[len - 1]));
            assert_eq!(inst.travel_cost(u, &evs).to_bits(), expected.to_bits(), "{len}");
            let with = inst.travel_cost_with(u, &evs[..len - 1], evs[len - 1]);
            assert_eq!(with.to_bits(), expected.to_bits(), "{len}");
        }
    }

    #[test]
    fn can_attend_with_checks_everything() {
        let inst = two_by_two();
        // u0 alone can afford e0 (cost 6 ≤ 10).
        assert!(inst.can_attend_with(UserId(0), &[], EventId(0)));
        // u0 with e0 can't also afford e1 (cost 12 > 10).
        assert!(!inst.can_attend_with(UserId(0), &[EventId(0)], EventId(1)));
        // u1 has zero utility for e1 → cannot attend.
        assert!(!inst.can_attend_with(UserId(1), &[], EventId(1)));
    }

    #[test]
    fn mutation_roundtrip() {
        let mut inst = two_by_two();
        inst.set_budget(UserId(0), 20.0);
        assert_eq!(inst.user(UserId(0)).budget, 20.0);
        inst.set_utility(UserId(1), EventId(1), 0.7);
        assert_eq!(inst.utility(UserId(1), EventId(1)), 0.7);
        inst.set_event_bounds(EventId(0), 0, 5);
        assert_eq!(inst.event(EventId(0)).upper, 5);
        inst.set_event_time(EventId(1), TimeInterval::new(0, 30));
        assert!(!inst.conflicts(EventId(0), EventId(1)));
        inst.set_event_location(EventId(1), Point::new(0.0, 0.0));
        assert_eq!(inst.distance(UserId(0), EventId(1)), 0.0);
    }

    #[test]
    fn candidate_cache_tracks_mutations() {
        let mut inst = two_by_two();
        // u0 on budget 10: e0 costs 6, e1 costs 8 → both candidates.
        // u1 on budget 5: e0 costs 2·√(10²+3²) > 5, e1 has μ = 0 → none.
        let cs = inst.candidates();
        assert_eq!(cs.row(UserId(0)).0, &[0, 1]);
        assert!(cs.row(UserId(1)).0.is_empty());
        assert!(inst.candidates().contains(UserId(0), EventId(1)));

        // Shrinking u0's budget below e1's round trip evicts it.
        inst.set_budget(UserId(0), 7.0);
        assert_eq!(inst.candidates().row(UserId(0)).0, &[0]);

        // Zeroing the utility evicts e0 as well.
        inst.set_utility(UserId(0), EventId(0), 0.0);
        assert!(inst.candidates().row(UserId(0)).0.is_empty());
    }

    // Runtime twin of the `sparse/cache-invalidate` lint rule: one
    // test per mutator proving `candidates()` reflects the mutation
    // (or, for the predicate-neutral setters, that the cache is
    // deliberately retained).

    #[test]
    fn set_utility_rebuilds_candidates() {
        let mut inst = two_by_two();
        assert!(inst.candidates().contains(UserId(0), EventId(0)));
        inst.set_utility(UserId(0), EventId(0), 0.0);
        assert!(!inst.candidates().contains(UserId(0), EventId(0)));
        inst.set_utility(UserId(0), EventId(0), 0.9);
        assert!(inst.candidates().contains(UserId(0), EventId(0)));
    }

    #[test]
    fn set_budget_rebuilds_candidates() {
        let mut inst = two_by_two();
        // u1 on budget 5 affords nothing; raising it to 30 covers e0's
        // 2·√109 ≈ 20.9 round trip (μ = 0.2 > 0).
        assert!(inst.candidates().row(UserId(1)).0.is_empty());
        inst.set_budget(UserId(1), 30.0);
        assert_eq!(inst.candidates().row(UserId(1)).0, &[0]);
    }

    #[test]
    fn set_event_location_rebuilds_candidates() {
        let mut inst = two_by_two();
        assert!(inst.candidates().contains(UserId(0), EventId(1)));
        // Moving e1 to (10, 0) makes u0's round trip 20 > budget 10.
        inst.set_event_location(EventId(1), Point::new(10.0, 0.0));
        assert!(!inst.candidates().contains(UserId(0), EventId(1)));
    }

    #[test]
    fn set_event_fee_rebuilds_candidates() {
        let mut inst = two_by_two();
        assert!(inst.candidates().contains(UserId(0), EventId(1)));
        // e1's round trip costs u0 8 of 10; a fee of 3 breaks it.
        inst.set_event_fee(EventId(1), 3.0);
        assert!(!inst.candidates().contains(UserId(0), EventId(1)));
        inst.set_event_fee(EventId(1), 0.0);
        assert!(inst.candidates().contains(UserId(0), EventId(1)));
    }

    #[test]
    fn add_event_rebuilds_candidates() {
        let mut inst = two_by_two();
        let before = inst.candidates().row(UserId(0)).0.len();
        let e = inst.add_event(
            Event::new(Point::new(1.0, 1.0), 0, 3, TimeInterval::new(300, 360)),
            &[0.4, 0.6],
        );
        let cs = inst.candidates();
        assert!(cs.contains(UserId(0), e));
        assert_eq!(cs.row(UserId(0)).0.len(), before + 1);
        // u1's budget (5) cannot cover the ≈18.1 round trip.
        assert!(!cs.contains(UserId(1), e));
    }

    #[test]
    fn predicate_neutral_setters_keep_the_cache() {
        let mut inst = two_by_two();
        let before = inst.candidates() as *const CandidateSet;
        // Time windows and participation bounds are outside the
        // candidate predicate: the cached lists must survive untouched
        // (the same audited exemption `sparse/cache-invalidate` grants
        // these setters).
        inst.set_event_time(EventId(0), TimeInterval::new(0, 30));
        inst.set_event_bounds(EventId(0), 0, 1);
        let after = inst.candidates() as *const CandidateSet;
        assert!(std::ptr::eq(before, after), "cache was dropped needlessly");
        assert!(inst.candidates().contains(UserId(0), EventId(0)));
    }

    #[test]
    fn fees_are_charged_against_the_budget() {
        let mut inst = two_by_two();
        // u0 round trip to e0 costs 6 of budget 10; a fee of 5 breaks it.
        assert!(inst.can_attend_with(UserId(0), &[], EventId(0)));
        inst.set_event_fee(EventId(0), 5.0);
        assert_eq!(inst.travel_cost(UserId(0), &[EventId(0)]), 11.0);
        assert!(!inst.can_attend_with(UserId(0), &[], EventId(0)));
        inst.set_event_fee(EventId(0), 4.0);
        assert!(inst.can_attend_with(UserId(0), &[], EventId(0)));
    }

    #[test]
    fn add_event_extends_matrix() {
        let mut inst = two_by_two();
        let e = inst.add_event(
            Event::new(Point::new(1.0, 1.0), 1, 3, TimeInterval::new(300, 360)),
            &[0.4, 0.6],
        );
        assert_eq!(e, EventId(2));
        assert_eq!(inst.n_events(), 3);
        assert_eq!(inst.utility(UserId(1), e), 0.6);
    }

    #[test]
    fn add_event_on_sparse_utilities_matches_dense() {
        let dense = two_by_two();
        let sparse_utilities =
            UtilityMatrix::from_sparse_rows(2, &[vec![(0, 0.9), (1, 0.5)], vec![(0, 0.2)]])
                .unwrap();
        let sparse = Instance::new(dense.users.clone(), dense.events.clone(), sparse_utilities)
            .unwrap();
        let event = Event::new(Point::new(1.0, 1.0), 0, 3, TimeInterval::new(300, 360));
        let mut built = Vec::new();
        for mut inst in [dense, sparse] {
            let e = inst.add_event(event, &[0.4, 0.0]);
            assert_eq!(e, EventId(2));
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|u| (0..3).map(|e| inst.utility(UserId(u), EventId(e))).collect())
                .collect();
            let candidates: Vec<Vec<u32>> = (0..2)
                .map(|u| inst.candidates().row(UserId(u)).0.to_vec())
                .collect();
            built.push((rows, candidates));
        }
        assert_eq!(built[0], built[1]);
        assert_eq!(built[0].0[0], [0.9, 0.5, 0.4]);
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let users = vec![User::new(Point::new(0.0, 0.0), 1.0)];
        let err = Instance::new(users, vec![], UtilityMatrix::zeros(2, 0)).unwrap_err();
        assert!(matches!(
            err,
            InstanceError::ShapeMismatch {
                matrix: (2, 0),
                expected: (1, 0),
            }
        ));
    }

    #[test]
    fn try_new_rejects_shape_mismatch_without_panicking() {
        let users = vec![User::new(Point::new(0.0, 0.0), 1.0)];
        let err = Instance::try_new(users, vec![], UtilityMatrix::zeros(2, 0)).unwrap_err();
        assert!(matches!(err, InstanceError::ShapeMismatch { .. }));
    }

    #[test]
    fn validate_strict_catches_deserialized_corruption() {
        let inst = two_by_two();
        assert!(inst.validate_strict().is_ok());
        let json = serde_json::to_string(&inst).expect("serializable");

        // Serde bypasses every constructor check: patch the JSON the
        // way a corrupt instance file would look.
        let bad = json.replace("0.9", "7.5"); // utility far outside [0, 1]
        let poisoned: Instance = serde_json::from_str(&bad).expect("parses");
        assert!(matches!(
            poisoned.validate_strict(),
            Err(InstanceError::InvalidUtility { .. })
        ));

        let bad = json.replace("\"lower\":1", "\"lower\":9");
        let poisoned: Instance = serde_json::from_str(&bad).expect("parses");
        assert!(matches!(
            poisoned.validate_strict(),
            Err(InstanceError::InvertedBounds { .. })
        ));
    }

    #[test]
    fn validate_reachable_admits_a_zero_budget_only() {
        let mut inst = two_by_two();
        inst.set_budget(UserId(1), 0.0);
        assert!(matches!(
            inst.validate_strict(),
            Err(InstanceError::InvalidBudget { .. })
        ));
        assert!(inst.validate_reachable().is_ok());
        inst.users[1].budget = -1.0;
        assert!(matches!(
            inst.validate_reachable(),
            Err(InstanceError::InvalidBudget { .. })
        ));
    }

    #[test]
    fn try_new_rejects_eta_below_xi_and_inverted_intervals() {
        let users = vec![User::new(Point::new(0.0, 0.0), 10.0)];
        // Bypass Event::new's assert the way serde would.
        let mut event = Event::new(Point::new(0.0, 1.0), 1, 3, TimeInterval::new(0, 60));
        event.lower = 4; // η = 3 < ξ = 4
        let err = Instance::try_new(
            users.clone(),
            vec![event],
            UtilityMatrix::zeros(1, 1),
        )
        .unwrap_err();
        assert!(matches!(err, InstanceError::InvertedBounds { .. }));

        let mut event = Event::new(Point::new(0.0, 1.0), 0, 3, TimeInterval::new(0, 60));
        event.time = TimeInterval { start: 60, end: 60 };
        let err = Instance::try_new(users, vec![event], UtilityMatrix::zeros(1, 1))
            .unwrap_err();
        assert!(matches!(err, InstanceError::InvertedInterval { .. }));
    }
}
