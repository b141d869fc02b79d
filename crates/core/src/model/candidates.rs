//! Per-user candidate lists in a flat CSR/SoA arena.
//!
//! The paper's pruning `Uc_i` observes that a user `u_i` can only ever
//! attend events within `B_i / 2` of home (a round trip costs at least
//! twice the one-way distance, and fees are non-negative), and only
//! events with `μ > 0`. [`CandidateSet`] materializes exactly that set
//! per user, in one contiguous arena — the structure every hot solver
//! path iterates instead of the full `|U| × |E|` matrix.
//!
//! Candidate membership is the *canonical predicate*
//! `μ(u, e) > 0 ∧ 2·d(u, e) + fee(e) ≤ B_u + 1e-9`, the same float
//! expression as single-event feasibility in
//! [`Instance::can_attend_with`]. By the triangle inequality any
//! feasible attendance set containing `e` costs at least
//! `2·d(u, e) + fee(e)`, so pruning non-candidates is lossless: no
//! solver stage can ever want an event outside the list.
//!
//! [`is_candidate`] decides that predicate without calling libm's
//! `hypot` (the distance `d` is `hypot(dx, dy)`), by bracketing: see
//! its docs. The answer is the exact predicate's on every input; only
//! pairs whose round trip lies within a relative 1e-13 of the budget
//! limit, or whose distance leaves the safe range, pay for the exact
//! expression.
//!
//! Derivation is one row scan per user: [`for_each_candidate_in_row`]
//! walks the user's positive utilities (O(row length) on either
//! storage layout) and applies the predicate. The filler's user-scoped
//! repairs call the same helper while the cache is stale, so the
//! predicate has one implementation over a utility row.
//! [`CandidateSet::build`] writes the arena once: it counts each
//! user's candidates, prefix-sums the row offsets and scans every row
//! again straight into its exact-size slot.

use crate::model::{Event, EventId, Instance, User, UserId};

/// Relative half-width of the bracket around `sqrt(dx² + dy²)`. Far
/// wider than the few ulps separating that value from `hypot(dx, dy)`.
const BRACKET: f64 = 1e-13;

/// Distances outside `(SAFE_LO, SAFE_HI)` go to the exact expression:
/// inside it `dx² + dy²` neither overflows nor loses precision to
/// underflow (zero and non-finite distances included).
const SAFE_LO: f64 = 1e-100;
const SAFE_HI: f64 = 1e100;

/// Per-user candidate event lists in one flat CSR arena.
///
/// Row `u` owns `event_ids/utilities[row_offsets[u]..row_offsets[u+1]]`,
/// event ids strictly ascending within a row.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSet {
    row_offsets: Vec<u32>,
    event_ids: Vec<u32>,
    utilities: Vec<f64>,
    n_events: usize,
}

/// The canonical candidate predicate (see the module docs). Callers
/// scanning a utility row use [`for_each_candidate_in_row`]; only a
/// scan of one event's column evaluates it directly.
///
/// The budget test `fl(fl(2·x) + fee) ≤ B + 1e-9` is monotone in `x`,
/// and `s = sqrt(dx² + dy²)` lies within a few ulps of
/// `hypot(dx, dy)` whenever `SAFE_LO < s < SAFE_HI` (each of the
/// square, add and root rounds once, `hypot` is within one ulp, and
/// neither square overflows or underflows enough to matter). So
/// `hypot(dx, dy)` lies between `s·(1 − 1e-13)` and `s·(1 + 1e-13)`.
/// When the test passes at the upper end it passes at `hypot`, and when
/// it fails at the lower end it fails at `hypot`. Only the band between
/// them, an out-of-range `s` and a NaN fee or budget evaluate the exact
/// `2·d(u, e) + fee ≤ B + 1e-9`.
#[inline]
pub(crate) fn is_candidate(instance: &Instance, u: UserId, e: EventId, mu: f64) -> bool {
    mu > 0.0 && fits_budget(instance.user(u), instance.event(e), &mut 0)
}

/// The budget half of [`is_candidate`]; bumps `fallbacks` when the
/// bracket leaves the answer to the exact expression.
#[inline]
fn fits_budget(user: &User, event: &Event, fallbacks: &mut u64) -> bool {
    let limit = user.budget + 1e-9;
    let s = user.location.distance_sq(&event.location).sqrt();
    if SAFE_LO < s && s < SAFE_HI {
        if 2.0 * (s * (1.0 + BRACKET)) + event.fee <= limit {
            return true;
        }
        if 2.0 * (s * (1.0 - BRACKET)) + event.fee > limit {
            return false;
        }
    }
    *fallbacks += 1;
    2.0 * user.location.distance(&event.location) + event.fee <= limit
}

/// Calls `f(e, μ)` for every candidate event of `u`, ids ascending, by
/// scanning `u`'s utility row with [`is_candidate`]. Row `u` of
/// [`CandidateSet::build`] is exactly what this yields. Returns how
/// many of the row's pairs the bracket left to the exact expression.
#[inline]
pub(crate) fn for_each_candidate_in_row(
    instance: &Instance,
    u: UserId,
    mut f: impl FnMut(EventId, f64),
) -> u64 {
    let user = instance.user(u);
    let mut fallbacks = 0;
    instance.utilities().for_each_positive_in_row(u, |e, mu| {
        if mu > 0.0 && fits_budget(user, instance.event(e), &mut fallbacks) {
            f(e, mu);
        }
    });
    fallbacks
}

impl CandidateSet {
    /// Derives the candidate lists for `instance` in two passes over
    /// the users: the first counts each row (into `row_offsets`,
    /// prefix-summed after), the second appends every row to the
    /// exact-size arena. Adds the first pass's exact fallbacks to
    /// `candidates.exact_fallbacks`.
    pub fn build(instance: &Instance) -> Self {
        let n_users = instance.n_users();
        let mut row_offsets = vec![0u32; n_users + 1];
        let mut fallbacks = 0;
        for (u, len) in instance.user_ids().zip(&mut row_offsets[1..]) {
            fallbacks += for_each_candidate_in_row(instance, u, |_, _| *len += 1);
        }
        epplan_obs::counter_add("candidates.exact_fallbacks", fallbacks);

        let nnz: u64 = row_offsets.iter().map(|&len| u64::from(len)).sum();
        assert!(nnz <= u64::from(u32::MAX), "candidate arena too large");
        for u in 0..n_users {
            row_offsets[u + 1] += row_offsets[u];
        }

        let mut event_ids = Vec::with_capacity(nnz as usize);
        let mut utilities = Vec::with_capacity(nnz as usize);
        for u in instance.user_ids() {
            for_each_candidate_in_row(instance, u, |e, mu| {
                event_ids.push(e.0);
                utilities.push(mu);
            });
        }

        CandidateSet {
            row_offsets,
            event_ids,
            utilities,
            n_events: instance.n_events(),
        }
    }

    /// Number of user rows.
    pub fn n_users(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of events in the originating instance (not all of which
    /// necessarily appear as candidates).
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Total number of `(user, event)` candidate pairs in the arena.
    pub fn len(&self) -> usize {
        self.event_ids.len()
    }

    /// Whether no user has any candidate.
    pub fn is_empty(&self) -> bool {
        self.event_ids.is_empty()
    }

    /// Mean candidates per user — the density the bench grids report.
    pub fn density(&self) -> f64 {
        if self.n_users() == 0 {
            0.0
        } else {
            self.len() as f64 / self.n_users() as f64
        }
    }

    /// The arena range owned by one user's row.
    #[inline]
    pub fn row_range(&self, u: UserId) -> std::ops::Range<usize> {
        self.row_offsets[u.index()] as usize..self.row_offsets[u.index() + 1] as usize
    }

    /// One user's candidate events and their utilities, ids ascending.
    #[inline]
    pub fn row(&self, u: UserId) -> (&[u32], &[f64]) {
        let r = self.row_range(u);
        (&self.event_ids[r.clone()], &self.utilities[r])
    }

    /// The full event-id arena (all rows concatenated).
    pub fn event_ids(&self) -> &[u32] {
        &self.event_ids
    }

    /// The full utility arena, parallel to [`Self::event_ids`].
    pub fn utilities(&self) -> &[f64] {
        &self.utilities
    }

    /// The CSR row-offset prefix array, `n_users + 1` long.
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// Whether `e` is a candidate for `u` (binary search of the row).
    pub fn contains(&self, u: UserId, e: EventId) -> bool {
        let (ids, _) = self.row(u);
        ids.binary_search(&e.0).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Event, TimeInterval, User, UtilityMatrix};
    use epplan_geo::Point;

    fn scattered_instance(n_users: usize, n_events: usize) -> Instance {
        // Deterministic splitmix-style scatter, no external RNG.
        let mut state = 0x9e37u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        let users: Vec<User> = (0..n_users)
            .map(|_| {
                User::new(
                    Point::new(next() * 100.0, next() * 100.0),
                    5.0 + next() * 40.0,
                )
            })
            .collect();
        let events: Vec<Event> = (0..n_events)
            .map(|i| {
                Event::new(
                    Point::new(next() * 100.0, next() * 100.0),
                    0,
                    4,
                    TimeInterval::new(i as u32 * 10, i as u32 * 10 + 5),
                )
                .with_fee(if i % 3 == 0 { next() * 3.0 } else { 0.0 })
            })
            .collect();
        let rows: Vec<Vec<f64>> = (0..n_users)
            .map(|_| {
                (0..n_events)
                    .map(|j| if j % 4 == 0 { 0.0 } else { (next() * 100.0).round() / 100.0 })
                    .collect()
            })
            .collect();
        Instance::new(users, events, UtilityMatrix::from_rows(rows).unwrap()).unwrap()
    }

    /// The canonical predicate as written in the module docs, with
    /// libm's `hypot`: the oracle the fast decision must reproduce.
    fn plain(user: &User, event: &Event) -> bool {
        2.0 * user.location.distance(&event.location) + event.fee <= user.budget + 1e-9
    }

    /// `x` moved by `k` ulps (positive finite `x`).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    /// The arena a naive scan of every `(user, event)` pair with
    /// [`plain`] yields: `(row_offsets, event_ids, utilities)`.
    fn naive_arena(inst: &Instance) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let (mut offsets, mut ids, mut utils) = (vec![0u32], Vec::new(), Vec::new());
        for u in inst.user_ids() {
            for e in inst.event_ids() {
                let mu = inst.utility(u, e);
                if mu > 0.0 && plain(inst.user(u), inst.event(e)) {
                    ids.push(e.0);
                    utils.push(mu);
                }
            }
            offsets.push(ids.len() as u32);
        }
        (offsets, ids, utils)
    }

    #[test]
    fn rows_are_ascending_and_satisfy_the_predicate() {
        let inst = scattered_instance(25, 48);
        let cs = CandidateSet::build(&inst);
        assert_eq!(cs.n_users(), 25);
        assert_eq!(cs.n_events(), 48);
        for u in inst.user_ids() {
            let (ids, utils) = cs.row(u);
            for w in ids.windows(2) {
                assert!(w[0] < w[1], "row of {u} not strictly ascending");
            }
            for (&e, &mu) in ids.iter().zip(utils) {
                let e = EventId(e);
                assert_eq!(mu, inst.utility(u, e));
                assert!(mu > 0.0 && plain(inst.user(u), inst.event(e)));
            }
        }
        // Completeness: everything passing the predicate is present.
        for u in inst.user_ids() {
            for e in inst.event_ids() {
                if inst.utility(u, e) > 0.0 && plain(inst.user(u), inst.event(e)) {
                    assert!(cs.contains(u, e), "missing candidate ({u}, {e})");
                }
            }
        }
    }

    #[test]
    fn build_equals_a_naive_hypot_scan_on_both_layouts() {
        let mut dense = scattered_instance(300, 40);
        // Every fifth user's budget sits on the boundary of one of its
        // positive events, nudged by -4..=4 ulps.
        for u in dense.user_ids().filter(|u| u.0 % 5 == 0) {
            let e = EventId(1 + u.0 % 39);
            if e.0.is_multiple_of(4) {
                continue;
            }
            let edge = 2.0 * dense.distance(u, e) + dense.event(e).fee - 1e-9;
            dense.set_budget(u, ulps(edge.max(0.0), i64::from(u.0 % 9) - 4));
        }
        let rows: Vec<Vec<(u32, f64)>> = dense
            .user_ids()
            .map(|u| {
                let mut row = Vec::new();
                dense
                    .utilities()
                    .for_each_positive_in_row(u, |e, mu| row.push((e.0, mu)));
                row
            })
            .collect();
        let sparse = Instance::new(
            dense.users().to_vec(),
            dense.events().to_vec(),
            UtilityMatrix::from_sparse_rows(dense.n_events(), &rows).unwrap(),
        )
        .unwrap();
        assert!(sparse.utilities().is_sparse() && !dense.utilities().is_sparse());

        let expected = naive_arena(&dense);
        assert_eq!(expected, naive_arena(&sparse));
        assert!(!expected.1.is_empty());
        let prev = epplan_par::threads();
        for threads in [1, 4] {
            epplan_par::set_threads(threads);
            for inst in [&dense, &sparse] {
                let cs = CandidateSet::build(inst);
                let got = (
                    cs.row_offsets().to_vec(),
                    cs.event_ids().to_vec(),
                    cs.utilities().to_vec(),
                );
                assert_eq!(got, expected, "at {threads} threads");
            }
        }
        epplan_par::set_threads(prev);
    }

    /// Which way the fast decision went: `[fast accept, fast reject,
    /// exact fallback]` counts, checked against [`plain`].
    fn differential(cases: impl IntoIterator<Item = (User, Event)>) -> [u64; 3] {
        let mut seen = [0u64; 3];
        for (user, event) in cases {
            let mut fallbacks = 0;
            let fast = fits_budget(&user, &event, &mut fallbacks);
            assert_eq!(fast, plain(&user, &event), "{user:?} {event:?}");
            seen[if fallbacks > 0 {
                2
            } else if fast {
                0
            } else {
                1
            }] += 1;
        }
        seen
    }

    fn pair(ux: f64, uy: f64, ex: f64, ey: f64, budget: f64, fee: f64) -> (User, Event) {
        let user = User {
            location: Point::new(ux, uy),
            budget,
        };
        let mut event = Event::new(Point::new(ex, ey), 0, 1, TimeInterval::new(0, 1));
        event.fee = fee;
        (user, event)
    }

    #[test]
    fn bracketed_predicate_matches_the_plain_expression() {
        let mut state = 0x5eedu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut random = Vec::new();
        let mut boundary = Vec::new();
        for i in 0..4000 {
            let (ux, uy, ex, ey) = (
                next() * 100.0,
                next() * 100.0,
                next() * 100.0,
                next() * 100.0,
            );
            let fee = if i % 3 == 0 { next() * 3.0 } else { 0.0 };
            random.push(pair(ux, uy, ex, ey, next() * 150.0, fee));
            // Budgets on the boundary, nudged by ulps (the band: exact
            // fallback) and by 1e-12 relative (outside it: fast paths).
            let d = Point::new(ux, uy).distance(&Point::new(ex, ey));
            let edge = 2.0 * d + fee - 1e-9;
            for k in -4..=4 {
                boundary.push(pair(ux, uy, ex, ey, ulps(edge, k), fee));
            }
            for rel in [1.0 - 1e-12, 1.0 + 1e-12] {
                boundary.push(pair(ux, uy, ex, ey, edge * rel, fee));
            }
        }
        let [accept, reject, fallback] = differential(random);
        assert!(
            accept > 0 && reject > 0,
            "random pairs take both fast branches"
        );
        assert!(
            fallback <= 1,
            "random pairs almost never fall back ({fallback})"
        );
        let [accept, reject, fallback] = differential(boundary);
        assert!(accept > 0 && reject > 0 && fallback >= 9 * 4000);

        // Zero distance, tiny and huge coordinates, and non-finite fees
        // and budgets all reach the exact expression and agree with it.
        let mut edge_cases = Vec::new();
        for (fee, budget) in [(0.0, 0.0), (1.0, 1.0 - 1e-9), (0.0, 1e-300), (2.5, 2.0)] {
            edge_cases.push(pair(3.0, 4.0, 3.0, 4.0, budget, fee));
        }
        for scale in [1e-150, 3e-151, 1e150, 7e153, 1e160, 1e300] {
            let d = Point::new(scale, 0.0).distance(&Point::new(0.0, scale));
            for k in -2..=2 {
                edge_cases.push(pair(
                    scale,
                    0.0,
                    0.0,
                    scale,
                    ulps(2.0 * d - 1e-9, k).max(0.0),
                    0.0,
                ));
                edge_cases.push(pair(scale, 0.0, 0.0, scale, ulps(2.0 * d, k), 0.0));
            }
        }
        for bad in [f64::NAN, f64::INFINITY] {
            edge_cases.push(pair(0.0, 0.0, 3.0, 4.0, 20.0, bad));
            edge_cases.push(pair(0.0, 0.0, 3.0, 4.0, bad, 1.0));
            edge_cases.push(pair(0.0, 0.0, 3.0, 4.0, bad, bad));
        }
        let [_, _, fallback] = differential(edge_cases);
        assert!(fallback > 0);
        // A tiny offset on one axis does not knock a unit distance out
        // of the fast range.
        let [accept, reject, fallback] = differential([
            pair(1e-150, 0.0, 0.0, 1.0, 3.0, 0.0),
            pair(1e-150, 0.0, 0.0, 1.0, 1.0, 0.0),
        ]);
        assert_eq!([accept, reject, fallback], [1, 1, 0]);
    }

    #[test]
    fn candidate_set_is_thread_count_invariant() {
        let inst = scattered_instance(150, 48);
        let prev = epplan_par::threads();
        epplan_par::set_threads(1);
        let at1 = CandidateSet::build(&inst);
        epplan_par::set_threads(4);
        let at4 = CandidateSet::build(&inst);
        epplan_par::set_threads(prev);
        assert_eq!(at1, at4);
    }

    #[test]
    fn empty_instance_yields_empty_arena() {
        let inst = Instance::new(vec![], vec![], UtilityMatrix::zeros(0, 0)).unwrap();
        let cs = CandidateSet::build(&inst);
        assert_eq!(cs.n_users(), 0);
        assert!(cs.is_empty());
        assert_eq!(cs.density(), 0.0);
    }
}
