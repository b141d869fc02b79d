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
//! Derivation is one row scan per user: [`for_each_candidate_in_row`]
//! walks the user's positive utilities (O(row length) on either
//! storage layout) and applies the predicate. The filler's user-scoped
//! repairs call the same helper while the cache is stale, so the
//! predicate has one implementation over a utility row.

use crate::model::{EventId, Instance, UserId};

/// Users per parallel build chunk (fixed boundaries — thread-count
/// independent, so the arena bytes are too).
const BUILD_MIN_CHUNK: usize = 64;

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
#[inline]
pub(crate) fn is_candidate(instance: &Instance, u: UserId, e: EventId, mu: f64) -> bool {
    mu > 0.0
        && 2.0 * instance.distance(u, e) + instance.event(e).fee
            <= instance.user(u).budget + 1e-9
}

/// Calls `f(e, μ)` for every candidate event of `u`, ids ascending, by
/// scanning `u`'s utility row with [`is_candidate`]. Row `u` of
/// [`CandidateSet::build`] is exactly what this yields.
#[inline]
pub(crate) fn for_each_candidate_in_row(
    instance: &Instance,
    u: UserId,
    mut f: impl FnMut(EventId, f64),
) {
    instance.utilities().for_each_positive_in_row(u, |e, mu| {
        if is_candidate(instance, u, e, mu) {
            f(e, mu);
        }
    });
}

impl CandidateSet {
    /// Derives the candidate lists for `instance`: one
    /// [`for_each_candidate_in_row`] scan per user, in fixed-size
    /// parallel chunks.
    pub fn build(instance: &Instance) -> Self {
        let n_users = instance.n_users();
        let parts = epplan_par::par_range_map(n_users, BUILD_MIN_CHUNK, |range| {
            let mut lens: Vec<u32> = Vec::with_capacity(range.len());
            let mut ids: Vec<u32> = Vec::new();
            let mut utils: Vec<f64> = Vec::new();
            for u in range {
                let before = ids.len();
                for_each_candidate_in_row(instance, UserId(u as u32), |e, mu| {
                    ids.push(e.0);
                    utils.push(mu);
                });
                lens.push((ids.len() - before) as u32);
            }
            (lens, ids, utils)
        });

        let nnz: usize = parts.iter().map(|(_, ids, _)| ids.len()).sum();
        assert!(nnz <= u32::MAX as usize, "candidate arena too large");
        let mut row_offsets = Vec::with_capacity(n_users + 1);
        let mut event_ids = Vec::with_capacity(nnz);
        let mut utilities = Vec::with_capacity(nnz);
        row_offsets.push(0u32);
        for (lens, ids, utils) in parts {
            for len in lens {
                let last = *row_offsets.last().unwrap_or(&0);
                row_offsets.push(last + len);
            }
            event_ids.extend_from_slice(&ids);
            utilities.extend_from_slice(&utils);
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
                assert!(is_candidate(&inst, u, e, mu));
            }
        }
        // Completeness: everything passing the predicate is present.
        for u in inst.user_ids() {
            for e in inst.event_ids() {
                if is_candidate(&inst, u, e, inst.utility(u, e)) {
                    assert!(cs.contains(u, e), "missing candidate ({u}, {e})");
                }
            }
        }
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
