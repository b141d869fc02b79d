use crate::model::{EventId, InstanceError, UserId};
use serde::{Content, DeError, Deserialize, Serialize};

/// The user × event utility matrix `μ(u_i, e_j) ∈ [0, 1]`.
///
/// A score of 0 means the user "will not or cannot participate in the
/// corresponding event" (Section II) — solvers never make `μ = 0`
/// assignments.
///
/// Two storage layouts share one API: a dense user-major array (small
/// hand-built instances, builder output) and a CSR layout holding only
/// the non-zero entries (generated instances at `|U| ≥ 10⁵`, where the
/// dense array alone would be gigabytes). `get`/`set` are
/// layout-transparent; the JSON serialization of the dense layout is
/// unchanged from earlier releases.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityMatrix {
    n_users: usize,
    n_events: usize,
    storage: Storage,
}

#[derive(Debug, Clone, PartialEq)]
enum Storage {
    /// User-major dense values, `n_users * n_events` long.
    Dense(Vec<f64>),
    /// CSR over users: row `u` owns `cols/vals[offsets[u]..offsets[u+1]]`,
    /// columns strictly ascending within a row.
    Sparse {
        offsets: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<f64>,
    },
}

impl UtilityMatrix {
    /// All-zero matrix of the given shape (dense layout).
    pub fn zeros(n_users: usize, n_events: usize) -> Self {
        UtilityMatrix {
            n_users,
            n_events,
            storage: Storage::Dense(vec![0.0; n_users * n_events]),
        }
    }

    /// Builds from user-major rows; rejects ragged input with a typed
    /// [`InstanceError::ShapeMismatch`]. Panics on values outside
    /// `[0, 1]` (same contract as [`UtilityMatrix::set`]).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, InstanceError> {
        let n_users = rows.len();
        let n_events = rows.first().map_or(0, Vec::len);
        let mut m = UtilityMatrix::zeros(n_users, n_events);
        for (u, row) in rows.into_iter().enumerate() {
            if row.len() != n_events {
                return Err(InstanceError::ShapeMismatch {
                    matrix: (u, row.len()),
                    expected: (n_users, n_events),
                });
            }
            for (e, v) in row.into_iter().enumerate() {
                m.set(UserId(u as u32), EventId(e as u32), v);
            }
        }
        Ok(m)
    }

    /// Builds a CSR matrix from per-user `(event, μ)` lists. Columns
    /// must be strictly ascending within each row and `< n_events`;
    /// values must lie in `[0, 1]`. Entries with `μ = 0` may simply be
    /// omitted — `get` returns 0 for any absent pair.
    pub fn from_sparse_rows(
        n_events: usize,
        rows: &[Vec<(u32, f64)>],
    ) -> Result<Self, InstanceError> {
        let n_users = rows.len();
        let nnz: usize = rows.iter().map(Vec::len).sum();
        assert!(nnz <= u32::MAX as usize, "sparse utility matrix too large");
        let mut offsets = Vec::with_capacity(n_users + 1);
        let mut cols = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        offsets.push(0u32);
        for (u, row) in rows.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &(c, v) in row {
                if (c as usize) >= n_events || prev.is_some_and(|p| p >= c) {
                    return Err(InstanceError::UnknownId {
                        what: format!(
                            "sparse utility row {u} has out-of-range or out-of-order column {c}"
                        ),
                    });
                }
                if !(0.0..=1.0).contains(&v) {
                    return Err(InstanceError::InvalidUtility {
                        user: UserId(u as u32),
                        event: EventId(c),
                        value: v,
                    });
                }
                prev = Some(c);
                cols.push(c);
                vals.push(v);
            }
            offsets.push(cols.len() as u32);
        }
        Ok(UtilityMatrix {
            n_users,
            n_events,
            storage: Storage::Sparse {
                offsets,
                cols,
                vals,
            },
        })
    }

    /// Number of user rows.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of event columns.
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Whether the CSR layout is in use.
    pub fn is_sparse(&self) -> bool {
        matches!(self.storage, Storage::Sparse { .. })
    }

    /// Number of explicitly stored entries (`n_users * n_events` for
    /// the dense layout).
    pub fn stored_entries(&self) -> usize {
        match &self.storage {
            Storage::Dense(values) => values.len(),
            Storage::Sparse { cols, .. } => cols.len(),
        }
    }

    /// `μ(user, event)`; 0 for pairs absent from the sparse layout.
    #[inline]
    pub fn get(&self, user: UserId, event: EventId) -> f64 {
        match &self.storage {
            Storage::Dense(values) => values[user.index() * self.n_events + event.index()],
            Storage::Sparse {
                offsets,
                cols,
                vals,
            } => {
                let lo = offsets[user.index()] as usize;
                let hi = offsets[user.index() + 1] as usize;
                match cols[lo..hi].binary_search(&(event.index() as u32)) {
                    Ok(k) => vals[lo + k],
                    Err(_) => 0.0,
                }
            }
        }
    }

    /// Sets `μ(user, event)`; panics outside `[0, 1]`. On the sparse
    /// layout an absent pair is spliced in (an absent pair set to 0
    /// stays implicit).
    pub fn set(&mut self, user: UserId, event: EventId, value: f64) {
        assert!(
            (0.0..=1.0).contains(&value),
            "utility {value} outside [0, 1]"
        );
        let n_events = self.n_events;
        match &mut self.storage {
            Storage::Dense(values) => {
                values[user.index() * n_events + event.index()] = value;
            }
            Storage::Sparse {
                offsets,
                cols,
                vals,
            } => {
                let lo = offsets[user.index()] as usize;
                let hi = offsets[user.index() + 1] as usize;
                let col = event.index() as u32;
                match cols[lo..hi].binary_search(&col) {
                    Ok(k) => vals[lo + k] = value,
                    Err(k) => {
                        // epplan-lint: allow(float/exact-eq) — sparse storage: exact 0.0 means "absent", no tolerance wanted
                        if value == 0.0 {
                            return; // absent == implicit zero
                        }
                        cols.insert(lo + k, col);
                        vals.insert(lo + k, value);
                        for o in &mut offsets[user.index() + 1..] {
                            *o += 1;
                        }
                    }
                }
            }
        }
    }

    /// The stored value of `μ(user, event)`: `None` when the sparse
    /// layout holds no entry for the pair. [`UtilityMatrix::restore_slot`]
    /// puts it back exactly.
    pub(crate) fn slot(&self, user: UserId, event: EventId) -> Option<f64> {
        match &self.storage {
            Storage::Dense(values) => Some(values[user.index() * self.n_events + event.index()]),
            Storage::Sparse {
                offsets,
                cols,
                vals,
            } => {
                let lo = offsets[user.index()] as usize;
                let hi = offsets[user.index() + 1] as usize;
                cols[lo..hi]
                    .binary_search(&(event.index() as u32))
                    .ok()
                    .map(|k| vals[lo + k])
            }
        }
    }

    /// Restores a slot read by [`UtilityMatrix::slot`]: `Some(v)` sets
    /// `v`, `None` drops the pair's sparse entry, so an undone `set`
    /// leaves the storage exactly as it was.
    pub(crate) fn restore_slot(&mut self, user: UserId, event: EventId, slot: Option<f64>) {
        if let Some(v) = slot {
            self.set(user, event, v);
            return;
        }
        if let Storage::Sparse {
            offsets,
            cols,
            vals,
        } = &mut self.storage
        {
            let lo = offsets[user.index()] as usize;
            let hi = offsets[user.index() + 1] as usize;
            if let Ok(k) = cols[lo..hi].binary_search(&(event.index() as u32)) {
                cols.remove(lo + k);
                vals.remove(lo + k);
                for o in &mut offsets[user.index() + 1..] {
                    *o -= 1;
                }
            }
        }
    }

    /// Visits every entry with `μ > 0` in one user's row, in ascending
    /// event order. O(row length) on either layout — this is the
    /// building block of candidate derivation.
    #[inline]
    pub fn for_each_positive_in_row<F: FnMut(EventId, f64)>(&self, user: UserId, mut f: F) {
        match &self.storage {
            Storage::Dense(values) => {
                let s = user.index() * self.n_events;
                // epplan-lint: allow(sparse/dense-scan) — Dense-layout arm: one user's row scan is this storage's native access; large instances use the Sparse arm below
                for (e, &v) in values[s..s + self.n_events].iter().enumerate() {
                    if v > 0.0 {
                        f(EventId(e as u32), v);
                    }
                }
            }
            Storage::Sparse {
                offsets,
                cols,
                vals,
            } => {
                let lo = offsets[user.index()] as usize;
                let hi = offsets[user.index() + 1] as usize;
                for k in lo..hi {
                    if vals[k] > 0.0 {
                        f(EventId(cols[k]), vals[k]);
                    }
                }
            }
        }
    }

    /// Validates the storage structure and every stored value, the way
    /// strict instance validation needs after deserialization: dense
    /// length must match the shape; sparse offsets must be a monotone
    /// prefix array with ascending in-range columns; all stored values
    /// must lie in `[0, 1]`. O(stored entries).
    pub fn validate(&self) -> Result<(), InstanceError> {
        match &self.storage {
            Storage::Dense(values) => {
                if values.len() != self.n_users * self.n_events {
                    return Err(InstanceError::ShapeMismatch {
                        matrix: (self.n_users, values.len()),
                        expected: (self.n_users, self.n_events),
                    });
                }
                for (idx, &v) in values.iter().enumerate() {
                    if !(0.0..=1.0).contains(&v) {
                        return Err(InstanceError::InvalidUtility {
                            user: UserId((idx / self.n_events) as u32),
                            event: EventId((idx % self.n_events) as u32),
                            value: v,
                        });
                    }
                }
            }
            Storage::Sparse {
                offsets,
                cols,
                vals,
            } => {
                let well_formed = offsets.len() == self.n_users + 1
                    && offsets.first() == Some(&0)
                    && offsets.last().copied() == Some(cols.len() as u32)
                    && cols.len() == vals.len()
                    && offsets.windows(2).all(|w| w[0] <= w[1]);
                if !well_formed {
                    return Err(InstanceError::UnknownId {
                        what: "corrupt sparse utility storage (bad offsets)".to_string(),
                    });
                }
                for u in 0..self.n_users {
                    let lo = offsets[u] as usize;
                    let hi = offsets[u + 1] as usize;
                    let row = &cols[lo..hi];
                    if row.iter().any(|&c| (c as usize) >= self.n_events)
                        || row.windows(2).any(|w| w[0] >= w[1])
                    {
                        return Err(InstanceError::UnknownId {
                            what: format!(
                                "corrupt sparse utility storage (row {u} columns)"
                            ),
                        });
                    }
                    for (k, &v) in vals[lo..hi].iter().enumerate() {
                        if !(0.0..=1.0).contains(&v) {
                            return Err(InstanceError::InvalidUtility {
                                user: UserId(u as u32),
                                event: EventId(row[k]),
                                value: v,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Appends a column holding `column[u]` for every user `u` and
    /// returns its id (used by the `NewEvent` atomic operation). Panics
    /// unless there is one value per user, each in `[0, 1]` (same
    /// contract as [`UtilityMatrix::set`]). One O(stored entries + |U|)
    /// pass on either layout; the result equals a `set` per user on the
    /// widened matrix.
    pub fn push_event_column(&mut self, column: &[f64]) -> EventId {
        assert_eq!(column.len(), self.n_users, "one utility per user");
        for &v in column {
            assert!((0.0..=1.0).contains(&v), "utility {v} outside [0, 1]");
        }
        let ne = self.n_events;
        match &mut self.storage {
            Storage::Dense(values) => {
                let mut next = Vec::with_capacity(self.n_users * (ne + 1));
                for (u, &v) in column.iter().enumerate() {
                    next.extend_from_slice(&values[u * ne..(u + 1) * ne]);
                    next.push(v);
                }
                *values = next;
            }
            Storage::Sparse {
                offsets,
                cols,
                vals,
            } => {
                // Zeros stay implicit, as `set` leaves them; the new
                // column is the largest, so it closes its row.
                let added = column.iter().filter(|&&v| v > 0.0).count();
                assert!(
                    cols.len() + added <= u32::MAX as usize,
                    "sparse utility matrix too large"
                );
                let mut next_offsets = Vec::with_capacity(offsets.len());
                let mut next_cols = Vec::with_capacity(cols.len() + added);
                let mut next_vals = Vec::with_capacity(vals.len() + added);
                next_offsets.push(0u32);
                for (u, &v) in column.iter().enumerate() {
                    let lo = offsets[u] as usize;
                    let hi = offsets[u + 1] as usize;
                    next_cols.extend_from_slice(&cols[lo..hi]);
                    next_vals.extend_from_slice(&vals[lo..hi]);
                    if v > 0.0 {
                        next_cols.push(ne as u32);
                        next_vals.push(v);
                    }
                    next_offsets.push(next_cols.len() as u32);
                }
                *offsets = next_offsets;
                *cols = next_cols;
                *vals = next_vals;
            }
        }
        self.n_events += 1;
        EventId(ne as u32)
    }

    /// Drops the last event column: the inverse of
    /// [`UtilityMatrix::push_event_column`].
    ///
    /// # Panics
    /// If the matrix has no event column.
    pub(crate) fn pop_event_column(&mut self) {
        assert!(self.n_events > 0, "no event column to pop");
        let ne = self.n_events;
        match &mut self.storage {
            Storage::Dense(values) => {
                let mut next = Vec::with_capacity(self.n_users * (ne - 1));
                for u in 0..self.n_users {
                    next.extend_from_slice(&values[u * ne..(u + 1) * ne - 1]);
                }
                *values = next;
            }
            Storage::Sparse {
                offsets,
                cols,
                vals,
            } => {
                // The popped column is the largest, so it can only
                // close a row; compact the survivors in place.
                let last = (ne - 1) as u32;
                let (mut w, mut lo) = (0, 0);
                for u in 0..self.n_users {
                    let hi = offsets[u + 1] as usize;
                    for k in lo..hi {
                        if cols[k] != last {
                            cols[w] = cols[k];
                            vals[w] = vals[k];
                            w += 1;
                        }
                    }
                    lo = hi;
                    offsets[u + 1] = w as u32;
                }
                cols.truncate(w);
                vals.truncate(w);
            }
        }
        self.n_events -= 1;
    }
}

// The serde shim has no `flatten`/`untagged`, so the two layouts are
// dispatched by hand: the dense layout keeps the historical
// `{n_users, n_events, values}` JSON shape bit-for-bit, the sparse
// layout writes `{n_users, n_events, offsets, cols, vals}`, and the
// deserializer picks by which field set is present.
impl Serialize for UtilityMatrix {
    fn to_content(&self) -> Content {
        let mut m = vec![
            ("n_users".to_string(), self.n_users.to_content()),
            ("n_events".to_string(), self.n_events.to_content()),
        ];
        match &self.storage {
            Storage::Dense(values) => {
                m.push(("values".to_string(), values.to_content()));
            }
            Storage::Sparse {
                offsets,
                cols,
                vals,
            } => {
                m.push(("offsets".to_string(), offsets.to_content()));
                m.push(("cols".to_string(), cols.to_content()));
                m.push(("vals".to_string(), vals.to_content()));
            }
        }
        Content::Map(m)
    }
}

impl Deserialize for UtilityMatrix {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| DeError::new("expected map for `UtilityMatrix`"))?;
        let n_users: usize = serde::__field(m, "n_users")?;
        let n_events: usize = serde::__field(m, "n_events")?;
        let storage = if serde::__get(m, "values").is_some() {
            Storage::Dense(serde::__field(m, "values")?)
        } else {
            Storage::Sparse {
                offsets: serde::__field(m, "offsets")?,
                cols: serde::__field(m, "cols")?,
                vals: serde::__field(m, "vals")?,
            }
        };
        Ok(UtilityMatrix {
            n_users,
            n_events,
            storage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_get() {
        let m = UtilityMatrix::from_rows(vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        assert_eq!(m.n_users(), 2);
        assert_eq!(m.n_events(), 2);
        assert_eq!(m.get(UserId(0), EventId(1)), 0.2);
        assert_eq!(m.get(UserId(1), EventId(0)), 0.3);
        assert!(!m.is_sparse());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_utility_panics() {
        let mut m = UtilityMatrix::zeros(1, 1);
        m.set(UserId(0), EventId(0), 1.5);
    }

    #[test]
    fn ragged_rows_are_a_typed_error() {
        let err = UtilityMatrix::from_rows(vec![vec![0.1], vec![0.2, 0.3]]).unwrap_err();
        assert!(matches!(err, InstanceError::ShapeMismatch { .. }));
    }

    #[test]
    fn push_event_column_preserves_rows() {
        let mut m = UtilityMatrix::from_rows(vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        let e = m.push_event_column(&[0.0, 0.0]);
        assert_eq!(e, EventId(2));
        assert_eq!(m.n_events(), 3);
        assert_eq!(m.get(UserId(0), EventId(0)), 0.1);
        assert_eq!(m.get(UserId(1), EventId(1)), 0.4);
        assert_eq!(m.get(UserId(0), EventId(2)), 0.0);
        assert_eq!(m.get(UserId(1), EventId(2)), 0.0);
    }

    #[test]
    fn sparse_rows_match_dense_semantics() {
        let dense = UtilityMatrix::from_rows(vec![vec![0.1, 0.0, 0.2], vec![0.0, 0.3, 0.0]])
            .unwrap();
        let sparse = UtilityMatrix::from_sparse_rows(
            3,
            &[vec![(0, 0.1), (2, 0.2)], vec![(1, 0.3)]],
        )
        .unwrap();
        assert!(sparse.is_sparse());
        assert_eq!(sparse.stored_entries(), 3);
        for u in 0..2 {
            for e in 0..3 {
                assert_eq!(
                    dense.get(UserId(u), EventId(e)),
                    sparse.get(UserId(u), EventId(e)),
                    "({u}, {e})"
                );
            }
        }
        let mut dense_pos = Vec::new();
        let mut sparse_pos = Vec::new();
        dense.for_each_positive_in_row(UserId(0), |e, v| dense_pos.push((e, v)));
        sparse.for_each_positive_in_row(UserId(0), |e, v| sparse_pos.push((e, v)));
        assert_eq!(dense_pos, sparse_pos);
    }

    #[test]
    fn sparse_rejects_disorder_and_bad_values() {
        assert!(matches!(
            UtilityMatrix::from_sparse_rows(3, &[vec![(2, 0.1), (1, 0.2)]]),
            Err(InstanceError::UnknownId { .. })
        ));
        assert!(matches!(
            UtilityMatrix::from_sparse_rows(3, &[vec![(5, 0.1)]]),
            Err(InstanceError::UnknownId { .. })
        ));
        assert!(matches!(
            UtilityMatrix::from_sparse_rows(3, &[vec![(1, 1.5)]]),
            Err(InstanceError::InvalidUtility { .. })
        ));
    }

    #[test]
    fn sparse_set_splices_and_push_column_is_implicit() {
        let mut m = UtilityMatrix::from_sparse_rows(3, &[vec![(1, 0.3)], vec![]]).unwrap();
        m.set(UserId(1), EventId(0), 0.7);
        assert_eq!(m.get(UserId(1), EventId(0)), 0.7);
        m.set(UserId(0), EventId(2), 0.0); // absent + zero stays implicit
        assert_eq!(m.stored_entries(), 2);
        let e = m.push_event_column(&[0.0, 0.0]);
        assert_eq!(e, EventId(3));
        assert_eq!(m.get(UserId(0), EventId(3)), 0.0);
        m.set(UserId(0), EventId(3), 0.5);
        assert_eq!(m.get(UserId(0), EventId(3)), 0.5);
        assert_eq!(m.get(UserId(0), EventId(1)), 0.3);
    }

    #[test]
    fn push_event_column_equals_a_set_per_user() {
        let dense =
            UtilityMatrix::from_rows(vec![vec![0.1, 0.0], vec![0.0, 0.0], vec![0.3, 0.4]])
                .unwrap();
        let sparse = UtilityMatrix::from_sparse_rows(
            2,
            &[vec![(0, 0.1)], vec![], vec![(0, 0.3), (1, 0.4)]],
        )
        .unwrap();
        let columns: [&[f64]; 4] = [
            &[0.0, 0.0, 0.0],
            &[0.5, 0.25, 1.0],
            &[0.0, 0.7, 0.0],
            &[0.2, 0.0, 0.9],
        ];
        for base in [dense, sparse] {
            for column in columns {
                let mut appended = base.clone();
                let e = appended.push_event_column(column);
                let mut reference = base.clone();
                reference.push_event_column(&[0.0; 3]);
                for (u, &v) in column.iter().enumerate() {
                    reference.set(UserId(u as u32), e, v);
                }
                assert_eq!(appended, reference, "{column:?}");
            }
        }
    }

    #[test]
    fn slot_restore_and_column_pop_undo_set_and_push_exactly() {
        let dense = UtilityMatrix::from_rows(vec![vec![0.1, 0.0], vec![0.0, 0.3]]).unwrap();
        let sparse = UtilityMatrix::from_sparse_rows(2, &[vec![(0, 0.1)], vec![(1, 0.3)]])
            .unwrap();
        for base in [dense, sparse] {
            for (u, e) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let (u, e) = (UserId(u), EventId(e));
                for v in [0.0, 0.7] {
                    let mut m = base.clone();
                    let slot = m.slot(u, e);
                    m.set(u, e, v);
                    m.restore_slot(u, e, slot);
                    assert_eq!(m, base, "set({u}, {e}, {v}) undone");
                }
            }
            let mut m = base.clone();
            m.push_event_column(&[0.4, 0.0]);
            m.pop_event_column();
            assert_eq!(m, base, "push undone");
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn push_event_column_rejects_out_of_range_utility() {
        let mut m = UtilityMatrix::from_sparse_rows(1, &[vec![], vec![(0, 0.5)]]).unwrap();
        m.push_event_column(&[0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "one utility per user")]
    fn push_event_column_rejects_wrong_length() {
        let mut m = UtilityMatrix::from_sparse_rows(1, &[vec![], vec![(0, 0.5)]]).unwrap();
        m.push_event_column(&[0.5]);
    }

    #[test]
    fn push_event_column_onto_an_eventless_matrix() {
        let dense = UtilityMatrix::zeros(3, 0);
        let sparse = UtilityMatrix::from_sparse_rows(0, &[vec![], vec![], vec![]]).unwrap();
        for mut m in [dense, sparse] {
            let sparse = m.is_sparse();
            assert_eq!(m.push_event_column(&[0.0, 0.6, 1.0]), EventId(0));
            assert_eq!(m.n_events(), 1);
            assert_eq!(m.is_sparse(), sparse, "layout must not change");
            assert_eq!(m.stored_entries(), if sparse { 2 } else { 3 });
            let col: Vec<f64> = (0..3).map(|u| m.get(UserId(u), EventId(0))).collect();
            assert_eq!(col, [0.0, 0.6, 1.0]);
            assert!(m.validate().is_ok());
        }
    }

    #[test]
    fn serde_roundtrips_both_layouts_and_keeps_dense_shape() {
        let dense = UtilityMatrix::from_rows(vec![vec![0.1, 0.2]]).unwrap();
        let json = serde_json::to_string(&dense).unwrap();
        assert!(json.contains("\"values\""), "dense JSON shape changed: {json}");
        let back: UtilityMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dense);

        let sparse = UtilityMatrix::from_sparse_rows(4, &[vec![(1, 0.5), (3, 0.25)]]).unwrap();
        let json = serde_json::to_string(&sparse).unwrap();
        let back: UtilityMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sparse);
        assert!(back.is_sparse());
    }
}
