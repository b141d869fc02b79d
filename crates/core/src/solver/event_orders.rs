//! The event-major pair store of the post-GAP stages.
//!
//! Algorithm 1's offers, budget repair's rehoming and the step-2
//! filler's merge all read one order per event: its candidate users by
//! μ descending, then the lower user. [`EventOrders`] sorts each list
//! only as far as its readers get: ~1 400 offers and ~16 000 filler
//! pops read the ~1.9 M pairs of a 24 000-user GAP solve, which builds
//! one store and hands it to all three stages.

use crate::model::{EventId, Instance, UserId};
use crate::solver::filler::POLL_STRIDE;
use epplan_solve::{DeadlineExceeded, DeadlineFlag};

/// Pairs sorted per step when a read first goes past the sorted part
/// of an event's list; later steps double.
const ORDER_CHUNK: usize = 32;

/// One `(user, event, μ)` pair. The event id fills what would be
/// padding; a plain tuple, so a zeroed arena comes from zeroed pages.
pub(crate) type Pair = (u32, u32, f64);

/// The pair of `user` and `event` with utility `mu`.
pub(crate) fn pair(user: UserId, event: EventId, mu: f64) -> Pair {
    (user.0, event.0, mu)
}

/// The receiver order: μ descending, then user ascending.
fn by_rank(a: &Pair, b: &Pair) -> std::cmp::Ordering {
    b.2.total_cmp(&a.2).then(a.0.cmp(&b.0))
}

/// Per-event `(user, μ)` lists in preference order, sorted lazily: a
/// read past the sorted part of a list sorts its next chunk in place,
/// with `select_nth_unstable_by` and then a sort on the same key. The
/// key is a total order on distinct users (a repeated pair's copies are
/// equal), so every sorted prefix is that of the fully sorted list.
pub(crate) struct EventOrders {
    /// Event `e`'s list is `pairs[offsets[e]..offsets[e + 1]]`.
    offsets: Vec<u32>,
    pairs: Vec<Pair>,
    /// Per event, the length of the list's sorted prefix.
    sorted: Vec<u32>,
}

impl EventOrders {
    /// The candidate pairs of the events marked in `needed`, in two
    /// passes over the candidate arrays. Leaving non-candidates out is
    /// lossless: `can_attend_with` rejects them in every plan state.
    pub(crate) fn from_candidates(instance: &Instance, needed: &[bool]) -> EventOrders {
        Self::try_from_candidates(instance, needed, &DeadlineFlag::unlimited())
            .unwrap_or_else(|DeadlineExceeded| unreachable!("an unlimited deadline never trips"))
    }

    /// [`EventOrders::from_candidates`], polling `deadline` every
    /// [`POLL_STRIDE`] users in each pass.
    pub(crate) fn try_from_candidates(
        instance: &Instance,
        needed: &[bool],
        deadline: &DeadlineFlag,
    ) -> Result<EventOrders, DeadlineExceeded> {
        let cands = instance.candidates();
        let (events, utils, rows) = (cands.event_ids(), cands.utilities(), cands.row_offsets());
        let mut offsets = vec![0u32; needed.len() + 1];
        for (u, row) in rows.windows(2).enumerate() {
            if u.is_multiple_of(POLL_STRIDE) {
                deadline.poll()?;
            }
            for &e in &events[row[0] as usize..row[1] as usize] {
                offsets[e as usize + 1] += u32::from(needed[e as usize]);
            }
        }
        running_sum(&mut offsets);
        let total = offsets[needed.len()];
        // Branch-free scatter: pairs of events not needed all land in
        // one spare slot past the end, which is cut off afterwards.
        let mut next: Vec<u32> = (0..needed.len())
            .map(|e| if needed[e] { offsets[e] } else { total })
            .collect();
        let mut pairs: Vec<Pair> = vec![(0, 0, 0.0); total as usize + 1];
        for (u, row) in rows.windows(2).enumerate() {
            if u.is_multiple_of(POLL_STRIDE) {
                deadline.poll()?;
            }
            for k in row[0] as usize..row[1] as usize {
                let e = events[k] as usize;
                pairs[next[e] as usize] = (u as u32, e as u32, utils[k]);
                next[e] += u32::from(needed[e]);
            }
        }
        pairs.truncate(total as usize);
        Ok(EventOrders {
            offsets,
            pairs,
            sorted: vec![0; needed.len()],
        })
    }

    /// The store of a gathered pair stream over `n_events` events.
    pub(crate) fn from_pairs(n_events: usize, mut pairs: Vec<Pair>) -> EventOrders {
        pairs.sort_unstable_by_key(|p| p.1);
        let mut offsets = vec![0u32; n_events + 1];
        for p in &pairs {
            offsets[p.1 as usize + 1] += 1;
        }
        running_sum(&mut offsets);
        EventOrders {
            offsets,
            pairs,
            sorted: vec![0; n_events],
        }
    }

    /// The number of event lists, one per event, empty ones included.
    pub(crate) fn n_lists(&self) -> usize {
        self.sorted.len()
    }

    /// The `k`-th `(user, μ)` pair of `e`'s list in preference order,
    /// `None` past its end.
    pub(crate) fn get(&mut self, e: EventId, k: usize) -> Option<(UserId, f64)> {
        let lo = self.offsets[e.index()] as usize;
        let list = &mut self.pairs[lo..self.offsets[e.index() + 1] as usize];
        if k >= list.len() {
            return None;
        }
        let sorted = &mut self.sorted[e.index()];
        while k >= *sorted as usize {
            let rest = &mut list[*sorted as usize..];
            let step = (*sorted as usize).max(ORDER_CHUNK).min(rest.len());
            if step < rest.len() {
                rest.select_nth_unstable_by(step, by_rank);
            }
            rest[..step].sort_unstable_by(by_rank);
            *sorted += step as u32;
        }
        Some((UserId(list[k].0), list[k].2))
    }
}

/// Turns counts stored at `offsets[e + 1]` into list offsets.
fn running_sum(offsets: &mut [u32]) {
    let mut total = 0;
    for o in offsets {
        total += *o;
        *o = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Event, TimeInterval, User, UtilityMatrix};
    use epplan_geo::Point;

    /// The eager receiver orders: every needed event's candidate users,
    /// fully sorted by μ descending, then user ascending.
    fn eager_orders(instance: &Instance, needed: &[bool]) -> Vec<Vec<UserId>> {
        let cands = instance.candidates();
        let mut lists: Vec<Vec<(u32, f64)>> = vec![Vec::new(); needed.len()];
        for u in instance.user_ids() {
            let (events, utils) = cands.row(u);
            for (&e, &mu) in events.iter().zip(utils) {
                if needed[e as usize] {
                    lists[e as usize].push((u.0, mu));
                }
            }
        }
        lists
            .into_iter()
            .map(|mut list| {
                list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                list.into_iter().map(|(u, _)| UserId(u)).collect()
            })
            .collect()
    }

    #[test]
    fn lazy_orders_match_the_eager_sort() {
        use rand::{Rng, SeedableRng};
        // Event 0's list holds every user: lengths at and just past the
        // sort-step boundaries (32, 64, 128, 256), then others.
        let lengths = [1, 32, 33, 64, 65, 100, 128, 129, 256, 257, 399];
        for (seed, n_users) in lengths.into_iter().enumerate() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
            let n_events: u32 = rng.gen_range(1..6);
            let users = (0..n_users)
                .map(|_| {
                    let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                    User::new(at, 1000.0)
                })
                .collect();
            let events = (0..n_events)
                .map(|k| {
                    let at = Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
                    Event::new(at, 1, 3, TimeInterval::new(60 * k, 60 * k + 30))
                })
                .collect();
            // Few distinct utilities, so most ranks are decided by the
            // user-id tie-break.
            let rows = (0..n_users)
                .map(|_| {
                    (0..n_events)
                        .map(|e| [0.0, 0.3, 0.6, 0.9][rng.gen_range(usize::from(e == 0)..4)])
                        .collect()
                })
                .collect();
            let instance =
                Instance::new(users, events, UtilityMatrix::from_rows(rows).unwrap()).unwrap();
            let needed: Vec<bool> = (0..n_events).map(|e| e == 0 || rng.gen_bool(0.8)).collect();
            let eager = eager_orders(&instance, &needed);
            assert_eq!(eager[0].len(), n_users);
            // The same pairs as a gathered stream, user-major.
            let mut stream = Vec::new();
            for u in instance.user_ids() {
                let (events, utils) = instance.candidates().row(u);
                for (&e, &mu) in events.iter().zip(utils) {
                    if needed[e as usize] {
                        stream.push(pair(u, EventId(e), mu));
                    }
                }
            }
            let stores = [
                EventOrders::from_candidates(&instance, &needed),
                EventOrders::from_pairs(n_events as usize, stream),
            ];
            for mut lazy in stores {
                let mut user_at = |e: u32, k: usize| lazy.get(EventId(e), k).map(|(u, _)| u);
                // Interleave partial reads of random events before
                // reading every list through its end.
                for _ in 0..20 {
                    let e = rng.gen_range(0..n_events);
                    let order = &eager[e as usize];
                    for k in 0..rng.gen_range(0..=order.len() + 1) {
                        assert_eq!(user_at(e, k), order.get(k).copied());
                    }
                }
                for (e, order) in eager.iter().enumerate() {
                    for k in 0..=order.len() {
                        assert_eq!(
                            user_at(e as u32, k),
                            order.get(k).copied(),
                            "{n_users} users, event {e}, rank {k}"
                        );
                    }
                }
            }
        }
    }
}
