//! The event-major pair store of the post-GAP stages.
//!
//! Algorithm 1's offers, budget repair's rehoming and the step-2
//! filler's merge all read one order per event: its candidate users by
//! μ descending, then the lower user. Each reads only the top of it:
//! ~1 400 offers and ~16 000 filler pops read ~17 600 of the ~1.9 M
//! pairs of a 24 000-user GAP solve (no event deeper than rank 190),
//! which builds one store and hands it to all three stages.
//!
//! # Heads and overflow
//!
//! [`EventOrders::from_candidates`] counts each event's candidates,
//! then streams the candidate rows once. An event with at most
//! `2·HEAD_LEN` candidates keeps its whole list. A longer one gets a
//! slot of `2·HEAD_LEN` pairs: once the slot is full it is cut to its
//! best `HEAD_LEN` pairs, whose worst sets the event's floor, and a
//! later pair enters only if its μ beats the floor. Users arrive in
//! ascending order, so a later pair tied with the floor ranks below it.
//! What is left is the event's exact top `HEAD_LEN` (its head), sorted
//! once.
//!
//! A read past a head materializes the rest of every truncated list
//! from the candidate cache in one more pass (counted in
//! `orders.materialized`): each gets its head followed by the pairs
//! ranked below the head's last, and lazy sorting goes on from rank
//! `HEAD_LEN`.

use crate::model::{EventId, Instance, UserId};

/// Pairs sorted per step when a read first goes past the sorted part
/// of an event's list; later steps double.
const ORDER_CHUNK: usize = 32;

/// The pairs an event's list keeps of a candidate build when it has
/// more than twice as many: past every depth the GAP pipeline's readers
/// reached on the benchmark's batch shapes (190 at most).
pub(crate) const HEAD_LEN: usize = 256;

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
pub(crate) struct EventOrders<'a> {
    /// Event `e`'s list is `pairs[offsets[e]..offsets[e + 1]]`.
    offsets: Vec<u32>,
    pairs: Vec<Pair>,
    /// Per event, the length of the list's sorted prefix.
    sorted: Vec<u32>,
    /// Where the rest of the truncated lists comes from, until a read
    /// past a head materializes it.
    overflow: Option<Overflow<'a>>,
}

/// The source of the lists a candidate build cut to their heads.
struct Overflow<'a> {
    instance: &'a Instance,
    /// Per event, the full list length if only its head is stored,
    /// else 0.
    full_len: Vec<u32>,
}

impl<'a> EventOrders<'a> {
    /// The candidate pairs of the events marked in `needed`: a count
    /// pass and one streaming pass over the candidate arrays (see the
    /// module docs). Leaving non-candidates out is lossless:
    /// `can_attend_with` rejects them in every plan state.
    pub(crate) fn from_candidates(instance: &'a Instance, needed: &[bool]) -> EventOrders<'a> {
        let cands = instance.candidates();
        let (events, utils, rows) = (cands.event_ids(), cands.utilities(), cands.row_offsets());
        let mut counts = vec![0u32; needed.len()];
        for row in rows.windows(2) {
            for &e in &events[row[0] as usize..row[1] as usize] {
                counts[e as usize] += u32::from(needed[e as usize]);
            }
        }
        let slot = 2 * HEAD_LEN as u32;
        let mut offsets: Vec<u32> = std::iter::once(0)
            .chain(counts.iter().map(|&n| n.min(slot)))
            .collect();
        running_sum(&mut offsets);
        let mut next = offsets[..needed.len()].to_vec();
        // A pair enters its event's slot only if its μ beats the floor;
        // a floor of +∞ keeps out every pair of an event not needed.
        let mut floor: Vec<f64> = needed
            .iter()
            .map(|&n| if n { f64::NEG_INFINITY } else { f64::INFINITY })
            .collect();
        let mut pairs: Vec<Pair> = vec![(0, 0, 0.0); offsets[needed.len()] as usize];
        for (u, row) in rows.windows(2).enumerate() {
            for k in row[0] as usize..row[1] as usize {
                let (e, mu) = (events[k] as usize, utils[k]);
                if mu.total_cmp(&floor[e]).is_le() {
                    continue;
                }
                // Only a list longer than its slot ever finds it full.
                if next[e] == offsets[e + 1] {
                    let kept = &mut pairs[offsets[e] as usize..next[e] as usize];
                    kept.select_nth_unstable_by(HEAD_LEN - 1, by_rank);
                    floor[e] = kept[HEAD_LEN - 1].2;
                    next[e] = offsets[e] + HEAD_LEN as u32;
                    if mu.total_cmp(&floor[e]).is_le() {
                        continue;
                    }
                }
                pairs[next[e] as usize] = (u as u32, e as u32, mu);
                next[e] += 1;
            }
        }
        // Cut each long list to its sorted head and close the gaps.
        let mut sorted = vec![0u32; needed.len()];
        let mut full_len = vec![0u32; needed.len()];
        let mut end = 0;
        for e in 0..needed.len() {
            let lo = offsets[e] as usize;
            let mut len = counts[e] as usize;
            if counts[e] > slot {
                let head = &mut pairs[lo..next[e] as usize];
                head.select_nth_unstable_by(HEAD_LEN - 1, by_rank);
                head[..HEAD_LEN].sort_unstable_by(by_rank);
                (len, sorted[e], full_len[e]) = (HEAD_LEN, HEAD_LEN as u32, counts[e]);
            }
            pairs.copy_within(lo..lo + len, end);
            offsets[e] = end as u32;
            end += len;
        }
        offsets[needed.len()] = end as u32;
        pairs.truncate(end);
        // Registers the counter, so a solve that reads no list past its
        // head reports 0.
        epplan_obs::counter_add("orders.materialized", 0);
        let overflow = full_len
            .iter()
            .any(|&n| n > 0)
            .then_some(Overflow { instance, full_len });
        EventOrders {
            offsets,
            pairs,
            sorted,
            overflow,
        }
    }

    /// The store of a gathered pair stream over `n_events` events.
    pub(crate) fn from_pairs(n_events: usize, mut pairs: Vec<Pair>) -> EventOrders<'static> {
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
            overflow: None,
        }
    }

    /// The number of event lists, one per event, empty ones included.
    pub(crate) fn n_lists(&self) -> usize {
        self.sorted.len()
    }

    /// The `k`-th `(user, μ)` pair of `e`'s list in preference order,
    /// `None` past its end.
    pub(crate) fn get(&mut self, e: EventId, k: usize) -> Option<(UserId, f64)> {
        let (lo, hi) = (
            self.offsets[e.index()] as usize,
            self.offsets[e.index() + 1] as usize,
        );
        if k >= hi - lo {
            let truncated = self
                .overflow
                .as_ref()
                .is_some_and(|o| o.full_len[e.index()] > 0);
            if !truncated {
                return None;
            }
            self.materialize();
            return self.get(e, k);
        }
        let list = &mut self.pairs[lo..hi];
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

    /// Gives every truncated list its full length: its sorted head,
    /// then the pairs ranked below the head's last, in one pass over the
    /// candidate arrays.
    fn materialize(&mut self) {
        let Some(o) = &self.overflow else {
            return;
        };
        let n = self.n_lists();
        let mut offsets = vec![0u32; n + 1];
        for e in 0..n {
            offsets[e + 1] = o.full_len[e].max(self.offsets[e + 1] - self.offsets[e]);
        }
        running_sum(&mut offsets);
        let mut pairs: Vec<Pair> = vec![(0, 0, 0.0); offsets[n] as usize];
        // Per truncated event, the last pair of its head.
        let mut cut: Vec<Option<Pair>> = vec![None; n];
        let mut next = offsets[..n].to_vec();
        for e in 0..n {
            let list = &self.pairs[self.offsets[e] as usize..self.offsets[e + 1] as usize];
            pairs[next[e] as usize..][..list.len()].copy_from_slice(list);
            next[e] += list.len() as u32;
            if o.full_len[e] > 0 {
                cut[e] = list.last().copied();
            }
        }
        let cands = o.instance.candidates();
        let (events, utils, rows) = (cands.event_ids(), cands.utilities(), cands.row_offsets());
        for (u, row) in rows.windows(2).enumerate() {
            for k in row[0] as usize..row[1] as usize {
                let e = events[k] as usize;
                let Some(last) = cut[e] else { continue };
                let p = (u as u32, e as u32, utils[k]);
                if by_rank(&p, &last).is_gt() {
                    pairs[next[e] as usize] = p;
                    next[e] += 1;
                }
            }
        }
        debug_assert_eq!(next, offsets[1..]);
        epplan_obs::counter_add("orders.materialized", 1);
        (self.offsets, self.pairs, self.overflow) = (offsets, pairs, None);
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
    use rand::{Rng, SeedableRng};

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

    /// `n_users` users and up to five events; event 0 is a candidate of
    /// every user. Few distinct utilities, so most ranks, and the head
    /// boundaries, fall inside ties decided by the user id.
    fn instance(rng: &mut rand::rngs::StdRng, n_users: usize) -> Instance {
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
        let rows = (0..n_users)
            .map(|_| {
                (0..n_events)
                    .map(|e| [0.0, 0.3, 0.6, 0.9][rng.gen_range(usize::from(e == 0)..4)])
                    .collect()
            })
            .collect();
        Instance::new(users, events, UtilityMatrix::from_rows(rows).unwrap()).unwrap()
    }

    fn user_at(orders: &mut EventOrders<'_>, e: usize, k: usize) -> Option<UserId> {
        orders.get(EventId(e as u32), k).map(|(u, _)| u)
    }

    #[test]
    fn lazy_orders_match_the_eager_sort() {
        // Event 0's list holds every user: lengths at and just past the
        // sort-step boundaries (32, 64, 128, 256), at and around the
        // longest list kept whole (2·HEAD_LEN), then far past it.
        let h = HEAD_LEN;
        let lengths = [1, 32, 33, 64, 65, 100, 128, 129, 256, 257, 399];
        let lengths = lengths
            .into_iter()
            .chain([2 * h - 1, 2 * h, 2 * h + 1, 4 * h + 37]);
        for (seed, n_users) in lengths.enumerate() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
            let instance = instance(&mut rng, n_users);
            let n_events = instance.n_events();
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
            let truncated = eager.iter().any(|order| order.len() > 2 * h);
            let stores = [
                EventOrders::from_candidates(&instance, &needed),
                EventOrders::from_pairs(n_events, stream),
            ];
            for (built, mut lazy) in stores.into_iter().enumerate() {
                assert_eq!(lazy.overflow.is_some(), built == 0 && truncated);
                // Every head read through leaves the rest unread.
                for (e, order) in eager.iter().enumerate() {
                    for (k, &u) in order.iter().enumerate().take(h) {
                        assert_eq!(user_at(&mut lazy, e, k), Some(u), "event {e} rank {k}");
                    }
                }
                assert_eq!(lazy.overflow.is_some(), built == 0 && truncated);
                // Interleave partial reads of random events before
                // reading every list through its end.
                for _ in 0..20 {
                    let e = rng.gen_range(0..n_events);
                    let order = &eager[e];
                    for k in 0..rng.gen_range(0..=order.len() + 1) {
                        assert_eq!(user_at(&mut lazy, e, k), order.get(k).copied());
                    }
                }
                for (e, order) in eager.iter().enumerate() {
                    for k in 0..=order.len() {
                        assert_eq!(
                            user_at(&mut lazy, e, k),
                            order.get(k).copied(),
                            "{n_users} users, event {e}, rank {k}"
                        );
                    }
                }
                assert!(lazy.overflow.is_none());
            }
        }
    }

    #[test]
    fn one_read_past_a_head_materializes_every_truncated_list() {
        let n_users = 4 * HEAD_LEN + 37;
        for seed in 0..4 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(20 + seed);
            let instance = instance(&mut rng, n_users);
            let needed = vec![true; instance.n_events()];
            let eager = eager_orders(&instance, &needed);
            let mut lazy = EventOrders::from_candidates(&instance, &needed);
            let last = instance.n_events() - 1;
            assert_eq!(user_at(&mut lazy, last, HEAD_LEN), eager[last].get(HEAD_LEN).copied());
            assert!(lazy.overflow.is_none());
            for (e, order) in eager.iter().enumerate() {
                let len = lazy.offsets[e + 1] - lazy.offsets[e];
                assert_eq!(len as usize, order.len(), "seed {seed}, event {e}");
                // The heads stay sorted and read as before.
                for (k, &u) in order.iter().enumerate().take(HEAD_LEN) {
                    assert_eq!(user_at(&mut lazy, e, k), Some(u), "event {e} rank {k}");
                }
            }
        }
    }

    #[test]
    fn a_read_past_an_uncut_list_never_materializes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        let instance = instance(&mut rng, 4 * HEAD_LEN + 37);
        // Only event 0, every user's candidate, is cut to its head.
        let needed: Vec<bool> = (0..instance.n_events()).map(|e| e == 0).collect();
        let mut lazy = EventOrders::from_candidates(&instance, &needed);
        assert!(lazy.overflow.is_some());
        for e in 1..instance.n_events() {
            assert_eq!(user_at(&mut lazy, e, 0), None, "event {e}");
        }
        for k in 0..HEAD_LEN {
            assert!(user_at(&mut lazy, 0, k).is_some());
        }
        assert!(lazy.overflow.is_some());
    }
}
