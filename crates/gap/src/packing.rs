//! Approximate fractional GAP solver via multiplicative weights.
//!
//! The paper solves the GAP relaxation "using linear programming with
//! the relaxation method of \[5\]" (Plotkin–Shmoys–Tardos, *Fast
//! approximation algorithms for fractional packing and covering
//! problems*). This module implements the practical core of that
//! method: a Lagrangian/multiplicative-weights scheme in which
//!
//! 1. every machine capacity (a packing constraint) carries a weight
//!    `λ_i`;
//! 2. each round, an *oracle* assigns every job to the machine
//!    minimizing the penalized cost `c_{i,j} + (λ_i / T_i) · p_{i,j}`
//!    (a trivially separable subproblem — the whole point of PST);
//! 3. weights are updated multiplicatively in the direction of the
//!    observed overload, `λ_i ← λ_i · exp(η · (load_i/T_i − 1))`;
//! 4. the **average** of the per-round integral assignments is returned
//!    as the fractional solution.
//!
//! Because every round assigns each assignable job fully to exactly one
//! machine, the average has job mass exactly 1 — the structural
//! property the Shmoys–Tardos rounding needs. Per-machine fractional
//! loads converge to ≤ (1 + O(ε))·T_i when the instance is fractionally
//! feasible; small residual overload is tolerated by the rounding step,
//! whose load guarantee is additive anyway (≤ T_i + max_j p_{i,j}).
//!
//! # The cost-ordered oracle
//!
//! There is one candidate row per job *group*: the ξ copies of an
//! event share identical columns, so one argmin serves them all. Every
//! stored pair is allowed (construction drops capacity-gated ones).
//!
//! Every penalty is at least its cost: `λ_i / T_i ≥ 0`, and
//! [`GapInstance`] refuses negative times, so `(λ_i / T_i) · p_{i,j}`
//! is never negative. The oracle therefore scans each row in ascending
//! `(cost, position)` order and stops at the first entry whose cost
//! exceeds the best penalty so far: no later entry can beat or tie it.
//! The answer is exactly the leftmost strict minimum of a full scan,
//! ties going to the smaller row position. A round costs
//! O(rows × scan depth), not O(candidates); on the benchmark instances
//! the depth is a few dozen entries out of thousands.
//!
//! The arena keeps only a short cost-sorted prefix per row (built once
//! with `select_nth_unstable_by` in O(row length)) and the smallest
//! cost left outside it. A scan that uses up the prefix while that
//! cost is not above the best penalty falls back to the full row scan,
//! a blocked, branchless 4-lane scan whose lanes merge by
//! `(penalty, index)`. The `packing.oracle_scanned` and
//! `packing.oracle_fallbacks` counters report the entries evaluated
//! and the fallbacks taken.
//!
//! The oracle runs serially: a row costs a few dozen penalty
//! evaluations, less than handing it to a worker, so the whole scheme
//! is bit-identical at any thread count. λ updates and width scans
//! touch only machines that appear in some candidate row; a machine
//! that no row chose this round has load 0, so its step is the
//! precomputed `exp(−η)`.
//!
//! Unlike the textbook PST presentation we do not binary-search a cost
//! budget: the cost term is kept in the oracle objective directly. This
//! keeps the solver a *practical* (1+ε)-style heuristic rather than a
//! certified approximation; the exact-LP path exists for instances
//! small enough to verify (see `GapConfig::method`).

use crate::{FractionalSolution, GapInstance};
use epplan_solve::{BudgetGuard, SolveBudget, SolveError};

/// Entries per row that the oracle keeps in cost order. A row whose
/// answer may lie past them falls back to the full scan, so this length
/// affects speed only, never the result.
const PREFIX_LEN: usize = 256;

/// Penalty evaluations between two wall-clock checks inside a round,
/// so the time limit trips mid-round even when rows fall back to full
/// scans.
const DEADLINE_POLL_ENTRIES: u64 = 4096;

/// Tuning knobs for the multiplicative-weights solver.
#[derive(Debug, Clone)]
pub struct PackingConfig {
    /// Total oracle rounds. The fractional solution averages the final
    /// `iterations − burn_in` rounds.
    pub iterations: usize,
    /// Multiplicative step size η.
    pub eta: f64,
    /// Rounds discarded before averaging begins.
    pub burn_in: usize,
    /// Early-exit: stop once the trailing average's worst relative
    /// overload drops below `1 + slack`.
    pub slack: f64,
    /// Work allowance, spent one MW round per iteration. Unlimited by
    /// default; [`crate::GapConfig`] tightens it per solve call.
    pub budget: SolveBudget,
}

impl Default for PackingConfig {
    fn default() -> Self {
        PackingConfig {
            iterations: 150,
            eta: 0.5,
            burn_in: 20,
            slack: 0.02,
            budget: SolveBudget::UNLIMITED,
        }
    }
}

/// One row's oracle result in a round.
struct RowPick {
    /// The argmin's `(machine, time)`; `None` when the row has no
    /// finite penalty (or no entries).
    choice: Option<(u32, f64)>,
    /// Entries whose penalty was evaluated.
    scanned: u32,
    /// Whether the cost-sorted prefix could not settle the row, so it
    /// was scanned in full.
    fallback: bool,
}

/// The oracle's view of the instance's candidate rows: a cost-sorted
/// prefix per row and the machines the rows mention.
struct OracleArena {
    /// Row `r`'s prefix is `prefix[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
    /// Row positions of each row's cheapest entries, in ascending
    /// `(cost, position)` order.
    prefix: Vec<u32>,
    /// Per row, the smallest cost outside its prefix; `None` when the
    /// prefix holds the whole row.
    rest_min: Vec<Option<f64>>,
    /// Machines appearing in at least one row, ascending. λ updates and
    /// width scans touch only these.
    active: Vec<u32>,
}

impl OracleArena {
    /// Keeps the `prefix_len` cheapest entries of every row. Every
    /// field is a pure function of the instance and `prefix_len`, so
    /// the arena is identical at every thread count.
    fn build(inst: &GapInstance, prefix_len: usize) -> OracleArena {
        let n_rows = inst.n_candidate_rows();
        let mut seen = vec![false; inst.n_machines()];
        let mut starts = Vec::with_capacity(n_rows + 1);
        starts.push(0u32);
        let mut prefix = Vec::new();
        let mut rest_min = Vec::with_capacity(n_rows);
        // `(cost, position)` keys of the current row.
        let mut keys: Vec<(f64, u32)> = Vec::new();
        let by_cost = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        for r in 0..n_rows {
            let (machines, costs, _) = inst.row(r);
            for &i in machines {
                seen[i as usize] = true;
            }
            keys.clear();
            keys.extend(costs.iter().copied().zip(0u32..));
            let keep = if keys.len() > prefix_len {
                keys.select_nth_unstable_by(prefix_len, by_cost);
                rest_min.push(Some(keys[prefix_len].0));
                prefix_len
            } else {
                rest_min.push(None);
                keys.len()
            };
            keys[..keep].sort_unstable_by(by_cost);
            prefix.extend(keys[..keep].iter().map(|&(_, k)| k));
            starts.push(prefix.len() as u32);
        }
        let active: Vec<u32> = seen
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i as u32))
            .collect();
        OracleArena {
            starts,
            prefix,
            rest_min,
            active,
        }
    }

    /// Row `r`'s argmin under the penalties `cost + loc[machine] ·
    /// time`: the same entry [`row_argmin`] picks from the full row.
    /// Scans the cost-sorted prefix until an entry's cost exceeds the
    /// best penalty (exact, since no penalty is below its cost), and
    /// falls back to the full scan only when an entry past the prefix
    /// could still win.
    fn pick(&self, inst: &GapInstance, r: usize, loc: &[f64]) -> RowPick {
        let prefix = &self.prefix[self.starts[r] as usize..self.starts[r + 1] as usize];
        let (machines, costs, times) = inst.row(r);
        let mut best_pen = f64::INFINITY;
        let mut best: Option<usize> = None;
        let mut scanned = prefix.len();
        for (n, &k) in prefix.iter().enumerate() {
            let k = k as usize;
            if costs[k] > best_pen {
                scanned = n;
                break;
            }
            let pen = costs[k] + loc[machines[k] as usize] * times[k];
            // A penalty that overflowed to +∞ never wins: `best` stays
            // `None` until some penalty is finite, as in the full scan.
            if pen < best_pen || (pen == best_pen && best.is_some_and(|b| k < b)) {
                best_pen = pen;
                best = Some(k);
            }
        }
        let exhausted = scanned == prefix.len();
        if exhausted && self.rest_min[r].is_some_and(|c| c <= best_pen) {
            let k = row_argmin(machines, costs, times, loc);
            return RowPick {
                choice: k.map(|k| (machines[k], times[k])),
                scanned: (scanned + machines.len()) as u32,
                fallback: true,
            };
        }
        RowPick {
            choice: best.map(|k| (machines[k], times[k])),
            scanned: scanned as u32,
            fallback: false,
        }
    }
}

/// Leftmost strict-minimum candidate of one candidate row under the
/// penalties `cost + loc[machine] · time`, as a 4-lane blocked
/// branchless scan. Lane minima merge lexicographically by
/// `(penalty, index)`, which is exactly the index a serial leftmost
/// strict `<` scan returns. `None` for an empty row.
#[inline]
fn row_argmin(machines: &[u32], costs: &[f64], times: &[f64], loc: &[f64]) -> Option<usize> {
    let len = machines.len();
    let mut best = [f64::INFINITY; 4];
    let mut bidx = [usize::MAX; 4];
    let mut k = 0;
    while k + 4 <= len {
        for l in 0..4 {
            let kk = k + l;
            let pen = costs[kk] + loc[machines[kk] as usize] * times[kk];
            let take = pen < best[l];
            best[l] = if take { pen } else { best[l] };
            bidx[l] = if take { kk } else { bidx[l] };
        }
        k += 4;
    }
    // Tail folds into lane 0: its indices exceed every blocked index,
    // and strict `<` keeps earlier winners on ties.
    while k < len {
        let pen = costs[k] + loc[machines[k] as usize] * times[k];
        if pen < best[0] {
            best[0] = pen;
            bidx[0] = k;
        }
        k += 1;
    }
    let mut bp = f64::INFINITY;
    let mut bi = usize::MAX;
    for l in 0..4 {
        if bidx[l] != usize::MAX && (best[l] < bp || (best[l] == bp && bidx[l] < bi)) {
            bp = best[l];
            bi = bidx[l];
        }
    }
    (bi != usize::MAX).then_some(bi)
}

/// Runs the multiplicative-weights scheme and returns the averaged
/// fractional solution. Jobs with no allowed machine are listed in
/// [`FractionalSolution::unassigned`].
///
/// A poisoned instance is a `BadInput` error. When `cfg.budget` runs
/// out mid-scheme the `BudgetExhausted` error carries the rounds
/// averaged so far as a partial fractional solution, if any round
/// finished past burn-in.
pub fn mw_fractional(
    inst: &GapInstance,
    cfg: &PackingConfig,
) -> Result<FractionalSolution, SolveError<FractionalSolution>> {
    mw_fractional_with_prefix(inst, cfg, PREFIX_LEN)
}

/// [`mw_fractional`] with the oracle keeping `prefix_len` cost-sorted
/// entries per row. The result does not depend on `prefix_len`.
fn mw_fractional_with_prefix(
    inst: &GapInstance,
    cfg: &PackingConfig,
    prefix_len: usize,
) -> Result<FractionalSolution, SolveError<FractionalSolution>> {
    if let Some(defect) = inst.defect() {
        return Err(SolveError::bad_input(
            "gap.packing",
            format!("malformed GAP instance: {defect}"),
        ));
    }
    let m = inst.n_machines();
    let n = inst.n_jobs();
    let mut sp = epplan_obs::span("gap.packing");
    let mut guard = BudgetGuard::new(cfg.budget);
    let mut frac = FractionalSolution::zero(m, n);
    frac.unassigned = inst.unassignable_jobs();
    if m == 0 || n == frac.unassigned.len() {
        return Ok(frac);
    }
    let assignable_jobs = (n - frac.unassigned.len()) as u64;

    let arena = OracleArena::build(inst, prefix_len);
    let n_rows = inst.n_candidate_rows();

    let inv_cap: Vec<f64> = (0..m).map(|i| 1.0 / inst.capacity(i).max(1e-12)).collect();
    let mut lambda = vec![1.0f64; m];
    // λ_i / T_i of the active machines, refreshed with each λ update.
    let mut loc = vec![0.0f64; m];
    for &i in &arena.active {
        loc[i as usize] = inv_cap[i as usize];
    }
    // A machine no row chose has load 0, and its step
    // `exp(η · (0 − 1))` is this constant.
    let idle_step = (-cfg.eta).exp();
    // This round's loads and the machines some job chose; the λ update
    // clears both, so they are 0 and `false` between rounds.
    let mut load = vec![0.0f64; m];
    let mut chosen = vec![false; m];
    // Sum of per-round loads past burn-in; `load_sum · scale` is the
    // trailing average's load, so the convergence check is O(active)
    // instead of a fresh O(machines × jobs) scan.
    let mut load_sum = vec![0.0f64; m];
    let mut averaged_rounds = 0usize;
    let burn_in = cfg.burn_in.min(cfg.iterations.saturating_sub(1));
    // Each round's per-row choices, overwritten in place every round.
    let mut choice_row: Vec<Option<(u32, f64)>> = vec![None; n_rows];
    let (mut scanned, mut fallbacks) = (0u64, 0u64);
    if epplan_obs::metrics_enabled() {
        let stored = inst.row_offsets()[n_rows];
        epplan_obs::gauge_set("packing.arena.candidates", f64::from(stored));
    }

    for round in 0..cfg.iterations {
        let mut trip = guard.tick("gap.packing").err();
        if trip.is_none() {
            // Deterministic fault injection at the round head; a fired
            // fault is handled exactly like a budget trip, so the
            // trailing average still travels as the partial.
            if let Some(action) = epplan_fault::point("gap.packing.oracle") {
                trip = Some(SolveError::from_fault(
                    "gap.packing",
                    "gap.packing.oracle",
                    action,
                ));
            }
        }
        if trip.is_none() {
            // Oracle step. The deadline is checked every few thousand
            // penalty evaluations; a round it interrupts is discarded
            // like a round the tick never admitted.
            let mut since_poll = 0u64;
            for (r, slot) in choice_row.iter_mut().enumerate() {
                let pick = arena.pick(inst, r, &loc);
                *slot = pick.choice;
                scanned += u64::from(pick.scanned);
                fallbacks += u64::from(pick.fallback);
                since_poll += u64::from(pick.scanned);
                if since_poll >= DEADLINE_POLL_ENTRIES {
                    since_poll = 0;
                    trip = guard.check_deadline("gap.packing").err();
                    if trip.is_some() {
                        break;
                    }
                }
            }
        }
        if let Some(e) = trip {
            // The round that tripped never completed.
            let epochs = guard.iterations().saturating_sub(1);
            sp.add_iters(epochs);
            record_oracle_counters(epochs, epochs * assignable_jobs, scanned, fallbacks);
            let mut out = e.discard_partial();
            // Return whatever trailing average exists as a partial.
            if averaged_rounds > 0 {
                frac.scale(1.0 / averaged_rounds as f64);
                out = out.with_partial(frac);
            }
            return Err(out);
        }
        // Load accumulation runs in job order: O(n) against the
        // oracle's O(rows × depth).
        for j in 0..n {
            if let Some((i, t)) = choice_row[inst.candidate_row_of(j)] {
                load[i as usize] += t;
                chosen[i as usize] = true;
            }
        }
        let averaging = round >= burn_in;
        // Weight update toward observed overload, active machines only
        // (the λ of a machine in no candidate row is never read). An
        // idle machine's load is 0, so adding it to `load_sum` and
        // clearing it would change no bit: only chosen machines do.
        for &i in &arena.active {
            let i = i as usize;
            let step = if std::mem::take(&mut chosen[i]) {
                let ratio = load[i] * inv_cap[i];
                if averaging {
                    load_sum[i] += load[i];
                }
                load[i] = 0.0;
                (cfg.eta * (ratio - 1.0)).exp()
            } else {
                idle_step
            };
            lambda[i] = (lambda[i] * step).clamp(1e-6, 1e9);
            loc[i] = lambda[i] * inv_cap[i];
        }
        if averaging {
            for j in 0..n {
                if let Some((i, _)) = choice_row[inst.candidate_row_of(j)] {
                    frac.add(i as usize, j, 1.0);
                }
            }
            averaged_rounds += 1;
            // Early exit on a converged trailing average: worst
            // load/capacity ratio of the averaged rounds.
            if averaged_rounds >= 10 && averaged_rounds.is_multiple_of(10) {
                let scale = 1.0 / averaged_rounds as f64;
                let worst = arena
                    .active
                    .iter()
                    .map(|&i| load_sum[i as usize] * scale * inv_cap[i as usize])
                    .fold(0.0f64, f64::max);
                if worst <= 1.0 + cfg.slack {
                    break;
                }
            }
        }
    }
    if averaged_rounds > 0 {
        frac.scale(1.0 / averaged_rounds as f64);
    }
    let epochs = guard.iterations();
    sp.add_iters(epochs);
    record_oracle_counters(epochs, epochs * assignable_jobs, scanned, fallbacks);
    if epplan_obs::metrics_enabled() && averaged_rounds > 0 {
        // Width of the fractional solution: worst load/capacity ratio.
        let scale = 1.0 / averaged_rounds as f64;
        let worst = arena
            .active
            .iter()
            .map(|&i| load_sum[i as usize] * scale * inv_cap[i as usize])
            .fold(0.0f64, f64::max);
        epplan_obs::gauge_set("packing.width", worst);
    }
    Ok(frac)
}

/// Publishes the completed rounds' oracle counters.
fn record_oracle_counters(epochs: u64, calls: u64, scanned: u64, fallbacks: u64) {
    epplan_obs::counter_add("packing.epochs", epochs);
    epplan_obs::counter_add("packing.oracle_calls", calls);
    epplan_obs::counter_add("packing.oracle_scanned", scanned);
    epplan_obs::counter_add("packing.oracle_fallbacks", fallbacks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_lp_on_uncapacitated_instance() {
        // With slack capacity the optimum is "cheapest machine per job";
        // MW must find it exactly.
        let g = GapInstance::from_matrices(
            vec![vec![0.1, 0.9, 0.5], vec![0.8, 0.2, 0.6]],
            vec![vec![1.0, 1.0, 1.0], vec![1.0, 1.0, 1.0]],
            vec![10.0, 10.0],
        );
        let x = mw_fractional(&g, &PackingConfig::default()).unwrap();
        assert!(x.check(&g, 1e-7).is_ok());
        assert!((x.cost(&g) - (0.1 + 0.2 + 0.5)).abs() < 1e-6);
    }

    #[test]
    fn spreads_load_under_tight_capacity() {
        // Two identical machines, four unit jobs, capacity 2 each.
        // Any all-on-one-machine solution overloads by 2×.
        let g = GapInstance::from_matrices(
            vec![vec![0.0; 4], vec![0.0; 4]],
            vec![vec![1.0; 4], vec![1.0; 4]],
            vec![2.0, 2.0],
        );
        let cfg = PackingConfig {
            iterations: 400,
            ..Default::default()
        };
        let x = mw_fractional(&g, &cfg).unwrap();
        assert!(x.check(&g, 1e-7).is_ok());
        let loads = x.loads(&g);
        for l in loads {
            assert!(l <= 2.0 * 1.25, "load {l} far above capacity");
        }
    }

    #[test]
    fn near_lp_cost_under_capacity_pressure() {
        // Machine 0 cheap but tiny; LP optimum must push mass to m1.
        let g = GapInstance::from_matrices(
            vec![vec![0.0, 0.0], vec![1.0, 1.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![1.0, 10.0],
        );
        let lp = crate::lp_relaxation(&g).unwrap();
        let cfg = PackingConfig {
            iterations: 600,
            eta: 0.3,
            ..Default::default()
        };
        let mw = mw_fractional(&g, &cfg).unwrap();
        assert!(mw.check(&g, 1e-7).is_ok());
        // LP cost is 1.0; MW should be within a modest factor and the
        // machine-0 load within a (1+ε) overshoot.
        assert!(mw.cost(&g) <= lp.cost(&g) + 0.5, "mw={}", mw.cost(&g));
        assert!(mw.loads(&g)[0] <= 1.4);
    }

    #[test]
    fn unassignable_jobs_reported() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, f64::INFINITY]],
            vec![vec![1.0, 1.0]],
            vec![5.0],
        );
        let x = mw_fractional(&g, &PackingConfig::default()).unwrap();
        assert_eq!(x.unassigned, vec![1]);
        assert!((x.job_mass(0) - 1.0).abs() < 1e-9);
        assert_eq!(x.job_mass(1), 0.0);
    }

    #[test]
    fn empty_instance() {
        let g = GapInstance::from_matrices(vec![], vec![], vec![]);
        let x = mw_fractional(&g, &PackingConfig::default()).unwrap();
        assert_eq!(x.n_jobs(), 0);
    }

    #[test]
    fn job_mass_is_exactly_one() {
        let g = GapInstance::from_matrices(
            vec![vec![0.3, 0.7, 0.2], vec![0.6, 0.1, 0.9], vec![0.5, 0.5, 0.5]],
            vec![vec![1.0; 3], vec![1.0; 3], vec![1.0; 3]],
            vec![1.0, 1.0, 1.0],
        );
        let x = mw_fractional(&g, &PackingConfig::default()).unwrap();
        for j in 0..3 {
            assert!((x.job_mass(j) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn shared_and_per_job_rows_agree_bitwise() {
        // Two copies of one event (identical columns) plus one other
        // job, built with one row per job and with the copies sharing a
        // row: the MW scheme must produce the exact same fractional
        // solution.
        let dense = GapInstance::from_matrices(
            vec![vec![0.2, 0.2, 0.7], vec![0.5, 0.5, 0.1]],
            vec![vec![1.0, 1.0, 2.0], vec![1.5, 1.5, 1.0]],
            vec![2.0, 3.0],
        );
        let sparse = GapInstance::from_csr(
            2,
            vec![2.0, 3.0],
            vec![0, 0, 1],
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![0.2, 0.5, 0.7, 0.1],
            vec![1.0, 1.5, 2.0, 1.0],
        );
        let cfg = PackingConfig {
            iterations: 60,
            ..Default::default()
        };
        let xd = mw_fractional(&dense, &cfg).unwrap();
        let xs = mw_fractional(&sparse, &cfg).unwrap();
        for j in 0..3 {
            assert_eq!(xd.support(j), xs.support(j), "job {j}");
        }
    }

    /// One instance holding the given rows (strictly ascending machine
    /// ids), capacity loose enough that no entry is dropped.
    fn rows_instance(rows: &[(Vec<u32>, Vec<f64>, Vec<f64>)]) -> GapInstance {
        let n_machines = rows
            .iter()
            .flat_map(|(ms, _, _)| ms.iter())
            .map(|&i| i as usize + 1)
            .max()
            .unwrap_or(0);
        let mut offsets = vec![0u32];
        let (mut machines, mut costs, mut times) = (Vec::new(), Vec::new(), Vec::new());
        for (ms, cs, ts) in rows {
            machines.extend_from_slice(ms);
            costs.extend_from_slice(cs);
            times.extend_from_slice(ts);
            offsets.push(machines.len() as u32);
        }
        let job_group = (0..rows.len() as u32).collect();
        let g = GapInstance::from_csr(
            n_machines,
            vec![1e9; n_machines],
            job_group,
            offsets,
            machines,
            costs,
            times,
        );
        assert!(g.defect().is_none());
        g
    }

    /// The full scan's answer for row `r`, as a pick's `choice`.
    fn full_choice(g: &GapInstance, r: usize, loc: &[f64]) -> Option<(u32, f64)> {
        let (machines, costs, times) = g.row(r);
        row_argmin(machines, costs, times, loc).map(|k| (machines[k], times[k]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The pruned oracle answers exactly what the full scan does:
        /// over equal costs (signed zeros included), equal penalties,
        /// zero times, penalties overflowing to +∞, rows shorter than,
        /// equal to and longer than the prefix, and prefixes small
        /// enough that the fallback runs.
        #[test]
        fn pruned_pick_matches_full_scan(
            prefix_pick in 0usize..5,
            cost_mode in 0usize..4,
            time_mode in 0usize..4,
            loc_mode in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let prefix_len = [0, 1, 3, 8, PREFIX_LEN][prefix_pick];
            let lens = [
                prefix_len.saturating_sub(1),
                prefix_len,
                prefix_len + 1 + rng.gen_range(0..3 * prefix_len + 8),
                rng.gen_range(0..2 * prefix_len + 3),
            ];
            let rows: Vec<_> = lens
                .iter()
                .map(|&len| {
                    let mut next = 0u32;
                    let machines: Vec<u32> = (0..len)
                        .map(|_| {
                            next += rng.gen_range(1..3);
                            next - 1
                        })
                        .collect();
                    let costs: Vec<f64> = (0..len)
                        .map(|_| match cost_mode {
                            0 => rng.gen_range(-1.0..1.0),
                            1 => [0.0, 0.5, 1.0][rng.gen_range(0..3)],
                            2 => 0.25,
                            _ => [-0.0, 0.0, 0.5][rng.gen_range(0..3)],
                        })
                        .collect();
                    let times: Vec<f64> = (0..len)
                        .map(|_| match time_mode {
                            0 => rng.gen_range(0.0..2.0),
                            1 => 0.0,
                            2 => [0.0, 1.0, 2.0][rng.gen_range(0..3)],
                            _ => rng.gen_range(2.0..3.0),
                        })
                        .collect();
                    (machines, costs, times)
                })
                .collect();
            let g = rows_instance(&rows);
            let loc: Vec<f64> = (0..g.n_machines())
                .map(|_| match loc_mode {
                    0 => rng.gen_range(0.0..3.0),
                    1 => 0.0,
                    2 => [0.0, 0.5, 1.0][rng.gen_range(0..3)],
                    // `loc · t` overflows to +∞ for t ≥ 2.
                    _ => if rng.gen_bool(0.7) { f64::MAX } else { rng.gen_range(0.0..3.0) },
                })
                .collect();
            let arena = OracleArena::build(&g, prefix_len);
            for (r, &len) in lens.iter().enumerate() {
                let pick = arena.pick(&g, r, &loc);
                prop_assert_eq!(pick.choice, full_choice(&g, r, &loc));
                if len <= prefix_len {
                    prop_assert!(!pick.fallback);
                }
            }
        }
    }

    #[test]
    fn all_infinite_penalties_pick_nothing() {
        // Every `loc · t` overflows, so every penalty is +∞. A naive
        // tie rule (`pen == best && k < best_k` against an initial
        // best of +∞) would pick an entry; the full scan picks none.
        let row = |len: u32| {
            (
                (0..len).collect(),
                vec![0.5; len as usize],
                vec![2.0; len as usize],
            )
        };
        let g = rows_instance(&[row(3), row(300)]);
        let loc = vec![f64::MAX; g.n_machines()];
        for prefix_len in [0, 2, 3, PREFIX_LEN] {
            let arena = OracleArena::build(&g, prefix_len);
            for r in 0..2 {
                assert_eq!(full_choice(&g, r, &loc), None);
                assert_eq!(
                    arena.pick(&g, r, &loc).choice,
                    None,
                    "prefix {prefix_len}, row {r}"
                );
            }
        }
    }

    #[test]
    fn unsettled_prefix_falls_back_to_the_full_scan() {
        // Penalties 10, 10.1, 10.2, 0.3: the winner is the costliest
        // entry, past a 2-entry prefix whose best penalty (10) is above
        // the cheapest cost outside it (0.2).
        let g = rows_instance(&[(
            vec![0, 1, 2, 3],
            vec![0.0, 0.1, 0.2, 0.3],
            vec![10.0, 10.0, 10.0, 0.0],
        )]);
        let loc = vec![1.0; 4];
        let small = OracleArena::build(&g, 2).pick(&g, 0, &loc);
        assert_eq!(small.choice, Some((3, 0.0)));
        assert!(small.fallback);
        assert_eq!(small.scanned, 2 + 4);
        let whole = OracleArena::build(&g, PREFIX_LEN).pick(&g, 0, &loc);
        assert_eq!(whole.choice, Some((3, 0.0)));
        assert!(!whole.fallback);
        // With λ = 0 the cheapest entry wins and the scan stops at the
        // first cost above its penalty: one entry evaluated.
        let idle = OracleArena::build(&g, 2).pick(&g, 0, &[0.0; 4]);
        assert_eq!(
            (idle.choice, idle.scanned, idle.fallback),
            (Some((0, 10.0)), 1, false)
        );
    }

    #[test]
    fn prefix_length_never_changes_the_fractional_solution() {
        // Rows of 40 candidates against prefixes from always-fallback
        // (0) to whole-row: the averaged solution is bit-identical.
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (m, n) = (40, 6);
            let costs: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..n)
                        .map(|_| [0.0, 0.25, 0.5][rng.gen_range(0..3)])
                        .collect()
                })
                .collect();
            let times: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..n).map(|_| rng.gen_range(0.0..2.0)).collect())
                .collect();
            let g = GapInstance::from_matrices(costs, times, vec![2.5; m]);
            let cfg = PackingConfig::default();
            let reference = mw_fractional_with_prefix(&g, &cfg, 0).unwrap();
            for prefix_len in [1, 3, 8, PREFIX_LEN] {
                let x = mw_fractional_with_prefix(&g, &cfg, prefix_len).unwrap();
                for j in 0..n {
                    let bits = |s: &[(u32, f64)]| -> Vec<(u32, u64)> {
                        s.iter().map(|&(i, v)| (i, v.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(x.support(j)),
                        bits(reference.support(j)),
                        "seed {seed}, prefix {prefix_len}, job {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_argmin_is_leftmost_strict_min() {
        let loc = vec![0.0; 8];
        // Tie on the minimum: the earlier index wins, regardless of
        // where the lanes land.
        let costs = vec![5.0, 1.0, 3.0, 1.0, 2.0, 1.0, 9.0];
        let machines: Vec<u32> = (0..7).collect();
        let times = vec![0.0; 7];
        assert_eq!(row_argmin(&machines, &costs, &times, &loc), Some(1));
        assert_eq!(row_argmin(&[], &[], &[], &loc), None);
        // Serial reference on a longer pseudo-random row.
        let costs: Vec<f64> = (0..29).map(|k| ((k * 7919) % 97) as f64).collect();
        let machines: Vec<u32> = (0..29).map(|k| k % 8).collect();
        let times: Vec<f64> = (0..29).map(|k| (k % 5) as f64).collect();
        let loc: Vec<f64> = (0..8).map(|i| 0.25 * i as f64).collect();
        let serial = (0..29)
            .map(|k| costs[k] + loc[machines[k] as usize] * times[k])
            .enumerate()
            .fold((usize::MAX, f64::INFINITY), |acc, (k, pen)| {
                if pen < acc.1 {
                    (k, pen)
                } else {
                    acc
                }
            })
            .0;
        assert_eq!(row_argmin(&machines, &costs, &times, &loc), Some(serial));
    }

    #[test]
    fn budget_exhaustion_carries_trailing_average() {
        use epplan_solve::FailureKind;
        let g = GapInstance::from_matrices(
            vec![vec![0.1, 0.9], vec![0.8, 0.2]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![10.0, 10.0],
        );
        // Cap below burn-in: no trailing average, no partial.
        let cfg = PackingConfig {
            budget: SolveBudget::from_iteration_cap(3),
            ..Default::default()
        };
        let err = mw_fractional(&g, &cfg).unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
        assert!(err.partial.is_none());
        // Cap past burn-in: the partial is a usable fractional solution.
        let cfg = PackingConfig {
            budget: SolveBudget::from_iteration_cap(25),
            slack: 0.0, // defeat early exit so the cap trips
            ..Default::default()
        };
        let err = mw_fractional(&g, &cfg).unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
        let partial = err.partial.expect("averaged rounds exist past burn-in");
        assert!(partial.check(&g, 1e-7).is_ok());
    }

    #[test]
    fn poisoned_instance_is_bad_input() {
        use epplan_solve::FailureKind;
        let g = GapInstance::from_matrices(vec![vec![0.0; 2]; 2], vec![vec![0.0; 2]; 2], vec![1.0]);
        let err = mw_fractional(&g, &PackingConfig::default()).unwrap_err();
        assert_eq!(err.kind, FailureKind::BadInput);
        assert_eq!(err.stage, "gap.packing");
    }
}
