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
//! # The candidate arena
//!
//! The oracle scans the instance's own candidate CSR in place: every
//! stored pair is allowed (construction drops capacity-gated ones), and
//! each row's `(machine, cost, time)` arrays are contiguous, so each
//! round streams cache-line-dense slices without a copy. There is one
//! row per job *group*: the ξ copies of an event share identical
//! columns, so one argmin serves them all. Rounds then cost
//! O(candidates), not O(machines × jobs), and λ updates and width scans
//! touch only machines that appear in some candidate row.
//!
//! The parallel oracle chunks the rows on candidate mass with *fixed*
//! boundaries (a pure function of the row offsets) and merges chunk
//! results in index order, so every float and every argmin is
//! bit-identical at any thread count. The inner argmin is a blocked,
//! branchless 4-lane scan whose lanes merge by `(penalty, index)` —
//! exactly the leftmost strict minimum a serial scan would pick.
//!
//! Unlike the textbook PST presentation we do not binary-search a cost
//! budget: the cost term is kept in the oracle objective directly. This
//! keeps the solver a *practical* (1+ε)-style heuristic rather than a
//! certified approximation; the exact-LP path exists for instances
//! small enough to verify (see `GapConfig::method`).

use crate::{FractionalSolution, GapInstance};
use epplan_solve::{BudgetGuard, DeadlineExceeded, SolveBudget, SolveError};

/// Target candidate entries per parallel oracle chunk. Boundaries are
/// derived from the row offsets alone, so the chunking — and with it
/// every merged result — is independent of the worker count.
const CAND_CHUNK: usize = 4096;

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

/// One row's oracle choice in a round: the argmin's `(machine, time)`,
/// `None` for an empty row.
type RowChoice = Option<(u32, f64)>;

/// The oracle's view of the instance's candidate rows: chunk bounds
/// and the machines the rows mention.
struct OracleArena {
    /// Chunk boundaries in row space, balanced by candidate mass.
    bounds: Vec<usize>,
    /// Machines appearing in at least one row, ascending. λ updates and
    /// width scans touch only these.
    active: Vec<u32>,
}

impl OracleArena {
    /// Both fields are pure functions of the instance, so the arena is
    /// identical at every thread count.
    fn build(inst: &GapInstance) -> OracleArena {
        let mut seen = vec![false; inst.n_machines()];
        for r in 0..inst.n_candidate_rows() {
            for &i in inst.row(r).0 {
                seen[i as usize] = true;
            }
        }
        let active: Vec<u32> = seen
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i as u32))
            .collect();
        OracleArena {
            bounds: mass_bounds(inst.row_offsets(), CAND_CHUNK),
            active,
        }
    }
}

/// Splits row space into chunks of roughly `target` candidates each.
/// Depends only on `offsets`, never on the worker count.
fn mass_bounds(offsets: &[u32], target: usize) -> Vec<usize> {
    let n_rows = offsets.len() - 1;
    let mut bounds = vec![0usize];
    let mut start = 0;
    while start < n_rows {
        let goal = offsets[start] as usize + target;
        let mut end = start + 1;
        while end < n_rows && (offsets[end] as usize) < goal {
            end += 1;
        }
        bounds.push(end);
        start = end;
    }
    bounds
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

    let arena = OracleArena::build(inst);
    let n_rows = inst.n_candidate_rows();
    let n_chunks = arena.bounds.len().saturating_sub(1);

    let inv_cap: Vec<f64> = (0..m).map(|i| 1.0 / inst.capacity(i).max(1e-12)).collect();
    let mut lambda = vec![1.0f64; m];
    // λ_i / T_i, refreshed per round for active machines only.
    let mut loc = vec![0.0f64; m];
    let mut load = vec![0.0f64; m];
    // Sum of per-round loads past burn-in; `load_sum · scale` is the
    // trailing average's load, accumulated serially per machine so the
    // convergence check is thread-count independent (and O(active)
    // instead of a fresh O(machines × jobs) scan).
    let mut load_sum = vec![0.0f64; m];
    let mut averaged_rounds = 0usize;
    let burn_in = cfg.burn_in.min(cfg.iterations.saturating_sub(1));
    // The oracle fans out across workers; the deadline flag lets the
    // wall-clock limit trip *inside* a parallel round, not just between
    // rounds.
    let deadline = guard.deadline_flag();
    if epplan_obs::metrics_enabled() {
        epplan_obs::gauge_set("packing.par.threads", epplan_par::threads() as f64);
        epplan_obs::gauge_set("packing.par.chunks", n_chunks as f64);
        let stored = inst.row_offsets()[n_rows];
        epplan_obs::gauge_set("packing.arena.candidates", f64::from(stored));
    }

    for round in 0..cfg.iterations {
        let mut trip = guard.tick("gap.packing").err();
        if trip.is_none() {
            // Deterministic fault injection at the (serial) round head;
            // a fired fault is handled exactly like a budget trip, so
            // the trailing average still travels as the partial.
            if let Some(action) = epplan_fault::point("gap.packing.oracle") {
                trip = Some(SolveError::from_fault(
                    "gap.packing",
                    "gap.packing.oracle",
                    action,
                ));
            }
        }
        // The round's per-row choices.
        let mut choice_row: Vec<RowChoice> = Vec::with_capacity(n_rows);
        if trip.is_none() {
            for &i in &arena.active {
                let i = i as usize;
                loc[i] = lambda[i] * inv_cap[i];
            }
            // Oracle step, parallel over mass-balanced row chunks. The
            // boundaries are fixed and chunk results merge in index
            // order, so scheduling cannot affect the result.
            let parts: Vec<Result<Vec<RowChoice>, DeadlineExceeded>> =
                epplan_par::par_range_map(n_chunks, 1, |chunk_range| {
                    let mut out = Vec::new();
                    for b in chunk_range {
                        deadline.poll()?;
                        for r in arena.bounds[b]..arena.bounds[b + 1] {
                            let (machines, costs, times) = inst.row(r);
                            let k = row_argmin(machines, costs, times, &loc);
                            out.push(k.map(|k| (machines[k], times[k])));
                        }
                    }
                    Ok(out)
                });
            let mut tripped = false;
            for part in parts {
                match part {
                    Ok(mut v) => choice_row.append(&mut v),
                    Err(_) => {
                        tripped = true;
                        break;
                    }
                }
            }
            if tripped {
                // The flag saw the monotonic clock pass the deadline,
                // so this point check errs; the interrupted round is
                // discarded like a round the tick never admitted.
                trip = guard.check_deadline("gap.packing").err();
            }
        }
        if let Some(e) = trip {
            // The round that tripped never completed.
            let epochs = guard.iterations().saturating_sub(1);
            sp.add_iters(epochs);
            epplan_obs::counter_add("packing.epochs", epochs);
            epplan_obs::counter_add("packing.oracle_calls", epochs * assignable_jobs);
            let mut out = e.discard_partial();
            // Return whatever trailing average exists as a partial.
            if averaged_rounds > 0 {
                frac.scale(1.0 / averaged_rounds as f64);
                out = out.with_partial(frac);
            }
            return Err(out);
        }
        // Load accumulation stays serial in job order: it is O(n)
        // against the oracle's O(candidates), and summing in a fixed
        // order keeps every float bit-identical at any thread count.
        for &i in &arena.active {
            load[i as usize] = 0.0;
        }
        for j in 0..n {
            if let Some((i, t)) = choice_row[inst.candidate_row_of(j)] {
                load[i as usize] += t;
            }
        }
        // Weight update toward observed overload, active machines only
        // (the λ of a machine in no candidate row is never read).
        for &i in &arena.active {
            let i = i as usize;
            let ratio = load[i] * inv_cap[i];
            lambda[i] = (lambda[i] * (cfg.eta * (ratio - 1.0)).exp()).clamp(1e-6, 1e9);
        }
        if round >= burn_in {
            for j in 0..n {
                if let Some((i, _)) = choice_row[inst.candidate_row_of(j)] {
                    frac.add(i as usize, j, 1.0);
                }
            }
            for &i in &arena.active {
                let i = i as usize;
                load_sum[i] += load[i];
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
    epplan_obs::counter_add("packing.epochs", epochs);
    epplan_obs::counter_add("packing.oracle_calls", epochs * assignable_jobs);
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn mass_bounds_cover_rows_exactly() {
        let offsets = vec![0u32, 10, 10, 4000, 4001, 9000, 9001];
        let bounds = mass_bounds(&offsets, 4096);
        assert_eq!(*bounds.first().unwrap(), 0);
        assert_eq!(*bounds.last().unwrap(), 6);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        // Empty arena: no chunks.
        assert_eq!(mass_bounds(&[0], 4096), vec![0]);
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
