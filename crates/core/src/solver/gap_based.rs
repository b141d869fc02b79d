//! The GAP-based ξ-GEPC algorithm (Section III-A).
//!
//! Pipeline, exactly as the paper prescribes:
//!
//! 1. **Copy transformation** — each event `e_j` becomes `ξ_j`
//!    identical copies (`m⁺ = Σ_j ξ_j` jobs), mutually conflicting.
//! 2. **GAP reduction** (Theorem 2 constants) — machines are users with
//!    `T_i = (2+ε)·B_i`; job `e_j`-copy on machine `u_i` takes
//!    `p_{i,j} = 2·d(u_i, e_j)` and costs `c_{i,j} = 1 − μ(u_i, e_j)`;
//!    pairs with `μ = 0` are forbidden.
//! 3. **Fractional relaxation + Shmoys–Tardos rounding** via
//!    `epplan-gap` (exact simplex LP at small scale, the
//!    Plotkin–Shmoys–Tardos multiplicative-weights relaxation above it,
//!    per the paper's citation of \[5\]).
//! 4. **Conflict Adjusting** (Algorithm 1) to remove the time conflicts
//!    the GAP reduction ignored, followed by a budget-repair pass
//!    enforcing the real `B_i` (the ST rounding only bounds load by
//!    `T_i + max p`).
//! 5. **Step 2** — fill remaining capacity `η_j − ξ_j` with the
//!    utility-aware greedy of \[4\].

use crate::model::{EventId, Instance, UserId};
use crate::plan::Plan;
use crate::solver::conflict_adjust::{budget_repair_with, conflict_adjust_with};
use crate::solver::event_orders::EventOrders;
use crate::solver::{filler, GepcSolver, GreedySolver, Solution};
use epplan_fault::FaultAction;
use epplan_gap::{GapConfig, GapInstance, GapSolution, GapSolver as GapPipeline};
use epplan_solve::{FailureKind, SolveBudget, SolveError, SolveReport, SolveStatus};
use std::time::Instant;

/// The GAP-based solver. `epsilon` is the `ε` of the reduction's
/// budget scaling `T_i = (2+ε)·B_i`; `gap` configures the fractional
/// method (exact LP vs multiplicative weights).
///
/// ```
/// use epplan_core::model::{InstanceBuilder, TimeInterval};
/// use epplan_core::solver::{GapBasedSolver, GepcSolver};
/// use epplan_geo::Point;
///
/// let mut b = InstanceBuilder::new();
/// let u0 = b.user(Point::new(0.0, 0.0), 10.0);
/// let u1 = b.user(Point::new(0.0, 1.0), 10.0);
/// let e = b.event(Point::new(1.0, 0.0), 2, 3, TimeInterval::new(540, 600));
/// b.utility(u0, e, 0.9);
/// b.utility(u1, e, 0.6);
/// let instance = b.build();
///
/// let solution = GapBasedSolver::default().solve(&instance);
/// assert_eq!(solution.plan.attendance(e), 2); // ξ = 2 met exactly
/// assert!(solution.fully_feasible());
/// ```
#[derive(Debug, Clone)]
pub struct GapBasedSolver {
    /// Budget-scaling epsilon of Theorem 2.
    pub epsilon: f64,
    /// Underlying GAP pipeline configuration.
    pub gap: GapConfig,
    /// Run step 2 (capacity filler) after ξ-GEPC.
    pub two_step: bool,
}

impl Default for GapBasedSolver {
    fn default() -> Self {
        GapBasedSolver {
            epsilon: 0.2,
            gap: GapConfig::default(),
            two_step: true,
        }
    }
}

impl GapBasedSolver {
    /// Default solver with a custom GAP configuration.
    pub fn with_gap_config(gap: GapConfig) -> Self {
        GapBasedSolver {
            gap,
            ..Default::default()
        }
    }

    /// Builds the GAP instance of the Theorem-2 reduction, returning it
    /// together with the job → event mapping (`ξ_j` copies per event).
    /// Exposed for the LP-vs-MW ablation experiment and for tests that
    /// verify the reduction constants.
    pub fn build_gap(&self, instance: &Instance) -> (GapInstance, Vec<EventId>) {
        let _sp = epplan_obs::span("solve.reduction");
        // Transpose the per-user candidate lists into per-event rows of
        // (user, c = 1 − μ, p = 2·d) by counting sort. The candidate
        // predicate already excludes μ = 0 pairs, and pairs the user's
        // budget can never cover drop out too (lossless: any feasible
        // plan containing the event costs at least 2·d + fee by the
        // triangle inequality, so budget repair would strip them
        // anyway). Count each event's candidates into `offsets[e + 1]`.
        let cands = instance.candidates();
        let mut offsets = vec![0u32; instance.n_events() + 1];
        for u in instance.user_ids() {
            for &e in cands.row(u).0 {
                offsets[e as usize + 1] += 1;
            }
        }
        // Job list: ξ_j copies of each event, each tagged with the
        // event it copies — the ξ copies share one candidate row in the
        // sparse GAP layout (identical Theorem-2 columns). The same
        // pass prefix-sums the counts into row offsets.
        let mut jobs: Vec<EventId> = Vec::new();
        let mut job_group: Vec<u32> = Vec::new();
        // epplan-lint: allow(sparse/dense-scan) — Theorem-2 job emission is one O(|E| + Σξ) pass during reduction build, not a per-user sweep
        for e in instance.event_ids() {
            offsets[e.index() + 1] += offsets[e.index()];
            for _ in 0..instance.event(e).lower {
                jobs.push(e);
                job_group.push(e.0);
            }
        }
        // Scatter users in ascending order, so every row is ascending.
        let mut next = offsets.clone();
        let mut machines = vec![0u32; cands.len()];
        let mut costs = vec![0.0; cands.len()];
        let mut times = vec![0.0; cands.len()];
        for u in instance.user_ids() {
            let (events, utils) = cands.row(u);
            for (&e, &mu) in events.iter().zip(utils) {
                let k = next[e as usize] as usize;
                next[e as usize] += 1;
                machines[k] = u.0;
                costs[k] = 1.0 - mu;
                times[k] = 2.0 * instance.distance(u, EventId(e));
            }
        }
        let caps: Vec<f64> = instance
            .users()
            .iter()
            .map(|u| (2.0 + self.epsilon) * u.budget)
            .collect();
        let n = instance.n_users();
        let gap = GapInstance::from_csr(n, caps, job_group, offsets, machines, costs, times);
        (gap, jobs)
    }

    /// Post-processes a GAP assignment into a hard-feasible GEPC
    /// solution: Algorithm 1 conflict adjusting, budget repair, and the
    /// optional step-2 capacity fill.
    ///
    /// Carries the `core.conflict_adjust.apply` fault site: a
    /// `PoisonValue` injection *skips* Algorithm 1 and budget repair —
    /// the raw GAP assignment flows through unrepaired, so the
    /// solution's certificate (not this function) must catch the
    /// corruption. Any other injected action fails typed.
    fn finish(
        &self,
        instance: &Instance,
        jobs: &[EventId],
        gap_solution: &GapSolution,
    ) -> Result<Solution, SolveError<()>> {
        // Raw multiset assignment: user → copies received.
        let mut raw: Vec<Vec<EventId>> = vec![Vec::new(); instance.n_users()];
        for (jk, &machine) in gap_solution.assignment.iter().enumerate() {
            if let (Some(i), Some(&e)) = (machine, jobs.get(jk)) {
                if i < raw.len() {
                    raw[i].push(e);
                }
            }
        }

        let mut poisoned = false;
        if let Some(action) = epplan_fault::point("core.conflict_adjust.apply") {
            match action {
                FaultAction::PoisonValue => poisoned = true,
                other => {
                    return Err(SolveError::from_fault(
                        "core.conflict_adjust",
                        "core.conflict_adjust.apply",
                        other,
                    ))
                }
            }
        }

        if poisoned {
            // Poison: pass the raw assignment straight through, keeping
            // its time conflicts and budget busts.
            let _sp = epplan_obs::span("solve.conflict_adjust");
            let mut plan = Plan::for_instance(instance);
            for (u, evs) in raw.into_iter().enumerate() {
                for e in evs {
                    plan.add(UserId(u as u32), e);
                }
            }
            return Ok(Solution::from_plan(instance, plan));
        }

        // Algorithm 1 and budget repair, on one store the fill reuses.
        let (mut plan, mut orders) = {
            let _sp = epplan_obs::span("solve.conflict_adjust");
            let every = vec![true; instance.n_events()];
            let mut orders = EventOrders::from_candidates(instance, &every);
            let mut plan = conflict_adjust_with(instance, raw, &mut orders);
            budget_repair_with(instance, &mut plan, &mut orders);
            (plan, orders)
        };
        if self.two_step {
            filler::fill_to_upper_with(instance, &mut plan, &mut orders);
        }
        drop(orders); // before certifying, so the store does not add to its peak
        Ok(Solution::from_plan(instance, plan))
    }

    /// Runs the GAP pipeline under `budget` without any fallback. A
    /// failure carries no partial: the degradation chain replaces it
    /// with a fallback tier's plan.
    fn try_solve_gap(
        &self,
        instance: &Instance,
        budget: SolveBudget,
    ) -> Result<Solution, SolveError<()>> {
        // Deterministic fault injection in front of the Theorem-2
        // reduction (serial entry point, hit count thread-invariant).
        if let Some(action) = epplan_fault::point("core.reduction.build") {
            return Err(SolveError::from_fault(
                "core.reduction",
                "core.reduction.build",
                action,
            ));
        }
        let (gap, jobs) = self.build_gap(instance);
        let mut config = self.gap.clone();
        config.budget = config.budget.min(budget);
        let result = GapPipeline::new(config).solve(&gap);
        // Post-processing needs only `jobs` and the GAP assignment; free
        // the candidate arena before Algorithm 1 and the filler run.
        drop(gap);
        match result {
            Ok(gap_solution) => self.finish(instance, &jobs, &gap_solution),
            Err(e) => Err(e.discard_partial()),
        }
    }

    /// Runs the fallback tiers of the degradation chain — the total
    /// greedy solver, then the trivially hard-feasible empty plan —
    /// recording every attempt in `report`. Returns the surviving
    /// solution, which carries its certificate.
    ///
    /// Carries the `core.greedy.fallback` fault site: `PoisonValue`
    /// deterministically corrupts the greedy plan (every user piled
    /// onto every event) so certification must catch it; any other
    /// action fails the greedy tier typed.
    fn fallback_tiers(&self, instance: &Instance, report: &mut SolveReport) -> Solution {
        // epplan-lint: allow(determinism/wall-clock) — report-only fallback timing, not a solver decision
        let fb_start = Instant::now();
        let greedy = GreedySolver {
            two_step: self.two_step,
            ..GreedySolver::default()
        };
        let mut fallback = {
            let _sp = epplan_obs::span("solve.greedy_fallback");
            greedy.solve(instance)
        };

        let mut greedy_failure: Option<(FailureKind, String)> = None;
        if let Some(action) = epplan_fault::point("core.greedy.fallback") {
            match action {
                FaultAction::PoisonValue => {
                    let mut plan = fallback.plan.clone();
                    for u in instance.user_ids() {
                        // epplan-lint: allow(sparse/dense-scan) — deliberate poison: the PoisonValue fault action builds a maximally infeasible plan, dense by design
                        for e in instance.event_ids() {
                            plan.add(u, e);
                        }
                    }
                    fallback = Solution::from_plan(instance, plan);
                }
                other => {
                    let e: SolveError<Solution> =
                        SolveError::from_fault("core.greedy", "core.greedy.fallback", other);
                    greedy_failure = Some((e.kind, e.message));
                }
            }
        }

        if greedy_failure.is_none() && !fallback.certified() {
            greedy_failure = Some((
                FailureKind::NumericalInstability,
                format!("certification rejected the greedy fallback: {}", rejected(&fallback)),
            ));
        }

        match greedy_failure {
            None => {
                report.record_success("greedy", SolveStatus::BestEffort, fb_start.elapsed());
            }
            Some((kind, message)) => {
                report.record_failure("greedy", kind, message, fb_start.elapsed());
                // Last resort: the empty plan is trivially free of
                // hard violations.
                // epplan-lint: allow(determinism/wall-clock) — report-only last-resort timing, not a solver decision
                let empty_start = Instant::now();
                fallback = Solution::from_plan(
                    instance,
                    Plan::empty(instance.n_users(), instance.n_events()),
                );
                report.record_success(
                    "best_effort_empty",
                    SolveStatus::BestEffort,
                    empty_start.elapsed(),
                );
            }
        }
        fallback
    }
}

/// The hard constraints `solution`'s certificate names as violated.
fn rejected(solution: &Solution) -> String {
    let cert = solution.report.certificate.iter();
    cert.flat_map(|c| c.violated_constraints()).collect::<Vec<_>>().join(", ")
}

/// Moves `solution`'s certificate into `report`, which replaces the
/// solution's own, with the solve's stage costs when `mark` is set.
fn with_report(
    mut solution: Solution,
    mut report: SolveReport,
    mark: Option<&epplan_obs::StageMark>,
) -> Solution {
    report.certificate = solution.report.certificate.take();
    if let Some(mark) = mark {
        report.stages = mark.delta();
    }
    solution.report = report;
    solution
}

impl GepcSolver for GapBasedSolver {
    /// The degradation chain of the GEPC facade: GAP-based solve first;
    /// on any failure (budget exhaustion, numerical trouble, bad GAP
    /// reduction) or a plan certification rejects, fall back to the
    /// total [`GreedySolver`]; if even the greedy plan fails
    /// certification, degrade to an empty (trivially hard-feasible)
    /// plan. The chain of attempts is recorded in the returned
    /// solution's [`SolveReport`], beside the winning plan's
    /// certificate.
    ///
    /// Failures still surface as `Err` with the *original* failure kind,
    /// but the error always carries the certified fallback solution in
    /// [`SolveError::partial`], so callers choose between strictness and
    /// graceful degradation.
    fn try_solve(
        &self,
        instance: &Instance,
        budget: SolveBudget,
    ) -> Result<Solution, SolveError<Solution>> {
        // Baseline for the per-stage cost delta attached to the report
        // (only when metrics collection is on — StageMark clones the
        // aggregate map, which we won't pay for by default).
        let mark = epplan_obs::metrics_enabled().then(epplan_obs::StageMark::now);
        let mut report = SolveReport::new();
        // epplan-lint: allow(determinism/wall-clock) — stage wall time feeds the SolveReport only; it never steers solver decisions
        let start = Instant::now();
        let gap_result = {
            let _sp = epplan_obs::span("solve.gap_based");
            self.try_solve_gap(instance, budget)
        };
        // Tier 1: the GAP pipeline. A success still escalates when its
        // certificate rejects the plan.
        let failure: SolveError<Solution> = match gap_result {
            Ok(sol) if sol.certified() => {
                report.record_success("gap_based", SolveStatus::Optimal, start.elapsed());
                return Ok(with_report(sol, report, mark.as_ref()));
            }
            Ok(sol) => {
                let msg = format!("certification rejected the gap_based plan: {}", rejected(&sol));
                report.record_failure(
                    "gap_based",
                    FailureKind::NumericalInstability,
                    msg.clone(),
                    start.elapsed(),
                );
                SolveError::numerical("gap_based", msg)
            }
            Err(e) => {
                report.record_failure("gap_based", e.kind, e.message.clone(), start.elapsed());
                e.discard_partial()
            }
        };

        // Tiers 2–3: greedy, then the empty plan.
        let fallback = self.fallback_tiers(instance, &mut report);
        Err(failure.with_partial(with_report(fallback, report, mark.as_ref())))
    }

    fn name(&self) -> &'static str {
        "gap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::model::{Event, TimeInterval, User, UserId, UtilityMatrix};
    use epplan_geo::Point;

    fn small() -> Instance {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 50.0),
            User::new(Point::new(1.0, 0.0), 50.0),
            User::new(Point::new(2.0, 0.0), 50.0),
        ];
        let events = vec![
            Event::new(Point::new(0.0, 1.0), 2, 3, TimeInterval::new(0, 59)),
            Event::new(Point::new(0.0, 2.0), 1, 2, TimeInterval::new(60, 119)),
        ];
        let utilities = UtilityMatrix::from_rows(vec![
            vec![0.9, 0.4],
            vec![0.7, 0.8],
            vec![0.5, 0.6],
        ]).unwrap();
        Instance::new(users, events, utilities).unwrap()
    }

    #[test]
    fn produces_hard_feasible_plan() {
        let inst = small();
        let sol = GapBasedSolver::default().solve(&inst);
        assert!(certify(&inst, &sol.plan).hard_ok());
    }

    #[test]
    fn meets_lower_bounds_when_easy() {
        let inst = small();
        let sol = GapBasedSolver::default().solve(&inst);
        assert!(sol.fully_feasible(), "shortfall {:?}", sol.shortfall);
        for e in inst.event_ids() {
            assert!(sol.plan.attendance(e) >= inst.event(e).lower);
        }
    }

    #[test]
    fn build_gap_constants_match_theorem_2() {
        let inst = small();
        let solver = GapBasedSolver::default();
        let (gap, jobs) = solver.build_gap(&inst);
        // m⁺ = 2 + 1 copies.
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs, vec![EventId(0), EventId(0), EventId(1)]);
        assert_eq!(gap.n_machines(), 3);
        // c = 1 − μ for (u0, e0-copy): 1 − 0.9.
        assert!((gap.cost(0, 0) - 0.1).abs() < 1e-12);
        // p = 2·d(u0, e0) = 2·1.
        assert!((gap.time(0, 0) - 2.0).abs() < 1e-12);
        // T = (2+ε)·B.
        assert!((gap.capacity(0) - 2.2 * 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_utility_pairs_forbidden_in_gap() {
        let mut inst = small();
        inst.set_utility(UserId(0), EventId(0), 0.0);
        let solver = GapBasedSolver::default();
        let (gap, _) = solver.build_gap(&inst);
        assert!(!gap.allowed(0, 0));
        assert!(!gap.allowed(0, 1)); // second copy of e0
        assert!(gap.allowed(0, 2)); // e1 still fine
    }

    #[test]
    fn two_step_adds_capacity_fill() {
        let inst = small();
        let xi_only = GapBasedSolver {
            two_step: false,
            ..Default::default()
        }
        .solve(&inst);
        let full = GapBasedSolver::default().solve(&inst);
        assert!(full.utility >= xi_only.utility - 1e-9);
        assert!(full.plan.total_assignments() >= xi_only.plan.total_assignments());
    }

    #[test]
    fn infeasible_lower_bounds_reported() {
        let mut inst = small();
        // Demand 3 users for e0 but forbid two of them.
        inst.set_event_bounds(EventId(0), 3, 3);
        inst.set_utility(UserId(1), EventId(0), 0.0);
        inst.set_utility(UserId(2), EventId(0), 0.0);
        let sol = GapBasedSolver::default().solve(&inst);
        assert!(certify(&inst, &sol.plan).hard_ok());
        assert!(sol.shortfall.contains(&EventId(0)));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], vec![], UtilityMatrix::zeros(0, 0)).unwrap();
        let sol = GapBasedSolver::default().solve(&inst);
        assert_eq!(sol.utility, 0.0);
    }

    #[test]
    fn successful_solve_records_single_attempt() {
        let inst = small();
        let sol = GapBasedSolver::default()
            .try_solve(&inst, SolveBudget::UNLIMITED)
            .unwrap();
        assert_eq!(sol.report.winner(), Some("gap_based"));
        assert!(!sol.report.degraded());
        assert_eq!(sol.report.final_status(), Some(SolveStatus::Optimal));
    }

    #[test]
    fn exhausted_budget_degrades_to_valid_greedy_fallback() {
        let inst = small();
        let budget = SolveBudget::from_iteration_cap(1);
        let err = GapBasedSolver::default()
            .try_solve(&inst, budget)
            .unwrap_err();
        assert_eq!(err.kind, epplan_solve::FailureKind::BudgetExhausted);
        let fallback = err.partial.expect("fallback plan travels as partial");
        assert!(certify(&inst, &fallback.plan).hard_ok());
        // The degradation chain is on record: gap_based failed, the
        // greedy fallback won.
        assert!(fallback.report.degraded());
        assert_eq!(fallback.report.winner(), Some("greedy"));
        assert_eq!(
            fallback.report.final_status(),
            Some(SolveStatus::BestEffort)
        );
    }

    #[test]
    fn total_solve_never_fails_under_tiny_budget() {
        let inst = small();
        let solver = GapBasedSolver {
            gap: GapConfig {
                budget: SolveBudget::from_iteration_cap(1),
                ..GapConfig::default()
            },
            ..Default::default()
        };
        // The trait entry point stays total: the internal budget blows
        // up the GAP pipeline, the greedy fallback takes over.
        let sol = solver.solve(&inst);
        assert!(certify(&inst, &sol.plan).hard_ok());
        assert!(sol.report.degraded());
    }

}
