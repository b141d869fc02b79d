//! Targeted fault-injection scenarios through the degradation chain:
//!
//! * a fault in `flow.mcmf.augment` during Shmoys–Tardos rounding must
//!   land the solve in the greedy fallback, with the failed stage on
//!   the report and (metrics on) per-stage costs recorded;
//! * the fallback must be **bit-identical** at `threads = 1` and
//!   `threads = 4` — injection sites live in serial code, so hit
//!   counts are thread-count-invariant;
//! * `PoisonValue` corruption must be caught by certification and
//!   escalate tier by tier, down to the empty plan.
//!
//! Fault state is process-global: tests serialize on one mutex and
//! disarm through a panic-safe drop guard.

use epplan::core::certify::certify;
use epplan::core::model::{Event, Instance, TimeInterval, User, UtilityMatrix};
use epplan::core::solver::SolveBudget;
use epplan::fault::FaultPlan;
use epplan::prelude::*;
use epplan::solve::{AttemptOutcome, FailureKind};
use std::sync::{Mutex, MutexGuard};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        epplan::fault::clear();
    }
}

fn arm(spec: &str) -> Armed {
    epplan::fault::install(
        FaultPlan::from_spec(spec).unwrap_or_else(|e| panic!("bad spec {spec}: {e}")),
    );
    Armed
}

fn instance() -> Instance {
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

/// An instance whose unrepaired GAP assignment is genuinely corrupt:
/// user 0 dominates both *overlapping* events, user 1 is forbidden
/// everywhere, so skipping Algorithm 1 leaves a time conflict.
fn conflict_prone_instance() -> Instance {
    let users = vec![
        User::new(Point::new(0.0, 0.0), 50.0),
        User::new(Point::new(1.0, 0.0), 50.0),
    ];
    let events = vec![
        Event::new(Point::new(0.0, 1.0), 1, 2, TimeInterval::new(0, 59)),
        Event::new(Point::new(0.0, 2.0), 1, 2, TimeInterval::new(30, 119)),
    ];
    let utilities = UtilityMatrix::from_rows(vec![vec![0.9, 0.9], vec![0.0, 0.0]]).unwrap();
    Instance::new(users, events, utilities).unwrap()
}

/// Runs the certified gap_based chain under a `flow.mcmf.augment`
/// fault and returns the serialized fallback plan plus the attempt
/// chain (solver, outcome-class, message) for comparison across
/// thread counts.
fn faulted_fallback(threads: usize) -> (String, Vec<(String, String, String)>) {
    epplan::par::set_threads(threads);
    let _armed = arm("flow.mcmf.augment=error");
    let inst = instance();
    let err = GapBasedSolver::default()
        .with_certify(true)
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .expect_err("the injected flow fault must fail the gap tier");
    assert_eq!(err.kind, FailureKind::NumericalInstability);
    assert!(
        err.message.contains("flow.mcmf.augment"),
        "error must name the injected site: {}",
        err.message
    );
    let fallback = err.partial.expect("fallback plan travels as partial");
    let plan_json = serde_json::to_string(&fallback.plan)
        .unwrap_or_else(|e| panic!("serialize fallback plan: {e}"));
    let chain = fallback
        .report
        .attempts
        .iter()
        .map(|a| {
            let (class, msg) = match &a.outcome {
                AttemptOutcome::Succeeded(s) => (format!("ok:{s}"), String::new()),
                AttemptOutcome::Failed { kind, message } => {
                    (format!("fail:{kind:?}"), message.clone())
                }
            };
            (a.solver.to_string(), class, msg)
        })
        .collect();
    (plan_json, chain)
}

#[test]
fn flow_fault_during_rounding_lands_in_greedy_fallback_with_stages() {
    let _guard = exclusive();
    epplan::obs::enable_metrics();
    let _armed = arm("flow.mcmf.augment=error");
    let inst = instance();
    let err = GapBasedSolver::default()
        .with_certify(true)
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .expect_err("the injected flow fault must fail the gap tier");
    let fallback = err.partial.expect("fallback plan travels as partial");

    // The degradation chain names the failed stage and the winner.
    assert!(fallback.report.degraded());
    assert_eq!(fallback.report.winner(), Some("greedy"));
    let failed: Vec<&str> = fallback
        .report
        .attempts
        .iter()
        .filter_map(|a| match &a.outcome {
            AttemptOutcome::Failed { message, .. } => Some(message.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        failed.iter().any(|m| m.contains("flow.mcmf.augment")),
        "failed attempts must record the injected site: {failed:?}"
    );

    // Metrics were on → per-stage costs are recorded, including the
    // fallback tier that actually ran.
    assert!(
        fallback
            .report
            .stages
            .iter()
            .any(|s| s.name == "solve.greedy_fallback"),
        "stages must record the greedy fallback: {:?}",
        fallback.report.stages.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // The fallback is certified.
    let cert = fallback
        .report
        .certificate
        .as_ref()
        .expect("certificate requested");
    assert!(cert.hard_ok());
    assert!(certify(&inst, &fallback.plan).hard_ok());
}

#[test]
fn faulted_fallback_is_bit_identical_across_thread_counts() {
    let _guard = exclusive();
    let (plan1, chain1) = faulted_fallback(1);
    let (plan4, chain4) = faulted_fallback(4);
    assert_eq!(plan1, plan4, "fallback plans must be bit-identical at threads=1 vs 4");
    assert_eq!(chain1, chain4, "attempt chains must match at threads=1 vs 4");
    epplan::par::set_threads(1);
}

#[test]
fn poison_escapes_without_certification_but_not_with_it() {
    let _guard = exclusive();
    let inst = conflict_prone_instance();

    // Without certification the unrepaired plan escapes as a "success".
    {
        let _armed = arm("core.conflict_adjust.apply=nan");
        let sol = GapBasedSolver::default()
            .try_solve(&inst, SolveBudget::UNLIMITED)
            .unwrap_or_else(|e| panic!("uncertified poison run failed outright: {}", e.message));
        assert!(
            !certify(&inst, &sol.plan).hard_ok(),
            "this instance must actually corrupt under the poison, or the certify case tests nothing"
        );
    }

    // With certification the corruption is caught and the solve
    // escalates to the (valid, certified) greedy tier.
    {
        let _armed = arm("core.conflict_adjust.apply=nan");
        let err = GapBasedSolver::default()
            .with_certify(true)
            .try_solve(&inst, SolveBudget::UNLIMITED)
            .expect_err("certification must reject the poisoned plan");
        assert!(
            err.message.contains("time-conflict"),
            "rejection names the violated constraint: {}",
            err.message
        );
        let fallback = err.partial.expect("fallback plan travels as partial");
        assert_eq!(fallback.report.winner(), Some("greedy"));
        assert!(certify(&inst, &fallback.plan).hard_ok());
        let cert = fallback.report.certificate.as_ref().expect("certificate");
        assert!(cert.hard_ok());
    }
}

#[test]
fn double_fault_escalates_to_certified_empty_plan() {
    let _guard = exclusive();
    let inst = conflict_prone_instance();
    let _armed = arm("core.reduction.build=error;core.greedy.fallback=nan");
    let err = GapBasedSolver::default()
        .with_certify(true)
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .expect_err("gap tier dies on the reduction fault");
    assert!(err.message.contains("core.reduction.build"));
    let fallback = err.partial.expect("fallback plan travels as partial");

    // Chain: gap_based ✗ → greedy ✗ (poisoned, caught) → empty ✓.
    assert_eq!(fallback.report.winner(), Some("best_effort_empty"));
    assert_eq!(fallback.plan.total_assignments(), 0);
    let cert = fallback.report.certificate.as_ref().expect("certificate");
    assert!(cert.hard_ok());
    assert_eq!(certify(&inst, &fallback.plan).hard_ok(), cert.hard_ok());
}

#[test]
fn deadline_fault_maps_to_budget_exhausted() {
    let _guard = exclusive();
    let _armed = arm("core.reduction.build=deadline");
    let inst = instance();
    let err = GapBasedSolver::default()
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .expect_err("deadline trip fails the gap tier");
    assert_eq!(err.kind, FailureKind::BudgetExhausted);
    let fallback = err.partial.expect("fallback plan travels as partial");
    assert_eq!(fallback.report.winner(), Some("greedy"));
}
