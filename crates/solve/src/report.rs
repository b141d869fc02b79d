//! Degradation-chain reporting: what a facade tried, in order, and
//! how each attempt ended.

use std::time::Duration;

use epplan_obs::StageStats;

use crate::{Certificate, FailureKind, SolveStatus};

/// How one solver attempt in a degradation chain ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt produced the artifact the caller received.
    Succeeded(SolveStatus),
    /// The attempt failed and the chain moved on to a fallback.
    Failed {
        kind: FailureKind,
        message: String,
    },
}

/// One entry of a [`SolveReport`] chain.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveAttempt {
    /// Solver identifier, e.g. `"gap_based"`, `"greedy"`,
    /// `"best_effort"`.
    pub solver: &'static str,
    /// How it ended.
    pub outcome: AttemptOutcome,
    /// Wall-clock time the attempt took.
    pub elapsed: Duration,
}

/// Record of a facade's degradation chain: every solver attempted, in
/// order, ending with the one whose artifact was returned. Travels
/// alongside the solution so callers can tell an optimal answer from
/// a validated best-effort fallback without re-deriving why.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveReport {
    /// Attempts in execution order; the last one succeeded (when the
    /// overall solve succeeded).
    pub attempts: Vec<SolveAttempt>,
    /// Per-stage cost breakdown (wall time, iterations, peak memory)
    /// accumulated during this solve. Populated by facades when
    /// `epplan_obs::metrics_enabled()`; empty otherwise.
    pub stages: Vec<StageStats>,
    /// Independent certification of the returned artifact (see
    /// [`crate::certify`]). Every GEPC solution carries the one its
    /// plan was built with; `None` only in a report assembled by hand.
    pub certificate: Option<Certificate>,
}

impl SolveReport {
    pub fn new() -> Self {
        SolveReport::default()
    }

    /// Appends a failed attempt.
    pub fn record_failure(
        &mut self,
        solver: &'static str,
        kind: FailureKind,
        message: impl Into<String>,
        elapsed: Duration,
    ) {
        self.attempts.push(SolveAttempt {
            solver,
            outcome: AttemptOutcome::Failed {
                kind,
                message: message.into(),
            },
            elapsed,
        });
    }

    /// Appends the successful attempt (normally the last call made).
    pub fn record_success(
        &mut self,
        solver: &'static str,
        status: SolveStatus,
        elapsed: Duration,
    ) {
        self.attempts.push(SolveAttempt {
            solver,
            outcome: AttemptOutcome::Succeeded(status),
            elapsed,
        });
    }

    /// Status of the final (successful) attempt, if any.
    pub fn final_status(&self) -> Option<SolveStatus> {
        self.attempts.iter().rev().find_map(|a| match a.outcome {
            AttemptOutcome::Succeeded(s) => Some(s),
            AttemptOutcome::Failed { .. } => None,
        })
    }

    /// `true` when a fallback (anything beyond the first attempt) ran.
    pub fn degraded(&self) -> bool {
        self.attempts.len() > 1
    }

    /// Name of the solver whose artifact was returned, if any
    /// succeeded.
    pub fn winner(&self) -> Option<&'static str> {
        self.attempts.iter().rev().find_map(|a| match a.outcome {
            AttemptOutcome::Succeeded(_) => Some(a.solver),
            AttemptOutcome::Failed { .. } => None,
        })
    }

    /// The per-stage cost table for this solve, rendered for humans
    /// (wall time, iteration counts, peak-memory deltas per stage).
    /// Says so explicitly when no stage data was collected.
    pub fn cost_table(&self) -> String {
        epplan_obs::render_stage_table(&self.stages)
    }
}

/// One-line degradation-chain summary: each attempt as
/// `solver ✗ reason` (failed) or `solver ✓` (succeeded), joined by
/// ` → `, e.g. `gap_based ✗ budget → greedy ✓`.
impl std::fmt::Display for SolveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.attempts.is_empty() {
            return f.write_str("(no attempts)");
        }
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                f.write_str(" → ")?;
            }
            match &a.outcome {
                AttemptOutcome::Succeeded(SolveStatus::Optimal) => {
                    write!(f, "{} ✓", a.solver)?
                }
                AttemptOutcome::Succeeded(SolveStatus::BestEffort) => {
                    write!(f, "{} ✓ best-effort", a.solver)?
                }
                AttemptOutcome::Failed { kind, .. } => {
                    write!(f, "{} ✗ {}", a.solver, kind.short_code())?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_accumulates_and_reports_winner() {
        let mut r = SolveReport::new();
        r.record_failure(
            "gap_based",
            FailureKind::BudgetExhausted,
            "deadline",
            Duration::from_millis(1),
        );
        r.record_success("greedy", SolveStatus::BestEffort, Duration::from_millis(2));
        assert!(r.degraded());
        assert_eq!(r.winner(), Some("greedy"));
        assert_eq!(r.final_status(), Some(SolveStatus::BestEffort));
        let s = r.to_string();
        assert_eq!(s, "gap_based ✗ budget → greedy ✓ best-effort", "{s}");
    }

    #[test]
    fn display_covers_every_outcome_shape() {
        let mut r = SolveReport::new();
        r.record_failure("exact", FailureKind::BadInput, "nan", Duration::ZERO);
        r.record_failure(
            "gap_based",
            FailureKind::NumericalInstability,
            "cycling",
            Duration::ZERO,
        );
        r.record_failure("flow", FailureKind::Infeasible, "cut", Duration::ZERO);
        r.record_success("greedy", SolveStatus::Optimal, Duration::ZERO);
        assert_eq!(
            r.to_string(),
            "exact ✗ input → gap_based ✗ numerical → flow ✗ infeasible → greedy ✓"
        );
    }

    #[test]
    fn cost_table_reports_missing_stage_data() {
        let r = SolveReport::new();
        assert!(r.cost_table().contains("no stage data"));
    }

    #[test]
    fn cost_table_renders_attached_stages() {
        let mut r = SolveReport::new();
        r.record_success("gap_based", SolveStatus::Optimal, Duration::ZERO);
        r.stages = vec![epplan_obs::StageStats {
            name: "lp.simplex".to_string(),
            calls: 1,
            wall: Duration::from_micros(500),
            iters: 17,
            peak_mem_bytes: 0,
            alloc_calls: 0,
        }];
        let t = r.cost_table();
        assert!(t.contains("lp.simplex"));
        assert!(t.contains("17"));
    }

    #[test]
    fn single_attempt_is_not_degraded() {
        let mut r = SolveReport::new();
        r.record_success("greedy", SolveStatus::Optimal, Duration::ZERO);
        assert!(!r.degraded());
        assert_eq!(r.winner(), Some("greedy"));
        assert_eq!(r.final_status(), Some(SolveStatus::Optimal));
    }

    #[test]
    fn empty_report_displays_gracefully() {
        let r = SolveReport::new();
        assert_eq!(r.to_string(), "(no attempts)");
        assert_eq!(r.final_status(), None);
        assert_eq!(r.winner(), None);
    }
}
