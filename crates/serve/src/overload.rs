//! Overload management: deterministic admission control, the brownout
//! ladder, poison-op quarantine bookkeeping, and ops-denominated
//! backoff for drift-triggered re-solves.
//!
//! ## Determinism contract
//!
//! Everything in this module is a *pure fold over recorded op
//! outcomes*. The daemon makes each overload decision live, writes
//! the decision into the op's WAL outcome record ([`OutcomeMeta`]),
//! and then folds the record into [`OverloadState`] via
//! [`OverloadState::absorb`] — the same fold recovery replays. Two
//! consequences:
//!
//! * Replay never re-decides. A brownout step that raced the SLO
//!   window live is reproduced from the recorded `level`, exactly.
//! * Any two daemons that have absorbed the same outcome records hold
//!   bit-identical `OverloadState`, regardless of `EPPLAN_THREADS`,
//!   wall-clock speed, or how many crash/restore cycles happened in
//!   between.
//!
//! The only wall-clock input is the SLO burn flag itself, and it is
//! recorded per op (`burn`) before it is folded. Admission staleness,
//! quarantine attempt counts, and re-solve backoff are denominated in
//! *ops* (the [`OverloadState::work_clock`]) and never read a clock.

use serde::{Deserialize, Serialize};

use epplan_solve::SolveBudget;

use crate::wal::{OutcomeMeta, OutcomeMode};

/// Deepest brownout level. The ladder, from healthy to most degraded:
///
/// * **0** — normal operation.
/// * **1** — per-op repair budgets halved.
/// * **2** — additionally, full re-solves switch from the gap-based
///   pipeline to budgeted LNS with the final `LocalSearch` polish
///   skipped (`LnsSolver::try_solve`, `polish: false`).
/// * **3** — additionally, the drift re-solve threshold is raised
///   4×, so background re-solves become rare.
pub const MAX_BROWNOUT_LEVEL: u8 = 3;

/// Work-clock cost charged, on top of `1 + retries`, for any op whose
/// outcome involved a full re-solve attempt (successful or not). A
/// re-solve is the expensive path; charging it several op-widths is
/// what makes the admission staleness bound respond to real load
/// while staying ops-denominated.
pub const RESOLVE_WORK_OPS: u64 = 4;

/// Cap on the exponential backoff shift for failed drift re-solves
/// (`2^min(failures, CAP)` ops).
const BACKOFF_MAX_SHIFT: u32 = 16;

/// Brownout controller knobs, parsed from `--brownout DOWN,UP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutKnobs {
    /// Consecutive SLO-burning ops before stepping one level down.
    pub down_after: u64,
    /// Consecutive healthy ops before stepping one level back up.
    pub up_after: u64,
}

/// Overload knobs. The all-`None` default reproduces the daemon's
/// pre-overload behavior exactly: nothing is shed, the ladder never
/// engages, and a wedged op retries forever across restores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Admission staleness bound, in work-clock ops. An op whose id
    /// lags the work clock by more than this is shed unexecuted.
    pub op_deadline_ops: Option<u64>,
    /// Brownout controller; requires SLO accounting to be on.
    pub brownout: Option<BrownoutKnobs>,
    /// Quarantine an op after this many attempts that each died
    /// mid-execution (op record with no outcome record).
    pub quarantine_after: Option<u32>,
}

/// Controller state — a pure function of the outcome records absorbed
/// so far. Serialized into snapshots (serde defaults keep v1
/// snapshots readable) and compared bit-for-bit in recovery tests.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadState {
    /// Ops-denominated progress clock: advances by at least the op id
    /// and additionally by the recorded cost of each executed op.
    /// `work_clock - id` is the staleness admission checks.
    #[serde(default)]
    pub work_clock: u64,
    /// Current brownout level, `0..=MAX_BROWNOUT_LEVEL`.
    #[serde(default)]
    pub level: u8,
    /// Consecutive executed ops recorded as SLO-burning.
    #[serde(default)]
    pub burn_streak: u64,
    /// Consecutive executed ops recorded as healthy.
    #[serde(default)]
    pub healthy_streak: u64,
    /// Consecutive failed drift-triggered re-solves.
    #[serde(default)]
    pub resolve_failures: u32,
    /// Op id before which drift re-solves are suppressed.
    #[serde(default)]
    pub resolve_backoff_until: u64,
}

impl OverloadState {
    /// How far the work clock has run ahead of this op's id. Ids are
    /// the stream's arrival order, so this is the queueing delay the
    /// op has already suffered, denominated in ops.
    pub fn staleness(&self, id: u64) -> u64 {
        self.work_clock.saturating_sub(id)
    }

    /// Whether a drift-triggered re-solve may be attempted for `id`
    /// (backoff from earlier failures has elapsed).
    pub fn backoff_clear(&self, id: u64) -> bool {
        id >= self.resolve_backoff_until
    }

    /// The brownout level that *would* be recorded after an executed
    /// op with this burn flag — prospective streaks, so the op that
    /// completes a streak carries the new level in its own record.
    pub fn decide_level(&self, burn: bool, knobs: &BrownoutKnobs) -> u8 {
        if burn {
            if self.burn_streak + 1 >= knobs.down_after && self.level < MAX_BROWNOUT_LEVEL {
                self.level + 1
            } else {
                self.level
            }
        } else if self.healthy_streak + 1 >= knobs.up_after && self.level > 0 {
            self.level - 1
        } else {
            self.level
        }
    }

    /// Fold one recorded outcome into the state. Shared verbatim by
    /// the live path and recovery replay — this function *is* the
    /// determinism contract.
    pub fn absorb(&mut self, meta: &OutcomeMeta) {
        match meta.mode {
            OutcomeMode::Shed | OutcomeMode::Quarantine => {
                // Not executed: the clock catches up to the id but no
                // work is charged, which is what lets a shedding
                // daemon drain its backlog.
                self.work_clock = self.work_clock.max(meta.id);
            }
            _ => {
                let cost = 1 + meta.retries as u64 + if meta.resolve_attempted() {
                    RESOLVE_WORK_OPS
                } else {
                    0
                };
                self.work_clock = self.work_clock.max(meta.id).saturating_add(cost - 1);
                if meta.burn {
                    self.burn_streak += 1;
                    self.healthy_streak = 0;
                } else {
                    self.healthy_streak += 1;
                    self.burn_streak = 0;
                }
                if meta.level != self.level {
                    self.level = meta.level;
                    self.burn_streak = 0;
                    self.healthy_streak = 0;
                }
                match meta.mode {
                    OutcomeMode::Resolve | OutcomeMode::RepairResolve => {
                        self.resolve_failures = 0;
                        self.resolve_backoff_until = 0;
                    }
                    _ if meta.rsfail => {
                        self.resolve_failures = self.resolve_failures.saturating_add(1);
                        let shift = self.resolve_failures.min(BACKOFF_MAX_SHIFT);
                        self.resolve_backoff_until = meta.id.saturating_add(1u64 << shift);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// `base` with both limits halved (floored at one iteration) — the
/// brownout level ≥ 1 repair budget. Unlimited budgets stay
/// unlimited; brownout cannot conjure a bound the operator never set.
pub fn shrink_budget(base: SolveBudget, level: u8) -> SolveBudget {
    if level == 0 {
        return base;
    }
    SolveBudget {
        time_limit: base.time_limit.map(|t| t / 2),
        max_iterations: base.max_iterations.map(|c| (c / 2).max(1)),
    }
}

/// The drift threshold in effect at `level`: raised 4× at the deepest
/// brownout level so background re-solves become rare under sustained
/// overload.
pub fn effective_drift_threshold(threshold: Option<u64>, level: u8) -> Option<u64> {
    threshold.map(|t| {
        if level >= MAX_BROWNOUT_LEVEL {
            t.saturating_mul(4)
        } else {
            t
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64, mode: OutcomeMode) -> OutcomeMeta {
        OutcomeMeta::plain(id, mode)
    }

    #[test]
    fn work_clock_charges_resolves_and_drains_on_shed() {
        let mut s = OverloadState::default();
        s.absorb(&meta(1, OutcomeMode::Repair));
        assert_eq!(s.work_clock, 1);
        assert_eq!(s.staleness(2), 0);

        // A full re-solve charges RESOLVE_WORK_OPS extra.
        s.absorb(&meta(2, OutcomeMode::Resolve));
        assert_eq!(s.work_clock, 2 + RESOLVE_WORK_OPS);

        // Retries are charged one op-width each.
        let mut m = meta(3, OutcomeMode::Repair);
        m.retries = 2;
        s.absorb(&m);
        // max(6, 3) + (1 + 2 retries) - 1 = 8.
        assert_eq!(s.work_clock, 8);
        assert!(s.staleness(4) > 0);

        // Shed ops charge nothing; a big id gap drains staleness.
        s.absorb(&meta(100, OutcomeMode::Shed));
        assert_eq!(s.work_clock, 100);
        assert_eq!(s.staleness(101), 0);
    }

    #[test]
    fn rejected_ops_charge_the_failed_resolve() {
        let mut s = OverloadState::default();
        s.absorb(&meta(1, OutcomeMode::Reject));
        // A rejection means the fallback full re-solve also failed.
        assert_eq!(s.work_clock, 1 + RESOLVE_WORK_OPS);
    }

    #[test]
    fn brownout_steps_down_then_back_up() {
        let knobs = BrownoutKnobs { down_after: 2, up_after: 3 };
        let mut s = OverloadState::default();

        // First burning op: streak 1 < 2, no step.
        assert_eq!(s.decide_level(true, &knobs), 0);
        let mut m = meta(1, OutcomeMode::Repair);
        m.burn = true;
        s.absorb(&m);

        // Second burning op completes the streak: step down, and the
        // absorbed level change resets both streaks.
        assert_eq!(s.decide_level(true, &knobs), 1);
        let mut m = meta(2, OutcomeMode::Repair);
        m.burn = true;
        m.level = 1;
        s.absorb(&m);
        assert_eq!(s.level, 1);
        assert_eq!(s.burn_streak, 0);

        // Three healthy ops step back up.
        for (i, id) in (3..6).enumerate() {
            let want = if i == 2 { 0 } else { 1 };
            assert_eq!(s.decide_level(false, &knobs), want);
            let mut m = meta(id, OutcomeMode::Repair);
            m.level = want;
            s.absorb(&m);
        }
        assert_eq!(s.level, 0);
    }

    #[test]
    fn level_is_capped_at_max() {
        let knobs = BrownoutKnobs { down_after: 1, up_after: 1 };
        let mut s = OverloadState::default();
        for id in 1..10 {
            let next = s.decide_level(true, &knobs);
            let mut m = meta(id, OutcomeMode::Repair);
            m.burn = true;
            m.level = next;
            s.absorb(&m);
        }
        assert_eq!(s.level, MAX_BROWNOUT_LEVEL);
    }

    #[test]
    fn replay_trusts_the_recorded_level_over_its_own_streaks() {
        // A fault suppressed the live step: the record says level 0
        // even though the streak says 1. The fold must follow the
        // record, or recovery would diverge from the live run.
        let knobs = BrownoutKnobs { down_after: 2, up_after: 2 };
        let mut s = OverloadState::default();
        for id in 1..=4 {
            let mut m = meta(id, OutcomeMode::Repair);
            m.burn = true;
            m.level = 0; // live step suppressed every time
            s.absorb(&m);
        }
        assert_eq!(s.level, 0);
        assert!(s.decide_level(true, &knobs) == 1, "streaks keep counting");
    }

    #[test]
    fn failed_resolves_back_off_exponentially_in_ops() {
        let mut s = OverloadState::default();
        let mut m = meta(10, OutcomeMode::Repair);
        m.rsfail = true;
        s.absorb(&m);
        assert_eq!(s.resolve_backoff_until, 12); // 10 + 2^1
        assert!(!s.backoff_clear(11));
        assert!(s.backoff_clear(12));

        let mut m = meta(12, OutcomeMode::Repair);
        m.rsfail = true;
        s.absorb(&m);
        assert_eq!(s.resolve_backoff_until, 16); // 12 + 2^2

        // A successful re-solve clears the backoff entirely.
        s.absorb(&meta(16, OutcomeMode::RepairResolve));
        assert_eq!(s.resolve_failures, 0);
        assert!(s.backoff_clear(17));
    }

    #[test]
    fn shrink_budget_halves_limits_but_leaves_unlimited_alone() {
        let b = SolveBudget { time_limit: None, max_iterations: Some(7) };
        assert_eq!(shrink_budget(b, 0).max_iterations, Some(7));
        assert_eq!(shrink_budget(b, 1).max_iterations, Some(3));
        assert_eq!(
            shrink_budget(SolveBudget { time_limit: None, max_iterations: Some(1) }, 2)
                .max_iterations,
            Some(1)
        );
        assert_eq!(shrink_budget(SolveBudget::UNLIMITED, 3).max_iterations, None);
    }

    #[test]
    fn drift_threshold_is_raised_only_at_the_deepest_level() {
        assert_eq!(effective_drift_threshold(Some(100), 0), Some(100));
        assert_eq!(effective_drift_threshold(Some(100), 2), Some(100));
        assert_eq!(effective_drift_threshold(Some(100), 3), Some(400));
        assert_eq!(effective_drift_threshold(None, 3), None);
    }

    #[test]
    fn state_serializes_with_defaults_for_old_snapshots() {
        let s: OverloadState = serde_json::from_str("{}").unwrap();
        assert_eq!(s, OverloadState::default());
        let mut s2 = OverloadState::default();
        s2.absorb(&meta(5, OutcomeMode::Resolve));
        let json = serde_json::to_string(&s2).unwrap();
        let back: OverloadState = serde_json::from_str(&json).unwrap();
        assert_eq!(s2, back);
    }
}
