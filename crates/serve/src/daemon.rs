//! The serving daemon: certified plan state + the per-op processing
//! ladder (repair → retry with doubled budget → full re-solve →
//! typed rejection), WAL/snapshot durability, crash recovery, and
//! the overload-management layer (admission control, the brownout
//! ladder, poison-op quarantine — see [`crate::overload`]).
//!
//! ## Invariant
//!
//! The *visible* plan — the one a caller observes via
//! [`Daemon::plan`] or any [`OpResponse`] — is certified at all
//! times. An op is applied in place under an undo journal
//! ([`IncrementalPlanner::try_apply_in_place`]) and kept only after
//! [`certify_delta`] (or, for a re-solve, the certificate the solver
//! built its plan with) confirms zero hard violations; a failed repair
//! or re-solve rolls the state back to the exact previous certified
//! `(instance, plan)` and rejects the op with a typed error. Every snapshot first re-certifies the whole
//! state from scratch.
//!
//! ## Wall-clock use
//!
//! This module reads `Instant` for two purposes only: per-op latency
//! histograms and throughput reporting. No *planning decision* except
//! explicit wall-clock budgets (`time_limit`) depends on it, and the
//! outcome of every budget race is recorded in the WAL as an
//! [`OutcomeMode`], which is what replay follows — so recovery is
//! deterministic even when the original run raced a deadline.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use epplan_core::certify::{certify, certify_delta, certify_tally};
use epplan_core::incremental::{IncrementalPlanner, SequencedOp};
use epplan_core::model::Instance;
use epplan_core::plan::{dif, Plan};
use epplan_core::solver::{GapBasedSolver, GepcSolver};
use epplan_obs::{HistogramSnapshot, WindowConfig, WindowedHistogram};
use epplan_solve::{CertTally, Certificate, FailureKind, SolveBudget, SolveError};

use crate::overload::{self, OverloadConfig, OverloadState};
use crate::proto::{OpResponse, ServeSummary};
use crate::wal::{
    self, BaseId, CheckpointRef, OutcomeMeta, OutcomeMode, SnapshotRef, WalRecord, WalWriter,
};
use crate::ServeError;

const STAGE: &str = "serve.daemon";

/// Serving knobs. Budgets use plain [`SolveBudget`]; for *provably*
/// convergent crash recovery prefer iteration caps (or no limit) over
/// wall-clock limits — time-based budgets still recover correctly
/// (outcome modes are recorded), but identical re-runs from scratch
/// are only guaranteed when budget decisions are clock-free.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Budget for one incremental repair attempt (before escalation).
    pub op_budget: SolveBudget,
    /// Budget for a full re-solve (fallback and drift-triggered).
    pub resolve_budget: SolveBudget,
    /// Budget-doubling retries after a retryable exhaustion.
    pub max_retries: u32,
    /// Accumulated `dif` that triggers a certified full re-solve.
    /// `None` disables drift-triggered re-solves.
    pub drift_threshold: Option<u64>,
    /// Checkpoint (or compact) after every this many processed ops.
    /// `None` keeps only the base image written at start (WAL grows
    /// unboundedly).
    pub snapshot_every: Option<u64>,
    /// Test hook: `abort()` the process after fully processing this
    /// many ops — a deterministic stand-in for `SIGKILL`. A restored
    /// session counts from its last snapshot point, replayed ops
    /// included.
    pub crash_after_ops: Option<u64>,
    /// SLO target for the *windowed* p99 op latency, microseconds.
    /// While the windowed p99 exceeds this, the daemon counts burn
    /// (`serve.slo.burning_ops`) and flags per-op acks. `None`
    /// disables SLO accounting.
    pub slo_p99_us: Option<u64>,
    /// Approximate number of recent ops the latency window covers
    /// (ring of 8 count-rotated slots; see `epplan_obs::window`).
    pub slo_window_ops: u64,
    /// Overload knobs: admission deadline, brownout ladder,
    /// quarantine threshold. All-`None` (the default) disables the
    /// overload layer entirely.
    pub overload: OverloadConfig,
    /// Test hook: `abort()` *inside* the processing of this op id —
    /// after its op record is durable but before any outcome. Models
    /// an op that reproducibly wedges the repair path.
    pub crash_in_op: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            op_budget: SolveBudget::UNLIMITED,
            resolve_budget: SolveBudget::UNLIMITED,
            max_retries: 3,
            drift_threshold: None,
            snapshot_every: Some(1000),
            crash_after_ops: None,
            slo_p99_us: None,
            slo_window_ops: 1024,
            overload: OverloadConfig::default(),
            crash_in_op: None,
        }
    }
}

/// Monotonic per-session counters, exposed for benchmarks and tests.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Ops repaired incrementally (status `applied`).
    pub applied: u64,
    /// Ops that ended in a certified full re-solve (status `resolved`).
    pub resolved: u64,
    /// Ops rejected with a typed error.
    pub rejected: u64,
    /// Duplicate ids skipped.
    pub skipped: u64,
    /// Budget-escalation retries across all ops.
    pub retries: u64,
    /// Full re-solves (fallback + drift-triggered).
    pub resolves: u64,
    /// Snapshots written: the base image at start, then one
    /// checkpoint or compaction per snapshot point.
    pub snapshots: u64,
    /// Compactions: snapshot points that wrote a new base image and
    /// truncated the WAL.
    pub compactions: u64,
    /// Ops processed while the windowed p99 exceeded the SLO target.
    pub slo_burning_ops: u64,
    /// Ops shed by admission control (status `shed`).
    pub shed: u64,
    /// Poison ops quarantined to the dead-letter log.
    pub quarantined: u64,
    /// Brownout ladder transitions (up and down both count).
    pub brownout_steps: u64,
    /// Per-op latencies in microseconds, insertion order.
    pub latencies_us: Vec<u64>,
}

/// `base` doubled `attempt` times (both limits), saturating.
fn escalated(base: SolveBudget, attempt: u32) -> SolveBudget {
    if attempt == 0 {
        return base;
    }
    let factor = 1u64 << attempt.min(16);
    SolveBudget {
        time_limit: base.time_limit.map(|t| t.saturating_mul(factor as u32)),
        max_iterations: base.max_iterations.map(|c| c.saturating_mul(factor)),
    }
}

/// A long-lived, crash-recoverable incremental planning session.
#[derive(Debug)]
pub struct Daemon {
    instance: Instance,
    plan: Plan,
    /// The certifier's running totals of the visible plan, `U_P`
    /// included: patched by each certified delta, recounted at every
    /// snapshot point and by every full solve.
    tally: CertTally,
    /// Highest op id folded into the visible plan.
    last_op_id: u64,
    /// Accumulated `dif` since the last full solve.
    drift: u64,
    /// Non-skipped, non-quarantined ops processed, counted from the
    /// last snapshot point before a restore (replayed ops included),
    /// so it drives the snapshot cadence and the crash hook the same
    /// in a restored session — *not* recovery, which uses `last_op_id`.
    processed: u64,
    wal: Option<WalWriter>,
    state_dir: Option<PathBuf>,
    config: ServeConfig,
    stats: ServeStats,
    started: Instant,
    /// Sliding window over recent per-op latencies (serial, count-
    /// rotated — see the determinism note on `epplan_obs::window`).
    window: WindowedHistogram,
    /// Whether the windowed p99 currently exceeds the SLO target.
    slo_burning: bool,
    /// `last_op_id` at the most recent snapshot (0 before any).
    snapshot_op: u64,
    /// The base image the WAL and checkpoints extend.
    base: BaseId,
    /// Size of the base image file; the WAL is compacted once it has
    /// grown to this many bytes.
    base_bytes: u64,
    /// Overload-controller state: a pure fold over the outcome
    /// records absorbed so far (see `crate::overload`).
    overload: OverloadState,
}

/// Stable name of the per-op latency histogram. Both constants are
/// symbol-resolved against the `epplan-lint` stable-name registries
/// (`obs/stable-names`), so a drifting rename fails the lint gate.
const OP_LATENCY_HIST: &str = "serve.op_latency_us";
/// Stable name of the sliding latency window over recent ops.
const OP_LATENCY_WINDOW: &str = "serve.window.op_latency_us";

/// The daemon's latency window, keyed by the registered stable name.
fn latency_window(config: &ServeConfig) -> WindowedHistogram {
    epplan_obs::window(
        OP_LATENCY_WINDOW,
        WindowConfig::covering(config.slo_window_ops.max(1)),
    )
}

impl Daemon {
    /// Solves `instance` from scratch, certifies, writes the initial
    /// snapshot (id 0) and a fresh WAL when `state_dir` is given.
    pub fn start(
        instance: Instance,
        config: ServeConfig,
        state_dir: Option<&Path>,
    ) -> Result<Daemon, ServeError> {
        let (plan, tally) = Self::full_solve(&instance, config.resolve_budget)?;
        let window = latency_window(&config);
        let mut daemon = Daemon {
            instance,
            plan,
            tally,
            last_op_id: 0,
            drift: 0,
            processed: 0,
            wal: None,
            state_dir: state_dir.map(Path::to_path_buf),
            config,
            stats: ServeStats::default(),
            started: Instant::now(),
            window,
            slo_burning: false,
            snapshot_op: 0,
            base: BaseId::default(),
            base_bytes: 0,
            overload: OverloadState::default(),
        };
        if let Some(dir) = daemon.state_dir.clone() {
            fs::create_dir_all(&dir).map_err(|e| {
                ServeError::io(format!("creating state dir {}: {e}", dir.display()))
            })?;
            daemon.write_snapshot()?; // the base image and a fresh WAL
        }
        daemon.publish_gauges();
        Ok(daemon)
    }

    /// Recovers a session from `state_dir`: loads the base image and,
    /// when a checkpoint of that base exists, rebuilds the instance at
    /// the checkpoint from the logged ops' instance transitions and
    /// takes the plan from the checkpoint. The restored state is
    /// re-certified (disk is never trusted); then the rest of the WAL
    /// is replayed honoring recorded [`OutcomeMeta`]s, each replayed
    /// repair certified against the tally like a live one, and a torn
    /// tail op (logged but never completed) is finished live — or, when
    /// the tail op has already died `--quarantine-after` times,
    /// quarantined to the dead-letter log instead.
    pub fn restore(config: ServeConfig, state_dir: &Path) -> Result<Daemon, ServeError> {
        let mut sp = epplan_obs::span("serve.restore");
        sp.add_iters(1);
        let base = wal::read_base(state_dir)?.ok_or_else(|| {
            ServeError::corrupt(format!("no snapshot in {}", state_dir.display()))
        })?;
        // A checkpoint of an older base is left over from a crash
        // inside a compaction: the new base supersedes it.
        let checkpoint = wal::read_checkpoint(state_dir)?.filter(|c| c.base == base.id);
        let wal_path = state_dir.join(wal::WAL_FILE);
        let (records, intact) = wal::read_wal_intact(&wal_path)?;
        let logged = pair_records(records)?;
        let snap = base.snapshot;
        let mut instance = snap.instance;
        // Deserialization skips every constructor check: an intact
        // frame can still carry a ragged utility matrix or a plan that
        // does not fit the instance, and either would panic below. The
        // instance check admits every state accepted ops can reach.
        let validate = |instance: &Instance| {
            instance
                .validate_reachable()
                .map_err(|e| ServeError::corrupt(format!("restored snapshot instance: {e}")))
        };
        validate(&instance)?;
        let (plan, last_op_id, drift, overload) = match checkpoint {
            Some(c) => {
                replay_transitions(&mut instance, &logged, snap.last_op_id, c.last_op_id)?;
                validate(&instance)?;
                (c.plan, c.last_op_id, c.drift, c.overload)
            }
            None => (snap.plan, snap.last_op_id, snap.drift, snap.overload),
        };
        if !plan.is_consistent(&instance) {
            return Err(ServeError::corrupt(
                "restored snapshot plan does not fit its instance or miscounts attendance",
            ));
        }
        let window = latency_window(&config);
        let mut daemon = Daemon {
            instance,
            plan,
            tally: CertTally::default(),
            last_op_id,
            drift,
            processed: 0,
            wal: None,
            state_dir: Some(state_dir.to_path_buf()),
            config,
            stats: ServeStats::default(),
            started: Instant::now(),
            window,
            slo_burning: false,
            snapshot_op: last_op_id,
            base: base.id,
            base_bytes: base.bytes,
            overload,
        };
        let (cert, tally) = certify_tally(&daemon.instance, &daemon.plan);
        if !cert.hard_ok() {
            return Err(ServeError::corrupt(format!(
                "restored snapshot failed certification: {cert}"
            )));
        }
        daemon.tally = tally;
        // Only the final record may lack an outcome (crash mid-op).
        let n_logged = logged.len();
        let mut tail: Option<(SequencedOp, u32)> = None;
        for (i, entry) in logged.into_iter().enumerate() {
            if entry.op.id <= daemon.last_op_id {
                continue; // already folded into the base or checkpoint
            }
            match entry.outcome {
                Some(m) => daemon.replay(&entry.op, &m)?,
                None if i + 1 == n_logged => tail = Some((entry.op, entry.attempts)),
                None => {
                    return Err(ServeError::corrupt(format!(
                        "WAL op {} has no outcome but is not the final record",
                        entry.op.id
                    )));
                }
            }
        }
        daemon.wal = Some(WalWriter::open_append(&wal_path, intact)?);
        if let Some((sop, attempts)) = tail {
            let poisoned = daemon
                .config
                .overload
                .quarantine_after
                .is_some_and(|q| attempts >= q);
            if poisoned {
                daemon.quarantine(&sop, attempts)?;
            } else {
                // Durably logged, never completed: try again live.
                // A fresh op record goes in first, so if this attempt
                // also dies the next restore sees one more marker.
                daemon.log_op(&sop)?;
                if daemon.config.crash_in_op == Some(sop.id) {
                    std::process::abort();
                }
                daemon.run_admitted(&sop, Instant::now())?;
            }
        }
        daemon.publish_gauges();
        Ok(daemon)
    }

    /// Processes one op end to end: duplicate check, admission
    /// control, WAL append, the repair/re-solve ladder, outcome
    /// record, periodic snapshot. Returns the response to acknowledge
    /// to the client; a returned error (WAL/snapshot I/O) is fatal to
    /// the session — the plan state is still certified, but
    /// durability is gone.
    pub fn process(&mut self, sop: &SequencedOp) -> Result<OpResponse, ServeError> {
        let t0 = Instant::now();
        let mut sp = epplan_obs::span("serve.op");
        sp.add_iters(1);
        epplan_obs::counter_add("serve.ops", 1);
        if sop.id <= self.last_op_id {
            self.stats.skipped += 1;
            epplan_obs::counter_add("serve.ops_skipped", 1);
            return Ok(self.response(sop.id, "skipped", 0, 0, None));
        }
        if self.admission_sheds(sop.id) {
            return self.shed(sop);
        }
        self.log_op(sop)?;
        if self.config.crash_in_op == Some(sop.id) {
            // Deterministic poison op: dies after its op record is
            // durable but before any outcome — exactly the shape the
            // quarantine attempt counter is built to recognize.
            std::process::abort();
        }
        self.run_admitted(sop, t0)
    }

    /// Whether admission control sheds op `id`: its queueing delay
    /// (work clock minus id, both ops-denominated — no wall clock)
    /// exceeds the configured staleness bound. Fault site
    /// `serve.admission.decide` models a failed decision; it fails
    /// closed (shed), because shedding is always safe and executing a
    /// stale op is not.
    fn admission_sheds(&self, id: u64) -> bool {
        let Some(deadline) = self.config.overload.op_deadline_ops else {
            return false;
        };
        if epplan_fault::point("serve.admission.decide").is_some() {
            return true;
        }
        self.overload.staleness(id) > deadline
    }

    /// Sheds one op: the `Shed` outcome is durable *before* the
    /// decision is acted on, so `--restore` retraces it bit-
    /// identically instead of re-deciding admission.
    fn shed(&mut self, sop: &SequencedOp) -> Result<OpResponse, ServeError> {
        let stale = self.overload.staleness(sop.id);
        let meta = OutcomeMeta {
            level: self.overload.level,
            ..OutcomeMeta::plain(sop.id, OutcomeMode::Shed)
        };
        self.log_op(sop)?;
        self.log_outcome(&meta)?;
        self.overload.absorb(&meta);
        self.last_op_id = sop.id;
        self.stats.shed += 1;
        epplan_obs::counter_add("serve.ops_shed", 1);
        self.processed += 1;
        if self.at_snapshot_point() {
            self.write_snapshot()?;
        }
        let resp = self.response(
            sop.id,
            "shed",
            0,
            0,
            Some(format!(
                "admission: stale by {stale} ops (deadline {} ops)",
                self.config.overload.op_deadline_ops.unwrap_or(0)
            )),
        );
        if let Some(n) = self.config.crash_after_ops {
            if self.processed >= n {
                std::process::abort();
            }
        }
        Ok(resp)
    }

    /// Everything after an op is admitted and durably logged: the
    /// execute ladder, latency/SLO accounting, the brownout decision,
    /// the outcome record, the controller fold, and the periodic
    /// snapshot. Shared verbatim by [`Daemon::process`] and the
    /// torn-tail re-attempt in [`Daemon::restore`], so both paths
    /// record (and therefore replay) identically.
    fn run_admitted(&mut self, sop: &SequencedOp, t0: Instant) -> Result<OpResponse, ServeError> {
        let (mode, rsfail, mut resp) = self.execute(sop);
        let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.stats.latencies_us.push(us);
        epplan_obs::observe(OP_LATENCY_HIST, us);
        self.window.observe(us);
        self.update_slo();
        let burn = self.slo_burning;
        let level = self.decide_brownout(burn);
        let meta = OutcomeMeta {
            id: sop.id,
            mode,
            retries: resp.retries,
            burn,
            level,
            rsfail,
        };
        self.log_outcome(&meta)?;
        self.overload.absorb(&meta);
        self.publish_gauges();
        self.processed += 1;
        if self.at_snapshot_point() {
            self.write_snapshot()?;
        }
        resp.slo_burning = self.slo_burning;
        if let Some(n) = self.config.crash_after_ops {
            if self.processed >= n {
                // Deterministic SIGKILL stand-in: no unwinding, no
                // flushes beyond what already happened.
                std::process::abort();
            }
        }
        Ok(resp)
    }

    /// Appends (and flushes) `sop`'s op record to the WAL, if any.
    fn log_op(&mut self, sop: &SequencedOp) -> Result<(), ServeError> {
        let Some(w) = self.wal.as_mut() else {
            return Ok(());
        };
        let _sp = epplan_obs::span("serve.wal");
        w.append_op(sop)
    }

    /// Appends (and flushes) an outcome record to the WAL, if any.
    fn log_outcome(&mut self, meta: &OutcomeMeta) -> Result<(), ServeError> {
        let Some(w) = self.wal.as_mut() else {
            return Ok(());
        };
        let _sp = epplan_obs::span("serve.wal");
        w.append_outcome(meta)
    }

    /// The brownout level to record for the op that just executed.
    /// Streak accounting is prospective (see
    /// [`OverloadState::decide_level`]); fault site
    /// `serve.brownout.step` suppresses a pending transition — the
    /// *recorded* level is what keeps live state and replay agreeing
    /// even then.
    fn decide_brownout(&mut self, burn: bool) -> u8 {
        let Some(knobs) = self.config.overload.brownout else {
            return self.overload.level;
        };
        let next = self.overload.decide_level(burn, &knobs);
        if next == self.overload.level {
            return next;
        }
        if epplan_fault::point("serve.brownout.step").is_some() {
            return self.overload.level;
        }
        self.stats.brownout_steps += 1;
        epplan_obs::counter_add("serve.brownout.steps", 1);
        next
    }

    /// Quarantines the poison op `sop` during restore: the dead-
    /// letter record goes to `dead_letter.log` first (never lose an
    /// exported op), then the `Quarantine` outcome makes the skip
    /// durable in the WAL. A crash between the two appends can
    /// duplicate the dead-letter record — benign — but can never skip
    /// an op without exporting it.
    fn quarantine(&mut self, sop: &SequencedOp, attempts: u32) -> Result<(), ServeError> {
        let Some(dir) = self.state_dir.clone() else {
            return Err(ServeError::io(
                "quarantine requires a state directory".to_string(),
            ));
        };
        let rec = wal::DeadLetterRec {
            id: sop.id,
            attempts,
            op: sop.clone(),
        };
        wal::append_dead_letter(&dir, &rec)?;
        let meta = OutcomeMeta {
            level: self.overload.level,
            ..OutcomeMeta::plain(sop.id, OutcomeMode::Quarantine)
        };
        self.log_outcome(&meta)?;
        self.overload.absorb(&meta);
        self.last_op_id = sop.id;
        self.stats.quarantined += 1;
        epplan_obs::counter_add("serve.ops_quarantined", 1);
        Ok(())
    }

    /// The per-op ladder. Infallible by construction: every branch
    /// ends in a certified state or an explicit rejection that keeps
    /// the previous certified plan. The middle `bool` is the `rsfail`
    /// flag: a drift-triggered re-solve was attempted and failed (the
    /// outcome stays `Repair`, but backoff must advance).
    fn execute(&mut self, sop: &SequencedOp) -> (OutcomeMode, bool, OpResponse) {
        let op = &sop.op;
        let mut retries = 0u32;
        let repair_failure: String;
        // Brownout level ≥ 1: repair budgets are halved before
        // escalation. The level is part of the controller state, so
        // replay (which re-runs this ladder only via the recorded
        // modes) never needs to re-derive the shrink.
        let repair_budget = overload::shrink_budget(self.config.op_budget, self.overload.level);
        loop {
            // A failed attempt leaves the state as it was.
            let attempt = match epplan_fault::point("serve.op.ingest") {
                Some(action) => Err(RepairError::Failed(SolveError::from_fault(
                    STAGE,
                    "serve.op.ingest",
                    action,
                ))),
                None => self.certified_repair(sop, escalated(repair_budget, retries)),
            };
            match attempt {
                Ok(op_dif) => {
                    // Drift-triggered background re-solve, gated by the
                    // ops-denominated backoff from earlier failures
                    // (exponential in op ids, no clock).
                    let mut rsfail = false;
                    if self.drift_exceeded() && self.overload.backoff_clear(sop.id) {
                        match self.resolve_in_place() {
                            Ok(()) => {
                                self.stats.resolved += 1;
                                epplan_obs::counter_add("serve.ops_resolved", 1);
                                self.publish_gauges();
                                return (
                                    OutcomeMode::RepairResolve,
                                    false,
                                    self.response(sop.id, "resolved", op_dif, retries, None),
                                );
                            }
                            Err(_) => rsfail = true,
                        }
                    }
                    self.stats.applied += 1;
                    epplan_obs::counter_add("serve.ops_applied", 1);
                    self.publish_gauges();
                    return (
                        OutcomeMode::Repair,
                        rsfail,
                        self.response(sop.id, "applied", op_dif, retries, None),
                    );
                }
                Err(RepairError::Uncertified(cert)) => {
                    repair_failure = format!("repair rejected by certification: {cert}");
                    break;
                }
                Err(RepairError::Failed(e)) => {
                    if e.kind == FailureKind::BadInput {
                        return self.reject_bad_input(sop.id, retries, &e);
                    }
                    if e.is_retryable() && retries < self.config.max_retries {
                        retries += 1;
                        self.stats.retries += 1;
                        epplan_obs::counter_add("serve.retries", 1);
                        continue;
                    }
                    repair_failure = e.to_string();
                    break;
                }
            }
        }
        // The repair can fail before it validated the op (an exhausted
        // budget, an ingest fault): a malformed op must not reach the
        // instance.
        if let Err(e) = IncrementalPlanner::validate_op(&self.instance, op) {
            return self.reject_bad_input(sop.id, retries, &e);
        }
        // Graceful degradation: rebuild the plan from scratch on the
        // post-op instance; keep it only if it certifies.
        let transition = IncrementalPlanner::apply_to_instance_in_place(&mut self.instance, op);
        match Self::full_solve(&self.instance, self.config.resolve_budget) {
            Ok((new_plan, tally)) => {
                let op_dif = dif(&self.plan, &new_plan) as u64;
                self.plan = new_plan;
                self.tally = tally;
                self.drift = 0;
                self.last_op_id = sop.id;
                self.stats.resolved += 1;
                self.stats.resolves += 1;
                epplan_obs::counter_add("serve.ops_resolved", 1);
                epplan_obs::counter_add("serve.resolves", 1);
                self.publish_gauges();
                (
                    OutcomeMode::Resolve,
                    false,
                    self.response(sop.id, "resolved", op_dif, retries, Some(repair_failure)),
                )
            }
            Err(resolve_failure) => {
                transition.rollback(&mut self.instance);
                self.last_op_id = sop.id;
                self.stats.rejected += 1;
                epplan_obs::counter_add("serve.ops_rejected", 1);
                (
                    OutcomeMode::Reject,
                    false,
                    self.response(
                        sop.id,
                        "rejected",
                        0,
                        retries,
                        Some(format!(
                            "repair failed ({repair_failure}); re-solve failed ({resolve_failure})"
                        )),
                    ),
                )
            }
        }
    }

    /// Rejects a malformed op: no amount of re-solving helps. Advances
    /// the cursor and keeps the certified plan.
    fn reject_bad_input(
        &mut self,
        id: u64,
        retries: u32,
        e: &SolveError,
    ) -> (OutcomeMode, bool, OpResponse) {
        self.last_op_id = id;
        self.stats.rejected += 1;
        epplan_obs::counter_add("serve.ops_rejected", 1);
        (
            OutcomeMode::Reject,
            false,
            self.response(id, "rejected", 0, retries, Some(e.to_string())),
        )
    }

    /// The certified-repair step live ops and WAL replay share: applies
    /// `sop` in place under `budget`, certifies the delta against the
    /// tally, and either folds the op in — the tally patched, its `dif`
    /// added to drift and returned — or rolls the state back.
    fn certified_repair(
        &mut self,
        sop: &SequencedOp,
        budget: SolveBudget,
    ) -> Result<u64, RepairError> {
        let journal = IncrementalPlanner
            .try_apply_in_place(&mut self.instance, &mut self.plan, &sop.op, budget)
            .map_err(RepairError::Failed)?;
        let cert = certify_delta(
            &self.instance,
            &self.plan,
            &sop.op,
            journal.plan(),
            &mut self.tally,
        );
        if !cert.hard_ok() {
            journal.rollback(&mut self.instance, &mut self.plan);
            return Err(RepairError::Uncertified(cert));
        }
        let op_dif = cert.dif.unwrap_or(0) as u64;
        self.drift += op_dif;
        self.last_op_id = sop.id;
        Ok(op_dif)
    }

    /// Re-applies one WAL record during recovery, following the
    /// recorded decision instead of re-deciding (budget escalation
    /// and drift triggers are not re-derivable after a crash).
    fn replay(&mut self, sop: &SequencedOp, meta: &OutcomeMeta) -> Result<(), ServeError> {
        match meta.mode {
            OutcomeMode::Repair => self.replay_repair(sop)?,
            OutcomeMode::RepairResolve => {
                self.replay_repair(sop)?;
                self.resolve_in_place()?;
            }
            OutcomeMode::Resolve => {
                // The re-solve replaces the plan, so the transition is
                // never undone.
                let _ = IncrementalPlanner::apply_to_instance_in_place(&mut self.instance, &sop.op);
                self.last_op_id = sop.id;
                self.resolve_in_place()?;
            }
            OutcomeMode::Reject | OutcomeMode::Shed | OutcomeMode::Quarantine => {
                self.last_op_id = sop.id;
            }
        }
        // The controller fold is driven by the recorded fields — the
        // same absorb the live run applied after writing the record.
        self.overload.absorb(meta);
        // The op counts toward the snapshot cadence as it did live, so
        // the restored session's snapshot points fall on the
        // uninterrupted session's ops. A replayed one recounts `U_P` as
        // the live one did before its write (which may have died), and
        // persists nothing: the WAL already holds the state.
        if meta.mode != OutcomeMode::Quarantine {
            self.processed += 1;
            if self.at_snapshot_point() {
                self.audit()?;
            }
        }
        Ok(())
    }

    /// A logged repair is certified op by op like a live one; one that
    /// no longer certifies means the log does not describe this state.
    fn replay_repair(&mut self, sop: &SequencedOp) -> Result<(), ServeError> {
        match self.certified_repair(sop, SolveBudget::UNLIMITED) {
            Ok(_) => Ok(()),
            Err(RepairError::Failed(e)) => Err(ServeError::solve(
                e.kind,
                format!("replaying op {}: {}", sop.id, e.message),
            )),
            Err(RepairError::Uncertified(cert)) => Err(ServeError::corrupt(format!(
                "replayed op {} failed certification: {cert}",
                sop.id
            ))),
        }
    }

    /// Full re-solve of the *current* instance; the result replaces
    /// the plan only on success (and it is certified by
    /// [`Daemon::full_solve`]). Resets drift.
    fn resolve_in_place(&mut self) -> Result<(), ServeError> {
        let (plan, tally) = Self::full_solve(&self.instance, self.config.resolve_budget)?;
        self.plan = plan;
        self.tally = tally;
        self.drift = 0;
        self.stats.resolves += 1;
        epplan_obs::counter_add("serve.resolves", 1);
        Ok(())
    }

    /// Solves `instance` from scratch, returning the plan with the
    /// certifier tally (`U_P` included) of the certificate the solve
    /// built it with. Degrades to the solver's partial (fallback) plan
    /// when one exists, but *never* returns a plan its certificate
    /// rejects. Every brownout level runs the same gap-based pipeline,
    /// so replay needs no record of the level a re-solve ran at.
    fn full_solve(
        instance: &Instance,
        budget: SolveBudget,
    ) -> Result<(Plan, CertTally), ServeError> {
        let mut sp = epplan_obs::span("serve.resolve");
        sp.add_iters(1);
        let solution = match GapBasedSolver::default().try_solve(instance, budget) {
            Ok(s) => s,
            Err(e) => match e.partial {
                Some(best_effort) => best_effort,
                None => {
                    return Err(ServeError::solve(
                        e.kind,
                        format!("full solve failed: {}", e.message),
                    ));
                }
            },
        };
        if !solution.certified() {
            let cert = solution.report.certificate.unwrap_or_default();
            return Err(ServeError::solve(
                FailureKind::Infeasible,
                format!("full solve produced an uncertifiable plan: {cert}"),
            ));
        }
        Ok((solution.plan, solution.tally))
    }

    /// Whether the op just counted in `processed` ends at a snapshot
    /// point.
    fn at_snapshot_point(&self) -> bool {
        self.config
            .snapshot_every
            .is_some_and(|every| every > 0 && self.processed.is_multiple_of(every))
    }

    fn drift_exceeded(&self) -> bool {
        overload::effective_drift_threshold(self.config.drift_threshold, self.overload.level)
            .is_some_and(|t| self.drift >= t)
    }

    /// A snapshot point: audits the state (restarting the tally from
    /// the recount), then, with a state dir, persists it atomically:
    /// the base image (and a fresh WAL) at start, afterwards a
    /// checkpoint — or a compaction, once the WAL since the base has
    /// grown to the base image's size. Called at start and every
    /// `snapshot_every` ops.
    ///
    /// Nothing reaches disk before the whole state passes the
    /// from-scratch [`certify`] and its recount matches the delta
    /// certifier's tally; either failure is an `Infeasible` error.
    fn write_snapshot(&mut self) -> Result<(), ServeError> {
        let mut sp = epplan_obs::span("serve.snapshot");
        sp.add_iters(1);
        // Every snapshot point recounts `U_P`, persisted or not, so the
        // responses depend only on the op stream and `snapshot_every`.
        self.audit()?;
        let Some(dir) = self.state_dir.clone() else {
            return Ok(());
        };
        match self.wal.as_mut() {
            // Only a starting session has no WAL yet.
            None => self.write_base(&dir)?,
            Some(w) => {
                w.sync()?;
                if w.bytes() >= self.base_bytes {
                    self.compact(&dir)?;
                } else {
                    wal::write_checkpoint(
                        &dir,
                        &CheckpointRef {
                            base: self.base,
                            last_op_id: self.last_op_id,
                            drift: self.drift,
                            overload: &self.overload,
                            plan: &self.plan,
                        },
                    )?;
                }
            }
        }
        self.snapshot_op = self.last_op_id;
        self.stats.snapshots += 1;
        epplan_obs::counter_add("serve.snapshots", 1);
        Ok(())
    }

    /// Replaces the base image with the current state and truncates
    /// the WAL, which bounds both restore replay and disk use at about
    /// twice the base image.
    fn compact(&mut self, dir: &Path) -> Result<(), ServeError> {
        let mut sp = epplan_obs::span("serve.compact");
        sp.add_iters(1);
        self.write_base(dir)?;
        self.stats.compactions += 1;
        epplan_obs::counter_add("serve.compactions", 1);
        Ok(())
    }

    /// Writes the base image from the live state, drops the
    /// checkpoint of the previous base, and starts an empty WAL. A
    /// crash between the steps is benign: replay skips ops at or below
    /// the base's `last_op_id`, and restore ignores a checkpoint of
    /// another base.
    fn write_base(&mut self, dir: &Path) -> Result<(), ServeError> {
        let written = wal::write_base(
            dir,
            &SnapshotRef {
                version: wal::FORMAT_VERSION,
                last_op_id: self.last_op_id,
                drift: self.drift,
                overload: &self.overload,
                instance: &self.instance,
                plan: &self.plan,
            },
        )?;
        wal::remove_checkpoint(dir)?;
        self.wal = Some(WalWriter::create(&dir.join(wal::WAL_FILE))?);
        self.base = BaseId {
            last_op_id: self.last_op_id,
            checksum: written.checksum,
        };
        self.base_bytes = written.bytes;
        Ok(())
    }

    /// The snapshot audit: re-certifies the whole state from scratch,
    /// checks the recounted attendance against the tally the delta
    /// certifier maintained, and restarts the tally from the recount
    /// (which also resets the rounding `U_P` accumulates op by op).
    fn audit(&mut self) -> Result<(), ServeError> {
        let (cert, tally) = certify_tally(&self.instance, &self.plan);
        if !cert.hard_ok() {
            let violations: Vec<String> =
                cert.hard_violations.iter().map(ToString::to_string).collect();
            return Err(ServeError::solve(
                FailureKind::Infeasible,
                format!(
                    "snapshot audit rejected the state: {cert}: {}",
                    violations.join("; ")
                ),
            ));
        }
        if tally.attendance() != self.tally.attendance() {
            return Err(ServeError::solve(
                FailureKind::Infeasible,
                "snapshot audit: recounted attendance disagrees with the delta certifier's tally",
            ));
        }
        self.tally = tally;
        Ok(())
    }

    fn publish_gauges(&self) {
        epplan_obs::gauge_set("serve.drift", self.drift as f64);
        epplan_obs::gauge_set("serve.utility", self.tally.utility());
        epplan_obs::gauge_set("serve.brownout.level", f64::from(self.overload.level));
    }

    /// Recomputes windowed quantiles after each op, publishes them as
    /// gauges (when metrics are on), and tracks SLO burn. Telemetry
    /// only — never feeds back into planning decisions.
    fn update_slo(&mut self) {
        let publish = epplan_obs::metrics_enabled();
        if self.config.slo_p99_us.is_none() && !publish {
            return;
        }
        let p99 = self.window.quantile(0.99);
        if publish {
            epplan_obs::gauge_set("serve.window.p50_us", self.window.quantile(0.50) as f64);
            epplan_obs::gauge_set("serve.window.p95_us", self.window.quantile(0.95) as f64);
            epplan_obs::gauge_set("serve.window.p99_us", p99 as f64);
        }
        if let Some(target) = self.config.slo_p99_us {
            self.slo_burning = p99 > target;
            if self.slo_burning {
                self.stats.slo_burning_ops += 1;
                epplan_obs::counter_add("serve.slo.burning_ops", 1);
            }
            if publish {
                epplan_obs::gauge_set("serve.slo.target_us", target as f64);
                epplan_obs::gauge_set(
                    "serve.slo.burning",
                    if self.slo_burning { 1.0 } else { 0.0 },
                );
            }
        }
    }

    fn response(
        &self,
        id: u64,
        status: &str,
        op_dif: u64,
        retries: u32,
        error: Option<String>,
    ) -> OpResponse {
        OpResponse {
            id,
            status: status.to_string(),
            dif: op_dif,
            drift: self.drift,
            utility: self.tally.utility(),
            retries,
            error,
            slo_burning: self.slo_burning,
        }
    }

    /// End-of-stream summary (latency percentiles, throughput, and a
    /// final re-certification of the visible plan). Lifetime
    /// percentiles are exact order statistics; windowed ones come from
    /// the pow2 ring — both through the one shared estimator.
    pub fn summary(&self) -> ServeSummary {
        let exact = HistogramSnapshot::from_values(&self.stats.latencies_us);
        let ops = self.stats.applied + self.stats.resolved + self.stats.rejected
            + self.stats.skipped + self.stats.shed + self.stats.quarantined;
        let wall_s = self.started.elapsed().as_secs_f64();
        ServeSummary {
            ops,
            applied: self.stats.applied,
            resolved: self.stats.resolved,
            rejected: self.stats.rejected,
            skipped: self.stats.skipped,
            retries: self.stats.retries,
            resolves: self.stats.resolves,
            snapshots: self.stats.snapshots,
            drift: self.drift,
            utility: self.tally.utility(),
            certified: certify(&self.instance, &self.plan).hard_ok(),
            wall_s,
            ops_per_sec: if wall_s > 0.0 { ops as f64 / wall_s } else { 0.0 },
            p50_us: exact.quantile(0.50),
            p95_us: exact.quantile(0.95),
            p99_us: exact.quantile(0.99),
            window_p50_us: self.window.quantile(0.50),
            window_p95_us: self.window.quantile(0.95),
            window_p99_us: self.window.quantile(0.99),
            slo_burning_ops: self.stats.slo_burning_ops,
            shed: self.stats.shed,
            quarantined: self.stats.quarantined,
            brownout_steps: self.stats.brownout_steps,
        }
    }

    /// The certificate of the visible plan, with accumulated drift
    /// attached (rendered as `drift = N since full solve`).
    pub fn certificate(&self) -> Certificate {
        certify(&self.instance, &self.plan).with_drift(self.drift)
    }

    /// The current (always certified) plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The current instance (after all folded ops).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Global utility `U_P` of the visible plan: the delta certifier's
    /// running tally, recounted at every snapshot point and by every
    /// full solve.
    pub fn utility(&self) -> f64 {
        self.tally.utility()
    }

    /// Accumulated `dif` since the last full solve.
    pub fn drift(&self) -> u64 {
        self.drift
    }

    /// Highest op id folded into the visible plan.
    pub fn last_op_id(&self) -> u64 {
        self.last_op_id
    }

    /// Session counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Point-in-time copy of the sliding latency window (pow2
    /// buckets), for scrapes and tests.
    pub fn window_snapshot(&self) -> HistogramSnapshot {
        self.window.snapshot()
    }

    /// Windowed latency quantile via the shared estimator.
    pub fn window_quantile(&self, p: f64) -> u64 {
        self.window.quantile(p)
    }

    /// Observations currently retained in the latency window.
    pub fn window_len(&self) -> u64 {
        self.window.len()
    }

    /// `true` while the windowed p99 exceeds the configured SLO.
    pub fn slo_burning(&self) -> bool {
        self.slo_burning
    }

    /// `last_op_id` as of the most recent snapshot (0 before any).
    pub fn snapshot_op(&self) -> u64 {
        self.snapshot_op
    }

    /// The overload-controller state (work clock, brownout level,
    /// streaks, re-solve backoff) — a pure fold over recorded op
    /// outcomes, compared bit-for-bit in recovery tests.
    pub fn overload_state(&self) -> &OverloadState {
        &self.overload
    }

    /// Ops applied since the last snapshot — the WAL replay distance
    /// a crash right now would incur.
    pub fn wal_pending_ops(&self) -> u64 {
        self.last_op_id.saturating_sub(self.snapshot_op)
    }
}

/// Why a repair attempt was not folded in.
enum RepairError {
    /// The in-place core failed; the state is as it was.
    Failed(SolveError),
    /// The repaired state failed delta certification and was rolled
    /// back.
    Uncertified(Certificate),
}

/// One op as the WAL logged it.
struct Logged {
    op: SequencedOp,
    /// `None` only for a torn tail op (logged, never completed).
    outcome: Option<OutcomeMeta>,
    /// How many sessions logged the op: consecutive op records with
    /// the same id and no outcome in between are *attempt markers*,
    /// each one a session that died executing the op.
    attempts: u32,
}

/// Pairs every op record of `records` with the outcome that follows
/// it, folding attempt markers into one entry.
fn pair_records(records: Vec<WalRecord>) -> Result<Vec<Logged>, ServeError> {
    let mut logged: Vec<Logged> = Vec::new();
    for rec in records {
        match rec {
            WalRecord::Op(sop) => match logged.last_mut() {
                Some(last) if last.outcome.is_none() && last.op.id == sop.id => {
                    last.attempts = last.attempts.saturating_add(1);
                }
                _ => logged.push(Logged {
                    op: sop,
                    outcome: None,
                    attempts: 1,
                }),
            },
            WalRecord::Outcome(meta) => match logged.last_mut() {
                Some(last) if last.op.id == meta.id && last.outcome.is_none() => {
                    last.outcome = Some(meta);
                }
                _ => {
                    return Err(ServeError::corrupt(format!(
                        "WAL outcome for op {} does not follow its op record",
                        meta.id
                    )));
                }
            },
        }
    }
    Ok(logged)
}

/// Applies to `instance` the instance transitions of the logged ops
/// with ids in `(after, through]`, driven by their recorded outcomes:
/// a repair or re-solve applied the op's transition, a rejected, shed
/// or quarantined op left the instance alone. No repair and no solve
/// runs. Every op in the range must have an outcome, and the op with
/// id `through` must be logged, unless `through == after`.
fn replay_transitions(
    instance: &mut Instance,
    logged: &[Logged],
    after: u64,
    through: u64,
) -> Result<(), ServeError> {
    if through < after {
        return Err(ServeError::corrupt(format!(
            "checkpoint at op {through} precedes its base image at op {after}"
        )));
    }
    let mut reached = through == after;
    for entry in logged.iter().filter(|l| l.op.id > after && l.op.id <= through) {
        let Some(meta) = entry.outcome else {
            return Err(ServeError::corrupt(format!(
                "WAL op {} has no outcome but the checkpoint at op {through} follows it",
                entry.op.id
            )));
        };
        if matches!(
            meta.mode,
            OutcomeMode::Repair | OutcomeMode::RepairResolve | OutcomeMode::Resolve
        ) {
            let _ = IncrementalPlanner::apply_to_instance_in_place(instance, &entry.op.op);
        }
        reached |= entry.op.id == through;
    }
    if !reached {
        return Err(ServeError::corrupt(format!(
            "checkpoint at op {through} is ahead of the WAL"
        )));
    }
    Ok(())
}

/// The instance at a checkpoint, rebuilt the way restore rebuilds it:
/// `instance` (a base image's, taken at op `after`) plus the instance
/// transitions of the ops `records` logged in `(after, through]`.
pub fn replay_instance(
    instance: &mut Instance,
    records: Vec<WalRecord>,
    after: u64,
    through: u64,
) -> Result<(), ServeError> {
    replay_transitions(instance, &pair_records(records)?, after, through)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Snapshot;
    use epplan_core::incremental::AtomicOp;
    use epplan_core::model::{EventId, UserId};
    use epplan_datagen::{generate, GeneratorConfig, OpStreamSampler};

    fn small_instance() -> Instance {
        generate(&GeneratorConfig {
            n_users: 60,
            n_events: 8,
            seed: 7,
            ..GeneratorConfig::default()
        })
    }

    fn ops_for(instance: &Instance, plan: &Plan, n: usize) -> Vec<SequencedOp> {
        let mut sampler = OpStreamSampler::new(99);
        sampler.sequenced_stream(instance, plan, n, 1)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "epplan-daemon-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn plan_bytes(d: &Daemon) -> String {
        serde_json::to_string(d.plan()).unwrap()
    }

    #[test]
    fn stream_processing_keeps_state_certified_and_skips_duplicates() {
        let instance = small_instance();
        let mut d = Daemon::start(instance, ServeConfig::default(), None).unwrap();
        let ops = ops_for(d.instance(), d.plan(), 12);
        for sop in &ops {
            let resp = d.process(sop).unwrap();
            assert_ne!(resp.status, "skipped");
            assert!(d.certificate().hard_ok(), "visible state must certify");
        }
        assert_eq!(d.last_op_id(), 12);
        // Replaying any earlier id is a no-op acknowledgement.
        let before = plan_bytes(&d);
        let resp = d.process(&ops[3]).unwrap();
        assert_eq!(resp.status, "skipped");
        assert_eq!(plan_bytes(&d), before);
        let s = d.summary();
        assert!(s.certified);
        assert_eq!(s.ops, 13);
        assert_eq!(s.skipped, 1);
    }

    #[test]
    fn bad_input_is_rejected_and_cursor_advances_past_it() {
        let instance = small_instance();
        let mut d = Daemon::start(instance, ServeConfig::default(), None).unwrap();
        let before = plan_bytes(&d);
        let bogus = SequencedOp::new(
            1,
            AtomicOp::EtaDecrease {
                event: EventId(10_000),
                new_upper: 1,
            },
        );
        let resp = d.process(&bogus).unwrap();
        assert_eq!(resp.status, "rejected");
        assert!(resp.error.is_some());
        assert_eq!(plan_bytes(&d), before, "rejection must not disturb the plan");
        assert_eq!(d.last_op_id(), 1, "cursor advances past rejected ops");
        assert!(d.certificate().hard_ok());
    }

    #[test]
    fn exhausted_op_budget_degrades_to_certified_full_resolve() {
        let instance = small_instance();
        let config = ServeConfig {
            // Zero iterations stays zero under doubling: every repair
            // attempt exhausts, forcing the full re-solve fallback.
            op_budget: SolveBudget::from_iteration_cap(0),
            max_retries: 2,
            ..ServeConfig::default()
        };
        let mut d = Daemon::start(instance, config, None).unwrap();
        let ops = ops_for(d.instance(), d.plan(), 3);
        for sop in &ops {
            let resp = d.process(sop).unwrap();
            assert_eq!(resp.status, "resolved");
            assert_eq!(resp.retries, 2, "all retries consumed before fallback");
            assert!(d.certificate().hard_ok());
        }
        assert_eq!(d.stats().resolves, 3);
        assert_eq!(d.stats().retries, 6);
        assert_eq!(d.drift(), 0, "full re-solve resets drift");
    }

    #[test]
    fn drift_threshold_zero_resolves_after_every_repair() {
        let instance = small_instance();
        let config = ServeConfig {
            drift_threshold: Some(0),
            ..ServeConfig::default()
        };
        let mut d = Daemon::start(instance, config, None).unwrap();
        let ops = ops_for(d.instance(), d.plan(), 4);
        for sop in &ops {
            let resp = d.process(sop).unwrap();
            assert_eq!(resp.status, "resolved");
            assert_eq!(d.drift(), 0);
        }
        assert_eq!(d.stats().resolved, 4);
    }

    #[test]
    fn crash_and_restore_converges_to_the_uninterrupted_plan() {
        let instance = small_instance();
        let dir = tmp_dir("restore");
        let config = ServeConfig {
            snapshot_every: Some(4),
            drift_threshold: Some(30),
            ..ServeConfig::default()
        };

        // Uninterrupted reference run (no state dir).
        let mut reference = Daemon::start(instance.clone(), config.clone(), None).unwrap();
        let ops = ops_for(reference.instance(), reference.plan(), 15);
        for sop in &ops {
            reference.process(sop).unwrap();
        }

        // Crashed run: process a prefix, then drop the daemon without
        // any shutdown — state must be recoverable from disk alone.
        {
            let mut d = Daemon::start(instance, config.clone(), Some(&dir)).unwrap();
            for sop in &ops[..9] {
                d.process(sop).unwrap();
            }
            // d dropped here: simulated crash after op 9.
        }
        let mut restored = Daemon::restore(config, &dir).unwrap();
        assert_eq!(restored.last_op_id(), 9);
        // Re-feed the whole stream; the prefix is skipped as duplicates.
        for sop in &ops {
            restored.process(sop).unwrap();
        }
        assert_eq!(plan_bytes(&restored), plan_bytes(&reference));
        assert_eq!(restored.drift(), reference.drift());
        assert_eq!(restored.utility(), reference.utility());
        assert!(restored.certificate().hard_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_wal_tail_is_cut_before_the_restored_session_appends() {
        let instance = small_instance();
        let dir = tmp_dir("torn-tail");
        let config = ServeConfig::default();
        let mut reference = Daemon::start(instance.clone(), config.clone(), None).unwrap();
        let ops = ops_for(reference.instance(), reference.plan(), 12);
        for sop in &ops {
            reference.process(sop).unwrap();
        }
        {
            let mut d = Daemon::start(instance, config.clone(), Some(&dir)).unwrap();
            for sop in &ops[..6] {
                d.process(sop).unwrap();
            }
        }
        // Die mid-append: op 6's outcome record is torn.
        let path = dir.join(wal::WAL_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        {
            let mut d = Daemon::restore(config.clone(), &dir).unwrap();
            assert_eq!(d.last_op_id(), 6, "the torn op is finished live");
            for sop in &ops[6..9] {
                d.process(sop).unwrap();
            }
        }
        // The appends after the restore follow the last intact frame,
        // so a second restore reads a clean log.
        let mut restored = Daemon::restore(config, &dir).unwrap();
        assert_eq!(restored.last_op_id(), 9);
        for sop in &ops {
            restored.process(sop).unwrap();
        }
        assert_eq!(plan_bytes(&restored), plan_bytes(&reference));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn admission_sheds_stale_ops_and_restore_retraces_them() {
        let instance = small_instance();
        let dir = tmp_dir("shed");
        let config = ServeConfig {
            // Every repair exhausts instantly, forcing the expensive
            // full re-solve path — each executed op charges the work
            // clock several op-widths, so staleness builds fast.
            op_budget: SolveBudget::from_iteration_cap(0),
            max_retries: 1,
            snapshot_every: Some(4),
            overload: OverloadConfig {
                op_deadline_ops: Some(0),
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        };

        let mut reference = Daemon::start(instance.clone(), config.clone(), None).unwrap();
        let ops = ops_for(reference.instance(), reference.plan(), 12);
        let mut statuses = Vec::new();
        for sop in &ops {
            statuses.push(reference.process(sop).unwrap().status);
            assert!(reference.certificate().hard_ok(), "visible state must certify");
        }
        assert!(reference.stats().shed > 0, "overload must shed: {statuses:?}");
        assert!(reference.stats().resolved > 0);
        let s = reference.summary();
        assert_eq!(s.ops, 12);
        assert_eq!(s.shed, reference.stats().shed);
        assert!(s.certified);

        // Crash mid-stream, restore, re-feed: the shed pattern is
        // retraced from the WAL, not re-decided, so everything —
        // plan bytes and controller state — converges bit-for-bit.
        {
            let mut d = Daemon::start(instance, config.clone(), Some(&dir)).unwrap();
            for sop in &ops[..7] {
                d.process(sop).unwrap();
            }
        }
        let mut restored = Daemon::restore(config, &dir).unwrap();
        let mut replayed = Vec::new();
        for sop in &ops {
            replayed.push(restored.process(sop).unwrap().status);
        }
        assert!(replayed[..7].iter().all(|st| st == "skipped"));
        assert_eq!(replayed[7..], statuses[7..], "post-crash decisions diverged");
        assert_eq!(plan_bytes(&restored), plan_bytes(&reference));
        assert_eq!(restored.overload_state(), reference.overload_state());
        assert_eq!(restored.drift(), reference.drift());
        assert!(restored.certificate().hard_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn brownout_descends_under_burn_and_replay_converges() {
        let instance = small_instance();
        let dir = tmp_dir("brownout");
        let config = ServeConfig {
            // Target 0µs: every op burns, deterministically, so the
            // ladder walks straight down to the deepest level.
            slo_p99_us: Some(0),
            overload: OverloadConfig {
                brownout: Some(crate::overload::BrownoutKnobs {
                    down_after: 2,
                    up_after: 100,
                }),
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        };
        let live_state;
        {
            let mut d = Daemon::start(instance, config.clone(), Some(&dir)).unwrap();
            let ops = ops_for(d.instance(), d.plan(), 8);
            for sop in &ops {
                d.process(sop).unwrap();
                assert!(d.certificate().hard_ok(), "visible state must certify");
            }
            assert_eq!(d.overload_state().level, crate::overload::MAX_BROWNOUT_LEVEL);
            assert_eq!(d.stats().brownout_steps, 2);
            live_state = d.overload_state().clone();
        }
        // Replay folds the recorded burn flags and levels — no clock,
        // no window, yet the controller state matches exactly.
        let restored = Daemon::restore(config, &dir).unwrap();
        assert_eq!(restored.overload_state(), &live_state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deepest_level_resolve_is_the_gap_pipeline() {
        let config = ServeConfig {
            // Every op burns and every repair exceeds the (4×) drift
            // threshold of 0, so each op ends in a re-solve.
            slo_p99_us: Some(0),
            drift_threshold: Some(0),
            overload: OverloadConfig {
                brownout: Some(crate::overload::BrownoutKnobs {
                    down_after: 1,
                    up_after: 100,
                }),
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut d = Daemon::start(small_instance(), config.clone(), None).unwrap();
        let ops = ops_for(d.instance(), d.plan(), 8);
        let mut ops = ops.iter();
        while d.overload_state().level < crate::overload::MAX_BROWNOUT_LEVEL {
            d.process(ops.next().unwrap()).unwrap();
        }
        let resp = d.process(ops.next().unwrap()).unwrap();
        assert_eq!(resp.status, "resolved");
        assert_eq!(resp.error, None, "drift-triggered, not a repair fallback");
        let gap = GapBasedSolver::default()
            .try_solve(d.instance(), config.resolve_budget)
            .unwrap();
        assert_eq!(plan_bytes(&d), serde_json::to_string(&gap.plan).unwrap());
    }

    #[test]
    fn poison_op_is_quarantined_after_repeated_mid_op_deaths() {
        let instance = small_instance();
        let dir = tmp_dir("quarantine");
        let config = ServeConfig {
            overload: OverloadConfig {
                quarantine_after: Some(2),
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        };
        let ops;
        {
            let mut d = Daemon::start(instance, config.clone(), Some(&dir)).unwrap();
            ops = ops_for(d.instance(), d.plan(), 4);
            d.process(&ops[0]).unwrap();
            d.process(&ops[1]).unwrap();
        }
        // Simulate two sessions that each durably logged op 3 and then
        // died executing it: two op records, no outcome in between.
        {
            let path = dir.join(wal::WAL_FILE);
            let mut w = WalWriter::open_append(&path, fs::metadata(&path).unwrap().len()).unwrap();
            w.append_op(&ops[2]).unwrap();
            w.append_op(&ops[2]).unwrap();
            w.sync().unwrap();
        }
        let mut restored = Daemon::restore(config.clone(), &dir).unwrap();
        assert_eq!(restored.stats().quarantined, 1);
        assert_eq!(restored.last_op_id(), 3, "cursor advanced past the poison op");
        let dead = wal::read_dead_letters(&dir).unwrap();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].id, 3);
        assert_eq!(dead[0].attempts, 2);
        assert_eq!(dead[0].op, ops[2]);
        // The stream continues; a re-fed poison op is a duplicate.
        assert_eq!(restored.process(&ops[3]).unwrap().status, "applied");
        assert_eq!(restored.process(&ops[2]).unwrap().status, "skipped");
        assert!(restored.certificate().hard_ok());
        // A second restore retraces the recorded quarantine instead of
        // appending another dead-letter record.
        drop(restored);
        let again = Daemon::restore(config, &dir).unwrap();
        assert_eq!(again.stats().quarantined, 0, "quarantine replayed, not redone");
        assert_eq!(again.last_op_id(), 4);
        assert_eq!(wal::read_dead_letters(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_attempts_below_the_threshold_retry_live() {
        let instance = small_instance();
        let dir = tmp_dir("tail-retry");
        let config = ServeConfig {
            overload: OverloadConfig {
                quarantine_after: Some(5),
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        };
        let ops;
        {
            let mut d = Daemon::start(instance, config.clone(), Some(&dir)).unwrap();
            ops = ops_for(d.instance(), d.plan(), 2);
            d.process(&ops[0]).unwrap();
        }
        {
            let path = dir.join(wal::WAL_FILE);
            let mut w = WalWriter::open_append(&path, fs::metadata(&path).unwrap().len()).unwrap();
            w.append_op(&ops[1]).unwrap();
            w.sync().unwrap();
        }
        // One attempt < 5: the tail op is finished live on restore.
        let restored = Daemon::restore(config, &dir).unwrap();
        assert_eq!(restored.last_op_id(), 2);
        assert_eq!(restored.stats().quarantined, 0);
        assert!(wal::read_dead_letters(&dir).unwrap().is_empty());
        assert!(restored.certificate().hard_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `json` with the number right after the first `key` bumped by one.
    fn bump_first_number(json: &str, key: &str) -> String {
        let at = json.find(key).unwrap() + key.len();
        let len = json[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let n: u64 = json[at..at + len].parse().unwrap();
        format!("{}{}{}", &json[..at], n + 1, &json[at + len..])
    }

    #[test]
    fn restore_rejects_intact_snapshots_that_break_constructor_checks() {
        let dir = tmp_dir("badsnap");
        drop(Daemon::start(small_instance(), ServeConfig::default(), Some(&dir)).unwrap());
        let good = wal::read_snapshot(&dir).unwrap().unwrap();
        let instance = serde_json::to_string(&good.instance).unwrap();
        let plan = serde_json::to_string(&good.plan).unwrap();
        assert!(good.plan.total_assignments() > 0);

        // One utility value short of `n_users × n_events`: the last one,
        // so every other pair keeps its μ and the plan still certifies.
        let values = instance.find("\"values\":[").unwrap();
        let close = values + instance[values..].find(']').unwrap();
        let last_comma = instance[..close].rfind(',').unwrap();
        let short_values = format!("{}{}", &instance[..last_comma], &instance[close..]);
        // One user more than the instance has.
        let extra_user = plan.replacen("\"assignments\":[", "\"assignments\":[[],", 1);
        // A stored attendance its assignments do not add up to.
        let miscounted = bump_first_number(&plan, "\"attendance\":[");

        for (what, instance, plan) in [
            ("short utility values", &short_values, &plan),
            ("plan with an extra user", &instance, &extra_user),
            ("miscounted attendance", &instance, &miscounted),
        ] {
            let snap = Snapshot {
                instance: serde_json::from_str(instance).unwrap(),
                plan: serde_json::from_str(plan).unwrap(),
                ..good.clone()
            };
            wal::write_snapshot(&dir, &snap).unwrap();
            let err = Daemon::restore(ServeConfig::default(), &dir)
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err.exit_code(), 4, "{what}: {}", err.message);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_accepts_a_snapshot_with_a_zero_budget() {
        let dir = tmp_dir("zerobudget");
        let config = ServeConfig {
            snapshot_every: Some(1),
            ..ServeConfig::default()
        };
        {
            let mut d = Daemon::start(small_instance(), config.clone(), Some(&dir)).unwrap();
            let op = AtomicOp::BudgetChange {
                user: UserId(0),
                new_budget: 0.0,
            };
            assert_ne!(d.process(&SequencedOp::new(1, op)).unwrap().status, "rejected");
            assert_eq!(d.snapshot_op(), 1);
        }
        let restored = Daemon::restore(config, &dir).unwrap();
        assert_eq!(restored.snapshot_op(), 1);
        assert_eq!(restored.instance().user(UserId(0)).budget, 0.0);
        assert!(restored.certificate().hard_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_audit_rejects_a_corrupted_state_and_persists_nothing() {
        let dir = tmp_dir("audit");
        let mut d = Daemon::start(small_instance(), ServeConfig::default(), Some(&dir)).unwrap();
        let snapshot = || fs::read(dir.join(wal::SNAPSHOT_FILE)).unwrap();
        let before = snapshot();
        let no_checkpoint = || !dir.join(wal::CHECKPOINT_FILE).exists();

        // A dropped assignment breaks no hard constraint, but it
        // bypassed the delta certifier: the recount disagrees with the
        // tally.
        let (u, e) = d
            .instance
            .user_ids()
            .find_map(|u| d.plan.user_plan(u).first().map(|&e| (u, e)))
            .expect("the initial plan assigns someone");
        d.plan.remove(u, e);
        // The empty WAL is smaller than the base: a checkpoint point.
        let err = d.write_snapshot().unwrap_err();
        assert_eq!(err.exit_code(), 6, "{}", err.message);
        assert!(err.message.contains("tally"), "{}", err.message);
        assert_eq!(snapshot(), before, "nothing persisted");
        assert!(no_checkpoint(), "no checkpoint persisted");

        // Every user on that event: over η, named in the error.
        for u in d.instance.user_ids().collect::<Vec<_>>() {
            d.plan.add(u, e);
        }
        let err = d.write_snapshot().unwrap_err();
        assert_eq!(err.exit_code(), 6, "{}", err.message);
        assert!(err.message.contains("eta-upper-bound"), "{}", err.message);
        assert_eq!(snapshot(), before, "nothing persisted");
        assert!(no_checkpoint(), "no checkpoint persisted");

        // A compaction point audits the same way.
        d.base_bytes = 0;
        let err = d.write_snapshot().unwrap_err();
        assert_eq!(err.exit_code(), 6, "{}", err.message);
        assert_eq!(snapshot(), before, "nothing persisted");
        assert_eq!(d.stats().compactions, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replayed_repair_that_does_not_certify_is_corruption() {
        let mut d = Daemon::start(small_instance(), ServeConfig::default(), None).unwrap();
        // η cut below an event's attendance behind the tally's back:
        // the replayed op changes no list, but its delta certificate
        // re-checks every event's bounds.
        let e = d
            .instance
            .event_ids()
            .find(|&e| d.plan.attendance(e) > 0)
            .expect("the initial plan fills some event");
        d.instance.set_event_bounds(e, 0, d.plan.attendance(e) - 1);
        let (instance, plan) = (d.instance.clone(), plan_bytes(&d));
        let sop = SequencedOp::new(1, AtomicOp::XiDecrease { event: e, new_lower: 0 });
        let err = d
            .replay(&sop, &OutcomeMeta::plain(1, OutcomeMode::Repair))
            .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{}", err.message);
        assert!(err.message.contains("eta-upper-bound"), "{}", err.message);
        assert_eq!(d.instance, instance, "the uncertified op is rolled back");
        assert_eq!(plan_bytes(&d), plan);
        assert_eq!(d.last_op_id(), 0);
    }

    #[test]
    fn restore_without_snapshot_is_a_typed_corruption_error() {
        let dir = tmp_dir("nosnap");
        fs::create_dir_all(&dir).unwrap();
        let err = Daemon::restore(ServeConfig::default(), &dir).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }
}
