//! The serving workloads: one client feeding an op stream to an
//! `epplan_serve::Daemon` and waiting for each acknowledgement before
//! sending the next op (a closed loop, as the serve protocol works).

use std::path::Path;
use std::time::Instant;

use epplan_core::certify::certify_incremental;
use epplan_core::incremental::{IncrementalPlanner, SequencedOp};
use epplan_core::model::Instance;
use epplan_core::plan::Plan;
use epplan_core::solver::{GapBasedSolver, GepcSolver, GreedySolver, SolveBudget};
use epplan_datagen::{generate, BurstSpec, GeneratorConfig, OpStreamSampler, OpWeights};
use epplan_memtrack::MemoryProbe;
use epplan_serve::{
    write_snapshot, BrownoutKnobs, Daemon, OutcomeMeta, OutcomeMode, OverloadConfig, ServeConfig,
    Snapshot, WalWriter, FORMAT_VERSION,
};

use crate::registry::{Scale, Workload};
use crate::stats::{mean, median, minima, quantile};
use crate::trace::Tracer;
use crate::{cold_clone, gepc, input_seed, Outcome};

/// Sizes, stream shape and daemon configuration of one serving
/// workload.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Users.
    pub n_users: usize,
    /// Events.
    pub n_events: usize,
    /// Ops per session.
    pub n_ops: usize,
    /// Bursty ids (dense runs separated by gaps) instead of
    /// consecutive ones.
    pub burst: Option<BurstSpec>,
    /// The op mix of the sampled streams.
    pub weights: OpWeights,
    /// The daemon's configuration.
    pub config: ServeConfig,
    /// Independent instances, each with its own op stream, per run.
    pub inputs: usize,
    /// Sessions per input made even when `--seconds` has run out.
    pub min_reps: usize,
}

/// The traced run re-runs every this many ops outside the daemon.
const PROBE_EVERY: usize = 10;

/// The parameters of a serving workload at `scale`.
///
/// # Panics
///
/// If `workload` is not a serving workload.
pub fn params(workload: Workload, scale: Scale) -> ServeParams {
    let smoke = scale == Scale::Smoke;
    let min_reps = if smoke { 2 } else { 1 };
    match workload {
        Workload::ServeSteady => ServeParams {
            n_users: if smoke { 2_000 } else { 10_000 },
            n_events: 50,
            n_ops: if smoke { 100 } else { 500 },
            burst: None,
            weights: OpWeights::default(),
            config: ServeConfig {
                drift_threshold: Some(5000),
                snapshot_every: Some(if smoke { 100 } else { 500 }),
                ..ServeConfig::default()
            },
            inputs: if smoke { 2 } else { 4 },
            min_reps,
        },
        Workload::ServeBurst => ServeParams {
            n_users: 500,
            n_events: 50,
            n_ops: if smoke { 100 } else { 250 },
            burst: Some(BurstSpec { len: 64, gap: 16 }),
            // Without ξ increases: after a full re-solve the sampler's
            // model of the instance can disagree with the daemon's, and
            // the daemon then rejects a ξ increase as malformed.
            weights: OpWeights {
                xi_increase: 0.0,
                ..OpWeights::default()
            },
            // Every op burns the 0 µs SLO, so the brownout ladder walks
            // to its floor deterministically and re-solves switch to
            // degraded LNS. Admission shedding stays off: no op fails.
            config: ServeConfig {
                drift_threshold: Some(100),
                snapshot_every: Some(if smoke { 100 } else { 250 }),
                slo_p99_us: Some(0),
                overload: OverloadConfig {
                    op_deadline_ops: None,
                    brownout: Some(BrownoutKnobs {
                        down_after: 8,
                        up_after: 4,
                    }),
                    quarantine_after: Some(3),
                },
                ..ServeConfig::default()
            },
            inputs: if smoke { 2 } else { 16 },
            min_reps,
        },
        other => panic!("{} is not a serving workload", other.name()),
    }
}

/// Input `i` of a run: an instance and an op stream sampled against a
/// greedy plan of it, with ids from 1.
fn input(p: &ServeParams, seed: u64, i: usize) -> (Instance, Vec<SequencedOp>) {
    let seed = input_seed(seed, i);
    let instance = generate(
        &GeneratorConfig::default()
            .cutout(p.n_users, p.n_events)
            .with_seed(seed),
    );
    let plan0 = GreedySolver::seeded(seed).solve(&instance).plan;
    let mut sampler = OpStreamSampler::with_weights(seed, p.weights.clone());
    let ops = match p.burst {
        Some(burst) => sampler.sequenced_burst_stream(&instance, &plan0, p.n_ops, 1, burst),
        None => sampler.sequenced_stream(&instance, &plan0, p.n_ops, 1),
    };
    (instance, ops)
}

/// One untraced session: start a daemon, feed it every op.
struct Session {
    start_s: f64,
    /// Wall time of each `Daemon::process` call.
    walls: Vec<f64>,
    mib: f64,
    utility: f64,
    plan: Plan,
    /// The instance after every op.
    instance: Instance,
}

fn session(
    p: &ServeParams,
    instance: &Instance,
    ops: &[SequencedOp],
    dir: &Path,
    out: &mut Outcome,
) -> Option<Session> {
    let inst = cold_clone(instance);
    let t = Instant::now();
    let started = Daemon::start(inst, p.config.clone(), Some(dir));
    let start_s = t.elapsed().as_secs_f64();
    let mut daemon = match started {
        Ok(d) => d,
        Err(e) => {
            out.fail(format!("daemon did not start: {e}"));
            return None;
        }
    };
    let probe = MemoryProbe::start();
    let mut walls = Vec::with_capacity(ops.len());
    for sop in ops {
        let t = Instant::now();
        let resp = daemon.process(sop);
        walls.push(t.elapsed().as_secs_f64());
        if let Err(e) = resp {
            out.fail(format!("op {}: {e}", sop.id));
            return None;
        }
    }
    let mib = probe.finish().peak_delta_mib();
    let s = daemon.stats();
    out.attempted += ops.len() as u64;
    out.failed += s.rejected + s.shed + s.quarantined;
    let cert = daemon.certificate();
    out.check(cert.hard_ok(), || {
        format!("final plan failed certification: {cert}")
    });
    let session = Session {
        start_s,
        walls,
        mib,
        utility: daemon.utility(),
        plan: daemon.plan().clone(),
        instance: daemon.instance().clone(),
    };
    Some(session)
}

/// The untraced run: every input's stream is sampled first, then the
/// inputs get one session each in turn, each on a fresh daemon, until
/// `seconds` have passed and each input had `min_reps` sessions.
pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let p = params(workload, scale);
    epplan_par::set_threads(1);
    let mut out = Outcome::default();
    let inputs: Vec<(Instance, Vec<SequencedOp>)> =
        (0..p.inputs).map(|i| input(&p, seed, i)).collect();
    let mut sessions: Vec<Vec<Session>> = inputs.iter().map(|_| Vec::new()).collect();
    let started = Instant::now();
    let mut n = 0;
    while n < p.inputs * p.min_reps || started.elapsed().as_secs_f64() < seconds {
        let i = n % p.inputs;
        n += 1;
        let (instance, ops) = &inputs[i];
        let Some(s) = session(
            &p,
            instance,
            ops,
            &work.join(format!("state-{n}")),
            &mut out,
        ) else {
            return out;
        };
        if let Some(first) = sessions[i].first() {
            out.check(first.plan == s.plan && first.utility == s.utility, || {
                format!("session {n} ended in another plan than the first of its input")
            });
        }
        sessions[i].push(s);
    }
    // The paper's IEP baseline: the final instance re-solved from
    // scratch (Tables VII-IX, Re-GAP).
    let ratios: Vec<f64> = sessions
        .iter()
        .map(|s| s[0].utility / GapBasedSolver::default().solve(&s[0].instance).utility)
        .collect();
    // Per session: start-up time, median op latency, op-processing
    // time and peak heap; per input, the best session of each.
    let best = |f: fn(&Session) -> f64| {
        minima(
            &sessions
                .iter()
                .map(|s| s.iter().map(f).collect())
                .collect::<Vec<_>>(),
        )
    };
    let ops: usize = inputs.iter().map(|(_, ops)| ops.len()).sum();
    let busy: f64 = best(|s| s.walls.iter().sum()).iter().sum();
    out.set("setup_s", mean(&best(|s| s.start_s)));
    out.set("latency_ms", mean(&best(|s| median(&s.walls))) * 1e3);
    out.set("throughput_per_s", ops as f64 / busy);
    out.set("peak_mib", mean(&best(|s| s.mib)));
    out.set("utility_ratio", mean(&ratios));
    out
}

/// The traced run: one untraced session for reference, then one traced
/// session whose initial solve is rebuilt layer by layer and whose ops
/// are probed.
pub fn run_traced(
    workload: Workload,
    scale: Scale,
    seed: u64,
    work: &Path,
    tr: &mut Tracer,
) -> Outcome {
    let p = params(workload, scale);
    epplan_par::set_threads(1);
    let mut out = Outcome::default();
    let root = tr.open(&format!("bench.{}", workload.name()), None);
    let (instance, ops) = input(&p, seed, 0);
    let Some(reference) = session(&p, &instance, &ops, &work.join("state-reference"), &mut out)
    else {
        return out;
    };
    let dir = work.join("state-traced");
    let started = tr.time("serve.daemon.start", root.id(), || {
        Daemon::start(cold_clone(&instance), p.config.clone(), Some(&dir))
    });
    let mut daemon = match started.value {
        Ok(d) => d,
        Err(e) => {
            out.fail(format!("daemon did not start: {e}"));
            return out;
        }
    };
    // The batch layers, timed on the daemon's initial solve.
    if let Some(solved) = gepc::trace_solve(tr, root.id(), &instance, &mut out) {
        out.check(solved.reference.plan == *daemon.plan(), || {
            "the daemon's initial plan differs from GapBasedSolver's".to_string()
        });
    }
    let traced = trace_ops(
        tr,
        root.id(),
        &mut daemon,
        &ops,
        PROBE_EVERY,
        work,
        &mut out,
    );
    out.check(*daemon.plan() == reference.plan, || {
        "the traced session ended in another plan than the untraced one".to_string()
    });
    let untraced: f64 = reference.walls.iter().sum();
    out.set("trace.overhead_frac", (traced - untraced) / untraced);
    tr.close(root);
    out
}

/// Feeds `ops` to `daemon`, one span per `Daemon::process` call. Every
/// `probe_every`-th op is re-run outside the daemon on an untimed clone
/// of the pre-op state (incremental apply, then incremental
/// certification) and its WAL records are appended to a scratch log;
/// an `applied` op's probe plan must equal the daemon's. The final
/// state is snapshotted once into the scratch directory. Records the
/// serving per-layer metrics; returns the summed `process` wall time.
pub fn trace_ops(
    tr: &mut Tracer,
    parent: u64,
    daemon: &mut Daemon,
    ops: &[SequencedOp],
    probe_every: usize,
    work: &Path,
    out: &mut Outcome,
) -> f64 {
    let scratch = work.join("probe");
    let wal = std::fs::create_dir_all(&scratch)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            WalWriter::create(&scratch.join(epplan_serve::wal::WAL_FILE)).map_err(|e| e.to_string())
        });
    let mut wal = match wal {
        Ok(w) => w,
        Err(e) => {
            out.fail(format!("scratch WAL: {e}"));
            return f64::NAN;
        }
    };
    let mut walls = Vec::with_capacity(ops.len());
    let (mut applied_s, mut resolved_s) = (0.0, 0.0);
    let (mut n_applied, mut n_resolved, mut allocs) = (0u64, 0u64, 0u64);
    let (mut apply_us, mut apply_allocs, mut difs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cert_us, mut cert_allocs, mut wal_us) = (Vec::new(), Vec::new(), Vec::new());
    for (k, sop) in ops.iter().enumerate() {
        // `Clone` copies the candidate cache too, so the probe starts
        // from the daemon's exact state, warm or cold.
        let before = (k % probe_every.max(1) == 0)
            .then(|| (daemon.instance().clone(), daemon.plan().clone()));
        let processed = tr.time("serve.process", parent, || daemon.process(sop));
        out.attempted += 1;
        walls.push(processed.secs);
        allocs += processed.allocs;
        let resp = match processed.value {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("op {}: {e}", sop.id));
                return f64::NAN;
            }
        };
        match resp.status.as_str() {
            "applied" => {
                n_applied += 1;
                applied_s += processed.secs;
            }
            "resolved" => {
                n_resolved += 1;
                resolved_s += processed.secs;
            }
            _ => out.failed += 1,
        }
        let Some((inst0, plan0)) = before else {
            continue;
        };
        let applied = tr.time("core.incremental.apply", parent, || {
            IncrementalPlanner
                .try_apply_budgeted(&inst0, &plan0, &sop.op, SolveBudget::UNLIMITED)
                .ok()
        });
        if let Some(o) = &applied.value {
            apply_us.push(applied.secs * 1e6);
            apply_allocs.push(applied.allocs as f64);
            difs.push(o.dif as f64);
            let cert = tr.time("core.certify.incremental", parent, || {
                certify_incremental(&o.instance, &plan0, &o.plan)
            });
            cert_us.push(cert.secs * 1e6);
            cert_allocs.push(cert.allocs as f64);
            if resp.status == "applied" {
                out.check(cert.value.hard_ok() && o.plan == *daemon.plan(), || {
                    format!(
                        "op {}: the probe's repair differs from the daemon's",
                        sop.id
                    )
                });
            }
        }
        let appended = tr.time("serve.wal.append", parent, || {
            wal.append_op(sop)
                .and_then(|()| wal.append_outcome(&OutcomeMeta::plain(sop.id, OutcomeMode::Repair)))
        });
        out.check(appended.value.is_ok(), || {
            format!("op {}: scratch WAL append failed", sop.id)
        });
        wal_us.push(appended.secs * 1e6);
    }
    let snap = Snapshot {
        version: FORMAT_VERSION,
        last_op_id: daemon.last_op_id(),
        drift: daemon.drift(),
        overload: daemon.overload_state().clone(),
        instance: daemon.instance().clone(),
        plan: daemon.plan().clone(),
    };
    let written = tr.time("serve.snapshot", parent, || write_snapshot(&scratch, &snap));
    out.check(written.value.is_ok(), || {
        "scratch snapshot failed".to_string()
    });
    let bytes =
        std::fs::metadata(scratch.join(epplan_serve::wal::SNAPSHOT_FILE)).map_or(0, |m| m.len());

    let n = ops.len().max(1) as f64;
    let total: f64 = walls.iter().sum();
    out.set("core.incremental.apply_us_p50", median(&apply_us));
    out.set("core.incremental.apply_allocs", mean(&apply_allocs));
    out.set("core.incremental.dif_mean", mean(&difs));
    out.set("core.certify.incremental_us_p50", median(&cert_us));
    out.set("core.certify.incremental_allocs", mean(&cert_allocs));
    out.set("serve.wal.append_us_p50", median(&wal_us));
    out.set("serve.snapshot.ms", written.secs * 1e3);
    out.set("serve.snapshot.mib", bytes as f64 / (1024.0 * 1024.0));
    out.set("serve.op_p99_ms", quantile(&walls, 0.99) * 1e3);
    out.set(
        "serve.applied.ms_mean",
        applied_s / n_applied.max(1) as f64 * 1e3,
    );
    out.set("serve.allocs_per_op", allocs as f64 / n);
    out.set("serve.resolved_frac", n_resolved as f64 / n);
    out.set("serve.resolved.time_frac", resolved_s / total);
    total
}
