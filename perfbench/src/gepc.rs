//! The batch workloads: the two-step GAP-based GEPC solve of a
//! candidate-pruned instance, as `epplan solve --solver gap` runs it.

use std::path::Path;
use std::time::Instant;

use epplan_core::certify::certify;
use epplan_core::model::Instance;
use epplan_core::solver::conflict_adjust::{budget_repair, conflict_adjust, RawAssignment};
use epplan_core::solver::filler::fill_to_upper;
use epplan_core::solver::{GapBasedSolver, GepcSolver, GreedySolver, Solution, SolveBudget};
use epplan_datagen::{generate, load_instance, save_instance, GeneratorConfig, OpStreamSampler};
use epplan_gap::packing::mw_fractional;
use epplan_gap::{round_shmoys_tardos, GapSolver};
use epplan_memtrack::MemoryProbe;
use epplan_serve::{Daemon, ServeConfig};

use crate::registry::{Scale, Workload};
use crate::stats::{mean, minima};
use crate::trace::Tracer;
use crate::{cold_clone, input_seed, serve, Outcome};

/// Sizes and repetition counts of one batch workload.
#[derive(Debug, Clone)]
pub struct GepcParams {
    /// Users.
    pub n_users: usize,
    /// Events.
    pub n_events: usize,
    /// Travel budgets as multiples of the city extent; sets how many
    /// candidate events each user has.
    pub budget_frac: (f64, f64),
    /// Worker threads for the parallel stages.
    pub threads: usize,
    /// Independent instances per run.
    pub inputs: usize,
    /// `load_instance` calls per instance; the fastest is its set-up
    /// time.
    pub setup_reps: usize,
    /// Timed solves per instance made even when `--seconds` has run
    /// out.
    pub min_reps: usize,
    /// Length of the traced run's probe op stream.
    pub probe_ops: usize,
}

/// The parameters of a batch workload at `scale`.
///
/// # Panics
///
/// If `workload` is not a batch workload.
pub fn params(workload: Workload, scale: Scale) -> GepcParams {
    let (n_users, budget_frac, threads, inputs) = match workload {
        Workload::GepcWide => (24_000, (0.5, 2.5), 2, 3),
        Workload::GepcNarrow => (40_000, (0.3, 0.5), 1, 4),
        other => panic!("{} is not a batch workload", other.name()),
    };
    match scale {
        Scale::Full => GepcParams {
            n_users,
            n_events: 200,
            budget_frac,
            threads,
            inputs,
            setup_reps: 3,
            min_reps: 1,
            probe_ops: 40,
        },
        Scale::Smoke => GepcParams {
            n_users: 2_000,
            n_events: 50,
            budget_frac,
            threads,
            inputs: 2,
            setup_reps: 2,
            min_reps: 2,
            probe_ops: 10,
        },
    }
}

fn generator(p: &GepcParams, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_users: p.n_users,
        n_events: p.n_events,
        seed,
        candidate_pruned: true,
        budget_frac: p.budget_frac,
        ..GeneratorConfig::default()
    }
}

/// Generates input `i` and writes it to `work/instance-<i>.json`, then
/// loads it `p.setup_reps` times. Returns the loaded instance and the
/// load times.
fn prepare(
    p: &GepcParams,
    seed: u64,
    i: usize,
    work: &Path,
) -> Result<(Instance, Vec<f64>), String> {
    let path = work.join(format!("instance-{i}.json"));
    save_instance(&generate(&generator(p, input_seed(seed, i))), &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let mut loads = Vec::new();
    let mut instance = None;
    for _ in 0..p.setup_reps.max(1) {
        let t = Instant::now();
        let loaded = load_instance(&path);
        loads.push(t.elapsed().as_secs_f64());
        instance = Some(loaded.map_err(|e| format!("loading {}: {e}", path.display()))?);
    }
    let instance = instance.ok_or("no instance loaded")?;
    Ok((instance, loads))
}

/// Solves a fresh copy of `instance` (the copy must build its own
/// candidate cache, as a freshly loaded instance does). Returns the
/// result, the wall time and the peak heap growth in MiB.
fn solve_fresh(instance: &Instance) -> (Result<Solution, String>, f64, f64) {
    let fresh = cold_clone(instance);
    let probe = MemoryProbe::start();
    let t = Instant::now();
    let result = GapBasedSolver::default().try_solve(&fresh, SolveBudget::UNLIMITED);
    let wall = t.elapsed().as_secs_f64();
    let mib = probe.finish().peak_delta_mib();
    let result = match result {
        Ok(sol) if sol.report.winner() == Some("gap_based") => Ok(sol),
        Ok(sol) => Err(format!(
            "the GAP pipeline lost to {:?}",
            sol.report.winner()
        )),
        Err(e) => Err(format!("solve failed: {e}")),
    };
    (result, wall, mib)
}

/// One instance of an untraced run and what was measured on it.
struct Input {
    instance: Instance,
    loads: Vec<f64>,
    walls: Vec<f64>,
    mibs: Vec<f64>,
    first: Option<Solution>,
}

/// The untraced run: every input is written out and loaded (the loads
/// give `setup_s`), then the inputs are solved in turn until `seconds`
/// have passed and each was solved at least `min_reps` times.
pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let p = params(workload, scale);
    epplan_par::set_threads(p.threads);
    let mut out = Outcome::default();
    let mut inputs = Vec::new();
    for i in 0..p.inputs {
        match prepare(&p, seed, i, work) {
            Ok((instance, loads)) => inputs.push(Input {
                instance,
                loads,
                walls: Vec::new(),
                mibs: Vec::new(),
                first: None,
            }),
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    let started = Instant::now();
    let mut solves = 0;
    while solves < p.inputs * p.min_reps || started.elapsed().as_secs_f64() < seconds {
        let input = &mut inputs[solves % p.inputs];
        solves += 1;
        let (result, wall, mib) = solve_fresh(&input.instance);
        input.walls.push(wall);
        input.mibs.push(mib);
        out.attempted += 1;
        let sol = match result {
            Ok(sol) => sol,
            Err(e) => {
                out.failed += 1;
                out.fail(e);
                continue;
            }
        };
        match &input.first {
            None => {
                let cert = certify(&input.instance, &sol.plan);
                out.check(cert.hard_ok(), || {
                    format!("solver plan failed certification: {cert}")
                });
                input.first = Some(sol);
            }
            Some(f) => out.check(f.plan == sol.plan && f.utility == sol.utility, || {
                format!("solve {solves} differs from the first solve of its instance")
            }),
        }
    }
    let mut ratios = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        if let Some(f) = &input.first {
            let greedy = GreedySolver::seeded(input_seed(seed, i)).solve(&input.instance);
            ratios.push(f.utility / greedy.utility);
        }
    }
    let best = |f: fn(&Input) -> &Vec<f64>| {
        minima(&inputs.iter().map(|x| f(x).clone()).collect::<Vec<_>>())
    };
    let walls = best(|x| &x.walls);

    out.set("setup_s", mean(&best(|x| &x.loads)));
    out.set("latency_ms", mean(&walls) * 1e3);
    out.set(
        "throughput_per_s",
        (p.n_users * p.inputs) as f64 / walls.iter().sum::<f64>(),
    );
    out.set("peak_mib", mean(&best(|x| &x.mibs)));
    out.set("utility_ratio", mean(&ratios));
    out
}

/// The traced run on the run's first input: the solve rebuilt layer by
/// layer (see [`trace_solve`]), then a short probe op stream through a
/// daemon.
pub fn run_traced(
    workload: Workload,
    scale: Scale,
    seed: u64,
    work: &Path,
    tr: &mut Tracer,
) -> Outcome {
    let p = params(workload, scale);
    epplan_par::set_threads(p.threads);
    let mut out = Outcome::default();
    let root = tr.open(&format!("bench.{}", workload.name()), None);
    let instance = match prepare(&p, seed, 0, work) {
        Ok((instance, _)) => instance,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let Some(solved) = trace_solve(tr, root.id(), &instance, &mut out) else {
        return out;
    };
    out.set(
        "trace.overhead_frac",
        (solved.traced_s - solved.untraced_s) / solved.untraced_s,
    );
    let plan = solved.reference.plan;
    let ops = OpStreamSampler::new(seed).sequenced_stream(&instance, &plan, p.probe_ops, 1);
    let state = work.join("probe-state");
    let started = tr.time("serve.daemon.start", root.id(), || {
        Daemon::start(cold_clone(&instance), ServeConfig::default(), Some(&state))
    });
    match started.value {
        Ok(mut daemon) => {
            serve::trace_ops(tr, root.id(), &mut daemon, &ops, 1, work, &mut out);
        }
        Err(e) => out.fail(format!("probe daemon did not start: {e}")),
    }
    tr.close(root);
    out
}

/// What [`trace_solve`] hands back.
pub struct TracedSolve {
    /// The untraced `GapBasedSolver` solution.
    pub reference: Solution,
    /// Its wall time.
    pub untraced_s: f64,
    /// Summed wall time of the rebuilt layers.
    pub traced_s: f64,
}

/// Solves `instance` once untraced with `GapBasedSolver::default()`,
/// then rebuilds that solve from public calls, one span per layer
/// under `parent`, checks that the rebuilt plan is byte-equal to the
/// solver's, and records the batch per-layer metrics.
pub fn trace_solve(
    tr: &mut Tracer,
    parent: u64,
    instance: &Instance,
    out: &mut Outcome,
) -> Option<TracedSolve> {
    let (reference, untraced_s, _) = solve_fresh(instance);
    out.attempted += 1;
    let reference = match reference {
        Ok(sol) => sol,
        Err(e) => {
            out.failed += 1;
            out.fail(e);
            return None;
        }
    };
    let solver = GapBasedSolver::default();
    let inst = cold_clone(instance);
    let cands = tr.time("core.candidates.build", parent, || inst.candidates().len());
    let reduction = tr.time("core.reduction", parent, || solver.build_gap(&inst));
    let (gap, jobs) = &reduction.value;
    let solved = tr.time("gap.solve", parent, || {
        GapSolver::new(solver.gap.clone()).solve(gap)
    });
    let assignment = match &solved.value {
        Ok(s) => &s.assignment,
        Err(e) => {
            out.fail(format!("GAP pipeline failed in the rebuild: {e}"));
            return None;
        }
    };
    // The raw multiset assignment, built as `GapBasedSolver` builds it.
    let mut raw: RawAssignment = vec![Vec::new(); inst.n_users()];
    for (job, machine) in assignment.iter().enumerate() {
        if let (Some(i), Some(&e)) = (*machine, jobs.get(job)) {
            if let Some(row) = raw.get_mut(i) {
                row.push(e);
            }
        }
    }
    let n_raw: usize = raw.iter().map(Vec::len).sum();
    let adjusted = tr.time("core.conflict_adjust", parent, || {
        let mut plan = conflict_adjust(&inst, raw);
        budget_repair(&inst, &mut plan);
        plan
    });
    let mut plan = adjusted.value;
    let kept = plan.total_assignments();
    let fill = tr.time("core.fill", parent, || {
        fill_to_upper(&inst, &mut plan, None)
    });
    let rebuilt = serde_json::to_string(&plan).ok();
    out.check(
        rebuilt.is_some() && rebuilt == serde_json::to_string(&reference.plan).ok(),
        || "the rebuilt pipeline's plan is not byte-equal to the solver's".to_string(),
    );

    // Probe calls: the two halves of `GapSolver::solve`, timed apart.
    let limit = solver.gap.auto_simplex_limit;
    out.check(gap.allowed_pairs_count() > limit, || {
        format!("instance has at most {limit} allowed pairs, so the solve uses the simplex")
    });
    let frac = tr.time("gap.fractional", parent, || {
        mw_fractional(gap, &solver.gap.packing)
    });
    match frac.value {
        Ok(mut f) => {
            f.prune_top_k(solver.gap.rounding_top_k);
            let rounded = tr.time("gap.rounding", parent, || round_shmoys_tardos(gap, &f));
            out.check(rounded.value.is_ok(), || {
                "rounding probe failed".to_string()
            });
            out.set("gap.rounding_ms", rounded.secs * 1e3);
        }
        Err(e) => out.fail(format!("fractional probe failed: {e}")),
    }
    let cert = tr.time("core.certify.full", parent, || certify(&inst, &plan));
    out.check(cert.value.hard_ok(), || {
        format!("rebuilt plan failed certification: {}", cert.value)
    });

    out.set("core.candidates.build_ms", cands.secs * 1e3);
    out.set(
        "core.candidates.per_user",
        cands.value as f64 / inst.n_users().max(1) as f64,
    );
    out.set("core.reduction.ms", reduction.secs * 1e3);
    out.set("core.reduction.allocs", reduction.allocs as f64);
    out.set("gap.solve_ms", solved.secs * 1e3);
    out.set("gap.solve_allocs", solved.allocs as f64);
    out.set("gap.fractional_ms", frac.secs * 1e3);
    out.set("core.conflict_adjust.ms", adjusted.secs * 1e3);
    out.set(
        "core.conflict_adjust.kept_frac",
        kept as f64 / n_raw.max(1) as f64,
    );
    out.set("core.fill.ms", fill.secs * 1e3);
    out.set("core.fill.allocs", fill.allocs as f64);
    out.set("core.fill.placed", fill.value as f64);
    out.set("core.certify.full_ms", cert.secs * 1e3);
    let traced_s = cands.secs + reduction.secs + solved.secs + adjusted.secs + fill.secs;
    out.set("solve.layer_coverage", traced_s / untraced_s);
    Some(TracedSolve {
        reference,
        untraced_s,
        traced_s,
    })
}
