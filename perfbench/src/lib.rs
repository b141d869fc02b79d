//! The epplan benchmark: end-to-end and per-layer measurements of the
//! two ways the system is used, batch GEPC planning and the `epplan
//! serve` daemon.
//!
//! # Running it
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload gepc_wide --seed 7 --seconds 15 --trace 0
//! ```
//!
//! `--workload` takes one of the names below or `all` (the default).
//! `--seed` (default 7) seeds every generated input: the same seed
//! gives the same instances and op streams. `--seconds` (default 15)
//! is how long the timed repetitions of one workload run; each
//! workload also has a minimum repetition count. `--trace 1` runs the
//! traced variant instead (below); `--trace-file t.jsonl` also writes
//! its spans. `--out run.json` writes every result to a file, and
//! `--scale smoke` shrinks every input for tests. The run prints one
//! `workload metric value unit` line per metric, then, as the last
//! line, a JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics` (keyed `workload/metric` when several workloads ran).
//! It exits 1 when a correctness check fails and 2 on a usage error.
//!
//! `benchmark --compare a.json b.json` reads two `--out` files of
//! untraced runs and prints, for each workload and end-to-end metric,
//! both values, the regression bound from `BENCHMARK.json`, and a
//! verdict: `better`, `within` (no better, and worse by at most the
//! bound) or `worse`. It exits 1 on any `worse`, on a failed check in
//! either file, or when the second file has more failed requests.
//!
//! The benchmark calls only public functions of the repository's
//! crates and adds no spans inside the program. It runs on at most 2
//! threads (`epplan_par::set_threads`).
//!
//! # Workloads
//!
//! Every run measures several independent inputs generated from its
//! seed (input `i` of seed `s` uses generator seed `1000·s + i`):
//! instances drawn from one configuration differ by about 10% in solve
//! time, so with one instance per run the result would depend on the
//! seed more than on the code.
//!
//! | name | inputs per run | each input | loop |
//! |---|---|---|---|
//! | `gepc_wide` | 3 | 24 000 users × 200 events, candidate-pruned, budget fraction (0.5, 2.5): ≈ 85 candidates per user | batch, 2 threads |
//! | `gepc_narrow` | 4 | 40 000 × 200, budget fraction (0.3, 0.5): ≈ 12 candidates per user | batch, 1 thread |
//! | `serve_steady` | 4 | 10 000 × 50, a 500-op stream; drift threshold 5 000, a snapshot every 500 ops | closed loop, 1 client, 1 thread |
//! | `serve_burst` | 16 | 500 × 50, a 250-op bursty stream (runs of 64 ids, gaps of 16) without ξ increases; drift threshold 100, SLO p99 0 µs, brownout 8/4, a snapshot every 250 ops | closed loop, 1 client, 1 thread |
//!
//! * `gepc_wide` has the per-user structure of the 10⁵ × 200 reference
//!   instance with fewer users. The step-2 filler, the multiplicative-
//!   weights packing (the parallel stage) and the rounding matcher
//!   share the time; it is the only workload where a thread-count or
//!   parallel-stage change can show.
//! * `gepc_narrow` runs the same pipeline with 7× fewer candidates. The
//!   rounding matcher dominates and the filler is small: a filler or
//!   threading change should not move it, a matcher change shows here.
//! * `serve_steady` isolates the per-op repair path (incremental apply
//!   and incremental certification), plus WAL appends and one snapshot
//!   stall per session. No drift re-solve fires.
//! * `serve_burst` drives the same daemon into full re-solves (degraded
//!   LNS once the brownout ladder reaches level 2): repairs are cheap
//!   and re-solves take most of the time, so a repair-path gain should
//!   barely move it. A run's few dozen re-solves set its throughput,
//!   so it takes many short inputs. Admission shedding is off, so no
//!   op fails. The stream has no ξ increases because after a full
//!   re-solve the sampler's model of the instance can disagree with
//!   the daemon's, which then rejects a ξ increase as malformed.
//!
//! A serving client waits for each acknowledgement before sending the
//! next op, as the serve protocol works (a closed loop with one
//! client); each session starts a fresh daemon with its WAL in a
//! scratch directory and feeds it the input's whole stream.
//!
//! No workload reaches the dense simplex of `epplan-lp`:
//! `FractionalMethod::Auto` routes only instances with at most 12 000
//! allowed pairs there, and the traced run checks that each workload
//! stays above that.
//!
//! # End-to-end metrics (untraced run)
//!
//! The inputs take turns until `--seconds` have passed, so each is
//! repeated a few times. Each time metric takes an input's best
//! repetition and combines it over the run's inputs: on a shared host,
//! contention from other tenants only ever adds time, so the fastest
//! repetition is the steadiest estimate of the code's own cost. On the
//! 2-vCPU Xeon VM this was built on, repetitions within one process
//! varied by up to 15% and their best by about 3%; but memory-system
//! contention from co-tenants also slowed whole minutes by up to 1.7×
//! (a compute-only loop stayed within 5% meanwhile), and no statistic
//! inside a 15-second run removes that. Hence the 25% bounds on the
//! time metrics in `BENCHMARK.json`.
//!
//! * `setup_s` — gepc: `epplan_datagen::load_instance` of the input's
//!   instance JSON (written untimed beforehand; every `epplan solve`
//!   pays it), 3 loads per input. serve: `Daemon::start` (initial
//!   solve, certification, first snapshot, candidate warm-up), once
//!   per session.
//! * `latency_ms` — wall time of one request as its client sees it:
//!   gepc, a whole `GapBasedSolver::try_solve` of a fresh copy of the
//!   instance (which must still build its candidate cache); serve, the
//!   median `Daemon::process` call of a session, WAL appends and
//!   snapshots included. The serve tail is left to the traced run
//!   (`serve.op_p99_ms`): a stream's slowest 1% are its few snapshots
//!   and re-solves, whose count varies with the seed far more than a
//!   regression bound allows.
//! * `throughput_per_s` — gepc: users planned per second of solve
//!   time; serve: ops per second of `Daemon::process` time. The work of
//!   all inputs over the summed time of their best repetitions (a ratio
//!   of sums: a mean of per-input rates would let the inputs whose
//!   streams trigger few re-solves dominate). This is not
//!   `ServeSummary.ops_per_sec`, whose clock also covers start-up and
//!   the final certification.
//! * `peak_mib` — peak heap growth over the timed region: one solve,
//!   or one session's stream.
//! * `utility_ratio` — utility of the final plan over that of the
//!   paper's baseline on the same instance: `GreedySolver` for gepc
//!   (Table VI), a from-scratch `GapBasedSolver` solve of the final
//!   instance for serve (Re-GAP, Tables VII–IX). Absolute utilities
//!   differ by up to 30% between seeds; these ratios by about 1%.
//!
//! `attempted` counts solves or ops; `failed` counts solves the GAP
//! pipeline did not win and ops the daemon rejected, shed or
//! quarantined. Outside the timers the run checks that every final
//! plan certifies, that every repetition of an input yields the same
//! plan, and that no `Daemon::process` call errs.
//!
//! # Traced run (`--trace 1`)
//!
//! The run's first input only, timed call by call from outside the
//! program, with the allocation calls inside each call
//! (`epplan_memtrack`). The batch layers are timed by rebuilding the
//! solve from public calls (`Instance::candidates` → `build_gap` →
//! `GapSolver::solve` → `conflict_adjust` + `budget_repair` →
//! `fill_to_upper`), checked byte-equal to the solver's plan; serve
//! workloads rebuild the daemon's initial solve and check it equals the
//! daemon's plan. `mw_fractional` and `round_shmoys_tardos` (after
//! `prune_top_k`) run as extra probe calls. The serving layers are
//! timed on a `Daemon` fed the input's stream (gepc workloads: a short
//! probe stream on the solved plan): on every 10th op (every op of a
//! gepc probe stream) the pre-op state is cloned untimed, then
//! `try_apply_budgeted` and `certify_incremental` are re-run on the
//! clone and checked equal to the daemon's plan when the op was
//! `applied`; WAL appends go to a scratch log, and the final state is
//! snapshotted once.
//! `solve.layer_coverage` is the rebuilt layers' summed wall over one
//! untraced solve's, and `trace.overhead_frac` is the traced-minus-
//! untraced difference of the solve wall (gepc) or of the summed
//! `Daemon::process` wall (serve) over the untraced value; both rest
//! on single samples and move with machine noise.
//!
//! Spans are kept in memory and written at the end, one
//! `epplan_obs::TraceEvent` JSON object per line, under a root span
//! `bench.<workload>`, so `epplan report --trace t.jsonl` computes
//! their self time. [`registry::PER_LAYER`] lists each per-layer metric
//! with the end-to-end metrics and workloads it should move.

pub mod gepc;
pub mod registry;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};

use epplan_core::model::Instance;
use registry::{END_TO_END, PER_LAYER};

/// Everything one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Requests attempted: solves (gepc) or ops (serve).
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Failed correctness checks; the run is correct when empty.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The declared metrics of this run's kind (end-to-end when
    /// untraced, per-layer when traced) as `(name, value, unit)`, in
    /// declaration order. A declared metric the run did not measure,
    /// a value that is not finite, or a measured name that is not
    /// declared fails the run.
    pub fn declared_metrics(&mut self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let declared: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut rows = Vec::new();
        for &(name, unit) in &declared {
            match self.metrics.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => rows.push((name, v, unit)),
                Some(&(_, v)) => self.fail(format!("metric {name} is not finite ({v})")),
                None => self.fail(format!("metric {name} was not measured")),
            }
        }
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !declared.iter().any(|(d, _)| d == n))
            .collect();
        for name in extra {
            self.fail(format!("metric {name} is measured but not declared"));
        }
        rows
    }
}

/// A scratch directory inside the working directory, unique to this
/// process, removed on drop. Instance files, daemon state and probe
/// WALs live here, so concurrent runs never share a file.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

/// Parent of every [`WorkDir`], relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>-<nanos>`.
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = Path::new(WORK_ROOT).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// The generator seed of input `i` of a run with seed `seed`. A run
/// measures several independent inputs, so that one unusual instance
/// moves its result less.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

/// A copy of `instance` without its candidate cache, as a freshly
/// loaded instance is: the derived `Clone` would copy a built cache.
pub fn cold_clone(instance: &Instance) -> Instance {
    let mut copy = instance.clone();
    copy.invalidate_candidates();
    copy
}
