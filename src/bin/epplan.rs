//! `epplan` — command-line interface to the event-participant planner.
//!
//! ```text
//! epplan generate --users 500 --events 50 [--seed 42] [--pruned]
//!                 [--budget-frac 0.3,0.5] --out instance.json
//! epplan generate --city vancouver --out instance.json
//! epplan solve --instance instance.json [--solver greedy|gap|exact]
//!              [--seed 7] [--time-limit-ms 500] [--max-iters 10000]
//!              [--out plan.json] [--stats] [--metrics] [--json-metrics]
//!              [--trace trace.jsonl]
//! epplan validate --instance instance.json --plan plan.json
//! epplan apply --instance instance.json --plan plan.json --ops ops.json
//!              [--out-instance i2.json] [--out-plan p2.json]
//! epplan example [--out instance.json]
//! epplan opstream --instance instance.json [--count 1000] [--seed 42]
//!                 [--start-id 1] [--burst LEN,GAP] [--out ops.jsonl]
//! epplan serve --instance instance.json [--ops ops.jsonl | --socket s.sock]
//!              [--state-dir dir] [--restore] [--snapshot-every 1000]
//!              [--op-time-limit-ms 50] [--op-max-iters 100000]
//!              [--max-retries 3] [--drift-threshold 500]
//!              [--resolve-time-limit-ms 5000] [--resolve-max-iters N]
//!              [--metrics-socket m.sock] [--slo-p99-us N] [--slo-window-ops 1024]
//!              [--op-deadline-ops N] [--brownout DOWN,UP] [--quarantine-after N]
//!              [--out plan.json] [--quiet] [--metrics] [--json-metrics]
//! epplan serve --state-dir dir --dump-dead-letter
//! epplan report --trace trace.jsonl [--perfetto out.json] [--top 20]
//! ```
//!
//! Instances and plans are JSON; operation streams are JSON arrays of
//! internally-tagged [`AtomicOp`] values, e.g.
//!
//! ```json
//! [{"op": "eta_decrease", "event": 3, "new_upper": 1},
//!  {"op": "budget_change", "user": 7, "new_budget": 12.5}]
//! ```
//!
//! `serve` instead speaks newline-delimited JSON of *sequenced* ops
//! (`{"id": 17, "op": {...}}`), read from `--ops`, a Unix socket, or
//! stdin; every op is acknowledged with one JSON response line, and the
//! stream ends with a JSON summary line. With `--state-dir` the daemon
//! write-ahead-logs every op and snapshots periodically; `--restore`
//! recovers the pre-crash certified plan from that directory.
//!
//! Overload resilience: `--op-deadline-ops N` sheds ops that arrive
//! more than `N` ops behind the work clock (status `"shed"`);
//! `--brownout DOWN,UP` (requires `--slo-p99-us`) arms the 3-level
//! brownout ladder — after `DOWN` consecutive burning ops the daemon
//! steps one degradation level down, after `UP` healthy ops one level
//! back up (level 1 halves repair budgets, level 2 also raises the
//! drift threshold 4×; re-solves run the gap pipeline at every level);
//! `--quarantine-after N` dead-letters an op whose replay attempts hit
//! `N` and skips it; `--dump-dead-letter` prints every quarantined op
//! as one JSON line and exits. All decisions are recorded in the WAL
//! before being acted on, so `--restore` retraces them bit-identically.
//!
//! `--metrics-socket` additionally binds a Unix socket that answers
//! every connection with one point-in-time Prometheus text scrape
//! (counters, gauges, histograms, sliding-window latency quantiles and
//! an `epplan_health` line) — polled between ops from the serving
//! thread, so a slow or dead scraper can never stall ingestion or
//! perturb the plan. `--slo-p99-us` arms SLO burn accounting over the
//! last `--slo-window-ops` operations.
//!
//! `report` turns a `--trace` JSONL file (from `solve --trace` or
//! `serve --trace`) into a per-stage self-time table, a critical-path
//! attribution, and optionally a Perfetto/chrome://tracing JSON file.
//!
//! # Exit codes
//!
//! Failures are classified, each with a distinct non-zero exit code and
//! a machine-readable JSON error object on stderr (last stderr line):
//!
//! | code | class              | meaning                                    |
//! |------|--------------------|--------------------------------------------|
//! | 1    | `internal`         | unexpected internal failure                |
//! | 2    | `usage`            | bad flags / unknown subcommand             |
//! | 3    | `io`               | file unreadable or unwritable              |
//! | 4    | `parse`            | malformed JSON in an input file            |
//! | 5    | `invalid-instance` | instance fails strict model validation, or |
//! |      |                    | a plan file does not fit its instance      |
//! | 6    | `infeasible`       | plan violates hard constraints / no plan   |
//! | 7    | `budget-exhausted` | solve budget ran out (partial plan saved)  |

use epplan::core::incremental::{AtomicOp, IncrementalPlanner};
use epplan::core::plan::Plan;
use epplan::core::solver::{FailureKind, SolveBudget};
use epplan::datagen::{generate, City, GeneratorConfig};
use epplan::prelude::*;
use epplan::solve::Certificate;
use serde::Serialize;
use std::collections::HashMap;
use std::path::Path;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

// Count allocations so per-span `mem_peak_bytes` / `alloc_calls` in
// trace output reflect real allocator traffic, as in the bench binary.
#[global_allocator]
static ALLOC: epplan::memtrack::Tracking = epplan::memtrack::Tracking;

/// Failure classes, each mapping to a stable exit code.
#[derive(Debug, Clone, Copy)]
enum FailClass {
    Internal,
    Usage,
    Io,
    Parse,
    InvalidInstance,
    Infeasible,
    BudgetExhausted,
}

impl FailClass {
    fn exit_code(self) -> i32 {
        match self {
            FailClass::Internal => 1,
            FailClass::Usage => 2,
            FailClass::Io => 3,
            FailClass::Parse => 4,
            FailClass::InvalidInstance => 5,
            FailClass::Infeasible => 6,
            FailClass::BudgetExhausted => 7,
        }
    }

    fn name(self) -> &'static str {
        match self {
            FailClass::Internal => "internal",
            FailClass::Usage => "usage",
            FailClass::Io => "io",
            FailClass::Parse => "parse",
            FailClass::InvalidInstance => "invalid-instance",
            FailClass::Infeasible => "infeasible",
            FailClass::BudgetExhausted => "budget-exhausted",
        }
    }

    fn for_failure_kind(kind: FailureKind) -> FailClass {
        match kind {
            FailureKind::BadInput => FailClass::InvalidInstance,
            FailureKind::Infeasible => FailClass::Infeasible,
            FailureKind::BudgetExhausted => FailClass::BudgetExhausted,
            FailureKind::NumericalInstability => FailClass::Internal,
        }
    }
}

/// The machine-readable error object printed as the last stderr line.
#[derive(Serialize)]
struct ErrorObject {
    class: String,
    exit_code: i32,
    message: String,
}

fn fail(class: FailClass, msg: &str) -> ! {
    eprintln!("error: {msg}");
    let obj = ErrorObject {
        class: class.name().to_string(),
        exit_code: class.exit_code(),
        message: msg.to_string(),
    };
    if let Ok(json) = serde_json::to_string(&obj) {
        eprintln!("{json}");
    }
    exit(class.exit_code())
}

fn usage() -> ! {
    fail(
        FailClass::Usage,
        "usage: epplan <generate|solve|validate|apply|example|opstream|serve|report> [flags]; \
         run with a subcommand; see crate docs for the flag list",
    )
}

/// Per-subcommand flag grammar: which `--flag value` pairs and which
/// bare `--flag` booleans a subcommand accepts. Anything else is a
/// usage error — silently swallowing a typo like `--solvr gap` would
/// run the wrong solver without complaint.
struct FlagSpec {
    value: &'static [&'static str],
    boolean: &'static [&'static str],
}

fn flag_spec(cmd: &str) -> FlagSpec {
    match cmd {
        "generate" => FlagSpec {
            value: &["users", "events", "seed", "out", "city", "threads", "budget-frac"],
            boolean: &["pruned"],
        },
        "solve" => FlagSpec {
            value: &[
                "instance", "solver", "seed", "time-limit-ms", "max-iters", "out", "trace",
                "threads",
            ],
            boolean: &["stats", "metrics", "json-metrics"],
        },
        "validate" => FlagSpec {
            value: &["instance", "plan", "threads"],
            boolean: &[],
        },
        "apply" => FlagSpec {
            value: &["instance", "plan", "ops", "out-instance", "out-plan", "threads"],
            boolean: &[],
        },
        "example" => FlagSpec {
            value: &["out", "threads"],
            boolean: &[],
        },
        "opstream" => FlagSpec {
            value: &["instance", "count", "seed", "start-id", "burst", "out", "threads"],
            boolean: &[],
        },
        "serve" => FlagSpec {
            value: &[
                "instance",
                "ops",
                "socket",
                "state-dir",
                "snapshot-every",
                "op-time-limit-ms",
                "op-max-iters",
                "max-retries",
                "drift-threshold",
                "resolve-time-limit-ms",
                "resolve-max-iters",
                "crash-after-ops",
                "crash-in-op",
                "op-deadline-ops",
                "brownout",
                "quarantine-after",
                "metrics-socket",
                "slo-p99-us",
                "slo-window-ops",
                "out",
                "threads",
                "trace",
            ],
            boolean: &["restore", "quiet", "metrics", "json-metrics", "dump-dead-letter"],
        },
        "report" => FlagSpec {
            value: &["trace", "perfetto", "top", "threads"],
            boolean: &[],
        },
        _ => usage(),
    }
}

/// Parses the arguments after the subcommand against its [`FlagSpec`].
/// Boolean flags are stored with an empty value; test for presence
/// with `contains_key`.
fn parse_flags(cmd: &str, args: &[String], spec: &FlagSpec) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(name) = k.strip_prefix("--") else {
            fail(FailClass::Usage, &format!("unexpected argument {k}"));
        };
        if spec.boolean.contains(&name) {
            flags.insert(name.to_string(), String::new());
            continue;
        }
        if !spec.value.contains(&name) {
            fail(
                FailClass::Usage,
                &format!("unknown flag --{name} for `{cmd}`"),
            );
        }
        let Some(v) = it.next() else {
            fail(FailClass::Usage, &format!("flag --{name} needs a value"));
        };
        flags.insert(name.to_string(), v.clone());
    }
    flags
}

/// Applies `--threads N` (accepted by every subcommand) to the shared
/// worker-count knob. Without the flag the `EPPLAN_THREADS` env var or
/// the machine's available parallelism decides, inside `epplan::par`.
fn apply_threads(flags: &HashMap<String, String>) {
    if let Some(v) = flags.get("threads") {
        let n: usize = v
            .parse()
            .unwrap_or_else(|_| fail(FailClass::Usage, "bad --threads (want a positive integer)"));
        if n == 0 {
            fail(FailClass::Usage, "bad --threads (want a positive integer)");
        }
        epplan::par::set_threads(n);
    }
}

fn load_instance(flags: &HashMap<String, String>) -> Instance {
    let path = flags
        .get("instance")
        .unwrap_or_else(|| fail(FailClass::Usage, "--instance <file> is required"));
    let instance = epplan::datagen::load_instance(Path::new(path)).unwrap_or_else(|e| {
        let class = if e.kind() == std::io::ErrorKind::InvalidData {
            FailClass::Parse
        } else {
            FailClass::Io
        };
        fail(class, &format!("cannot parse or read instance {path}: {e}"))
    });
    // Deserialization bypasses every constructor check; reject broken
    // instances (NaN utilities, inverted windows, η < ξ, …) up front.
    if let Err(e) = instance.validate_strict() {
        fail(
            FailClass::InvalidInstance,
            &format!("invalid instance {path}: {e}"),
        );
    }
    instance
}

/// Reads `--plan` and checks it against `instance`: deserialization
/// bypasses every `Plan` invariant, so a plan shaped for another
/// instance, listing an event twice or miscounting attendance is
/// rejected here rather than panicking later.
fn load_plan(flags: &HashMap<String, String>, instance: &Instance) -> Plan {
    let path = flags
        .get("plan")
        .unwrap_or_else(|| fail(FailClass::Usage, "--plan <file> is required"));
    let data = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot read plan {path}: {e}")));
    let plan: Plan = serde_json::from_str(&data)
        .unwrap_or_else(|e| fail(FailClass::Parse, &format!("cannot parse plan {path}: {e}")));
    if !plan.is_consistent(instance) {
        fail(
            FailClass::InvalidInstance,
            &format!(
                "invalid plan {path}: it does not fit the instance, lists an event twice \
                 or miscounts attendance"
            ),
        );
    }
    plan
}

fn to_json<T: serde::Serialize>(value: &T, pretty: bool) -> String {
    let res = if pretty {
        serde_json::to_string_pretty(value)
    } else {
        serde_json::to_string(value)
    };
    res.unwrap_or_else(|e| fail(FailClass::Internal, &format!("cannot serialize output: {e}")))
}

fn write_json<T: serde::Serialize>(value: &T, path: &str) {
    let json = to_json(value, true);
    std::fs::write(path, json)
        .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot write {path}: {e}")));
    eprintln!("wrote {path}");
}

/// Prints the plan summary; `cert` is `plan`'s certificate, and its
/// `U_P` the utility line.
fn summarize(instance: &Instance, plan: &Plan, cert: &Certificate) {
    println!("utility        : {:.3}", cert.utility);
    println!("assignments    : {}", plan.total_assignments());
    println!(
        "hard-feasible  : {}",
        if cert.hard_ok() { "yes" } else { "NO" }
    );
    let shortfalls = plan.shortfall(instance);
    println!(
        "events below xi: {}{}",
        shortfalls.len(),
        if shortfalls.is_empty() {
            String::new()
        } else {
            format!(" ({shortfalls:?})")
        }
    );
}

fn cmd_generate(flags: HashMap<String, String>) {
    let instance = if let Some(city) = flags.get("city") {
        let city = match city.to_lowercase().as_str() {
            "beijing" => City::Beijing,
            "vancouver" => City::Vancouver,
            "auckland" => City::Auckland,
            "singapore" => City::Singapore,
            other => fail(FailClass::Usage, &format!("unknown city {other}")),
        };
        city.instance()
    } else {
        let get = |k: &str, d: usize| -> usize {
            flags
                .get(k)
                .map(|v| {
                    v.parse()
                        .unwrap_or_else(|_| fail(FailClass::Usage, &format!("bad --{k}")))
                })
                .unwrap_or(d)
        };
        // `--budget-frac lo,hi` narrows the travel-budget window (as
        // fractions of the city extent); with `--pruned` the utility
        // matrix is emitted in CSR candidate form — the only layout
        // that fits the |U| ≥ 10⁵ scale instances in memory.
        let budget_frac = match flags.get("budget-frac") {
            Some(v) => {
                let parts: Vec<f64> = v
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse()
                            .unwrap_or_else(|_| fail(FailClass::Usage, "bad --budget-frac"))
                    })
                    .collect();
                match parts.as_slice() {
                    [lo, hi] if 0.0 < *lo && lo <= hi => (*lo, *hi),
                    _ => fail(FailClass::Usage, "--budget-frac wants LO,HI with 0 < LO <= HI"),
                }
            }
            None => GeneratorConfig::default().budget_frac,
        };
        let cfg = GeneratorConfig {
            n_users: get("users", 500),
            n_events: get("events", 50),
            seed: get("seed", 42) as u64,
            candidate_pruned: flags.contains_key("pruned"),
            budget_frac,
            ..Default::default()
        };
        generate(&cfg)
    };
    println!(
        "generated {} users × {} events",
        instance.n_users(),
        instance.n_events()
    );
    match flags.get("out") {
        Some(path) => {
            epplan::datagen::save_instance(&instance, Path::new(path))
                .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        None => println!("{}", to_json(&instance, false)),
    }
}

/// Reads the optional `--time-limit-ms` / `--max-iters` flags into a
/// [`SolveBudget`]. Both absent means unlimited.
fn parse_budget(flags: &HashMap<String, String>) -> SolveBudget {
    let mut budget = SolveBudget::UNLIMITED;
    if let Some(v) = flags.get("time-limit-ms") {
        let ms: u64 = v
            .parse()
            .unwrap_or_else(|_| fail(FailClass::Usage, "bad --time-limit-ms"));
        budget = budget.with_time_limit(Duration::from_millis(ms));
    }
    if let Some(v) = flags.get("max-iters") {
        let n: u64 = v
            .parse()
            .unwrap_or_else(|_| fail(FailClass::Usage, "bad --max-iters"));
        budget = budget.with_iteration_cap(n);
    }
    budget
}

/// Which observability outputs `solve` was asked for, set up from the
/// `--trace` / `--metrics` / `--json-metrics` flags.
struct ObsConfig {
    tracing: bool,
    metrics: bool,
    json_metrics: bool,
}

fn setup_obs(flags: &HashMap<String, String>) -> ObsConfig {
    let tracing = match flags.get("trace") {
        Some(path) => {
            let file = std::fs::File::create(path).unwrap_or_else(|e| {
                fail(FailClass::Io, &format!("cannot create trace file {path}: {e}"))
            });
            epplan::obs::install_sink(Arc::new(epplan::obs::JsonlSink::new(
                std::io::BufWriter::new(file),
            )));
            true
        }
        None => false,
    };
    let metrics = flags.contains_key("metrics");
    let json_metrics = flags.contains_key("json-metrics");
    if metrics || json_metrics {
        epplan::obs::enable_metrics();
    }
    ObsConfig { tracing, metrics, json_metrics }
}

/// Flushes the trace sink and emits the metrics snapshot. Must run on
/// every `solve` exit path — including the degraded-fallback one — so a
/// failed run still yields its trace and cost table.
fn finish_obs(cfg: &ObsConfig) {
    if cfg.tracing {
        drop(epplan::obs::uninstall_sink());
    }
    if cfg.metrics || cfg.json_metrics {
        let snap = epplan::obs::snapshot();
        if cfg.metrics {
            eprintln!("{}", snap.render_table());
        }
        if cfg.json_metrics {
            println!("{}", snap.to_json());
        }
    }
}

fn cmd_solve(flags: HashMap<String, String>) {
    let instance = load_instance(&flags);
    let obs = setup_obs(&flags);
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().unwrap_or_else(|_| fail(FailClass::Usage, "bad --seed")))
        .unwrap_or(0);
    let solver: Box<dyn GepcSolver> =
        match flags.get("solver").map(String::as_str).unwrap_or("greedy") {
            "greedy" => Box::new(GreedySolver::seeded(seed)),
            "gap" => Box::new(GapBasedSolver::default()),
            "exact" => Box::new(ExactSolver::default()),
            other => fail(
                FailClass::Usage,
                &format!("unknown solver {other} (greedy|gap|exact)"),
            ),
        };
    let budget = parse_budget(&flags);
    // epplan-lint: allow(determinism/wall-clock) — end-to-end wall time printed to the user; never fed back into the solve
    let start = std::time::Instant::now();
    let solution = match solver.try_solve(&instance, budget) {
        Ok(solution) => solution,
        Err(e) => {
            let class = FailClass::for_failure_kind(e.kind);
            let Some(partial) = e.partial else {
                fail(class, &format!("solve failed at {}: {}", e.stage, e.message));
            };
            // A degraded (but hard-feasible) plan exists: report it,
            // persist it when asked, then exit with the typed code so
            // scripts can tell degraded runs from clean ones.
            eprintln!(
                "warning: solve failed at {} ({}); falling back to {}",
                e.stage,
                e.message,
                partial.report
            );
            let cert = partial.report.certificate.clone().unwrap_or_default();
            println!("certificate    : {cert}");
            summarize(&instance, &partial.plan, &cert);
            if let Some(path) = flags.get("out") {
                write_json(&partial.plan, path);
            }
            finish_obs(&obs);
            fail(class, &format!("solve failed at {}: {}", e.stage, e.message));
        }
    };
    println!(
        "solved with {} in {:.3}s",
        solver.name(),
        start.elapsed().as_secs_f64()
    );
    if !solution.report.attempts.is_empty() {
        println!("solve chain    : {}", solution.report);
    }
    // Every solver certifies the plan it returns (an unchecked
    // certificate never passes), so a solve never exits 0 on a plan
    // that fails certification.
    let cert = solution.report.certificate.clone().unwrap_or_default();
    println!("certificate    : {cert}");
    if !cert.hard_ok() {
        finish_obs(&obs);
        fail(
            FailClass::Infeasible,
            &format!("certification rejected the final plan: {cert}"),
        );
    }
    summarize(&instance, &solution.plan, &cert);
    if flags.contains_key("stats") {
        println!("\n{}", epplan::core::plan::PlanStatistics::of(&instance, &solution.plan));
        let hist =
            epplan::core::plan::PlanStatistics::plan_length_histogram(&instance, &solution.plan);
        println!("plan-length hist : {hist:?}");
    }
    if let Some(path) = flags.get("out") {
        write_json(&solution.plan, path);
    }
    finish_obs(&obs);
}

fn cmd_validate(flags: HashMap<String, String>) {
    let instance = load_instance(&flags);
    let plan = load_plan(&flags, &instance);
    let cert = certify(&instance, &plan);
    summarize(&instance, &plan, &cert);
    for violation in cert.hard_violations.iter().chain(&cert.soft_violations) {
        println!("  {violation}");
    }
    if !cert.hard_ok() {
        fail(
            FailClass::Infeasible,
            &format!("plan violates {} hard constraint(s)", cert.hard_violations.len()),
        );
    }
}

fn cmd_apply(flags: HashMap<String, String>) {
    let instance = load_instance(&flags);
    let plan = load_plan(&flags, &instance);
    let ops_path = flags
        .get("ops")
        .unwrap_or_else(|| fail(FailClass::Usage, "--ops <file> is required"));
    let data = std::fs::read_to_string(ops_path)
        .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot read {ops_path}: {e}")));
    let ops: Vec<AtomicOp> = serde_json::from_str(&data)
        .unwrap_or_else(|e| fail(FailClass::Parse, &format!("cannot parse {ops_path}: {e}")));
    println!("applying {} atomic operation(s)", ops.len());
    let outcome = match IncrementalPlanner.try_apply_batch(&instance, &plan, &ops) {
        Ok(outcome) => outcome,
        Err(e) => fail(
            FailClass::InvalidInstance,
            &format!("cannot apply operation stream: {}", e.message),
        ),
    };
    println!("step difs      : {:?}", outcome.step_difs);
    println!("net dif        : {}", outcome.net_dif);
    summarize(
        &outcome.instance,
        &outcome.plan,
        &certify(&outcome.instance, &outcome.plan),
    );
    if let Some(path) = flags.get("out-instance") {
        write_json(&outcome.instance, path);
    }
    if let Some(path) = flags.get("out-plan") {
        write_json(&outcome.plan, path);
    }
}

fn cmd_example(flags: HashMap<String, String>) {
    let instance = epplan::datagen::paper_example();
    println!("the paper's Example 1: 5 users, 4 events");
    let solution = ExactSolver::default().solve(&instance);
    let cert = solution.report.certificate.clone().unwrap_or_default();
    summarize(&instance, &solution.plan, &cert);
    if let Some(path) = flags.get("out") {
        epplan::datagen::save_instance(&instance, Path::new(path))
            .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

fn cmd_opstream(flags: HashMap<String, String>) {
    let instance = load_instance(&flags);
    let parse_u64 = |k: &str, d: u64| -> u64 {
        flags
            .get(k)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| fail(FailClass::Usage, &format!("bad --{k}")))
            })
            .unwrap_or(d)
    };
    let count = parse_u64("count", 1000) as usize;
    let seed = parse_u64("seed", 42);
    let start_id = parse_u64("start-id", 1);
    if start_id == 0 {
        fail(FailClass::Usage, "bad --start-id (id 0 is reserved)");
    }
    // The sampler weights ops by what the current plan looks like;
    // a deterministic greedy plan supplies that context.
    let plan = GreedySolver::seeded(seed).solve(&instance).plan;
    let mut sampler = epplan::datagen::OpStreamSampler::new(seed);
    let ops = match flags.get("burst") {
        Some(spec) => {
            let burst = epplan::datagen::BurstSpec::parse(spec)
                .unwrap_or_else(|e| fail(FailClass::for_failure_kind(e.kind), &e.to_string()));
            sampler.sequenced_burst_stream(&instance, &plan, count, start_id, burst)
        }
        None => sampler.sequenced_stream(&instance, &plan, count, start_id),
    };
    let mut lines = String::new();
    for sop in &ops {
        lines.push_str(&to_json(sop, false));
        lines.push('\n');
    }
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, lines)
                .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot write {path}: {e}")));
            eprintln!("wrote {} op(s) to {path}", ops.len());
        }
        None => print!("{lines}"),
    }
}

fn serve_fail(obs: &ObsConfig, e: &epplan::serve::ServeError) -> ! {
    finish_obs(obs);
    let class = match e.kind {
        epplan::serve::ServeErrorKind::Io => FailClass::Io,
        epplan::serve::ServeErrorKind::Corrupt => FailClass::Parse,
        epplan::serve::ServeErrorKind::Solve(kind) => FailClass::for_failure_kind(kind),
    };
    fail(class, &e.to_string())
}

/// Feeds every op line of `reader` through the daemon, acknowledging
/// each with one flushed JSON line on `writer` (a client that has read
/// the ack for op `k` knows `k` is durable and the plan certified).
///
/// Pending scrape connections on `metrics` are answered between ops —
/// never concurrently with one — so a scrape observes a consistent
/// point-in-time state and cannot perturb the plan.
fn run_op_stream<R: std::io::BufRead, W: std::io::Write>(
    daemon: &mut epplan::serve::Daemon,
    reader: R,
    writer: &mut W,
    quiet: bool,
    metrics: Option<&epplan::serve::MetricsEndpoint>,
) -> Result<(), epplan::serve::ServeError> {
    use epplan::serve::ServeError;
    if let Some(ep) = metrics {
        ep.poll(daemon);
    }
    for line in reader.lines() {
        let line =
            line.map_err(|e| ServeError::io(format!("reading op stream: {e}")))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let sop = epplan::serve::parse_op_line(line)?;
        let resp = daemon.process(&sop)?;
        if !quiet {
            let json = serde_json::to_string(&resp)
                .map_err(|e| ServeError::io(format!("encoding response: {e}")))?;
            writeln!(writer, "{json}")
                .and_then(|()| writer.flush())
                .map_err(|e| ServeError::io(format!("writing response: {e}")))?;
        }
        if let Some(ep) = metrics {
            ep.poll(daemon);
        }
    }
    Ok(())
}

fn cmd_serve(flags: HashMap<String, String>) {
    use epplan::serve::{BrownoutKnobs, Daemon, OverloadConfig, ServeConfig};
    // Dead-letter export is a pure read of the state directory: no
    // instance, no daemon, no WAL replay.
    if flags.contains_key("dump-dead-letter") {
        let Some(dir) = flags.get("state-dir") else {
            fail(FailClass::Usage, "--dump-dead-letter requires --state-dir");
        };
        let recs = epplan::serve::read_dead_letters(Path::new(dir)).unwrap_or_else(|e| {
            let class = match e.kind {
                epplan::serve::ServeErrorKind::Corrupt => FailClass::Parse,
                _ => FailClass::Io,
            };
            fail(class, &e.to_string())
        });
        for rec in &recs {
            println!("{}", to_json(rec, false));
        }
        return;
    }
    let obs = setup_obs(&flags);
    let parse_u64 = |k: &str| -> Option<u64> {
        flags.get(k).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(FailClass::Usage, &format!("bad --{k}")))
        })
    };
    let brownout = flags.get("brownout").map(|spec| {
        let parts: Vec<u64> = spec
            .split(',')
            .map(|p| {
                p.trim().parse().unwrap_or_else(|_| {
                    fail(FailClass::Usage, "bad --brownout (want DOWN,UP, both >= 1)")
                })
            })
            .collect();
        match parts.as_slice() {
            [down, up] if *down >= 1 && *up >= 1 => {
                BrownoutKnobs { down_after: *down, up_after: *up }
            }
            _ => fail(FailClass::Usage, "bad --brownout (want DOWN,UP, both >= 1)"),
        }
    });
    if brownout.is_some() && !flags.contains_key("slo-p99-us") {
        // Without an SLO nothing ever burns, so the ladder would be a
        // silent no-op — reject the combination instead.
        fail(FailClass::Usage, "--brownout requires --slo-p99-us");
    }
    let mut op_budget = SolveBudget::UNLIMITED;
    if let Some(ms) = parse_u64("op-time-limit-ms") {
        op_budget = op_budget.with_time_limit(Duration::from_millis(ms));
    }
    if let Some(n) = parse_u64("op-max-iters") {
        op_budget = op_budget.with_iteration_cap(n);
    }
    let mut resolve_budget = SolveBudget::UNLIMITED;
    if let Some(ms) = parse_u64("resolve-time-limit-ms") {
        resolve_budget = resolve_budget.with_time_limit(Duration::from_millis(ms));
    }
    if let Some(n) = parse_u64("resolve-max-iters") {
        resolve_budget = resolve_budget.with_iteration_cap(n);
    }
    let config = ServeConfig {
        op_budget,
        resolve_budget,
        max_retries: parse_u64("max-retries").map(|v| v as u32).unwrap_or(3),
        drift_threshold: parse_u64("drift-threshold"),
        snapshot_every: Some(parse_u64("snapshot-every").unwrap_or(1000)),
        crash_after_ops: parse_u64("crash-after-ops"),
        crash_in_op: parse_u64("crash-in-op"),
        slo_p99_us: parse_u64("slo-p99-us"),
        slo_window_ops: parse_u64("slo-window-ops").unwrap_or(1024).max(1),
        overload: OverloadConfig {
            op_deadline_ops: parse_u64("op-deadline-ops"),
            brownout,
            quarantine_after: parse_u64("quarantine-after").map(|v| v as u32),
        },
    };
    // A metrics socket implies the metrics registry: scrapes would
    // otherwise be empty.
    let metrics_endpoint = flags.get("metrics-socket").map(|path| {
        epplan::obs::enable_metrics();
        epplan::serve::MetricsEndpoint::bind(Path::new(path))
            .unwrap_or_else(|e| fail(FailClass::Io, &e.to_string()))
    });
    let state_dir = flags.get("state-dir").map(std::path::PathBuf::from);
    let quiet = flags.contains_key("quiet");
    let mut daemon = if flags.contains_key("restore") {
        let Some(dir) = &state_dir else {
            fail(FailClass::Usage, "--restore requires --state-dir");
        };
        Daemon::restore(config, dir).unwrap_or_else(|e| serve_fail(&obs, &e))
    } else {
        let instance = load_instance(&flags);
        Daemon::start(instance, config, state_dir.as_deref())
            .unwrap_or_else(|e| serve_fail(&obs, &e))
    };
    if !quiet {
        eprintln!("certificate    : {}", daemon.certificate());
    }
    let result = if let Some(path) = flags.get("socket") {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)
            .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot bind socket {path}: {e}")));
        let (stream, _) = listener
            .accept()
            .unwrap_or_else(|e| fail(FailClass::Io, &format!("accepting on {path}: {e}")));
        let mut writer = stream
            .try_clone()
            .unwrap_or_else(|e| fail(FailClass::Io, &format!("cloning socket stream: {e}")));
        run_op_stream(
            &mut daemon,
            std::io::BufReader::new(stream),
            &mut writer,
            quiet,
            metrics_endpoint.as_ref(),
        )
    } else if let Some(path) = flags.get("ops") {
        let file = std::fs::File::open(path)
            .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot read {path}: {e}")));
        let stdout = std::io::stdout();
        run_op_stream(
            &mut daemon,
            std::io::BufReader::new(file),
            &mut stdout.lock(),
            quiet,
            metrics_endpoint.as_ref(),
        )
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        run_op_stream(
            &mut daemon,
            stdin.lock(),
            &mut stdout.lock(),
            quiet,
            metrics_endpoint.as_ref(),
        )
    };
    if let Err(e) = result {
        serve_fail(&obs, &e);
    }
    // One last poll so a scraper connecting right at end-of-stream
    // still gets the final state before the socket is torn down.
    if let Some(ep) = &metrics_endpoint {
        ep.poll(&daemon);
    }
    let summary = daemon.summary();
    println!("{}", to_json(&summary, false));
    if !quiet {
        eprintln!("certificate    : {}", daemon.certificate());
    }
    if let Some(path) = flags.get("out") {
        write_json(daemon.plan(), path);
    }
    finish_obs(&obs);
    if !summary.certified {
        fail(
            FailClass::Infeasible,
            "final plan failed certification (this is a bug: serve must never expose uncertified state)",
        );
    }
}

/// One line of a `--trace` JSONL file, mirroring the `JsonlSink`
/// schema. Numeric fields default to 0 so hand-trimmed traces (or
/// future schema extensions) still parse.
#[derive(serde::Deserialize)]
struct TraceLine {
    ts: u64,
    id: u64,
    #[serde(default)]
    parent: Option<u64>,
    span: String,
    #[serde(default)]
    dur_us: u64,
    #[serde(default)]
    iters: u64,
    #[serde(default)]
    mem_peak_bytes: u64,
    #[serde(default)]
    alloc_calls: u64,
}

fn cmd_report(flags: HashMap<String, String>) {
    let path = flags
        .get("trace")
        .unwrap_or_else(|| fail(FailClass::Usage, "--trace <trace.jsonl> is required"));
    let top: usize = flags
        .get("top")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(FailClass::Usage, "bad --top (want a positive integer)"))
        })
        .unwrap_or(20);
    let data = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot read trace {path}: {e}")));
    let mut events: Vec<epplan::obs::OwnedTraceEvent> = Vec::new();
    for (idx, line) in data.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let t: TraceLine = serde_json::from_str(line).unwrap_or_else(|e| {
            fail(
                FailClass::Parse,
                &format!("bad trace line {} in {path}: {e}", idx + 1),
            )
        });
        events.push(epplan::obs::OwnedTraceEvent {
            ts_us: t.ts,
            id: t.id,
            parent: t.parent,
            span: t.span,
            dur_us: t.dur_us,
            iters: t.iters,
            mem_peak_delta: t.mem_peak_bytes,
            alloc_calls: t.alloc_calls,
        });
    }
    if events.is_empty() {
        fail(FailClass::Parse, &format!("trace {path} holds no events"));
    }
    println!("{} span(s) in {path}", events.len());
    let rows = epplan::obs::self_time(&events);
    println!("\n{}", epplan::obs::render_self_time(&rows, top));
    let cp = epplan::obs::critical_path(&events);
    println!("{}", epplan::obs::render_critical_path(&cp, top));
    if let Some(out) = flags.get("perfetto") {
        std::fs::write(out, epplan::obs::perfetto_json(&events))
            .unwrap_or_else(|e| fail(FailClass::Io, &format!("cannot write {out}: {e}")));
        eprintln!("wrote {out} (load in ui.perfetto.dev or chrome://tracing)");
    }
}

fn main() {
    // Arm deterministic fault injection when EPPLAN_FAULTS is set; a
    // malformed spec is a usage error, not a silent no-op.
    if let Err(e) = epplan::fault::install_from_env() {
        fail(FailClass::Usage, &format!("bad EPPLAN_FAULTS: {e}"));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let flags = parse_flags(cmd, rest, &flag_spec(cmd));
    apply_threads(&flags);
    match cmd.as_str() {
        "generate" => cmd_generate(flags),
        "solve" => cmd_solve(flags),
        "validate" => cmd_validate(flags),
        "apply" => cmd_apply(flags),
        "example" => cmd_example(flags),
        "opstream" => cmd_opstream(flags),
        "serve" => cmd_serve(flags),
        "report" => cmd_report(flags),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CLI exit-code table (crate docs, README, DESIGN.md) and the
    /// library's own [`FailureKind::exit_code`] contract must agree for
    /// every failure kind — exhaustively, so adding a kind without
    /// updating the mapping fails here instead of drifting silently.
    #[test]
    fn cli_exit_codes_agree_with_failure_kinds() {
        for kind in FailureKind::ALL {
            assert_eq!(
                FailClass::for_failure_kind(kind).exit_code(),
                kind.exit_code(),
                "exit-code drift for {kind:?}: CLI maps it to {} but the library documents {}",
                FailClass::for_failure_kind(kind).exit_code(),
                kind.exit_code(),
            );
        }
    }

    /// Every failure class keeps its documented code and name — the
    /// table in the crate docs is a contract for scripts.
    #[test]
    fn fail_classes_match_documented_table() {
        let table: [(FailClass, i32, &str); 7] = [
            (FailClass::Internal, 1, "internal"),
            (FailClass::Usage, 2, "usage"),
            (FailClass::Io, 3, "io"),
            (FailClass::Parse, 4, "parse"),
            (FailClass::InvalidInstance, 5, "invalid-instance"),
            (FailClass::Infeasible, 6, "infeasible"),
            (FailClass::BudgetExhausted, 7, "budget-exhausted"),
        ];
        for (class, code, name) in table {
            assert_eq!(class.exit_code(), code);
            assert_eq!(class.name(), name);
        }
        let mut codes: Vec<i32> = table.iter().map(|(c, _, _)| c.exit_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), table.len(), "exit codes must stay distinct");
    }
}
