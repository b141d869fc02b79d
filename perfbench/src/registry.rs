//! The workloads and metrics the benchmark declares. `BENCHMARK.json`
//! at the repository root lists the same names and units (a test pins
//! the two together) and adds the regression bound of each end-to-end
//! metric, which `--compare` reads from there.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, utility).
    Higher,
    /// Smaller values are better (latency, memory).
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a planner or a serving client sees.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name, printed as the second column.
    pub name: &'static str,
    /// Unit, printed as the fourth column.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// A per-layer metric, measured only in the traced run, with the
/// end-to-end metrics it should move and the workloads it should move
/// them on. A change to one layer states its prediction in these terms.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    /// Metric name; the prefix before the last `.`/`_` part names the
    /// module whose calls it times.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics this layer metric should move.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them.
    pub on: &'static [&'static str],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// Every end-to-end metric, printed by every untraced run of every
/// workload. None of them is ever 0.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Better::Lower),
    e2e("latency_ms", "ms", Better::Lower),
    e2e("throughput_per_s", "1/s", Better::Higher),
    e2e("peak_mib", "MiB", Better::Lower),
    e2e("utility_ratio", "ratio", Better::Higher),
];

const GEPC: &[&str] = &["gepc_wide", "gepc_narrow"];
const SERVE: &[&str] = &["serve_steady", "serve_burst"];
const WIDE: &[&str] = &["gepc_wide"];
const NARROW: &[&str] = &["gepc_narrow"];
const STEADY: &[&str] = &["serve_steady"];
const BURST: &[&str] = &["serve_burst"];
const ALL: &[&str] = &["gepc_wide", "gepc_narrow", "serve_steady", "serve_burst"];

const SOLVE_TIME: &[&str] = &["latency_ms", "throughput_per_s"];
const OP_TIME: &[&str] = &["latency_ms", "throughput_per_s"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// Every per-layer metric, printed by every traced run of every
/// workload. The batch layers are timed on the workload's solve (for
/// serve workloads, the initial solve inside `Daemon::start`); the
/// serving layers on a `Daemon` fed the workload's op stream (for gepc
/// workloads, a short probe stream on the solved plan).
pub const PER_LAYER: [LayerSpec; 29] = [
    layer(
        "core.candidates.build_ms",
        "ms",
        Better::Lower,
        &["latency_ms", "setup_s"],
        &["gepc_wide", "serve_steady"],
    ),
    // An input descriptor, not a cost: it must not change.
    layer(
        "core.candidates.per_user",
        "count",
        Better::Lower,
        &["latency_ms"],
        ALL,
    ),
    layer(
        "core.reduction.ms",
        "ms",
        Better::Lower,
        &["latency_ms", "peak_mib"],
        WIDE,
    ),
    layer(
        "core.reduction.allocs",
        "count",
        Better::Lower,
        &["latency_ms", "peak_mib"],
        WIDE,
    ),
    layer("gap.solve_ms", "ms", Better::Lower, SOLVE_TIME, GEPC),
    layer("gap.solve_allocs", "count", Better::Lower, SOLVE_TIME, GEPC),
    layer("gap.fractional_ms", "ms", Better::Lower, SOLVE_TIME, WIDE),
    layer("gap.rounding_ms", "ms", Better::Lower, SOLVE_TIME, NARROW),
    layer(
        "core.conflict_adjust.ms",
        "ms",
        Better::Lower,
        SOLVE_TIME,
        WIDE,
    ),
    layer(
        "core.conflict_adjust.kept_frac",
        "ratio",
        Better::Higher,
        &["utility_ratio"],
        GEPC,
    ),
    layer("core.fill.ms", "ms", Better::Lower, SOLVE_TIME, GEPC),
    layer(
        "core.fill.allocs",
        "count",
        Better::Lower,
        &["latency_ms", "peak_mib"],
        GEPC,
    ),
    layer(
        "core.fill.placed",
        "count",
        Better::Higher,
        &["utility_ratio"],
        GEPC,
    ),
    layer(
        "solve.layer_coverage",
        "ratio",
        Better::Higher,
        SOLVE_TIME,
        GEPC,
    ),
    layer(
        "core.certify.full_ms",
        "ms",
        Better::Lower,
        &["setup_s"],
        SERVE,
    ),
    layer(
        "core.incremental.apply_us_p50",
        "us",
        Better::Lower,
        OP_TIME,
        STEADY,
    ),
    layer(
        "core.incremental.apply_allocs",
        "count",
        Better::Lower,
        OP_TIME,
        STEADY,
    ),
    layer(
        "core.incremental.dif_mean",
        "count",
        Better::Lower,
        &["utility_ratio"],
        SERVE,
    ),
    layer(
        "core.certify.incremental_us_p50",
        "us",
        Better::Lower,
        OP_TIME,
        STEADY,
    ),
    layer(
        "core.certify.incremental_allocs",
        "count",
        Better::Lower,
        OP_TIME,
        STEADY,
    ),
    layer(
        "serve.wal.append_us_p50",
        "us",
        Better::Lower,
        &["latency_ms"],
        STEADY,
    ),
    layer(
        "serve.snapshot.ms",
        "ms",
        Better::Lower,
        &["throughput_per_s", "setup_s"],
        STEADY,
    ),
    layer(
        "serve.snapshot.mib",
        "MiB",
        Better::Lower,
        &["throughput_per_s", "setup_s"],
        STEADY,
    ),
    layer(
        "serve.op_p99_ms",
        "ms",
        Better::Lower,
        &["throughput_per_s"],
        SERVE,
    ),
    layer(
        "serve.applied.ms_mean",
        "ms",
        Better::Lower,
        &["latency_ms"],
        SERVE,
    ),
    layer(
        "serve.allocs_per_op",
        "count",
        Better::Lower,
        &["latency_ms", "peak_mib"],
        SERVE,
    ),
    layer(
        "serve.resolved_frac",
        "ratio",
        Better::Lower,
        &["throughput_per_s"],
        BURST,
    ),
    layer(
        "serve.resolved.time_frac",
        "ratio",
        Better::Lower,
        &["throughput_per_s"],
        BURST,
    ),
    layer("trace.overhead_frac", "ratio", Better::Lower, &[], ALL),
];

/// The four workloads. Sizes and the reason for each live in
/// [`crate::gepc`] and [`crate::serve`]; `BENCHMARK.json` carries the
/// one-line reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch solve, many candidates per user, 2 threads.
    GepcWide,
    /// Batch solve, few candidates per user, 1 thread.
    GepcNarrow,
    /// Serving, closed loop, repair path only.
    ServeSteady,
    /// Serving, closed loop, re-solve heavy under the brownout ladder.
    ServeBurst,
}

impl Workload {
    /// All workloads, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::GepcWide,
        Workload::GepcNarrow,
        Workload::ServeSteady,
        Workload::ServeBurst,
    ];

    /// The workload's name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GepcWide => "gepc_wide",
            Workload::GepcNarrow => "gepc_narrow",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeBurst => "serve_burst",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Smoke` shrinks every workload so the whole suite runs
/// in seconds (used by the smoke test); `Full` is what the numbers in
/// `BENCHMARK.json` describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Tiny inputs for tests.
    Smoke,
}
