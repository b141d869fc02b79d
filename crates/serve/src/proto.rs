//! The `epplan serve` wire protocol: newline-delimited JSON.
//!
//! Requests are [`SequencedOp`] values, one JSON object per line:
//!
//! ```text
//! {"id": 17, "op": {"op": "eta_decrease", "event": 3, "new_upper": 40}}
//! ```
//!
//! Each op produces exactly one [`OpResponse`] line on the output
//! stream, flushed before the next op is read — a client that has
//! seen the response for op `k` knows `k` is durably logged and the
//! visible plan is certified. The stream ends with one
//! [`ServeSummary`] line.

use epplan_core::incremental::SequencedOp;
use serde::Serialize;

use crate::ServeError;

/// Parses one request line into a [`SequencedOp`]. Blank lines are
/// the caller's concern (skip them); malformed JSON is a protocol
/// corruption error (exit code 4).
pub fn parse_op_line(line: &str) -> Result<SequencedOp, ServeError> {
    serde_json::from_str(line)
        .map_err(|e| ServeError::corrupt(format!("malformed op line {line:?}: {e}")))
}

/// Per-op acknowledgement, serialized as one JSON line.
#[derive(Debug, Clone, Serialize)]
pub struct OpResponse {
    /// Id of the op this responds to.
    pub id: u64,
    /// `"applied"` (IEP repair), `"resolved"` (full re-solve swapped
    /// in), `"rejected"` (previous plan retained), `"skipped"`
    /// (duplicate id at or below the cursor), or `"shed"` (admission
    /// control dropped the op unexecuted — it exceeded its
    /// ops-denominated staleness deadline).
    pub status: String,
    /// `dif` between the pre-op and post-op plan (0 when rejected or
    /// skipped).
    pub dif: u64,
    /// Accumulated `dif` since the last full solve, after this op.
    pub drift: u64,
    /// Global utility `U_P` of the (certified) visible plan: the delta
    /// certifier's running tally, recounted from scratch at every
    /// snapshot point and by every full solve, patched op by op in
    /// between (so it can differ from a recount in the last digits).
    pub utility: f64,
    /// Budget-escalation retries consumed by this op.
    pub retries: u32,
    /// Failure detail when `status` is `"rejected"`, or the repair
    /// failure that forced a `"resolved"` fallback.
    pub error: Option<String>,
    /// `true` while the windowed p99 latency exceeds the configured
    /// `--slo-p99-us` target (always `false` when no SLO is set).
    pub slo_burning: bool,
}

/// End-of-stream summary, serialized as the final JSON line.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSummary {
    /// Ops read from the stream (including skipped duplicates).
    pub ops: u64,
    /// Ops repaired incrementally.
    pub applied: u64,
    /// Ops that ended in a certified full re-solve.
    pub resolved: u64,
    /// Ops rejected with a typed error.
    pub rejected: u64,
    /// Duplicate ids skipped.
    pub skipped: u64,
    /// Total budget-escalation retries.
    pub retries: u64,
    /// Full re-solves performed (fallback + drift-triggered).
    pub resolves: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Final accumulated drift.
    pub drift: u64,
    /// Final plan utility.
    pub utility: f64,
    /// Whether the final plan re-certified (it always must).
    pub certified: bool,
    /// Wall-clock seconds spent processing ops.
    pub wall_s: f64,
    /// Throughput over the whole stream.
    pub ops_per_sec: f64,
    /// Median per-op latency, microseconds (whole stream, exact
    /// order statistic via the shared estimator).
    pub p50_us: u64,
    /// 95th-percentile per-op latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile per-op latency, microseconds.
    pub p99_us: u64,
    /// Windowed (recent) median latency at stream end.
    pub window_p50_us: u64,
    /// Windowed 95th-percentile latency at stream end.
    pub window_p95_us: u64,
    /// Windowed 99th-percentile latency at stream end.
    pub window_p99_us: u64,
    /// Ops processed while the windowed p99 exceeded the SLO target
    /// (0 when no `--slo-p99-us` is set).
    pub slo_burning_ops: u64,
    /// Ops shed by admission control (`--op-deadline-ops`).
    pub shed: u64,
    /// Poison ops quarantined to the dead-letter log
    /// (`--quarantine-after`).
    pub quarantined: u64,
    /// Brownout ladder transitions this session (both directions).
    pub brownout_steps: u64,
}
