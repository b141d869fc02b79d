//! Overload-resilience contract of `epplan serve`: under a bursty
//! stream with admission shedding armed, the set of shed ops is a pure
//! function of the recorded stream — identical across thread counts,
//! reproduced bit-for-bit by `--restore` after a SIGKILL or an
//! injected abort, with the WAL itself byte-identical. A poison op
//! that keeps killing the daemon mid-execution is quarantined to the
//! dead-letter log after `--quarantine-after` attempts and exported by
//! `--dump-dead-letter`.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_epplan"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epplan-overload-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a small instance plus a *bursty* op stream (`--burst
/// 16,4`: runs of 16 dense ids, then a jump of 4) into `dir`. The id
/// gaps are what make admission staleness bite: re-solve work charges
/// push the work clock past the dense tail of each burst.
fn make_bursty_fixture(dir: &Path, n_ops: usize) -> (PathBuf, PathBuf) {
    let inst = dir.join("inst.json");
    let ops = dir.join("ops.jsonl");
    let out = bin()
        .args(["generate", "--users", "60", "--events", "8", "--seed", "11"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["opstream", "--instance", inst.to_str().unwrap()])
        .args(["--count", &n_ops.to_string(), "--seed", "23"])
        .args(["--burst", "16,4"])
        .args(["--out", ops.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    (inst, ops)
}

/// Serve flags for the overload matrix: a low drift threshold so
/// re-solves fire (each charges extra work-clock ops), a tight ops
/// deadline so the bursts actually shed, and quarantine armed. All
/// knobs are ops-denominated — no wall-clock anywhere — so every
/// decision is replayable.
fn overload_args(inst: &Path, state: &Path, out_plan: &Path) -> Vec<String> {
    [
        "serve",
        "--instance",
        inst.to_str().unwrap(),
        "--state-dir",
        state.to_str().unwrap(),
        "--snapshot-every",
        "7",
        "--drift-threshold",
        "5",
        "--max-retries",
        "2",
        "--op-deadline-ops",
        "3",
        "--quarantine-after",
        "3",
        "--out",
        out_plan.to_str().unwrap(),
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The summary fields this test asserts on (extra keys are ignored
/// by the typed deserialize).
#[derive(Debug, serde::Deserialize)]
struct Summary {
    certified: bool,
    shed: u64,
    quarantined: u64,
    brownout_steps: u64,
}

/// Pulls the final summary JSON line out of a serve run's stdout.
fn summary_line(stdout: &[u8]) -> Summary {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with('{') && l.contains("\"certified\""))
        .unwrap_or_else(|| panic!("no summary line in: {text}"));
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bad summary {line}: {e}"))
}

/// Runs the full stream uninterrupted; returns plan bytes, WAL bytes
/// and the summary. The run must shed (the fixture is tuned so it
/// does) and still certify.
fn reference_run(
    dir: &Path,
    inst: &Path,
    ops: &Path,
    threads: &str,
) -> (Vec<u8>, Vec<u8>, Summary) {
    let state = dir.join(format!("state-ref-{threads}"));
    let plan = dir.join(format!("plan-ref-{threads}.json"));
    let out = bin()
        .args(overload_args(inst, &state, &plan))
        .args(["--ops", ops.to_str().unwrap()])
        .env("EPPLAN_THREADS", threads)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let summary = summary_line(&out.stdout);
    assert!(summary.certified, "overloaded run must certify: {summary:?}");
    assert!(summary.shed > 0, "fixture must actually shed: {summary:?}");
    let wal = std::fs::read(state.join("wal.log")).unwrap();
    (std::fs::read(&plan).unwrap(), wal, summary)
}

/// The full thread-count matrix: sheds, plan bytes and the WAL itself
/// (ops, outcomes — including shed records — and snapshots with the
/// embedded controller state) are invariant under `EPPLAN_THREADS`,
/// and both crash legs (real SIGKILL, injected abort) restore to the
/// reference bit-for-bit.
#[test]
fn bursty_shedding_is_thread_invariant_and_crash_safe() {
    let dir = tmp_dir("matrix");
    let (inst, ops) = make_bursty_fixture(&dir, 120);

    let (plan_1, wal_1, sum_1) = reference_run(&dir, &inst, &ops, "1");
    let (plan_4, wal_4, sum_4) = reference_run(&dir, &inst, &ops, "4");
    assert_eq!(plan_1, plan_4, "plan bytes must not depend on thread count");
    assert_eq!(wal_1, wal_4, "WAL bytes must not depend on thread count");
    assert_eq!(
        std::fs::read(dir.join("state-ref-1/snapshot.bin")).unwrap(),
        std::fs::read(dir.join("state-ref-4/snapshot.bin")).unwrap(),
        "snapshots (plan + controller state) must not depend on thread count"
    );
    assert_eq!(
        sum_1.shed, sum_4.shed,
        "shed counts must be identical across thread counts"
    );

    // SIGKILL leg: ack-synchronized kill after 30 ops, then restore
    // and re-feed the whole stream. Shed decisions in the replayed
    // prefix come from the WAL, not from re-deciding.
    let op_lines: Vec<String> = std::fs::read_to_string(&ops)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    let state = dir.join("state-kill");
    let plan = dir.join("plan-kill.json");
    let mut args = overload_args(&inst, &state, &plan);
    args.retain(|a| a != "--quiet"); // acks are the kill synchronization
    let mut child = bin()
        .args(&args)
        .env("EPPLAN_THREADS", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut acks = BufReader::new(child.stdout.take().unwrap()).lines();
    for line in &op_lines[..30] {
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        let ack = acks.next().unwrap().unwrap();
        assert!(ack.contains("\"id\":"), "not an ack line: {ack}");
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let out = bin()
        .args(overload_args(&inst, &state, &plan))
        .arg("--restore")
        .args(["--ops", ops.to_str().unwrap()])
        .env("EPPLAN_THREADS", "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "restore after SIGKILL failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(summary_line(&out.stdout).certified);
    assert_eq!(
        std::fs::read(&plan).unwrap(),
        plan_1,
        "plan restored after SIGKILL must match the uninterrupted run"
    );

    // Injected-abort leg at 4 threads: deterministic SIGABRT after 50
    // ops (past the first shed at op id 48), then restore.
    let state = dir.join("state-abort");
    let plan = dir.join("plan-abort.json");
    let out = bin()
        .args(overload_args(&inst, &state, &plan))
        .args(["--ops", ops.to_str().unwrap()])
        .args(["--crash-after-ops", "50"])
        .env("EPPLAN_THREADS", "4")
        .output()
        .unwrap();
    assert!(!out.status.success(), "--crash-after-ops must abort the process");
    let out = bin()
        .args(overload_args(&inst, &state, &plan))
        .arg("--restore")
        .args(["--ops", ops.to_str().unwrap()])
        .env("EPPLAN_THREADS", "4")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "restore after abort failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(summary_line(&out.stdout).certified);
    assert_eq!(
        std::fs::read(&plan).unwrap(),
        plan_4,
        "plan restored after the injected abort must match the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A poison op — one that aborts the daemon mid-execution on every
/// attempt — must be dead-lettered after `--quarantine-after` tries
/// and skipped, with sheds before and after it in the same WAL. Op id
/// 81 opens the fifth burst: never shed itself, but sheds land both
/// before (48, 72…) and after (105…) it in this fixture.
#[test]
fn poison_op_is_quarantined_and_dumped() {
    let dir = tmp_dir("poison");
    let (inst, ops) = make_bursty_fixture(&dir, 120);
    let state = dir.join("state");
    let plan = dir.join("plan.json");

    // First encounter plus two restore retries all die inside op 81
    // (`--crash-in-op` aborts after the op record is durable, i.e. the
    // crash window of a mid-execution death).
    let out = bin()
        .args(overload_args(&inst, &state, &plan))
        .args(["--ops", ops.to_str().unwrap(), "--crash-in-op", "81"])
        .env("EPPLAN_THREADS", "1")
        .output()
        .unwrap();
    assert!(!out.status.success(), "--crash-in-op must abort the process");
    for attempt in 2..=3 {
        let out = bin()
            .args(overload_args(&inst, &state, &plan))
            .args(["--restore", "--ops", ops.to_str().unwrap()])
            .args(["--crash-in-op", "81"])
            .env("EPPLAN_THREADS", "1")
            .output()
            .unwrap();
        assert!(
            !out.status.success(),
            "restore attempt {attempt} should re-crash inside op 81"
        );
    }

    // Attempt 3 is durably recorded; the next restore sees the
    // attempt count at the threshold, quarantines op 81 without
    // executing it, and finishes the stream (the fault flag is still
    // armed — a quarantined op must never be re-entered).
    let out = bin()
        .args(overload_args(&inst, &state, &plan))
        .args(["--restore", "--ops", ops.to_str().unwrap()])
        .args(["--crash-in-op", "81"])
        .env("EPPLAN_THREADS", "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "restore past the quarantine threshold failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = summary_line(&out.stdout);
    assert_eq!(summary.quarantined, 1, "{summary:?}");
    assert!(summary.certified, "{summary:?}");
    assert!(summary.shed > 0, "{summary:?}");

    let out = bin()
        .args(["serve", "--state-dir", state.to_str().unwrap(), "--dump-dead-letter"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let dump = String::from_utf8_lossy(&out.stdout);
    #[derive(serde::Deserialize)]
    struct DeadLetterLine {
        id: u64,
        attempts: u32,
    }
    let rec: DeadLetterLine =
        serde_json::from_str(dump.lines().next().expect("one dead-letter line"))
            .unwrap_or_else(|e| panic!("bad dead-letter line: {e}\n{dump}"));
    assert_eq!(rec.id, 81, "{dump}");
    assert_eq!(rec.attempts, 3, "{dump}");
    assert_eq!(dump.lines().count(), 1, "exactly one quarantined op: {dump}");

    // A further restore replays the quarantine from the WAL — the op
    // stays dead, the dead-letter log is not double-appended.
    let out = bin()
        .args(overload_args(&inst, &state, &plan))
        .args(["--restore", "--ops", ops.to_str().unwrap()])
        .env("EPPLAN_THREADS", "1")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(summary_line(&out.stdout).certified);
    let out = bin()
        .args(["serve", "--state-dir", state.to_str().unwrap(), "--dump-dead-letter"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 1);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flag-grammar edges: a malformed `--burst` spec is a typed
/// `BadInput` (exit 5, not a panic or a silent default), `--brownout`
/// without an SLO is a usage error, and dumping the dead-letter log of
/// a fresh state directory prints nothing and exits 0.
#[test]
fn overload_flag_validation() {
    let dir = tmp_dir("flags");
    let (inst, _ops) = make_bursty_fixture(&dir, 1);

    for spec in ["16", "a,b", "0,4"] {
        let out = bin()
            .args(["opstream", "--instance", inst.to_str().unwrap()])
            .args(["--count", "4", "--burst", spec])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(5),
            "--burst {spec} must exit 5: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("burst spec"),
            "error should name the burst spec"
        );
    }

    let out = bin()
        .args(["serve", "--instance", inst.to_str().unwrap()])
        .args(["--brownout", "2,4"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "--brownout without --slo-p99-us must be a usage error: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let fresh = dir.join("fresh-state");
    std::fs::create_dir_all(&fresh).unwrap();
    let out = bin()
        .args(["serve", "--state-dir", fresh.to_str().unwrap(), "--dump-dead-letter"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "fresh state dir has no dead letters");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The brownout ladder descends under a burning SLO (p99 target of 0μs
/// burns on every op) and the run still certifies; the floor-level
/// re-solves give the same plan and WAL bytes at 1 and 4 threads, and
/// controller state replays across a crash/restore to the same plan.
#[test]
fn brownout_descends_and_replays() {
    let dir = tmp_dir("brownout");
    let (inst, ops) = make_bursty_fixture(&dir, 60);
    let extra = ["--slo-p99-us", "0", "--brownout", "2,100"];

    let mut runs = Vec::new();
    for threads in ["1", "4"] {
        let state = dir.join(format!("state-ref-{threads}"));
        let plan = dir.join(format!("plan-ref-{threads}.json"));
        let out = bin()
            .args(overload_args(&inst, &state, &plan))
            .args(extra)
            .args(["--ops", ops.to_str().unwrap()])
            .env("EPPLAN_THREADS", threads)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let summary = summary_line(&out.stdout);
        assert!(summary.certified, "{summary:?}");
        assert_eq!(
            summary.brownout_steps, 2,
            "p99 target 0 must walk the full ladder: {summary:?}"
        );
        runs.push((
            std::fs::read(&plan).unwrap(),
            std::fs::read(state.join("wal.log")).unwrap(),
        ));
    }
    let (ref_plan, ref_wal) = &runs[0];
    assert!(runs[1].0 == *ref_plan, "brownout plan differs across thread counts");
    assert!(runs[1].1 == *ref_wal, "brownout wal.log differs across thread counts");

    let state = dir.join("state-crash");
    let plan = dir.join("plan-crash.json");
    let out = bin()
        .args(overload_args(&inst, &state, &plan))
        .args(extra)
        .args(["--ops", ops.to_str().unwrap(), "--crash-after-ops", "20"])
        .env("EPPLAN_THREADS", "1")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = bin()
        .args(overload_args(&inst, &state, &plan))
        .args(extra)
        .args(["--restore", "--ops", ops.to_str().unwrap()])
        .env("EPPLAN_THREADS", "1")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        &std::fs::read(&plan).unwrap(),
        ref_plan,
        "plan after a mid-brownout crash/restore must match the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
