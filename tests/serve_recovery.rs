//! Crash/recovery contract of `epplan serve`: kill the daemon at any
//! injected fault site — or with a literal `SIGKILL` mid-stream —
//! restart with `--restore`, and the recovered plan is certified and
//! bit-identical to an uninterrupted run. Checked at `EPPLAN_THREADS`
//! 1 and 4 (the parallel runtime must not perturb recovery), plus a
//! WAL-corruption leg and an older-format-version leg that must fail
//! loudly with the `parse` exit code rather than restore garbage.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use epplan::serve::wal;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_epplan"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epplan-serve-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a small instance + op stream into `dir`, returning
/// `(instance_path, ops_path)`.
fn make_fixture(dir: &Path, n_ops: usize) -> (PathBuf, PathBuf) {
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
        .args(["--out", ops.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    (inst, ops)
}

/// Common serve flags: deterministic budgets (iteration caps, never
/// wall-clock — recovery convergence is only *provable* clock-free),
/// frequent snapshots, and a drift trigger low enough to exercise the
/// re-solve path.
fn serve_args(inst: &Path, state: &Path, out_plan: &Path) -> Vec<String> {
    [
        "serve",
        "--instance",
        inst.to_str().unwrap(),
        "--state-dir",
        state.to_str().unwrap(),
        "--snapshot-every",
        "7",
        "--drift-threshold",
        "60",
        "--max-retries",
        "2",
        "--out",
        out_plan.to_str().unwrap(),
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Runs the full stream uninterrupted and returns the plan bytes.
fn uninterrupted_plan(dir: &Path, inst: &Path, ops: &Path, threads: &str) -> Vec<u8> {
    let state = dir.join(format!("state-ref-{threads}"));
    let plan = dir.join(format!("plan-ref-{threads}.json"));
    let out = bin()
        .args(serve_args(inst, &state, &plan))
        .args(["--ops", ops.to_str().unwrap()])
        .env("EPPLAN_THREADS", threads)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"certified\":true"),
        "final summary must re-certify: {stdout}"
    );
    std::fs::read(&plan).unwrap()
}

/// A fixture bound to one thread count, shared by every crash leg.
struct Matrix<'a> {
    dir: &'a Path,
    inst: &'a Path,
    ops: &'a Path,
    threads: &'a str,
    reference: &'a [u8],
}

impl Matrix<'_> {
    /// Crash leg: run with `EPPLAN_FAULTS=<spec>` (expecting
    /// `want_exit`), then `--restore` and re-feed the whole stream;
    /// the recovered plan must match the reference byte for byte.
    fn crash_and_restore_leg(&self, tag: &str, fault_spec: &str, want_exit: i32) {
        let state = self.dir.join(format!("state-{tag}-{}", self.threads));
        let plan = self.dir.join(format!("plan-{tag}-{}.json", self.threads));
        let out = bin()
            .args(serve_args(self.inst, &state, &plan))
            .args(["--ops", self.ops.to_str().unwrap()])
            .env("EPPLAN_THREADS", self.threads)
            .env("EPPLAN_FAULTS", fault_spec)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(want_exit),
            "fault {fault_spec} should kill the daemon with exit {want_exit}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Restart WITHOUT the fault and re-feed the entire stream;
        // already durable ops are skipped as duplicates, the rest are
        // processed.
        let out = bin()
            .args(serve_args(self.inst, &state, &plan))
            .arg("--restore")
            .args(["--ops", self.ops.to_str().unwrap()])
            .env("EPPLAN_THREADS", self.threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "restore after {fault_spec} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let recovered = std::fs::read(&plan).unwrap();
        assert_eq!(
            recovered, self.reference,
            "recovered plan after {fault_spec} (threads {}) must be \
             bit-identical to the uninterrupted run",
            self.threads
        );
    }
}

fn recovery_matrix_for(threads: &str) {
    let dir = tmp_dir(&format!("matrix-{threads}"));
    let (inst, ops) = make_fixture(&dir, 40);
    let reference = uninterrupted_plan(&dir, &inst, &ops, threads);
    let m = Matrix {
        dir: &dir,
        inst: &inst,
        ops: &ops,
        threads,
        reference: &reference,
    };

    // WAL append fails on its 20th hit: mid-stream I/O death.
    m.crash_and_restore_leg("wal", "serve.wal.append@20=error", 3);
    // Snapshot write fails on its 3rd hit (hit 1 is the initial
    // snapshot at start; with --snapshot-every 7 hit 3 lands mid-run).
    m.crash_and_restore_leg("snap", "serve.snapshot.write@3=error", 3);
    // Repair ingest poisoned every time: ops degrade to full re-solves
    // but the daemon survives; this leg is about the *ladder*, so run
    // it to completion and expect the same certified end state only
    // when re-solves are deterministic — which they are (no budgets).
    let state = dir.join(format!("state-ingest-{threads}"));
    let plan = dir.join(format!("plan-ingest-{threads}.json"));
    let out = bin()
        .args(serve_args(&inst, &state, &plan))
        .args(["--ops", ops.to_str().unwrap()])
        .env("EPPLAN_THREADS", threads)
        .env("EPPLAN_FAULTS", "serve.op.ingest@5=error")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "a single ingest fault must degrade, not kill: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"certified\":true"),
        "degraded run must still certify: {stdout}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_crash_restore_is_bit_identical_threads_1() {
    recovery_matrix_for("1");
}

#[test]
fn fault_crash_restore_is_bit_identical_threads_4() {
    recovery_matrix_for("4");
}

/// The literal-`SIGKILL` leg: feed ops over stdin, kill the process
/// with no warning after a prefix of acknowledgements, restore, and
/// re-feed. `--crash-after-ops` (an `abort()` inside the daemon, i.e.
/// `SIGABRT` with zero cleanup) covers the deterministic variant in
/// CI; this test also sends a real `SIGKILL` from outside.
#[test]
fn sigkill_mid_stream_then_restore_is_bit_identical() {
    let dir = tmp_dir("sigkill");
    let (inst, ops) = make_fixture(&dir, 40);
    let reference = uninterrupted_plan(&dir, &inst, &ops, "1");
    let op_lines: Vec<String> = std::fs::read_to_string(&ops)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();

    let state = dir.join("state-kill");
    let plan = dir.join("plan-kill.json");
    // No --ops: the daemon reads stdin and acks each op on stdout.
    let mut args = serve_args(&inst, &state, &plan);
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
    for line in &op_lines[..17] {
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        let ack = acks.next().unwrap().unwrap();
        assert!(ack.contains("\"id\":"), "not an ack line: {ack}");
    }
    // Op 17 is durably logged and acknowledged. Kill -9, no goodbyes.
    child.kill().unwrap();
    child.wait().unwrap();

    let out = bin()
        .args(serve_args(&inst, &state, &plan))
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
    let recovered = std::fs::read(&plan).unwrap();
    assert_eq!(
        recovered, reference,
        "plan recovered after SIGKILL must match the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Corrupting a WAL byte must make `--restore` fail with the `parse`
/// exit code (4) — never silently restore damaged state.
#[test]
fn corrupted_wal_fails_restore_with_parse_exit() {
    let dir = tmp_dir("corrupt");
    let (inst, ops) = make_fixture(&dir, 20);
    let state = dir.join("state");
    let plan = dir.join("plan.json");
    // Crash mid-run so the WAL holds a suffix to replay.
    let out = bin()
        .args(serve_args(&inst, &state, &plan))
        .args(["--ops", ops.to_str().unwrap()])
        .env("EPPLAN_FAULTS", "serve.wal.append@12=error")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    // Flip a byte inside the first WAL frame's payload.
    let wal = state.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    assert!(bytes.len() > 12, "WAL should hold records");
    bytes[10] ^= 0xff;
    std::fs::write(&wal, &bytes).unwrap();
    let out = bin()
        .args(serve_args(&inst, &state, &plan))
        .arg("--restore")
        .args(["--ops", ops.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(4),
        "corrupted WAL must fail restore with the parse exit code: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A state dir from an older format version (v2 may hold LNS re-solves
/// that would now replay to a different plan) is refused with the
/// `parse` exit code, naming both versions.
#[test]
fn older_format_version_fails_restore_with_parse_exit() {
    let dir = tmp_dir("old-version");
    let (inst, ops) = make_fixture(&dir, 10);
    let state = dir.join("state");
    let plan = dir.join("plan.json");
    let out = bin()
        .args(serve_args(&inst, &state, &plan))
        .args(["--ops", ops.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut snap = wal::read_snapshot(&state).unwrap().expect("base image");
    snap.version = 2;
    wal::write_snapshot(&state, &snap).unwrap();
    let out = bin()
        .args(serve_args(&inst, &state, &plan))
        .arg("--restore")
        .args(["--ops", ops.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("format version 2 (supported: 3)"),
        "the error must name both versions: {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--crash-after-ops` (the deterministic SIGKILL stand-in used by the
/// CI chaos job) aborts after exactly N ops; restore converges.
#[test]
fn crash_after_ops_abort_then_restore_is_bit_identical() {
    let dir = tmp_dir("abort");
    let (inst, ops) = make_fixture(&dir, 40);
    let reference = uninterrupted_plan(&dir, &inst, &ops, "1");
    let state = dir.join("state");
    let plan = dir.join("plan.json");
    let out = bin()
        .args(serve_args(&inst, &state, &plan))
        .args(["--ops", ops.to_str().unwrap()])
        .args(["--crash-after-ops", "13"])
        .env("EPPLAN_THREADS", "1")
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "--crash-after-ops must abort the process"
    );
    let out = bin()
        .args(serve_args(&inst, &state, &plan))
        .arg("--restore")
        .args(["--ops", ops.to_str().unwrap()])
        .env("EPPLAN_THREADS", "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "restore after abort failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&plan).unwrap(), reference);
    std::fs::remove_dir_all(&dir).unwrap();
}
