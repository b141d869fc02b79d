//! Recovery with a base image and checkpoints: `epplan serve` writes
//! the instance whole only at start and at compaction, and every
//! `--snapshot-every` ops a checkpoint holding just the plan-side
//! state. These legs pin what that layout adds to the crash contract
//! of `tests/serve_recovery.rs`:
//!
//! * a kill after two checkpoints, with no compaction between them,
//!   restores a bit-identical plan;
//! * a `serve.snapshot.write` fault on a compaction's base write exits
//!   3, and the restore converges;
//! * a checkpoint left over from an older base is ignored;
//! * a corrupted checkpoint frame fails restore with exit 4, naming
//!   offset and tag;
//! * a state dir in the earlier layout (base image plus WAL suffix, no
//!   checkpoint) restores;
//! * a restore between two checkpoints reproduces `U_P` and every later
//!   response of the uninterrupted session byte for byte: replayed
//!   repairs patch the `U_P` tally as live ones do, and the restored
//!   session recounts it at the same snapshot points, also when the
//!   process died inside a snapshot point's write.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use epplan::core::certify::certify;
use epplan::core::incremental::SequencedOp;
use epplan::core::model::Instance;
use epplan::datagen::{generate, GeneratorConfig, OpStreamSampler};
use epplan::serve::wal::{self, Snapshot, WalRecord, WalWriter, FORMAT_VERSION};
use epplan::serve::{parse_op_line, Daemon, ServeConfig};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_epplan"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epplan-checkpoint-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a `users × events` instance and an `n_ops` op stream into
/// `dir`, returning `(instance_path, ops_path)`.
fn make_fixture(dir: &Path, users: usize, events: usize, n_ops: usize) -> (PathBuf, PathBuf) {
    let inst = dir.join("inst.json");
    let ops = dir.join("ops.jsonl");
    let out = bin()
        .args(["generate", "--users", &users.to_string()])
        .args(["--events", &events.to_string(), "--seed", "11"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["opstream", "--instance", inst.to_str().unwrap()])
        .args(["--count", &n_ops.to_string(), "--seed", "23"])
        .args(["--out", ops.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (inst, ops)
}

const EVERY: u64 = 7;

/// The daemon configuration [`serve`] passes on the command line.
fn config() -> ServeConfig {
    ServeConfig {
        snapshot_every: Some(EVERY),
        drift_threshold: Some(60),
        max_retries: 2,
        ..ServeConfig::default()
    }
}

/// Runs `epplan serve` over the whole stream with [`config`]'s flags
/// plus `extra`, under `EPPLAN_THREADS=threads` and `env`.
fn serve(
    inst: &Path,
    ops: &Path,
    state: &Path,
    plan: &Path,
    threads: &str,
    extra: &[&str],
    env: &[(&str, &str)],
) -> Output {
    let mut extra = extra.to_vec();
    extra.push("--quiet");
    serve_acked(inst, ops, state, plan, threads, &extra, env)
}

/// [`serve`] without `--quiet`: stdout holds one JSON response per op,
/// then the summary.
fn serve_acked(
    inst: &Path,
    ops: &Path,
    state: &Path,
    plan: &Path,
    threads: &str,
    extra: &[&str],
    env: &[(&str, &str)],
) -> Output {
    bin()
        .args(["serve", "--instance", inst.to_str().unwrap()])
        .args(["--state-dir", state.to_str().unwrap()])
        .args(["--ops", ops.to_str().unwrap()])
        .args(["--snapshot-every", &EVERY.to_string()])
        .args(["--drift-threshold", "60", "--max-retries", "2"])
        .args(["--out", plan.to_str().unwrap()])
        .args(extra)
        .env("EPPLAN_THREADS", threads)
        .envs(env.iter().copied())
        .output()
        .unwrap()
}

/// Plan bytes of an uninterrupted run.
fn reference(dir: &Path, inst: &Path, ops: &Path, threads: &str) -> Vec<u8> {
    let plan = dir.join(format!("plan-ref-{threads}.json"));
    let state = dir.join(format!("state-ref-{threads}"));
    let out = serve(inst, ops, &state, &plan, threads, &[], &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(&plan).unwrap()
}

/// `--restore` and re-feed the whole stream; returns the plan bytes.
fn restore(inst: &Path, ops: &Path, state: &Path, plan: &Path, threads: &str) -> Vec<u8> {
    let out = serve(inst, ops, state, plan, threads, &["--restore"], &[]);
    assert!(
        out.status.success(),
        "restore failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(plan).unwrap()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

#[test]
fn kill_after_two_checkpoints_restores_bit_identical() {
    let dir = tmp_dir("kill");
    let (inst, ops) = make_fixture(&dir, 300, 20, 40);
    for threads in ["1", "4"] {
        let reference = reference(&dir, &inst, &ops, threads);
        let state = dir.join(format!("state-kill-{threads}"));
        let plan = dir.join(format!("plan-kill-{threads}.json"));
        // Checkpoints land after ops 7 and 14; the abort comes at 20.
        let out = serve(
            &inst,
            &ops,
            &state,
            &plan,
            threads,
            &["--crash-after-ops", "20"],
            &[],
        );
        assert!(!out.status.success(), "--crash-after-ops must abort");
        let ckpt = wal::read_checkpoint(&state).unwrap().expect("a checkpoint");
        assert_eq!(
            ckpt.base.last_op_id, 0,
            "no compaction: the base is the start's"
        );
        assert_eq!(ckpt.last_op_id, 2 * EVERY);
        assert!(
            file_len(&state.join(wal::CHECKPOINT_FILE)) < file_len(&state.join(wal::SNAPSHOT_FILE)),
            "a checkpoint holds no instance"
        );
        assert_eq!(
            restore(&inst, &ops, &state, &plan, threads),
            reference,
            "threads {threads}: the restored plan must match the uninterrupted run"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_write_fault_exits_3_and_restore_converges() {
    let dir = tmp_dir("compact-fault");
    let (inst, ops) = make_fixture(&dir, 60, 8, 90);
    let reference = reference(&dir, &inst, &ops, "1");
    // The same run in process finds the first snapshot point that
    // compacts; hit 1 of the fault site is the base write at start.
    let instance: Instance =
        serde_json::from_str(&std::fs::read_to_string(&inst).unwrap()).unwrap();
    let probe = dir.join("state-probe");
    let mut daemon = Daemon::start(instance, config(), Some(&probe)).unwrap();
    let mut hit = None;
    for line in std::fs::read_to_string(&ops).unwrap().lines() {
        daemon.process(&parse_op_line(line).unwrap()).unwrap();
        if daemon.stats().compactions == 1 {
            hit = Some(daemon.stats().snapshots);
            break;
        }
    }
    let hit = hit.expect("the stream compacts");
    assert!(hit > 2, "a checkpoint precedes the compaction");

    let state = dir.join("state-fault");
    let plan = dir.join("plan-fault.json");
    let spec = format!("serve.snapshot.write@{hit}=error");
    let out = serve(
        &inst,
        &ops,
        &state,
        &plan,
        "1",
        &[],
        &[("EPPLAN_FAULTS", &spec)],
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The fault hit a compaction: the WAL had outgrown the base, and
    // the previous base and checkpoint are intact.
    assert!(file_len(&state.join(wal::WAL_FILE)) >= file_len(&state.join(wal::SNAPSHOT_FILE)));
    let ckpt = wal::read_checkpoint(&state)
        .unwrap()
        .expect("the last checkpoint");
    assert_eq!(ckpt.base, wal::read_base(&state).unwrap().unwrap().id);
    assert_eq!(restore(&inst, &ops, &state, &plan, "1"), reference);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_checkpoint_fails_restore_naming_offset_and_tag() {
    let dir = tmp_dir("corrupt");
    let (inst, ops) = make_fixture(&dir, 60, 8, 20);
    let state = dir.join("state");
    let plan = dir.join("plan.json");
    let out = serve(
        &inst,
        &ops,
        &state,
        &plan,
        "1",
        &["--crash-after-ops", "10"],
        &[],
    );
    assert!(!out.status.success());
    let path = state.join(wal::CHECKPOINT_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[12] ^= 0xff; // inside the payload, past the 9-byte header
    std::fs::write(&path, &bytes).unwrap();
    let out = serve(&inst, &ops, &state, &plan, "1", &["--restore"], &[]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "a damaged checkpoint is corruption"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.contains("frame tag 5 at byte 0"),
        "offset and tag not named: {last}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

fn small_instance() -> Instance {
    generate(&GeneratorConfig {
        n_users: 60,
        n_events: 8,
        seed: 7,
        ..GeneratorConfig::default()
    })
}

fn plan_bytes(d: &Daemon) -> String {
    serde_json::to_string(d.plan()).unwrap()
}

fn stream(d: &Daemon, n: usize) -> Vec<SequencedOp> {
    OpStreamSampler::new(99).sequenced_stream(d.instance(), d.plan(), n, 1)
}

#[test]
fn checkpoint_of_an_older_base_is_ignored() {
    let dir = tmp_dir("stale");
    let state = dir.join("state");
    let mut d = Daemon::start(small_instance(), config(), Some(&state)).unwrap();
    let ops = stream(&d, 200);
    let mut stale = None;
    for sop in &ops {
        d.process(sop).unwrap();
        if d.stats().compactions == 1 {
            break;
        }
        if let Ok(bytes) = std::fs::read(state.join(wal::CHECKPOINT_FILE)) {
            stale = Some(bytes);
        }
    }
    assert_eq!(d.stats().compactions, 1, "the stream compacts");
    assert!(
        !state.join(wal::CHECKPOINT_FILE).exists(),
        "compaction drops the checkpoint"
    );
    // A crash inside the compaction, after the new base was renamed in
    // but before the old checkpoint was removed, leaves it behind.
    std::fs::write(
        state.join(wal::CHECKPOINT_FILE),
        stale.expect("a checkpoint"),
    )
    .unwrap();
    let restored = Daemon::restore(config(), &state).unwrap();
    assert_eq!(restored.last_op_id(), d.last_op_id());
    assert_eq!(plan_bytes(&restored), plan_bytes(&d));
    assert_eq!(restored.instance(), d.instance());
    assert_eq!(restored.overload_state(), d.overload_state());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn state_dir_without_checkpoints_restores() {
    let dir = tmp_dir("earlier-layout");
    let ops;
    // Only the base at start: the WAL holds every op and its outcome.
    let logged = dir.join("logged");
    let live = {
        let mut d = Daemon::start(
            small_instance(),
            ServeConfig {
                snapshot_every: None,
                ..config()
            },
            Some(&logged),
        )
        .unwrap();
        ops = stream(&d, 20);
        for sop in &ops {
            d.process(sop).unwrap();
        }
        d
    };
    // The earlier layout: a whole-state snapshot at op 8 written with
    // `wal::write_snapshot`, and the WAL suffix after it.
    let mut at8 = Daemon::start(small_instance(), config(), None).unwrap();
    for sop in &ops[..8] {
        at8.process(sop).unwrap();
    }
    let state = dir.join("state");
    std::fs::create_dir_all(&state).unwrap();
    let snap = Snapshot {
        version: FORMAT_VERSION,
        last_op_id: at8.last_op_id(),
        drift: at8.drift(),
        overload: at8.overload_state().clone(),
        instance: at8.instance().clone(),
        plan: at8.plan().clone(),
    };
    wal::write_snapshot(&state, &snap).unwrap();
    let mut w = WalWriter::create(&state.join(wal::WAL_FILE)).unwrap();
    for rec in wal::read_wal(&logged.join(wal::WAL_FILE)).unwrap() {
        match rec {
            WalRecord::Op(sop) if sop.id > 8 => w.append_op(&sop).unwrap(),
            WalRecord::Outcome(meta) if meta.id > 8 => w.append_outcome(&meta).unwrap(),
            _ => {}
        }
    }
    w.sync().unwrap();
    drop(w);
    for dir in [&logged, &state] {
        let restored = Daemon::restore(config(), dir).unwrap();
        assert_eq!(restored.last_op_id(), 20);
        assert_eq!(plan_bytes(&restored), plan_bytes(&live));
        assert_eq!(restored.instance(), live.instance());
        assert_eq!(restored.drift(), live.drift());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Feeds `ops`, returning each response's JSON and `U_P` after it.
fn responses(d: &mut Daemon, ops: &[SequencedOp]) -> Vec<(String, f64)> {
    ops.iter()
        .map(|sop| {
            let resp = d.process(sop).unwrap();
            (serde_json::to_string(&resp).unwrap(), d.utility())
        })
        .collect()
}

#[test]
fn restore_between_checkpoints_reproduces_every_later_response() {
    for threads in [1, 4] {
        epplan::par::set_threads(threads);
        let dir = tmp_dir(&format!("responses-{threads}"));
        let mut live = Daemon::start(small_instance(), config(), Some(&dir.join("live"))).unwrap();
        let ops = stream(&live, 40);
        let expected = responses(&mut live, &ops);
        // Checkpoints after ops 7 and 14; the crash comes at 12.
        const CRASH: usize = 12;
        let state = dir.join("state");
        {
            let mut d = Daemon::start(small_instance(), config(), Some(&state)).unwrap();
            responses(&mut d, &ops[..CRASH]);
            assert_eq!(d.snapshot_op(), 7);
            assert_eq!(d.stats().compactions, 0, "op 7 is a checkpoint");
            // Premise: at the crash the running `U_P` is not a recount,
            // so a restore that recounted it could not pass below.
            let recount = certify(d.instance(), d.plan()).utility;
            assert_ne!(d.utility().to_bits(), recount.to_bits());
        }
        let mut restored = Daemon::restore(config(), &state).unwrap();
        assert_eq!(restored.last_op_id(), CRASH as u64);
        assert_eq!(
            restored.utility().to_bits(),
            expected[CRASH - 1].1.to_bits()
        );
        let replayed = responses(&mut restored, &ops[CRASH..]);
        for (k, (got, want)) in replayed.iter().zip(&expected[CRASH..]).enumerate() {
            let what = format!("{threads} threads, op {}", CRASH + k + 1);
            assert_eq!(got.0, want.0, "{what}");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}");
        }
        assert_eq!(
            live.stats().compactions,
            0,
            "the live session only checkpoints"
        );
        assert_eq!(plan_bytes(&restored), plan_bytes(&live));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    epplan::par::set_threads(1);
}

/// The lines `epplan serve` printed: its op responses, then (for a
/// session that finished) the summary and the `--out` notice.
fn stdout_lines(out: &Output) -> Vec<String> {
    String::from_utf8(out.stdout.clone())
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// The `utility` field of a summary line.
fn summary_utility(line: &str) -> f64 {
    #[derive(serde::Deserialize)]
    struct Summary {
        utility: f64,
    }
    serde_json::from_str::<Summary>(line).unwrap().utility
}

/// Asserts that `lines` is a JSON-lines stream of op responses, one
/// per op in id order, ending with a certified summary — what `serve`
/// promises on stdout.
fn assert_json_stream(lines: &[String]) {
    #[derive(serde::Deserialize)]
    struct Response {
        id: u64,
    }
    #[derive(serde::Deserialize)]
    struct Summary {
        ops: u64,
        certified: bool,
    }
    let (summary, responses) = lines.split_last().expect("a summary line");
    let ids: Vec<u64> = responses
        .iter()
        .map(|line| {
            serde_json::from_str::<Response>(line)
                .unwrap_or_else(|e| panic!("not a response ({e}): {line}"))
                .id
        })
        .collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    let summary = serde_json::from_str::<Summary>(summary)
        .unwrap_or_else(|e| panic!("not a summary ({e}): {summary}"));
    assert_eq!(summary.ops, ids.len() as u64);
    assert!(summary.certified);
}

#[test]
fn snapshot_write_fault_then_restore_reproduces_every_later_response() {
    let dir = tmp_dir("write-fault-responses");
    let (inst, ops) = make_fixture(&dir, 300, 20, 40);
    for threads in ["1", "4"] {
        let run = |tag: &str, extra: &[&str], env: &[(&str, &str)]| {
            let state = dir.join(format!("state-{tag}-{threads}"));
            let plan = dir.join(format!("plan-{tag}-{threads}.json"));
            serve_acked(&inst, &ops, &state, &plan, threads, extra, env)
        };
        let reference = run("ref", &[], &[]);
        assert!(reference.status.success());
        let expected = stdout_lines(&reference);
        assert_eq!(expected.len(), 41, "40 responses, summary");
        assert_json_stream(&expected);

        // Hit 1 of the fault site is the base write at start, hit 2
        // the checkpoint after op 7, hit 3 the one after op 14: op 14's
        // outcome is durable, its checkpoint is not.
        let env = [("EPPLAN_FAULTS", "serve.snapshot.write@3=error")];
        let faulted = run("fault", &[], &env);
        assert_eq!(
            faulted.status.code(),
            Some(3),
            "{}",
            String::from_utf8_lossy(&faulted.stderr)
        );
        assert_eq!(stdout_lines(&faulted), expected[..13], "threads {threads}");
        let state = dir.join(format!("state-fault-{threads}"));
        let ckpt = wal::read_checkpoint(&state).unwrap().expect("a checkpoint");
        assert_eq!(ckpt.last_op_id, EVERY, "the write after op 14 died");

        let restored = run("fault", &["--restore"], &[]);
        assert!(
            restored.status.success(),
            "{}",
            String::from_utf8_lossy(&restored.stderr)
        );
        let got = stdout_lines(&restored);
        assert_eq!(got.len(), 41);
        assert_json_stream(&got);
        for line in &got[..14] {
            assert!(line.contains("\"skipped\""), "{line}");
        }
        // Op 14's snapshot point recounted `U_P` before the write died;
        // the replay recounts it there too, so every later response
        // matches byte for byte.
        assert_eq!(got[14..40], expected[14..40], "threads {threads}");
        assert_eq!(
            summary_utility(&got[40]).to_bits(),
            summary_utility(&expected[40]).to_bits()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
