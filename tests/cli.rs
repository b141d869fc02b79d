//! End-to-end tests of the `epplan` CLI binary: generate → solve →
//! validate → apply, all through real process invocations and JSON
//! files.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_epplan"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epplan-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_solve_validate_roundtrip() {
    let dir = tmp_dir("roundtrip");
    let inst = dir.join("inst.json");
    let plan = dir.join("plan.json");

    let out = bin()
        .args(["generate", "--users", "40", "--events", "6", "--seed", "9"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(inst.exists());

    let out = bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .args(["--solver", "greedy", "--out", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hard-feasible  : yes"), "{stdout}");

    let out = bin()
        .args(["validate", "--instance", inst.to_str().unwrap()])
        .args(["--plan", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn apply_op_stream() {
    let dir = tmp_dir("apply");
    let inst = dir.join("inst.json");
    let plan = dir.join("plan.json");
    let ops = dir.join("ops.json");
    let plan2 = dir.join("plan2.json");

    assert!(bin()
        .args(["generate", "--users", "30", "--events", "5", "--seed", "4"])
        .args(["--out", inst.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .args(["--out", plan.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    std::fs::write(
        &ops,
        r#"[{"op":"eta_decrease","event":1,"new_upper":1},
            {"op":"xi_decrease","event":0,"new_lower":0},
            {"op":"fee_change","event":2,"new_fee":1.5}]"#,
    )
    .unwrap();
    let out = bin()
        .args(["apply", "--instance", inst.to_str().unwrap()])
        .args(["--plan", plan.to_str().unwrap()])
        .args(["--ops", ops.to_str().unwrap()])
        .args(["--out-plan", plan2.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("applying 3 atomic operation(s)"), "{stdout}");
    assert!(plan2.exists());
}

#[test]
fn city_preset_generation() {
    let dir = tmp_dir("city");
    let inst = dir.join("beijing.json");
    let out = bin()
        .args(["generate", "--city", "beijing"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("113 users × 16 events"), "{stdout}");
}

#[test]
fn generate_and_example_out_notices_go_to_stderr() {
    let dir = tmp_dir("notices");
    let inst = dir.join("inst.json");
    let out = bin()
        .args(["generate", "--users", "40", "--events", "6", "--seed", "9"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "generated 40 users × 6 events\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("wrote {}", inst.display())), "{stderr}");

    let example = dir.join("example.json");
    let out = bin()
        .args(["example", "--out", example.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(example.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("wrote"), "{stdout}");
}

#[test]
fn example_subcommand() {
    let out = bin().arg("example").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("utility        : 6.300"), "{stdout}");
}

/// Extracts the machine-readable JSON error object from the last
/// stderr line that looks like one, returning `(class, message_line)`.
fn parse_error_object(stderr: &[u8]) -> (String, String) {
    let text = String::from_utf8_lossy(stderr);
    let line = text
        .lines()
        .rev()
        .find(|l| l.starts_with('{') && l.contains("\"class\""))
        .unwrap_or_else(|| panic!("no JSON error line in stderr: {text}"));
    let start = line
        .find("\"class\":\"")
        .map(|i| i + "\"class\":\"".len())
        .unwrap_or_else(|| panic!("no class field: {line}"));
    let len = line[start..].find('"').expect("closing quote");
    (line[start..start + len].to_string(), line.to_string())
}

#[test]
fn unknown_subcommand_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn usage_errors_exit_2_with_json_object() {
    let out = bin().arg("solve").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let (class, line) = parse_error_object(&out.stderr);
    assert_eq!(class, "usage");
    assert!(line.contains("\"exit_code\":2"), "{line}");
    assert!(line.contains("--instance"), "{line}");
}

#[test]
fn missing_instance_file_exits_3() {
    let out = bin()
        .args(["solve", "--instance", "/nonexistent/epplan-void.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let (class, _) = parse_error_object(&out.stderr);
    assert_eq!(class, "io");
}

#[test]
fn malformed_instance_json_exits_4() {
    let dir = tmp_dir("badinst");
    let inst = dir.join("inst.json");
    std::fs::write(&inst, "{definitely not json").unwrap();
    let out = bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let (class, _) = parse_error_object(&out.stderr);
    assert_eq!(class, "parse");
}

#[test]
fn strictly_invalid_instance_exits_5() {
    let dir = tmp_dir("invalidinst");
    let inst = dir.join("inst.json");
    // Parses fine, but the utility is far outside [0, 1] — the kind of
    // damage serde cannot catch.
    std::fs::write(
        &inst,
        r#"{"users":[{"location":{"x":0.0,"y":0.0},"budget":10.0}],
            "events":[{"location":{"x":1.0,"y":0.0},"lower":0,"upper":1,
                       "time":{"start":0,"end":60},"fee":0.0}],
            "utilities":{"n_users":1,"n_events":1,"values":[7.5]}}"#,
    )
    .unwrap();
    let out = bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5));
    let (class, line) = parse_error_object(&out.stderr);
    assert_eq!(class, "invalid-instance");
    assert!(line.contains("outside [0, 1]"), "{line}");
}

#[test]
fn infeasible_plan_validation_exits_6() {
    let dir = tmp_dir("infeasible");
    let inst = dir.join("inst.json");
    let plan = dir.join("plan.json");
    // One user, one event the user cannot attend (zero utility), but a
    // plan that assigns it anyway; a second event nobody attends falls
    // short of its ξ = 1, which is soft.
    std::fs::write(
        &inst,
        r#"{"users":[{"location":{"x":0.0,"y":0.0},"budget":10.0}],
            "events":[{"location":{"x":1.0,"y":0.0},"lower":0,"upper":1,
                       "time":{"start":0,"end":60},"fee":0.0},
                      {"location":{"x":1.0,"y":0.0},"lower":1,"upper":1,
                       "time":{"start":90,"end":120},"fee":0.0}],
            "utilities":{"n_users":1,"n_events":2,"values":[0.0,0.5]}}"#,
    )
    .unwrap();
    std::fs::write(&plan, r#"{"assignments":[[0]],"attendance":[1,0]}"#).unwrap();
    let out = bin()
        .args(["validate", "--instance", inst.to_str().unwrap()])
        .args(["--plan", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(6), "{}", String::from_utf8_lossy(&out.stderr));
    let (class, line) = parse_error_object(&out.stderr);
    assert_eq!(class, "infeasible");
    assert!(line.contains("plan violates 1 hard constraint(s)"), "{line}");
    // Every finding is printed as its certificate line, soft ones too.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hard-feasible  : NO"), "{stdout}");
    assert!(
        stdout.contains("  zero-utility: user 0 assigned to event 0 with utility 0\n"),
        "{stdout}"
    );
    assert!(
        stdout.contains("  xi-lower-bound: event 1 has 0 attendees under lower bound 1\n"),
        "{stdout}"
    );
}

/// Generates an instance and solves a greedy plan for it, returning
/// their paths.
fn solved(dir: &Path, tag: &str, users: &str, events: &str, seed: &str) -> (PathBuf, PathBuf) {
    let inst = dir.join(format!("inst-{tag}.json"));
    let plan = dir.join(format!("plan-{tag}.json"));
    let out = bin()
        .args(["generate", "--users", users, "--events", events, "--seed", seed])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .args(["--out", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    (inst, plan)
}

/// Asserts `out` is the invalid-plan failure: exit 5 with the typed
/// JSON error object naming the plan file.
fn assert_invalid_plan(out: &Output, plan: &Path) {
    assert_eq!(out.status.code(), Some(5), "{}", String::from_utf8_lossy(&out.stderr));
    let (class, line) = parse_error_object(&out.stderr);
    assert_eq!(class, "invalid-instance");
    assert!(line.contains("invalid plan"), "{line}");
    assert!(line.contains(plan.file_name().unwrap().to_str().unwrap()), "{line}");
}

#[test]
fn validate_rejects_a_plan_that_does_not_fit_with_exit_5() {
    let dir = tmp_dir("validate-misfit");
    let (_, plan) = solved(&dir, "a", "20", "5", "1");
    let (other, _) = solved(&dir, "b", "30", "6", "2");
    let out = bin()
        .args(["validate", "--instance", other.to_str().unwrap()])
        .args(["--plan", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert_invalid_plan(&out, &plan);

    // A plan listing one event twice for a user is malformed, not a
    // time conflict of the event with itself.
    let inst = dir.join("one.json");
    let twice = dir.join("twice.json");
    std::fs::write(
        &inst,
        r#"{"users":[{"location":{"x":0.0,"y":0.0},"budget":10.0}],
            "events":[{"location":{"x":1.0,"y":0.0},"lower":0,"upper":2,
                       "time":{"start":0,"end":60},"fee":0.0}],
            "utilities":{"n_users":1,"n_events":1,"values":[0.5]}}"#,
    )
    .unwrap();
    std::fs::write(&twice, r#"{"assignments":[[0,0]],"attendance":[2]}"#).unwrap();
    let out = bin()
        .args(["validate", "--instance", inst.to_str().unwrap()])
        .args(["--plan", twice.to_str().unwrap()])
        .output()
        .unwrap();
    assert_invalid_plan(&out, &twice);
}

#[test]
fn apply_rejects_a_plan_that_does_not_fit_with_exit_5() {
    let dir = tmp_dir("apply-misfit");
    let (_, plan) = solved(&dir, "a", "20", "5", "1");
    let (other, _) = solved(&dir, "b", "30", "6", "2");
    let ops = dir.join("ops.json");
    std::fs::write(&ops, "[]").unwrap();
    let out = bin()
        .args(["apply", "--instance", other.to_str().unwrap()])
        .args(["--plan", plan.to_str().unwrap()])
        .args(["--ops", ops.to_str().unwrap()])
        .output()
        .unwrap();
    assert_invalid_plan(&out, &plan);
}

#[test]
fn apply_on_a_plan_that_fails_certification_exits_6() {
    // η cut below an event's attendance: the plan still fits the
    // instance, but no longer certifies, so no op is applied to it.
    let dir = tmp_dir("apply-uncertified");
    let (inst, plan) = solved(&dir, "a", "30", "5", "4");
    let mut instance = epplan::datagen::load_instance(&inst).unwrap();
    let solved_plan: epplan::core::plan::Plan =
        serde_json::from_str(&std::fs::read_to_string(&plan).unwrap()).unwrap();
    let e = instance
        .event_ids()
        .find(|&e| solved_plan.attendance(e) > 0)
        .expect("the solve fills some event");
    instance.set_event_bounds(e, 0, solved_plan.attendance(e) - 1);
    epplan::datagen::save_instance(&instance, &inst).unwrap();
    let ops = dir.join("ops.json");
    std::fs::write(&ops, r#"[{"op":"xi_decrease","event":0,"new_lower":0}]"#).unwrap();
    let plan2 = dir.join("plan2.json");
    let out = bin()
        .args(["apply", "--instance", inst.to_str().unwrap()])
        .args(["--plan", plan.to_str().unwrap()])
        .args(["--ops", ops.to_str().unwrap()])
        .args(["--out-plan", plan2.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(6), "{}", String::from_utf8_lossy(&out.stderr));
    let (class, line) = parse_error_object(&out.stderr);
    assert_eq!(class, "infeasible");
    assert!(line.contains("eta-upper-bound"), "{line}");
    assert!(!plan2.exists(), "nothing is written for a rejected plan");
}

#[test]
fn exhausted_solve_budget_exits_7_with_fallback_plan() {
    let dir = tmp_dir("budget");
    let inst = dir.join("inst.json");
    let plan = dir.join("plan.json");
    assert!(bin()
        .args(["generate", "--users", "40", "--events", "6", "--seed", "2"])
        .args(["--out", inst.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .args(["--solver", "gap", "--time-limit-ms", "0"])
        .args(["--out", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(7), "{}", String::from_utf8_lossy(&out.stderr));
    let (class, _) = parse_error_object(&out.stderr);
    assert_eq!(class, "budget-exhausted");
    // The greedy fallback plan was still produced and written.
    assert!(plan.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hard-feasible  : yes"), "{stdout}");
}

#[test]
fn degraded_solve_ends_stdout_with_the_metrics_snapshot() {
    let dir = tmp_dir("degraded-metrics");
    let inst = dir.join("inst.json");
    assert!(bin()
        .args(["generate", "--users", "40", "--events", "6", "--seed", "2"])
        .args(["--out", inst.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .args(["--solver", "gap", "--time-limit-ms", "0", "--json-metrics"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(7), "{}", String::from_utf8_lossy(&out.stderr));
    // The fallback's summary comes first and the snapshot last, as on
    // a clean run.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with('{') && last.contains("\"counters\""), "{stdout}");
    assert!(stdout.contains("hard-feasible  : yes"), "{stdout}");
}

#[test]
fn poisoned_gap_solve_escalates_exits_1_and_writes_a_valid_plan() {
    let dir = tmp_dir("poison");
    let inst = dir.join("inst.json");
    let plan = dir.join("plan.json");
    // User 0 is the only candidate for two overlapping events, so the
    // GAP assignment without Algorithm 1 holds a time conflict.
    std::fs::write(
        &inst,
        r#"{"users":[{"location":{"x":0.0,"y":0.0},"budget":50.0},
                     {"location":{"x":1.0,"y":0.0},"budget":50.0}],
            "events":[{"location":{"x":0.0,"y":1.0},"lower":1,"upper":2,
                       "time":{"start":0,"end":59},"fee":0.0},
                      {"location":{"x":0.0,"y":2.0},"lower":1,"upper":2,
                       "time":{"start":30,"end":119},"fee":0.0}],
            "utilities":{"n_users":2,"n_events":2,"values":[0.9,0.9,0.0,0.0]}}"#,
    )
    .unwrap();
    let out = bin()
        .env("EPPLAN_FAULTS", "core.conflict_adjust.apply=nan")
        .args(["solve", "--instance", inst.to_str().unwrap(), "--solver", "gap"])
        .args(["--out", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let (class, line) = parse_error_object(&out.stderr);
    assert_eq!(class, "internal");
    assert!(line.contains("time-conflict"), "{line}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("certificate    : certified"), "{stdout}");
    assert!(stdout.contains("hard-feasible  : yes"), "{stdout}");

    let out = bin()
        .args(["validate", "--instance", inst.to_str().unwrap()])
        .args(["--plan", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn malformed_op_in_stream_is_typed_error() {
    let dir = tmp_dir("badop");
    let inst = dir.join("inst.json");
    let plan = dir.join("plan.json");
    let ops = dir.join("ops.json");
    assert!(bin()
        .args(["generate", "--users", "10", "--events", "3", "--seed", "5"])
        .args(["--out", inst.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .args(["--out", plan.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    // Parses fine but references event 99 — rejected by op validation,
    // not by a panic deep inside the model layer.
    std::fs::write(
        &ops,
        r#"[{"op":"eta_decrease","event":99,"new_upper":1}]"#,
    )
    .unwrap();
    let out = bin()
        .args(["apply", "--instance", inst.to_str().unwrap()])
        .args(["--plan", plan.to_str().unwrap()])
        .args(["--ops", ops.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5), "{}", String::from_utf8_lossy(&out.stderr));
    let (_, line) = parse_error_object(&out.stderr);
    assert!(line.contains("out of range"), "{line}");
}

#[test]
fn missing_required_flag_fails() {
    let out = bin().arg("solve").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--instance"), "{stderr}");
}

#[test]
fn unknown_flag_is_usage_error() {
    let out = bin()
        .args(["solve", "--instance", "x.json", "--solvr", "gap"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let (class, line) = parse_error_object(&out.stderr);
    assert_eq!(class, "usage");
    assert!(line.contains("unknown flag --solvr"), "{line}");
}

#[test]
fn trace_and_metrics_outputs() {
    let dir = tmp_dir("obs");
    let inst = dir.join("inst.json");
    let trace = dir.join("trace.jsonl");
    assert!(bin()
        .args(["generate", "--users", "60", "--events", "8", "--seed", "3"])
        .args(["--out", inst.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["solve", "--instance", inst.to_str().unwrap(), "--solver", "gap"])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--metrics", "--json-metrics"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Every trace line parses as a JSON object carrying the schema
    // keys (extra keys like `parent`/`iters` are ignored by the typed
    // deserialize).
    #[derive(serde::Deserialize)]
    struct TraceLine {
        ts: u64,
        id: u64,
        span: String,
        dur_us: u64,
    }
    let body = std::fs::read_to_string(&trace).unwrap();
    assert!(!body.trim().is_empty(), "trace file is empty");
    let mut saw_nested = false;
    for line in body.lines() {
        let ev: TraceLine = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
        assert!(!ev.span.is_empty(), "empty span name: {line}");
        assert!(ev.id > 0, "span id must be positive: {line}");
        let _ = (ev.ts, ev.dur_us);
        saw_nested |= line.contains("\"parent\":");
    }
    assert!(saw_nested, "no nested span (parent id) in trace:\n{body}");
    // The solve certifies the plan it returns once, and the CLI reads
    // that certificate instead of checking again.
    let certifies = body
        .lines()
        .filter(|l| l.contains("\"span\":\"solve.certify\""))
        .count();
    assert_eq!(certifies, 1, "{body}");

    // --metrics renders the human stage table on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stage"), "{stderr}");
    assert!(stderr.contains("lp.simplex"), "{stderr}");

    // --json-metrics puts a machine-readable snapshot on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let snap_line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{') && l.contains("\"counters\""))
        .unwrap_or_else(|| panic!("no metrics JSON in stdout: {stdout}"));
    assert!(snap_line.contains("\"lp.iterations\":"), "{snap_line}");
    assert!(snap_line.contains("\"stages\":"), "{snap_line}");
}

#[test]
fn bad_ops_json_fails_cleanly() {
    let dir = tmp_dir("badops");
    let inst = dir.join("inst.json");
    let plan = dir.join("plan.json");
    let ops = dir.join("ops.json");
    assert!(bin()
        .args(["generate", "--users", "10", "--events", "3", "--seed", "1"])
        .args(["--out", inst.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .args(["--out", plan.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    std::fs::write(&ops, "{not valid json").unwrap();
    let out = bin()
        .args(["apply", "--instance", inst.to_str().unwrap()])
        .args(["--plan", plan.to_str().unwrap()])
        .args(["--ops", ops.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
}
