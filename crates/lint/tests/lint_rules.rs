//! Fixture-based tests for `epplan-lint`: each rule must fire at the
//! right `file:line` on a deliberately-violating snippet, suppressions
//! must work only with a reason, the `--json` output must round-trip,
//! and — the acceptance bar — the real workspace tree must lint clean.

use epplan_lint::semantic::unresolved_batch_entry_points;
use epplan_lint::symbols::Workspace;
use epplan_lint::{lint_source, run_workspace, workspace_files, LintReport};
use serde::Deserialize;
use std::path::Path;
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(line, rule)` pairs of the diagnostics for `src` linted under
/// `pseudo_path`.
fn fire_lines(pseudo_path: &str, src: &str) -> Vec<(u32, String)> {
    let (diags, _) = lint_source(pseudo_path, src);
    diags.into_iter().map(|d| (d.line, d.rule)).collect()
}

#[test]
fn hash_iter_fires_in_deterministic_crates_tests_included() {
    let src = fixture("hash_iter.rs");
    let got = fire_lines("crates/gap/src/fixture.rs", &src);
    let expected: Vec<(u32, String)> = [1, 3, 4, 12]
        .iter()
        .map(|&l| (l, "determinism/hash-iter".to_string()))
        .collect();
    assert_eq!(got, expected);
    // Outside the deterministic crates the rule is silent.
    assert!(fire_lines("crates/obs/src/fixture.rs", &src).is_empty());
}

#[test]
fn wall_clock_fires_outside_timing_owners_non_test_only() {
    let src = fixture("wall_clock.rs");
    let got = fire_lines("crates/core/src/fixture.rs", &src);
    let expected: Vec<(u32, String)> = [4, 5]
        .iter()
        .map(|&l| (l, "determinism/wall-clock".to_string()))
        .collect();
    assert_eq!(got, expected);
    // The timing owners may read the clock.
    assert!(fire_lines("crates/solve/src/budget.rs", &src).is_empty());
    assert!(fire_lines("crates/bench/src/fixture.rs", &src).is_empty());
    assert!(fire_lines("crates/obs/src/fixture.rs", &src).is_empty());
}

#[test]
fn raw_threads_fire_everywhere_but_par() {
    let src = fixture("raw_threads.rs");
    let got = fire_lines("crates/solve/src/fixture.rs", &src);
    let expected: Vec<(u32, String)> = [2, 3, 12]
        .iter()
        .map(|&l| (l, "par/raw-threads".to_string()))
        .collect();
    assert_eq!(got, expected);
    assert!(fire_lines("crates/par/src/fixture.rs", &src).is_empty());
}

#[test]
fn unwrap_fires_in_non_test_library_code_only() {
    let src = fixture("unwrap.rs");
    let got = fire_lines("crates/flow/src/fixture.rs", &src);
    let expected: Vec<(u32, String)> = [4, 8]
        .iter()
        .map(|&l| (l, "robustness/unwrap".to_string()))
        .collect();
    assert_eq!(got, expected);
    // Integration tests, examples and CLI binaries are exempt.
    assert!(fire_lines("tests/fixture.rs", &src).is_empty());
    assert!(fire_lines("examples/fixture.rs", &src).is_empty());
    assert!(fire_lines("src/bin/fixture.rs", &src).is_empty());
}

#[test]
fn float_exact_eq_fires_on_literal_comparisons() {
    let src = fixture("float_eq.rs");
    let got = fire_lines("crates/lp/src/fixture.rs", &src);
    let expected: Vec<(u32, String)> = [2, 3]
        .iter()
        .map(|&l| (l, "float/exact-eq".to_string()))
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn obs_names_must_match_registry() {
    let src = fixture("obs_names.rs");
    let got = fire_lines("crates/gap/src/fixture.rs", &src);
    let expected: Vec<(u32, String)> = [7, 8, 9, 10, 11]
        .iter()
        .map(|&l| (l, "obs/stable-names".to_string()))
        .collect();
    assert_eq!(got, expected);
    // The obs crate itself defines names freely (its own tests use
    // scratch names).
    assert!(fire_lines("crates/obs/src/fixture.rs", &src).is_empty());
}

#[test]
fn fault_sites_must_match_registry() {
    let src = fixture("fault_sites.rs");
    let got = fire_lines("crates/core/src/fixture.rs", &src);
    let expected: Vec<(u32, String)> = [3, 4, 7]
        .iter()
        .map(|&l| (l, "fault/unregistered-site".to_string()))
        .collect();
    assert_eq!(got, expected);
    // Integration tests arm plans by site name → the rule covers them.
    assert_eq!(fire_lines("tests/fixture.rs", &src).len(), 3);
    // The fault crate itself defines the registry and may use scratch
    // names in its own tests.
    assert!(fire_lines("crates/fault/src/fixture.rs", &src).is_empty());
}

#[test]
fn cache_invalidate_requires_reaching_the_invalidator() {
    let src = fixture("cache_invalidate.rs");
    let got = fire_lines("crates/core/src/fixture.rs", &src);
    assert_eq!(
        got,
        vec![
            // `set_bad` writes `self.utilities` and never invalidates.
            (14, "sparse/cache-invalidate".to_string()),
            // `set_vetted` (line 32) is suppressed with a reason;
            // `set_unvetted`'s reason-less allow rejects AND fails to
            // suppress.
            (35, "lint/allow-needs-reason".to_string()),
            (36, "sparse/cache-invalidate".to_string()),
        ]
    );
    // Direct and transitive routes to `invalidate_candidates()` and
    // read-only methods stay silent (lines 17, 21, 28 absent above).
    // Examples are out of semantic scope entirely (only the scope-free
    // meta rule still rejects the fixture's reason-less allow).
    assert!(fire_lines("examples/fixture.rs", &src)
        .iter()
        .all(|(_, r)| r == "lint/allow-needs-reason"));
}

#[test]
fn dense_scan_fires_only_on_batch_reachable_hot_code() {
    let src = fixture("dense_scan.rs");
    let got = fire_lines("crates/core/src/fixture.rs", &src);
    assert_eq!(
        got,
        vec![
            // Direct `event_ids()` loop in a helper `solve` calls.
            (14, "sparse/dense-scan".to_string()),
            // Aliased bound: `let m = inst.n_events()` then `0..m`.
            (18, "sparse/dense-scan".to_string()),
            // Reason-less allow rejects and fails to suppress; `cold`
            // (line 38) is unreachable from the entry point → silent.
            (31, "lint/allow-needs-reason".to_string()),
            (32, "sparse/dense-scan".to_string()),
        ]
    );
    // Outside the hot crates the same shapes are fine (only the
    // scope-free meta rule still rejects the reason-less allow).
    assert!(fire_lines("crates/obs/src/fixture.rs", &src)
        .iter()
        .all(|(_, r)| r == "lint/allow-needs-reason"));
}

#[test]
fn unordered_reduce_flags_captured_writes_in_par_closures() {
    let src = fixture("unordered_reduce.rs");
    let got = fire_lines("crates/core/src/fixture.rs", &src);
    assert_eq!(
        got,
        vec![
            // `total += *v` writes captured state; `*v += 1.0` through
            // the chunk-local loop binding is fine, as is the per-chunk
            // `sub` accumulator in `good`.
            (6, "det/unordered-reduce".to_string()),
            (39, "lint/allow-needs-reason".to_string()),
            (40, "det/unordered-reduce".to_string()),
        ]
    );
    // The par runtime itself builds these primitives (only the
    // scope-free meta rule still rejects the reason-less allow).
    assert!(fire_lines("crates/par/src/fixture.rs", &src)
        .iter()
        .all(|(_, r)| r == "lint/allow-needs-reason"));
}

#[test]
fn poll_coverage_demands_deadline_polls_in_governed_loops() {
    let src = fixture("poll_coverage.rs");
    let got = fire_lines("crates/core/src/fixture.rs", &src);
    assert_eq!(
        got,
        vec![
            // `bad` never polls; direct polls, polls through a helper
            // reaching `poll`, and ungoverned functions are silent.
            (9, "budget/poll-coverage".to_string()),
            (48, "lint/allow-needs-reason".to_string()),
            (49, "budget/poll-coverage".to_string()),
        ]
    );
}

#[test]
fn name_rules_resolve_consts_statics_and_lets() {
    let src = fixture("resolved_names.rs");
    let got = fire_lines("crates/gap/src/fixture.rs", &src);
    assert_eq!(
        got,
        vec![
            // A const and a `let` resolving to off-registry names fire;
            // `GOOD_SPAN` and the registered literal stay silent, and
            // the allow with a reason suppresses the last `BAD_SPAN`
            // use (line 20).
            (8, "obs/stable-names".to_string()),
            (10, "obs/stable-names".to_string()),
            (15, "fault/unregistered-site".to_string()),
        ]
    );
}

#[test]
fn lint_fault_registry_mirrors_the_real_one() {
    // The linter is zero-dep, so its copy of the site registry must be
    // asserted against the authoritative one here.
    let mut ours: Vec<&str> = epplan_lint::rules::FAULT_SITES.to_vec();
    let mut real: Vec<&str> = epplan_fault::SITES.to_vec();
    ours.sort_unstable();
    real.sort_unstable();
    assert_eq!(ours, real, "crates/lint/src/rules.rs FAULT_SITES drifted from epplan_fault::SITES");
}

#[test]
fn allows_with_reasons_suppress() {
    let src = fixture("allow_ok.rs");
    let (diags, allows) = lint_source("crates/gap/src/fixture.rs", &src);
    assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    assert_eq!(allows.len(), 3);
    assert_eq!(allows[0].target_line, 1); // trailing: same line
    assert_eq!(allows[1].target_line, 4); // standalone: next code line
    assert_eq!(allows[2].target_line, 7);
    assert!(allows.iter().all(|a| !a.reason.is_empty()));
}

#[test]
fn allows_without_reason_or_with_unknown_rule_are_rejected() {
    let src = fixture("allow_bad.rs");
    let (diags, allows) = lint_source("crates/gap/src/fixture.rs", &src);
    assert!(allows.is_empty(), "malformed allows must not register: {allows:?}");
    let got: Vec<(u32, &str)> = diags.iter().map(|d| (d.line, d.rule.as_str())).collect();
    assert_eq!(
        got,
        vec![
            (1, "lint/allow-needs-reason"),
            (1, "determinism/hash-iter"), // the allow without a reason does NOT suppress
            (3, "lint/unknown-rule"),
        ]
    );
}

// Mirrors of the `--json` schema, deserialized through the workspace
// serde shim to prove the output round-trips.
#[derive(Debug, Deserialize)]
struct JsonReport {
    version: u32,
    files_scanned: usize,
    clean: bool,
    diagnostics: Vec<JsonDiag>,
    allows: Vec<JsonAllow>,
}

#[derive(Debug, Deserialize)]
struct JsonDiag {
    path: String,
    line: u32,
    col: u32,
    end_line: u32,
    end_col: u32,
    rule: String,
    message: String,
}

#[derive(Debug, Deserialize)]
struct JsonAllow {
    path: String,
    line: u32,
    target_line: u32,
    rule: String,
    reason: String,
}

#[test]
fn json_output_round_trips() {
    let (diags, allows) = lint_source("crates/gap/src/fixture.rs", &fixture("hash_iter.rs"));
    let report = LintReport {
        diagnostics: diags,
        allows,
        files_scanned: 1,
    };
    let parsed: JsonReport =
        serde_json::from_str(&report.to_json()).unwrap_or_else(|e| panic!("bad JSON: {e:?}"));
    assert_eq!(parsed.version, 1);
    assert_eq!(parsed.files_scanned, 1);
    assert!(!parsed.clean);
    assert_eq!(parsed.diagnostics.len(), report.diagnostics.len());
    for (j, d) in parsed.diagnostics.iter().zip(&report.diagnostics) {
        assert_eq!(j.path, d.path);
        assert_eq!(j.line, d.line);
        assert_eq!(j.col, d.col);
        assert_eq!(j.end_line, d.end_line);
        assert_eq!(j.end_col, d.end_col);
        // The span is non-degenerate and ordered.
        assert!((j.end_line, j.end_col) >= (j.line, j.col));
        assert_eq!(j.rule, d.rule);
        assert_eq!(j.message, d.message);
    }
    assert_eq!(parsed.allows.len(), report.allows.len());
    for (j, a) in parsed.allows.iter().zip(&report.allows) {
        assert_eq!(j.path, a.path);
        assert_eq!(j.line, a.line);
        assert_eq!(j.target_line, a.target_line);
        assert_eq!(j.rule, a.rule);
        assert_eq!(j.reason, a.reason);
    }
}

fn workspace_root() -> &'static Path {
    // crates/lint → workspace root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .unwrap_or_else(|| panic!("workspace root above {}", env!("CARGO_MANIFEST_DIR")))
}

#[test]
fn the_real_workspace_lints_clean() {
    let report = run_workspace(workspace_root()).unwrap_or_else(|e| panic!("lint failed: {e}"));
    assert!(report.files_scanned > 50, "walk too small: {}", report.files_scanned);
    assert!(
        report.is_clean(),
        "contract violations in the tree:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every suppression in the tree carries a reason (the parser
    // rejects reason-less allows, so this documents the invariant).
    assert!(report.allows.iter().all(|a| !a.reason.trim().is_empty()));
    // Suppressions only go down: lower this ceiling when one is
    // removed, and never raise it.
    assert!(
        report.allows.len() <= 16,
        "{} suppressions in the tree, ceiling 16:\n{}",
        report.allows.len(),
        report
            .allows
            .iter()
            .map(|a| format!("{}:{} {}", a.path, a.line, a.rule))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_batch_entry_point_resolves_in_the_real_workspace() {
    let root = workspace_root();
    let files = workspace_files(root).unwrap_or_else(|e| panic!("walk failed: {e}"));
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {rel}: {e}"));
            (rel, src)
        })
        .collect();
    let ws = Workspace::build(&sources);
    assert_eq!(
        unresolved_batch_entry_points(&ws),
        Vec::<(&str, &str)>::new(),
        "stale BATCH_ENTRY_POINTS entries seed no sparse/dense-scan reachability"
    );
}

#[test]
fn cli_explains_every_listed_rule() {
    let bin = env!("CARGO_BIN_EXE_epplan-lint");
    let out = Command::new(bin)
        .arg("--list-rules")
        .output()
        .unwrap_or_else(|e| panic!("spawn: {e}"));
    assert_eq!(out.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&out.stdout).to_string();
    let rules: Vec<&str> = listing.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    assert!(rules.len() >= 13, "rule listing too short: {rules:?}");
    for rule in &rules {
        let out = Command::new(bin)
            .args(["--explain", rule])
            .output()
            .unwrap_or_else(|e| panic!("spawn: {e}"));
        assert_eq!(out.status.code(), Some(0), "--explain {rule} failed");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains(rule), "--explain {rule} does not mention the rule");
        // Suppressible rules print the allow hint; the meta rules
        // (which cannot be suppressed) must not.
        let suppressible = !rule.starts_with("lint/");
        assert_eq!(
            text.contains("Suppress a vetted site with"),
            suppressible,
            "--explain {rule} suppression hint mismatch"
        );
    }
    // Unknown rules are a usage error.
    let out = Command::new(bin)
        .args(["--explain", "no/such-rule"])
        .output()
        .unwrap_or_else(|e| panic!("spawn: {e}"));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_exit_code_contract() {
    let bin = env!("CARGO_BIN_EXE_epplan-lint");
    let root = workspace_root();

    // 0 — clean tree.
    let out = Command::new(bin)
        .args(["--workspace", "--json"])
        .current_dir(root)
        .output()
        .unwrap_or_else(|e| panic!("spawn: {e}"));
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let parsed: JsonReport = serde_json::from_str(
        String::from_utf8_lossy(&out.stdout).trim(),
    )
    .unwrap_or_else(|e| panic!("bad CLI JSON: {e:?}"));
    assert!(parsed.clean);

    // 5 — violations found. par/raw-threads fires regardless of crate
    // scope (only crates/par/ is exempt), so the fixture is dirty even
    // under its real path.
    let fixture_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures/raw_threads.rs");
    let out = Command::new(bin)
        .arg(fixture_path.display().to_string())
        .output()
        .unwrap_or_else(|e| panic!("spawn: {e}"));
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // 2 — usage error.
    let out = Command::new(bin)
        .arg("--no-such-flag")
        .output()
        .unwrap_or_else(|e| panic!("spawn: {e}"));
    assert_eq!(out.status.code(), Some(2));

    // 3 — io error.
    let out = Command::new(bin)
        .arg("does/not/exist.rs")
        .output()
        .unwrap_or_else(|e| panic!("spawn: {e}"));
    assert_eq!(out.status.code(), Some(3));
}
