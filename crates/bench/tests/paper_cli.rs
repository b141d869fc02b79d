//! Command-line contract of the `paper` binary: the accepted flags and
//! experiments, usage errors exiting 2, and `--csv DIR` output.

use std::path::PathBuf;
use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .unwrap()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epplan-paper-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn usage_lists_exactly_the_accepted_flags_and_experiments() {
    let out = paper(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    for flag in ["--quick", "--reps N", "--obs", "--threads N", "--csv DIR"] {
        assert!(usage.contains(flag), "usage omits {flag}: {usage}");
    }
    for experiment in [
        "example", "table6", "fig2", "fig3", "table7", "table8", "table9", "fig4", "fig5",
        "ablations", "all",
    ] {
        assert!(usage.contains(experiment), "usage omits {experiment}: {usage}");
    }
    for retired in ["--tolerance", "--strict", "bench", "serve", "gate"] {
        assert!(!usage.contains(retired), "usage still lists {retired}: {usage}");
    }
}

#[test]
fn retired_perf_experiments_are_usage_errors() {
    for experiment in ["bench", "serve", "gate"] {
        let out = paper(&["--quick", experiment]);
        assert_eq!(out.status.code(), Some(2), "{experiment}");
        assert!(out.stdout.is_empty(), "{experiment} ran something");
    }
}

#[test]
fn retired_gate_flags_are_usage_errors() {
    for args in [&["--tolerance", "0.15", "example"][..], &["--strict", "example"]] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn csv_flag_writes_the_printed_table() {
    let dir = tmp_dir("csv");
    let out = paper(&["--csv", dir.to_str().unwrap(), "example"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Paper Example 1"), "{stdout}");
    let csvs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    assert_eq!(csvs.len(), 1, "{csvs:?}");
    let csv = std::fs::read_to_string(&csvs[0]).unwrap();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("Solver,Utility,Feasible"));
    let solvers: Vec<&str> = lines.map(|l| l.split(',').next().unwrap()).collect();
    assert_eq!(solvers, ["exact", "gap", "greedy"]);
    let _ = std::fs::remove_dir_all(&dir);
}
