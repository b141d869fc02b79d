//! Runs every workload at `--scale smoke`, untraced and traced, through
//! the `benchmark` binary, and checks its output contract.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use epplan_perfbench::registry::{Workload, END_TO_END, PER_LAYER};
use epplan_perfbench::report::{read_document, Json};

/// A fresh working directory under the target directory: the binary
/// creates its scratch files below it.
fn workdir(tag: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn benchmark(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark runs")
}

/// Checks the printed lines and the final JSON line of a run of every
/// workload; `declared` is the `(name, unit)` list the run must print.
fn check_output(out: &Output, declared: &[(&str, &str)]) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}\n{stderr}", out.status);
    assert!(!stderr.contains("check failed"), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    for w in Workload::ALL {
        for (name, unit) in declared {
            let printed = lines.iter().any(|l| {
                let cols: Vec<&str> = l.split(' ').collect();
                cols.len() == 4
                    && cols[0] == w.name()
                    && cols[1] == *name
                    && cols[3] == *unit
                    && cols[2].parse::<f64>().is_ok_and(f64::is_finite)
            });
            assert!(printed, "{} {name} [{unit}] not printed", w.name());
        }
    }
    let last = Json::parse(lines.last().expect("output")).expect("last line is JSON");
    assert_eq!(last.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").unwrap().0.as_bool(), Some(true));
    assert_eq!(last.get("failed").unwrap().0.as_u64(), Some(0));
    assert!(last.get("attempted").unwrap().0.as_u64().unwrap() >= 1);
    assert_eq!(
        last.get("metrics").unwrap().keys().len(),
        declared.len() * Workload::ALL.len()
    );
}

#[test]
fn untraced_run_prints_every_end_to_end_metric_and_compares() {
    let dir = workdir("untraced");
    let out = benchmark(
        &dir,
        &[
            "--scale",
            "smoke",
            "--seconds",
            "0",
            "--seed",
            "3",
            "--out",
            "a.json",
        ],
    );
    let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    check_output(&out, &declared);
    assert!(
        !dir.join(".bench_work").exists(),
        "scratch files left behind"
    );

    // A file compared with itself is within every bound.
    let same = benchmark(&dir, &["--compare", "a.json", "a.json"]);
    assert!(same.status.success());
    let report = String::from_utf8_lossy(&same.stdout);
    assert_eq!(
        report.lines().filter(|l| l.ends_with(" within")).count(),
        declared.len() * 4
    );

    // Doubling one workload's latency is a regression.
    let text = std::fs::read_to_string(dir.join("a.json")).unwrap();
    let records = read_document(&text).unwrap();
    let latency = records[0]
        .metrics
        .iter()
        .find(|m| m.0 == "latency_ms")
        .unwrap()
        .1;
    let doctored = text.replacen(
        &format!("\"value\": {latency},"),
        &format!("\"value\": {},", latency * 2.0),
        1,
    );
    assert_ne!(doctored, text);
    std::fs::write(dir.join("b.json"), doctored).unwrap();
    let worse = benchmark(&dir, &["--compare", "a.json", "b.json"]);
    assert_eq!(worse.status.code(), Some(1));
    let report = String::from_utf8_lossy(&worse.stdout);
    assert!(
        report
            .lines()
            .any(|l| l.starts_with("gepc_wide latency_ms") && l.ends_with(" worse")),
        "{report}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traced_run_prints_every_layer_metric_and_a_readable_trace() {
    let dir = workdir("traced");
    let out = benchmark(
        &dir,
        &[
            "--scale",
            "smoke",
            "--trace",
            "1",
            "--trace-file",
            "t.jsonl",
        ],
    );
    let declared: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    // A clean exit with no failed check also means the rebuilt batch
    // pipeline reproduced each solver plan byte for byte and every
    // probed `applied` op matched the daemon's plan.
    check_output(&out, &declared);

    let trace = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
    let events: Vec<Json> = trace
        .lines()
        .map(|l| Json::parse(l).expect("trace line is JSON"))
        .collect();
    let ids: Vec<u64> = events
        .iter()
        .map(|e| e.get("id").unwrap().0.as_u64().unwrap())
        .collect();
    for e in &events {
        for key in ["ts", "span", "dur_us", "alloc_calls"] {
            assert!(e.get(key).is_some(), "trace line without {key}");
        }
        if let Some(parent) = e.get("parent") {
            assert!(ids.contains(&parent.0.as_u64().unwrap()), "dangling parent");
        }
    }
    for w in Workload::ALL {
        let root = format!("bench.{}", w.name());
        assert!(events
            .iter()
            .any(|e| e.get("span").unwrap().str() == Some(&root) && e.get("parent").is_none()));
    }
    for layer in [
        "core.reduction",
        "gap.solve",
        "core.fill",
        "core.incremental.apply",
        "serve.process",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("span").unwrap().str() == Some(layer)),
            "no {layer} span"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_arguments_are_usage_errors() {
    let dir = workdir("usage");
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--bogus", "1"],
        &["--seed"],
    ] {
        assert_eq!(benchmark(&dir, args).status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
