//! End-to-end contract of the offline trace analyzer: a solver run
//! recorded with `--trace` (JSONL spans) must round-trip through
//! `epplan report` into valid Perfetto JSON whose events match the
//! trace line for line, and the self-time / critical-path tables must
//! account for the run.

use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_epplan"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epplan-report-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn make_instance(dir: &Path) -> PathBuf {
    let inst = dir.join("inst.json");
    let out = bin()
        .args(["generate", "--users", "80", "--events", "10", "--seed", "7"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    inst
}

// Mirror of the Perfetto document, deserialized through the workspace
// serde shim to prove the emitted JSON is machine-readable.
#[derive(Debug, Deserialize)]
#[allow(non_snake_case)]
struct PerfettoDoc {
    displayTimeUnit: String,
    traceEvents: Vec<PerfettoEvent>,
}

#[derive(Debug, Deserialize)]
struct PerfettoEvent {
    name: String,
    ph: String,
    ts: u64,
    dur: u64,
    pid: u64,
    tid: u64,
    args: PerfettoArgs,
}

#[derive(Debug, Deserialize)]
struct PerfettoArgs {
    id: u64,
    #[serde(default)]
    parent: Option<u64>,
    iters: u64,
    mem_peak_bytes: u64,
    alloc_calls: u64,
}

/// `solve --trace` → `report --perfetto`: the table output accounts
/// for the solver stages and the Perfetto file holds exactly one
/// complete event per recorded span.
#[test]
fn solve_trace_reports_tables_and_perfetto_round_trip() {
    let dir = tmp_dir("cli");
    let inst = make_instance(&dir);
    let trace = dir.join("trace.jsonl");
    let out = bin()
        .args(["solve", "--instance", inst.to_str().unwrap()])
        .args(["--solver", "gap", "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let n_spans = jsonl.lines().filter(|l| !l.trim().is_empty()).count();
    assert!(n_spans > 3, "gap solve should record several spans:\n{jsonl}");

    let perfetto = dir.join("trace.perfetto.json");
    let out = bin()
        .args(["report", "--trace", trace.to_str().unwrap()])
        .args(["--perfetto", perfetto.to_str().unwrap(), "--top", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("{n_spans} span(s)")), "{stdout}");
    assert!(stdout.contains("stage"), "{stdout}");
    assert!(stdout.contains("self%"), "{stdout}");
    assert!(stdout.contains("critical-path stage"), "{stdout}");
    // The gap pipeline's root span must appear in the tables.
    assert!(stdout.contains("gap.pipeline"), "{stdout}");

    let doc: PerfettoDoc =
        serde_json::from_str(&std::fs::read_to_string(&perfetto).unwrap())
            .unwrap_or_else(|e| panic!("perfetto output unparseable: {e:?}"));
    assert_eq!(doc.displayTimeUnit, "ms");
    assert_eq!(doc.traceEvents.len(), n_spans, "one complete event per span");
    for e in &doc.traceEvents {
        assert_eq!(e.ph, "X");
        assert_eq!((e.pid, e.tid), (1, 1));
        assert!(!e.name.is_empty());
    }
    // At least one root (parentless) span and one child span exist.
    assert!(doc.traceEvents.iter().any(|e| e.args.parent.is_none()));
    assert!(doc.traceEvents.iter().any(|e| e.args.parent.is_some()));
    // Span ids are unique and every parent link resolves to a span
    // that temporally contains its child.
    let mut ids: Vec<u64> = doc.traceEvents.iter().map(|e| e.args.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), doc.traceEvents.len(), "span ids must be unique");
    for e in &doc.traceEvents {
        if let Some(p) = e.args.parent {
            let parent = doc
                .traceEvents
                .iter()
                .find(|c| c.args.id == p)
                .unwrap_or_else(|| panic!("dangling parent {p}"));
            assert!(
                parent.ts <= e.ts && e.ts + e.dur <= parent.ts + parent.dur,
                "child {} not contained in parent {}",
                e.name,
                parent.name
            );
        }
    }
    // A real gap solve records iteration counts and (with the CLI's
    // counting allocator installed) allocator traffic.
    assert!(doc.traceEvents.iter().any(|e| e.args.iters > 0));
    assert!(doc.traceEvents.iter().any(|e| e.args.alloc_calls > 0));
    assert!(doc.traceEvents.iter().any(|e| e.args.mem_peak_bytes > 0));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Library round-trip: events captured in-process via `CollectingSink`
/// must produce the same Perfetto document as `epplan report` parsing
/// the JSONL serialization of those events — the two paths (in-memory
/// and file-based) are the same analyzer.
#[test]
fn jsonl_and_collecting_sink_agree() {
    let dir = tmp_dir("lib");
    let trace = dir.join("trace.jsonl");
    // Record a small deterministic span tree through the real tracing
    // machinery (spans write through the installed sink on drop).
    let sink = std::sync::Arc::new(epplan::obs::CollectingSink::default());
    epplan::obs::install_sink(sink.clone());
    {
        let mut root = epplan::obs::span("gap.pipeline");
        root.add_iters(3);
        {
            let _child = epplan::obs::span("lp.simplex");
        }
        {
            let _child = epplan::obs::span("gap.rounding");
        }
    }
    drop(epplan::obs::uninstall_sink());
    let events = sink.events();
    assert_eq!(events.len(), 3, "three spans recorded");
    let from_memory = epplan::obs::perfetto_json(&events);

    // Serialize the same events as trace JSONL (the JsonlSink format)
    // and push them through the CLI analyzer.
    let mut jsonl = String::new();
    for e in &events {
        let parent = e
            .parent
            .map_or(String::new(), |p| format!("\"parent\":{p},"));
        jsonl.push_str(&format!(
            "{{\"ts\":{},\"id\":{},{}\"span\":\"{}\",\"dur_us\":{},\"iters\":{},\"mem_peak_bytes\":{},\"alloc_calls\":{}}}\n",
            e.ts_us, e.id, parent, e.span, e.dur_us, e.iters, e.mem_peak_delta, e.alloc_calls
        ));
    }
    std::fs::write(&trace, jsonl).unwrap();
    let perfetto = dir.join("out.json");
    let out = bin()
        .args(["report", "--trace", trace.to_str().unwrap()])
        .args(["--perfetto", perfetto.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let from_file = std::fs::read_to_string(&perfetto).unwrap();
    assert_eq!(from_file, from_memory, "file and in-memory analyzers must agree");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `report --perfetto` keeps stdout for the tables: its `wrote`
/// notice goes to stderr, like every other writer's.
#[test]
fn report_perfetto_notice_goes_to_stderr() {
    let dir = tmp_dir("notice");
    let trace = dir.join("trace.jsonl");
    std::fs::write(
        &trace,
        "{\"ts\":0,\"id\":1,\"span\":\"solve.greedy\",\"dur_us\":40,\"iters\":0,\"mem_peak_bytes\":0,\"alloc_calls\":0}\n",
    )
    .unwrap();
    let perfetto = dir.join("out.json");
    let out = bin()
        .args(["report", "--trace", trace.to_str().unwrap()])
        .args(["--perfetto", perfetto.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(perfetto.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("1 span(s) in "), "{stdout}");
    assert!(!stdout.contains("wrote"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("wrote {}", perfetto.display())), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Malformed traces fail loudly with the documented exit codes.
#[test]
fn report_error_contract() {
    let dir = tmp_dir("errors");
    // Missing file → io (3).
    let out = bin()
        .args(["report", "--trace", dir.join("nope.jsonl").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    // Garbage line → parse (4).
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "this is not json\n").unwrap();
    let out = bin()
        .args(["report", "--trace", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    // Empty trace → parse (4): zero events is an analysis error, not a
    // silent empty report.
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let out = bin()
        .args(["report", "--trace", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    // Missing --trace → usage (2).
    let out = bin().arg("report").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}
