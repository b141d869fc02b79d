//! `BENCHMARK.json` is well-formed and declares exactly what the
//! `benchmark` binary measures.

use epplan_perfbench::registry::{Workload, END_TO_END, PER_LAYER};
use epplan_perfbench::report::{Json, BENCHMARK_JSON};

fn doc() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn field(v: &Json, key: &str) -> Json {
    v.get(key).unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn string(v: &Json, key: &str) -> String {
    field(v, key)
        .str()
        .unwrap_or_else(|| panic!("{key:?} is not a string"))
        .to_string()
}

fn assert_keys(v: &Json, keys: &[&str]) {
    assert_eq!(v.keys(), keys, "keys of {:?}", v.0);
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_shape_and_limits() {
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let d = doc();
    assert_keys(
        &d,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    );
    let command = field(&d, "command").items();
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in &command {
        let arg = arg.str().expect("command arguments are strings");
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    let paths = field(&d, "paths").items();
    assert!((1..=16).contains(&paths.len()));
    for p in &paths {
        let p = p.str().expect("paths are strings");
        assert!(
            p.len() <= 200 && !p.starts_with('/') && !p.contains(".."),
            "{p}"
        );
        assert!(
            p.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
            "{p}"
        );
    }
    let secs = field(&d, "run_seconds")
        .0
        .as_u64()
        .expect("run_seconds is a whole number");
    assert!((1..=60).contains(&secs));
}

#[test]
fn names_units_bounds_and_counts() {
    let d = doc();
    let workloads = field(&d, "workloads").items();
    let e2e = field(&d, "end_to_end").items();
    let layers = field(&d, "per_layer").items();
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));

    let mut names = Vec::new();
    for w in &workloads {
        assert_keys(w, &["name", "why"]);
        let why = string(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
        names.push(string(w, "name"));
    }
    let mut max_bound: f64 = 0.0;
    for m in &e2e {
        assert_keys(m, &["name", "unit", "better", "bound"]);
        let bound = field(m, "bound").num().expect("bound is a number");
        assert!((0.0..=0.25).contains(&bound), "bound {bound}");
        max_bound = max_bound.max(bound);
        names.push(string(m, "name"));
    }
    for m in &layers {
        assert_keys(m, &["name", "unit", "better"]);
        names.push(string(m, "name"));
    }
    for m in e2e.iter().chain(&layers) {
        assert!(valid_unit(&string(m, "unit")), "{:?}", m.0);
        assert!(["higher", "lower"].contains(&string(m, "better").as_str()));
    }
    for n in &names {
        assert!(valid_name(n), "bad name {n:?}");
        assert_eq!(
            names.iter().filter(|m| *m == n).count(),
            1,
            "{n} used twice"
        );
    }

    let setup = e2e
        .iter()
        .find(|m| string(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(string(setup, "unit"), "s");
    assert_eq!(string(setup, "better"), "lower");
    assert_eq!(
        field(setup, "bound").num(),
        Some(max_bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn file_matches_the_binary_registry() {
    let d = doc();
    let names = |key: &str| -> Vec<String> {
        field(&d, key)
            .items()
            .iter()
            .map(|v| string(v, "name"))
            .collect()
    };
    let triples = |key: &str| -> Vec<(String, String, String)> {
        field(&d, key)
            .items()
            .iter()
            .map(|v| (string(v, "name"), string(v, "unit"), string(v, "better")))
            .collect()
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads"), workloads);
    let e2e: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
        .collect();
    assert_eq!(triples("end_to_end"), e2e);
    let layers: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
        .collect();
    assert_eq!(triples("per_layer"), layers);
}

#[test]
fn every_layer_prediction_names_real_metrics_and_workloads() {
    for layer in PER_LAYER {
        for moved in layer.moves {
            assert!(
                END_TO_END.iter().any(|m| m.name == *moved),
                "{}: {moved}",
                layer.name
            );
        }
        for w in layer.on {
            assert!(Workload::parse(w).is_some(), "{}: {w}", layer.name);
        }
    }
}
