//! Result output: the per-metric lines, the final JSON line, the
//! `--out` document, and `--compare` of two documents against the
//! bounds in `BENCHMARK.json`.

use serde::{Content, DeError, Deserialize};

use crate::registry::{Better, END_TO_END};

/// `BENCHMARK.json`, as committed next to this package.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A parsed JSON value.
#[derive(Debug, Clone)]
pub struct Json(pub Content);

impl Deserialize for Json {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(Json(content.clone()))
    }
}

impl Json {
    /// Parses `text`.
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str::<Json>(text).map_err(|e| e.to_string())
    }

    /// The value under `key` of an object.
    pub fn get(&self, key: &str) -> Option<Json> {
        self.0
            .as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Json(v.clone()))
    }

    /// The elements of an array (empty for anything else).
    pub fn items(&self) -> Vec<Json> {
        self.0
            .as_seq()
            .map(|s| s.iter().cloned().map(Json).collect())
            .unwrap_or_default()
    }

    /// The keys of an object, in order (empty for anything else).
    pub fn keys(&self) -> Vec<String> {
        self.0
            .as_map()
            .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    }

    /// A string value.
    pub fn str(&self) -> Option<&str> {
        self.0.as_str()
    }

    /// A numeric value.
    pub fn num(&self) -> Option<f64> {
        match self.0 {
            Content::Null => None,
            ref c => c.as_f64(),
        }
    }
}

/// The regression bound of each end-to-end metric in `BENCHMARK.json`.
pub fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(BENCHMARK_JSON)?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .items()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(|n| n.str().map(str::to_string));
            let bound = m.get("bound").and_then(|b| b.num());
            name.zip(bound)
                .ok_or_else(|| "end_to_end entry without name or bound".to_string())
        })
        .collect()
}

/// One workload's result, as printed and as stored in `--out` files.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Every check passed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Failed checks.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_object<'a>(rows: impl Iterator<Item = (String, f64, &'a str)>) -> String {
    let body: Vec<String> = rows
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(&name),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of standard output. With one record the metric keys
/// are the metric names; with several they are `workload/metric`.
pub fn summary_line(records: &[RunRecord]) -> String {
    let single = records.len() == 1;
    let rows = records.iter().flat_map(|r| {
        r.metrics.iter().map(move |(name, v, unit)| {
            let key = if single {
                name.clone()
            } else {
                format!("{}/{name}", r.workload)
            };
            (key, *v, unit.as_str())
        })
    });
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        records.iter().all(|r| r.correct),
        records.iter().map(|r| r.attempted).sum::<u64>(),
        records.iter().map(|r| r.failed).sum::<u64>(),
        metrics_object(rows)
    )
}

/// The `--out` document.
pub fn document(seed: u64, traced: bool, records: &[RunRecord]) -> String {
    let runs: Vec<String> = records
        .iter()
        .map(|r| {
            let failures: Vec<String> = r.failures.iter().map(|f| quote(f)).collect();
            format!(
                "    {{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}}}",
                quote(&r.workload),
                r.correct,
                r.attempted,
                r.failed,
                failures.join(", "),
                metrics_object(r.metrics.iter().map(|(n, v, u)| (n.clone(), *v, u.as_str())))
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"trace\": {traced},\n  \"runs\": [\n{}\n  ]\n}}\n",
        runs.join(",\n")
    )
}

/// Reads the records of a `--out` document.
pub fn read_document(text: &str) -> Result<Vec<RunRecord>, String> {
    let doc = Json::parse(text)?;
    doc.get("runs")
        .ok_or("no \"runs\" list")?
        .items()
        .iter()
        .map(|r| {
            let field = |k: &str| r.get(k).ok_or_else(|| format!("run without \"{k}\""));
            let metrics_json = field("metrics")?;
            let metrics = metrics_json
                .keys()
                .into_iter()
                .map(|name| {
                    let m = metrics_json.get(&name).ok_or("metric vanished")?;
                    let v = m.get("value").and_then(|v| v.num());
                    let u = m.get("unit").and_then(|u| u.str().map(str::to_string));
                    v.zip(u)
                        .map(|(v, u)| (name.clone(), v, u))
                        .ok_or_else(|| format!("metric {name} without value or unit"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(RunRecord {
                workload: field("workload")?
                    .str()
                    .ok_or("workload is not a string")?
                    .to_string(),
                correct: field("correct")?
                    .0
                    .as_bool()
                    .ok_or("correct is not a bool")?,
                attempted: field("attempted")?
                    .0
                    .as_u64()
                    .ok_or("attempted is not a count")?,
                failed: field("failed")?.0.as_u64().ok_or("failed is not a count")?,
                failures: field("failures")?
                    .items()
                    .iter()
                    .filter_map(|f| f.str().map(str::to_string))
                    .collect(),
                metrics,
            })
        })
        .collect()
}

/// A metric's standing in `b` against `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a`.
    Better,
    /// `b` is no better, but worse by at most the bound.
    Within,
    /// `b` is worse than `a` by more than the bound.
    Worse,
}

/// Judges `b` against `a` for a metric where `better` is the good
/// direction and `bound` the allowed relative worsening.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    let worsening = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    } / a.abs().max(f64::MIN_POSITIVE);
    if worsening < 0.0 {
        Verdict::Better
    } else if worsening <= bound {
        Verdict::Within
    } else {
        Verdict::Worse
    }
}

/// Compares two untraced documents: one line per workload and
/// end-to-end metric. Returns the report and whether it passes (no
/// `worse`, every run correct, as many failed requests as before or
/// fewer).
pub fn compare(a: &[RunRecord], b: &[RunRecord]) -> Result<(String, bool), String> {
    let bounds = declared_bounds()?;
    let mut ok = true;
    let mut text = String::from("workload metric a b bound verdict\n");
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            return Err(format!(
                "workload {} is missing from the second file",
                ra.workload
            ));
        };
        for (r, side) in [(ra, "a"), (rb, "b")] {
            if !r.correct {
                ok = false;
                text.push_str(&format!(
                    "{} checks failed in {side}: {}\n",
                    r.workload,
                    r.failures.join("; ")
                ));
            }
        }
        if rb.failed > ra.failed {
            ok = false;
            text.push_str(&format!(
                "{} failed requests {} -> {}\n",
                ra.workload, ra.failed, rb.failed
            ));
        }
        for spec in END_TO_END {
            let value = |r: &RunRecord| {
                r.metrics
                    .iter()
                    .find(|(n, _, _)| n == spec.name)
                    .map(|m| m.1)
            };
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                return Err(format!(
                    "{} {} is missing (was the run traced?)",
                    ra.workload, spec.name
                ));
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == spec.name)
                .map(|b| b.1)
                .ok_or_else(|| format!("BENCHMARK.json declares no bound for {}", spec.name))?;
            let v = verdict(va, vb, spec.better, bound);
            ok &= v != Verdict::Worse;
            text.push_str(&format!(
                "{} {} {va} {vb} {bound} {}\n",
                ra.workload,
                spec.name,
                match v {
                    Verdict::Better => "better",
                    Verdict::Within => "within",
                    Verdict::Worse => "worse",
                }
            ));
        }
    }
    Ok((text, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_and_bound() {
        assert_eq!(verdict(100.0, 95.0, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(100.0, 108.0, Better::Lower, 0.1), Verdict::Within);
        assert_eq!(verdict(100.0, 111.0, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(100.0, 89.0, Better::Higher, 0.1), Verdict::Worse);
        assert_eq!(verdict(100.0, 100.0, Better::Higher, 0.0), Verdict::Within);
    }

    #[test]
    fn document_round_trips() {
        let rec = RunRecord {
            workload: "gepc_wide".into(),
            correct: false,
            attempted: 4,
            failed: 1,
            failures: vec!["a \"quoted\" failure".into()],
            metrics: vec![("latency_ms".into(), 1234.5678, "ms".into())],
        };
        let back = read_document(&document(7, false, std::slice::from_ref(&rec))).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].workload, rec.workload);
        assert_eq!(back[0].failures, rec.failures);
        assert_eq!(back[0].metrics, rec.metrics);
        assert!(!back[0].correct);
    }
}
