//! `benchmark`: runs the epplan benchmark or compares two of its
//! result files. See the `epplan_perfbench` crate documentation for
//! the workloads, metrics and trace format.

use std::path::PathBuf;
use std::process::ExitCode;

use epplan_perfbench::registry::{Scale, Workload};
use epplan_perfbench::report::{self, RunRecord};
use epplan_perfbench::trace::Tracer;
use epplan_perfbench::{gepc, serve, Outcome, WorkDir};

// Peak-memory and allocation-count metrics need the counting allocator.
#[global_allocator]
static ALLOC: epplan_memtrack::Tracking = epplan_memtrack::Tracking;

const USAGE: &str =
    "usage: benchmark [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1] \
[--scale full|smoke] [--out FILE] [--trace-file FILE]\n       benchmark --compare A.json B.json\n\
workloads: gepc_wide gepc_narrow serve_steady serve_burst";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    out: Option<PathBuf>,
    trace_file: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("--compare takes exactly two files".into()),
        };
    }
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 7,
        seconds: 15.0,
        traced: false,
        scale: Scale::Full,
        out: None,
        trace_file: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => args.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value.into()),
            "--trace-file" => args.trace_file = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(args))
}

fn run_one(args: &Args, workload: Workload, tracer: &mut Tracer) -> Outcome {
    let work = match WorkDir::create(workload.name()) {
        Ok(w) => w,
        Err(e) => {
            let mut out = Outcome::default();
            out.fail(format!("cannot create a scratch directory: {e}"));
            return out;
        }
    };
    let (w, scale, seed, dir) = (workload, args.scale, args.seed, work.path());
    match (workload, args.traced) {
        (Workload::GepcWide | Workload::GepcNarrow, false) => {
            gepc::run(w, scale, seed, args.seconds, dir)
        }
        (Workload::GepcWide | Workload::GepcNarrow, true) => {
            gepc::run_traced(w, scale, seed, dir, tracer)
        }
        (Workload::ServeSteady | Workload::ServeBurst, false) => {
            serve::run(w, scale, seed, args.seconds, dir)
        }
        (Workload::ServeSteady | Workload::ServeBurst, true) => {
            serve::run_traced(w, scale, seed, dir, tracer)
        }
    }
}

fn run(args: Args) -> ExitCode {
    let mut tracer = Tracer::default();
    let mut records = Vec::new();
    for &workload in &args.workloads {
        let mut outcome = run_one(&args, workload, &mut tracer);
        let metrics = outcome.declared_metrics(args.traced);
        for (name, value, unit) in &metrics {
            println!("{} {name} {value} {unit}", workload.name());
        }
        for failure in &outcome.failures {
            eprintln!("{}: check failed: {failure}", workload.name());
        }
        records.push(RunRecord {
            workload: workload.name().to_string(),
            correct: outcome.correct(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            failures: outcome.failures,
            metrics: metrics
                .into_iter()
                .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
                .collect(),
        });
    }
    let mut correct = records.iter().all(|r| r.correct);
    if let Some(path) = &args.trace_file {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("cannot write {}: {e}", path.display());
            correct = false;
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report::document(args.seed, args.traced, &records)) {
            eprintln!("cannot write {}: {e}", path.display());
            correct = false;
        }
    }
    println!("{}", report::summary_line(&records));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(a: &PathBuf, b: &PathBuf) -> ExitCode {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))
            .and_then(|t| report::read_document(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    match read(a)
        .and_then(|ra| Ok((ra, read(b)?)))
        .and_then(|(ra, rb)| report::compare(&ra, &rb))
    {
        Ok((text, ok)) => {
            print!("{text}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Command::Run(args)) => run(args),
        Ok(Command::Compare(a, b)) => compare(&a, &b),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
