//! Regenerates the paper's tables and figures.
//!
//! ```text
//! paper [--quick] [--reps N] [--obs] [--threads N] [--csv DIR] <experiment>...
//!
//! experiments:
//!   example   Paper Example 1 sanity run
//!   table6    GEPC on city datasets (GAP vs Greedy)
//!   fig2      GEPC utility/time scalability sweeps
//!   fig3      GEPC memory scalability sweeps
//!   table7    IEP eta-De on city datasets
//!   table8    IEP xi-In on city datasets
//!   table9    IEP ts-tt on city datasets
//!   fig4      IEP utility/time scalability sweeps
//!   fig5      IEP memory scalability sweeps
//!   ablations A1 (approx ratios), A2 (LP vs MW), A3 (filler),
//!             A4 (local search), A5 (geography)
//!   all       everything above
//! ```
//!
//! `--quick` shrinks city sets, sweeps and repetitions; `--reps N` sets
//! the IEP repetitions per (city, operation). `--threads N` pins the
//! worker count for every solver stage (same knob as the
//! `EPPLAN_THREADS` env var); the default is the machine's available
//! parallelism. `--csv DIR` also writes each table to `DIR/<slug>.csv`.
//!
//! Performance is measured by the `perfbench/` benchmark, not here:
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml
//! --bin benchmark -- --workload all`.
//!
//! Memory numbers are live because this binary installs the
//! `epplan-memtrack` counting allocator. `--obs` turns on the
//! `epplan-obs` metrics registry and prints the accumulated per-stage
//! cost table (spans, counters, gauges) to stderr after all
//! experiments finish — useful for attributing a table's wall time to
//! simplex pivots vs MW epochs vs rounding.

use epplan_bench::experiments::{self, HarnessOptions};
use epplan_bench::table::Table;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: epplan_memtrack::Tracking = epplan_memtrack::Tracking;

fn usage() -> ! {
    eprintln!(
        "usage: paper [--quick] [--reps N] [--obs] [--threads N] [--csv DIR] \
         <example|table6|fig2|fig3|table7|table8|table9|fig4|fig5|ablations|all>..."
    );
    std::process::exit(2)
}

/// Prints a table and, when `csv_dir` is set, also writes
/// `<dir>/<slug>.csv`.
fn emit(t: &Table, csv_dir: Option<&PathBuf>) {
    t.print();
    if let Some(dir) = csv_dir {
        let path = dir.join(format!("{}.csv", t.slug()));
        if let Err(e) = std::fs::write(&path, t.to_csv()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

fn main() {
    let mut opts = HarnessOptions::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut obs = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--obs" => {
                obs = true;
                epplan_obs::enable_metrics();
            }
            "--reps" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    usage()
                };
                opts.reps = n;
            }
            "--threads" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0)
                else {
                    usage()
                };
                epplan_par::set_threads(n);
            }
            "--csv" => {
                let Some(dir) = args.next() else { usage() };
                let dir = PathBuf::from(dir);
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("error: cannot create {}: {e}", dir.display());
                    std::process::exit(1);
                }
                csv_dir = Some(dir);
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        usage();
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = [
            "example", "table6", "fig2", "fig3", "table7", "table8", "table9", "fig4",
            "fig5", "ablations",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    // `fig2`+`fig3` (and `fig4`+`fig5`) share their sweep runs; compute
    // lazily and cache.
    let mut gepc_scaling: Option<(Vec<epplan_bench::table::Table>, Vec<epplan_bench::table::Table>)> =
        None;
    let mut iep_scaling: Option<(Vec<epplan_bench::table::Table>, Vec<epplan_bench::table::Table>)> =
        None;

    for w in &wanted {
        match w.as_str() {
            "example" => emit(&experiments::example_table(), csv_dir.as_ref()),
            "table6" => emit(&experiments::table6(&opts), csv_dir.as_ref()),
            "fig2" => {
                let (fig2, _) = gepc_scaling
                    .get_or_insert_with(|| experiments::scaling(&opts))
                    .clone();
                fig2.iter().for_each(|t| emit(t, csv_dir.as_ref()));
            }
            "fig3" => {
                let (_, fig3) = gepc_scaling
                    .get_or_insert_with(|| experiments::scaling(&opts))
                    .clone();
                fig3.iter().for_each(|t| emit(t, csv_dir.as_ref()));
            }
            "table7" => emit(&experiments::table7(&opts), csv_dir.as_ref()),
            "table8" => emit(&experiments::table8(&opts), csv_dir.as_ref()),
            "table9" => emit(&experiments::table9(&opts), csv_dir.as_ref()),
            "fig4" => {
                let (fig4, _) = iep_scaling
                    .get_or_insert_with(|| experiments::iep_scaling(&opts))
                    .clone();
                fig4.iter().for_each(|t| emit(t, csv_dir.as_ref()));
            }
            "fig5" => {
                let (_, fig5) = iep_scaling
                    .get_or_insert_with(|| experiments::iep_scaling(&opts))
                    .clone();
                fig5.iter().for_each(|t| emit(t, csv_dir.as_ref()));
            }
            "ablations" => {
                emit(&experiments::ablation_approx(&opts), csv_dir.as_ref());
                emit(&experiments::ablation_lp(&opts), csv_dir.as_ref());
                emit(&experiments::ablation_filler(&opts), csv_dir.as_ref());
                emit(&experiments::ablation_local_search(&opts), csv_dir.as_ref());
                emit(&experiments::ablation_geography(&opts), csv_dir.as_ref());
            }
            _ => usage(),
        }
    }

    if obs {
        eprintln!("\n=== observability: accumulated solver-stage costs ===");
        eprintln!("{}", epplan_obs::snapshot().render_table());
    }
}
