//! The experiment runners, one per paper table/figure.

use crate::measure::measure;
use crate::ops;
use crate::table::{fnum, Table};
use epplan_core::analysis::InstanceAnalysis;
use epplan_core::incremental::{AtomicOp, IncrementalPlanner};
use epplan_core::model::Instance;
use epplan_core::plan::Plan;
use epplan_core::solver::{
    ExactSolver, GapBasedSolver, GepcSolver, GreedySolver, Solution, SolveBudget,
};
use epplan_datagen::{generate, paper_example, City, GeneratorConfig};
use epplan_gap::{FractionalMethod, GapConfig};
use rand::prelude::*;

/// Global harness options.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Shrinks city sets, sweeps and repetition counts so the full
    /// suite finishes in minutes instead of hours.
    pub quick: bool,
    /// IEP repetitions per (city, operation); the paper uses 50.
    pub reps: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            quick: false,
            reps: 5,
        }
    }
}

impl HarnessOptions {
    fn cities(&self) -> Vec<City> {
        if self.quick {
            vec![City::Beijing, City::Auckland]
        } else {
            City::ALL.to_vec()
        }
    }

    fn user_sweep(&self) -> (usize, Vec<usize>) {
        // Fig. 2: |E| = 50 fixed, |U| swept (Table V).
        if self.quick {
            (50, vec![200, 500])
        } else {
            (50, vec![200, 500, 1000, 5000])
        }
    }

    fn event_sweep(&self) -> (usize, Vec<usize>) {
        // Fig. 2: |U| = 5000 fixed, |E| swept (Table V).
        if self.quick {
            (1000, vec![20, 50])
        } else {
            (5000, vec![20, 50, 100, 200, 500])
        }
    }
}

fn greedy() -> GreedySolver {
    GreedySolver::seeded(7)
}

fn gap_solver() -> GapBasedSolver {
    GapBasedSolver::default()
}

/// A faster GAP variant for the big scalability sweeps: multiplicative
/// weights with fewer rounds. The paper's GAP numbers are likewise its
/// slow algorithm pushed through the large datasets (12 383 s on
/// Vancouver); we keep wall-clock sane while preserving the ordering
/// (GAP ≫ greedy in time, ≥ in utility).
fn gap_solver_fast() -> GapBasedSolver {
    GapBasedSolver::with_gap_config(GapConfig {
        method: FractionalMethod::MultiplicativeWeights,
        packing: epplan_gap::packing::PackingConfig {
            iterations: 60,
            burn_in: 10,
            ..Default::default()
        },
        ..Default::default()
    })
}

struct SolverRun {
    utility: f64,
    seconds: f64,
    mem_mib: f64,
}

fn run_solver(instance: &Instance, solver: &dyn GepcSolver) -> SolverRun {
    let m = measure(|| solver.solve(instance));
    SolverRun {
        utility: m.value.utility,
        seconds: m.seconds,
        mem_mib: m.mem_mib,
    }
}

// ---------------------------------------------------------------------
// Table VI — GEPC on the city datasets.
// ---------------------------------------------------------------------

/// Runs Table VI: GAP-based vs greedy on the (synthetic stand-ins for
/// the) four city datasets; utility, time and memory per solver.
pub fn table6(opts: &HarnessOptions) -> Table {
    let mut t = Table::new(
        "Table VI: algorithms for GEPC on city datasets",
        &[
            "City", "|U|", "|E|", "Util(GAP)", "Time(GAP)s", "Mem(GAP)MB", "Util(Greedy)",
            "Time(Greedy)s", "Mem(Greedy)MB",
        ],
    );
    for city in opts.cities() {
        let inst = city.instance();
        let gap = run_solver(&inst, &gap_solver());
        let gr = run_solver(&inst, &greedy());
        t.row(vec![
            city.name().into(),
            inst.n_users().to_string(),
            inst.n_events().to_string(),
            fnum(gap.utility),
            fnum(gap.seconds),
            fnum(gap.mem_mib),
            fnum(gr.utility),
            fnum(gr.seconds),
            fnum(gr.mem_mib),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Figures 2 & 3 — GEPC scalability (utility, time, memory).
// ---------------------------------------------------------------------

struct ScalingRow {
    label: String,
    gap: SolverRun,
    greedy: SolverRun,
}

fn scaling_rows(
    fixed_label: &str,
    configs: Vec<(String, GeneratorConfig)>,
    use_fast_gap: bool,
) -> (String, Vec<ScalingRow>) {
    let rows = configs
        .into_iter()
        .map(|(label, cfg)| {
            let inst = generate(&cfg);
            let gap = if use_fast_gap {
                run_solver(&inst, &gap_solver_fast())
            } else {
                run_solver(&inst, &gap_solver())
            };
            let greedy = run_solver(&inst, &greedy());
            ScalingRow { label, gap, greedy }
        })
        .collect();
    (fixed_label.to_string(), rows)
}

fn sweep_configs(us: &[usize], es: &[usize]) -> Vec<(String, GeneratorConfig)> {
    let base = GeneratorConfig::default();
    let mut out = Vec::new();
    for &u in us {
        for &e in es {
            let label = if us.len() > 1 {
                format!("|U|={u}")
            } else {
                format!("|E|={e}")
            };
            out.push((label, base.cutout(u, e)));
        }
    }
    out
}

fn render_scaling(title: &str, fixed: &str, rows: &[ScalingRow], cols: &str) -> Table {
    let headers: Vec<&str> = match cols {
        "utility" => vec!["Sweep", "Util(GAP)", "Util(Greedy)"],
        "time" => vec!["Sweep", "Time(GAP)s", "Time(Greedy)s"],
        _ => vec!["Sweep", "Mem(GAP)MB", "Mem(Greedy)MB"],
    };
    let mut t = Table::new(&format!("{title} ({fixed})"), &headers);
    for r in rows {
        let cells = match cols {
            "utility" => vec![r.label.clone(), fnum(r.gap.utility), fnum(r.greedy.utility)],
            "time" => vec![r.label.clone(), fnum(r.gap.seconds), fnum(r.greedy.seconds)],
            _ => vec![r.label.clone(), fnum(r.gap.mem_mib), fnum(r.greedy.mem_mib)],
        };
        t.row(cells);
    }
    t
}

/// Runs both Fig. 2/3 sweeps and returns (fig2 tables, fig3 tables).
pub fn scaling(opts: &HarnessOptions) -> (Vec<Table>, Vec<Table>) {
    let (fixed_e, us) = opts.user_sweep();
    let (fixed_u, es) = opts.event_sweep();
    let (label_u, rows_u) = scaling_rows(
        &format!("|E|={fixed_e}"),
        sweep_configs(&us, &[fixed_e]),
        true,
    );
    let (label_e, rows_e) = scaling_rows(
        &format!("|U|={fixed_u}"),
        sweep_configs(&[fixed_u], &es),
        true,
    );
    let fig2 = vec![
        render_scaling("Fig 2(a): total utility vs |U|", &label_u, &rows_u, "utility"),
        render_scaling("Fig 2(b): total utility vs |E|", &label_e, &rows_e, "utility"),
        render_scaling("Fig 2(c): time cost vs |U|", &label_u, &rows_u, "time"),
        render_scaling("Fig 2(d): time cost vs |E|", &label_e, &rows_e, "time"),
    ];
    let fig3 = vec![
        render_scaling("Fig 3(a): memory cost vs |U|", &label_u, &rows_u, "mem"),
        render_scaling("Fig 3(b): memory cost vs |E|", &label_e, &rows_e, "mem"),
    ];
    (fig2, fig3)
}

// ---------------------------------------------------------------------
// Tables VII–IX — IEP on the city datasets.
// ---------------------------------------------------------------------

/// Which IEP atomic operation an experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IepOp {
    /// `η` decreased (Table VII, `η`-De).
    EtaDe,
    /// `ξ` increased (Table VIII, `ξ`-In).
    XiIn,
    /// `t^s`/`t^t` changed (Table IX, `t^s-t^t`).
    TsTt,
}

impl IepOp {
    fn gen_op(self, inst: &Instance, plan: &Plan, rng: &mut impl Rng) -> AtomicOp {
        match self {
            IepOp::EtaDe => ops::random_eta_decrease(inst, plan, rng),
            IepOp::XiIn => ops::random_xi_increase(inst, plan, rng),
            IepOp::TsTt => ops::random_time_change(inst, plan, rng),
        }
    }

    fn name(self) -> &'static str {
        match self {
            IepOp::EtaDe => "eta-De",
            IepOp::XiIn => "xi-In",
            IepOp::TsTt => "ts-tt",
        }
    }
}

struct IepAverages {
    utility_inc: f64,
    utility_regreedy: f64,
    utility_regap: f64,
    dif: f64,
    seconds: f64,
    mem_mib: f64,
}

/// Runs `reps` random operations of kind `op` against a base solve,
/// averaging the incremental result and the re-run baselines. Each
/// operation gets a fresh copy of the base state; only the certified
/// IEP step is timed, and its certificate gives `U_P` and `dif`.
fn iep_averages(
    instance: &Instance,
    base: &Solution,
    op: IepOp,
    reps: usize,
    seed: u64,
    with_regap: bool,
) -> IepAverages {
    let mut rng = StdRng::seed_from_u64(seed);
    let planner = IncrementalPlanner;
    let mut acc = IepAverages {
        utility_inc: 0.0,
        utility_regreedy: 0.0,
        utility_regap: 0.0,
        dif: 0.0,
        seconds: 0.0,
        mem_mib: 0.0,
    };
    for _ in 0..reps {
        let atomic = op.gen_op(instance, &base.plan, &mut rng);
        let (mut inst, mut plan, mut tally) =
            (instance.clone(), base.plan.clone(), base.tally.clone());
        let budget = SolveBudget::UNLIMITED;
        let m = measure(|| planner.try_apply_certified(&mut inst, &mut plan, &mut tally, &atomic, budget));
        acc.seconds += m.seconds;
        acc.mem_mib += m.mem_mib;
        // A rejected op leaves the base state: its `U_P`, no loss.
        let (utility, dif) = m.value.map_or((base.utility, 0), |c| (c.utility, c.dif.unwrap_or(0)));
        acc.utility_inc += utility;
        acc.dif += dif as f64;
        // Baselines: re-solve the *updated* instance from scratch.
        acc.utility_regreedy += greedy().solve(&inst).utility;
        if with_regap {
            acc.utility_regap += gap_solver_fast().solve(&inst).utility;
        }
    }
    let k = reps as f64;
    acc.utility_inc /= k;
    acc.utility_regreedy /= k;
    acc.utility_regap /= k;
    acc.dif /= k;
    acc.seconds /= k;
    acc.mem_mib /= k;
    acc
}

fn iep_table(title: &str, op: IepOp, opts: &HarnessOptions) -> Table {
    let mut t = Table::new(
        title,
        &[
            "City",
            &format!("Util({})", op.name()),
            "Util(Re-Greedy)",
            "Util(Re-GAP)",
            "avg dif",
            "Time(s)",
            "Mem(MB)",
        ],
    );
    for city in opts.cities() {
        let inst = city.instance();
        let base = greedy().solve(&inst);
        let avg = iep_averages(&inst, &base, op, opts.reps, 0xC0FFEE ^ city as u64, true);
        t.row(vec![
            city.name().into(),
            fnum(avg.utility_inc),
            fnum(avg.utility_regreedy),
            fnum(avg.utility_regap),
            fnum(avg.dif),
            fnum(avg.seconds),
            fnum(avg.mem_mib),
        ]);
    }
    t
}

/// Table VII: IEP `η`-decrease vs re-running both GEPC algorithms.
pub fn table7(opts: &HarnessOptions) -> Table {
    iep_table("Table VII: results of eta-De on city datasets", IepOp::EtaDe, opts)
}

/// Table VIII: IEP `ξ`-increase vs re-running both GEPC algorithms.
pub fn table8(opts: &HarnessOptions) -> Table {
    iep_table("Table VIII: results of xi-In on city datasets", IepOp::XiIn, opts)
}

/// Table IX: IEP time-change vs re-running both GEPC algorithms.
pub fn table9(opts: &HarnessOptions) -> Table {
    iep_table("Table IX: results of ts-tt on city datasets", IepOp::TsTt, opts)
}

// ---------------------------------------------------------------------
// Figures 4 & 5 — IEP scalability.
// ---------------------------------------------------------------------

struct IepScalingRow {
    label: String,
    per_op: Vec<(IepOp, IepAverages)>,
}

fn iep_scaling_rows(configs: Vec<(String, GeneratorConfig)>, reps: usize) -> Vec<IepScalingRow> {
    configs
        .into_iter()
        .map(|(label, cfg)| {
            let inst = generate(&cfg);
            let base = greedy().solve(&inst);
            let per_op = [IepOp::EtaDe, IepOp::XiIn, IepOp::TsTt]
                .into_iter()
                .map(|op| {
                    (
                        op,
                        iep_averages(&inst, &base, op, reps, 0xBEEF ^ cfg.n_users as u64, false),
                    )
                })
                .collect();
            IepScalingRow { label, per_op }
        })
        .collect()
}

fn render_iep_scaling(title: &str, rows: &[IepScalingRow], col: &str) -> Table {
    let mut t = Table::new(
        title,
        &["Sweep", "eta-De", "xi-In", "ts-tt"],
    );
    for r in rows {
        let mut cells = vec![r.label.clone()];
        for (_, avg) in &r.per_op {
            cells.push(match col {
                "utility" => fnum(avg.utility_inc),
                "time" => fnum(avg.seconds),
                _ => fnum(avg.mem_mib),
            });
        }
        t.row(cells);
    }
    t
}

/// Runs the Fig. 4/5 sweeps and returns (fig4 tables, fig5 tables).
pub fn iep_scaling(opts: &HarnessOptions) -> (Vec<Table>, Vec<Table>) {
    let (fixed_e, us) = opts.user_sweep();
    let (fixed_u, es) = opts.event_sweep();
    let rows_u = iep_scaling_rows(sweep_configs(&us, &[fixed_e]), opts.reps);
    let rows_e = iep_scaling_rows(sweep_configs(&[fixed_u], &es), opts.reps);
    let fig4 = vec![
        render_iep_scaling("Fig 4(a-c): IEP utility vs |U|", &rows_u, "utility"),
        render_iep_scaling("Fig 4(e-g): IEP utility vs |E|", &rows_e, "utility"),
        render_iep_scaling("Fig 4(d): IEP time (s) vs |U|", &rows_u, "time"),
        render_iep_scaling("Fig 4(h): IEP time (s) vs |E|", &rows_e, "time"),
    ];
    let fig5 = vec![
        render_iep_scaling("Fig 5(a): IEP memory (MB) vs |U|", &rows_u, "mem"),
        render_iep_scaling("Fig 5(b): IEP memory (MB) vs |E|", &rows_e, "mem"),
    ];
    (fig4, fig5)
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

/// A1: measured approximation ratios against the exact optimum on tiny
/// random instances, next to the paper's theoretical bounds.
pub fn ablation_approx(opts: &HarnessOptions) -> Table {
    let trials = if opts.quick { 10 } else { 40 };
    let mut t = Table::new(
        "Ablation A1: measured vs theoretical approximation ratios",
        &["Trial set", "ratio(GAP)", "ratio(Greedy)", "bound(GAP)", "bound(Greedy)"],
    );
    let mut sum_gap = 0.0;
    let mut sum_gr = 0.0;
    let mut n_ok = 0usize;
    let mut bound_gap: f64 = 1.0;
    let mut bound_gr: f64 = 1.0;
    for seed in 0..trials {
        let inst = generate(&GeneratorConfig {
            n_users: 6,
            n_events: 5,
            seed: 9000 + seed,
            mean_lower: 1,
            mean_upper: 4,
            n_tags: 8,
            ..Default::default()
        });
        let Some(exact) = ExactSolver {
            max_users: 8,
            max_events: 6,
        }
        .try_solve(&inst, SolveBudget::UNLIMITED)
        .ok() else {
            continue;
        };
        if exact.utility <= 0.0 {
            continue;
        }
        let a = InstanceAnalysis::of(&inst);
        let g = gap_solver().solve(&inst);
        let gr = greedy().solve(&inst);
        sum_gap += g.utility / exact.utility;
        sum_gr += gr.utility / exact.utility;
        if let Some(b) = a.gap_bound() {
            bound_gap = bound_gap.min(b);
        }
        if let Some(b) = a.greedy_bound() {
            bound_gr = bound_gr.min(b);
        }
        n_ok += 1;
    }
    if n_ok > 0 {
        t.row(vec![
            format!("{n_ok} feasible tiny instances"),
            fnum(sum_gap / n_ok as f64),
            fnum(sum_gr / n_ok as f64),
            fnum(bound_gap),
            fnum(bound_gr),
        ]);
    }
    t
}

/// A2: exact simplex LP vs multiplicative-weights fractional solver on
/// the ξ-GEPC GAP reduction (objective gap and time).
pub fn ablation_lp(opts: &HarnessOptions) -> Table {
    let sizes: &[(usize, usize)] = if opts.quick {
        &[(30, 6), (60, 10)]
    } else {
        &[(30, 6), (60, 10), (120, 16), (200, 24)]
    };
    let mut t = Table::new(
        "Ablation A2: simplex LP vs multiplicative weights (xi-GEPC reduction)",
        &["|U|x|E|", "cost(LP)", "cost(MW)", "time(LP)s", "time(MW)s"],
    );
    for &(nu, ne) in sizes {
        let inst = generate(&GeneratorConfig {
            n_users: nu,
            n_events: ne,
            seed: 777,
            mean_lower: 2,
            mean_upper: 10,
            ..Default::default()
        });
        let solver = GapBasedSolver::default();
        let (gap_inst, _jobs) = solver.build_gap(&inst);
        let lp = measure(|| epplan_gap::lp_relaxation(&gap_inst));
        let mw = measure(|| {
            epplan_gap::packing::mw_fractional(&gap_inst, &Default::default())
        });
        let lp_cost = lp
            .value
            .as_ref()
            .map(|f| f.cost(&gap_inst))
            .unwrap_or(f64::NAN);
        t.row(vec![
            format!("{nu}x{ne}"),
            fnum(lp_cost),
            fnum(mw.value
                .as_ref()
                .map(|f| f.cost(&gap_inst))
                .unwrap_or(f64::NAN)),
            fnum(lp.seconds),
            fnum(mw.seconds),
        ]);
    }
    t
}

/// A3: contribution of step 2 (the capacity filler) to total utility.
pub fn ablation_filler(opts: &HarnessOptions) -> Table {
    let mut t = Table::new(
        "Ablation A3: step-2 capacity filler contribution (greedy solver)",
        &["City", "Util(xi only)", "Util(two-step)", "gain %"],
    );
    for city in opts.cities() {
        let inst = city.instance();
        let xi = GreedySolver::xi_only(7).solve(&inst);
        let full = greedy().solve(&inst);
        let gain = if xi.utility > 0.0 {
            100.0 * (full.utility - xi.utility) / xi.utility
        } else {
            0.0
        };
        t.row(vec![
            city.name().into(),
            fnum(xi.utility),
            fnum(full.utility),
            fnum(gain),
        ]);
    }
    t
}

/// A5: uniform vs neighborhood-clustered geography. Clustered cities
/// concentrate reachability (`Uc` spreads out); this checks how both
/// solvers' utility and the greedy/GAP gap react.
pub fn ablation_geography(opts: &HarnessOptions) -> Table {
    use epplan_datagen::SpatialModel;
    let mut t = Table::new(
        "Ablation A5: uniform vs clustered geography",
        &["Spatial", "Uc_max", "Util(GAP)", "Util(Greedy)", "shortfalls(Greedy)"],
    );
    let (n_users, n_events) = if opts.quick { (200, 20) } else { (800, 40) };
    for (label, spatial) in [
        ("uniform", SpatialModel::Uniform),
        (
            "clustered(5, 0.06)",
            SpatialModel::Clustered {
                clusters: 5,
                spread: 0.06,
            },
        ),
        (
            "clustered(2, 0.04)",
            SpatialModel::Clustered {
                clusters: 2,
                spread: 0.04,
            },
        ),
    ] {
        let inst = generate(&GeneratorConfig {
            n_users,
            n_events,
            seed: 4242,
            mean_lower: 5,
            mean_upper: 20,
            spatial,
            ..Default::default()
        });
        let analysis = InstanceAnalysis::of(&inst);
        let gap = gap_solver_fast().solve(&inst);
        let gr = greedy().solve(&inst);
        t.row(vec![
            label.into(),
            analysis.uc_max.to_string(),
            fnum(gap.utility),
            fnum(gr.utility),
            gr.shortfall.len().to_string(),
        ]);
    }
    t
}

/// Quickstart sanity: solves the paper's Example 1 with all three
/// solvers and prints the resulting utilities.
pub fn example_table() -> Table {
    let inst = paper_example();
    let mut t = Table::new(
        "Paper Example 1 (5 users x 4 events)",
        &["Solver", "Utility", "Feasible"],
    );
    let solvers: Vec<(&str, Box<dyn GepcSolver>)> = vec![
        ("exact", Box::new(ExactSolver::default())),
        ("gap", Box::new(gap_solver())),
        ("greedy", Box::new(greedy())),
    ];
    for (name, s) in solvers {
        let sol = s.solve(&inst);
        t.row(vec![
            name.into(),
            fnum(sol.utility),
            sol.fully_feasible().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> HarnessOptions {
        HarnessOptions {
            quick: true,
            reps: 1,
        }
    }

    #[test]
    fn example_table_has_three_solvers() {
        let t = example_table();
        let s = t.render();
        assert!(s.contains("exact") && s.contains("gap") && s.contains("greedy"));
    }

    #[test]
    fn ablation_filler_runs_quick() {
        let t = ablation_filler(&tiny_opts());
        assert!(t.render().contains("Beijing"));
    }

    #[test]
    fn ablation_lp_runs_quick() {
        let r = ablation_lp(&tiny_opts()).render();
        assert!(r.contains("30x6") && r.contains("60x10"), "{r}");
        assert!(!r.contains("NaN"), "a fractional solver failed: {r}");
    }

    #[test]
    fn ablation_approx_produces_ratios() {
        let t = ablation_approx(&tiny_opts());
        assert!(t.render().contains("feasible tiny instances"));
    }

    #[test]
    fn ablation_geography_runs_quick() {
        let t = ablation_geography(&tiny_opts());
        let r = t.render();
        assert!(r.contains("uniform") && r.contains("clustered"));
    }

    #[test]
    fn iep_averages_runs_on_small_instance() {
        let inst = generate(&GeneratorConfig {
            n_users: 30,
            n_events: 8,
            mean_lower: 2,
            mean_upper: 6,
            ..Default::default()
        });
        let base = greedy().solve(&inst);
        let avg = iep_averages(&inst, &base, IepOp::EtaDe, 2, 1, false);
        assert!(avg.utility_inc >= 0.0);
        assert!(avg.seconds >= 0.0);
    }
}
