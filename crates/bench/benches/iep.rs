//! Criterion micro-benchmarks for the IEP repair algorithms against
//! re-solving from scratch (the machine-readable counterpart of
//! Tables VII–IX / Fig. 4).

use criterion::{criterion_group, criterion_main, Criterion};
use epplan_core::incremental::{AtomicOp, IncrementalPlanner};
use epplan_core::model::{EventId, TimeInterval};
use epplan_core::solver::{GepcSolver, GreedySolver};
use epplan_datagen::{generate, GeneratorConfig};

fn setup() -> (
    epplan_core::model::Instance,
    epplan_core::plan::Plan,
) {
    let inst = generate(&GeneratorConfig {
        n_users: 300,
        n_events: 20,
        mean_lower: 4,
        mean_upper: 16,
        ..Default::default()
    });
    let plan = GreedySolver::seeded(7).solve(&inst).plan;
    (inst, plan)
}

fn busiest_event(plan: &epplan_core::plan::Plan) -> EventId {
    (0..plan.n_events() as u32)
        .map(EventId)
        .max_by_key(|&e| plan.attendance(e))
        .expect("non-empty")
}

fn bench_ops(c: &mut Criterion) {
    let (inst, plan) = setup();
    let planner = IncrementalPlanner;
    let e = busiest_event(&plan);
    let n = plan.attendance(e);

    let mut group = c.benchmark_group("iep");
    group.bench_function("eta-decrease", |b| {
        let op = AtomicOp::EtaDecrease {
            event: e,
            new_upper: (n / 2).max(1),
        };
        b.iter(|| planner.apply(&inst, &plan, &op))
    });
    group.bench_function("xi-increase", |b| {
        let op = AtomicOp::XiIncrease {
            event: e,
            new_lower: (n + 2).min(inst.event(e).upper),
        };
        b.iter(|| planner.apply(&inst, &plan, &op))
    });
    group.bench_function("time-change", |b| {
        let t = inst.event(e).time;
        let op = AtomicOp::TimeChange {
            event: e,
            new_time: TimeInterval::new(t.start + 30, t.end + 30),
        };
        b.iter(|| planner.apply(&inst, &plan, &op))
    });
    group.bench_function("re-greedy-baseline", |b| {
        // The cost the incremental algorithms avoid.
        let solver = GreedySolver::seeded(7);
        b.iter(|| solver.solve(&inst))
    });
    group.finish();
}

fn bench_op_stream(c: &mut Criterion) {
    // Sustained churn: how fast can the planner absorb a whole batch?
    let (inst, plan) = setup();
    let mut sampler = epplan_datagen::OpStreamSampler::new(3);
    let ops = sampler.stream(&inst, &plan, 50);
    let planner = IncrementalPlanner;
    c.bench_function("iep/op-stream-50", |b| {
        b.iter(|| planner.try_apply_batch(&inst, &plan, &ops).ok())
    });
}

fn bench_local_search(c: &mut Criterion) {
    use epplan_core::solver::LocalSearch;
    let (inst, plan) = setup();
    c.bench_function("iep/local-search-pass", |b| {
        b.iter(|| {
            let mut p = plan.clone();
            LocalSearch::default().improve(&inst, &mut p)
        })
    });
}

criterion_group!(benches, bench_ops, bench_op_stream, bench_local_search);
criterion_main!(benches);
