//! Criterion benches for the schedule solvers: exact DP vs exhaustive
//! enumeration vs the threshold heuristic, plus the multi-base DP.
//!
//! The DP is `O(s)` and the paper's pitch is that this makes optimal
//! scheduling practical; the numbers here substantiate that (the DP handles
//! a 126-step ring collective in microseconds while 2^s enumeration is
//! already hopeless at s = 16).

use aps_bench::workload::random_schedule;
use aps_core::multibase::build_multibase;
use aps_core::objective::ReconfigAccounting;
use aps_core::policies::{schedule_for, Policy};
use aps_core::{brute, dp, SwitchingProblem};
use aps_cost::{CostParams, ReconfigModel};
use aps_flow::solver::{ThetaCache, ThroughputSolver};
use aps_topology::builders;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn problem(n: usize, steps: usize) -> SwitchingProblem {
    let base = builders::ring_unidirectional(n).unwrap();
    let schedule = random_schedule(n, steps, 1e3, 1e8, 42).unwrap();
    let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
    SwitchingProblem::build(
        &base,
        &schedule,
        &mut cache,
        CostParams::paper_defaults(),
        ReconfigModel::constant(10e-6).unwrap(),
    )
    .unwrap()
}

fn solvers(c: &mut Criterion) {
    let acc = ReconfigAccounting::PaperConservative;

    let p126 = problem(64, 126);
    c.bench_function("dp_optimize_s126_n64", |b| {
        b.iter(|| black_box(dp::optimize(&p126, acc).unwrap().1.total_s()))
    });
    c.bench_function("threshold_s126_n64", |b| {
        b.iter(|| black_box(schedule_for(&p126, Policy::Threshold, acc).unwrap()))
    });

    let p16 = problem(16, 16);
    c.bench_function("dp_optimize_s16_n16", |b| {
        b.iter(|| black_box(dp::optimize(&p16, acc).unwrap().1.total_s()))
    });
    // 2^16 schedule evaluations per iteration: keep the sample count small.
    let mut slow = c.benchmark_group("exhaustive");
    slow.sample_size(10);
    slow.bench_function("exhaustive_s16_n16", |b| {
        b.iter(|| black_box(brute::optimize_exhaustive(&p16, acc).unwrap().1.total_s()))
    });
    slow.finish();

    // Multi-base DP with a 3-ring pool.
    let n = 64;
    let r1 = builders::ring_unidirectional(n).unwrap();
    let r15 = builders::coprime_rings(n, &[15]).unwrap();
    let r31 = builders::coprime_rings(n, &[31]).unwrap();
    let sched = random_schedule(n, 63, 1e4, 1e7, 7).unwrap();
    let mb = build_multibase(
        &[&r1, &r15, &r31],
        &sched,
        CostParams::paper_defaults(),
        ReconfigModel::constant(10e-6).unwrap(),
        0,
    )
    .unwrap();
    c.bench_function("multibase_dp_3bases_s63_n64", |b| {
        b.iter(|| black_box(mb.optimize().unwrap().1))
    });
}

criterion_group!(solver, solvers);
criterion_main!(solver);
