//! Criterion benches for the discrete-event flow-level simulator: full
//! collective executions per second, the metric that bounds how large a
//! parameter study the simulator-side validation (ablation A6) can afford.

use aps_collectives::workload::generators::{RandomPermutations, TrainingLoop};
use aps_collectives::workload::materialize;
use aps_collectives::{
    allreduce, alltoall, CollectiveKind, Schedule, ScheduleStream, Step, Workload,
};
use aps_core::controller::Greedy;
use aps_core::{ConfigChoice, SwitchSchedule};
use aps_cost::units::{KIB, MIB};
use aps_cost::ReconfigModel;
use aps_faas::{
    run_service, AdmissionPolicy, PoissonArrivals, ServiceConfig, ServiceSwitching, TenantClass,
};
use aps_fabric::CircuitSwitch;
use aps_matrix::Matching;
use aps_sim::fluid::simulate_flows_scratch;
use aps_sim::stream::{run_workload_totals, StreamPricing};
use aps_sim::{run_scheduled, FluidScratch, RunConfig};
use aps_topology::builders;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn sim(c: &mut Criterion) {
    let cfg = RunConfig::paper_defaults();

    for (name, n, collective) in [
        (
            "sim_hd_allreduce_n64_static",
            64,
            allreduce::halving_doubling::build(64, MIB).unwrap(),
        ),
        (
            "sim_alltoall_n64_static",
            64,
            alltoall::linear_shift(64, MIB).unwrap(),
        ),
    ] {
        let ring = Matching::shift(n, 1).unwrap();
        let s = collective.schedule.num_steps();
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut fab =
                    CircuitSwitch::new(ring.clone(), ReconfigModel::constant(1e-6).unwrap());
                black_box(
                    run_scheduled(
                        &mut fab,
                        &ring,
                        &collective.schedule,
                        &SwitchSchedule::all_base(s),
                        &cfg,
                    )
                    .unwrap()
                    .total_ps,
                )
            })
        });
    }

    // Matched execution exercises the reconfiguration path.
    let n = 64;
    let ring = Matching::shift(n, 1).unwrap();
    let hd = allreduce::halving_doubling::build(n, MIB).unwrap();
    let s = hd.schedule.num_steps();
    c.bench_function("sim_hd_allreduce_n64_matched", |b| {
        b.iter(|| {
            let mut fab = CircuitSwitch::new(ring.clone(), ReconfigModel::constant(1e-6).unwrap());
            black_box(
                run_scheduled(
                    &mut fab,
                    &ring,
                    &hd.schedule,
                    &SwitchSchedule::all_matched(s),
                    &cfg,
                )
                .unwrap()
                .total_ps,
            )
        })
    });

    // One step through the executor, the path every simulated step takes
    // (a fresh executor, so its scratch warms up inside the timing): the
    // stream-perm step, a seeded derangement on the 256-port base ring; a
    // ring shift by n/2 at 4,096 ports, one giant sharing component of
    // near-tied bottlenecks; and a matched step at 4,096 ports, all direct
    // circuits.
    let one_step = |matching: Matching| {
        let step = Step {
            matching,
            bytes_per_pair: MIB,
        };
        Schedule::new(
            step.matching.n(),
            CollectiveKind::AllToAll,
            "one step",
            vec![step],
        )
        .unwrap()
    };
    let mut permutations = RandomPermutations::new(256, MIB, Some(1), 1).unwrap();
    for (name, schedule, switches) in [
        (
            "step_ring_permutation_n256",
            materialize(&mut permutations, 1).unwrap(),
            SwitchSchedule::all_base(1),
        ),
        (
            "step_ring_shift_half_n4096",
            one_step(Matching::shift(4096, 2048).unwrap()),
            SwitchSchedule::all_base(1),
        ),
        (
            "step_matched_n4096",
            one_step(Matching::shift(4096, 7).unwrap()),
            SwitchSchedule::all_matched(1),
        ),
    ] {
        let ring = Matching::shift(schedule.n(), 1).unwrap();
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut fab =
                    CircuitSwitch::new(ring.clone(), ReconfigModel::constant(1e-6).unwrap());
                black_box(
                    run_scheduled(&mut fab, &ring, &schedule, &switches, &cfg)
                        .unwrap()
                        .total_ps,
                )
            })
        });
    }

    // The benchmark's stream-train call: ten 28-step epochs of a training
    // loop (4 microbatches, 1 MiB activations, 4 MiB gradients) on the
    // 1,024-port unidirectional ring under `Greedy`, α_r = 10 µs, from a
    // fresh fabric and stream. Once θ hits, a step costs the decision,
    // the fabric request and the step engine.
    let n = 1024;
    let base = builders::ring_unidirectional(n).unwrap();
    let ring = Matching::shift(n, 1).unwrap();
    let reconfig = ReconfigModel::constant(10e-6).unwrap();
    let train = TrainingLoop::new(n, 4, MIB, 4.0 * MIB, None).unwrap();
    c.bench_function("stream_training_loop_n1024", |b| {
        b.iter(|| {
            let mut fab = CircuitSwitch::new(ring.clone(), reconfig);
            let mut workload = train.clone();
            black_box(
                run_workload_totals(
                    &mut fab,
                    &base,
                    &mut workload,
                    &Greedy,
                    StreamPricing::new(reconfig),
                    &cfg,
                    280,
                )
                .unwrap()
                .total_ps,
            )
        })
    });

    // One service run of the benchmark's inference class alone: 1,000 jobs
    // of a 16-port halving-doubling AllReduce at 256 KiB on their base
    // rings, Poisson arrivals at 40 kHz (seed 1), queued four deep, on a
    // 64-port optical fabric (800 Gbps, α_r = 10 µs). Every job runs the
    // same steps on whichever partition it gets, so the executor's step
    // memo answers nearly all of them.
    let hd16 = allreduce::halving_doubling::build(16, 256.0 * KIB)
        .unwrap()
        .schedule;
    let service = ServiceConfig {
        run: cfg,
        admission: AdmissionPolicy::Queue { capacity: 4 },
        max_jobs: Some(1000),
        keep_job_reports: false,
    };
    c.bench_function("service_inference_n64", |b| {
        b.iter(|| {
            let schedule = hd16.clone();
            let mut classes = [TenantClass::new(
                "inference",
                16,
                Matching::shift(16, 1).unwrap(),
                ServiceSwitching::Uniform(ConfigChoice::Base),
                Box::new(PoissonArrivals::new(40_000.0, None, 1).unwrap()),
                Box::new(move |_id: u64| -> Box<dyn Workload> {
                    Box::new(ScheduleStream::new(schedule.clone()))
                }),
            )];
            let mut fab = CircuitSwitch::new(
                Matching::shift(64, 1).unwrap(),
                ReconfigModel::constant(10e-6).unwrap(),
            );
            let report = run_service(&mut fab, &mut classes, &service).unwrap();
            black_box(report.summary.completed())
        })
    });

    // The explicit-path fluid solve of one matched step at 4096 ports:
    // 4096 disjoint one-hop circuits in a recycled scratch, the entry the
    // benchmark's fluid replay times. They are direct circuits, so the arc
    // solve takes them; a flow set of any other shape would run the seed
    // engine.
    let n = 4096;
    let caps = vec![cfg.params.bandwidth_bytes_per_sec(); n];
    let mut scratch = FluidScratch::new();
    c.bench_function("fluid_matched_step_n4096", |b| {
        b.iter(|| {
            scratch.start();
            for l in 0..n {
                scratch.push_link(l);
                scratch.seal_flow(MIB);
            }
            simulate_flows_scratch(&caps, &mut scratch);
            black_box(scratch.finish_of(n - 1))
        })
    });
}

criterion_group!(sim_benches, sim);
criterion_main!(sim_benches);
