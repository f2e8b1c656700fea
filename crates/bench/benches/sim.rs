//! Criterion benches for the discrete-event flow-level simulator: full
//! collective executions per second, the metric that bounds how large a
//! parameter study the simulator-side validation (ablation A6) can afford.

use aps_collectives::{allreduce, alltoall};
use aps_core::SwitchSchedule;
use aps_cost::units::MIB;
use aps_cost::ReconfigModel;
use aps_fabric::CircuitSwitch;
use aps_matrix::Matching;
use aps_sim::fluid::simulate_flows_scratch;
use aps_sim::{run_scheduled, FluidScratch, RunConfig};
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

    // The fluid solve of one matched step at 4096 ports: 4096 disjoint
    // one-hop circuits in a recycled scratch, as the executor runs it.
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
