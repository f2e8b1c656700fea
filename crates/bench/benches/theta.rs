//! Criterion benches for the θ (maximum concurrent flow) solvers — the
//! congestion factor of eq. (3), and the component §4 wants cheap proxies
//! for — and for the [`ThetaCache`] that memoizes them.

use aps_collectives::{allreduce, alltoall};
use aps_core::sweep::SweepGrid;
use aps_flow::solver::{step_throughput, ThetaCache, ThroughputSolver};
use aps_flow::{forced, gk};
use aps_matrix::Matching;
use aps_par::Pool;
use aps_topology::builders;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn theta(c: &mut Criterion) {
    let n = 64;
    let uni = builders::ring_unidirectional(n).unwrap();
    let bi = builders::ring_bidirectional(n).unwrap();
    let m = Matching::shift(n, 7).unwrap();

    c.bench_function("theta_forced_path_uni_ring_n64", |b| {
        b.iter(|| {
            black_box(
                step_throughput(&uni, &m, ThroughputSolver::ForcedPath)
                    .unwrap()
                    .theta,
            )
        })
    });

    // The circuit path against its one-BFS-per-pair oracle, O(n) vs O(n²).
    for ports in [64, 1024] {
        let ring = builders::ring_unidirectional(ports).unwrap();
        let shift = Matching::shift(ports, 7).unwrap();
        c.bench_function(&format!("theta_forced_reference_uni_ring_n{ports}"), |b| {
            b.iter(|| black_box(forced::reference(&ring, &shift).unwrap().0))
        });
        c.bench_function(&format!("theta_forced_circuit_uni_ring_n{ports}"), |b| {
            b.iter(|| black_box(forced::forced_path_throughput(&ring, &shift).unwrap().0))
        });
    }

    // A cache hit: read the digest the first lookup stored in the
    // matching's buffer, find its entry, and match the key, which shares
    // that buffer, by pointer. No port is read, whatever the port count.
    for ports in [1024, 4096] {
        let ring = builders::ring_unidirectional(ports).unwrap();
        let shift = Matching::shift(ports, 7).unwrap();
        let mut cache = ThetaCache::new(&ring, ThroughputSolver::ForcedPath);
        cache.get(&ring, &shift).unwrap();
        c.bench_function(&format!("theta_cache_hit_n{ports}"), |b| {
            b.iter(|| black_box(cache.get(&ring, &shift).unwrap().theta))
        });
    }

    // Warming a cache over one plan-sweep family: ring AllReduce at 512
    // ports for each message size of the paper grid, 6 × 1,022 step
    // matchings that are all one shift. Serial, so the bench times the
    // dedup pass and the one solve, not the pool.
    let ring = builders::ring_unidirectional(512).unwrap();
    let schedules: Vec<_> = SweepGrid::paper_default()
        .message_bytes
        .iter()
        .map(|&m| allreduce::ring::build(512, m).unwrap().schedule)
        .collect();
    let steps = || {
        schedules
            .iter()
            .flat_map(|s| s.steps())
            .map(|s| &s.matching)
    };
    c.bench_function("theta_cache_warm_ring_allreduce_n512", |b| {
        b.iter(|| {
            let cache = ThetaCache::warm(
                &Pool::serial(),
                &ring,
                ThroughputSolver::ForcedPath,
                steps(),
            );
            black_box(cache.unwrap().len())
        })
    });

    // One build of each plan-sweep family at 512 ports. Each step is one
    // whole permutation, built once and shared wherever it repeats: a ring
    // AllReduce holds one shift for its 1,022 steps, halving-doubling 9
    // XOR exchanges for its 18, and a linear shift 511 distinct shifts.
    c.bench_function("schedule_ring_allreduce_n512", |b| {
        b.iter(|| {
            black_box(
                allreduce::ring::build(512, 1e6)
                    .unwrap()
                    .schedule
                    .num_steps(),
            )
        })
    });
    c.bench_function("schedule_halving_doubling_n512", |b| {
        b.iter(|| {
            black_box(
                allreduce::halving_doubling::build(512, 1e6)
                    .unwrap()
                    .schedule
                    .num_steps(),
            )
        })
    });
    c.bench_function("schedule_linear_shift_n512", |b| {
        b.iter(|| {
            black_box(
                alltoall::linear_shift(512, 1e6)
                    .unwrap()
                    .schedule
                    .num_steps(),
            )
        })
    });

    c.bench_function("theta_degree_proxy_uni_ring_n64", |b| {
        b.iter(|| {
            black_box(
                step_throughput(&uni, &m, ThroughputSolver::DegreeProxy)
                    .unwrap()
                    .theta,
            )
        })
    });

    c.bench_function("theta_gk_eps10_bi_ring_n64", |b| {
        b.iter(|| {
            let coms = gk::matching_commodities(&m);
            black_box(
                gk::max_concurrent_flow(&bi, &coms, 0.1)
                    .unwrap()
                    .lower_bound,
            )
        })
    });
}

criterion_group!(theta_benches, theta);
criterion_main!(theta_benches);
