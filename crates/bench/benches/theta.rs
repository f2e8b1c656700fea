//! Criterion benches for the θ (maximum concurrent flow) solvers — the
//! congestion factor of eq. (3), and the component §4 wants cheap proxies
//! for.

use aps_flow::solver::{step_throughput, ThroughputSolver};
use aps_flow::{forced, gk};
use aps_matrix::Matching;
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
