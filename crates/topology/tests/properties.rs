//! Property-based tests for topology builders and paths.

use aps_topology::paths::{all_pairs_hops, diameter, shortest_path, shortest_path_weighted};
use aps_topology::{builders, properties, Topology};
use proptest::prelude::*;

/// Strategy: a random connected-ish directed graph built from a ring spine
/// plus random chords (the spine guarantees strong connectivity).
fn arb_topology() -> impl Strategy<Value = Topology> {
    (
        3usize..14,
        proptest::collection::vec((0usize..14, 0usize..14), 0..20),
    )
        .prop_map(|(n, chords)| {
            let mut t = Topology::new(n, "random");
            for i in 0..n {
                t.add_link(i, (i + 1) % n, 1.0).unwrap();
            }
            for (a, b) in chords {
                let (a, b) = (a % n, b % n);
                if a != b {
                    t.add_link(a, b, 0.5).unwrap();
                }
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn spined_graphs_are_strongly_connected(t in arb_topology()) {
        prop_assert!(properties::is_strongly_connected(&t));
        prop_assert!(diameter(&t).is_some());
    }

    #[test]
    fn bfs_paths_are_valid_and_minimal(t in arb_topology(), s in 0usize..14, d in 0usize..14) {
        let (s, d) = (s % t.n(), d % t.n());
        if s != d {
            let p = shortest_path(&t, s, d).expect("spine guarantees a route");
            // Path validity: consecutive links chain from s to d.
            prop_assert_eq!(p.src(), s);
            prop_assert_eq!(p.dst(), d);
            for (i, &lid) in p.links.iter().enumerate() {
                prop_assert_eq!(t.link(lid).src, p.nodes[i]);
                prop_assert_eq!(t.link(lid).dst, p.nodes[i + 1]);
            }
            // Minimality: equals the all-pairs BFS distance.
            let hops = all_pairs_hops(&t);
            prop_assert_eq!(p.hops() as u32, hops[s][d].unwrap());
            // And equals Dijkstra with unit weights.
            let w = vec![1.0; t.num_links()];
            let (cost, wp) = shortest_path_weighted(&t, s, d, &w).unwrap();
            prop_assert!((cost - wp.hops() as f64).abs() < 1e-12);
            prop_assert_eq!(wp.hops(), p.hops());
        }
    }

    #[test]
    fn diameter_bounds_every_pair(t in arb_topology()) {
        let dia = diameter(&t).unwrap();
        let hops = all_pairs_hops(&t);
        for (i, row) in hops.iter().enumerate() {
            for (j, h) in row.iter().enumerate() {
                if i != j {
                    prop_assert!(h.unwrap() <= dia);
                }
            }
        }
    }

    #[test]
    fn builders_satisfy_their_invariants(n in 2usize..33) {
        let uni = builders::ring_unidirectional(n).unwrap();
        prop_assert!(properties::is_strongly_connected(&uni));
        prop_assert!(properties::is_circuit_configuration(&uni));
        prop_assert_eq!(diameter(&uni), Some(n as u32 - 1));
        if n >= 3 {
            let bi = builders::ring_bidirectional(n).unwrap();
            prop_assert!(properties::is_regular(&bi));
            prop_assert_eq!(diameter(&bi), Some((n / 2) as u32));
        }
        if n.is_power_of_two() {
            let h = builders::hypercube(n).unwrap();
            prop_assert_eq!(diameter(&h), Some(n.trailing_zeros()));
        }
        let mesh = builders::full_mesh(n).unwrap();
        prop_assert_eq!(diameter(&mesh), Some(1));
        // Egress budget: every builder splits one transceiver.
        for t in [&uni, &mesh] {
            for v in 0..n {
                prop_assert!(t.egress_capacity(v) <= 1.0 + 1e-9);
            }
        }
    }
}
