//! Forced-path (deterministic shortest-path) concurrent flow.
//!
//! When every pair's route is forced — as on a unidirectional ring or a
//! matched circuit topology — the maximum concurrent flow has a closed form:
//! route each unit demand on its unique path, then
//!
//! ```text
//! θ = min over links  capacity(e) / load(e)
//! ```
//!
//! On topologies with routing choice this value is what deterministic
//! shortest-path routing *achieves*, hence a valid lower bound on the true
//! (splittable) `θ` and exactly the throughput the `aps-sim` flow-level
//! simulator realizes. `ℓ` is the maximum hop count over the step's flows —
//! the propagation-delay multiplier of eq. (3).
//!
//! [`forced_path_throughput`] takes one of two paths:
//!
//! * **Circuit topologies** — every node has at most one in-link and one
//!   out-link, so the graph is a set of disjoint chains and cycles
//!   ([`aps_topology::properties::is_circuit_configuration`]). Unidirectional
//!   rings, [`aps_topology::builders::from_matching`] and every circuit-switch
//!   configuration are of this kind. Each pair's route is an arc of its
//!   component in the [`aps_topology::Circuits`] layout, so the link loads
//!   come from one difference array in `O(n + links)`. A
//!   [`crate::solver::ThetaCache`] lays its base out once and prices every
//!   miss on that layout.
//! * **Every other topology** — bidirectional and co-prime rings, tori,
//!   hypercubes, meshes — routes each pair by BFS in link insertion order,
//!   `O(n)` per pair.
//!
//! [`reference()`] always takes the BFS path. It is the oracle the circuit
//! path is tested against, as `aps_sim::fluid::reference` is for the fluid
//! solve: both paths return bit-identical `θ`, the same `ℓ` and the same
//! error for the first unreachable pair.

use crate::error::FlowError;
use aps_matrix::Matching;
use aps_topology::paths::{shortest_path, Path};
use aps_topology::{Circuits, Topology, TopologyError};

/// Throughput and hop count of a step under forced shortest-path routing.
///
/// Returns `(theta, max_hops)`. For an empty matching, `θ = 1` and
/// `ℓ = 0` by convention (the step carries no traffic; the cost model will
/// multiply by `m = 0` anyway).
///
/// # Errors
///
/// Returns an error if the matching and topology disagree on `n` or a pair
/// is unreachable.
pub fn forced_path_throughput(
    topo: &Topology,
    matching: &Matching,
) -> Result<(f64, usize), FlowError> {
    match Circuits::of_topology(topo) {
        Some(circuits) => circuit_path_throughput(topo, &circuits, matching),
        None => reference(topo, matching),
    }
}

/// The circuit path of [`forced_path_throughput`], on `circuits`, the
/// layout of `topo` (`Circuits::of_topology(topo)`): a caller that prices
/// many matchings on one circuit topology lays it out once.
pub(crate) fn circuit_path_throughput(
    topo: &Topology,
    circuits: &Circuits,
    matching: &Matching,
) -> Result<(f64, usize), FlowError> {
    if let Some(trivial) = trivial(topo, matching)? {
        return Ok(trivial);
    }
    // A difference array over the slots; its prefix sums below are the loads
    // of the links leaving each slot.
    let mut load = vec![0i64; topo.n() + 1];
    let mut ell = 0;
    for (src, dst) in matching.pairs() {
        let (a, hops) = circuits
            .route(src, dst)
            .ok_or(TopologyError::Unreachable { src, dst })?;
        let c = circuits.component_of(src);
        load[a] += 1;
        if a + hops <= c.end() {
            load[a + hops] -= 1;
        } else {
            // The arc wraps past the cycle's last slot to its first.
            load[c.end()] -= 1;
            load[c.start] += 1;
            load[a + hops - c.len] -= 1;
        }
        ell = ell.max(hops);
    }
    let mut running = 0;
    for slot in &mut load {
        running += *slot;
        *slot = running;
    }
    let worst = topo
        .links()
        .iter()
        .map(|l| load[circuits.slot(l.src)] as f64 / l.capacity)
        .fold(0.0, f64::max);
    debug_assert!(worst > 0.0, "non-empty matching must load some link");
    Ok((1.0 / worst, ell))
}

/// [`forced_path_throughput`] by one BFS per pair on every topology: the
/// oracle for its circuit path.
///
/// # Errors
///
/// As [`forced_path_throughput`].
pub fn reference(topo: &Topology, matching: &Matching) -> Result<(f64, usize), FlowError> {
    if let Some(trivial) = trivial(topo, matching)? {
        return Ok(trivial);
    }
    let flows = route_matching(topo, matching)?;
    let worst = normalized_loads(topo, &flows)
        .into_iter()
        .fold(0.0, f64::max);
    debug_assert!(worst > 0.0, "non-empty matching must load some link");
    Ok((1.0 / worst, max_hops(&flows)))
}

/// The answer both paths give before routing anything: a dimension
/// mismatch, or the empty-matching convention.
fn trivial(topo: &Topology, matching: &Matching) -> Result<Option<(f64, usize)>, FlowError> {
    if topo.n() != matching.n() {
        return Err(FlowError::DimensionMismatch {
            topology: topo.n(),
            matching: matching.n(),
        });
    }
    Ok(matching.is_empty().then_some((1.0, 0)))
}

/// Routes every pair of `matching` along its BFS shortest path, in pair
/// order; the first pair without a route is the error.
fn route_matching(topo: &Topology, matching: &Matching) -> Result<Vec<Path>, TopologyError> {
    matching
        .pairs()
        .map(|(src, dst)| {
            shortest_path(topo, src, dst).ok_or(TopologyError::Unreachable { src, dst })
        })
        .collect()
}

/// Per-link load: the number of routed flows crossing each link (unit demand
/// per pair).
fn link_loads(topo: &Topology, flows: &[Path]) -> Vec<f64> {
    let mut loads = vec![0.0; topo.num_links()];
    for f in flows {
        for &lid in &f.links {
            loads[lid] += 1.0;
        }
    }
    loads
}

/// Per-link load divided by link capacity: the utilization each link would
/// see if every pair pushed one unit. The maximum of this vector is the
/// inverse of the forced-path concurrent flow.
fn normalized_loads(topo: &Topology, flows: &[Path]) -> Vec<f64> {
    link_loads(topo, flows)
        .into_iter()
        .enumerate()
        .map(|(lid, load)| load / topo.link(lid).capacity)
        .collect()
}

/// The largest hop count among the routed flows — the `ℓᵢ` of eq. (3).
fn max_hops(flows: &[Path]) -> usize {
    flows.iter().map(Path::hops).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_topology::builders;
    use proptest::prelude::*;

    #[test]
    fn shift_on_uni_ring() {
        let t = builders::ring_unidirectional(8).unwrap();
        for k in 1..8 {
            let m = Matching::shift(8, k).unwrap();
            let (theta, ell) = forced_path_throughput(&t, &m).unwrap();
            assert!((theta - 1.0 / k as f64).abs() < 1e-12, "k={k}");
            assert_eq!(ell, k);
        }
    }

    #[test]
    fn matched_topology_reaches_full_throughput() {
        let m = Matching::shift(10, 3).unwrap();
        let t = builders::from_matching(&m);
        let (theta, ell) = forced_path_throughput(&t, &m).unwrap();
        assert_eq!(theta, 1.0);
        assert_eq!(ell, 1);
    }

    #[test]
    fn xor_on_uni_ring() {
        // i ↔ i+4 on an 8-ring: every flow 4 hops, every link load 4.
        let t = builders::ring_unidirectional(8).unwrap();
        let m = Matching::xor(8, 4).unwrap();
        let (theta, ell) = forced_path_throughput(&t, &m).unwrap();
        assert!((theta - 0.25).abs() < 1e-12);
        assert_eq!(ell, 4);
    }

    #[test]
    fn shift_on_bidirectional_ring_single_path() {
        // Deterministic SP routing sends shift(1) entirely forward on the
        // 0.5-capacity forward links: θ = 0.5.
        let t = builders::ring_bidirectional(8).unwrap();
        let m = Matching::shift(8, 1).unwrap();
        let (theta, ell) = forced_path_throughput(&t, &m).unwrap();
        assert!((theta - 0.5).abs() < 1e-12);
        assert_eq!(ell, 1);
    }

    #[test]
    fn empty_matching_convention() {
        let t = builders::ring_unidirectional(4).unwrap();
        let (theta, ell) = forced_path_throughput(&t, &Matching::empty(4)).unwrap();
        assert_eq!((theta, ell), (1.0, 0));
    }

    #[test]
    fn dimension_mismatch() {
        let t = builders::ring_unidirectional(4).unwrap();
        let m = Matching::shift(6, 1).unwrap();
        assert!(matches!(
            forced_path_throughput(&t, &m),
            Err(FlowError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn partial_matching_loads_only_its_paths() {
        let t = builders::ring_unidirectional(8).unwrap();
        // Single pair 0 → 3: one path of 3 hops, max normalized load 1.
        let m = Matching::from_pairs(8, &[(0, 3)]).unwrap();
        let (theta, ell) = forced_path_throughput(&t, &m).unwrap();
        assert_eq!(theta, 1.0);
        assert_eq!(ell, 3);
    }

    #[test]
    fn circuit_path_reports_the_first_unreachable_pair() {
        // Chain 0 → 1 → 2 and cycle 3 → 4 → 3: 1 → 0 is upstream on the
        // chain, 2 → 1 starts at the chain's end, 3 → 0 crosses components.
        let mut t = Topology::new(5, "chain+cycle");
        for (s, d) in [(0, 1), (1, 2), (3, 4), (4, 3)] {
            t.add_link(s, d, 1.0).unwrap();
        }
        for (pairs, src, dst) in [
            (vec![(0, 2), (1, 0)], 1, 0),
            (vec![(2, 1)], 2, 1),
            (vec![(0, 1), (3, 0)], 3, 0),
        ] {
            let m = Matching::from_pairs(5, &pairs).unwrap();
            let want = Err(FlowError::Routing(TopologyError::Unreachable { src, dst }));
            assert_eq!(forced_path_throughput(&t, &m), want);
            assert_eq!(reference(&t, &m), want);
        }
        let m = Matching::from_pairs(5, &[(0, 2), (4, 3), (3, 4)]).unwrap();
        assert_eq!(forced_path_throughput(&t, &m), Ok((1.0, 2)));
    }

    // The BFS oracle's routing helpers.

    #[test]
    fn shift_on_uni_ring_loads_every_link_equally() {
        let t = builders::ring_unidirectional(8).unwrap();
        let m = Matching::shift(8, 3).unwrap();
        let flows = route_matching(&t, &m).unwrap();
        assert_eq!(flows.len(), 8);
        assert!(flows.iter().all(|f| f.hops() == 3));
        let loads = link_loads(&t, &flows);
        assert!(loads.iter().all(|&l| (l - 3.0).abs() < 1e-12));
        assert_eq!(max_hops(&flows), 3);
    }

    #[test]
    fn xor_on_uni_ring_has_wraparound_cost() {
        // i ↔ i+4 exchanges: forward sender travels 4 hops, the partner
        // must wrap all the way around (n - 4 hops).
        let t = builders::ring_unidirectional(8).unwrap();
        let m = Matching::xor(8, 4).unwrap();
        let flows = route_matching(&t, &m).unwrap();
        assert_eq!(max_hops(&flows), 4);
        // All 8 flows of length 4 → every link carries load 4.
        let loads = link_loads(&t, &flows);
        assert!(loads.iter().all(|&l| (l - 4.0).abs() < 1e-12));
    }

    #[test]
    fn xor_small_mask_on_uni_ring() {
        // i ↔ i+1 pairs: even senders go 1 hop, odd senders wrap n-1 hops.
        let t = builders::ring_unidirectional(8).unwrap();
        let m = Matching::xor(8, 1).unwrap();
        let flows = route_matching(&t, &m).unwrap();
        assert_eq!(max_hops(&flows), 7);
        let loads = link_loads(&t, &flows);
        // 4 long flows cover 7 links each + 4 short flows cover 1 link each:
        // total link-hops = 4*7 + 4 = 32 spread over 8 links = 4 avg. The
        // max load is 4 (each link: 3 or 4 long flows + 0 or 1 short).
        let max = loads.iter().cloned().fold(0.0, f64::max);
        assert_eq!(max, 4.0);
    }

    #[test]
    fn matched_topology_is_single_hop() {
        let m = Matching::shift(6, 2).unwrap();
        let t = builders::from_matching(&m);
        let flows = route_matching(&t, &m).unwrap();
        assert!(flows.iter().all(|f| f.hops() == 1));
        let norm = normalized_loads(&t, &flows);
        assert!(norm.iter().all(|&l| (l - 1.0).abs() < 1e-12));
    }

    #[test]
    fn unreachable_pair_is_an_error() {
        let m = Matching::shift(4, 2).unwrap();
        // Matched topology for shift(1) cannot route shift(2) pairs directly
        // but CAN relay: 0→1→2. So build a genuinely disconnected topology.
        let mut t = Topology::new(4, "islands");
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(1, 0, 1.0).unwrap();
        t.add_link(2, 3, 1.0).unwrap();
        t.add_link(3, 2, 1.0).unwrap();
        assert_eq!(
            route_matching(&t, &m),
            Err(TopologyError::Unreachable { src: 0, dst: 2 })
        );
    }

    #[test]
    fn relaying_on_circuit_topology() {
        // A circuit configuration can still carry other patterns multi-hop:
        // ring circuits relay shift(2) in two hops.
        let ring = builders::from_matching(&Matching::shift(4, 1).unwrap());
        let flows = route_matching(&ring, &Matching::shift(4, 2).unwrap()).unwrap();
        assert!(flows.iter().all(|f| f.hops() == 2));
        let norm = normalized_loads(&ring, &flows);
        assert!(norm.iter().all(|&l| (l - 2.0).abs() < 1e-12));
    }

    #[test]
    fn empty_matching_routes_trivially() {
        let t = builders::ring_unidirectional(4).unwrap();
        let flows = route_matching(&t, &Matching::empty(4)).unwrap();
        assert!(flows.is_empty());
        assert_eq!(max_hops(&flows), 0);
        assert!(link_loads(&t, &flows).iter().all(|&l| l == 0.0));
    }

    /// Strategy: a random strongly connected directed graph built from a
    /// ring spine plus random chords.
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
        fn routing_loads_account_for_every_hop(t in arb_topology(), k in 1usize..13) {
            let n = t.n();
            let k = (k % (n - 1)) + 1;
            let m = Matching::shift(n, k).unwrap();
            let flows = route_matching(&t, &m).unwrap();
            let loads = link_loads(&t, &flows);
            let total_hops: usize = flows.iter().map(|f| f.hops()).sum();
            let total_load: f64 = loads.iter().sum();
            prop_assert!((total_load - total_hops as f64).abs() < 1e-9);
        }

        #[test]
        fn matched_topologies_route_their_matching_one_hop(k in 1usize..20, n in 2usize..24) {
            let k = (k % (n.max(2) - 1)).max(1);
            if k % n != 0 {
                let m = Matching::shift(n, k).unwrap();
                let t = builders::from_matching(&m);
                let flows = route_matching(&t, &m).unwrap();
                prop_assert!(flows.iter().all(|f| f.hops() == 1));
                prop_assert_eq!(reference(&t, &m), Ok((1.0, 1)));
            }
        }
    }
}
