//! Routing a communication step (a matching) over a topology.
//!
//! On the *base* topology most pairs are not directly connected: their
//! traffic is relayed through intermediate GPUs over multiple photonic hops.
//! This module computes deterministic shortest-path routes for every pair of
//! a matching and the per-link loads those routes induce — the inputs to the
//! forced-path throughput solver in `aps-flow`. (The simulator in `aps-sim`
//! does not use them: it walks each circuit's successor chain itself.)

use crate::error::TopologyError;
use crate::graph::Topology;
use crate::paths::{shortest_path, Path};
use aps_matrix::Matching;

/// The route assigned to one communicating pair of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPath {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// The path from `src` to `dst`.
    pub path: Path,
}

impl FlowPath {
    /// Number of photonic hops traversed.
    pub fn hops(&self) -> usize {
        self.path.hops()
    }
}

/// Routes every pair of `matching` along its (deterministic) shortest path.
///
/// # Errors
///
/// Returns [`TopologyError::Unreachable`] if some pair has no route — the
/// step simply cannot execute on this topology.
pub fn route_matching(
    topo: &Topology,
    matching: &Matching,
) -> Result<Vec<FlowPath>, TopologyError> {
    matching
        .pairs()
        .map(|(src, dst)| {
            shortest_path(topo, src, dst)
                .map(|path| FlowPath { src, dst, path })
                .ok_or(TopologyError::Unreachable { src, dst })
        })
        .collect()
}

/// Per-link load: the number of routed flows crossing each link (unit demand
/// per pair).
pub fn link_loads(topo: &Topology, flows: &[FlowPath]) -> Vec<f64> {
    let mut loads = vec![0.0; topo.num_links()];
    for f in flows {
        for &lid in &f.path.links {
            loads[lid] += 1.0;
        }
    }
    loads
}

/// Per-link load divided by link capacity: the utilization each link would
/// see if every pair pushed one unit. The maximum of this vector is the
/// inverse of the forced-path concurrent flow.
pub fn normalized_loads(topo: &Topology, flows: &[FlowPath]) -> Vec<f64> {
    link_loads(topo, flows)
        .into_iter()
        .enumerate()
        .map(|(lid, load)| load / topo.link(lid).capacity)
        .collect()
}

/// The largest hop count among the routed flows — the `ℓᵢ` of eq. (3): the
/// propagation-delay multiplier for the step.
pub fn max_hops(flows: &[FlowPath]) -> usize {
    flows.iter().map(FlowPath::hops).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

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
}
