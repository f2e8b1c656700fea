//! Structural properties of topologies: connectivity, regularity and
//! circuit shape.

use crate::graph::Topology;

/// `true` when every node can reach every other node along directed links.
pub fn is_strongly_connected(topo: &Topology) -> bool {
    let n = topo.n();
    if n <= 1 {
        return true;
    }
    reaches_all(topo, false) && reaches_all(topo, true)
}

fn reaches_all(topo: &Topology, reversed: bool) -> bool {
    let n = topo.n();
    let mut visited = vec![false; n];
    visited[0] = true;
    let mut queue = std::collections::VecDeque::from([0usize]);
    let mut count = 1;
    while let Some(u) = queue.pop_front() {
        let links = if reversed {
            topo.in_links(u)
        } else {
            topo.out_links(u)
        };
        for &lid in links {
            let l = topo.link(lid);
            let v = if reversed { l.src } else { l.dst };
            if !visited[v] {
                visited[v] = true;
                count += 1;
                queue.push_back(v);
            }
        }
    }
    count == n
}

/// `true` when all nodes share the same out-degree and the same in-degree.
pub fn is_regular(topo: &Topology) -> bool {
    let n = topo.n();
    if n == 0 {
        return true;
    }
    let od = topo.out_degree(0);
    let id = topo.in_degree(0);
    (0..n).all(|v| topo.out_degree(v) == od && topo.in_degree(v) == id)
}

/// `true` when the topology is a valid single-transceiver circuit
/// configuration: every node has out-degree ≤ 1 and in-degree ≤ 1 — i.e. it
/// could be produced by [`crate::builders::from_matching`].
pub fn is_circuit_configuration(topo: &Topology) -> bool {
    (0..topo.n()).all(|v| topo.out_degree(v) <= 1 && topo.in_degree(v) <= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn ring_properties() {
        let t = builders::ring_unidirectional(6).unwrap();
        assert!(is_strongly_connected(&t));
        assert!(is_regular(&t));
        assert!(is_circuit_configuration(&t));
    }

    #[test]
    fn bi_ring_is_not_a_circuit_config() {
        let t = builders::ring_bidirectional(6).unwrap();
        assert!(is_strongly_connected(&t));
        assert!(is_regular(&t));
        assert!(!is_circuit_configuration(&t));
    }

    #[test]
    fn one_way_chain_is_not_strongly_connected() {
        let mut t = Topology::new(3, "chain");
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(1, 2, 1.0).unwrap();
        assert!(!is_strongly_connected(&t));
        assert!(!is_regular(&t));
    }

    #[test]
    fn reverse_reachability_matters() {
        // Everyone can reach node 0's component forward, but node 2 has no
        // incoming edge: forward BFS from 0 finds all, reverse BFS does not.
        let mut t = Topology::new(3, "sink");
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(1, 0, 1.0).unwrap();
        t.add_link(2, 0, 1.0).unwrap();
        assert!(!is_strongly_connected(&t));
    }

    #[test]
    fn empty_and_trivial() {
        assert!(is_strongly_connected(&Topology::new(0, "empty")));
        assert!(is_strongly_connected(&Topology::new(1, "solo")));
        assert!(is_regular(&Topology::new(0, "empty")));
    }

    #[test]
    fn builders_respect_egress_budget() {
        for t in [
            builders::ring_unidirectional(8).unwrap(),
            builders::ring_bidirectional(8).unwrap(),
            builders::torus_2d(4, 4).unwrap(),
            builders::hypercube(8).unwrap(),
            builders::full_mesh(6).unwrap(),
            builders::coprime_rings(10, &[1, 3]).unwrap(),
        ] {
            for v in 0..t.n() {
                assert!(t.egress_capacity(v) <= 1.0 + 1e-9, "{} node {v}", t.name());
            }
        }
    }
}
