//! Shortest paths by hop count (BFS) and by arbitrary link weights
//! (Dijkstra).
//!
//! Tie-breaking is deterministic: BFS and Dijkstra explore out-links in link
//! insertion order, so two runs on the same topology always return the same
//! paths. Determinism matters because path choices feed the cost model
//! through `aps-flow`'s θ solvers (and `ℓᵢ`, the propagation hop count of
//! eq. (3)); nondeterministic routing would make experiments
//! unreproducible.

use crate::graph::{LinkId, Topology};

/// A directed path through a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Visited nodes, `nodes[0]` = source, `nodes.last()` = destination.
    pub nodes: Vec<usize>,
    /// Traversed links, `links.len() == nodes.len() - 1`.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of hops (links traversed).
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Source node.
    ///
    /// # Panics
    ///
    /// Panics on an empty path (never produced by this module).
    pub fn src(&self) -> usize {
        self.nodes[0]
    }

    /// Destination node.
    ///
    /// # Panics
    ///
    /// Panics on an empty path (never produced by this module).
    pub fn dst(&self) -> usize {
        *self.nodes.last().expect("paths are non-empty")
    }
}

/// BFS shortest path from `src` to `dst` by hop count. Returns `None` when
/// unreachable or `src == dst`.
pub fn shortest_path(topo: &Topology, src: usize, dst: usize) -> Option<Path> {
    if src == dst || src >= topo.n() || dst >= topo.n() {
        return None;
    }
    let mut parent_link: Vec<Option<LinkId>> = vec![None; topo.n()];
    let mut visited = vec![false; topo.n()];
    visited[src] = true;
    let mut queue = std::collections::VecDeque::from([src]);
    'bfs: while let Some(u) = queue.pop_front() {
        for &lid in topo.out_links(u) {
            let v = topo.link(lid).dst;
            if !visited[v] {
                visited[v] = true;
                parent_link[v] = Some(lid);
                if v == dst {
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
    }
    if !visited[dst] {
        return None;
    }
    reconstruct(topo, src, dst, &parent_link)
}

/// Dijkstra shortest path under per-link weights `w` (must be non-negative,
/// one entry per link). Returns `(total_weight, path)`, or `None` when
/// unreachable or `src == dst`. Used as the shortest-path oracle of the
/// Garg–Könemann concurrent-flow solver in `aps-flow`.
pub fn shortest_path_weighted(
    topo: &Topology,
    src: usize,
    dst: usize,
    w: &[f64],
) -> Option<(f64, Path)> {
    assert_eq!(w.len(), topo.num_links(), "one weight per link required");
    if src == dst || src >= topo.n() || dst >= topo.n() {
        return None;
    }
    let n = topo.n();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent_link: Vec<Option<LinkId>> = vec![None; n];
    let mut done = vec![false; n];
    dist[src] = 0.0;
    // Binary heap keyed on (dist, node); f64 wrapped as ordered bits.
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((ordered(0.0), src)));
    while let Some(std::cmp::Reverse((_, u))) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        if u == dst {
            break;
        }
        for &lid in topo.out_links(u) {
            let v = topo.link(lid).dst;
            let nd = dist[u] + w[lid];
            if nd < dist[v] {
                dist[v] = nd;
                parent_link[v] = Some(lid);
                heap.push(std::cmp::Reverse((ordered(nd), v)));
            }
        }
    }
    if dist[dst].is_infinite() {
        return None;
    }
    reconstruct(topo, src, dst, &parent_link).map(|p| (dist[dst], p))
}

/// Monotone mapping of non-negative finite f64 to ordered u64 bits.
fn ordered(x: f64) -> u64 {
    debug_assert!(x >= 0.0);
    x.to_bits()
}

fn reconstruct(
    topo: &Topology,
    src: usize,
    dst: usize,
    parent_link: &[Option<LinkId>],
) -> Option<Path> {
    let mut links = Vec::new();
    let mut nodes = vec![dst];
    let mut cur = dst;
    while cur != src {
        let lid = parent_link[cur]?;
        links.push(lid);
        cur = topo.link(lid).src;
        nodes.push(cur);
    }
    links.reverse();
    nodes.reverse();
    Some(Path { nodes, links })
}

/// Hop distances from every node to every node; `None` when unreachable.
pub fn all_pairs_hops(topo: &Topology) -> Vec<Vec<Option<u32>>> {
    (0..topo.n())
        .map(|src| {
            let mut dist = vec![None; topo.n()];
            dist[src] = Some(0);
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                let du = dist[u].expect("queued nodes have distances");
                for &lid in topo.out_links(u) {
                    let v = topo.link(lid).dst;
                    if dist[v].is_none() {
                        dist[v] = Some(du + 1);
                        queue.push_back(v);
                    }
                }
            }
            dist
        })
        .collect()
}

/// The directed diameter (longest shortest path), or `None` if any ordered
/// pair is unreachable.
pub fn diameter(topo: &Topology) -> Option<u32> {
    let d = all_pairs_hops(topo);
    let mut best = 0;
    for (i, row) in d.iter().enumerate() {
        for (j, h) in row.iter().enumerate() {
            if i != j {
                best = best.max((*h)?);
            }
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn uni_ring_paths_are_forced() {
        let t = builders::ring_unidirectional(8).unwrap();
        let p = shortest_path(&t, 2, 1).unwrap();
        assert_eq!(p.hops(), 7);
        assert_eq!(p.src(), 2);
        assert_eq!(p.dst(), 1);
        assert_eq!(p.nodes, vec![2, 3, 4, 5, 6, 7, 0, 1]);
        assert_eq!(diameter(&t), Some(7));
    }

    #[test]
    fn bi_ring_takes_short_side() {
        let t = builders::ring_bidirectional(8).unwrap();
        assert_eq!(shortest_path(&t, 0, 3).unwrap().hops(), 3);
        assert_eq!(shortest_path(&t, 0, 6).unwrap().hops(), 2);
        assert_eq!(diameter(&t), Some(4));
    }

    #[test]
    fn hypercube_distance_is_popcount() {
        let t = builders::hypercube(16).unwrap();
        for a in 0..16usize {
            for b in 0..16usize {
                if a != b {
                    let p = shortest_path(&t, a, b).unwrap();
                    assert_eq!(p.hops(), (a ^ b).count_ones() as usize);
                }
            }
        }
        assert_eq!(diameter(&t), Some(4));
    }

    #[test]
    fn same_node_and_out_of_range() {
        let t = builders::ring_unidirectional(4).unwrap();
        assert!(shortest_path(&t, 1, 1).is_none());
        assert!(shortest_path(&t, 0, 9).is_none());
        assert!(shortest_path_weighted(&t, 1, 1, &[1.0; 4]).is_none());
    }

    #[test]
    fn disconnected_reported() {
        let mut t = Topology::new(4, "two islands");
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(2, 3, 1.0).unwrap();
        assert!(shortest_path(&t, 0, 3).is_none());
        assert_eq!(diameter(&t), None);
        let hops = all_pairs_hops(&t);
        assert_eq!(hops[0][1], Some(1));
        assert_eq!(hops[0][2], None);
    }

    #[test]
    fn weighted_prefers_cheap_detour() {
        // 0→1 direct (weight 10) vs 0→2→1 (weight 2).
        let mut t = Topology::new(3, "detour");
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(0, 2, 1.0).unwrap();
        t.add_link(2, 1, 1.0).unwrap();
        let (cost, p) = shortest_path_weighted(&t, 0, 1, &[10.0, 1.0, 1.0]).unwrap();
        assert!((cost - 2.0).abs() < 1e-12);
        assert_eq!(p.nodes, vec![0, 2, 1]);
        // With uniform weights the direct hop wins.
        let (cost, p) = shortest_path_weighted(&t, 0, 1, &[1.0, 1.0, 1.0]).unwrap();
        assert!((cost - 1.0).abs() < 1e-12);
        assert_eq!(p.hops(), 1);
    }

    #[test]
    fn bfs_deterministic_tie_break() {
        // Two equal-hop routes 0→1→3 and 0→2→3; link insertion order decides.
        let mut t = Topology::new(4, "diamond");
        t.add_link(0, 1, 1.0).unwrap();
        t.add_link(0, 2, 1.0).unwrap();
        t.add_link(1, 3, 1.0).unwrap();
        t.add_link(2, 3, 1.0).unwrap();
        let p1 = shortest_path(&t, 0, 3).unwrap();
        let p2 = shortest_path(&t, 0, 3).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.nodes, vec![0, 1, 3]);
    }
}
