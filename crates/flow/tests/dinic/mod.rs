//! Dinic's single-commodity maximum flow: a test oracle for the
//! concurrent-flow solvers on single-commodity instances.

/// A directed edge for the flow network.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    cap: f64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// Dinic max-flow solver over an explicit node set.
#[derive(Debug)]
pub struct Dinic {
    graph: Vec<Vec<Edge>>,
}

impl Dinic {
    /// Creates a flow network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            graph: vec![Vec::new(); n],
        }
    }

    /// Adds a directed edge `u → v` with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the capacity is negative.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64) {
        assert!(
            u < self.graph.len() && v < self.graph.len(),
            "endpoint out of range"
        );
        assert!(cap >= 0.0, "negative capacity");
        let rev_u = self.graph[v].len();
        let rev_v = self.graph[u].len();
        self.graph[u].push(Edge {
            to: v,
            cap,
            rev: rev_u,
        });
        self.graph[v].push(Edge {
            to: u,
            cap: 0.0,
            rev: rev_v,
        });
    }

    /// Computes the maximum `s → t` flow. `O(V²E)` worst case, far better on
    /// unit-ish networks.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        assert!(s < self.graph.len() && t < self.graph.len());
        if s == t {
            return 0.0;
        }
        const EPS: f64 = 1e-12;
        let mut total = 0.0;
        loop {
            // BFS level graph.
            let mut level = vec![usize::MAX; self.graph.len()];
            level[s] = 0;
            let mut q = std::collections::VecDeque::from([s]);
            while let Some(u) = q.pop_front() {
                for e in &self.graph[u] {
                    if e.cap > EPS && level[e.to] == usize::MAX {
                        level[e.to] = level[u] + 1;
                        q.push_back(e.to);
                    }
                }
            }
            if level[t] == usize::MAX {
                return total;
            }
            // DFS blocking flow with iteration pointers.
            let mut iter = vec![0usize; self.graph.len()];
            loop {
                let f = self.dfs(s, t, f64::INFINITY, &level, &mut iter);
                if f <= EPS {
                    break;
                }
                total += f;
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: f64, level: &[usize], iter: &mut [usize]) -> f64 {
        const EPS: f64 = 1e-12;
        if u == t {
            return limit;
        }
        while iter[u] < self.graph[u].len() {
            let (to, cap, rev) = {
                let e = &self.graph[u][iter[u]];
                (e.to, e.cap, e.rev)
            };
            if cap > EPS && level[to] == level[u] + 1 {
                let d = self.dfs(to, t, limit.min(cap), level, iter);
                if d > EPS {
                    self.graph[u][iter[u]].cap -= d;
                    self.graph[to][rev].cap += d;
                    return d;
                }
            }
            iter[u] += 1;
        }
        0.0
    }
}

/// Maximum rate a *single* pair `(src, dst)` can sustain on `topo` when it
/// has the network to itself (splittable routing).
///
/// This is a per-commodity upper bound on the concurrent flow of any
/// matching containing the pair: `θ(G, M) ≤ pair_max_flow(G, s, d)` for all
/// `(s, d) ∈ M`. It is also the oracle used by tests of the multicommodity
/// solvers on single-commodity instances, where both must agree exactly.
pub fn pair_max_flow(topo: &aps_topology::Topology, src: usize, dst: usize) -> f64 {
    let mut d = Dinic::new(topo.n());
    for l in topo.links() {
        d.add_edge(l.src, l.dst, l.capacity);
    }
    d.max_flow(src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_matrix::Matching;
    use aps_topology::builders;

    #[test]
    fn simple_series_parallel() {
        //     ┌─1(3)─┐
        // 0 ──┤      ├── 3 , plus 0→3 direct cap 1
        //     └─2(2)─┘
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 3.0);
        d.add_edge(1, 3, 3.0);
        d.add_edge(0, 2, 2.0);
        d.add_edge(2, 3, 2.0);
        d.add_edge(0, 3, 1.0);
        assert!((d.max_flow(0, 3) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_respected() {
        let mut d = Dinic::new(3);
        d.add_edge(0, 1, 10.0);
        d.add_edge(1, 2, 0.5);
        assert!((d.max_flow(0, 2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn disconnected_zero() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 1.0);
        d.add_edge(2, 3, 1.0);
        assert_eq!(d.max_flow(0, 3), 0.0);
        assert_eq!(d.max_flow(0, 0), 0.0);
    }

    #[test]
    fn residual_allows_rerouting() {
        // Classic example where a greedy path must be undone via residuals.
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 1.0);
        d.add_edge(0, 2, 1.0);
        d.add_edge(1, 2, 1.0);
        d.add_edge(1, 3, 1.0);
        d.add_edge(2, 3, 1.0);
        assert!((d.max_flow(0, 3) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pair_max_flow_on_rings() {
        let uni = builders::ring_unidirectional(8).unwrap();
        // Single forced path of capacity 1.
        assert!((pair_max_flow(&uni, 0, 5) - 1.0).abs() < 1e-9);
        let bi = builders::ring_bidirectional(8).unwrap();
        // Both directions usable: 0.5 + 0.5.
        assert!((pair_max_flow(&bi, 0, 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pair_max_flow_upper_bounds_concurrent_flow() {
        use aps_flow::forced::forced_path_throughput;
        let t = builders::ring_unidirectional(8).unwrap();
        let m = Matching::shift(8, 3).unwrap();
        let (theta, _) = forced_path_throughput(&t, &m).unwrap();
        for (s, d) in m.pairs() {
            assert!(theta <= pair_max_flow(&t, s, d) + 1e-9);
        }
    }

    #[test]
    fn pair_max_flow_on_matched_and_disconnected() {
        let shift3 = Matching::shift(8, 3).unwrap();
        let matched = builders::from_matching(&shift3);
        // Dedicated circuit, then relaying around the single cycle formed by
        // shift(3) circuits (gcd(3,8)=1 → one cycle): always reachable, 1.0.
        assert!((pair_max_flow(&matched, 0, 3) - 1.0).abs() < 1e-9);
        assert!((pair_max_flow(&matched, 0, 1) - 1.0).abs() < 1e-9);
        let mut islands = Dinic::new(4);
        islands.add_edge(0, 1, 1.0);
        assert_eq!(islands.max_flow(2, 3), 0.0);
    }
}
