//! The core directed, capacitated graph type.

use crate::error::TopologyError;

/// Index of a link within a [`Topology`].
pub type LinkId = usize;

/// 64-bit FNV-1a offset basis and prime; the basis is the digest of a
/// topology with no links ([`Topology::digest`]).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A directed, capacitated link between two nodes.
///
/// Capacities are normalized to the transceiver bandwidth `b` (see the crate
/// docs): `capacity = 1.0` means the link can carry the node's full optical
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Normalized capacity (fraction of transceiver bandwidth `b`).
    pub capacity: f64,
}

/// A directed, capacitated multigraph over `n` nodes (GPUs).
///
/// Nodes are plain `usize` indices `0..n`. Links are stored in insertion
/// order and addressed by [`LinkId`]; adjacency lists are maintained for both
/// directions so BFS/Dijkstra and flow algorithms run without building
/// auxiliary structures.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    n: usize,
    name: String,
    links: Vec<Link>,
    out_adj: Vec<Vec<LinkId>>,
    in_adj: Vec<Vec<LinkId>>,
    digest: u64,
}

impl Topology {
    /// Creates an empty topology over `n` nodes.
    pub fn new(n: usize, name: impl Into<String>) -> Self {
        Self {
            n,
            name: name.into(),
            links: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
            digest: FNV_OFFSET,
        }
    }

    /// Adds a directed link and returns its id.
    ///
    /// Parallel links are allowed (multigraph); self-loops are not, and
    /// capacities must be positive finite numbers.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range endpoints, self-loops, or a
    /// capacity that is not positive and finite (zero, negative, NaN, ±∞).
    pub fn add_link(
        &mut self,
        src: usize,
        dst: usize,
        capacity: f64,
    ) -> Result<LinkId, TopologyError> {
        if src >= self.n {
            return Err(TopologyError::NodeOutOfRange {
                node: src,
                n: self.n,
            });
        }
        if dst >= self.n {
            return Err(TopologyError::NodeOutOfRange {
                node: dst,
                n: self.n,
            });
        }
        if src == dst {
            return Err(TopologyError::SelfLoopLink(src));
        }
        if capacity <= 0.0 || !capacity.is_finite() {
            return Err(TopologyError::NonPositiveCapacity { src, dst, capacity });
        }
        let id = self.links.len();
        self.links.push(Link { src, dst, capacity });
        self.out_adj[src].push(id);
        self.in_adj[dst].push(id);
        for word in [src as u64, dst as u64, capacity.to_bits()] {
            self.digest = (self.digest ^ word).wrapping_mul(FNV_PRIME);
        }
        Ok(id)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Human-readable topology name (e.g. `"uni-ring(64)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A 64-bit digest of the links in insertion order: FNV-1a with one step
    /// per 64-bit word, over each link's `src`, `dst` and capacity bits.
    /// Topologies with the same links in the same order share it whatever
    /// their names, and changing one word of one link always changes it; a
    /// θ cache compares it to tell the topology it was built for from any
    /// other.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// All links in insertion order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id]
    }

    /// Ids of links leaving `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n`.
    pub fn out_links(&self, node: usize) -> &[LinkId] {
        &self.out_adj[node]
    }

    /// Ids of links entering `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n`.
    pub fn in_links(&self, node: usize) -> &[LinkId] {
        &self.in_adj[node]
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: usize) -> usize {
        self.out_adj[node].len()
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: usize) -> usize {
        self.in_adj[node].len()
    }

    /// Total egress capacity of `node` (should be ≤ 1.0 under the
    /// transceiver-normalized convention).
    pub fn egress_capacity(&self, node: usize) -> f64 {
        self.out_adj[node]
            .iter()
            .map(|&l| self.links[l].capacity)
            .sum()
    }

    /// Total ingress capacity of `node`.
    pub fn ingress_capacity(&self, node: usize) -> f64 {
        self.in_adj[node]
            .iter()
            .map(|&l| self.links[l].capacity)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_link_maintains_adjacency() {
        let mut t = Topology::new(3, "test");
        let a = t.add_link(0, 1, 1.0).unwrap();
        let b = t.add_link(1, 2, 0.5).unwrap();
        let c = t.add_link(0, 2, 0.25).unwrap();
        assert_eq!(t.out_links(0), &[a, c]);
        assert_eq!(t.in_links(2), &[b, c]);
        assert_eq!(t.out_degree(0), 2);
        assert_eq!(t.in_degree(0), 0);
        assert!((t.egress_capacity(0) - 1.25).abs() < 1e-12);
        assert!((t.ingress_capacity(2) - 0.75).abs() < 1e-12);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.link(b).capacity, 0.5);
    }

    #[test]
    fn rejects_bad_links() {
        let mut t = Topology::new(2, "test");
        assert!(matches!(
            t.add_link(0, 5, 1.0),
            Err(TopologyError::NodeOutOfRange { node: 5, .. })
        ));
        assert!(matches!(
            t.add_link(9, 0, 1.0),
            Err(TopologyError::NodeOutOfRange { node: 9, .. })
        ));
        assert_eq!(t.add_link(1, 1, 1.0), Err(TopologyError::SelfLoopLink(1)));
        assert!(matches!(
            t.add_link(0, 1, 0.0),
            Err(TopologyError::NonPositiveCapacity { .. })
        ));
        assert!(matches!(
            t.add_link(0, 1, -2.0),
            Err(TopologyError::NonPositiveCapacity { .. })
        ));
        assert!(matches!(
            t.add_link(0, 1, f64::NAN),
            Err(TopologyError::NonPositiveCapacity { .. })
        ));
        assert!(matches!(
            t.add_link(0, 1, f64::INFINITY),
            Err(TopologyError::NonPositiveCapacity { .. })
        ));
    }

    #[test]
    fn digest_follows_the_links_not_the_name() {
        let build = |name: &str, links: &[(usize, usize, f64)]| {
            let mut t = Topology::new(3, name);
            for &(s, d, c) in links {
                t.add_link(s, d, c).unwrap();
            }
            t
        };
        let a = build("a", &[(0, 1, 1.0), (1, 2, 0.5)]);
        assert_eq!(a.digest(), build("b", &[(0, 1, 1.0), (1, 2, 0.5)]).digest());
        assert_ne!(a.digest(), build("a", &[(1, 2, 0.5), (0, 1, 1.0)]).digest());
        assert_ne!(
            a.digest(),
            build("a", &[(0, 1, 1.0), (1, 2, 0.25)]).digest()
        );
        assert_ne!(a.digest(), build("a", &[(0, 1, 1.0), (2, 1, 0.5)]).digest());
        assert_ne!(a.digest(), build("a", &[(0, 1, 1.0)]).digest());
        assert_eq!(Topology::new(3, "a").digest(), FNV_OFFSET);
    }

    #[test]
    fn parallel_links_allowed() {
        let mut t = Topology::new(2, "test");
        t.add_link(0, 1, 0.5).unwrap();
        t.add_link(0, 1, 0.5).unwrap();
        assert_eq!(t.num_links(), 2);
        assert_eq!(t.out_degree(0), 2);
    }
}
