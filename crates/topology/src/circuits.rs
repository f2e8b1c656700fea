//! Circuit configurations laid out as runs of slots.
//!
//! In a circuit configuration every node has at most one out-link and one
//! in-link ([`crate::properties::is_circuit_configuration`]), so the links
//! form disjoint chains and cycles, and the only route from `src` to `dst`
//! is the walk along `src`'s chain or cycle. [`Circuits`] lays the
//! configuration out in successor order: chains first, each from its node
//! with no in-link, then cycles. Node `v` sits at [`Circuits::slot`]`(v)`,
//! and the link leaving it is the link of that slot, so every route is an
//! *arc*: a run of consecutive slots, wrapping past a cycle's last slot to
//! its first. A chain of `len` nodes has `len − 1` links; its last slot has
//! none.
//!
//! Both forced-path θ (`aps_flow::forced`) and the simulator's step engine
//! (`aps_sim::fluid`) route on this layout. The step engine refills one
//! layout in place ([`Circuits::refill`]), so it stops allocating once it
//! has seen its largest configuration, and reads each slot's link id for
//! its bottleneck tie-break. θ lays a topology out with
//! [`Circuits::of_topology`], which records no link ids: θ reads only slots.

use crate::Topology;

/// Marks a missing node, slot or link.
const NONE: usize = usize::MAX;

/// One chain or cycle of a circuit configuration: a run of slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Component {
    /// First slot.
    pub start: usize,
    /// Number of slots (nodes).
    pub len: usize,
    /// `true` for a cycle, `false` for a chain.
    pub cycle: bool,
}

impl Component {
    /// One past the last slot.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A circuit configuration laid out in successor order; see the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Circuits {
    /// Per node: the node its out-link reaches, [`NONE`] without one.
    next: Vec<usize>,
    /// Per node: the id of its out-link, [`NONE`] without one; empty when
    /// the layout records no link ids.
    link: Vec<usize>,
    /// Per node: `true` when some link reaches it.
    fed: Vec<bool>,
    /// Per node: its slot.
    slot: Vec<usize>,
    /// Per node: the index of its component in `components`.
    component: Vec<usize>,
    /// Per slot: the id of the link leaving it, [`NONE`] at a chain's end;
    /// empty when the layout records no link ids.
    link_at: Vec<usize>,
    /// Chains, then cycles, in slot order.
    components: Vec<Component>,
}

impl Circuits {
    /// An empty layout (no nodes); fill it with [`Circuits::refill`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The layout of `topo`, or `None` when it is not a circuit
    /// configuration. It records no link ids: its [`Circuits::link_at`] is
    /// `None` at every slot.
    pub fn of_topology(topo: &Topology) -> Option<Self> {
        if !crate::properties::is_circuit_configuration(topo) {
            return None;
        }
        let mut layout = Self::new();
        layout.fill(topo.n(), topo.links().iter().map(|l| (l.src, l.dst)), false);
        Some(layout)
    }

    /// Lays out the `n`-node configuration whose links are `links`, given as
    /// `(src, dst)` in link-id order (the `i`-th item is link `i`). Reuses
    /// the buffers of the previous layout.
    ///
    /// # Panics
    ///
    /// Panics when an endpoint is out of range, or when a node has two
    /// out-links or two in-links: such a graph is not a circuit
    /// configuration.
    pub fn refill(&mut self, n: usize, links: impl IntoIterator<Item = (usize, usize)>) {
        self.fill(n, links, true);
    }

    /// [`Circuits::refill`], recording link ids only when `ids` is set.
    fn fill(&mut self, n: usize, links: impl IntoIterator<Item = (usize, usize)>, ids: bool) {
        let with_ids = if ids { n } else { 0 };
        reset(&mut self.next, n, NONE);
        reset(&mut self.link, with_ids, NONE);
        reset(&mut self.fed, n, false);
        reset(&mut self.slot, n, NONE);
        reset(&mut self.component, n, NONE);
        reset(&mut self.link_at, with_ids, NONE);
        self.components.clear();
        for (id, (src, dst)) in links.into_iter().enumerate() {
            assert!(
                self.next[src] == NONE && !self.fed[dst],
                "link {src} -> {dst} gives a node a second circuit"
            );
            self.next[src] = dst;
            if ids {
                self.link[src] = id;
            }
            self.fed[dst] = true;
        }
        for v in 0..n {
            if !self.fed[v] {
                self.walk(v, false);
            }
        }
        // Every node left has one in-link and one out-link: it lies on a
        // cycle.
        for v in 0..n {
            if self.slot[v] == NONE {
                self.walk(v, true);
            }
        }
    }

    /// Lays out the component that starts at `first` in the next free
    /// slots, following `next` until a chain's end or back to `first`.
    fn walk(&mut self, first: usize, cycle: bool) {
        let id = self.components.len();
        let start = self.components.last().map_or(0, Component::end);
        let mut at = start;
        let mut u = first;
        while u != NONE && self.slot[u] == NONE {
            self.slot[u] = at;
            self.component[u] = id;
            if let Some(&l) = self.link.get(u) {
                self.link_at[at] = l;
            }
            at += 1;
            u = self.next[u];
        }
        self.components.push(Component {
            start,
            len: at - start,
            cycle,
        });
    }

    /// The slot of node `v`.
    pub fn slot(&self, v: usize) -> usize {
        self.slot[v]
    }

    /// The chain or cycle node `v` lies on.
    pub fn component_of(&self, v: usize) -> Component {
        self.components[self.component[v]]
    }

    /// The index in [`Circuits::components`] of node `v`'s chain or cycle.
    pub fn component_index(&self, v: usize) -> usize {
        self.component[v]
    }

    /// Every chain, then every cycle, in slot order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The id of the link leaving slot `s`; `None` at a chain's last slot,
    /// and everywhere on a layout that records no link ids.
    pub fn link_at(&self, s: usize) -> Option<usize> {
        self.link_at.get(s).copied().filter(|&l| l != NONE)
    }

    /// The route from `src` to `dst` as an arc `(first slot, hops)`: the
    /// links of slots `first, first + 1, …`, wrapping past the end of a
    /// cycle to its start. `None` when there is no route: `dst` lies on
    /// another chain or cycle, or upstream of `src` on a chain (which
    /// includes `src` ending its chain, so sending on no circuit). On a
    /// cycle `dst == src` is the whole cycle.
    pub fn route(&self, src: usize, dst: usize) -> Option<(usize, usize)> {
        if self.component[src] != self.component[dst] {
            return None;
        }
        let (a, b) = (self.slot[src], self.slot[dst]);
        if b > a {
            Some((a, b - a))
        } else if self.components[self.component[src]].cycle {
            Some((a, b + self.components[self.component[src]].len - a))
        } else {
            None
        }
    }
}

/// Empties `v` and fills it with `n` copies of `fill`, keeping its capacity.
fn reset<T: Copy>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    /// Chain 4 → 0 → 2, cycle 1 → 3 → 1, and node 5 alone.
    fn mixed() -> Circuits {
        let mut c = Circuits::new();
        c.refill(6, [(0, 2), (1, 3), (3, 1), (4, 0)]);
        c
    }

    #[test]
    fn chains_come_first_then_cycles() {
        let c = mixed();
        assert_eq!(
            c.components(),
            &[
                Component {
                    start: 0,
                    len: 3,
                    cycle: false
                },
                Component {
                    start: 3,
                    len: 1,
                    cycle: false
                },
                Component {
                    start: 4,
                    len: 2,
                    cycle: true
                },
            ]
        );
        let slots: Vec<usize> = (0..6).map(|v| c.slot(v)).collect();
        assert_eq!(slots, [1, 4, 2, 5, 0, 3]);
        // Links keep their ids: 4 → 0 is link 3, 0 → 2 link 0.
        let links: Vec<Option<usize>> = (0..6).map(|s| c.link_at(s)).collect();
        assert_eq!(links, [Some(3), Some(0), None, None, Some(1), Some(2)]);
    }

    #[test]
    fn routes_are_arcs_or_nothing() {
        let c = mixed();
        assert_eq!(c.route(4, 2), Some((0, 2)));
        assert_eq!(c.route(0, 2), Some((1, 1)));
        // Upstream, from the chain's end, and onto another component.
        assert_eq!(c.route(2, 4), None);
        assert_eq!(c.route(2, 0), None);
        assert_eq!(c.route(4, 1), None);
        assert_eq!(c.route(5, 5), None);
        // Around the cycle, and all the way round.
        assert_eq!(c.route(3, 1), Some((5, 1)));
        assert_eq!(c.route(1, 3), Some((4, 1)));
        assert_eq!(c.route(1, 1), Some((4, 2)));
    }

    #[test]
    fn a_refill_forgets_the_previous_layout() {
        let mut c = mixed();
        c.refill(3, [(2, 0)]);
        let fresh = {
            let mut f = Circuits::new();
            f.refill(3, [(2, 0)]);
            f
        };
        assert_eq!(c.components(), fresh.components());
        for v in 0..3 {
            assert_eq!(c.slot(v), fresh.slot(v));
            assert_eq!(c.link_at(v), fresh.link_at(v));
        }
    }

    #[test]
    fn only_circuit_topologies_lay_out() {
        let ring = Circuits::of_topology(&builders::ring_unidirectional(5).unwrap()).unwrap();
        assert_eq!(
            ring.components(),
            &[Component {
                start: 0,
                len: 5,
                cycle: true
            }]
        );
        assert_eq!(ring.route(3, 1), Some((3, 3)));
        assert_eq!(ring.link_at(0), None, "θ's layout records no link ids");
        assert!(Circuits::of_topology(&builders::ring_bidirectional(5).unwrap()).is_none());
    }

    #[test]
    #[should_panic(expected = "second circuit")]
    fn a_node_with_two_out_links_is_refused() {
        Circuits::new().refill(3, [(0, 1), (0, 2)]);
    }
}
