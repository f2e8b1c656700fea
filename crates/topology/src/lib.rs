//! # aps-topology — capacitated network topologies for scale-up domains
//!
//! Directed, capacitated graphs modelling the *physical* connectivity that a
//! photonic interconnect configuration induces between GPUs, plus the
//! structured base topologies the paper discusses (§3.1, §3.3):
//!
//! * unidirectional and bidirectional rings — "a common choice for scale-up
//!   photonic interconnects" and the base topology `G` of the paper's
//!   evaluation;
//! * 2-D tori, hypercubes and full meshes — classic scale-up fabrics that
//!   topology-aware collectives target;
//! * unions of co-prime rings — the multi-base extension the paper points to
//!   (citing TopoOpt);
//! * matched topologies built directly from a [`aps_matrix::Matching`] — the
//!   "reconfigure to the pattern" configurations with one dedicated circuit
//!   per communicating pair.
//!
//! A circuit configuration (unidirectional rings, matched topologies, every
//! switch state) is a set of chains and cycles; [`Circuits`] lays it out so
//! that every route is a run of consecutive slots.
//!
//! **Capacity convention.** Link capacities are normalized to the
//! electrical-to-optical transceiver bandwidth `b` (§3.1): a node with
//! out-degree `d` splits its transceiver across `d` egress links of capacity
//! `1/d` each. A matched topology dedicates the full transceiver to one
//! circuit (capacity 1). With this convention the maximum concurrent flow
//! `θ(G, M)` computed by `aps-flow` plugs directly into the cost model's
//! congestion factor `1/θ` (eq. (3) of the paper).

pub mod builders;
pub mod circuits;
pub mod error;
pub mod graph;
pub mod paths;
pub mod properties;

pub use circuits::Circuits;
pub use error::TopologyError;
pub use graph::{Link, LinkId, Topology};
pub use paths::Path;
