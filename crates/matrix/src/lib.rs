//! # aps-matrix — matchings, demand matrices and BvN decomposition
//!
//! Linear-algebraic substrate for the adaptive photonic scale-up domain
//! stack. This crate provides the objects that Observation 1 of the paper
//! ("collectives induce BvN decompositions") is stated over:
//!
//! * [`Matching`] — a (partial) permutation of `n` endpoints. One collective
//!   communication step *is* a matching: every GPU sends to at most one peer
//!   and receives from at most one peer. A photonic circuit-switch
//!   configuration is *also* a matching (TX port → RX port), which is why the
//!   same type is used by `aps-fabric`.
//! * [`DemandMatrix`] — an `n × n` non-negative traffic matrix; the aggregate
//!   demand of a collective is the weighted sum of its step matchings
//!   (eq. (1) of the paper).
//! * [`bipartite`] — Hopcroft–Karp maximum bipartite matching, the engine
//!   behind Birkhoff's constructive proof.
//! * [`bvn`] — Birkhoff–von Neumann decomposition: express a doubly-balanced
//!   demand matrix as a convex combination of matchings.
//! * [`BitSet`] — a small dense bit-set used by the collective-semantics
//!   verifier in `aps-collectives` (contribution tracking).
//!
//! Everything here is deterministic and allocation-conscious: a matching is
//! a single `u32` buffer (4 bytes per port, at most `u32::MAX` ports) that
//! its clones share copy-on-write, matrices a single row-major `Vec<f64>`.

pub mod bipartite;
pub mod bitset;
pub mod bvn;
pub mod demand;
pub mod error;
pub mod matching;

pub use bitset::BitSet;
pub use bvn::{BvnDecomposition, BvnTerm};
pub use demand::DemandMatrix;
pub use error::MatrixError;
pub use matching::Matching;
