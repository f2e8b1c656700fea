//! # aps-flow — maximum concurrent flow for collective steps
//!
//! The congestion factor of the paper's cost model (eq. (3)) is `1/θ(G, Mᵢ)`
//! where `θ(G, Mᵢ)` — the *maximum concurrent flow* — is the largest fraction
//! of the step's demand matrix that can be routed simultaneously without
//! exceeding any link capacity. This crate computes `θ` (and the
//! propagation hop count `ℓᵢ`) with several interchangeable solvers:
//!
//! * [`forced::forced_path_throughput`] — exact when routing is forced
//!   (unidirectional rings, matched topologies) and a deterministic
//!   achievable bound elsewhere; this is what the flow-level simulator
//!   realizes, so model and simulation agree by construction. Circuit
//!   topologies are priced in `O(n)`; [`forced::reference`] is its
//!   one-BFS-per-pair oracle.
//! * [`gk::max_concurrent_flow`] — the Garg–Könemann/Fleischer FPTAS for
//!   arbitrary topologies with splittable routing; returns certified lower
//!   *and* upper (LP-dual) bounds.
//! * [`proxy::degree_proxy_throughput`] — the cheap degree/path-length upper
//!   bound the paper's research agenda suggests as a runtime-friendly
//!   congestion proxy (§4 "Simplifying the congestion factor").
//!
//! The [`solver::ThroughputSolver`] enum and [`solver::ThetaCache`] tie these
//! together behind one API used by `aps-cost` and `aps-core`.

pub mod error;
pub mod forced;
pub mod gk;
pub mod proxy;
pub mod solver;

pub use error::FlowError;
pub use solver::{step_throughput, CacheStats, StepThroughput, ThetaCache, ThroughputSolver};
