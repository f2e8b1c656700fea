//! # aps-cost — the α–β–δ cost model grounded in concurrent flow
//!
//! Observation 2 of the paper: the classic α–β cost model for collectives
//! emerges from per-step demand completion times once congestion is made
//! explicit through the maximum concurrent flow:
//!
//! ```text
//! DCT(mᵢ·Mᵢ) = α  +  δ·ℓᵢ  +  β·mᵢ·(1 / θ(G, Mᵢ))          (eq. 3)
//!              ︿      ︿            ︿
//!           latency  propagation  bandwidth × congestion
//! ```
//!
//! with `β = 1/b` (`b` = transceiver bandwidth). Eq. (3) is what the
//! planner prices with: `aps-core`'s objective, its DP and its multi-base
//! pool all cost a step through [`dct::dct`], on the base topology at the
//! step's `(θᵢ, ℓᵢ)` or matched at `(1, 1)`. The static completion time
//! `t_c = s·α + Σ δ·ℓᵢ + β·Σ mᵢ/θᵢ` (eq. 4) is that objective on a
//! schedule that never leaves the base (`aps_core::evaluate` on
//! `SwitchSchedule::all_base`).
//!
//! This crate provides:
//!
//! * [`units`] — seconds/bytes/bandwidth conversions and the picosecond
//!   integer clock shared with the simulator;
//! * [`params::CostParams`] — `α`, `β`, `δ` with the paper's §3.4 defaults;
//! * [`reconfig::ReconfigModel`] — constant and per-port-affine
//!   reconfiguration delay models (`α_r`, research agenda §4);
//! * [`dct`] — per-step demand completion time with its breakdown;
//! * [`steptable`] — evaluation of `θ(G, Mᵢ)` and `ℓᵢ` for every step of a
//!   schedule (the precomputation both the optimizer and the baselines run
//!   on).

pub mod dct;
pub mod params;
pub mod reconfig;
pub mod steptable;
pub mod units;

pub use dct::DctBreakdown;
pub use params::CostParams;
pub use reconfig::ReconfigModel;
pub use steptable::{step_cost_table, StepCosts};
