//! # aps-core — circuit-switching schedule optimization (§3.3 of the paper)
//!
//! The paper's central contribution: given a collective
//! `⟨(M₁, m₁), …, (M_s, m_s)⟩` running on a scale-up domain whose photonic
//! fabric can either stay on a base topology `G` or reconfigure to match
//! each step's pattern, choose per step
//!
//! ```text
//! xᵢ = 1  → run step i on the base topology G   (congestion 1/θᵢ, hops ℓᵢ)
//! xᵢ = 0  → reconfigure to the matched topology Mᵢ (θ = 1, ℓ = 1, pay α_r)
//! ```
//!
//! minimizing eq. (7):
//!
//! ```text
//! min  δ·Σ (xᵢ·ℓᵢ + (1−xᵢ))  +  Σ (1−zᵢ)·α_r  +  s·α
//!      + β·Σ mᵢ·(xᵢ/θᵢ + (1−xᵢ))
//! s.t. zᵢ = xᵢ ∧ xᵢ₋₁,  x₀ = 1
//! ```
//!
//! The 0–1 program couples only adjacent steps, so the exact optimum falls
//! out of an `O(s)` dynamic program ([`dp::optimize`]) — the "efficient
//! dynamic programming solution" the paper invokes via the principle of
//! optimality. An exhaustive solver ([`brute::optimize_exhaustive`]) and a
//! proptest suite pin the DP to the ILP objective.
//!
//! On top of the solver this crate provides the evaluation machinery of
//! §3.4 behind one open abstraction: the [`controller::Controller`] trait.
//! A controller observes each step's demand and the fabric's state and
//! decides whether the fabric bends ([`ConfigChoice::Matched`], pay `α_r`)
//! or stays put ([`ConfigChoice::Base`]). The baselines (static base,
//! per-step BvN), the threshold heuristic, an online greedy rule and the
//! DP optimum all ship as controllers. Planning is one path: build the
//! eq. (7) instance with [`SwitchingProblem::build`], let a controller
//! choose with [`Controller::plan`], and price the choice with
//! [`evaluate`]; [`sweep::plan_jobs_on`] and the simulator's adaptive
//! executor accept any `&dyn Controller`. Multi-base-topology pools, whose
//! optimum is the same trellis over one state per base plus matched, and
//! the `α_r × message-size` sweep that regenerates the paper's heatmaps
//! complete the picture.

pub mod analysis;
pub mod assignment;
pub mod brute;
pub mod controller;
pub mod dp;
pub mod error;
pub mod explain;
pub mod multibase;
pub mod objective;
pub mod policies;
pub mod problem;
pub mod sweep;

pub use assignment::{ConfigChoice, SwitchSchedule};
pub use controller::{Controller, StepObservation};
pub use error::CoreError;
pub use objective::{evaluate, CostReport, ReconfigAccounting};
pub use problem::SwitchingProblem;
