//! # aps-collectives — collective algorithms as sequences of matchings
//!
//! The paper models a collective communication algorithm as a sequence of
//! steps `⟨M₁, …, M_s⟩` with volumes `⟨m₁, …, m_s⟩`, where each `Mᵢ` is a
//! matching (every GPU sends to at most one peer and receives from at most
//! one peer). This crate implements the classic algorithms in that form:
//!
//! | Collective     | Algorithms |
//! |----------------|------------|
//! | AllReduce      | ring, recursive doubling (full vector), recursive halving-doubling (Rabenseifner), Swing |
//! | All-to-All     | linear shift, XOR exchange, Bruck |
//! | AllGather      | ring, recursive doubling |
//! | ReduceScatter  | ring, recursive halving |
//! | Broadcast      | binomial tree |
//! | Barrier        | dissemination |
//!
//! Every builder returns a [`Collective`]: the coarse [`Schedule`] the cost
//! model consumes (matchings + volumes; Observation 1: these *are* a BvN
//! decomposition of the aggregate demand). Each builder describes its
//! algorithm once — who sends which chunks to whom at each step — and
//! building keeps only the matchings and per-step volumes: O(n) per
//! distinct matching, and O(1) for each step that is a whole shift or XOR
//! exchange, so a ring AllReduce builds one shift for all its `2(n − 1)`
//! steps. The chunk-level [`DataFlow`] that
//! records exactly which data moves where is listed from the same
//! description on demand, by [`Collective::check`] and
//! [`Collective::dataflow`]. Beyond materialized
//! schedules, the [`workload`] module streams demand lazily: the
//! [`Workload`] trait unifies schedules, seeded traffic generators and
//! training loops behind one pull-based interface, so open-ended demand
//! runs without ever being materialized. The [`verify`] module
//! executes the data flow symbolically — tracking the set of GPU
//! contributions folded into every chunk — and checks the collective's
//! semantics (e.g. "after AllReduce every GPU's every chunk contains every
//! GPU's contribution"). This catches off-by-one errors in step patterns
//! that a matching-level model would happily cost out.

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod barrier;
pub mod broadcast;
pub(crate) mod builder;
pub mod collective;
pub mod dataflow;
pub mod error;
pub mod gather;
pub mod reduce_scatter;
pub mod scatter;
pub mod schedule;
pub mod stencil;
pub mod verify;
pub mod workload;

pub use collective::Collective;
pub use dataflow::{Combine, DataFlow, DataFlowStep, Semantics, Transfer};
pub use error::{CollectiveError, VerifyError};
pub use schedule::{CollectiveKind, Schedule, Step};
pub use workload::{ScheduleStream, Workload, WorkloadCtx};
