//! # aps-sim — deterministic flow-level simulator for adaptive scale-up domains
//!
//! The paper's evaluation methodology (§3.4) is "a flow-level simulator that
//! implements the optimization framework". This crate is that simulator,
//! rebuilt: a deterministic discrete-event engine on an integer picosecond
//! clock that executes a collective [`aps_collectives::Schedule`] under a
//! circuit-switch schedule from `aps-core`, against a [`aps_fabric::Fabric`]
//! device model.
//!
//! Per step, the simulated timeline is:
//!
//! 1. **barrier** — GPUs synchronize (shared-memory barrier, §3.1);
//! 2. **α** — fixed step preparation latency;
//! 3. **reconfiguration** — if the switch schedule asks for a configuration
//!    different from the fabric's current one, the fabric model prices it
//!    (constant, per-port, or per-port-tuning for wavelength fabrics);
//! 4. **transfer** — one fluid flow per communicating pair, routed on the
//!    *current circuit topology* (multi-hop relaying across circuits when
//!    running on the base), sharing links by max-min fairness; each flow
//!    completes after its last byte drains plus `δ × hops` propagation;
//! 5. **compute** — optional reduction compute, optionally overlapped with
//!    the *next* step's reconfiguration (research agenda §4).
//!
//! For uniform-volume steps the max-min fluid model reproduces the
//! analytic `β·m/θ` transmission term exactly, so simulator and cost model
//! cross-validate each other (see `tests/model_vs_sim.rs` at the workspace
//! root).

//!
//! One step loop executes every run:
//! [`service::ServiceExecutor::execute_next`]. Each entry point admits
//! one or more jobs into a [`ServiceExecutor`] and drains it. There is one
//! entry point per kind of job, named after where the job's decisions
//! come from:
//!
//! * a fixed switch schedule — [`exec::run_scheduled`];
//! * a [`aps_core::controller::Controller`] that observes the whole
//!   eq. (7) problem — [`exec::run_adaptive`], which tags the trace with
//!   each decision's rationale ([`TraceKind::Decision`]);
//! * a controller that observes a two-step priced window of a lazily
//!   pulled [`aps_collectives::Workload`], in O(1) schedule memory —
//!   [`stream::run_workload`] keeps the full report,
//!   [`stream::run_workload_totals`] keeps an O(1) summary for
//!   million-step runs, and [`stream::run_workload_segment`] adds
//!   checkpoint and resume to it;
//! * several tenants sharing one fabric (disjoint port partitions,
//!   arbitrated controller) — [`tenant::execute_tenants`];
//!   [`Scenario::run_on`] runs the named mixes of [`scenarios`], each
//!   tenant plannable under any controller via [`Scenario::plan`].
//!
//! The `aps-faas` service engine drives a [`ServiceExecutor`] directly,
//! admitting and removing jobs as they arrive and depart. Batches of
//! independent runs go through [`aps_par::Pool::try_map`]. All of this is
//! normally reached through the `adaptive_photonics::Experiment` facade
//! at the workspace root.

pub mod arena;
pub mod error;
pub mod exec;
pub mod fluid;
pub mod record;
pub mod report;
pub mod scenarios;
pub mod service;
pub mod stream;
pub mod tenant;
pub mod trace;

pub use arena::{CircuitScratch, FluidScratch};
pub use error::SimError;
pub use exec::{run_adaptive, run_scheduled, ComputeModel, RunConfig};
pub use fluid::{
    max_min_rates, simulate_circuit_step, simulate_flows, simulate_flows_scratch, FlowSpec,
};
pub use record::{RecordSink, StepRecord};
pub use report::{SimReport, StepReport};
pub use scenarios::Scenario;
pub use service::{
    Admission, Departure, JobOutcome, ServiceExecutor, ServiceJobSpec, ServiceSwitching,
};
pub use stream::{
    run_workload, run_workload_segment, run_workload_totals, StreamCheckpoint, StreamPricing,
    StreamSummary,
};
pub use tenant::{execute_tenants, TenantReport, TenantSpec};
pub use trace::{TraceEvent, TraceKind};
