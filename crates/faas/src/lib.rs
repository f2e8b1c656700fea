//! `aps-faas` — the fabric as a *service*: an open-system executor
//! where jobs arrive, are admitted onto a port partition, run their
//! collective workload on the shared photonic fabric, and depart.
//!
//! The closed-system entry points in `aps-sim` answer "how long does this
//! fixed tenant mix take?". This crate answers the operator's question:
//! "what service does a *stream* of jobs get?" — goodput under an
//! admission policy, p50/p99 job-completion latency per tenant class,
//! and leximin fairness across classes, all folded into an O(1)
//! [`ServiceSummary`] so a million-job trace runs without materializing
//! anything per job.
//!
//! Layers:
//!
//! * arrivals — seeded Poisson / MMPP / trace interarrival generators
//!   (in `aps-collectives`, re-exported here for convenience);
//! * [`admission`] — reject / bounded queue / backpressure policies;
//! * [`partition`] — the port allocator with slot+generation handles
//!   and exactly-once reclaim;
//! * [`slo`] — fixed-bucket latency histograms, per-class counters,
//!   leximin comparison;
//! * [`engine`] — the event loop tying them together, byte-identical to
//!   the closed-system path when everything arrives at t = 0.

pub mod admission;
pub mod engine;
pub mod error;
pub mod partition;
pub mod slo;

pub use admission::AdmissionPolicy;
pub use engine::{
    run_service, run_service_recorded, JobDemand, ServiceConfig, ServiceJobRecord, ServiceReport,
    TenantClass,
};
pub use error::FaasError;
pub use partition::{PartitionAllocator, PartitionHandle};
pub use slo::{
    leximin_cmp, LatencyHistogram, RejectReason, ServiceSummary, TenantSlo, HISTOGRAM_BUCKETS,
};

pub use aps_collectives::workload::arrivals::{
    ArrivalProcess, MmppArrivals, PoissonArrivals, TraceArrivals,
};
pub use aps_sim::ServiceSwitching;
