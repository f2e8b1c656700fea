//! Error types for the simulator.

use std::fmt;

/// Errors raised while simulating a collective execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The fabric rejected a reconfiguration request.
    Fabric(aps_fabric::FabricError),
    /// A communicating pair has no route on the current circuit topology
    /// (possible under fault injection: stuck ports can disconnect it).
    Unroutable {
        /// Step index.
        step: usize,
        /// Source GPU.
        src: usize,
        /// Destination GPU.
        dst: usize,
    },
    /// Switch schedule length does not match the collective.
    ScheduleLengthMismatch {
        /// Steps in the collective.
        expected: usize,
        /// Choices in the switch schedule.
        got: usize,
    },
    /// The collective and the fabric disagree on the node count.
    DimensionMismatch {
        /// Fabric ports.
        fabric: usize,
        /// Collective nodes.
        collective: usize,
    },
    /// A tenant's port list is invalid: out of range, duplicated within
    /// the tenant, or overlapping another tenant's partition.
    BadTenantPorts {
        /// Tenant index.
        tenant: usize,
        /// The offending global port.
        port: usize,
    },
    /// The base topology is not realizable as a single circuit
    /// configuration, so a streaming run cannot derive the fabric
    /// state `ConfigChoice::Base` steps target.
    BaseNotACircuit,
    /// Assembling a global circuit configuration from tenant-local pieces
    /// produced colliding circuits: duplicate ports within one
    /// [`crate::tenant::TenantSpec`], or overlapping tenant bases in a
    /// [`crate::scenarios::Scenario`].
    ConfigConflict {
        /// The underlying matching-construction failure.
        source: aps_matrix::MatrixError,
    },
    /// θ pricing of a streamed step failed on the base topology (streaming
    /// runs price each pulled step for the controller's observation
    /// window).
    Pricing {
        /// Global stream index of the step.
        step: usize,
        /// The underlying solver failure.
        source: aps_flow::FlowError,
    },
    /// A streamed step carried a negative or non-finite volume. Workloads
    /// are trusted streams, not validated schedules, so the step engine
    /// checks each pulled step.
    BadStepVolume {
        /// Global stream index of the step.
        step: usize,
        /// The offending volume.
        bytes: f64,
    },
    /// A tenant's arrival time is negative, not finite, or past the end of
    /// the picosecond clock.
    BadArrival {
        /// The offending arrival, in seconds.
        seconds: f64,
    },
    /// A simulated clock would run past the end of the `u64` picosecond
    /// range while executing a step.
    ClockOverflow {
        /// Index of the step within its stream.
        step: usize,
    },
    /// A simulation error attributed to one tenant of a multi-tenant run.
    /// Other tenants sharing the fabric are unaffected and complete
    /// normally.
    Tenant {
        /// Tenant index in the `execute_tenants` input.
        tenant: usize,
        /// Tenant name, for log triage.
        name: String,
        /// The underlying failure.
        source: Box<SimError>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Fabric(e) => write!(f, "fabric error: {e}"),
            Self::Unroutable { step, src, dst } => {
                write!(
                    f,
                    "step {step}: no route from GPU {src} to GPU {dst} on current circuits"
                )
            }
            Self::ScheduleLengthMismatch { expected, got } => {
                write!(f, "switch schedule has {got} choices for {expected} steps")
            }
            Self::DimensionMismatch { fabric, collective } => {
                write!(
                    f,
                    "fabric has {fabric} ports but collective spans {collective} GPUs"
                )
            }
            Self::BadTenantPorts { tenant, port } => {
                write!(
                    f,
                    "tenant {tenant}: port {port} is out of range, duplicated, or \
                     claimed by another tenant"
                )
            }
            Self::BaseNotACircuit => {
                write!(
                    f,
                    "the base topology is not realizable as a single circuit configuration"
                )
            }
            Self::ConfigConflict { source } => {
                write!(f, "tenant circuits collide on the global fabric: {source}")
            }
            Self::Pricing { step, source } => {
                write!(f, "step {step}: θ pricing failed on the base: {source}")
            }
            Self::BadStepVolume { step, bytes } => {
                write!(
                    f,
                    "step {step}: streamed volume {bytes} must be finite and non-negative"
                )
            }
            Self::BadArrival { seconds } => {
                write!(
                    f,
                    "arrival at {seconds} s is not a time on the picosecond clock"
                )
            }
            Self::ClockOverflow { step } => {
                write!(f, "step {step}: the simulated clock overflowed")
            }
            Self::Tenant {
                tenant,
                name,
                source,
            } => {
                write!(f, "tenant '{name}' (#{tenant}): {source}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<aps_fabric::FabricError> for SimError {
    fn from(e: aps_fabric::FabricError) -> Self {
        Self::Fabric(e)
    }
}
