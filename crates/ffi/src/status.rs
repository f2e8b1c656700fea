//! The stable status code every entry point returns.

use std::ffi::CStr;

/// `aps_status_t`: the C-visible result of every ABI call. Values are
/// part of the stable ABI — append, never renumber.
#[repr(i32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApsStatus {
    /// Success.
    Ok = 0,
    /// A required pointer argument was null.
    NullArgument = 1,
    /// A string argument was not valid UTF-8.
    InvalidUtf8 = 2,
    /// An argument failed validation (range, finiteness, enum value).
    InvalidArgument = 3,
    /// No shipped controller has the given name.
    UnknownController = 4,
    /// No scenario (base or heterogeneous pack) has the given name.
    UnknownScenario = 5,
    /// No collective family has the given name.
    UnknownWorkload = 6,
    /// A struct's `struct_size` field does not match this library —
    /// caller and library were built against different headers.
    StructSizeMismatch = 7,
    /// The handle is stale: already destroyed, never issued, or zero.
    StaleHandle = 8,
    /// The handle table is at capacity.
    HandleExhausted = 9,
    /// A caller-owned buffer is too small; the required count is in the
    /// call's `written`/`needed` out-parameter.
    BufferTooSmall = 10,
    /// The experiment has no workload bound for the requested run.
    WorkloadUnbound = 11,
    /// Planning/cost-model failure; details via `aps_last_error_message`.
    Core = 12,
    /// Simulation failure; details via `aps_last_error_message`.
    Sim = 13,
    /// Collective construction failure; details via
    /// `aps_last_error_message`.
    Collective = 14,
    /// Service-engine failure; details via `aps_last_error_message`.
    Service = 15,
    /// Fabric device failure; details via `aps_last_error_message`.
    Fabric = 16,
    /// The engine panicked; the panic was caught at the boundary and
    /// its message stored in `aps_last_error_message`.
    Panicked = 17,
}

impl ApsStatus {
    /// The stable C identifier of a status, for diagnostics.
    pub fn name(self) -> &'static str {
        self.c_name().to_str().expect("status names are ASCII")
    }

    /// [`name`](Self::name) as the NUL-terminated string
    /// `aps_status_name` hands to C.
    pub(crate) fn c_name(self) -> &'static CStr {
        match self {
            Self::Ok => c"APS_STATUS_OK",
            Self::NullArgument => c"APS_STATUS_NULL_ARGUMENT",
            Self::InvalidUtf8 => c"APS_STATUS_INVALID_UTF8",
            Self::InvalidArgument => c"APS_STATUS_INVALID_ARGUMENT",
            Self::UnknownController => c"APS_STATUS_UNKNOWN_CONTROLLER",
            Self::UnknownScenario => c"APS_STATUS_UNKNOWN_SCENARIO",
            Self::UnknownWorkload => c"APS_STATUS_UNKNOWN_WORKLOAD",
            Self::StructSizeMismatch => c"APS_STATUS_STRUCT_SIZE_MISMATCH",
            Self::StaleHandle => c"APS_STATUS_STALE_HANDLE",
            Self::HandleExhausted => c"APS_STATUS_HANDLE_EXHAUSTED",
            Self::BufferTooSmall => c"APS_STATUS_BUFFER_TOO_SMALL",
            Self::WorkloadUnbound => c"APS_STATUS_WORKLOAD_UNBOUND",
            Self::Core => c"APS_STATUS_CORE",
            Self::Sim => c"APS_STATUS_SIM",
            Self::Collective => c"APS_STATUS_COLLECTIVE",
            Self::Service => c"APS_STATUS_SERVICE",
            Self::Fabric => c"APS_STATUS_FABRIC",
            Self::Panicked => c"APS_STATUS_PANICKED",
        }
    }

    /// Every status, for table-driven diagnostics.
    pub fn all() -> &'static [ApsStatus] {
        &[
            Self::Ok,
            Self::NullArgument,
            Self::InvalidUtf8,
            Self::InvalidArgument,
            Self::UnknownController,
            Self::UnknownScenario,
            Self::UnknownWorkload,
            Self::StructSizeMismatch,
            Self::StaleHandle,
            Self::HandleExhausted,
            Self::BufferTooSmall,
            Self::WorkloadUnbound,
            Self::Core,
            Self::Sim,
            Self::Collective,
            Self::Service,
            Self::Fabric,
            Self::Panicked,
        ]
    }
}

impl From<crate::handle::HandleError> for ApsStatus {
    fn from(e: crate::handle::HandleError) -> Self {
        match e {
            crate::handle::HandleError::Stale => Self::StaleHandle,
            crate::handle::HandleError::Exhausted => Self::HandleExhausted,
        }
    }
}
