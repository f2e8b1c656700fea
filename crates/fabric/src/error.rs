//! Error types for fabric device models.

use aps_cost::units::Picos;
use std::fmt;

/// Errors produced by fabric device models.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// The target configuration's port count does not match the fabric's.
    DimensionMismatch {
        /// Fabric port count.
        fabric: usize,
        /// Target configuration port count.
        target: usize,
    },
    /// A reconfiguration was requested while a previous one is in flight.
    Busy {
        /// When the in-flight reconfiguration completes.
        until: Picos,
    },
    /// A port index was out of range.
    PortOutOfRange {
        /// The offending port.
        port: usize,
        /// The port count.
        n: usize,
    },
    /// A per-port tuning delay was negative or non-finite.
    BadTuningDelay(f64),
    /// A wavelength-bank fabric was built with zero wavelength bands.
    EmptyWavelengthBank,
    /// A reconfiguration requested at `now` would finish past the end of
    /// the picosecond clock. The fabric is left as it was.
    ClockOverflow {
        /// When the reconfiguration was requested.
        now: Picos,
        /// How long it would take.
        delay: Picos,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch { fabric, target } => {
                write!(
                    f,
                    "fabric has {fabric} ports but target configuration has {target}"
                )
            }
            Self::Busy { until } => {
                write!(f, "fabric busy reconfiguring until t={until} ps")
            }
            Self::PortOutOfRange { port, n } => {
                write!(f, "port {port} out of range for {n}-port fabric")
            }
            Self::BadTuningDelay(v) => {
                write!(f, "tuning delay {v} must be finite and non-negative")
            }
            Self::EmptyWavelengthBank => {
                write!(f, "wavelength bank needs at least one band")
            }
            Self::ClockOverflow { now, delay } => {
                write!(
                    f,
                    "reconfiguration at t={now} ps taking {delay} ps runs past the end of the clock"
                )
            }
        }
    }
}

impl std::error::Error for FabricError {}
