//! Cost-model parameters `α`, `β`, `δ`.

use crate::units::{gbps_to_bytes_per_sec, NANOS};
use std::fmt;

/// The α–β–δ parameters of eq. (3).
///
/// * `alpha_s` — fixed per-step overhead (startup latency, data preparation,
///   synchronization), seconds.
/// * `beta_s_per_byte` — inverse transceiver bandwidth `1/b`, seconds per
///   byte.
/// * `delta_s` — per-hop propagation delay, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Fixed per-step latency `α` (seconds).
    pub alpha_s: f64,
    /// Inverse bandwidth `β = 1/b` (seconds per byte).
    pub beta_s_per_byte: f64,
    /// Per-hop propagation delay `δ` (seconds).
    pub delta_s: f64,
}

/// Errors from parameter validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// A parameter was negative or non-finite, or a bandwidth gives no
    /// finite, positive byte rate and β.
    Invalid {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Invalid { name, value } => {
                let rule = if *name == "bandwidth_gbps" {
                    "give a finite, positive byte rate and β"
                } else {
                    "be finite and non-negative"
                };
                write!(f, "cost parameter {name} = {value} must {rule}")
            }
        }
    }
}

impl std::error::Error for ParamError {}

impl CostParams {
    /// Builds parameters from `α` (seconds), a line rate in Gbps, and `δ`
    /// (seconds).
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite values, and a bandwidth whose byte
    /// rate or β is not finite and positive.
    pub fn new(alpha_s: f64, bandwidth_gbps: f64, delta_s: f64) -> Result<Self, ParamError> {
        let check = |name: &'static str, v: f64| -> Result<(), ParamError> {
            if !v.is_finite() || v < 0.0 {
                return Err(ParamError::Invalid { name, value: v });
            }
            Ok(())
        };
        check("alpha", alpha_s)?;
        check("delta", delta_s)?;
        // The simulator runs on β and on the byte rate 1/β, so both must
        // be finite and positive; this also refuses NaN, zero and negative
        // rates.
        let beta_s_per_byte = 1.0 / gbps_to_bytes_per_sec(bandwidth_gbps);
        if !(beta_s_per_byte > 0.0
            && beta_s_per_byte.is_finite()
            && (1.0 / beta_s_per_byte).is_finite())
        {
            return Err(ParamError::Invalid {
                name: "bandwidth_gbps",
                value: bandwidth_gbps,
            });
        }
        Ok(Self {
            alpha_s,
            beta_s_per_byte,
            delta_s,
        })
    }

    /// The paper's §3.4 evaluation defaults: `α = 100 ns`, `b = 800 Gbps`,
    /// `δ = 100 ns`.
    pub fn paper_defaults() -> Self {
        Self::new(100.0 * NANOS, 800.0, 100.0 * NANOS)
            .expect("paper defaults are valid by construction")
    }

    /// The paper's high-latency variant: `α = 10 µs` (Figures 1b and 1f).
    pub fn paper_high_alpha() -> Self {
        Self::new(10e-6, 800.0, 100.0 * NANOS).expect("valid by construction")
    }

    /// The transceiver bandwidth `b` in bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        1.0 / self.beta_s_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_3_4() {
        let p = CostParams::paper_defaults();
        assert!((p.alpha_s - 100e-9).abs() < 1e-18);
        assert!((p.delta_s - 100e-9).abs() < 1e-18);
        assert!((p.bandwidth_bytes_per_sec() - 1e11).abs() < 1.0);
        assert!((CostParams::paper_high_alpha().alpha_s - 10e-6).abs() < 1e-18);
    }

    #[test]
    fn validation() {
        assert!(CostParams::new(-1.0, 800.0, 0.0).is_err());
        assert!(CostParams::new(0.0, 0.0, 0.0).is_err());
        assert!(CostParams::new(0.0, -5.0, 0.0).is_err());
        assert!(CostParams::new(0.0, 800.0, f64::NAN).is_err());
        assert!(CostParams::new(f64::NAN, 800.0, 0.0).is_err());
        assert!(CostParams::new(0.0, f64::NAN, 0.0).is_err());
        assert!(CostParams::new(0.0, f64::INFINITY, 0.0).is_err());
        // The byte rate overflows to +∞ (β = 0) ...
        assert!(CostParams::new(0.0, 1e300, 0.0).is_err());
        // ... or underflows so far that β overflows to +∞.
        assert!(CostParams::new(0.0, 1e-320, 0.0).is_err());
        assert!(CostParams::new(0.0, 800.0, 0.0).is_ok());
        assert!(CostParams::new(0.0, 1e-300, 0.0).is_ok());
    }
}
