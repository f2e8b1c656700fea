//! Demand completion time (eq. (3)) with its three-way breakdown: the
//! formula `aps-core` prices every step of a plan with.

use crate::params::CostParams;

/// The components of one step's demand completion time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DctBreakdown {
    /// Fixed latency `α` (seconds).
    pub latency_s: f64,
    /// Propagation `δ·ℓ` (seconds).
    pub propagation_s: f64,
    /// Transmission with congestion `β·m/θ` (seconds).
    pub transmission_s: f64,
}

impl DctBreakdown {
    /// Total step time, summed in the order `(α + δ·ℓ) + β·m/θ`.
    #[inline]
    pub fn total_s(&self) -> f64 {
        self.latency_s + self.propagation_s + self.transmission_s
    }
}

/// `DCT(m·M) = α + δ·ℓ + β·m·(1/θ)` for a step with `bytes` of data per
/// pair, hop count `ell`, and concurrent flow `theta` on the topology it
/// runs on.
///
/// # Panics
///
/// Panics (debug) on non-positive `theta` — a non-empty step always has
/// positive throughput; zero would mean an unroutable step, which the step
/// table rejects earlier.
#[inline]
pub fn dct(params: &CostParams, bytes: f64, theta: f64, ell: usize) -> DctBreakdown {
    debug_assert!(theta > 0.0, "non-positive concurrent flow {theta}");
    DctBreakdown {
        latency_s: params.alpha_s,
        propagation_s: params.delta_s * ell as f64,
        transmission_s: params.beta_s_per_byte * bytes / theta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::NANOS;

    #[test]
    fn matches_hand_computation() {
        // 800 Gbps, α = δ = 100 ns; 1 MiB over θ = 1/4, 4 hops.
        let p = CostParams::paper_defaults();
        let d = dct(&p, 1024.0 * 1024.0, 0.25, 4);
        assert_eq!(d.latency_s, 100.0 * NANOS);
        assert_eq!(d.propagation_s, 400.0 * NANOS);
        // 1 MiB / 100 GB/s = 10.48576 µs; × 4 congestion = 41.94304 µs.
        assert!((d.transmission_s - 4.0 * 1048576.0 / 1e11).abs() < 1e-15);
        assert!((d.total_s() - (d.latency_s + d.propagation_s + d.transmission_s)).abs() < 1e-18);
    }

    #[test]
    fn matched_step_has_unit_congestion() {
        let p = CostParams::paper_defaults();
        let d = dct(&p, 1e6, 1.0, 1);
        assert!((d.transmission_s - 1e6 / 1e11).abs() < 1e-18);
        assert_eq!(d.propagation_s, 100.0 * NANOS);
    }

    #[test]
    fn zero_bytes_costs_only_latency_terms() {
        let p = CostParams::paper_defaults();
        let d = dct(&p, 0.0, 0.125, 7);
        assert_eq!(d.transmission_s, 0.0);
        assert_eq!(d.propagation_s, 700.0 * NANOS);
    }
}
