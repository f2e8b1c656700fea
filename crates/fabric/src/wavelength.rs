//! Passive wavelength-routed fabric with tunable transceivers.
//!
//! The paper's §3.1 alternative: "if the transceivers are capable of tuning
//! the wavelength of the light they emit, a passive wavelength switching
//! photonic interconnect can establish direct paths between pairs of ports,
//! without requiring a central controller." Reconfiguration here is
//! *per-port*: only transceivers whose destination changes retune, and the
//! fabric is ready when the slowest of them locks — there is no fixed
//! controller overhead.

use crate::error::FabricError;
use crate::{Fabric, FabricState, ReconfigOutcome};
use aps_cost::units::{secs_to_picos, Picos};
use aps_matrix::Matching;

/// A wavelength-switched fabric: an AWGR-style passive core plus one tunable
/// transceiver per port.
#[derive(Debug)]
pub struct WavelengthFabric {
    state: FabricState,
    /// Per-port tuning time in seconds.
    tuning_s: Vec<f64>,
}

impl WavelengthFabric {
    /// Creates a fabric with a uniform per-port tuning time.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite tuning times.
    pub fn uniform(initial: Matching, tuning_s: f64) -> Result<Self, FabricError> {
        let n = initial.n();
        Self::with_per_port(initial, vec![tuning_s; n])
    }

    /// Creates a fabric with per-port tuning times (heterogeneous lasers).
    ///
    /// # Errors
    ///
    /// Rejects a tuning vector of the wrong length or invalid entries.
    pub fn with_per_port(initial: Matching, tuning_s: Vec<f64>) -> Result<Self, FabricError> {
        if tuning_s.len() != initial.n() {
            return Err(FabricError::DimensionMismatch {
                fabric: initial.n(),
                target: tuning_s.len(),
            });
        }
        for &t in &tuning_s {
            if !t.is_finite() || t < 0.0 {
                return Err(FabricError::BadTuningDelay(t));
            }
        }
        Ok(Self {
            state: FabricState::idle(initial),
            tuning_s,
        })
    }

    /// Degrades one port's laser to a slower tuning time (fault injection).
    ///
    /// # Errors
    ///
    /// Rejects out-of-range ports and invalid times.
    pub fn set_port_tuning(&mut self, port: usize, tuning_s: f64) -> Result<(), FabricError> {
        self.state.check_port(port)?;
        if !tuning_s.is_finite() || tuning_s < 0.0 {
            return Err(FabricError::BadTuningDelay(tuning_s));
        }
        self.tuning_s[port] = tuning_s;
        Ok(())
    }

    /// Rewinds the device clock to `t = 0` (keeping configuration and
    /// per-port tuning times) for reuse across simulation runs.
    pub fn reset_clock(&mut self) {
        self.state.busy_until = 0;
    }
}

impl Fabric for WavelengthFabric {
    fn n(&self) -> usize {
        self.state.config.n()
    }

    fn current(&self) -> &Matching {
        &self.state.config
    }

    fn busy_until(&self) -> Picos {
        self.state.busy_until
    }

    fn load_state(&mut self, state: &FabricState) -> Result<(), FabricError> {
        self.state.load(state)
    }

    fn request(&mut self, target: &Matching, now: Picos) -> Result<ReconfigOutcome, FabricError> {
        self.state.admit(target, now)?;
        // Only ports whose destination wavelength changes retune; the
        // slowest retuning port gates readiness (synchronous steps).
        let current = &self.state.config;
        let slowest = (0..current.n())
            .filter(|&p| current.dst_of(p) != target.dst_of(p))
            .map(|p| self.tuning_s[p])
            .fold(0.0f64, f64::max);
        let ports_changed = current.tx_ports_changed(target);
        self.state
            .commit(target, now, secs_to_picos(slowest), ports_changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shift(n: usize, k: usize) -> Matching {
        Matching::shift(n, k).unwrap()
    }

    #[test]
    fn uniform_tuning_time_gates_readiness() {
        let mut f = WavelengthFabric::uniform(shift(8, 1), 2e-6).unwrap();
        let out = f.request(&shift(8, 3), 100).unwrap();
        assert_eq!(out.ready_at, 100 + 2_000_000);
        assert_eq!(out.ports_changed, 8);
    }

    #[test]
    fn unchanged_ports_do_not_retune() {
        // Move only port 0: from (0→1,2→3) to (0→5,2→3). Port 2 keeps its
        // wavelength, so even a slow port-2 laser doesn't matter.
        let initial = Matching::from_pairs(8, &[(0, 1), (2, 3)]).unwrap();
        let target = Matching::from_pairs(8, &[(0, 5), (2, 3)]).unwrap();
        let mut f = WavelengthFabric::uniform(initial, 1e-6).unwrap();
        f.set_port_tuning(2, 1.0).unwrap();
        let out = f.request(&target, 0).unwrap();
        assert_eq!(out.ready_at, secs_to_picos(1e-6));
        assert_eq!(out.ports_changed, 1);
    }

    #[test]
    fn slow_laser_fault_gates_everyone() {
        let mut f = WavelengthFabric::uniform(shift(8, 1), 1e-6).unwrap();
        f.set_port_tuning(5, 50e-6).unwrap();
        let out = f.request(&shift(8, 2), 0).unwrap();
        assert_eq!(out.ready_at, secs_to_picos(50e-6));
    }

    #[test]
    fn noop_is_instant() {
        let mut f = WavelengthFabric::uniform(shift(8, 1), 1e-6).unwrap();
        let out = f.request(&shift(8, 1), 7).unwrap();
        assert_eq!(out.ready_at, 7);
        assert_eq!(out.ports_changed, 0);
    }

    #[test]
    fn a_retune_past_the_clock_end_changes_nothing() {
        let mut f = WavelengthFabric::uniform(shift(8, 1), 2e-6).unwrap();
        let now = Picos::MAX - 1;
        assert_eq!(
            f.request(&shift(8, 3), now),
            Err(FabricError::ClockOverflow {
                now,
                delay: 2_000_000
            })
        );
        assert_eq!(f.current(), &shift(8, 1));
        assert_eq!(f.busy_until(), 0);
    }

    #[test]
    fn validation() {
        assert!(WavelengthFabric::uniform(shift(4, 1), -1.0).is_err());
        assert!(WavelengthFabric::with_per_port(shift(4, 1), vec![1e-6; 3]).is_err());
        let mut f = WavelengthFabric::uniform(shift(4, 1), 1e-6).unwrap();
        assert!(f.set_port_tuning(9, 1e-6).is_err());
        assert!(f.set_port_tuning(1, f64::NAN).is_err());
        assert!(matches!(
            f.request(&shift(8, 1), 0),
            Err(FabricError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn busy_rejection() {
        let mut f = WavelengthFabric::uniform(shift(8, 1), 1e-6).unwrap();
        let out = f.request(&shift(8, 2), 0).unwrap();
        assert!(matches!(
            f.request(&shift(8, 3), out.ready_at / 2),
            Err(FabricError::Busy { .. })
        ));
    }
}
