//! Centrally-programmed photonic circuit switch.

use crate::error::FabricError;
use crate::{checked_ready_at, Fabric, FabricState, ReconfigOutcome};
use aps_cost::units::{secs_to_picos, Picos};
use aps_cost::ReconfigModel;
use aps_matrix::Matching;
use std::collections::HashSet;

/// Aggregate statistics for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FabricStats {
    /// Reconfigurations performed (no-ops excluded).
    pub reconfigurations: usize,
    /// Total picoseconds spent reconfiguring.
    pub busy_ps: Picos,
    /// Total TX ports retargeted across all reconfigurations.
    pub ports_retargeted: usize,
}

/// A PipSwitch-style programmable circuit switch: one controller applies the
/// whole target configuration; the delay follows the attached
/// [`ReconfigModel`].
///
/// Fault injection: [`CircuitSwitch::stick_port`] freezes a TX port on its
/// current circuit (the controller "fails" to move it), and
/// [`CircuitSwitch::set_slowdown`] stretches every reconfiguration — both
/// are observable through the post-request [`Fabric::current`]
/// configuration and timing.
#[derive(Debug)]
pub struct CircuitSwitch {
    current: Matching,
    model: ReconfigModel,
    busy_until: Picos,
    slowdown: f64,
    stuck: HashSet<usize>,
    stats: FabricStats,
}

impl CircuitSwitch {
    /// Creates a switch with an initial configuration (e.g. the base ring).
    pub fn new(initial: Matching, model: ReconfigModel) -> Self {
        Self {
            current: initial,
            model,
            busy_until: 0,
            slowdown: 1.0,
            stuck: HashSet::new(),
            stats: FabricStats::default(),
        }
    }

    /// Freezes a TX port: subsequent reconfigurations leave its circuit
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range ports.
    pub fn stick_port(&mut self, port: usize) -> Result<(), FabricError> {
        if port >= self.current.n() {
            return Err(FabricError::PortOutOfRange {
                port,
                n: self.current.n(),
            });
        }
        self.stuck.insert(port);
        Ok(())
    }

    /// Clears a stuck port.
    pub fn unstick_port(&mut self, port: usize) {
        self.stuck.remove(&port);
    }

    /// Multiplies all reconfiguration delays (≥ 1.0 models a degraded
    /// controller).
    ///
    /// # Panics
    ///
    /// Panics on non-finite or non-positive factors.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "bad slowdown {factor}");
        self.slowdown = factor;
    }

    /// Statistics so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Rewinds the device clock to `t = 0` (keeping the current
    /// configuration, faults and statistics) so the same device model can
    /// serve another simulation run, which restarts its own clock.
    pub fn reset_clock(&mut self) {
        self.busy_until = 0;
    }

    /// Computes the configuration reachable from `current` given the stuck
    /// ports: stuck TX ports keep their circuit; any target circuit whose RX
    /// is thereby occupied is dropped.
    fn achievable(&self, target: &Matching) -> Matching {
        if self.stuck.is_empty() {
            return target.clone();
        }
        let n = self.current.n();
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut used_rx: HashSet<usize> = HashSet::new();
        // Stuck ports claim their existing circuits first.
        for &p in &self.stuck {
            if let Some(d) = self.current.dst_of(p) {
                pairs.push((p, d));
                used_rx.insert(d);
            }
        }
        for (s, d) in target.pairs() {
            if self.stuck.contains(&s) || used_rx.contains(&d) {
                continue;
            }
            pairs.push((s, d));
            used_rx.insert(d);
        }
        Matching::from_pairs(n, &pairs).expect("achievable config is a valid matching")
    }
}

impl Fabric for CircuitSwitch {
    fn n(&self) -> usize {
        self.current.n()
    }

    fn current(&self) -> &Matching {
        &self.current
    }

    fn busy_until(&self) -> Picos {
        self.busy_until
    }

    fn load_state(&mut self, state: &FabricState) -> Result<(), FabricError> {
        if state.config.n() != self.current.n() {
            return Err(FabricError::DimensionMismatch {
                fabric: self.current.n(),
                target: state.config.n(),
            });
        }
        self.current = state.config.clone();
        self.busy_until = state.busy_until;
        Ok(())
    }

    fn request(&mut self, target: &Matching, now: Picos) -> Result<ReconfigOutcome, FabricError> {
        if target.n() != self.current.n() {
            return Err(FabricError::DimensionMismatch {
                fabric: self.current.n(),
                target: target.n(),
            });
        }
        if now < self.busy_until {
            return Err(FabricError::Busy {
                until: self.busy_until,
            });
        }
        // Fault-free requests (the hot path) adopt the target in place via
        // `clone_from`, so a steady-state reconfiguration allocates nothing.
        let achieved = (!self.stuck.is_empty()).then(|| self.achievable(target));
        let ports_changed = self
            .current
            .tx_ports_changed(achieved.as_ref().unwrap_or(target));
        let delay = secs_to_picos(self.model.delay_s(ports_changed) * self.slowdown);
        let ready_at = checked_ready_at(now, delay)?;
        match achieved {
            Some(achieved) => self.current = achieved,
            None => self.current.clone_from(target),
        }
        if ports_changed > 0 {
            self.stats.reconfigurations += 1;
            self.stats.busy_ps += delay;
            self.stats.ports_retargeted += ports_changed;
        }
        self.busy_until = ready_at;
        Ok(ReconfigOutcome {
            ready_at,
            ports_changed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shift(n: usize, k: usize) -> Matching {
        Matching::shift(n, k).unwrap()
    }

    #[test]
    fn constant_delay_reconfiguration() {
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(5e-6).unwrap());
        let out = sw.request(&shift(8, 3), 1000).unwrap();
        assert_eq!(out.ready_at, 1000 + 5_000_000);
        assert_eq!(out.ports_changed, 8);
        assert_eq!(sw.current(), &shift(8, 3));
        assert_eq!(sw.stats().reconfigurations, 1);
    }

    #[test]
    fn noop_reconfiguration_is_free() {
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(5e-6).unwrap());
        let out = sw.request(&shift(8, 1), 42).unwrap();
        assert_eq!(out.ready_at, 42);
        assert_eq!(out.ports_changed, 0);
        assert_eq!(sw.stats().reconfigurations, 0);
    }

    #[test]
    fn busy_rejection() {
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(1e-6).unwrap());
        let out = sw.request(&shift(8, 2), 0).unwrap();
        assert!(matches!(
            sw.request(&shift(8, 3), out.ready_at - 1),
            Err(FabricError::Busy { .. })
        ));
        assert!(sw.request(&shift(8, 3), out.ready_at).is_ok());
    }

    #[test]
    fn per_port_delay_scales() {
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::per_port(1e-6, 1e-7).unwrap());
        // shift(1) → xor(4): all 8 TX ports move.
        let out = sw.request(&Matching::xor(8, 4).unwrap(), 0).unwrap();
        assert_eq!(out.ready_at, secs_to_picos(1e-6 + 8.0 * 1e-7));
    }

    #[test]
    fn stuck_port_keeps_circuit_and_drops_conflicts() {
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(1e-6).unwrap());
        sw.stick_port(0).unwrap();
        // Target shift(2): port 0 should go 0→2 but stays 0→1; port 7's
        // target 7→1 conflicts with the stuck circuit's RX 1 and is dropped.
        let out = sw.request(&shift(8, 2), 0).unwrap();
        assert_eq!(sw.current().dst_of(0), Some(1));
        assert_eq!(sw.current().dst_of(7), None);
        assert_eq!(sw.current().dst_of(3), Some(5));
        // Recovery: unstick and reconfigure fully.
        sw.unstick_port(0);
        sw.request(&shift(8, 2), out.ready_at).unwrap();
        assert_eq!(sw.current(), &shift(8, 2));
    }

    #[test]
    fn slowdown_stretches_delay() {
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(1e-6).unwrap());
        sw.set_slowdown(3.0);
        let out = sw.request(&shift(8, 5), 0).unwrap();
        assert_eq!(out.ready_at, secs_to_picos(3e-6));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(1e-6).unwrap());
        assert!(matches!(
            sw.request(&shift(4, 1), 0),
            Err(FabricError::DimensionMismatch {
                fabric: 8,
                target: 4
            })
        ));
    }

    #[test]
    fn request_when_free_defers_instead_of_failing() {
        use crate::Fabric;
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(1e-6).unwrap());
        let out = sw.request(&shift(8, 2), 0).unwrap();
        assert_eq!(sw.busy_until(), out.ready_at);
        // A second tenant arriving mid-reconfiguration queues behind it.
        let (granted, out2) = sw
            .request_when_free(&shift(8, 3), out.ready_at / 2)
            .unwrap();
        assert_eq!(granted, out.ready_at);
        assert_eq!(out2.ready_at, out.ready_at + secs_to_picos(1e-6));
        // A request after the fabric freed is granted immediately.
        let (granted, _) = sw
            .request_when_free(&shift(8, 4), out2.ready_at + 7)
            .unwrap();
        assert_eq!(granted, out2.ready_at + 7);
    }

    #[test]
    fn a_reconfiguration_past_the_clock_end_changes_nothing() {
        for stuck in [None, Some(0)] {
            let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(1e-6).unwrap());
            if let Some(p) = stuck {
                sw.stick_port(p).unwrap();
            }
            let now = Picos::MAX - 500_000;
            assert_eq!(
                sw.request(&shift(8, 3), now),
                Err(FabricError::ClockOverflow {
                    now,
                    delay: 1_000_000
                })
            );
            assert_eq!(sw.current(), &shift(8, 1));
            assert_eq!(sw.busy_until(), 0);
            assert_eq!(sw.stats().reconfigurations, 0);
            // A no-op takes no time, so it still fits.
            assert_eq!(sw.request(&shift(8, 1), now).unwrap().ready_at, now);
        }
    }

    #[test]
    fn stick_port_validation() {
        let mut sw = CircuitSwitch::new(shift(4, 1), ReconfigModel::constant(1e-6).unwrap());
        assert!(matches!(
            sw.stick_port(9),
            Err(FabricError::PortOutOfRange { port: 9, n: 4 })
        ));
    }
}
