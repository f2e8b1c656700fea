//! Hybrid electrical + optical fabric.
//!
//! The paper's heterogeneous-deployment sketch (§4): real scale-up
//! domains will not be all-optical on day one — a pod keeps a
//! conventional electrical crossbar next to the photonic core, and
//! circuits land on whichever medium serves them. This model composes
//! the two: every port is tagged electrical or optical, a circuit whose
//! **both** endpoints are electrical is switched by the crossbar at zero
//! reconfiguration cost, and every other circuit goes through the
//! photonic core priced by the attached [`ReconfigModel`]. A request
//! that touches both media is ready when the slower side is (the step
//! engine's synchronous-step semantics).
//!
//! The two degenerate taggings are useful on their own: all ports
//! electrical ([`HybridFabric::electrical`]) is the zero-reconfig
//! baseline benches compare against, and zero electrical ports behaves
//! exactly like a [`crate::CircuitSwitch`].
//!
//! Fault injection mirrors the circuit switch: [`HybridFabric::stick_port`]
//! freezes a TX port's circuit (a flapped link), and
//! [`HybridFabric::set_optical_slowdown`] stretches the photonic side's
//! delays (a degraded controller). Both are the hooks
//! `aps-sim::scenarios::hetero` failure storms drive.
//!
//! ```
//! use aps_fabric::{Fabric, HybridFabric};
//! use aps_cost::ReconfigModel;
//! use aps_matrix::Matching;
//!
//! // 8 ports, the lower 4 electrical; 5 µs photonic reconfiguration.
//! let model = ReconfigModel::constant(5e-6).unwrap();
//! let mut f = HybridFabric::split(Matching::empty(8), 4, model).unwrap();
//!
//! // A purely electrical retarget (ports 0–3 among themselves) is free.
//! let elec = Matching::from_pairs(8, &[(0, 2), (2, 0)]).unwrap();
//! assert_eq!(f.request(&elec, 100).unwrap().ready_at, 100);
//!
//! // Touching an optical port pays the photonic delay.
//! let opt = Matching::from_pairs(8, &[(0, 2), (2, 0), (4, 6)]).unwrap();
//! assert_eq!(f.request(&opt, 100).unwrap().ready_at, 100 + 5_000_000);
//! ```

use crate::error::FabricError;
use crate::switch::FabricStats;
use crate::{checked_ready_at, Fabric, FabricState, ReconfigOutcome};
use aps_cost::units::{secs_to_picos, Picos};
use aps_cost::ReconfigModel;
use aps_matrix::Matching;
use std::collections::HashSet;

/// A composite fabric: an electrical crossbar over a subset of the ports
/// next to a photonic core over all of them. See the [module docs](self)
/// for the routing rule.
#[derive(Debug)]
pub struct HybridFabric {
    current: Matching,
    /// `electrical[p]` — port `p` hangs off the crossbar.
    electrical: Vec<bool>,
    optical_model: ReconfigModel,
    optical_slowdown: f64,
    busy_until: Picos,
    stuck: HashSet<usize>,
    stats: FabricStats,
}

impl HybridFabric {
    /// Creates a hybrid fabric where ports `0..electrical_below` are
    /// electrical and the rest optical — the common "one crossbar next
    /// to one photonic core" partition.
    ///
    /// # Errors
    ///
    /// Rejects `electrical_below` beyond the port count.
    pub fn split(
        initial: Matching,
        electrical_below: usize,
        optical_model: ReconfigModel,
    ) -> Result<Self, FabricError> {
        let n = initial.n();
        if electrical_below > n {
            return Err(FabricError::PortOutOfRange {
                port: electrical_below,
                n,
            });
        }
        let electrical = (0..n).map(|p| p < electrical_below).collect();
        Ok(Self::with_flags(initial, electrical, optical_model))
    }

    /// Creates a hybrid fabric from an explicit electrical port list.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range ports.
    pub fn with_ports(
        initial: Matching,
        electrical_ports: &[usize],
        optical_model: ReconfigModel,
    ) -> Result<Self, FabricError> {
        let n = initial.n();
        let mut electrical = vec![false; n];
        for &p in electrical_ports {
            if p >= n {
                return Err(FabricError::PortOutOfRange { port: p, n });
            }
            electrical[p] = true;
        }
        Ok(Self::with_flags(initial, electrical, optical_model))
    }

    /// An all-electrical crossbar: every reconfiguration is free. The
    /// zero-reconfig baseline of the heterogeneous benches.
    pub fn electrical(initial: Matching) -> Self {
        let n = initial.n();
        // The optical model is unreachable (no optical ports); any valid
        // model will do.
        let model = ReconfigModel::constant(0.0).expect("zero delay is valid");
        Self::with_flags(initial, vec![true; n], model)
    }

    fn with_flags(initial: Matching, electrical: Vec<bool>, optical_model: ReconfigModel) -> Self {
        Self {
            current: initial,
            electrical,
            optical_model,
            optical_slowdown: 1.0,
            busy_until: 0,
            stuck: HashSet::new(),
            stats: FabricStats::default(),
        }
    }

    /// Is `p → d` an electrical circuit (both endpoints on the crossbar)?
    fn is_electrical_circuit(&self, p: usize, d: usize) -> bool {
        self.electrical[p] && self.electrical[d]
    }

    /// Number of electrical ports.
    pub fn electrical_ports(&self) -> usize {
        self.electrical.iter().filter(|&&e| e).count()
    }

    /// Freezes a TX port: subsequent reconfigurations leave its circuit
    /// unchanged (a flapped link whose transceiver lost lock).
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

    /// Multiplies the photonic side's reconfiguration delays (≥ 1.0
    /// models a degraded optical controller); the crossbar is unaffected.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or non-positive factors.
    pub fn set_optical_slowdown(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "bad slowdown {factor}");
        self.optical_slowdown = factor;
    }

    /// Statistics so far (reconfigurations that moved at least one port).
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Rewinds the device clock to `t = 0` (keeping configuration,
    /// faults and statistics) for reuse across simulation runs.
    pub fn reset_clock(&mut self) {
        self.busy_until = 0;
    }

    /// The configuration reachable from `current` under the stuck ports:
    /// stuck TX ports keep their circuit; target circuits whose RX is
    /// thereby occupied are dropped (same rule as the circuit switch).
    fn achievable(&self, target: &Matching) -> Matching {
        if self.stuck.is_empty() {
            return target.clone();
        }
        let n = self.current.n();
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut used_rx: HashSet<usize> = HashSet::new();
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

    /// Counts the changed TX ports whose old or new circuit needs the
    /// photonic core. A port is optical-changed unless both its outgoing
    /// circuits (before and after) are crossbar circuits.
    fn optical_ports_changed(&self, next: &Matching) -> usize {
        (0..self.current.n())
            .filter(|&p| {
                let before = self.current.dst_of(p);
                let after = next.dst_of(p);
                if before == after {
                    return false;
                }
                let elec_before = before.is_none_or(|d| self.is_electrical_circuit(p, d));
                let elec_after = after.is_none_or(|d| self.is_electrical_circuit(p, d));
                !(elec_before && elec_after)
            })
            .count()
    }
}

impl Fabric for HybridFabric {
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
        let achieved = self.achievable(target);
        let ports_changed = self.current.tx_ports_changed(&achieved);
        let optical_changed = self.optical_ports_changed(&achieved);
        // The crossbar is instantaneous; only photonic movement costs.
        let delay = if optical_changed > 0 {
            secs_to_picos(self.optical_model.delay_s(optical_changed) * self.optical_slowdown)
        } else {
            0
        };
        let ready_at = checked_ready_at(now, delay)?;
        if self.stuck.is_empty() {
            self.current.clone_from(&achieved);
        } else {
            self.current = achieved;
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

    fn model() -> ReconfigModel {
        ReconfigModel::constant(5e-6).unwrap()
    }

    #[test]
    fn electrical_circuits_reconfigure_for_free() {
        let mut f = HybridFabric::split(Matching::empty(8), 4, model()).unwrap();
        let elec = Matching::from_pairs(8, &[(0, 2), (2, 0), (1, 3), (3, 1)]).unwrap();
        let out = f.request(&elec, 1000).unwrap();
        assert_eq!(out.ready_at, 1000);
        assert_eq!(out.ports_changed, 4);
        assert_eq!(f.current(), &elec);
    }

    #[test]
    fn optical_circuits_pay_the_photonic_delay() {
        let mut f = HybridFabric::split(Matching::empty(8), 4, model()).unwrap();
        let opt = Matching::from_pairs(8, &[(4, 6), (6, 4)]).unwrap();
        let out = f.request(&opt, 0).unwrap();
        assert_eq!(out.ready_at, 5_000_000);
    }

    #[test]
    fn an_optical_reconfiguration_past_the_clock_end_changes_nothing() {
        let mut f = HybridFabric::split(Matching::empty(8), 4, model()).unwrap();
        let now = Picos::MAX - 1;
        let opt = Matching::from_pairs(8, &[(4, 6), (6, 4)]).unwrap();
        assert_eq!(
            f.request(&opt, now),
            Err(FabricError::ClockOverflow {
                now,
                delay: 5_000_000
            })
        );
        assert_eq!(f.current(), &Matching::empty(8));
        assert_eq!(f.busy_until(), 0);
        // The crossbar is instantaneous, so an electrical move still fits.
        let elec = Matching::from_pairs(8, &[(0, 2), (2, 0)]).unwrap();
        assert_eq!(f.request(&elec, now).unwrap().ready_at, now);
    }

    #[test]
    fn boundary_circuits_are_optical() {
        // TX electrical, RX optical: still needs the photonic core.
        let mut f = HybridFabric::split(Matching::empty(8), 4, model()).unwrap();
        let cross = Matching::from_pairs(8, &[(0, 5)]).unwrap();
        let out = f.request(&cross, 0).unwrap();
        assert_eq!(out.ready_at, 5_000_000);
    }

    #[test]
    fn mixed_request_gated_by_the_optical_side_with_per_port_pricing() {
        // Per-port model: only the optically-changed ports are billed.
        let per_port = ReconfigModel::per_port(1e-6, 1e-6).unwrap();
        let mut f = HybridFabric::split(Matching::empty(8), 4, per_port).unwrap();
        // Two electrical moves (free) + one optical move (fixed + 1 port).
        let target = Matching::from_pairs(8, &[(0, 2), (2, 0), (4, 6)]).unwrap();
        let out = f.request(&target, 0).unwrap();
        assert_eq!(out.ports_changed, 3);
        assert_eq!(out.ready_at, secs_to_picos(1e-6 + 1e-6));
    }

    #[test]
    fn all_electrical_is_always_free() {
        let mut f = HybridFabric::electrical(shift(8, 1));
        for k in 2..6 {
            let out = f.request(&shift(8, k), 10 * k as u64).unwrap();
            assert_eq!(out.ready_at, 10 * k as u64);
        }
        assert_eq!(f.electrical_ports(), 8);
    }

    #[test]
    fn no_electrical_ports_matches_circuit_switch_pricing() {
        use crate::CircuitSwitch;
        let mut h = HybridFabric::split(shift(8, 1), 0, model()).unwrap();
        let mut s = CircuitSwitch::new(shift(8, 1), model());
        let a = h.request(&shift(8, 3), 42).unwrap();
        let b = s.request(&shift(8, 3), 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(h.current(), s.current());
    }

    #[test]
    fn stuck_port_keeps_circuit_and_heals() {
        let mut f = HybridFabric::split(shift(8, 1), 4, model()).unwrap();
        f.stick_port(0).unwrap();
        let out = f.request(&shift(8, 2), 0).unwrap();
        assert_eq!(f.current().dst_of(0), Some(1));
        f.unstick_port(0);
        f.request(&shift(8, 2), out.ready_at).unwrap();
        assert_eq!(f.current(), &shift(8, 2));
    }

    #[test]
    fn optical_slowdown_stretches_only_the_photonic_side() {
        let mut f = HybridFabric::split(Matching::empty(8), 4, model()).unwrap();
        f.set_optical_slowdown(3.0);
        let elec = Matching::from_pairs(8, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(f.request(&elec, 0).unwrap().ready_at, 0);
        let opt = Matching::from_pairs(8, &[(0, 1), (1, 0), (4, 5), (5, 4)]).unwrap();
        let out = f.request(&opt, 0).unwrap();
        assert_eq!(out.ready_at, secs_to_picos(15e-6));
    }

    #[test]
    fn busy_and_dimension_validation() {
        let mut f = HybridFabric::split(shift(8, 1), 4, model()).unwrap();
        assert!(matches!(
            f.request(&shift(4, 1), 0),
            Err(FabricError::DimensionMismatch { .. })
        ));
        let out = f.request(&shift(8, 3), 0).unwrap();
        assert!(matches!(
            f.request(&shift(8, 2), out.ready_at - 1),
            Err(FabricError::Busy { .. })
        ));
        assert!(HybridFabric::split(shift(4, 1), 5, model()).is_err());
        assert!(HybridFabric::with_ports(shift(4, 1), &[4], model()).is_err());
        assert!(f.stick_port(9).is_err());
    }

    #[test]
    fn state_roundtrip() {
        let mut f = HybridFabric::split(shift(8, 1), 4, model()).unwrap();
        f.request(&shift(8, 3), 0).unwrap();
        let state = f.save_state();
        let mut g = HybridFabric::split(shift(8, 1), 4, model()).unwrap();
        g.load_state(&state).unwrap();
        assert_eq!(g.current(), f.current());
        assert_eq!(g.busy_until(), f.busy_until());
    }
}
