//! Centrally-programmed photonic circuit switch, optionally next to an
//! electrical crossbar.
//!
//! The paper's heterogeneous-deployment sketch (§4): a scale-up domain
//! will not be all-optical on day one — a pod keeps a conventional
//! electrical crossbar next to the photonic core, and circuits land on
//! whichever medium serves them. [`CircuitSwitch::split`] models that
//! pod: a changed circuit whose **both** endpoints hang off the crossbar
//! is switched there at zero reconfiguration cost, every other changed
//! circuit goes through the photonic core priced by the attached
//! [`ReconfigModel`], and a request that touches both media is ready when
//! the photonic side is (the step engine's synchronous-step semantics).
//! With no crossbar ports ([`CircuitSwitch::new`]) every circuit is
//! photonic; with every port on the crossbar every reconfiguration is
//! free, the zero-reconfig baseline benches compare against.
//!
//! ```
//! use aps_fabric::{CircuitSwitch, Fabric};
//! use aps_cost::ReconfigModel;
//! use aps_matrix::Matching;
//!
//! // 8 ports, the lower 4 on the crossbar; 5 µs photonic reconfiguration.
//! let model = ReconfigModel::constant(5e-6).unwrap();
//! let mut f = CircuitSwitch::split(Matching::empty(8), 4, model).unwrap();
//!
//! // A retarget among crossbar ports 0–3 is free.
//! let elec = Matching::from_pairs(8, &[(0, 2), (2, 0)]).unwrap();
//! assert_eq!(f.request(&elec, 100).unwrap().ready_at, 100);
//!
//! // Touching a photonic port pays the photonic delay.
//! let opt = Matching::from_pairs(8, &[(0, 2), (2, 0), (4, 6)]).unwrap();
//! assert_eq!(f.request(&opt, 100).unwrap().ready_at, 100 + 5_000_000);
//! ```

use crate::error::FabricError;
use crate::{Fabric, FabricState, ReconfigOutcome};
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
/// whole target configuration; the photonic delay follows the attached
/// [`ReconfigModel`], and circuits between crossbar ports are free (see
/// the [module docs](self)).
///
/// Fault injection: [`CircuitSwitch::stick_port`] freezes a TX port on its
/// current circuit (the controller "fails" to move it, or the link
/// flapped), and [`CircuitSwitch::set_slowdown`] stretches every photonic
/// reconfiguration — both are observable through the post-request
/// [`Fabric::current`] configuration and timing.
#[derive(Debug)]
pub struct CircuitSwitch {
    state: FabricState,
    model: ReconfigModel,
    /// Ports `0..crossbar_below` also hang off the electrical crossbar.
    crossbar_below: usize,
    slowdown: f64,
    stuck: HashSet<usize>,
    stats: FabricStats,
}

impl CircuitSwitch {
    /// Creates an all-photonic switch with an initial configuration (e.g.
    /// the base ring).
    pub fn new(initial: Matching, model: ReconfigModel) -> Self {
        Self {
            state: FabricState::idle(initial),
            model,
            crossbar_below: 0,
            slowdown: 1.0,
            stuck: HashSet::new(),
            stats: FabricStats::default(),
        }
    }

    /// Creates a switch whose ports `0..crossbar_below` also hang off an
    /// electrical crossbar — the common "one crossbar next to one photonic
    /// core" pod. `crossbar_below = 0` is [`CircuitSwitch::new`], and
    /// `crossbar_below = n` is the all-electrical crossbar on which every
    /// reconfiguration is free.
    ///
    /// # Errors
    ///
    /// Rejects `crossbar_below` beyond the port count.
    pub fn split(
        initial: Matching,
        crossbar_below: usize,
        model: ReconfigModel,
    ) -> Result<Self, FabricError> {
        let n = initial.n();
        if crossbar_below > n {
            return Err(FabricError::PortOutOfRange {
                port: crossbar_below,
                n,
            });
        }
        Ok(Self {
            crossbar_below,
            ..Self::new(initial, model)
        })
    }

    /// Freezes a TX port: subsequent reconfigurations leave its circuit
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range ports.
    pub fn stick_port(&mut self, port: usize) -> Result<(), FabricError> {
        self.state.check_port(port)?;
        self.stuck.insert(port);
        Ok(())
    }

    /// Clears a stuck port.
    pub fn unstick_port(&mut self, port: usize) {
        self.stuck.remove(&port);
    }

    /// Multiplies the photonic reconfiguration delays (≥ 1.0 models a
    /// degraded controller); the crossbar stays instantaneous.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive factors with
    /// [`FabricError::BadTuningDelay`], keeping the previous slowdown.
    pub fn set_slowdown(&mut self, factor: f64) -> Result<(), FabricError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(FabricError::BadTuningDelay(factor));
        }
        self.slowdown = factor;
        Ok(())
    }

    /// Statistics so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Rewinds the device clock to `t = 0` (keeping the current
    /// configuration, faults and statistics) so the same device model can
    /// serve another simulation run, which restarts its own clock.
    pub fn reset_clock(&mut self) {
        self.state.busy_until = 0;
    }

    /// Computes the configuration reachable from `current` given the stuck
    /// ports: stuck TX ports keep their circuit; any target circuit whose RX
    /// is thereby occupied is dropped.
    fn achievable(&self, target: &Matching) -> Matching {
        let current = &self.state.config;
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(current.n());
        let mut used_rx: HashSet<usize> = HashSet::new();
        // Stuck ports claim their existing circuits first.
        for &p in &self.stuck {
            if let Some(d) = current.dst_of(p) {
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
        Matching::from_pairs(current.n(), &pairs).expect("achievable config is a valid matching")
    }

    /// The TX ports whose circuit changes on the way to `next`, and how
    /// many of them the photonic core must move: a changed port stays off
    /// the core only if its circuits before and after (where it has one)
    /// both join two crossbar ports. Without crossbar ports the two
    /// counts agree, and the ports are scanned once.
    fn ports_changed(&self, next: &Matching) -> (usize, usize) {
        let current = &self.state.config;
        let changed = current.tx_ports_changed(next);
        if self.crossbar_below == 0 {
            return (changed, changed);
        }
        let on_crossbar =
            |p: usize, d: Option<usize>| d.is_none_or(|d| p.max(d) < self.crossbar_below);
        let photonic = (0..current.n())
            .filter(|&p| {
                let (before, after) = (current.dst_of(p), next.dst_of(p));
                before != after && !(on_crossbar(p, before) && on_crossbar(p, after))
            })
            .count();
        (changed, photonic)
    }
}

impl Fabric for CircuitSwitch {
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
        // Fault-free requests (the hot path) commit the target itself, so a
        // steady-state reconfiguration allocates nothing.
        let achieved = (!self.stuck.is_empty()).then(|| self.achievable(target));
        let next = achieved.as_ref().unwrap_or(target);
        let (ports_changed, photonic) = self.ports_changed(next);
        let delay = secs_to_picos(self.model.delay_s(photonic) * self.slowdown);
        let outcome = self.state.commit(next, now, delay, ports_changed)?;
        if ports_changed > 0 {
            self.stats.reconfigurations += 1;
            self.stats.busy_ps += delay;
            self.stats.ports_retargeted += ports_changed;
        }
        Ok(outcome)
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
        // Port 0 sticks on the photonic core, or on the crossbar.
        for crossbar_below in [0, 4] {
            let model = ReconfigModel::constant(1e-6).unwrap();
            let mut sw = CircuitSwitch::split(shift(8, 1), crossbar_below, model).unwrap();
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
    }

    #[test]
    fn slowdown_stretches_delay() {
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(1e-6).unwrap());
        sw.set_slowdown(3.0).unwrap();
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

    #[test]
    fn slowdown_validation_keeps_the_previous_factor() {
        let mut sw = CircuitSwitch::new(shift(8, 1), ReconfigModel::constant(1e-6).unwrap());
        sw.set_slowdown(2.0).unwrap();
        for bad in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            assert!(matches!(
                sw.set_slowdown(bad),
                Err(FabricError::BadTuningDelay(f)) if f.to_bits() == bad.to_bits()
            ));
        }
        let out = sw.request(&shift(8, 5), 0).unwrap();
        assert_eq!(out.ready_at, secs_to_picos(2e-6));
    }

    #[test]
    fn state_roundtrip() {
        let model = ReconfigModel::constant(1e-6).unwrap();
        let mut sw = CircuitSwitch::split(shift(8, 1), 4, model).unwrap();
        sw.request(&shift(8, 3), 0).unwrap();
        let state = sw.save_state();
        let mut other = CircuitSwitch::split(shift(8, 1), 4, model).unwrap();
        other.load_state(&state).unwrap();
        assert_eq!(other.current(), sw.current());
        assert_eq!(other.busy_until(), sw.busy_until());
        // A state of another port count is rejected and changes nothing.
        let mut small = CircuitSwitch::new(shift(4, 1), model);
        assert_eq!(
            small.load_state(&state),
            Err(FabricError::DimensionMismatch {
                fabric: 4,
                target: 8
            })
        );
        assert_eq!(small.current(), &shift(4, 1));
        assert_eq!(small.busy_until(), 0);
    }

    /// An 8-port switch whose lower 4 ports hang off the crossbar.
    fn half_crossbar(model: ReconfigModel) -> CircuitSwitch {
        CircuitSwitch::split(Matching::empty(8), 4, model).unwrap()
    }

    fn five_us() -> ReconfigModel {
        ReconfigModel::constant(5e-6).unwrap()
    }

    #[test]
    fn crossbar_circuits_reconfigure_for_free() {
        let mut sw = half_crossbar(five_us());
        let elec = Matching::from_pairs(8, &[(0, 2), (2, 0), (1, 3), (3, 1)]).unwrap();
        let out = sw.request(&elec, 1000).unwrap();
        assert_eq!(out.ready_at, 1000);
        assert_eq!(out.ports_changed, 4);
        assert_eq!(sw.current(), &elec);
        assert_eq!(sw.stats().busy_ps, 0);
    }

    #[test]
    fn photonic_circuits_pay_the_photonic_delay() {
        let mut sw = half_crossbar(five_us());
        let opt = Matching::from_pairs(8, &[(4, 6), (6, 4)]).unwrap();
        let out = sw.request(&opt, 0).unwrap();
        assert_eq!(out.ready_at, 5_000_000);
    }

    #[test]
    fn boundary_circuits_are_photonic() {
        // TX on the crossbar, RX photonic: still needs the photonic core.
        let mut sw = half_crossbar(five_us());
        let cross = Matching::from_pairs(8, &[(0, 5)]).unwrap();
        assert_eq!(sw.request(&cross, 0).unwrap().ready_at, 5_000_000);
        // Tearing that circuit down again moves the photonic core too.
        let out = sw.request(&Matching::empty(8), 5_000_000).unwrap();
        assert_eq!(out.ready_at, 10_000_000);
    }

    #[test]
    fn per_port_pricing_bills_only_the_photonic_side() {
        let per_port = ReconfigModel::per_port(1e-6, 1e-6).unwrap();
        let mut sw = half_crossbar(per_port);
        // Two crossbar moves (free) + one photonic move (fixed + 1 port).
        let target = Matching::from_pairs(8, &[(0, 2), (2, 0), (4, 6)]).unwrap();
        let out = sw.request(&target, 0).unwrap();
        assert_eq!(out.ports_changed, 3);
        assert_eq!(out.ready_at, secs_to_picos(1e-6 + 1e-6));
        assert_eq!(sw.stats().ports_retargeted, 3);
    }

    #[test]
    fn slowdown_stretches_only_the_photonic_side() {
        let mut sw = half_crossbar(five_us());
        sw.set_slowdown(3.0).unwrap();
        let elec = Matching::from_pairs(8, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(sw.request(&elec, 0).unwrap().ready_at, 0);
        let opt = Matching::from_pairs(8, &[(0, 1), (1, 0), (4, 5), (5, 4)]).unwrap();
        let out = sw.request(&opt, 0).unwrap();
        assert_eq!(out.ready_at, secs_to_picos(15e-6));
    }

    #[test]
    fn an_all_crossbar_switch_is_always_free() {
        let mut sw = CircuitSwitch::split(shift(8, 1), 8, five_us()).unwrap();
        sw.set_slowdown(4.0).unwrap();
        for k in 2..6 {
            let out = sw.request(&shift(8, k), 10 * k as u64).unwrap();
            assert_eq!(out.ready_at, 10 * k as u64);
            assert_eq!(out.ports_changed, 8);
        }
        assert_eq!(sw.stats().reconfigurations, 4);
        assert_eq!(sw.stats().busy_ps, 0);
    }

    #[test]
    fn a_photonic_move_past_the_clock_end_changes_nothing_but_the_crossbar_still_fits() {
        let mut sw = half_crossbar(five_us());
        let now = Picos::MAX - 1;
        let opt = Matching::from_pairs(8, &[(4, 6), (6, 4)]).unwrap();
        assert_eq!(
            sw.request(&opt, now),
            Err(FabricError::ClockOverflow {
                now,
                delay: 5_000_000
            })
        );
        assert_eq!(sw.current(), &Matching::empty(8));
        assert_eq!(sw.busy_until(), 0);
        // The crossbar is instantaneous, so a crossbar move still fits.
        let elec = Matching::from_pairs(8, &[(0, 2), (2, 0)]).unwrap();
        assert_eq!(sw.request(&elec, now).unwrap().ready_at, now);
    }

    #[test]
    fn split_validation() {
        assert!(matches!(
            CircuitSwitch::split(shift(4, 1), 5, five_us()),
            Err(FabricError::PortOutOfRange { port: 5, n: 4 })
        ));
        assert!(CircuitSwitch::split(shift(4, 1), 4, five_us()).is_ok());
    }
}
