//! Multi-wavelength fabric: a bank of λ lanes with per-λ retune costs.
//!
//! The paper's wavelength-routed design (§3.1) assumes one tunable laser
//! per port sweeping a single continuum. Real dense-WDM transceivers
//! tune over a *bank* of discrete wavelength bands, and locking onto a
//! band is not uniformly priced: hops into distant bands need longer
//! thermal settling than staying within the current band's comb. This
//! model makes that structure explicit:
//!
//! * the AWGR core assigns circuit `p → d` the wavelength index
//!   `(d − p) mod n`, folded into one of `W` bands (`mod W`);
//! * a TX port whose new circuit lands in a **different** band pays that
//!   band's retune cost (`retune_s[band]` — per-λ pricing);
//! * a changed circuit **within** the same band pays only the fast
//!   intra-band hop (`intra_band_s`);
//! * the fabric is ready when the slowest retuning port locks
//!   (synchronous steps, like [`crate::WavelengthFabric`]).
//!
//! Transceiver degradation — the ageing-laser fault the failure storms
//! inject — is a per-port multiplier on every retune
//! ([`WavelengthBankFabric::degrade_port`]).
//!
//! ```
//! use aps_fabric::{Fabric, WavelengthBankFabric};
//! use aps_matrix::Matching;
//!
//! // 8 ports, 4 bands: band k costs (k+1) µs to lock, 100 ns in-band.
//! let retune = vec![1e-6, 2e-6, 3e-6, 4e-6];
//! let mut f = WavelengthBankFabric::new(
//!     Matching::shift(8, 1).unwrap(), retune, 100e-9).unwrap();
//!
//! // shift(1) → shift(2): every port hops from band 1 to band 2, so the
//! // fabric locks after retune_s[2] = 3 µs.
//! let out = f.request(&Matching::shift(8, 2).unwrap(), 0).unwrap();
//! assert_eq!(out.ready_at, 3_000_000);
//!
//! // shift(2) → shift(6): (6 mod 4) is band 2 again — intra-band hop.
//! let out = f.request(&Matching::shift(8, 6).unwrap(), out.ready_at).unwrap();
//! assert_eq!(out.ready_at - 3_000_000, 100_000);
//! ```

use crate::error::FabricError;
use crate::{Fabric, FabricState, ReconfigOutcome};
use aps_cost::units::{secs_to_picos, Picos};
use aps_matrix::Matching;

/// A wavelength-bank fabric: an AWGR core plus per-port transceivers
/// tuning over `W` discrete bands with per-λ retune costs. See the
/// [module docs](self) for the cost rule.
#[derive(Debug)]
pub struct WavelengthBankFabric {
    state: FabricState,
    /// Per-band lock-on cost in seconds (`len` = number of bands).
    retune_s: Vec<f64>,
    /// Cost of a destination change within the same band.
    intra_band_s: f64,
    /// Per-port retune multiplier (≥ 1.0 models an ageing laser).
    degradation: Vec<f64>,
}

impl WavelengthBankFabric {
    /// Creates a bank fabric with `retune_s[k]` pricing a lock onto band
    /// `k` and `intra_band_s` pricing same-band destination changes.
    ///
    /// # Errors
    ///
    /// Rejects an empty bank and negative or non-finite costs.
    pub fn new(
        initial: Matching,
        retune_s: Vec<f64>,
        intra_band_s: f64,
    ) -> Result<Self, FabricError> {
        if retune_s.is_empty() {
            return Err(FabricError::EmptyWavelengthBank);
        }
        for &t in retune_s.iter().chain(std::iter::once(&intra_band_s)) {
            if !t.is_finite() || t < 0.0 {
                return Err(FabricError::BadTuningDelay(t));
            }
        }
        let n = initial.n();
        Ok(Self {
            state: FabricState::idle(initial),
            retune_s,
            intra_band_s,
            degradation: vec![1.0; n],
        })
    }

    /// A geometric retune ladder: band `k` of `bands` costs
    /// `alpha_r_s · (k + 1) / bands`, with a fast intra-band hop of
    /// `alpha_r_s / (8 · bands)` — the default pricing the heterogeneous
    /// scenario pack and benches use, derived from one α_r knob.
    ///
    /// # Errors
    ///
    /// Rejects zero bands and invalid α_r.
    pub fn ladder(initial: Matching, alpha_r_s: f64, bands: usize) -> Result<Self, FabricError> {
        if bands == 0 {
            return Err(FabricError::EmptyWavelengthBank);
        }
        if !alpha_r_s.is_finite() || alpha_r_s < 0.0 {
            return Err(FabricError::BadTuningDelay(alpha_r_s));
        }
        let retune = (0..bands)
            .map(|k| alpha_r_s * (k + 1) as f64 / bands as f64)
            .collect();
        Self::new(initial, retune, alpha_r_s / (8.0 * bands as f64))
    }

    /// Number of wavelength bands in the bank.
    pub fn bands(&self) -> usize {
        self.retune_s.len()
    }

    /// The band circuit `p → d` uses: the AWGR wavelength index
    /// `(d − p) mod n`, folded modulo the bank size.
    pub fn band_of(&self, p: usize, d: usize) -> usize {
        let n = self.state.config.n();
        ((d + n - p) % n) % self.retune_s.len()
    }

    /// Degrades one port's transceiver: every subsequent retune of that
    /// port is stretched by `factor` (the ageing-laser fault).
    ///
    /// # Errors
    ///
    /// Rejects out-of-range ports and factors below 1 or non-finite.
    pub fn degrade_port(&mut self, port: usize, factor: f64) -> Result<(), FabricError> {
        self.state.check_port(port)?;
        if !factor.is_finite() || factor < 1.0 {
            return Err(FabricError::BadTuningDelay(factor));
        }
        self.degradation[port] = factor;
        Ok(())
    }

    /// Restores one port's transceiver to nominal speed.
    pub fn heal_port(&mut self, port: usize) {
        if let Some(d) = self.degradation.get_mut(port) {
            *d = 1.0;
        }
    }

    /// Rewinds the device clock to `t = 0` (keeping configuration, bank
    /// pricing and degradations) for reuse across simulation runs.
    pub fn reset_clock(&mut self) {
        self.state.busy_until = 0;
    }

    /// The settle time of port `p` moving from its current circuit to
    /// `next` (`None` = laser off, free).
    fn port_settle_s(&self, p: usize, next: Option<usize>) -> f64 {
        let Some(d_new) = next else { return 0.0 };
        let base = match self.state.config.dst_of(p) {
            Some(d_old) if self.band_of(p, d_old) == self.band_of(p, d_new) => self.intra_band_s,
            _ => self.retune_s[self.band_of(p, d_new)],
        };
        base * self.degradation[p]
    }
}

impl Fabric for WavelengthBankFabric {
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
        let current = &self.state.config;
        let slowest = (0..current.n())
            .filter(|&p| current.dst_of(p) != target.dst_of(p))
            .map(|p| self.port_settle_s(p, target.dst_of(p)))
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

    fn bank(n: usize) -> WavelengthBankFabric {
        WavelengthBankFabric::new(shift(n, 1), vec![1e-6, 2e-6, 3e-6, 4e-6], 100e-9).unwrap()
    }

    #[test]
    fn cross_band_hop_pays_the_target_band_cost() {
        let mut f = bank(8);
        // shift(1) → shift(3): band 1 → band 3, cost retune_s[3] = 4 µs.
        let out = f.request(&shift(8, 3), 0).unwrap();
        assert_eq!(out.ready_at, secs_to_picos(4e-6));
        assert_eq!(out.ports_changed, 8);
    }

    #[test]
    fn a_band_hop_past_the_clock_end_changes_nothing() {
        let mut f = bank(8);
        let now = Picos::MAX - 1;
        assert_eq!(
            f.request(&shift(8, 3), now),
            Err(FabricError::ClockOverflow {
                now,
                delay: secs_to_picos(4e-6)
            })
        );
        assert_eq!(f.current(), &shift(8, 1));
        assert_eq!(f.busy_until(), 0);
    }

    #[test]
    fn intra_band_hop_is_fast() {
        let mut f = bank(8);
        // shift(1) → shift(5): 5 mod 4 = band 1 = current band.
        let out = f.request(&shift(8, 5), 0).unwrap();
        assert_eq!(out.ready_at, secs_to_picos(100e-9));
    }

    #[test]
    fn unchanged_ports_do_not_retune() {
        let initial = Matching::from_pairs(8, &[(0, 1), (2, 5)]).unwrap();
        let target = Matching::from_pairs(8, &[(0, 3), (2, 5)]).unwrap();
        let mut f = WavelengthBankFabric::new(initial, vec![1e-6, 2e-6], 10e-9).unwrap();
        f.degrade_port(2, 1000.0).unwrap(); // unchanged port: irrelevant
        let out = f.request(&target, 0).unwrap();
        // 0→3 is wavelength 3 → band 1; 0→1 was wavelength 1 → band 1:
        // same band, intra-band hop.
        assert_eq!(out.ready_at, secs_to_picos(10e-9));
        assert_eq!(out.ports_changed, 1);
    }

    #[test]
    fn degraded_port_gates_the_whole_step() {
        let mut f = bank(8);
        f.degrade_port(5, 10.0).unwrap();
        let out = f.request(&shift(8, 2), 0).unwrap();
        // Band 2 costs 3 µs; port 5 is 10× slower.
        assert_eq!(out.ready_at, secs_to_picos(30e-6));
        f.heal_port(5);
        let out = f.request(&shift(8, 3), out.ready_at).unwrap();
        assert_eq!(out.ready_at - secs_to_picos(30e-6), secs_to_picos(4e-6));
    }

    #[test]
    fn laser_off_is_free() {
        let initial = Matching::from_pairs(8, &[(0, 1)]).unwrap();
        let mut f = WavelengthBankFabric::new(initial, vec![1e-6], 10e-9).unwrap();
        let out = f.request(&Matching::empty(8), 0).unwrap();
        assert_eq!(out.ready_at, 0);
        assert_eq!(out.ports_changed, 1);
    }

    #[test]
    fn ladder_prices_bands_linearly() {
        let f = WavelengthBankFabric::ladder(shift(8, 1), 8e-6, 4).unwrap();
        assert_eq!(f.bands(), 4);
        assert_eq!(f.retune_s, vec![2e-6, 4e-6, 6e-6, 8e-6]);
        assert_eq!(f.intra_band_s, 0.25e-6);
    }

    #[test]
    fn validation() {
        assert!(matches!(
            WavelengthBankFabric::new(shift(4, 1), vec![], 0.0),
            Err(FabricError::EmptyWavelengthBank)
        ));
        assert!(WavelengthBankFabric::new(shift(4, 1), vec![-1.0], 0.0).is_err());
        assert!(WavelengthBankFabric::new(shift(4, 1), vec![1e-6], f64::NAN).is_err());
        assert!(WavelengthBankFabric::ladder(shift(4, 1), 1e-6, 0).is_err());
        let mut f = bank(8);
        assert!(f.degrade_port(9, 2.0).is_err());
        assert!(f.degrade_port(1, 0.5).is_err());
        assert!(matches!(
            f.request(&shift(4, 1), 0),
            Err(FabricError::DimensionMismatch { .. })
        ));
        let out = f.request(&shift(8, 2), 0).unwrap();
        assert!(matches!(
            f.request(&shift(8, 3), out.ready_at - 1),
            Err(FabricError::Busy { .. })
        ));
    }

    #[test]
    fn state_roundtrip() {
        let mut f = bank(8);
        f.request(&shift(8, 2), 0).unwrap();
        let state = f.save_state();
        let mut g = bank(8);
        g.load_state(&state).unwrap();
        assert_eq!(g.current(), f.current());
        assert_eq!(g.busy_until(), f.busy_until());
    }
}
