//! Heterogeneous-fabric scenarios: hybrid electrical+optical domains,
//! multi-wavelength banks, and seeded failure storms.
//!
//! The paper's deployment sketch (§4) expects scale-up domains that are
//! *not* uniformly photonic: pods keep an electrical crossbar next to the
//! optical core, transceivers tune over discrete wavelength banks, and
//! links flap. This module packages those situations the same way
//! [`crate::scenarios`] packages workload mixes — as fully deterministic
//! generators the bench harness and the C ABI can both drive:
//!
//! * [`FabricKind`] + [`build_fabric`] — the fabric menu: a
//!   [`CircuitSwitch`] with every port, no port or half the ports on its
//!   electrical crossbar (all-electrical baseline, all-optical switch,
//!   hybrid pod), and a 4-band [`WavelengthBankFabric`]. Every variant is
//!   built from the same `(initial, ReconfigModel)` pair, so benches sweep
//!   media like they sweep controllers.
//! * [`hybrid_mix`] / [`multi_wavelength`] — tenant mixes shaped for
//!   those fabrics: partitions pinned entirely on the crossbar, entirely
//!   on the photonic core, and straddling the boundary.
//! * [`FailureStorm`] — a seeded, correlated fault burst (contiguous
//!   link flaps plus transceiver degradation) layered on the fabric
//!   fault-injection hooks; same seed, same storm, bit-identical runs.
//!
//! Scenarios run on an alternate fabric through [`Scenario::run_on`] or
//! `Experiment::simulate_on`; nothing here uses wall clocks or ambient
//! RNG, so results are bit-identical at any `APS_THREADS`.
//!
//! ```
//! use aps_sim::scenarios::hetero::{self, FabricKind, FailureStorm};
//! use aps_sim::RunConfig;
//! use aps_cost::ReconfigModel;
//! use aps_matrix::Matching;
//!
//! // The hybrid mix on a half-crossbar switch, under a seeded storm.
//! let scenario = hetero::hybrid_mix(1024.0 * 1024.0);
//! let mut fabric = hetero::build_fabric_stormy(
//!     FabricKind::Hybrid,
//!     Matching::shift(scenario.n, 1).unwrap(),
//!     ReconfigModel::constant(10e-6).unwrap(),
//!     Some(FailureStorm::new(42)),
//! )
//! .unwrap();
//! let reports = scenario
//!     .run_on(fabric.as_mut(), &RunConfig::paper_defaults())
//!     .unwrap();
//! // The all-electrical tenant survives any storm aimed at the photonic
//! // side; per-tenant failures stay in their own slot.
//! assert!(reports[0].is_ok());
//! ```

use super::{by_name as base_by_name, Scenario};
use crate::error::SimError;
use crate::tenant::TenantSpec;
use aps_collectives::{allreduce, alltoall};
use aps_core::SwitchSchedule;
use aps_cost::ReconfigModel;
use aps_fabric::{CircuitSwitch, Fabric, WavelengthBankFabric};
use aps_matrix::Matching;

/// Number of wavelength bands the [`FabricKind::WavelengthBank`] menu
/// entry uses (a typical CWDM grid slice).
pub const BANK_BANDS: usize = 4;

/// The fabric media menu heterogeneous benches sweep. The first three
/// kinds are one [`CircuitSwitch`] that differs only in how many ports
/// hang off its electrical crossbar ([`CircuitSwitch::split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// Every port on the crossbar: every reconfiguration free — the
    /// zero-reconfig baseline.
    Electrical,
    /// No port on the crossbar: an all-optical circuit switch priced by
    /// the [`ReconfigModel`].
    Optical,
    /// Ports `0..n/2` on the crossbar, the rest photonic.
    Hybrid,
    /// A [`BANK_BANDS`]-band [`WavelengthBankFabric`] on the ladder
    /// pricing derived from the model's single-port delay.
    WavelengthBank,
}

impl FabricKind {
    /// Stable identifier used in bench reports and the C ABI.
    pub fn name(self) -> &'static str {
        match self {
            Self::Electrical => "electrical",
            Self::Optical => "optical",
            Self::Hybrid => "hybrid",
            Self::WavelengthBank => "wavelength-bank",
        }
    }

    /// Every kind, in the stable bench order.
    pub fn all() -> [FabricKind; 4] {
        [
            Self::Electrical,
            Self::Optical,
            Self::Hybrid,
            Self::WavelengthBank,
        ]
    }

    /// Looks a kind up by its stable name.
    pub fn by_name(name: &str) -> Option<FabricKind> {
        Self::all().into_iter().find(|k| k.name() == name)
    }
}

/// Builds the fabric a [`FabricKind`] names, initialized to `initial`
/// and priced by `reconfig` (circuits between crossbar ports ignore it;
/// the wavelength bank derives its per-λ ladder from the model's
/// single-port delay).
///
/// # Errors
///
/// Propagates fabric constructor validation as [`SimError::Fabric`].
pub fn build_fabric(
    kind: FabricKind,
    initial: Matching,
    reconfig: ReconfigModel,
) -> Result<Box<dyn Fabric>, SimError> {
    build_fabric_stormy(kind, initial, reconfig, None)
}

/// [`build_fabric`] with an optional [`FailureStorm`] applied to the
/// freshly built device — the one constructor the C ABI and the benches
/// share, so a storm is always laid down the same way on every medium
/// (flaps + photonic slowdown on the circuit switch, transceiver ageing
/// on the wavelength bank).
///
/// # Errors
///
/// Propagates fabric constructor and fault-hook validation as
/// [`SimError::Fabric`].
pub fn build_fabric_stormy(
    kind: FabricKind,
    initial: Matching,
    reconfig: ReconfigModel,
    storm: Option<FailureStorm>,
) -> Result<Box<dyn Fabric>, SimError> {
    let crossbar_below = match kind {
        FabricKind::Electrical => initial.n(),
        FabricKind::Optical => 0,
        FabricKind::Hybrid => initial.n() / 2,
        FabricKind::WavelengthBank => {
            let mut f = WavelengthBankFabric::ladder(initial, reconfig.delay_s(1), BANK_BANDS)
                .map_err(SimError::Fabric)?;
            if let Some(s) = storm {
                s.apply_bank(&mut f)?;
            }
            return Ok(Box::new(f));
        }
    };
    let mut f =
        CircuitSwitch::split(initial, crossbar_below, reconfig).map_err(SimError::Fabric)?;
    if let Some(s) = storm {
        s.apply_switch(&mut f)?;
    }
    Ok(Box::new(f))
}

/// Builds one tenant on `ports` with a ring base over its partition.
fn tenant(name: &str, ports: Vec<usize>, collective: aps_collectives::Collective) -> TenantSpec {
    let n = ports.len();
    let steps = collective.schedule.num_steps();
    TenantSpec {
        name: name.into(),
        ports,
        base_config: Matching::shift(n, 1).expect("partitions have ≥ 2 ports"),
        schedule: collective.schedule,
        switch_schedule: SwitchSchedule::all_matched(steps),
        arrival_s: 0.0,
    }
}

/// Three tenants on a 32-port hybrid domain split at port 16: an MoE
/// All-to-All pinned on the electrical crossbar (ports 0–7, every
/// reconfiguration free), an AllReduce straddling the media boundary
/// (ports 12–19, half its circuits pay photonic cost), and an All-to-All
/// entirely on the optical core (ports 24–31). `bytes` is the AllReduce
/// gradient volume; the shuffles move `2·bytes`.
///
/// # Panics
///
/// Never for positive finite `bytes` (collective builders validate).
pub fn hybrid_mix(bytes: f64) -> Scenario {
    let elec = alltoall::linear_shift(8, 2.0 * bytes).expect("valid all-to-all");
    let boundary = allreduce::halving_doubling::build(8, bytes).expect("valid allreduce");
    let opt = alltoall::linear_shift(8, 2.0 * bytes).expect("valid all-to-all");
    Scenario {
        name: "hetero-hybrid".into(),
        n: 32,
        tenants: vec![
            tenant("elec-shuffle", (0..8).collect(), elec),
            tenant("boundary-allreduce", (12..20).collect(), boundary),
            tenant("opt-shuffle", (24..32).collect(), opt),
        ],
    }
}

/// Two tenants on a 24-port wavelength-bank domain: a "band-local"
/// AllReduce whose halving-doubling distances mostly stay within one
/// wavelength band, next to a "band-hopper" All-to-All whose rolling
/// shifts retune across the whole bank every step.
///
/// # Panics
///
/// Never for positive finite `bytes`.
pub fn multi_wavelength(bytes: f64) -> Scenario {
    let local = allreduce::halving_doubling::build(8, bytes).expect("valid allreduce");
    let hopper = alltoall::linear_shift(16, 2.0 * bytes).expect("valid all-to-all");
    Scenario {
        name: "multi-wavelength".into(),
        n: 24,
        tenants: vec![
            tenant("band-local", (0..8).collect(), local),
            tenant("band-hopper", (8..24).collect(), hopper),
        ],
    }
}

/// Every heterogeneous scenario at the given base volume, stable order.
pub fn all(bytes: f64) -> Vec<Scenario> {
    vec![hybrid_mix(bytes), multi_wavelength(bytes)]
}

/// Looks a scenario up by name across the heterogeneous pack *and* the
/// base [`crate::scenarios`] generators — the single lookup the C ABI
/// and benches use.
pub fn by_name(name: &str, bytes: f64) -> Option<Scenario> {
    all(bytes)
        .into_iter()
        .find(|s| s.name == name)
        .or_else(|| base_by_name(name, bytes))
}

/// A seeded, correlated fault burst: a contiguous run of TX ports loses
/// link (flaps), and the optical side's reconfiguration slows down
/// (transceiver degradation) — the two faults one marginal transceiver
/// tray produces together. The storm is a pure function of `(seed, n)`:
/// the victim ports come from one SplitMix64 draw, so the same seed
/// reproduces the same storm bit-for-bit on every machine.
#[derive(Debug, Clone, Copy)]
pub struct FailureStorm {
    /// Storm seed: selects the victim tray.
    pub seed: u64,
    /// Number of contiguous ports that flap.
    pub flap_len: usize,
    /// Retune/reconfiguration stretch on degraded transceivers (≥ 1).
    pub degrade: f64,
}

/// One step of the SplitMix64 sequence (Steele et al.) — the only RNG
/// in the scenario layer, hand-rolled so the storm stays dependency-free
/// and reproducible.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FailureStorm {
    /// A storm with the default severity: a 3-port flap tray and 4×
    /// transceiver degradation.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            flap_len: 3,
            degrade: 4.0,
        }
    }

    /// The contiguous victim ports on an `n`-port fabric (wrapping).
    pub fn victims(&self, n: usize) -> Vec<usize> {
        if n == 0 {
            return Vec::new();
        }
        let mut state = self.seed;
        let start = (splitmix64(&mut state) % n as u64) as usize;
        (0..self.flap_len.min(n)).map(|k| (start + k) % n).collect()
    }

    /// Applies the storm to a circuit switch: the photonic side degrades
    /// and victim TX ports stick (their circuits freeze, on either
    /// medium). Returns the victim ports.
    ///
    /// # Errors
    ///
    /// Rejects an infinite `degrade` with
    /// [`aps_fabric::FabricError::BadTuningDelay`] before sticking any
    /// port; propagates fabric validation otherwise.
    pub fn apply_switch(&self, fabric: &mut CircuitSwitch) -> Result<Vec<usize>, SimError> {
        fabric
            .set_slowdown(self.degrade.max(1.0))
            .map_err(SimError::Fabric)?;
        let victims = self.victims(fabric.n());
        for &p in &victims {
            fabric.stick_port(p).map_err(SimError::Fabric)?;
        }
        Ok(victims)
    }

    /// Reverts [`FailureStorm::apply_switch`]: unsticks the victims and
    /// restores nominal photonic speed.
    pub fn heal_switch(&self, fabric: &mut CircuitSwitch) {
        for p in self.victims(fabric.n()) {
            fabric.unstick_port(p);
        }
        fabric.set_slowdown(1.0).expect("1.0 is a valid slowdown");
    }

    /// Applies the storm to a wavelength bank: victim transceivers age
    /// (every retune stretched by the degradation factor). Returns the
    /// victim ports.
    ///
    /// # Errors
    ///
    /// Rejects an infinite `degrade` with
    /// [`aps_fabric::FabricError::BadTuningDelay`]; propagates fabric
    /// validation otherwise.
    pub fn apply_bank(&self, fabric: &mut WavelengthBankFabric) -> Result<Vec<usize>, SimError> {
        let victims = self.victims(fabric.n());
        for &p in &victims {
            fabric
                .degrade_port(p, self.degrade.max(1.0))
                .map_err(SimError::Fabric)?;
        }
        Ok(victims)
    }

    /// Reverts [`FailureStorm::apply_bank`].
    pub fn heal_bank(&self, fabric: &mut WavelengthBankFabric) {
        for p in self.victims(fabric.n()) {
            fabric.heal_port(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RunConfig;
    use aps_cost::units::MIB;
    use aps_fabric::FabricError;

    fn reconfig() -> ReconfigModel {
        ReconfigModel::constant(5e-6).unwrap()
    }

    #[test]
    fn hetero_scenarios_run_on_every_fabric_kind() {
        let cfg = RunConfig::paper_defaults();
        for scenario in all(MIB) {
            for kind in FabricKind::all() {
                let initial = scenario.initial_config().unwrap();
                let mut fabric = build_fabric(kind, initial, reconfig()).unwrap();
                let reports = scenario.run_on(fabric.as_mut(), &cfg).unwrap();
                for (t, r) in scenario.tenants.iter().zip(&reports) {
                    let r = r
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", kind.name(), t.name));
                    assert!(r.finish_ps > r.arrival_ps);
                }
            }
        }
    }

    #[test]
    fn electrical_never_beats_nothing_and_optical_pays() {
        // On the all-electrical crossbar every reconfiguration is free, so
        // the makespan is a lower bound for the all-optical run of the
        // same scenario.
        let cfg = RunConfig::paper_defaults();
        let s = hybrid_mix(4.0 * MIB);
        let mk = |kind| {
            let mut f = build_fabric(kind, s.initial_config().unwrap(), reconfig()).unwrap();
            s.run_on(f.as_mut(), &cfg)
                .unwrap()
                .into_iter()
                .map(|r| r.unwrap().finish_ps)
                .max()
                .unwrap()
        };
        let elec = mk(FabricKind::Electrical);
        let opt = mk(FabricKind::Optical);
        let hybrid = mk(FabricKind::Hybrid);
        assert!(elec < opt, "crossbar avoids photonic stalls");
        assert!(elec <= hybrid && hybrid <= opt, "hybrid lands in between");
    }

    #[test]
    fn fabric_kinds_round_trip_by_name() {
        for kind in FabricKind::all() {
            assert_eq!(FabricKind::by_name(kind.name()), Some(kind));
        }
        assert!(FabricKind::by_name("quantum").is_none());
    }

    #[test]
    fn by_name_spans_both_packs() {
        assert!(by_name("hetero-hybrid", MIB).is_some());
        assert!(by_name("multi-wavelength", MIB).is_some());
        assert!(by_name("mixed-collectives", MIB).is_some());
        assert!(by_name("no-such-mix", MIB).is_none());
    }

    #[test]
    fn storms_are_deterministic_and_correlated() {
        let storm = FailureStorm::new(7);
        let a = storm.victims(32);
        let b = storm.victims(32);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Contiguous (wrapping) run.
        for w in a.windows(2) {
            assert_eq!((w[0] + 1) % 32, w[1]);
        }
        // Different seeds eventually pick different trays.
        assert!((0..16).any(|s| FailureStorm::new(s).victims(32) != a));
    }

    #[test]
    fn storm_applies_and_heals_on_both_fabric_families() {
        let s = hybrid_mix(MIB);
        let cfg = RunConfig::paper_defaults();
        let storm = FailureStorm::new(11);

        let mut hybrid = CircuitSwitch::split(s.initial_config().unwrap(), 16, reconfig()).unwrap();
        let baseline = {
            let mut f =
                build_fabric(FabricKind::Hybrid, s.initial_config().unwrap(), reconfig()).unwrap();
            s.run_on(f.as_mut(), &cfg).unwrap()
        };
        storm.apply_switch(&mut hybrid).unwrap();
        let stormy = s.run_on(&mut hybrid, &cfg).unwrap();
        // Runs complete under the storm (stuck circuits may reroute or
        // relay), deterministically.
        let stormy2 = {
            let mut f = CircuitSwitch::split(s.initial_config().unwrap(), 16, reconfig()).unwrap();
            storm.apply_switch(&mut f).unwrap();
            s.run_on(&mut f, &cfg).unwrap()
        };
        for (x, y) in stormy.iter().zip(&stormy2) {
            assert_eq!(x.as_ref().ok(), y.as_ref().ok());
        }
        // Healing restores the fault-free timings exactly.
        storm.heal_switch(&mut hybrid);
        hybrid.reset_clock();
        let healed = s.run_on(&mut hybrid, &cfg).unwrap();
        for (x, y) in healed.iter().zip(&baseline) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }

        let mw = multi_wavelength(MIB);
        let mut bank =
            WavelengthBankFabric::ladder(mw.initial_config().unwrap(), 5e-6, BANK_BANDS).unwrap();
        let clean: Vec<_> = mw
            .run_on(&mut bank, &cfg)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap().finish_ps)
            .collect();
        bank.reset_clock();
        storm.apply_bank(&mut bank).unwrap();
        let degraded: Vec<_> = mw
            .run_on(&mut bank, &cfg)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap().finish_ps)
            .collect();
        assert!(degraded.iter().zip(&clean).any(|(d, c)| d > c));
        storm.heal_bank(&mut bank);
        bank.reset_clock();
        let healed: Vec<_> = mw
            .run_on(&mut bank, &cfg)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap().finish_ps)
            .collect();
        assert_eq!(healed, clean);
    }

    #[test]
    fn an_infinite_degrade_is_a_typed_error_on_every_kind() {
        let storm = FailureStorm {
            degrade: f64::INFINITY,
            ..FailureStorm::new(3)
        };
        for kind in FabricKind::all() {
            let built = build_fabric_stormy(
                kind,
                Matching::shift(8, 1).unwrap(),
                reconfig(),
                Some(storm),
            );
            assert!(
                matches!(
                    built.err(),
                    Some(SimError::Fabric(FabricError::BadTuningDelay(f))) if f == f64::INFINITY
                ),
                "{}",
                kind.name()
            );
        }
    }
}
