//! # aps-fabric — programmable photonic interconnect device models
//!
//! The paper's architecture (§3.1): `n` GPUs, each with one
//! electrical-to-optical transceiver, attached to an `n`-port photonic
//! interconnect that establishes direct optical circuits between port pairs.
//! Two realizations are modelled, matching the two designs the paper
//! sketches:
//!
//! * [`switch::CircuitSwitch`] — a centrally-programmed circuit switch
//!   (PipSwitch-style): reconfiguration delay follows a pluggable
//!   [`aps_cost::ReconfigModel`] (constant `α_r` or per-port affine).
//! * [`wavelength::WavelengthFabric`] — a passive wavelength-routed fabric
//!   with tunable transceivers: no central controller, reconfiguration time
//!   is the slowest *retuned* port.
//!
//! Two heterogeneous variants extend them for the paper's mixed-fabric
//! scenarios:
//!
//! * [`hybrid::HybridFabric`] — a composite fabric routing a designated
//!   port subset through a zero-reconfiguration electrical crossbar while
//!   the rest pays full photonic switching cost.
//! * [`wavelength_bank::WavelengthBankFabric`] — a dense-WDM bank of
//!   discrete wavelength bands with per-λ lock-on costs and fast
//!   intra-band hops.
//!
//! Both implement the [`Fabric`] trait the simulator drives. Fault injection
//! (stuck ports, slow tuning) lets tests exercise degraded-fabric behavior,
//! mirroring smoltcp-style fault options.
//!
//! A fabric configuration is simply an [`aps_matrix::Matching`] over ports:
//! TX port `i` lights a circuit to RX port `j`. The same type describes
//! collective steps, which is Observation 1's point made physical.

pub mod barrier;
pub mod error;
pub mod hybrid;
pub mod switch;
pub mod transceiver;
pub mod wavelength;
pub mod wavelength_bank;

pub use barrier::BarrierModel;
pub use error::FabricError;
pub use hybrid::HybridFabric;
pub use switch::CircuitSwitch;
pub use wavelength::WavelengthFabric;
pub use wavelength_bank::WavelengthBankFabric;

use aps_cost::units::Picos;
use aps_matrix::Matching;

/// The per-run mutable device state a checkpoint must capture to resume a
/// simulation bit-identically: the configuration currently carrying
/// traffic and when the controller frees. Static device properties (delay
/// model, injected faults, statistics) are deliberately *not* part of the
/// state — a restored run keeps whatever device it is restored onto.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricState {
    /// The configuration carrying traffic at capture time.
    pub config: Matching,
    /// The device-clock instant until which the controller is busy.
    pub busy_until: Picos,
}

/// Result of asking a fabric to reconfigure. The configuration actually
/// achieved (which differs from the target only under fault injection) is
/// not carried here — after [`Fabric::request`] returns it *is*
/// [`Fabric::current`], so callers read it from the device and the outcome
/// stays `Copy` (the simulator's zero-allocation hot path depends on
/// reconfiguration requests not cloning matchings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigOutcome {
    /// When the new configuration carries traffic.
    pub ready_at: Picos,
    /// Number of TX ports whose circuit changed.
    pub ports_changed: usize,
}

/// When a reconfiguration requested at `now` and taking `delay` is ready.
/// Device models compute this before touching their state, so a request
/// that would run past the end of the clock leaves the fabric unchanged.
fn checked_ready_at(now: Picos, delay: Picos) -> Result<Picos, FabricError> {
    now.checked_add(delay)
        .ok_or(FabricError::ClockOverflow { now, delay })
}

/// A reconfigurable photonic interconnect.
pub trait Fabric {
    /// Port count.
    fn n(&self) -> usize;

    /// The configuration currently carrying traffic.
    fn current(&self) -> &Matching;

    /// Requests a reconfiguration to `target` at time `now`; returns when
    /// the fabric is ready and what it actually achieved.
    ///
    /// # Errors
    ///
    /// Implementations reject dimension mismatches, overlapping requests,
    /// and requests that would finish past the end of the picosecond clock
    /// ([`FabricError::ClockOverflow`]); a rejected request changes nothing.
    fn request(&mut self, target: &Matching, now: Picos) -> Result<ReconfigOutcome, FabricError>;

    /// When the controller is free again: requests before this instant are
    /// rejected with [`FabricError::Busy`]. This is the arbitration hook
    /// multi-tenant executors use to queue behind an in-flight
    /// reconfiguration instead of failing (see `aps-sim`'s tenant
    /// executor).
    fn busy_until(&self) -> Picos;

    /// Captures the mutable device state a deterministic checkpoint needs
    /// ([`Fabric::current`] + [`Fabric::busy_until`]); restore it with
    /// [`Fabric::load_state`].
    fn save_state(&self) -> FabricState {
        FabricState {
            config: self.current().clone(),
            busy_until: self.busy_until(),
        }
    }

    /// Restores state captured by [`Fabric::save_state`], so a fresh (or
    /// reset) device resumes exactly where the captured one stood. Faults
    /// and statistics are untouched: the state describes the *run*, not
    /// the device.
    ///
    /// # Errors
    ///
    /// Rejects a configuration whose port count differs from the fabric's.
    fn load_state(&mut self, state: &FabricState) -> Result<(), FabricError>;

    /// [`Fabric::request`] deferred past any in-flight reconfiguration:
    /// the request is issued at `max(now, busy_until())` and that granted
    /// instant is returned alongside the outcome. This is how a shared
    /// fabric arbitrates between tenants — first come, first served.
    ///
    /// # Errors
    ///
    /// Propagates every error except [`FabricError::Busy`], which the
    /// deferral prevents.
    fn request_when_free(
        &mut self,
        target: &Matching,
        now: Picos,
    ) -> Result<(Picos, ReconfigOutcome), FabricError> {
        let granted = now.max(self.busy_until());
        self.request(target, granted).map(|o| (granted, o))
    }
}
