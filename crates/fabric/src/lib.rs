//! # aps-fabric — programmable photonic interconnect device models
//!
//! The paper's architecture (§3.1): `n` GPUs, each with one
//! electrical-to-optical transceiver, attached to an `n`-port photonic
//! interconnect that establishes direct optical circuits between port pairs.
//! Three device models cover the paper's two designs and the mixed fabrics
//! of its deployment sketch (§4):
//!
//! * [`switch::CircuitSwitch`] — a centrally-programmed circuit switch
//!   (PipSwitch-style): reconfiguration delay follows a pluggable
//!   [`aps_cost::ReconfigModel`] (constant `α_r` or per-port affine).
//!   [`CircuitSwitch::split`] hangs a prefix of its ports off an
//!   electrical crossbar as well: circuits with both ends on the crossbar
//!   reconfigure for free, so the same type models an all-photonic
//!   switch, a hybrid electrical + optical pod, and (every port on the
//!   crossbar) the zero-reconfiguration electrical baseline.
//! * [`wavelength::WavelengthFabric`] — a passive wavelength-routed fabric
//!   with tunable transceivers: no central controller, reconfiguration time
//!   is the slowest *retuned* port.
//! * [`wavelength_bank::WavelengthBankFabric`] — a dense-WDM bank of
//!   discrete wavelength bands with per-λ lock-on costs and fast
//!   intra-band hops.
//!
//! All three implement the [`Fabric`] trait the simulator drives, and all
//! three admit and commit requests through the same [`FabricState`]
//! bookkeeping, so a rejected request changes nothing on any device. Fault
//! injection (stuck ports, slow controllers, slow lasers) lets tests
//! exercise degraded-fabric behavior, mirroring smoltcp-style fault
//! options.
//!
//! A fabric configuration is simply an [`aps_matrix::Matching`] over ports:
//! TX port `i` lights a circuit to RX port `j`. The same type describes
//! collective steps, which is Observation 1's point made physical.

pub mod barrier;
pub mod error;
pub mod switch;
pub mod wavelength;
pub mod wavelength_bank;

pub use barrier::BarrierModel;
pub use error::FabricError;
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

impl FabricState {
    /// A device's state before its first request: `config` carries
    /// traffic and the controller is free.
    fn idle(config: Matching) -> Self {
        Self {
            config,
            busy_until: 0,
        }
    }

    /// Rejects a configuration whose port count differs from the device's.
    fn check_dims(&self, other: &Matching) -> Result<(), FabricError> {
        if other.n() != self.config.n() {
            return Err(FabricError::DimensionMismatch {
                fabric: self.config.n(),
                target: other.n(),
            });
        }
        Ok(())
    }

    /// Rejects a fault-injection hook aimed at a port the device lacks.
    fn check_port(&self, port: usize) -> Result<(), FabricError> {
        let n = self.config.n();
        if port >= n {
            return Err(FabricError::PortOutOfRange { port, n });
        }
        Ok(())
    }

    /// The admission rule every device applies before pricing a request:
    /// `target` spans the device's ports and the controller is free at
    /// `now`.
    fn admit(&self, target: &Matching, now: Picos) -> Result<(), FabricError> {
        self.check_dims(target)?;
        if now < self.busy_until {
            return Err(FabricError::Busy {
                until: self.busy_until,
            });
        }
        Ok(())
    }

    /// Adopts `next`, ready `delay` after `now`. The clock is checked
    /// before anything moves, so a request that would finish past its end
    /// ([`FabricError::ClockOverflow`]) leaves the device as it was.
    /// `clone_from` reuses the configuration's buffer, so a steady-state
    /// reconfiguration allocates nothing.
    fn commit(
        &mut self,
        next: &Matching,
        now: Picos,
        delay: Picos,
        ports_changed: usize,
    ) -> Result<ReconfigOutcome, FabricError> {
        let ready_at = now
            .checked_add(delay)
            .ok_or(FabricError::ClockOverflow { now, delay })?;
        self.config.clone_from(next);
        self.busy_until = ready_at;
        Ok(ReconfigOutcome {
            ready_at,
            ports_changed,
        })
    }

    /// Every device's [`Fabric::load_state`]: adopts a captured state of
    /// the same port count.
    fn load(&mut self, state: &FabricState) -> Result<(), FabricError> {
        self.check_dims(&state.config)?;
        self.config.clone_from(&state.config);
        self.busy_until = state.busy_until;
        Ok(())
    }
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
