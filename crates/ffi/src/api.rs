//! The `extern "C"` entry points and their flat `#[repr(C)]` shapes.
//!
//! Conventions (see `include/adaptive_photonics.h` for the C view):
//!
//! * Every entry point returns [`ApsStatus`] and stores a message via
//!   [`crate::error::set_last_error`] on failure.
//! * Panics never cross the boundary: every entry point runs under
//!   `catch_unwind` and folds a panic into [`ApsStatus::Panicked`].
//! * Callers hold opaque 64-bit handles from the slot+generation
//!   [`crate::handle::HandleTable`]; stale handles and double-destroys
//!   return [`ApsStatus::StaleHandle`], never undefined behavior.
//! * Every in/out struct starts with a `struct_size` field the library
//!   checks against its own layout ([`ApsStatus::StructSizeMismatch`]
//!   catches header drift before any field is read).

// These entry points ARE the unsafe boundary: every pointer argument is
// null-checked and size-guarded before the first dereference, and the
// pointer contracts are documented in the header. Marking them `unsafe
// fn` would change nothing for C callers (C has no unsafe) while forcing
// unsafe blocks on every in-process test of the validated wrappers.
#![allow(clippy::not_unsafe_ptr_arg_deref)]

use std::ffi::{c_char, CStr};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{LazyLock, Mutex, MutexGuard};

use adaptive_photonics::experiment::{collective_by_name, Experiment};
use aps_collectives::{ScheduleStream, Workload};
use aps_core::controller::{by_name as controller_by_name, Static};
use aps_core::sweep::SweepGrid;
use aps_core::ConfigChoice;
use aps_cost::units::picos_to_secs;
use aps_cost::{CostParams, ReconfigModel};
use aps_faas::{AdmissionPolicy, PoissonArrivals, ServiceSummary};
use aps_fabric::Fabric;
use aps_matrix::Matching;
use aps_sim::scenarios::hetero::{self, FabricKind, FailureStorm};
use aps_sim::{ServiceSwitching, SimError, TenantReport};
use aps_topology::builders::ring_unidirectional;

use crate::error::set_last_error;
use crate::handle::HandleTable;
use crate::status::ApsStatus;

// ---------------------------------------------------------------------------
// ABI version
// ---------------------------------------------------------------------------

/// Bumped on breaking layout or semantics changes.
pub const ABI_MAJOR: u32 = 1;
/// Bumped on backward-compatible additions.
pub const ABI_MINOR: u32 = 0;
/// Bumped on fixes with no interface change.
pub const ABI_PATCH: u32 = 0;

/// The library's ABI version, packed `major << 16 | minor << 8 | patch`.
/// Callers reject a library whose major differs from their header's.
#[no_mangle]
pub extern "C" fn aps_abi_version() -> u32 {
    (ABI_MAJOR << 16) | (ABI_MINOR << 8) | ABI_PATCH
}

/// The semver triple, unpacked into caller-owned slots.
#[no_mangle]
pub extern "C" fn aps_abi_version_triple(
    major: *mut u32,
    minor: *mut u32,
    patch: *mut u32,
) -> ApsStatus {
    guarded(|| {
        if major.is_null() || minor.is_null() || patch.is_null() {
            return fail(ApsStatus::NullArgument, "version out-pointers are null");
        }
        unsafe {
            *major = ABI_MAJOR;
            *minor = ABI_MINOR;
            *patch = ABI_PATCH;
        }
        ApsStatus::Ok
    })
}

/// The stable C identifier of a status code (`"APS_STATUS_OK"`, …), or
/// `"APS_STATUS_UNKNOWN"` for values outside the enum. Static storage;
/// never freed by the caller.
#[no_mangle]
pub extern "C" fn aps_status_name(status: i32) -> *const c_char {
    let name: &'static CStr = match ApsStatus::all().iter().find(|s| **s as i32 == status) {
        Some(ApsStatus::Ok) => c"APS_STATUS_OK",
        Some(ApsStatus::NullArgument) => c"APS_STATUS_NULL_ARGUMENT",
        Some(ApsStatus::InvalidUtf8) => c"APS_STATUS_INVALID_UTF8",
        Some(ApsStatus::InvalidArgument) => c"APS_STATUS_INVALID_ARGUMENT",
        Some(ApsStatus::UnknownController) => c"APS_STATUS_UNKNOWN_CONTROLLER",
        Some(ApsStatus::UnknownScenario) => c"APS_STATUS_UNKNOWN_SCENARIO",
        Some(ApsStatus::UnknownWorkload) => c"APS_STATUS_UNKNOWN_WORKLOAD",
        Some(ApsStatus::StructSizeMismatch) => c"APS_STATUS_STRUCT_SIZE_MISMATCH",
        Some(ApsStatus::StaleHandle) => c"APS_STATUS_STALE_HANDLE",
        Some(ApsStatus::HandleExhausted) => c"APS_STATUS_HANDLE_EXHAUSTED",
        Some(ApsStatus::BufferTooSmall) => c"APS_STATUS_BUFFER_TOO_SMALL",
        Some(ApsStatus::WorkloadUnbound) => c"APS_STATUS_WORKLOAD_UNBOUND",
        Some(ApsStatus::Core) => c"APS_STATUS_CORE",
        Some(ApsStatus::Sim) => c"APS_STATUS_SIM",
        Some(ApsStatus::Collective) => c"APS_STATUS_COLLECTIVE",
        Some(ApsStatus::Service) => c"APS_STATUS_SERVICE",
        Some(ApsStatus::Fabric) => c"APS_STATUS_FABRIC",
        Some(ApsStatus::Panicked) => c"APS_STATUS_PANICKED",
        None => c"APS_STATUS_UNKNOWN",
    };
    name.as_ptr()
}

// ---------------------------------------------------------------------------
// repr(C) shapes
// ---------------------------------------------------------------------------

/// `aps_domain_config_t`: everything needed to stand up an experiment.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct ApsDomainConfig {
    /// Must be `sizeof(aps_domain_config_t)`.
    pub struct_size: usize,
    /// Fabric port count (the domain is a unidirectional ring of this
    /// size; scenario bindings override it with the scenario's own).
    pub ports: u32,
    /// Fixed per-step latency α in seconds (`<= 0` → paper default; NaN
    /// and +∞ are refused).
    pub alpha_s: f64,
    /// Line rate in Gbps (`<= 0` → paper default; NaN, and a rate too
    /// large for a finite byte rate, are refused).
    pub bandwidth_gbps: f64,
    /// Per-hop propagation δ in seconds (`< 0` → paper default; NaN and
    /// +∞ are refused).
    pub delta_s: f64,
    /// Reconfiguration delay α_r in seconds.
    pub alpha_r_s: f64,
    /// Controller name (`static`, `bvn`, `threshold`, `opt`, `greedy`);
    /// null → `opt`.
    pub controller: *const c_char,
    /// Fabric medium, an [`ApsFabricKind`] value.
    pub fabric: i32,
    /// Nonzero → apply the seeded failure storm to the fabric.
    pub storm: i32,
    /// Storm seed (used only when `storm` is nonzero).
    pub storm_seed: u64,
}

/// `aps_fabric_kind_t` values.
#[repr(i32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApsFabricKind {
    /// All-optical circuit switch (the paper's baseline device).
    Optical = 0,
    /// All-electrical crossbar: zero-cost reconfiguration.
    Electrical = 1,
    /// Circuit switch with its lower half of ports on an electrical
    /// crossbar.
    Hybrid = 2,
    /// Multi-wavelength bank with per-λ retune costs.
    WavelengthBank = 3,
}

/// `aps_plan_summary_t`: the cost-model pricing of a planned schedule.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct ApsPlanSummary {
    /// Must be `sizeof(aps_plan_summary_t)`.
    pub struct_size: usize,
    /// Steps in the collective.
    pub steps: u64,
    /// Steps the plan runs matched (reconfigured).
    pub matched_steps: u64,
    /// Reconfiguration events charged.
    pub reconfig_events: u64,
    /// `s·α` term, seconds.
    pub latency_s: f64,
    /// Propagation term, seconds.
    pub propagation_s: f64,
    /// Transmission term, seconds.
    pub transmission_s: f64,
    /// Reconfiguration term, seconds.
    pub reconfig_s: f64,
    /// Total planned completion, seconds.
    pub total_s: f64,
}

/// `aps_sim_summary_t`: the roll-up of a simulation run.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ApsSimSummary {
    /// Must be `sizeof(aps_sim_summary_t)`.
    pub struct_size: usize,
    /// Completion time in integer picoseconds (collective total, or the
    /// last tenant's finish for scenario runs).
    pub completion_ps: u64,
    /// Completion time in seconds.
    pub completion_s: f64,
    /// Static-baseline completion / this run's completion (1.0 when the
    /// experiment's controller *is* `static`).
    pub speedup_vs_static: f64,
    /// Detail rows available via `aps_simrun_rows` (steps for a
    /// collective, tenants for a scenario).
    pub rows: u64,
    /// Physical reconfiguration events.
    pub reconfig_events: u64,
    /// Summed visible reconfiguration stalls, picoseconds.
    pub reconfig_ps: u64,
    /// Summed transfer time, picoseconds.
    pub transfer_ps: u64,
    /// Summed controller-arbitration queueing, picoseconds.
    pub arbitration_ps: u64,
}

/// `aps_run_row_t`: one detail row of a run — a collective step, or one
/// tenant of a scenario.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ApsRunRow {
    /// Step index, or tenant index.
    pub index: u64,
    /// Step total, or the tenant's finish instant, picoseconds.
    pub total_ps: u64,
    /// Reconfiguration stall, picoseconds.
    pub reconfig_ps: u64,
    /// Transfer time, picoseconds.
    pub transfer_ps: u64,
    /// Controller-arbitration queueing, picoseconds.
    pub arbitration_ps: u64,
}

/// `aps_sweep_cell_t`: one (α_r, message-size) sweep cell.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct ApsSweepCell {
    /// Static (never reconfigure) completion, seconds.
    pub t_static_s: f64,
    /// Per-step BvN threshold policy completion, seconds.
    pub t_bvn_s: f64,
    /// DP-optimal completion, seconds.
    pub t_opt_s: f64,
    /// Threshold policy completion, seconds.
    pub t_threshold_s: f64,
}

/// `aps_service_class_t`: one tenant class of a service experiment.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct ApsServiceClass {
    /// Must be `sizeof(aps_service_class_t)`.
    pub struct_size: usize,
    /// Class name (required).
    pub name: *const c_char,
    /// Ports per job.
    pub ports: u32,
    /// Collective family each job runs (`hd-allreduce`, …).
    pub workload: *const c_char,
    /// Message volume per job, bytes.
    pub message_bytes: f64,
    /// Poisson arrival rate, jobs per simulated second.
    pub arrival_rate_hz: f64,
    /// Jobs offered by this class (0 = unbounded; cap globally with
    /// `aps_experiment_set_max_jobs`).
    pub jobs: u64,
    /// Arrival-process seed.
    pub seed: u64,
    /// Nonzero → every step reconfigured to its matching; zero → stay
    /// on the base ring.
    pub matched: i32,
}

/// `aps_service_stats_t`: the roll-up of a service run.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct ApsServiceStats {
    /// Must be `sizeof(aps_service_stats_t)`.
    pub struct_size: usize,
    /// When the last job departed, picoseconds.
    pub makespan_ps: u64,
    /// Makespan in seconds.
    pub makespan_s: f64,
    /// Jobs offered across all classes.
    pub offered: u64,
    /// Jobs completed across all classes.
    pub completed: u64,
    /// Steps executed across all jobs.
    pub steps: u64,
    /// Physical reconfiguration events across all jobs.
    pub reconfig_events: u64,
    /// Tenant classes in the run (index bound for the per-class calls).
    pub classes: u64,
}

/// `aps_class_slo_t`: one class's SLO accounting.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct ApsClassSlo {
    /// Must be `sizeof(aps_class_slo_t)`.
    pub struct_size: usize,
    /// Jobs the arrival process offered.
    pub offered: u64,
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs that queued before admission.
    pub queued: u64,
    /// Arrivals stalled by backpressure.
    pub backpressured: u64,
    /// Rejected: larger than the fabric.
    pub rejected_too_large: u64,
    /// Rejected: partition busy (reject policy).
    pub rejected_ports_busy: u64,
    /// Rejected: ingress queue full.
    pub rejected_queue_full: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs stopped by a step error.
    pub failed: u64,
    /// p50 job completion latency, picoseconds (0 when no jobs).
    pub completion_p50_ps: u64,
    /// p99 job completion latency, picoseconds (0 when no jobs).
    pub completion_p99_ps: u64,
    /// Worst job completion latency, picoseconds.
    pub completion_max_ps: u64,
    /// p50 queueing wait, picoseconds (0 when no jobs).
    pub wait_p50_ps: u64,
    /// p99 queueing wait, picoseconds (0 when no jobs).
    pub wait_p99_ps: u64,
    /// Mean job completion latency, picoseconds.
    pub completion_mean_ps: f64,
    /// Completed / offered (1.0 when nothing was offered).
    pub goodput: f64,
}

/// `aps_admission_policy_t` values.
#[repr(i32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApsAdmissionPolicy {
    /// Turn away jobs whose ports are busy.
    Reject = 0,
    /// Bounded ingress queue.
    Queue = 1,
    /// Stall the arrival source at a bounded queue.
    Backpressure = 2,
}

// ---------------------------------------------------------------------------
// Internal experiment state
// ---------------------------------------------------------------------------

/// One service class, stored by value until the run materializes it.
#[derive(Debug, Clone)]
struct ServiceClassSpec {
    name: String,
    ports: usize,
    workload: String,
    message_bytes: f64,
    arrival_rate_hz: f64,
    jobs: Option<u64>,
    seed: u64,
    matched: bool,
}

/// What the experiment will run.
#[derive(Debug, Clone)]
enum Binding {
    None,
    Collective { family: String, bytes: f64 },
    Scenario { name: String, bytes: f64 },
    Service { classes: Vec<ServiceClassSpec> },
}

/// The foreign-owned experiment: plain configuration, materialized into
/// a native [`Experiment`] per run so repeated runs replay
/// bit-identically.
#[derive(Debug, Clone)]
struct FfiExperiment {
    ports: usize,
    params: CostParams,
    reconfig: ReconfigModel,
    controller: String,
    fabric: FabricKind,
    storm: Option<FailureStorm>,
    binding: Binding,
    admission: AdmissionPolicy,
    max_jobs: Option<u64>,
}

/// A finished simulation, frozen into its C shapes.
#[derive(Debug, Clone)]
struct FfiRun {
    summary: ApsSimSummary,
    rows: Vec<ApsRunRow>,
}

static EXPERIMENTS: LazyLock<Mutex<HandleTable<FfiExperiment>>> =
    LazyLock::new(|| Mutex::new(HandleTable::with_capacity(1024)));
static RUNS: LazyLock<Mutex<HandleTable<FfiRun>>> =
    LazyLock::new(|| Mutex::new(HandleTable::with_capacity(4096)));
static SERVICES: LazyLock<Mutex<HandleTable<ServiceSummary>>> =
    LazyLock::new(|| Mutex::new(HandleTable::with_capacity(4096)));

/// Locks a table, surviving a poisoned mutex (a panic in another call
/// already reported [`ApsStatus::Panicked`]; the tables hold plain data
/// and stay usable).
fn lock<T>(table: &'static Mutex<HandleTable<T>>) -> MutexGuard<'static, HandleTable<T>> {
    table.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with panics caught and folded into [`ApsStatus::Panicked`].
fn guarded<F: FnOnce() -> ApsStatus>(f: F) -> ApsStatus {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(status) => status,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic of unknown type".into());
            set_last_error(&format!("engine panicked: {msg}"));
            ApsStatus::Panicked
        }
    }
}

/// Records `message` and returns `status` — the one-liner failures use.
fn fail(status: ApsStatus, message: &str) -> ApsStatus {
    set_last_error(message);
    status
}

/// Reads a required C string argument.
fn read_str<'a>(ptr: *const c_char, what: &str) -> Result<&'a str, ApsStatus> {
    if ptr.is_null() {
        return Err(fail(ApsStatus::NullArgument, &format!("{what} is null")));
    }
    unsafe { CStr::from_ptr(ptr) }
        .to_str()
        .map_err(|_| fail(ApsStatus::InvalidUtf8, &format!("{what} is not UTF-8")))
}

/// Checks an out-struct pointer and its embedded `struct_size`.
///
/// # Safety
///
/// `ptr` must be null (reported) or valid for writes of `T`.
unsafe fn check_out_struct<T>(ptr: *mut T, size_of: usize, what: &str) -> Result<(), ApsStatus> {
    if ptr.is_null() {
        return Err(fail(ApsStatus::NullArgument, &format!("{what} is null")));
    }
    if size_of != std::mem::size_of::<T>() {
        return Err(fail(
            ApsStatus::StructSizeMismatch,
            &format!(
                "{what}.struct_size = {size_of}, library expects {} — header/library mismatch",
                std::mem::size_of::<T>()
            ),
        ));
    }
    Ok(())
}

impl FfiExperiment {
    /// The per-run fabric: the configured medium, freshly built and
    /// freshly stormed, over an `n`-port ring initial state.
    fn fabric(&self, n: usize) -> Result<Box<dyn Fabric>, SimError> {
        let initial = Matching::shift(n, 1).map_err(|e| SimError::ConfigConflict { source: e })?;
        hetero::build_fabric_stormy(self.fabric, initial, self.reconfig, self.storm)
    }

    /// Materializes the unbound native experiment for an `n`-port run.
    fn experiment(
        &self,
        n: usize,
        controller: &'static dyn aps_core::controller::Controller,
    ) -> Result<Experiment<adaptive_photonics::experiment::Unbound>, ApsStatus> {
        let base = ring_unidirectional(n)
            .map_err(|e| fail(ApsStatus::InvalidArgument, &format!("bad domain: {e}")))?;
        Ok(Experiment::domain(base)
            .params(self.params)
            .reconfig(self.reconfig)
            .controller(controller))
    }

    /// The configured controller, resolved against the shipped set.
    fn controller(&self) -> Result<&'static dyn aps_core::controller::Controller, ApsStatus> {
        controller_by_name(&self.controller).ok_or_else(|| {
            fail(
                ApsStatus::UnknownController,
                &format!("unknown controller '{}'", self.controller),
            )
        })
    }
}

// ---------------------------------------------------------------------------
// Experiment lifecycle
// ---------------------------------------------------------------------------

/// Creates an experiment from a domain configuration; the handle goes
/// to `*out`. Destroy with `aps_experiment_destroy`.
#[no_mangle]
pub extern "C" fn aps_experiment_new(cfg: *const ApsDomainConfig, out: *mut u64) -> ApsStatus {
    guarded(|| {
        if out.is_null() {
            return fail(ApsStatus::NullArgument, "out handle is null");
        }
        if cfg.is_null() {
            return fail(ApsStatus::NullArgument, "config is null");
        }
        // The size guard must run before any other field is trusted.
        let size = unsafe { (*cfg).struct_size };
        if size != std::mem::size_of::<ApsDomainConfig>() {
            return fail(
                ApsStatus::StructSizeMismatch,
                &format!(
                    "aps_domain_config_t.struct_size = {size}, library expects {} — \
                     header/library mismatch",
                    std::mem::size_of::<ApsDomainConfig>()
                ),
            );
        }
        let cfg = unsafe { *cfg };
        if cfg.ports < 2 {
            return fail(ApsStatus::InvalidArgument, "ports must be >= 2");
        }
        // A non-positive α or line rate, or a negative δ, selects the paper
        // default. NaN fails every comparison, so it passes through to
        // `CostParams::new`, which refuses it.
        let defaults = CostParams::paper_defaults();
        let alpha_s = if cfg.alpha_s <= 0.0 {
            defaults.alpha_s
        } else {
            cfg.alpha_s
        };
        // The paper's §3.4 line rate; kept literal because CostParams
        // only exposes the derived β.
        let bandwidth_gbps = if cfg.bandwidth_gbps <= 0.0 {
            800.0
        } else {
            cfg.bandwidth_gbps
        };
        let delta_s = if cfg.delta_s < 0.0 {
            defaults.delta_s
        } else {
            cfg.delta_s
        };
        let params = match CostParams::new(alpha_s, bandwidth_gbps, delta_s) {
            Ok(p) => p,
            Err(e) => return fail(ApsStatus::InvalidArgument, &format!("bad cost params: {e}")),
        };
        let reconfig = match ReconfigModel::constant(cfg.alpha_r_s) {
            Ok(r) => r,
            Err(e) => return fail(ApsStatus::InvalidArgument, &format!("bad alpha_r: {e}")),
        };
        let controller = if cfg.controller.is_null() {
            "opt".to_string()
        } else {
            match read_str(cfg.controller, "controller") {
                Ok(s) => s.to_string(),
                Err(status) => return status,
            }
        };
        if controller_by_name(&controller).is_none() {
            return fail(
                ApsStatus::UnknownController,
                &format!("unknown controller '{controller}'"),
            );
        }
        let fabric = match cfg.fabric {
            0 => FabricKind::Optical,
            1 => FabricKind::Electrical,
            2 => FabricKind::Hybrid,
            3 => FabricKind::WavelengthBank,
            k => {
                return fail(
                    ApsStatus::InvalidArgument,
                    &format!("unknown fabric kind {k}"),
                )
            }
        };
        let storm = (cfg.storm != 0).then(|| FailureStorm::new(cfg.storm_seed));
        let exp = FfiExperiment {
            ports: cfg.ports as usize,
            params,
            reconfig,
            controller,
            fabric,
            storm,
            binding: Binding::None,
            admission: AdmissionPolicy::Reject,
            max_jobs: None,
        };
        match lock(&EXPERIMENTS).insert(exp) {
            Ok(handle) => {
                unsafe { *out = handle };
                ApsStatus::Ok
            }
            Err(e) => fail(e.into(), "experiment table exhausted"),
        }
    })
}

/// Destroys an experiment. A second destroy of the same handle returns
/// `APS_STATUS_STALE_HANDLE` — safe, typed, no double-free.
#[no_mangle]
pub extern "C" fn aps_experiment_destroy(experiment: u64) -> ApsStatus {
    guarded(|| match lock(&EXPERIMENTS).remove(experiment) {
        Ok(_) => ApsStatus::Ok,
        Err(e) => fail(e.into(), "experiment handle is stale"),
    })
}

/// Runs `f` on a live experiment.
fn with_experiment<F: FnOnce(&mut FfiExperiment) -> ApsStatus>(handle: u64, f: F) -> ApsStatus {
    let mut table = lock(&EXPERIMENTS);
    match table.get_mut(handle) {
        Ok(exp) => f(exp),
        Err(e) => fail(e.into(), "experiment handle is stale"),
    }
}

/// Binds a single collective (`hd-allreduce`, `ring-allreduce`,
/// `alltoall`, `broadcast`) of `message_bytes` to the experiment,
/// replacing any previous binding.
#[no_mangle]
pub extern "C" fn aps_experiment_bind_collective(
    experiment: u64,
    family: *const c_char,
    message_bytes: f64,
) -> ApsStatus {
    guarded(|| {
        let family = match read_str(family, "collective family") {
            Ok(s) => s.to_string(),
            Err(status) => return status,
        };
        with_experiment(experiment, |exp| {
            match collective_by_name(&family, exp.ports, message_bytes) {
                None => fail(
                    ApsStatus::UnknownWorkload,
                    &format!("unknown collective family '{family}'"),
                ),
                Some(Err(e)) => fail(
                    ApsStatus::Collective,
                    &format!("cannot build {family} on {} ports: {e}", exp.ports),
                ),
                Some(Ok(_)) => {
                    exp.binding = Binding::Collective {
                        family,
                        bytes: message_bytes,
                    };
                    ApsStatus::Ok
                }
            }
        })
    })
}

/// Binds a named multi-tenant scenario (base pack or heterogeneous
/// pack) at the given base volume, replacing any previous binding. The
/// scenario's own port count overrides the domain's.
#[no_mangle]
pub extern "C" fn aps_experiment_bind_scenario(
    experiment: u64,
    name: *const c_char,
    message_bytes: f64,
) -> ApsStatus {
    guarded(|| {
        let name = match read_str(name, "scenario name") {
            Ok(s) => s.to_string(),
            Err(status) => return status,
        };
        with_experiment(experiment, |exp| {
            if hetero::by_name(&name, message_bytes).is_none() {
                return fail(
                    ApsStatus::UnknownScenario,
                    &format!("unknown scenario '{name}'"),
                );
            }
            exp.binding = Binding::Scenario {
                name,
                bytes: message_bytes,
            };
            ApsStatus::Ok
        })
    })
}

/// Appends one tenant class to the experiment's service binding
/// (starting one if the experiment was bound to something else).
#[no_mangle]
pub extern "C" fn aps_experiment_add_service_class(
    experiment: u64,
    class: *const ApsServiceClass,
) -> ApsStatus {
    guarded(|| {
        if class.is_null() {
            return fail(ApsStatus::NullArgument, "class is null");
        }
        let size = unsafe { (*class).struct_size };
        if size != std::mem::size_of::<ApsServiceClass>() {
            return fail(
                ApsStatus::StructSizeMismatch,
                &format!(
                    "aps_service_class_t.struct_size = {size}, library expects {} — \
                     header/library mismatch",
                    std::mem::size_of::<ApsServiceClass>()
                ),
            );
        }
        let class = unsafe { *class };
        let name = match read_str(class.name, "class name") {
            Ok(s) => s.to_string(),
            Err(status) => return status,
        };
        let workload = match read_str(class.workload, "class workload") {
            Ok(s) => s.to_string(),
            Err(status) => return status,
        };
        if class.ports < 2 {
            return fail(ApsStatus::InvalidArgument, "class ports must be >= 2");
        }
        if !(class.arrival_rate_hz.is_finite() && class.arrival_rate_hz > 0.0) {
            return fail(
                ApsStatus::InvalidArgument,
                "arrival rate must be finite and positive",
            );
        }
        let spec = ServiceClassSpec {
            name,
            ports: class.ports as usize,
            workload,
            message_bytes: class.message_bytes,
            arrival_rate_hz: class.arrival_rate_hz,
            jobs: (class.jobs > 0).then_some(class.jobs),
            seed: class.seed,
            matched: class.matched != 0,
        };
        match collective_by_name(&spec.workload, spec.ports, spec.message_bytes) {
            None => {
                return fail(
                    ApsStatus::UnknownWorkload,
                    &format!("unknown collective family '{}'", spec.workload),
                )
            }
            Some(Err(e)) => {
                return fail(
                    ApsStatus::Collective,
                    &format!(
                        "cannot build {} on {} ports: {e}",
                        spec.workload, spec.ports
                    ),
                )
            }
            Some(Ok(_)) => {}
        }
        with_experiment(experiment, |exp| {
            if let Binding::Service { classes } = &mut exp.binding {
                classes.push(spec.clone());
            } else {
                exp.binding = Binding::Service {
                    classes: vec![spec.clone()],
                };
            }
            ApsStatus::Ok
        })
    })
}

/// Sets the admission policy for service runs. `capacity` is the queue
/// bound for the queue/backpressure policies (ignored for reject;
/// backpressure requires it positive).
#[no_mangle]
pub extern "C" fn aps_experiment_set_admission(
    experiment: u64,
    policy: i32,
    capacity: u64,
) -> ApsStatus {
    guarded(|| {
        let capacity = capacity as usize;
        let policy = match policy {
            0 => AdmissionPolicy::Reject,
            1 => AdmissionPolicy::Queue { capacity },
            2 if capacity == 0 => {
                return fail(
                    ApsStatus::InvalidArgument,
                    "backpressure requires a positive queue capacity",
                )
            }
            2 => AdmissionPolicy::Backpressure { capacity },
            p => {
                return fail(
                    ApsStatus::InvalidArgument,
                    &format!("unknown admission policy {p}"),
                )
            }
        };
        with_experiment(experiment, |exp| {
            exp.admission = policy;
            ApsStatus::Ok
        })
    })
}

/// Caps the total jobs a service run offers (0 clears the cap).
#[no_mangle]
pub extern "C" fn aps_experiment_set_max_jobs(experiment: u64, max_jobs: u64) -> ApsStatus {
    guarded(|| {
        with_experiment(experiment, |exp| {
            exp.max_jobs = (max_jobs > 0).then_some(max_jobs);
            ApsStatus::Ok
        })
    })
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// Plans the bound collective under the experiment's controller and
/// prices the schedule with the eq. (7) cost model.
#[no_mangle]
pub extern "C" fn aps_experiment_plan(experiment: u64, out: *mut ApsPlanSummary) -> ApsStatus {
    guarded(|| {
        let size = if out.is_null() {
            0
        } else {
            unsafe { (*out).struct_size }
        };
        if let Err(status) = unsafe { check_out_struct(out, size, "plan summary") } {
            return status;
        }
        let exp = match snapshot(experiment) {
            Ok(e) => e,
            Err(status) => return status,
        };
        let Binding::Collective { family, bytes } = &exp.binding else {
            return fail(
                ApsStatus::WorkloadUnbound,
                "plan needs a bound collective (scenario and service runs plan internally)",
            );
        };
        let controller = match exp.controller() {
            Ok(c) => c,
            Err(status) => return status,
        };
        let collective = match collective_by_name(family, exp.ports, *bytes) {
            Some(Ok(c)) => c,
            Some(Err(e)) => return fail(ApsStatus::Collective, &format!("{e}")),
            None => return fail(ApsStatus::UnknownWorkload, "collective family vanished"),
        };
        let mut single = match exp.experiment(exp.ports, controller) {
            Ok(e) => e.collective(&collective),
            Err(status) => return status,
        };
        let plan = match single.plan() {
            Ok(p) => p,
            Err(e) => return fail(ApsStatus::Core, &e.to_string()),
        };
        let matched = (0..plan.switches.len())
            .filter(|&i| plan.switches.choice(i) == ConfigChoice::Matched)
            .count();
        unsafe {
            *out = ApsPlanSummary {
                struct_size: std::mem::size_of::<ApsPlanSummary>(),
                steps: plan.switches.len() as u64,
                matched_steps: matched as u64,
                reconfig_events: plan.report.reconfig_events as u64,
                latency_s: plan.report.latency_s,
                propagation_s: plan.report.propagation_s,
                transmission_s: plan.report.transmission_s,
                reconfig_s: plan.report.reconfig_s,
                total_s: plan.report.total_s(),
            };
        }
        ApsStatus::Ok
    })
}

/// Clones the experiment's configuration out of the table, so runs
/// don't hold the global lock.
fn snapshot(experiment: u64) -> Result<FfiExperiment, ApsStatus> {
    lock(&EXPERIMENTS)
        .get(experiment)
        .cloned()
        .map_err(|e| fail(e.into(), "experiment handle is stale"))
}

/// One run of the bound collective or scenario under `controller`, on the
/// configured medium: its completion instant, its physical
/// reconfiguration events, and its detail rows — one per collective
/// step, or one per tenant. A scenario's tenants are planned by the
/// controller first.
fn run_once(
    exp: &FfiExperiment,
    controller: &'static dyn aps_core::controller::Controller,
) -> Result<(u64, u64, Vec<ApsRunRow>), ApsStatus> {
    let fabric = |n: usize| {
        exp.fabric(n)
            .map_err(|e| fail(ApsStatus::Fabric, &format!("cannot build fabric: {e}")))
    };
    match &exp.binding {
        Binding::Collective { family, bytes } => {
            let collective = match collective_by_name(family, exp.ports, *bytes) {
                Some(Ok(c)) => c,
                Some(Err(e)) => return Err(fail(ApsStatus::Collective, &format!("{e}"))),
                None => {
                    return Err(fail(
                        ApsStatus::UnknownWorkload,
                        "collective family vanished",
                    ))
                }
            };
            let mut single = exp
                .experiment(exp.ports, controller)?
                .collective(&collective);
            let report = single
                .simulate_on(fabric(exp.ports)?.as_mut())
                .map_err(|e| fail(ApsStatus::Sim, &e.to_string()))?
                .report;
            let rows = report
                .steps
                .iter()
                .enumerate()
                .map(|(i, s)| ApsRunRow {
                    index: i as u64,
                    total_ps: s.total_ps(),
                    reconfig_ps: s.reconfig_ps,
                    transfer_ps: s.transfer_ps,
                    arbitration_ps: s.arbitration_ps,
                })
                .collect();
            Ok((report.total_ps, report.reconfig_events() as u64, rows))
        }
        Binding::Scenario { name, bytes } => {
            let scenario = hetero::by_name(name, *bytes).ok_or_else(|| {
                fail(
                    ApsStatus::UnknownScenario,
                    &format!("unknown scenario '{name}'"),
                )
            })?;
            let n = scenario.n;
            let mut shared = exp.experiment(n, controller)?.scenario(scenario);
            shared
                .plan()
                .map_err(|e| fail(ApsStatus::Core, &e.to_string()))?;
            let tenants = shared
                .simulate_on(fabric(n)?.as_mut())
                .map_err(|e| fail(ApsStatus::Sim, &format!("scenario failed: {e}")))?
                .into_iter()
                .map(|r| r.map_err(|e| fail(ApsStatus::Sim, &format!("tenant failed: {e}"))))
                .collect::<Result<Vec<TenantReport>, ApsStatus>>()?;
            let rows = tenants
                .iter()
                .enumerate()
                .map(|(i, t)| ApsRunRow {
                    index: i as u64,
                    total_ps: t.finish_ps,
                    reconfig_ps: t.report.steps.iter().map(|s| s.reconfig_ps).sum(),
                    transfer_ps: t.report.steps.iter().map(|s| s.transfer_ps).sum(),
                    arbitration_ps: t.arbitration_ps(),
                })
                .collect();
            Ok((
                tenants.iter().map(|t| t.finish_ps).max().unwrap_or(0),
                tenants
                    .iter()
                    .map(|t| t.report.reconfig_events() as u64)
                    .sum(),
                rows,
            ))
        }
        Binding::Service { .. } => Err(fail(
            ApsStatus::WorkloadUnbound,
            "service experiments run via aps_experiment_run_service",
        )),
        Binding::None => Err(fail(
            ApsStatus::WorkloadUnbound,
            "bind a collective or scenario before simulating",
        )),
    }
}

/// Simulates the bound workload (collective or scenario) under the
/// experiment's controller, plus a static-baseline run for
/// `speedup_vs_static`. The result is frozen behind a run handle;
/// destroy it with `aps_simrun_destroy`.
#[no_mangle]
pub extern "C" fn aps_experiment_simulate(experiment: u64, out_run: *mut u64) -> ApsStatus {
    guarded(|| {
        if out_run.is_null() {
            return fail(ApsStatus::NullArgument, "out run handle is null");
        }
        let exp = match snapshot(experiment) {
            Ok(e) => e,
            Err(status) => return status,
        };
        let controller = match exp.controller() {
            Ok(c) => c,
            Err(status) => return status,
        };
        let (completion, reconfig_events, rows) = match run_once(&exp, controller) {
            Ok(r) => r,
            Err(status) => return status,
        };
        let speedup = if exp.controller == "static" {
            1.0
        } else {
            match run_once(&exp, &Static) {
                Ok((base, _, _)) => base as f64 / completion.max(1) as f64,
                Err(status) => return status,
            }
        };
        let summary = ApsSimSummary {
            struct_size: std::mem::size_of::<ApsSimSummary>(),
            completion_ps: completion,
            completion_s: picos_to_secs(completion),
            speedup_vs_static: speedup,
            rows: rows.len() as u64,
            reconfig_events,
            reconfig_ps: rows.iter().map(|r| r.reconfig_ps).sum(),
            transfer_ps: rows.iter().map(|r| r.transfer_ps).sum(),
            arbitration_ps: rows.iter().map(|r| r.arbitration_ps).sum(),
        };
        match lock(&RUNS).insert(FfiRun { summary, rows }) {
            Ok(handle) => {
                unsafe { *out_run = handle };
                ApsStatus::Ok
            }
            Err(e) => fail(e.into(), "run table exhausted"),
        }
    })
}

/// Sweeps the bound collective over an (α_r × message-bytes) grid under
/// the four shipped policies. `cells` must hold `n_delays × n_bytes`
/// entries (row-major, delays outermost); `written` receives the cell
/// count (also on `APS_STATUS_BUFFER_TOO_SMALL`, as the required size).
#[no_mangle]
pub extern "C" fn aps_experiment_sweep(
    experiment: u64,
    reconf_delays_s: *const f64,
    n_delays: usize,
    message_bytes: *const f64,
    n_bytes: usize,
    cell_size: usize,
    cells: *mut ApsSweepCell,
    capacity: usize,
    written: *mut usize,
) -> ApsStatus {
    guarded(|| {
        if written.is_null() {
            return fail(ApsStatus::NullArgument, "written is null");
        }
        if reconf_delays_s.is_null() || message_bytes.is_null() {
            return fail(ApsStatus::NullArgument, "grid axes are null");
        }
        if n_delays == 0 || n_bytes == 0 {
            return fail(ApsStatus::InvalidArgument, "grid axes are empty");
        }
        if cell_size != std::mem::size_of::<ApsSweepCell>() {
            return fail(
                ApsStatus::StructSizeMismatch,
                &format!(
                    "cell_size = {cell_size}, library expects {} — header/library mismatch",
                    std::mem::size_of::<ApsSweepCell>()
                ),
            );
        }
        let needed = n_delays * n_bytes;
        unsafe { *written = needed };
        if capacity < needed {
            return fail(
                ApsStatus::BufferTooSmall,
                &format!("sweep needs {needed} cells, caller provided {capacity}"),
            );
        }
        if cells.is_null() {
            return fail(ApsStatus::NullArgument, "cells is null");
        }
        let exp = match snapshot(experiment) {
            Ok(e) => e,
            Err(status) => return status,
        };
        let Binding::Collective { family, bytes: _ } = &exp.binding else {
            return fail(ApsStatus::WorkloadUnbound, "sweep needs a bound collective");
        };
        let controller = match exp.controller() {
            Ok(c) => c,
            Err(status) => return status,
        };
        let delays = unsafe { std::slice::from_raw_parts(reconf_delays_s, n_delays) };
        let sizes = unsafe { std::slice::from_raw_parts(message_bytes, n_bytes) };
        let grid = SweepGrid {
            reconf_delays_s: delays.to_vec(),
            message_bytes: sizes.to_vec(),
        };
        // The sweep builds the collective per message size itself.
        let family = family.clone();
        let ports = exp.ports;
        let single = match exp.experiment(ports, controller) {
            Ok(e) => e.collective_family(move |m| {
                collective_by_name(&family, ports, m).expect("family validated at bind")
            }),
            Err(status) => return status,
        };
        let result = match single.sweep(&grid) {
            Ok(r) => r,
            Err(e) => return fail(ApsStatus::Core, &format!("sweep failed: {e}")),
        };
        let out = unsafe { std::slice::from_raw_parts_mut(cells, needed) };
        for (r, row) in result.cells.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                out[r * n_bytes + c] = ApsSweepCell {
                    t_static_s: cell.t_static_s,
                    t_bvn_s: cell.t_bvn_s,
                    t_opt_s: cell.t_opt_s,
                    t_threshold_s: cell.t_threshold_s,
                };
            }
        }
        ApsStatus::Ok
    })
}

/// Runs the experiment's service classes as an open system on the
/// configured medium. The summary is frozen behind a handle; destroy it
/// with `aps_service_destroy`.
#[no_mangle]
pub extern "C" fn aps_experiment_run_service(experiment: u64, out_service: *mut u64) -> ApsStatus {
    guarded(|| {
        if out_service.is_null() {
            return fail(ApsStatus::NullArgument, "out service handle is null");
        }
        let exp = match snapshot(experiment) {
            Ok(e) => e,
            Err(status) => return status,
        };
        let Binding::Service { classes } = &exp.binding else {
            return fail(
                ApsStatus::WorkloadUnbound,
                "add service classes before running the service",
            );
        };
        if classes.is_empty() {
            return fail(ApsStatus::WorkloadUnbound, "service has no classes");
        }
        let controller = match exp.controller() {
            Ok(c) => c,
            Err(status) => return status,
        };
        let mut tenant_classes = Vec::with_capacity(classes.len());
        for spec in classes {
            let collective =
                match collective_by_name(&spec.workload, spec.ports, spec.message_bytes) {
                    Some(Ok(c)) => c,
                    Some(Err(e)) => return fail(ApsStatus::Collective, &format!("{e}")),
                    None => return fail(ApsStatus::UnknownWorkload, "collective family vanished"),
                };
            let base = match Matching::shift(spec.ports, 1) {
                Ok(m) => m,
                Err(e) => return fail(ApsStatus::InvalidArgument, &format!("bad class base: {e}")),
            };
            let arrivals = match PoissonArrivals::new(spec.arrival_rate_hz, spec.jobs, spec.seed) {
                Ok(a) => a,
                Err(e) => return fail(ApsStatus::InvalidArgument, &format!("bad arrivals: {e}")),
            };
            let schedule = collective.schedule;
            let choice = if spec.matched {
                ConfigChoice::Matched
            } else {
                ConfigChoice::Base
            };
            tenant_classes.push(aps_faas::TenantClass::new(
                spec.name.clone(),
                spec.ports,
                base,
                ServiceSwitching::Uniform(choice),
                Box::new(arrivals),
                Box::new(move |_id: u64| -> Box<dyn Workload> {
                    Box::new(ScheduleStream::new(schedule.clone()))
                }),
            ));
        }
        let mut service = match exp.experiment(exp.ports, controller) {
            Ok(e) => e.service(tenant_classes).admission(exp.admission),
            Err(status) => return status,
        };
        if let Some(jobs) = exp.max_jobs {
            service = service.max_jobs(jobs);
        }
        let mut fabric = match exp.fabric(exp.ports) {
            Ok(f) => f,
            Err(e) => return fail(ApsStatus::Fabric, &format!("cannot build fabric: {e}")),
        };
        let report = match service.run_on(fabric.as_mut()) {
            Ok(r) => r,
            Err(e) => return fail(ApsStatus::Service, &e.to_string()),
        };
        match lock(&SERVICES).insert(report.summary) {
            Ok(handle) => {
                unsafe { *out_service = handle };
                ApsStatus::Ok
            }
            Err(e) => fail(e.into(), "service table exhausted"),
        }
    })
}

// ---------------------------------------------------------------------------
// Run reads
// ---------------------------------------------------------------------------

/// Reads a run's summary.
#[no_mangle]
pub extern "C" fn aps_simrun_summary(run: u64, out: *mut ApsSimSummary) -> ApsStatus {
    guarded(|| {
        let size = if out.is_null() {
            0
        } else {
            unsafe { (*out).struct_size }
        };
        if let Err(status) = unsafe { check_out_struct(out, size, "sim summary") } {
            return status;
        }
        let table = lock(&RUNS);
        match table.get(run) {
            Ok(r) => {
                unsafe { *out = r.summary };
                ApsStatus::Ok
            }
            Err(e) => fail(e.into(), "run handle is stale"),
        }
    })
}

/// Copies a run's detail rows into a caller-owned buffer of `capacity`
/// elements of `row_size` bytes each. `written` receives the row count
/// (also on `APS_STATUS_BUFFER_TOO_SMALL`, as the required size).
#[no_mangle]
pub extern "C" fn aps_simrun_rows(
    run: u64,
    row_size: usize,
    rows: *mut ApsRunRow,
    capacity: usize,
    written: *mut usize,
) -> ApsStatus {
    guarded(|| {
        if written.is_null() {
            return fail(ApsStatus::NullArgument, "written is null");
        }
        if row_size != std::mem::size_of::<ApsRunRow>() {
            return fail(
                ApsStatus::StructSizeMismatch,
                &format!(
                    "row_size = {row_size}, library expects {} — header/library mismatch",
                    std::mem::size_of::<ApsRunRow>()
                ),
            );
        }
        let table = lock(&RUNS);
        let r = match table.get(run) {
            Ok(r) => r,
            Err(e) => return fail(e.into(), "run handle is stale"),
        };
        unsafe { *written = r.rows.len() };
        if capacity < r.rows.len() {
            return fail(
                ApsStatus::BufferTooSmall,
                &format!("run has {} rows, caller provided {capacity}", r.rows.len()),
            );
        }
        if rows.is_null() {
            return fail(ApsStatus::NullArgument, "rows is null");
        }
        let out = unsafe { std::slice::from_raw_parts_mut(rows, r.rows.len()) };
        out.copy_from_slice(&r.rows);
        ApsStatus::Ok
    })
}

/// Destroys a run. Double-destroy returns `APS_STATUS_STALE_HANDLE`.
#[no_mangle]
pub extern "C" fn aps_simrun_destroy(run: u64) -> ApsStatus {
    guarded(|| match lock(&RUNS).remove(run) {
        Ok(_) => ApsStatus::Ok,
        Err(e) => fail(e.into(), "run handle is stale"),
    })
}

// ---------------------------------------------------------------------------
// Service reads
// ---------------------------------------------------------------------------

/// Runs `f` on a live service summary.
fn with_service<F: FnOnce(&ServiceSummary) -> ApsStatus>(handle: u64, f: F) -> ApsStatus {
    let table = lock(&SERVICES);
    match table.get(handle) {
        Ok(s) => f(s),
        Err(e) => fail(e.into(), "service handle is stale"),
    }
}

/// Reads a service run's roll-up statistics.
#[no_mangle]
pub extern "C" fn aps_service_stats(service: u64, out: *mut ApsServiceStats) -> ApsStatus {
    guarded(|| {
        let size = if out.is_null() {
            0
        } else {
            unsafe { (*out).struct_size }
        };
        if let Err(status) = unsafe { check_out_struct(out, size, "service stats") } {
            return status;
        }
        with_service(service, |s| {
            unsafe {
                *out = ApsServiceStats {
                    struct_size: std::mem::size_of::<ApsServiceStats>(),
                    makespan_ps: s.makespan_ps,
                    makespan_s: s.makespan_s(),
                    offered: s.offered(),
                    completed: s.completed(),
                    steps: s.steps.steps as u64,
                    reconfig_events: s.steps.reconfig_events as u64,
                    classes: s.tenants.len() as u64,
                };
            }
            ApsStatus::Ok
        })
    })
}

/// Reads one class's SLO accounting (`index` below the stats' `classes`).
#[no_mangle]
pub extern "C" fn aps_service_class_slo(
    service: u64,
    index: usize,
    out: *mut ApsClassSlo,
) -> ApsStatus {
    guarded(|| {
        let size = if out.is_null() {
            0
        } else {
            unsafe { (*out).struct_size }
        };
        if let Err(status) = unsafe { check_out_struct(out, size, "class slo") } {
            return status;
        }
        with_service(service, |s| {
            let Some(t) = s.tenants.get(index) else {
                return fail(
                    ApsStatus::InvalidArgument,
                    &format!("class index {index} out of range ({})", s.tenants.len()),
                );
            };
            unsafe {
                *out = ApsClassSlo {
                    struct_size: std::mem::size_of::<ApsClassSlo>(),
                    offered: t.offered,
                    admitted: t.admitted,
                    queued: t.queued,
                    backpressured: t.backpressured,
                    rejected_too_large: t.rejected_too_large,
                    rejected_ports_busy: t.rejected_ports_busy,
                    rejected_queue_full: t.rejected_queue_full,
                    completed: t.completed,
                    failed: t.failed,
                    completion_p50_ps: t.completion.p50_ps().unwrap_or(0),
                    completion_p99_ps: t.completion.p99_ps().unwrap_or(0),
                    completion_max_ps: t.completion.max_ps(),
                    wait_p50_ps: t.wait.p50_ps().unwrap_or(0),
                    wait_p99_ps: t.wait.p99_ps().unwrap_or(0),
                    completion_mean_ps: t.completion.mean_ps(),
                    goodput: t.goodput(),
                };
            }
            ApsStatus::Ok
        })
    })
}

/// Copies one class's name (NUL-terminated) into a caller-owned buffer
/// of `capacity` bytes. `written` receives the byte count including the
/// NUL (also on `APS_STATUS_BUFFER_TOO_SMALL`, as the required size).
#[no_mangle]
pub extern "C" fn aps_service_class_name(
    service: u64,
    index: usize,
    buffer: *mut c_char,
    capacity: usize,
    written: *mut usize,
) -> ApsStatus {
    guarded(|| {
        if written.is_null() {
            return fail(ApsStatus::NullArgument, "written is null");
        }
        with_service(service, |s| {
            let Some(name) = s.class_names.get(index) else {
                return fail(
                    ApsStatus::InvalidArgument,
                    &format!("class index {index} out of range ({})", s.class_names.len()),
                );
            };
            let needed = name.len() + 1;
            unsafe { *written = needed };
            if capacity < needed {
                return fail(
                    ApsStatus::BufferTooSmall,
                    &format!("class name needs {needed} bytes, caller provided {capacity}"),
                );
            }
            if buffer.is_null() {
                return fail(ApsStatus::NullArgument, "buffer is null");
            }
            unsafe {
                std::ptr::copy_nonoverlapping(name.as_ptr(), buffer.cast::<u8>(), name.len());
                *buffer.add(name.len()) = 0;
            }
            ApsStatus::Ok
        })
    })
}

/// Destroys a service summary. Double-destroy returns
/// `APS_STATUS_STALE_HANDLE`.
#[no_mangle]
pub extern "C" fn aps_service_destroy(service: u64) -> ApsStatus {
    guarded(|| match lock(&SERVICES).remove(service) {
        Ok(_) => ApsStatus::Ok,
        Err(e) => fail(e.into(), "service handle is stale"),
    })
}
