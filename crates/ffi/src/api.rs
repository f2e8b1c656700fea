//! The `extern "C"` entry points and their flat `#[repr(C)]` shapes.
//!
//! Conventions (see `include/adaptive_photonics.h` for the C view):
//!
//! * Every entry point returns [`ApsStatus`] and stores a message via
//!   [`crate::error::set_last_error`] on failure.
//! * Panics never cross the boundary: every entry point runs under
//!   `catch_unwind` and folds a panic into [`ApsStatus::Panicked`].
//! * Each boundary rule has one helper: the null and `struct_size`
//!   guards, the caller-buffer protocol, handle insert, lookup and
//!   destroy, and name resolution. An entry point's body returns
//!   `Result<(), ApsStatus>` and reads as its checks in order.
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
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

use adaptive_photonics::experiment::{collective_by_name, Experiment, Unbound};
use aps_collectives::{Collective, ScheduleStream, Workload};
use aps_core::controller::{by_name as controller_by_name, Controller, Static};
use aps_core::sweep::SweepGrid;
use aps_core::ConfigChoice;
use aps_cost::units::picos_to_secs;
use aps_cost::{CostParams, ReconfigModel};
use aps_faas::{AdmissionPolicy, PoissonArrivals, ServiceSummary};
use aps_fabric::Fabric;
use aps_matrix::Matching;
use aps_sim::scenarios::hetero::{self, FabricKind, FailureStorm};
use aps_sim::{Scenario, ServiceSwitching, SimError, TenantReport};
use aps_topology::builders::ring_unidirectional;

use crate::error::set_last_error;
use crate::handle::{HandleError, HandleTable};
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
        Ok(())
    })
}

/// The stable C identifier of a status code (`"APS_STATUS_OK"`, …), or
/// `"APS_STATUS_UNKNOWN"` for values outside the enum. Static storage;
/// never freed by the caller.
#[no_mangle]
pub extern "C" fn aps_status_name(status: i32) -> *const c_char {
    ApsStatus::all()
        .iter()
        .find(|s| **s as i32 == status)
        .map_or(c"APS_STATUS_UNKNOWN", |s| s.c_name())
        .as_ptr()
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
    /// Never-reconfigure completion (controller `static`), seconds.
    pub t_static_s: f64,
    /// Always-reconfigure BvN schedule completion (`AlwaysReconfigure`,
    /// controller `bvn`), seconds.
    pub t_bvn_s: f64,
    /// DP-optimal completion (controller `opt`), seconds.
    pub t_opt_s: f64,
    /// Per-step threshold heuristic completion (controller `threshold`),
    /// seconds.
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
    /// Jobs offered by this class (0 = unbounded). An unbounded class
    /// needs a global cap from `aps_experiment_set_max_jobs`:
    /// `aps_experiment_run_service` refuses the run without one, because
    /// it would never end.
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
    switching: ServiceSwitching,
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
#[derive(Clone)]
struct FfiExperiment {
    ports: usize,
    params: CostParams,
    reconfig: ReconfigModel,
    controller: &'static dyn Controller,
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

/// A handle table, with the kind of value it holds for its messages.
struct Handles<T> {
    kind: &'static str,
    table: Mutex<HandleTable<T>>,
}

static EXPERIMENTS: Handles<FfiExperiment> = Handles::new("experiment", 1024);
static RUNS: Handles<FfiRun> = Handles::new("run", 4096);
static SERVICES: Handles<ServiceSummary> = Handles::new("service", 4096);

impl<T> Handles<T> {
    const fn new(kind: &'static str, capacity: usize) -> Self {
        Self {
            kind,
            table: Mutex::new(HandleTable::with_capacity(capacity)),
        }
    }

    /// Locks the table, surviving a poisoned mutex (a panic in another
    /// call already reported [`ApsStatus::Panicked`]; the tables hold
    /// plain data and stay usable).
    fn lock(&self) -> MutexGuard<'_, HandleTable<T>> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stores `value` and writes its new handle to `out`.
    fn insert(&self, value: T, out: &mut u64) -> Result<(), ApsStatus> {
        *out = self
            .lock()
            .insert(value)
            .or_else(|e| fail(e.into(), &format!("{} table exhausted", self.kind)))?;
        Ok(())
    }

    /// Runs `f` on the live value behind `handle`, under the table lock.
    fn with<R>(
        &self,
        handle: u64,
        f: impl FnOnce(&mut T) -> Result<R, ApsStatus>,
    ) -> Result<R, ApsStatus> {
        f(self.lock().get_mut(handle).or_else(|e| self.stale(e))?)
    }

    /// Destroys the value behind `handle`; a second destroy is stale.
    fn destroy(&self, handle: u64) -> Result<(), ApsStatus> {
        self.lock()
            .remove(handle)
            .map_or_else(|e| self.stale(e), |_| Ok(()))
    }

    /// Refuses a handle this table does not hold.
    fn stale<R>(&self, e: HandleError) -> Result<R, ApsStatus> {
        fail(e.into(), &format!("{} handle is stale", self.kind))
    }
}

/// Runs an entry point's body with panics caught and folded into
/// [`ApsStatus::Panicked`]. A body's `Err` has already recorded its
/// message through [`fail`].
fn guarded<F: FnOnce() -> Result<(), ApsStatus>>(f: F) -> ApsStatus {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(())) => ApsStatus::Ok,
        Ok(Err(status)) => status,
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

/// Records `message` and fails with `status` — the one way a boundary
/// check refuses.
fn fail<T>(status: ApsStatus, message: &str) -> Result<T, ApsStatus> {
    set_last_error(message);
    Err(status)
}

/// Refuses a null pointer argument named `what`.
fn null<T>(what: &str) -> Result<T, ApsStatus> {
    fail(ApsStatus::NullArgument, &format!("{what} is null"))
}

/// A caller-owned out-pointer as a reference, after its null check.
fn out_ptr<'a, T>(ptr: *mut T, what: &str) -> Result<&'a mut T, ApsStatus> {
    // SAFETY: the header requires non-null out-pointers to be valid for
    // writes for the duration of the call.
    match unsafe { ptr.as_mut() } {
        Some(out) => Ok(out),
        None => null(what),
    }
}

/// Reads a required C string argument.
fn read_str<'a>(ptr: *const c_char, what: &str) -> Result<&'a str, ApsStatus> {
    if ptr.is_null() {
        return null(what);
    }
    // SAFETY: non-null, and the header requires string arguments to be
    // NUL-terminated.
    unsafe { CStr::from_ptr(ptr) }
        .to_str()
        .or_else(|_| fail(ApsStatus::InvalidUtf8, &format!("{what} is not UTF-8")))
}

/// Checks a size the caller compiled in against this library's layout
/// of `T`; `what` names the field in the message.
fn check_size<T>(got: usize, what: impl Display) -> Result<(), ApsStatus> {
    let want = std::mem::size_of::<T>();
    if got == want {
        return Ok(());
    }
    fail(
        ApsStatus::StructSizeMismatch,
        &format!("{what} = {got}, library expects {want} — header/library mismatch"),
    )
}

/// A `#[repr(C)]` struct whose first field is its `struct_size`.
trait StructSize: Copy {}
impl StructSize for ApsDomainConfig {}
impl StructSize for ApsServiceClass {}
impl StructSize for ApsPlanSummary {}
impl StructSize for ApsSimSummary {}
impl StructSize for ApsServiceStats {}
impl StructSize for ApsClassSlo {}

/// The guards of a caller's struct: null check, then its `struct_size`,
/// read before any other field is trusted. `what` names the pointer,
/// `name` the struct.
fn check_struct<T: StructSize>(ptr: *const T, what: &str, name: &str) -> Result<(), ApsStatus> {
    if ptr.is_null() {
        return null(what);
    }
    // SAFETY: non-null, and every `StructSize` struct opens with its
    // `struct_size: usize`, which is all this reads.
    let got = unsafe { ptr.cast::<usize>().read() };
    check_size::<T>(got, format_args!("{name}.struct_size"))
}

/// Copies a caller's in-struct once its guards pass.
fn read_in<T: StructSize>(ptr: *const T, what: &str, name: &str) -> Result<T, ApsStatus> {
    check_struct(ptr, what, name)?;
    // SAFETY: non-null and of this library's size, and the header
    // requires in-structs to be readable.
    Ok(unsafe { *ptr })
}

/// A caller's out-struct, once its guards pass.
fn out_struct<'a, T: StructSize>(ptr: *mut T, what: &str) -> Result<&'a mut T, ApsStatus> {
    check_struct(ptr, what, what)?;
    // SAFETY: non-null and of this library's size, and the header
    // requires out-structs to be writable.
    Ok(unsafe { &mut *ptr })
}

/// The caller-buffer protocol: report `needed` through `written`, refuse
/// a `capacity` below it, then require the buffer itself. Returns the
/// `needed` elements to fill; `needs` opens the too-small message.
fn fill_buffer<'a, T>(
    buffer: *mut T,
    what: &str,
    capacity: usize,
    written: &mut usize,
    needed: usize,
    needs: impl Display,
) -> Result<&'a mut [T], ApsStatus> {
    *written = needed;
    if capacity < needed {
        return fail(
            ApsStatus::BufferTooSmall,
            &format!("{needs}, caller provided {capacity}"),
        );
    }
    if buffer.is_null() {
        return null(what);
    }
    // SAFETY: the header requires the buffer to hold `capacity` elements.
    Ok(unsafe { std::slice::from_raw_parts_mut(buffer, needed) })
}

/// Resolves a collective family by name and builds it — the one place
/// the ABI turns a family name into a collective or a typed failure.
fn collective(family: &str, ports: usize, bytes: f64) -> Result<Collective, ApsStatus> {
    match collective_by_name(family, ports, bytes) {
        Some(Ok(c)) => Ok(c),
        Some(Err(e)) => fail(
            ApsStatus::Collective,
            &format!("cannot build {family} on {ports} ports: {e}"),
        ),
        None => fail(
            ApsStatus::UnknownWorkload,
            &format!("unknown collective family '{family}'"),
        ),
    }
}

/// Resolves a scenario (base or heterogeneous pack) by name.
fn scenario(name: &str, bytes: f64) -> Result<Scenario, ApsStatus> {
    match hetero::by_name(name, bytes) {
        Some(scenario) => Ok(scenario),
        None => fail(
            ApsStatus::UnknownScenario,
            &format!("unknown scenario '{name}'"),
        ),
    }
}

/// Entry `index` of a service run's per-class list.
fn class_at<T>(items: &[T], index: usize) -> Result<&T, ApsStatus> {
    match items.get(index) {
        Some(item) => Ok(item),
        None => fail(
            ApsStatus::InvalidArgument,
            &format!("class index {index} out of range ({})", items.len()),
        ),
    }
}

impl FfiExperiment {
    /// The per-run fabric: the configured medium, freshly built and
    /// freshly stormed, over an `n`-port ring initial state.
    fn fabric(&self, n: usize) -> Result<Box<dyn Fabric>, ApsStatus> {
        Matching::shift(n, 1)
            .map_err(|e| SimError::ConfigConflict { source: e })
            .and_then(|initial| {
                hetero::build_fabric_stormy(self.fabric, initial, self.reconfig, self.storm)
            })
            .or_else(|e| fail(ApsStatus::Fabric, &format!("cannot build fabric: {e}")))
    }

    /// Materializes the unbound native experiment for an `n`-port run.
    fn experiment(
        &self,
        n: usize,
        controller: &'static dyn Controller,
    ) -> Result<Experiment<Unbound>, ApsStatus> {
        let base = ring_unidirectional(n)
            .or_else(|e| fail(ApsStatus::InvalidArgument, &format!("bad domain: {e}")))?;
        Ok(Experiment::domain(base)
            .params(self.params)
            .reconfig(self.reconfig)
            .controller(controller))
    }
}

/// Clones the experiment's configuration out of the table, so runs
/// don't hold the global lock.
fn snapshot(experiment: u64) -> Result<FfiExperiment, ApsStatus> {
    EXPERIMENTS.with(experiment, |exp| Ok(exp.clone()))
}

// ---------------------------------------------------------------------------
// Experiment lifecycle
// ---------------------------------------------------------------------------

/// Creates an experiment from a domain configuration; the handle goes
/// to `*out`. Destroy with `aps_experiment_destroy`.
#[no_mangle]
pub extern "C" fn aps_experiment_new(cfg: *const ApsDomainConfig, out: *mut u64) -> ApsStatus {
    guarded(|| {
        let out = out_ptr(out, "out handle")?;
        let cfg = read_in(cfg, "config", "aps_domain_config_t")?;
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
        let params = CostParams::new(alpha_s, bandwidth_gbps, delta_s)
            .or_else(|e| fail(ApsStatus::InvalidArgument, &format!("bad cost params: {e}")))?;
        let reconfig = ReconfigModel::constant(cfg.alpha_r_s)
            .or_else(|e| fail(ApsStatus::InvalidArgument, &format!("bad alpha_r: {e}")))?;
        let controller = if cfg.controller.is_null() {
            "opt"
        } else {
            read_str(cfg.controller, "controller")?
        };
        let Some(controller) = controller_by_name(controller) else {
            return fail(
                ApsStatus::UnknownController,
                &format!("unknown controller '{controller}'"),
            );
        };
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
        EXPERIMENTS.insert(exp, out)
    })
}

/// Destroys an experiment. A second destroy of the same handle returns
/// `APS_STATUS_STALE_HANDLE` — safe, typed, no double-free.
#[no_mangle]
pub extern "C" fn aps_experiment_destroy(experiment: u64) -> ApsStatus {
    guarded(|| EXPERIMENTS.destroy(experiment))
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
        let family = read_str(family, "collective family")?;
        EXPERIMENTS.with(experiment, |exp| {
            collective(family, exp.ports, message_bytes)?;
            exp.binding = Binding::Collective {
                family: family.to_string(),
                bytes: message_bytes,
            };
            Ok(())
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
        let name = read_str(name, "scenario name")?;
        EXPERIMENTS.with(experiment, |exp| {
            scenario(name, message_bytes)?;
            exp.binding = Binding::Scenario {
                name: name.to_string(),
                bytes: message_bytes,
            };
            Ok(())
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
        let class = read_in(class, "class", "aps_service_class_t")?;
        let name = read_str(class.name, "class name")?;
        let workload = read_str(class.workload, "class workload")?;
        if class.ports < 2 {
            return fail(ApsStatus::InvalidArgument, "class ports must be >= 2");
        }
        if !(class.arrival_rate_hz.is_finite() && class.arrival_rate_hz > 0.0) {
            return fail(
                ApsStatus::InvalidArgument,
                "arrival rate must be finite and positive",
            );
        }
        let ports = class.ports as usize;
        collective(workload, ports, class.message_bytes)?;
        let choice = if class.matched != 0 {
            ConfigChoice::Matched
        } else {
            ConfigChoice::Base
        };
        let spec = ServiceClassSpec {
            name: name.to_string(),
            ports,
            workload: workload.to_string(),
            message_bytes: class.message_bytes,
            arrival_rate_hz: class.arrival_rate_hz,
            jobs: (class.jobs > 0).then_some(class.jobs),
            seed: class.seed,
            switching: ServiceSwitching::Uniform(choice),
        };
        EXPERIMENTS.with(experiment, |exp| {
            if let Binding::Service { classes } = &mut exp.binding {
                classes.push(spec);
            } else {
                exp.binding = Binding::Service {
                    classes: vec![spec],
                };
            }
            Ok(())
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
        EXPERIMENTS.with(experiment, |exp| {
            exp.admission = policy;
            Ok(())
        })
    })
}

/// Caps the total jobs a service run offers (0 clears the cap).
#[no_mangle]
pub extern "C" fn aps_experiment_set_max_jobs(experiment: u64, max_jobs: u64) -> ApsStatus {
    guarded(|| {
        EXPERIMENTS.with(experiment, |exp| {
            exp.max_jobs = (max_jobs > 0).then_some(max_jobs);
            Ok(())
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
        let out = out_struct(out, "plan summary")?;
        let exp = snapshot(experiment)?;
        let Binding::Collective { family, bytes } = &exp.binding else {
            return fail(
                ApsStatus::WorkloadUnbound,
                "plan needs a bound collective (scenario and service runs plan internally)",
            );
        };
        let collective = collective(family, exp.ports, *bytes)?;
        let plan = exp
            .experiment(exp.ports, exp.controller)?
            .collective(&collective)
            .plan()
            .or_else(|e| fail(ApsStatus::Core, &e.to_string()))?;
        let matched = (0..plan.switches.len())
            .filter(|&i| plan.switches.choice(i) == ConfigChoice::Matched)
            .count();
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
        Ok(())
    })
}

/// One run of the bound collective or scenario under `controller`, on the
/// configured medium: its completion instant, its physical
/// reconfiguration events, and its detail rows — one per collective
/// step, or one per tenant. A scenario's tenants are planned by the
/// controller first.
fn run_once(
    exp: &FfiExperiment,
    controller: &'static dyn Controller,
) -> Result<(u64, u64, Vec<ApsRunRow>), ApsStatus> {
    match &exp.binding {
        Binding::Collective { family, bytes } => {
            let collective = collective(family, exp.ports, *bytes)?;
            let mut single = exp
                .experiment(exp.ports, controller)?
                .collective(&collective);
            let report = single
                .simulate_on(exp.fabric(exp.ports)?.as_mut())
                .or_else(|e| fail(ApsStatus::Sim, &e.to_string()))?
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
            let scenario = scenario(name, *bytes)?;
            let n = scenario.n;
            let mut shared = exp.experiment(n, controller)?.scenario(scenario);
            shared
                .plan()
                .or_else(|e| fail(ApsStatus::Core, &e.to_string()))?;
            let tenants = shared
                .simulate_on(exp.fabric(n)?.as_mut())
                .or_else(|e| fail(ApsStatus::Sim, &format!("scenario failed: {e}")))?
                .into_iter()
                .map(|r| r.or_else(|e| fail(ApsStatus::Sim, &format!("tenant failed: {e}"))))
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
        Binding::Service { .. } => fail(
            ApsStatus::WorkloadUnbound,
            "service experiments run via aps_experiment_run_service",
        ),
        Binding::None => fail(
            ApsStatus::WorkloadUnbound,
            "bind a collective or scenario before simulating",
        ),
    }
}

/// Simulates the bound workload (collective or scenario) under the
/// experiment's controller, plus a static-baseline run for
/// `speedup_vs_static`. The result is frozen behind a run handle;
/// destroy it with `aps_simrun_destroy`.
#[no_mangle]
pub extern "C" fn aps_experiment_simulate(experiment: u64, out_run: *mut u64) -> ApsStatus {
    guarded(|| {
        let out_run = out_ptr(out_run, "out run handle")?;
        let exp = snapshot(experiment)?;
        let (completion, reconfig_events, rows) = run_once(&exp, exp.controller)?;
        let speedup = if exp.controller.name() == "static" {
            1.0
        } else {
            let (base, _, _) = run_once(&exp, &Static)?;
            base as f64 / completion.max(1) as f64
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
        RUNS.insert(FfiRun { summary, rows }, out_run)
    })
}

/// Sweeps the bound collective over an (α_r × message-bytes) grid under
/// the four shipped policies. `cells` must hold `n_delays × n_bytes`
/// entries (row-major, delays outermost); `written` receives the cell
/// count (also on `APS_STATUS_BUFFER_TOO_SMALL`, as the required size).
/// A grid whose cell count overflows `usize` is refused with
/// `APS_STATUS_INVALID_ARGUMENT`, and `written` is left untouched.
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
        let written = out_ptr(written, "written")?;
        if reconf_delays_s.is_null() || message_bytes.is_null() {
            return fail(ApsStatus::NullArgument, "grid axes are null");
        }
        if n_delays == 0 || n_bytes == 0 {
            return fail(ApsStatus::InvalidArgument, "grid axes are empty");
        }
        check_size::<ApsSweepCell>(cell_size, "cell_size")?;
        let Some(needed) = n_delays.checked_mul(n_bytes) else {
            return fail(
                ApsStatus::InvalidArgument,
                &format!(
                    "sweep grid of {n_delays} delays × {n_bytes} message sizes overflows the \
                     cell count"
                ),
            );
        };
        let out = fill_buffer(
            cells,
            "cells",
            capacity,
            written,
            needed,
            format_args!("sweep needs {needed} cells"),
        )?;
        let exp = snapshot(experiment)?;
        let Binding::Collective { family, bytes: _ } = &exp.binding else {
            return fail(ApsStatus::WorkloadUnbound, "sweep needs a bound collective");
        };
        // SAFETY: both axes are non-null, and the header requires them to
        // hold `n_delays` and `n_bytes` values.
        let grid = SweepGrid {
            reconf_delays_s: unsafe { std::slice::from_raw_parts(reconf_delays_s, n_delays) }
                .to_vec(),
            message_bytes: unsafe { std::slice::from_raw_parts(message_bytes, n_bytes) }.to_vec(),
        };
        // The sweep builds the collective per message size itself.
        let family = family.clone();
        let ports = exp.ports;
        let result = exp
            .experiment(ports, exp.controller)?
            .collective_family(move |m| {
                collective_by_name(&family, ports, m).expect("family validated at bind")
            })
            .sweep(&grid)
            .or_else(|e| fail(ApsStatus::Core, &format!("sweep failed: {e}")))?;
        for (out, cell) in out.iter_mut().zip(result.cells.iter().flatten()) {
            *out = ApsSweepCell {
                t_static_s: cell.t_static_s,
                t_bvn_s: cell.t_bvn_s,
                t_opt_s: cell.t_opt_s,
                t_threshold_s: cell.t_threshold_s,
            };
        }
        Ok(())
    })
}

/// Runs the experiment's service classes as an open system on the
/// configured medium. The summary is frozen behind a handle; destroy it
/// with `aps_service_destroy`. A class with unbounded jobs (`jobs = 0`)
/// needs a cap from `aps_experiment_set_max_jobs`: without one the run
/// would never end, so it is refused with `APS_STATUS_INVALID_ARGUMENT`
/// before anything is built.
#[no_mangle]
pub extern "C" fn aps_experiment_run_service(experiment: u64, out_service: *mut u64) -> ApsStatus {
    guarded(|| {
        let out_service = out_ptr(out_service, "out service handle")?;
        let exp = snapshot(experiment)?;
        let Binding::Service { classes } = &exp.binding else {
            return fail(
                ApsStatus::WorkloadUnbound,
                "add service classes before running the service",
            );
        };
        if classes.is_empty() {
            return fail(ApsStatus::WorkloadUnbound, "service has no classes");
        }
        if exp.max_jobs.is_none() {
            if let Some(spec) = classes.iter().find(|spec| spec.jobs.is_none()) {
                return fail(
                    ApsStatus::InvalidArgument,
                    &format!(
                        "service class '{}' offers unbounded jobs (jobs = 0) and no job cap \
                         is set; set its jobs or call aps_experiment_set_max_jobs",
                        spec.name
                    ),
                );
            }
        }
        let mut tenant_classes = Vec::with_capacity(classes.len());
        for spec in classes {
            let schedule = collective(&spec.workload, spec.ports, spec.message_bytes)?.schedule;
            let base = Matching::shift(spec.ports, 1)
                .or_else(|e| fail(ApsStatus::InvalidArgument, &format!("bad class base: {e}")))?;
            let arrivals = PoissonArrivals::new(spec.arrival_rate_hz, spec.jobs, spec.seed)
                .or_else(|e| fail(ApsStatus::InvalidArgument, &format!("bad arrivals: {e}")))?;
            tenant_classes.push(aps_faas::TenantClass::new(
                spec.name.clone(),
                spec.ports,
                base,
                spec.switching.clone(),
                Box::new(arrivals),
                Box::new(move |_id: u64| -> Box<dyn Workload> {
                    Box::new(ScheduleStream::new(schedule.clone()))
                }),
            ));
        }
        let mut service = exp
            .experiment(exp.ports, exp.controller)?
            .service(tenant_classes)
            .admission(exp.admission);
        if let Some(jobs) = exp.max_jobs {
            service = service.max_jobs(jobs);
        }
        let report = service
            .run_on(exp.fabric(exp.ports)?.as_mut())
            .or_else(|e| fail(ApsStatus::Service, &e.to_string()))?;
        SERVICES.insert(report.summary, out_service)
    })
}

// ---------------------------------------------------------------------------
// Run reads
// ---------------------------------------------------------------------------

/// Reads a run's summary.
#[no_mangle]
pub extern "C" fn aps_simrun_summary(run: u64, out: *mut ApsSimSummary) -> ApsStatus {
    guarded(|| {
        let out = out_struct(out, "sim summary")?;
        RUNS.with(run, |r| {
            *out = r.summary;
            Ok(())
        })
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
        let written = out_ptr(written, "written")?;
        check_size::<ApsRunRow>(row_size, "row_size")?;
        RUNS.with(run, |r| {
            let n = r.rows.len();
            fill_buffer(
                rows,
                "rows",
                capacity,
                written,
                n,
                format_args!("run has {n} rows"),
            )?
            .copy_from_slice(&r.rows);
            Ok(())
        })
    })
}

/// Destroys a run. Double-destroy returns `APS_STATUS_STALE_HANDLE`.
#[no_mangle]
pub extern "C" fn aps_simrun_destroy(run: u64) -> ApsStatus {
    guarded(|| RUNS.destroy(run))
}

// ---------------------------------------------------------------------------
// Service reads
// ---------------------------------------------------------------------------

/// Reads a service run's roll-up statistics.
#[no_mangle]
pub extern "C" fn aps_service_stats(service: u64, out: *mut ApsServiceStats) -> ApsStatus {
    guarded(|| {
        let out = out_struct(out, "service stats")?;
        SERVICES.with(service, |s| {
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
            Ok(())
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
        let out = out_struct(out, "class slo")?;
        SERVICES.with(service, |s| {
            let t = class_at(&s.tenants, index)?;
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
            Ok(())
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
        let written = out_ptr(written, "written")?;
        SERVICES.with(service, |s| {
            let name = class_at(&s.class_names, index)?;
            let needed = name.len() + 1;
            let out = fill_buffer(
                buffer,
                "buffer",
                capacity,
                written,
                needed,
                format_args!("class name needs {needed} bytes"),
            )?;
            for (out, byte) in out.iter_mut().zip(name.bytes().chain([0])) {
                *out = byte as c_char;
            }
            Ok(())
        })
    })
}

/// Destroys a service summary. Double-destroy returns
/// `APS_STATUS_STALE_HANDLE`.
#[no_mangle]
pub extern "C" fn aps_service_destroy(service: u64) -> ApsStatus {
    guarded(|| SERVICES.destroy(service))
}
