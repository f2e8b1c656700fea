//! In-process ABI round-trips: every summary the C surface returns must
//! match the native Rust API bit-for-bit, and every failure path must
//! come back as a typed status with a readable message.

use std::ffi::{c_char, CStr, CString};

use adaptive_photonics::experiment::{collective_by_name, Experiment};
use aps_core::controller::by_name as controller_by_name;
use aps_core::sweep::SweepGrid;
use aps_cost::units::MIB;
use aps_cost::{CostParams, ReconfigModel};
use aps_faas::{AdmissionPolicy, PoissonArrivals, TenantClass};
use aps_ffi::api::*;
use aps_ffi::error::aps_last_error_message;
use aps_ffi::status::ApsStatus;
use aps_matrix::Matching;
use aps_sim::scenarios::hetero::{self, FabricKind, FailureStorm};
use aps_sim::ServiceSwitching;
use aps_topology::builders::ring_unidirectional;

const ALPHA_S: f64 = 100e-9;
const BANDWIDTH_GBPS: f64 = 800.0;
const DELTA_S: f64 = 100e-9;
const ALPHA_R_S: f64 = 10e-6;

fn domain_config(
    ports: u32,
    controller: &CStr,
    fabric: i32,
    storm_seed: Option<u64>,
) -> ApsDomainConfig {
    ApsDomainConfig {
        struct_size: std::mem::size_of::<ApsDomainConfig>(),
        ports,
        alpha_s: ALPHA_S,
        bandwidth_gbps: BANDWIDTH_GBPS,
        delta_s: DELTA_S,
        alpha_r_s: ALPHA_R_S,
        controller: controller.as_ptr(),
        fabric,
        storm: storm_seed.is_some() as i32,
        storm_seed: storm_seed.unwrap_or(0),
    }
}

fn new_experiment(cfg: &ApsDomainConfig) -> u64 {
    let mut handle = 0u64;
    assert_eq!(aps_experiment_new(cfg, &mut handle), ApsStatus::Ok);
    assert_ne!(handle, 0);
    handle
}

fn last_error() -> String {
    unsafe { CStr::from_ptr(aps_last_error_message()) }
        .to_string_lossy()
        .into_owned()
}

/// The native oracle's experiment builder, mirroring the FFI's run
/// semantics exactly.
fn native_experiment(
    ports: usize,
    controller: &str,
) -> Experiment<adaptive_photonics::experiment::Unbound> {
    let params = CostParams::new(ALPHA_S, BANDWIDTH_GBPS, DELTA_S).unwrap();
    let reconfig = ReconfigModel::constant(ALPHA_R_S).unwrap();
    Experiment::domain(ring_unidirectional(ports).unwrap())
        .params(params)
        .reconfig(reconfig)
        .controller(controller_by_name(controller).unwrap())
}

fn native_fabric(
    kind: FabricKind,
    n: usize,
    storm: Option<FailureStorm>,
) -> Box<dyn aps_fabric::Fabric> {
    let reconfig = ReconfigModel::constant(ALPHA_R_S).unwrap();
    hetero::build_fabric_stormy(kind, Matching::shift(n, 1).unwrap(), reconfig, storm).unwrap()
}

#[test]
fn abi_version_is_packed_semver() {
    let packed = aps_abi_version();
    let (mut major, mut minor, mut patch) = (0u32, 0u32, 0u32);
    assert_eq!(
        aps_abi_version_triple(&mut major, &mut minor, &mut patch),
        ApsStatus::Ok
    );
    assert_eq!(packed, (major << 16) | (minor << 8) | patch);
    assert!(major >= 1);
}

#[test]
fn status_names_are_stable() {
    for s in ApsStatus::all() {
        let name = unsafe { CStr::from_ptr(aps_status_name(*s as i32)) };
        assert_eq!(name.to_str().unwrap(), s.name());
    }
    let unknown = unsafe { CStr::from_ptr(aps_status_name(-1)) };
    assert_eq!(unknown.to_str().unwrap(), "APS_STATUS_UNKNOWN");
}

#[test]
fn collective_plan_and_simulate_match_native_bit_for_bit() {
    let controller = CString::new("opt").unwrap();
    let family = CString::new("hd-allreduce").unwrap();
    let cfg = domain_config(16, &controller, ApsFabricKind::Optical as i32, None);
    let exp = new_experiment(&cfg);
    assert_eq!(
        aps_experiment_bind_collective(exp, family.as_ptr(), MIB),
        ApsStatus::Ok
    );

    // Plan vs native plan.
    let mut plan = ApsPlanSummary {
        struct_size: std::mem::size_of::<ApsPlanSummary>(),
        ..Default::default()
    };
    assert_eq!(aps_experiment_plan(exp, &mut plan), ApsStatus::Ok);
    let collective = collective_by_name("hd-allreduce", 16, MIB)
        .unwrap()
        .unwrap();
    let native_plan = native_experiment(16, "opt")
        .collective(&collective)
        .plan()
        .unwrap();
    assert_eq!(plan.steps, native_plan.switches.len() as u64);
    assert_eq!(
        plan.reconfig_events,
        native_plan.report.reconfig_events as u64
    );
    assert_eq!(
        plan.total_s.to_bits(),
        native_plan.report.total_s().to_bits()
    );
    assert_eq!(
        plan.reconfig_s.to_bits(),
        native_plan.report.reconfig_s.to_bits()
    );
    assert_eq!(
        plan.transmission_s.to_bits(),
        native_plan.report.transmission_s.to_bits()
    );

    // Simulate vs native simulate_on over the identical fabric.
    let mut run = 0u64;
    assert_eq!(aps_experiment_simulate(exp, &mut run), ApsStatus::Ok);
    let mut summary = ApsSimSummary {
        struct_size: std::mem::size_of::<ApsSimSummary>(),
        ..Default::default()
    };
    assert_eq!(aps_simrun_summary(run, &mut summary), ApsStatus::Ok);

    let mut fabric = native_fabric(FabricKind::Optical, 16, None);
    let native = native_experiment(16, "opt")
        .collective(&collective)
        .simulate_on(fabric.as_mut())
        .unwrap();
    assert_eq!(summary.completion_ps, native.report.total_ps);
    assert_eq!(summary.rows, native.report.steps.len() as u64);
    assert_eq!(
        summary.reconfig_events,
        native.report.reconfig_events() as u64
    );

    let mut baseline_fabric = native_fabric(FabricKind::Optical, 16, None);
    let baseline = native_experiment(16, "static")
        .collective(&collective)
        .simulate_on(baseline_fabric.as_mut())
        .unwrap();
    let speedup = baseline.report.total_ps as f64 / native.report.total_ps.max(1) as f64;
    assert_eq!(summary.speedup_vs_static.to_bits(), speedup.to_bits());
    assert!(summary.speedup_vs_static > 1.0);

    // Rows match the per-step report.
    let mut rows = vec![ApsRunRow::default(); summary.rows as usize];
    let mut written = 0usize;
    assert_eq!(
        aps_simrun_rows(
            run,
            std::mem::size_of::<ApsRunRow>(),
            rows.as_mut_ptr(),
            rows.len(),
            &mut written
        ),
        ApsStatus::Ok
    );
    assert_eq!(written, native.report.steps.len());
    for (row, step) in rows.iter().zip(&native.report.steps) {
        assert_eq!(row.total_ps, step.total_ps());
        assert_eq!(row.reconfig_ps, step.reconfig_ps);
        assert_eq!(row.transfer_ps, step.transfer_ps);
    }

    assert_eq!(aps_simrun_destroy(run), ApsStatus::Ok);
    assert_eq!(aps_experiment_destroy(exp), ApsStatus::Ok);
}

#[test]
fn hetero_scenario_with_storm_matches_native_and_replays() {
    let controller = CString::new("greedy").unwrap();
    let name = CString::new("hetero-hybrid").unwrap();
    let cfg = domain_config(32, &controller, ApsFabricKind::Hybrid as i32, Some(42));
    let exp = new_experiment(&cfg);
    assert_eq!(
        aps_experiment_bind_scenario(exp, name.as_ptr(), MIB),
        ApsStatus::Ok
    );

    let read = |exp: u64| -> (ApsSimSummary, Vec<ApsRunRow>) {
        let mut run = 0u64;
        assert_eq!(aps_experiment_simulate(exp, &mut run), ApsStatus::Ok);
        let mut summary = ApsSimSummary {
            struct_size: std::mem::size_of::<ApsSimSummary>(),
            ..Default::default()
        };
        assert_eq!(aps_simrun_summary(run, &mut summary), ApsStatus::Ok);
        let mut rows = vec![ApsRunRow::default(); summary.rows as usize];
        let mut written = 0usize;
        assert_eq!(
            aps_simrun_rows(
                run,
                std::mem::size_of::<ApsRunRow>(),
                rows.as_mut_ptr(),
                rows.len(),
                &mut written
            ),
            ApsStatus::Ok
        );
        assert_eq!(aps_simrun_destroy(run), ApsStatus::Ok);
        (summary, rows)
    };

    let (summary, rows) = read(exp);

    // Native oracle: same scenario, same stormy hybrid fabric.
    let scenario = hetero::by_name("hetero-hybrid", MIB).unwrap();
    let mut shared = native_experiment(scenario.n, "greedy").scenario(scenario);
    shared.plan().unwrap();
    let mut fabric = native_fabric(FabricKind::Hybrid, 32, Some(FailureStorm::new(42)));
    let reports: Vec<_> = shared
        .simulate_on(fabric.as_mut())
        .unwrap()
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let completion = reports.iter().map(|t| t.finish_ps).max().unwrap();
    assert_eq!(summary.completion_ps, completion);
    assert_eq!(summary.rows, reports.len() as u64);
    for (row, tenant) in rows.iter().zip(&reports) {
        assert_eq!(row.total_ps, tenant.finish_ps);
        assert_eq!(row.arbitration_ps, tenant.arbitration_ps());
    }

    // Storms are seeded: a second run through the ABI replays
    // bit-identically.
    let (again, rows_again) = read(exp);
    assert_eq!(summary, again);
    assert_eq!(rows, rows_again);

    assert_eq!(aps_experiment_destroy(exp), ApsStatus::Ok);
}

#[test]
fn sweep_matches_native_grid() {
    let controller = CString::new("opt").unwrap();
    let family = CString::new("alltoall").unwrap();
    let cfg = domain_config(8, &controller, ApsFabricKind::Optical as i32, None);
    let exp = new_experiment(&cfg);
    assert_eq!(
        aps_experiment_bind_collective(exp, family.as_ptr(), MIB),
        ApsStatus::Ok
    );

    let delays = [1e-6, 10e-6];
    let sizes = [MIB, 4.0 * MIB];
    let mut cells = vec![ApsSweepCell::default(); 4];
    let mut written = 0usize;
    assert_eq!(
        aps_experiment_sweep(
            exp,
            delays.as_ptr(),
            delays.len(),
            sizes.as_ptr(),
            sizes.len(),
            std::mem::size_of::<ApsSweepCell>(),
            cells.as_mut_ptr(),
            cells.len(),
            &mut written
        ),
        ApsStatus::Ok
    );
    assert_eq!(written, 4);

    let native = native_experiment(8, "opt")
        .collective_family(|m| collective_by_name("alltoall", 8, m).unwrap())
        .sweep(&SweepGrid {
            reconf_delays_s: delays.to_vec(),
            message_bytes: sizes.to_vec(),
        })
        .unwrap();
    for (r, row) in native.cells.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            let got = &cells[r * sizes.len() + c];
            assert_eq!(got.t_static_s.to_bits(), cell.t_static_s.to_bits());
            assert_eq!(got.t_bvn_s.to_bits(), cell.t_bvn_s.to_bits());
            assert_eq!(got.t_opt_s.to_bits(), cell.t_opt_s.to_bits());
            assert_eq!(got.t_threshold_s.to_bits(), cell.t_threshold_s.to_bits());
        }
    }

    // Undersized buffer: typed error, needed count reported.
    let mut short = vec![ApsSweepCell::default(); 1];
    let mut needed = 0usize;
    assert_eq!(
        aps_experiment_sweep(
            exp,
            delays.as_ptr(),
            delays.len(),
            sizes.as_ptr(),
            sizes.len(),
            std::mem::size_of::<ApsSweepCell>(),
            short.as_mut_ptr(),
            short.len(),
            &mut needed
        ),
        ApsStatus::BufferTooSmall
    );
    assert_eq!(needed, 4);

    assert_eq!(aps_experiment_destroy(exp), ApsStatus::Ok);
}

#[test]
fn service_run_matches_native_slo_accounting() {
    let controller = CString::new("opt").unwrap();
    let cfg = domain_config(16, &controller, ApsFabricKind::Optical as i32, None);
    let exp = new_experiment(&cfg);

    let class_name = CString::new("burst").unwrap();
    let workload = CString::new("hd-allreduce").unwrap();
    let class = ApsServiceClass {
        struct_size: std::mem::size_of::<ApsServiceClass>(),
        name: class_name.as_ptr(),
        ports: 8,
        workload: workload.as_ptr(),
        message_bytes: MIB,
        arrival_rate_hz: 2000.0,
        jobs: 24,
        seed: 7,
        matched: 1,
    };
    assert_eq!(aps_experiment_add_service_class(exp, &class), ApsStatus::Ok);
    assert_eq!(aps_experiment_set_admission(exp, 1, 4), ApsStatus::Ok);

    let mut service = 0u64;
    assert_eq!(aps_experiment_run_service(exp, &mut service), ApsStatus::Ok);

    let mut stats = ApsServiceStats {
        struct_size: std::mem::size_of::<ApsServiceStats>(),
        ..Default::default()
    };
    assert_eq!(aps_service_stats(service, &mut stats), ApsStatus::Ok);
    assert_eq!(stats.classes, 1);
    assert_eq!(stats.offered, 24);

    // Native oracle: identical class, fabric and policy.
    let collective = collective_by_name("hd-allreduce", 8, MIB).unwrap().unwrap();
    let schedule = collective.schedule;
    let native_class = TenantClass::new(
        "burst",
        8,
        Matching::shift(8, 1).unwrap(),
        ServiceSwitching::Uniform(aps_core::ConfigChoice::Matched),
        Box::new(PoissonArrivals::new(2000.0, Some(24), 7).unwrap()),
        Box::new(move |_id: u64| -> Box<dyn aps_collectives::Workload> {
            Box::new(aps_collectives::ScheduleStream::new(schedule.clone()))
        }),
    );
    let mut fabric = native_fabric(FabricKind::Optical, 16, None);
    let native = native_experiment(16, "opt")
        .service(vec![native_class])
        .admission(AdmissionPolicy::Queue { capacity: 4 })
        .run_on(fabric.as_mut())
        .unwrap()
        .summary;
    assert_eq!(stats.makespan_ps, native.makespan_ps);
    assert_eq!(stats.completed, native.completed());
    assert_eq!(stats.steps, native.steps.steps as u64);

    let mut slo = ApsClassSlo {
        struct_size: std::mem::size_of::<ApsClassSlo>(),
        ..Default::default()
    };
    assert_eq!(aps_service_class_slo(service, 0, &mut slo), ApsStatus::Ok);
    let t = &native.tenants[0];
    assert_eq!(slo.offered, t.offered);
    assert_eq!(slo.admitted, t.admitted);
    assert_eq!(slo.queued, t.queued);
    assert_eq!(slo.completed, t.completed);
    assert_eq!(slo.completion_p50_ps, t.completion.p50_ps().unwrap_or(0));
    assert_eq!(slo.completion_p99_ps, t.completion.p99_ps().unwrap_or(0));
    assert_eq!(slo.wait_p50_ps, t.wait.p50_ps().unwrap_or(0));
    assert_eq!(slo.goodput.to_bits(), t.goodput().to_bits());
    assert!(slo.completed > 0);

    // Class name round-trips through the byte buffer, with the
    // undersized case reporting the needed length.
    let mut buf = [0i8; 32];
    let mut written = 0usize;
    assert_eq!(
        aps_service_class_name(service, 0, buf.as_mut_ptr().cast(), buf.len(), &mut written),
        ApsStatus::Ok
    );
    assert_eq!(written, "burst".len() + 1);
    let name = unsafe { CStr::from_ptr(buf.as_ptr().cast()) };
    assert_eq!(name.to_str().unwrap(), "burst");
    let mut tiny_written = 0usize;
    assert_eq!(
        aps_service_class_name(service, 0, buf.as_mut_ptr().cast(), 2, &mut tiny_written),
        ApsStatus::BufferTooSmall
    );
    assert_eq!(tiny_written, "burst".len() + 1);

    assert_eq!(aps_service_destroy(service), ApsStatus::Ok);
    assert_eq!(aps_service_destroy(service), ApsStatus::StaleHandle);
    assert_eq!(aps_experiment_destroy(exp), ApsStatus::Ok);
}

/// What a failure row's `written` out-parameter holds before the call. A
/// row that fails before the buffer protocol reports a size must leave it
/// at this value.
const UNTOUCHED: usize = 0xDEAD;

/// One row of the failure table: the entry point, what is wrong with its
/// input, the status and exact `aps_last_error_message` text it must
/// return, and the value it must leave in `written`.
struct Failure<'a> {
    call: &'static str,
    input: &'static str,
    status: ApsStatus,
    message: String,
    written: usize,
    run: Box<dyn Fn(&mut usize) -> ApsStatus + 'a>,
}

/// A row whose `written` stays [`UNTOUCHED`]; `run` gets that slot to
/// pass as its `written` argument.
fn row<'a>(
    call: &'static str,
    input: &'static str,
    status: ApsStatus,
    message: impl Into<String>,
    run: impl Fn(&mut usize) -> ApsStatus + 'a,
) -> Failure<'a> {
    Failure {
        call,
        input,
        status,
        message: message.into(),
        written: UNTOUCHED,
        run: Box::new(run),
    }
}

impl Failure<'_> {
    /// The same row, expecting `written` to report `n` after the call.
    fn written(self, n: usize) -> Self {
        Self { written: n, ..self }
    }
}

/// The struct-size mismatch message for `what`, sent `got` bytes where the
/// library's layout of `T` has `size_of::<T>()`.
fn size_mismatch<T>(what: &str, got: usize) -> String {
    format!(
        "{what} = {got}, library expects {} — header/library mismatch",
        std::mem::size_of::<T>()
    )
}

/// The axes of the valid sweep grid, at fixed addresses.
static SWEEP_DELAYS: [f64; 2] = [1e-6, 10e-6];
static SWEEP_SIZES: [f64; 2] = [MIB, 4.0 * MIB];

/// The argument list of one `aps_experiment_sweep` call; the defaults are
/// a valid 2 × 2 grid whose cells land in a 4-cell buffer.
#[derive(Clone, Copy)]
struct SweepCall {
    experiment: u64,
    delays: *const f64,
    n_delays: usize,
    sizes: *const f64,
    n_bytes: usize,
    cell_size: usize,
    cells: bool,
    capacity: usize,
}

impl SweepCall {
    fn on(experiment: u64) -> Self {
        Self {
            experiment,
            delays: SWEEP_DELAYS.as_ptr(),
            n_delays: 2,
            sizes: SWEEP_SIZES.as_ptr(),
            n_bytes: 2,
            cell_size: std::mem::size_of::<ApsSweepCell>(),
            cells: true,
            capacity: 4,
        }
    }

    fn call(self, written: *mut usize) -> ApsStatus {
        let mut buffer = [ApsSweepCell::default(); 4];
        let cells = if self.cells {
            buffer.as_mut_ptr()
        } else {
            std::ptr::null_mut()
        };
        aps_experiment_sweep(
            self.experiment,
            self.delays,
            self.n_delays,
            self.sizes,
            self.n_bytes,
            self.cell_size,
            cells,
            self.capacity,
            written,
        )
    }
}

/// Every failing entry point of the ABI; each needs a row in the table.
const FALLIBLE: [&str; 18] = [
    "aps_abi_version_triple",
    "aps_experiment_new",
    "aps_experiment_destroy",
    "aps_experiment_bind_collective",
    "aps_experiment_bind_scenario",
    "aps_experiment_add_service_class",
    "aps_experiment_set_admission",
    "aps_experiment_set_max_jobs",
    "aps_experiment_plan",
    "aps_experiment_simulate",
    "aps_experiment_sweep",
    "aps_experiment_run_service",
    "aps_simrun_summary",
    "aps_simrun_rows",
    "aps_simrun_destroy",
    "aps_service_stats",
    "aps_service_class_slo",
    "aps_service_class_name",
];

#[test]
fn every_failure_is_typed_and_explained() {
    use std::ptr::{null, null_mut};
    use ApsStatus::*;

    let opt = CString::new("opt").unwrap();
    let phantom = CString::new("phantom").unwrap();
    let not_utf8 = c"\xff";
    let family = CString::new("hd-allreduce").unwrap();
    let scenario = CString::new("hetero-hybrid").unwrap();
    let class_name = CString::new("burst").unwrap();
    let good = domain_config(8, &opt, ApsFabricKind::Optical as i32, None);
    let class = ApsServiceClass {
        struct_size: std::mem::size_of::<ApsServiceClass>(),
        name: class_name.as_ptr(),
        ports: 8,
        workload: family.as_ptr(),
        message_bytes: MIB,
        arrival_rate_hz: 2000.0,
        jobs: 4,
        seed: 7,
        matched: 1,
    };

    // Fixtures: an unbound, a collective-bound and a service-bound
    // experiment, a run and a service summary, and a destroyed handle of
    // each kind.
    let unbound = new_experiment(&good);
    let collective = new_experiment(&good);
    assert_eq!(
        aps_experiment_bind_collective(collective, family.as_ptr(), MIB),
        Ok
    );
    let service_exp = new_experiment(&good);
    assert_eq!(aps_experiment_add_service_class(service_exp, &class), Ok);
    let stale_exp = new_experiment(&good);
    assert_eq!(aps_experiment_destroy(stale_exp), Ok);

    let simulate = || {
        let mut run = 0u64;
        assert_eq!(aps_experiment_simulate(collective, &mut run), Ok);
        run
    };
    let run = simulate();
    let stale_run = simulate();
    assert_eq!(aps_simrun_destroy(stale_run), Ok);
    let mut summary = ApsSimSummary {
        struct_size: std::mem::size_of::<ApsSimSummary>(),
        ..Default::default()
    };
    assert_eq!(aps_simrun_summary(run, &mut summary), Ok);
    let rows = summary.rows as usize;
    assert!(rows > 0);

    let run_service = || {
        let mut service = 0u64;
        assert_eq!(aps_experiment_run_service(service_exp, &mut service), Ok);
        service
    };
    let service = run_service();
    let stale_service = run_service();
    assert_eq!(aps_service_destroy(stale_service), Ok);

    let new = |cfg: ApsDomainConfig| {
        let mut out = 0u64;
        aps_experiment_new(&cfg, &mut out)
    };
    let add_class = |experiment: u64, class: ApsServiceClass| {
        aps_experiment_add_service_class(experiment, &class)
    };
    let plan = |experiment: u64, struct_size: usize| {
        let mut out = ApsPlanSummary {
            struct_size,
            ..Default::default()
        };
        aps_experiment_plan(experiment, &mut out)
    };
    let sim_summary = |run: u64, struct_size: usize| {
        let mut out = ApsSimSummary {
            struct_size,
            ..Default::default()
        };
        aps_simrun_summary(run, &mut out)
    };
    let run_rows = |run: u64, row_size: usize, buffer: bool, capacity: usize, w: *mut usize| {
        let mut out = vec![ApsRunRow::default(); rows];
        let ptr = if buffer { out.as_mut_ptr() } else { null_mut() };
        aps_simrun_rows(run, row_size, ptr, capacity, w)
    };
    let stats = |service: u64, struct_size: usize| {
        let mut out = ApsServiceStats {
            struct_size,
            ..Default::default()
        };
        aps_service_stats(service, &mut out)
    };
    let slo = |service: u64, index: usize, struct_size: usize| {
        let mut out = ApsClassSlo {
            struct_size,
            ..Default::default()
        };
        aps_service_class_slo(service, index, &mut out)
    };
    let name = |service: u64, index: usize, buffer: bool, capacity: usize, w: *mut usize| {
        let mut out = [0 as c_char; 32];
        let ptr = if buffer { out.as_mut_ptr() } else { null_mut() };
        aps_service_class_name(service, index, ptr, capacity, w)
    };
    let sweep = SweepCall::on(collective);
    let bad_sizes = [MIB, -1.0];
    let cfg_size = std::mem::size_of::<ApsDomainConfig>();
    let class_size = std::mem::size_of::<ApsServiceClass>();
    let plan_size = std::mem::size_of::<ApsPlanSummary>();
    let sim_size = std::mem::size_of::<ApsSimSummary>();
    let row_size = std::mem::size_of::<ApsRunRow>();
    let cell_size = std::mem::size_of::<ApsSweepCell>();
    let stats_size = std::mem::size_of::<ApsServiceStats>();
    let slo_size = std::mem::size_of::<ApsClassSlo>();
    let stale = |what: &str| format!("{what} handle is stale");
    let needs_rows = format!("run has {rows} rows, caller provided 0");

    let table = vec![
        // Version.
        row(
            "aps_abi_version_triple",
            "null out-pointer",
            NullArgument,
            "version out-pointers are null",
            |_| {
                let (mut minor, mut patch) = (0u32, 0u32);
                aps_abi_version_triple(null_mut(), &mut minor, &mut patch)
            },
        ),
        // Experiment lifecycle.
        row(
            "aps_experiment_new",
            "null out handle",
            NullArgument,
            "out handle is null",
            |_| aps_experiment_new(&good, null_mut()),
        ),
        row(
            "aps_experiment_new",
            "null config",
            NullArgument,
            "config is null",
            |_| {
                let mut out = 0u64;
                aps_experiment_new(null(), &mut out)
            },
        ),
        row(
            "aps_experiment_new",
            "wrong struct_size",
            StructSizeMismatch,
            size_mismatch::<ApsDomainConfig>("aps_domain_config_t.struct_size", cfg_size + 8),
            |_| {
                new(ApsDomainConfig {
                    struct_size: cfg_size + 8,
                    ..good
                })
            },
        ),
        row(
            "aps_experiment_new",
            "one port",
            InvalidArgument,
            "ports must be >= 2",
            |_| new(ApsDomainConfig { ports: 1, ..good }),
        ),
        // NaN is refused instead of standing in for the paper default, and
        // a line rate whose byte rate overflows to +∞ is refused instead of
        // pricing transfers at β = 0.
        row(
            "aps_experiment_new",
            "NaN alpha",
            InvalidArgument,
            "bad cost params: cost parameter alpha = NaN must be finite and non-negative",
            |_| {
                new(ApsDomainConfig {
                    alpha_s: f64::NAN,
                    ..good
                })
            },
        ),
        row(
            "aps_experiment_new",
            "NaN line rate",
            InvalidArgument,
            "bad cost params: cost parameter bandwidth_gbps = NaN must give a finite, positive byte rate and β",
            |_| {
                new(ApsDomainConfig {
                    bandwidth_gbps: f64::NAN,
                    ..good
                })
            },
        ),
        row(
            "aps_experiment_new",
            "NaN delta",
            InvalidArgument,
            "bad cost params: cost parameter delta = NaN must be finite and non-negative",
            |_| {
                new(ApsDomainConfig {
                    delta_s: f64::NAN,
                    ..good
                })
            },
        ),
        row(
            "aps_experiment_new",
            "line rate with an infinite byte rate",
            InvalidArgument,
            format!(
                "bad cost params: cost parameter bandwidth_gbps = {} must give a finite, \
                 positive byte rate and β",
                1e300
            ),
            |_| {
                new(ApsDomainConfig {
                    bandwidth_gbps: 1e300,
                    ..good
                })
            },
        ),
        row(
            "aps_experiment_new",
            "NaN alpha_r",
            InvalidArgument,
            "bad alpha_r: reconfiguration delay NaN must be finite and non-negative",
            |_| {
                new(ApsDomainConfig {
                    alpha_r_s: f64::NAN,
                    ..good
                })
            },
        ),
        row(
            "aps_experiment_new",
            "non-UTF-8 controller",
            InvalidUtf8,
            "controller is not UTF-8",
            |_| {
                new(ApsDomainConfig {
                    controller: not_utf8.as_ptr(),
                    ..good
                })
            },
        ),
        row(
            "aps_experiment_new",
            "unknown controller",
            UnknownController,
            "unknown controller 'phantom'",
            |_| {
                new(ApsDomainConfig {
                    controller: phantom.as_ptr(),
                    ..good
                })
            },
        ),
        row(
            "aps_experiment_new",
            "unknown fabric kind",
            InvalidArgument,
            "unknown fabric kind 99",
            |_| new(ApsDomainConfig { fabric: 99, ..good }),
        ),
        row(
            "aps_experiment_destroy",
            "zero handle",
            StaleHandle,
            stale("experiment"),
            |_| aps_experiment_destroy(0),
        ),
        row(
            "aps_experiment_destroy",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |_| aps_experiment_destroy(stale_exp),
        ),
        // Bindings.
        row(
            "aps_experiment_bind_collective",
            "null family",
            NullArgument,
            "collective family is null",
            |_| aps_experiment_bind_collective(unbound, null(), MIB),
        ),
        row(
            "aps_experiment_bind_collective",
            "non-UTF-8 family",
            InvalidUtf8,
            "collective family is not UTF-8",
            |_| aps_experiment_bind_collective(unbound, not_utf8.as_ptr(), MIB),
        ),
        row(
            "aps_experiment_bind_collective",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |_| aps_experiment_bind_collective(stale_exp, family.as_ptr(), MIB),
        ),
        row(
            "aps_experiment_bind_collective",
            "unknown family",
            UnknownWorkload,
            "unknown collective family 'phantom'",
            |_| aps_experiment_bind_collective(unbound, phantom.as_ptr(), MIB),
        ),
        row(
            "aps_experiment_bind_collective",
            "negative volume",
            Collective,
            "cannot build hd-allreduce on 8 ports: message size -1 must be positive and finite",
            |_| aps_experiment_bind_collective(unbound, family.as_ptr(), -1.0),
        ),
        row(
            "aps_experiment_bind_scenario",
            "null name",
            NullArgument,
            "scenario name is null",
            |_| aps_experiment_bind_scenario(unbound, null(), MIB),
        ),
        row(
            "aps_experiment_bind_scenario",
            "non-UTF-8 name",
            InvalidUtf8,
            "scenario name is not UTF-8",
            |_| aps_experiment_bind_scenario(unbound, not_utf8.as_ptr(), MIB),
        ),
        row(
            "aps_experiment_bind_scenario",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |_| aps_experiment_bind_scenario(stale_exp, scenario.as_ptr(), MIB),
        ),
        row(
            "aps_experiment_bind_scenario",
            "unknown name",
            UnknownScenario,
            "unknown scenario 'phantom'",
            |_| aps_experiment_bind_scenario(unbound, phantom.as_ptr(), MIB),
        ),
        row(
            "aps_experiment_add_service_class",
            "null class",
            NullArgument,
            "class is null",
            |_| aps_experiment_add_service_class(unbound, null()),
        ),
        row(
            "aps_experiment_add_service_class",
            "wrong struct_size",
            StructSizeMismatch,
            size_mismatch::<ApsServiceClass>("aps_service_class_t.struct_size", class_size + 8),
            |_| {
                add_class(
                    unbound,
                    ApsServiceClass {
                        struct_size: class_size + 8,
                        ..class
                    },
                )
            },
        ),
        row(
            "aps_experiment_add_service_class",
            "null name",
            NullArgument,
            "class name is null",
            |_| {
                add_class(
                    unbound,
                    ApsServiceClass {
                        name: null(),
                        ..class
                    },
                )
            },
        ),
        row(
            "aps_experiment_add_service_class",
            "non-UTF-8 name",
            InvalidUtf8,
            "class name is not UTF-8",
            |_| {
                add_class(
                    unbound,
                    ApsServiceClass {
                        name: not_utf8.as_ptr(),
                        ..class
                    },
                )
            },
        ),
        row(
            "aps_experiment_add_service_class",
            "null workload",
            NullArgument,
            "class workload is null",
            |_| {
                add_class(
                    unbound,
                    ApsServiceClass {
                        workload: null(),
                        ..class
                    },
                )
            },
        ),
        row(
            "aps_experiment_add_service_class",
            "non-UTF-8 workload",
            InvalidUtf8,
            "class workload is not UTF-8",
            |_| {
                add_class(
                    unbound,
                    ApsServiceClass {
                        workload: not_utf8.as_ptr(),
                        ..class
                    },
                )
            },
        ),
        row(
            "aps_experiment_add_service_class",
            "one port",
            InvalidArgument,
            "class ports must be >= 2",
            |_| add_class(unbound, ApsServiceClass { ports: 1, ..class }),
        ),
        row(
            "aps_experiment_add_service_class",
            "zero arrival rate",
            InvalidArgument,
            "arrival rate must be finite and positive",
            |_| {
                add_class(
                    unbound,
                    ApsServiceClass {
                        arrival_rate_hz: 0.0,
                        ..class
                    },
                )
            },
        ),
        row(
            "aps_experiment_add_service_class",
            "NaN arrival rate",
            InvalidArgument,
            "arrival rate must be finite and positive",
            |_| {
                add_class(
                    unbound,
                    ApsServiceClass {
                        arrival_rate_hz: f64::NAN,
                        ..class
                    },
                )
            },
        ),
        row(
            "aps_experiment_add_service_class",
            "unknown workload",
            UnknownWorkload,
            "unknown collective family 'phantom'",
            |_| {
                add_class(
                    unbound,
                    ApsServiceClass {
                        workload: phantom.as_ptr(),
                        ..class
                    },
                )
            },
        ),
        row(
            "aps_experiment_add_service_class",
            "negative volume",
            Collective,
            "cannot build hd-allreduce on 8 ports: message size -1 must be positive and finite",
            |_| {
                add_class(
                    unbound,
                    ApsServiceClass {
                        message_bytes: -1.0,
                        ..class
                    },
                )
            },
        ),
        row(
            "aps_experiment_add_service_class",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |_| add_class(stale_exp, class),
        ),
        row(
            "aps_experiment_add_service_class",
            "destroyed handle and one port (the class is checked first)",
            InvalidArgument,
            "class ports must be >= 2",
            |_| add_class(stale_exp, ApsServiceClass { ports: 1, ..class }),
        ),
        row(
            "aps_experiment_set_admission",
            "unknown policy",
            InvalidArgument,
            "unknown admission policy 9",
            |_| aps_experiment_set_admission(unbound, 9, 0),
        ),
        row(
            "aps_experiment_set_admission",
            "backpressure without capacity",
            InvalidArgument,
            "backpressure requires a positive queue capacity",
            |_| aps_experiment_set_admission(unbound, ApsAdmissionPolicy::Backpressure as i32, 0),
        ),
        row(
            "aps_experiment_set_admission",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |_| aps_experiment_set_admission(stale_exp, ApsAdmissionPolicy::Queue as i32, 4),
        ),
        row(
            "aps_experiment_set_max_jobs",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |_| aps_experiment_set_max_jobs(stale_exp, 24),
        ),
        row(
            "aps_experiment_set_max_jobs",
            "zero handle",
            StaleHandle,
            stale("experiment"),
            |_| aps_experiment_set_max_jobs(0, 24),
        ),
        // Runs.
        row(
            "aps_experiment_plan",
            "null summary",
            NullArgument,
            "plan summary is null",
            |_| aps_experiment_plan(collective, null_mut()),
        ),
        row(
            "aps_experiment_plan",
            "wrong struct_size",
            StructSizeMismatch,
            size_mismatch::<ApsPlanSummary>("plan summary.struct_size", plan_size + 8),
            |_| plan(collective, plan_size + 8),
        ),
        row(
            "aps_experiment_plan",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |_| plan(stale_exp, plan_size),
        ),
        row(
            "aps_experiment_plan",
            "nothing bound",
            WorkloadUnbound,
            "plan needs a bound collective (scenario and service runs plan internally)",
            |_| plan(unbound, plan_size),
        ),
        row(
            "aps_experiment_plan",
            "service bound",
            WorkloadUnbound,
            "plan needs a bound collective (scenario and service runs plan internally)",
            |_| plan(service_exp, plan_size),
        ),
        row(
            "aps_experiment_simulate",
            "null out run",
            NullArgument,
            "out run handle is null",
            |_| aps_experiment_simulate(collective, null_mut()),
        ),
        row(
            "aps_experiment_simulate",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |_| {
                let mut run = 0u64;
                aps_experiment_simulate(stale_exp, &mut run)
            },
        ),
        row(
            "aps_experiment_simulate",
            "nothing bound",
            WorkloadUnbound,
            "bind a collective or scenario before simulating",
            |_| {
                let mut run = 0u64;
                aps_experiment_simulate(unbound, &mut run)
            },
        ),
        row(
            "aps_experiment_simulate",
            "service bound",
            WorkloadUnbound,
            "service experiments run via aps_experiment_run_service",
            |_| {
                let mut run = 0u64;
                aps_experiment_simulate(service_exp, &mut run)
            },
        ),
        row(
            "aps_experiment_sweep",
            "null written",
            NullArgument,
            "written is null",
            |_| sweep.call(null_mut()),
        ),
        row(
            "aps_experiment_sweep",
            "null delay axis",
            NullArgument,
            "grid axes are null",
            |w| {
                SweepCall {
                    delays: null(),
                    ..sweep
                }
                .call(w)
            },
        ),
        row(
            "aps_experiment_sweep",
            "null size axis",
            NullArgument,
            "grid axes are null",
            |w| {
                SweepCall {
                    sizes: null(),
                    ..sweep
                }
                .call(w)
            },
        ),
        row(
            "aps_experiment_sweep",
            "empty delay axis",
            InvalidArgument,
            "grid axes are empty",
            |w| {
                SweepCall {
                    n_delays: 0,
                    ..sweep
                }
                .call(w)
            },
        ),
        row(
            "aps_experiment_sweep",
            "wrong cell_size",
            StructSizeMismatch,
            size_mismatch::<ApsSweepCell>("cell_size", cell_size + 8),
            |w| {
                SweepCall {
                    cell_size: cell_size + 8,
                    ..sweep
                }
                .call(w)
            },
        ),
        // The cell count is checked, not wrapped: a wrapped product could
        // pass the capacity check and hand the engine a bogus axis length.
        row(
            "aps_experiment_sweep",
            "cell count past usize::MAX",
            InvalidArgument,
            format!(
                "sweep grid of {} delays × 2 message sizes overflows the cell count",
                usize::MAX
            ),
            |w| {
                SweepCall {
                    n_delays: usize::MAX,
                    ..sweep
                }
                .call(w)
            },
        ),
        row(
            "aps_experiment_sweep",
            "cell count that wraps to zero",
            InvalidArgument,
            format!(
                "sweep grid of {} delays × 2 message sizes overflows the cell count",
                1usize << 63
            ),
            |w| {
                SweepCall {
                    n_delays: 1 << 63,
                    ..sweep
                }
                .call(w)
            },
        ),
        row(
            "aps_experiment_sweep",
            "undersized buffer",
            BufferTooSmall,
            "sweep needs 4 cells, caller provided 1",
            |w| {
                SweepCall {
                    capacity: 1,
                    ..sweep
                }
                .call(w)
            },
        )
        .written(4),
        row(
            "aps_experiment_sweep",
            "null cells",
            NullArgument,
            "cells is null",
            |w| {
                SweepCall {
                    cells: false,
                    ..sweep
                }
                .call(w)
            },
        )
        .written(4),
        row(
            "aps_experiment_sweep",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |w| {
                SweepCall {
                    experiment: stale_exp,
                    ..sweep
                }
                .call(w)
            },
        )
        .written(4),
        row(
            "aps_experiment_sweep",
            "nothing bound",
            WorkloadUnbound,
            "sweep needs a bound collective",
            |w| {
                SweepCall {
                    experiment: unbound,
                    ..sweep
                }
                .call(w)
            },
        )
        .written(4),
        row(
            "aps_experiment_sweep",
            "negative message size on the size axis",
            Core,
            "sweep failed: planning failed: collective construction failed: message size -1 must \
             be positive and finite",
            |w| {
                SweepCall {
                    sizes: bad_sizes.as_ptr(),
                    ..sweep
                }
                .call(w)
            },
        )
        .written(4),
        row(
            "aps_experiment_run_service",
            "null out service",
            NullArgument,
            "out service handle is null",
            |_| aps_experiment_run_service(service_exp, null_mut()),
        ),
        row(
            "aps_experiment_run_service",
            "destroyed handle",
            StaleHandle,
            stale("experiment"),
            |_| {
                let mut service = 0u64;
                aps_experiment_run_service(stale_exp, &mut service)
            },
        ),
        row(
            "aps_experiment_run_service",
            "nothing bound",
            WorkloadUnbound,
            "add service classes before running the service",
            |_| {
                let mut service = 0u64;
                aps_experiment_run_service(unbound, &mut service)
            },
        ),
        row(
            "aps_experiment_run_service",
            "collective bound",
            WorkloadUnbound,
            "add service classes before running the service",
            |_| {
                let mut service = 0u64;
                aps_experiment_run_service(collective, &mut service)
            },
        ),
        // Run reads.
        row(
            "aps_simrun_summary",
            "null summary",
            NullArgument,
            "sim summary is null",
            |_| aps_simrun_summary(run, null_mut()),
        ),
        row(
            "aps_simrun_summary",
            "wrong struct_size",
            StructSizeMismatch,
            size_mismatch::<ApsSimSummary>("sim summary.struct_size", sim_size + 8),
            |_| sim_summary(run, sim_size + 8),
        ),
        row(
            "aps_simrun_summary",
            "destroyed handle",
            StaleHandle,
            stale("run"),
            |_| sim_summary(stale_run, sim_size),
        ),
        row(
            "aps_simrun_summary",
            "zero handle",
            StaleHandle,
            stale("run"),
            |_| sim_summary(0, sim_size),
        ),
        row(
            "aps_simrun_rows",
            "null written",
            NullArgument,
            "written is null",
            |_| run_rows(run, row_size, true, rows, null_mut()),
        ),
        row(
            "aps_simrun_rows",
            "wrong row_size",
            StructSizeMismatch,
            size_mismatch::<ApsRunRow>("row_size", row_size + 8),
            |w| run_rows(run, row_size + 8, true, rows, w),
        ),
        row(
            "aps_simrun_rows",
            "destroyed handle",
            StaleHandle,
            stale("run"),
            |w| run_rows(stale_run, row_size, true, rows, w),
        ),
        row(
            "aps_simrun_rows",
            "undersized buffer",
            BufferTooSmall,
            needs_rows.as_str(),
            |w| run_rows(run, row_size, true, 0, w),
        )
        .written(rows),
        row(
            "aps_simrun_rows",
            "null rows",
            NullArgument,
            "rows is null",
            |w| run_rows(run, row_size, false, rows, w),
        )
        .written(rows),
        row(
            "aps_simrun_destroy",
            "destroyed handle",
            StaleHandle,
            stale("run"),
            |_| aps_simrun_destroy(stale_run),
        ),
        row(
            "aps_simrun_destroy",
            "zero handle",
            StaleHandle,
            stale("run"),
            |_| aps_simrun_destroy(0),
        ),
        // Service reads.
        row(
            "aps_service_stats",
            "null stats",
            NullArgument,
            "service stats is null",
            |_| aps_service_stats(service, null_mut()),
        ),
        row(
            "aps_service_stats",
            "wrong struct_size",
            StructSizeMismatch,
            size_mismatch::<ApsServiceStats>("service stats.struct_size", stats_size + 8),
            |_| stats(service, stats_size + 8),
        ),
        row(
            "aps_service_stats",
            "destroyed handle",
            StaleHandle,
            stale("service"),
            |_| stats(stale_service, stats_size),
        ),
        row(
            "aps_service_class_slo",
            "null slo",
            NullArgument,
            "class slo is null",
            |_| aps_service_class_slo(service, 0, null_mut()),
        ),
        row(
            "aps_service_class_slo",
            "wrong struct_size",
            StructSizeMismatch,
            size_mismatch::<ApsClassSlo>("class slo.struct_size", slo_size + 8),
            |_| slo(service, 0, slo_size + 8),
        ),
        row(
            "aps_service_class_slo",
            "destroyed handle",
            StaleHandle,
            stale("service"),
            |_| slo(stale_service, 0, slo_size),
        ),
        row(
            "aps_service_class_slo",
            "class index past the end",
            InvalidArgument,
            "class index 1 out of range (1)",
            |_| slo(service, 1, slo_size),
        ),
        row(
            "aps_service_class_name",
            "null written",
            NullArgument,
            "written is null",
            |_| name(service, 0, true, 32, null_mut()),
        ),
        row(
            "aps_service_class_name",
            "destroyed handle",
            StaleHandle,
            stale("service"),
            |w| name(stale_service, 0, true, 32, w),
        ),
        row(
            "aps_service_class_name",
            "class index past the end",
            InvalidArgument,
            "class index 1 out of range (1)",
            |w| name(service, 1, true, 32, w),
        ),
        row(
            "aps_service_class_name",
            "undersized buffer",
            BufferTooSmall,
            "class name needs 6 bytes, caller provided 2",
            |w| name(service, 0, true, 2, w),
        )
        .written(6),
        row(
            "aps_service_class_name",
            "null buffer",
            NullArgument,
            "buffer is null",
            |w| name(service, 0, false, 32, w),
        )
        .written(6),
        row(
            "aps_service_destroy",
            "destroyed handle",
            StaleHandle,
            stale("service"),
            |_| aps_service_destroy(stale_service),
        ),
        row(
            "aps_service_destroy",
            "zero handle",
            StaleHandle,
            stale("service"),
            |_| aps_service_destroy(0),
        ),
    ];

    for call in FALLIBLE {
        assert!(
            table.iter().any(|f| f.call == call),
            "{call} has no failure row"
        );
    }
    let mismatches: Vec<String> = table
        .iter()
        .filter_map(|f| {
            let mut written = UNTOUCHED;
            let status = (f.run)(&mut written);
            let message = last_error();
            let got = (status, message.as_str(), written);
            (got != (f.status, f.message.as_str(), f.written)).then(|| {
                format!(
                    "{} ({}): got {got:?}, want {:?}",
                    f.call,
                    f.input,
                    (f.status, &f.message, f.written)
                )
            })
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));

    assert_eq!(aps_service_destroy(service), Ok);
    assert_eq!(aps_simrun_destroy(run), Ok);
    for exp in [unbound, collective, service_exp] {
        assert_eq!(aps_experiment_destroy(exp), Ok);
    }
}

#[test]
fn an_unbounded_service_without_a_job_cap_is_refused() {
    // `jobs = 0` offers jobs without end, so with no global cap either the
    // run would only stop when the picosecond clock saturates. The call
    // runs on its own thread so a hang fails the test instead of stalling
    // the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let caller = std::thread::spawn(move || {
        let controller = CString::new("opt").unwrap();
        let name = CString::new("forever").unwrap();
        let workload = CString::new("hd-allreduce").unwrap();
        let exp = new_experiment(&domain_config(
            16,
            &controller,
            ApsFabricKind::Optical as i32,
            None,
        ));
        let class = ApsServiceClass {
            struct_size: std::mem::size_of::<ApsServiceClass>(),
            name: name.as_ptr(),
            ports: 8,
            workload: workload.as_ptr(),
            message_bytes: MIB,
            arrival_rate_hz: 2000.0,
            jobs: 0,
            seed: 7,
            matched: 1,
        };
        let added = aps_experiment_add_service_class(exp, &class);
        let mut service = 0u64;
        let refused = aps_experiment_run_service(exp, &mut service);
        let message = last_error();
        let capped = aps_experiment_set_max_jobs(exp, 24);
        let ran = aps_experiment_run_service(exp, &mut service);
        let destroyed = [aps_service_destroy(service), aps_experiment_destroy(exp)];
        tx.send((added, refused, message, capped, ran, destroyed))
            .unwrap();
    });
    let (added, refused, message, capped, ran, destroyed) = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("aps_experiment_run_service did not return: {e:?}"));
    caller.join().expect("the calling thread finished");
    assert_eq!(added, ApsStatus::Ok);
    assert_eq!(refused, ApsStatus::InvalidArgument);
    assert_eq!(
        message,
        "service class 'forever' offers unbounded jobs (jobs = 0) and no job cap is set; \
         set its jobs or call aps_experiment_set_max_jobs"
    );
    assert_eq!(capped, ApsStatus::Ok);
    assert_eq!(ran, ApsStatus::Ok);
    assert_eq!(destroyed, [ApsStatus::Ok; 2]);
}

#[test]
fn a_failed_simulation_names_its_stage_once() {
    // A volume no picosecond clock can hold: the first step's transfer
    // overflows — past the end of the clock at the paper's line rate, and
    // to +∞ seconds at 1e-300 Gbps. The engine's error already names the
    // stage; the ABI passes it through instead of prefixing it again.
    let controller = CString::new("opt").unwrap();
    let family = CString::new("hd-allreduce").unwrap();
    for bandwidth_gbps in [BANDWIDTH_GBPS, 1e-300] {
        let cfg = ApsDomainConfig {
            bandwidth_gbps,
            ..domain_config(8, &controller, ApsFabricKind::Optical as i32, None)
        };
        let exp = new_experiment(&cfg);
        assert_eq!(
            aps_experiment_bind_collective(exp, family.as_ptr(), 1e300),
            ApsStatus::Ok
        );
        let mut run = 0u64;
        assert_eq!(
            aps_experiment_simulate(exp, &mut run),
            ApsStatus::Sim,
            "{bandwidth_gbps:e} Gbps"
        );
        let message = last_error();
        assert_eq!(message.matches("simulation failed").count(), 1, "{message}");
        assert!(message.contains("clock overflowed"), "{message}");
        assert_eq!(aps_experiment_destroy(exp), ApsStatus::Ok);
    }
}

#[test]
fn wavelength_bank_runs_through_the_abi() {
    let controller = CString::new("opt").unwrap();
    let name = CString::new("multi-wavelength").unwrap();
    let cfg = domain_config(24, &controller, ApsFabricKind::WavelengthBank as i32, None);
    let exp = new_experiment(&cfg);
    assert_eq!(
        aps_experiment_bind_scenario(exp, name.as_ptr(), MIB),
        ApsStatus::Ok
    );
    let mut run = 0u64;
    assert_eq!(aps_experiment_simulate(exp, &mut run), ApsStatus::Ok);
    let mut summary = ApsSimSummary {
        struct_size: std::mem::size_of::<ApsSimSummary>(),
        ..Default::default()
    };
    assert_eq!(aps_simrun_summary(run, &mut summary), ApsStatus::Ok);
    assert!(summary.completion_ps > 0);
    assert_eq!(summary.rows, 2);

    let scenario = hetero::by_name("multi-wavelength", MIB).unwrap();
    let mut shared = native_experiment(scenario.n, "opt").scenario(scenario);
    shared.plan().unwrap();
    let mut fabric = native_fabric(FabricKind::WavelengthBank, 24, None);
    let native: Vec<_> = shared
        .simulate_on(fabric.as_mut())
        .unwrap()
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(
        summary.completion_ps,
        native.iter().map(|t| t.finish_ps).max().unwrap()
    );

    assert_eq!(aps_simrun_destroy(run), ApsStatus::Ok);
    assert_eq!(aps_experiment_destroy(exp), ApsStatus::Ok);
}
