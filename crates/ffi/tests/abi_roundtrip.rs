//! In-process ABI round-trips: every summary the C surface returns must
//! match the native Rust API bit-for-bit, and every failure path must
//! come back as a typed status with a readable message.

use std::ffi::{CStr, CString};

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

#[test]
fn every_failure_is_typed_and_explained() {
    // Stale / double-destroy handles.
    let controller = CString::new("opt").unwrap();
    let cfg = domain_config(8, &controller, ApsFabricKind::Optical as i32, None);
    let exp = new_experiment(&cfg);
    assert_eq!(aps_experiment_destroy(exp), ApsStatus::Ok);
    assert_eq!(aps_experiment_destroy(exp), ApsStatus::StaleHandle);
    assert!(last_error().contains("stale"));
    let mut run = 0u64;
    assert_eq!(
        aps_experiment_simulate(exp, &mut run),
        ApsStatus::StaleHandle
    );
    assert_eq!(aps_simrun_destroy(0), ApsStatus::StaleHandle);

    // Struct-size guard: a config "compiled against a different header".
    let mut bad = domain_config(8, &controller, ApsFabricKind::Optical as i32, None);
    bad.struct_size += 8;
    let mut out = 0u64;
    assert_eq!(
        aps_experiment_new(&bad, &mut out),
        ApsStatus::StructSizeMismatch
    );
    assert!(last_error().contains("struct_size"));

    // Unknown names map to their own statuses.
    let good = domain_config(8, &controller, ApsFabricKind::Optical as i32, None);
    let mut bogus = good;
    let phantom = CString::new("phantom").unwrap();
    bogus.controller = phantom.as_ptr();
    assert_eq!(
        aps_experiment_new(&bogus, &mut out),
        ApsStatus::UnknownController
    );

    let exp = new_experiment(&good);
    assert_eq!(
        aps_experiment_bind_collective(exp, phantom.as_ptr(), MIB),
        ApsStatus::UnknownWorkload
    );
    assert_eq!(
        aps_experiment_bind_scenario(exp, phantom.as_ptr(), MIB),
        ApsStatus::UnknownScenario
    );
    assert!(last_error().contains("phantom"));

    // Null arguments never dereference.
    assert_eq!(
        aps_experiment_bind_collective(exp, std::ptr::null(), MIB),
        ApsStatus::NullArgument
    );
    assert_eq!(
        aps_experiment_simulate(exp, std::ptr::null_mut()),
        ApsStatus::NullArgument
    );

    // Running with nothing bound is typed, not a crash.
    let mut handle = 0u64;
    assert_eq!(
        aps_experiment_simulate(exp, &mut handle),
        ApsStatus::WorkloadUnbound
    );
    assert_eq!(
        aps_experiment_run_service(exp, &mut handle),
        ApsStatus::WorkloadUnbound
    );

    // Bad enum values.
    assert_eq!(
        aps_experiment_set_admission(exp, 9, 0),
        ApsStatus::InvalidArgument
    );
    let mut bad_fabric = good;
    bad_fabric.fabric = 99;
    assert_eq!(
        aps_experiment_new(&bad_fabric, &mut out),
        ApsStatus::InvalidArgument
    );

    // Cost parameters the engine cannot run: NaN is refused instead of
    // standing in for the paper default, and a line rate whose byte rate
    // overflows to +∞ is refused instead of pricing transfers at β = 0.
    for (alpha_s, bandwidth_gbps, delta_s) in [
        (f64::NAN, BANDWIDTH_GBPS, DELTA_S),
        (ALPHA_S, f64::NAN, DELTA_S),
        (ALPHA_S, BANDWIDTH_GBPS, f64::NAN),
        (ALPHA_S, 1e300, DELTA_S),
    ] {
        let bad_params = ApsDomainConfig {
            alpha_s,
            bandwidth_gbps,
            delta_s,
            ..good
        };
        assert_eq!(
            aps_experiment_new(&bad_params, &mut out),
            ApsStatus::InvalidArgument,
            "α = {alpha_s:e}, b = {bandwidth_gbps:e}, δ = {delta_s:e}"
        );
        assert!(last_error().contains("bad cost params"), "{}", last_error());
    }

    assert_eq!(aps_experiment_destroy(exp), ApsStatus::Ok);
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
