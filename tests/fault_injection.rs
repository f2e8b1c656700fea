//! Fault-injection integration tests: degraded fabrics end to end.
//!
//! The fabric device models expose the failure modes a real photonic
//! deployment would see — stuck ports (a circuit the controller cannot
//! move), slow controllers, and degraded tunable lasers. These tests drive
//! whole collectives through such fabrics and check that the system either
//! completes with the predicted slowdown or fails loudly with a precise
//! error, never silently wrong.

use adaptive_photonics::prelude::*;
use aps_cost::units::MIB;
use aps_sim::{ComputeModel, SimError, TraceKind};

fn ring(n: usize) -> Matching {
    Matching::shift(n, 1).unwrap()
}

/// Asserts every `ReconfigStart` is preceded by a `Decision` stamped at
/// or before it, returning how many reconfigurations the trace carried.
fn assert_decisions_precede_reconfigs(trace: &[aps_sim::TraceEvent]) -> usize {
    let mut last_decision_at = None;
    let mut reconfigs = 0;
    for ev in trace {
        match ev.kind {
            TraceKind::Decision { .. } => last_decision_at = Some(ev.at),
            TraceKind::ReconfigStart { .. } => {
                let decided = last_decision_at.expect("decision before reconfig");
                assert!(
                    decided <= ev.at,
                    "decision at {decided} after its reconfiguration at {}",
                    ev.at
                );
                reconfigs += 1;
            }
            _ => {}
        }
    }
    reconfigs
}

#[test]
fn stuck_port_on_static_schedule_is_harmless() {
    // A static schedule never asks the fabric to move: a stuck port on the
    // ring configuration changes nothing.
    let n = 8;
    let coll = collectives::allreduce::ring::build(n, MIB).unwrap();
    let cfg = RunConfig::paper_defaults();
    let ss = SwitchSchedule::all_base(coll.schedule.num_steps());
    let healthy = {
        let mut f = CircuitSwitch::new(ring(n), ReconfigModel::constant(1e-6).unwrap());
        run_scheduled(&mut f, &ring(n), &coll.schedule, &ss, &cfg).unwrap()
    };
    let degraded = {
        let mut f = CircuitSwitch::new(ring(n), ReconfigModel::constant(1e-6).unwrap());
        f.stick_port(3).unwrap();
        run_scheduled(&mut f, &ring(n), &coll.schedule, &ss, &cfg).unwrap()
    };
    assert_eq!(healthy.total_ps, degraded.total_ps);
}

#[test]
fn stuck_port_breaks_matched_steps_loudly() {
    // Reconfiguring around a stuck port can disconnect a pair; the
    // simulator must report exactly which step and pair failed.
    let n = 4;
    let coll = collectives::alltoall::xor_exchange(n, 4096.0).unwrap();
    let mut f = CircuitSwitch::new(ring(n), ReconfigModel::constant(1e-6).unwrap());
    f.stick_port(0).unwrap();
    let err = run_scheduled(
        &mut f,
        &ring(n),
        &coll.schedule,
        &SwitchSchedule::all_matched(coll.schedule.num_steps()),
        &RunConfig::paper_defaults(),
    )
    .unwrap_err();
    match err {
        SimError::Unroutable { step, src, dst } => {
            assert!(src != dst);
            assert!(step < coll.schedule.num_steps());
        }
        other => panic!("expected Unroutable, got {other}"),
    }
}

#[test]
fn unsticking_restores_the_plan() {
    let n = 4;
    let coll = collectives::alltoall::xor_exchange(n, 4096.0).unwrap();
    let ss = SwitchSchedule::all_matched(coll.schedule.num_steps());
    let cfg = RunConfig::paper_defaults();
    let mut f = CircuitSwitch::new(ring(n), ReconfigModel::constant(1e-6).unwrap());
    f.stick_port(0).unwrap();
    assert!(run_scheduled(&mut f, &ring(n), &coll.schedule, &ss, &cfg).is_err());
    // Repair the port, restore the base configuration, and rewind the
    // device clock so a fresh simulation run (which restarts at t = 0) can
    // drive the same device.
    f.unstick_port(0);
    let now = 1_000_000_000; // after the failed attempt's reconfigurations
    f.request(&ring(n), now).unwrap();
    assert_eq!(f.current(), &ring(n));
    f.reset_clock();
    let report = run_scheduled(&mut f, &ring(n), &coll.schedule, &ss, &cfg).unwrap();
    assert!(report.total_ps > 0);
}

#[test]
fn controller_slowdown_scales_reconfig_time_only() {
    let n = 8;
    let coll = collectives::allreduce::halving_doubling::build(n, MIB).unwrap();
    let ss = SwitchSchedule::all_matched(coll.schedule.num_steps());
    let cfg = RunConfig::paper_defaults();
    let run_with = |slow: f64| {
        let mut f = CircuitSwitch::new(ring(n), ReconfigModel::constant(2e-6).unwrap());
        f.set_slowdown(slow).unwrap();
        run_scheduled(&mut f, &ring(n), &coll.schedule, &ss, &cfg).unwrap()
    };
    let fast = run_with(1.0);
    let slow = run_with(4.0);
    let extra = slow.total_s() - fast.total_s();
    // 5 physical reconfigurations (the xor(1)→xor(1) boundary is free),
    // each slowed from 2 µs to 8 µs.
    assert!((extra - 5.0 * 6e-6).abs() < 1e-9, "extra {extra}");
    assert_eq!(fast.transfer_s(), slow.transfer_s());
}

#[test]
fn degraded_laser_slows_only_steps_that_retune_it() {
    let n = 8;
    let coll = collectives::broadcast::binomial(n, 0, MIB).unwrap();
    let s = coll.schedule.num_steps();
    let cfg = RunConfig::paper_defaults();
    let run_with = |bad_port: Option<usize>| {
        let mut f = WavelengthFabric::uniform(ring(n), 1e-6).unwrap();
        if let Some(p) = bad_port {
            f.set_port_tuning(p, 100e-6).unwrap();
        }
        run_scheduled(
            &mut f,
            &ring(n),
            &coll.schedule,
            &SwitchSchedule::all_matched(s),
            &cfg,
        )
        .unwrap()
    };
    let healthy = run_with(None);
    // Port 0 is the broadcast root: it retunes in step 0 (and whenever its
    // circuit changes); the degraded laser must show up.
    let degraded = run_with(Some(0));
    assert!(degraded.total_ps > healthy.total_ps);
    // A port that never changes its circuit across the matched schedule
    // would not matter — but in a binomial broadcast every port eventually
    // participates, so pick the last-joining port and check the slowdown is
    // smaller than for the root.
    let late = run_with(Some(n - 1));
    assert!(late.total_ps <= degraded.total_ps);
}

#[test]
fn decisions_precede_reconfigs_on_a_repaired_switch_under_overlap() {
    // A stuck-then-repaired port with a slowed controller and
    // reconfigure/compute overlap: each step's fabric request fires while
    // the GPUs still compute, but the Decision event that caused it must
    // already be in the trace, stamped at or before the ReconfigStart.
    let n = 8;
    let coll = collectives::allreduce::halving_doubling::build(n, MIB).unwrap();
    let cfg = RunConfig {
        compute: Some(ComputeModel { per_byte_s: 1e-9 }),
        overlap_reconfig_with_compute: true,
        ..RunConfig::paper_defaults()
    };
    let mut f = CircuitSwitch::new(ring(n), ReconfigModel::constant(5e-6).unwrap());
    f.set_slowdown(4.0).unwrap();
    f.stick_port(2).unwrap();
    f.unstick_port(2);
    let run = Experiment::domain(topology::builders::ring_unidirectional(n).unwrap())
        .reconfig(ReconfigModel::constant(5e-6).unwrap())
        .sim_config(cfg)
        .controller(AlwaysReconfigure)
        .collective(&coll)
        .simulate_on(&mut f)
        .unwrap();
    let reconfigs = assert_decisions_precede_reconfigs(&run.report.trace);
    assert!(reconfigs > 0, "overlap run must reconfigure");
}

#[test]
fn decisions_precede_reconfigs_on_a_degraded_laser_under_overlap() {
    // Same ordering invariant on the wavelength fabric with one slow
    // laser: degraded per-port tuning stretches ReconfigStart→Done but
    // must never reorder a reconfiguration ahead of its decision.
    let n = 8;
    let coll = collectives::broadcast::binomial(n, 0, MIB).unwrap();
    let cfg = RunConfig {
        compute: Some(ComputeModel { per_byte_s: 1e-9 }),
        overlap_reconfig_with_compute: true,
        ..RunConfig::paper_defaults()
    };
    let mut f = WavelengthFabric::uniform(ring(n), 1e-6).unwrap();
    f.set_port_tuning(0, 100e-6).unwrap();
    let run = Experiment::domain(topology::builders::ring_unidirectional(n).unwrap())
        .reconfig(ReconfigModel::constant(1e-6).unwrap())
        .sim_config(cfg)
        .controller(Greedy)
        .collective(&coll)
        .simulate_on(&mut f)
        .unwrap();
    assert_decisions_precede_reconfigs(&run.report.trace);
    // Every step carries exactly one decision, even on a degraded device.
    let decisions = run
        .report
        .trace
        .iter()
        .filter(|ev| matches!(ev.kind, TraceKind::Decision { .. }))
        .count();
    assert_eq!(decisions, coll.schedule.num_steps());
}

#[test]
fn a_lone_run_on_a_busy_controller_queues_for_it() {
    // The controller is still reconfiguring until 5 µs when the run
    // starts. Step 0's request (at α = 100 ns) waits for it, exactly as a
    // tenant's would, and reports the wait as arbitration.
    let n = 8;
    let coll = collectives::allreduce::halving_doubling::build(n, MIB).unwrap();
    let ss = SwitchSchedule::all_base(coll.schedule.num_steps());
    let mut f = CircuitSwitch::new(ring(n), ReconfigModel::constant(5e-6).unwrap());
    f.request(&Matching::shift(n, 3).unwrap(), 0).unwrap();
    assert_eq!(f.busy_until(), 5_000_000);
    let report = run_scheduled(
        &mut f,
        &ring(n),
        &coll.schedule,
        &ss,
        &RunConfig::paper_defaults(),
    )
    .unwrap();
    let alpha_ps = 100_000;
    assert_eq!(report.steps[0].arbitration_ps, 5_000_000 - alpha_ps);
    assert!(report.trace.iter().any(|ev| ev.at == alpha_ps
        && ev.kind
            == TraceKind::ArbitrationWait {
                granted_at: 5_000_000
            }));
    assert!(report.steps[1..].iter().all(|s| s.arbitration_ps == 0));
}

// ---------------------------------------------------------------------
// Multi-tenant fault isolation: a degraded partition must stay contained.
// ---------------------------------------------------------------------

fn matched_tenant(name: &str, ports: Vec<usize>, bytes: f64) -> TenantSpec {
    let n = ports.len();
    let coll = collectives::alltoall::xor_exchange(n, bytes).unwrap();
    let steps = coll.schedule.num_steps();
    TenantSpec {
        name: name.into(),
        ports,
        base_config: Matching::shift(n, 1).unwrap(),
        schedule: coll.schedule,
        switch_schedule: SwitchSchedule::all_matched(steps),
        arrival_s: 0.0,
    }
}

fn tenant_fabric(n: usize, tenants: &[TenantSpec], alpha_r: f64) -> CircuitSwitch {
    // The scenario machinery owns the union-of-bases construction.
    aps_sim::scenarios::Scenario {
        name: "fault-injection".into(),
        n,
        tenants: tenants.to_vec(),
    }
    .fabric(ReconfigModel::constant(alpha_r).unwrap())
    .unwrap()
}

#[test]
fn one_tenants_stuck_port_does_not_corrupt_the_other_tenants_report() {
    // Tenant A's partition has a stuck port that disconnects its matched
    // steps; tenant B shares only the fabric controller. B's report must
    // be byte-for-byte what it is on a healthy fabric, and A must fail
    // with a tenant-tagged error naming it.
    let a = matched_tenant("victim", (0..4).collect(), 4096.0);
    let b = matched_tenant("bystander", (4..8).collect(), 4096.0);
    let cfg = RunConfig::paper_defaults();

    let healthy_b = {
        let mut fab = tenant_fabric(8, &[a.clone(), b.clone()], 1e-6);
        let reports = execute_tenants(&mut fab, &[a.clone(), b.clone()], &cfg, None).unwrap();
        assert!(reports[0].is_ok() && reports[1].is_ok());
        reports[1].clone().unwrap()
    };

    let mut fab = tenant_fabric(8, &[a.clone(), b.clone()], 1e-6);
    fab.stick_port(0).unwrap(); // port 0 belongs to tenant A
    let reports = execute_tenants(&mut fab, &[a, b], &cfg, None).unwrap();

    // The failing tenant fails loudly, tagged with its identity…
    match reports[0].as_ref().unwrap_err() {
        SimError::Tenant {
            tenant: 0,
            name,
            source,
        } => {
            assert_eq!(name, "victim");
            assert!(matches!(**source, SimError::Unroutable { .. }), "{source}");
        }
        other => panic!("expected tenant-tagged Unroutable, got {other}"),
    }
    // …and the bystander is never corrupted: every step still moves the
    // same flows over the same circuits in the same time. Only the
    // arbitration waits may change — and only downward, because a dead
    // tenant stops contending for the controller.
    let degraded_b = reports[1].as_ref().unwrap();
    assert_eq!(degraded_b.report.steps.len(), healthy_b.report.steps.len());
    for (d, h) in degraded_b.report.steps.iter().zip(&healthy_b.report.steps) {
        assert_eq!(d.transfer_ps, h.transfer_ps);
        assert_eq!(d.ports_changed, h.ports_changed);
        assert_eq!(d.max_hops, h.max_hops);
        assert!(d.arbitration_ps <= h.arbitration_ps);
    }
    assert!(degraded_b.arbitration_ps() <= healthy_b.arbitration_ps());
    assert!(degraded_b.finish_ps <= healthy_b.finish_ps);
}

#[test]
fn stuck_port_on_an_idle_partition_is_harmless_to_all_tenants() {
    // Ports 8..12 belong to no tenant; sticking one changes nothing.
    let a = matched_tenant("a", (0..4).collect(), 4096.0);
    let b = matched_tenant("b", (4..8).collect(), 4096.0);
    let cfg = RunConfig::paper_defaults();
    let run = |stick: Option<usize>| {
        let mut fab = tenant_fabric(12, &[a.clone(), b.clone()], 1e-6);
        if let Some(p) = stick {
            fab.stick_port(p).unwrap();
        }
        execute_tenants(&mut fab, &[a.clone(), b.clone()], &cfg, None).unwrap()
    };
    let healthy = run(None);
    let degraded = run(Some(9));
    for (h, d) in healthy.iter().zip(degraded.iter()) {
        assert_eq!(h.as_ref().unwrap(), d.as_ref().unwrap());
    }
}

#[test]
fn a_partition_next_to_a_stuck_idle_port_runs_as_on_a_dedicated_fabric() {
    // The same job twice: alone on a dedicated 8-port fabric, where its
    // local and global ports coincide, and as the only tenant on ports
    // 8..16 of a 16-port fabric, next to a stuck port on the idle half
    // that the target overlay must leave alone. Mixed base/matched steps
    // exercise remapped multi-hop routes and partial retargets.
    let n = 8;
    let coll = collectives::allreduce::halving_doubling::build(n, MIB).unwrap();
    let ss = SwitchSchedule::new(
        (0..coll.schedule.num_steps())
            .map(|i| {
                if i % 2 == 0 {
                    aps_core::ConfigChoice::Matched
                } else {
                    aps_core::ConfigChoice::Base
                }
            })
            .collect(),
    );
    let cfg = RunConfig::paper_defaults();
    let mut dedicated = CircuitSwitch::new(ring(n), ReconfigModel::constant(1e-6).unwrap());
    let alone = run_scheduled(&mut dedicated, &ring(n), &coll.schedule, &ss, &cfg).unwrap();
    assert!(alone.reconfig_events() > 0);

    let tenant = TenantSpec {
        name: "upper".into(),
        ports: (n..2 * n).collect(),
        base_config: ring(n),
        schedule: coll.schedule,
        switch_schedule: ss,
        arrival_s: 0.0,
    };
    let mut fab = tenant_fabric(2 * n, std::slice::from_ref(&tenant), 1e-6);
    fab.stick_port(3).unwrap();
    let reports = execute_tenants(&mut fab, &[tenant], &cfg, None).unwrap();
    let partitioned = reports[0].as_ref().unwrap();
    assert_eq!(partitioned.report, alone);
    assert_eq!(partitioned.finish_ps, alone.total_ps);
}

#[test]
fn fabric_stats_track_degradation() {
    let n = 8;
    let coll = collectives::allreduce::halving_doubling::build(n, MIB).unwrap();
    let ss = SwitchSchedule::all_matched(coll.schedule.num_steps());
    let mut f = CircuitSwitch::new(ring(n), ReconfigModel::constant(2e-6).unwrap());
    run_scheduled(
        &mut f,
        &ring(n),
        &coll.schedule,
        &ss,
        &RunConfig::paper_defaults(),
    )
    .unwrap();
    let stats = f.stats();
    assert_eq!(stats.reconfigurations, 5);
    assert!(stats.ports_retargeted >= 5 * n - n);
    assert!(stats.busy_ps > 0);
}

#[test]
fn duplicate_tenant_ports_error_instead_of_panicking() {
    // A user-built spec whose port list maps two local circuits onto the
    // same global port must surface a typed error from `global_base`,
    // not a panic (the executor's partition validation is not on this
    // path).
    let mut spec = matched_tenant("dup-ports", (0..4).collect(), 4096.0);
    spec.ports = vec![0, 1, 2, 1];
    assert!(matches!(
        spec.global_base(),
        Err(SimError::ConfigConflict { .. })
    ));
}

#[test]
fn oversized_base_config_errors_instead_of_indexing_out_of_bounds() {
    // A base configuration spanning more local ranks than the tenant owns
    // ports used to index past the port list; now it is a typed
    // dimension mismatch.
    let mut spec = matched_tenant("oversized", (0..4).collect(), 4096.0);
    spec.base_config = Matching::shift(6, 1).unwrap();
    assert!(matches!(
        spec.global_base(),
        Err(SimError::DimensionMismatch {
            fabric: 4,
            collective: 6
        })
    ));
}

// ---------------------------------------------------------------------
// Seeded failure storms on heterogeneous fabrics (scenarios::hetero).
// ---------------------------------------------------------------------

use aps_sim::scenarios::hetero::{self, FabricKind, FailureStorm};

/// The first seed whose correlated flap run lands entirely inside
/// `range` on an `n`-port fabric. Deterministic: the storm is a pure
/// function of `(seed, n)`.
fn seed_with_victims_in(n: usize, range: std::ops::Range<usize>) -> u64 {
    (0..10_000u64)
        .find(|&s| {
            let v = FailureStorm::new(s).victims(n);
            !v.is_empty() && v.iter().all(|&p| range.contains(&p))
        })
        .expect("a seed exists in the first 10k")
}

#[test]
fn correlated_flap_storm_isolates_victims_per_tenant() {
    // A flap storm aimed at the optical tenant of the hybrid mix: that
    // tenant must fail loudly with its own identity, the all-electrical
    // tenant must keep its exact healthy timing (its crossbar neither
    // flaps nor slows), and the boundary tenant completes — degraded,
    // never corrupted.
    let scenario = hetero::hybrid_mix(MIB);
    let cfg = RunConfig::paper_defaults();
    let reconfig = ReconfigModel::constant(10e-6).unwrap();
    let initial = Matching::shift(32, 1).unwrap();

    let healthy = {
        let mut fab = hetero::build_fabric(FabricKind::Hybrid, initial.clone(), reconfig).unwrap();
        scenario.run_on(fab.as_mut(), &cfg).unwrap()
    };

    let seed = seed_with_victims_in(32, 24..32); // opt-shuffle's partition
    let storm = FailureStorm::new(seed);
    let mut fab =
        hetero::build_fabric_stormy(FabricKind::Hybrid, initial, reconfig, Some(storm)).unwrap();
    let stormy = scenario.run_on(fab.as_mut(), &cfg).unwrap();

    // The victim fails tenant-tagged; the flap storm cannot take down
    // the whole scenario.
    match stormy[2].as_ref().unwrap_err() {
        SimError::Tenant {
            tenant: 2,
            name,
            source,
        } => {
            assert_eq!(name, "opt-shuffle");
            assert!(matches!(**source, SimError::Unroutable { .. }), "{source}");
        }
        other => panic!("expected tenant-tagged Unroutable, got {other}"),
    }

    // The electrical tenant's data plane is untouched, step for step:
    // the flaps hit the wrong ports and the photonic slowdown hits the
    // wrong medium. Its stalls may shift either way — queueing behind
    // the shared controller stretches when the boundary tenant's
    // photonic reconfigurations slow and shrinks once the dead optical
    // tenant stops contending — but every picosecond of them is
    // queueing, never its own switching: the crossbar reconfigures for
    // free under the storm exactly as it does healthy.
    let (h_elec, s_elec) = (healthy[0].as_ref().unwrap(), stormy[0].as_ref().unwrap());
    for (h, s) in h_elec.report.steps.iter().zip(&s_elec.report.steps) {
        assert_eq!(h.transfer_ps, s.transfer_ps);
        assert_eq!(h.reconfig_ps, h.arbitration_ps);
        assert_eq!(s.reconfig_ps, s.arbitration_ps);
    }

    // The boundary tenant straddles the media split: the storm's
    // transceiver degradation stretches its photonic reconfigurations,
    // but its data plane stays exact.
    let (h_bnd, s_bnd) = (healthy[1].as_ref().unwrap(), stormy[1].as_ref().unwrap());
    assert!(s_bnd.finish_ps >= h_bnd.finish_ps);
    for (h, s) in h_bnd.report.steps.iter().zip(&s_bnd.report.steps) {
        assert_eq!(h.transfer_ps, s.transfer_ps);
        assert!(s.reconfig_ps >= h.reconfig_ps);
    }

    // Trace causality survives the storm: the boundary tenant still
    // reconfigures (storm-stretched, not suppressed), and every
    // ReconfigStart is closed by a ReconfigDone stamped no earlier.
    let mut starts = 0usize;
    let mut open_at = None;
    for ev in &s_bnd.report.trace {
        match ev.kind {
            TraceKind::ReconfigStart { ports } => {
                assert!(ports > 0);
                starts += 1;
                open_at = Some(ev.at);
            }
            TraceKind::ReconfigDone => {
                let at = open_at.take().expect("ReconfigDone without a start");
                assert!(ev.at >= at, "reconfiguration finished before it began");
            }
            _ => {}
        }
    }
    assert!(starts > 0, "boundary tenant must still reconfigure");
    assert!(open_at.is_none(), "every ReconfigStart is closed");
}

#[test]
fn healed_storm_fabric_reruns_to_goodput_one() {
    // Fabric-as-a-service on a stormy half-crossbar switch: while the storm
    // holds, matched jobs crossing the flapped ports fail and goodput
    // drops below one. Heal the storm, rewind the clock, rerun the same
    // offered load — every job completes.
    use aps_core::ConfigChoice;
    use aps_faas::{AdmissionPolicy, PoissonArrivals, TenantClass};
    use aps_sim::ServiceSwitching;

    let n = 16;
    let reconfig = ReconfigModel::constant(10e-6).unwrap();
    let initial = Matching::shift(n, 1).unwrap();
    let seed = seed_with_victims_in(n, 8..16); // the optical half
    let storm = FailureStorm::new(seed);

    let coll = collectives::allreduce::halving_doubling::build(n, MIB).unwrap();
    let schedule = coll.schedule;
    let class = |sched: collectives::Schedule| {
        TenantClass::new(
            "storm-riders",
            n,
            Matching::shift(n, 1).unwrap(),
            ServiceSwitching::Uniform(ConfigChoice::Matched),
            Box::new(PoissonArrivals::new(1000.0, Some(12), 3).unwrap()),
            Box::new(move |_id: u64| -> Box<dyn collectives::Workload> {
                Box::new(collectives::workload::ScheduleStream::new(sched.clone()))
            }),
        )
    };
    // Queued admission: arrivals that land while the fabric is busy wait
    // instead of bouncing ports-busy, so on a healthy device every
    // offered job is eventually admitted and goodput can reach one.
    let mut service = Experiment::domain(topology::builders::ring_unidirectional(n).unwrap())
        .reconfig(reconfig)
        .service(vec![class(schedule)])
        .admission(AdmissionPolicy::Queue { capacity: 16 });

    let mut fabric = CircuitSwitch::split(initial.clone(), n / 2, reconfig).unwrap();
    storm.apply_switch(&mut fabric).unwrap();
    let stormy = service.run_on(&mut fabric).unwrap().summary;
    let t = &stormy.tenants[0];
    assert_eq!(t.offered, 12);
    assert!(t.failed > 0, "storm must fail matched jobs");
    assert!(t.goodput() < 1.0);

    // Heal: unstick the flapped ports, lift the slowdown, restore the
    // base configuration and rewind the device clock.
    storm.heal_switch(&mut fabric);
    fabric
        .load_state(&aps_fabric::FabricState {
            config: initial,
            busy_until: 0,
        })
        .unwrap();
    fabric.reset_clock();
    let healed = service.run_on(&mut fabric).unwrap().summary;
    let t = &healed.tenants[0];
    assert_eq!(t.offered, 12);
    assert_eq!(t.failed, 0);
    assert_eq!(t.completed, t.admitted);
    assert!((t.goodput() - 1.0).abs() < f64::EPSILON);
    assert!(healed.makespan_ps > 0);
}

#[test]
fn decisions_precede_reconfigs_under_transceiver_ageing_storm() {
    // The wavelength-bank storm degrades transceivers (no flaps), so
    // every tenant completes — slower, since aged tuning stretches every
    // matched step's reconfiguration on the critical path (no compute to
    // hide it behind).
    let scenario = hetero::multi_wavelength(MIB);
    let cfg = RunConfig::paper_defaults();
    let reconfig = ReconfigModel::constant(10e-6).unwrap();
    let initial = Matching::shift(24, 1).unwrap();
    // Age transceivers inside the band-hopper's partition (ports 8..24),
    // the tenant whose cross-band hops dominate the makespan.
    let storm = FailureStorm::new(seed_with_victims_in(24, 8..24));

    let run = |storm: Option<FailureStorm>| {
        let mut fab = hetero::build_fabric_stormy(
            FabricKind::WavelengthBank,
            initial.clone(),
            reconfig,
            storm,
        )
        .unwrap();
        scenario
            .run_on(fab.as_mut(), &cfg)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect::<Vec<_>>()
    };
    let healthy = run(None);
    let stormy = run(Some(storm));
    for (h, s) in healthy.iter().zip(&stormy) {
        assert!(
            s.finish_ps >= h.finish_ps,
            "ageing never speeds a tenant up"
        );
    }
    // Degradation is visible somewhere: the storm's victims slow at
    // least one tenant down.
    assert!(
        stormy.iter().map(|t| t.finish_ps).max() > healthy.iter().map(|t| t.finish_ps).max(),
        "storm must cost time"
    );

    // The causality invariant rides the adaptive path — scheduled
    // scenario replay never consults a controller, so drive a live
    // controller over the same aged bank, with reconfigure/compute
    // overlap on to stress the event ordering, and check every
    // storm-stretched reconfiguration is still preceded by its decision.
    let coll = collectives::alltoall::linear_shift(24, MIB).unwrap();
    let mut aged =
        hetero::build_fabric_stormy(FabricKind::WavelengthBank, initial, reconfig, Some(storm))
            .unwrap();
    let run = Experiment::domain(topology::builders::ring_unidirectional(24).unwrap())
        .reconfig(reconfig)
        .sim_config(RunConfig {
            compute: Some(ComputeModel { per_byte_s: 1e-9 }),
            overlap_reconfig_with_compute: true,
            ..RunConfig::paper_defaults()
        })
        .controller(AlwaysReconfigure)
        .collective(&coll)
        .simulate_on(aged.as_mut())
        .unwrap();
    let reconfigs = assert_decisions_precede_reconfigs(&run.report.trace);
    assert!(reconfigs > 0, "the adaptive run must reconfigure");
}

#[test]
fn overlapping_tenant_bases_error_instead_of_panicking() {
    // Two tenants claiming an overlapping port range: their base rings
    // collide on the shared ports, so the scenario's union-of-bases
    // construction must refuse with a typed error — and so must every
    // entry point layered on it.
    let a = matched_tenant("left", (0..4).collect(), 4096.0);
    let b = matched_tenant("right", (2..6).collect(), 4096.0);
    let scenario = aps_sim::scenarios::Scenario {
        name: "overlap".into(),
        n: 8,
        tenants: vec![a, b],
    };
    assert!(matches!(
        scenario.initial_config(),
        Err(SimError::ConfigConflict { .. })
    ));
    assert!(matches!(
        scenario.fabric(ReconfigModel::constant(1e-6).unwrap()),
        Err(SimError::ConfigConflict { .. })
    ));
    let mut fabric = CircuitSwitch::new(ring(8), ReconfigModel::constant(1e-6).unwrap());
    assert!(matches!(
        scenario.run_on(&mut fabric, &RunConfig::paper_defaults()),
        Err(SimError::ConfigConflict { .. })
    ));
}

// ---------------------------------------------------------------------
// Arrivals and clocks: every instant off the picosecond clock is a typed
// error, never a panic or a silent wrap.
// ---------------------------------------------------------------------

/// Runs `a` next to a healthy tenant `b`, returning both results.
fn run_with_arrival(arrival_s: f64) -> Vec<Result<TenantReport, SimError>> {
    let mut a = matched_tenant("late", (0..4).collect(), MIB);
    a.arrival_s = arrival_s;
    let b = matched_tenant("on-time", (4..8).collect(), MIB);
    let mut fab = tenant_fabric(8, &[a.clone(), b.clone()], 1e-6);
    execute_tenants(&mut fab, &[a, b], &RunConfig::paper_defaults(), None).unwrap()
}

#[test]
fn arrivals_off_the_clock_are_tenant_tagged_errors() {
    for arrival_s in [f64::NAN, -1.0, f64::INFINITY, 1e300] {
        let reports = run_with_arrival(arrival_s);
        match reports[0].as_ref().unwrap_err() {
            SimError::Tenant {
                tenant: 0, source, ..
            } => assert!(
                matches!(**source, SimError::BadArrival { .. }),
                "{arrival_s}: {source}"
            ),
            other => panic!("{arrival_s}: expected a tenant-tagged BadArrival, got {other}"),
        }
        assert!(reports[1].is_ok(), "{arrival_s}: the other tenant runs");
    }
}

#[test]
fn a_tenant_running_past_the_clock_end_fails_with_clock_overflow() {
    // Arrives 1.55 µs before the end of the u64 picosecond clock: its
    // first step's transfer would wrap the clock.
    let reports = run_with_arrival(18_446_744.073_708);
    match reports[0].as_ref().unwrap_err() {
        SimError::Tenant { source, .. } => {
            assert_eq!(**source, SimError::ClockOverflow { step: 0 });
        }
        other => panic!("expected a tenant-tagged ClockOverflow, got {other}"),
    }
    assert!(reports[1].is_ok());
}

#[test]
fn a_reconfiguration_past_the_clock_end_fails_with_clock_overflow() {
    // Arrives 0.55 µs before the end of the clock: its control path
    // (α = 0.1 µs) fits, its first step's 1 µs reconfiguration does not.
    // The fabric refuses the request and keeps the tenant's base ring.
    let mut late = matched_tenant("late", (0..4).collect(), MIB);
    late.arrival_s = 18_446_744.073_709;
    let tenants = [late, matched_tenant("on-time", (4..8).collect(), MIB)];
    let mut fab = tenant_fabric(8, &tenants, 1e-6);
    let reports = execute_tenants(&mut fab, &tenants, &RunConfig::paper_defaults(), None).unwrap();
    match reports[0].as_ref().unwrap_err() {
        SimError::Tenant { source, .. } => {
            assert_eq!(**source, SimError::ClockOverflow { step: 0 });
        }
        other => panic!("expected a tenant-tagged ClockOverflow, got {other}"),
    }
    let survivor = reports[1].as_ref().unwrap();
    assert!((0..4).all(|p| fab.current().dst_of(p) == Some((p + 1) % 4)));
    assert_eq!(
        fab.stats().reconfigurations,
        survivor.report.reconfig_events()
    );
}

#[test]
fn a_service_job_admitted_at_the_clock_end_departs_with_clock_overflow() {
    use aps_sim::{ServiceExecutor, ServiceJobSpec, ServiceSwitching};
    let n = 4;
    let coll = collectives::allreduce::ring::build(n, MIB).unwrap();
    let mut exec = ServiceExecutor::new(n, RunConfig::paper_defaults(), false);
    let spec = ServiceJobSpec {
        name: "doomed".into(),
        ports: (0..n).collect(),
        base_config: ring(n),
        workload: Box::new(coll.schedule.into_workload()),
        switching: ServiceSwitching::Uniform(aps_core::ConfigChoice::Base),
    };
    exec.admit(0, spec, u64::MAX - 1).unwrap();
    let mut fab = CircuitSwitch::new(ring(n), ReconfigModel::constant(1e-6).unwrap());
    let dep = exec.execute_next(&mut fab, None).unwrap();
    assert!(dep.failed);
    assert_eq!(dep.finish_ps, u64::MAX);
    let out = exec.remove(dep.slot).unwrap();
    assert_eq!(out.error, Some(SimError::ClockOverflow { step: 0 }));
}
