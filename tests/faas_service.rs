//! Fabric-as-a-service integration tests: the open-system engine end to
//! end.
//!
//! Pins the three tentpole guarantees. (1) **Lockstep parity**: a
//! service trace where every job arrives at t = 0 and nothing departs
//! mid-run reproduces the closed-system `execute_tenants` path
//! byte-for-byte — outcomes *and* replay record frames — at any
//! `APS_THREADS` (the CI matrix runs this suite at 1 and 4). (2)
//! **O(1) accounting**: a 1,000,000-job arrival trace folds into a
//! `ServiceSummary` without materializing anything per job, with a
//! counting arrival wrapper proving demand is pulled exactly once per
//! job. (3) **Fault isolation**: admission and reclaim survive failure
//! storms — stuck ports and mid-job link flaps fail the victim job but
//! release its partition exactly once, and a second release is a typed
//! error.

use adaptive_photonics::prelude::*;
use aps_cost::units::{Picos, MIB};
use aps_faas::ServiceJobRecord;
use aps_sim::service::{ServiceExecutor, ServiceJobSpec, ServiceSwitching};
use aps_sim::{execute_tenants, SimError};
use std::cell::Cell;
use std::rc::Rc;

fn spec_tenant(name: &str, ports: Vec<usize>, bytes: f64, matched: bool) -> TenantSpec {
    let n = ports.len();
    let schedule = collectives::allreduce::halving_doubling::build(n, bytes)
        .unwrap()
        .schedule;
    let steps = schedule.num_steps();
    TenantSpec {
        name: name.into(),
        ports,
        base_config: Matching::shift(n, 1).unwrap(),
        schedule,
        switch_schedule: if matched {
            SwitchSchedule::all_matched(steps)
        } else {
            SwitchSchedule::all_base(steps)
        },
        arrival_s: 0.0,
    }
}

/// One service class per tenant: a single job arriving at t = 0 carrying
/// the tenant's schedule and switch plan.
fn class_of(t: &TenantSpec) -> TenantClass {
    let schedule = t.schedule.clone();
    TenantClass::new(
        t.name.clone(),
        t.ports.len(),
        t.base_config.clone(),
        ServiceSwitching::Schedule(t.switch_schedule.clone()),
        Box::new(TraceArrivals::new(vec![0])),
        Box::new(move |_id: u64| -> Box<dyn Workload> {
            Box::new(ScheduleStream::new(schedule.clone()))
        }),
    )
}

fn union_fabric(n: usize, tenants: &[TenantSpec]) -> CircuitSwitch {
    aps_sim::scenarios::Scenario {
        name: "faas-differential".into(),
        n,
        tenants: tenants.to_vec(),
    }
    .fabric(ReconfigModel::constant(5e-6).unwrap())
    .unwrap()
}

#[test]
fn all_at_t0_service_matches_execute_tenants_bitwise() {
    // Three tenant classes on contiguous ascending partitions, so the
    // deterministic lowest-ports-first allocator reproduces the closed
    // system's port assignment, and job ids (admission order) reproduce
    // its tenant indices.
    let tenants = vec![
        spec_tenant("a", (0..8).collect(), MIB, true),
        spec_tenant("b", (8..12).collect(), 4.0 * MIB, false),
        spec_tenant("c", (12..16).collect(), 2.0 * MIB, true),
    ];
    let cfg = RunConfig::paper_defaults();

    let mut closed_rec = Recorder::new(16, "service", "mix");
    let mut fab = union_fabric(16, &tenants);
    let closed = execute_tenants(&mut fab, &tenants, &cfg, Some(&mut closed_rec)).unwrap();

    let mut open_rec = Recorder::new(16, "service", "mix");
    let mut fab = union_fabric(16, &tenants);
    let mut classes: Vec<TenantClass> = tenants.iter().map(class_of).collect();
    let service_cfg = aps_faas::ServiceConfig {
        run: cfg,
        admission: AdmissionPolicy::Reject,
        max_jobs: None,
        keep_job_reports: true,
    };
    let open =
        aps_faas::run_service_recorded(&mut fab, &mut classes, &service_cfg, Some(&mut open_rec))
            .unwrap();

    // Outcomes match byte-for-byte: finish times and full per-step
    // reports, per tenant.
    assert_eq!(open.jobs.len(), tenants.len());
    for record in &open.jobs {
        let t = record.outcome.id as usize;
        let want = closed[t].as_ref().unwrap();
        assert_eq!(record.outcome.name, want.name);
        assert_eq!(record.outcome.start_ps, want.arrival_ps);
        assert_eq!(record.outcome.finish_ps, want.finish_ps, "tenant {t}");
        assert_eq!(
            record.outcome.report.as_ref().unwrap(),
            &want.report,
            "tenant {t} report"
        );
    }
    let slowest = closed
        .iter()
        .map(|r| r.as_ref().unwrap().finish_ps)
        .max()
        .unwrap();
    assert_eq!(open.summary.makespan_ps, slowest);

    // And the replay record agrees frame by frame — same step order,
    // same decisions, same rates, same state hash chain.
    let closed_record = closed_rec.into_record();
    let open_record = open_rec.into_record();
    assert_eq!(closed_record.final_state, open_record.final_state);
    assert_eq!(closed_record.frames, open_record.frames);
    let diff = diff_records(&closed_record, &open_record);
    assert!(diff.is_clean(), "{diff}");
}

/// Counts arrival pulls through a shared cell, so the test can prove the
/// engine consumed the trace incrementally — one pull per job.
struct CountingArrivals<A> {
    inner: A,
    pulled: Rc<Cell<usize>>,
}

impl<A: ArrivalProcess> ArrivalProcess for CountingArrivals<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_gap_ps(&mut self) -> Option<u64> {
        self.pulled.set(self.pulled.get() + 1);
        self.inner.next_gap_ps()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[test]
fn million_job_trace_folds_in_o1() {
    // One million jobs, each one step on a 2-port partition, pushed
    // through the service with O(1) accounting: no per-job records, no
    // materialized queues — just the SLO fold.
    let jobs = 1_000_000u64;
    let pulled = Rc::new(Cell::new(0usize));
    let built = Rc::new(Cell::new(0usize));
    let step_schedule = Schedule::new(
        2,
        CollectiveKind::Composite,
        "micro",
        vec![Step {
            matching: Matching::shift(2, 1).unwrap(),
            bytes_per_pair: 1024.0,
        }],
    )
    .unwrap();
    let built_in = Rc::clone(&built);
    let mut classes = [TenantClass::new(
        "micro",
        2,
        Matching::shift(2, 1).unwrap(),
        ServiceSwitching::Uniform(ConfigChoice::Base),
        Box::new(CountingArrivals {
            inner: TraceArrivals::new(vec![0; jobs as usize]),
            pulled: Rc::clone(&pulled),
        }),
        Box::new(move |_id: u64| -> Box<dyn Workload> {
            built_in.set(built_in.get() + 1);
            Box::new(ScheduleStream::new(step_schedule.clone()))
        }),
    )];
    // Backpressure: the full-at-t0 trace stalls its source instead of
    // overflowing the bounded queue, so all million jobs eventually run.
    let cfg = aps_faas::ServiceConfig {
        admission: AdmissionPolicy::Backpressure { capacity: 4 },
        ..aps_faas::ServiceConfig::paper_defaults()
    };
    let mut fab = CircuitSwitch::new(
        Matching::shift(2, 1).unwrap(),
        ReconfigModel::constant(1e-6).unwrap(),
    );
    let report = aps_faas::run_service(&mut fab, &mut classes, &cfg).unwrap();

    let t = &report.summary.tenants[0];
    assert_eq!(t.offered, jobs);
    assert_eq!(t.completed, jobs);
    assert_eq!(t.rejected(), 0);
    assert_eq!(report.summary.steps.steps, jobs as usize);
    assert!(report.summary.makespan_ps > 0);
    // O(1) in the strong sense: nothing was materialized per job …
    assert!(report.jobs.is_empty());
    // … and demand was pulled exactly once per job (plus the exhaustion
    // probe on the arrival trace), never read ahead.
    assert_eq!(built.get(), jobs as usize);
    assert_eq!(pulled.get(), jobs as usize + 1);
    // The streaming quantile fold saw every completion.
    assert_eq!(t.completion.count(), jobs);
    assert!(t.completion.p50_ps().unwrap() <= t.completion.p99_ps().unwrap());
    assert_eq!(report.summary.fairness_vector(), vec![1.0]);
}

#[test]
fn stuck_port_storm_fails_jobs_but_recycles_their_partitions() {
    // A stuck port for the whole run. Every job wants the whole fabric
    // and needs a reconfiguration, so every job fails — but each one
    // must still be *admitted*, which is only possible if the previous
    // victim's whole-fabric partition was released on departure. After
    // the port heals, the identical storm completes cleanly.
    let schedule = collectives::allreduce::halving_doubling::build(4, MIB)
        .unwrap()
        .schedule;
    let mk_classes = {
        let schedule = schedule.clone();
        move || {
            let schedule = schedule.clone();
            [TenantClass::new(
                "storm",
                4,
                Matching::shift(4, 1).unwrap(),
                ServiceSwitching::Uniform(ConfigChoice::Matched),
                Box::new(TraceArrivals::new(vec![0, 0, 0])),
                Box::new(move |_id: u64| -> Box<dyn Workload> {
                    Box::new(ScheduleStream::new(schedule.clone()))
                }) as Box<dyn aps_faas::JobDemand>,
            )]
        }
    };
    let cfg = aps_faas::ServiceConfig {
        admission: AdmissionPolicy::Queue { capacity: 8 },
        ..aps_faas::ServiceConfig::paper_defaults()
    };
    let mut fab = CircuitSwitch::new(Matching::empty(4), ReconfigModel::constant(1e-6).unwrap());
    fab.stick_port(0).unwrap();
    let report = aps_faas::run_service(&mut fab, &mut mk_classes(), &cfg).unwrap();

    let storm = &report.summary.tenants[0];
    assert_eq!(storm.offered, 3);
    assert_eq!(
        storm.admitted, 3,
        "each failed job released the whole fabric for the next"
    );
    assert_eq!(storm.failed, 3);
    assert_eq!(storm.completed, 0);
    assert_eq!(storm.goodput(), 0.0);
    assert_eq!(report.summary.fairness_vector(), vec![0.0]);

    // Heal the port and replay the identical storm: everyone completes.
    fab.unstick_port(0);
    fab.reset_clock();
    let healed = aps_faas::run_service(&mut fab, &mut mk_classes(), &cfg).unwrap();
    let storm = &healed.summary.tenants[0];
    assert_eq!(storm.completed, 3);
    assert_eq!(storm.failed, 0);
    assert!((storm.goodput() - 1.0).abs() < 1e-12);
}

#[test]
fn mid_job_link_flap_isolates_the_job_and_frees_its_ports_exactly_once() {
    // Drive the executor and allocator directly so the fault can strike
    // *mid-job*: the victim completes its first step, then its link
    // flaps (a port sticks), its next step fails, and it departs as
    // failed after 1 of 2 steps. Its partition is reclaimed exactly once
    // — a second reclaim is the typed double-reclaim error — and after
    // the flap heals, a fresh job on the same ports completes.
    // Two steps over *different* matchings, so the second step needs a
    // reconfiguration that the flapped port blocks.
    let schedule = Schedule::new(
        4,
        CollectiveKind::Composite,
        "alternating-shifts",
        vec![
            Step {
                matching: Matching::shift(4, 1).unwrap(),
                bytes_per_pair: 1024.0 * 1024.0,
            },
            Step {
                matching: Matching::shift(4, 2).unwrap(),
                bytes_per_pair: 1024.0 * 1024.0,
            },
        ],
    )
    .unwrap();
    let steps = schedule.num_steps();
    let spec = |sched: &Schedule| ServiceJobSpec {
        name: "flappy".into(),
        ports: vec![0, 1, 2, 3],
        base_config: Matching::shift(4, 1).unwrap(),
        workload: Box::new(ScheduleStream::new(sched.clone())),
        switching: ServiceSwitching::Uniform(ConfigChoice::Matched),
    };
    let mut fab = CircuitSwitch::new(Matching::empty(4), ReconfigModel::constant(1e-6).unwrap());
    let mut exec = ServiceExecutor::new(4, RunConfig::paper_defaults(), false);
    let mut alloc = PartitionAllocator::new(4);

    let handle = alloc.try_alloc(4).unwrap();
    let adm = exec.admit(0, spec(&schedule), 0).unwrap();
    assert!(adm.has_work);
    assert!(
        exec.execute_next(&mut fab, None).is_none(),
        "step 1 commits"
    );

    fab.stick_port(0).unwrap(); // the mid-job flap
    let dep = exec
        .execute_next(&mut fab, None)
        .expect("the failing step departs the job");
    assert!(dep.failed);
    let out = exec.remove(dep.slot).unwrap();
    assert_eq!(out.steps, 1, "one committed step before the flap");
    assert!(matches!(
        out.error,
        Some(SimError::Fabric(_) | SimError::Unroutable { .. })
    ));

    // Exactly-once reclaim: the first succeeds, the second is typed.
    assert_eq!(alloc.reclaim(handle).unwrap(), 4);
    assert_eq!(
        alloc.reclaim(handle),
        Err(FaasError::DoubleReclaim {
            slot: handle.slot(),
            generation: handle.generation(),
        })
    );

    // The flap heals; the same ports serve the next job to completion.
    fab.unstick_port(0);
    fab.reset_clock();
    let healed = alloc.try_alloc(4).unwrap();
    assert_ne!(healed.generation(), handle.generation());
    let adm = exec.admit(1, spec(&schedule), 0).unwrap();
    let mut finish: Option<Picos> = None;
    for _ in 0..64 {
        if let Some(dep) = exec.execute_next(&mut fab, None) {
            assert!(!dep.failed);
            finish = Some(dep.finish_ps);
            break;
        }
    }
    let out = exec.remove(adm.slot).unwrap();
    assert_eq!(Some(out.finish_ps), finish);
    assert!(out.error.is_none());
    assert_eq!(out.steps, steps);
    assert_eq!(alloc.reclaim(healed).unwrap(), 4);
}

#[test]
fn experiment_service_typestate_runs_end_to_end() {
    let mk_classes = || {
        vec![
            TenantClass::new(
                "poisson",
                4,
                Matching::shift(4, 1).unwrap(),
                ServiceSwitching::Uniform(ConfigChoice::Matched),
                Box::new(PoissonArrivals::new(1.0e6, Some(10), 42).unwrap()),
                Box::new(|_id: u64| -> Box<dyn Workload> {
                    Box::new(ScheduleStream::new(
                        collectives::allreduce::halving_doubling::build(4, MIB)
                            .unwrap()
                            .schedule,
                    ))
                }) as Box<dyn aps_faas::JobDemand>,
            ),
            TenantClass::new(
                "bursty",
                2,
                Matching::shift(2, 1).unwrap(),
                ServiceSwitching::Uniform(ConfigChoice::Base),
                Box::new(MmppArrivals::new([4.0e6, 0.2e6], [2e-6, 2e-6], Some(10), 7).unwrap()),
                Box::new(|_id: u64| -> Box<dyn Workload> {
                    Box::new(ScheduleStream::new(
                        collectives::allreduce::ring::build(2, MIB / 2.0)
                            .unwrap()
                            .schedule,
                    ))
                }) as Box<dyn aps_faas::JobDemand>,
            ),
        ]
    };
    let base = topology::builders::ring_unidirectional(8).unwrap();
    let run = |classes| {
        Experiment::domain(base.clone())
            .reconfig(ReconfigModel::constant(5e-6).unwrap())
            .service(classes)
            .admission(AdmissionPolicy::Backpressure { capacity: 4 })
            .keep_job_reports()
            .run()
            .unwrap()
    };
    let report = run(mk_classes());
    assert_eq!(report.summary.class_names, vec!["poisson", "bursty"]);
    assert_eq!(report.summary.offered(), 20);
    assert_eq!(report.summary.completed(), 20);
    assert_eq!(report.jobs.len(), 20);
    assert!(report.summary.makespan_s() > 0.0);
    for ServiceJobRecord { outcome, .. } in &report.jobs {
        assert!(outcome.error.is_none());
        assert!(outcome.finish_ps >= outcome.start_ps);
    }
    // The whole pipeline — arrivals, admission, allocation, execution —
    // replays bit-identically.
    assert_eq!(report, run(mk_classes()));

    // Structural failures surface through the typed experiment error.
    let err = Experiment::domain(base.clone())
        .service(Vec::new())
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        ExperimentError::Service(FaasError::NoClasses)
    ));
}
