//! Property-based tests for the simulator: determinism, monotonicity in
//! every cost parameter, and lower bounds from conservation. The last
//! tests re-solve every step of multi-tenant runs from scratch, the oracle
//! of the step engine's step memo and of its O(1) answer on direct
//! circuits.

use aps_collectives::workload::generators::RandomPermutations;
use aps_collectives::workload::materialize;
use aps_collectives::{allreduce, alltoall, CollectiveKind, Schedule, ScheduleStream, Step};
use aps_core::{ConfigChoice, SwitchSchedule};
use aps_cost::units::{secs_to_picos, KIB, MIB};
use aps_cost::{CostParams, ReconfigModel};
use aps_fabric::{BarrierModel, CircuitSwitch};
use aps_matrix::Matching;
use aps_sim::service::{ServiceExecutor, ServiceJobSpec, ServiceSwitching};
use aps_sim::{
    execute_tenants, run_scheduled, simulate_circuit_step, CircuitScratch, RecordSink, RunConfig,
    SimError, StepRecord, StepReport, TenantSpec,
};
use proptest::prelude::*;

/// Strategy: a random schedule of shift steps over `n ∈ [3, 12]`.
fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (
        3usize..12,
        proptest::collection::vec((1usize..11, 1.0f64..1e7), 1..10),
    )
        .prop_map(|(n, raw)| {
            let steps = raw
                .into_iter()
                .map(|(k, bytes)| Step {
                    matching: Matching::shift(n, (k % (n - 1)) + 1).unwrap(),
                    bytes_per_pair: bytes,
                })
                .collect();
            Schedule::new(n, CollectiveKind::Composite, "random-shifts", steps).unwrap()
        })
}

fn simulate(schedule: &Schedule, switches: &SwitchSchedule, cfg: &RunConfig, alpha_r: f64) -> f64 {
    let n = schedule.n();
    let ring = Matching::shift(n, 1).unwrap();
    let mut fab = CircuitSwitch::new(ring.clone(), ReconfigModel::constant(alpha_r).unwrap());
    run_scheduled(&mut fab, &ring, schedule, switches, cfg)
        .expect("simulation")
        .total_s()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulation_is_deterministic(schedule in arb_schedule()) {
        let cfg = RunConfig::paper_defaults();
        let sw = SwitchSchedule::all_base(schedule.num_steps());
        prop_assert_eq!(
            simulate(&schedule, &sw, &cfg, 1e-6).to_bits(),
            simulate(&schedule, &sw, &cfg, 1e-6).to_bits()
        );
    }

    #[test]
    fn total_bounded_below_by_serialization(schedule in arb_schedule()) {
        // No schedule can beat pure transmission at full bandwidth plus the
        // per-step α.
        let cfg = RunConfig::paper_defaults();
        for sw in [
            SwitchSchedule::all_base(schedule.num_steps()),
            SwitchSchedule::all_matched(schedule.num_steps()),
        ] {
            let t = simulate(&schedule, &sw, &cfg, 0.0);
            let floor: f64 = schedule
                .steps()
                .iter()
                .map(|s| cfg.params.alpha_s + s.bytes_per_pair * cfg.params.beta_s_per_byte)
                .sum();
            prop_assert!(t >= floor - 1e-12, "sim {t} below serialization floor {floor}");
        }
    }

    #[test]
    fn matched_total_is_exact(schedule in arb_schedule()) {
        // All-matched: every step is α + δ + β·m plus α_r per physical
        // reconfiguration — computable in closed form.
        let cfg = RunConfig::paper_defaults();
        let alpha_r = 3e-6;
        let t = simulate(&schedule, &SwitchSchedule::all_matched(schedule.num_steps()), &cfg, alpha_r);
        let mut expect = 0.0;
        let ring = Matching::shift(schedule.n(), 1).unwrap();
        let mut current = ring.clone();
        for s in schedule.steps() {
            expect += cfg.params.alpha_s + cfg.params.delta_s
                + s.bytes_per_pair * cfg.params.beta_s_per_byte;
            if current != s.matching {
                expect += alpha_r;
                current = s.matching.clone();
            }
        }
        prop_assert!((t - expect).abs() < 1e-9 * (1.0 + expect), "sim {t} vs closed form {expect}");
    }

    #[test]
    fn barrier_and_alpha_r_are_monotone(schedule in arb_schedule()) {
        let base = RunConfig::paper_defaults();
        let with_barrier = RunConfig {
            barrier: BarrierModel::Constant { latency_s: 1e-6 },
            ..base
        };
        let sw = SwitchSchedule::all_matched(schedule.num_steps());
        let t0 = simulate(&schedule, &sw, &base, 1e-6);
        let t1 = simulate(&schedule, &sw, &with_barrier, 1e-6);
        let t2 = simulate(&schedule, &sw, &base, 1e-4);
        prop_assert!(t1 >= t0);
        prop_assert!(t2 >= t0);
    }

    #[test]
    fn faster_links_never_slow_the_collective(schedule in arb_schedule()) {
        let slow = RunConfig {
            params: CostParams::new(100e-9, 400.0, 100e-9).unwrap(),
            ..RunConfig::paper_defaults()
        };
        let fast = RunConfig {
            params: CostParams::new(100e-9, 1600.0, 100e-9).unwrap(),
            ..RunConfig::paper_defaults()
        };
        let sw = SwitchSchedule::all_base(schedule.num_steps());
        prop_assert!(
            simulate(&schedule, &sw, &fast, 1e-6) <= simulate(&schedule, &sw, &slow, 1e-6) + 1e-12
        );
    }
}

/// Every step a sink sees: its job, its index in the job's schedule, the
/// configuration it ran on (copied, so the fabric shares no new buffer) and
/// its report.
#[derive(Default)]
struct Recorded {
    /// The job in each executor slot; a tenant run's slot is its tenant.
    job_of_slot: Vec<usize>,
    steps: Vec<(usize, usize, Matching, StepReport)>,
}

impl RecordSink for Recorded {
    fn record_step(&mut self, r: &StepRecord<'_>) {
        let job = self.job_of_slot[r.tenant.expect("tenant steps carry a tag")];
        let pairs: Vec<(usize, usize)> = r.config.pairs().collect();
        let config = Matching::from_pairs(r.config.n(), &pairs).unwrap();
        self.steps.push((job, r.step, config, *r.report));
    }
}

/// Re-solves every recorded step from scratch: its pairs, mapped through
/// its job's ports, on the configuration it ran on, in a fresh scratch. The
/// recorded hop count and transfer time must be the fresh solve's. Returns
/// how many steps relayed a pair over more than one circuit.
fn assert_resolved_from_scratch(
    recorded: &Recorded,
    jobs: &[(Vec<usize>, Schedule)],
    cfg: &RunConfig,
) -> usize {
    let cap = cfg.params.bandwidth_bytes_per_sec();
    let mut relayed = 0;
    for (job, i, config, report) in &recorded.steps {
        let (ports, schedule) = &jobs[*job];
        let step = &schedule.steps()[*i];
        let pairs: Vec<(usize, usize)> = step
            .matching
            .pairs()
            .map(|(s, d)| (ports[s], ports[d]))
            .collect();
        let mut fresh = CircuitScratch::new();
        simulate_circuit_step(config, &pairs, step.bytes_per_pair, cap, &mut fresh)
            .unwrap_or_else(|pair| panic!("job {job} step {i}: {pair:?} does not route"));
        let (hops, worst) = (0..fresh.num_flows()).fold((0, 0.0f64), |(hops, worst), f| {
            let h = fresh.hops_of(f);
            let at = fresh.finish_of(f) + cfg.params.delta_s * h as f64;
            (hops.max(h), worst.max(at))
        });
        let transfer_ps = if pairs.is_empty() {
            0
        } else {
            secs_to_picos(worst)
        };
        assert_eq!(
            (report.max_hops, report.transfer_ps),
            (hops, transfer_ps),
            "job {job} step {i} on ports {ports:?}"
        );
        relayed += usize::from(hops > 1);
    }
    relayed
}

#[test]
fn a_service_of_recurring_steps_resolves_from_scratch() {
    // Jobs arrive as partitions free up on a 64-port fabric, each on the
    // lowest free ports, so a partition ascends and has gaps once jobs
    // depart out of order. The 16-port halving-doubling AllReduces on
    // their base rings, at two volumes and on two rings (shift by 1 and by
    // 3), repeat their steps across jobs and partitions, so the step memo
    // answers most of them; a key without the volume or the target would
    // answer wrongly. The 32-port linear-shift All-to-Alls on their base
    // rings have 31 distinct steps, more than the memo holds, so they evict.
    let n = 64;
    let cfg = RunConfig::paper_defaults();
    let hd = |bytes| {
        allreduce::halving_doubling::build(16, bytes)
            .unwrap()
            .schedule
    };
    let ring = |n, k| Matching::shift(n, k).unwrap();
    let classes = [
        (hd(256.0 * KIB), ring(16, 1)),
        (hd(MIB), ring(16, 1)),
        (hd(256.0 * KIB), ring(16, 3)),
        (
            alltoall::linear_shift(32, MIB).unwrap().schedule,
            ring(32, 1),
        ),
    ];
    let order = [0, 3, 0, 1, 2, 0, 3, 1, 0, 2, 3, 0, 0, 1, 2, 0];
    let mut fabric = CircuitSwitch::new(ring(n, 1), ReconfigModel::constant(10e-6).unwrap());
    let mut exec = ServiceExecutor::new(n, cfg, false);
    let mut free = vec![true; n];
    let mut jobs: Vec<(Vec<usize>, Schedule)> = Vec::new();
    let mut recorded = Recorded::default();
    let (mut now, mut departed, mut gapped) = (0, 0, 0);
    loop {
        // Admit waiting jobs in order while the next one fits.
        while let Some(&class) = order.get(jobs.len()) {
            let (schedule, base) = &classes[class];
            let ports: Vec<usize> = (0..n).filter(|&p| free[p]).take(schedule.n()).collect();
            if ports.len() < schedule.n() {
                break;
            }
            for &p in &ports {
                free[p] = false;
            }
            gapped += usize::from(ports[ports.len() - 1] - ports[0] >= ports.len());
            let spec = ServiceJobSpec {
                name: format!("job {}", jobs.len()),
                ports: ports.clone(),
                base_config: base.clone(),
                workload: Box::new(ScheduleStream::new(schedule.clone())),
                switching: ServiceSwitching::Uniform(ConfigChoice::Base),
            };
            let slot = exec.admit(jobs.len() as u64, spec, now).unwrap().slot;
            if recorded.job_of_slot.len() <= slot {
                recorded.job_of_slot.resize(slot + 1, 0);
            }
            recorded.job_of_slot[slot] = jobs.len();
            jobs.push((ports, schedule.clone()));
        }
        if exec.next_request_at().is_none() {
            break;
        }
        if let Some(departure) = exec.execute_next(&mut fabric, Some(&mut recorded)) {
            let out = exec.remove(departure.slot).unwrap();
            assert_eq!(out.error, None, "{}", out.name);
            for &p in &jobs[out.id as usize].0 {
                free[p] = true;
            }
            now = departure.finish_ps;
            departed += 1;
        }
    }
    assert_eq!(departed, order.len());
    assert!(gapped > 0, "some partition has a gap");
    let steps: usize = jobs.iter().map(|(_, s)| s.num_steps()).sum();
    assert_eq!(recorded.steps.len(), steps);
    assert!(assert_resolved_from_scratch(&recorded, &jobs, &cfg) > 0);
}

#[test]
fn faults_shuffled_ports_and_unroutable_pairs_resolve_from_scratch() {
    // Tenants on a 72-port fabric, each kind of step the memo must not
    // answer beside steps it may:
    // * 0: six partial random permutations on ports 0..16, mixed base and
    //   matched, with port 3 stuck on its ring circuit 3 → 4. The
    //   permutations leave out port 3's send and the send into port 4, so
    //   every pair routes; a matched step's fabric holds the stuck circuit
    //   too, not the job's target.
    // * 1: a matched XOR step on ports 16..32 with port 21 stuck: the pair
    //   from 21 cannot route, though the step is its own target.
    // * 2 and 3: an 8-port chain on the even and on the odd ports 32..48,
    //   each head fed by an unowned port, running a direct step, a relayed
    //   step twice, and a step with a pair from the chain's end: the fabric
    //   holds the chain, the second tenant's relayed steps hit the memo,
    //   and the last step fails in both.
    // * 4 and 5: an 8-port halving-doubling AllReduce, mixed, on ports
    //   48..56 in shuffled order and on ports 56..64 in order.
    let n = 72;
    let cfg = RunConfig::paper_defaults();
    let ring = |k| Matching::shift(k, 1).unwrap();
    let chain_pairs: Vec<(usize, usize)> = (0..7).map(|r| (r, r + 1)).collect();
    let chain = Matching::from_pairs(8, &chain_pairs).unwrap();
    let step = |pairs: &[(usize, usize)]| Step {
        matching: Matching::from_pairs(8, pairs).unwrap(),
        bytes_per_pair: MIB,
    };
    let chain_steps = Schedule::new(
        8,
        CollectiveKind::Composite,
        "chain",
        vec![
            step(&chain_pairs),
            step(&[(0, 3), (1, 7), (4, 6)]),
            step(&[(0, 3), (1, 7), (4, 6)]),
            step(&[(0, 1), (7, 2)]),
        ],
    )
    .unwrap();
    let mut permutations = RandomPermutations::new(16, 64.0 * KIB, Some(6), 7).unwrap();
    let partial: Vec<Step> = materialize(&mut permutations, 6)
        .unwrap()
        .steps()
        .iter()
        .map(|s| {
            let pairs: Vec<(usize, usize)> = s
                .matching
                .pairs()
                .filter(|&(s, d)| s != 3 && d != 4)
                .collect();
            Step {
                matching: Matching::from_pairs(16, &pairs).unwrap(),
                bytes_per_pair: s.bytes_per_pair,
            }
        })
        .collect();
    let partial = Schedule::new(16, CollectiveKind::AllToAll, "partial", partial).unwrap();
    let xor = Schedule::new(
        16,
        CollectiveKind::Composite,
        "xor",
        vec![Step {
            matching: Matching::xor(16, 1).unwrap(),
            bytes_per_pair: MIB,
        }],
    )
    .unwrap();
    let hd = allreduce::halving_doubling::build(8, MIB).unwrap().schedule;
    let mixed = |s: usize, base_every: usize| {
        SwitchSchedule::new(
            (0..s)
                .map(|i| match i % base_every {
                    1 => ConfigChoice::Base,
                    _ => ConfigChoice::Matched,
                })
                .collect(),
        )
    };
    let tenant = |name: &str, ports: Vec<usize>, base: &Matching, schedule: &Schedule, switches| {
        TenantSpec {
            name: name.into(),
            ports,
            base_config: base.clone(),
            schedule: schedule.clone(),
            switch_schedule: switches,
            arrival_s: 0.0,
        }
    };
    let tenants = [
        tenant("stuck", (0..16).collect(), &ring(16), &partial, mixed(6, 3)),
        tenant(
            "stuck, unroutable",
            (16..32).collect(),
            &ring(16),
            &xor,
            mixed(1, 2),
        ),
        tenant(
            "chain",
            (32..48).step_by(2).collect(),
            &chain,
            &chain_steps,
            SwitchSchedule::all_base(4),
        ),
        tenant(
            "chain twin",
            (33..48).step_by(2).collect(),
            &chain,
            &chain_steps,
            SwitchSchedule::all_base(4),
        ),
        tenant(
            "shuffled",
            vec![53, 49, 55, 48, 51, 54, 50, 52],
            &ring(8),
            &hd,
            mixed(hd.num_steps(), 2),
        ),
        tenant(
            "in order",
            (56..64).collect(),
            &ring(8),
            &hd,
            mixed(hd.num_steps(), 2),
        ),
    ];
    let mut initial: Vec<(usize, usize)> = vec![(64, 32), (65, 33), (66, 67), (67, 68)];
    for t in &tenants {
        initial.extend(t.global_base().unwrap().pairs());
    }
    let mut fabric = CircuitSwitch::new(
        Matching::from_pairs(n, &initial).unwrap(),
        ReconfigModel::constant(5e-6).unwrap(),
    );
    fabric.stick_port(3).unwrap();
    fabric.stick_port(21).unwrap();
    let mut recorded = Recorded {
        job_of_slot: (0..tenants.len()).collect(),
        ..Recorded::default()
    };
    let results = execute_tenants(&mut fabric, &tenants, &cfg, Some(&mut recorded)).unwrap();
    let unroutable = |t: usize| match &results[t] {
        Err(SimError::Tenant { source, .. }) => match **source {
            SimError::Unroutable { step, src, dst } => (step, src, dst),
            ref e => panic!("tenant {t}: {e}"),
        },
        other => panic!("tenant {t}: {other:?}"),
    };
    assert_eq!(unroutable(1), (0, 21, 20));
    assert_eq!(unroutable(2), (3, 46, 36));
    assert_eq!(unroutable(3), (3, 47, 37));
    for t in [0, 4, 5] {
        assert!(results[t].is_ok(), "tenant {t}: {:?}", results[t]);
    }
    let jobs: Vec<(Vec<usize>, Schedule)> = tenants
        .iter()
        .map(|t| (t.ports.clone(), t.schedule.clone()))
        .collect();
    assert!(assert_resolved_from_scratch(&recorded, &jobs, &cfg) > 0);
    // Every step but the three failed ones was recorded.
    let steps: usize = jobs.iter().map(|(_, s)| s.num_steps()).sum();
    assert_eq!(recorded.steps.len(), steps - 3);
}

#[test]
fn direct_steps_of_any_volume_resolve_from_scratch() {
    // Every step is matched, so on a fabric that holds its target the
    // executor answers it in O(1), without routing: an XOR exchange and a
    // shift by 3 on 8 ranks, and the empty matching, each at volumes from
    // zero through a subnormal and one byte to 1e15 bytes. The answer must
    // be what the arc solve gives when it routes the same pairs, with and
    // without propagation, for one job on every port and for two jobs side
    // by side; each flow crosses one circuit.
    let n = 8;
    let volumes = [0.0, 5e-324, 1.0, MIB, 1e15];
    let steps: Vec<Step> = volumes
        .iter()
        .flat_map(|&bytes| {
            [
                Matching::xor(n, 1).unwrap(),
                Matching::shift(n, 3).unwrap(),
                Matching::empty(n),
            ]
            .map(|matching| Step {
                matching,
                bytes_per_pair: bytes,
            })
        })
        .collect();
    let schedule = Schedule::new(n, CollectiveKind::Composite, "direct", steps).unwrap();
    let paper = CostParams::paper_defaults();
    for params in [
        paper,
        CostParams {
            delta_s: 0.0,
            ..paper
        },
    ] {
        let cfg = RunConfig::with_params(params);
        for jobs in 1..=2 {
            let tenants: Vec<TenantSpec> = (0..jobs)
                .map(|j| TenantSpec {
                    name: format!("job {j}"),
                    ports: (j * n..(j + 1) * n).collect(),
                    base_config: Matching::shift(n, 1).unwrap(),
                    schedule: schedule.clone(),
                    switch_schedule: SwitchSchedule::all_matched(schedule.num_steps()),
                    arrival_s: 0.0,
                })
                .collect();
            let mut rings: Vec<(usize, usize)> = Vec::new();
            for t in &tenants {
                rings.extend(t.global_base().unwrap().pairs());
            }
            let mut fabric = CircuitSwitch::new(
                Matching::from_pairs(jobs * n, &rings).unwrap(),
                ReconfigModel::constant(5e-6).unwrap(),
            );
            let mut recorded = Recorded {
                job_of_slot: (0..jobs).collect(),
                ..Recorded::default()
            };
            let results =
                execute_tenants(&mut fabric, &tenants, &cfg, Some(&mut recorded)).unwrap();
            let case = format!("{jobs} jobs, delta {} s", params.delta_s);
            for r in &results {
                assert!(r.is_ok(), "{case}: {r:?}");
            }
            assert_eq!(recorded.steps.len(), jobs * schedule.num_steps(), "{case}");
            let jobs: Vec<(Vec<usize>, Schedule)> = tenants
                .iter()
                .map(|t| (t.ports.clone(), t.schedule.clone()))
                .collect();
            assert_eq!(
                assert_resolved_from_scratch(&recorded, &jobs, &cfg),
                0,
                "{case}: no step relays"
            );
        }
    }
}
