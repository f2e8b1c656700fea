//! Multi-tenant execution: several jobs share one photonic fabric.
//!
//! Scale-up domains are rarely dedicated to a single collective: the
//! deployment model the photonic-systems literature anticipates is a
//! domain *partitioned* between concurrent jobs — a training job's
//! gradient AllReduce next to an MoE token shuffle next to an HPC halo
//! exchange. This module executes such mixes: every [`TenantSpec`] owns a
//! disjoint set of the fabric's ports and runs its own collective schedule
//! there, while all tenants contend for the **one** fabric controller.
//! [`execute_tenants`] admits each tenant into a
//! [`crate::service::ServiceExecutor`] at its arrival and drains the
//! executor, so tenants run through the same step loop as every other
//! entry point.
//!
//! ## Model
//!
//! * **Partitioned circuits** — tenant circuits connect only the tenant's
//!   own ports. A tenant's reconfiguration target overrides its ports and
//!   keeps every other circuit in place, so one tenant reconfiguring never
//!   rewires another (a cross-partition circuit left over from the initial
//!   configuration is torn down the first time a tenant claims its RX
//!   port).
//! * **Controller arbitration** — reconfiguration requests are granted
//!   first-come-first-served through [`Fabric::request_when_free`]; a
//!   tenant arriving while the controller is busy queues, and the wait is
//!   recorded per step as `arbitration_ps` and per tenant as
//!   [`TenantReport::arbitration_ps`]. A step whose circuits are already
//!   in place (e.g. a base step after a base step) never touches the
//!   controller and therefore never queues.
//! * **Fault isolation** — a tenant whose step fails (e.g. a stuck port
//!   disconnects one of its pairs) stops with a tenant-tagged
//!   [`SimError::Tenant`]; the remaining tenants keep running and their
//!   reports are unaffected.
//!
//! Execution order is deterministic: the tenant with the earliest next
//! fabric request runs its next step, ties broken by tenant index — no
//! randomness, no wall-clock, bit-identical results at any `APS_THREADS`.

use crate::error::SimError;
use crate::exec::{checked_picos, RunConfig};
use crate::record::RecordSink;
use crate::report::SimReport;
use crate::service::{Decider, Demand, Job, ServiceExecutor, ServiceSwitching};
use aps_cost::units::Picos;
use aps_fabric::Fabric;
use aps_matrix::Matching;

/// One job of a multi-tenant run: a collective schedule bound to a
/// partition of the fabric's ports.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, for reports and error tagging.
    pub name: String,
    /// Global fabric ports owned by the tenant; local rank `i` of the
    /// collective maps to `ports[i]`. Must be disjoint from every other
    /// tenant's ports.
    pub ports: Vec<usize>,
    /// Circuit configuration realizing the tenant's base topology, in
    /// *local* coordinates (e.g. `Matching::shift(ports.len(), 1)` for a
    /// ring over the partition).
    pub base_config: Matching,
    /// The collective to execute, over `ports.len()` local ranks.
    pub schedule: aps_collectives::Schedule,
    /// Per-step base/matched choices.
    pub switch_schedule: aps_core::SwitchSchedule,
    /// Job arrival time: the tenant's first step cannot start earlier.
    pub arrival_s: f64,
}

impl TenantSpec {
    /// The tenant's base configuration mapped to global fabric ports.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] when the base configuration spans
    /// more ranks than the port list, and [`SimError::ConfigConflict`]
    /// when the port list maps two circuits onto the same global port
    /// (duplicate entries in [`TenantSpec::ports`]).
    pub fn global_base(&self) -> Result<Matching, SimError> {
        map_matching(&self.base_config, &self.ports)
    }
}

/// Outcome of one tenant's run on the shared fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name (copied from the spec).
    pub name: String,
    /// Arrival time on the global clock.
    pub arrival_ps: Picos,
    /// When the tenant's last step (including compute) finished, on the
    /// global clock.
    pub finish_ps: Picos,
    /// The tenant's own per-step report and trace (global clock).
    pub report: SimReport,
}

impl TenantReport {
    /// Job completion time in seconds, measured from the tenant's arrival.
    pub fn makespan_s(&self) -> f64 {
        aps_cost::units::picos_to_secs(self.finish_ps - self.arrival_ps)
    }

    /// Total time the tenant's steps spent queued behind other tenants'
    /// reconfigurations (the picosecond face of
    /// [`SimReport::arbitration_s`] on the embedded report).
    pub fn arbitration_ps(&self) -> Picos {
        self.report.steps.iter().map(|s| s.arbitration_ps).sum()
    }
}

/// Maps a matching over local ranks onto global fabric ports. Duplicate
/// ports surface as [`SimError::ConfigConflict`] (a user-built spec can
/// carry them — the executor's partition validation is not on this path).
pub(crate) fn map_matching(local: &Matching, ports: &[usize]) -> Result<Matching, SimError> {
    if local.n() > ports.len() {
        return Err(SimError::DimensionMismatch {
            fabric: ports.len(),
            collective: local.n(),
        });
    }
    let n_global = ports.iter().copied().max().map_or(0, |m| m + 1);
    let pairs: Vec<(usize, usize)> = local.pairs().map(|(s, d)| (ports[s], ports[d])).collect();
    Matching::from_pairs(n_global.max(local.n()), &pairs)
        .map_err(|source| SimError::ConfigConflict { source })
}

/// Executor-owned buffers for [`tenant_target`], recycled every step so
/// the target assembly touches no heap once warm.
#[derive(Debug)]
pub(crate) struct TargetScratch {
    pairs: Vec<(usize, usize)>,
    rx_claimed: Vec<bool>,
    has_src: Vec<bool>,
    target: Matching,
}

impl Default for TargetScratch {
    fn default() -> Self {
        Self {
            pairs: Vec::new(),
            rx_claimed: Vec::new(),
            has_src: Vec::new(),
            target: Matching::empty(0),
        }
    }
}

/// Builds the global reconfiguration target for tenant `me` (the owner of
/// `ports` in `owner`) into `buf`: the tenant's desired circuits on its own
/// ports, everything else kept as-is. Foreign circuits landing on an RX
/// port the tenant claims are dropped (they can only exist if the initial
/// configuration crossed partitions).
pub(crate) fn tenant_target<'a>(
    current: &Matching,
    ports: &[usize],
    local_target: &Matching,
    owner: &[Option<usize>],
    me: usize,
    buf: &'a mut TargetScratch,
) -> &'a Matching {
    let n = current.n();
    buf.pairs.clear();
    buf.rx_claimed.clear();
    buf.rx_claimed.resize(n, false);
    for (s, d) in local_target.pairs() {
        let (gs, gd) = (ports[s], ports[d]);
        buf.pairs.push((gs, gd));
        buf.rx_claimed[gd] = true;
    }
    for (s, d) in current.pairs() {
        if owner[s] != Some(me) && !buf.rx_claimed[d] {
            buf.pairs.push((s, d));
        }
    }
    buf.target
        .refill_from_pairs(n, &buf.pairs, &mut buf.has_src)
        .expect("disjoint tenant circuits form a matching");
    &buf.target
}

/// Executes every tenant's schedule on the shared `fabric`.
///
/// Returns one result per tenant, in input order: a completed
/// [`TenantReport`], or the tenant-tagged error that stopped that tenant.
/// A failing tenant never corrupts another tenant's report — the survivors
/// keep executing on their own partitions.
///
/// An optional [`RecordSink`] observes every committed step in **global
/// execution order** (the deterministic earliest-request interleaving),
/// each record tagged with its tenant index; `None` records nothing and
/// costs nothing.
///
/// Tenant switch schedules come from controllers: see
/// [`crate::scenarios::Scenario::plan`] (or
/// `adaptive_photonics::Experiment::…::plan()`), which lets any
/// [`aps_core::controller::Controller`] choose each tenant's per-step
/// decisions before the mix is executed here.
///
/// # Errors
///
/// Returns a top-level error only for structural problems: overlapping or
/// out-of-range tenant ports ([`SimError::BadTenantPorts`]). Everything
/// else — arrivals off the clock, length mismatches, unroutable pairs,
/// fabric errors — is attributed to its tenant in the per-tenant results.
pub fn execute_tenants(
    fabric: &mut dyn Fabric,
    tenants: &[TenantSpec],
    cfg: &RunConfig,
    sink: Option<&mut dyn RecordSink>,
) -> Result<Vec<Result<TenantReport, SimError>>, SimError> {
    let n = fabric.n();
    // Structural validation: the port partition must be sound before any
    // tenant touches the fabric.
    let mut owned = vec![false; n];
    for (t, spec) in tenants.iter().enumerate() {
        for &p in &spec.ports {
            if p >= n || owned[p] {
                return Err(SimError::BadTenantPorts { tenant: t, port: p });
            }
            owned[p] = true;
        }
    }

    let mut exec = ServiceExecutor::new(n, *cfg, true);
    let slots: Vec<Result<usize, SimError>> = tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let arrival = checked_picos(spec.arrival_s).ok_or(SimError::BadArrival {
                seconds: spec.arrival_s,
            })?;
            let job = Job {
                name: spec.name.clone(),
                ports: spec.ports.clone(),
                base_config: spec.base_config.clone(),
                demand: Demand::Owned(Box::new(spec.schedule.stream())),
                decider: Decider::Switching(ServiceSwitching::Schedule(
                    spec.switch_schedule.clone(),
                )),
                tag: Some(t),
                bound: usize::MAX,
                resume: None,
            };
            Ok(exec.admit_job(t as u64, job, arrival)?.slot)
        })
        .collect();
    exec.drain(fabric, sink);

    Ok(slots
        .into_iter()
        .zip(tenants)
        .enumerate()
        .map(|(t, (slot, spec))| {
            let out = exec
                .remove(slot.map_err(|e| tenant_err(t, spec, e))?)
                .expect("admitted tenants stay resident until removed");
            match out.error {
                Some(e) => Err(tenant_err(t, spec, e)),
                None => Ok(TenantReport {
                    name: out.name,
                    arrival_ps: out.start_ps,
                    finish_ps: out.finish_ps,
                    report: out.report.expect("the executor keeps reports"),
                }),
            }
        })
        .collect())
}

fn tenant_err(t: usize, spec: &TenantSpec, source: SimError) -> SimError {
    SimError::Tenant {
        tenant: t,
        name: spec.name.clone(),
        source: Box::new(source),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_collectives::allreduce;
    use aps_core::SwitchSchedule;
    use aps_cost::units::{secs_to_picos, MIB};
    use aps_cost::ReconfigModel;
    use aps_fabric::CircuitSwitch;
    use proptest::prelude::*;

    fn tenant(name: &str, ports: Vec<usize>, bytes: f64, matched: bool) -> TenantSpec {
        let n = ports.len();
        let schedule = allreduce::halving_doubling::build(n, bytes)
            .unwrap()
            .schedule;
        let s = schedule.num_steps();
        TenantSpec {
            name: name.into(),
            ports,
            base_config: Matching::shift(n, 1).unwrap(),
            schedule,
            switch_schedule: if matched {
                SwitchSchedule::all_matched(s)
            } else {
                SwitchSchedule::all_base(s)
            },
            arrival_s: 0.0,
        }
    }

    /// A fabric initialized to the union of the tenants' base rings, via
    /// the scenario machinery (the single implementation of that union).
    fn fabric_for(n: usize, tenants: &[TenantSpec]) -> CircuitSwitch {
        crate::scenarios::Scenario {
            name: "test".into(),
            n,
            tenants: tenants.to_vec(),
        }
        .fabric(ReconfigModel::constant(5e-6).unwrap())
        .unwrap()
    }

    #[test]
    fn lone_tenant_matches_run_collective() {
        // A single tenant occupying the whole fabric must behave exactly
        // like run_scheduled on a dedicated fabric.
        let t = tenant("solo", (0..8).collect(), MIB, true);
        let mut fab = fabric_for(8, std::slice::from_ref(&t));
        let cfg = RunConfig::paper_defaults();
        let reports = execute_tenants(&mut fab, std::slice::from_ref(&t), &cfg, None).unwrap();
        let got = reports[0].as_ref().unwrap();

        let mut solo = CircuitSwitch::new(
            t.global_base().unwrap(),
            ReconfigModel::constant(5e-6).unwrap(),
        );
        let want = crate::exec::run_scheduled(
            &mut solo,
            &t.base_config,
            &t.schedule,
            &t.switch_schedule,
            &cfg,
        )
        .unwrap();
        assert_eq!(got.report, want);
        assert_eq!(got.arbitration_ps(), 0);
        assert_eq!(got.finish_ps, want.total_ps);
    }

    #[test]
    fn tenants_on_disjoint_partitions_do_not_slow_each_other_on_base() {
        // Base-only tenants never reconfigure: no controller contention,
        // both finish exactly when they would alone.
        let a = tenant("a", (0..8).collect(), MIB, false);
        let b = tenant("b", (8..16).collect(), 4.0 * MIB, false);
        let cfg = RunConfig::paper_defaults();
        let mut fab = fabric_for(16, &[a.clone(), b.clone()]);
        let reports = execute_tenants(&mut fab, &[a.clone(), b.clone()], &cfg, None).unwrap();
        for (spec, rep) in [a, b].iter().zip(&reports) {
            let rep = rep.as_ref().unwrap();
            // Each tenant alone on the same fabric produces the same report.
            let mut solo_fab = fabric_for(16, std::slice::from_ref(spec));
            let solo =
                execute_tenants(&mut solo_fab, std::slice::from_ref(spec), &cfg, None).unwrap();
            assert_eq!(rep, solo[0].as_ref().unwrap(), "{}", rep.name);
            assert_eq!(rep.arbitration_ps(), 0, "{}", rep.name);
            assert_eq!(rep.report.reconfig_events(), 0);
        }
    }

    #[test]
    fn controller_contention_is_charged_as_arbitration() {
        // Two matched tenants arriving together: their step-0
        // reconfigurations collide on the single controller; the loser
        // queues and the wait shows up as arbitration, tie broken by
        // tenant index.
        let a = tenant("a", (0..8).collect(), MIB, true);
        let b = tenant("b", (8..16).collect(), MIB, true);
        let cfg = RunConfig::paper_defaults();
        let mut fab = fabric_for(16, &[a.clone(), b.clone()]);
        let reports = execute_tenants(&mut fab, &[a, b], &cfg, None).unwrap();
        let ra = reports[0].as_ref().unwrap();
        let rb = reports[1].as_ref().unwrap();
        // Step 0: identical request instants, tenant 0 wins the tie and
        // tenant 1 queues for the full 5 µs reconfiguration.
        assert_eq!(
            ra.report.steps[0].arbitration_ps, 0,
            "tenant 0 wins the tie"
        );
        assert_eq!(rb.report.steps[0].arbitration_ps, secs_to_picos(5e-6));
        assert!(rb.arbitration_ps() >= secs_to_picos(5e-6));
        assert!(rb.finish_ps > ra.finish_ps);
        // The wait is part of the visible reconfiguration stall.
        assert!(rb.report.steps[0].reconfig_ps >= rb.report.steps[0].arbitration_ps);
    }

    #[test]
    fn staggered_arrival_shifts_the_whole_timeline() {
        let mut a = tenant("early", (0..8).collect(), MIB, true);
        let mut b = tenant("late", (8..16).collect(), MIB, true);
        a.arrival_s = 0.0;
        b.arrival_s = 10e-3; // long after `early` finished: no contention
        let cfg = RunConfig::paper_defaults();
        let mut fab = fabric_for(16, &[a.clone(), b.clone()]);
        let reports = execute_tenants(&mut fab, &[a, b], &cfg, None).unwrap();
        let ra = reports[0].as_ref().unwrap();
        let rb = reports[1].as_ref().unwrap();
        assert_eq!(rb.arrival_ps, secs_to_picos(10e-3));
        assert!(rb.finish_ps >= rb.arrival_ps);
        assert_eq!(rb.arbitration_ps(), 0);
        // Same job, same partition size: identical makespans.
        assert_eq!(ra.makespan_s(), rb.makespan_s());
    }

    #[test]
    fn overlapping_ports_are_rejected_structurally() {
        let a = tenant("a", (0..8).collect(), MIB, true);
        let b = tenant("b", (7..15).collect(), MIB, true);
        let mut fab = fabric_for(16, std::slice::from_ref(&a));
        let err =
            execute_tenants(&mut fab, &[a, b], &RunConfig::paper_defaults(), None).unwrap_err();
        assert!(matches!(
            err,
            SimError::BadTenantPorts { tenant: 1, port: 7 }
        ));
    }

    #[test]
    fn records_keep_the_tenant_index_after_a_failed_admission() {
        // Tenant 0 fails admission, so tenant 1 runs in executor slot 0;
        // its records must still carry tenant index 1.
        struct Tags(Vec<Option<usize>>);
        impl RecordSink for Tags {
            fn record_step(&mut self, record: &crate::record::StepRecord<'_>) {
                self.0.push(record.tenant);
            }
        }
        let mut a = tenant("bad", (0..8).collect(), MIB, true);
        a.switch_schedule = SwitchSchedule::all_base(1);
        let b = tenant("good", (8..16).collect(), MIB, true);
        let mut fab = fabric_for(16, &[a.clone(), b.clone()]);
        let mut tags = Tags(Vec::new());
        let cfg = RunConfig::paper_defaults();
        let reports = execute_tenants(&mut fab, &[a, b], &cfg, Some(&mut tags)).unwrap();
        assert!(reports[0].is_err() && reports[1].is_ok());
        assert_eq!(
            tags.0.len(),
            reports[1].as_ref().unwrap().report.steps.len()
        );
        assert!(tags.0.iter().all(|&t| t == Some(1)));
    }

    #[test]
    fn concurrent_phase_sums_past_the_clock_saturate() {
        // At 1e-6 Gbps a 1.25e9-byte step transfers for 1e19 ps. Each
        // tenant's own clock fits in a `Picos`, but the two transfers run
        // side by side on disjoint ports and their sum does not.
        let d = aps_cost::CostParams::paper_defaults();
        let cfg =
            RunConfig::with_params(aps_cost::CostParams::new(d.alpha_s, 1e-6, d.delta_s).unwrap());
        let slow = |name: &str, ports: Vec<usize>| TenantSpec {
            name: name.into(),
            ports,
            base_config: Matching::shift(2, 1).unwrap(),
            schedule: aps_collectives::Schedule::new(
                2,
                aps_collectives::CollectiveKind::Composite,
                "slow",
                vec![aps_collectives::Step {
                    matching: Matching::shift(2, 1).unwrap(),
                    bytes_per_pair: 1.25e9,
                }],
            )
            .unwrap(),
            switch_schedule: SwitchSchedule::all_base(1),
            arrival_s: 0.0,
        };
        let tenants = [slow("a", vec![0, 1]), slow("b", vec![2, 3])];
        let mut fab = fabric_for(4, &tenants);
        let reports = execute_tenants(&mut fab, &tenants, &cfg, None).unwrap();
        for r in &reports {
            let r = r.as_ref().unwrap();
            assert!(r.report.steps[0].transfer_ps > Picos::MAX / 2, "{}", r.name);
            assert!(r.finish_ps >= r.report.steps[0].transfer_ps, "{}", r.name);
        }
    }

    #[test]
    fn length_mismatch_is_tenant_tagged_and_isolated() {
        let a = tenant("good", (0..8).collect(), MIB, true);
        let mut b = tenant("bad", (8..16).collect(), MIB, true);
        b.switch_schedule = SwitchSchedule::all_base(1);
        let cfg = RunConfig::paper_defaults();
        let mut fab = fabric_for(16, &[a.clone(), b.clone()]);
        let reports = execute_tenants(&mut fab, &[a, b], &cfg, None).unwrap();
        assert!(reports[0].is_ok());
        match reports[1].as_ref().unwrap_err() {
            SimError::Tenant {
                tenant: 1,
                name,
                source,
            } => {
                assert_eq!(name, "bad");
                assert!(matches!(**source, SimError::ScheduleLengthMismatch { .. }));
            }
            other => panic!("expected tenant-tagged error, got {other}"),
        }
    }

    /// A partial matching over `keys.len()` ports: port `i` sends to the
    /// `i`-th port in ascending key order when `keep[i]` and that port is
    /// not `i`.
    fn keyed_matching(keys: &[u64], keep: &[bool]) -> Matching {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let pairs: Vec<(usize, usize)> = (0..keys.len())
            .filter(|&i| keep[i] && order[i] != i)
            .map(|i| (i, order[i]))
            .collect();
        Matching::from_pairs(keys.len(), &pairs).unwrap()
    }

    /// Draws of `n` sort keys and keep flags: the stuff of one
    /// [`keyed_matching`].
    fn arb_keyed(n: usize) -> impl Strategy<Value = (Vec<u64>, Vec<bool>)> {
        (
            prop::collection::vec(any::<u64>(), n),
            prop::collection::vec(any::<bool>(), n),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A matching has one sender per receiver. Once the job's own ports
        /// feed every RX port its local target claims, no foreign circuit
        /// can reach those ports, so comparing each rank's circuit with its
        /// local target decides whether the fabric holds the job's target.
        #[test]
        fn circuits_are_in_place_iff_every_rank_sends_where_its_target_says(
            (picked, (shuffled, order), (local_keys, local_keep), (keys, keep), (mode, cut)) in
                (2usize..16).prop_flat_map(|n| (
                    prop::sample::subsequence((0..n).collect::<Vec<_>>(), 1..=n),
                    (any::<bool>(), prop::collection::vec(any::<u64>(), n)),
                    arb_keyed(n),
                    arb_keyed(n),
                    (0usize..3, any::<usize>()),
                ))
        ) {
            let n = keys.len();
            let mut ports = picked;
            if shuffled {
                ports.sort_by_key(|&p| order[p]);
            }
            let k = ports.len();
            let local = keyed_matching(&local_keys[..k], &local_keep[..k]);
            let mut owner = vec![None; n];
            for &p in &ports {
                owner[p] = Some(0);
            }
            let mut buf = TargetScratch::default();
            // Circuits from anywhere to anywhere, foreign ones into the
            // job's RX ports included.
            let random = keyed_matching(&keys, &keep);
            let target = tenant_target(&random, &ports, &local, &owner, 0, &mut buf).clone();
            let current = match mode {
                // The job's target, beside the foreign circuits it keeps.
                0 => target,
                // The same less one circuit, the job's or a foreign one.
                1 if !target.is_empty() => {
                    let mut pairs: Vec<(usize, usize)> = target.pairs().collect();
                    pairs.remove(cut % pairs.len());
                    Matching::from_pairs(n, &pairs).unwrap()
                }
                _ => random,
            };
            let in_place = *tenant_target(&current, &ports, &local, &owner, 0, &mut buf) == current;
            let ranks_agree = (0..k)
                .all(|r| current.dst_of(ports[r]) == local.dst_of(r).map(|d| ports[d]));
            prop_assert_eq!(in_place, ranks_agree, "ports {:?}, local {:?}", ports, local);
            if mode == 0 {
                prop_assert!(in_place);
            }
        }
    }
}
