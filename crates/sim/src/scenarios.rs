//! Named multi-tenant fabric scenarios.
//!
//! The workload mixes the multi-tenant executor ([`crate::tenant`]) is
//! meant for, packaged as reproducible generators: every scenario is a
//! fully deterministic function of its arguments — no RNG, no clocks — so
//! scenario runs are bit-identical across machines and `APS_THREADS`
//! settings, and the bench harness (`fig_multitenant`) can gate on their
//! reports byte-for-byte.
//!
//! Three mixes cover the deployment patterns the paper's vision section
//! anticipates for shared scale-up domains:
//!
//! * [`mixed_collectives`] — heterogeneous jobs side by side: a ring
//!   AllReduce (data-parallel training), an MoE All-to-All token shuffle,
//!   and a 2-D stencil halo exchange, each on its own partition of one
//!   domain, with a few ports left idle.
//! * [`skewed_tenants`] — one large tenant next to two small ones: the
//!   large tenant's long schedule keeps the controller warm while the
//!   small tenants repeatedly arbitrate for it.
//! * [`staggered_arrivals`] — identical jobs arriving in a rolling
//!   cadence, the classic queueing picture for a shared fabric.
//!
//! Tenant switch schedules default to simple static policies
//! (reconfiguration-heavy jobs matched, ring-friendly jobs on base); use
//! [`Scenario::plan`] to hand each tenant's decisions to any
//! [`aps_core::controller::Controller`] — the same eq. (7) machinery the
//! single-tenant sweeps use. [`Scenario::run_on`] executes the mix on a
//! fabric, e.g. the fresh circuit switch [`Scenario::fabric`] builds.

pub mod hetero;

use crate::error::SimError;
use crate::exec::RunConfig;
use crate::tenant::{execute_tenants, TenantReport, TenantSpec};
use aps_collectives::{allreduce, alltoall, stencil, Collective};
use aps_core::controller::Controller;
use aps_core::sweep::{plan_jobs_on, PlanJob};
use aps_core::{CoreError, SwitchSchedule};
use aps_cost::{CostParams, ReconfigModel};
use aps_fabric::{CircuitSwitch, Fabric, FabricState};
use aps_matrix::Matching;
use aps_par::Pool;
use aps_topology::builders::from_matching;

/// A ready-to-run multi-tenant workload: a fabric size, an initial
/// (partition-respecting) configuration, and the tenant specs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (stable identifier used by benches and reports).
    pub name: String,
    /// Fabric port count (tenants may leave ports idle).
    pub n: usize,
    /// The tenants sharing the fabric.
    pub tenants: Vec<TenantSpec>,
}

impl Scenario {
    /// The union of the tenants' base configurations — the fabric's
    /// initial state, with idle ports unconnected.
    ///
    /// # Errors
    ///
    /// [`SimError::ConfigConflict`] when tenant bases overlap on a port
    /// (user-built scenarios; the named generators always partition), and
    /// whatever [`TenantSpec::global_base`] raises per tenant.
    pub fn initial_config(&self) -> Result<Matching, SimError> {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for t in &self.tenants {
            let base = t.global_base()?;
            pairs.extend(base.pairs());
        }
        Matching::from_pairs(self.n, &pairs).map_err(|source| SimError::ConfigConflict { source })
    }

    /// A circuit-switch fabric initialized for this scenario.
    ///
    /// # Errors
    ///
    /// See [`Scenario::initial_config`].
    pub fn fabric(&self, reconfig: ReconfigModel) -> Result<CircuitSwitch, SimError> {
        Ok(CircuitSwitch::new(self.initial_config()?, reconfig))
    }

    /// Replaces every tenant's switch schedule with the one `controller`
    /// chooses for its own partition — planned against the circuit
    /// topology its `base_config` actually realizes — in parallel on
    /// `pool` via [`plan_jobs_on`], which fixes the θ solver and the
    /// reconfiguration accounting at the paper's defaults.
    /// This is the multi-tenant face of the controller abstraction: each
    /// job adapts independently; the fabric arbitrates the shared
    /// controller.
    ///
    /// # Errors
    ///
    /// Propagates planning errors (steps unroutable on the tenant's base,
    /// bad parameters).
    pub fn plan(
        &mut self,
        pool: &Pool,
        controller: &dyn Controller,
        params: CostParams,
        reconfig: ReconfigModel,
    ) -> Result<(), CoreError> {
        let jobs: Vec<PlanJob> = self
            .tenants
            .iter()
            .map(|t| PlanJob {
                base: from_matching(&t.base_config),
                schedule: t.schedule.clone(),
            })
            .collect();
        let plans = plan_jobs_on(pool, &jobs, controller, params, reconfig)?;
        for (t, (schedule, _)) in self.tenants.iter_mut().zip(plans) {
            t.switch_schedule = schedule;
        }
        Ok(())
    }

    /// Runs the scenario on `fabric` — a fresh [`Scenario::fabric`], a
    /// heterogeneous medium ([`hetero`]) or a pre-faulted device. The
    /// fabric's configuration is first reset to
    /// [`Scenario::initial_config`]; its device clock, faults and
    /// statistics are left as the caller set them (rewind with the
    /// device's `reset_clock` for a fresh run).
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] when the fabric's port count
    /// differs from the scenario's, the errors of
    /// [`Scenario::initial_config`], and the structural errors of
    /// [`execute_tenants`]; per-tenant failures land in the returned
    /// per-tenant results.
    pub fn run_on(
        &self,
        fabric: &mut dyn Fabric,
        cfg: &RunConfig,
    ) -> Result<Vec<Result<TenantReport, SimError>>, SimError> {
        if fabric.n() != self.n {
            return Err(SimError::DimensionMismatch {
                fabric: fabric.n(),
                collective: self.n,
            });
        }
        let state = FabricState {
            config: self.initial_config()?,
            busy_until: fabric.busy_until(),
        };
        fabric.load_state(&state).map_err(SimError::Fabric)?;
        execute_tenants(fabric, &self.tenants, cfg, None)
    }
}

/// Builds one tenant on `ports` with a ring base over the partition.
fn tenant(
    name: &str,
    ports: Vec<usize>,
    collective: Collective,
    switch_schedule: SwitchSchedule,
    arrival_s: f64,
) -> TenantSpec {
    let n = ports.len();
    TenantSpec {
        name: name.into(),
        ports,
        base_config: Matching::shift(n, 1).expect("partitions have ≥ 2 ports"),
        schedule: collective.schedule,
        switch_schedule,
        arrival_s,
    }
}

/// Ring AllReduce + MoE All-to-All + 2-D stencil halo exchange sharing a
/// 32-port domain (4 ports idle). `bytes` is the AllReduce gradient volume
/// per node; the All-to-All moves `2·bytes` of tokens and the stencil
/// exchanges `bytes/8` halo strips.
///
/// # Panics
///
/// Never for positive finite `bytes` (collective builders validate).
pub fn mixed_collectives(bytes: f64) -> Scenario {
    let ring = allreduce::ring::build(8, bytes).expect("valid ring allreduce");
    let ring_steps = ring.schedule.num_steps();
    let moe = alltoall::linear_shift(8, 2.0 * bytes).expect("valid all-to-all");
    let moe_steps = moe.schedule.num_steps();
    let halo = stencil::halo_2d(3, 4, bytes / 8.0).expect("valid halo exchange");
    let halo_steps = halo.schedule.num_steps();
    Scenario {
        name: "mixed-collectives".into(),
        n: 32,
        tenants: vec![
            // Ring AllReduce is ring-native: stays on base, never touches
            // the controller.
            tenant(
                "ring-allreduce",
                (0..8).collect(),
                ring,
                SwitchSchedule::all_base(ring_steps),
                0.0,
            ),
            // All-to-All shifts are exactly the congestion-heavy patterns
            // reconfiguration serves.
            tenant(
                "moe-alltoall",
                (8..16).collect(),
                moe,
                SwitchSchedule::all_matched(moe_steps),
                0.0,
            ),
            // Halo wrap shifts are ±1 / ±cols: only the ±cols directions
            // profit from matching, but the static policy here is
            // all-matched; `Scenario::plan` refines it.
            tenant(
                "stencil-halo",
                (16..28).collect(),
                halo,
                SwitchSchedule::all_matched(halo_steps),
                0.0,
            ),
        ],
    }
}

/// One 16-port tenant next to two 4-port tenants on a 24-port domain —
/// skewed partition sizes, all running bandwidth-optimal AllReduce on
/// matched schedules so the controller stays contended.
///
/// # Panics
///
/// Never for positive finite `bytes`.
pub fn skewed_tenants(bytes: f64) -> Scenario {
    let mk = |n: usize, b: f64| allreduce::halving_doubling::build(n, b).expect("valid allreduce");
    let big = mk(16, bytes);
    let big_steps = big.schedule.num_steps();
    let small_a = mk(4, bytes / 4.0);
    let small_a_steps = small_a.schedule.num_steps();
    let small_b = mk(4, bytes / 2.0);
    let small_b_steps = small_b.schedule.num_steps();
    Scenario {
        name: "skewed-tenants".into(),
        n: 24,
        tenants: vec![
            tenant(
                "big-train",
                (0..16).collect(),
                big,
                SwitchSchedule::all_matched(big_steps),
                0.0,
            ),
            tenant(
                "small-a",
                (16..20).collect(),
                small_a,
                SwitchSchedule::all_matched(small_a_steps),
                0.0,
            ),
            tenant(
                "small-b",
                (20..24).collect(),
                small_b,
                SwitchSchedule::all_matched(small_b_steps),
                0.0,
            ),
        ],
    }
}

/// Three identical 8-port AllReduce jobs arriving 20 µs apart on a
/// 24-port domain — the rolling-submission pattern of a shared cluster.
///
/// # Panics
///
/// Never for positive finite `bytes`.
pub fn staggered_arrivals(bytes: f64) -> Scenario {
    let tenants = (0..3)
        .map(|k| {
            let c = allreduce::halving_doubling::build(8, bytes).expect("valid allreduce");
            let steps = c.schedule.num_steps();
            tenant(
                &format!("job-{k}"),
                (8 * k..8 * (k + 1)).collect(),
                c,
                SwitchSchedule::all_matched(steps),
                20e-6 * k as f64,
            )
        })
        .collect();
    Scenario {
        name: "staggered-arrivals".into(),
        n: 24,
        tenants,
    }
}

/// Every named scenario at the given base volume, in a stable order.
pub fn all(bytes: f64) -> Vec<Scenario> {
    vec![
        mixed_collectives(bytes),
        skewed_tenants(bytes),
        staggered_arrivals(bytes),
    ]
}

/// Looks a scenario up by its stable name.
pub fn by_name(name: &str, bytes: f64) -> Option<Scenario> {
    all(bytes).into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_core::controller::DpPlanned;
    use aps_cost::units::MIB;

    fn run(s: &Scenario, reconfig: ReconfigModel) -> Vec<Result<TenantReport, SimError>> {
        let mut fabric = s.fabric(reconfig).unwrap();
        s.run_on(&mut fabric, &RunConfig::paper_defaults()).unwrap()
    }

    fn plan(s: &mut Scenario, controller: &dyn Controller, reconfig: ReconfigModel) {
        s.plan(
            &Pool::serial(),
            controller,
            CostParams::paper_defaults(),
            reconfig,
        )
        .unwrap();
    }

    #[test]
    fn scenarios_are_well_formed_and_run() {
        let reconfig = ReconfigModel::constant(5e-6).unwrap();
        for scenario in all(MIB) {
            let config = scenario.initial_config().unwrap();
            assert_eq!(config.n(), scenario.n);
            let reports = run(&scenario, reconfig);
            assert_eq!(reports.len(), scenario.tenants.len());
            for (t, r) in scenario.tenants.iter().zip(&reports) {
                let r = r.as_ref().unwrap_or_else(|e| panic!("{}: {e}", t.name));
                assert!(r.finish_ps > r.arrival_ps, "{} made progress", t.name);
                assert_eq!(r.report.steps.len(), t.schedule.num_steps());
            }
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        let reconfig = ReconfigModel::constant(5e-6).unwrap();
        for (a, b) in all(4.0 * MIB).into_iter().zip(all(4.0 * MIB)) {
            let ra = run(&a, reconfig);
            let rb = run(&b, reconfig);
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
            }
        }
    }

    #[test]
    fn by_name_finds_every_scenario() {
        for s in all(MIB) {
            assert_eq!(by_name(&s.name, MIB).unwrap().name, s.name);
        }
        assert!(by_name("no-such-mix", MIB).is_none());
    }

    #[test]
    fn controllers_plan_scenarios_and_opt_dominates() {
        use aps_core::controller::{shipped, AlwaysReconfigure, Static};
        let reconfig = ReconfigModel::constant(10e-6).unwrap();

        // Planning with Static/AlwaysReconfigure produces the trivial
        // schedules on every tenant.
        let mut s = skewed_tenants(4.0 * MIB);
        plan(&mut s, &Static, reconfig);
        for t in &s.tenants {
            assert_eq!(
                t.switch_schedule,
                SwitchSchedule::all_base(t.schedule.num_steps())
            );
        }
        plan(&mut s, &AlwaysReconfigure, reconfig);
        for t in &s.tenants {
            assert_eq!(
                t.switch_schedule,
                SwitchSchedule::all_matched(t.schedule.num_steps())
            );
        }

        // The DP plan's total makespan is never beaten by any other
        // shipped controller on the same (contention-free) mix.
        let mut planned = mixed_collectives(4.0 * MIB);
        plan(&mut planned, &DpPlanned, reconfig);
        let opt_worst = run(&planned, reconfig)
            .into_iter()
            .map(|r| r.unwrap().makespan_s())
            .fold(0.0f64, f64::max);
        assert!(opt_worst > 0.0);
        for ctl in shipped() {
            let mut alt = mixed_collectives(4.0 * MIB);
            plan(&mut alt, ctl, reconfig);
            let reports = run(&alt, reconfig);
            assert_eq!(reports.len(), alt.tenants.len(), "{}", ctl.name());
            for r in reports {
                assert!(r.is_ok(), "{}", ctl.name());
            }
        }
    }

    #[test]
    fn planning_adapts_to_the_message_size_regime() {
        let reconfig = ReconfigModel::constant(10e-6).unwrap();

        // Tiny volumes: α_r dwarfs every transfer, the DP keeps all
        // tenants on base — no reconfiguration events at all.
        let mut small = mixed_collectives(8.0 * 1024.0);
        plan(&mut small, &DpPlanned, reconfig);
        for (t, r) in small.tenants.iter().zip(run(&small, reconfig)) {
            let r = r.unwrap();
            assert_eq!(r.report.reconfig_events(), 0, "{}", t.name);
            assert_eq!(r.arbitration_ps(), 0, "{}", t.name);
        }

        // Huge volumes: congestion on the base ring dominates and the
        // long-distance steps reconfigure again.
        let mut big = mixed_collectives(64.0 * MIB);
        plan(&mut big, &DpPlanned, reconfig);
        let reports = run(&big, reconfig);
        let stencil = reports[2].as_ref().unwrap();
        assert!(stencil.report.reconfig_events() > 0);
    }
}
