//! The workspace's front door: a typed [`Experiment`] builder that binds a
//! scale-up **domain** (base topology, cost model, reconfiguration
//! pricing) to a **workload** (one collective, a collective family, or a
//! multi-tenant scenario) and a **controller** (any
//! [`Controller`] implementation), then runs it:
//!
//! ```text
//! Experiment::domain(base)          one fixed collective:  .collective(&c)
//!     .reconfig(model)              a size-parameterized   .collective_family(build)
//!     .controller(Greedy)           family (sweeps):
//!     .…                            a shared fabric:       .scenario(s)
//!                                   a lazy demand stream:  .workload(w)
//! ```
//!
//! The workload choice is encoded in the type, so each experiment state
//! only offers the operations that make sense for it:
//!
//! | state | built by | terminal operations |
//! |---|---|---|
//! | [`Experiment<Single>`] | [`Experiment::collective`] | [`plan`](Experiment::plan), [`compare`](Experiment::compare), [`simulate`](Experiment::simulate) |
//! | [`Experiment<Family>`] | [`Experiment::collective_family`] | [`sweep`](Experiment::sweep) |
//! | [`Experiment<Shared>`] | [`Experiment::scenario`] | [`plan`](Experiment::<Shared>::plan), [`simulate`](Experiment::<Shared>::simulate) |
//! | [`Experiment<Streaming>`] | [`Experiment::workload`] | [`plan`](Experiment::<Streaming>::plan) (finite), [`simulate`](Experiment::<Streaming>::simulate), [`simulate_summary`](Experiment::<Streaming>::simulate_summary) |
//! | [`Experiment<Service>`] | [`Experiment::service`] | [`run`](Experiment::<Service>::run), [`run_on`](Experiment::<Service>::run_on) |
//!
//! Every run is deterministic: controllers are required to be pure
//! functions of their observations, batch work runs on an
//! [`aps_par::Pool`] with chunked index assignment, and the simulator is
//! clocked in integer picoseconds — results are bit-identical at any
//! `APS_THREADS` setting.

use aps_ablate::{AblateError, AblationPlan, AblationReport, Cell, FactorKey, KpiValues};
use aps_collectives::{
    allreduce, alltoall, broadcast, Collective, CollectiveError, Schedule, ScheduleStream, Workload,
};
use aps_core::controller::{by_name, Controller, DpPlanned, Static};
use aps_core::sweep::{run_sweep_on, SweepCell, SweepGrid, SweepResult};
use aps_core::{
    evaluate, CoreError, CostReport, ReconfigAccounting, SwitchSchedule, SwitchingProblem,
};
use aps_cost::{CostParams, ReconfigModel};
use aps_faas::{run_service, AdmissionPolicy, FaasError, ServiceReport, TenantClass};
use aps_fabric::{CircuitSwitch, Fabric};
use aps_flow::{ThetaCache, ThroughputSolver};
use aps_matrix::Matching;
use aps_par::Pool;
use aps_replay::{diff_records, DivergenceReport, Recorder, ReplayRecord, Snapshot};
use aps_sim::record::RecordSink;
use aps_sim::{
    run_adaptive, RunConfig, Scenario, SimError, SimReport, StreamPricing, TenantReport,
};
use aps_topology::Topology;
use std::fmt;

/// Errors from experiment construction or execution.
///
/// Extend-only (`#[non_exhaustive]`): new workload kinds add variants
/// without breaking downstream matches.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// A planning/optimization error from `aps-core`.
    Core(CoreError),
    /// A simulation error from `aps-sim`.
    Sim(SimError),
    /// A collective-construction error.
    Collective(CollectiveError),
    /// The base topology is not a single circuit configuration, so the
    /// circuit-switch simulator cannot realize it (e.g. a bidirectional
    /// ring on single-transceiver ports). Planning and sweeping still
    /// work; only `simulate()` needs a circuit base.
    BaseNotACircuit,
    /// A planning operation needs the whole demand stream, but the bound
    /// workload reports no upper size bound (e.g. a generator built with
    /// `epochs`/`steps` set to `None`). Streaming simulation
    /// (`simulate`/`simulate_summary`) still works.
    UnboundedWorkload,
    /// An ablation-plan error: invalid plan/sampling, a cell naming an
    /// unknown controller or workload, or registry I/O.
    Ablation(AblateError),
    /// A fabric-as-a-service error: a structurally invalid tenant-class
    /// list, or a partition-allocator invariant violation.
    Service(FaasError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "planning failed: {e}"),
            Self::Sim(e) => write!(f, "simulation failed: {e}"),
            Self::Collective(e) => write!(f, "collective construction failed: {e}"),
            Self::BaseNotACircuit => write!(
                f,
                "the base topology is not realizable as a single circuit configuration"
            ),
            Self::UnboundedWorkload => write!(
                f,
                "planning needs a finite workload, but the bound stream reports no upper \
                 size bound (simulate it instead, or give its generator a finite \
                 epochs/steps count)"
            ),
            Self::Ablation(e) => write!(f, "ablation failed: {e}"),
            Self::Service(e) => write!(f, "service run failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            Self::Sim(e) => Some(e),
            Self::Collective(e) => Some(e),
            Self::Ablation(e) => Some(e),
            Self::Service(e) => Some(e),
            Self::BaseNotACircuit | Self::UnboundedWorkload => None,
        }
    }
}

impl From<FaasError> for ExperimentError {
    fn from(e: FaasError) -> Self {
        Self::Service(e)
    }
}

impl From<AblateError> for ExperimentError {
    fn from(e: AblateError) -> Self {
        Self::Ablation(e)
    }
}

impl From<CoreError> for ExperimentError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<CollectiveError> for ExperimentError {
    fn from(e: CollectiveError) -> Self {
        Self::Collective(e)
    }
}

/// Builder state: domain configured, workload not yet chosen.
pub struct Unbound(());

/// Workload state: one fixed collective schedule. The schedule is held
/// through its [`Workload`] face ([`ScheduleStream`]), so the single-
/// collective path and the streaming path share one demand
/// representation (pinned bit-equivalent by `tests/workload_stream.rs`).
pub struct Single {
    stream: ScheduleStream,
}

impl Single {
    fn schedule(&self) -> &Schedule {
        self.stream.schedule()
    }
}

/// Workload state: a message-size-parameterized collective family.
pub struct Family {
    build: Box<dyn Fn(f64) -> Result<Collective, CollectiveError> + Send + Sync>,
}

/// Workload state: several tenants sharing one fabric.
pub struct Shared {
    scenario: Scenario,
}

/// Workload state: an open-system service — tenant classes whose jobs
/// arrive, run on a port partition, and depart over simulated time.
pub struct Service {
    classes: Vec<TenantClass>,
    admission: AdmissionPolicy,
    max_jobs: Option<u64>,
    keep_job_reports: bool,
}

/// Workload state: a lazily-pulled demand stream (possibly unbounded).
pub struct Streaming {
    workload: Box<dyn Workload>,
    /// Attach an [`aps_replay::Recorder`] to simulation runs.
    record: bool,
    /// One-shot resume point for the next [`Experiment::<Streaming>::simulate_summary`].
    resume: Option<Snapshot>,
    /// The record of the last recorded run, until taken.
    last_record: Option<ReplayRecord>,
    /// The checkpoint of the last recorded summary run, until taken.
    last_snapshot: Option<Snapshot>,
}

/// The result of planning a single-collective experiment: the
/// controller's switch schedule and its cost-model pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Per-step base/matched decisions.
    pub switches: SwitchSchedule,
    /// The eq. (7) cost breakdown of that schedule.
    pub report: CostReport,
}

/// The result of simulating a single-collective experiment: the schedule
/// the controller realized online and the fluid-simulator report, whose
/// trace carries one tagged [`aps_sim::TraceKind::Decision`] event per
/// step.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// The decisions the controller took, step by step.
    pub switches: SwitchSchedule,
    /// The simulator's timing report and event trace.
    pub report: SimReport,
}

/// A configured experiment; see the [module docs](self) for the grammar.
pub struct Experiment<W> {
    base: Topology,
    reconfig: ReconfigModel,
    sim: RunConfig,
    pool: Pool,
    controller: Box<dyn Controller>,
    /// θ memo of `base`, which no setter changes, so every planning call
    /// of the experiment shares it.
    cache: ThetaCache,
    workload: W,
}

impl Experiment<Unbound> {
    /// Starts an experiment on a scale-up domain with `base` as its base
    /// topology. Defaults: paper §3.4 cost parameters, a constant 10 µs
    /// reconfiguration delay, the [`DpPlanned`] controller and an
    /// `APS_THREADS`-sized pool — override any of them with the setters.
    /// Fixed: θ comes from the exact forced-path solver, and every
    /// reconfiguration is charged under the paper's conservative
    /// accounting ([`ReconfigAccounting::PaperConservative`]).
    pub fn domain(base: Topology) -> Self {
        Experiment {
            cache: ThetaCache::new(&base, ThroughputSolver::ForcedPath),
            base,
            reconfig: ReconfigModel::constant(10e-6).expect("valid default delay"),
            sim: RunConfig::paper_defaults(),
            pool: Pool::from_env(),
            controller: Box::new(DpPlanned),
            workload: Unbound(()),
        }
    }

    /// Binds one fixed collective (by its schedule).
    pub fn collective(self, collective: &Collective) -> Experiment<Single> {
        self.schedule(&collective.schedule)
    }

    /// Binds one fixed collective schedule (for composite schedules that
    /// are not a single [`Collective`], e.g. a whole training iteration).
    /// Routes through the schedule's [`Workload`] impl, so this is
    /// exactly `workload(schedule.clone().into_workload())` with the
    /// full-problem planning semantics of the single-collective state.
    pub fn schedule(self, schedule: &Schedule) -> Experiment<Single> {
        self.with_workload(Single {
            stream: schedule.clone().into_workload(),
        })
    }

    /// Binds a lazily-pulled demand stream — any [`Workload`]: a seeded
    /// traffic generator, a training loop, or a materialized schedule's
    /// cursor. Streaming experiments simulate online (the controller
    /// observes a two-step window; see [`aps_sim::stream`]) and never
    /// materialize the step vector, so unbounded workloads are fine; only
    /// [`Experiment::<Streaming>::plan`] requires a finite stream.
    pub fn workload(self, workload: impl Workload + 'static) -> Experiment<Streaming> {
        self.with_workload(Streaming {
            workload: Box::new(workload),
            record: false,
            resume: None,
            last_record: None,
            last_snapshot: None,
        })
    }

    /// Binds a message-size-parameterized collective family — the sweep
    /// workload: `build(bytes)` is invoked per grid row.
    pub fn collective_family<F>(self, build: F) -> Experiment<Family>
    where
        F: Fn(f64) -> Result<Collective, CollectiveError> + Send + Sync + 'static,
    {
        self.with_workload(Family {
            build: Box::new(build),
        })
    }

    /// Binds an open-system service: tenant classes whose jobs arrive
    /// via seeded arrival processes, are admitted onto port partitions,
    /// and depart when their demand runs dry. Defaults to the
    /// [`AdmissionPolicy::Reject`] policy, no job cap, and O(1)
    /// accounting — override with the [`Experiment::<Service>`] setters.
    pub fn service(self, classes: Vec<TenantClass>) -> Experiment<Service> {
        self.with_workload(Service {
            classes,
            admission: AdmissionPolicy::Reject,
            max_jobs: None,
            keep_job_reports: false,
        })
    }

    /// Binds a multi-tenant scenario sharing the fabric.
    pub fn scenario(self, scenario: Scenario) -> Experiment<Shared> {
        self.with_workload(Shared { scenario })
    }

    fn with_workload<W>(self, workload: W) -> Experiment<W> {
        Experiment {
            base: self.base,
            reconfig: self.reconfig,
            sim: self.sim,
            pool: self.pool,
            controller: self.controller,
            cache: self.cache,
            workload,
        }
    }
}

impl<W> Experiment<W> {
    /// Sets the α–β–δ cost parameters (also used by the simulator).
    pub fn params(mut self, params: CostParams) -> Self {
        self.sim.params = params;
        self
    }

    /// Sets the reconfiguration delay model (`α_r`).
    pub fn reconfig(mut self, reconfig: ReconfigModel) -> Self {
        self.reconfig = reconfig;
        self
    }

    /// Sets the simulator configuration (barrier, compute model,
    /// reconfigure/compute overlap). Its embedded cost parameters become
    /// the experiment's.
    pub fn sim_config(mut self, cfg: RunConfig) -> Self {
        self.sim = cfg;
        self
    }

    /// Sets the worker pool batch operations run on.
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Sets the controller that decides, per step, whether the fabric
    /// bends to the collective. Defaults to [`DpPlanned`].
    pub fn controller(mut self, controller: impl Controller + 'static) -> Self {
        self.controller = Box::new(controller);
        self
    }

    /// The active controller's name.
    pub fn controller_name(&self) -> &str {
        self.controller.name()
    }

    /// Lets the experiment's controller choose a switch schedule for
    /// `problem` and prices it.
    fn plan_problem(&self, problem: &SwitchingProblem) -> Result<Plan, ExperimentError> {
        let accounting = ReconfigAccounting::PaperConservative;
        let switches = self.controller.plan(problem, accounting)?;
        let report = evaluate(problem, &switches, accounting)?;
        Ok(Plan { switches, report })
    }

    /// The circuit configuration realizing the base topology, when there
    /// is one.
    fn base_config(&self) -> Result<Matching, ExperimentError> {
        aps_core::problem::config_of_topology(&self.base).ok_or(ExperimentError::BaseNotACircuit)
    }
}

impl Experiment<Single> {
    /// Builds the eq. (7) problem instance for the bound collective —
    /// the hook for [`aps_core::explain`] and custom analyses.
    ///
    /// # Errors
    ///
    /// Fails when a step cannot be routed on the base topology.
    pub fn problem(&mut self) -> Result<SwitchingProblem, ExperimentError> {
        Ok(SwitchingProblem::build(
            &self.base,
            self.workload.schedule(),
            &mut self.cache,
            self.sim.params,
            self.reconfig,
        )?)
    }

    /// Lets the experiment's controller choose the switch schedule and
    /// prices it on the cost model.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction and planning errors.
    pub fn plan(&mut self) -> Result<Plan, ExperimentError> {
        let problem = self.problem()?;
        self.plan_problem(&problem)
    }

    /// Prices the four classic policies (static, BvN, DP optimum,
    /// threshold) on the bound collective — the cell a one-row,
    /// one-column [`sweep`](Experiment::sweep) of it would hold.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction errors.
    pub fn compare(&mut self) -> Result<SweepCell, ExperimentError> {
        Ok(SweepCell::price(&self.problem()?)?)
    }

    /// Executes the collective on a fresh circuit-switch fabric with the
    /// controller deciding each step online; the trace carries one
    /// [`aps_sim::TraceKind::Decision`] event per step with the
    /// controller's rationale.
    ///
    /// # Errors
    ///
    /// Fails when the base topology is not a circuit configuration, plus
    /// any simulator error.
    pub fn simulate(&mut self) -> Result<SimRun, ExperimentError> {
        let base_config = self.base_config()?;
        let mut fabric = CircuitSwitch::new(base_config, self.reconfig);
        self.simulate_on(&mut fabric)
    }

    /// [`Experiment::simulate`] against a caller-supplied fabric (e.g. a
    /// [`aps_fabric::WavelengthFabric`], or a switch with injected
    /// faults). The fabric's current configuration is *not* reset; the
    /// base topology only defines where `ConfigChoice::Base` steps run.
    ///
    /// # Errors
    ///
    /// Fails when the base topology is not a circuit configuration, plus
    /// any simulator error.
    pub fn simulate_on(&mut self, fabric: &mut dyn Fabric) -> Result<SimRun, ExperimentError> {
        let base_config = self.base_config()?;
        let problem = self.problem()?;
        let (switches, report) =
            run_adaptive(fabric, &base_config, &problem, &*self.controller, &self.sim)?;
        Ok(SimRun { switches, report })
    }
}

impl Experiment<Streaming> {
    /// Attaches a deterministic-replay recorder to subsequent simulation
    /// runs ([`simulate`](Experiment::<Streaming>::simulate),
    /// [`simulate_on`](Experiment::<Streaming>::simulate_on),
    /// [`simulate_summary`](Experiment::<Streaming>::simulate_summary)):
    /// each run hashes every committed step into a
    /// [`ReplayRecord`] retrievable with
    /// [`take_record`](Experiment::<Streaming>::take_record), and summary
    /// runs additionally capture a resumable
    /// [`Snapshot`] (see
    /// [`take_snapshot`](Experiment::<Streaming>::take_snapshot)).
    pub fn record(mut self) -> Self {
        self.workload.record = true;
        self
    }

    /// Arms the next [`simulate_summary`](Experiment::<Streaming>::simulate_summary)
    /// call to resume from `snapshot` instead of step 0 (one-shot: the
    /// snapshot is consumed by that run). Implies
    /// [`record`](Experiment::<Streaming>::record), so the resumed
    /// segment's hash chain continues the interrupted run's and the
    /// concatenated record is bit-identical to an uninterrupted one.
    pub fn resume_from(mut self, snapshot: Snapshot) -> Self {
        self.workload.resume = Some(snapshot);
        self.workload.record = true;
        self
    }

    /// The [`ReplayRecord`] of the most recent recorded run, if any
    /// (cleared by taking it). For a resumed run this covers the resumed
    /// segment's frames; its final state hash still covers the whole
    /// stream via the chained snapshot.
    pub fn take_record(&mut self) -> Option<ReplayRecord> {
        self.workload.last_record.take()
    }

    /// The [`Snapshot`] captured at the end of the most recent recorded
    /// [`simulate_summary`](Experiment::<Streaming>::simulate_summary)
    /// run, if any (cleared by taking it). Feed it back through
    /// [`resume_from`](Experiment::<Streaming>::resume_from) to continue
    /// the stream bit-identically.
    pub fn take_snapshot(&mut self) -> Option<Snapshot> {
        self.workload.last_snapshot.take()
    }

    /// Re-executes the experiment from scratch for `record.frames.len()`
    /// steps and diffs the fresh hashes against `record`, frame by frame.
    /// The returned [`DivergenceReport`] is clean for a faithful record
    /// and otherwise names the first diverging step and which field class
    /// (decision / rates / timing / accounting) broke.
    ///
    /// # Errors
    ///
    /// See [`Experiment::<Streaming>::simulate`].
    pub fn verify(&mut self, record: &ReplayRecord) -> Result<DivergenceReport, ExperimentError> {
        let base_config = self.base_config()?;
        self.workload.workload.reset();
        let mut fabric = CircuitSwitch::new(base_config, self.reconfig);
        let mut recorder = Recorder::new(
            self.workload.workload.n(),
            self.controller.name(),
            self.workload.workload.name(),
        );
        aps_sim::run_workload_segment(
            &mut fabric,
            &self.base,
            &mut *self.workload.workload,
            &*self.controller,
            StreamPricing::new(self.reconfig),
            &self.sim,
            None,
            record.frames.len(),
            Some(&mut recorder),
        )?;
        Ok(diff_records(record, &recorder.into_record()))
    }

    /// Materializes the (finite) stream and lets the experiment's
    /// controller choose and price a switch schedule over the whole
    /// problem — planning needs every step at once, so this is only
    /// available when the workload reports an exact upper size bound.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::UnboundedWorkload`] for unbounded streams;
    /// otherwise problem-construction and planning errors.
    pub fn plan(&mut self) -> Result<Plan, ExperimentError> {
        self.workload.workload.reset();
        let Some(limit) = self.workload.workload.size_hint().1 else {
            return Err(ExperimentError::UnboundedWorkload);
        };
        let problem = SwitchingProblem::from_workload(
            &self.base,
            &mut *self.workload.workload,
            limit,
            &mut self.cache,
            self.sim.params,
            self.reconfig,
        )?;
        self.plan_problem(&problem)
    }

    /// Executes the stream on a fresh circuit-switch fabric with the
    /// controller deciding each pulled step online (two-step observation
    /// window; see [`aps_sim::stream`]). The workload is rewound first,
    /// so repeated calls replay identically. Online controllers produce
    /// runs bit-identical to the materialized adaptive path; planning
    /// controllers degenerate to their myopic window rule.
    ///
    /// # Errors
    ///
    /// Fails when the base topology is not a circuit configuration, plus
    /// any simulator or θ pricing error.
    pub fn simulate(&mut self) -> Result<SimRun, ExperimentError> {
        let base_config = self.base_config()?;
        let mut fabric = CircuitSwitch::new(base_config, self.reconfig);
        self.simulate_on(&mut fabric)
    }

    /// [`Experiment::<Streaming>::simulate`] against a caller-supplied
    /// fabric.
    ///
    /// # Errors
    ///
    /// See [`Experiment::<Streaming>::simulate`].
    pub fn simulate_on(&mut self, fabric: &mut dyn Fabric) -> Result<SimRun, ExperimentError> {
        // Normalize the non-circuit-base failure to the same variant the
        // sibling simulate paths return (the streaming executor would
        // otherwise surface it as a SimError).
        self.base_config()?;
        self.workload.workload.reset();
        let mut recorder = self.recorder();
        let (switches, report) = aps_sim::run_workload(
            fabric,
            &self.base,
            &mut *self.workload.workload,
            &*self.controller,
            StreamPricing::new(self.reconfig),
            &self.sim,
            recorder.as_mut().map(|r| r as &mut dyn RecordSink),
        )?;
        if let Some(r) = recorder {
            self.workload.last_record = Some(r.into_record());
        }
        Ok(SimRun { switches, report })
    }

    /// Streams up to `max_steps` steps with O(1) total memory — per-step
    /// reports and traces fold into an [`aps_sim::StreamSummary`] — the
    /// entry for million-step and endless workloads. `max_steps` is an
    /// absolute stream index: a run resumed (via
    /// [`resume_from`](Experiment::<Streaming>::resume_from)) from a
    /// 5 000-step snapshot with `max_steps = 10_000` executes 5 000 more
    /// steps and its summary covers all 10 000.
    ///
    /// # Errors
    ///
    /// See [`Experiment::<Streaming>::simulate`].
    pub fn simulate_summary(
        &mut self,
        max_steps: usize,
    ) -> Result<aps_sim::StreamSummary, ExperimentError> {
        self.workload.workload.reset();
        let base_config = self.base_config()?;
        let mut fabric = CircuitSwitch::new(base_config, self.reconfig);
        let resume = self.workload.resume.take();
        let mut recorder = match (&resume, self.workload.record) {
            (Some(s), _) => Some(Recorder::resume(
                s.chain,
                self.workload.workload.n(),
                self.controller.name(),
                self.workload.workload.name(),
            )),
            (None, true) => self.recorder(),
            (None, false) => None,
        };
        let (summary, checkpoint) = aps_sim::run_workload_segment(
            &mut fabric,
            &self.base,
            &mut *self.workload.workload,
            &*self.controller,
            StreamPricing::new(self.reconfig),
            &self.sim,
            resume.as_ref().map(|s| &s.checkpoint),
            max_steps,
            recorder.as_mut().map(|r| r as &mut dyn RecordSink),
        )?;
        if let Some(r) = recorder {
            self.workload.last_snapshot = Some(Snapshot {
                checkpoint,
                chain: r.chain(),
            });
            self.workload.last_record = Some(r.into_record());
        }
        Ok(summary)
    }

    /// A fresh recorder tagged with this experiment's metadata, when
    /// recording is enabled.
    fn recorder(&self) -> Option<Recorder> {
        self.workload.record.then(|| {
            Recorder::new(
                self.workload.workload.n(),
                self.controller.name(),
                self.workload.workload.name(),
            )
        })
    }
}

impl Experiment<Family> {
    /// Sweeps the family over an `α_r × message-size` grid, pricing the
    /// four classic policies per cell (the engine behind the paper's
    /// Figure 1/2 heatmaps). Runs on the experiment's pool; results are
    /// bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates collective construction and routing errors.
    pub fn sweep(&self, grid: &SweepGrid) -> Result<SweepResult, ExperimentError> {
        Ok(run_sweep_on(
            &self.pool,
            &self.base,
            |m| (self.workload.build)(m),
            self.sim.params,
            grid,
        )?)
    }
}

impl Experiment<Shared> {
    /// The scenario as currently configured (switch schedules included).
    pub fn scenario(&self) -> &Scenario {
        &self.workload.scenario
    }

    /// Lets the experiment's controller plan every tenant's switch
    /// schedule on its own partition (in parallel on the experiment's
    /// pool), replacing the scenario's current schedules. Returns `self`
    /// so a run can be chained: `exp.plan()?.simulate()`.
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn plan(&mut self) -> Result<&mut Self, ExperimentError> {
        self.workload.scenario.plan(
            &self.pool,
            &*self.controller,
            self.sim.params,
            self.reconfig,
        )?;
        Ok(self)
    }

    /// Executes all tenants on one shared fabric (FCFS controller
    /// arbitration, fault isolation); one result per tenant, in input
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a top-level error only for structural problems
    /// (overlapping tenant ports); per-tenant failures land in the inner
    /// results.
    pub fn simulate(&self) -> Result<Vec<Result<TenantReport, SimError>>, ExperimentError> {
        let mut fabric = self.workload.scenario.fabric(self.reconfig)?;
        self.simulate_on(&mut fabric)
    }

    /// [`simulate`](Experiment::<Shared>::simulate) against a
    /// caller-supplied fabric — heterogeneous media
    /// (`aps_sim::scenarios::hetero`) or pre-faulted devices. The
    /// fabric's configuration is reset to the scenario's initial state;
    /// faults and the device clock are left as the caller set them.
    ///
    /// # Errors
    ///
    /// As [`simulate`](Experiment::<Shared>::simulate), plus a dimension
    /// mismatch when the fabric's port count differs from the
    /// scenario's.
    pub fn simulate_on(
        &self,
        fabric: &mut dyn Fabric,
    ) -> Result<Vec<Result<TenantReport, SimError>>, ExperimentError> {
        Ok(self.workload.scenario.run_on(fabric, &self.sim)?)
    }
}

impl Experiment<Service> {
    /// Sets the admission policy (default: [`AdmissionPolicy::Reject`]).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.workload.admission = policy;
        self
    }

    /// Caps the number of offered arrivals — the safety valve for
    /// unbounded arrival processes.
    pub fn max_jobs(mut self, jobs: u64) -> Self {
        self.workload.max_jobs = Some(jobs);
        self
    }

    /// Keeps every job's full [`aps_faas::ServiceJobRecord`] in the
    /// report. Off by default so million-job traces stay O(1).
    pub fn keep_job_reports(mut self) -> Self {
        self.workload.keep_job_reports = true;
        self
    }

    /// Runs the service on a fresh circuit-switch fabric realizing the
    /// base topology. Arrival processes reset on entry, so repeated
    /// calls replay bit-identically.
    ///
    /// # Errors
    ///
    /// Fails when the base topology is not a circuit configuration, or
    /// on a structurally invalid class list.
    pub fn run(&mut self) -> Result<ServiceReport, ExperimentError> {
        let base_config = self.base_config()?;
        let mut fabric = CircuitSwitch::new(base_config, self.reconfig);
        self.run_on(&mut fabric)
    }

    /// [`run`](Experiment::<Service>::run) against a caller-supplied
    /// fabric (e.g. a switch with injected faults).
    ///
    /// # Errors
    ///
    /// See [`run`](Experiment::<Service>::run).
    pub fn run_on(&mut self, fabric: &mut dyn Fabric) -> Result<ServiceReport, ExperimentError> {
        let cfg = aps_faas::ServiceConfig {
            run: self.sim,
            admission: self.workload.admission,
            max_jobs: self.workload.max_jobs,
            keep_job_reports: self.workload.keep_job_reports,
        };
        Ok(run_service(fabric, &mut self.workload.classes, &cfg)?)
    }
}

// ---------------------------------------------------------------------------
// Ablation bridge: plan cells → Experiment runs → KPI vectors.
// ---------------------------------------------------------------------------

/// Runs an [`AblationPlan`] by evaluating every cell through the
/// [`Experiment`] builder on `pool` — the concrete executor behind
/// `perfgate ablate` and the nightly sweep.
///
/// Cell evaluation ([`evaluate_ablation_cell`]) is a pure function of the
/// cell, and the cell list is a pure function of the plan, so the report
/// (and every registry row derived from it) is bit-identical at any
/// `APS_THREADS` setting.
///
/// # Errors
///
/// Plan validation/sampling errors, plus the first failing cell in
/// cell-index order.
pub fn run_ablation(pool: &Pool, plan: &AblationPlan) -> Result<AblationReport, ExperimentError> {
    aps_ablate::run_plan(pool, plan, evaluate_ablation_cell)
}

/// Evaluates one plan cell into its KPI vector.
///
/// Factor semantics (unset factors fall back to the experiment defaults):
///
/// * `workload` (required) — a collective family (`hd-allreduce`,
///   `ring-allreduce`, `alltoall`, `broadcast`) simulated alone on a
///   unidirectional ring of `ports` GPUs, or a named `aps-sim` scenario
///   (`mixed-collectives`, `skewed-tenants`, `staggered-arrivals`) on its
///   own fixed fabric (the `ports` factor is ignored).
/// * `controller` — an [`aps_core::controller::by_name`] name; `static`
///   means *no adaptation*: the collective runs entirely on base, and a
///   scenario keeps its built-in per-tenant switch policies.
/// * `alpha_r_s`, `message_bytes`, `alpha_s`, `delta_s`, `bandwidth_gbps`
///   — the cost regime.
///
/// The `speedup_vs_static` KPI divides the matching static baseline's
/// completion time by the cell's, so `static` cells report exactly 1.
/// All simulation runs inside the cell use [`Pool::serial`]; outer
/// parallelism belongs to [`run_ablation`]'s pool.
///
/// # Errors
///
/// [`ExperimentError::Ablation`] with an [`AblateError::Cell`] payload
/// for unknown names or invalid parameters; simulation errors are also
/// folded into the cell error so the failing cell is identifiable.
pub fn evaluate_ablation_cell(cell: &Cell) -> Result<KpiValues, ExperimentError> {
    const MIB: f64 = 1024.0 * 1024.0;
    let fail = |reason: String| {
        ExperimentError::Ablation(AblateError::Cell {
            cell: cell.index,
            reason,
        })
    };

    let workload = cell
        .name(FactorKey::Workload)
        .ok_or_else(|| fail("cell has no workload factor".into()))?;
    let controller_name = cell.name(FactorKey::Controller).unwrap_or("opt");
    let controller = by_name(controller_name)
        .ok_or_else(|| fail(format!("unknown controller '{controller_name}'")))?;
    let alpha_r = cell.num(FactorKey::AlphaR).unwrap_or(10e-6);
    let bytes = cell.num(FactorKey::MessageBytes).unwrap_or(MIB);
    let ports = match cell.num(FactorKey::Ports) {
        None => 16,
        Some(p) if p.is_finite() && p.fract() == 0.0 && p >= 2.0 => p as usize,
        Some(p) => {
            return Err(fail(format!(
                "ports level {p} is not a whole number of at least 2"
            )))
        }
    };
    let defaults = CostParams::paper_defaults();
    let params = CostParams::new(
        cell.num(FactorKey::Alpha).unwrap_or(defaults.alpha_s),
        cell.num(FactorKey::BandwidthGbps).unwrap_or(800.0),
        cell.num(FactorKey::Delta).unwrap_or(defaults.delta_s),
    )
    .map_err(|e| fail(format!("invalid cost parameters: {e}")))?;
    let reconfig = ReconfigModel::constant(alpha_r)
        .map_err(|e| fail(format!("invalid alpha_r {alpha_r}: {e}")))?;

    if let Some(scenario) = aps_sim::scenarios::by_name(workload, bytes) {
        // Shared-fabric path. The baseline keeps the scenario's built-in
        // per-tenant switch policies; any other controller re-plans every
        // tenant's schedule on its own partition.
        let run =
            |ctl: Option<&'static dyn Controller>| -> Result<Vec<TenantReport>, ExperimentError> {
                let base = aps_topology::builders::ring_unidirectional(scenario.n)
                    .map_err(|e| fail(format!("bad scenario fabric: {e}")))?;
                let mut e = Experiment::domain(base)
                    .params(params)
                    .reconfig(reconfig)
                    .pool(Pool::serial())
                    .scenario(scenario.clone());
                if let Some(c) = ctl {
                    e = e.controller(c);
                    e.plan().map_err(|err| fail(err.to_string()))?;
                    return collect_tenants(e.simulate(), &fail);
                }
                collect_tenants(e.simulate(), &fail)
            };
        let adapted = run(if controller_name == "static" {
            None
        } else {
            Some(controller)
        })?;
        let completion = tenant_completion_ps(&adapted);
        let speedup = if controller_name == "static" {
            1.0
        } else {
            tenant_completion_ps(&run(None)?) / completion
        };
        let busy: f64 = adapted.iter().map(|t| t.report.total_ps as f64).sum();
        let reconfig_total: f64 = adapted
            .iter()
            .flat_map(|t| &t.report.steps)
            .map(|s| s.reconfig_ps as f64)
            .sum();
        Ok(KpiValues {
            speedup_vs_static: speedup,
            completion_ps: completion,
            reconfig_fraction: if busy > 0.0 {
                reconfig_total / busy
            } else {
                0.0
            },
            arbitration_ps: adapted.iter().map(|t| t.arbitration_ps() as f64).sum(),
        })
    } else {
        // Single-collective path on a unidirectional ring of `ports` GPUs.
        let collective = collective_by_name(workload, ports, bytes)
            .ok_or_else(|| fail(format!("unknown workload '{workload}'")))?
            .map_err(|e| fail(format!("cannot build {workload} on {ports} ports: {e}")))?;
        let run = |ctl: &'static dyn Controller| -> Result<SimRun, ExperimentError> {
            let base = aps_topology::builders::ring_unidirectional(ports)
                .map_err(|e| fail(format!("bad base topology: {e}")))?;
            Experiment::domain(base)
                .params(params)
                .reconfig(reconfig)
                .pool(Pool::serial())
                .controller(ctl)
                .collective(&collective)
                .simulate()
                .map_err(|e| fail(e.to_string()))
        };
        let adapted = run(controller)?;
        let completion = adapted.report.total_ps as f64;
        let speedup = if controller_name == "static" {
            1.0
        } else {
            run(&Static)?.report.total_ps as f64 / completion
        };
        let reconfig_total: f64 = adapted
            .report
            .steps
            .iter()
            .map(|s| s.reconfig_ps as f64)
            .sum();
        Ok(KpiValues {
            speedup_vs_static: speedup,
            completion_ps: completion,
            reconfig_fraction: if completion > 0.0 {
                reconfig_total / completion
            } else {
                0.0
            },
            arbitration_ps: 0.0,
        })
    }
}

/// The collective families resolvable by a stable name — the lookup the
/// ablation bridge and the C ABI (`aps-ffi`) share: `hd-allreduce`,
/// `ring-allreduce`, `alltoall`, `broadcast`. Returns `None` for an
/// unknown family, `Some(Err)` when the family rejects `(n, bytes)`.
pub fn collective_by_name(
    name: &str,
    n: usize,
    bytes: f64,
) -> Option<Result<Collective, CollectiveError>> {
    match name {
        "hd-allreduce" => Some(allreduce::halving_doubling::build(n, bytes)),
        "ring-allreduce" => Some(allreduce::ring::build(n, bytes)),
        "alltoall" => Some(alltoall::linear_shift(n, bytes)),
        "broadcast" => Some(broadcast::binomial(n, 0, bytes)),
        _ => None,
    }
}

/// Flattens the per-tenant results, folding the first tenant failure (or
/// structural error) into the cell error.
fn collect_tenants(
    reports: Result<Vec<Result<TenantReport, SimError>>, ExperimentError>,
    fail: &dyn Fn(String) -> ExperimentError,
) -> Result<Vec<TenantReport>, ExperimentError> {
    reports
        .map_err(|e| fail(format!("scenario failed: {e}")))?
        .into_iter()
        .map(|r| r.map_err(|e| fail(format!("tenant failed: {e}"))))
        .collect()
}

/// Completion of a shared-fabric run: the last tenant's finish time.
fn tenant_completion_ps(tenants: &[TenantReport]) -> f64 {
    tenants.iter().map(|t| t.finish_ps).max().unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_core::controller::{shipped, AlwaysReconfigure, Greedy};
    use aps_cost::units::MIB;
    use aps_sim::{scenarios, TraceKind};
    use aps_topology::builders;

    fn exp() -> Experiment<Unbound> {
        Experiment::domain(builders::ring_unidirectional(16).unwrap())
            .reconfig(ReconfigModel::constant(10e-6).unwrap())
    }

    #[test]
    fn plan_matches_the_raw_domain_path() {
        let c = allreduce::halving_doubling::build(16, 16.0 * MIB).unwrap();
        let plan = exp().collective(&c).plan().unwrap();
        let base = builders::ring_unidirectional(16).unwrap();
        let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
        let problem = SwitchingProblem::build(
            &base,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            ReconfigModel::constant(10e-6).unwrap(),
        )
        .unwrap();
        let acc = ReconfigAccounting::PaperConservative;
        let switches = DpPlanned.plan(&problem, acc).unwrap();
        assert_eq!(plan.switches, switches);
        assert_eq!(plan.report, evaluate(&problem, &switches, acc).unwrap());
    }

    #[test]
    fn compare_is_the_one_cell_of_a_one_by_one_sweep() {
        let (alpha_r, bytes) = (10e-6, 16.0 * MIB);
        let build = move |m| allreduce::halving_doubling::build(16, m);
        let cmp = exp()
            .reconfig(ReconfigModel::constant(alpha_r).unwrap())
            .collective(&build(bytes).unwrap())
            .compare()
            .unwrap();
        let grid = SweepGrid {
            reconf_delays_s: vec![alpha_r],
            message_bytes: vec![bytes],
        };
        let swept = exp().collective_family(build).sweep(&grid).unwrap();
        assert_eq!(swept.cells, vec![vec![cmp]]);
    }

    #[test]
    fn controllers_order_as_expected() {
        let c = allreduce::halving_doubling::build(16, 16.0 * MIB).unwrap();
        let mut e = exp().collective(&c);
        let cmp = e.compare().unwrap();
        let opt = e.plan().unwrap().report.total_s();
        assert!((opt - cmp.t_opt_s).abs() < 1e-15);
        for ctl in shipped() {
            let t = exp()
                .collective(&c)
                .controller(ctl)
                .plan()
                .unwrap()
                .report
                .total_s();
            assert!(opt <= t + 1e-15, "{} beat the optimum", ctl.name());
        }
    }

    #[test]
    fn simulate_tags_decisions_and_matches_plan_for_static_controllers() {
        let c = allreduce::halving_doubling::build(16, 4.0 * MIB).unwrap();
        for controller in [&Static as &dyn Controller, &AlwaysReconfigure, &Greedy] {
            let mut e = exp().collective(&c).controller(controller);
            let plan = e.plan().unwrap();
            let run = e.simulate().unwrap();
            assert_eq!(run.switches, plan.switches, "{}", controller.name());
            let decisions = run
                .report
                .trace
                .iter()
                .filter(|ev| matches!(ev.kind, TraceKind::Decision { .. }))
                .count();
            assert_eq!(decisions, c.schedule.num_steps());
            assert!(run.report.total_s() > 0.0);
        }
    }

    #[test]
    fn family_sweep_matches_the_engine() {
        let grid = SweepGrid::small();
        let e = exp().collective_family(|m| allreduce::halving_doubling::build(16, m));
        let r = e.sweep(&grid).unwrap();
        let engine = run_sweep_on(
            &Pool::from_env(),
            &builders::ring_unidirectional(16).unwrap(),
            |m| allreduce::halving_doubling::build(16, m),
            CostParams::paper_defaults(),
            &grid,
        )
        .unwrap();
        assert_eq!(r.cells, engine.cells);
    }

    #[test]
    fn shared_fabric_plan_then_simulate() {
        let scenario = scenarios::mixed_collectives(4.0 * MIB);
        let mut e = Experiment::domain(builders::ring_unidirectional(32).unwrap())
            .reconfig(ReconfigModel::constant(10e-6).unwrap())
            .scenario(scenario.clone());
        let reports = e.plan().unwrap().simulate().unwrap();
        assert_eq!(reports.len(), scenario.tenants.len());

        // Same as the raw scenario path.
        let mut want = scenario;
        want.plan(
            &Pool::from_env(),
            &DpPlanned,
            CostParams::paper_defaults(),
            ReconfigModel::constant(10e-6).unwrap(),
        )
        .unwrap();
        let mut fabric = want
            .fabric(ReconfigModel::constant(10e-6).unwrap())
            .unwrap();
        let raw = want
            .run_on(&mut fabric, &RunConfig::paper_defaults())
            .unwrap();
        for (a, b) in reports.iter().zip(&raw) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn ablation_bridge_evaluates_collectives_and_scenarios() {
        use aps_ablate::{AblationPlan, Factor, FactorKey, Sampling};
        let plan = AblationPlan {
            name: "bridge-test".into(),
            seed: 0,
            sampling: Sampling::FullGrid,
            factors: vec![
                Factor::names(FactorKey::Workload, ["hd-allreduce", "mixed-collectives"]),
                Factor::names(FactorKey::Controller, ["static", "greedy"]),
                Factor::nums(FactorKey::AlphaR, [1e-6]),
                Factor::nums(FactorKey::MessageBytes, [1024.0 * 1024.0]),
                Factor::nums(FactorKey::Ports, [8.0]),
            ],
            kpis: vec![],
        };
        let report = run_ablation(&Pool::serial(), &plan).unwrap();
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert!(r.kpis.completion_ps >= 1.0, "{}", r.cell.factors_string());
            assert!(
                (0.0..=1.0).contains(&r.kpis.reconfig_fraction),
                "{}",
                r.cell.factors_string()
            );
            if r.cell.name(FactorKey::Controller) == Some("static") {
                assert_eq!(r.kpis.speedup_vs_static, 1.0);
            }
            if r.cell.name(FactorKey::Workload) == Some("hd-allreduce") {
                assert_eq!(r.kpis.arbitration_ps, 0.0);
            }
        }
        // Bit-identity across pool sizes, down to the registry bytes.
        let other = run_ablation(&Pool::new(3), &plan).unwrap();
        assert_eq!(
            aps_ablate::rows_csv(&report.registry_rows("t")).unwrap(),
            aps_ablate::rows_csv(&other.registry_rows("t")).unwrap()
        );
    }

    #[test]
    fn ablation_bridge_rejects_unknown_names() {
        use aps_ablate::{Cell, FactorValue};
        let cell = Cell {
            index: 5,
            values: vec![(
                FactorKey::Workload,
                FactorValue::Name("no-such-workload".into()),
            )],
        };
        let err = evaluate_ablation_cell(&cell).unwrap_err();
        assert!(matches!(
            err,
            ExperimentError::Ablation(AblateError::Cell { cell: 5, .. })
        ));
        let cell = Cell {
            index: 0,
            values: vec![
                (FactorKey::Workload, FactorValue::Name("alltoall".into())),
                (
                    FactorKey::Controller,
                    FactorValue::Name("no-such-controller".into()),
                ),
            ],
        };
        assert!(evaluate_ablation_cell(&cell).is_err());
        // A ports level must be a whole number of at least 2, or the run
        // would silently use another fabric size.
        for ports in [8.5, 8.99, f64::NAN, f64::INFINITY, -3.0, 1.0] {
            let cell = Cell {
                index: 7,
                values: vec![
                    (FactorKey::Workload, FactorValue::Name("alltoall".into())),
                    (FactorKey::Ports, FactorValue::Num(ports)),
                ],
            };
            match evaluate_ablation_cell(&cell) {
                Err(ExperimentError::Ablation(AblateError::Cell { cell: 7, reason })) => {
                    assert!(reason.contains(&format!("ports level {ports}")), "{reason}")
                }
                other => panic!("ports = {ports}: {other:?}"),
            }
        }
    }

    #[test]
    fn bidirectional_base_plans_but_cannot_simulate() {
        let c = allreduce::halving_doubling::build(8, MIB).unwrap();
        let mut e = Experiment::domain(builders::ring_bidirectional(8).unwrap())
            .reconfig(ReconfigModel::constant(1e-6).unwrap())
            .collective(&c);
        assert!(e.plan().is_ok());
        assert!(matches!(
            e.simulate(),
            Err(ExperimentError::BaseNotACircuit)
        ));
    }
}
