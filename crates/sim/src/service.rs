//! The step engine: jobs admitted, executed, and removed over simulated
//! time on one shared fabric.
//!
//! A [`ServiceExecutor`] holds a mutable population of jobs over
//! slot-indexed state, and every simulator entry point runs through it:
//!
//! * the `aps-faas` engine [`admit`](ServiceExecutor::admit)s a job when it
//!   arrives, interleaves everyone's steps in deterministic
//!   earliest-request order, and [`remove`](ServiceExecutor::remove)s the
//!   job when its demand stream runs dry — reclaiming its fabric ports for
//!   the next arrival;
//! * [`execute_tenants`](crate::tenant::execute_tenants) admits a closed
//!   tenant set, each tenant at its arrival, and drains it;
//! * the single-collective entry points of [`crate::exec`] and
//!   [`crate::stream`] admit one job that owns every port and drain it.
//!
//! ## One step loop
//!
//! [`ServiceExecutor::execute_next`] is the only place a step runs: it
//! picks the job whose next fabric request is earliest, asks the job's
//! decision source for the step's [`ConfigChoice`], builds the
//! reconfiguration target, executes the step's timeline, folds the report,
//! records the step, and pulls the job's next step. A decision source is
//! one of
//!
//! * a [`ServiceSwitching`]: a precomputed schedule or one uniform choice;
//! * a controller observing the full eq. (7) problem
//!   ([`run_adaptive`](crate::exec::run_adaptive));
//! * a controller observing the two-step priced window of a streamed
//!   workload, with its θ cache
//!   ([`run_workload`](crate::stream::run_workload)).
//!
//! A controller's decision lands in the trace as a
//! [`TraceKind::Decision`] event, rationale attached, whenever the
//! executor keeps full reports or a [`RecordSink`] is attached.
//!
//! ## Steady-state allocation behavior
//!
//! A steady-state step performs no heap allocation. The executor reuses
//! its arenas: one [`CircuitScratch`] for the fluid solve, one recycled
//! scratch [`SimReport`] in totals mode (`keep_reports = false`), owned
//! `pairs` and global-target buffers, and demand pulled through
//! [`Workload::next_step_into`] into a per-job [`Step`] slot that is
//! overwritten in place. `crates/sim/tests/zero_alloc.rs` pins it.

use crate::arena::CircuitScratch;
use crate::error::SimError;
use crate::exec::{execute_step, natural_request_at, RunConfig, StepInput};
use crate::record::{RecordSink, StepRecord};
use crate::report::SimReport;
use crate::stream::{validate_step, StreamCheckpoint, StreamPricing, StreamSummary};
use crate::tenant::{tenant_target, TargetScratch};
use crate::trace::{TraceEvent, TraceKind};
use aps_collectives::{Step, Workload, WorkloadCtx};
use aps_core::controller::{Controller, StepObservation};
use aps_core::{ConfigChoice, ReconfigAccounting, SwitchSchedule, SwitchingProblem};
use aps_cost::steptable::StepCosts;
use aps_cost::units::Picos;
use aps_fabric::Fabric;
use aps_flow::solver::{ThetaCache, ThroughputSolver};
use aps_matrix::Matching;
use aps_topology::Topology;

/// Per-step base/matched choices for a service job: either a precomputed
/// per-step schedule (must cover the job's whole stream) or one uniform
/// choice applied to every step (the natural fit for open-ended demand).
#[derive(Debug, Clone)]
pub enum ServiceSwitching {
    /// Replay a precomputed switch schedule, one choice per step.
    Schedule(SwitchSchedule),
    /// Apply the same choice to every step of the job.
    Uniform(ConfigChoice),
}

impl ServiceSwitching {
    /// The choice for step `i`; `None` when a schedule is exhausted.
    fn choice(&self, i: usize) -> Option<ConfigChoice> {
        match self {
            Self::Schedule(s) => (i < s.len()).then(|| s.choice(i)),
            Self::Uniform(c) => Some(*c),
        }
    }
}

/// One job offered to the service: a demand stream bound to a partition
/// of the fabric's ports — the open-system analogue of
/// [`crate::tenant::TenantSpec`].
pub struct ServiceJobSpec {
    /// Job name, for reports and error tagging.
    pub name: String,
    /// Global fabric ports the job will own; local rank `i` maps to
    /// `ports[i]`. Must be disjoint from every live job's ports.
    pub ports: Vec<usize>,
    /// The job's base circuits in *local* coordinates.
    pub base_config: Matching,
    /// Lazy demand over `ports.len()` local ranks.
    pub workload: Box<dyn Workload>,
    /// Per-step base/matched choices.
    pub switching: ServiceSwitching,
}

/// Where a job's steps come from.
pub(crate) enum Demand<'a> {
    /// A workload the job owns. Reached through `as_ref`/`as_mut`: the
    /// box itself implements [`Workload`] only when `'a` is `'static`.
    Owned(Box<dyn Workload + 'a>),
    /// A caller's workload, borrowed for the run.
    Borrowed(&'a mut dyn Workload),
    /// The steps of a materialized eq. (7) problem.
    Problem(&'a SwitchingProblem),
}

impl Demand<'_> {
    fn n(&self) -> usize {
        match self {
            Self::Owned(w) => w.as_ref().n(),
            Self::Borrowed(w) => w.n(),
            Self::Problem(p) => p.n,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Self::Owned(w) => w.as_ref().size_hint(),
            Self::Borrowed(w) => w.size_hint(),
            Self::Problem(p) => (p.steps.len(), Some(p.steps.len())),
        }
    }

    /// Pulls step `i` into `out`; `false` once the demand is exhausted.
    fn pull(&mut self, i: usize, out: &mut Step) -> bool {
        let ctx = WorkloadCtx::at(i);
        match self {
            Self::Owned(w) => w.as_mut().next_step_into(&ctx, out),
            Self::Borrowed(w) => w.next_step_into(&ctx, out),
            Self::Problem(p) => match p.steps.get(i) {
                Some(s) => {
                    out.matching.clone_from(&s.matching);
                    out.bytes_per_pair = s.bytes;
                    true
                }
                None => false,
            },
        }
    }

    /// Rewinds the demand and pulls its first `steps` steps, the last one
    /// into `out` — the [`Workload::reset`] replay contract that restores a
    /// checkpointed stream's cursor.
    fn replay(&mut self, steps: usize, out: &mut Step) -> Result<(), SimError> {
        match self {
            Self::Owned(w) => w.as_mut().reset(),
            Self::Borrowed(w) => w.reset(),
            Self::Problem(_) => {}
        }
        for j in 0..steps {
            if !self.pull(j, out) {
                // The stream replayed shorter than the checkpoint claims:
                // the reset contract was violated, or the checkpoint
                // belongs to a different workload.
                return Err(SimError::ScheduleLengthMismatch {
                    expected: steps,
                    got: j,
                });
            }
        }
        Ok(())
    }
}

/// A controller's view of a streamed workload: the current and the
/// previous step, priced on the base topology. The previous step lets
/// transition charges see the real previous matching.
pub(crate) struct PricedWindow<'a> {
    base: &'a Topology,
    cache: ThetaCache,
    /// At most two steps, the newest last; also carries the base circuit
    /// configuration.
    window: SwitchingProblem,
    controller: &'a dyn Controller,
}

impl<'a> PricedWindow<'a> {
    /// An empty window over `base`, realized as `base_config`.
    pub(crate) fn new(
        base: &'a Topology,
        base_config: Matching,
        controller: &'a dyn Controller,
        pricing: &StreamPricing,
        cfg: &RunConfig,
    ) -> Self {
        Self {
            base,
            cache: ThetaCache::new(base, ThroughputSolver::ForcedPath),
            window: SwitchingProblem {
                n: base.n(),
                params: cfg.params,
                reconfig: pricing.reconfig,
                base_config: Some(base_config),
                steps: Vec::with_capacity(2),
            },
            controller,
        }
    }

    /// Prices step `i` and slides it into the window as the newest step.
    fn push(&mut self, i: usize, step: &Step) -> Result<(), SimError> {
        validate_step(i, self.window.n, step)?;
        let t = self
            .cache
            .get(self.base, &step.matching)
            .map_err(|source| SimError::Pricing { step: i, source })?;
        // Two-slot sliding window: once warm, recycle the oldest slot in
        // place (`clone_from` reuses the matching's buffer).
        if self.window.steps.len() < 2 {
            self.window.steps.push(StepCosts {
                matching: step.matching.clone(),
                bytes: step.bytes_per_pair,
                theta_base: t.theta,
                ell_base: t.max_hops,
            });
        } else {
            self.window.steps.swap(0, 1);
            let slot = &mut self.window.steps[1];
            slot.matching.clone_from(&step.matching);
            slot.bytes = step.bytes_per_pair;
            slot.theta_base = t.theta;
            slot.ell_base = t.max_hops;
        }
        Ok(())
    }

    fn decide(
        &mut self,
        i: usize,
        step: &Step,
        prev: ConfigChoice,
        explain: bool,
    ) -> Result<Decision, SimError> {
        self.push(i, step)?;
        let newest = self.window.steps.len() - 1;
        let obs = StepObservation::new(
            &self.window,
            ReconfigAccounting::PaperConservative,
            newest,
            prev,
        )
        .at_stream_step(i);
        let choice = self.controller.decide(&obs);
        Ok((
            choice,
            explain.then(|| self.controller.explain(&obs, choice)),
        ))
    }
}

/// A decided step: its configuration and, when asked for, the
/// controller's rationale.
type Decision = (ConfigChoice, Option<String>);

/// How a job chooses each step's configuration.
pub(crate) enum Decider<'a> {
    /// Precomputed or uniform choices.
    Switching(ServiceSwitching),
    /// A controller observing the full eq. (7) problem.
    Problem {
        problem: &'a SwitchingProblem,
        controller: &'a dyn Controller,
    },
    /// A controller observing the two-step priced window of a stream.
    Window(Box<PricedWindow<'a>>),
}

impl Decider<'_> {
    /// Validates step `i` of an `n`-rank job and decides it, from the
    /// previous step's choice `prev`; the rationale is built only when
    /// `explain` asks for it.
    fn decide(
        &mut self,
        i: usize,
        step: &Step,
        n: usize,
        prev: ConfigChoice,
        explain: bool,
    ) -> Result<Decision, SimError> {
        match self {
            Self::Switching(switching) => {
                let choice = switching
                    .choice(i)
                    .ok_or(SimError::ScheduleLengthMismatch {
                        expected: i + 1,
                        got: i,
                    })?;
                validate_step(i, n, step)?;
                Ok((choice, None))
            }
            Self::Problem {
                problem,
                controller,
            } => {
                validate_step(i, n, step)?;
                let obs =
                    StepObservation::new(problem, ReconfigAccounting::PaperConservative, i, prev);
                let choice = controller.decide(&obs);
                Ok((choice, explain.then(|| controller.explain(&obs, choice))))
            }
            Self::Window(window) => window.decide(i, step, prev, explain),
        }
    }
}

/// A job as the crate's entry points admit it: a [`ServiceJobSpec`] plus
/// the controller decision sources, the record tag, a step bound and a
/// resume point.
pub(crate) struct Job<'a> {
    pub(crate) name: String,
    pub(crate) ports: Vec<usize>,
    pub(crate) base_config: Matching,
    pub(crate) demand: Demand<'a>,
    pub(crate) decider: Decider<'a>,
    /// The `tenant` tag of the job's step records.
    pub(crate) tag: Option<usize>,
    /// No step at or past this stream index is pulled.
    pub(crate) bound: usize,
    /// Continue a checkpointed run instead of starting at step 0.
    pub(crate) resume: Option<&'a StreamCheckpoint>,
}

impl<'a> Job<'a> {
    /// A lone, unbounded job on every port of an `n`-port fabric; its
    /// records carry no tenant tag.
    pub(crate) fn lone(
        n: usize,
        base_config: Matching,
        demand: Demand<'a>,
        decider: Decider<'a>,
    ) -> Self {
        Self {
            name: String::new(),
            ports: (0..n).collect(),
            base_config,
            demand,
            decider,
            tag: None,
            bound: usize::MAX,
            resume: None,
        }
    }
}

/// Receipt for an admitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The slot the job occupies until [`ServiceExecutor::remove`].
    pub slot: usize,
    /// `false` when the workload yielded no steps at all — the job
    /// departs immediately at its start time.
    pub has_work: bool,
}

/// A job that just ran out of work (or failed): the caller should
/// [`ServiceExecutor::remove`] it at `finish_ps` to reclaim its ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// Slot of the departing job.
    pub slot: usize,
    /// When the job's last step (including compute) finished; for a
    /// failed job, the instant the failing step would have touched the
    /// fabric (its `natural_request_at`), so the departure is never
    /// earlier than the event that dispatched it — simulated clocks
    /// driven by departures stay monotone.
    pub finish_ps: Picos,
    /// `true` when the job stopped on a step error instead of finishing.
    pub failed: bool,
}

/// Final accounting for one removed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Caller-assigned job id (admission order in the faas engine).
    pub id: u64,
    /// Job name, from the spec.
    pub name: String,
    /// When the job was admitted (its clocks were seeded here).
    pub start_ps: Picos,
    /// When the job finished (equals `start_ps` for empty workloads).
    pub finish_ps: Picos,
    /// Steps executed.
    pub steps: usize,
    /// The step error that stopped the job, if any. Errors are isolated:
    /// other jobs sharing the fabric are unaffected.
    pub error: Option<SimError>,
    /// The job's full per-step report (global clock), kept only when the
    /// executor runs with `keep_reports` and the job did not fail.
    pub report: Option<SimReport>,
}

/// What a lone job leaves behind: its full report and choices (both
/// empty in totals mode) and its end state as a resumable checkpoint.
pub(crate) struct LoneRun {
    pub(crate) report: SimReport,
    pub(crate) choices: Vec<ConfigChoice>,
    pub(crate) end: StreamCheckpoint,
}

/// Slot-resident state of one live job.
struct JobState<'a> {
    id: u64,
    job: Job<'a>,
    /// The next step to execute, pulled in place; valid only when
    /// `has_pending`.
    pending: Step,
    has_pending: bool,
    executed: usize,
    prev: ConfigChoice,
    /// Every step's choice, kept alongside the full report.
    choices: Vec<ConfigChoice>,
    start_ps: Picos,
    comm_end: Picos,
    gpu_free: Picos,
    report: SimReport,
    error: Option<SimError>,
}

impl JobState<'_> {
    /// Stops the job on `error` at `finish_ps` and returns its departure.
    fn fail(&mut self, slot: usize, error: SimError, finish_ps: Picos) -> Departure {
        self.error = Some(error);
        self.has_pending = false;
        self.gpu_free = finish_ps;
        Departure {
            slot,
            finish_ps,
            failed: true,
        }
    }

    /// The job's full report, when kept and the job did not fail.
    fn final_report(&mut self, keep_reports: bool) -> Option<SimReport> {
        (keep_reports && self.error.is_none()).then(|| SimReport {
            total_ps: self.gpu_free,
            ..std::mem::take(&mut self.report)
        })
    }
}

/// The step engine: a mutable population of jobs sharing one fabric,
/// executed in deterministic earliest-request order. Jobs may borrow
/// their demand and decision source for `'a`.
///
/// The executor owns *execution*; admission policy, port-partition
/// allocation, and SLO accounting live in `aps-faas` on top of this API.
pub struct ServiceExecutor<'a> {
    n: usize,
    cfg: RunConfig,
    keep_reports: bool,
    slots: Vec<Option<JobState<'a>>>,
    free_slots: Vec<usize>,
    /// `owner[p]` = slot currently owning global port `p`.
    owner: Vec<Option<usize>>,
    live: usize,
    scratch: CircuitScratch,
    pairs: Vec<(usize, usize)>,
    targets: TargetScratch,
    owned: Vec<bool>,
    /// Recycled per-step report for totals mode.
    fold: SimReport,
    summary: StreamSummary,
}

impl<'a> ServiceExecutor<'a> {
    /// An empty executor over an `n`-port fabric. With
    /// `keep_reports = false` (totals mode) per-step reports fold into
    /// the O(1) [`StreamSummary`] and are recycled — a million-job trace
    /// never materializes per-job state beyond the live population.
    pub fn new(n: usize, cfg: RunConfig, keep_reports: bool) -> Self {
        Self {
            n,
            cfg,
            keep_reports,
            slots: Vec::new(),
            free_slots: Vec::new(),
            owner: vec![None; n],
            live: 0,
            scratch: CircuitScratch::new(),
            pairs: Vec::new(),
            targets: TargetScratch::default(),
            owned: Vec::new(),
            fold: SimReport::default(),
            summary: StreamSummary::default(),
        }
    }

    /// Fabric port count the executor was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Jobs currently resident (admitted and not yet removed).
    pub fn live_jobs(&self) -> usize {
        self.live
    }

    /// The O(1) fold of every step executed so far, across all jobs.
    /// `total_ps` is the latest communication/compute clock seen.
    pub fn stream_summary(&self) -> StreamSummary {
        self.summary
    }

    /// Admits a job: validates its shape against the fabric and the live
    /// population, claims its ports, seeds its clocks at `start_ps`, and
    /// pulls its first pending step.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] when workload or base config spans
    /// a different rank count than the port list,
    /// [`SimError::ScheduleLengthMismatch`] when a
    /// [`ServiceSwitching::Schedule`] disagrees with an exactly-sized
    /// workload, [`SimError::BadTenantPorts`] when a port is out of range
    /// or owned by a live job, and [`SimError::BadStepVolume`] when the
    /// first pulled step is malformed. On error nothing is claimed.
    pub fn admit(
        &mut self,
        id: u64,
        spec: ServiceJobSpec,
        start_ps: Picos,
    ) -> Result<Admission, SimError> {
        let job = Job {
            name: spec.name,
            ports: spec.ports,
            base_config: spec.base_config,
            demand: Demand::Owned(spec.workload),
            decider: Decider::Switching(spec.switching),
            tag: Some(self.next_slot()),
            bound: usize::MAX,
            resume: None,
        };
        self.admit_job(id, job, start_ps)
    }

    /// The slot the next admission takes.
    fn next_slot(&self) -> usize {
        self.free_slots.last().copied().unwrap_or(self.slots.len())
    }

    /// [`admit`](Self::admit) for any [`Job`]. A job resuming from a
    /// checkpoint replays its demand up to the checkpoint, reprices the
    /// last replayed step into a priced window, and takes the checkpoint's
    /// clocks, previous choice and totals instead of `start_ps`'s.
    ///
    /// # Errors
    ///
    /// See [`admit`](Self::admit); a resumed job also fails when its
    /// demand replays shorter than the checkpoint or the replayed step
    /// fails pricing.
    pub(crate) fn admit_job(
        &mut self,
        id: u64,
        mut job: Job<'a>,
        start_ps: Picos,
    ) -> Result<Admission, SimError> {
        let slot = self.next_slot();
        let n_j = job.ports.len();
        if job.demand.n() != n_j || job.base_config.n() != n_j {
            return Err(SimError::DimensionMismatch {
                fabric: n_j,
                collective: job.demand.n().max(job.base_config.n()),
            });
        }
        if let Decider::Switching(ServiceSwitching::Schedule(sw)) = &job.decider {
            let (lo, hi) = job.demand.size_hint();
            if hi == Some(lo) && sw.len() != lo {
                return Err(SimError::ScheduleLengthMismatch {
                    expected: lo,
                    got: sw.len(),
                });
            }
        }
        for &p in &job.ports {
            if p >= self.n || self.owner[p].is_some() {
                return Err(SimError::BadTenantPorts {
                    tenant: slot,
                    port: p,
                });
            }
        }
        // Duplicate ports within the job itself.
        self.owned.clear();
        self.owned.resize(self.n, false);
        for &p in &job.ports {
            if self.owned[p] {
                return Err(SimError::BadTenantPorts {
                    tenant: slot,
                    port: p,
                });
            }
            self.owned[p] = true;
        }
        let mut pending = Step::empty();
        let (mut executed, mut prev, mut comm_end, mut gpu_free) =
            (0, ConfigChoice::Base, start_ps, start_ps);
        if let Some(cp) = job.resume {
            job.demand.replay(cp.steps_done, &mut pending)?;
            if let (Some(last), Decider::Window(window)) =
                (cp.steps_done.checked_sub(1), &mut job.decider)
            {
                window.push(last, &pending)?;
            }
            (executed, prev, comm_end, gpu_free) =
                (cp.steps_done, cp.prev, cp.comm_end, cp.gpu_free);
        }
        let has_pending = executed < job.bound && job.demand.pull(executed, &mut pending);
        if has_pending {
            validate_step(executed, n_j, &pending)?;
        }
        // All checks passed: claim ports and take residence.
        for &p in &job.ports {
            self.owner[p] = Some(slot);
        }
        if let Some(cp) = job.resume {
            self.summary = self.summary.merge(cp.summary);
        }
        let state = JobState {
            id,
            job,
            pending,
            has_pending,
            executed,
            prev,
            choices: Vec::new(),
            start_ps,
            comm_end,
            gpu_free,
            report: SimReport::default(),
            error: None,
        };
        if slot == self.slots.len() {
            self.slots.push(Some(state));
        } else {
            self.free_slots.pop();
            self.slots[slot] = Some(state);
        }
        self.live += 1;
        Ok(Admission {
            slot,
            has_work: has_pending,
        })
    }

    /// The earliest instant any live job will next touch the fabric, and
    /// that job's slot — each job's `natural_request_at` instant, ties
    /// broken by lowest job id (admission order). `None` when no job has
    /// runnable work.
    pub fn next_request_at(&self) -> Option<(Picos, usize)> {
        let mut best: Option<(Picos, u64, usize)> = None;
        for (slot, st) in self.slots.iter().enumerate() {
            let Some(st) = st else { continue };
            if !st.has_pending || st.error.is_some() {
                continue;
            }
            let natural = natural_request_at(
                &self.cfg,
                st.job.ports.len(),
                st.executed == 0,
                st.comm_end,
                st.gpu_free,
            );
            if best.is_none_or(|(at, id, _)| natural < at || (natural == at && st.id < id)) {
                best = Some((natural, st.id, slot));
            }
        }
        best.map(|(at, _, slot)| (at, slot))
    }

    /// Executes the next step of the earliest-request job (the one
    /// [`next_request_at`](Self::next_request_at) names). Returns the
    /// job's [`Departure`] when this step exhausted its demand stream or
    /// failed it, `None` otherwise (including when no job has work).
    ///
    /// Step errors are isolated: the failing job departs carrying the
    /// error in its [`JobOutcome`]; other jobs keep running.
    pub fn execute_next(
        &mut self,
        fabric: &mut dyn Fabric,
        sink: Option<&mut dyn RecordSink>,
    ) -> Option<Departure> {
        let (request_at, slot) = self.next_request_at()?;
        let st = self.slots[slot].as_mut().expect("scheduled slot is live");
        let i = st.executed;
        // A failing step departs at its request instant: `gpu_free` alone
        // can predate the event that dispatched this step (the request
        // adds barrier + α), and a departure in the caller's past would
        // run its event clock backwards.
        let fail_ps = request_at.max(st.gpu_free);
        let explain = self.keep_reports || sink.is_some();
        let (choice, why) =
            match st
                .job
                .decider
                .decide(i, &st.pending, st.job.ports.len(), st.prev, explain)
            {
                Ok(decision) => decision,
                Err(e) => return Some(st.fail(slot, e, fail_ps)),
            };
        let matched = choice == ConfigChoice::Matched;
        let local_target = if matched {
            &st.pending.matching
        } else {
            &st.job.base_config
        };
        self.pairs.clear();
        self.pairs.extend(
            st.pending
                .matching
                .pairs()
                .map(|(s, d)| (st.job.ports[s], st.job.ports[d])),
        );
        let target = tenant_target(
            fabric.current(),
            &st.job.ports,
            local_target,
            &self.owner,
            slot,
            &mut self.targets,
        );
        let input = StepInput {
            step: i,
            matched,
            target,
            pairs: &self.pairs,
            bytes_per_pair: st.pending.bytes_per_pair,
            barrier_n: st.job.ports.len(),
            first: i == 0,
        };
        let dest: &mut SimReport = if self.keep_reports {
            &mut st.report
        } else {
            self.fold.steps.clear();
            self.fold.trace.clear();
            &mut self.fold
        };
        let step_idx = dest.steps.len();
        let trace_before = dest.trace.len();
        if let Some(why) = why {
            // Stamped no later than the step's natural fabric request:
            // under reconfigure/compute overlap that request fires when
            // the previous step's flows drain, before the GPUs are free,
            // and the decision must precede its own ReconfigStart.
            dest.trace.push(TraceEvent {
                at: request_at.min(st.gpu_free),
                kind: TraceKind::Decision {
                    step: i,
                    matched,
                    why,
                },
            });
        }
        let (comm_end, gpu_free) = match execute_step(
            fabric,
            &input,
            &self.cfg,
            st.comm_end,
            st.gpu_free,
            dest,
            &mut self.scratch,
        ) {
            Ok(clocks) => clocks,
            Err(e) => return Some(st.fail(slot, e, fail_ps)),
        };
        self.summary.absorb(&dest.steps[step_idx], matched);
        self.summary.total_ps = self.summary.total_ps.max(gpu_free).max(comm_end);
        if let Some(s) = sink {
            s.record_step(&StepRecord {
                step: i,
                tenant: st.job.tag,
                matched,
                report: &dest.steps[step_idx],
                events: &dest.trace[trace_before..],
                config: fabric.current(),
                busy_until: fabric.busy_until(),
            });
        }
        st.comm_end = comm_end;
        st.gpu_free = gpu_free;
        st.prev = choice;
        if self.keep_reports {
            st.choices.push(choice);
        }
        st.executed += 1;
        st.has_pending =
            st.executed < st.job.bound && st.job.demand.pull(st.executed, &mut st.pending);
        if st.has_pending {
            None
        } else {
            Some(Departure {
                slot,
                finish_ps: st.gpu_free,
                failed: false,
            })
        }
    }

    /// Executes steps until no resident job has work left; departed jobs
    /// stay resident until removed.
    pub(crate) fn drain(&mut self, fabric: &mut dyn Fabric, mut sink: Option<&mut dyn RecordSink>) {
        while self.next_request_at().is_some() {
            // Reborrow through the blanket `impl RecordSink for &mut S` so
            // the sink is not held across iterations.
            self.execute_next(fabric, sink.as_mut().map(|s| s as &mut dyn RecordSink));
        }
    }

    /// Evicts a departed job and releases its ports for the next arrival.
    /// Returns `None` when the slot is vacant (already removed). The job
    /// must have departed — removing a job with runnable work would
    /// corrupt the interleaving, so that is a debug-mode panic.
    pub fn remove(&mut self, slot: usize) -> Option<JobOutcome> {
        let mut st = self.take(slot)?;
        let report = st.final_report(self.keep_reports);
        Some(JobOutcome {
            id: st.id,
            name: st.job.name,
            start_ps: st.start_ps,
            finish_ps: st.gpu_free,
            steps: st.executed,
            error: st.error,
            report,
        })
    }

    fn take(&mut self, slot: usize) -> Option<JobState<'a>> {
        let st = self.slots.get_mut(slot)?.take()?;
        debug_assert!(
            !st.has_pending || st.error.is_some(),
            "removed a job that still has work"
        );
        for &p in &st.job.ports {
            self.owner[p] = None;
        }
        self.free_slots.push(slot);
        self.live -= 1;
        Some(st)
    }

    /// Runs `job` alone on `fabric` from t = 0 (or from its checkpoint,
    /// whose fabric state is restored first) until its demand or step
    /// bound runs out — the engine of the single-collective entry points.
    ///
    /// # Errors
    ///
    /// The admission error, the error that stopped the job, or the
    /// fabric's refusal of the checkpointed state.
    pub(crate) fn run_alone(
        fabric: &mut dyn Fabric,
        cfg: &RunConfig,
        keep_reports: bool,
        job: Job<'a>,
        sink: Option<&mut dyn RecordSink>,
    ) -> Result<LoneRun, SimError> {
        if let Some(cp) = job.resume {
            fabric.load_state(&cp.fabric)?;
        }
        let mut exec = Self::new(fabric.n(), *cfg, keep_reports);
        let slot = exec.admit_job(0, job, 0)?.slot;
        exec.drain(fabric, sink);
        let mut st = exec.take(slot).expect("the lone job is resident");
        let report = st.final_report(keep_reports);
        if let Some(e) = st.error {
            return Err(e);
        }
        Ok(LoneRun {
            report: report.unwrap_or_default(),
            choices: st.choices,
            end: StreamCheckpoint {
                steps_done: st.executed,
                prev: st.prev,
                comm_end: st.comm_end,
                gpu_free: st.gpu_free,
                summary: exec.summary,
                fabric: fabric.save_state(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{execute_tenants, TenantSpec};
    use aps_collectives::{allreduce, ScheduleStream};
    use aps_core::SwitchSchedule;
    use aps_cost::units::MIB;
    use aps_cost::ReconfigModel;
    use aps_fabric::CircuitSwitch;

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

    fn spec_of(t: &TenantSpec) -> ServiceJobSpec {
        ServiceJobSpec {
            name: t.name.clone(),
            ports: t.ports.clone(),
            base_config: t.base_config.clone(),
            workload: Box::new(ScheduleStream::new(t.schedule.clone())),
            switching: ServiceSwitching::Schedule(t.switch_schedule.clone()),
        }
    }

    fn fabric_for(n: usize, tenants: &[TenantSpec]) -> CircuitSwitch {
        crate::scenarios::Scenario {
            name: "svc-test".into(),
            n,
            tenants: tenants.to_vec(),
        }
        .fabric(ReconfigModel::constant(5e-6).unwrap())
        .unwrap()
    }

    #[test]
    fn all_at_t0_matches_execute_tenants_bitwise() {
        // The lockstep differential: jobs admitted at t = 0 in tenant
        // order reproduce execute_tenants byte-for-byte.
        let tenants = vec![
            tenant("a", (0..8).collect(), MIB, true),
            tenant("b", (8..12).collect(), 4.0 * MIB, false),
            tenant("c", (12..16).collect(), 2.0 * MIB, true),
        ];
        let cfg = RunConfig::paper_defaults();
        let mut fab_t = fabric_for(16, &tenants);
        let want = execute_tenants(&mut fab_t, &tenants, &cfg, None).unwrap();

        let mut fab_s = fabric_for(16, &tenants);
        let mut exec = ServiceExecutor::new(16, cfg, true);
        for (i, t) in tenants.iter().enumerate() {
            exec.admit(i as u64, spec_of(t), 0).unwrap();
        }
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None, None, None];
        let mut guard = 0;
        while exec.next_request_at().is_some() {
            if let Some(dep) = exec.execute_next(&mut fab_s, None) {
                let out = exec.remove(dep.slot).unwrap();
                let id = out.id as usize;
                outcomes[id] = Some(out);
            }
            guard += 1;
            assert!(guard < 10_000, "service run did not terminate");
        }
        for (i, t) in tenants.iter().enumerate() {
            let got = outcomes[i].as_ref().unwrap();
            let want = want[i].as_ref().unwrap();
            assert_eq!(got.name, t.name);
            assert_eq!(got.start_ps, want.arrival_ps);
            assert_eq!(got.finish_ps, want.finish_ps, "job {i} finish");
            assert_eq!(got.report.as_ref().unwrap(), &want.report, "job {i} report");
        }
    }

    #[test]
    fn empty_workload_departs_at_start() {
        let t = tenant("solo", (0..4).collect(), MIB, false);
        let mut spec = spec_of(&t);
        let empty = aps_collectives::Schedule::new(
            4,
            aps_collectives::CollectiveKind::Barrier,
            "empty",
            Vec::new(),
        )
        .unwrap();
        spec.workload = Box::new(ScheduleStream::new(empty));
        spec.switching = ServiceSwitching::Uniform(ConfigChoice::Base);
        let cfg = RunConfig::paper_defaults();
        let mut exec = ServiceExecutor::new(4, cfg, false);
        let adm = exec.admit(0, spec, 123).unwrap();
        assert!(!adm.has_work, "an empty workload has no pending step");
        assert!(exec.next_request_at().is_none());
        let out = exec.remove(adm.slot).unwrap();
        assert_eq!(out.finish_ps, 123);
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn port_conflicts_and_dimensions_are_rejected_without_claiming() {
        let t = tenant("a", (0..8).collect(), MIB, true);
        let cfg = RunConfig::paper_defaults();
        let mut exec = ServiceExecutor::new(8, cfg, false);
        // Out-of-range port.
        let mut bad = spec_of(&t);
        bad.ports = (4..12).collect();
        assert!(matches!(
            exec.admit(0, bad, 0),
            Err(SimError::BadTenantPorts { port: 8, .. })
        ));
        // Nothing was claimed: the valid spec still admits.
        exec.admit(1, spec_of(&t), 0).unwrap();
        // Overlap with the live job.
        assert!(matches!(
            exec.admit(2, spec_of(&t), 0),
            Err(SimError::BadTenantPorts { port: 0, .. })
        ));
        // Dimension mismatch: 8-rank workload on 4 ports.
        let mut wrong = spec_of(&t);
        wrong.ports = vec![];
        assert!(matches!(
            exec.admit(3, wrong, 0),
            Err(SimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn removal_releases_ports_for_reuse() {
        let t = tenant("a", (0..4).collect(), MIB, false);
        let cfg = RunConfig::paper_defaults();
        let mut fab = fabric_for(4, std::slice::from_ref(&t));
        let mut exec = ServiceExecutor::new(4, cfg, false);
        exec.admit(0, spec_of(&t), 0).unwrap();
        let dep = loop {
            if let Some(d) = exec.execute_next(&mut fab, None) {
                break d;
            }
        };
        assert!(!dep.failed);
        let out = exec.remove(dep.slot).unwrap();
        assert!(out.error.is_none());
        assert_eq!(out.steps, t.schedule.num_steps());
        assert!(exec.remove(dep.slot).is_none(), "second remove is vacant");
        assert_eq!(exec.live_jobs(), 0);
        // Ports are free again: the same spec admits into the same slot.
        let adm = exec.admit(1, spec_of(&t), out.finish_ps).unwrap();
        assert_eq!(adm.slot, dep.slot);
    }

    #[test]
    fn schedule_length_mismatch_is_caught_at_admission() {
        let t = tenant("a", (0..4).collect(), MIB, true);
        let mut spec = spec_of(&t);
        spec.switching = ServiceSwitching::Schedule(SwitchSchedule::all_matched(1));
        let cfg = RunConfig::paper_defaults();
        let mut exec = ServiceExecutor::new(4, cfg, false);
        assert!(matches!(
            exec.admit(0, spec, 0),
            Err(SimError::ScheduleLengthMismatch { .. })
        ));
    }
}
