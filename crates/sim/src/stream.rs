//! Streaming execution: pull demand lazily from a [`Workload`].
//!
//! The entry points here take their demand from any
//! [`aps_collectives::Workload`], one step at a time, priced on demand and
//! decided online — **O(1) schedule memory** regardless of stream length,
//! so million-step training loops and endless traffic generators run
//! without ever materializing a step vector. Each admits one job that owns
//! every fabric port into a [`crate::service::ServiceExecutor`] and drains
//! it, so they share the one step loop with every other entry point:
//!
//! * [`run_workload`] — the streaming adaptive run: a [`Controller`]
//!   decides each pulled step online from a **two-step observation
//!   window** (the current step plus the previous one, so transition
//!   charges see the real previous matching), and every decision lands in
//!   the trace exactly like [`crate::exec::run_adaptive`]'s. An optional
//!   [`RecordSink`] (see [`crate::record`]) observes each committed step —
//!   the hook deterministic replay (`aps-replay`) is built on.
//! * [`run_workload_totals`] — the same adaptive run with O(1) *report*
//!   memory too: per-step reports and trace events fold into a
//!   [`StreamSummary`] instead of accumulating, so a ≥10⁶-step run holds
//!   constant memory end to end. [`run_workload_segment`] adds a record
//!   sink and [`StreamCheckpoint`] capture/resume, so endless runs can be
//!   checkpointed mid-stream and continued bit-identically.
//!
//! A precomputed [`SwitchSchedule`] replays over a materialized schedule
//! through [`crate::exec::run_scheduled`].
//!
//! ## Windowed observations and controller parity
//!
//! Online controllers ([`aps_core::controller::Static`],
//! [`AlwaysReconfigure`](aps_core::controller::AlwaysReconfigure),
//! [`Threshold`](aps_core::controller::Threshold),
//! [`Greedy`](aps_core::controller::Greedy)) read at most the current
//! step's costs and the previous step's configuration — exactly what the
//! window carries — so their streaming decisions, rationales and
//! timelines are **bit-identical** to a materialized
//! [`crate::exec::run_adaptive`] of the same demand (pinned by the
//! workspace's differential tests). Planning controllers that look ahead
//! ([`DpPlanned`](aps_core::controller::DpPlanned)) see only the window
//! and therefore degenerate to their myopic one-step rule under
//! streaming — by construction: an unbounded stream has no suffix to
//! solve.

use crate::error::SimError;
use crate::exec::RunConfig;
use crate::record::RecordSink;
use crate::report::{SimReport, StepReport};
use crate::service::{Decider, Demand, Job, LoneRun, PricedWindow, ServiceExecutor};
use aps_collectives::{Step, Workload};
use aps_core::controller::Controller;
use aps_core::problem::config_of_topology;
use aps_core::{ConfigChoice, SwitchSchedule};
use aps_cost::units::Picos;
use aps_cost::ReconfigModel;
use aps_fabric::{Fabric, FabricState};
use aps_topology::Topology;

/// How the streaming adaptive runs price a pulled step for the
/// controller's observation window: the reconfiguration delay model
/// behind transition charges. The window prices θ with the exact
/// forced-path solver and charges reconfigurations under the paper's
/// conservative accounting, as materialized planning does.
#[derive(Debug, Clone, Copy)]
pub struct StreamPricing {
    /// Reconfiguration delay pricing (`α_r`) for transition charges.
    pub reconfig: ReconfigModel,
}

impl StreamPricing {
    /// Window pricing around the given delay model.
    pub fn new(reconfig: ReconfigModel) -> Self {
        Self { reconfig }
    }
}

/// O(1)-memory aggregate of a streamed run — what
/// [`run_workload_totals`] returns instead of a per-step
/// [`SimReport`].
///
/// The five phase sums (`barrier_ps` through `compute_ps`) saturate at
/// [`Picos::MAX`] instead of wrapping: phases of concurrent jobs overlap
/// in time, so their sum can exceed any one clock that still fits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamSummary {
    /// Steps pulled and executed.
    pub steps: usize,
    /// Steps the controller ran matched.
    pub matched_steps: usize,
    /// Steps that triggered a physical reconfiguration.
    pub reconfig_events: usize,
    /// Completion time of the whole stream.
    pub total_ps: Picos,
    /// Summed barrier waits.
    pub barrier_ps: Picos,
    /// Summed fixed step latencies.
    pub alpha_ps: Picos,
    /// Summed visible reconfiguration stalls.
    pub reconfig_ps: Picos,
    /// Summed transfer times.
    pub transfer_ps: Picos,
    /// Summed compute phases.
    pub compute_ps: Picos,
}

impl StreamSummary {
    /// Completion time in seconds.
    pub fn total_s(&self) -> f64 {
        aps_cost::units::picos_to_secs(self.total_ps)
    }

    /// Merges two summaries of runs that share one simulated clock — the
    /// monoid fold for combining per-shard (e.g. per-job) service
    /// summaries deterministically. Step counts and phase sums add;
    /// `total_ps` takes the max, because shards complete on the same
    /// global timeline. Phase sums saturate at [`Picos::MAX`].
    /// Associative, commutative, and `StreamSummary::default()` is the
    /// identity.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        Self {
            steps: self.steps + other.steps,
            matched_steps: self.matched_steps + other.matched_steps,
            reconfig_events: self.reconfig_events + other.reconfig_events,
            total_ps: self.total_ps.max(other.total_ps),
            barrier_ps: self.barrier_ps.saturating_add(other.barrier_ps),
            alpha_ps: self.alpha_ps.saturating_add(other.alpha_ps),
            reconfig_ps: self.reconfig_ps.saturating_add(other.reconfig_ps),
            transfer_ps: self.transfer_ps.saturating_add(other.transfer_ps),
            compute_ps: self.compute_ps.saturating_add(other.compute_ps),
        }
    }

    /// Folds one step's report into the totals.
    pub(crate) fn absorb(&mut self, step: &StepReport, matched: bool) {
        self.steps += 1;
        self.matched_steps += usize::from(matched);
        self.reconfig_events += usize::from(step.ports_changed > 0);
        self.barrier_ps = self.barrier_ps.saturating_add(step.barrier_ps);
        self.alpha_ps = self.alpha_ps.saturating_add(step.alpha_ps);
        self.reconfig_ps = self.reconfig_ps.saturating_add(step.reconfig_ps);
        self.transfer_ps = self.transfer_ps.saturating_add(step.transfer_ps);
        self.compute_ps = self.compute_ps.saturating_add(step.compute_ps);
    }
}

/// A point-in-time capture of a streaming adaptive run: everything
/// [`run_workload_segment`] needs to continue a run bit-identically on a
/// fresh fabric and a rewound workload. The workload *cursor* is not
/// stored — it is re-derived through the [`Workload::reset`] replay
/// contract (reset, then pull and discard `steps_done` steps), which is
/// exactly why that contract demands bit-identical replays.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    /// Steps executed before the capture; the resumed run starts at this
    /// stream index.
    pub steps_done: usize,
    /// The configuration choice of the last executed step (seeds the next
    /// step's transition charge).
    pub prev: ConfigChoice,
    /// The communication clock: when the last step's flows drained.
    pub comm_end: Picos,
    /// The compute clock: when the GPUs last freed.
    pub gpu_free: Picos,
    /// Totals accumulated so far; the resumed segment keeps adding to
    /// them, so the final summary covers the whole stream.
    pub summary: StreamSummary,
    /// The fabric's mutable device state at capture time.
    pub fabric: FabricState,
}

/// Rejects malformed streamed steps (workloads are trusted streams, not
/// validated schedules).
pub(crate) fn validate_step(i: usize, n: usize, step: &Step) -> Result<(), SimError> {
    if step.matching.n() != n {
        return Err(SimError::DimensionMismatch {
            fabric: n,
            collective: step.matching.n(),
        });
    }
    if !step.bytes_per_pair.is_finite() || step.bytes_per_pair < 0.0 {
        return Err(SimError::BadStepVolume {
            step: i,
            bytes: step.bytes_per_pair,
        });
    }
    Ok(())
}

/// Executes a streamed workload with `controller` deciding each pulled
/// step online — the lazy [`crate::exec::run_adaptive`]. Decisions are
/// tagged in the trace with the controller's rationale, exactly like the
/// materialized run; see the [module docs](self) for the
/// observation-window semantics. The workload must be finite (the run
/// returns when the stream exhausts); use [`run_workload_totals`] with a
/// step budget for unbounded streams. An optional [`RecordSink`]
/// observes every committed step; `None` records nothing and costs
/// nothing.
///
/// # Errors
///
/// Fails on dimension mismatches, a base topology that is not a circuit
/// configuration, θ pricing failures, malformed streamed steps, fabric
/// errors, or unroutable pairs.
pub fn run_workload(
    fabric: &mut dyn Fabric,
    base: &Topology,
    workload: &mut dyn Workload,
    controller: &dyn Controller,
    pricing: StreamPricing,
    cfg: &RunConfig,
    sink: Option<&mut dyn RecordSink>,
) -> Result<(SwitchSchedule, SimReport), SimError> {
    let run = run_windowed(
        fabric,
        base,
        workload,
        controller,
        pricing,
        cfg,
        None,
        usize::MAX,
        true,
        sink,
    )?;
    Ok((SwitchSchedule::new(run.choices), run.report))
}

/// [`run_workload`] with O(1) report memory: per-step timing folds into
/// a [`StreamSummary`] and no trace is kept, so arbitrarily long (even
/// endless) streams run in constant memory. At most `max_steps` steps
/// are pulled — the stream's own exhaustion ends the run earlier.
///
/// # Errors
///
/// See [`run_workload`].
pub fn run_workload_totals(
    fabric: &mut dyn Fabric,
    base: &Topology,
    workload: &mut dyn Workload,
    controller: &dyn Controller,
    pricing: StreamPricing,
    cfg: &RunConfig,
    max_steps: usize,
) -> Result<StreamSummary, SimError> {
    run_windowed(
        fabric, base, workload, controller, pricing, cfg, None, max_steps, false, None,
    )
    .map(|run| run.end.summary)
}

/// [`run_workload_totals`] as a *resumable segment*: optionally restores a
/// [`StreamCheckpoint`] (rewinding the workload through its reset-replay
/// contract and restoring the fabric state), executes steps
/// `[checkpoint.steps_done, max_steps)` — `max_steps` is the **absolute**
/// stream index bound, not a per-segment budget — and returns the
/// cumulative summary together with the checkpoint at exit, so a
/// million-step endless stream can be checkpointed mid-run and continued
/// bit-identically. An optional [`RecordSink`] observes the segment's
/// steps exactly as [`run_workload`]'s would.
///
/// # Errors
///
/// See [`run_workload`]; additionally fails when the rewound stream
/// replays shorter than the checkpoint claims, or the fabric rejects the
/// checkpointed state (dimension mismatch).
#[allow(clippy::too_many_arguments)]
pub fn run_workload_segment(
    fabric: &mut dyn Fabric,
    base: &Topology,
    workload: &mut dyn Workload,
    controller: &dyn Controller,
    pricing: StreamPricing,
    cfg: &RunConfig,
    resume: Option<&StreamCheckpoint>,
    max_steps: usize,
    sink: Option<&mut dyn RecordSink>,
) -> Result<(StreamSummary, StreamCheckpoint), SimError> {
    run_windowed(
        fabric, base, workload, controller, pricing, cfg, resume, max_steps, false, sink,
    )
    .map(|run| (run.end.summary, run.end))
}

/// Runs `workload` alone on `fabric` under `controller`'s two-step window
/// — the job behind the streaming adaptive entry points. `keep_reports`
/// chooses the full report over the O(1) summary alone.
#[allow(clippy::too_many_arguments)]
fn run_windowed(
    fabric: &mut dyn Fabric,
    base: &Topology,
    workload: &mut dyn Workload,
    controller: &dyn Controller,
    pricing: StreamPricing,
    cfg: &RunConfig,
    resume: Option<&StreamCheckpoint>,
    max_steps: usize,
    keep_reports: bool,
    sink: Option<&mut dyn RecordSink>,
) -> Result<LoneRun, SimError> {
    let n = base.n();
    if fabric.n() != n || workload.n() != n {
        return Err(SimError::DimensionMismatch {
            fabric: fabric.n(),
            collective: if workload.n() != n { workload.n() } else { n },
        });
    }
    let base_config = config_of_topology(base).ok_or(SimError::BaseNotACircuit)?;
    let window = PricedWindow::new(base, base_config.clone(), controller, &pricing, cfg);
    let job = Job {
        bound: max_steps,
        resume,
        ..Job::lone(
            n,
            base_config,
            Demand::Borrowed(workload),
            Decider::Window(Box::new(window)),
        )
    };
    ServiceExecutor::run_alone(fabric, cfg, keep_reports, job, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_adaptive;
    use aps_collectives::{allreduce, alltoall, WorkloadCtx};
    use aps_core::controller::{AlwaysReconfigure, DpPlanned, Greedy, Static, Threshold};
    use aps_core::SwitchingProblem;
    use aps_cost::units::MIB;
    use aps_cost::CostParams;
    use aps_fabric::CircuitSwitch;
    use aps_flow::solver::{ThetaCache, ThroughputSolver};
    use aps_matrix::Matching;
    use aps_topology::builders;

    fn ring_config(n: usize) -> Matching {
        Matching::shift(n, 1).unwrap()
    }

    fn switch(n: usize, alpha_r: f64) -> CircuitSwitch {
        CircuitSwitch::new(ring_config(n), ReconfigModel::constant(alpha_r).unwrap())
    }

    #[test]
    fn online_controllers_stream_bit_identically_to_run_adaptive() {
        // The two-step window carries everything an online controller
        // reads, so streaming and materialized adaptive runs must agree
        // byte for byte — decisions, rationales, trace, timing.
        let n = 8;
        let bytes = 4.0 * MIB;
        let alpha_r = 5e-6;
        let base = builders::ring_unidirectional(n).unwrap();
        let reconfig = ReconfigModel::constant(alpha_r).unwrap();
        let cfg = RunConfig::paper_defaults();
        for schedule in [
            allreduce::halving_doubling::build(n, bytes)
                .unwrap()
                .schedule,
            alltoall::linear_shift(n, bytes).unwrap().schedule,
        ] {
            let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
            let problem = SwitchingProblem::build(
                &base,
                &schedule,
                &mut cache,
                CostParams::paper_defaults(),
                reconfig,
            )
            .unwrap();
            for ctl in [
                &Static as &dyn Controller,
                &AlwaysReconfigure,
                &Threshold,
                &Greedy,
            ] {
                let mut f1 = switch(n, alpha_r);
                let (want_sw, want) =
                    run_adaptive(&mut f1, &ring_config(n), &problem, ctl, &cfg).unwrap();
                let mut f2 = switch(n, alpha_r);
                let mut w = schedule.stream();
                let (got_sw, got) = run_workload(
                    &mut f2,
                    &base,
                    &mut w,
                    ctl,
                    StreamPricing::new(reconfig),
                    &cfg,
                    None,
                )
                .unwrap();
                assert_eq!(want_sw, got_sw, "{}", ctl.name());
                assert_eq!(want, got, "{}", ctl.name());
            }
        }
    }

    #[test]
    fn totals_match_the_full_report() {
        let n = 8;
        let base = builders::ring_unidirectional(n).unwrap();
        let reconfig = ReconfigModel::constant(5e-6).unwrap();
        let cfg = RunConfig::paper_defaults();
        let schedule = allreduce::halving_doubling::build(n, 4.0 * MIB)
            .unwrap()
            .schedule;
        let mut f1 = switch(n, 5e-6);
        let mut w = schedule.stream();
        let (sw, full) = run_workload(
            &mut f1,
            &base,
            &mut w,
            &Greedy,
            StreamPricing::new(reconfig),
            &cfg,
            None,
        )
        .unwrap();
        let mut f2 = switch(n, 5e-6);
        let mut w = schedule.stream();
        let totals = run_workload_totals(
            &mut f2,
            &base,
            &mut w,
            &Greedy,
            StreamPricing::new(reconfig),
            &cfg,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(totals.steps, full.steps.len());
        assert_eq!(totals.matched_steps, sw.matched_steps());
        assert_eq!(totals.total_ps, full.total_ps);
        assert_eq!(totals.reconfig_events, full.reconfig_events());
        assert_eq!(
            totals.transfer_ps,
            full.steps.iter().map(|s| s.transfer_ps).sum::<Picos>()
        );
        // The step budget truncates the pull loop.
        let mut f3 = switch(n, 5e-6);
        let mut w = schedule.stream();
        let capped = run_workload_totals(
            &mut f3,
            &base,
            &mut w,
            &Greedy,
            StreamPricing::new(reconfig),
            &cfg,
            3,
        )
        .unwrap();
        assert_eq!(capped.steps, 3);
    }

    #[test]
    fn dp_planned_streams_as_its_myopic_window_rule() {
        // DpPlanned's window suffix collapses to the current step, so the
        // streaming decisions coincide with Greedy's — the documented
        // degeneration for planning controllers.
        let n = 8;
        let base = builders::ring_unidirectional(n).unwrap();
        let reconfig = ReconfigModel::constant(1e-5).unwrap();
        let cfg = RunConfig::paper_defaults();
        let schedule = allreduce::halving_doubling::build(n, 16.0 * MIB)
            .unwrap()
            .schedule;
        let mut f1 = switch(n, 1e-5);
        let mut w = schedule.stream();
        let (dp_sw, _) = run_workload(
            &mut f1,
            &base,
            &mut w,
            &DpPlanned,
            StreamPricing::new(reconfig),
            &cfg,
            None,
        )
        .unwrap();
        let mut f2 = switch(n, 1e-5);
        let mut w = schedule.stream();
        let (greedy_sw, _) = run_workload(
            &mut f2,
            &base,
            &mut w,
            &Greedy,
            StreamPricing::new(reconfig),
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(dp_sw, greedy_sw);
    }

    #[test]
    fn streaming_rejects_structural_errors() {
        let n = 8;
        let cfg = RunConfig::paper_defaults();
        let reconfig = ReconfigModel::constant(1e-6).unwrap();
        let schedule = allreduce::ring::build(n, 1e3).unwrap().schedule;

        // Fabric/workload dimension mismatch.
        let mut small = switch(4, 1e-6);
        let base = builders::ring_unidirectional(n).unwrap();
        let mut w = schedule.stream();
        assert!(matches!(
            run_workload(
                &mut small,
                &base,
                &mut w,
                &Static,
                StreamPricing::new(reconfig),
                &cfg,
                None
            ),
            Err(SimError::DimensionMismatch { .. })
        ));

        // Non-circuit base.
        let bidi = builders::ring_bidirectional(n).unwrap();
        let mut fab = switch(n, 1e-6);
        let mut w = schedule.stream();
        assert!(matches!(
            run_workload(
                &mut fab,
                &bidi,
                &mut w,
                &Static,
                StreamPricing::new(reconfig),
                &cfg,
                None
            ),
            Err(SimError::BaseNotACircuit)
        ));

        // Malformed streamed volume.
        struct BadVolume(usize);
        impl Workload for BadVolume {
            fn n(&self) -> usize {
                self.0
            }
            fn name(&self) -> &str {
                "bad"
            }
            fn next_step(&mut self, _: &WorkloadCtx) -> Option<aps_collectives::Step> {
                Some(aps_collectives::Step {
                    matching: Matching::shift(self.0, 1).unwrap(),
                    bytes_per_pair: f64::NAN,
                })
            }
            fn reset(&mut self) {}
        }
        let mut fab = switch(n, 1e-6);
        assert!(matches!(
            run_workload(
                &mut fab,
                &base,
                &mut BadVolume(n),
                &Static,
                StreamPricing::new(reconfig),
                &cfg,
                None
            ),
            Err(SimError::BadStepVolume { step: 0, .. })
        ));
    }
}

#[cfg(test)]
mod merge_tests {
    use super::{Picos, StreamSummary};

    fn summary(k: u64) -> StreamSummary {
        StreamSummary {
            steps: k as usize,
            matched_steps: (k / 2) as usize,
            reconfig_events: (k / 3) as usize,
            total_ps: 1000 * k,
            barrier_ps: 10 * k,
            alpha_ps: 11 * k,
            reconfig_ps: 12 * k,
            transfer_ps: 13 * k,
            compute_ps: 14 * k,
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (summary(3), summary(7), summary(11));
        assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
        assert_eq!(a.merge(b), b.merge(a));
    }

    #[test]
    fn default_is_the_merge_identity() {
        let a = summary(5);
        assert_eq!(a.merge(StreamSummary::default()), a);
        assert_eq!(StreamSummary::default().merge(a), a);
    }

    #[test]
    fn merge_adds_sums_and_maxes_the_clock() {
        let m = summary(2).merge(summary(5));
        assert_eq!(m.steps, 7);
        assert_eq!(m.total_ps, 5000, "shards share one clock: max, not sum");
        assert_eq!(m.transfer_ps, 13 * 7);
        // Phase sums stop at the clock's limit instead of wrapping.
        let full = StreamSummary {
            transfer_ps: Picos::MAX - 1,
            compute_ps: Picos::MAX,
            ..summary(1)
        };
        let m = full.merge(summary(2));
        assert_eq!(m.transfer_ps, Picos::MAX);
        assert_eq!(m.compute_ps, Picos::MAX);
        assert_eq!(m.barrier_ps, 30);
        assert_eq!(m, summary(2).merge(full));
    }
}
