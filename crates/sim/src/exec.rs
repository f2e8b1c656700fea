//! Collective execution on a reconfigurable fabric: the step engine and
//! the single-collective entry points.
//!
//! `execute_step` (crate-private) runs one step's timeline; the only
//! caller is [`crate::service::ServiceExecutor::execute_next`]. A step
//! translates its pairs to fabric ports and routes them through
//! [`crate::fluid::simulate_circuit_step`], unless the job's ports ascend
//! (admission decides that once) and, once the request is served, the
//! fabric's configuration is the step's target: `current == target`, a
//! pointer comparison when the two share a buffer. The target holds the
//! job's local target on its ports and no other circuit from them, so then
//! each of the job's ports sends exactly where its rank does: every arc of
//! the step's pairs lies on the job's own circuits, routes or fails as in
//! ranks, and shares links with no flow of another job (a foreign circuit
//! can only feed a chain's head). Ascending ports keep the order of the
//! job's ranks on its links, so the lowest-link-id tie-breaks pick the
//! same links, and the arc solve's arithmetic reads nothing but the arcs.
//! So the step's slowest flow is a function of its job-local key, the
//! local target, the step's matching in local ranks and the bits of its
//! volume (the executor fixes bandwidth and δ), wherever the job sits. A
//! step whose matching is the local target is all direct circuits,
//! answered in O(1) (`fluid::direct_circuits`), and any other step that ran
//! before is answered by the executor's step memo (the last 16 routed
//! steps). Every other step routes (a memo miss, ports out of order, a
//! stuck port, an unroutable pair), and only a routed step that succeeded
//! under the condition is remembered.
//!
//! The entry points here admit one job that owns every fabric port and
//! drain it through that executor:
//!
//! * [`run_scheduled`] executes a *precomputed* [`SwitchSchedule`] (e.g.
//!   a controller's plan, or a hand-written decision vector) over a
//!   materialized [`Schedule`] — a switch schedule holds one entry per
//!   step anyway, so streaming the demand beside it would save nothing;
//! * [`run_adaptive`] consults a [`Controller`] step by step, so the
//!   decision rationale lands in the trace as
//!   [`TraceKind::Decision`] events — the simulator face of the paper's
//!   adaptive vision, and what `adaptive_photonics::Experiment` runs.

use crate::arena::{CircuitScratch, StepMemo};
use crate::error::SimError;
use crate::fluid::{direct_circuits, simulate_circuit_step};
use crate::report::{SimReport, StepReport};
use crate::service::{Decider, Demand, Job, ServiceExecutor, ServiceSwitching};
use crate::trace::{TraceEvent, TraceKind};
use aps_collectives::Schedule;
use aps_core::controller::Controller;
use aps_core::{SwitchSchedule, SwitchingProblem};
use aps_cost::units::{secs_to_picos, Picos, PICOS_PER_SEC};
use aps_cost::CostParams;
use aps_fabric::{BarrierModel, Fabric, FabricError, ReconfigOutcome};
use aps_matrix::Matching;

/// Reduction compute following each step's communication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Seconds of computation per byte received in the step.
    pub per_byte_s: f64,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// α, β (bandwidth), δ.
    pub params: CostParams,
    /// Barrier latency charged at every step boundary.
    pub barrier: BarrierModel,
    /// Optional per-step compute phase.
    pub compute: Option<ComputeModel>,
    /// When `true`, the fabric reconfigures for step `i+1` *while* the GPUs
    /// compute on step `i`'s data (research agenda §4, "overlapping
    /// reconfiguration with computation"). Only the portion of the
    /// reconfiguration delay not hidden by compute remains visible.
    pub overlap_reconfig_with_compute: bool,
}

impl RunConfig {
    /// A configuration around the given cost parameters: free barrier, no
    /// compute, no overlap. The numeric constants live in [`CostParams`]
    /// alone; this constructor only adds the simulator-specific knobs.
    pub fn with_params(params: CostParams) -> Self {
        Self {
            params,
            barrier: BarrierModel::None,
            compute: None,
            overlap_reconfig_with_compute: false,
        }
    }

    /// Paper §3.4 parameters —
    /// [`RunConfig::with_params`]`(`[`CostParams::paper_defaults`]`())`.
    pub fn paper_defaults() -> Self {
        Self::with_params(CostParams::paper_defaults())
    }
}

impl From<CostParams> for RunConfig {
    fn from(params: CostParams) -> Self {
        Self::with_params(params)
    }
}

/// One step's worth of work for [`execute_step`]: the job's communication
/// pattern, how its ranks sit on the fabric, and its clocks.
pub(crate) struct StepInput<'a> {
    /// Step index (for traces and errors).
    pub step: usize,
    /// Whether the step runs on a matched configuration.
    pub matched: bool,
    /// Fabric configuration the step asks for.
    pub target: &'a Matching,
    /// The configuration the step asks for on the job's ports, in its
    /// local ranks.
    pub local_target: &'a Matching,
    /// The step's communicating pairs, in the job's local ranks.
    pub demand: &'a Matching,
    /// The fabric port of each local rank.
    pub ports: &'a [usize],
    /// The job's ports ascend, so its links keep the order of its ranks.
    pub ascending: bool,
    /// Bytes each pair exchanges.
    pub bytes_per_pair: f64,
    /// Nodes synchronizing at the step's barrier.
    pub barrier_n: usize,
    /// `true` for the first step of its collective (no overlap window yet).
    pub first: bool,
    /// When the job's previous step's flows drained.
    pub comm_end: Picos,
    /// When the job's GPUs finished the previous step's compute.
    pub gpu_free: Picos,
}

/// When the step's reconfiguration request would reach the fabric: with
/// overlap enabled, as soon as the previous step's flows drain; otherwise
/// once the control path (barrier + α) arrives. The executor orders jobs
/// and stamps decisions by exactly this instant, and [`execute_step`]
/// requests at it, so it must stay their single source of truth. It
/// saturates at the end of the clock, which only orders a job last:
/// [`execute_step`] reports the overflow.
pub(crate) fn natural_request_at(
    cfg: &RunConfig,
    barrier_n: usize,
    first: bool,
    comm_end: Picos,
    gpu_free: Picos,
) -> Picos {
    let control_ready = gpu_free
        .saturating_add(secs_to_picos(cfg.barrier.latency_s(barrier_n)))
        .saturating_add(secs_to_picos(cfg.params.alpha_s));
    if cfg.overlap_reconfig_with_compute && !first {
        comm_end.min(control_ready)
    } else {
        control_ready
    }
}

/// `secs` on the picosecond clock; `None` when it is negative, not
/// finite, or past the end of the clock.
pub(crate) fn checked_picos(secs: f64) -> Option<Picos> {
    (secs >= 0.0 && secs * PICOS_PER_SEC < Picos::MAX as f64).then(|| secs_to_picos(secs))
}

/// Executes one step's timeline — barrier → α → (arbitrated)
/// reconfiguration → routed max-min transfer → compute — appending to
/// `report` and returning the updated `(comm_end, gpu_free)` clocks.
///
/// A step whose target is already the fabric's current configuration never
/// touches the controller: its circuits are in place, so it neither waits
/// for nor contends with other jobs' reconfigurations. Every other request
/// queues behind an in-flight reconfiguration via
/// [`Fabric::request_when_free`], and the wait is recorded as
/// `arbitration_ps`.
///
/// Where the job's ports ascend and the fabric's configuration after the
/// request is the step's target (see the [module docs](self)), a step
/// whose pairs are the job's local target runs on direct circuits in O(1),
/// and any other step is answered by `memo` when it ran before. Every other
/// step translates its pairs to ports into `pairs` and routes them, and a
/// routed step under that condition is remembered.
///
/// Every clock addition is checked, the fabric's reconfiguration included,
/// and so is the conversion of the transfer and compute times: a step that
/// would run past the end of the picosecond clock, or whose time is not
/// finite, fails with [`SimError::ClockOverflow`].
pub(crate) fn execute_step(
    fabric: &mut dyn Fabric,
    input: &StepInput<'_>,
    cfg: &RunConfig,
    report: &mut SimReport,
    scratch: &mut CircuitScratch,
    memo: &mut StepMemo,
    pairs: &mut Vec<(usize, usize)>,
) -> Result<(Picos, Picos), SimError> {
    let (comm_end, gpu_free) = (input.comm_end, input.gpu_free);
    let clock = |t: Option<Picos>| t.ok_or(SimError::ClockOverflow { step: input.step });
    let bandwidth = cfg.params.bandwidth_bytes_per_sec();
    let barrier_ps = secs_to_picos(cfg.barrier.latency_s(input.barrier_n));
    let alpha_ps = secs_to_picos(cfg.params.alpha_s);

    // Control path: compute → barrier → α.
    let barrier_done = clock(gpu_free.checked_add(barrier_ps))?;
    if barrier_ps > 0 {
        report.trace.push(TraceEvent {
            at: barrier_done,
            kind: TraceKind::Barrier,
        });
    }
    let control_ready = clock(barrier_done.checked_add(alpha_ps))?;

    // Reconfiguration path: overlapped requests start as soon as the
    // previous step's flows drain (the fabric is idle while GPUs
    // compute); otherwise the fabric is asked only once control
    // arrives. A request queues behind an in-flight reconfiguration by
    // another job — unless the circuits are already in place, in which
    // case the controller is never involved. The control path fits the
    // clock, so the natural request does not saturate.
    let natural_request = natural_request_at(cfg, input.barrier_n, input.first, comm_end, gpu_free);
    let (request_at, outcome) = if fabric.current() == input.target {
        let outcome = ReconfigOutcome {
            ready_at: natural_request,
            ports_changed: 0,
        };
        (natural_request, outcome)
    } else {
        fabric
            .request_when_free(input.target, natural_request)
            .map_err(|e| match e {
                FabricError::ClockOverflow { .. } => SimError::ClockOverflow { step: input.step },
                e => SimError::Fabric(e),
            })?
    };
    let arbitration_ps = request_at - natural_request;
    if arbitration_ps > 0 {
        report.trace.push(TraceEvent {
            at: natural_request,
            kind: TraceKind::ArbitrationWait {
                granted_at: request_at,
            },
        });
    }
    if outcome.ports_changed > 0 {
        report.trace.push(TraceEvent {
            at: request_at,
            kind: TraceKind::ReconfigStart {
                ports: outcome.ports_changed,
            },
        });
        report.trace.push(TraceEvent {
            at: outcome.ready_at,
            kind: TraceKind::ReconfigDone,
        });
    }
    let flows_start = control_ready.max(outcome.ready_at);
    let reconfig_visible = flows_start - control_ready;
    report.trace.push(TraceEvent {
        at: flows_start,
        kind: TraceKind::StepStart {
            step: input.step,
            matched: input.matched,
        },
    });

    // Transfer: route every pair on the achieved circuit configuration,
    // which after the request above *is* the fabric's current one. Every
    // port has at most one outgoing circuit, so the only (hence shortest)
    // path from `src` is its arc: the run of circuits from `src` along its
    // chain or cycle up to `dst`. Links are numbered by ascending sender
    // port, `from_matching`'s convention, so bottleneck ties break as in
    // `fluid::reference`. Where the job's ports ascend and the fabric holds
    // the step's target, the step is a function of its job-local key: its
    // pairs on the local target itself are direct circuits, and a step that
    // ran before is answered by the memo. The arc solve works in the
    // long-lived scratch, so a steady-state step performs zero heap
    // allocation.
    let current = fabric.current();
    let delta_s = cfg.params.delta_s;
    let keyed = input.ascending && current == input.target;
    let known = if !keyed {
        None
    } else if input.demand == input.local_target {
        Some(direct_circuits(
            input.demand.len(),
            input.bytes_per_pair,
            bandwidth,
            delta_s,
        ))
    } else {
        memo.get(input.local_target, input.demand, input.bytes_per_pair)
    };
    let (max_hops, worst_s) = match known {
        Some(slowest) => slowest,
        None => {
            let ports = input.ports;
            pairs.clear();
            pairs.extend(input.demand.pairs().map(|(s, d)| (ports[s], ports[d])));
            simulate_circuit_step(current, pairs, input.bytes_per_pair, bandwidth, scratch)
                .map_err(|(src, dst)| SimError::Unroutable {
                    step: input.step,
                    src,
                    dst,
                })?;
            let slowest = scratch.slowest(delta_s);
            if keyed {
                memo.insert(
                    input.local_target,
                    input.demand,
                    input.bytes_per_pair,
                    slowest,
                );
            }
            slowest
        }
    };
    let transfer_ps = if input.demand.is_empty() {
        0
    } else {
        report.trace.push(TraceEvent {
            at: flows_start,
            kind: TraceKind::FlowsStart {
                count: input.demand.len(),
            },
        });
        clock(checked_picos(worst_s))?
    };
    let comm_end = clock(flows_start.checked_add(transfer_ps))?;
    report.trace.push(TraceEvent {
        at: comm_end,
        kind: TraceKind::StepDone { step: input.step },
    });

    // Compute phase on the received data.
    let compute_ps = match cfg.compute {
        Some(c) if !input.demand.is_empty() => {
            clock(checked_picos(c.per_byte_s * input.bytes_per_pair))?
        }
        _ => 0,
    };
    let gpu_free = clock(comm_end.checked_add(compute_ps))?;
    if compute_ps > 0 {
        report.trace.push(TraceEvent {
            at: comm_end,
            kind: TraceKind::ComputeStart,
        });
        report.trace.push(TraceEvent {
            at: gpu_free,
            kind: TraceKind::ComputeDone,
        });
    }

    report.steps.push(StepReport {
        barrier_ps,
        alpha_ps,
        reconfig_ps: reconfig_visible,
        transfer_ps,
        compute_ps,
        arbitration_ps,
        ports_changed: outcome.ports_changed,
        max_hops,
    });
    Ok((comm_end, gpu_free))
}

/// Executes `schedule` under a precomputed `switch_schedule` against the
/// fabric.
///
/// `base_config` is the circuit configuration realizing the base topology
/// (e.g. the unidirectional ring): steps with [`ConfigChoice::Base`] target
/// it, steps with [`ConfigChoice::Matched`] target their own matching.
///
/// For per-step online decisions see [`run_adaptive`]; for several jobs
/// sharing one fabric see [`crate::tenant::execute_tenants`].
///
/// [`ConfigChoice::Base`]: aps_core::ConfigChoice::Base
/// [`ConfigChoice::Matched`]: aps_core::ConfigChoice::Matched
///
/// # Errors
///
/// Fails on dimension/length mismatches, fabric errors, or a pair that
/// cannot be routed on the achieved circuit topology (possible under fault
/// injection).
pub fn run_scheduled(
    fabric: &mut dyn Fabric,
    base_config: &Matching,
    schedule: &Schedule,
    switch_schedule: &SwitchSchedule,
    cfg: &RunConfig,
) -> Result<SimReport, SimError> {
    if switch_schedule.len() != schedule.num_steps() {
        return Err(SimError::ScheduleLengthMismatch {
            expected: schedule.num_steps(),
            got: switch_schedule.len(),
        });
    }
    if fabric.n() != schedule.n() {
        return Err(SimError::DimensionMismatch {
            fabric: fabric.n(),
            collective: schedule.n(),
        });
    }
    let mut steps = schedule.stream();
    let job = Job::lone(
        schedule.n(),
        base_config.clone(),
        Demand::Borrowed(&mut steps),
        Decider::Switching(ServiceSwitching::Schedule(switch_schedule.clone())),
    );
    Ok(ServiceExecutor::run_alone(fabric, cfg, true, job, None)?.report)
}

/// Executes an eq. (7) problem instance against the fabric with
/// `controller` deciding each step online, from the fabric state it
/// actually observes. Every decision is recorded in the trace as a
/// [`TraceKind::Decision`] event carrying the controller's rationale.
/// Returns the realized switch schedule alongside the report.
///
/// The problem carries each step's matching and volume, so no separate
/// collective schedule is needed — build it with
/// [`SwitchingProblem::build`]. The controller observes each step under
/// the paper's conservative reconfiguration accounting, the rule
/// materialized planning uses.
///
/// # Errors
///
/// Fails on dimension mismatches, fabric errors, or unroutable pairs,
/// exactly like [`run_scheduled`].
pub fn run_adaptive(
    fabric: &mut dyn Fabric,
    base_config: &Matching,
    problem: &SwitchingProblem,
    controller: &dyn Controller,
    cfg: &RunConfig,
) -> Result<(SwitchSchedule, SimReport), SimError> {
    if fabric.n() != problem.n {
        return Err(SimError::DimensionMismatch {
            fabric: fabric.n(),
            collective: problem.n,
        });
    }
    let job = Job::lone(
        problem.n,
        base_config.clone(),
        Demand::Problem(problem),
        Decider::Problem {
            problem,
            controller,
        },
    );
    let run = ServiceExecutor::run_alone(fabric, cfg, true, job, None)?;
    Ok((SwitchSchedule::new(run.choices), run.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_collectives::{allreduce, alltoall};
    use aps_cost::units::{picos_to_secs, MIB, NANOS};
    use aps_cost::ReconfigModel;
    use aps_fabric::CircuitSwitch;

    fn ring_config(n: usize) -> Matching {
        Matching::shift(n, 1).unwrap()
    }

    fn switch(n: usize, alpha_r: f64) -> CircuitSwitch {
        CircuitSwitch::new(ring_config(n), ReconfigModel::constant(alpha_r).unwrap())
    }

    #[test]
    fn static_ring_allreduce_matches_analytic() {
        let n = 8;
        let m = 1.0 * MIB;
        let c = allreduce::ring::build(n, m).unwrap();
        let mut fab = switch(n, 10e-6);
        let cfg = RunConfig::paper_defaults();
        let ss = SwitchSchedule::all_base(c.schedule.num_steps());
        let r = run_scheduled(&mut fab, &ring_config(n), &c.schedule, &ss, &cfg).unwrap();
        // Ring steps are 1-hop on the ring config with no congestion:
        // each of the 14 steps costs α + m/n/b + δ.
        let per_step = 100.0 * NANOS + (m / n as f64) / 1e11 + 100.0 * NANOS;
        let expect = 14.0 * per_step;
        assert!(
            (r.total_s() - expect).abs() < 1e-9,
            "sim {} vs analytic {}",
            r.total_s(),
            expect
        );
        assert_eq!(r.reconfig_events(), 0);
    }

    #[test]
    fn matched_steps_pay_reconfiguration() {
        let n = 8;
        let c = allreduce::halving_doubling::build(n, MIB).unwrap();
        let mut fab = switch(n, 5e-6);
        let cfg = RunConfig::paper_defaults();
        let s = c.schedule.num_steps();
        let r = run_scheduled(
            &mut fab,
            &ring_config(n),
            &c.schedule,
            &SwitchSchedule::all_matched(s),
            &cfg,
        )
        .unwrap();
        // The fabric reconfigures physically: halving-doubling's last RS
        // step and first AG step share the xor(1) pattern, so one of the
        // s notional reconfigurations is a free no-op.
        assert_eq!(r.reconfig_events(), s - 1);
        assert!((r.reconfig_s() - (s - 1) as f64 * 5e-6).abs() < 1e-12);
        // Matched transfers are single-hop at full rate.
        for st in &r.steps {
            assert_eq!(st.max_hops, 1);
        }
    }

    #[test]
    fn congestion_shows_up_on_base() {
        // xor(4) on an 8-ring: θ = 1/4 → the transfer takes 4× the
        // dedicated-circuit time (plus wrap propagation).
        let n = 8;
        let m = 4.0 * MIB;
        let c = alltoall::xor_exchange(n, 8.0 * m).unwrap(); // bytes/pair = m
        let mut fab = switch(n, 1e-6);
        let cfg = RunConfig::paper_defaults();
        let ss = SwitchSchedule::all_base(c.schedule.num_steps());
        let r = run_scheduled(&mut fab, &ring_config(n), &c.schedule, &ss, &cfg).unwrap();
        // Step with pattern xor(4) is step index 3 (k = 4).
        let st = &r.steps[3];
        let dedicated = m / 1e11;
        let got = picos_to_secs(st.transfer_ps);
        let expect = 4.0 * dedicated + 4.0 * 100.0 * NANOS;
        assert!((got - expect).abs() < 1e-9, "got {got}, expected {expect}");
    }

    #[test]
    fn overlap_hides_reconfiguration_behind_compute() {
        let n = 8;
        let c = allreduce::halving_doubling::build(n, 64.0 * MIB).unwrap();
        let s = c.schedule.num_steps();
        // Compute long enough to hide a 5 µs reconfiguration entirely.
        let compute = ComputeModel { per_byte_s: 1e-9 };
        let base_cfg = RunConfig {
            compute: Some(compute),
            ..RunConfig::paper_defaults()
        };
        let overlap_cfg = RunConfig {
            overlap_reconfig_with_compute: true,
            ..base_cfg
        };
        let mut f1 = switch(n, 5e-6);
        let r_serial = run_scheduled(
            &mut f1,
            &ring_config(n),
            &c.schedule,
            &SwitchSchedule::all_matched(s),
            &base_cfg,
        )
        .unwrap();
        let mut f2 = switch(n, 5e-6);
        let r_overlap = run_scheduled(
            &mut f2,
            &ring_config(n),
            &c.schedule,
            &SwitchSchedule::all_matched(s),
            &overlap_cfg,
        )
        .unwrap();
        assert!(r_overlap.total_ps < r_serial.total_ps);
        // All but the first physical reconfiguration hide completely behind
        // compute (the xor(1)→xor(1) no-op between the phases is free in
        // both runs): serial pays 5 × 5 µs, overlap pays only the first.
        let physical_events = r_serial.reconfig_events();
        assert_eq!(physical_events, s - 1);
        let hidden = (physical_events - 1) as f64 * 5e-6;
        let diff = r_serial.total_s() - r_overlap.total_s();
        assert!(
            (diff - hidden).abs() < 1e-9,
            "hid {diff}, expected {hidden}"
        );
    }

    #[test]
    fn stuck_port_makes_steps_unroutable() {
        let n = 4;
        let c = alltoall::xor_exchange(n, 4096.0).unwrap();
        let mut fab = switch(n, 1e-6);
        fab.stick_port(0).unwrap();
        let cfg = RunConfig::paper_defaults();
        let s = c.schedule.num_steps();
        let err = run_scheduled(
            &mut fab,
            &ring_config(n),
            &c.schedule,
            &SwitchSchedule::all_matched(s),
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Unroutable { .. }), "{err}");
    }

    #[test]
    fn barrier_latency_is_charged_per_step() {
        let n = 8;
        let c = allreduce::ring::build(n, MIB).unwrap();
        let mut free = switch(n, 1e-6);
        let mut with = switch(n, 1e-6);
        let cfg_free = RunConfig::paper_defaults();
        let cfg_barrier = RunConfig {
            barrier: BarrierModel::Constant { latency_s: 1e-6 },
            ..RunConfig::paper_defaults()
        };
        let ss = SwitchSchedule::all_base(c.schedule.num_steps());
        let a = run_scheduled(&mut free, &ring_config(n), &c.schedule, &ss, &cfg_free).unwrap();
        let b = run_scheduled(&mut with, &ring_config(n), &c.schedule, &ss, &cfg_barrier).unwrap();
        let diff = b.total_s() - a.total_s();
        let expect = c.schedule.num_steps() as f64 * 1e-6;
        assert!((diff - expect).abs() < 1e-12);
    }

    #[test]
    fn a_step_time_the_clock_cannot_hold_is_a_clock_overflow() {
        let n = 4;
        let run = |bytes: f64, cfg: &RunConfig| {
            let c = allreduce::ring::build(n, bytes).unwrap();
            let ss = SwitchSchedule::all_base(c.schedule.num_steps());
            run_scheduled(&mut switch(n, 1e-6), &ring_config(n), &c.schedule, &ss, cfg)
        };
        // 1e300 bytes at 1e-300 Gbps take +∞ seconds to transfer.
        let slow = CostParams::new(100.0 * NANOS, 1e-300, 100.0 * NANOS).unwrap();
        assert_eq!(
            run(1e300, &RunConfig::with_params(slow)),
            Err(SimError::ClockOverflow { step: 0 })
        );
        // A compute time that is not finite, or is past the end of the
        // clock, fails the same way.
        for per_byte_s in [f64::INFINITY, f64::NAN, 1e10] {
            let cfg = RunConfig {
                compute: Some(ComputeModel { per_byte_s }),
                ..RunConfig::paper_defaults()
            };
            assert_eq!(
                run(MIB, &cfg),
                Err(SimError::ClockOverflow { step: 0 }),
                "{per_byte_s}"
            );
        }
    }

    #[test]
    fn schedule_length_mismatch_rejected() {
        let n = 4;
        let c = allreduce::ring::build(n, 1e3).unwrap();
        let mut fab = switch(n, 1e-6);
        let cfg = RunConfig::paper_defaults();
        let steps = c.schedule.num_steps();
        // Too short and too long.
        for got in [1, steps + 3] {
            assert_eq!(
                run_scheduled(
                    &mut fab,
                    &ring_config(n),
                    &c.schedule,
                    &SwitchSchedule::all_base(got),
                    &cfg
                ),
                Err(SimError::ScheduleLengthMismatch {
                    expected: steps,
                    got
                })
            );
        }
        let mut small = switch(8, 1e-6);
        assert!(matches!(
            run_scheduled(
                &mut small,
                &ring_config(8),
                &c.schedule,
                &SwitchSchedule::all_base(c.schedule.num_steps()),
                &cfg
            ),
            Err(SimError::DimensionMismatch { .. })
        ));
    }

    fn problem_for(n: usize, bytes: f64, alpha_r: f64) -> SwitchingProblem {
        use aps_flow::solver::{ThetaCache, ThroughputSolver};
        use aps_topology::builders;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = allreduce::halving_doubling::build(n, bytes).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        SwitchingProblem::build(
            &topo,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            aps_cost::ReconfigModel::constant(alpha_r).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn adaptive_run_matches_scheduled_run_of_the_controllers_plan() {
        use aps_core::controller::shipped;
        let n = 8;
        let bytes = 4.0 * MIB;
        let alpha_r = 5e-6;
        let problem = problem_for(n, bytes, alpha_r);
        let c = allreduce::halving_doubling::build(n, bytes).unwrap();
        let cfg = RunConfig::paper_defaults();
        let acc = aps_core::ReconfigAccounting::PaperConservative;
        for ctl in shipped() {
            let mut fab = switch(n, alpha_r);
            let (switches, adaptive) =
                run_adaptive(&mut fab, &ring_config(n), &problem, ctl, &cfg).unwrap();
            // One tagged decision per step, carrying the rationale.
            let decisions: Vec<_> = adaptive
                .trace
                .iter()
                .filter_map(|e| match &e.kind {
                    TraceKind::Decision { step, matched, why } => Some((*step, *matched, why)),
                    _ => None,
                })
                .collect();
            assert_eq!(decisions.len(), problem.num_steps(), "{}", ctl.name());
            for (i, (step, matched, why)) in decisions.iter().enumerate() {
                assert_eq!(*step, i);
                assert_eq!(
                    *matched,
                    switches.choice(i) == aps_core::ConfigChoice::Matched
                );
                assert!(why.starts_with(ctl.name()), "{why}");
            }
            // Replaying the realized schedule without the controller gives
            // the identical timeline (the decision events aside).
            let mut fab2 = switch(n, alpha_r);
            let replay =
                run_scheduled(&mut fab2, &ring_config(n), &c.schedule, &switches, &cfg).unwrap();
            assert_eq!(adaptive.total_ps, replay.total_ps, "{}", ctl.name());
            assert_eq!(adaptive.steps, replay.steps, "{}", ctl.name());
            // And the plan-then-execute path realizes the same schedule
            // for every deterministic controller.
            assert_eq!(ctl.plan(&problem, acc).unwrap(), switches, "{}", ctl.name());
        }
    }

    #[test]
    fn adaptive_decisions_precede_their_reconfigurations_under_overlap() {
        // With reconfigure/compute overlap, a step's fabric request fires
        // when the previous step's flows drain — before the GPUs finish
        // computing. The Decision event must still be stamped at or
        // before the ReconfigStart it causes.
        let n = 8;
        let problem = problem_for(n, 64.0 * MIB, 5e-6);
        let cfg = RunConfig {
            compute: Some(ComputeModel { per_byte_s: 1e-9 }),
            overlap_reconfig_with_compute: true,
            ..RunConfig::paper_defaults()
        };
        let mut fab = switch(n, 5e-6);
        let (_, report) = run_adaptive(
            &mut fab,
            &ring_config(n),
            &problem,
            &aps_core::controller::AlwaysReconfigure,
            &cfg,
        )
        .unwrap();
        let mut last_decision_at = None;
        let mut saw_overlapped_reconfig = false;
        for ev in &report.trace {
            match ev.kind {
                TraceKind::Decision { .. } => last_decision_at = Some(ev.at),
                TraceKind::ReconfigStart { .. } => {
                    let decided = last_decision_at.expect("decision before reconfig");
                    assert!(
                        decided <= ev.at,
                        "decision at {decided} after its reconfiguration at {}",
                        ev.at
                    );
                    saw_overlapped_reconfig = true;
                }
                _ => {}
            }
        }
        assert!(saw_overlapped_reconfig);
    }

    #[test]
    fn adaptive_run_rejects_dimension_mismatch() {
        let problem = problem_for(8, MIB, 1e-6);
        let mut fab = switch(4, 1e-6);
        let err = run_adaptive(
            &mut fab,
            &ring_config(4),
            &problem,
            &aps_core::controller::Static,
            &RunConfig::paper_defaults(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::DimensionMismatch { .. }));
    }

    #[test]
    fn run_config_derives_from_cost_params() {
        let p = CostParams::paper_high_alpha();
        let cfg = RunConfig::from(p);
        assert_eq!(cfg.params, p);
        assert_eq!(cfg, RunConfig::with_params(p));
        assert_eq!(
            RunConfig::paper_defaults(),
            RunConfig::with_params(CostParams::paper_defaults())
        );
    }
}
