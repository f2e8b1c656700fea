//! The eq. (7) objective: pricing a switch schedule.
//!
//! This module is the single source of truth for what a schedule costs; the
//! DP solver, the exhaustive solver and all policies are validated against
//! [`evaluate`]. A step runs at the `(θ, ℓ)` its choice gives it and costs
//! eq. (3), [`aps_cost::dct::dct`]; a reconfiguration costs the delay model
//! applied to the ports that change, by one charge rule for every move.
//! The same two terms price the multi-base pool ([`crate::multibase`]).
//! On a schedule that never leaves the base, [`evaluate`] is the static
//! completion time of eq. (4).

use crate::assignment::{ConfigChoice, SwitchSchedule};
use crate::error::CoreError;
use crate::problem::SwitchingProblem;
use aps_cost::dct::{dct, DctBreakdown};
use aps_cost::steptable::StepCosts;
use aps_cost::{CostParams, ReconfigModel};
use aps_matrix::Matching;

/// How reconfiguration events are priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconfigAccounting {
    /// The paper's eq. (7): a reconfiguration is charged whenever not both
    /// the current and previous step run on the base (`zᵢ = 0`), even if
    /// the physical configuration happens to be identical. Under the
    /// constant model this charges exactly `α_r` per event.
    #[default]
    PaperConservative,
    /// Physically-aware pricing: the charge is the delay model applied to
    /// the number of ports that actually change; identical consecutive
    /// configurations cost nothing (the "skip if unchanged" extension).
    PhysicalDiff,
}

/// Cost of a schedule, broken into the four terms of eq. (7).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostReport {
    /// `s·α`.
    pub latency_s: f64,
    /// `δ·Σ (xᵢ·ℓᵢ + (1−xᵢ))`.
    pub propagation_s: f64,
    /// `β·Σ mᵢ·(xᵢ/θᵢ + (1−xᵢ))`.
    pub transmission_s: f64,
    /// `Σ (1−zᵢ)·α_r` (or its per-port refinement).
    pub reconfig_s: f64,
    /// Number of reconfiguration events charged.
    pub reconfig_events: usize,
}

impl CostReport {
    /// Total collective completion time.
    pub fn total_s(&self) -> f64 {
        self.latency_s + self.propagation_s + self.transmission_s + self.reconfig_s
    }
}

/// The charge for moving the fabric between two configurations, which
/// `configs` names as (before, after). An unknown (multi-circuit) side
/// counts as a full-fabric change. Under the paper's accounting the move
/// costs at least a one-port event, even between identical
/// configurations: eq. (7) prices `zᵢ = 0` unconditionally.
pub(crate) fn move_charge<'a>(
    problem: &SwitchingProblem,
    accounting: ReconfigAccounting,
    configs: impl FnOnce() -> (Option<&'a Matching>, Option<&'a Matching>),
) -> f64 {
    // The paper's constant α_r is one charge whatever changes: skip the
    // O(n) port diff it would ignore, and the lookups that feed it.
    if accounting == ReconfigAccounting::PaperConservative
        && matches!(problem.reconfig, ReconfigModel::Constant { .. })
    {
        return problem.reconfig.delay_s(1);
    }
    let diff = match configs() {
        (Some(a), Some(b)) => a.tx_ports_changed(b),
        _ => problem.n,
    };
    match accounting {
        ReconfigAccounting::PaperConservative => problem.reconfig.delay_s(diff.max(1)),
        ReconfigAccounting::PhysicalDiff => problem.reconfig.delay_s(diff),
    }
}

/// The reconfiguration charge for entering step `i` with choice `cur`, given
/// the previous step's choice.
pub(crate) fn reconfig_charge(
    problem: &SwitchingProblem,
    accounting: ReconfigAccounting,
    prev: ConfigChoice,
    cur: ConfigChoice,
    i: usize,
) -> f64 {
    // z_i = 1 ⇔ both this and the previous step run on the base.
    if prev == ConfigChoice::Base && cur == ConfigChoice::Base {
        return 0.0;
    }
    move_charge(problem, accounting, || {
        let prev_cfg = if i == 0 {
            problem.base_config.as_ref()
        } else {
            problem.config_at(i - 1, prev == ConfigChoice::Matched)
        };
        (prev_cfg, problem.config_at(i, cur == ConfigChoice::Matched))
    })
}

/// Eq. (3) for step `s` under `choice`, without the reconfiguration term.
/// On the base the step runs at the base topology's `(θ, ℓ)`. Matched,
/// every pair has a direct circuit (§3.3: "congestion and path lengths can
/// be reduced to 1"): θ = 1 and ℓ = 1, or ℓ = 0 for an empty step.
#[inline]
fn step_dct(params: &CostParams, s: &StepCosts, choice: ConfigChoice) -> DctBreakdown {
    let (theta, ell) = match choice {
        ConfigChoice::Base => (s.theta_base, s.ell_base),
        ConfigChoice::Matched => (1.0, usize::from(!s.matching.is_empty())),
    };
    dct(params, s.bytes, theta, ell)
}

/// Per-step cost of running step `i` under `choice` (latency + propagation +
/// transmission, without the reconfiguration term).
#[inline]
pub(crate) fn step_run_cost(problem: &SwitchingProblem, i: usize, choice: ConfigChoice) -> f64 {
    step_dct(&problem.params, &problem.steps[i], choice).total_s()
}

/// What running step `s` matched instead of on the base saves before any
/// reconfiguration charge, in seconds: the congestion term
/// `β·m·(1/θ − 1)` and the propagation term `δ·(ℓ − 1)⁺`. The §4
/// threshold heuristic compares their sum with `α_r`.
pub(crate) fn standalone_gain(params: &CostParams, s: &StepCosts) -> (f64, f64) {
    (
        params.beta_s_per_byte * s.bytes * (1.0 / s.theta_base - 1.0),
        params.delta_s * (s.ell_base as f64 - 1.0).max(0.0),
    )
}

/// Prices `schedule` on `problem` under the given accounting — the
/// literal objective of eq. (7), with the `z` variables eliminated through
/// their constraints.
///
/// # Errors
///
/// Fails when schedule and problem lengths disagree.
pub fn evaluate(
    problem: &SwitchingProblem,
    schedule: &SwitchSchedule,
    accounting: ReconfigAccounting,
) -> Result<CostReport, CoreError> {
    if schedule.len() != problem.num_steps() {
        return Err(CoreError::ScheduleLengthMismatch {
            expected: problem.num_steps(),
            got: schedule.len(),
        });
    }
    let mut report = CostReport::default();
    let mut prev = ConfigChoice::Base; // x₀ = 1.
    for (i, s) in problem.steps.iter().enumerate() {
        let cur = schedule.choice(i);
        let d = step_dct(&problem.params, s, cur);
        report.latency_s += d.latency_s;
        report.propagation_s += d.propagation_s;
        report.transmission_s += d.transmission_s;
        // An event is counted whenever z_i = 0, even if the charge is 0
        // under PhysicalDiff (a no-op "reconfiguration").
        if !(prev == ConfigChoice::Base && cur == ConfigChoice::Base) {
            report.reconfig_events += 1;
        }
        report.reconfig_s += reconfig_charge(problem, accounting, prev, cur, i);
        prev = cur;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_collectives::allreduce;
    use aps_cost::{CostParams, ReconfigModel};
    use aps_flow::solver::{ThetaCache, ThroughputSolver};
    use aps_topology::builders;

    fn problem(n: usize, m: f64, alpha_r: f64) -> SwitchingProblem {
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = allreduce::halving_doubling::build(n, m).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        SwitchingProblem::build(
            &topo,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            ReconfigModel::constant(alpha_r).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn static_schedule_pays_no_reconfig() {
        let p = problem(8, 1e6, 1e-5);
        let r = evaluate(
            &p,
            &SwitchSchedule::all_base(p.num_steps()),
            Default::default(),
        )
        .unwrap();
        assert_eq!(r.reconfig_s, 0.0);
        assert_eq!(r.reconfig_events, 0);
        // Latency term is s·α.
        assert!((r.latency_s - 6.0 * 100e-9).abs() < 1e-15);
    }

    #[test]
    fn ring_allreduce_on_uni_ring_is_congestion_free() {
        // Eq. (4) in closed form: every ring step is one hop at θ = 1.
        let n = 8;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = allreduce::ring::build(n, 1e6).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        let p = SwitchingProblem::build(
            &topo,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            ReconfigModel::constant(1e-5).unwrap(),
        )
        .unwrap();
        let t = evaluate(
            &p,
            &SwitchSchedule::all_base(p.num_steps()),
            Default::default(),
        )
        .unwrap();
        // 14 steps × (α + δ) + β·2·(7/8)·1e6.
        let expect = 14.0 * 200e-9 + 1.75e6 / 8.0 * 8.0 / 1e11;
        assert!((t.total_s() - expect).abs() < 1e-12);
    }

    #[test]
    fn static_time_is_monotone_in_message_size() {
        let n = 8;
        let topo = builders::ring_unidirectional(n).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        let mut last = 0.0;
        for m in [1e3, 1e5, 1e7] {
            let c = allreduce::swing::build(n, m).unwrap();
            let p = SwitchingProblem::build(
                &topo,
                &c.schedule,
                &mut cache,
                CostParams::paper_defaults(),
                ReconfigModel::constant(1e-5).unwrap(),
            )
            .unwrap();
            let all_base = SwitchSchedule::all_base(p.num_steps());
            let t = evaluate(&p, &all_base, Default::default())
                .unwrap()
                .total_s();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn bvn_schedule_pays_every_step() {
        let p = problem(8, 1e6, 1e-5);
        let s = p.num_steps();
        let r = evaluate(&p, &SwitchSchedule::all_matched(s), Default::default()).unwrap();
        assert_eq!(r.reconfig_events, s);
        assert!((r.reconfig_s - s as f64 * 1e-5).abs() < 1e-12);
        // Matched transmission is β·Σmᵢ with no congestion.
        let total_bytes: f64 = p.steps.iter().map(|st| st.bytes).sum();
        assert!((r.transmission_s - total_bytes / 1e11).abs() < 1e-12);
    }

    #[test]
    fn mixed_schedule_charges_reentry() {
        use ConfigChoice::*;
        let p = problem(8, 1e6, 1e-5);
        // M G G M M G: events at steps 0 (G→M), 1 (M→G), 3 (G→M), 4 (M→M),
        // 5 (M→G) = 5 events.
        let s = SwitchSchedule::new(vec![Matched, Base, Base, Matched, Matched, Base]);
        let r = evaluate(&p, &s, Default::default()).unwrap();
        assert_eq!(r.reconfig_events, 5);
        assert!((r.reconfig_s - 5e-5).abs() < 1e-12);
        assert_eq!(s.reconfig_events(), 5);
    }

    #[test]
    fn physical_diff_skips_identical_configs() {
        // Ring allreduce's steps ARE the base ring configuration: under
        // PhysicalDiff, "reconfiguring" to them is free.
        let n = 8;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = allreduce::ring::build(n, 1e6).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        let p = SwitchingProblem::build(
            &topo,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            ReconfigModel::constant(1e-5).unwrap(),
        )
        .unwrap();
        let s = SwitchSchedule::all_matched(p.num_steps());
        let paper = evaluate(&p, &s, ReconfigAccounting::PaperConservative).unwrap();
        let phys = evaluate(&p, &s, ReconfigAccounting::PhysicalDiff).unwrap();
        assert!(paper.reconfig_s > 0.0);
        assert_eq!(phys.reconfig_s, 0.0);
        // So per-step BvN costs exactly what never reconfiguring costs.
        let all_base = SwitchSchedule::all_base(p.num_steps());
        let st = evaluate(&p, &all_base, ReconfigAccounting::PhysicalDiff).unwrap();
        assert!((phys.total_s() - st.total_s()).abs() < 1e-12);
    }

    #[test]
    fn length_mismatch_rejected() {
        let p = problem(8, 1e6, 1e-5);
        assert!(matches!(
            evaluate(&p, &SwitchSchedule::all_base(3), Default::default()),
            Err(CoreError::ScheduleLengthMismatch {
                expected: 6,
                got: 3
            })
        ));
    }

    #[test]
    fn per_port_pricing_scales_with_diff() {
        let n = 8;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = allreduce::halving_doubling::build(n, 1e6).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        let p = SwitchingProblem::build(
            &topo,
            &c.schedule,
            &mut cache,
            CostParams::paper_defaults(),
            ReconfigModel::per_port(1e-6, 1e-7).unwrap(),
        )
        .unwrap();
        use ConfigChoice::*;
        let one = SwitchSchedule::new(vec![Matched, Base, Base, Base, Base, Base]);
        let r = evaluate(&p, &one, ReconfigAccounting::PhysicalDiff).unwrap();
        // Two events (enter + leave matched); xor(4) differs from shift(1)
        // on all 8 TX ports, so each costs 1µs + 8·0.1µs.
        assert_eq!(r.reconfig_events, 2);
        assert!((r.reconfig_s - 2.0 * (1e-6 + 8.0 * 1e-7)).abs() < 1e-12);
    }
}
