//! Human-readable explanations of switching decisions.
//!
//! The DP returns *what* to do; this module reconstructs *why*: for every
//! step it tabulates the base-topology cost (congestion + propagation), the
//! matched-topology cost, the reconfiguration charges the chosen schedule
//! pays, and labels the decisive factor. Used by the examples and handy when
//! debugging schedules that look surprising.

use crate::assignment::{ConfigChoice, SwitchSchedule};
use crate::error::CoreError;
use crate::objective::{reconfig_charge, standalone_gain, step_run_cost, ReconfigAccounting};
use crate::problem::SwitchingProblem;
use aps_cost::units::{format_bytes, format_time};
use std::fmt;

/// Why a step's choice wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// Base chosen: the matched gain does not cover the reconfiguration.
    GainBelowReconfigCost,
    /// Base chosen: the step suffers no congestion on the base anyway.
    BaseAlreadyUncongested,
    /// Matched chosen: bandwidth (congestion) savings dominate.
    CongestionSavings,
    /// Matched chosen: propagation (path-length) savings dominate.
    PropagationSavings,
    /// Matched chosen as part of a run of matched steps (the marginal
    /// reconfiguration was already paid by a neighbor).
    RidesNeighborReconfig,
}

impl Reason {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Reason::GainBelowReconfigCost => "gain < α_r",
            Reason::BaseAlreadyUncongested => "base uncongested",
            Reason::CongestionSavings => "congestion savings",
            Reason::PropagationSavings => "propagation savings",
            Reason::RidesNeighborReconfig => "rides neighbor reconfig",
        }
    }
}

/// One row of the explanation table.
#[derive(Debug, Clone)]
pub struct StepExplanation {
    /// Step index.
    pub step: usize,
    /// The schedule's choice.
    pub choice: ConfigChoice,
    /// Bytes per pair.
    pub bytes: f64,
    /// `θ(G, Mᵢ)` on the base.
    pub theta_base: f64,
    /// Hops on the base.
    pub ell_base: usize,
    /// Run cost on the base (no reconfiguration), seconds.
    pub base_cost_s: f64,
    /// Run cost matched (no reconfiguration), seconds.
    pub matched_cost_s: f64,
    /// Reconfiguration charge actually paid entering this step, seconds.
    pub reconfig_paid_s: f64,
    /// The decisive factor.
    pub reason: Reason,
}

/// The full explanation of a schedule on a problem.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Per-step rows.
    pub steps: Vec<StepExplanation>,
}

/// Builds the explanation table for `schedule` on `problem`.
///
/// # Errors
///
/// Fails on schedule/problem length mismatch.
pub fn explain(
    problem: &SwitchingProblem,
    schedule: &SwitchSchedule,
    accounting: ReconfigAccounting,
) -> Result<Explanation, CoreError> {
    if schedule.len() != problem.num_steps() {
        return Err(CoreError::ScheduleLengthMismatch {
            expected: problem.num_steps(),
            got: schedule.len(),
        });
    }
    let mut steps = Vec::with_capacity(problem.num_steps());
    let mut prev = ConfigChoice::Base;
    for (i, s) in problem.steps.iter().enumerate() {
        let choice = schedule.choice(i);
        let base_cost_s = step_run_cost(problem, i, ConfigChoice::Base);
        let matched_cost_s = step_run_cost(problem, i, ConfigChoice::Matched);
        let reconfig_paid_s = reconfig_charge(problem, accounting, prev, choice, i);
        let (congestion_gain, propagation_gain) = standalone_gain(&problem.params, s);
        let reason = match choice {
            ConfigChoice::Base => {
                if s.theta_base >= 1.0 - 1e-12 && s.ell_base <= 1 {
                    Reason::BaseAlreadyUncongested
                } else {
                    Reason::GainBelowReconfigCost
                }
            }
            ConfigChoice::Matched => {
                if reconfig_paid_s == 0.0
                    || (prev == ConfigChoice::Matched
                        && congestion_gain + propagation_gain < reconfig_paid_s)
                {
                    Reason::RidesNeighborReconfig
                } else if congestion_gain >= propagation_gain {
                    Reason::CongestionSavings
                } else {
                    Reason::PropagationSavings
                }
            }
        };
        steps.push(StepExplanation {
            step: i,
            choice,
            bytes: s.bytes,
            theta_base: s.theta_base,
            ell_base: s.ell_base,
            base_cost_s,
            matched_cost_s,
            reconfig_paid_s,
            reason,
        });
        prev = choice;
    }
    Ok(Explanation { steps })
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>4} {:>7} {:>9} {:>7} {:>4} {:>12} {:>12} {:>10}  reason",
            "step", "choice", "bytes", "θ", "ℓ", "t(base)", "t(matched)", "α_r paid"
        )?;
        for s in &self.steps {
            writeln!(
                f,
                "{:>4} {:>7} {:>9} {:>7.3} {:>4} {:>12} {:>12} {:>10}  {}",
                s.step,
                match s.choice {
                    ConfigChoice::Base => "base",
                    ConfigChoice::Matched => "matched",
                },
                format_bytes(s.bytes),
                s.theta_base,
                s.ell_base,
                format_time(s.base_cost_s),
                format_time(s.matched_cost_s),
                format_time(s.reconfig_paid_s),
                s.reason.label(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use aps_collectives::alltoall;
    use aps_cost::{CostParams, ReconfigModel};
    use aps_flow::solver::{ThetaCache, ThroughputSolver};
    use aps_topology::builders;

    fn problem(alpha_r: f64) -> SwitchingProblem {
        let n = 16;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = alltoall::linear_shift(n, 8e6).unwrap();
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
    fn explains_the_optimal_schedule() {
        let p = problem(20e-6);
        let acc = ReconfigAccounting::PaperConservative;
        let (schedule, _) = dp::optimize(&p, acc).unwrap();
        let ex = explain(&p, &schedule, acc).unwrap();
        assert_eq!(ex.steps.len(), p.num_steps());
        // Near shifts stay on the base (uncongested or gain < α_r), far
        // shifts reconfigure for congestion.
        assert_eq!(ex.steps[0].choice, ConfigChoice::Base);
        assert_eq!(ex.steps[0].reason, Reason::BaseAlreadyUncongested);
        let far = ex.steps.iter().find(|s| s.choice == ConfigChoice::Matched);
        if let Some(far) = far {
            assert!(matches!(
                far.reason,
                Reason::CongestionSavings | Reason::PropagationSavings
            ));
        }
        // Rendering mentions every step and is non-empty.
        let text = ex.to_string();
        assert!(text.contains("reason"));
        assert!(text.lines().count() >= p.num_steps());
    }

    #[test]
    fn consecutive_matched_steps_ride_the_run() {
        let p = problem(1e-7); // cheap α_r: everything reconfigures
        let acc = ReconfigAccounting::PaperConservative;
        let (schedule, _) = dp::optimize(&p, acc).unwrap();
        let ex = explain(&p, &schedule, acc).unwrap();
        // With a cheap delay, far shifts still pay their own (tiny) α_r and
        // explain as savings; the table's reconfig column matches the
        // objective's total.
        let total_reconfig: f64 = ex.steps.iter().map(|s| s.reconfig_paid_s).sum();
        let report = crate::evaluate(&p, &schedule, acc).unwrap();
        assert!((total_reconfig - report.reconfig_s).abs() < 1e-15);
    }

    #[test]
    fn length_mismatch_rejected() {
        let p = problem(1e-6);
        assert!(explain(&p, &SwitchSchedule::all_base(2), Default::default()).is_err());
    }
}
