//! Scheduling policies: the two baselines of §3.4, the exact optimum, and
//! the threshold heuristic from the research agenda (§4).
//!
//! [`Policy`] is the closed, `Copy` descriptor the sweep engine and bench
//! tables iterate over; every variant is *implemented* by a shipped
//! [`crate::controller::Controller`] ([`Policy::controller`]),
//! so this module is a thin naming layer over the open controller
//! abstraction.

use crate::assignment::SwitchSchedule;
use crate::controller::{AlwaysReconfigure, Controller, DpPlanned, Static, Threshold};
use crate::error::CoreError;
use crate::objective::{evaluate, CostReport, ReconfigAccounting};
use crate::problem::SwitchingProblem;

/// A circuit-switching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Never reconfigure: every step runs on the base topology `G`
    /// (the "static ring" baseline).
    StaticBase,
    /// Reconfigure before every step to match its pattern (the "BvN
    /// schedule" baseline: the collective's own matchings *are* its BvN
    /// decomposition, applied naively).
    AlwaysMatched,
    /// The exact DP optimum of eq. (7).
    Optimal,
    /// Per-step greedy rule: reconfigure iff the step's standalone gain
    /// `β·mᵢ·(1/θᵢ − 1) + δ·(ℓᵢ − 1)` exceeds the worst-case
    /// reconfiguration delay. Ignores schedule context (the cost of
    /// returning to base, consecutive-matched savings), hence suboptimal —
    /// by how much is quantified in the A1 ablation.
    Threshold,
}

impl Policy {
    /// All policies, in presentation order.
    pub const ALL: [Policy; 4] = [
        Policy::StaticBase,
        Policy::AlwaysMatched,
        Policy::Optimal,
        Policy::Threshold,
    ];

    /// The controller implementing this policy.
    pub fn controller(self) -> &'static dyn Controller {
        match self {
            Policy::StaticBase => &Static,
            Policy::AlwaysMatched => &AlwaysReconfigure,
            Policy::Optimal => &DpPlanned,
            Policy::Threshold => &Threshold,
        }
    }

    /// Stable name for tables (the backing controller's name).
    pub fn name(self) -> &'static str {
        self.controller().name()
    }
}

/// Produces the switch schedule a policy chooses for `problem` — the plan
/// of [`Policy::controller`].
///
/// # Errors
///
/// Propagates solver errors.
pub fn schedule_for(
    problem: &SwitchingProblem,
    policy: Policy,
    accounting: ReconfigAccounting,
) -> Result<SwitchSchedule, CoreError> {
    policy.controller().plan(problem, accounting)
}

/// Prices the schedule a policy chooses.
///
/// # Errors
///
/// Propagates solver errors.
pub fn evaluate_policy(
    problem: &SwitchingProblem,
    policy: Policy,
    accounting: ReconfigAccounting,
) -> Result<CostReport, CoreError> {
    let schedule = schedule_for(problem, policy, accounting)?;
    evaluate(problem, &schedule, accounting)
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
        let c = allreduce::swing::build(n, m).unwrap();
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
    fn optimal_dominates_all_policies() {
        for m in [1e3, 1e6, 1e8] {
            for alpha_r in [1e-8, 1e-6, 1e-3] {
                let p = problem(16, m, alpha_r);
                let opt = evaluate_policy(&p, Policy::Optimal, Default::default()).unwrap();
                for pol in Policy::ALL {
                    let r = evaluate_policy(&p, pol, Default::default()).unwrap();
                    assert!(
                        opt.total_s() <= r.total_s() + 1e-15,
                        "m={m} αr={alpha_r}: opt {} beaten by {} ({})",
                        opt.total_s(),
                        pol.name(),
                        r.total_s()
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_agrees_with_optimal_in_extreme_regimes() {
        // Tiny messages + huge delay: both stay static.
        let p = problem(16, 100.0, 1e-3);
        let th = schedule_for(&p, Policy::Threshold, Default::default()).unwrap();
        let opt = schedule_for(&p, Policy::Optimal, Default::default()).unwrap();
        assert_eq!(th, SwitchSchedule::all_base(p.num_steps()));
        assert_eq!(opt, th);
        // Huge messages + free-ish delay: both fully reconfigure.
        let p = problem(16, 1e9, 1e-9);
        let th = schedule_for(&p, Policy::Threshold, Default::default()).unwrap();
        let opt = schedule_for(&p, Policy::Optimal, Default::default()).unwrap();
        assert_eq!(th, SwitchSchedule::all_matched(p.num_steps()));
        assert_eq!(opt, th);
    }

    #[test]
    fn policy_names_match_their_controllers() {
        assert_eq!(
            Policy::ALL.map(|p| p.name()),
            ["static", "bvn", "opt", "threshold"]
        );
    }
}
