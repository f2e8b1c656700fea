//! Multi-base-topology pools (§3.3 extension).
//!
//! The paper: "Our formulation can even be extended to account for a fixed
//! pool of base topologies instead of a single base topology G … e.g.,
//! using multiple co-prime rings as base topologies." The DP state simply
//! grows from `{base, matched}` to `{base₁, …, base_k, matched}`: the same
//! trellis as [`crate::dp`], `O(s·(k+1)²)`. Each base of the pool is one
//! [`SwitchingProblem`] over the shared schedule, built with the exact
//! forced-path θ, so a step costs what [`crate::objective`] charges it on
//! that base: eq. (3) at the base's `(θ, ℓ)`, or at `(1, 1)` matched.
//! Staying on one base is free, and every other move is charged as the
//! two-state DP charges it under the paper's conservative accounting: the
//! delay model applied to at least one changed port.

use crate::assignment::ConfigChoice;
use crate::dp::shortest_path;
use crate::error::CoreError;
use crate::objective::{move_charge, step_run_cost, ReconfigAccounting::PaperConservative};
use crate::problem::SwitchingProblem;
use aps_collectives::Schedule;
use aps_cost::{CostParams, ReconfigModel};
use aps_flow::solver::{ThetaCache, ThroughputSolver};
use aps_matrix::Matching;
use aps_topology::Topology;

/// Per-step choice in a multi-base schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiChoice {
    /// Run the step on base `k` of the pool.
    Base(usize),
    /// Reconfigure to the step's matched topology.
    Matched,
}

/// A multi-base instance of the switching problem, built by
/// [`build_multibase`].
#[derive(Debug, Clone)]
pub struct MultiBaseProblem {
    /// One eq. (7) instance per base topology of the pool, in pool order,
    /// all over the same schedule, cost parameters and reconfiguration
    /// model. Never empty.
    bases: Vec<SwitchingProblem>,
    /// Index of the base the fabric holds before step 0; within `bases`.
    start_base: usize,
}

/// Evaluates every base in `pool` against `schedule` and assembles the
/// problem.
///
/// # Errors
///
/// Fails when the pool is empty, `start_base` is out of range, or a step is
/// unroutable on some base.
pub fn build_multibase(
    pool: &[&Topology],
    schedule: &Schedule,
    params: CostParams,
    reconfig: ReconfigModel,
    start_base: usize,
) -> Result<MultiBaseProblem, CoreError> {
    if pool.is_empty() {
        return Err(CoreError::NoBases);
    }
    if start_base >= pool.len() {
        return Err(CoreError::StartBaseOutOfRange {
            start: start_base,
            bases: pool.len(),
        });
    }
    let bases = pool
        .iter()
        .map(|topo| {
            let mut cache = ThetaCache::new(topo, ThroughputSolver::ForcedPath);
            SwitchingProblem::build(topo, schedule, &mut cache, params, reconfig)
        })
        .collect::<Result<_, _>>()?;
    Ok(MultiBaseProblem { bases, start_base })
}

impl MultiBaseProblem {
    /// Number of steps.
    pub fn num_steps(&self) -> usize {
        self.bases[0].num_steps()
    }

    /// The two-state instance and choice that price `choice`: base `k`'s
    /// own instance, or the first one for a matched step, whose cost and
    /// configuration no base changes.
    fn instance(&self, choice: MultiChoice) -> (&SwitchingProblem, ConfigChoice) {
        match choice {
            MultiChoice::Base(k) => (&self.bases[k], ConfigChoice::Base),
            MultiChoice::Matched => (&self.bases[0], ConfigChoice::Matched),
        }
    }

    /// The configuration the fabric holds while step `i` runs under
    /// `choice`.
    fn config_at(&self, i: usize, choice: MultiChoice) -> Option<&Matching> {
        let (problem, c) = self.instance(choice);
        problem.config_at(i, c == ConfigChoice::Matched)
    }

    fn run_cost(&self, i: usize, choice: MultiChoice) -> f64 {
        let (problem, c) = self.instance(choice);
        step_run_cost(problem, i, c)
    }

    /// The charge for entering step `i` under `cur` from `prev`: the start
    /// base before step 0, step `i − 1`'s choice after it.
    fn transition_cost(&self, prev: MultiChoice, i: usize, cur: MultiChoice) -> f64 {
        // Staying on the *same* base never reconfigures (generalized z).
        if let (MultiChoice::Base(a), MultiChoice::Base(b)) = (prev, cur) {
            if a == b {
                return 0.0;
            }
        }
        // Every other move pays the paper's conservative charge. Before
        // step 0 `prev` is a base, whose configuration no step index changes.
        let last = i.saturating_sub(1);
        let configs = || (self.config_at(last, prev), self.config_at(i, cur));
        move_charge(&self.bases[0], PaperConservative, configs)
    }

    /// Prices an explicit multi-base schedule.
    ///
    /// # Errors
    ///
    /// Fails on length mismatch.
    pub fn evaluate(&self, choices: &[MultiChoice]) -> Result<f64, CoreError> {
        if choices.len() != self.num_steps() {
            return Err(CoreError::ScheduleLengthMismatch {
                expected: self.num_steps(),
                got: choices.len(),
            });
        }
        let mut total = 0.0;
        let mut prev = MultiChoice::Base(self.start_base);
        for (i, &cur) in choices.iter().enumerate() {
            total += self.run_cost(i, cur) + self.transition_cost(prev, i, cur);
            prev = cur;
        }
        Ok(total)
    }

    /// Exact DP over the `(k+1)`-state trellis.
    ///
    /// # Errors
    ///
    /// None: [`build_multibase`] refuses the pools it could not solve.
    pub fn optimize(&self) -> Result<(Vec<MultiChoice>, f64), CoreError> {
        let states: Vec<MultiChoice> = (0..self.bases.len())
            .map(MultiChoice::Base)
            .chain([MultiChoice::Matched])
            .collect();
        Ok(shortest_path(
            self.num_steps(),
            &states,
            MultiChoice::Base(self.start_base),
            |i, cur| self.run_cost(i, cur),
            |prev, i, cur| self.transition_cost(prev, i, cur),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use aps_collectives::alltoall;
    use aps_topology::builders;

    fn params() -> CostParams {
        CostParams::paper_defaults()
    }

    #[test]
    fn single_base_pool_matches_two_state_dp() {
        let n = 16;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = alltoall::linear_shift(n, 1e6).unwrap();
        for reconfig in [
            ReconfigModel::constant(2e-6).unwrap(),
            ReconfigModel::per_port(1e-6, 1e-7).unwrap(),
        ] {
            let mb = build_multibase(&[&topo], &c.schedule, params(), reconfig, 0).unwrap();
            let (mb_choices, mb_cost) = mb.optimize().unwrap();
            let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
            let p = SwitchingProblem::build(&topo, &c.schedule, &mut cache, params(), reconfig)
                .unwrap();
            let (schedule, report) = dp::optimize(&p, Default::default()).unwrap();
            assert!(
                (mb_cost - report.total_s()).abs() < 1e-12 * (1.0 + mb_cost),
                "{reconfig:?}"
            );
            let two_state: Vec<MultiChoice> = schedule
                .choices()
                .iter()
                .map(|&c| match c {
                    ConfigChoice::Base => MultiChoice::Base(0),
                    ConfigChoice::Matched => MultiChoice::Matched,
                })
                .collect();
            assert_eq!(mb_choices, two_state, "{reconfig:?}");
        }
    }

    #[test]
    fn second_coprime_ring_helps_alltoall() {
        // All-to-All's shift(k) steps: a stride-1 ring is terrible for large
        // k. Adding a stride-(n/2−1) ring lets the scheduler hop bases.
        let n = 16;
        let ring1 = builders::ring_unidirectional(n).unwrap();
        let ring7: Topology = {
            let mut t = Topology::new(n, "uni-ring-stride7(16)");
            for i in 0..n {
                t.add_link(i, (i + 7) % n, 1.0).unwrap();
            }
            t
        };
        let c = alltoall::linear_shift(n, 1e7).unwrap();
        let reconfig = ReconfigModel::constant(50e-6).unwrap();
        let single = build_multibase(&[&ring1], &c.schedule, params(), reconfig, 0).unwrap();
        let pool = build_multibase(&[&ring1, &ring7], &c.schedule, params(), reconfig, 0).unwrap();
        let (_, t_single) = single.optimize().unwrap();
        let (choices, t_pool) = pool.optimize().unwrap();
        assert!(
            t_pool < t_single,
            "pool {t_pool} should beat single {t_single}"
        );
        // The pool schedule actually uses the second base.
        assert!(choices.iter().any(|c| matches!(c, MultiChoice::Base(1))));
    }

    #[test]
    fn validation_errors() {
        let n = 8;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = alltoall::linear_shift(n, 1e6).unwrap();
        let reconfig = ReconfigModel::constant(1e-6).unwrap();
        assert!(matches!(
            build_multibase(&[], &c.schedule, params(), reconfig, 0),
            Err(CoreError::NoBases)
        ));
        assert!(matches!(
            build_multibase(&[&topo], &c.schedule, params(), reconfig, 3),
            Err(CoreError::StartBaseOutOfRange { start: 3, bases: 1 })
        ));
        let mb = build_multibase(&[&topo], &c.schedule, params(), reconfig, 0).unwrap();
        assert!(mb.evaluate(&[]).is_err());
    }

    #[test]
    fn optimize_agrees_with_evaluate() {
        let n = 8;
        let r1 = builders::ring_unidirectional(n).unwrap();
        let r3 = builders::coprime_rings(n, &[3]).unwrap();
        let c = alltoall::linear_shift(n, 1e5).unwrap();
        let mb = build_multibase(
            &[&r1, &r3],
            &c.schedule,
            params(),
            ReconfigModel::constant(1e-6).unwrap(),
            0,
        )
        .unwrap();
        let (choices, total) = mb.optimize().unwrap();
        let priced = mb.evaluate(&choices).unwrap();
        assert!((total - priced).abs() < 1e-12 * (1.0 + total));
    }
}
