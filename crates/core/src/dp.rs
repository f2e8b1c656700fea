//! Exact `O(s)` dynamic-programming solver for eq. (7).
//!
//! The objective decomposes into per-step terms that depend only on the
//! adjacent pair `(xᵢ₋₁, xᵢ)`: the run cost of step `i` under `xᵢ` plus the
//! reconfiguration charge, which is a function of the two adjacent
//! configurations. The optimum is therefore a shortest path through a
//! `2 × s` trellis with `x₀ = 1` (base) as the source — the "efficient
//! dynamic programming solution … polynomial-time solvable due to the
//! principle of optimality" of §3.3. [`crate::brute`] and proptest pin this
//! solver to exhaustive enumeration.

use crate::assignment::{ConfigChoice, SwitchSchedule};
use crate::error::CoreError;
use crate::objective::{evaluate, reconfig_charge, step_run_cost, CostReport, ReconfigAccounting};
use crate::problem::SwitchingProblem;

const STATES: [ConfigChoice; 2] = [ConfigChoice::Base, ConfigChoice::Matched];

/// Computes an optimal switch schedule and its cost report.
///
/// ```
/// use aps_core::{dp, SwitchingProblem, ReconfigAccounting};
/// use aps_collectives::allreduce;
/// use aps_cost::{CostParams, ReconfigModel};
/// use aps_flow::solver::{ThetaCache, ThroughputSolver};
/// use aps_topology::builders;
///
/// let base = builders::ring_unidirectional(8).unwrap();
/// let coll = allreduce::halving_doubling::build(8, 1e6).unwrap();
/// let mut cache = ThetaCache::new(&base, ThroughputSolver::ForcedPath);
/// let problem = SwitchingProblem::build(
///     &base,
///     &coll.schedule,
///     &mut cache,
///     CostParams::paper_defaults(),
///     ReconfigModel::constant(1e-6).unwrap(),
/// )
/// .unwrap();
/// let (schedule, report) = dp::optimize(&problem, ReconfigAccounting::default()).unwrap();
/// assert_eq!(schedule.len(), 6);
/// assert!(report.total_s() > 0.0);
/// ```
///
/// # Errors
///
/// Propagates evaluation errors (none occur for well-formed problems).
pub fn optimize(
    problem: &SwitchingProblem,
    accounting: ReconfigAccounting,
) -> Result<(SwitchSchedule, CostReport), CoreError> {
    let s = problem.num_steps();
    if s == 0 {
        let schedule = SwitchSchedule::new(vec![]);
        let report = evaluate(problem, &schedule, accounting)?;
        return Ok((schedule, report));
    }
    // best[i][state]: minimal cost of steps 0..=i ending in `state`.
    let mut best = vec![[f64::INFINITY; 2]; s];
    let mut parent = vec![[0usize; 2]; s];

    for (cur_idx, &cur) in STATES.iter().enumerate() {
        best[0][cur_idx] = step_run_cost(problem, 0, cur)
            + reconfig_charge(problem, accounting, ConfigChoice::Base, cur, 0);
    }
    for i in 1..s {
        for (cur_idx, &cur) in STATES.iter().enumerate() {
            let run = step_run_cost(problem, i, cur);
            for (prev_idx, &prev) in STATES.iter().enumerate() {
                let cand = best[i - 1][prev_idx]
                    + run
                    + reconfig_charge(problem, accounting, prev, cur, i);
                if cand < best[i][cur_idx] {
                    best[i][cur_idx] = cand;
                    parent[i][cur_idx] = prev_idx;
                }
            }
        }
    }

    // Reconstruct.
    let mut state = if best[s - 1][0] <= best[s - 1][1] {
        0
    } else {
        1
    };
    let mut choices = vec![ConfigChoice::Base; s];
    for i in (0..s).rev() {
        choices[i] = STATES[state];
        state = parent[i][state];
    }
    let schedule = SwitchSchedule::new(choices);
    let report = evaluate(problem, &schedule, accounting)?;
    debug_assert!(
        (report.total_s() - best[s - 1][0].min(best[s - 1][1])).abs()
            <= 1e-12 * (1.0 + report.total_s()),
        "DP value disagrees with objective evaluation"
    );
    Ok((schedule, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::optimize_exhaustive;
    use aps_collectives::{allreduce, alltoall};
    use aps_cost::units::MIB;
    use aps_cost::{CostParams, ReconfigModel};
    use aps_flow::solver::{ThetaCache, ThroughputSolver};
    use aps_topology::builders;

    fn problem_for(
        n: usize,
        m: f64,
        alpha_r: f64,
        build: impl Fn(usize, f64) -> aps_collectives::Collective,
    ) -> SwitchingProblem {
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = build(n, m);
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
    fn dp_matches_exhaustive_across_regimes() {
        for (m, alpha_r) in [
            (1e3, 1e-9),
            (1e3, 1e-4),
            (1e6, 1e-9),
            (1e6, 1e-6),
            (1e8, 1e-4),
            (64.0, 1e-7),
        ] {
            for accounting in [
                ReconfigAccounting::PaperConservative,
                ReconfigAccounting::PhysicalDiff,
            ] {
                let p = problem_for(8, m, alpha_r, |n, m| {
                    allreduce::halving_doubling::build(n, m).unwrap()
                });
                let (dps, dpr) = optimize(&p, accounting).unwrap();
                let (_, bfr) = optimize_exhaustive(&p, accounting).unwrap();
                assert!(
                    (dpr.total_s() - bfr.total_s()).abs() <= 1e-15 + 1e-9 * bfr.total_s(),
                    "m={m} αr={alpha_r} {accounting:?}: dp={} brute={} ({})",
                    dpr.total_s(),
                    bfr.total_s(),
                    dps.compact(),
                );
            }
        }
    }

    #[test]
    fn huge_reconfig_delay_forces_static() {
        let p = problem_for(8, 1e6, 1.0, |n, m| {
            allreduce::halving_doubling::build(n, m).unwrap()
        });
        let (s, r) = optimize(&p, Default::default()).unwrap();
        assert_eq!(s.compact(), "GGGGGG");
        assert_eq!(r.reconfig_s, 0.0);
    }

    #[test]
    fn free_reconfig_forces_all_matched() {
        let p = problem_for(8, 1e6, 0.0, |n, m| {
            allreduce::halving_doubling::build(n, m).unwrap()
        });
        let (s, _) = optimize(&p, Default::default()).unwrap();
        // With α_r = 0 the matched topology weakly dominates every step
        // whose base θ < 1; halving-doubling on a uni ring always has
        // θ < 1, so all steps reconfigure.
        assert_eq!(s.compact(), "MMMMMM");
    }

    #[test]
    fn large_messages_prefer_reconfiguration() {
        let hd = |n, m| allreduce::halving_doubling::build(n, m).unwrap();
        let big = problem_for(16, 256.0 * MIB, 1e-6, hd);
        assert!(
            optimize(&big, Default::default())
                .unwrap()
                .0
                .matched_steps()
                > 0
        );
        // A 64-byte message stays static once α_r dwarfs the propagation
        // savings (on a 16-ring the longest path saves only ~1.4 µs of δ).
        let small = problem_for(16, 64.0, 1e-4, hd);
        assert_eq!(
            optimize(&small, Default::default())
                .unwrap()
                .0
                .matched_steps(),
            0
        );
    }

    #[test]
    fn tiny_alpha_r_lets_propagation_savings_justify_reconfig() {
        // With α_r = 1 µs and δ = 100 ns, steps with ring paths ≥ 11 hops
        // save more propagation than the reconfiguration costs — so even a
        // 64-byte collective reconfigures its long-distance steps. This is
        // the §4 "deeper understanding of the propagation delays" effect.
        let p = problem_for(16, 64.0, 1e-6, |n, m| {
            allreduce::halving_doubling::build(n, m).unwrap()
        });
        assert!(optimize(&p, Default::default()).unwrap().0.matched_steps() > 0);
    }

    #[test]
    fn optimal_beats_or_ties_both_baselines() {
        for m in [1e3, 1e5, 1e7] {
            for alpha_r in [1e-8, 1e-6, 1e-4] {
                let p = problem_for(16, m, alpha_r, |n, m| alltoall::linear_shift(n, m).unwrap());
                let (_, opt) = optimize(&p, Default::default()).unwrap();
                let st = evaluate(
                    &p,
                    &SwitchSchedule::all_base(p.num_steps()),
                    Default::default(),
                )
                .unwrap();
                let bvn = evaluate(
                    &p,
                    &SwitchSchedule::all_matched(p.num_steps()),
                    Default::default(),
                )
                .unwrap();
                let eps = 1e-12;
                assert!(opt.total_s() <= st.total_s() + eps);
                assert!(opt.total_s() <= bvn.total_s() + eps);
            }
        }
    }

    #[test]
    fn empty_problem() {
        let mut p = problem_for(8, 1e6, 1e-6, |n, m| {
            allreduce::halving_doubling::build(n, m).unwrap()
        });
        p.steps.clear();
        let (s, r) = optimize(&p, Default::default()).unwrap();
        assert!(s.is_empty());
        assert_eq!(r.total_s(), 0.0);
    }
}
