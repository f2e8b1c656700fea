//! Exact `O(s)` dynamic-programming solver for eq. (7).
//!
//! The objective decomposes into per-step terms that depend only on the
//! adjacent pair `(xᵢ₋₁, xᵢ)`: the run cost of step `i` under `xᵢ` plus the
//! reconfiguration charge, which is a function of the two adjacent
//! configurations. The optimum is therefore a shortest path through a
//! `2 × s` trellis with `x₀ = 1` (base) as the source — the "efficient
//! dynamic programming solution … polynomial-time solvable due to the
//! principle of optimality" of §3.3. The crate-private `shortest_path`
//! walks it over any state list, so the multi-base pool
//! ([`crate::multibase`]) runs the same trellis over its `k + 1` states.
//! [`crate::brute`] and proptest pin this solver to exhaustive enumeration.

use crate::assignment::{ConfigChoice, SwitchSchedule};
use crate::error::CoreError;
use crate::objective::{evaluate, reconfig_charge, step_run_cost, CostReport, ReconfigAccounting};
use crate::problem::SwitchingProblem;

/// The two-state trellis's states, `Base` first so that ties stay on the
/// base topology; the online controllers iterate the same order.
pub(crate) const STATES: [ConfigChoice; 2] = [ConfigChoice::Base, ConfigChoice::Matched];

/// The trellis shortest path over `steps` steps, each run in one of
/// `states` (not empty) and entered from `start` before step 0: running
/// step `i` in `cur` costs `run(i, cur)`, arriving from `prev` costs
/// `enter(prev, i, cur)`. A state's cost is the least `(best + run) + enter`
/// over its predecessors, a later one winning only when strictly cheaper,
/// and the path ends in the first cheapest state. Returns the path and its
/// cost.
pub(crate) fn shortest_path<S: Copy>(
    steps: usize,
    states: &[S],
    start: S,
    run: impl Fn(usize, S) -> f64,
    enter: impl Fn(S, usize, S) -> f64,
) -> (Vec<S>, f64) {
    if steps == 0 {
        return (Vec::new(), 0.0);
    }
    let k = states.len();
    // best[i·k + c]: the least cost of steps 0..=i ending in state c, and
    // parent[i·k + c]: the state step i − 1 ran in on that path.
    let mut best = vec![f64::INFINITY; steps * k];
    let mut parent = vec![0usize; steps * k];
    for (c, &cur) in states.iter().enumerate() {
        best[c] = run(0, cur) + enter(start, 0, cur);
    }
    for i in 1..steps {
        for (c, &cur) in states.iter().enumerate() {
            let r = run(i, cur);
            for (p, &prev) in states.iter().enumerate() {
                let cand = best[(i - 1) * k + p] + r + enter(prev, i, cur);
                if cand < best[i * k + c] {
                    best[i * k + c] = cand;
                    parent[i * k + c] = p;
                }
            }
        }
    }
    let last = &best[(steps - 1) * k..];
    let mut state = (0..k).fold(0, |m, c| if last[c] < last[m] { c } else { m });
    let cost = last[state];
    let mut path = vec![states[state]; steps];
    for i in (0..steps).rev() {
        path[i] = states[state];
        state = parent[i * k + state];
    }
    (path, cost)
}

/// The two-state trellis for `problem`: an optimal schedule and the cost
/// the trellis summed for it, without pricing the schedule.
pub(crate) fn plan(
    problem: &SwitchingProblem,
    accounting: ReconfigAccounting,
) -> (SwitchSchedule, f64) {
    let (choices, cost) = shortest_path(
        problem.num_steps(),
        &STATES,
        ConfigChoice::Base, // x₀ = 1.
        |i, cur| step_run_cost(problem, i, cur),
        |prev, i, cur| reconfig_charge(problem, accounting, prev, cur, i),
    );
    (SwitchSchedule::new(choices), cost)
}

/// Computes an optimal switch schedule and its cost report: the two-state
/// trellis's path, priced by [`evaluate`].
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
    let (schedule, cost) = plan(problem, accounting);
    let report = evaluate(problem, &schedule, accounting)?;
    debug_assert!(
        (report.total_s() - cost).abs() <= 1e-12 * (1.0 + report.total_s()),
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
