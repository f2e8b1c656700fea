//! Property-based tests for the multi-base extension.

use aps_core::multibase::build_multibase;
use aps_cost::{CostParams, ReconfigModel};
use aps_matrix::Matching;
use aps_topology::builders;
use proptest::prelude::*;

fn random_shift_schedule(n: usize, shifts: &[usize], bytes: &[f64]) -> aps_collectives::Schedule {
    let steps = shifts
        .iter()
        .zip(bytes)
        .map(|(&k, &b)| aps_collectives::Step {
            matching: Matching::shift(n, (k % (n - 1)) + 1).unwrap(),
            bytes_per_pair: b,
        })
        .collect();
    aps_collectives::Schedule::new(
        n,
        aps_collectives::CollectiveKind::Composite,
        "random-shifts",
        steps,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn larger_base_pools_weakly_dominate(
        shifts in proptest::collection::vec(1usize..15, 1..12),
        bytes in proptest::collection::vec(1e2f64..1e8, 12),
        alpha_r in 1e-7f64..1e-3,
    ) {
        let n = 16;
        let schedule = random_shift_schedule(n, &shifts, &bytes[..shifts.len()]);
        let r1 = builders::ring_unidirectional(n).unwrap();
        let r3 = builders::coprime_rings(n, &[3]).unwrap();
        let r7 = builders::coprime_rings(n, &[7]).unwrap();
        let params = CostParams::paper_defaults();
        let reconfig = ReconfigModel::constant(alpha_r).unwrap();
        let mut last = f64::INFINITY;
        // Pools grow by extension: {1} ⊆ {1,3} ⊆ {1,3,7}; optimal cost must
        // be non-increasing (start base 0 is in every pool).
        for pool in [vec![&r1], vec![&r1, &r3], vec![&r1, &r3, &r7]] {
            let mb = build_multibase(&pool, &schedule, params, reconfig, 0).unwrap();
            let (choices, cost) = mb.optimize().unwrap();
            prop_assert!(cost <= last + 1e-12, "pool of {} worse: {cost} > {last}", pool.len());
            // DP output must price identically through the evaluator.
            let priced = mb.evaluate(&choices).unwrap();
            prop_assert!((priced - cost).abs() < 1e-12 * (1.0 + cost));
            last = cost;
        }
    }
}
