//! Property-based tests for the multi-base extension.

use aps_core::multibase::{build_multibase, MultiChoice};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The pool's trellis against every choice vector, priced one by one,
    /// from every start base and under both delay models.
    #[test]
    fn pool_dp_equals_exhaustive_enumeration(
        shifts in proptest::collection::vec(1usize..15, 1..7),
        bytes in proptest::collection::vec(1e2f64..1e8, 6),
        (strides, start) in prop::sample::subsequence(vec![1usize, 3, 5, 7], 1..4)
            .prop_flat_map(|strides| {
                let k = strides.len();
                (Just(strides), 0..k)
            }),
        alpha_r in 1e-7f64..1e-4,
        per_port in any::<bool>(),
    ) {
        let n = 16;
        let schedule = random_shift_schedule(n, &shifts, &bytes[..shifts.len()]);
        let rings: Vec<_> = strides
            .iter()
            .map(|&s| builders::coprime_rings(n, &[s]).unwrap())
            .collect();
        let pool: Vec<_> = rings.iter().collect();
        let reconfig = if per_port {
            ReconfigModel::per_port(alpha_r, alpha_r / 8.0).unwrap()
        } else {
            ReconfigModel::constant(alpha_r).unwrap()
        };
        let mb = build_multibase(&pool, &schedule, CostParams::paper_defaults(), reconfig, start)
            .unwrap();
        let states: Vec<MultiChoice> = (0..pool.len())
            .map(MultiChoice::Base)
            .chain([MultiChoice::Matched])
            .collect();
        let s = shifts.len();
        let mut cheapest = f64::INFINITY;
        for code in 0..states.len().pow(s as u32) {
            let choices: Vec<MultiChoice> = (0..s)
                .map(|i| states[code / states.len().pow(i as u32) % states.len()])
                .collect();
            cheapest = cheapest.min(mb.evaluate(&choices).unwrap());
        }
        // `evaluate` adds each step's run and charge as one term, while the
        // trellis adds them one at a time: compare within rounding.
        let (choices, cost) = mb.optimize().unwrap();
        prop_assert!(
            (cost - cheapest).abs() <= 1e-12 * cheapest,
            "strides {strides:?} from base {start}, {reconfig:?}: dp {cost} vs cheapest {cheapest}"
        );
        let priced = mb.evaluate(&choices).unwrap();
        prop_assert!((priced - cost).abs() <= 1e-12 * cost, "{choices:?}: {priced} vs {cost}");
    }
}
