//! Differential tests: the event-driven fluid engine vs the seed
//! from-scratch engine.
//!
//! The event engine (`aps_sim::fluid::simulate_flows`) re-solves max-min
//! rates only for the sharing components a completion touched; the seed
//! engine (`aps_sim::fluid::reference::simulate_flows_reference`) re-runs
//! the full progressive-filling solver every round. On every input the two
//! must agree — the contract is 1e-9 relative, and the engines are in fact
//! designed to agree *bit for bit* (see the invariants in `fluid.rs`'s
//! module docs), which is what these tests pin.
//!
//! The randomized cases use the compat `proptest` shim: a failing case
//! prints its base seed and replays with `PROPTEST_SEED=<seed>`.

use aps_sim::fluid::reference::simulate_flows_reference;
use aps_sim::fluid::{max_min_rates, simulate_flows, FlowSpec};
use proptest::prelude::*;

/// Strategy: link capacities plus a set of flows over them — one case in
/// four shaped like an executor step ([`arb_step`]), the rest small random
/// networks ([`arb_random`]).
fn arb_network() -> impl Strategy<Value = (Vec<f64>, Vec<FlowSpec>)> {
    (0usize..4).prop_flat_map(|shape| match shape {
        0 => arb_step().boxed(),
        _ => arb_random().boxed(),
    })
}

/// Strategy: one step as the executor produces it — hundreds of
/// equal-capacity links, one-hop flows on many of them, and a few ring arcs
/// over the first `ring` links placed among the one-hop flows. Volumes are
/// one to three multiples of a shared `m`, so bottleneck ties span
/// components and completions come in a few rounds.
fn arb_step() -> impl Strategy<Value = (Vec<f64>, Vec<FlowSpec>)> {
    (100usize..300, 3usize..12).prop_flat_map(|(links, ring)| {
        let hops = proptest::collection::vec((any::<bool>(), 1usize..4), links - ring);
        let arcs = proptest::collection::vec((0..ring, 2..=ring, 1usize..4, 0..links), 1..6);
        (1.0f64..1e3, 1.0f64..1e6, hops, arcs).prop_map(move |(cap, m, hops, arcs)| {
            let mut specs: Vec<FlowSpec> = hops
                .into_iter()
                .enumerate()
                .filter(|(_, (used, _))| *used)
                .map(|(l, (_, k))| FlowSpec {
                    bytes: m * k as f64,
                    path: vec![ring + l],
                })
                .collect();
            for (start, len, k, at) in arcs {
                let path = (0..len).map(|h| (start + h) % ring).collect();
                let at = at % (specs.len() + 1);
                specs.insert(
                    at,
                    FlowSpec {
                        bytes: m * k as f64,
                        path,
                    },
                );
            }
            (vec![cap; links], specs)
        })
    })
}

/// Strategy: a small random network. Paths are random in-order link
/// subsequences, so sharing components of every shape appear: disjoint
/// singletons, chains, and fully merged sets. A slice of degenerate flows
/// (zero bytes / empty path) rides along.
fn arb_random() -> impl Strategy<Value = (Vec<f64>, Vec<FlowSpec>)> {
    (2usize..10).prop_flat_map(|links| {
        let caps = proptest::collection::vec(0.5f64..100.0, links);
        let flows = proptest::collection::vec(
            (
                0.0f64..1e6,
                proptest::sample::subsequence((0..links).collect::<Vec<usize>>(), 0..5),
            ),
            1..14,
        );
        (caps, flows).prop_map(|(caps, raw)| {
            let specs = raw
                .into_iter()
                .map(|(bytes, path)| FlowSpec { bytes, path })
                .collect();
            (caps, specs)
        })
    })
}

fn assert_engines_agree(caps: &[f64], specs: &[FlowSpec]) {
    let event = simulate_flows(caps, specs);
    let reference = simulate_flows_reference(caps, specs);
    assert_eq!(event.len(), reference.len());
    for (i, (e, r)) in event.iter().zip(&reference).enumerate() {
        let rel = (e - r).abs() / r.abs().max(1e-300);
        assert!(
            rel <= 1e-9,
            "flow {i}: event {e} vs reference {r} (rel {rel})"
        );
        assert_eq!(
            e.to_bits(),
            r.to_bits(),
            "flow {i}: event {e} and reference {r} differ in the last bit"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn event_engine_matches_reference_on_random_flow_sets((caps, specs) in arb_network()) {
        assert_engines_agree(&caps, &specs);
    }

    #[test]
    fn engines_agree_on_equal_volume_flows((caps, specs) in arb_network()) {
        // The per-step pattern the executor produces: one shared volume.
        let specs: Vec<FlowSpec> = specs
            .into_iter()
            .map(|s| FlowSpec { bytes: 4096.0, path: s.path })
            .collect();
        assert_engines_agree(&caps, &specs);
    }

    #[test]
    fn equal_volume_step_time_is_beta_m_l(
        n in 4usize..12,
        m in 1.0f64..1e7,
        shifts in proptest::collection::vec(1usize..11, 1..6),
    ) {
        // Hand-checked oracle: equal-volume flows over a unidirectional
        // ring, one flow per node per shift pattern. The worst link load L
        // (= Σ of the shift distances) pins the step time at β·m·L with
        // β = 1/cap: every flow crossing the worst link drains at cap/L
        // for the whole step.
        let cap = 1e11f64;
        let mut specs = Vec::new();
        let mut load = vec![0usize; n];
        for &k in &shifts {
            let k = (k % (n - 1)) + 1; // 1..n-1, never the identity
            for src in 0..n {
                let path: Vec<usize> = (0..k).map(|h| (src + h) % n).collect();
                for &l in &path {
                    load[l] += 1;
                }
                specs.push(FlowSpec { bytes: m, path });
            }
        }
        let worst = *load.iter().max().unwrap() as f64;
        let finish = simulate_flows(&vec![cap; n], &specs);
        let makespan = finish.iter().fold(0.0f64, |a, &b| a.max(b));
        let expect = m * worst / cap; // = β·m·L
        let rel = (makespan - expect).abs() / expect;
        prop_assert!(rel < 1e-9, "makespan {makespan} vs β·m·L {expect} (rel {rel})");
        assert_engines_agree(&vec![cap; n], &specs);
    }

    #[test]
    fn recycled_scratch_matches_fresh_scratch_across_random_sequences(
        nets in proptest::collection::vec(arb_network(), 2..6),
    ) {
        // The arena contract: one long-lived `FluidScratch` recycled
        // across an arbitrary sequence of simulations (the executor's
        // steady-state pattern) is bit-identical to a fresh scratch per
        // call — no state leaks across steps of any shape sequence
        // (growing, shrinking, degenerate, hundreds of links then a few).
        use aps_sim::fluid::simulate_flows_scratch;
        use aps_sim::FluidScratch;

        let mut recycled = FluidScratch::new();
        for (round, (caps, specs)) in nets.iter().enumerate() {
            recycled.load_specs(specs);
            simulate_flows_scratch(caps, &mut recycled);
            let fresh = simulate_flows(caps, specs);
            for (i, want) in fresh.iter().enumerate() {
                prop_assert_eq!(
                    recycled.finish_of(i).to_bits(),
                    want.to_bits(),
                    "round {}: recycled scratch diverged on flow {}",
                    round,
                    i
                );
            }
            prop_assert_eq!(recycled.index_builds(), round as u64 + 1);
        }
    }

    #[test]
    fn cached_rates_equal_fresh_progressive_filling((caps, specs) in arb_network()) {
        // Cross-check the solver itself: the public progressive-filling
        // allocation never oversubscribes a link, on any random instance.
        let paths: Vec<&[usize]> = specs.iter().map(|s| s.path.as_slice()).collect();
        let rates = max_min_rates(&caps, &paths);
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = rates
                .iter()
                .zip(&paths)
                .filter(|(_, p)| p.contains(&l))
                .map(|(r, _)| r)
                .sum();
            prop_assert!(used <= cap * (1.0 + 1e-9), "link {l}: {used} > {cap}");
        }
    }
}

#[test]
fn hand_checked_oracle_uniform_alltoall_shift() {
    // 8-node ring, the xor-exchange-style worst case: a single shift(4)
    // step — every flow 4 hops, every link load 4 → step time 4·m/cap.
    let n = 8;
    let m = 1.0e6;
    let cap = 1e11;
    let specs: Vec<FlowSpec> = (0..n)
        .map(|src| FlowSpec {
            bytes: m,
            path: (0..4).map(|h| (src + h) % n).collect(),
        })
        .collect();
    let finish = simulate_flows(&vec![cap; n], &specs);
    for f in &finish {
        assert!((f - 4.0 * m / cap).abs() / (4.0 * m / cap) < 1e-12);
    }
    assert_engines_agree(&vec![cap; n], &specs);
}

#[test]
fn engines_agree_through_the_executor_trial_batch() {
    // End to end: whole collectives through the executor, batched on the
    // worker pool — the batch is bit-identical at any APS_THREADS setting
    // (CI's test-matrix job runs this file at APS_THREADS=1 and 4).
    use adaptive_photonics::prelude::*;
    use aps_cost::ReconfigModel;

    let trials: Vec<(Matching, Schedule, SwitchSchedule)> = [8usize, 12]
        .into_iter()
        .flat_map(|n| {
            [1e3, 1e6, 64.0 * 1024.0 * 1024.0]
                .into_iter()
                .flat_map(move |bytes| {
                    let schedule = collectives::alltoall::linear_shift(n, bytes)
                        .unwrap()
                        .schedule;
                    let steps = schedule.num_steps();
                    [
                        SwitchSchedule::all_base(steps),
                        SwitchSchedule::all_matched(steps),
                    ]
                    .into_iter()
                    .map(move |switch_schedule| {
                        (
                            Matching::shift(n, 1).unwrap(),
                            schedule.clone(),
                            switch_schedule,
                        )
                    })
                })
        })
        .collect();
    let run = |_: usize, (base, schedule, switches): &(Matching, Schedule, SwitchSchedule)| {
        let mut fabric = CircuitSwitch::new(base.clone(), ReconfigModel::constant(5e-6).unwrap());
        run_scheduled(
            &mut fabric,
            base,
            schedule,
            switches,
            &RunConfig::paper_defaults(),
        )
    };
    let from_env = Pool::from_env().try_map(&trials, run).unwrap();
    let serial = Pool::serial().try_map(&trials, run).unwrap();
    assert_eq!(from_env, serial);
}
