//! Differential tests: the max-min fluid solve against the seed
//! from-scratch engine.
//!
//! The seed engine (`aps_sim::fluid::reference::simulate_flows_reference`)
//! re-runs the full progressive-filling solver every round; it is the
//! oracle. The explicit-path API (`aps_sim::fluid::simulate_flows`) hands
//! flows shaped like one circuit step to the arc solve and every other
//! flow set to the seed engine. On every input it must agree with the
//! oracle — the contract is 1e-9 relative, and the solvers are in fact
//! designed to agree *bit for bit* (see the invariants in `fluid.rs`'s
//! module docs), which is what these tests pin, whichever solver runs. A
//! bad input must panic at the same flow, with the same message.
//!
//! The step engine's arc solve (`aps_sim::fluid::simulate_circuit_step`)
//! answers the same question for one step on a circuit configuration, where
//! every path is a run of consecutive circuits. The properties at the end of
//! this file pin it to the seed engine bit for bit, over the explicit
//! successor paths the per-hop walk of earlier versions of the step engine
//! built, and pin its unroutable-pair errors to that walk's. They also pin
//! that the explicit-path API recognizes flows of that shape and solves
//! them on arcs, and that any other flow set falls back to the seed engine
//! (`FluidScratch::reference_runs` says which ran).
//!
//! The randomized cases use the compat `proptest` shim: a failing case
//! prints its base seed and replays with `PROPTEST_SEED=<seed>`.

use aps_matrix::Matching;
use aps_sim::fluid::reference::simulate_flows_reference;
use aps_sim::fluid::{
    max_min_rates, simulate_circuit_step, simulate_flows, simulate_flows_scratch, FlowSpec,
};
use aps_sim::{CircuitScratch, FluidScratch};
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
    let got = simulate_flows(caps, specs);
    let reference = simulate_flows_reference(caps, specs);
    assert_eq!(got.len(), reference.len());
    for (i, (e, r)) in got.iter().zip(&reference).enumerate() {
        let rel = (e - r).abs() / r.abs().max(1e-300);
        assert!(
            rel <= 1e-9,
            "flow {i}: simulate_flows {e} vs reference {r} (rel {rel})"
        );
        assert_eq!(
            e.to_bits(),
            r.to_bits(),
            "flow {i}: simulate_flows {e} and reference {r} differ in the last bit"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn simulate_flows_matches_reference_on_random_flow_sets((caps, specs) in arb_network()) {
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
        // These networks mix volumes or capacities, so none is shaped like
        // a circuit step and each runs the seed engine once.
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
            prop_assert_eq!(recycled.reference_runs(), round as u64 + 1);
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

/// SplitMix64: the seeded stream the circuit cases are drawn from.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `true` with probability `num / den`.
    fn one_in(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A circuit configuration over `n` ports and its chains and cycles, each in
/// successor order.
struct Circuits {
    config: Matching,
    runs: Vec<(Vec<usize>, bool)>,
}

/// Cuts a shuffled node order into runs of one or more nodes, each node
/// ending its run with probability 1/2, 1/6, 1/40 or 1/1000 (drawn once);
/// about half the runs of two or more close into cycles. `singles` forces
/// one lone port (no circuit at all) and one chain of at least two nodes
/// when `n ≥ 3`.
fn circuits(n: usize, rng: &mut Mix, singles: bool) -> Circuits {
    let cut = [2, 6, 40, 1000][rng.below(4)];
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut runs = Vec::new();
    let mut start = 0;
    if singles && n >= 3 {
        runs.push((vec![order[0]], false));
        let end = 3 + rng.below(n - 2);
        runs.push((order[1..end].to_vec(), false));
        start = end;
    }
    while start < n {
        let mut end = start + 1;
        while end < n && !rng.one_in(1, cut) {
            end += 1;
        }
        let run = order[start..end].to_vec();
        let cycle = run.len() >= 2 && rng.one_in(1, 2);
        runs.push((run, cycle));
        start = end;
    }
    let mut pairs = Vec::new();
    for (run, cycle) in &runs {
        pairs.extend(run.windows(2).map(|w| (w[0], w[1])));
        if *cycle {
            pairs.push((run[run.len() - 1], run[0]));
        }
    }
    Circuits {
        config: Matching::from_pairs(n, &pairs).unwrap(),
        runs,
    }
}

/// Step pairs on `c`, in shuffled order, with distinct senders and
/// receivers. `kind` 0 keeps to direct circuits, kind 1 adds one relayed
/// pair to them, and kind 2 relays each pair 1 to `len − 1` hops along its
/// chain or cycle (never past a chain's end).
fn step_pairs(c: &Circuits, rng: &mut Mix, kind: usize) -> Vec<(usize, usize)> {
    let n = c.config.n();
    let mut receiving = vec![false; n];
    let mut pairs = Vec::new();
    let density = 1 + rng.below(4) as u64;
    let mut relay = None;
    for (run, cycle) in &c.runs {
        let len = run.len();
        for (at, &v) in run.iter().enumerate() {
            // Downstream nodes `v` can reach in 1 to `len − 1` hops.
            let reach = if *cycle { len - 1 } else { len - 1 - at };
            if reach == 0 || !rng.one_in(density, 4) {
                continue;
            }
            let hops = match kind {
                0 | 1 => 1,
                _ => 1 + rng.below(reach),
            };
            if kind == 1 && reach >= 2 && relay.is_none() && rng.one_in(1, 4) {
                relay = Some((v, run[(at + 2 + rng.below(reach - 1)) % len]));
                continue;
            }
            let d = run[(at + hops) % len];
            if !receiving[d] {
                receiving[d] = true;
                pairs.push((v, d));
            }
        }
    }
    if let Some((v, d)) = relay {
        if !receiving[d] {
            pairs.push((v, d));
        }
    }
    rng.shuffle(&mut pairs);
    pairs
}

/// The per-hop walk: each pair's successor path, links numbered by
/// ascending sender port; the first pair in order with no path is the error.
fn successor_paths(
    config: &Matching,
    pairs: &[(usize, usize)],
) -> Result<Vec<Vec<usize>>, (usize, usize)> {
    let n = config.n();
    let mut link_of = vec![usize::MAX; n];
    for (id, (s, _)) in config.pairs().enumerate() {
        link_of[s] = id;
    }
    pairs
        .iter()
        .map(|&(src, dst)| {
            let mut path = Vec::new();
            let mut cur = src;
            loop {
                let next = config.dst_of(cur).ok_or((src, dst))?;
                path.push(link_of[cur]);
                cur = next;
                if cur == dst {
                    return Ok(path);
                }
                if path.len() >= n {
                    return Err((src, dst));
                }
            }
        })
        .collect()
}

/// Volumes and capacities of the circuit cases.
const VOLUMES: [f64; 4] = [0.0, 1.0, 1024.0, 3.7e6];
const CAPS: [f64; 3] = [0.5, 3.0, 1e11];
/// Propagation per hop in the step's worst time, as the executor adds it.
const DELTA_S: f64 = 100e-9;

/// The step's worst time: its last flow's finish plus propagation.
fn worst_time(finish: impl Iterator<Item = (f64, usize)>) -> f64 {
    finish.fold(0.0f64, |w, (f, hops)| w.max(f + DELTA_S * hops as f64))
}

/// Runs one step through the arc solve in `scratch` and through the seed
/// engine over the per-hop walk's paths, and asserts they agree: the same
/// error, or bit-identical finish times, the same hop counts and the same
/// worst time.
fn assert_circuit_step_agrees(
    scratch: &mut CircuitScratch,
    config: &Matching,
    pairs: &[(usize, usize)],
    bytes: f64,
    cap: f64,
) {
    let got = simulate_circuit_step(config, pairs, bytes, cap, scratch);
    let paths = match successor_paths(config, pairs) {
        Ok(paths) => paths,
        Err(pair) => {
            assert_eq!(got, Err(pair), "{config:?} {pairs:?}");
            return;
        }
    };
    assert_eq!(got, Ok(()), "{config:?} {pairs:?}");
    let specs: Vec<FlowSpec> = paths
        .into_iter()
        .map(|path| FlowSpec { bytes, path })
        .collect();
    let caps = vec![cap; config.len()];
    let want = simulate_flows_reference(&caps, &specs);
    // The explicit-path API recognizes the step and solves it on arcs,
    // never running the seed engine (which takes a step with no links).
    let mut explicit = FluidScratch::new();
    explicit.load_specs(&specs);
    simulate_flows_scratch(&caps, &mut explicit);
    assert_eq!(explicit.reference_runs(), u64::from(caps.is_empty()));
    assert_eq!(scratch.num_flows(), pairs.len());
    for (i, (w, spec)) in want.iter().zip(&specs).enumerate() {
        let f = scratch.finish_of(i);
        assert_eq!(
            f.to_bits(),
            w.to_bits(),
            "flow {i} {:?}: arcs {f} vs reference {w}; {config:?} {pairs:?} bytes {bytes} cap {cap}",
            pairs[i]
        );
        assert_eq!(scratch.hops_of(i), spec.path.len(), "flow {i}");
        assert_eq!(explicit.finish_of(i).to_bits(), w.to_bits(), "flow {i}");
    }
    let arcs = worst_time((0..pairs.len()).map(|i| (scratch.finish_of(i), scratch.hops_of(i))));
    let reference = worst_time(want.iter().zip(&specs).map(|(&f, s)| (f, s.path.len())));
    assert_eq!(arcs.to_bits(), reference.to_bits());
}

/// One random circuit step of `n` ports from `seed`: its configuration,
/// pairs, volume and capacity. One step in four is direct circuits only and
/// one in four all direct circuits but one.
fn circuit_step(n: usize, seed: u64) -> (Matching, Vec<(usize, usize)>, f64, f64) {
    let mut rng = Mix(seed);
    let c = circuits(n, &mut rng, false);
    let kind = [0, 1, 2, 2][rng.below(4)];
    let pairs = step_pairs(&c, &mut rng, kind);
    let bytes = VOLUMES[rng.below(VOLUMES.len())];
    let cap = CAPS[rng.below(CAPS.len())];
    (c.config, pairs, bytes, cap)
}

/// Explicit flows shaped like a circuit step on `n` ports from `seed`, as a
/// caller of the explicit-path API may load them: link ids relabelled at
/// random, idle flows (no volume, or no path) mixed in, and some paths round
/// a whole cycle. `spoil` then breaks the shape: 1 gives one flow another
/// volume, 2 one link another capacity, and 3 sends one path back onto its
/// first link. Returns the capacities, the flows and whether they still
/// have the shape.
fn explicit_circuit_flows(n: usize, seed: u64, spoil: usize) -> (Vec<f64>, Vec<FlowSpec>, bool) {
    let mut rng = Mix(seed);
    let c = circuits(n, &mut rng, false);
    let pairs = step_pairs(&c, &mut rng, 2);
    let links = c.config.len();
    let mut relabel: Vec<usize> = (0..links).collect();
    rng.shuffle(&mut relabel);
    let mut link_of = vec![usize::MAX; n];
    for (id, (s, _)) in c.config.pairs().enumerate() {
        link_of[s] = relabel[id];
    }
    let bytes = VOLUMES[1 + rng.below(VOLUMES.len() - 1)];
    let mut caps = vec![CAPS[rng.below(CAPS.len())]; links];
    let mut specs: Vec<FlowSpec> = successor_paths(&c.config, &pairs)
        .unwrap()
        .into_iter()
        .map(|path| FlowSpec {
            bytes,
            path: path.into_iter().map(|l| relabel[l]).collect(),
        })
        .collect();
    for (run, cycle) in &c.runs {
        if *cycle && rng.one_in(1, 2) {
            let at = rng.below(run.len());
            let path = (0..run.len())
                .map(|h| link_of[run[(at + h) % run.len()]])
                .collect();
            specs.insert(rng.below(specs.len() + 1), FlowSpec { bytes, path });
        }
    }
    for _ in 0..rng.below(3) {
        let idle = if links > 0 && rng.one_in(1, 2) {
            FlowSpec {
                bytes: 0.0,
                path: vec![rng.below(links)],
            }
        } else {
            FlowSpec {
                bytes,
                path: Vec::new(),
            }
        };
        specs.insert(rng.below(specs.len() + 1), idle);
    }
    let active: Vec<usize> = (0..specs.len())
        .filter(|&i| specs[i].bytes > 0.0 && !specs[i].path.is_empty())
        .collect();
    let spoiled = match spoil {
        1 if active.len() >= 2 => {
            specs[active[rng.below(active.len())]].bytes *= 2.0;
            true
        }
        2 if links >= 2 => {
            caps[rng.below(links)] *= 2.0;
            true
        }
        3 if !active.is_empty() => {
            let path = &mut specs[active[rng.below(active.len())]].path;
            path.push(path[0]);
            true
        }
        _ => false,
    };
    (caps, specs, !spoiled)
}

/// The finish times' bits of `run`, or the message it panics with.
fn outcome(run: impl FnOnce() -> Vec<f64>) -> Result<Vec<u64>, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .map(|finish| finish.iter().map(|f| f.to_bits()).collect())
        .map_err(|payload| match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        })
}

/// A port count for a circuit case: small ports counts weigh as much as
/// large ones, up to 300.
fn ports(pick: u64) -> usize {
    match pick % 3 {
        0 => 2 + (pick / 3 % 15) as usize,
        1 => 2 + (pick / 3 % 63) as usize,
        _ => 2 + (pick / 3 % 299) as usize,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn circuit_steps_match_the_reference_bit_for_bit(pick in any::<u64>(), seed in any::<u64>()) {
        let (config, pairs, bytes, cap) = circuit_step(ports(pick), seed);
        assert_circuit_step_agrees(&mut CircuitScratch::new(), &config, &pairs, bytes, cap);
    }

    #[test]
    fn explicit_circuit_flows_take_the_arc_solve_bit_for_bit(
        cases in proptest::collection::vec((any::<u64>(), any::<u64>(), 0usize..4), 1..6),
    ) {
        // One recycled scratch across the cases: the explicit-path API
        // gives the seed engine's bits, solving flows of circuit shape on
        // arcs and running the seed engine once on every other set.
        let mut recycled = FluidScratch::new();
        for (pick, seed, spoil) in cases {
            let (caps, specs, shaped) = explicit_circuit_flows(ports(pick), seed, spoil);
            let want = simulate_flows_reference(&caps, &specs);
            let runs = recycled.reference_runs();
            recycled.load_specs(&specs);
            simulate_flows_scratch(&caps, &mut recycled);
            let by_reference = !shaped || caps.is_empty();
            prop_assert_eq!(recycled.reference_runs() - runs, u64::from(by_reference));
            for (i, w) in want.iter().enumerate() {
                prop_assert_eq!(
                    recycled.finish_of(i).to_bits(),
                    w.to_bits(),
                    "flow {} of {:?} on {:?}",
                    i,
                    specs,
                    caps
                );
            }
        }
    }

    #[test]
    fn bad_flows_panic_as_the_reference_does(
        pick in any::<u64>(),
        seed in any::<u64>(),
        spoil in 0usize..4,
        defect in 0usize..7,
        plant in any::<u64>(),
    ) {
        // Flows shaped like a circuit step, or spoiled, with one defect
        // planted: a link id past the end inserted into a path, a volume of
        // +∞ or NaN, every capacity 0, −1 or +∞, or one link's capacity 0
        // or +∞. Whichever solver takes the flows, `simulate_flows` panics
        // with the seed engine's message: the same check fails first.
        let (mut caps, mut specs, _) = explicit_circuit_flows(ports(pick), seed, spoil);
        let mut rng = Mix(plant);
        if specs.is_empty() {
            specs.push(FlowSpec { bytes: 1.0, path: Vec::new() });
        }
        let flow = rng.below(specs.len());
        match defect {
            0 => {
                let path = &mut specs[flow].path;
                path.insert(rng.below(path.len() + 1), caps.len() + rng.below(3));
            }
            1 => specs[flow].bytes = f64::INFINITY,
            2 => specs[flow].bytes = f64::NAN,
            3..=5 => caps.fill([0.0, -1.0, f64::INFINITY][defect - 3]),
            _ => {
                if !caps.is_empty() {
                    let link = rng.below(caps.len());
                    caps[link] = if rng.one_in(1, 2) { 0.0 } else { f64::INFINITY };
                }
            }
        }
        prop_assert_eq!(
            outcome(|| simulate_flows(&caps, &specs)),
            outcome(|| simulate_flows_reference(&caps, &specs))
        );
    }

    #[test]
    fn unroutable_pairs_name_the_walks_first_pair(
        pick in any::<u64>(),
        seed in any::<u64>(),
        plants in proptest::collection::vec(0usize..4, 1..3),
    ) {
        // Plants 0–3: a receiver on another chain or cycle, one upstream on
        // a chain, a sender at a chain's end (past which its walk runs), and
        // a port with no circuit at all. Each goes in at a random place
        // among routable pairs; the first one in order is the error.
        let n = 3 + ports(pick) % 298;
        let mut rng = Mix(seed);
        let c = circuits(n, &mut rng, true);
        let mut pairs = step_pairs(&c, &mut rng, 2);
        let lone = c.runs[0].0[0];
        let chain = &c.runs[1].0;
        let mut planted = Vec::new();
        for plant in plants {
            let (src, dst) = match plant {
                0 => (chain[0], lone),
                1 => {
                    let at = 1 + rng.below(chain.len() - 1);
                    (chain[at], chain[rng.below(at)])
                }
                2 => (chain[chain.len() - 1], chain[rng.below(chain.len() - 1)]),
                _ => (lone, chain[rng.below(chain.len())]),
            };
            pairs.retain(|&(s, d)| s != src && d != dst);
            pairs.insert(rng.below(pairs.len() + 1), (src, dst));
            planted.push((src, dst));
        }
        let first = pairs.iter().copied().find(|p| planted.contains(p)).unwrap();
        let bytes = VOLUMES[rng.below(VOLUMES.len())];
        let got = simulate_circuit_step(&c.config, &pairs, bytes, 1e11, &mut CircuitScratch::new());
        prop_assert_eq!(got, Err(first));
        prop_assert_eq!(successor_paths(&c.config, &pairs).map(|_| ()), Err(first));
    }

    #[test]
    fn a_recycled_circuit_scratch_matches_a_fresh_one(
        steps in proptest::collection::vec((any::<u64>(), any::<u64>()), 2..8),
    ) {
        // One scratch across steps of varying size and shape, the
        // executor's pattern, gives the bits a fresh scratch gives.
        let mut recycled = CircuitScratch::new();
        for (pick, seed) in steps {
            let (config, pairs, bytes, cap) = circuit_step(ports(pick), seed);
            let mut fresh = CircuitScratch::new();
            let a = simulate_circuit_step(&config, &pairs, bytes, cap, &mut recycled);
            let b = simulate_circuit_step(&config, &pairs, bytes, cap, &mut fresh);
            prop_assert_eq!(a, b);
            if a.is_ok() {
                prop_assert_eq!(recycled.num_flows(), fresh.num_flows());
                for i in 0..fresh.num_flows() {
                    prop_assert_eq!(recycled.finish_of(i).to_bits(), fresh.finish_of(i).to_bits());
                    prop_assert_eq!(recycled.hops_of(i), fresh.hops_of(i));
                }
            }
        }
    }
}

#[test]
fn direct_and_relayed_circuit_steps_match_the_reference() {
    // Hand-picked shapes: the 256-port ring under a derangement (one giant
    // component), a ring shift by n/2 (every link tied), a matched step,
    // and a relay across a chain's whole length.
    let ring = Matching::shift(256, 1).unwrap();
    let mut rng = Mix(1);
    let mut perm: Vec<usize> = (0..256).collect();
    while perm.iter().enumerate().any(|(i, &p)| i == p) {
        rng.shuffle(&mut perm);
    }
    let derangement: Vec<(usize, usize)> = perm.iter().copied().enumerate().collect();
    let half: Vec<(usize, usize)> = (0..64).map(|i| (i, (i + 32) % 64)).collect();
    let matched = Matching::xor(64, 5).unwrap();
    let chain = Matching::from_pairs(8, &[(3, 1), (1, 7), (7, 0), (0, 5)]).unwrap();
    let mut scratch = CircuitScratch::new();
    for bytes in VOLUMES {
        for cap in CAPS {
            assert_circuit_step_agrees(&mut scratch, &ring, &derangement, bytes, cap);
            let ring64 = Matching::shift(64, 1).unwrap();
            assert_circuit_step_agrees(&mut scratch, &ring64, &half, bytes, cap);
            let pairs: Vec<(usize, usize)> = matched.pairs().collect();
            assert_circuit_step_agrees(&mut scratch, &matched, &pairs, bytes, cap);
            assert_circuit_step_agrees(&mut scratch, &chain, &[(1, 5), (3, 7)], bytes, cap);
        }
    }
}
