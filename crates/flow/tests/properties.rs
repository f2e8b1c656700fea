//! Property-based tests for the concurrent-flow solvers: bound sandwiches,
//! monotonicity, and agreement between independent algorithms — among them
//! the circuit path of `forced_path_throughput` against its BFS oracle.

mod dinic;
mod ring;

use aps_flow::forced::{forced_path_throughput, reference};
use aps_flow::gk::{matching_commodities, max_concurrent_flow};
use aps_flow::proxy::degree_proxy_throughput;
use aps_flow::solver::{step_throughput, ThetaCache, ThroughputSolver};
use aps_flow::FlowError;
use aps_matrix::Matching;
use aps_topology::{builders, Topology, TopologyError};
use dinic::pair_max_flow;
use proptest::prelude::*;
use rand::prelude::*;

/// Strategy: a ring-spined random topology plus a random shift matching.
fn arb_instance() -> impl Strategy<Value = (Topology, Matching)> {
    (
        3usize..10,
        1usize..9,
        proptest::collection::vec((0usize..10, 0usize..10), 0..10),
    )
        .prop_map(|(n, k, chords)| {
            let mut t = Topology::new(n, "random");
            for i in 0..n {
                t.add_link(i, (i + 1) % n, 1.0).unwrap();
            }
            for (a, b) in chords {
                let (a, b) = (a % n, b % n);
                if a != b {
                    t.add_link(a, b, 0.7).unwrap();
                }
            }
            let m = Matching::shift(n, (k % (n - 1)) + 1).unwrap();
            (t, m)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bound_sandwich_holds((t, m) in arb_instance()) {
        // forced (a feasible routing) ≤ optimum ≤ GK upper bound, and the
        // degree proxy upper-bounds forced.
        let (forced, _) = forced_path_throughput(&t, &m).unwrap();
        let r = max_concurrent_flow(&t, &matching_commodities(&m), 0.1).unwrap();
        prop_assert!(r.upper_bound >= forced - 1e-9,
            "dual bound {} below feasible forced {}", r.upper_bound, forced);
        prop_assert!(r.lower_bound <= r.upper_bound + 1e-9);
        let (proxy, _) = degree_proxy_throughput(&t, &m).unwrap();
        prop_assert!(proxy >= forced - 1e-9);
        // GK's certified solution is within (1-3ε) of its own upper bound.
        prop_assert!(r.lower_bound >= (1.0 - 0.31) * forced - 1e-9);
    }

    #[test]
    fn theta_bounded_by_single_pair_flows((t, m) in arb_instance()) {
        let (forced, _) = forced_path_throughput(&t, &m).unwrap();
        for (s, d) in m.pairs() {
            prop_assert!(forced <= pair_max_flow(&t, s, d) + 1e-9);
        }
    }

    #[test]
    fn adding_capacity_never_hurts((t, m) in arb_instance(), extra in 0usize..10) {
        let (before, _) = forced_path_throughput(&t, &m).unwrap();
        let mut bigger = t.clone();
        let n = bigger.n();
        let (a, b) = (extra % n, (extra + 1 + extra % (n - 1)) % n);
        if a != b {
            bigger.add_link(a, b, 1.0).unwrap();
        }
        let (after, _) = forced_path_throughput(&bigger, &m).unwrap();
        // Forced SP routing with deterministic tie-breaks may reroute, but
        // capacity addition can't hurt the *optimal* flow; check via GK
        // upper bound instead for the strict claim, and allow the forced
        // value to move only modestly in either direction.
        let gk_before = max_concurrent_flow(&t, &matching_commodities(&m), 0.12).unwrap();
        let gk_after = max_concurrent_flow(&bigger, &matching_commodities(&m), 0.12).unwrap();
        prop_assert!(gk_after.upper_bound >= gk_before.lower_bound - 1e-9);
        prop_assert!(after > 0.0 && before > 0.0);
    }

    #[test]
    fn scaling_capacities_scales_theta((t, m) in arb_instance(), factor in 0.25f64..4.0) {
        let mut scaled = Topology::new(t.n(), "scaled");
        for l in t.links() {
            scaled.add_link(l.src, l.dst, l.capacity * factor).unwrap();
        }
        let (a, ha) = forced_path_throughput(&t, &m).unwrap();
        let (b, hb) = forced_path_throughput(&scaled, &m).unwrap();
        prop_assert!((b - a * factor).abs() < 1e-9 * (1.0 + b));
        prop_assert_eq!(ha, hb);
    }

    #[test]
    fn uni_ring_closed_form_matches_general_solver(n in 3usize..24, k in 1usize..23) {
        let k = (k % (n - 1)) + 1;
        let t = builders::ring_unidirectional(n).unwrap();
        let m = Matching::shift(n, k).unwrap();
        let (theta, ell) = forced_path_throughput(&t, &m).unwrap();
        let (oracle, oracle_ell) = reference(&t, &m).unwrap();
        prop_assert_eq!(theta.to_bits(), oracle.to_bits());
        prop_assert_eq!(ell, oracle_ell);
        prop_assert!((theta - ring::uni_ring_shift_theta(n, k, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn bi_ring_cut_bound_dominates_gk_lower(n in 4usize..12, k in 1usize..11) {
        let k = (k % (n - 1)) + 1;
        let t = builders::ring_bidirectional(n).unwrap();
        let m = Matching::shift(n, k).unwrap();
        let cut = ring::bi_ring_cut_upper_bound(n, &m, 0.5);
        let r = max_concurrent_flow(&t, &matching_commodities(&m), 0.1).unwrap();
        prop_assert!(cut >= r.lower_bound - 1e-9,
            "cut bound {} below achievable {}", cut, r.lower_bound);
    }
}

/// `θ` as its bits, so two results compare bit for bit.
fn bits(r: Result<(f64, usize), FlowError>) -> Result<(u64, usize), FlowError> {
    r.map(|(theta, ell)| (theta.to_bits(), ell))
}

/// Hops from `src` to `dst` along `next`, the one out-link of each node of a
/// circuit topology; `None` when the walk never gets there.
fn walk_hops(next: &[Option<usize>], src: usize, dst: usize) -> Option<usize> {
    let mut v = src;
    for hops in 1..=next.len() {
        v = next[v]?;
        if v == dst {
            return Some(hops);
        }
    }
    None
}

/// What both paths must agree on for `m` over the circuit topology `next`:
/// the largest hop count, or the first pair in sender order with no route.
fn expected(next: &[Option<usize>], m: &Matching) -> Result<usize, FlowError> {
    m.pairs().try_fold(0, |ell, (src, dst)| {
        walk_hops(next, src, dst)
            .map(|hops| ell.max(hops))
            .ok_or(FlowError::Routing(TopologyError::Unreachable { src, dst }))
    })
}

/// A random circuit topology, a matching relayed over it, and the one pair
/// planted with no route, if any.
struct CircuitCase {
    topo: Topology,
    matching: Matching,
    next: Vec<Option<usize>>,
    planted: Option<(usize, usize)>,
}

/// Builds a [`CircuitCase`] over `n ≥ 2` nodes.
///
/// A shuffled node order is cut into runs by dropping about 1 link in 5, and
/// every run but the first closes into a cycle with probability 1/2. The
/// first run is a chain of at least two nodes that leaves some node out once
/// `n ≥ 3`. `matched` builds the topology with `from_matching` (capacity 1);
/// otherwise links go in shuffled order with capacities from
/// {0.3, 0.5, 1.0, 2.0}.
///
/// About half the nodes relay 1 to 8 hops downstream. `plant` picks the pair
/// with no route: 1 crosses to another component, 2 goes upstream on the
/// chain, 3 leaves the chain's end (1 falls back to 3 at `n = 2`). With
/// nothing planted, up to two random pairs join instead, reachable or not.
fn circuit_case(n: usize, seed: u64, plant: usize, matched: bool) -> CircuitCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut next = vec![None; n];
    let mut chain = 0;
    let mut start = 0;
    while start < n {
        let (shortest, longest) = match start {
            0 => (2, (n - 1).max(2)),
            _ => (1, n - start),
        };
        let mut end = start + shortest;
        while end < start + longest && !rng.random_bool(0.2) {
            end += 1;
        }
        let run = &order[start..end];
        for w in run.windows(2) {
            next[w[0]] = Some(w[1]);
        }
        if start == 0 {
            chain = end;
        } else if run.len() >= 2 && rng.random_bool(0.5) {
            next[run[run.len() - 1]] = Some(run[0]);
        }
        start = end;
    }
    let links: Vec<(usize, usize)> = (0..n).filter_map(|v| next[v].map(|w| (v, w))).collect();
    let topo = if matched {
        builders::from_matching(&Matching::from_pairs(n, &links).unwrap())
    } else {
        let mut shuffled = links;
        shuffled.shuffle(&mut rng);
        let mut t = Topology::new(n, "circuits");
        for (s, d) in shuffled {
            let capacity = [0.3, 0.5, 1.0, 2.0][rng.random_range(0..4usize)];
            t.add_link(s, d, capacity).unwrap();
        }
        t
    };

    let chain_end = order[chain - 1];
    let planted = match plant {
        1 if chain < n => Some((
            order[rng.random_range(0..chain)],
            order[rng.random_range(chain..n)],
        )),
        2 => {
            let i = rng.random_range(1..chain);
            Some((order[i], order[rng.random_range(0..i)]))
        }
        1 | 3 => {
            let k = rng.random_range(0..n - 1);
            Some((chain_end, order[if k >= chain - 1 { k + 1 } else { k }]))
        }
        _ => None,
    };
    let mut pairs: Vec<(usize, usize)> = planted.into_iter().collect();
    let free = |pairs: &[(usize, usize)], s: usize, d: usize| {
        s != d && pairs.iter().all(|&(a, b)| a != s && b != d)
    };
    for v in 0..n {
        if rng.random_bool(0.5) {
            let mut d = v;
            for _ in 0..rng.random_range(1..=8) {
                match next[d] {
                    Some(w) => d = w,
                    None => break,
                }
            }
            if free(&pairs, v, d) {
                pairs.push((v, d));
            }
        }
    }
    if planted.is_none() {
        for _ in 0..rng.random_range(0..=2) {
            let (s, d) = (rng.random_range(0..n), rng.random_range(0..n));
            if free(&pairs, s, d) {
                pairs.push((s, d));
            }
        }
    }
    CircuitCase {
        topo,
        matching: Matching::from_pairs(n, &pairs).unwrap(),
        next,
        planted,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn circuit_path_matches_the_oracle_on_uni_rings(n in 2usize..258, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        let density = rng.random_range(0.0..1.0);
        let pairs: Vec<(usize, usize)> = (0..n)
            .filter(|&v| perm[v] != v && rng.random_bool(density))
            .map(|v| (v, perm[v]))
            .collect();
        let m = Matching::from_pairs(n, &pairs).unwrap();
        let t = builders::ring_unidirectional(n).unwrap();
        let next: Vec<Option<usize>> = (0..n).map(|v| Some((v + 1) % n)).collect();
        let fast = bits(forced_path_throughput(&t, &m));
        prop_assert_eq!(&fast, &bits(reference(&t, &m)));
        prop_assert_eq!(fast.map(|(_, ell)| ell), expected(&next, &m));
    }

    #[test]
    fn circuit_path_matches_the_oracle_on_chains_and_cycles(
        n in 2usize..258,
        seed in any::<u64>(),
        plant in 0usize..4,
        matched in any::<bool>(),
    ) {
        let case = circuit_case(n, seed, plant, matched);
        let fast = bits(forced_path_throughput(&case.topo, &case.matching));
        prop_assert_eq!(&fast, &bits(reference(&case.topo, &case.matching)));
        let want = expected(&case.next, &case.matching);
        prop_assert_eq!(fast.map(|(_, ell)| ell), want.clone());
        if let Some((src, dst)) = case.planted {
            prop_assert_eq!(want, Err(FlowError::Routing(TopologyError::Unreachable { src, dst })));
        }
    }

    #[test]
    fn a_cache_miss_prices_like_forced_path_throughput(
        n in 2usize..258,
        seed in any::<u64>(),
        plant in 0usize..4,
        matched in any::<bool>(),
    ) {
        // One cache lays its base out once and prices every miss on that
        // layout: the case's matching, then random subsets of its pairs.
        let case = circuit_case(n, seed, plant, matched);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let pairs: Vec<(usize, usize)> = case.matching.pairs().collect();
        let mut matchings = vec![case.matching.clone()];
        for _ in 0..3 {
            let keep: Vec<(usize, usize)> =
                pairs.iter().copied().filter(|_| rng.random_bool(0.5)).collect();
            matchings.push(Matching::from_pairs(n, &keep).unwrap());
        }
        let mut cache = ThetaCache::new(&case.topo, ThroughputSolver::ForcedPath);
        for m in &matchings {
            let want = bits(forced_path_throughput(&case.topo, m));
            let miss = cache.get(&case.topo, m).map(|s| (s.theta, s.max_hops));
            prop_assert_eq!(bits(miss), want.clone());
            let warm = ThetaCache::warm(
                &aps_par::Pool::serial(),
                &case.topo,
                ThroughputSolver::ForcedPath,
                [m],
            )
            .and_then(|mut w| w.get(&case.topo, m))
            .map(|s| (s.theta, s.max_hops));
            prop_assert_eq!(bits(warm), want);
        }
    }

    #[test]
    fn a_refilled_matching_is_priced_as_its_new_pairs(
        n in 3usize..130,
        seed in any::<u64>(),
        hit_first in any::<bool>(),
    ) {
        // A matching hashed as one set of pairs, then refilled with another,
        // must be looked up by the new pairs: a miss priced like the direct
        // solver, keyed so that a fresh copy of the new pairs then hits.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut random_pairs = || {
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            (0..n).filter(|&v| perm[v] != v).map(|v| (v, perm[v])).collect::<Vec<_>>()
        };
        let (old, new) = (random_pairs(), random_pairs());
        if old == new {
            return;
        }
        let t = builders::ring_unidirectional(n).unwrap();
        let solver = ThroughputSolver::ForcedPath;
        let mut cache = ThetaCache::new(&t, solver);
        let mut m = Matching::from_pairs(n, &old).unwrap();
        if hit_first {
            // The cache keys a copy of its own, so `m` keeps its buffer
            // unshared and the refill below writes into it.
            cache.get(&t, &Matching::from_pairs(n, &old).unwrap()).unwrap();
        }
        cache.get(&t, &m).unwrap();
        m.refill_from_pairs(n, &new, &mut Vec::new()).unwrap();
        let before = cache.stats();
        let fresh = Matching::from_pairs(n, &new).unwrap();
        let second = cache.get(&t, &m).unwrap();
        prop_assert_eq!(second, step_throughput(&t, &fresh, solver).unwrap());
        prop_assert_eq!(cache.stats().misses, before.misses + 1);
        prop_assert_eq!(cache.get(&t, &fresh).unwrap(), second);
        prop_assert_eq!(cache.stats().hits, before.hits + 1);
    }
}
