//! Closed-form concurrent-flow results for ring topologies.
//!
//! Rings are the paper's base topology of choice ("a common choice for
//! scale-up photonic interconnects", §3.4). For uniform-shift patterns the
//! maximum concurrent flow has exact closed forms, which serve as oracles
//! for testing the general solvers.

use aps_matrix::Matching;

/// Exact `θ` for the shift-by-`k` pattern on a unidirectional ring with
/// per-link capacity `cap`: every flow travels `k` forced hops, every link
/// carries `k` flows, so `θ = cap / k`.
///
/// # Panics
///
/// Panics unless `1 ≤ k < n`.
pub fn uni_ring_shift_theta(n: usize, k: usize, cap: f64) -> f64 {
    assert!(k >= 1 && k < n, "shift must satisfy 1 <= k < n");
    cap / k as f64
}

/// Exact splittable `θ` for the shift-by-`k` pattern on a bidirectional ring
/// with per-direction capacity `cap` (0.5 under the transceiver convention).
///
/// Routing a fraction `f` of every pair forward loads each forward link with
/// `k·f` and each backward link with `(n-k)·(1-f)`; equalizing gives
/// `f* = (n-k)/n` and
///
/// ```text
/// θ* = cap · n / (k · (n − k))
/// ```
///
/// # Panics
///
/// Panics unless `1 ≤ k < n`.
pub fn bi_ring_shift_theta(n: usize, k: usize, cap: f64) -> f64 {
    assert!(k >= 1 && k < n, "shift must satisfy 1 <= k < n");
    cap * n as f64 / (k as f64 * (n - k) as f64)
}

/// A sound *upper bound* on the splittable `θ` of an arbitrary matching on a
/// bidirectional ring, from the cut condition: removing the ring positions
/// `a` and `b` (a "position" is the gap between node `p-1` and node `p`)
/// disconnects the two arcs, and all demand between them must cross the
/// `2 × 2` directed links at those positions (total capacity `4·cap`).
///
/// `θ ≤ min over positions (a, b) of 4·cap / demand-separated(a, b)`.
pub fn bi_ring_cut_upper_bound(n: usize, matching: &Matching, cap: f64) -> f64 {
    assert_eq!(matching.n(), n, "matching dimension mismatch");
    let pairs: Vec<(usize, usize)> = matching.pairs().collect();
    if pairs.is_empty() {
        return f64::INFINITY;
    }
    let mut best = f64::INFINITY;
    for a in 0..n {
        for b in (a + 1)..n {
            // Arc S = nodes [a, b); arc T = the rest.
            let in_s = |v: usize| v >= a && v < b;
            let crossing = pairs.iter().filter(|&&(s, d)| in_s(s) != in_s(d)).count();
            if crossing > 0 {
                best = best.min(4.0 * cap / crossing as f64);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_flow::forced::{forced_path_throughput, reference};
    use aps_flow::gk::{matching_commodities, max_concurrent_flow};
    use aps_topology::builders;

    /// The circuit path of `forced_path_throughput` and the BFS oracle agree
    /// bit for bit on `θ` and exactly on `ℓ`; returns that agreed pair.
    fn both_paths(t: &aps_topology::Topology, m: &Matching) -> (f64, usize) {
        let (theta, ell) = forced_path_throughput(t, m).unwrap();
        let (oracle, oracle_ell) = reference(t, m).unwrap();
        assert_eq!(theta.to_bits(), oracle.to_bits());
        assert_eq!(ell, oracle_ell);
        (theta, ell)
    }

    #[test]
    fn closed_form_matches_forced_routing_on_uni_ring() {
        let n = 12;
        let t = builders::ring_unidirectional(n).unwrap();
        for k in 1..n {
            let m = Matching::shift(n, k).unwrap();
            let (theta, ell) = both_paths(&t, &m);
            assert!((theta - uni_ring_shift_theta(n, k, 1.0)).abs() < 1e-12);
            assert_eq!(ell, k);
        }
    }

    #[test]
    fn xor_patterns_match_forced_routing() {
        let n = 16;
        let t = builders::ring_unidirectional(n).unwrap();
        for bit in 0..4 {
            let m = Matching::xor(n, 1 << bit).unwrap();
            let (_, ell) = both_paths(&t, &m);
            assert_eq!(ell, n - (1 << bit), "bit={bit}");
        }
    }

    #[test]
    fn partial_matchings_match_forced_routing() {
        let n = 9;
        let t = builders::ring_unidirectional(n).unwrap();
        let m = Matching::from_pairs(n, &[(0, 4), (4, 0), (2, 3)]).unwrap();
        let (theta, ell) = both_paths(&t, &m);
        assert_eq!(theta, 0.5); // link 2 → 3 carries two flows.
        assert_eq!(ell, 5); // 4 → 0 wraps 5 hops.
    }

    #[test]
    fn bi_ring_closed_form_agrees_with_fptas() {
        let n = 10;
        let t = builders::ring_bidirectional(n).unwrap();
        for k in [1, 2, 4, 7, 9] {
            let m = Matching::shift(n, k).unwrap();
            let exact = bi_ring_shift_theta(n, k, 0.5);
            let r = max_concurrent_flow(&t, &matching_commodities(&m), 0.08).unwrap();
            assert!(r.lower_bound <= exact * (1.0 + 1e-9), "k={k}");
            assert!(r.upper_bound >= exact * (1.0 - 1e-9), "k={k}");
            assert!(r.lower_bound >= exact * (1.0 - 3.0 * 0.08), "k={k}");
        }
    }

    #[test]
    fn cut_bound_dominates_exact_shift_theta() {
        let n = 12;
        for k in 1..n {
            let m = Matching::shift(n, k).unwrap();
            let cut = bi_ring_cut_upper_bound(n, &m, 0.5);
            let exact = bi_ring_shift_theta(n, k, 0.5);
            assert!(
                cut >= exact - 1e-12,
                "cut bound {cut} below exact {exact} at k={k}"
            );
        }
    }

    #[test]
    fn cut_bound_is_tight_for_bisection_heavy_patterns() {
        // xor(n/2): every pair crosses the bisection, demand across any
        // balanced cut = n, so θ ≤ 4·cap/n; the exact value for this
        // pattern is 2·cap·... — at least the bound must be finite & small.
        let n = 8;
        let m = Matching::xor(n, 4).unwrap();
        let cut = bi_ring_cut_upper_bound(n, &m, 0.5);
        assert!(cut <= 4.0 * 0.5 / 4.0 + 1e-12); // ≥ 4 pairs cross any middle cut
    }

    #[test]
    fn empty_matching_conventions() {
        let m = Matching::empty(6);
        let t = builders::ring_unidirectional(6).unwrap();
        assert_eq!(forced_path_throughput(&t, &m), Ok((1.0, 0)));
        assert_eq!(bi_ring_cut_upper_bound(6, &m, 0.5), f64::INFINITY);
    }
}
