//! Swing AllReduce (De Sensi et al., NSDI 2024).
//!
//! Same reduce-scatter + allgather skeleton and volumes as halving-doubling,
//! but partners follow the Swing distance sequence
//! `ρ(t) = (1 − (−2)^{t+1}) / 3 = 1, −1, 3, −5, 11, −21, …` with even and
//! odd nodes moving in opposite directions:
//! `peer_t(i) = i + (−1)^i · ρ(t) (mod n)`.
//! On ring-shaped fabrics these small alternating distances keep traffic
//! local — the reason the paper evaluates Swing alongside halving-doubling
//! (§3.4).
//!
//! Slot ownership is derived from the *gather tree*: `R_t(i)` is the set of
//! nodes reachable from `i` using partners of steps `t, …, log−1`; node `i`
//! sends slots `R_{t+1}(peer_t(i))` at reduce-scatter step `t` and ends up
//! owning slot `i`. The schedule needs only `|R_t(i)| = n/2^t`, which holds
//! because the Swing peer sequence induces a valid recursive halving — the
//! property proved in the Swing paper. [`Collective::check`] lists every
//! `R_t(i)` and refuses the collective if a set has another size or the
//! final state misses a contribution.

use crate::builder::{check_message_bytes, exact_log2, Algo, Counted, Header, Sink};
use crate::collective::{check_ports, Collective};
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;

/// The Swing distance `ρ(t) = (1 − (−2)^{t+1}) / 3`.
fn rho(t: u32) -> i64 {
    (1 - (-2i64).pow(t + 1)) / 3
}

/// Swing partner of node `i` at step `t` among `n` nodes.
fn peer(n: usize, t: u32, i: usize) -> usize {
    let sign = if i.is_multiple_of(2) { 1 } else { -1 };
    (i as i64 + sign * rho(t)).rem_euclid(n as i64) as usize
}

/// `R_t(i)`, sorted: the slots node `i` is responsible for before step `t`
/// — every node reached from `i` by deciding, at each step `t, …, log−1`
/// in turn, whether to move to the current node's partner. A valid
/// recursive halving makes these `n/2^t` distinct slots.
fn responsibility(n: usize, log: usize, t: usize, i: usize) -> Vec<usize> {
    let mut set = vec![i];
    for s in t..log {
        for j in 0..set.len() {
            set.push(peer(n, s as u32, set[j]));
        }
    }
    set.sort_unstable();
    set.dedup();
    set
}

/// Builds Swing AllReduce over `n` nodes (`n` a power of two, `n ≥ 2`) for
/// an `m`-byte vector. Node `i` ends as the reduction owner of slot `i`.
///
/// # Errors
///
/// Rejects `n < 2`, non-power-of-two `n`, bad message sizes; fails with
/// [`CollectiveError::ConstructionInvariant`] if the partners of a step do
/// not pair the nodes up (never happens for power-of-two `n`).
pub fn build(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    let log = exact_log2(n)?;
    check_message_bytes(message_bytes)?;
    // Before the O(n log n) peer check: past the port limit no schedule can
    // be built, whatever the peers.
    check_ports(n)?;

    // Verify the peer relation is a valid pairwise exchange at every step.
    for t in 0..log as u32 {
        for i in 0..n {
            let p = peer(n, t, i);
            if p == i || peer(n, t, p) != i {
                return Err(CollectiveError::ConstructionInvariant(
                    "swing peers must form a perfect pairwise matching",
                ));
            }
        }
    }
    Collective::build(Algo::SwingAllReduce, n, message_bytes)
}

/// The sends read each responsibility set's size, `n/2^t`, without listing
/// it; [`Collective::check`] lists every set and refuses one of another
/// size, which is how it catches a peer sequence that is not a valid
/// recursive halving.
pub(crate) fn describe(n: usize, message_bytes: f64, out: &mut impl Sink) {
    let log = n.trailing_zeros() as usize;
    out.header(Header {
        kind: CollectiveKind::AllReduce,
        algorithm: "swing",
        semantics: Semantics::AllReduce,
        num_chunks: n,
        chunk_bytes: message_bytes / n as f64,
    });
    for i in 0..n {
        out.hold(i, 0..n);
    }
    let block = |t: usize, i: usize| Counted(n >> t, move || responsibility(n, log, t, i));
    // Reduce-scatter: node i sends the partner's responsibility set.
    for t in 0..log {
        out.step();
        for i in 0..n {
            let p = peer(n, t as u32, i);
            out.send(i, p, block(t + 1, p), Combine::Reduce);
        }
    }
    // Allgather: retrace the pairings in reverse, sending completed blocks.
    for u in 0..log {
        let t = log - 1 - u;
        out.step();
        for i in 0..n {
            let p = peer(n, t as u32, i);
            out.send(i, p, block(t + 1, i), Combine::Replace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_sequence() {
        let seq: Vec<i64> = (0..6).map(rho).collect();
        assert_eq!(seq, vec![1, -1, 3, -5, 11, -21]);
    }

    #[test]
    fn peers_are_mutual_and_odd_distance() {
        let n = 32;
        for t in 0..5u32 {
            for i in 0..n {
                let p = peer(n, t, i);
                assert_ne!(p, i);
                assert_eq!(peer(n, t, p), i, "t={t} i={i}");
            }
        }
    }

    #[test]
    fn responsibility_sets_halve() {
        for n in [2usize, 8, 64] {
            let log = n.trailing_zeros() as usize;
            for t in 0..=log {
                for i in 0..n {
                    let r = responsibility(n, log, t, i);
                    assert_eq!(r.len(), n >> t, "n={n} t={t} i={i}");
                    assert!(r.contains(&i));
                }
            }
        }
        assert_eq!(responsibility(8, 3, 1, 0), vec![0, 3, 4, 7]);
    }

    #[test]
    fn verifies_for_powers_of_two() {
        for n in [2, 4, 8, 16, 32, 64, 128] {
            build(n, 128.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn volumes_match_halving_doubling() {
        let n = 16;
        let m = 1600.0;
        let swing = build(n, m).unwrap();
        let hd = super::super::halving_doubling::build(n, m).unwrap();
        let sv: Vec<f64> = swing
            .schedule
            .steps()
            .iter()
            .map(|s| s.bytes_per_pair)
            .collect();
        let hv: Vec<f64> = hd
            .schedule
            .steps()
            .iter()
            .map(|s| s.bytes_per_pair)
            .collect();
        for (a, b) in sv.iter().zip(&hv) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(
            (swing.schedule.total_bytes_per_node() - 2.0 * m * (n as f64 - 1.0) / n as f64).abs()
                < 1e-9
        );
    }

    #[test]
    fn ring_distances_stay_small() {
        // The defining property: max |distance| over the first steps follows
        // 1, 1, 3, 5, 11, 21 — much smaller than halving-doubling's n/2.
        let n = 64;
        let c = build(n, 64.0).unwrap();
        let dists: Vec<usize> = c
            .schedule
            .steps()
            .iter()
            .take(6)
            .map(|s| {
                s.matching
                    .pairs()
                    .map(|(a, b)| {
                        let fwd = (b + n - a) % n;
                        fwd.min(n - fwd)
                    })
                    .max()
                    .unwrap()
            })
            .collect();
        assert_eq!(dists, vec![1, 1, 3, 5, 11, 21]);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            build(10, 1.0),
            Err(CollectiveError::NotPowerOfTwo(10))
        ));
    }
}
