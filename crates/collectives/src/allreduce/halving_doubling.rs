//! Rabenseifner recursive halving-doubling AllReduce.
//!
//! Reduce-scatter with recursive vector halving (partners at XOR distance
//! `n/2, n/4, …, 1`, volumes `m/2, m/4, …, m/n`), then allgather with
//! recursive doubling (distances `1, 2, …, n/2`, volumes `m/n, …, m/2`).
//! Bandwidth-optimal (`2m(n−1)/n` bytes per node) in `2·log₂ n` steps — the
//! "recursive doubling" AllReduce of the paper's evaluation (§3.4 calls it
//! bandwidth-optimal, which singles out this variant of reference 30).

use crate::builder::{check_message_bytes, exact_log2, xor, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use std::ops::Range;

/// Slot block of node `i` after `t` reduce-scatter steps: the `n/2^t` slots
/// whose index shares `i`'s top `t` bits.
fn block(n: usize, log: usize, i: usize, t: usize) -> Range<usize> {
    let width = log - t;
    let lo = (i >> width) << width;
    lo..lo + (n >> t)
}

/// Builds halving-doubling AllReduce over `n` nodes (`n` a power of two,
/// `n ≥ 2`) for an `m`-byte vector. Node `i` is the reduction owner of slot
/// `i`.
///
/// # Errors
///
/// Rejects `n < 2`, non-power-of-two `n`, and bad message sizes.
pub fn build(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    exact_log2(n)?;
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::HalvingDoublingAllReduce, n, message_bytes)
}

pub(crate) fn describe(n: usize, message_bytes: f64, out: &mut impl Sink) {
    let log = n.trailing_zeros() as usize;
    out.header(Header {
        kind: CollectiveKind::AllReduce,
        algorithm: "halving-doubling",
        semantics: Semantics::AllReduce,
        num_chunks: n,
        chunk_bytes: message_bytes / n as f64,
    });
    for i in 0..n {
        out.hold(i, 0..n);
    }
    // Both phases run on the same exchanges: `exchanges[b]` pairs the
    // nodes across bit b.
    let exchanges: Vec<_> = (0..log).map(|b| xor(n, 1 << b)).collect();
    // Reduce-scatter: start with the farthest partner, halve the working
    // block each step. At step t node i sends the half belonging to its
    // partner's side.
    for (t, exchange) in exchanges.iter().rev().enumerate() {
        let mask = 1usize << (log - 1 - t);
        let half = |i: usize| block(n, log, i ^ mask, t + 1);
        out.permute(exchange, n >> (t + 1), half, Combine::Reduce);
    }
    // Allgather: nearest partner first, double the completed block.
    for (u, exchange) in exchanges.iter().enumerate() {
        let done = |i: usize| block(n, log, i, log - u);
        out.permute(exchange, 1 << u, done, Combine::Replace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_for_powers_of_two() {
        for n in [2, 4, 8, 16, 32, 64] {
            build(n, 64.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn volumes_halve_then_double() {
        let n = 16;
        let m = 1600.0;
        let c = build(n, m).unwrap();
        let vols: Vec<f64> = c
            .schedule
            .steps()
            .iter()
            .map(|s| s.bytes_per_pair)
            .collect();
        let expect = [
            m / 2.0,
            m / 4.0,
            m / 8.0,
            m / 16.0, // reduce-scatter
            m / 16.0,
            m / 8.0,
            m / 4.0,
            m / 2.0, // allgather
        ];
        for (v, e) in vols.iter().zip(expect) {
            assert!((v - e).abs() < 1e-9, "{vols:?}");
        }
        let opt = 2.0 * m * (n as f64 - 1.0) / n as f64;
        assert!((c.schedule.total_bytes_per_node() - opt).abs() < 1e-9);
    }

    #[test]
    fn distances_shrink_then_grow() {
        let c = build(16, 16.0).unwrap();
        let dist0: Vec<usize> = c
            .schedule
            .steps()
            .iter()
            .map(|s| s.matching.dst_of(0).unwrap())
            .collect();
        assert_eq!(dist0, vec![8, 4, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn block_helper() {
        assert_eq!(block(8, 3, 5, 1), 4..8);
        assert_eq!(block(8, 3, 5, 2), 4..6);
        assert_eq!(block(8, 3, 5, 3), 5..6);
        assert_eq!(block(8, 3, 5, 0), 0..8);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            build(12, 1.0),
            Err(CollectiveError::NotPowerOfTwo(12))
        ));
    }
}
