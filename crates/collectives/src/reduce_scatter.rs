//! ReduceScatter algorithms: node `i` ends with the fully-reduced slot `i`.
//!
//! `message_bytes` is the input vector size `m`; each of the `n` slots is
//! `m/n` bytes.

use crate::builder::{check_message_bytes, exact_log2, shift, xor, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use aps_matrix::Matching;
use std::iter::once;

/// Declares a ReduceScatter over `n` nodes: every node holds every slot.
fn header_and_slots(n: usize, algorithm: &'static str, message_bytes: f64, out: &mut impl Sink) {
    out.header(Header {
        kind: CollectiveKind::ReduceScatter,
        algorithm,
        semantics: Semantics::ReduceScatter,
        num_chunks: n,
        chunk_bytes: message_bytes / n as f64,
    });
    for i in 0..n {
        out.hold(i, 0..n);
    }
}

/// Ring ReduceScatter: `n−1` shift-by-1 steps; slot `c` travels the ring
/// accumulating contributions and completes at its owner `c`.
///
/// # Errors
///
/// Rejects `n < 2` and bad message sizes.
pub fn ring(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::RingReduceScatter, n, message_bytes)
}

pub(crate) fn describe_ring(n: usize, message_bytes: f64, out: &mut impl Sink) {
    header_and_slots(n, "ring", message_bytes, out);
    ring_steps(&shift(n, 1), out);
}

/// The `n − 1` ring reduce-scatter steps on `ring`, the shift by 1 over `n`
/// nodes; also the first phase of ring AllReduce. At step `t` node `i`
/// forwards slot `(i − t − 1) mod n`.
pub(crate) fn ring_steps(ring: &Matching, out: &mut impl Sink) {
    let n = ring.n();
    for t in 0..n - 1 {
        out.permute(ring, 1, |i| once((i + 2 * n - t - 1) % n), Combine::Reduce);
    }
}

/// Recursive-halving ReduceScatter (the first phase of Rabenseifner
/// AllReduce): `log₂ n` steps with partners at XOR distance `n/2, …, 1` and
/// volumes `m/2, …, m/n`.
///
/// # Errors
///
/// Rejects `n < 2`, non-power-of-two `n`, and bad message sizes.
pub fn recursive_halving(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    exact_log2(n)?;
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::RecursiveHalving, n, message_bytes)
}

pub(crate) fn describe_recursive_halving(n: usize, message_bytes: f64, out: &mut impl Sink) {
    header_and_slots(n, "recursive-halving", message_bytes, out);
    let log = n.trailing_zeros() as usize;
    for t in 0..log {
        let width = log - t - 1;
        let mask = 1usize << width;
        let count = n >> (t + 1);
        let block = |i: usize| {
            let lo = ((i ^ mask) >> width) << width;
            lo..lo + count
        };
        out.permute(&xor(n, mask), count, block, Combine::Reduce);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_verifies() {
        for n in [2, 3, 5, 8, 16] {
            ring(n, 100.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn recursive_halving_verifies() {
        for n in [2, 4, 8, 16, 64] {
            recursive_halving(n, 64.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
        assert!(recursive_halving(12, 1.0).is_err());
    }

    #[test]
    fn optimal_bytes_per_node() {
        let n = 8;
        let m = 800.0;
        let opt = m * (n as f64 - 1.0) / n as f64;
        assert!((ring(n, m).unwrap().schedule.total_bytes_per_node() - opt).abs() < 1e-9);
        assert!(
            (recursive_halving(n, m)
                .unwrap()
                .schedule
                .total_bytes_per_node()
                - opt)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn halving_volumes() {
        let c = recursive_halving(8, 80.0).unwrap();
        let vols: Vec<f64> = c
            .schedule
            .steps()
            .iter()
            .map(|s| s.bytes_per_pair)
            .collect();
        assert_eq!(vols, vec![40.0, 20.0, 10.0]);
    }
}
