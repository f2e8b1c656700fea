//! AllGather algorithms.
//!
//! `message_bytes` is the size of the *gathered result* `m`; each node
//! contributes an `m/n`-byte chunk (chunk `i` originates at node `i`).

use crate::builder::{check_message_bytes, exact_log2, shift, xor, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use aps_matrix::Matching;
use std::iter::once;

/// Declares an AllGather over `n` nodes: node `i` holds chunk `i`.
fn header_and_inputs(n: usize, algorithm: &'static str, message_bytes: f64, out: &mut impl Sink) {
    out.header(Header {
        kind: CollectiveKind::AllGather,
        algorithm,
        semantics: Semantics::AllGather,
        num_chunks: n,
        chunk_bytes: message_bytes / n as f64,
    });
    for i in 0..n {
        out.hold(i, once(i));
    }
}

/// Ring AllGather: `n−1` shift-by-1 steps; at step `t` node `i` forwards
/// chunk `(i − t) mod n` (the chunk it received in the previous step).
///
/// # Errors
///
/// Rejects `n < 2` and bad message sizes.
pub fn ring(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::RingAllGather, n, message_bytes)
}

pub(crate) fn describe_ring(n: usize, message_bytes: f64, out: &mut impl Sink) {
    header_and_inputs(n, "ring", message_bytes, out);
    ring_steps(&shift(n, 1), out);
}

/// The `n − 1` ring-allgather steps on `ring`, the shift by 1 over `n`
/// nodes; also the second phase of ring AllReduce and of the
/// scatter-allgather broadcast.
pub(crate) fn ring_steps(ring: &Matching, out: &mut impl Sink) {
    let n = ring.n();
    for t in 0..n - 1 {
        out.permute(ring, 1, |i| once((i + n - t % n) % n), Combine::Replace);
    }
}

/// Recursive-doubling AllGather: `log₂ n` steps; at step `t` node `i` sends
/// its complete current block (`2^t` chunks) to partner `i ⊕ 2^t`.
///
/// # Errors
///
/// Rejects `n < 2`, non-power-of-two `n`, and bad message sizes.
pub fn recursive_doubling(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    exact_log2(n)?;
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::RecursiveDoublingAllGather, n, message_bytes)
}

pub(crate) fn describe_recursive_doubling(n: usize, message_bytes: f64, out: &mut impl Sink) {
    header_and_inputs(n, "recursive-doubling", message_bytes, out);
    for t in 0..n.trailing_zeros() {
        let count = 1usize << t;
        let block = |i: usize| {
            let lo = (i >> t) << t;
            lo..lo + count
        };
        out.permute(&xor(n, count), count, block, Combine::Replace);
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
    fn recursive_doubling_verifies() {
        for n in [2, 4, 8, 16, 64] {
            recursive_doubling(n, 100.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
        assert!(recursive_doubling(6, 1.0).is_err());
    }

    #[test]
    fn both_move_optimal_bytes() {
        let n = 8;
        let m = 800.0;
        let opt = m * (n as f64 - 1.0) / n as f64;
        let r = ring(n, m).unwrap();
        assert!((r.schedule.total_bytes_per_node() - opt).abs() < 1e-9);
        assert_eq!(r.schedule.num_steps(), n - 1);
        let rd = recursive_doubling(n, m).unwrap();
        assert!((rd.schedule.total_bytes_per_node() - opt).abs() < 1e-9);
        assert_eq!(rd.schedule.num_steps(), 3);
    }

    #[test]
    fn recursive_doubling_volumes_double() {
        let c = recursive_doubling(8, 80.0).unwrap();
        let vols: Vec<f64> = c
            .schedule
            .steps()
            .iter()
            .map(|s| s.bytes_per_pair)
            .collect();
        assert_eq!(vols, vec![10.0, 20.0, 40.0]);
    }
}
