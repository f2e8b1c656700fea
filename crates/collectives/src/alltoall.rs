//! All-to-All (personalized exchange / transpose) algorithms.
//!
//! `message_bytes` is each node's total send buffer `m`; every ordered pair
//! exchanges an `m/n`-byte block (the diagonal block stays local). Three
//! algorithms:
//!
//! * [`linear_shift`] — `n−1` steps; step `k` is the shift-by-`k`
//!   permutation delivering every block directly. This is the paper's
//!   All-to-All "transpose" workload (§3.4).
//! * [`xor_exchange`] — `n−1` steps of pairwise XOR exchanges (power-of-two
//!   `n`), the classic pairwise variant.
//! * [`bruck`] — `⌈log₂ n⌉` steps of shift-by-`2^t` permutations with
//!   store-and-forward relaying: fewer, fatter steps (`~m/2` per step);
//!   latency-optimal for small messages.

use crate::builder::{ceil_log2, check_message_bytes, exact_log2, shift, xor, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use std::iter::once;

/// Chunk id of the block node `s` owes node `d`.
fn chunk(n: usize, s: usize, d: usize) -> usize {
    s * n + d
}

/// Declares an All-to-All over `n` nodes: node `i` holds the blocks it owes
/// every other node.
fn header_and_blocks(n: usize, algorithm: &'static str, message_bytes: f64, out: &mut impl Sink) {
    out.header(Header {
        kind: CollectiveKind::AllToAll,
        algorithm,
        semantics: Semantics::AllToAll,
        num_chunks: n * n,
        chunk_bytes: message_bytes / n as f64,
    });
    for i in 0..n {
        out.hold(i, (0..n).filter(|&d| d != i).map(|d| chunk(n, i, d)));
    }
}

/// Linear-shift All-to-All: at step `k ∈ 1..n`, node `i` sends block
/// `(i, i+k)` directly to node `(i+k) mod n`.
///
/// # Errors
///
/// Rejects `n < 2` and bad message sizes.
pub fn linear_shift(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::LinearShift, n, message_bytes)
}

pub(crate) fn describe_linear_shift(n: usize, message_bytes: f64, out: &mut impl Sink) {
    header_and_blocks(n, "linear-shift", message_bytes, out);
    for k in 1..n {
        let block = |i: usize| once(chunk(n, i, (i + k) % n));
        out.permute(&shift(n, k), 1, block, Combine::Replace);
    }
}

/// Pairwise XOR All-to-All: at step `k ∈ 1..n`, node `i` exchanges with
/// `i ⊕ k`. Requires power-of-two `n`.
///
/// # Errors
///
/// Rejects `n < 2`, non-power-of-two `n`, and bad message sizes.
pub fn xor_exchange(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    exact_log2(n)?;
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::XorExchange, n, message_bytes)
}

pub(crate) fn describe_xor_exchange(n: usize, message_bytes: f64, out: &mut impl Sink) {
    header_and_blocks(n, "xor-exchange", message_bytes, out);
    for k in 1..n {
        let block = |i: usize| once(chunk(n, i, i ^ k));
        out.permute(&xor(n, k), 1, block, Combine::Replace);
    }
}

/// Bruck All-to-All: `⌈log₂ n⌉` shift-by-`2^t` steps. A block with remaining
/// ring distance `r` hops forward by `2^t` exactly when bit `t` of `r` is
/// set, relaying through intermediate nodes. Works for any `n ≥ 2`.
///
/// # Errors
///
/// Rejects `n < 2` and bad message sizes.
pub fn bruck(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::Bruck, n, message_bytes)
}

pub(crate) fn describe_bruck(n: usize, message_bytes: f64, out: &mut impl Sink) {
    header_and_blocks(n, "bruck", message_bytes, out);
    for t in 0..ceil_log2(n) {
        // `hop < n`, since t < ⌈log₂ n⌉.
        let hop = 1usize << t;
        // Every node moves the blocks whose remaining distance r has bit t
        // set: the same number at every node, and at least r = hop.
        let moving = (1..n).filter(|r| r & hop != 0).count();
        let blocks = |v: usize| {
            // The block (s, d) with r = (d - s) mod n sits at
            // s + (r mod 2^t) after the earlier rounds, i.e.
            // v = s + (r & (hop - 1)).
            let mut ids: Vec<usize> = (1..n)
                .filter(|r| r & hop != 0)
                .map(|r| {
                    let s = (v + n - (r & (hop - 1))) % n;
                    chunk(n, s, (s + r) % n)
                })
                .collect();
            ids.sort_unstable();
            ids.into_iter()
        };
        out.permute(&shift(n, hop), moving, blocks, Combine::Replace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_matrix::DemandMatrix;

    #[test]
    fn linear_shift_verifies() {
        for n in [2, 3, 4, 7, 8, 16] {
            linear_shift(n, 100.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn xor_exchange_verifies() {
        for n in [2, 4, 8, 16, 32] {
            xor_exchange(n, 100.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
        assert!(matches!(
            xor_exchange(6, 1.0),
            Err(CollectiveError::NotPowerOfTwo(6))
        ));
    }

    #[test]
    fn bruck_verifies_for_any_n() {
        for n in [2, 3, 5, 8, 13, 16, 31] {
            bruck(n, 100.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn direct_algorithms_aggregate_to_uniform_demand() {
        let n = 8;
        let m = 800.0;
        for c in [linear_shift(n, m).unwrap(), xor_exchange(n, m).unwrap()] {
            let d = c.schedule.aggregate_demand().unwrap();
            assert!(
                d.approx_eq(&DemandMatrix::uniform_all_to_all(n, m / n as f64), 1e-9),
                "{}",
                c.schedule.algorithm()
            );
            assert_eq!(c.schedule.num_steps(), n - 1);
        }
    }

    #[test]
    fn bruck_moves_half_buffer_per_step_pow2() {
        let n = 16;
        let m = 1600.0;
        let c = bruck(n, m).unwrap();
        assert_eq!(c.schedule.num_steps(), 4);
        for s in c.schedule.steps() {
            assert!((s.bytes_per_pair - m / 2.0).abs() < 1e-9);
        }
        // Total traffic per node is (n/2)·log2(n) blocks — more bytes than
        // direct delivery (the latency-for-bandwidth trade).
        let direct = linear_shift(n, m).unwrap();
        assert!(c.schedule.total_bytes_per_node() > direct.schedule.total_bytes_per_node());
    }

    #[test]
    fn bruck_relays_through_intermediates() {
        // Block (0 → 3) on n=4: distance 3 = 0b11, so it hops at rounds 0
        // and 1, relaying through node 1 — visible as the chunk appearing in
        // two different steps' transfers.
        let c = bruck(4, 4.0).unwrap();
        let ch = chunk(4, 0, 3);
        let hops: Vec<(usize, usize)> = c
            .dataflow()
            .steps
            .iter()
            .flat_map(|s| s.transfers.iter())
            .filter(|t| t.chunks.contains(&ch))
            .map(|t| (t.src, t.dst))
            .collect();
        assert_eq!(hops, vec![(0, 1), (1, 3)]);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(linear_shift(1, 1.0).is_err());
        assert!(bruck(4, -2.0).is_err());
    }
}
