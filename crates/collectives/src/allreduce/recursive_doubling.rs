//! Full-vector recursive doubling AllReduce.
//!
//! `log₂ n` steps; at step `t` node `i` exchanges the *entire* `m`-byte
//! vector with partner `i ⊕ 2^t` and reduces. Latency-optimal (fewest steps)
//! but moves `m·log₂ n` bytes per node — the classic small-message choice in
//! the α–β model, and a pattern whose large XOR distances make the static
//! ring suffer (which is exactly what makes it interesting for
//! reconfiguration).

use crate::builder::{check_message_bytes, exact_log2, xor, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use std::iter::once;

/// Builds recursive-doubling AllReduce over `n` nodes (`n` a power of two,
/// `n ≥ 2`) for an `m`-byte vector.
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
    Collective::build(Algo::RecursiveDoublingAllReduce, n, message_bytes)
}

pub(crate) fn describe(n: usize, message_bytes: f64, out: &mut impl Sink) {
    out.header(Header {
        kind: CollectiveKind::AllReduce,
        algorithm: "recursive-doubling",
        semantics: Semantics::AllReduce,
        num_chunks: 1,
        chunk_bytes: message_bytes,
    });
    for i in 0..n {
        out.hold(i, once(0));
    }
    for t in 0..n.trailing_zeros() {
        out.permute(&xor(n, 1 << t), 1, |_| once(0), Combine::Reduce);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_for_powers_of_two() {
        for n in [2, 4, 8, 16, 32, 64] {
            build(n, 8.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn structure() {
        let c = build(8, 100.0).unwrap();
        assert_eq!(c.schedule.num_steps(), 3);
        for (t, s) in c.schedule.steps().iter().enumerate() {
            assert_eq!(s.bytes_per_pair, 100.0);
            assert!(s.matching.is_pairwise_exchange());
            assert_eq!(s.matching.dst_of(0), Some(1 << t));
        }
        assert_eq!(c.schedule.total_bytes_per_node(), 300.0);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            build(6, 1.0),
            Err(CollectiveError::NotPowerOfTwo(6))
        ));
        assert!(matches!(
            build(1, 1.0),
            Err(CollectiveError::TooFewNodes { .. })
        ));
    }
}
