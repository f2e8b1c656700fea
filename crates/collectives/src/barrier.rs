//! Dissemination barrier.
//!
//! `⌈log₂ n⌉` rounds; in round `t` node `i` signals node `(i + 2^t) mod n`,
//! forwarding every arrival token it has heard of so far. After the last
//! round every node has (transitively) heard from every node — the barrier
//! condition. Payloads are single flag bytes; the interesting cost is pure
//! latency, which makes barriers the extreme point of the paper's
//! small-message regime (reconfiguration never pays off).

use crate::builder::{ceil_log2, shift, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use std::iter::once;

/// Bytes of the per-node arrival token.
pub const TOKEN_BYTES: f64 = 1.0;

/// Builds a dissemination barrier over `n ≥ 2` nodes (any `n`).
///
/// # Errors
///
/// Rejects `n < 2`.
pub fn dissemination(n: usize) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    Collective::build(Algo::Dissemination, n, TOKEN_BYTES)
}

pub(crate) fn describe(n: usize, out: &mut impl Sink) {
    out.header(Header {
        kind: CollectiveKind::Barrier,
        algorithm: "dissemination",
        semantics: Semantics::Barrier,
        num_chunks: n,
        chunk_bytes: TOKEN_BYTES,
    });
    for i in 0..n {
        out.hold(i, once(i));
    }
    for t in 0..ceil_log2(n) {
        let hop = 1usize << t;
        // Tokens known to node i before round t: the window
        // {i, i-1, …, i-(2^t - 1)} (mod n).
        let window = (1usize << t).min(n);
        let known = |i: usize| (0..window).map(move |x| (i + n - x % n) % n);
        out.permute(&shift(n, hop), window, known, Combine::Reduce);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_for_any_n() {
        for n in [2, 3, 4, 5, 7, 8, 9, 16, 33] {
            dissemination(n)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn round_count_is_ceil_log() {
        assert_eq!(dissemination(8).unwrap().schedule.num_steps(), 3);
        assert_eq!(dissemination(9).unwrap().schedule.num_steps(), 4);
        assert_eq!(dissemination(2).unwrap().schedule.num_steps(), 1);
    }

    #[test]
    fn every_round_is_a_full_shift() {
        let c = dissemination(8).unwrap();
        for (t, s) in c.schedule.steps().iter().enumerate() {
            assert!(s.matching.is_full());
            assert_eq!(s.matching.dst_of(0), Some(1 << t));
        }
    }

    #[test]
    fn payload_stays_tiny() {
        let c = dissemination(16).unwrap();
        // Final round forwards at most n tokens of 1 byte.
        assert!(c.schedule.total_bytes_per_node() <= 16.0);
    }

    #[test]
    fn rejects_trivial_n() {
        assert!(dissemination(1).is_err());
    }
}
