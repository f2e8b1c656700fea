//! Gather: every node's chunk ends at the root — the mirror of scatter.
//!
//! Binomial gather: leaves send first, each internal node accumulates its
//! subtree's chunks and forwards them up; volumes grow geometrically toward
//! the root. `message_bytes` is the full gathered buffer (`n` chunks of
//! `m/n`; chunk `i` originates at node `i`).

use crate::builder::{ceil_log2, check_message_bytes, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use std::iter::once;

/// Builds a binomial gather to `root` over `n ≥ 2` nodes (any `n`).
///
/// # Errors
///
/// Rejects `n < 2`, out-of-range roots, and bad message sizes.
pub fn binomial(n: usize, root: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    if root >= n {
        return Err(CollectiveError::RootOutOfRange { root, n });
    }
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::BinomialGather { root }, n, message_bytes)
}

pub(crate) fn describe(n: usize, root: usize, message_bytes: f64, out: &mut impl Sink) {
    out.header(Header {
        kind: CollectiveKind::AllToAll, // chunk-addressed delivery; semantics below
        algorithm: "binomial-gather",
        semantics: Semantics::Gather { root },
        num_chunks: n,
        chunk_bytes: message_bytes / n as f64,
    });
    for i in 0..n {
        out.hold(i, once(i));
    }
    // Mirror of the scatter tree: at step t (t = 0 first), ranks that are
    // odd multiples of 2^t send their accumulated block (their subtree of
    // size ≤ 2^t) to rank - 2^t.
    for t in 0..ceil_log2(n) {
        let reach = 1usize << t;
        out.step();
        for r in 0..n {
            if r % (2 * reach) == reach {
                // Rank r holds chunks of ranks [r, min(r + reach, n)).
                let hi = (r + reach).min(n);
                let chunks = (r..hi).map(|q| (root + q) % n);
                out.send(
                    (root + r) % n,
                    (root + r - reach) % n,
                    chunks,
                    Combine::Replace,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_for_many_sizes_and_roots() {
        for n in [2, 3, 4, 5, 8, 11, 16] {
            for root in [0, n / 2, n - 1] {
                binomial(n, root, 640.0)
                    .unwrap()
                    .check()
                    .unwrap_or_else(|e| panic!("n={n} root={root}: {e}"));
            }
        }
    }

    #[test]
    fn volumes_double_toward_the_root() {
        let c = binomial(8, 0, 800.0).unwrap();
        let vols: Vec<f64> = c
            .schedule
            .steps()
            .iter()
            .map(|s| s.bytes_per_pair)
            .collect();
        assert_eq!(vols, vec![100.0, 200.0, 400.0]);
        // Last step: the halfway node delivers half the buffer to the root.
        let last = c.schedule.steps().last().unwrap();
        assert_eq!(last.matching.len(), 1);
        assert_eq!(last.matching.dst_of(4), Some(0));
    }

    #[test]
    fn gather_is_scatter_mirrored() {
        // Step matchings of gather are the inverses of scatter's, in
        // reverse order (same tree, traversed upward).
        let n = 16;
        let g = binomial(n, 3, 1600.0).unwrap();
        let s = crate::scatter::binomial(n, 3, 1600.0).unwrap();
        let g_steps = g.schedule.steps();
        let s_steps = s.schedule.steps();
        assert_eq!(g_steps.len(), s_steps.len());
        for (i, gs) in g_steps.iter().enumerate() {
            let mirror = &s_steps[s_steps.len() - 1 - i];
            assert_eq!(gs.matching, mirror.matching.inverse(), "step {i}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(binomial(1, 0, 1.0).is_err());
        assert!(binomial(4, 7, 1.0).is_err());
        assert!(binomial(4, 0, f64::INFINITY).is_err());
    }
}
