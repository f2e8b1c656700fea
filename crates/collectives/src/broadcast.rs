//! Broadcast algorithms.
//!
//! * [`binomial`] — the latency-optimal tree: `⌈log₂ n⌉` steps of
//!   full-message sends; steps are *partial* matchings (most nodes idle
//!   early on), exercising the partial-matching paths of the scheduler and
//!   fabric.
//! * [`scatter_allgather`] — the bandwidth-optimal large-message broadcast
//!   (van de Geijn): binomial-scatter the message into `n` chunks, then
//!   ring-allgather them; `⌈log₂ n⌉ + n − 1` steps moving only
//!   `~2m(n−1)/n` bytes per node.

use crate::builder::{ceil_log2, check_message_bytes, shift, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use std::iter::once;

/// Validates a rooted broadcast's inputs.
fn check(n: usize, root: usize, message_bytes: f64) -> Result<(), CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    if root >= n {
        return Err(CollectiveError::RootOutOfRange { root, n });
    }
    check_message_bytes(message_bytes)
}

/// Builds a binomial-tree broadcast of `message_bytes` from `root` over
/// `n ≥ 2` nodes (any `n`).
///
/// # Errors
///
/// Rejects `n < 2`, out-of-range roots, and bad message sizes.
pub fn binomial(n: usize, root: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    check(n, root, message_bytes)?;
    Collective::build(Algo::BinomialBroadcast { root }, n, message_bytes)
}

pub(crate) fn describe_binomial(n: usize, root: usize, message_bytes: f64, out: &mut impl Sink) {
    out.header(Header {
        kind: CollectiveKind::Broadcast,
        algorithm: "binomial",
        semantics: Semantics::Broadcast { root },
        num_chunks: 1,
        chunk_bytes: message_bytes,
    });
    out.hold(root, once(0));
    for t in 0..ceil_log2(n) {
        let reach = 1usize << t;
        out.step();
        for r in (0..reach).filter(|r| r + reach < n) {
            let src = (root + r) % n;
            let dst = (root + r + reach) % n;
            out.send(src, dst, once(0), Combine::Replace);
        }
    }
}

/// Builds the van de Geijn scatter-allgather broadcast of `message_bytes`
/// from `root` over `n ≥ 2` nodes (any `n`): a binomial scatter of the
/// `n`-chunk message followed by a ring allgather. Bandwidth-optimal for
/// large messages (each node moves `~2m(n−1)/n` bytes instead of the
/// binomial tree's `m·⌈log₂ n⌉` on interior nodes).
///
/// # Errors
///
/// Rejects `n < 2`, out-of-range roots, and bad message sizes.
pub fn scatter_allgather(
    n: usize,
    root: usize,
    message_bytes: f64,
) -> Result<Collective, CollectiveError> {
    check(n, root, message_bytes)?;
    Collective::build(Algo::ScatterAllgather { root }, n, message_bytes)
}

pub(crate) fn describe_scatter_allgather(
    n: usize,
    root: usize,
    message_bytes: f64,
    out: &mut impl Sink,
) {
    out.header(Header {
        kind: CollectiveKind::Broadcast,
        algorithm: "scatter-allgather",
        semantics: Semantics::Broadcast { root },
        num_chunks: n,
        chunk_bytes: message_bytes / n as f64,
    });
    out.hold(root, 0..n);
    // Phase 1: binomial scatter; afterwards node i holds chunk i.
    crate::scatter::binomial_scatter_steps(n, root, out);
    // Phase 2: ring allgather circulates the chunks.
    crate::allgather::ring_steps(&shift(n, 1), out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_allgather_verifies_for_many_sizes_and_roots() {
        for n in [2, 3, 5, 8, 13, 16] {
            for root in [0, n / 2, n - 1] {
                scatter_allgather(n, root, 1600.0)
                    .unwrap()
                    .check()
                    .unwrap_or_else(|e| panic!("n={n} root={root}: {e}"));
            }
        }
    }

    #[test]
    fn scatter_allgather_is_bandwidth_optimal_for_large_messages() {
        let n = 16;
        let m = 1600.0;
        let sag = scatter_allgather(n, 0, m).unwrap();
        let tree = binomial(n, 0, m).unwrap();
        // Busiest-node bytes: the binomial root/interior nodes resend the
        // full message every step; scatter-allgather never exceeds ~2m.
        assert!(sag.schedule.total_bytes_per_node() < 2.0 * m + 1e-9);
        assert!(tree.schedule.total_bytes_per_node() > 3.0 * m);
        assert_eq!(sag.schedule.num_steps(), 4 + (n - 1));
    }

    #[test]
    fn verifies_for_many_sizes_and_roots() {
        for n in [2, 3, 4, 5, 8, 13, 16] {
            for root in [0, n / 2, n - 1] {
                binomial(n, root, 100.0)
                    .unwrap()
                    .check()
                    .unwrap_or_else(|e| panic!("n={n} root={root}: {e}"));
            }
        }
    }

    #[test]
    fn step_count_and_partiality() {
        let c = binomial(16, 0, 10.0).unwrap();
        assert_eq!(c.schedule.num_steps(), 4);
        let sizes: Vec<usize> = c
            .schedule
            .steps()
            .iter()
            .map(|s| s.matching.len())
            .collect();
        assert_eq!(sizes, vec![1, 2, 4, 8]);
        assert!(c
            .schedule
            .steps()
            .iter()
            .all(|s| !s.matching.is_full() || s.matching.len() == 8));
    }

    #[test]
    fn every_step_carries_full_message() {
        let c = binomial(8, 3, 42.0).unwrap();
        for s in c.schedule.steps() {
            assert_eq!(s.bytes_per_pair, 42.0);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            binomial(8, 9, 1.0),
            Err(CollectiveError::RootOutOfRange { root: 9, n: 8 })
        ));
        assert!(binomial(1, 0, 1.0).is_err());
        assert!(binomial(8, 0, f64::NAN).is_err());
    }
}
