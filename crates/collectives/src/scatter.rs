//! Scatter: the root distributes a distinct chunk to every node.
//!
//! Binomial scatter: the root first sends the "far half" of the chunks to
//! the node halfway around, then both recurse — `⌈log₂ n⌉` steps with
//! geometrically shrinking volumes. `message_bytes` is the root's full send
//! buffer (`n` chunks of `m/n` bytes; chunk `i` is destined for node `i`).

use crate::builder::{ceil_log2, check_message_bytes, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;

/// Builds a binomial scatter from `root` over `n ≥ 2` nodes (any `n`).
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
    Collective::build(Algo::BinomialScatter { root }, n, message_bytes)
}

pub(crate) fn describe(n: usize, root: usize, message_bytes: f64, out: &mut impl Sink) {
    out.header(Header {
        kind: CollectiveKind::AllToAll, // chunk-addressed delivery; semantics below
        algorithm: "binomial-scatter",
        semantics: Semantics::Scatter { root },
        num_chunks: n,
        chunk_bytes: message_bytes / n as f64,
    });
    out.hold(root, 0..n);
    binomial_scatter_steps(n, root, out);
}

/// The binomial scatter tree's steps, shared with the scatter-allgather
/// broadcast. Chunk `(root + q) % n` is destined for relative rank `q`.
///
/// Works in root-relative rank space `r = (i − root) mod n` on the virtual
/// `2^⌈log₂ n⌉` tree: at step `t` every subtree owner forwards its
/// partner's (clipped) subtree block.
pub(crate) fn binomial_scatter_steps(n: usize, root: usize, out: &mut impl Sink) {
    let rounds = ceil_log2(n);
    let virt = 1usize << rounds;
    for t in 0..rounds {
        let reach = virt >> (t + 1); // distance sent at this step
        out.step();
        for r in 0..n {
            // Rank r sends at step t iff r is a multiple of 2*reach (it
            // owns a subtree block of size 2*reach) and its partner exists.
            if r % (2 * reach) == 0 && r + reach < n {
                let dst_rank = r + reach;
                // Chunks for ranks [dst_rank, min(dst_rank + reach, n)).
                let hi = (dst_rank + reach).min(n);
                let chunks = (dst_rank..hi).map(|q| (root + q) % n);
                out.send(
                    (root + r) % n,
                    (root + dst_rank) % n,
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
    fn volumes_halve() {
        let c = binomial(8, 0, 800.0).unwrap();
        let vols: Vec<f64> = c
            .schedule
            .steps()
            .iter()
            .map(|s| s.bytes_per_pair)
            .collect();
        assert_eq!(vols, vec![400.0, 200.0, 100.0]);
        // Total bytes the ROOT sends: m/2 only in step 0; later steps are
        // parallel subtree sends.
        assert_eq!(c.schedule.num_steps(), 3);
    }

    #[test]
    fn first_step_is_single_pair() {
        let c = binomial(16, 5, 1600.0).unwrap();
        assert_eq!(c.schedule.steps()[0].matching.len(), 1);
        assert_eq!(c.schedule.steps()[0].matching.dst_of(5), Some(13));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(binomial(1, 0, 1.0).is_err());
        assert!(binomial(8, 8, 1.0).is_err());
        assert!(binomial(8, 0, -1.0).is_err());
    }
}
