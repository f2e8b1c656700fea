//! Ring AllReduce: reduce-scatter around the ring, then allgather.
//!
//! `2(n−1)` steps, every step the same shift-by-1 matching carrying `m/n`
//! bytes. Moves the bandwidth-optimal `2m(n−1)/n` bytes per node and only
//! ever talks to ring neighbors — which is why the paper notes the ring
//! algorithm stays optimal on static rings even for short messages when
//! propagation delays dominate (§4).

use crate::builder::{check_message_bytes, shift, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::Semantics;
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use crate::{allgather, reduce_scatter};

/// Builds ring AllReduce over `n ≥ 2` nodes for an `m`-byte vector.
///
/// Chunk layout: the vector splits into `n` slots; node `i` is the reduction
/// owner of slot `i`. During reduce-scatter step `t`, node `i` forwards slot
/// `(i − t − 1) mod n` to node `i+1`, so slot `c` accumulates contributions
/// on its way around the ring and completes at its owner `c`. The allgather
/// phase circulates the completed slots the same way.
///
/// # Errors
///
/// Rejects `n < 2` and non-positive message sizes.
pub fn build(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::RingAllReduce, n, message_bytes)
}

pub(crate) fn describe(n: usize, message_bytes: f64, out: &mut impl Sink) {
    out.header(Header {
        kind: CollectiveKind::AllReduce,
        algorithm: "ring",
        semantics: Semantics::AllReduce,
        num_chunks: n,
        chunk_bytes: message_bytes / n as f64,
    });
    for i in 0..n {
        out.hold(i, 0..n);
    }
    // Both phases run every step on one shift by 1.
    let ring = shift(n, 1);
    reduce_scatter::ring_steps(&ring, out);
    // Allgather phase: node i starts holding its fully-reduced slot i.
    allgather::ring_steps(&ring, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_matrix::Matching;

    #[test]
    fn verifies_for_many_sizes() {
        for n in [2, 3, 4, 5, 8, 16, 17] {
            let c = build(n, 1000.0).unwrap();
            c.check().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn structure() {
        let n = 6;
        let m = 600.0;
        let c = build(n, m).unwrap();
        assert_eq!(c.schedule.num_steps(), 2 * (n - 1));
        let shift1 = Matching::shift(n, 1).unwrap();
        for s in c.schedule.steps() {
            assert_eq!(s.matching, shift1);
            assert!((s.bytes_per_pair - m / n as f64).abs() < 1e-9);
        }
        let opt = 2.0 * m * (n as f64 - 1.0) / n as f64;
        assert!((c.schedule.total_bytes_per_node() - opt).abs() < 1e-9);
    }

    #[test]
    fn aggregate_demand_is_scaled_shift() {
        let c = build(4, 400.0).unwrap();
        let d = c.schedule.aggregate_demand().unwrap();
        // 6 steps × 100 bytes on the shift-1 pattern.
        assert_eq!(d.get(0, 1), 600.0);
        assert_eq!(d.get(1, 2), 600.0);
        assert_eq!(d.get(0, 2), 0.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            build(1, 10.0),
            Err(CollectiveError::TooFewNodes { n: 1, min: 2 })
        ));
        assert!(matches!(
            build(4, 0.0),
            Err(CollectiveError::BadMessageSize(_))
        ));
    }
}
