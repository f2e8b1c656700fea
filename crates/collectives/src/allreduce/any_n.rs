//! Halving-doubling AllReduce for arbitrary node counts.
//!
//! Rabenseifner's standard non-power-of-two reduction: with
//! `r = n − 2^⌊log₂ n⌋` surplus nodes, the first `2r` nodes pre-combine in
//! pairs (two half-vector exchange steps), the resulting `n' = 2^⌊log₂ n⌋`
//! *virtual* nodes run the power-of-two algorithm, and a final step copies
//! the result back to the folded-away partners. Costs two extra `m/2` steps
//! and one extra `m` step relative to the power-of-two case.

use crate::builder::{check_message_bytes, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;

/// Builds halving-doubling AllReduce over any `n ≥ 2`.
///
/// For power-of-two `n` this is exactly
/// [`super::halving_doubling::build`]; otherwise the pre/post folding steps
/// are added. Node `i` ends with the full reduction either way.
///
/// # Errors
///
/// Rejects `n < 2` and bad message sizes.
pub fn build(n: usize, message_bytes: f64) -> Result<Collective, CollectiveError> {
    if n < 2 {
        return Err(CollectiveError::TooFewNodes { n, min: 2 });
    }
    if n.is_power_of_two() {
        return super::halving_doubling::build(n, message_bytes);
    }
    check_message_bytes(message_bytes)?;
    Collective::build(Algo::AnyNAllReduce, n, message_bytes)
}

/// The description for non-power-of-two `n`.
pub(crate) fn describe(n: usize, message_bytes: f64, out: &mut impl Sink) {
    let log = usize::BITS as usize - n.leading_zeros() as usize - 1; // ⌊log₂ n⌋
    let np = 1usize << log; // virtual domain size
    let r = n - np; // surplus nodes

    // Chunk space: 2·np chunks so both the half-vector pre-phase (np chunks
    // per half) and the power-of-two slot blocks (2 chunks per slot) are
    // expressible.
    let chunks = 2 * np;
    out.header(Header {
        kind: CollectiveKind::AllReduce,
        algorithm: "halving-doubling-any-n",
        semantics: Semantics::AllReduce,
        num_chunks: chunks,
        chunk_bytes: message_bytes / chunks as f64,
    });
    for i in 0..n {
        out.hold(i, 0..chunks);
    }
    // Virtual rank v lives on physical node phys(v).
    let phys = |v: usize| if v < r { 2 * v } else { v + r };

    // Pre-phase step 1: surplus pairs exchange halves and reduce.
    out.step();
    for i in 0..r {
        let (a, b) = (2 * i, 2 * i + 1);
        out.send(a, b, np..2 * np, Combine::Reduce);
        out.send(b, a, 0..np, Combine::Reduce);
    }
    // Pre-phase step 2: the odd partner hands its reduced half back; the
    // even node now owns the pair-combined full vector.
    out.step();
    for i in 0..r {
        out.send(2 * i + 1, 2 * i, np..2 * np, Combine::Reduce);
    }

    // Power-of-two phase on virtual ranks; slot s owns chunks {2s, 2s+1},
    // so a block of slots is a contiguous run of chunks.
    let slot_block = |v: usize, t: usize| {
        let width = log - t;
        let lo = (v >> width) << width;
        2 * lo..2 * (lo + (np >> t))
    };
    for t in 0..log {
        let mask = 1usize << (log - 1 - t);
        out.step();
        for v in 0..np {
            let p = v ^ mask;
            out.send(phys(v), phys(p), slot_block(p, t + 1), Combine::Reduce);
        }
    }
    for u in 0..log {
        let mask = 1usize << u;
        out.step();
        for v in 0..np {
            let block = slot_block(v, log - u);
            out.send(phys(v), phys(v ^ mask), block, Combine::Replace);
        }
    }

    // Post-phase: even surplus nodes copy the full result to their folded
    // partners.
    out.step();
    for i in 0..r {
        out.send(2 * i, 2 * i + 1, 0..2 * np, Combine::Replace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_for_arbitrary_n() {
        for n in [2, 3, 5, 6, 7, 9, 12, 15, 16, 24, 33] {
            build(n, 960.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn power_of_two_delegates() {
        let a = build(16, 1600.0).unwrap();
        let b = super::super::halving_doubling::build(16, 1600.0).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn step_count_and_volumes_for_non_pow2() {
        // n = 6: r = 2, n' = 4, log = 2 → 2 pre + 4 pow2 + 1 post = 7 steps.
        let m = 960.0;
        let c = build(6, m).unwrap();
        assert_eq!(c.schedule.num_steps(), 7);
        let vols: Vec<f64> = c
            .schedule
            .steps()
            .iter()
            .map(|s| s.bytes_per_pair)
            .collect();
        assert_eq!(vols[0], m / 2.0); // half-vector exchange
        assert_eq!(vols[1], m / 2.0); // half hand-back
        assert_eq!(*vols.last().unwrap(), m); // full-vector copy-out
    }

    #[test]
    fn surplus_nodes_idle_in_the_core_phase() {
        let c = build(6, 960.0).unwrap();
        // Odd surplus nodes 1 and 3 do not participate in the pow2 steps
        // (steps 2..6 exclusive of the final copy).
        for step in &c.schedule.steps()[2..6] {
            assert_eq!(step.matching.dst_of(1), None);
            assert_eq!(step.matching.dst_of(3), None);
            assert_eq!(step.matching.len(), 4);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(build(1, 1.0).is_err());
        assert!(build(6, 0.0).is_err());
    }
}
