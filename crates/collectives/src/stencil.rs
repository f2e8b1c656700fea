//! Halo (ghost-cell) exchange for 2-D stencil computations.
//!
//! The classic HPC near-neighbor pattern: ranks are arranged in a
//! `rows × cols` torus (rank = `r·cols + c`), and each iteration every rank
//! exchanges boundary strips with its four neighbors. As a matching
//! sequence this is four permutation steps — east, west, south, north wrap
//! shifts — each carrying one halo strip. On a ring-based photonic domain
//! only the ±1 shifts are local; the ±`cols` shifts are exactly the traffic
//! that makes reconfiguration attractive, which is why this workload
//! appears as an example.
//!
//! `halo_bytes` is the size of one directional halo strip.

use crate::builder::{check_message_bytes, Algo, Header, Sink};
use crate::collective::Collective;
use crate::dataflow::{Combine, Semantics};
use crate::error::CollectiveError;
use crate::schedule::CollectiveKind;
use std::iter::once;

/// Builds one halo-exchange round on a `rows × cols` torus of ranks.
/// Requires both dimensions ≥ 3 so the four neighbor shifts are distinct
/// permutations (a dimension of 2 would collapse the two directions onto
/// the same neighbor).
///
/// # Errors
///
/// Rejects degenerate grids and bad strip sizes.
pub fn halo_2d(rows: usize, cols: usize, halo_bytes: f64) -> Result<Collective, CollectiveError> {
    if rows < 3 || cols < 3 {
        return Err(CollectiveError::TooFewNodes {
            n: rows * cols,
            min: 9,
        });
    }
    check_message_bytes(halo_bytes)?;
    Collective::build(Algo::Halo2d { cols }, rows * cols, halo_bytes)
}

pub(crate) fn describe_halo_2d(rows: usize, cols: usize, halo_bytes: f64, out: &mut impl Sink) {
    let n = rows * cols;
    out.header(Header {
        kind: CollectiveKind::AllToAll,
        algorithm: "halo-2d",
        semantics: Semantics::SparsePersonalized,
        num_chunks: n * n,
        chunk_bytes: halo_bytes,
    });
    let idx = |r: usize, c: usize| (r % rows) * cols + (c % cols);
    // Directions: (dr, dc, name). The chunk a node sends in direction k is
    // its k-th halo strip; chunk id = src*n + dst (sparse personalized).
    let dirs: [(usize, usize); 4] = [
        (0, 1),        // east
        (0, cols - 1), // west
        (1, 0),        // south
        (rows - 1, 0), // north
    ];
    for (dr, dc) in dirs {
        out.step();
        for r in 0..rows {
            for c in 0..cols {
                let src = idx(r, c);
                let dst = idx(r + dr, c + dc);
                let chunk = src * n + dst;
                out.hold(src, once(chunk));
                out.send(src, dst, once(chunk), Combine::Replace);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_on_various_grids() {
        for (r, c) in [(3, 3), (3, 4), (4, 4), (4, 8), (5, 7)] {
            halo_2d(r, c, 4096.0)
                .unwrap()
                .check()
                .unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
        }
    }

    #[test]
    fn four_full_permutation_steps() {
        let c = halo_2d(4, 4, 1024.0).unwrap();
        assert_eq!(c.schedule.num_steps(), 4);
        for s in c.schedule.steps() {
            assert!(s.matching.is_full());
            assert_eq!(s.bytes_per_pair, 1024.0);
        }
        // East step from rank 5 (row 1, col 1) goes to rank 6.
        assert_eq!(c.schedule.steps()[0].matching.dst_of(5), Some(6));
        // South step from rank 5 goes to rank 9.
        assert_eq!(c.schedule.steps()[2].matching.dst_of(5), Some(9));
    }

    #[test]
    fn row_shifts_are_ring_local_column_shifts_are_not() {
        // On a 4×8 grid flattened row-major, east/west are ±1 ring shifts
        // per row; south/north are ±8 — far on a 32-ring.
        let c = halo_2d(4, 8, 1024.0).unwrap();
        let n = 32;
        let dist = |m: &aps_matrix::Matching| {
            m.pairs()
                .map(|(a, b)| {
                    let f = (b + n - a) % n;
                    f.min(n - f)
                })
                .max()
                .unwrap()
        };
        // East within a row is distance 1 except the row wrap (7 back).
        assert!(dist(&c.schedule.steps()[0].matching) <= 7);
        assert_eq!(dist(&c.schedule.steps()[2].matching), 8);
    }

    #[test]
    fn rejects_degenerate_grids() {
        assert!(halo_2d(2, 5, 1.0).is_err());
        assert!(halo_2d(5, 2, 1.0).is_err());
        assert!(halo_2d(3, 3, 0.0).is_err());
    }
}
