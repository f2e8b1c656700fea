//! Partial permutations ("matchings") over `n` endpoints.
//!
//! A [`Matching`] simultaneously models
//!
//! * one step of a collective communication algorithm (every GPU sends to at
//!   most one peer and receives from at most one peer), and
//! * one configuration of a photonic circuit switch (every TX port is wired
//!   to at most one RX port).
//!
//! Invariants enforced at construction:
//!
//! * **injectivity** — no two senders share a receiver;
//! * **no self-loops** — `i → i` circuits carry no traffic and are rejected.
//!
//! Ports are stored as `u32`, 4 bytes each, so a matching's pairs span at
//! most `u32::MAX` ports (every C ABI port count is a `uint32_t` and
//! fits): [`Matching::from_pairs`], [`Matching::refill_from_pairs`],
//! [`Matching::shift`] and [`Matching::xor`] refuse a larger port count
//! with [`MatrixError::TooManyPorts`] before allocating anything.
//!
//! The ports live in one reference-counted buffer that clones share, so a
//! collective's steps, their cost-table rows and θ-cache keys hold one
//! buffer per distinct matching however often they copy it (a ring
//! AllReduce over `n` ports repeats one shift `2(n − 1)` times). The buffer
//! is copy-on-write: [`Clone::clone_from`] and
//! [`Matching::refill_from_pairs`] write in place only into a buffer no
//! other clone holds, and otherwise never write through it. The buffer also
//! keeps the matching's digest, computed the first time one of its clones
//! is hashed: hashing writes that one word, so a θ-cache lookup costs O(1)
//! once the buffer is hashed, instead of 4n bytes per lookup.

use crate::error::MatrixError;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Marks a port that sends to nobody.
const NONE: u32 = u32::MAX;

/// Refuses a domain whose port indices do not fit the `u32` storage.
fn check_ports(n: usize) -> Result<(), MatrixError> {
    if n > NONE as usize {
        return Err(MatrixError::TooManyPorts { n });
    }
    Ok(())
}

/// The storage clones of one matching share.
struct Ports {
    /// [`Ports::digest`] of `dst` once something has hashed it; `0` until
    /// then. Clones may compute it on several threads at once, but it is a
    /// pure function of `dst`, which nothing writes while the buffer is
    /// shared: every store writes the same value and publishes nothing else,
    /// so relaxed ordering suffices.
    digest: AtomicU64,
    /// `dst[i] = j` iff node `i` sends to node `j` in this step; `NONE`
    /// when it sends to nobody.
    dst: Vec<u32>,
}

impl Ports {
    fn new(dst: Vec<u32>) -> Arc<Self> {
        Arc::new(Self {
            digest: AtomicU64::new(0),
            dst,
        })
    }

    /// A nonzero digest of the domain size and the ports: FxHash (one
    /// rotate, xor and multiply per two ports), then the SplitMix64
    /// finalizer so every bit of the word depends on every port.
    fn digest(&self) -> u64 {
        let known = self.digest.load(Ordering::Relaxed);
        if known != 0 {
            return known;
        }
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let add = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(SEED);
        let mut words = self.dst.chunks_exact(2);
        let mut h = add(0, self.dst.len() as u64);
        for w in &mut words {
            h = add(h, u64::from(w[0]) | u64::from(w[1]) << 32);
        }
        if let [last] = words.remainder() {
            h = add(h, u64::from(*last));
        }
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let digest = (h ^ (h >> 31)).max(1);
        self.digest.store(digest, Ordering::Relaxed);
        digest
    }
}

/// A partial permutation of `{0, …, n-1}`: an injective map from senders to
/// receivers with no fixed points.
///
/// Takes 4 bytes per port in a buffer that clones share: cloning is a
/// reference-count bump, and the buffer is copied only when a clone is
/// rebuilt while another still holds it (see the [module docs](self)).
/// [`Matching::len`] and [`Matching::is_empty`] are O(1), and so is hashing
/// once any clone of the buffer has been hashed. Two matchings are equal
/// when they share a buffer or hold the same ports.
pub struct Matching {
    ports: Arc<Ports>,
    /// Number of senders (entries other than `NONE`).
    pairs: usize,
}

/// Prints the domain size and the `sender: receiver` pairs, e.g.
/// `Matching { n: 4, pairs: {0: 1, 2: 3} }`.
impl fmt::Debug for Matching {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Pairs<'a>(&'a Matching);
        impl fmt::Debug for Pairs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.pairs()).finish()
            }
        }
        f.debug_struct("Matching")
            .field("n", &self.n())
            .field("pairs", &Pairs(self))
            .finish()
    }
}

/// `clone` shares the buffer. `clone_from` copies the source's ports into
/// the destination's buffer when no other clone holds it — the
/// zero-allocation steady-state step leans on this to recycle matchings in
/// place — and otherwise shares the source's buffer.
impl Clone for Matching {
    fn clone(&self) -> Self {
        Self {
            ports: Arc::clone(&self.ports),
            pairs: self.pairs,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match Arc::get_mut(&mut self.ports) {
            Some(own) => {
                own.dst.clone_from(&source.ports.dst);
                *own.digest.get_mut() = source.ports.digest.load(Ordering::Relaxed);
            }
            None => self.ports = Arc::clone(&source.ports),
        }
        self.pairs = source.pairs;
    }
}

impl PartialEq for Matching {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.ports, &other.ports)
            || (self.pairs == other.pairs && self.ports.dst == other.ports.dst)
    }
}

impl Eq for Matching {}

/// Writes the buffer's digest, a pure function of the domain size and the
/// ports: equal matchings hash equal, and only the first hash of a buffer
/// reads its ports.
impl Hash for Matching {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.ports.digest());
    }
}

impl Matching {
    /// The empty matching over `n` nodes (nobody communicates).
    pub fn empty(n: usize) -> Self {
        Self {
            ports: Ports::new(vec![NONE; n]),
            pairs: 0,
        }
    }

    /// Builds a matching from explicit `(sender, receiver)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if `n` exceeds the `u32` port limit, an endpoint is
    /// out of range, a sender or receiver appears twice, or a pair is a
    /// self-loop.
    pub fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> Result<Self, MatrixError> {
        check_ports(n)?;
        let mut m = Self::empty(0);
        m.refill_from_pairs(n, pairs, &mut Vec::new())?;
        Ok(m)
    }

    /// [`Matching::from_pairs`] in place: rebuilds `self` over `n` nodes
    /// from `pairs`, reusing its storage, with `has_src` as caller-owned
    /// scratch for the duplicate-receiver check. Once both buffers have
    /// held `n` entries, a refill touches no heap. A buffer another clone
    /// still holds is left to it: `self` then takes a fresh one.
    ///
    /// # Errors
    ///
    /// The errors of [`Matching::from_pairs`]. On
    /// [`MatrixError::TooManyPorts`] `self` is unchanged; on any other
    /// error it holds the pairs before the offending one.
    pub fn refill_from_pairs(
        &mut self,
        n: usize,
        pairs: &[(usize, usize)],
        has_src: &mut Vec<bool>,
    ) -> Result<(), MatrixError> {
        check_ports(n)?;
        if Arc::get_mut(&mut self.ports).is_none() {
            self.ports = Ports::new(Vec::new());
        }
        let ports = Arc::get_mut(&mut self.ports).expect("a buffer no other clone holds");
        *ports.digest.get_mut() = 0;
        ports.dst.clear();
        ports.dst.resize(n, NONE);
        self.pairs = 0;
        has_src.clear();
        has_src.resize(n, false);
        // Slices of length `n`, so the checks below also prove the indices.
        let (dst, has_src) = (&mut ports.dst[..n], &mut has_src[..n]);
        for &(s, d) in pairs {
            if s >= n {
                return Err(MatrixError::EndpointOutOfRange { endpoint: s, n });
            }
            if d >= n {
                return Err(MatrixError::EndpointOutOfRange { endpoint: d, n });
            }
            if s == d {
                return Err(MatrixError::SelfLoop(s));
            }
            if dst[s] != NONE {
                return Err(MatrixError::DuplicateSender(s));
            }
            if has_src[d] {
                return Err(MatrixError::DuplicateReceiver(d));
            }
            // `d < n <= u32::MAX`, so the cast is exact and never `NONE`.
            dst[s] = d as u32;
            self.pairs += 1;
            has_src[d] = true;
        }
        Ok(())
    }

    /// The full matching sending node `i` to the `i`-th of `dsts`, over
    /// `n ≤ u32::MAX` nodes.
    fn full(n: usize, dsts: impl Iterator<Item = usize>) -> Self {
        let dst: Vec<u32> = dsts.map(|d| d as u32).collect();
        debug_assert_eq!(dst.len(), n);
        Self {
            ports: Ports::new(dst),
            pairs: n,
        }
    }

    /// The cyclic shift `i → (i + k) mod n`, the building block of ring
    /// collectives and All-to-All linear shifts.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::TooManyPorts`] when `n` exceeds the `u32`
    /// port limit and [`MatrixError::IdentityShift`] when `k ≡ 0 (mod n)`.
    pub fn shift(n: usize, k: usize) -> Result<Self, MatrixError> {
        check_ports(n)?;
        if n == 0 || k.is_multiple_of(n) {
            return Err(MatrixError::IdentityShift { shift: k, n });
        }
        let k = k % n;
        Ok(Self::full(n, (k..n).chain(0..k)))
    }

    /// The pairwise exchange `i → i XOR mask`, the building block of
    /// recursive-doubling style collectives. Requires `n` to be a power of
    /// two and `0 < mask < n`.
    ///
    /// # Errors
    ///
    /// Returns an error when `n` exceeds the `u32` port limit, is not a
    /// power of two, or the mask is trivial/out of range.
    pub fn xor(n: usize, mask: usize) -> Result<Self, MatrixError> {
        check_ports(n)?;
        if n == 0 || !n.is_power_of_two() {
            return Err(MatrixError::NotPowerOfTwo(n));
        }
        if mask == 0 || mask >= n {
            return Err(MatrixError::BadXorMask { mask, n });
        }
        Ok(Self::full(n, (0..n).map(|i| i ^ mask)))
    }

    /// Number of endpoints in the domain.
    pub fn n(&self) -> usize {
        self.ports.dst.len()
    }

    /// Number of communicating pairs. O(1).
    pub fn len(&self) -> usize {
        self.pairs
    }

    /// `true` when nobody communicates. O(1).
    pub fn is_empty(&self) -> bool {
        self.pairs == 0
    }

    /// `true` when every node both sends and receives (a full permutation
    /// without fixed points).
    pub fn is_full(&self) -> bool {
        self.len() == self.n()
    }

    /// The receiver of node `i`, if any.
    pub fn dst_of(&self, i: usize) -> Option<usize> {
        match self.ports.dst.get(i) {
            Some(&d) if d != NONE => Some(d as usize),
            _ => None,
        }
    }

    /// The sender targeting node `j`, if any. `O(n)`.
    pub fn src_of(&self, j: usize) -> Option<usize> {
        if j >= self.n() {
            return None;
        }
        self.ports.dst.iter().position(|&d| d as usize == j)
    }

    /// Iterator over `(sender, receiver)` pairs in sender order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ports
            .dst
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != NONE)
            .map(|(s, &d)| (s, d as usize))
    }

    /// The inverse matching (`j → i` for every `i → j`).
    pub fn inverse(&self) -> Self {
        let mut dst = vec![NONE; self.n()];
        for (s, d) in self.pairs() {
            dst[d] = s as u32;
        }
        Self {
            ports: Ports::new(dst),
            pairs: self.pairs,
        }
    }

    /// Functional composition `other ∘ self`: first route by `self`, then by
    /// `other`. Pairs whose intermediate hop does not send in `other` are
    /// dropped; pairs that would become self-loops are dropped as well.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] when domains differ.
    pub fn compose(&self, other: &Self) -> Result<Self, MatrixError> {
        if self.n() != other.n() {
            return Err(MatrixError::DimensionMismatch {
                left: self.n(),
                right: other.n(),
            });
        }
        let dst: Vec<u32> = self
            .ports
            .dst
            .iter()
            .enumerate()
            .map(|(i, &mid)| {
                let fin = if mid == NONE {
                    None
                } else {
                    other.dst_of(mid as usize)
                };
                match fin {
                    Some(fin) if fin != i => fin as u32,
                    _ => NONE,
                }
            })
            .collect();
        let pairs = dst.iter().filter(|&&d| d != NONE).count();
        Ok(Self {
            ports: Ports::new(dst),
            pairs,
        })
    }

    /// `true` when the pair `i → j` is part of this matching.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.dst_of(i) == Some(j)
    }

    /// `true` when this matching is *symmetric*: `i → j` implies `j → i`
    /// (a pairwise exchange, as used by recursive doubling and Swing).
    pub fn is_pairwise_exchange(&self) -> bool {
        self.pairs().all(|(s, d)| self.dst_of(d) == Some(s))
    }

    /// Number of TX ports whose destination differs between `self` and
    /// `other`. This is the quantity that drives per-port reconfiguration
    /// delay models (research agenda §4 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the domains differ; configuration diffs are only meaningful
    /// within one fabric.
    pub fn tx_ports_changed(&self, other: &Self) -> usize {
        assert_eq!(self.n(), other.n(), "configuration diff across fabrics");
        self.ports
            .dst
            .iter()
            .zip(&other.ports.dst)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Number of distinct ports *involved* in retargeting between the two
    /// configurations: a port counts if its TX destination or its RX source
    /// changes.
    pub fn ports_involved(&self, other: &Self) -> usize {
        assert_eq!(self.n(), other.n(), "configuration diff across fabrics");
        let (si, oi) = (self.inverse(), other.inverse());
        (0..self.n())
            .filter(|&p| self.dst_of(p) != other.dst_of(p) || si.dst_of(p) != oi.dst_of(p))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_roundtrip() {
        let m = Matching::from_pairs(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        assert!(m.is_full());
        assert!(m.is_pairwise_exchange());
        assert_eq!(m.dst_of(0), Some(1));
        assert_eq!(m.src_of(0), Some(1));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Matching::from_pairs(4, &[(2, 2)]),
            Err(MatrixError::SelfLoop(2))
        );
    }

    #[test]
    fn rejects_duplicate_sender_and_receiver() {
        assert_eq!(
            Matching::from_pairs(4, &[(0, 1), (0, 2)]),
            Err(MatrixError::DuplicateSender(0))
        );
        assert_eq!(
            Matching::from_pairs(4, &[(0, 1), (2, 1)]),
            Err(MatrixError::DuplicateReceiver(1))
        );
    }

    #[test]
    fn refill_equals_from_pairs_and_forgets_the_previous_matching() {
        // A recycled matching, grown and shrunk across refills, must equal
        // a fresh `from_pairs` every time — stale circuits or receiver
        // flags from an earlier refill, even a failed one, never leak.
        let mut m = Matching::shift(6, 1).unwrap();
        let mut has_src = Vec::new();
        assert_eq!(
            m.refill_from_pairs(6, &[(0, 1), (2, 1)], &mut has_src),
            Err(MatrixError::DuplicateReceiver(1))
        );
        for (n, pairs) in [(4, &[(0, 1), (2, 3)][..]), (8, &[(7, 1)]), (3, &[])] {
            m.refill_from_pairs(n, pairs, &mut has_src).unwrap();
            assert_eq!(m, Matching::from_pairs(n, pairs).unwrap());
        }
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Matching::from_pairs(4, &[(0, 7)]),
            Err(MatrixError::EndpointOutOfRange { endpoint: 7, n: 4 })
        ));
    }

    #[test]
    fn shift_is_cyclic() {
        let m = Matching::shift(5, 2).unwrap();
        assert!(m.is_full());
        assert_eq!(m.dst_of(4), Some(1));
        assert!(!m.is_pairwise_exchange());
        assert!(Matching::shift(5, 5).is_err());
        assert!(Matching::shift(5, 0).is_err());
        assert!(Matching::shift(0, 1).is_err());
    }

    #[test]
    fn shift_reduces_modulo_n() {
        assert_eq!(
            Matching::shift(5, 7).unwrap(),
            Matching::shift(5, 2).unwrap()
        );
    }

    #[test]
    fn xor_is_pairwise() {
        let m = Matching::xor(8, 4).unwrap();
        assert!(m.is_full());
        assert!(m.is_pairwise_exchange());
        assert_eq!(m.dst_of(3), Some(7));
        assert!(Matching::xor(6, 2).is_err());
        assert!(Matching::xor(8, 0).is_err());
        assert!(Matching::xor(8, 8).is_err());
    }

    #[test]
    fn inverse_of_shift() {
        let m = Matching::shift(6, 1).unwrap();
        assert_eq!(m.inverse(), Matching::shift(6, 5).unwrap());
        let x = Matching::xor(8, 2).unwrap();
        assert_eq!(x.inverse(), x);
    }

    #[test]
    fn compose_shifts_adds() {
        let a = Matching::shift(7, 2).unwrap();
        let b = Matching::shift(7, 3).unwrap();
        assert_eq!(a.compose(&b).unwrap(), Matching::shift(7, 5).unwrap());
    }

    #[test]
    fn compose_dropping_self_loops() {
        let a = Matching::shift(4, 2).unwrap();
        // shift(2) ∘ shift(2) = identity → everything dropped.
        assert!(a.compose(&a).unwrap().is_empty());
    }

    #[test]
    fn compose_dimension_mismatch() {
        let a = Matching::shift(4, 1).unwrap();
        let b = Matching::shift(5, 1).unwrap();
        assert!(a.compose(&b).is_err());
    }

    #[test]
    fn partial_matching_accessors() {
        let m = Matching::from_pairs(5, &[(0, 3)]).unwrap();
        assert!(!m.is_full());
        assert!(!m.is_empty());
        assert_eq!(m.len(), 1);
        assert_eq!(m.src_of(3), Some(0));
        assert_eq!(m.src_of(1), None);
        assert_eq!(m.dst_of(4), None);
    }

    #[test]
    fn diff_counts() {
        let ring = Matching::shift(4, 1).unwrap();
        let swap = Matching::from_pairs(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        // TX side: ports 1 and 3 change destination (0→1 and 2→3 coincide).
        assert_eq!(ring.tx_ports_changed(&swap), 2);
        assert_eq!(ring.tx_ports_changed(&ring), 0);
        // RX side changes make all four ports "involved".
        assert_eq!(ring.ports_involved(&swap), 4);
        assert_eq!(ring.ports_involved(&ring), 0);
    }

    #[test]
    fn debug_lists_the_pairs() {
        let m = Matching::from_pairs(4, &[(2, 3), (0, 1)]).unwrap();
        assert_eq!(format!("{m:?}"), "Matching { n: 4, pairs: {0: 1, 2: 3} }");
    }

    #[test]
    fn empty_matching() {
        let m = Matching::empty(3);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.pairs().count(), 0);
    }
}
