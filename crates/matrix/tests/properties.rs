//! Property-based tests for matchings, demand matrices and BvN
//! decomposition.

use aps_flow::{ThetaCache, ThroughputSolver};
use aps_matrix::{bvn, BitSet, DemandMatrix, Matching, MatrixError};
use aps_topology::builders;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Counts the allocation-path calls of threads that opt in, each thread on
/// its own counter, so a test can show a constructor refuses before
/// allocating while other tests allocate on other threads.
struct CountingAlloc;

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_tracked() {
    if TRACK.try_with(Cell::get).unwrap_or(false) {
        // Not counted during thread teardown, once the counter is gone.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracked();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_tracked();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracked();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    TRACK.with(|t| t.set(true));
    let out = f();
    TRACK.with(|t| t.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}

/// `m`'s hash under one deterministic hasher (SipHash with fixed keys).
fn hash_of(m: &Matching) -> u64 {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

/// The O(1) counters agree with the pairs a matching lists.
fn assert_counts(m: &Matching) {
    let listed = m.pairs().count();
    assert_eq!(m.len(), listed, "{m:?}");
    assert_eq!(m.is_empty(), listed == 0, "{m:?}");
    assert_eq!(m.is_full(), listed == m.n(), "{m:?}");
}

/// Strategy: a domain size and a random pair list over it, often invalid
/// (endpoints one past the end, self-loops, repeated senders/receivers).
fn arb_pairs() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..14).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0usize..n + 1, 0usize..n + 1), 0..n + 3),
        )
    })
}

/// `m` prices θ on a unidirectional ring through `cache`, once.
fn price(cache: &mut ThetaCache, m: &Matching) -> f64 {
    let ring = builders::ring_unidirectional(m.n()).unwrap();
    cache.get(&ring, m).unwrap().theta
}

/// Strategy: a random derangement over `n ∈ [2, 12]` as pair list.
fn arb_derangement() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (2usize..12)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::sample::subsequence((0..n).collect::<Vec<_>>(), n),
            )
        })
        .prop_flat_map(|(n, _)| {
            // Build via random shuffle, rejecting fixed points by rotation.
            (Just(n), proptest::collection::vec(0u64..u64::MAX, n))
        })
        .prop_map(|(n, keys)| {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by_key(|&i| keys[i]);
            // Rotate the sorted order by one: a permutation with no fixed
            // point relative to positions (a cyclic derangement).
            let perm: Vec<usize> = (0..n).map(|i| idx[(i + 1) % n]).collect();
            let mut dst = vec![0usize; n];
            for (i, &p) in perm.iter().enumerate() {
                dst[idx[i]] = p;
            }
            (n, dst)
        })
}

fn matching_from(n: usize, dst: &[usize]) -> Matching {
    let pairs: Vec<(usize, usize)> = dst.iter().enumerate().map(|(i, &d)| (i, d)).collect();
    Matching::from_pairs(n, &pairs).expect("valid derangement")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn inverse_is_an_involution((n, dst) in arb_derangement()) {
        let m = matching_from(n, &dst);
        prop_assert_eq!(m.inverse().inverse(), m);
    }

    #[test]
    fn inverse_swaps_src_and_dst((n, dst) in arb_derangement()) {
        let m = matching_from(n, &dst);
        let inv = m.inverse();
        for (s, d) in m.pairs() {
            prop_assert_eq!(inv.dst_of(d), Some(s));
            prop_assert_eq!(m.src_of(d), Some(s));
        }
    }

    #[test]
    fn compose_with_inverse_is_empty((n, dst) in arb_derangement()) {
        // m ∘ m⁻¹ maps every node to itself → all self-loops dropped.
        let m = matching_from(n, &dst);
        prop_assert!(m.compose(&m.inverse()).unwrap().is_empty());
    }

    #[test]
    fn tx_diff_is_a_metric_like((na, da) in arb_derangement(), seed in 0u64..1000) {
        // Symmetry and identity of the TX-port diff, against a second
        // derangement derived from the first by rotation.
        let a = matching_from(na, &da);
        let rot = (seed as usize % (na - 1)) + 1;
        let db: Vec<usize> = (0..na).map(|i| (da[i] + rot) % na).collect();
        if let Ok(b) = Matching::from_pairs(
            na,
            &db.iter().enumerate().filter(|(i, d)| *i != **d).map(|(i, &d)| (i, d)).collect::<Vec<_>>(),
        ) {
            prop_assert_eq!(a.tx_ports_changed(&b), b.tx_ports_changed(&a));
        }
        prop_assert_eq!(a.tx_ports_changed(&a), 0);
        prop_assert_eq!(a.ports_involved(&a), 0);
    }

    #[test]
    fn weighted_sums_are_doubly_balanced(
        (n, dst) in arb_derangement(),
        weights in proptest::collection::vec(0.1f64..10.0, 1..6),
        rots in proptest::collection::vec(1usize..11, 1..6),
    ) {
        // Sum of full permutations (rotations of one derangement) must have
        // equal row and column sums = Σ wᵢ.
        let mut d = DemandMatrix::zeros(n);
        let mut total = 0.0;
        for (w, r) in weights.iter().zip(&rots) {
            let shifted = Matching::shift(n, (r % (n - 1)) + 1).unwrap();
            let m = matching_from(n, &dst).compose(&shifted).unwrap();
            if m.is_full() {
                d.add_matching(*w, &m).unwrap();
                total += *w;
            }
        }
        prop_assert!(d.is_doubly_balanced(1e-9));
        for r in d.row_sums() {
            prop_assert!((r - total).abs() < 1e-9);
        }
    }

    #[test]
    fn bvn_reconstructs_sums_of_permutations(
        (n, dst) in arb_derangement(),
        weights in proptest::collection::vec(0.1f64..5.0, 1..5),
    ) {
        let base = matching_from(n, &dst);
        let mut d = DemandMatrix::zeros(n);
        for (k, w) in weights.iter().enumerate() {
            let m = if k == 0 {
                base.clone()
            } else {
                match base.compose(&Matching::shift(n, k % (n - 1) + 1).unwrap()) {
                    Ok(m) if m.is_full() => m,
                    _ => continue,
                }
            };
            d.add_matching(*w, &m).unwrap();
        }
        if d.total() > 0.0 {
            let b = bvn::decompose(&d, 1e-9).unwrap();
            prop_assert!(b.reconstruct().unwrap().approx_eq(&d, 1e-6));
            prop_assert!(b.terms.len() <= (n - 1) * (n - 1) + 1);
            // Every extracted weight is positive.
            prop_assert!(b.terms.iter().all(|t| t.weight > 0.0));
        }
    }

    #[test]
    fn relaxed_bvn_never_increases_entries(
        entries in proptest::collection::vec((0usize..8, 0usize..8, 0.01f64..5.0), 0..24),
    ) {
        let mut d = DemandMatrix::zeros(8);
        for (s, t, v) in entries {
            if s != t {
                d.set(s, t, v).unwrap();
            }
        }
        let b = bvn::decompose_relaxed(&d, 1e-9).unwrap();
        let rec = b.reconstruct().unwrap();
        for (s, t, v) in rec.entries() {
            prop_assert!(v <= d.get(s, t) + 1e-9, "entry ({s},{t}) grew");
        }
        // Residual + reconstructed mass = original mass.
        prop_assert!((b.residual + rec.total() - d.total()).abs() < 1e-6);
    }

    #[test]
    fn bitset_behaves_like_hashset(ops in proptest::collection::vec((0usize..100, any::<bool>()), 0..200)) {
        let mut bs = BitSet::new(100);
        let mut hs: HashSet<usize> = HashSet::new();
        for (v, _insert) in ops {
            bs.insert(v);
            hs.insert(v);
        }
        prop_assert_eq!(bs.len(), hs.len());
        for v in 0..100 {
            prop_assert_eq!(bs.contains(v), hs.contains(&v));
        }
        prop_assert_eq!(bs.is_full(), hs.len() == 100);
    }

    #[test]
    fn counts_hold_after_every_constructor(
        (n, pairs) in arb_pairs(),
        (m, other) in arb_pairs(),
        k in 1usize..40,
    ) {
        assert_counts(&Matching::empty(n));
        let built = Matching::from_pairs(n, &pairs);
        if let Ok(b) = &built {
            assert_counts(b);
        }
        // A refill over a recycled matching of another size equals
        // `from_pairs`, or on failure holds the pairs before the offending
        // one.
        let mut refilled = Matching::shift(m + 1, 1).unwrap();
        let mut has_src = Vec::new();
        match refilled.refill_from_pairs(n, &pairs, &mut has_src) {
            Ok(()) => prop_assert_eq!(&refilled, built.as_ref().unwrap()),
            Err(e) => {
                prop_assert_eq!(&Err(e.clone()), &built);
                let valid = (0..pairs.len())
                    .rev()
                    .find(|&i| Matching::from_pairs(n, &pairs[..i]).is_ok())
                    .unwrap();
                prop_assert_eq!(Matching::from_pairs(n, &pairs[..=valid]), Err(e));
                prop_assert_eq!(&refilled, &Matching::from_pairs(n, &pairs[..valid]).unwrap());
            }
        }
        assert_counts(&refilled);
        if n >= 2 {
            let shift = Matching::shift(n, k).unwrap_or_else(|_| Matching::empty(n));
            assert_counts(&shift);
            assert_counts(&shift.inverse());
            assert_counts(&refilled.compose(&shift).unwrap());
            assert_counts(&shift.compose(&refilled.inverse()).unwrap());
        }
        let pow2 = n.next_power_of_two();
        if pow2 >= 2 {
            assert_counts(&Matching::xor(pow2, k % (pow2 - 1) + 1).unwrap());
        }
        // `clone_from` across sizes, growing and shrinking.
        if let Ok(o) = Matching::from_pairs(m, &other) {
            let mut copy = refilled.clone();
            copy.clone_from(&o);
            prop_assert_eq!(&copy, &o);
            assert_counts(&copy);
            copy.clone_from(&refilled);
            prop_assert_eq!(&copy, &refilled);
            assert_counts(&copy);
        }
    }

    #[test]
    fn rebuilding_a_clone_leaves_the_other_alone(
        (n, pairs) in arb_pairs(),
        (m, other) in arb_pairs(),
        hashed in any::<bool>(),
    ) {
        let Ok(kept) = Matching::from_pairs(n, &pairs) else {
            return;
        };
        let own: Vec<(usize, usize)> = kept.pairs().collect();
        if hashed {
            hash_of(&kept);
        }
        let want_hash = hash_of(&Matching::from_pairs(n, &own).unwrap());
        // Refilled, validly or not, while `kept` shares its buffer.
        let mut refilled = kept.clone();
        let refill = refilled.refill_from_pairs(m, &other, &mut Vec::new());
        let built = Matching::from_pairs(m, &other);
        prop_assert_eq!(refill.is_ok(), built.is_ok());
        if let Ok(built) = &built {
            prop_assert_eq!(&refilled, built);
            prop_assert_eq!(hash_of(&refilled), hash_of(built));
        }
        prop_assert_eq!(&kept, &Matching::from_pairs(n, &own).unwrap());
        prop_assert_eq!(hash_of(&kept), want_hash);
        // Copied over while `kept` shares its buffer.
        if let Ok(built) = built {
            let mut copied = kept.clone();
            copied.clone_from(&built);
            prop_assert_eq!(&copied, &built);
            prop_assert_eq!(&kept, &Matching::from_pairs(n, &own).unwrap());
            prop_assert_eq!(hash_of(&kept), want_hash);
        }
    }

    #[test]
    fn equal_matchings_share_one_theta_entry(n in 3usize..48, k in 1usize..48, mask in 1usize..64) {
        let k = k % (n - 1) + 1;
        let shift = Matching::shift(n, k).unwrap();
        let shift_pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + k) % n)).collect();
        // Hashed before its refill, so the refill must forget that digest.
        let mut refilled = Matching::empty(3);
        hash_of(&refilled);
        refilled.refill_from_pairs(n, &shift_pairs, &mut Vec::new()).unwrap();
        // Copied into a hashed buffer of its own, so the copy must carry
        // the source's digest, not keep its own.
        let mut copied = Matching::empty(n);
        hash_of(&copied);
        hash_of(&shift);
        copied.clone_from(&shift);
        // shift(k) as shift(j) then shift(k − j), for j ≠ k (mod n).
        let j = if k == 1 { n - 1 } else { 1 };
        let composed = Matching::shift(n, j)
            .unwrap()
            .compose(&Matching::shift(n, k + n - j).unwrap())
            .unwrap();
        let pow2 = n.next_power_of_two();
        let xor = Matching::xor(pow2, mask % (pow2 - 1) + 1).unwrap();
        let xor_pairs: Vec<(usize, usize)> = xor.pairs().collect();
        for (a, b) in [
            (&shift, &Matching::from_pairs(n, &shift_pairs).unwrap()),
            (&shift, &refilled),
            (&shift, &copied),
            (&shift, &composed),
            (&shift, &shift.inverse().inverse()),
            (&xor, &Matching::from_pairs(pow2, &xor_pairs).unwrap()),
            (&xor, &xor.inverse()),
        ] {
            prop_assert_eq!(a, b);
            prop_assert_eq!(hash_of(a), hash_of(b), "{:?}", a);
            let mut cache = ThetaCache::new(
                &builders::ring_unidirectional(a.n()).unwrap(),
                ThroughputSolver::ForcedPath,
            );
            let first = price(&mut cache, a);
            prop_assert_eq!(price(&mut cache, b).to_bits(), first.to_bits());
            let stats = cache.stats();
            prop_assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
        }
    }
}

#[test]
fn clones_and_in_place_copies_allocate_nothing() {
    let n = 64;
    let m = Matching::shift(n, 3).unwrap();
    let (copy, allocs) = allocations(|| m.clone());
    assert_eq!((&copy, allocs), (&m, 0));
    // Into a buffer no other clone holds, `clone_from` copies in place...
    let mut own = Matching::xor(n, 5).unwrap();
    let ((), allocs) = allocations(|| own.clone_from(&m));
    assert_eq!((&own, allocs), (&m, 0));
    // ...so the buffer is still its own, and refilling it allocates nothing.
    let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, i ^ 1)).collect();
    let mut has_src = vec![false; n];
    let (refill, allocs) = allocations(|| own.refill_from_pairs(n, &pairs, &mut has_src));
    assert_eq!((refill, allocs), (Ok(()), 0));
    assert_eq!(own, Matching::xor(n, 1).unwrap());
    // Into a buffer another clone holds, it shares the source's buffer.
    let held = own.clone();
    let ((), allocs) = allocations(|| own.clone_from(&m));
    assert_eq!((&own, allocs), (&m, 0));
    assert_eq!(held, Matching::xor(n, 1).unwrap());
    assert_eq!(
        (m, copy),
        (
            Matching::shift(n, 3).unwrap(),
            Matching::shift(n, 3).unwrap()
        )
    );
}

#[cfg(target_pointer_width = "64")]
#[test]
fn the_port_limit_refuses_before_allocating() {
    let n = u32::MAX as usize + 1;
    let limit = Err(MatrixError::TooManyPorts { n });
    let (shift, allocs) = allocations(|| Matching::shift(n, 1));
    assert_eq!((shift, allocs), (limit.clone(), 0));
    let (xor, allocs) = allocations(|| Matching::xor(n, 1));
    assert_eq!((xor, allocs), (limit.clone(), 0));
    let (built, allocs) = allocations(|| Matching::from_pairs(n, &[(0, 1)]));
    assert_eq!((built, allocs), (limit.clone(), 0));
    // A refused refill leaves the matching it was given untouched.
    let mut m = Matching::shift(4, 1).unwrap();
    let mut has_src = Vec::new();
    let (refill, allocs) = allocations(|| m.refill_from_pairs(n, &[], &mut has_src));
    assert_eq!((refill, allocs), (limit.map(|_: Matching| ()), 0));
    assert_eq!(m, Matching::shift(4, 1).unwrap());
    assert_eq!(
        MatrixError::TooManyPorts { n }.to_string(),
        "a matching spans at most 4294967295 ports, not 4294967296"
    );
    // The largest domain passes the port check (the identity shift then
    // fails, before anything is built).
    let largest = u32::MAX as usize;
    assert_eq!(
        Matching::shift(largest, largest),
        Err(MatrixError::IdentityShift {
            shift: largest,
            n: largest
        })
    );
}
