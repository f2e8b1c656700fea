//! Building a schedule allocates O(n log n) bytes: the size of the
//! schedule itself, never a chunk list, and one matching per distinct
//! step, never one per step.
//!
//! A counting `#[global_allocator]` adds up the bytes every allocation
//! asks for (a `realloc` counts its whole new block), and only the test
//! thread opts in, so libtest's own threads never reach the counter.
//! Halving-doubling AllReduce over `n` ports has `2·log₂ n` steps of one
//! `n`-port matching each; the bound below leaves room for that schedule
//! and the builder's per-step scratch, while listing every step's chunk
//! ids would take hundreds of megabytes at 4,096 ports. The ring
//! AllReduce, AllGather and ReduceScatter repeat one shift in each of
//! their `2(n − 1)` or `n − 1` steps: their steps share that matching, and
//! one copy per step would take 135 or 67.6 MB at 4,096 ports.
//!
//! Everything lives in one `#[test]` so no concurrent test shares the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use aps_collectives::workload::generators::TrainingLoop;
use aps_collectives::{allgather, allreduce, reduce_scatter};

/// Adds up the bytes of every allocation-path call (alloc, alloc_zeroed,
/// realloc); frees are not interesting here.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Opt-in switch: only the thread that flipped this on contributes to
    /// [`BYTES`]. Const-initialized TLS never allocates on first access,
    /// so reading it from inside the global allocator cannot recurse.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

/// Counts `size` bytes iff the current thread opted in. `try_with` (not
/// `with`) so late allocations during TLS teardown are silently untracked
/// instead of panicking inside the allocator.
#[inline]
fn count_if_tracked(size: usize) {
    if TRACK.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracked(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_tracked(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracked(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes `f` allocates on this thread.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BYTES.store(0, Ordering::Relaxed);
    TRACK.with(|t| t.set(true));
    let out = f();
    TRACK.with(|t| t.set(false));
    (out, BYTES.load(Ordering::Relaxed))
}

#[test]
fn schedules_allocate_n_log_n_bytes() {
    const N: usize = 4096;
    const MIB: f64 = 1024.0 * 1024.0;
    let bound = 64 * (N * N.trailing_zeros() as usize) as u64;

    let (hd, bytes) = bytes_allocated(|| allreduce::halving_doubling::build(N, MIB));
    assert_eq!(
        hd.expect("a power-of-two allreduce").schedule.num_steps(),
        24
    );
    assert!(
        bytes <= bound,
        "halving-doubling over {N} ports allocated {bytes} bytes, bound {bound}"
    );

    let rings = [
        (
            "ring AllReduce",
            2 * (N - 1),
            allreduce::ring::build as fn(_, _) -> _,
        ),
        ("ring AllGather", N - 1, allgather::ring),
        ("ring ReduceScatter", N - 1, reduce_scatter::ring),
    ];
    for (name, steps, build) in rings {
        let (ring, bytes) = bytes_allocated(|| build(N, MIB));
        assert_eq!(ring.expect("a ring").schedule.num_steps(), steps, "{name}");
        assert!(
            bytes <= bound,
            "{name} over {N} ports allocated {bytes} bytes, bound {bound}"
        );
    }

    let (train, bytes) = bytes_allocated(|| TrainingLoop::new(N, 4, MIB, MIB, Some(1)));
    train.expect("a valid training loop");
    assert!(
        bytes <= bound,
        "TrainingLoop::new over {N} ports allocated {bytes} bytes, bound {bound}"
    );
}
