//! The arena regression test: a steady-state streaming step performs
//! **zero heap allocations**.
//!
//! A counting `#[global_allocator]` wraps the system allocator, and the
//! test measures by *two-run delta*: the same endless [`TrainingLoop`] is
//! driven through [`run_workload_totals`] twice on fresh, identical
//! setups — once for `K` steps, once for `K + EXTRA` steps. Everything up
//! to step `K` (arena warm-up, θ-cache misses, workload construction) is
//! a bitwise-identical prefix of both runs, so the difference in
//! allocation counts is exactly the heap traffic of the `EXTRA`
//! steady-state steps — which must be zero.
//!
//! The open-system [`ServiceExecutor`] is measured the same way: two
//! endless training jobs admitted side by side, stepped `K` and
//! `K + EXTRA` times, once on an all-photonic [`CircuitSwitch`] and once
//! on a switch whose first job sits on the electrical crossbar. So is the
//! explicit-path API on flows shaped like a circuit step: one recycled
//! [`FluidScratch`] replays a ring shift and direct circuits in turn.
//!
//! Everything lives in one `#[test]` so no concurrent test can perturb
//! the counter, and the counter itself is *thread-scoped*: only the test
//! thread opts in, so allocations made by libtest's harness machinery on
//! its own threads (which run concurrently with the measured region)
//! never reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use aps_collectives::workload::generators::TrainingLoop;
use aps_core::controller::{AlwaysReconfigure, Controller, Greedy, Static};
use aps_core::ConfigChoice;
use aps_cost::units::MIB;
use aps_cost::ReconfigModel;
use aps_fabric::CircuitSwitch;
use aps_matrix::Matching;
use aps_sim::service::{ServiceExecutor, ServiceJobSpec, ServiceSwitching};
use aps_sim::stream::{run_workload_totals, StreamPricing, StreamSummary};
use aps_sim::{simulate_flows_scratch, FluidScratch, RunConfig};
use aps_topology::builders;

/// Counts every allocation-path call (alloc, alloc_zeroed, realloc);
/// frees are not interesting here.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Opt-in switch: only the thread that flipped this on contributes to
    /// [`ALLOCS`]. Const-initialized TLS never allocates on first access,
    /// so reading it from inside the global allocator cannot recurse.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation-path call iff the current thread opted in.
/// `try_with` (not `with`) so late allocations during TLS teardown are
/// silently untracked instead of panicking inside the allocator.
#[inline]
fn count_if_tracked() {
    if TRACK.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
static A: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const N: usize = 8;
/// Warm-up budget: several full epochs, so every distinct matching has a
/// θ-cache entry and every arena buffer has hit its high-water mark.
const WARMUP: usize = 200;
/// The steady-state stretch whose allocation delta must be zero.
const EXTRA: usize = 100_000;

/// Runs `steps` of the endless training loop under `controller` on a
/// fresh fabric, returning the summary and the allocation count the run
/// spent.
fn run(steps: usize, controller: &dyn Controller) -> (StreamSummary, u64) {
    let base = builders::ring_unidirectional(N).unwrap();
    let ring = Matching::shift(N, 1).unwrap();
    let reconfig = ReconfigModel::constant(5e-6).unwrap();
    let mut fabric = CircuitSwitch::new(ring, reconfig);
    let mut workload = TrainingLoop::new(N, 4, MIB, 4.0 * MIB, None).unwrap();
    let pricing = StreamPricing::new(reconfig);
    let cfg = RunConfig::paper_defaults();
    let before = allocs();
    let summary = run_workload_totals(
        &mut fabric,
        &base,
        &mut workload,
        controller,
        pricing,
        &cfg,
        steps,
    )
    .unwrap();
    (summary, allocs() - before)
}

/// Executes `steps` service steps of two endless matched training jobs,
/// each on its own `N`-port half of a `2N`-port switch whose ports
/// `0..crossbar_below` hang off the electrical crossbar, returning the
/// summary and the allocation count the steps spent. Set-up and admission
/// stay outside the counted region.
fn run_service(steps: usize, crossbar_below: usize) -> (StreamSummary, u64) {
    let rings: Vec<(usize, usize)> = (0..2 * N).map(|p| (p, p - p % N + (p + 1) % N)).collect();
    let base = Matching::from_pairs(2 * N, &rings).unwrap();
    let reconfig = ReconfigModel::constant(5e-6).unwrap();
    let mut fabric = CircuitSwitch::split(base, crossbar_below, reconfig).unwrap();
    let mut exec = ServiceExecutor::new(2 * N, RunConfig::paper_defaults(), false);
    for job in 0..2 {
        let spec = ServiceJobSpec {
            name: format!("train-{job}"),
            ports: (job * N..(job + 1) * N).collect(),
            base_config: Matching::shift(N, 1).unwrap(),
            workload: Box::new(TrainingLoop::new(N, 4, MIB, 4.0 * MIB, None).unwrap()),
            switching: ServiceSwitching::Uniform(ConfigChoice::Matched),
        };
        exec.admit(job as u64, spec, 0).unwrap();
    }
    let before = allocs();
    for _ in 0..steps {
        assert!(
            exec.execute_next(&mut fabric, None).is_none(),
            "endless jobs never depart"
        );
    }
    (exec.stream_summary(), allocs() - before)
}

/// Replays `steps` explicit-path solves in one fresh, recycled scratch,
/// alternating an `N`-link ring shift by 3 and `N` direct circuits, and
/// returns the summed finish times and the allocation count the steps
/// spent. Both flow sets are shaped like a circuit step, so the arc solve
/// takes them; the seed engine would allocate.
fn run_explicit(steps: usize) -> (f64, u64) {
    let caps = vec![RunConfig::paper_defaults().params.bandwidth_bytes_per_sec(); N];
    let mut scratch = FluidScratch::new();
    let mut finished = 0.0;
    let before = allocs();
    for step in 0..steps {
        let hops = if step % 2 == 0 { 3 } else { 1 };
        scratch.start();
        for src in 0..N {
            for h in 0..hops {
                scratch.push_link((src + h) % N);
            }
            scratch.seal_flow(MIB);
        }
        simulate_flows_scratch(&caps, &mut scratch);
        finished += scratch.finish_of(N - 1);
    }
    (finished, allocs() - before)
}

#[test]
fn steady_state_step_allocates_nothing() {
    // One test fn, and only this thread feeds the counter.
    TRACK.with(|t| t.set(true));
    for (name, controller) in [
        ("static", &Static as &dyn Controller),
        ("always-reconfigure", &AlwaysReconfigure),
        ("greedy", &Greedy),
    ] {
        let (short, allocs_short) = run(WARMUP, controller);
        let (long, allocs_long) = run(WARMUP + EXTRA, controller);
        assert_eq!(short.steps, WARMUP, "{name}: short run executed");
        assert_eq!(long.steps, WARMUP + EXTRA, "{name}: long run executed");
        // The long run strictly extends the short one.
        assert!(long.total_ps > short.total_ps, "{name}: stream advanced");
        let delta = allocs_long - allocs_short;
        assert_eq!(
            delta, 0,
            "{name}: {EXTRA} steady-state steps performed {delta} heap \
             allocations (want 0); warm-up spent {allocs_short}"
        );
    }
    for (name, crossbar_below) in [("service", 0), ("service, half crossbar", N)] {
        let (short, allocs_short) = run_service(WARMUP, crossbar_below);
        let (long, allocs_long) = run_service(WARMUP + EXTRA, crossbar_below);
        assert_eq!(short.steps, WARMUP, "{name}: short run executed");
        assert_eq!(long.steps, WARMUP + EXTRA, "{name}: long run executed");
        assert!(long.total_ps > short.total_ps, "{name}: clocks advanced");
        let delta = allocs_long - allocs_short;
        assert_eq!(
            delta, 0,
            "{name}: {EXTRA} steady-state steps performed {delta} heap \
             allocations (want 0); warm-up spent {allocs_short}"
        );
    }
    let (short, allocs_short) = run_explicit(WARMUP);
    let (long, allocs_long) = run_explicit(WARMUP + EXTRA);
    assert!(long > short, "explicit paths: solves ran");
    let delta = allocs_long - allocs_short;
    assert_eq!(
        delta, 0,
        "explicit paths: {EXTRA} steady-state solves performed {delta} heap \
         allocations (want 0); warm-up spent {allocs_short}"
    );
}
