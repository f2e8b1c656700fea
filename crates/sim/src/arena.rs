//! Arena-backed per-step simulator state: the zero-allocation hot path.
//!
//! A steady-state step (the `run_workload_totals` path, and a
//! `ServiceExecutor` step) must not touch the heap. Everything the step
//! needs — matching pairs, link capacities, router scratch, flow paths,
//! rates, remaining volumes, active sets, the component walk and max-min
//! solver scratch and the link→flows sharing index — lives in one
//! long-lived [`StepScratch`] owned by the executor and recycled across
//! steps (the executor keeps its reconfiguration-target buffers next to
//! it). Buffers are dense index-based SoA (flow `i`'s path is a CSR slice,
//! not a `Vec` per flow, and there is no `Box<dyn>` anywhere per flow or
//! per link), so a step is a handful of `clear()`s plus in-place pushes
//! into capacity that already exists after warm-up.
//!
//! ## Mutability classes
//!
//! Following the `murk-arena` exemplar, every buffer here belongs to one
//! of three classes, which is what makes the recycling sound:
//!
//! * **Static** — fixed for the scratch's lifetime: the buffers
//!   themselves (their capacity only ratchets up, never shrinks), and
//!   [`FluidScratch::index_builds`], a monotone counter.
//! * **Per-step** — rebuilt from scratch each step by `clear()` + push:
//!   the pair list, capacities, the sender→link router map, and the CSR
//!   flow table ([`FluidScratch::start`] / [`FluidScratch::push_link`] /
//!   [`FluidScratch::seal_flow`]).
//! * **Per-round** — mutated incrementally *within* one fluid simulation
//!   as completion rounds retire flows: rates, remaining volumes, the
//!   ping-pong `active`/`still` generation pair (swapped each round, never
//!   reallocated), and the link→flows index (built once per simulation,
//!   then maintained by removal as flows depart — the pre-arena engine
//!   rebuilt it on every completion, the bug this class exists to
//!   prevent). The component walk's buffers belong here too: the per-flow
//!   `frozen` flags and per-link `link_seen` marks are sized once per
//!   simulation and every pass hands them back all frozen and all
//!   unmarked, so no pass pays an O(flows + links) reset; the walked
//!   `links` list is cleared after each pass; and the per-link `cap_left`
//!   and `users` the filling reads are written by the walk first.
//!
//! The invariant is regression-tested: a counting `#[global_allocator]`
//! test (`crates/sim/tests/zero_alloc.rs`) proves a 100k-step endless
//! `TrainingLoop`, and two such jobs on a `ServiceExecutor`, perform zero
//! allocations per steady-state step, and the differential suites pin
//! that the arena engine is bit-identical to the seed oracle.

/// Sentinel for "link not present" in [`StepScratch::link_of`].
pub(crate) const UNUSED: usize = usize::MAX;

/// Scratch for one fluid simulation: the CSR flow table plus every buffer
/// the event-driven max-min engine needs. Reused across steps; see the
/// [module docs](self) for the mutability classes.
#[derive(Debug, Default)]
pub struct FluidScratch {
    // --- CSR flow table (per-step) ---
    /// Flow `i`'s path is `path_data[path_off[i]..path_off[i+1]]`.
    pub(crate) path_off: Vec<usize>,
    /// Concatenated link ids of all flow paths.
    pub(crate) path_data: Vec<usize>,
    /// Volume in bytes per flow.
    pub(crate) bytes: Vec<f64>,

    // --- engine state (per-round) ---
    /// Current max-min rate per flow (stale for finished flows).
    pub(crate) rates: Vec<f64>,
    /// Remaining bytes per flow.
    pub(crate) remaining: Vec<f64>,
    /// Finish time per flow (seconds), the simulation's output.
    pub(crate) finish: Vec<f64>,
    /// Active flow ids, ascending — one of the two ping-pong generations.
    pub(crate) active: Vec<usize>,
    /// The other generation: survivors of the current round, swapped into
    /// `active` at the round boundary.
    pub(crate) still: Vec<usize>,
    /// Flows that completed in the current round, ascending.
    pub(crate) completed: Vec<usize>,

    // --- component walk and max-min solver scratch (per-round) ---
    /// Per flow: `true` once its rate is settled. The walk clears the flag
    /// of every flow it reaches and the filling sets it again, so it is all
    /// `true` between passes.
    pub(crate) frozen: Vec<bool>,
    /// Links walked in the current pass, one run per component, each run
    /// sorted ascending for the bottleneck scan; also the walk's queue.
    pub(crate) links: Vec<usize>,
    /// Per link: walked in the current pass; all `false` between passes.
    pub(crate) link_seen: Vec<bool>,
    /// Residual capacity per link, valid for links walked in this pass.
    pub(crate) cap_left: Vec<f64>,
    /// Unfrozen-user count per link, valid for links walked in this pass.
    pub(crate) users: Vec<usize>,

    // --- link→flows sharing index (built once per simulation, then
    // --- maintained incrementally as flows complete) ---
    /// Active flows crossing each link, one entry per hop, in no order.
    pub(crate) flows_of_link: Vec<Vec<usize>>,

    /// How many times the link→flows index was built from scratch —
    /// exactly once per simulation (static; monotone). The regression
    /// hook for the old per-completion rebuild bug.
    index_builds: u64,
}

impl FluidScratch {
    /// A fresh scratch with no capacity; every buffer warms up on first
    /// use and is recycled afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins a new flow table, discarding the previous step's flows
    /// (capacity is retained).
    pub fn start(&mut self) {
        self.path_off.clear();
        self.path_off.push(0);
        self.path_data.clear();
        self.bytes.clear();
    }

    /// Appends one link to the path of the flow currently being built.
    pub fn push_link(&mut self, link: usize) {
        self.path_data.push(link);
    }

    /// Seals the flow currently being built with its volume; subsequent
    /// [`FluidScratch::push_link`] calls start the next flow's path.
    pub fn seal_flow(&mut self, bytes: f64) {
        self.bytes.push(bytes);
        self.path_off.push(self.path_data.len());
    }

    /// Number of flows currently loaded.
    pub fn num_flows(&self) -> usize {
        self.bytes.len()
    }

    /// Finish time of flow `i` in seconds, valid after a simulation ran.
    pub fn finish_of(&self, i: usize) -> f64 {
        self.finish[i]
    }

    /// Hop count of flow `i`'s path.
    pub fn path_len(&self, i: usize) -> usize {
        self.path_off[i + 1] - self.path_off[i]
    }

    /// Loads a materialized spec slice into the flow table (the
    /// compatibility bridge for the `simulate_flows(caps, specs)` entry
    /// point; the hot path builds the table in place instead).
    pub fn load_specs(&mut self, specs: &[crate::fluid::FlowSpec]) {
        self.start();
        for s in specs {
            for &l in &s.path {
                self.push_link(l);
            }
            self.seal_flow(s.bytes);
        }
    }

    /// How many times the link→flows sharing index was built from scratch
    /// since this scratch was created. The fluid engine builds it exactly
    /// once per simulation and maintains it incrementally as flows
    /// complete, so the delta across one `simulate_flows` call is 1.
    pub fn index_builds(&self) -> u64 {
        self.index_builds
    }

    /// Records one from-scratch construction of the sharing index.
    pub(crate) fn note_index_build(&mut self) {
        self.index_builds += 1;
    }
}

/// All scratch one simulated step needs: the fluid engine's buffers plus
/// the step-level routing and capacity buffers. One instance per executor
/// run, recycled every step.
#[derive(Debug, Default)]
pub struct StepScratch {
    /// The fluid engine's scratch.
    pub(crate) fluid: FluidScratch,
    /// Per-link capacities for the step's circuit topology (per-step).
    pub(crate) caps: Vec<f64>,
    /// Sender port → link id on the current circuit configuration, in
    /// `from_matching` id order (links are numbered by ascending sender);
    /// [`UNUSED`] for silent ports (per-step).
    pub(crate) link_of: Vec<usize>,
}

impl StepScratch {
    /// A fresh scratch; buffers warm up on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
