//! Arena-backed per-step simulator state: the zero-allocation hot path.
//!
//! A steady-state step (the `run_workload_totals` path, and a
//! `ServiceExecutor` step) must not touch the heap. Everything the step
//! needs — the circuit layout, each flow's arc, rates, remaining volumes,
//! active sets, the sharing components and the max-min solver scratch —
//! lives in one long-lived [`CircuitScratch`] owned by the executor and
//! recycled across steps (the executor keeps its pair and
//! reconfiguration-target buffers next to it). Buffers are dense
//! index-based SoA (a flow is a first slot and a hop count, not a `Vec`,
//! and there is no `Box<dyn>` anywhere per flow or per link), so a step is
//! a handful of `clear()`s plus in-place pushes into capacity that already
//! exists after warm-up. [`FluidScratch`], the explicit-path API's
//! scratch, follows the same rules for flows shaped like a circuit step;
//! the seed engine it runs every other flow set on allocates.
//!
//! ## Mutability classes
//!
//! Following the `murk-arena` exemplar, every buffer here belongs to one
//! of four classes, which is what makes the recycling sound:
//!
//! * **Static** — fixed for the scratch's lifetime: the buffers
//!   themselves (their capacity only ratchets up, never shrinks), and
//!   [`FluidScratch::reference_runs`], a monotone counter.
//! * **Per-step** — rebuilt from scratch each step by `clear()` + push:
//!   the [`CircuitScratch`] layout (refilled in place, and skipped on a
//!   step of direct circuits), each flow's first slot, hop count and
//!   finish time; for [`FluidScratch`], the CSR flow table
//!   ([`FluidScratch::start`] / [`FluidScratch::push_link`] /
//!   [`FluidScratch::seal_flow`]), the finish times, and the circuit-shape
//!   check's active list and per-link `seen_at` and `fed_link`, which
//!   every simulation resets before it reads them. Its `arcs`, the circuit
//!   scratch of flows that have the shape, follows [`CircuitScratch`]'s
//!   classes.
//! * **Per-round** — mutated incrementally *within* one fluid simulation
//!   as completion rounds retire flows: [`CircuitScratch`]'s rates,
//!   remaining volumes, and the ping-pong `active`/`still` generation pair
//!   (swapped each round, never reallocated). Its sharing components
//!   belong here too: `comps`, `members` and `comp_of` are built once per
//!   step, and a round that retires flows empties each component it
//!   touched and appends the pieces that component splits into (at most
//!   three entries per flow over a step).
//! * **Per-solve** — [`CircuitScratch`]'s buffers indexed by the slots of
//!   one run (`users`, `joins`, `owner`, `cap_left`, `fair`, `link_id`),
//!   plus `counts`, `sorted`, `unfrozen` and `pending`: each split or solve resizes
//!   them to its run and writes them before it reads them. The freeze
//!   difference array (`joins` during a solve) is zeroed by the pass that
//!   reads it, so a bottleneck round pays no separate reset.
//!
//! The invariant is regression-tested: a counting `#[global_allocator]`
//! test (`crates/sim/tests/zero_alloc.rs`) proves that a 100k-step endless
//! `TrainingLoop`, two such jobs on a `ServiceExecutor`, and a recycled
//! [`FluidScratch`] replaying circuit-shaped explicit flows perform zero
//! allocations per steady-state step, and the differential suites pin the
//! arc solve, through either face, to the seed oracle bit for bit.

use aps_topology::Circuits;

/// Scratch for one explicit-path fluid simulation: the CSR flow table, the
/// circuit-shape check's buffers and the arc solve's scratch. Reused across
/// simulations; see the [module docs](self) for the mutability classes.
#[derive(Debug, Default)]
pub struct FluidScratch {
    // --- CSR flow table (per-step) ---
    /// Flow `i`'s path is `path_data[path_off[i]..path_off[i+1]]`.
    pub(crate) path_off: Vec<usize>,
    /// Concatenated link ids of all flow paths.
    pub(crate) path_data: Vec<usize>,
    /// Volume in bytes per flow.
    pub(crate) bytes: Vec<f64>,
    /// Finish time per flow (seconds), the simulation's output.
    pub(crate) finish: Vec<f64>,

    // --- flows shaped like a circuit step (per-step) ---
    /// Active flow ids (a volume and a path), ascending.
    pub(crate) active: Vec<usize>,
    /// Per link: where the first path that crosses it and goes on does
    /// so, as (position in `path_data`, end of that path); unset while no
    /// path has.
    pub(crate) seen_at: Vec<(usize, usize)>,
    /// Per link: some path crosses another link right before it.
    pub(crate) fed_link: Vec<bool>,
    /// The arc solve's scratch, with the links laid out as circuits.
    pub(crate) arcs: CircuitScratch,

    /// How many simulations ran on the seed engine (static; monotone).
    pub(crate) reference_runs: u64,
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

    /// How many simulations since this scratch was created ran on the seed
    /// engine ([`crate::fluid::reference`]) because their flows were not
    /// shaped like a circuit step. The delta across one
    /// [`crate::fluid::simulate_flows_scratch`] call is 1 then, and 0 when
    /// the arc solve took the flows.
    pub fn reference_runs(&self) -> u64 {
        self.reference_runs
    }
}

/// One sharing component of a circuit step: a run of consecutive slots of
/// one chain or cycle of the [`Circuits`] layout, and the flows whose arcs
/// lie on it. Local slot `k` of the run is layout slot
/// `base + (from + k) % size`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    /// First slot of the chain or cycle the run lies on.
    pub(crate) base: usize,
    /// Slots of that chain or cycle.
    pub(crate) size: usize,
    /// First slot of the run, counted from `base`.
    pub(crate) from: usize,
    /// Slots in the run.
    pub(crate) len: usize,
    /// The run is a whole cycle joined at every boundary, so arcs may wrap
    /// past its last slot to its first.
    pub(crate) closed: bool,
    /// Its flows are `CircuitScratch::members[lo..hi]`; `lo == hi` once
    /// they have all departed.
    pub(crate) lo: usize,
    /// See `lo`.
    pub(crate) hi: usize,
    /// A flow of the run departed in the current completion round.
    pub(crate) dirty: bool,
}

/// Scratch for one step on a circuit configuration: the layout, each
/// flow's arc, and the buffers of the arc solve
/// ([`crate::fluid::simulate_circuit_step`]). Reused across steps; see the
/// [module docs](self) for the mutability classes.
#[derive(Debug, Default)]
pub struct CircuitScratch {
    // --- layout and arcs (per-step) ---
    /// The step's configuration, laid out in slots.
    pub(crate) layout: Circuits,
    /// Per flow: the slot of its first link.
    pub(crate) first: Vec<usize>,
    /// Per flow: its hop count, the length of its arc.
    pub(crate) hops: Vec<usize>,
    /// Per flow: finish time in seconds, the solve's output.
    pub(crate) finish: Vec<f64>,

    // --- completion rounds (per-round) ---
    /// Current max-min rate per flow.
    pub(crate) rates: Vec<f64>,
    /// Remaining bytes per flow.
    pub(crate) remaining: Vec<f64>,
    /// Active flow ids, ascending — one of two ping-pong generations.
    pub(crate) active: Vec<usize>,
    /// The other generation: this round's survivors.
    pub(crate) still: Vec<usize>,
    /// Per flow: its sharing component, an index into `comps`.
    pub(crate) comp_of: Vec<usize>,
    /// Sharing components. A re-solved component is replaced by the
    /// components it splits into, so there are fewer than three per flow.
    pub(crate) comps: Vec<Run>,
    /// Flow ids grouped by component (see [`Run`]).
    pub(crate) members: Vec<usize>,
    /// Components with a departure this round.
    pub(crate) dirty: Vec<usize>,

    // --- one split or solve (per-solve; index = slot of the run) ---
    /// Difference array of arcs over the run's slots, then user counts.
    pub(crate) users: Vec<isize>,
    /// Difference array of arcs over the run's boundaries (boundary `k`
    /// joins slots `k` and `k + 1`), then how many flows cross each.
    pub(crate) joins: Vec<isize>,
    /// Which component of the split each slot went to.
    pub(crate) owner: Vec<usize>,
    /// Bucket bounds of a counting sort (by chain or by split component).
    pub(crate) counts: Vec<usize>,
    /// Flow ids in their sorted order, before they go back to `members`.
    pub(crate) sorted: Vec<usize>,
    /// Residual capacity per slot.
    pub(crate) cap_left: Vec<f64>,
    /// `cap_left / users` per slot; `+∞` once no unfrozen flow crosses it.
    pub(crate) fair: Vec<f64>,
    /// Link id per slot, for the bottleneck tie-break.
    pub(crate) link_id: Vec<usize>,
    /// Unfrozen flows: (flow, first slot of the run it crosses, hops).
    pub(crate) unfrozen: Vec<(usize, usize, usize)>,
    /// Slots a bottleneck's flows cross that keep an unfrozen user, and how
    /// many of those flows cross each.
    pub(crate) pending: Vec<(usize, usize)>,
}

impl CircuitScratch {
    /// A fresh scratch with no capacity; every buffer warms up on first
    /// use and is recycled afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of flows of the last step.
    pub fn num_flows(&self) -> usize {
        self.hops.len()
    }

    /// Finish time of flow `i` in seconds (transmission only), valid after
    /// a step ran.
    pub fn finish_of(&self, i: usize) -> f64 {
        self.finish[i]
    }

    /// Hop count of flow `i`.
    pub fn hops_of(&self, i: usize) -> usize {
        self.hops[i]
    }
}
