//! Arena-backed per-step simulator state: the zero-allocation hot path.
//!
//! A steady-state step (the `run_workload_totals` path, and a
//! `ServiceExecutor` step) must not touch the heap. Everything the step
//! needs — the circuit layout, each flow's arc, rates, remaining volumes,
//! active sets, the sharing components and the max-min solver scratch —
//! lives in one long-lived [`CircuitScratch`] owned by the executor and
//! recycled across steps (the executor keeps its pair and
//! reconfiguration-target buffers and its `StepMemo` next to it). Buffers
//! are dense index-based SoA (a flow is a first slot and a hop count, not
//! a `Vec`, and there is no `Box<dyn>` anywhere per flow or per link), so
//! a step is a handful of `clear()`s plus in-place pushes into capacity
//! that already exists after warm-up. [`FluidScratch`], the explicit-path
//! API's scratch, follows the same rules for flows shaped like a circuit
//! step; the seed engine it runs every other flow set on allocates.
//!
//! ## Mutability classes
//!
//! Following the `murk-arena` exemplar, every buffer here belongs to one
//! of five classes, which is what makes the recycling sound:
//!
//! * **Static** — fixed for the scratch's lifetime: the buffers
//!   themselves (their capacity only ratchets up, never shrinks), and
//!   [`FluidScratch::reference_runs`], a monotone counter.
//! * **Per-executor** — the `StepMemo`: kept across the steps and jobs
//!   of one executor, whose bandwidth and δ its answers assume. Each
//!   entry's key lives in buffers of its own, copied in with `clone_from`
//!   and never handed out, so a job rebuilding its matchings in place never
//!   finds a buffer the memo shares. A full memo overwrites its oldest
//!   entry in place, so once each entry's buffers have held the largest
//!   key, remembering a step allocates nothing.
//! * **Per-step** — rebuilt from scratch each step by `clear()` + push:
//!   the [`CircuitScratch`] layout (refilled in place, and kept when the
//!   configuration equals the one it was laid out from, which it copies
//!   into a buffer of its own), and each flow's first slot, hop count and
//!   finish time. For [`FluidScratch`]: the CSR flow table
//!   ([`FluidScratch::start`] / [`FluidScratch::push_link`] /
//!   [`FluidScratch::seal_flow`]), the finish times, and the circuit-shape
//!   checks' active list and per-link `seen_at` and `fed_link` (the
//!   one-pass check for direct circuits marks links there too), which
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
//! `TrainingLoop`, two such jobs on a `ServiceExecutor` (matched, matched
//! with one on ports out of order, and on their base rings, where the memo
//! hits and evicts), and a recycled
//! [`FluidScratch`] replaying circuit-shaped explicit flows perform zero
//! allocations per steady-state step, and the differential suites pin the
//! arc solve, through either face, to the seed oracle bit for bit.

use aps_matrix::Matching;
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
    /// Per link: some path crosses another link right before it; in the
    /// one-pass check for direct circuits, some one-link path crosses it.
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
    /// The configuration `layout` was laid out from, in a buffer of its
    /// own; `None` once the layout came from anything else. A step on the
    /// same configuration keeps the layout.
    pub(crate) laid_out: Option<Matching>,
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
    ///
    /// # Panics
    ///
    /// When `i` is not below [`num_flows`](Self::num_flows).
    pub fn finish_of(&self, i: usize) -> f64 {
        self.finish[i]
    }

    /// Hop count of flow `i`.
    ///
    /// # Panics
    ///
    /// When `i` is not below [`num_flows`](Self::num_flows).
    pub fn hops_of(&self, i: usize) -> usize {
        self.hops[i]
    }

    /// The last step's largest hop count and latest `finish + delta_s ·
    /// hops` over its flows, `(0, 0.0)` for a step with none: what the
    /// step's transfer takes with propagation.
    pub(crate) fn slowest(&self, delta_s: f64) -> (usize, f64) {
        self.hops
            .iter()
            .zip(&self.finish)
            .fold((0, 0.0f64), |(hops, worst), (&h, &f)| {
                (hops.max(h), worst.max(f + delta_s * h as f64))
            })
    }
}

/// How many steps a [`StepMemo`] remembers.
const STEP_MEMO_ENTRIES: usize = 16;

/// One remembered step: its key, in buffers of the memo's own, and its
/// [`CircuitScratch::slowest`].
#[derive(Debug)]
struct Remembered {
    /// The step's volume per pair, by its bits.
    bytes: u64,
    /// The job's local target.
    target: Matching,
    /// The step's matching, in the job's local ranks.
    demand: Matching,
    /// Largest hop count and latest `finish + δ · hops`.
    slowest: (usize, f64),
}

/// The slowest flow of recent routed steps, by job-local key: the job's
/// local target, the step's matching in local ranks, and the volume's bits.
/// One executor owns it, so bandwidth and δ are fixed; `exec::execute_step`
/// asks it only where the key determines the step. Holds 16 steps and
/// replaces the oldest; see the [module docs](self) for its class.
#[derive(Debug, Default)]
pub(crate) struct StepMemo {
    /// The remembered steps, at most `STEP_MEMO_ENTRIES`.
    entries: Vec<Remembered>,
    /// The entry the next insertion replaces once the memo is full.
    oldest: usize,
}

impl StepMemo {
    /// How many steps the memo holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The remembered slowest flow of the step keyed `(target, demand,
    /// bytes)`. An entry is rejected on the volume and the pair count
    /// before any port is compared.
    pub(crate) fn get(
        &self,
        target: &Matching,
        demand: &Matching,
        bytes: f64,
    ) -> Option<(usize, f64)> {
        let bits = bytes.to_bits();
        self.entries
            .iter()
            .find(|e| {
                e.bytes == bits
                    && e.demand.len() == demand.len()
                    && e.demand == *demand
                    && e.target == *target
            })
            .map(|e| e.slowest)
    }

    /// Remembers the step keyed `(target, demand, bytes)`, in place of the
    /// oldest entry once the memo is full. The key is copied into the
    /// entry's own buffers (`clone_from` into a buffer no clone shares), so
    /// the caller keeps rebuilding its matchings in place and a warm memo
    /// allocates nothing.
    pub(crate) fn insert(
        &mut self,
        target: &Matching,
        demand: &Matching,
        bytes: f64,
        slowest: (usize, f64),
    ) {
        let at = if self.entries.len() < STEP_MEMO_ENTRIES {
            self.entries.push(Remembered {
                bytes: 0,
                target: Matching::empty(0),
                demand: Matching::empty(0),
                slowest,
            });
            self.entries.len() - 1
        } else {
            let at = self.oldest;
            self.oldest = (at + 1) % STEP_MEMO_ENTRIES;
            at
        };
        let e = &mut self.entries[at];
        e.bytes = bytes.to_bits();
        e.target.clone_from(target);
        e.demand.clone_from(demand);
        e.slowest = slowest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_step_memo_answers_its_own_keys_and_replaces_the_oldest() {
        let shift = |k| Matching::shift(16, k).unwrap();
        let ring = shift(1);
        let mut memo = StepMemo::default();
        let mut demand = shift(2);
        memo.insert(&ring, &demand, 1024.0, (2, 1.5));
        assert_eq!(memo.get(&ring, &shift(2), 1024.0), Some((2, 1.5)));
        // Another volume, even one bit away, another demand and another
        // target are other keys.
        assert_eq!(memo.get(&ring, &shift(2), 1024.0f64.next_up()), None);
        assert_eq!(memo.get(&ring, &shift(3), 1024.0), None);
        assert_eq!(memo.get(&shift(3), &shift(2), 1024.0), None);
        let fewer = Matching::from_pairs(16, &[(0, 2), (1, 3)]).unwrap();
        assert_eq!(memo.get(&ring, &fewer, 1024.0), None);
        // The key was copied: rebuilding the caller's matching in place
        // leaves it.
        let pairs: Vec<(usize, usize)> = shift(5).pairs().collect();
        demand
            .refill_from_pairs(16, &pairs, &mut Vec::new())
            .unwrap();
        assert_eq!(memo.get(&ring, &shift(2), 1024.0), Some((2, 1.5)));
        assert_eq!(memo.get(&ring, &demand, 1024.0), None);
        // Sixteen entries; each further step replaces the oldest.
        for v in 1..STEP_MEMO_ENTRIES {
            memo.insert(&ring, &shift(2), v as f64, (v, v as f64));
        }
        assert_eq!(memo.len(), STEP_MEMO_ENTRIES);
        memo.insert(&ring, &shift(7), 1024.0, (7, 7.0));
        assert_eq!(memo.get(&ring, &shift(2), 1024.0), None);
        assert_eq!(memo.get(&ring, &shift(2), 1.0), Some((1, 1.0)));
        memo.insert(&ring, &shift(8), 1024.0, (8, 8.0));
        assert_eq!(memo.get(&ring, &shift(2), 1.0), None);
        assert_eq!(memo.get(&ring, &shift(2), 2.0), Some((2, 2.0)));
        assert_eq!(memo.get(&ring, &shift(7), 1024.0), Some((7, 7.0)));
        assert_eq!(memo.len(), STEP_MEMO_ENTRIES);
    }
}
