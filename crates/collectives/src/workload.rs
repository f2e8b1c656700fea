//! Streaming workloads: lazily-pulled demand for open-ended runs.
//!
//! A [`Schedule`] is a *materialized* demand: every step resident in memory
//! before the first simulated picosecond. Real scale-up domains see
//! open-ended demand — epoch-looped DNN training, bursty permutation
//! traffic — whose step streams are unbounded or too long to precompute.
//! The [`Workload`] trait is the lazy face of the same `⟨(M₁, m₁), …⟩`
//! model: a seeded, deterministic stream of [`Step`]s pulled one at a
//! time, so executors run million-step (or endless) workloads in O(1)
//! schedule memory.
//!
//! * [`ScheduleStream`] makes every materialized [`Schedule`] a workload
//!   (the trivial impl — see [`Schedule::into_workload`] /
//!   [`Schedule::stream`]).
//! * [`generators`] ships lazy demand sources: a pipeline-parallel
//!   training loop, seeded random-permutation traffic and on/off bursty
//!   uniform traffic. Each one's `epochs`/`steps` argument bounds it, or
//!   leaves it endless when `None`.
//! * [`materialize`] drains a (bounded prefix of a) workload back into a
//!   [`Schedule`] for planners that need the whole problem.
//!
//! Determinism contract: a workload is a pure function of its construction
//! arguments (including any RNG seed) and the pull sequence. After
//! [`Workload::reset`] the stream replays bit-identically, on any thread
//! and at any `APS_THREADS` setting — generators hold their own
//! [`rand::StdRng`] and never consult ambient state.

use crate::error::CollectiveError;
use crate::schedule::{CollectiveKind, Schedule, Step};
use std::borrow::Borrow;

pub mod arrivals;
pub mod generators;

/// Context handed to a workload at each pull. Carries the executor-side
/// view of the stream; extend-only (`#[non_exhaustive]`), so new context
/// (e.g. simulated time) can be added without breaking workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct WorkloadCtx {
    /// Global index of the step being pulled (0-based).
    pub step: usize,
}

impl WorkloadCtx {
    /// Context for pulling global step `step`.
    pub fn at(step: usize) -> Self {
        Self { step }
    }
}

/// A lazily-pulled stream of demand steps — the open, object-safe
/// counterpart of [`Schedule`].
///
/// Implementations must be deterministic: the same construction arguments
/// and pull sequence always yield the same steps, and [`Workload::reset`]
/// rewinds to the initial state so the stream replays bit-identically.
/// Every yielded step must span exactly [`Workload::n`] nodes and carry a
/// finite, non-negative volume (executors validate and reject violations).
pub trait Workload: Send {
    /// Number of participating nodes, fixed for the workload's lifetime.
    fn n(&self) -> usize;

    /// Human-readable name (used in traces, benches and reports).
    fn name(&self) -> &str;

    /// The collective operation the stream implements;
    /// [`CollectiveKind::Composite`] for mixes.
    fn kind(&self) -> CollectiveKind {
        CollectiveKind::Composite
    }

    /// Pulls the next step; `None` means the stream is exhausted.
    fn next_step(&mut self, ctx: &WorkloadCtx) -> Option<Step>;

    /// Pulls the next step *into* a caller-owned buffer; `false` means the
    /// stream is exhausted (and `out` is left untouched).
    ///
    /// The zero-allocation streaming hook: executors keep one long-lived
    /// [`Step`] across pulls. The default delegates to
    /// [`Workload::next_step`] and moves the result into `out`; sources
    /// whose steps live in stable storage (e.g. [`ScheduleStream`],
    /// `TrainingLoop`) override it with [`Clone::clone_from`], so a
    /// steady-state pull never allocates: it copies into `out`'s matching
    /// buffer only while no other clone holds that buffer, and otherwise
    /// shares the source step's.
    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        match self.next_step(ctx) {
            Some(step) => {
                *out = step;
                true
            }
            None => false,
        }
    }

    /// Bounds on the number of steps *remaining*: `(lower, upper)`, with
    /// `None` meaning unbounded or unknown. Exact streams report
    /// `(k, Some(k))`; executors use the upper bound to refuse to
    /// materialize endless workloads.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Rewinds the stream to its initial state for a bit-identical replay.
    fn reset(&mut self);
}

/// Every `Box<dyn Workload>` is itself a workload, so executors take
/// heterogeneous sources behind one type.
impl Workload for Box<dyn Workload> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn kind(&self) -> CollectiveKind {
        (**self).kind()
    }
    fn next_step(&mut self, ctx: &WorkloadCtx) -> Option<Step> {
        (**self).next_step(ctx)
    }
    fn next_step_into(&mut self, ctx: &WorkloadCtx, out: &mut Step) -> bool {
        (**self).next_step_into(ctx, out)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

/// Drains up to `limit` steps of `workload` (from its *current* position)
/// into a materialized [`Schedule`] — the bridge back to planners that
/// need the whole eq. (7) problem at once.
///
/// # Errors
///
/// [`CollectiveError::WorkloadTooLong`] when the stream yields more than
/// `limit` steps; schedule validation errors for malformed steps.
pub fn materialize(workload: &mut dyn Workload, limit: usize) -> Result<Schedule, CollectiveError> {
    let (lo, _) = workload.size_hint();
    let mut steps = Vec::with_capacity(lo.min(limit));
    while let Some(step) = workload.next_step(&WorkloadCtx::at(steps.len())) {
        if steps.len() >= limit {
            return Err(CollectiveError::WorkloadTooLong { limit });
        }
        steps.push(step);
    }
    Schedule::new(workload.n(), workload.kind(), workload.name(), steps)
}

/// A cursor streaming a materialized [`Schedule`]'s steps — the trivial
/// [`Workload`] impl. Generic over ownership: `ScheduleStream<Schedule>`
/// owns its schedule (boxable, `'static`), `ScheduleStream<&Schedule>`
/// borrows it (what the executors use internally).
#[derive(Debug, Clone)]
pub struct ScheduleStream<S = Schedule> {
    schedule: S,
    pos: usize,
}

impl<S: Borrow<Schedule>> ScheduleStream<S> {
    /// A fresh cursor at the schedule's first step.
    pub fn new(schedule: S) -> Self {
        Self { schedule, pos: 0 }
    }

    /// The underlying materialized schedule.
    pub fn schedule(&self) -> &Schedule {
        self.schedule.borrow()
    }
}

impl<S: Borrow<Schedule> + Send> Workload for ScheduleStream<S> {
    fn n(&self) -> usize {
        self.schedule().n()
    }

    fn name(&self) -> &str {
        self.schedule().algorithm()
    }

    fn kind(&self) -> CollectiveKind {
        self.schedule().kind()
    }

    fn next_step(&mut self, _ctx: &WorkloadCtx) -> Option<Step> {
        let step = self.schedule().steps().get(self.pos)?.clone();
        self.pos += 1;
        Some(step)
    }

    fn next_step_into(&mut self, _ctx: &WorkloadCtx, out: &mut Step) -> bool {
        match self.schedule().steps().get(self.pos) {
            Some(step) => {
                out.clone_from(step);
                self.pos += 1;
                true
            }
            None => false,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.schedule().num_steps() - self.pos;
        (left, Some(left))
    }

    fn reset(&mut self) {
        self.pos = 0;
    }
}

impl Schedule {
    /// Consumes the schedule into an owning stream cursor (the
    /// [`Workload`] face of a materialized schedule).
    pub fn into_workload(self) -> ScheduleStream {
        ScheduleStream::new(self)
    }

    /// A borrowing stream cursor over the schedule's steps.
    pub fn stream(&self) -> ScheduleStream<&Schedule> {
        ScheduleStream::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce;
    use aps_matrix::Matching;

    fn sched(n: usize, steps: usize, bytes: f64) -> Schedule {
        let step = Step {
            matching: Matching::shift(n, 1).unwrap(),
            bytes_per_pair: bytes,
        };
        Schedule::new(n, CollectiveKind::AllGather, "ring", vec![step; steps]).unwrap()
    }

    #[test]
    fn schedule_stream_replays_its_schedule() {
        let s = allreduce::halving_doubling::build(8, 1e6).unwrap().schedule;
        let mut w = s.stream();
        assert_eq!(w.n(), 8);
        assert_eq!(w.kind(), s.kind());
        assert_eq!(w.size_hint(), (s.num_steps(), Some(s.num_steps())));
        let m = materialize(&mut w, 1000).unwrap();
        assert_eq!(m.steps(), s.steps());
        assert_eq!(w.size_hint(), (0, Some(0)));
        w.reset();
        assert_eq!(materialize(&mut w, 1000).unwrap().steps(), s.steps());
        // Owning variant is equivalent.
        let mut owned = s.clone().into_workload();
        assert_eq!(materialize(&mut owned, 1000).unwrap().steps(), s.steps());
    }

    #[test]
    fn materialize_enforces_its_limit() {
        let mut w = sched(4, 10, 1.0).into_workload();
        assert!(matches!(
            materialize(&mut w, 9),
            Err(CollectiveError::WorkloadTooLong { limit: 9 })
        ));
        w.reset();
        assert_eq!(materialize(&mut w, 10).unwrap().num_steps(), 10);
    }
}
