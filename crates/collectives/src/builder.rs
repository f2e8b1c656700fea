//! One description per algorithm, run into one of two sinks.
//!
//! Every builder describes its algorithm once, as calls on a [`Sink`]: a
//! [`Header`], the chunks each node holds before step 0 (`hold`), and per
//! step "who sends which chunks to whom" (`step`, `send`). Building a
//! [`Collective`](crate::Collective) runs the description into a
//! [`ScheduleSink`], which keeps only the `(src, dst)` pairs and each step's
//! largest chunk count, so no chunk id is ever listed.
//! [`Collective::dataflow`](crate::Collective::dataflow) reruns the same
//! description into a [`FlowSink`], which lists every chunk for the
//! semantic verifier.
//!
//! A step in which every sender of a whole matching sends the same number
//! of chunks — each step of a ring, a linear shift, a recursive doubling
//! or halving — is described at once by [`Sink::permute`]: the matching,
//! the chunk count, and a closure that lists a sender's chunks. A
//! [`ScheduleSink`] keeps a clone of the matching, which shares its
//! buffer, and never calls the closure, so such a step costs O(1) to
//! build; a [`FlowSink`] lists the closure's chunks for each pair in sender
//! order, as a loop of `send`s would. A description builds each distinct
//! matching once and passes it again wherever it repeats, so a ring holds
//! one buffer for all its steps. Steps that are partial or irregular — the
//! binomial trees, Swing, the any-`n` folding, the halo — keep `send`.
//!
//! [`Collective::build`](crate::Collective::build) refuses more than `u32::MAX`
//! ports before it runs a description, so descriptions may `expect`
//! [`Matching::shift`] and [`Matching::xor`] to succeed.

use crate::dataflow::{Combine, DataFlow, DataFlowStep, Semantics, Transfer};
use crate::error::CollectiveError;
use crate::schedule::{CollectiveKind, Schedule, Step};
use crate::{allgather, allreduce, alltoall, barrier, broadcast, gather};
use crate::{reduce_scatter, scatter, stencil};
use aps_matrix::Matching;

/// One step as a list of `(src, dst, chunks, combine)` sends.
pub(crate) type StepSends = Vec<(usize, usize, Vec<usize>, Combine)>;

/// Validates a message size.
pub(crate) fn check_message_bytes(bytes: f64) -> Result<(), CollectiveError> {
    if bytes <= 0.0 || !bytes.is_finite() {
        return Err(CollectiveError::BadMessageSize(bytes));
    }
    Ok(())
}

/// What a description declares before its first step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub kind: CollectiveKind,
    pub algorithm: &'static str,
    pub semantics: Semantics,
    /// Size of the chunk id space.
    pub num_chunks: usize,
    /// Bytes per chunk: a step moves `max chunks per send × chunk_bytes`.
    pub chunk_bytes: f64,
}

/// The chunk ids of one send: how many there are, and — only when a
/// [`FlowSink`] asks — which.
pub(crate) trait Chunks {
    fn count(&self) -> usize;
    fn ids(self) -> Vec<usize>;
}

impl<I: ExactSizeIterator<Item = usize>> Chunks for I {
    fn count(&self) -> usize {
        self.len()
    }

    fn ids(self) -> Vec<usize> {
        self.collect()
    }
}

/// Chunks whose count is known without listing them: `Counted(count, list)`
/// runs `list` only for a [`FlowSink`].
/// [`Collective::check`](crate::Collective::check) reports a `count` that
/// disagrees with the list as a volume mismatch.
pub(crate) struct Counted<F>(pub usize, pub F);

impl<F: FnOnce() -> Vec<usize>> Chunks for Counted<F> {
    fn count(&self) -> usize {
        self.0
    }

    fn ids(self) -> Vec<usize> {
        (self.1)()
    }
}

/// Every description opens with [`Sink::header`].
const HEADER_FIRST: &str = "a description declares its header first";

/// Receives one algorithm description.
pub(crate) trait Sink {
    /// Declares the collective; called once, first.
    fn header(&mut self, header: Header);
    /// `node` holds `chunks` before step 0, after what it already holds.
    fn hold(&mut self, node: usize, chunks: impl IntoIterator<Item = usize>);
    /// Opens the next step.
    fn step(&mut self);
    /// `src` sends `chunks` to `dst` in the open step; `dst` combines them
    /// by `combine`.
    fn send(&mut self, src: usize, dst: usize, chunks: impl Chunks, combine: Combine);
    /// A whole step: every pair `(src, dst)` of `matching` sends `count`
    /// chunks, `chunks(src)`, and `dst` combines them by `combine`. Closes
    /// the open step, if any; the next `send` needs a `step` first.
    fn permute<C: Chunks>(
        &mut self,
        matching: &Matching,
        count: usize,
        chunks: impl FnMut(usize) -> C,
        combine: Combine,
    );
}

/// [`Matching::shift`] and [`Matching::xor`] fail only past the port limit,
/// which [`Collective::build`](crate::Collective::build) refuses first, or
/// on a trivial shift or mask, which no description asks for.
const PORTS_CHECKED: &str = "a description's shift or mask over at most u32::MAX ports";

/// The shift `i → (i + k) mod n` of a description, `k ≢ 0 (mod n)`.
pub(crate) fn shift(n: usize, k: usize) -> Matching {
    Matching::shift(n, k).expect(PORTS_CHECKED)
}

/// The exchange `i → i XOR mask` of a description, `0 < mask < n` and `n`
/// a power of two.
pub(crate) fn xor(n: usize, mask: usize) -> Matching {
    Matching::xor(n, mask).expect(PORTS_CHECKED)
}

/// Builds the cost-model [`Schedule`] of a description: each step's
/// matching and `max chunks per send × chunk_bytes`. Holds one step's pairs
/// at a time and allocates nothing per send.
pub(crate) struct ScheduleSink {
    n: usize,
    header: Option<Header>,
    steps: Vec<Step>,
    /// The open step, if any: its pairs, its largest chunk count, and
    /// whether a send moved no chunk.
    open: bool,
    pairs: Vec<(usize, usize)>,
    max_chunks: usize,
    empty_send: bool,
    /// Scratch for the matching's duplicate-receiver check.
    has_src: Vec<bool>,
    /// The first construction error; later calls are ignored.
    error: Option<CollectiveError>,
}

impl ScheduleSink {
    fn new(n: usize) -> Self {
        Self {
            n,
            header: None,
            steps: Vec::new(),
            open: false,
            pairs: Vec::new(),
            max_chunks: 0,
            empty_send: false,
            has_src: Vec::new(),
            error: None,
        }
    }

    /// Turns the open step into a [`Step`], failing in the order the
    /// checks always ran: the matching first, then empty sends. A step
    /// whose pairs repeat the previous step's, in order, shares that step's
    /// matching (those pairs already passed the matching's checks), as
    /// Swing's and the any-`n` folding's middle two steps do.
    fn close(&mut self) {
        if !std::mem::take(&mut self.open) || self.error.is_some() {
            return;
        }
        let matching = match self.steps.last() {
            Some(prev) if prev.matching.pairs().eq(self.pairs.iter().copied()) => {
                prev.matching.clone()
            }
            _ => {
                let mut matching = Matching::empty(0);
                if let Err(e) = matching.refill_from_pairs(self.n, &self.pairs, &mut self.has_src) {
                    self.error = Some(e.into());
                    return;
                }
                matching
            }
        };
        if self.empty_send {
            self.error = Some(CollectiveError::ConstructionInvariant(
                "a send moved zero chunks",
            ));
            return;
        }
        let chunk_bytes = self.header.expect(HEADER_FIRST).chunk_bytes;
        self.steps.push(Step {
            matching,
            bytes_per_pair: self.max_chunks as f64 * chunk_bytes,
        });
    }

    fn finish(mut self) -> Result<Schedule, CollectiveError> {
        self.close();
        if let Some(e) = self.error {
            return Err(e);
        }
        let header = self.header.expect(HEADER_FIRST);
        Schedule::new(self.n, header.kind, header.algorithm, self.steps)
    }
}

impl Sink for ScheduleSink {
    fn header(&mut self, header: Header) {
        self.header = Some(header);
    }

    fn hold(&mut self, _: usize, _: impl IntoIterator<Item = usize>) {}

    fn step(&mut self) {
        self.close();
        self.open = true;
        self.pairs.clear();
        self.max_chunks = 0;
        self.empty_send = false;
    }

    fn send(&mut self, src: usize, dst: usize, chunks: impl Chunks, _: Combine) {
        debug_assert!(self.open, "a send outside a step");
        let count = chunks.count();
        self.pairs.push((src, dst));
        self.max_chunks = self.max_chunks.max(count);
        self.empty_send |= count == 0;
    }

    /// Shares `matching`'s buffer and never lists a chunk: O(1) per step.
    fn permute<C: Chunks>(
        &mut self,
        matching: &Matching,
        count: usize,
        _: impl FnMut(usize) -> C,
        _: Combine,
    ) {
        self.close();
        if self.error.is_some() {
            return;
        }
        if count == 0 && !matching.is_empty() {
            self.error = Some(CollectiveError::ConstructionInvariant(
                "a send moved zero chunks",
            ));
            return;
        }
        let chunk_bytes = self.header.expect(HEADER_FIRST).chunk_bytes;
        self.steps.push(Step {
            matching: matching.clone(),
            bytes_per_pair: count as f64 * chunk_bytes,
        });
    }
}

/// Lists a description's every chunk: the initial holdings and each
/// step's sends, for the [`DataFlow`].
pub(crate) struct FlowSink {
    header: Option<Header>,
    initial: Vec<Vec<usize>>,
    steps: Vec<StepSends>,
}

impl FlowSink {
    fn new(n: usize) -> Self {
        Self {
            header: None,
            initial: vec![Vec::new(); n],
            steps: Vec::new(),
        }
    }

    fn into_dataflow(self) -> DataFlow {
        let header = self.header.expect(HEADER_FIRST);
        DataFlow {
            n: self.initial.len(),
            num_chunks: header.num_chunks,
            chunk_bytes: header.chunk_bytes,
            initial: self.initial,
            steps: self
                .steps
                .into_iter()
                .map(|sends| DataFlowStep {
                    transfers: sends
                        .into_iter()
                        .map(|(src, dst, chunks, combine)| Transfer {
                            src,
                            dst,
                            chunks,
                            combine,
                        })
                        .collect(),
                })
                .collect(),
            semantics: header.semantics,
        }
    }
}

impl Sink for FlowSink {
    fn header(&mut self, header: Header) {
        self.header = Some(header);
    }

    fn hold(&mut self, node: usize, chunks: impl IntoIterator<Item = usize>) {
        self.initial[node].extend(chunks);
    }

    fn step(&mut self) {
        self.steps.push(Vec::new());
    }

    fn send(&mut self, src: usize, dst: usize, chunks: impl Chunks, combine: Combine) {
        self.steps.last_mut().expect("a send inside a step").push((
            src,
            dst,
            chunks.ids(),
            combine,
        ));
    }

    /// Lists `chunks(src)` for each pair, in sender order.
    fn permute<C: Chunks>(
        &mut self,
        matching: &Matching,
        _: usize,
        mut chunks: impl FnMut(usize) -> C,
        combine: Combine,
    ) {
        let sends = matching
            .pairs()
            .map(|(src, dst)| (src, dst, chunks(src).ids(), combine))
            .collect();
        self.steps.push(sends);
    }
}

/// Which builder made a collective, with the inputs its description reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Algo {
    RingAllReduce,
    RecursiveDoublingAllReduce,
    HalvingDoublingAllReduce,
    SwingAllReduce,
    AnyNAllReduce,
    LinearShift,
    XorExchange,
    Bruck,
    RingAllGather,
    RecursiveDoublingAllGather,
    RingReduceScatter,
    RecursiveHalving,
    BinomialBroadcast { root: usize },
    ScatterAllgather { root: usize },
    Dissemination,
    BinomialScatter { root: usize },
    BinomialGather { root: usize },
    Halo2d { cols: usize },
}

/// A validated builder call: enough to run its description into either
/// sink, now or later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Recipe {
    pub algo: Algo,
    /// Participating nodes.
    pub n: usize,
    /// The builder's message size (the halo strip for `Halo2d`; unused by
    /// the barrier).
    pub bytes: f64,
}

impl Recipe {
    fn describe(&self, out: &mut impl Sink) {
        let (n, m) = (self.n, self.bytes);
        match self.algo {
            Algo::RingAllReduce => allreduce::ring::describe(n, m, out),
            Algo::RecursiveDoublingAllReduce => allreduce::recursive_doubling::describe(n, m, out),
            Algo::HalvingDoublingAllReduce => allreduce::halving_doubling::describe(n, m, out),
            Algo::SwingAllReduce => allreduce::swing::describe(n, m, out),
            Algo::AnyNAllReduce => allreduce::any_n::describe(n, m, out),
            Algo::LinearShift => alltoall::describe_linear_shift(n, m, out),
            Algo::XorExchange => alltoall::describe_xor_exchange(n, m, out),
            Algo::Bruck => alltoall::describe_bruck(n, m, out),
            Algo::RingAllGather => allgather::describe_ring(n, m, out),
            Algo::RecursiveDoublingAllGather => allgather::describe_recursive_doubling(n, m, out),
            Algo::RingReduceScatter => reduce_scatter::describe_ring(n, m, out),
            Algo::RecursiveHalving => reduce_scatter::describe_recursive_halving(n, m, out),
            Algo::BinomialBroadcast { root } => broadcast::describe_binomial(n, root, m, out),
            Algo::ScatterAllgather { root } => {
                broadcast::describe_scatter_allgather(n, root, m, out)
            }
            Algo::Dissemination => barrier::describe(n, out),
            Algo::BinomialScatter { root } => scatter::describe(n, root, m, out),
            Algo::BinomialGather { root } => gather::describe(n, root, m, out),
            Algo::Halo2d { cols } => stencil::describe_halo_2d(n / cols, cols, m, out),
        }
    }

    /// The cost-model schedule: the production path.
    pub(crate) fn schedule(&self) -> Result<Schedule, CollectiveError> {
        let mut sink = ScheduleSink::new(self.n);
        self.describe(&mut sink);
        sink.finish()
    }

    /// The chunk-level data flow, listed on demand.
    pub(crate) fn dataflow(&self) -> DataFlow {
        let mut sink = FlowSink::new(self.n);
        self.describe(&mut sink);
        sink.into_dataflow()
    }
}

/// `ceil(log2(n))` for `n ≥ 1`.
pub(crate) fn ceil_log2(n: usize) -> usize {
    usize::BITS as usize - (n - 1).leading_zeros() as usize
}

/// Exact `log2(n)`; errors when `n` is not a power of two.
pub(crate) fn exact_log2(n: usize) -> Result<usize, CollectiveError> {
    if !n.is_power_of_two() {
        return Err(CollectiveError::NotPowerOfTwo(n));
    }
    Ok(n.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::Collective;

    /// The eager assembly, the oracle of [`ScheduleSink`]: one matching
    /// pair and one data-flow transfer per listed send, the step volume
    /// `max chunks per send × chunk_bytes` of the listed chunks.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        n: usize,
        kind: CollectiveKind,
        algorithm: &str,
        semantics: Semantics,
        num_chunks: usize,
        chunk_bytes: f64,
        initial: Vec<Vec<usize>>,
        step_sends: Vec<StepSends>,
    ) -> Result<(Schedule, DataFlow), CollectiveError> {
        let mut steps = Vec::with_capacity(step_sends.len());
        let mut flow_steps = Vec::with_capacity(step_sends.len());
        for sends in step_sends {
            let pairs: Vec<(usize, usize)> = sends.iter().map(|&(s, d, _, _)| (s, d)).collect();
            let matching = Matching::from_pairs(n, &pairs)?;
            let max_chunks = sends.iter().map(|(_, _, c, _)| c.len()).max().unwrap_or(0);
            if sends.iter().any(|(_, _, c, _)| c.is_empty()) {
                return Err(CollectiveError::ConstructionInvariant(
                    "a send moved zero chunks",
                ));
            }
            steps.push(Step {
                matching,
                bytes_per_pair: max_chunks as f64 * chunk_bytes,
            });
            flow_steps.push(DataFlowStep {
                transfers: sends
                    .into_iter()
                    .map(|(src, dst, chunks, combine)| Transfer {
                        src,
                        dst,
                        chunks,
                        combine,
                    })
                    .collect(),
            });
        }
        let schedule = Schedule::new(n, kind, algorithm, steps)?;
        let dataflow = DataFlow {
            n,
            num_chunks,
            chunk_bytes,
            initial,
            steps: flow_steps,
            semantics,
        };
        Ok((schedule, dataflow))
    }

    /// The eager path over a collective's own description.
    fn eager(c: &Collective) -> (Schedule, DataFlow) {
        let recipe = c.recipe();
        let mut sink = FlowSink::new(recipe.n);
        recipe.describe(&mut sink);
        let h = sink.header.expect(HEADER_FIRST);
        let out = assemble(
            recipe.n,
            h.kind,
            h.algorithm,
            h.semantics,
            h.num_chunks,
            h.chunk_bytes,
            sink.initial,
            sink.steps,
        );
        out.unwrap_or_else(|e| panic!("{:?}: eager assembly failed: {e}", recipe))
    }

    /// Asserts `c.schedule` equals the eager schedule step for step, volumes
    /// to the bit, and that the on-demand data flow is the eager one.
    fn assert_matches_oracle(c: &Collective) {
        let (schedule, flow) = eager(c);
        let what = format!("{:?}", c.recipe());
        assert_eq!(c.schedule.n(), schedule.n(), "{what}");
        assert_eq!(c.schedule.kind(), schedule.kind(), "{what}");
        assert_eq!(c.schedule.algorithm(), schedule.algorithm(), "{what}");
        assert_eq!(c.schedule.num_steps(), schedule.num_steps(), "{what}");
        for (i, (a, b)) in c.schedule.steps().iter().zip(schedule.steps()).enumerate() {
            assert_eq!(a.matching, b.matching, "{what} step {i}");
            assert_eq!(
                a.bytes_per_pair.to_bits(),
                b.bytes_per_pair.to_bits(),
                "{what} step {i}: {} vs {}",
                a.bytes_per_pair,
                b.bytes_per_pair
            );
        }
        assert_eq!(c.dataflow(), flow, "{what}");
    }

    /// Message sizes for the oracle: a power of two, a non-dyadic size and
    /// an odd one, so chunk volumes round differently.
    const SIZES: [f64; 3] = [1_048_576.0, 1e6 / 3.0, 12_345.0];

    #[test]
    fn every_builder_matches_the_eager_oracle() {
        for m in SIZES {
            for n in 2..=33 {
                for c in [
                    allreduce::ring::build(n, m),
                    allreduce::any_n::build(n, m),
                    alltoall::linear_shift(n, m),
                    alltoall::bruck(n, m),
                    allgather::ring(n, m),
                    reduce_scatter::ring(n, m),
                    barrier::dissemination(n),
                ] {
                    assert_matches_oracle(&c.unwrap());
                }
                for root in 0..n {
                    for c in [
                        broadcast::binomial(n, root, m),
                        broadcast::scatter_allgather(n, root, m),
                        scatter::binomial(n, root, m),
                        gather::binomial(n, root, m),
                    ] {
                        assert_matches_oracle(&c.unwrap());
                    }
                }
            }
            for n in (1..=8).map(|e| 1usize << e) {
                for c in [
                    allreduce::recursive_doubling::build(n, m),
                    allreduce::halving_doubling::build(n, m),
                    allreduce::swing::build(n, m),
                    allreduce::any_n::build(n, m),
                    alltoall::xor_exchange(n, m),
                    allgather::recursive_doubling(n, m),
                    reduce_scatter::recursive_halving(n, m),
                ] {
                    assert_matches_oracle(&c.unwrap());
                }
            }
            for rows in 3..=7 {
                for cols in 3..=9 {
                    assert_matches_oracle(&stencil::halo_2d(rows, cols, m).unwrap());
                }
            }
        }
    }

    /// The one step of a two-node test description.
    #[derive(Clone, Copy)]
    enum TwoNodeStep<'a> {
        /// `(src, dst, chunks)` sends, each listing chunks `0..chunks`.
        Sends(&'a [(usize, usize, usize)]),
        /// Node 0 declares two chunks but lists one; node 1 sends one.
        Miscounted,
        /// The exchange of both nodes, each declaring `count` chunks and
        /// listing `listed`.
        Permute { count: usize, listed: usize },
    }

    /// A two-node AllGather header, then `step`.
    fn two_nodes(step: TwoNodeStep<'_>, out: &mut impl Sink) {
        out.header(Header {
            kind: CollectiveKind::AllGather,
            algorithm: "two-node",
            semantics: Semantics::AllGather,
            num_chunks: 2,
            chunk_bytes: 1.0,
        });
        out.hold(0, [0]);
        out.hold(1, [1]);
        match step {
            TwoNodeStep::Sends(sends) => {
                out.step();
                for &(s, d, count) in sends {
                    out.send(s, d, 0..count, Combine::Replace);
                }
            }
            TwoNodeStep::Miscounted => {
                out.step();
                out.send(0, 1, Counted(2, || vec![0]), Combine::Replace);
                out.send(1, 0, 1..2, Combine::Replace);
            }
            TwoNodeStep::Permute { count, listed } => {
                let chunks = |_| Counted(count, move || (0..listed).collect());
                out.permute(&shift(2, 1), count, chunks, Combine::Replace);
            }
        }
    }

    /// `step` through the [`ScheduleSink`] and through the [`FlowSink`].
    fn two_node_views(step: TwoNodeStep<'_>) -> (Result<Schedule, CollectiveError>, FlowSink) {
        let mut schedule = ScheduleSink::new(2);
        two_nodes(step, &mut schedule);
        let mut flow = FlowSink::new(2);
        two_nodes(step, &mut flow);
        (schedule.finish(), flow)
    }

    #[test]
    fn a_miscounted_send_fails_the_check() {
        // A send, or a whole permutation, declares two chunks but lists
        // one: the schedule builds with the declared volume, and the
        // consistency check refuses it.
        for step in [
            TwoNodeStep::Miscounted,
            TwoNodeStep::Permute {
                count: 2,
                listed: 1,
            },
        ] {
            let (schedule, flow) = two_node_views(step);
            assert_eq!(
                crate::collective::consistency(&schedule.unwrap(), &flow.into_dataflow()),
                Err(crate::VerifyError::VolumeMismatch {
                    step: 0,
                    schedule_bytes: 2.0,
                    dataflow_bytes: 1.0
                })
            );
        }
    }

    #[test]
    fn schedule_sink_fails_like_the_eager_assembly() {
        // Bad pairs fail on the matching, before any empty send is seen.
        let run = |step: TwoNodeStep<'_>| {
            let (new, flow) = two_node_views(step);
            let h = flow.header.expect(HEADER_FIRST);
            let old = assemble(
                2,
                h.kind,
                h.algorithm,
                h.semantics,
                h.num_chunks,
                h.chunk_bytes,
                flow.initial,
                flow.steps,
            )
            .map(|(s, _)| s);
            assert_eq!(new, old);
            new
        };
        assert!(matches!(
            run(TwoNodeStep::Sends(&[(0, 0, 0)])),
            Err(CollectiveError::Matrix(aps_matrix::MatrixError::SelfLoop(
                0
            )))
        ));
        let empty = Err(CollectiveError::ConstructionInvariant(
            "a send moved zero chunks",
        ));
        assert_eq!(run(TwoNodeStep::Sends(&[(0, 1, 1), (1, 0, 0)])), empty);
        assert_eq!(
            run(TwoNodeStep::Permute {
                count: 0,
                listed: 0
            }),
            empty
        );
        assert_eq!(
            run(TwoNodeStep::Sends(&[(0, 1, 2), (1, 0, 1)]))
                .unwrap()
                .steps()[0]
                .bytes_per_pair,
            2.0
        );
        let exchange = run(TwoNodeStep::Permute {
            count: 2,
            listed: 2,
        })
        .unwrap();
        assert_eq!(exchange.steps()[0].bytes_per_pair, 2.0);
    }

    #[test]
    fn schedule_sink_never_lists_a_permute_steps_chunks() {
        let mut sink = ScheduleSink::new(4);
        sink.header(Header {
            kind: CollectiveKind::AllToAll,
            algorithm: "unlisted",
            semantics: Semantics::AllToAll,
            num_chunks: 16,
            chunk_bytes: 0.5,
        });
        let ring = shift(4, 1);
        let unlisted =
            |_: usize| -> std::iter::Once<usize> { panic!("a chunk list was asked for") };
        sink.permute(&ring, 3, unlisted, Combine::Replace);
        sink.permute(&ring, 1, unlisted, Combine::Replace);
        let schedule = sink.finish().unwrap();
        let volumes: Vec<f64> = schedule.steps().iter().map(|s| s.bytes_per_pair).collect();
        assert_eq!(volumes, [1.5, 0.5]);
        assert!(schedule.steps().iter().all(|s| s.matching == ring));
    }

    /// The builders whose steps are whole permutations, and the
    /// scatter-allgather broadcast that ends in one, at plan-sweep's 512
    /// ports and the next power of two. Slow in a debug build, so it runs
    /// with `--ignored` (nightly, in release).
    #[test]
    #[ignore = "lists up to 2M transfers per collective; run it in release"]
    fn plan_sweep_sizes_match_the_eager_oracle() {
        for n in [512, 1024] {
            for c in [
                allreduce::ring::build(n, SIZES[1]),
                allreduce::halving_doubling::build(n, SIZES[1]),
                alltoall::linear_shift(n, SIZES[1]),
                allgather::ring(n, SIZES[2]),
                reduce_scatter::ring(n, SIZES[2]),
                broadcast::scatter_allgather(n, n / 3, SIZES[0]),
            ] {
                assert_matches_oracle(&c.unwrap());
            }
        }
    }

    #[test]
    fn log_helpers() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(exact_log2(8).unwrap(), 3);
        assert!(exact_log2(6).is_err());
    }

    #[test]
    fn message_bytes_validation() {
        assert!(check_message_bytes(1.0).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(check_message_bytes(bad).is_err());
        }
    }
}
