//! A collective = a cost-model [`Schedule`], plus the chunk-level
//! [`DataFlow`] it refines, built on demand.

use crate::builder::{Algo, Recipe};
use crate::dataflow::DataFlow;
use crate::error::{CollectiveError, VerifyError};
use crate::schedule::Schedule;
use crate::verify::verify_dataflow;
use aps_matrix::MatrixError;

/// A fully-specified collective algorithm instance.
///
/// Building one lists no chunk ids: the builder's algorithm description
/// yields only the schedule's matchings and volumes. The chunk-level
/// [`DataFlow`] is built from the same description only when asked for, by
/// [`Collective::check`] and [`Collective::dataflow`].
///
/// Invariant (checked by [`Collective::check`], exercised by every builder's
/// tests): the data flow's per-step `(src → dst)` transfer pairs equal the
/// schedule's matchings, and the advertised step volume equals
/// `max chunks per transfer × chunk_bytes`.
#[derive(Debug, Clone, PartialEq)]
pub struct Collective {
    /// The matching/volume view consumed by the cost model and scheduler.
    pub schedule: Schedule,
    /// The builder call that made `schedule`, rerun to list the data flow.
    recipe: Recipe,
}

impl Collective {
    /// Runs a validated builder call's description into its schedule.
    ///
    /// # Errors
    ///
    /// [`MatrixError::TooManyPorts`] when `n` exceeds the `u32` port limit
    /// of a [`Matching`](aps_matrix::Matching), before the description runs;
    /// otherwise whatever the description's steps fail with.
    pub(crate) fn build(algo: Algo, n: usize, bytes: f64) -> Result<Self, CollectiveError> {
        check_ports(n)?;
        let recipe = Recipe { algo, n, bytes };
        Ok(Self {
            schedule: recipe.schedule()?,
            recipe,
        })
    }

    #[cfg(test)]
    pub(crate) fn recipe(&self) -> Recipe {
        self.recipe
    }

    /// The chunk-level view: which chunks every transfer moves, listed from
    /// the builder's description on each call.
    pub fn dataflow(&self) -> DataFlow {
        self.recipe.dataflow()
    }

    /// Cross-checks the schedule against the data flow, then verifies the
    /// collective semantics end to end.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency or semantic violation found.
    pub fn check(&self) -> Result<(), VerifyError> {
        let flow = self.dataflow();
        consistency(&self.schedule, &flow)?;
        verify_dataflow(&flow)
    }

    /// Structural consistency between the two views (without executing the
    /// data flow).
    ///
    /// # Errors
    ///
    /// Reports step-count, matching, or volume mismatches.
    pub fn check_consistency(&self) -> Result<(), VerifyError> {
        consistency(&self.schedule, &self.dataflow())
    }

    /// Number of participating nodes.
    pub fn n(&self) -> usize {
        self.schedule.n()
    }
}

/// Refuses a node count past the `u32` port limit of a matching, as
/// building the first step's matching would, but before anything is
/// described.
pub(crate) fn check_ports(n: usize) -> Result<(), CollectiveError> {
    if u32::try_from(n).is_err() {
        return Err(CollectiveError::Matrix(MatrixError::TooManyPorts { n }));
    }
    Ok(())
}

/// Step counts, per-step transfer pairs and volumes of `f` against `s`.
pub(crate) fn consistency(s: &Schedule, f: &DataFlow) -> Result<(), VerifyError> {
    if s.num_steps() != f.steps.len() {
        return Err(VerifyError::StepCountMismatch {
            schedule: s.num_steps(),
            dataflow: f.steps.len(),
        });
    }
    for (i, (step, fstep)) in s.steps().iter().zip(&f.steps).enumerate() {
        // Transfer pairs must equal the matching exactly.
        let mut pairs: Vec<(usize, usize)> =
            fstep.transfers.iter().map(|t| (t.src, t.dst)).collect();
        pairs.sort_unstable();
        let mut expected: Vec<(usize, usize)> = step.matching.pairs().collect();
        expected.sort_unstable();
        if pairs != expected {
            return Err(VerifyError::MatchingMismatch { step: i });
        }
        if fstep.transfers.iter().any(|t| t.chunks.is_empty()) {
            return Err(VerifyError::MatchingMismatch { step: i });
        }
        let dataflow_bytes = f.max_chunks_in_step(i) as f64 * f.chunk_bytes;
        let tol = 1e-9 * (1.0 + step.bytes_per_pair.abs());
        if (dataflow_bytes - step.bytes_per_pair).abs() > tol {
            return Err(VerifyError::VolumeMismatch {
                step: i,
                schedule_bytes: step.bytes_per_pair,
                dataflow_bytes,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allgather;
    use crate::dataflow::DataFlowStep;
    use crate::schedule::Step;

    /// A two-node ring allgather: one step, each node sends its chunk.
    fn tiny() -> Collective {
        allgather::ring(2, 8.0).unwrap()
    }

    #[test]
    fn consistent_collective_checks() {
        tiny().check().unwrap();
        tiny().check_consistency().unwrap();
        assert_eq!(tiny().n(), 2);
        let flow = tiny().dataflow();
        assert_eq!(flow.initial, vec![vec![0], vec![1]]);
        assert_eq!(flow.steps[0].transfers[0].chunks, vec![0]);
    }

    #[test]
    fn step_count_mismatch_detected() {
        let c = tiny();
        let mut flow = c.dataflow();
        flow.steps.push(DataFlowStep::default());
        assert!(matches!(
            consistency(&c.schedule, &flow),
            Err(VerifyError::StepCountMismatch {
                schedule: 1,
                dataflow: 2
            })
        ));
        // An edited schedule no longer matches the data flow it came from.
        let mut c = tiny();
        let again = Schedule::new(
            2,
            c.schedule.kind(),
            "x",
            vec![c.schedule.steps()[0].clone()],
        )
        .unwrap();
        c.schedule = c.schedule.then(again).unwrap();
        assert!(matches!(
            c.check(),
            Err(VerifyError::StepCountMismatch {
                schedule: 2,
                dataflow: 1
            })
        ));
    }

    #[test]
    fn matching_mismatch_detected() {
        let c = tiny();
        let mut flow = c.dataflow();
        flow.steps[0].transfers.pop();
        assert_eq!(
            consistency(&c.schedule, &flow),
            Err(VerifyError::MatchingMismatch { step: 0 })
        );
    }

    #[test]
    fn volume_mismatch_detected() {
        let c = tiny();
        let mut flow = c.dataflow();
        flow.steps[0].transfers[0].chunks = vec![0, 1];
        // Now one transfer moves 2 chunks = 8 bytes vs advertised 4 — the
        // consistency check fires before execution would notice that node
        // 0 does not hold chunk 1.
        assert!(matches!(
            consistency(&c.schedule, &flow),
            Err(VerifyError::VolumeMismatch { step: 0, .. })
        ));
        // The same for a schedule whose volume was edited.
        let mut c = tiny();
        let matching = c.schedule.steps()[0].matching.clone();
        c.schedule = Schedule::new(
            2,
            c.schedule.kind(),
            "ring",
            vec![Step {
                matching,
                bytes_per_pair: 5.0,
            }],
        )
        .unwrap();
        assert!(matches!(
            c.check_consistency(),
            Err(VerifyError::VolumeMismatch { step: 0, .. })
        ));
    }

    /// Every builder, past its own checks, refuses more ports than a
    /// matching can hold before its description lists a single pair.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn every_builder_refuses_too_many_ports_before_describing() {
        use crate::{allreduce, alltoall, barrier, broadcast, gather};
        use crate::{reduce_scatter, scatter, stencil};
        let n = 1usize << 32;
        let m = 1e6;
        let too_many = |n| Err(CollectiveError::Matrix(MatrixError::TooManyPorts { n }));
        for (name, built) in [
            ("ring allreduce", allreduce::ring::build(n, m)),
            (
                "recursive-doubling allreduce",
                allreduce::recursive_doubling::build(n, m),
            ),
            (
                "halving-doubling allreduce",
                allreduce::halving_doubling::build(n, m),
            ),
            ("swing allreduce", allreduce::swing::build(n, m)),
            ("any-n allreduce", allreduce::any_n::build(n, m)),
            ("linear shift", alltoall::linear_shift(n, m)),
            ("xor exchange", alltoall::xor_exchange(n, m)),
            ("bruck", alltoall::bruck(n, m)),
            ("ring allgather", allgather::ring(n, m)),
            (
                "recursive-doubling allgather",
                allgather::recursive_doubling(n, m),
            ),
            ("ring reduce-scatter", reduce_scatter::ring(n, m)),
            (
                "recursive-halving reduce-scatter",
                reduce_scatter::recursive_halving(n, m),
            ),
            ("binomial broadcast", broadcast::binomial(n, n - 1, m)),
            (
                "scatter-allgather broadcast",
                broadcast::scatter_allgather(n, 1, m),
            ),
            ("dissemination barrier", barrier::dissemination(n)),
            ("binomial scatter", scatter::binomial(n, 0, m)),
            ("binomial gather", gather::binomial(n, n / 2, m)),
            ("halo 2-D", stencil::halo_2d(1 << 16, 1 << 16, m)),
        ] {
            assert_eq!(built, too_many(n), "{name}");
        }
        // Off a power of two, any-n folds surplus nodes itself.
        assert_eq!(allreduce::any_n::build(n + 3, m), too_many(n + 3));
        // The builder's own checks still come first.
        assert_eq!(
            allreduce::halving_doubling::build(n + 2, m),
            Err(CollectiveError::NotPowerOfTwo(n + 2))
        );
        assert_eq!(
            alltoall::linear_shift(n, -1.0),
            Err(CollectiveError::BadMessageSize(-1.0))
        );
    }

    #[test]
    fn empty_transfer_rejected() {
        let c = tiny();
        let mut flow = c.dataflow();
        flow.steps[0].transfers[0].chunks = vec![];
        assert_eq!(
            consistency(&c.schedule, &flow),
            Err(VerifyError::MatchingMismatch { step: 0 })
        );
    }
}
