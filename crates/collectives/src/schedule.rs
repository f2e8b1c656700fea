//! The coarse, cost-model-facing view of a collective: matchings + volumes.

use crate::error::CollectiveError;
use aps_matrix::{DemandMatrix, Matching, MatrixError};

/// Which collective operation a schedule implements.
///
/// Extend-only (`#[non_exhaustive]`): streaming workloads and future
/// collectives add kinds without breaking downstream matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CollectiveKind {
    /// Every node ends with the element-wise reduction of all inputs.
    AllReduce,
    /// Node `i` ends with the reduction of slot `i` across all inputs.
    ReduceScatter,
    /// Every node ends with every node's input.
    AllGather,
    /// Personalized exchange: node `j` ends with chunk `(i → j)` from every `i`.
    AllToAll,
    /// Every node ends with the root's input.
    Broadcast,
    /// Pure synchronization; no payload semantics.
    Barrier,
    /// A concatenation of collectives (see [`Schedule::then`]).
    Composite,
}

/// One communication step: a matching and the bytes each participating pair
/// exchanges (`mᵢ` in the paper).
#[derive(Debug, PartialEq)]
pub struct Step {
    /// The communication pattern `Mᵢ`.
    pub matching: Matching,
    /// Bytes sent by each sender in the matching during this step.
    pub bytes_per_pair: f64,
}

impl Step {
    /// A zero-size placeholder step — the seed for a long-lived pull
    /// buffer filled via [`crate::workload::Workload::next_step_into`].
    pub fn empty() -> Self {
        Self {
            matching: Matching::empty(0),
            bytes_per_pair: 0.0,
        }
    }
}

/// Hand-written so [`Clone::clone_from`] goes through
/// [`Matching`]'s own: it copies into the matching's buffer when no other
/// clone holds it and otherwise shares the source's, allocating in neither
/// case — streaming executors pull steps into one long-lived `Step` via
/// [`crate::workload::Workload::next_step_into`], which must not allocate
/// in steady state.
impl Clone for Step {
    fn clone(&self) -> Self {
        Self {
            matching: self.matching.clone(),
            bytes_per_pair: self.bytes_per_pair,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.matching.clone_from(&source.matching);
        self.bytes_per_pair = source.bytes_per_pair;
    }
}

/// A collective communication algorithm: the sequence
/// `⟨(M₁, m₁), …, (M_s, m_s)⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    n: usize,
    kind: CollectiveKind,
    algorithm: String,
    steps: Vec<Step>,
}

impl Schedule {
    /// Assembles a schedule after validating dimensions and volumes.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or negative step volumes and matchings over the
    /// wrong node count.
    pub fn new(
        n: usize,
        kind: CollectiveKind,
        algorithm: impl Into<String>,
        steps: Vec<Step>,
    ) -> Result<Self, CollectiveError> {
        for s in &steps {
            if s.matching.n() != n {
                return Err(CollectiveError::Matrix(MatrixError::DimensionMismatch {
                    left: n,
                    right: s.matching.n(),
                }));
            }
            if s.bytes_per_pair < 0.0 || !s.bytes_per_pair.is_finite() {
                return Err(CollectiveError::BadMessageSize(s.bytes_per_pair));
            }
        }
        Ok(Self {
            n,
            kind,
            algorithm: algorithm.into(),
            steps,
        })
    }

    /// Number of participating nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The collective operation implemented.
    pub fn kind(&self) -> CollectiveKind {
        self.kind
    }

    /// Human-readable algorithm name, e.g. `"swing"`.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// The steps in execution order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The steps, moved out.
    pub(crate) fn into_steps(self) -> Vec<Step> {
        self.steps
    }

    /// Number of steps `s`.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total bytes a single (busiest) node sends over the whole collective:
    /// `Σᵢ mᵢ` over steps where the node participates. For the symmetric
    /// algorithms in this crate every node sends the same amount, so this is
    /// simply the sum of step volumes over all steps with a non-empty
    /// matching.
    pub fn total_bytes_per_node(&self) -> f64 {
        self.steps
            .iter()
            .filter(|s| !s.matching.is_empty())
            .map(|s| s.bytes_per_pair)
            .sum()
    }

    /// The aggregate demand matrix `M = Σ mᵢ·Mᵢ` (eq. (1) of the paper).
    /// By Observation 1 the schedule itself is a BvN decomposition of this
    /// matrix.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors (impossible for validated schedules).
    pub fn aggregate_demand(&self) -> Result<DemandMatrix, MatrixError> {
        let terms: Vec<(f64, &Matching)> = self
            .steps
            .iter()
            .map(|s| (s.bytes_per_pair, &s.matching))
            .collect();
        DemandMatrix::from_matchings(self.n, &terms)
    }

    /// Concatenates two schedules (e.g. an AllReduce followed by an
    /// All-to-All — the paper notes the framework applies to such sequences
    /// directly, §3.3).
    ///
    /// Chaining is cheap: both inputs are already validated, so the steps
    /// and the composite name are extended in place — a chain of `k`
    /// `then`s costs O(total steps + total name length), not O(k²) (the
    /// old path reformatted the whole prefix name and revalidated every
    /// accumulated step on each link).
    ///
    /// # Errors
    ///
    /// Rejects node-count mismatches.
    pub fn then(mut self, other: Schedule) -> Result<Schedule, CollectiveError> {
        if self.n != other.n {
            return Err(CollectiveError::Matrix(MatrixError::DimensionMismatch {
                left: self.n,
                right: other.n,
            }));
        }
        self.algorithm.reserve(other.algorithm.len() + 1);
        self.algorithm.push('+');
        self.algorithm.push_str(&other.algorithm);
        self.steps.extend(other.steps);
        self.kind = CollectiveKind::Composite;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shift_step(n: usize, k: usize, bytes: f64) -> Step {
        Step {
            matching: Matching::shift(n, k).unwrap(),
            bytes_per_pair: bytes,
        }
    }

    #[test]
    fn schedule_accessors() {
        let s = Schedule::new(
            4,
            CollectiveKind::AllGather,
            "ring",
            vec![shift_step(4, 1, 10.0), shift_step(4, 1, 10.0)],
        )
        .unwrap();
        assert_eq!(s.n(), 4);
        assert_eq!(s.num_steps(), 2);
        assert_eq!(s.kind(), CollectiveKind::AllGather);
        assert_eq!(s.algorithm(), "ring");
        assert_eq!(s.total_bytes_per_node(), 20.0);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        assert!(
            Schedule::new(4, CollectiveKind::Barrier, "x", vec![shift_step(6, 1, 1.0)]).is_err()
        );
    }

    #[test]
    fn rejects_bad_volume() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(matches!(
                Schedule::new(4, CollectiveKind::Barrier, "x", vec![shift_step(4, 1, bad)]),
                Err(CollectiveError::BadMessageSize(_))
            ));
        }
    }

    #[test]
    fn aggregate_demand_is_bvn_by_construction() {
        let s = Schedule::new(
            4,
            CollectiveKind::AllToAll,
            "linear",
            vec![
                shift_step(4, 1, 3.0),
                shift_step(4, 2, 3.0),
                shift_step(4, 3, 3.0),
            ],
        )
        .unwrap();
        let d = s.aggregate_demand().unwrap();
        assert!(d.approx_eq(&DemandMatrix::uniform_all_to_all(4, 3.0), 1e-12));
        // Observation 1: strict BvN decomposition of the aggregate exists.
        let bvn = aps_matrix::bvn::decompose(&d, 1e-9).unwrap();
        assert!(bvn.reconstruct().unwrap().approx_eq(&d, 1e-6));
    }

    #[test]
    fn composition_concatenates() {
        let a = Schedule::new(
            4,
            CollectiveKind::AllGather,
            "ring",
            vec![shift_step(4, 1, 1.0)],
        )
        .unwrap();
        let b = Schedule::new(
            4,
            CollectiveKind::AllToAll,
            "linear",
            vec![shift_step(4, 2, 2.0)],
        )
        .unwrap();
        let c = a.then(b).unwrap();
        assert_eq!(c.num_steps(), 2);
        assert_eq!(c.kind(), CollectiveKind::Composite);
        assert_eq!(c.algorithm(), "ring+linear");
        let other_n =
            Schedule::new(6, CollectiveKind::Barrier, "x", vec![shift_step(6, 1, 1.0)]).unwrap();
        let c2 = Schedule::new(4, CollectiveKind::Barrier, "y", vec![]).unwrap();
        assert!(c2.then(other_n).is_err());
    }

    #[test]
    fn deep_then_chains_compose_in_a_single_pass() {
        // Regression anchor for composite naming/validation cost: a deep
        // chain must append (never reformat the prefix or revalidate
        // accumulated steps), so the result is exact and the work linear.
        let link = |b: f64| {
            Schedule::new(
                16,
                CollectiveKind::AllGather,
                "x",
                vec![shift_step(16, 1, b)],
            )
            .unwrap()
        };
        let mut chain = link(0.0);
        for i in 1..2000 {
            chain = chain.then(link(i as f64)).unwrap();
        }
        assert_eq!(chain.num_steps(), 2000);
        assert_eq!(chain.kind(), CollectiveKind::Composite);
        assert_eq!(chain.algorithm().len(), 2 * 2000 - 1);
        assert!(chain.algorithm().bytes().all(|c| c == b'x' || c == b'+'));
        // Step order is preserved end to end.
        assert_eq!(chain.steps()[1999].bytes_per_pair, 1999.0);
        assert_eq!(
            chain.total_bytes_per_node(),
            (0..2000).sum::<usize>() as f64
        );
    }

    #[test]
    fn empty_steps_do_not_count_towards_bytes() {
        let s = Schedule::new(
            4,
            CollectiveKind::Barrier,
            "noop",
            vec![Step {
                matching: Matching::empty(4),
                bytes_per_pair: 100.0,
            }],
        )
        .unwrap();
        assert_eq!(s.total_bytes_per_node(), 0.0);
    }
}
