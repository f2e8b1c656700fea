//! Chunk-level data movement: what the matchings actually carry.
//!
//! A [`DataFlow`] refines a [`crate::Schedule`]: for every step it records
//! which chunks travel over each matched pair and whether the receiver
//! *reduces* them into its own copy or *replaces* it. The distinction
//! matters for verification: modelling an allgather copy as a reduction
//! would let a buggy algorithm pass by accumulating contributions the real
//! data movement would have overwritten.

/// How a received chunk combines with the receiver's copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Element-wise reduction: the receiver's contribution set becomes the
    /// union of both copies (reduce-scatter phases).
    Reduce,
    /// The received copy overwrites whatever the receiver held (allgather /
    /// broadcast / routing phases).
    Replace,
}

/// One point-to-point transfer within a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Chunk ids moved (see [`Semantics`] for each collective's chunk space).
    pub chunks: Vec<usize>,
    /// Combination rule at the receiver.
    pub combine: Combine,
}

/// All transfers of one step. The `(src, dst)` pairs must form exactly the
/// step's matching; the verifier enforces this.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataFlowStep {
    /// The step's transfers, one per communicating pair.
    pub transfers: Vec<Transfer>,
}

/// The semantic contract the final state is checked against.
///
/// Chunk spaces:
///
/// * `AllReduce` / `ReduceScatter` — `num_chunks` slots of the vector; every
///   node initially holds every slot with only its own contribution.
/// * `AllGather` — chunk `c` is node `c`'s input; node `i` initially holds
///   chunk `i` only.
/// * `AllToAll` — chunk `s·n + d` is the block node `s` owes node `d`; node
///   `i` initially holds chunks `i·n + d` for all `d ≠ i` (plus `i·n+i`,
///   which never moves).
/// * `Broadcast` — a single chunk 0 held only by the root initially.
/// * `Barrier` — chunk `c` is node `c`'s arrival token; semantics require
///   every node to have heard (transitively) from every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Final: every node's every slot carries all `n` contributions.
    AllReduce,
    /// Final: node `i`'s slot `i` carries all `n` contributions.
    ReduceScatter,
    /// Final: every node holds chunk `c` with exactly `{c}` as contribution.
    AllGather,
    /// Final: node `d` holds chunk `s·n + d` for every `s`.
    AllToAll,
    /// Final: every node holds chunk 0 originating from `root`.
    Broadcast {
        /// The broadcasting node.
        root: usize,
    },
    /// Final: node `i` holds chunk `i`, which originated at `root`.
    Scatter {
        /// The distributing node.
        root: usize,
    },
    /// Final: `root` holds chunk `c` originating from node `c`, for all `c`.
    Gather {
        /// The collecting node.
        root: usize,
    },
    /// Sparse personalized exchange over the `n²` chunk space of
    /// [`Semantics::AllToAll`]: every chunk `s·n + d` *listed in the initial
    /// holdings of `s`* must end at `d` with contribution `{s}` — but unlike
    /// the dense All-to-All, pairs that never communicate are simply absent.
    /// Used by stencil/halo exchanges.
    SparsePersonalized,
    /// Final: every node's knowledge set contains every token.
    Barrier,
}

/// Chunk-level description of a collective execution.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFlow {
    /// Number of nodes.
    pub n: usize,
    /// Size of the chunk id space.
    pub num_chunks: usize,
    /// Bytes per chunk (ties chunk counts back to step volumes).
    pub chunk_bytes: f64,
    /// `initial[node]` lists the chunk ids the node holds before step 0
    /// (each with only its own contribution).
    pub initial: Vec<Vec<usize>>,
    /// Per-step transfers, aligned with the schedule's steps.
    pub steps: Vec<DataFlowStep>,
    /// The semantic contract to verify against.
    pub semantics: Semantics,
}

impl DataFlow {
    /// Largest number of chunks any single transfer of step `i` carries —
    /// the data volume the *pair* exchanges, in chunks.
    pub fn max_chunks_in_step(&self, i: usize) -> usize {
        self.steps
            .get(i)
            .map(|s| {
                s.transfers
                    .iter()
                    .map(|t| t.chunks.len())
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_chunks_in_step_counts_per_pair() {
        let flow = DataFlow {
            n: 2,
            num_chunks: 4,
            chunk_bytes: 8.0,
            initial: vec![vec![0, 1], vec![2, 3]],
            steps: vec![DataFlowStep {
                transfers: vec![
                    Transfer {
                        src: 0,
                        dst: 1,
                        chunks: vec![0, 1],
                        combine: Combine::Replace,
                    },
                    Transfer {
                        src: 1,
                        dst: 0,
                        chunks: vec![2],
                        combine: Combine::Replace,
                    },
                ],
            }],
            semantics: Semantics::AllGather,
        };
        assert_eq!(flow.max_chunks_in_step(0), 2);
        assert_eq!(flow.max_chunks_in_step(7), 0);
    }
}
