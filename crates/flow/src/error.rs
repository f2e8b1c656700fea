//! Error types for throughput computation.

use aps_topology::TopologyError;
use std::fmt;

/// Errors produced by the concurrent-flow solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Routing failed (some pair unreachable on the topology).
    Routing(TopologyError),
    /// The FPTAS accuracy parameter must satisfy `0 < ε < 0.5`.
    BadEpsilon(f64),
    /// The matching and topology have different node counts.
    DimensionMismatch {
        /// Topology node count.
        topology: usize,
        /// Matching node count.
        matching: usize,
    },
    /// A cache was queried with a different topology than it was built for:
    /// another node count or, at the same node count, other links.
    CacheTopologyMismatch {
        /// Name of the topology the cache was built for.
        expected: String,
        /// Node count of the topology the cache was built for.
        expected_n: usize,
        /// Name of the queried topology.
        got: String,
        /// Node count of the queried topology.
        got_n: usize,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Routing(e) => write!(f, "routing failed: {e}"),
            Self::BadEpsilon(eps) => {
                write!(
                    f,
                    "FPTAS epsilon {eps} outside the supported range (0, 0.5)"
                )
            }
            Self::DimensionMismatch { topology, matching } => {
                write!(
                    f,
                    "topology has {topology} nodes but matching has {matching}"
                )
            }
            Self::CacheTopologyMismatch {
                expected,
                expected_n,
                got,
                got_n,
            } => {
                write!(
                    f,
                    "theta cache built for '{expected}' ({expected_n} nodes) queried with \
                     '{got}' ({got_n} nodes)"
                )?;
                if expected_n == got_n {
                    write!(f, ": same node count, other links")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl From<TopologyError> for FlowError {
    fn from(e: TopologyError) -> Self {
        Self::Routing(e)
    }
}
