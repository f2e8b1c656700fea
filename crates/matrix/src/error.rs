//! Error types for matching and matrix construction.

use std::fmt;

/// Errors produced while constructing or decomposing matchings and demand
/// matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// An endpoint index was `>= n`.
    EndpointOutOfRange {
        /// The offending endpoint.
        endpoint: usize,
        /// The domain size.
        n: usize,
    },
    /// Two pairs shared a sender (a node may send to at most one peer).
    DuplicateSender(usize),
    /// Two pairs shared a receiver (a node may receive from at most one peer).
    DuplicateReceiver(usize),
    /// A pair connected a node to itself. Self-circuits carry no traffic and
    /// are rejected to keep the matching algebra unambiguous.
    SelfLoop(usize),
    /// A cyclic shift of 0 (mod n) is the identity and therefore not a
    /// communication pattern.
    IdentityShift {
        /// Requested shift amount.
        shift: usize,
        /// The domain size.
        n: usize,
    },
    /// XOR-based patterns require a power-of-two domain.
    NotPowerOfTwo(usize),
    /// The XOR mask was 0 or `>= n`.
    BadXorMask {
        /// Requested mask.
        mask: usize,
        /// The domain size.
        n: usize,
    },
    /// A matching was asked to span more ports than its `u32` storage
    /// holds (at most `u32::MAX`).
    TooManyPorts {
        /// The requested port count.
        n: usize,
    },
    /// Two objects of different dimension were combined.
    DimensionMismatch {
        /// Left-hand dimension.
        left: usize,
        /// Right-hand dimension.
        right: usize,
    },
    /// A demand entry was negative.
    NegativeDemand {
        /// Row (sender).
        src: usize,
        /// Column (receiver).
        dst: usize,
        /// The offending value.
        value: f64,
    },
    /// BvN decomposition requires (numerically) zero diagonal demand.
    DiagonalDemand {
        /// The node with self-demand.
        node: usize,
        /// The offending value.
        value: f64,
    },
    /// Strict BvN decomposition requires equal row and column sums.
    NotDoublyBalanced {
        /// Maximum deviation between marginal sums.
        deviation: f64,
    },
    /// The decomposition failed to make progress (numerical degeneracy).
    DecompositionStalled {
        /// Residual matrix mass when the decomposition stalled.
        residual: f64,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EndpointOutOfRange { endpoint, n } => {
                write!(
                    f,
                    "endpoint {endpoint} out of range for domain of {n} nodes"
                )
            }
            Self::DuplicateSender(s) => write!(f, "node {s} appears twice as a sender"),
            Self::DuplicateReceiver(r) => write!(f, "node {r} appears twice as a receiver"),
            Self::SelfLoop(v) => write!(f, "self-loop at node {v} is not a valid circuit"),
            Self::IdentityShift { shift, n } => {
                write!(
                    f,
                    "shift {shift} mod {n} is the identity, not a communication step"
                )
            }
            Self::NotPowerOfTwo(n) => write!(f, "domain size {n} is not a power of two"),
            Self::BadXorMask { mask, n } => {
                write!(f, "xor mask {mask} invalid for domain of {n} nodes")
            }
            Self::TooManyPorts { n } => {
                write!(f, "a matching spans at most {} ports, not {n}", u32::MAX)
            }
            Self::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            Self::NegativeDemand { src, dst, value } => {
                write!(f, "negative demand {value} from {src} to {dst}")
            }
            Self::DiagonalDemand { node, value } => {
                write!(f, "demand matrix has self-demand {value} at node {node}")
            }
            Self::NotDoublyBalanced { deviation } => {
                write!(
                    f,
                    "row/column sums differ by {deviation}; matrix is not doubly balanced"
                )
            }
            Self::DecompositionStalled { residual } => {
                write!(f, "BvN decomposition stalled with residual mass {residual}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}
