//! Error type for workflow construction and parsing.

use crate::id::NodeId;
use std::fmt;

/// Errors from building, validating, or parsing a workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainError {
    /// Two functions were registered with the same name.
    DuplicateFunction(String),
    /// An edge referenced a node id not present in the workflow.
    UnknownNode(NodeId),
    /// A name was referenced that no block defines.
    UnknownName(String),
    /// Adding the edge would create a cycle.
    CycleDetected {
        /// Source of the offending edge.
        from: NodeId,
        /// Destination of the offending edge.
        to: NodeId,
    },
    /// An edge was added twice between the same pair of nodes.
    DuplicateEdge {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// An edge weight (branch probability) was invalid.
    InvalidWeight {
        /// The offending weight.
        weight: f64,
    },
    /// The workflow has no nodes.
    EmptyWorkflow,
    /// A function parameter failed validation (message explains which).
    InvalidSpec(String),
    /// The state-definition-language document was malformed.
    Sdl(String),
    /// A workflow too large to build: its functions cannot be numbered
    /// or held in memory.
    TooLarge {
        /// The functions asked for.
        functions: usize,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::DuplicateFunction(name) => {
                write!(f, "duplicate function name `{name}`")
            }
            ChainError::UnknownNode(id) => write!(f, "unknown node {id}"),
            ChainError::UnknownName(name) => write!(f, "unknown block name `{name}`"),
            ChainError::CycleDetected { from, to } => {
                write!(f, "edge {from} -> {to} would create a cycle")
            }
            ChainError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
            ChainError::InvalidWeight { weight } => {
                write!(f, "edge weight {weight} must be finite and positive")
            }
            ChainError::EmptyWorkflow => write!(f, "workflow has no functions"),
            ChainError::InvalidSpec(msg) => write!(f, "invalid function spec: {msg}"),
            ChainError::Sdl(msg) => write!(f, "state definition language error: {msg}"),
            ChainError::TooLarge { functions } => {
                write!(
                    f,
                    "a workflow of {functions} functions does not fit in memory"
                )
            }
        }
    }
}

impl std::error::Error for ChainError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = ChainError::DuplicateFunction("f1".into());
        assert_eq!(e.to_string(), "duplicate function name `f1`");
        let e = ChainError::CycleDetected {
            from: NodeId::from_index(0),
            to: NodeId::from_index(1),
        };
        assert!(e.to_string().contains("n0 -> n1"));
        let e = ChainError::InvalidWeight { weight: -0.5 };
        assert!(e.to_string().contains("-0.5"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ChainError>();
    }
}
