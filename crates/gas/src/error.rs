//! Engine error type.

use std::error::Error as StdError;
use std::fmt;

use crate::NodeId;

/// Errors produced by the GAS engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A simulated node ran out of memory — the failure mode of the paper's
    /// BASELINE on the large datasets (§5.3).
    ResourceExhausted {
        /// The node that exceeded its capacity.
        node: NodeId,
        /// Bytes the node would have needed.
        required: u64,
        /// The node's configured capacity in bytes.
        capacity: u64,
        /// The GAS step during which the exhaustion occurred.
        step: String,
    },
    /// A node failure was injected (fault-tolerance testing).
    NodeFailure {
        /// The failed node.
        node: NodeId,
        /// The GAS step during which the failure fired.
        step: String,
    },
    /// The engine was configured inconsistently.
    InvalidConfig(String),
    /// The graph backend recorded a failure to load a lazily loaded
    /// section (an I/O error or a checksum mismatch), so it served that
    /// section as empty lists; see
    /// [`GraphStore::check_fault`](snaple_graph::GraphStore::check_fault).
    GraphFault(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ResourceExhausted {
                node,
                required,
                capacity,
                step,
            } => write!(
                f,
                "node {node} exhausted memory during step {step:?}: needs {required} bytes, capacity {capacity} bytes"
            ),
            EngineError::NodeFailure { node, step } => {
                write!(f, "node {node} failed during step {step:?}")
            }
            EngineError::InvalidConfig(msg) => write!(f, "invalid engine configuration: {msg}"),
            EngineError::GraphFault(msg) => write!(f, "graph storage fault: {msg}"),
        }
    }
}

impl StdError for EngineError {}

impl From<snaple_graph::GraphError> for EngineError {
    fn from(e: snaple_graph::GraphError) -> Self {
        EngineError::GraphFault(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_node_and_step() {
        let e = EngineError::ResourceExhausted {
            node: NodeId::new(2),
            required: 100,
            capacity: 50,
            step: "gather-2".into(),
        };
        let s = e.to_string();
        assert!(s.contains("n2") && s.contains("gather-2") && s.contains("100"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }
}
