//! Error type for the cluster substrate.

use std::fmt;

use crate::node::NodeId;

/// Errors raised by the simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A node id referenced a node that does not exist.
    UnknownNode(NodeId),
    /// An operation targeted a node that is failed.
    NodeUnavailable(NodeId),
    /// No node in the cluster is available to serve the request.
    NoAvailableNodes,
    /// The cluster was configured with invalid parameters.
    InvalidConfig(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(id) => write!(f, "unknown node {id}"),
            ClusterError::NodeUnavailable(id) => write!(f, "node {id} is unavailable"),
            ClusterError::NoAvailableNodes => write!(f, "no available nodes in the cluster"),
            ClusterError::InvalidConfig(msg) => write!(f, "invalid cluster configuration: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            ClusterError::UnknownNode(NodeId(2)).to_string(),
            "unknown node node-2"
        );
        assert!(ClusterError::NodeUnavailable(NodeId(0))
            .to_string()
            .contains("unavailable"));
        assert!(ClusterError::NoAvailableNodes
            .to_string()
            .contains("no available"));
        assert!(ClusterError::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
    }
}
