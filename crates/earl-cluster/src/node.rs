//! Cluster nodes.
//!
//! A [`Node`] models one commodity machine: an identifier, a number of task
//! slots (map/reduce slots in Hadoop terms), a disk with a capacity, and a
//! health state.  Nodes do not own data directly — block placement lives in
//! `earl-dfs` — but they account for how many bytes have been stored on them so
//! block placement and the locality-aware scheduler can make the same decisions
//! the paper's Hadoop deployment would.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node within a cluster (dense, zero-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The numeric index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Health state of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeState {
    /// The node is up and may run tasks and serve blocks.
    Up,
    /// The node has failed; its blocks and in-flight tasks are lost until the
    /// node is repaired.
    Failed,
}

impl NodeState {
    /// Whether the node can currently serve I/O and run tasks.
    pub fn is_available(self) -> bool {
        matches!(self, NodeState::Up)
    }
}

/// A single simulated machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    state: NodeState,
    task_slots: u32,
    disk_capacity_bytes: u64,
    stored_bytes: u64,
    /// Number of tasks executed on this node over its lifetime.
    tasks_run: u64,
    /// Number of times this node has failed.
    failures: u64,
}

impl Node {
    /// Creates a healthy node with the given slot count and disk capacity.
    pub fn new(id: NodeId, task_slots: u32, disk_capacity_bytes: u64) -> Self {
        Self {
            id,
            state: NodeState::Up,
            task_slots: task_slots.max(1),
            disk_capacity_bytes,
            stored_bytes: 0,
            tasks_run: 0,
            failures: 0,
        }
    }

    /// The node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current health state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Whether the node can serve I/O and run tasks.
    pub fn is_available(&self) -> bool {
        self.state.is_available()
    }

    /// Number of concurrent task slots.
    pub fn task_slots(&self) -> u32 {
        self.task_slots
    }

    /// Disk capacity in bytes.
    pub fn disk_capacity_bytes(&self) -> u64 {
        self.disk_capacity_bytes
    }

    /// Bytes of block data currently stored on the node.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Lifetime number of tasks run.
    pub fn tasks_run(&self) -> u64 {
        self.tasks_run
    }

    /// Lifetime number of failures.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Records that `bytes` of block data were placed on this node.
    pub(crate) fn add_stored(&mut self, bytes: u64) {
        self.stored_bytes = self.stored_bytes.saturating_add(bytes);
    }

    /// Records a task execution.
    pub(crate) fn record_task(&mut self) {
        self.tasks_run += 1;
    }

    /// Marks the node as failed.  Stored bytes are considered lost.
    pub(crate) fn fail(&mut self) {
        if self.state == NodeState::Up {
            self.state = NodeState::Failed;
            self.failures += 1;
        }
    }

    /// Repairs a failed node, bringing it back empty.
    pub(crate) fn repair(&mut self) {
        if self.state == NodeState::Failed {
            self.state = NodeState::Up;
            self.stored_bytes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeId(3), 2, 1_000)
    }

    #[test]
    fn new_node_is_up_and_empty() {
        let n = node();
        assert_eq!(n.id(), NodeId(3));
        assert!(n.is_available());
        assert_eq!(n.stored_bytes(), 0);
        assert_eq!(n.task_slots(), 2);
    }

    #[test]
    fn slots_are_at_least_one() {
        let n = Node::new(NodeId(0), 0, 10);
        assert_eq!(n.task_slots(), 1);
    }

    #[test]
    fn storage_accounting() {
        let mut n = node();
        n.add_stored(600);
        assert_eq!(n.stored_bytes(), 600);
    }

    #[test]
    fn failure_and_repair_cycle() {
        let mut n = node();
        n.add_stored(100);
        n.fail();
        assert_eq!(n.state(), NodeState::Failed);
        assert!(!n.is_available());
        assert_eq!(n.failures(), 1);
        // failing again while failed does not double count
        n.fail();
        assert_eq!(n.failures(), 1);
        n.repair();
        assert!(n.is_available());
        assert_eq!(n.stored_bytes(), 0, "repair brings the node back empty");
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "node-7");
        assert_eq!(NodeId(7).index(), 7);
    }
}
