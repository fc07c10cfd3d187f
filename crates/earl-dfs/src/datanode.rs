//! DataNode block storage.
//!
//! Block payloads are held once in a shared [`BlockStore`]; each DataNode keeps
//! the *set* of blocks it hosts.  This keeps the memory footprint of a
//! replication factor of 3 at 1× the data while still modelling replica
//! placement, locality, and data loss on node failure faithfully.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use earl_cluster::NodeId;

use crate::block::BlockId;
use crate::error::DfsError;
use crate::Result;

/// Shared storage of block payloads.
#[derive(Debug, Default)]
pub struct BlockStore {
    payloads: HashMap<BlockId, Bytes>,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a block payload.
    pub fn put(&mut self, id: BlockId, data: Bytes) {
        self.payloads.insert(id, data);
    }

    /// Fetches a block payload.
    pub fn get(&self, id: BlockId) -> Result<Bytes> {
        self.payloads
            .get(&id)
            .cloned()
            .ok_or(DfsError::BlockUnavailable(id))
    }

    /// Borrows a block payload in place (no refcount traffic), if stored.
    pub fn payload(&self, id: BlockId) -> Option<&[u8]> {
        self.payloads.get(&id).map(|data| &data[..])
    }

    /// Removes a block payload.
    pub fn remove(&mut self, id: BlockId) {
        self.payloads.remove(&id);
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }
}

/// Per-node view of which blocks it hosts.
#[derive(Debug, Default)]
pub struct DataNodeDirectory {
    hosted: HashMap<NodeId, HashSet<BlockId>>,
}

impl DataNodeDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `node` hosts a replica of `block`.
    pub fn add(&mut self, node: NodeId, block: BlockId) {
        self.hosted.entry(node).or_default().insert(block);
    }

    /// Drops every replica hosted by `node` (node failure), returning the
    /// affected block ids.
    pub fn drop_node(&mut self, node: NodeId) -> Vec<BlockId> {
        self.hosted
            .remove(&node)
            .map(|set| set.into_iter().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_store_round_trip() {
        let mut store = BlockStore::new();
        assert!(store.is_empty());
        store.put(BlockId(1), Bytes::from_static(b"hello"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(BlockId(1)).unwrap(), Bytes::from_static(b"hello"));
        store.remove(BlockId(1));
        assert!(matches!(
            store.get(BlockId(1)),
            Err(DfsError::BlockUnavailable(_))
        ));
    }

    #[test]
    fn directory_tracks_replicas() {
        let mut dir = DataNodeDirectory::new();
        dir.add(NodeId(0), BlockId(1));
        dir.add(NodeId(0), BlockId(2));
        dir.add(NodeId(1), BlockId(1));
        let mut dropped = dir.drop_node(NodeId(0));
        dropped.sort();
        assert_eq!(dropped, vec![BlockId(1), BlockId(2)]);
        assert!(
            dir.drop_node(NodeId(0)).is_empty(),
            "a node is dropped once"
        );
        assert_eq!(dir.drop_node(NodeId(1)), vec![BlockId(1)]);
        assert!(dir.drop_node(NodeId(9)).is_empty(), "unknown node");
    }
}
