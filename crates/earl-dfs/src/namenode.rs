//! The NameNode: file-system metadata.
//!
//! Like HDFS (and GFS, which the paper cites), metadata is kept separately from
//! application data: the NameNode knows which blocks make up each file and on
//! which DataNodes each block's replicas live, but never touches block
//! contents.

use std::collections::{BTreeMap, HashMap};

use earl_cluster::NodeId;
use serde::{Deserialize, Serialize};

use crate::block::{BlockId, BlockMeta};
use crate::error::DfsError;
use crate::file::{DfsPath, FileStatus};
use crate::Result;

/// Metadata for one file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileMeta {
    /// Blocks in file order.
    pub blocks: Vec<BlockMeta>,
    /// Total file length in bytes.
    pub len: u64,
    /// Block size used for this file.
    pub block_size: u64,
    /// Replication factor requested for this file.
    pub replication: u32,
    /// Number of newline-delimited records, if tracked.
    pub num_records: Option<u64>,
}

/// The metadata server.
#[derive(Debug, Default)]
pub struct NameNode {
    files: BTreeMap<DfsPath, FileMeta>,
    locations: HashMap<BlockId, Vec<NodeId>>,
    next_block_id: u64,
}

impl NameNode {
    /// Creates an empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh block id.
    pub fn allocate_block_id(&mut self) -> BlockId {
        let id = BlockId(self.next_block_id);
        self.next_block_id += 1;
        id
    }

    /// Registers a new (complete) file.
    pub fn create_file(&mut self, path: DfsPath, meta: FileMeta) -> Result<()> {
        if self.files.contains_key(&path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        self.files.insert(path, meta);
        Ok(())
    }

    /// Whether the path exists.
    pub fn exists(&self, path: &DfsPath) -> bool {
        self.files.contains_key(path)
    }

    /// Looks up a file's metadata.
    pub fn file(&self, path: &DfsPath) -> Result<&FileMeta> {
        self.files
            .get(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))
    }

    /// Lists all files.
    pub fn list(&self) -> Vec<FileStatus> {
        self.files
            .iter()
            .map(|(path, meta)| FileStatus {
                path: path.clone(),
                len: meta.len,
                num_blocks: meta.blocks.len(),
                block_size: meta.block_size,
                replication: meta.replication,
                num_records: meta.num_records,
            })
            .collect()
    }

    /// Records the replica locations of a block.
    pub fn set_locations(&mut self, block: BlockId, nodes: Vec<NodeId>) {
        self.locations.insert(block, nodes);
    }

    /// Replica locations of a block (empty if unknown).
    pub fn locations(&self, block: BlockId) -> &[NodeId] {
        self.locations
            .get(&block)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Removes a node from every block's replica list (called when the node
    /// fails).  Returns the blocks that now have **no** replicas.
    pub fn drop_node(&mut self, node: NodeId) -> Vec<BlockId> {
        let mut orphaned = Vec::new();
        for (block, replicas) in self.locations.iter_mut() {
            replicas.retain(|&n| n != node);
            if replicas.is_empty() {
                orphaned.push(*block);
            }
        }
        orphaned
    }

    /// Removes one replica location for a block.
    pub fn remove_replica(&mut self, block: BlockId, node: NodeId) {
        if let Some(entry) = self.locations.get_mut(&block) {
            entry.retain(|&n| n != node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_with_blocks(nn: &mut NameNode, nblocks: usize, block_size: u64) -> FileMeta {
        let blocks: Vec<BlockMeta> = (0..nblocks)
            .map(|i| BlockMeta {
                id: nn.allocate_block_id(),
                file_offset: i as u64 * block_size,
                len: block_size,
            })
            .collect();
        FileMeta {
            len: nblocks as u64 * block_size,
            blocks,
            block_size,
            replication: 3,
            num_records: None,
        }
    }

    #[test]
    fn create_and_lookup() {
        let mut nn = NameNode::new();
        let path = DfsPath::new("/a");
        let meta = meta_with_blocks(&mut nn, 3, 10);
        nn.create_file(path.clone(), meta).unwrap();
        assert!(nn.exists(&path));
        assert_eq!(nn.file(&path).unwrap().blocks.len(), 3);
        assert_eq!(nn.list().len(), 1);
        let duplicate = meta_with_blocks(&mut nn, 1, 10);
        assert!(matches!(
            nn.create_file(path.clone(), duplicate),
            Err(DfsError::FileExists(_))
        ));
        let missing = DfsPath::new("/b");
        assert!(!nn.exists(&missing));
        assert!(matches!(nn.file(&missing), Err(DfsError::FileNotFound(_))));
    }

    #[test]
    fn block_ids_are_unique_and_monotonic() {
        let mut nn = NameNode::new();
        let a = nn.allocate_block_id();
        let b = nn.allocate_block_id();
        assert_ne!(a, b);
        assert!(b.0 > a.0);
    }

    #[test]
    fn replica_management() {
        let mut nn = NameNode::new();
        let blk = nn.allocate_block_id();
        nn.set_locations(blk, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(nn.locations(blk), &[NodeId(0), NodeId(1), NodeId(2)]);
        nn.remove_replica(blk, NodeId(0));
        assert_eq!(nn.locations(blk), &[NodeId(1), NodeId(2)]);
        // Dropping both remaining nodes orphans the block.
        nn.drop_node(NodeId(1));
        let orphans = nn.drop_node(NodeId(2));
        assert_eq!(orphans, vec![blk]);
    }

    #[test]
    fn unknown_block_has_no_locations() {
        let nn = NameNode::new();
        assert!(nn.locations(BlockId(99)).is_empty());
    }
}
