//! # earl-dfs
//!
//! A simulated distributed file system modelled on HDFS, providing the storage
//! substrate the EARL paper relies on (§1, §2.1, §3.3 of Laptev et al., VLDB
//! 2012):
//!
//! * files are split into fixed-size **blocks** (64 MB by default) replicated
//!   across DataNodes;
//! * metadata (file → blocks, block → replica locations) lives on a dedicated
//!   **NameNode** structure, application data on **DataNodes** — mirroring the
//!   HDFS metadata/data split the paper describes;
//! * jobs read files through logical **input splits** and a
//!   **LineRecordReader** that backtracks to line boundaries, exactly the
//!   mechanism pre-map sampling (Algorithm 2 in the paper) piggybacks on.
//!
//! All I/O is charged to the shared [`earl_cluster::Cluster`] cost model, so the
//! simulated time reflects bytes actually touched.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod datanode;
pub mod dfs;
pub mod error;
pub mod file;
pub mod line_reader;
pub mod namenode;
pub mod split;

pub use block::{BlockId, DEFAULT_BLOCK_SIZE};
pub use dfs::{Dfs, DfsConfig};
pub use error::DfsError;
pub use file::{DfsPath, FileStatus};
pub use line_reader::LineRecordReader;
pub use split::InputSplit;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DfsError>;
