//! The DFS facade: create, write, read, list, delete, split.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use earl_cluster::{Cluster, NodeId, Phase};
use parking_lot::RwLock;

use crate::block::{BlockId, BlockMeta, DEFAULT_BLOCK_SIZE};
use crate::datanode::{BlockStore, DataNodeDirectory};
use crate::error::DfsError;
use crate::file::{DfsPath, FileStatus};
use crate::line_reader::LineRecordReader;
use crate::namenode::{FileMeta, NameNode};
use crate::split::{compute_split_ranges, InputSplit};
use crate::Result;

/// Configuration of a DFS instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsConfig {
    /// Block size in bytes (HDFS default: 64 MB).
    pub block_size: u64,
    /// Replication factor (HDFS default: 3).
    pub replication: u32,
    /// Chunk size used by buffered line readers.
    pub io_chunk: u64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
            replication: 3,
            io_chunk: 64 * 1024,
        }
    }
}

impl DfsConfig {
    /// A configuration with small blocks, convenient for unit tests.
    pub fn small_blocks(block_size: u64) -> Self {
        Self {
            block_size,
            replication: 2,
            io_chunk: 64,
        }
    }
}

/// Shared handle to a simulated distributed file system.
#[derive(Debug, Clone)]
pub struct Dfs {
    inner: Arc<DfsInner>,
}

#[derive(Debug)]
struct DfsInner {
    cluster: Cluster,
    config: DfsConfig,
    namenode: RwLock<NameNode>,
    store: RwLock<BlockStore>,
    directory: RwLock<DataNodeDirectory>,
    /// Open read-stream heads per file: a multiset of the end offsets of
    /// previous reads.  A read that starts at one of them continues that
    /// stream, sequentially, with no seek charged; any other start opens a
    /// new stream and is charged a seek.  Multiset semantics make the seek
    /// accounting commutative, so charges are identical no matter how
    /// concurrent readers interleave.
    read_cursors: RwLock<HashMap<DfsPath, HashMap<u64, u32>>>,
}

impl Dfs {
    /// Creates an empty DFS on the given cluster.
    pub fn new(cluster: Cluster, config: DfsConfig) -> Result<Self> {
        if config.block_size == 0 {
            return Err(DfsError::InvalidConfig("block_size must be > 0".into()));
        }
        if config.replication == 0 {
            return Err(DfsError::InvalidConfig("replication must be ≥ 1".into()));
        }
        Ok(Self {
            inner: Arc::new(DfsInner {
                cluster,
                config,
                namenode: RwLock::new(NameNode::new()),
                store: RwLock::new(BlockStore::new()),
                directory: RwLock::new(DataNodeDirectory::new()),
                read_cursors: RwLock::new(HashMap::new()),
            }),
        })
    }

    /// A DFS on a single free-cost node with small blocks, for unit tests.
    pub fn for_tests() -> Self {
        Self::new(Cluster::for_tests(), DfsConfig::small_blocks(256)).expect("valid test config")
    }

    /// The cluster backing this DFS.
    pub fn cluster(&self) -> &Cluster {
        &self.inner.cluster
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DfsConfig {
        &self.inner.config
    }

    // ----- writing ----------------------------------------------------------

    /// Opens a writer for a new file.  Fails if the path already exists.
    pub fn create(&self, path: impl Into<DfsPath>) -> Result<DfsWriter> {
        let path = path.into();
        if self.inner.namenode.read().exists(&path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        Ok(DfsWriter {
            dfs: self.clone(),
            path,
            buffer: Vec::with_capacity(self.inner.config.block_size.min(1 << 20) as usize),
            blocks: Vec::new(),
            committed: 0,
            bytes_written: 0,
            num_records: 0,
            closed: false,
        })
    }

    /// Convenience: writes an entire file from an iterator of lines (a trailing
    /// `\n` is appended to each line).
    pub fn write_lines<I, S>(&self, path: impl Into<DfsPath>, lines: I) -> Result<FileStatus>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut writer = self.create(path)?;
        for line in lines {
            writer.write_line(line.as_ref())?;
        }
        writer.close()
    }

    /// Writes an entire file from `records`, already encoded as
    /// newline-terminated lines, `num_records` of them.  The file gets the
    /// blocks, replica placement and charges that [`Dfs::write_lines`] gives
    /// the same lines: blocks are cut at multiples of the block size however
    /// the bytes arrive.
    pub fn write_encoded(
        &self,
        path: impl Into<DfsPath>,
        records: &[u8],
        num_records: u64,
    ) -> Result<FileStatus> {
        let mut writer = self.create(path)?;
        writer.write_bytes(records)?;
        writer.num_records = num_records;
        writer.close()
    }

    // ----- metadata ---------------------------------------------------------

    /// Whether a file exists.
    pub fn exists(&self, path: impl Into<DfsPath>) -> bool {
        self.inner.namenode.read().exists(&path.into())
    }

    /// Status of a file.
    pub fn status(&self, path: impl Into<DfsPath>) -> Result<FileStatus> {
        let path = path.into();
        let nn = self.inner.namenode.read();
        let meta = nn.file(&path)?;
        Ok(FileStatus {
            path,
            len: meta.len,
            num_blocks: meta.blocks.len(),
            block_size: meta.block_size,
            replication: meta.replication,
            num_records: meta.num_records,
        })
    }

    /// Lists all files.
    pub fn list(&self) -> Vec<FileStatus> {
        self.inner.namenode.read().list()
    }

    // ----- reading ----------------------------------------------------------

    /// Reads `len` bytes starting at `offset`.  A disk seek is charged only
    /// when the read is *not* sequential with the previous read of the same
    /// file (mirroring real disk behaviour: streaming scans pay the seek once,
    /// random line probes pay it every time).  Reading past EOF is an error;
    /// reading a zero-length range returns an empty buffer.
    pub fn read_range(
        &self,
        phase: Phase,
        path: impl Into<DfsPath>,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        self.with_file(&path.into(), |file| {
            let file_len = file.meta.len;
            match offset.checked_add(len) {
                Some(end) if end <= file_len => {}
                _ => {
                    return Err(DfsError::OutOfBounds {
                        offset: offset.saturating_add(len),
                        len: file_len,
                    })
                }
            }
            if len == 0 {
                return Ok(Bytes::new());
            }
            let end = offset + len;
            let blocks = &file.meta.blocks[overlapping(&file.meta.blocks, offset, end)];
            let views: Vec<BlockView<'_>> = blocks.iter().map(|block| file.view(block)).collect();
            self.read_step(views.iter().copied(), phase, len, || {
                self.continue_file_stream(file.path, offset, end)
            })?;
            let mut out = Vec::with_capacity(len as usize);
            let payloads = views.iter().map(|view| (view.meta, view.payload));
            for piece in pieces(payloads, offset, end) {
                out.extend_from_slice(piece);
            }
            Ok(Bytes::from(out))
        })
    }

    /// Reads an entire file.
    pub fn read_full(&self, phase: Phase, path: impl Into<DfsPath>) -> Result<Bytes> {
        let path = path.into();
        let len = self.status(path.clone())?.len;
        self.read_range(phase, path, 0, len)
    }

    /// Reads an entire file and splits it into lines (without trailing `\n`).
    pub fn read_all_lines(&self, phase: Phase, path: impl Into<DfsPath>) -> Result<Vec<String>> {
        let bytes = self.read_full(phase, path)?;
        let text = String::from_utf8_lossy(&bytes);
        Ok(text.lines().map(str::to_owned).collect())
    }

    /// Exports a file's `(line-start byte offset, line)` records without
    /// charging the cost model or moving stream cursors — the provisioning
    /// read used to ship a dataset to remote workers **once at set-up time**
    /// (modelling DFS block placement, which happens before any job runs).
    /// Job-time messages then address these records by offset only; shipping
    /// raw input at job time would both distort the simulated accounting and
    /// defeat the point of early approximation.
    pub fn export_records(&self, path: impl Into<DfsPath>) -> Result<Vec<(u64, String)>> {
        let path = path.into();
        let blocks = {
            let nn = self.inner.namenode.read();
            let mut blocks = nn.file(&path)?.blocks.clone();
            blocks.sort_by_key(|b| b.file_offset);
            blocks
        };
        let mut bytes = Vec::new();
        {
            let store = self.inner.store.read();
            for block in &blocks {
                bytes.extend_from_slice(&store.get(block.id)?);
            }
        }
        let mut records = Vec::new();
        let mut line_start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                records.push((
                    line_start as u64,
                    String::from_utf8_lossy(&bytes[line_start..i]).into_owned(),
                ));
                line_start = i + 1;
            }
        }
        if line_start < bytes.len() {
            records.push((
                line_start as u64,
                String::from_utf8_lossy(&bytes[line_start..]).into_owned(),
            ));
        }
        Ok(records)
    }

    /// Reads the single line containing or starting after `offset`, mirroring
    /// Hadoop's `LineRecordReader` behaviour used by pre-map sampling
    /// (Algorithm 2): if `offset` is not at a line boundary the reader skips
    /// forward to the start of the next line.  Returns `(line_start, line)` or
    /// `None` if no complete line starts at or after `offset`.  It is a
    /// [`Dfs::probe_lines`] session of one probe, charged as
    /// [`LineProbes::probe`] describes.
    pub fn read_line_at(
        &self,
        phase: Phase,
        path: impl Into<DfsPath>,
        offset: u64,
    ) -> Result<Option<(u64, String)>> {
        self.probe_lines(phase, &path.into(), |probes| {
            let probe = probes.probe(offset)?;
            Ok(probe.map(|(start, line)| (start, String::from_utf8_lossy(line).into_owned())))
        })
    }

    /// Runs `probe` over a [`LineProbes`] session on `path`: the file and
    /// its stream heads are looked up once for any number of line probes,
    /// each charged exactly as a [`Dfs::read_line_at`] of its own.  This is
    /// the pre-map draw's read path.
    ///
    /// The session holds the metadata and stream-head locks until `probe`
    /// returns, so `probe` must not read through this `Dfs`, and other
    /// readers of it wait for the session to end.
    pub fn probe_lines<R, E: From<DfsError>>(
        &self,
        phase: Phase,
        path: &DfsPath,
        probe: impl FnOnce(&mut LineProbes<'_>) -> std::result::Result<R, E>,
    ) -> std::result::Result<R, E> {
        self.with_file(path, |file| {
            let mut cursors = self.inner.read_cursors.write();
            let (key, heads) = cursors.remove_entry(path).unzip();
            let mut probes = LineProbes {
                dfs: self,
                file: *file,
                phase,
                chunk: self.inner.config.io_chunk.max(16),
                table: Vec::new(),
                heads,
                line: Vec::new(),
                bytes_read: 0,
            };
            let result = probe(&mut probes);
            if let Some(heads) = probes.heads {
                cursors.insert(key.unwrap_or_else(|| path.clone()), heads);
            }
            result
        })
    }

    /// The open read-stream heads of `path`, in offset order: the end offset
    /// of an earlier read and how many streams end there.  A read that starts
    /// at one is charged no seek.
    pub fn stream_heads(&self, path: impl Into<DfsPath>) -> Vec<(u64, u32)> {
        let mut heads: Vec<(u64, u32)> = self
            .inner
            .read_cursors
            .read()
            .get(&path.into())
            .map(|heads| heads.iter().map(|(end, n)| (*end, *n)).collect())
            .unwrap_or_default();
        heads.sort_unstable();
        heads
    }

    /// Opens a line reader over an input split: a [`Dfs::split_lines`]
    /// session whose lines it hands out as owned strings.
    pub fn open_split(&self, split: InputSplit, phase: Phase) -> LineRecordReader {
        LineRecordReader::new(self.clone(), split, phase)
    }

    /// Reads the lines of `split` in one session and lends each one, with
    /// the file offset it starts at, to `line`: the exact job's read path.
    /// Returns the bytes read.
    ///
    /// The lines are Hadoop's `LineRecordReader`'s (see
    /// [`crate::line_reader`]): a split past offset 0 first reads the byte
    /// before it and, unless that byte is a newline, skips the line under way,
    /// which belongs to the split before; then every line that starts inside
    /// the split is read to its newline or EOF, past the split's end if need
    /// be.  A line is lent as borrowed block bytes, put together in one
    /// reused buffer when it spans blocks, and copied only when it is not
    /// UTF-8 (lossily, as `String::from_utf8_lossy` does).
    ///
    /// The file is resolved once and each block it reaches once.  The bytes
    /// are charged as a buffered reader reads them: the byte before the
    /// split, then chunks of `max(io_chunk, 16)` bytes from the split's start
    /// on, each a read step of its own (liveness, stream head, charge and
    /// failure poll) taken just before the scan needs its bytes.  The stream
    /// heads stay shared, so concurrent sessions on one file interleave as
    /// range reads would.  A split at offset 0 of a file that does not exist
    /// reads nothing.
    ///
    /// The session holds the metadata read locks until it returns, so `line`
    /// must not read through this `Dfs`.  Lines lent before an error stay
    /// lent: a caller that drops a failed split's output drops them itself.
    pub fn split_lines(
        &self,
        split: &InputSplit,
        phase: Phase,
        line: impl FnMut(u64, &str),
    ) -> Result<u64> {
        let read = self.with_file(&split.path, |file| {
            let blocks = &file.meta.blocks;
            let before = split.start.saturating_sub(1);
            SplitRead {
                dfs: self,
                file: *file,
                phase,
                chunk: self.inner.config.io_chunk.max(16),
                first: overlapping(blocks, before, before + 1).start,
                views: Vec::new(),
                at: 0,
                charged: split.start,
                bytes_read: 0,
                spanning: Vec::new(),
            }
            .run(split, line)
        });
        match read {
            Err(DfsError::FileNotFound(_)) if split.start == 0 => Ok(0),
            read => read,
        }
    }

    // ----- splits -----------------------------------------------------------

    /// Computes logical input splits of `split_size` bytes for a file.
    pub fn splits(&self, path: impl Into<DfsPath>, split_size: u64) -> Result<Vec<InputSplit>> {
        let path = path.into();
        let nn = self.inner.namenode.read();
        let meta = nn.file(&path)?;
        let ranges = compute_split_ranges(meta.len, split_size);
        Ok(ranges
            .into_iter()
            .enumerate()
            .map(|(index, (start, length))| {
                // Locality: the replicas of the block containing the split start.
                let locations = meta
                    .blocks
                    .iter()
                    .find(|b| b.contains(start))
                    .map(|b| nn.locations(b.id).to_vec())
                    .unwrap_or_default();
                InputSplit {
                    path: path.clone(),
                    start,
                    length,
                    locations,
                    index,
                }
            })
            .collect())
    }

    /// Computes splits using the configured block size as the split size (the
    /// common Hadoop default of one split per block).
    pub fn default_splits(&self, path: impl Into<DfsPath>) -> Result<Vec<InputSplit>> {
        let block_size = self.inner.config.block_size;
        self.splits(path, block_size)
    }

    // ----- failure handling -------------------------------------------------

    /// Synchronises DFS metadata with cluster node failures: replicas on failed
    /// nodes are dropped.  Returns blocks that lost **all** replicas (their
    /// data is gone until re-written).
    pub fn reconcile_failures(&self) -> Vec<BlockId> {
        let failed = self.inner.cluster.failed_nodes();
        if failed.is_empty() {
            return Vec::new();
        }
        let mut nn = self.inner.namenode.write();
        let mut dir = self.inner.directory.write();
        let mut orphaned = Vec::new();
        for node in failed {
            for block in dir.drop_node(node) {
                nn.remove_replica(block, node);
                if nn.locations(block).is_empty() && !orphaned.contains(&block) {
                    orphaned.push(block);
                }
            }
        }
        // Drop payloads of fully-orphaned blocks to model data loss.
        let mut store = self.inner.store.write();
        for block in &orphaned {
            store.remove(*block);
        }
        orphaned
    }

    /// Fraction of a file's bytes still readable (i.e. in blocks with at least
    /// one live replica).  Used by the fault-tolerance experiments.
    pub fn readable_fraction(&self, path: impl Into<DfsPath>) -> Result<f64> {
        let path = path.into();
        let nn = self.inner.namenode.read();
        let meta = nn.file(&path)?;
        if meta.len == 0 {
            return Ok(1.0);
        }
        let live_bytes: u64 = meta
            .blocks
            .iter()
            .filter(|b| {
                nn.locations(b.id)
                    .iter()
                    .any(|n| self.inner.cluster.is_node_available(*n))
            })
            .map(|b| b.len)
            .sum();
        Ok(live_bytes as f64 / meta.len as f64)
    }

    // ----- internals --------------------------------------------------------

    /// Resolves `path` once and runs `read` on it, holding the namenode and
    /// block-store read locks for the duration — so `read` must not take
    /// either again (a recursive read lock can deadlock behind a waiting
    /// writer).
    fn with_file<R, E: From<DfsError>>(
        &self,
        path: &DfsPath,
        read: impl FnOnce(&OpenFile<'_>) -> std::result::Result<R, E>,
    ) -> std::result::Result<R, E> {
        let namenode = self.inner.namenode.read();
        let store = self.inner.store.read();
        read(&OpenFile {
            path,
            meta: namenode.file(path)?,
            namenode: &namenode,
            store: &store,
        })
    }

    /// The cost model's one read step, shared by range reads and line
    /// probes, for a non-empty in-bounds range of `len` bytes whose
    /// overlapping blocks are `blocks`, in this order:
    ///
    /// 1. liveness of every block — an unavailable one fails the read with
    ///    stream heads and metrics untouched;
    /// 2. `continues_stream`, the stream-head update that decides seek vs
    ///    sequential (see [`continue_stream`]);
    /// 3. the disk charge, which also polls the failure injector.
    ///
    /// Liveness is asked of the cluster at every step, so a node that a
    /// failure poll took down is seen by the very next read.
    fn read_step<'a>(
        &self,
        blocks: impl Iterator<Item = BlockView<'a>>,
        phase: Phase,
        len: u64,
        continues_stream: impl FnOnce() -> bool,
    ) -> Result<()> {
        for block in blocks {
            // No recorded replicas: a file written before any failure
            // bookkeeping, readable as long as the payload exists.
            let dead = !block.replicas.is_empty()
                && !block
                    .replicas
                    .iter()
                    .any(|n| self.inner.cluster.is_node_available(*n));
            if dead || block.payload.is_none() {
                return Err(DfsError::BlockUnavailable(block.meta.id));
            }
        }
        if continues_stream() {
            self.inner.cluster.charge_disk_read(phase, len);
        } else {
            self.inner.cluster.charge_disk_seek_read(phase, len);
        }
        Ok(())
    }

    /// [`continue_stream`] on the stream heads of `path`, under their lock.
    fn continue_file_stream(&self, path: &DfsPath, offset: u64, end: u64) -> bool {
        let mut cursors = self.inner.read_cursors.write();
        let heads = if let Some(heads) = cursors.get_mut(path) {
            heads
        } else {
            cursors.entry(path.clone()).or_default()
        };
        continue_stream(heads, offset, end)
    }

    fn place_replicas(&self, count: u32) -> Result<Vec<NodeId>> {
        let available = self.inner.cluster.available_nodes();
        if available.is_empty() {
            return Err(DfsError::Cluster(
                earl_cluster::ClusterError::NoAvailableNodes,
            ));
        }
        let count = (count as usize).min(available.len());
        // First replica on the least-loaded node, remaining replicas on random
        // distinct nodes — an approximation of HDFS placement plus the data
        // re-balancer the paper relies on for uniformity.
        let mut chosen = Vec::with_capacity(count);
        let first = self.inner.cluster.least_loaded_node()?;
        chosen.push(first);
        let mut remaining: Vec<NodeId> = available.into_iter().filter(|n| *n != first).collect();
        while chosen.len() < count && !remaining.is_empty() {
            let idx = self.inner.cluster.random_below(remaining.len() as u64) as usize;
            chosen.push(remaining.swap_remove(idx));
        }
        Ok(chosen)
    }

    fn commit_block(&self, data: &[u8], file_offset: u64, phase: Phase) -> Result<BlockMeta> {
        let len = data.len() as u64;
        let replicas = self.place_replicas(self.inner.config.replication)?;
        let id = self.inner.namenode.write().allocate_block_id();
        self.inner.store.write().put(id, Bytes::from(data));
        // Charge the primary write plus pipeline transfers to the other replicas.
        self.inner.cluster.charge_disk_write(phase, len);
        for (i, node) in replicas.iter().enumerate() {
            if i > 0 {
                self.inner
                    .cluster
                    .charge_net_transfer(phase, replicas[0], *node, len);
                self.inner.cluster.charge_disk_write(phase, len);
            }
            self.inner.cluster.record_block_stored(*node, len)?;
            self.inner.directory.write().add(*node, id);
        }
        self.inner.namenode.write().set_locations(id, replicas);
        Ok(BlockMeta {
            id,
            file_offset,
            len,
        })
    }

    fn finish_file(
        &self,
        path: DfsPath,
        blocks: Vec<BlockMeta>,
        len: u64,
        num_records: u64,
    ) -> Result<FileStatus> {
        let meta = FileMeta {
            blocks,
            len,
            block_size: self.inner.config.block_size,
            replication: self.inner.config.replication,
            num_records: Some(num_records),
        };
        self.inner
            .namenode
            .write()
            .create_file(path.clone(), meta)?;
        self.status(path)
    }
}

/// A file resolved for reading: its metadata and the block payloads, borrowed
/// under their read locks (see [`Dfs::with_file`]).
#[derive(Clone, Copy)]
struct OpenFile<'a> {
    path: &'a DfsPath,
    meta: &'a FileMeta,
    namenode: &'a NameNode,
    store: &'a BlockStore,
}

impl<'a> OpenFile<'a> {
    /// `block` of this file with its replicas and payload looked up.
    fn view(&self, block: &'a BlockMeta) -> BlockView<'a> {
        BlockView {
            meta: block,
            replicas: self.namenode.locations(block.id),
            payload: self.store.payload(block.id),
        }
    }

    /// `block` of this file with its payload looked up.
    fn payload(&self, block: &'a BlockMeta) -> (&'a BlockMeta, Option<&'a [u8]>) {
        (block, self.store.payload(block.id))
    }
}

/// A block of an open file, resolved: where its replicas live and its
/// payload, if the store still holds it.
#[derive(Clone, Copy)]
struct BlockView<'a> {
    meta: &'a BlockMeta,
    replicas: &'a [NodeId],
    payload: Option<&'a [u8]>,
}

impl BlockView<'_> {
    /// Offset one past the block's last byte.
    fn end(&self) -> u64 {
        self.meta.file_offset + self.meta.len
    }
}

/// The indices of the blocks that overlap `[offset, end)`.  Blocks are
/// contiguous and in file order (`DfsWriter` cuts them so).
fn overlapping(blocks: &[BlockMeta], offset: u64, end: u64) -> Range<usize> {
    let first = blocks.partition_point(|b| b.file_offset + b.len <= offset);
    first..first + blocks[first..].partition_point(|b| b.file_offset < end)
}

/// The bytes of `[offset, end)` as borrowed slices of the payloads of the
/// blocks it overlaps, given as `(block, payload)` in file order.  The
/// payloads must be there: [`Dfs::read_step`] checked them.
fn pieces<'a>(
    blocks: impl Iterator<Item = (&'a BlockMeta, Option<&'a [u8]>)>,
    offset: u64,
    end: u64,
) -> impl Iterator<Item = &'a [u8]> {
    blocks.map(move |(block, payload)| {
        let data = payload.expect("payload checked by the read step, under the same store lock");
        let from = offset.saturating_sub(block.file_offset) as usize;
        let to = (end.min(block.file_offset + block.len) - block.file_offset) as usize;
        &data[from..to]
    })
}

/// Bound on retained stream heads per file.  Streaming readers keep the
/// multiset size constant (each read consumes one head and inserts one), so
/// the cap is only approached by long runs of random probes — which are
/// sequential driver code, keeping the cap deterministic.  At the cap, new
/// heads are simply not recorded: later reads at those offsets charge a seek,
/// which is what a cold random probe pays anyway.
const MAX_STREAM_HEADS: usize = 4096;

/// Moves a file's stream `heads` past a read of `[offset, end)`: the read
/// continues a stream if it starts at a head, which it consumes, and it
/// leaves a head at `end`.  Returns whether it continued a stream.
fn continue_stream(heads: &mut HashMap<u64, u32>, offset: u64, end: u64) -> bool {
    let sequential = match heads.get_mut(&offset) {
        Some(count) if *count > 0 => {
            *count -= 1;
            if *count == 0 {
                heads.remove(&offset);
            }
            true
        }
        _ => false,
    };
    if heads.len() < MAX_STREAM_HEADS {
        *heads.entry(end).or_insert(0) += 1;
    }
    sequential
}

/// A file opened for a run of line probes by [`Dfs::probe_lines`]: the
/// file is resolved once, and the file's stream heads are taken out of the
/// DFS for the session and put back at its end.
pub struct LineProbes<'a> {
    dfs: &'a Dfs,
    file: OpenFile<'a>,
    phase: Phase,
    /// Bytes per charged read: `max(io_chunk, 16)`.
    chunk: u64,
    /// Every block of the file, resolved, in file order — built by the first
    /// [`LineProbes::read_ahead`], so that a session of many probes looks
    /// each block up once and a session of one allocates nothing.  Empty
    /// until then, when each read looks its blocks up itself.
    table: Vec<BlockView<'a>>,
    /// The file's stream heads; `None` while the file has none on record.
    heads: Option<HashMap<u64, u32>>,
    /// A line that spans pieces, assembled.
    line: Vec<u8>,
    bytes_read: u64,
}

impl LineProbes<'_> {
    /// Bytes this session has charged as read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The line containing or starting after `offset`, as
    /// [`Dfs::read_line_at`] defines it, with the line's bytes borrowed.
    ///
    /// The probe is *charged* as a buffered scan — reads of
    /// `max(io_chunk, 16)` bytes starting one byte before `offset` (that byte
    /// tells whether `offset` is already a line start), continuing
    /// sequentially until the line's newline or EOF, so each probe costs one
    /// seek — but it scans the block payloads in place and copies a line
    /// only when it spans two reads or blocks.
    pub fn probe(&mut self, offset: u64) -> Result<Option<(u64, &[u8])>> {
        let file_len = self.file.meta.len;
        if offset >= file_len {
            return Ok(None);
        }
        // The line starts after the first newline at or after
        // `offset - 1`; at offset 0 it starts right there.
        let mut line_start = (offset == 0).then_some(0);
        self.line.clear();
        let mut pos = offset.saturating_sub(1);
        while pos < file_len {
            let end = (pos + self.chunk).min(file_len);
            // From the table once built, else looked up (replicas only for
            // the liveness check).
            let (table, file) = (&self.table, self.file);
            let blocks = overlapping(&file.meta.blocks, pos, end);
            let views = blocks.clone().map(|i| match table.get(i) {
                Some(view) => *view,
                None => file.view(&file.meta.blocks[i]),
            });
            let heads = &mut self.heads;
            self.dfs.read_step(views, self.phase, end - pos, || {
                continue_stream(heads.get_or_insert_with(HashMap::new), pos, end)
            })?;
            self.bytes_read += end - pos;
            let payloads = blocks.map(|i| match table.get(i) {
                Some(view) => (view.meta, view.payload),
                None => file.payload(&file.meta.blocks[i]),
            });
            for mut piece in pieces(payloads, pos, end) {
                let piece_start = pos;
                pos += piece.len() as u64;
                if line_start.is_none() {
                    let Some(nl) = piece.iter().position(|b| *b == b'\n') else {
                        continue;
                    };
                    let start = piece_start + nl as u64 + 1;
                    if start >= file_len {
                        return Ok(None);
                    }
                    line_start = Some(start);
                    piece = &piece[nl + 1..];
                }
                if let Some(nl) = piece.iter().position(|b| *b == b'\n') {
                    let line = if self.line.is_empty() {
                        &piece[..nl]
                    } else {
                        self.line.extend_from_slice(&piece[..nl]);
                        &self.line[..]
                    };
                    return Ok(line_start.map(|start| (start, line)));
                }
                self.line.extend_from_slice(piece);
            }
        }
        // EOF before a newline: what was read is the (final) line — or, if
        // the scan never reached a line start, there is no line.
        Ok(line_start.map(|start| (start, &self.line[..])))
    }

    /// Reads the first byte that a probe at each of `offsets` reads, and
    /// drops it.  A probe's wait is mostly one cache miss on that byte; read
    /// back to back, the misses of a run of upcoming probes overlap instead
    /// of queueing.  It charges nothing, checks no liveness and moves no
    /// stream head, so it changes nothing a probe returns or charges.
    pub fn read_ahead(&mut self, offsets: impl IntoIterator<Item = u64>) {
        if self.table.is_empty() {
            let file = self.file;
            self.table = file.meta.blocks.iter().map(|b| file.view(b)).collect();
        }
        let mut folded = 0u8;
        for offset in offsets {
            let at = offset.saturating_sub(1);
            let block = overlapping(&self.file.meta.blocks, at, at + 1).start;
            if let Some(BlockView {
                meta,
                payload: Some(data),
                ..
            }) = self.table.get(block)
            {
                let byte = data.get((at - meta.file_offset) as usize);
                folded ^= byte.copied().unwrap_or(0);
            }
        }
        std::hint::black_box(folded);
    }
}

/// One split being read by [`Dfs::split_lines`].
struct SplitRead<'a> {
    dfs: &'a Dfs,
    file: OpenFile<'a>,
    phase: Phase,
    /// Bytes per charged chunk: `max(io_chunk, 16)`.
    chunk: u64,
    /// The file's index of `views[0]`: the block holding the split's first
    /// byte, or the byte before it.
    first: usize,
    /// The blocks that the charged reads reached, from `first` on, each
    /// resolved once.
    views: Vec<BlockView<'a>>,
    /// The index in `views` of the block the scan is in.
    at: usize,
    /// The end of the charged chunks: the next chunk starts here.
    charged: u64,
    bytes_read: u64,
    /// A line that spans blocks, put together.
    spanning: Vec<u8>,
}

impl SplitRead<'_> {
    fn run(mut self, split: &InputSplit, mut line: impl FnMut(u64, &str)) -> Result<u64> {
        let file_len = self.file.meta.len;
        let mut pos = split.start;
        if pos > 0 {
            if pos > file_len {
                return Err(DfsError::OutOfBounds {
                    offset: pos,
                    len: file_len,
                });
            }
            self.read(pos - 1, pos)?;
            if self.bytes(pos - 1, pos) != b"\n" {
                // The line under way belongs to the split before.
                let (newline, found) = self.scan(pos)?;
                if !found {
                    return Ok(self.bytes_read);
                }
                pos = newline + 1;
            }
        }
        // A line belongs to this split if it starts before the split's end.
        while pos < split.end() && pos < file_len {
            let (stop, found) = self.scan(pos)?;
            line(pos, &String::from_utf8_lossy(self.bytes(pos, stop)));
            pos = stop + u64::from(found);
        }
        Ok(self.bytes_read)
    }

    /// One read step over `[pos, end)`, resolving the blocks it reaches for
    /// the first time.
    fn read(&mut self, pos: u64, end: u64) -> Result<()> {
        let blocks = overlapping(&self.file.meta.blocks, pos, end);
        while self.first + self.views.len() < blocks.end {
            let block = &self.file.meta.blocks[self.first + self.views.len()];
            self.views.push(self.file.view(block));
        }
        let views = &self.views[blocks.start - self.first..blocks.end - self.first];
        let (dfs, path) = (self.dfs, self.file.path);
        dfs.read_step(views.iter().copied(), self.phase, end - pos, || {
            dfs.continue_file_stream(path, pos, end)
        })?;
        self.bytes_read += end - pos;
        Ok(())
    }

    /// Scans from `from`, which is at most `charged`, to the next newline,
    /// charging the next chunk whenever the scan reaches the end of the
    /// charged bytes.  Returns where the scan stopped — the newline, or EOF
    /// — and whether it found a newline.  Leaves `at` at the block it
    /// stopped in.
    fn scan(&mut self, mut from: u64) -> Result<(u64, bool)> {
        let file_len = self.file.meta.len;
        loop {
            if from == self.charged {
                if from == file_len {
                    return Ok((from, false));
                }
                let end = (from + self.chunk).min(file_len);
                self.read(from, end)?;
                self.charged = end;
            }
            while self.views[self.at].end() <= from {
                self.at += 1;
            }
            let view = self.views[self.at];
            let stop = self.charged.min(view.end());
            let data = view.payload.expect("payload checked by the read step");
            let offset = view.meta.file_offset;
            let data = &data[(from - offset) as usize..(stop - offset) as usize];
            if let Some(nl) = data.iter().position(|b| *b == b'\n') {
                return Ok((from + nl as u64, true));
            }
            from = stop;
        }
    }

    /// The charged bytes `[from, to)`, which end in the block at `at`:
    /// borrowed when they lie in that one block, else put together in
    /// `spanning`.
    fn bytes(&mut self, from: u64, to: u64) -> &[u8] {
        let mut first = self.at;
        while self.views[first].meta.file_offset > from {
            first -= 1;
        }
        let blocks = self.views[first..=self.at].iter();
        let mut pieces = pieces(blocks.map(|view| (view.meta, view.payload)), from, to);
        if first == self.at {
            return pieces.next().unwrap_or_default();
        }
        self.spanning.clear();
        for piece in pieces {
            self.spanning.extend_from_slice(piece);
        }
        &self.spanning
    }
}

/// Streaming writer that cuts a file into blocks as data arrives.
#[derive(Debug)]
pub struct DfsWriter {
    dfs: Dfs,
    path: DfsPath,
    buffer: Vec<u8>,
    blocks: Vec<BlockMeta>,
    /// Bytes in `blocks`: the file offset of the next block.
    committed: u64,
    bytes_written: u64,
    num_records: u64,
    closed: bool,
}

impl DfsWriter {
    /// Appends raw bytes.  Each block that fills up is committed as it does,
    /// straight from `data` when nothing is buffered, so a slice spanning
    /// many blocks is copied once, into the block store.
    pub fn write_bytes(&mut self, mut data: &[u8]) -> Result<()> {
        self.bytes_written += data.len() as u64;
        let block_size = self.dfs.inner.config.block_size as usize;
        while self.buffer.len() + data.len() >= block_size {
            let (head, rest) = data.split_at(block_size - self.buffer.len());
            if self.buffer.is_empty() {
                self.commit(head)?;
            } else {
                self.buffer.extend_from_slice(head);
                let mut full = std::mem::take(&mut self.buffer);
                self.commit(&full)?;
                full.clear();
                self.buffer = full;
            }
            data = rest;
        }
        self.buffer.extend_from_slice(data);
        Ok(())
    }

    fn commit(&mut self, data: &[u8]) -> Result<()> {
        let meta = self.dfs.commit_block(data, self.committed, Phase::Output)?;
        self.committed += data.len() as u64;
        self.blocks.push(meta);
        Ok(())
    }

    /// Appends one newline-terminated record.
    pub fn write_line(&mut self, line: &str) -> Result<()> {
        self.num_records += 1;
        self.write_bytes(line.as_bytes())?;
        self.write_bytes(b"\n")
    }

    /// Bytes written so far (including buffered, un-committed bytes).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Flushes the remaining buffer and registers the file with the NameNode.
    pub fn close(mut self) -> Result<FileStatus> {
        if !self.buffer.is_empty() {
            let data = std::mem::take(&mut self.buffer);
            self.commit(&data)?;
        }
        self.closed = true;
        let blocks = std::mem::take(&mut self.blocks);
        self.dfs.finish_file(
            self.path.clone(),
            blocks,
            self.bytes_written,
            self.num_records,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs_with(block_size: u64, nodes: u32) -> Dfs {
        let cluster = Cluster::builder()
            .nodes(nodes)
            .cost_model(earl_cluster::CostModel::free())
            .build()
            .unwrap();
        Dfs::new(
            cluster,
            DfsConfig {
                block_size,
                replication: 2,
                io_chunk: 32,
            },
        )
        .unwrap()
    }

    #[test]
    fn invalid_configs_rejected() {
        let cluster = Cluster::for_tests();
        assert!(Dfs::new(
            cluster.clone(),
            DfsConfig {
                block_size: 0,
                replication: 1,
                io_chunk: 8
            }
        )
        .is_err());
        assert!(Dfs::new(
            cluster,
            DfsConfig {
                block_size: 8,
                replication: 0,
                io_chunk: 8
            }
        )
        .is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let dfs = dfs_with(16, 3);
        let lines: Vec<String> = (0..20).map(|i| format!("record-{i:03}")).collect();
        let status = dfs.write_lines("/data", &lines).unwrap();
        assert_eq!(status.num_records, Some(20));
        assert!(
            status.num_blocks > 1,
            "small block size must produce several blocks"
        );
        let read_back = dfs.read_all_lines(Phase::Load, "/data").unwrap();
        assert_eq!(read_back, lines);
    }

    #[test]
    fn read_range_and_bounds() {
        let dfs = dfs_with(8, 2);
        dfs.write_lines("/f", ["abc", "defg"]).unwrap(); // "abc\ndefg\n" = 9 bytes
        let status = dfs.status("/f").unwrap();
        assert_eq!(status.len, 9);
        assert_eq!(
            &dfs.read_range(Phase::Load, "/f", 4, 4).unwrap()[..],
            b"defg"
        );
        assert_eq!(dfs.read_range(Phase::Load, "/f", 9, 0).unwrap().len(), 0);
        assert!(matches!(
            dfs.read_range(Phase::Load, "/f", 8, 5),
            Err(DfsError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn read_range_length_overflow_is_out_of_bounds() {
        let dfs = dfs_with(8, 2);
        dfs.write_lines("/f", ["abc", "defg"]).unwrap();
        for (offset, len) in [(1, u64::MAX), (u64::MAX, 1), (u64::MAX, u64::MAX)] {
            assert!(
                matches!(
                    dfs.read_range(Phase::Load, "/f", offset, len),
                    Err(DfsError::OutOfBounds { len: 9, .. })
                ),
                "offset {offset} len {len}"
            );
        }
    }

    #[test]
    fn duplicate_create_fails() {
        let dfs = dfs_with(16, 1);
        dfs.write_lines("/x", ["a"]).unwrap();
        assert!(matches!(dfs.create("/x"), Err(DfsError::FileExists(_))));
        assert!(matches!(
            dfs.write_lines("/x", ["b"]),
            Err(DfsError::FileExists(_))
        ));
    }

    #[test]
    fn splits_cover_file_and_have_locations() {
        let dfs = dfs_with(32, 3);
        dfs.write_lines("/s", (0..100).map(|i| format!("line{i}")))
            .unwrap();
        let status = dfs.status("/s").unwrap();
        let splits = dfs.splits("/s", 64).unwrap();
        let covered: u64 = splits.iter().map(|s| s.length).sum();
        assert_eq!(covered, status.len);
        for s in &splits {
            assert!(
                !s.locations.is_empty(),
                "splits should carry replica locations"
            );
        }
        let default_splits = dfs.default_splits("/s").unwrap();
        assert!(!default_splits.is_empty());
    }

    #[test]
    fn read_line_at_backtracks_to_line_start() {
        let dfs = dfs_with(64, 1);
        dfs.write_lines("/l", ["alpha", "bravo", "charlie"])
            .unwrap();
        // offset 0 → first line
        assert_eq!(
            dfs.read_line_at(Phase::Load, "/l", 0).unwrap(),
            Some((0, "alpha".into()))
        );
        // offset in the middle of "alpha" → skip to "bravo" (starts at 6)
        assert_eq!(
            dfs.read_line_at(Phase::Load, "/l", 2).unwrap(),
            Some((6, "bravo".into()))
        );
        // offset exactly at a line start → that line
        assert_eq!(
            dfs.read_line_at(Phase::Load, "/l", 6).unwrap(),
            Some((6, "bravo".into()))
        );
        // offset inside the final line → no following line, but the trailing
        // newline means the scan lands exactly at EOF → None
        assert_eq!(dfs.read_line_at(Phase::Load, "/l", 15).unwrap(), None);
        // offset past EOF → None
        assert_eq!(dfs.read_line_at(Phase::Load, "/l", 1000).unwrap(), None);
    }

    #[test]
    fn metrics_account_reads() {
        let cluster = Cluster::with_nodes(2);
        let dfs = Dfs::new(cluster, DfsConfig::small_blocks(1024)).unwrap();
        dfs.write_lines("/m", (0..100).map(|i| i.to_string()))
            .unwrap();
        let before = dfs
            .cluster()
            .metrics()
            .snapshot()
            .phase(Phase::Load)
            .disk_bytes_read;
        dfs.read_full(Phase::Load, "/m").unwrap();
        let after = dfs
            .cluster()
            .metrics()
            .snapshot()
            .phase(Phase::Load)
            .disk_bytes_read;
        assert_eq!(after - before, dfs.status("/m").unwrap().len);
        assert!(dfs.cluster().elapsed() > earl_cluster::SimDuration::ZERO);
    }

    #[test]
    fn failure_reconciliation_orphans_blocks() {
        // replication 1 so any node failure loses data
        let cluster = Cluster::builder()
            .nodes(2)
            .cost_model(earl_cluster::CostModel::free())
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 8,
                replication: 1,
                io_chunk: 8,
            },
        )
        .unwrap();
        dfs.write_lines("/ft", (0..40).map(|i| i.to_string()))
            .unwrap();
        assert!((dfs.readable_fraction("/ft").unwrap() - 1.0).abs() < 1e-12);
        // Fail node 0 and reconcile.
        dfs.cluster().fail_node(NodeId(0)).unwrap();
        let orphaned = dfs.reconcile_failures();
        let frac = dfs.readable_fraction("/ft").unwrap();
        if orphaned.is_empty() {
            assert!((frac - 1.0).abs() < 1e-12);
        } else {
            assert!(frac < 1.0);
            // Reading the whole file should now fail on an orphaned block.
            assert!(dfs.read_full(Phase::Load, "/ft").is_err());
        }
    }

    #[test]
    fn replication_survives_single_failure() {
        let cluster = Cluster::builder()
            .nodes(3)
            .cost_model(earl_cluster::CostModel::free())
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 16,
                replication: 2,
                io_chunk: 16,
            },
        )
        .unwrap();
        let lines: Vec<String> = (0..30).map(|i| format!("v{i}")).collect();
        dfs.write_lines("/r", &lines).unwrap();
        dfs.cluster().fail_node(NodeId(0)).unwrap();
        dfs.reconcile_failures();
        // With replication 2 over 3 nodes, all blocks should still be readable.
        assert!((dfs.readable_fraction("/r").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(dfs.read_all_lines(Phase::Load, "/r").unwrap(), lines);
    }

    #[test]
    fn writer_tracks_progress() {
        let dfs = dfs_with(1024, 1);
        let mut w = dfs.create("/p").unwrap();
        w.write_line("hello").unwrap();
        w.write_bytes(b"raw").unwrap();
        assert_eq!(w.bytes_written(), 9);
        let status = w.close().unwrap();
        assert_eq!(status.len, 9);
    }

    #[test]
    fn one_multi_block_slice_writes_like_line_by_line_writing() {
        let lines: Vec<String> = (0..3_000)
            .map(|i| format!("{}", i * 7919 % 100_003))
            .collect();
        let encoded: Vec<u8> = lines
            .iter()
            .flat_map(|l| format!("{l}\n").into_bytes())
            .collect();
        let world = || {
            let cluster = Cluster::builder()
                .nodes(5)
                .cost_model(earl_cluster::CostModel::commodity_2012())
                .build()
                .unwrap();
            Dfs::new(cluster, DfsConfig::small_blocks(1 << 10)).unwrap()
        };
        let by_line = world();
        by_line.write_lines("/f", &lines).unwrap();
        let (bulk, chunked, encoded_entry) = (world(), world(), world());
        // One call, then calls of 1.5 blocks each that start with a part
        // block buffered.
        for (dfs, chunk) in [(&bulk, encoded.len()), (&chunked, 1_536)] {
            let mut writer = dfs.create("/f").unwrap();
            for piece in encoded.chunks(chunk) {
                writer.write_bytes(piece).unwrap();
            }
            writer.num_records = lines.len() as u64;
            writer.close().unwrap();
        }
        encoded_entry
            .write_encoded("/f", &encoded, lines.len() as u64)
            .unwrap();

        let state = |dfs: &Dfs| {
            let path = DfsPath::from("/f");
            let namenode = dfs.inner.namenode.read();
            let blocks = namenode.file(&path).unwrap().blocks.clone();
            let locations: Vec<Vec<NodeId>> = blocks
                .iter()
                .map(|b| namenode.locations(b.id).to_vec())
                .collect();
            (
                dfs.status("/f").unwrap(),
                blocks,
                locations,
                dfs.cluster().elapsed(),
                dfs.cluster().metrics().snapshot(),
            )
        };
        let expected = state(&by_line);
        assert!(expected.0.num_blocks > 10, "the slice spans many blocks");
        let cuts: Vec<(u64, u64)> = expected.1.iter().map(|b| (b.file_offset, b.len)).collect();
        let full = (0..cuts.len() as u64 - 1).map(|i| (i << 10, 1 << 10));
        let tail = encoded.len() as u64 % (1 << 10);
        let last = ((cuts.len() as u64 - 1) << 10, tail);
        assert_eq!(
            cuts,
            full.chain([last]).collect::<Vec<_>>(),
            "cut every block size"
        );
        assert_eq!(expected.0.num_records, Some(3_000));
        assert_eq!(state(&bulk), expected);
        assert_eq!(state(&chunked), expected);
        assert_eq!(state(&encoded_entry), expected);
        assert_eq!(
            encoded_entry.read_all_lines(Phase::Load, "/f").unwrap(),
            lines
        );
    }

    // ----- charge equivalence against the pre-PR-19 probe ------------------

    /// The read path as it was before the in-place probe, kept verbatim as the
    /// oracle: `read_line_at` buffering chunk copies fetched through a
    /// `read_range` that does its own liveness, stream-head and charge steps.
    impl Dfs {
        pub(crate) fn reference_read_range(
            &self,
            phase: Phase,
            path: DfsPath,
            offset: u64,
            len: u64,
        ) -> Result<Bytes> {
            let (file_len, blocks) = {
                let nn = self.inner.namenode.read();
                let meta = nn.file(&path)?;
                (meta.len, meta.blocks.clone())
            };
            if offset > file_len || offset + len > file_len {
                return Err(DfsError::OutOfBounds {
                    offset: offset + len,
                    len: file_len,
                });
            }
            if len == 0 {
                return Ok(Bytes::new());
            }
            let mut out = Vec::with_capacity(len as usize);
            let end = offset + len;
            for block in blocks
                .iter()
                .filter(|b| b.file_offset < end && b.file_offset + b.len > offset)
            {
                self.reference_ensure_live_replica(block.id)?;
                let data = self.inner.store.read().get(block.id)?;
                let from = offset.saturating_sub(block.file_offset) as usize;
                let to = (end.min(block.file_offset + block.len) - block.file_offset) as usize;
                out.extend_from_slice(&data[from..to]);
            }
            let sequential = {
                const MAX_STREAM_HEADS: usize = 4096;
                let mut cursors = self.inner.read_cursors.write();
                let heads = cursors.entry(path).or_default();
                let sequential = match heads.get_mut(&offset) {
                    Some(count) if *count > 0 => {
                        *count -= 1;
                        if *count == 0 {
                            heads.remove(&offset);
                        }
                        true
                    }
                    _ => false,
                };
                if heads.len() < MAX_STREAM_HEADS {
                    *heads.entry(end).or_insert(0) += 1;
                }
                sequential
            };
            if sequential {
                self.inner.cluster.charge_disk_read(phase, len);
            } else {
                self.inner.cluster.charge_disk_seek_read(phase, len);
            }
            Ok(Bytes::from(out))
        }

        fn reference_ensure_live_replica(&self, block: BlockId) -> Result<()> {
            let nn = self.inner.namenode.read();
            let replicas = nn.locations(block);
            if replicas.is_empty() {
                return self.inner.store.read().get(block).map(|_| ());
            }
            let any_live = replicas.iter().any(|n| {
                self.inner
                    .cluster
                    .node(*n)
                    .map(|n| n.is_available())
                    .unwrap_or(false)
            });
            if any_live {
                Ok(())
            } else {
                Err(DfsError::BlockUnavailable(block))
            }
        }

        fn reference_read_line_at(
            &self,
            phase: Phase,
            path: DfsPath,
            offset: u64,
        ) -> Result<Option<(u64, String)>> {
            let file_len = self.status(path.clone())?.len;
            if offset >= file_len {
                return Ok(None);
            }
            let chunk = self.inner.config.io_chunk.max(16);
            let read_start = offset.saturating_sub(1);
            let mut buf: Vec<u8> = Vec::new();
            let mut buf_start = read_start;
            let mut fetched_until = read_start;
            let fetch_more = |buf: &mut Vec<u8>, fetched_until: &mut u64| -> Result<bool> {
                if *fetched_until >= file_len {
                    return Ok(false);
                }
                let len = chunk.min(file_len - *fetched_until);
                let data = self.reference_read_range(phase, path.clone(), *fetched_until, len)?;
                buf.extend_from_slice(&data);
                *fetched_until += len;
                Ok(true)
            };

            let mut line_start = offset;
            if offset > 0 {
                if buf.is_empty() && !fetch_more(&mut buf, &mut fetched_until)? {
                    return Ok(None);
                }
                if buf[0] != b'\n' {
                    let mut scan_pos = 1usize;
                    loop {
                        if let Some(rel) = buf[scan_pos..].iter().position(|b| *b == b'\n') {
                            line_start = buf_start + (scan_pos + rel) as u64 + 1;
                            break;
                        }
                        scan_pos = buf.len();
                        if !fetch_more(&mut buf, &mut fetched_until)? {
                            return Ok(None);
                        }
                    }
                    if line_start >= file_len {
                        return Ok(None);
                    }
                }
            } else {
                buf_start = 0;
            }

            let mut line = Vec::new();
            let mut pos = line_start;
            loop {
                while pos >= fetched_until {
                    if !fetch_more(&mut buf, &mut fetched_until)? {
                        return Ok(Some((
                            line_start,
                            String::from_utf8_lossy(&line).into_owned(),
                        )));
                    }
                }
                let rel = (pos - buf_start) as usize;
                match buf[rel..].iter().position(|b| *b == b'\n') {
                    Some(nl) => {
                        line.extend_from_slice(&buf[rel..rel + nl]);
                        break;
                    }
                    None => {
                        line.extend_from_slice(&buf[rel..]);
                        pos = fetched_until;
                    }
                }
            }
            Ok(Some((
                line_start,
                String::from_utf8_lossy(&line).into_owned(),
            )))
        }
    }

    /// Short and long lines (some straddle every block and chunk
    /// boundary of the configurations below), two empty lines, invalid UTF-8,
    /// and a final line without a newline.
    const PROBED: &[u8] = b"alpha\nbravo charlie delta echo foxtrot golf hotel\n\nindia\n\
        juliet kilo lima mike november oscar papa quebec romeo sierra tango\n\n\xff\xfe\nx\ny\nuniform victor";

    /// A two-node priced cluster holding `content` at `/probed`.
    fn probed_dfs(
        content: &[u8],
        block_size: u64,
        io_chunk: u64,
        replication: u32,
        schedule: earl_cluster::FailureSchedule,
    ) -> Dfs {
        let cluster = Cluster::builder()
            .nodes(2)
            .cost_model(earl_cluster::CostModel::commodity_2012())
            .failure_schedule(schedule)
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size,
                replication,
                io_chunk,
            },
        )
        .unwrap();
        let mut writer = dfs.create("/probed").unwrap();
        writer.write_bytes(content).unwrap();
        writer.close().unwrap();
        dfs
    }

    /// Compares what a read can move in the cluster: counters, clock, fired
    /// failures and node states.
    fn assert_same_charges(old: &Dfs, new: &Dfs, what: std::fmt::Arguments<'_>) {
        let state = |dfs: &Dfs| {
            let cluster = dfs.cluster();
            (
                cluster.metrics().snapshot(),
                cluster.elapsed(),
                cluster.failure_events(),
                cluster.failed_nodes(),
            )
        };
        assert_eq!(state(new), state(old), "{what}");
    }

    /// Probes `offsets` in order with the reference on `old` and the in-place
    /// probe on `new`, comparing results and charges after every probe and
    /// after a follow-up `read_range` at the returned line's end (charged a
    /// seek or not by the stream heads the probe left), and the stream heads
    /// themselves at the end.  Returns how many probes failed, so a failure
    /// scenario can check it is one.
    fn assert_same_probes(
        old: &Dfs,
        new: &Dfs,
        offsets: impl Iterator<Item = u64>,
        what: &str,
    ) -> usize {
        let path = DfsPath::new("/probed");
        let file_len = new.status(path.clone()).unwrap().len;
        let mut failed = 0;
        for offset in offsets {
            let expected = old.reference_read_line_at(Phase::Load, path.clone(), offset);
            let got = new.read_line_at(Phase::Load, path.clone(), offset);
            assert_eq!(got, expected, "{what}: probe at {offset}");
            assert_same_charges(old, new, format_args!("{what}: after probe at {offset}"));
            failed += usize::from(got.is_err());
            if let Ok(Some((start, line))) = got {
                let end = (start + line.len() as u64 + 1).min(file_len - 1);
                let expected = old.reference_read_range(Phase::Map, path.clone(), end, 1);
                assert_eq!(
                    new.read_range(Phase::Map, path.clone(), end, 1),
                    expected,
                    "{what}: read after probe at {offset}"
                );
                assert_same_charges(
                    old,
                    new,
                    format_args!("{what}: after the read following probe at {offset}"),
                );
            }
        }
        assert_eq!(
            *new.inner.read_cursors.read(),
            *old.inner.read_cursors.read(),
            "{what}: stream heads"
        );
        failed
    }

    #[test]
    fn in_place_probe_charges_exactly_like_the_buffered_one() {
        let none = || earl_cluster::FailureSchedule::None;
        let len = PROBED.len() as u64;
        for block_size in [16, 64, 256] {
            for io_chunk in [1, 16, 32, 4096] {
                let what = format!("block {block_size} chunk {io_chunk}");
                let build = || probed_dfs(PROBED, block_size, io_chunk, 2, none());
                // Every offset on its own, from cold stream heads …
                for offset in 0..len + 2 {
                    assert_same_probes(&build(), &build(), offset..offset + 1, &what);
                }
                // … and all of them in sequence, heads accumulating, up and down.
                let (old, new) = (build(), build());
                assert_same_probes(&old, &new, (0..len + 2).chain((0..len).rev()), &what);
            }
        }
    }

    #[test]
    fn in_place_probe_fails_exactly_like_the_buffered_one() {
        let len = PROBED.len() as u64;
        for io_chunk in [16, 32, 4096] {
            // Replication 1 over two nodes, one of them down: the probes that
            // touch its blocks fail, after charging the chunks before them.
            for reconcile in [false, true] {
                let what = format!("node 0 down, reconciled {reconcile}, chunk {io_chunk}");
                let build = || {
                    let dfs =
                        probed_dfs(PROBED, 16, io_chunk, 1, earl_cluster::FailureSchedule::None);
                    dfs.cluster().fail_node(NodeId(0)).unwrap();
                    if reconcile {
                        assert!(!dfs.reconcile_failures().is_empty());
                    }
                    dfs
                };
                let (old, new) = (build(), build());
                let failed = assert_same_probes(&old, &new, 0..len, &what);
                assert!(failed > 0 && failed < len as usize, "{what}: {failed}");
            }

            // A scheduled failure that fires part-way through the sequence:
            // the implicit poll after a charge takes node 1 down mid-run.
            let dry = probed_dfs(PROBED, 16, io_chunk, 1, earl_cluster::FailureSchedule::None);
            for offset in 0..len / 2 {
                dry.read_line_at(Phase::Load, "/probed", offset).unwrap();
            }
            let event = earl_cluster::FailureEvent {
                node: NodeId(1),
                at: dry.cluster().now(),
            };
            let what = format!("node 1 fails at {:?}, chunk {io_chunk}", event.at);
            let build = || {
                let schedule = earl_cluster::FailureSchedule::Deterministic(vec![event]);
                probed_dfs(PROBED, 16, io_chunk, 1, schedule)
            };
            let (old, new) = (build(), build());
            let failed = assert_same_probes(&old, &new, 0..len, &what);
            assert_eq!(new.cluster().failure_events(), vec![event], "{what}");
            assert!(failed > 0 && failed < len as usize, "{what}: {failed}");
        }
    }

    #[test]
    fn in_place_probe_crosses_the_stream_head_cap_like_the_buffered_one() {
        // 5 000 six-byte lines probed at every line start with 16-byte chunks:
        // each probe (and the read that follows it) leaves a head the next
        // ones never consume, so the 4 096 cap is crossed part-way.
        let content: Vec<u8> = (0..5_000)
            .flat_map(|i| format!("{:05}\n", i % 7919).into_bytes())
            .collect();
        let build = || probed_dfs(&content, 256, 16, 2, earl_cluster::FailureSchedule::None);
        let (old, new) = (build(), build());
        let offsets = (0..content.len() as u64).step_by(6);
        assert_same_probes(&old, &new, offsets, "head cap");
        let heads = new.inner.read_cursors.read()[&DfsPath::new("/probed")].len();
        assert_eq!(heads, 4096);
    }
}
