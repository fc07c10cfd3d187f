//! Line reader over an input split.
//!
//! Implements the standard Hadoop `LineRecordReader` contract the paper relies
//! on (§3.3): a reader assigned the split `[start, start+length)`
//!
//! * skips the first (possibly partial) line when `start > 0` — that line
//!   belongs to the previous split, and
//! * keeps reading past the end of the split to finish the last line that
//!   *starts* inside the split.
//!
//! Together these rules guarantee every line of the file is produced by exactly
//! one split and no line is ever torn in half.  The scan itself is
//! [`Dfs::split_lines`], which lends each line to its caller; this reader
//! collects owned copies for callers that want them.

use earl_cluster::Phase;

use crate::dfs::Dfs;
use crate::error::DfsError;
use crate::split::InputSplit;
use crate::Result;

/// The lines belonging to one [`InputSplit`], as owned strings.  The first
/// call reads the whole split in one [`Dfs::split_lines`] session; the lines
/// are then handed out in order, followed by the error that ended the
/// session, if one did.
#[derive(Debug)]
pub struct LineRecordReader {
    dfs: Dfs,
    split: InputSplit,
    phase: Phase,
    /// The session's lines not yet handed out; `None` until it ran.
    lines: Option<std::vec::IntoIter<(u64, String)>>,
    /// The error that ended the session, handed out after its lines.
    error: Option<DfsError>,
    records_read: u64,
    bytes_read: u64,
}

impl LineRecordReader {
    /// Creates a reader; I/O is charged to `phase` on the DFS's cluster.
    pub fn new(dfs: Dfs, split: InputSplit, phase: Phase) -> Self {
        Self {
            dfs,
            split,
            phase,
            lines: None,
            error: None,
            records_read: 0,
            bytes_read: 0,
        }
    }

    /// The split being read.
    pub fn split(&self) -> &InputSplit {
        &self.split
    }

    /// Number of complete records returned so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Number of bytes the session read: 0 before the first call, and after
    /// a failed session (its reads are charged to the cluster all the same).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Returns the next `(line_start_offset, line)` belonging to this split, or
    /// `None` when the split is exhausted.
    pub fn next_line(&mut self) -> Result<Option<(u64, String)>> {
        match self.session().next() {
            Some(line) => {
                self.records_read += 1;
                Ok(Some(line))
            }
            None => self.error.take().map_or(Ok(None), Err),
        }
    }

    /// Reads every remaining line of the split.
    pub fn read_all(&mut self) -> Result<Vec<(u64, String)>> {
        let lines: Vec<_> = std::mem::take(self.session()).collect();
        self.records_read += lines.len() as u64;
        self.error.take().map_or(Ok(lines), Err)
    }

    /// The lines not yet handed out, reading the split on the first call.
    fn session(&mut self) -> &mut std::vec::IntoIter<(u64, String)> {
        self.lines.get_or_insert_with(|| {
            let mut lines = Vec::new();
            let read = self
                .dfs
                .split_lines(&self.split, self.phase, |offset, line| {
                    lines.push((offset, line.to_owned()));
                });
            match read {
                Ok(bytes) => self.bytes_read = bytes,
                Err(e) => self.error = Some(e),
            }
            lines.into_iter()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::{Dfs, DfsConfig};
    use crate::file::DfsPath;
    use earl_cluster::{Cluster, FailureEvent, FailureSchedule, NodeId};

    /// The split reader as it was before [`Dfs::split_lines`], kept as the
    /// oracle: `next_line` over a buffer refilled with a copy of one range
    /// read per chunk.  Its reads go through `Dfs::reference_read_range`,
    /// the read path's own oracle, so it shares no code with the session.
    struct OracleReader {
        dfs: Dfs,
        split: InputSplit,
        phase: Phase,
        file_len: u64,
        /// Byte position of the next unread byte in the file.
        pos: u64,
        /// Buffered bytes covering `[buf_start, buf_start + buf.len())`.
        buf: Vec<u8>,
        buf_start: u64,
        /// Whether the initial partial-line skip has been performed.
        primed: bool,
        /// Whether the reader has exhausted its split.
        finished: bool,
        bytes_read: u64,
    }

    impl OracleReader {
        fn new(dfs: Dfs, split: InputSplit, phase: Phase) -> Self {
            let file_len = dfs.status(split.path.clone()).map(|s| s.len).unwrap_or(0);
            Self {
                dfs,
                pos: split.start,
                split,
                phase,
                file_len,
                buf: Vec::new(),
                buf_start: 0,
                primed: false,
                finished: false,
                bytes_read: 0,
            }
        }

        fn next_line(&mut self) -> Result<Option<(u64, String)>> {
            if self.finished {
                return Ok(None);
            }
            if !self.primed {
                self.primed = true;
                if self.split.start > 0 {
                    // Skip the partial line that began in the previous split.
                    // (If the previous byte is '\n' the skip consumes zero bytes —
                    // we detect that by checking the byte before the split start.)
                    let prev = self.dfs.reference_read_range(
                        self.phase,
                        self.split.path.clone(),
                        self.split.start - 1,
                        1,
                    )?;
                    self.bytes_read += 1;
                    if prev[0] != b'\n' {
                        // Consume up to and including the next newline.
                        if self.scan_past_newline()?.is_none() {
                            self.finished = true;
                            return Ok(None);
                        }
                    }
                }
            }
            // A record belongs to this split only if it starts before split.end().
            if self.pos >= self.split.end() || self.pos >= self.file_len {
                self.finished = true;
                return Ok(None);
            }
            let line_start = self.pos;
            let mut line = Vec::new();
            loop {
                if self.pos >= self.file_len {
                    break;
                }
                self.fill_buffer()?;
                let rel = (self.pos - self.buf_start) as usize;
                let slice = &self.buf[rel..];
                if let Some(nl) = slice.iter().position(|b| *b == b'\n') {
                    line.extend_from_slice(&slice[..nl]);
                    self.pos += nl as u64 + 1;
                    break;
                }
                line.extend_from_slice(slice);
                self.pos += slice.len() as u64;
            }
            Ok(Some((
                line_start,
                String::from_utf8_lossy(&line).into_owned(),
            )))
        }

        /// Advances `pos` past the next newline; returns `None` at EOF.
        fn scan_past_newline(&mut self) -> Result<Option<()>> {
            loop {
                if self.pos >= self.file_len {
                    return Ok(None);
                }
                self.fill_buffer()?;
                let rel = (self.pos - self.buf_start) as usize;
                let slice = &self.buf[rel..];
                if let Some(nl) = slice.iter().position(|b| *b == b'\n') {
                    self.pos += nl as u64 + 1;
                    return Ok(Some(()));
                }
                self.pos += slice.len() as u64;
            }
        }

        /// Ensures the buffer contains the byte at `self.pos`.
        fn fill_buffer(&mut self) -> Result<()> {
            let within =
                self.pos >= self.buf_start && self.pos < self.buf_start + self.buf.len() as u64;
            if within && !self.buf.is_empty() {
                return Ok(());
            }
            let chunk = self.dfs.config().io_chunk.max(16);
            let len = chunk.min(self.file_len - self.pos);
            let data = self.dfs.reference_read_range(
                self.phase,
                self.split.path.clone(),
                self.pos,
                len,
            )?;
            self.bytes_read += data.len() as u64;
            self.buf_start = self.pos;
            self.buf = data.to_vec();
            Ok(())
        }
    }

    const PATH: &str = "/split";

    /// A two-node priced cluster holding `content` at [`PATH`].
    fn world(
        content: &[u8],
        block_size: u64,
        io_chunk: u64,
        replication: u32,
        schedule: FailureSchedule,
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
        let mut writer = dfs.create(PATH).unwrap();
        writer.write_bytes(content).unwrap();
        writer.close().unwrap();
        dfs
    }

    /// Short lines, empty lines, a line longer than a 256-byte block and a
    /// 128-byte chunk, one that is not UTF-8, and a last line without a
    /// newline.
    fn small_content() -> Vec<u8> {
        let mut content = b"alpha\nbravo charlie\n\n\nindia\n".to_vec();
        content.extend([b'x'; 300]);
        content.extend(b"\n\xff\xfe not utf-8\n\nkilo lima\n");
        content.extend([b'y'; 140]);
        content.extend(b"\nx\ny\nno newline at the end");
        content
    }

    /// Four thousand short lines around one line longer than a 64 KiB block.
    fn large_content() -> Vec<u8> {
        let short = |range: std::ops::Range<u32>| {
            range
                .flat_map(|i| format!("{}\n", i.wrapping_mul(2_654_435_761) % 100_003).into_bytes())
        };
        let mut content: Vec<u8> = short(0..2_000).collect();
        content.extend((0..70_000u32).map(|i| b'a' + (i % 26) as u8));
        content.push(b'\n');
        content.extend(short(2_000..4_000));
        content
    }

    /// Reads `split` with the oracle on `old` and the session on `new` and
    /// compares the lines, the bytes read or the error, and everything the
    /// reads can move: counters, clock, stream heads, fired failures and
    /// node states.  Returns whether the read failed.
    fn assert_same_split(old: &Dfs, new: &Dfs, split: &InputSplit, what: &str) -> bool {
        let what = format!("{what}, split {}+{}", split.start, split.length);
        let mut oracle = OracleReader::new(old.clone(), split.clone(), Phase::Map);
        let mut expected = Vec::new();
        let expected_end = loop {
            match oracle.next_line() {
                Ok(Some(line)) => expected.push(line),
                Ok(None) => break Ok(oracle.bytes_read),
                Err(e) => break Err(e),
            }
        };
        let mut got = Vec::new();
        let got_end = new.split_lines(split, Phase::Map, |offset, line| {
            got.push((offset, line.to_owned()));
        });
        assert_eq!(got, expected, "{what}: lines");
        assert_eq!(got_end, expected_end, "{what}: bytes read or error");
        let state = |dfs: &Dfs| {
            let cluster = dfs.cluster();
            (
                cluster.metrics().snapshot(),
                cluster.elapsed(),
                cluster.failure_events(),
                cluster.failed_nodes(),
                dfs.stream_heads(split.path.clone()),
            )
        };
        assert_eq!(state(new), state(old), "{what}: charges and stream heads");
        got_end.is_err()
    }

    fn split_at(start: u64, length: u64) -> InputSplit {
        InputSplit {
            path: PATH.into(),
            start,
            length,
            locations: vec![],
            index: 0,
        }
    }

    /// The file cut into splits of `size` bytes, in file order.
    fn cut(len: u64, size: u64) -> Vec<InputSplit> {
        (0..len.div_ceil(size))
            .map(|i| split_at(i * size, size.min(len - i * size)))
            .collect()
    }

    /// Reads `splits` in order on one pair of worlds, stream heads
    /// accumulating.  Under `degrade` a failed split is dropped and the
    /// next one read, as a degrading job does; otherwise the first failure
    /// ends the run, as a failing job does.  Returns how many failed.
    fn assert_same_run(
        old: &Dfs,
        new: &Dfs,
        splits: impl Iterator<Item = InputSplit>,
        degrade: bool,
        what: &str,
    ) -> usize {
        let mut failed = 0;
        for split in splits {
            if assert_same_split(old, new, &split, what) {
                failed += 1;
                if !degrade {
                    break;
                }
            }
        }
        failed
    }

    #[test]
    fn split_session_matches_the_line_reader_oracle() {
        let none = || FailureSchedule::None;
        let (small, large) = (small_content(), large_content());
        for block_size in [64, 256, 1 << 16] {
            for io_chunk in [16, 128, 4096] {
                let what = format!("block {block_size} chunk {io_chunk}");
                // Every start offset on its own, from cold stream heads —
                // right after a newline, mid-line and past the end — …
                let len = small.len() as u64;
                let build = || world(&small, block_size, io_chunk, 2, none());
                let mut after_newline = 0;
                for start in 0..len + 2 {
                    for length in [0, 1, 64] {
                        let split = split_at(start, length);
                        assert_same_split(&build(), &build(), &split, &what);
                    }
                    after_newline +=
                        usize::from(start > 0 && small.get(start as usize - 1) == Some(&b'\n'));
                }
                assert!(
                    after_newline > 5,
                    "{what}: splits start right after a newline"
                );
                // … and whole files cut into splits, read up and down.
                for (content, sizes) in [
                    (&small, [1, 7, 100, len]),
                    (&large, [4096, 65_543, 70_001, 1 << 20]),
                ] {
                    let len = content.len() as u64;
                    for size in sizes {
                        let what = format!("{what}, {len}-byte file cut every {size}");
                        let build = || world(content, block_size, io_chunk, 2, none());
                        let (old, new) = (build(), build());
                        assert_same_run(&old, &new, cut(len, size).into_iter(), false, &what);
                        assert_same_run(&old, &new, cut(len, size).into_iter().rev(), false, &what);
                    }
                }
            }
        }

        // A split at offset 0 of a file that is not there reads nothing; any
        // other split of it fails.
        let (old, new) = (
            world(b"a\n", 64, 16, 2, none()),
            world(b"a\n", 64, 16, 2, none()),
        );
        for start in [0, 5] {
            let split = InputSplit {
                path: DfsPath::new("/missing"),
                ..split_at(start, 10)
            };
            assert_eq!(
                assert_same_split(&old, &new, &split, "missing file"),
                start > 0
            );
        }

        // Replication 1 over two nodes, one of them down: the splits that
        // reach its blocks fail, some after lending lines.  A degrading job
        // drops a failed split and reads on; a failing job stops.
        let content = small;
        let len = content.len() as u64;
        for io_chunk in [16, 128, 4096] {
            for reconcile in [false, true] {
                let what = format!("node 0 down, reconciled {reconcile}, chunk {io_chunk}");
                let build = || {
                    let dfs = world(&content, 64, io_chunk, 1, none());
                    dfs.cluster().fail_node(NodeId(0)).unwrap();
                    if reconcile {
                        assert!(!dfs.reconcile_failures().is_empty());
                    }
                    dfs
                };
                for degrade in [false, true] {
                    let what = format!("{what}, degrade {degrade}");
                    let (old, new) = (build(), build());
                    let failed =
                        assert_same_run(&old, &new, cut(len, 150).into_iter(), degrade, &what);
                    assert!(failed > 0, "{what}");
                }
                // Every start in turn, stream heads accumulating.
                let (old, new) = (build(), build());
                let failed = (0..len)
                    .filter(|start| assert_same_split(&old, &new, &split_at(*start, 40), &what))
                    .count();
                // (A chunk of 128 bytes or more reaches both nodes' blocks.)
                let some_read = io_chunk > 16 || failed < len as usize;
                assert!(failed > 0 && some_read, "{what}: {failed}");
            }

            // A scheduled failure that a charge's poll fires part-way through
            // the run: later reads find node 1 down.
            let dry = world(&content, 64, io_chunk, 1, none());
            let splits = cut(len, 60);
            for split in &splits[..splits.len() / 2] {
                dry.split_lines(split, Phase::Map, |_, _| {}).unwrap();
            }
            let event = FailureEvent {
                node: NodeId(1),
                at: dry.cluster().now(),
            };
            for degrade in [false, true] {
                let what = format!(
                    "node 1 fails at {:?}, chunk {io_chunk}, degrade {degrade}",
                    event.at
                );
                let build = || {
                    let schedule = FailureSchedule::Deterministic(vec![event]);
                    world(&content, 64, io_chunk, 1, schedule)
                };
                let (old, new) = (build(), build());
                let failed = assert_same_run(&old, &new, splits.iter().cloned(), degrade, &what);
                assert_eq!(new.cluster().failure_events(), vec![event], "{what}");
                assert!(failed > 0, "{what}");
            }
        }
    }

    fn make_dfs(lines: &[&str], block_size: u64) -> Dfs {
        let cluster = Cluster::builder()
            .nodes(2)
            .cost_model(earl_cluster::CostModel::free())
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size,
                replication: 1,
                io_chunk: 7,
            },
        )
        .unwrap();
        dfs.write_lines("/t", lines.iter().copied()).unwrap();
        dfs
    }

    #[test]
    fn every_line_belongs_to_exactly_one_split() {
        let lines: Vec<String> = (0..57)
            .map(|i| format!("row-{i:04}-{}", "x".repeat(i % 13)))
            .collect();
        let line_refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let dfs = make_dfs(&line_refs, 64);
        for split_size in [10u64, 33, 64, 100, 10_000] {
            let splits = dfs.splits("/t", split_size).unwrap();
            let mut collected = Vec::new();
            for split in splits {
                let mut reader = dfs.open_split(split, Phase::Map);
                for (_, line) in reader.read_all().unwrap() {
                    collected.push(line);
                }
            }
            assert_eq!(collected, lines, "split_size={split_size}");
        }
    }

    #[test]
    fn single_split_reads_everything() {
        let dfs = make_dfs(&["a", "bb", "ccc"], 1024);
        let splits = dfs.splits("/t", 1 << 20).unwrap();
        assert_eq!(splits.len(), 1);
        let mut reader = dfs.open_split(splits[0].clone(), Phase::Map);
        let all = reader.read_all().unwrap();
        assert_eq!(
            all.iter().map(|(_, l)| l.as_str()).collect::<Vec<_>>(),
            vec!["a", "bb", "ccc"]
        );
        assert_eq!(all[0].0, 0);
        assert_eq!(all[1].0, 2);
        assert_eq!(all[2].0, 5);
        assert_eq!(reader.records_read(), 3);
        assert!(reader.bytes_read() >= 9);
    }

    #[test]
    fn later_split_skips_partial_first_line() {
        // "aaaa\nbbbb\ncccc\n" = 15 bytes; a split starting at byte 2 must not
        // produce "aa" — it starts with "bbbb".
        let dfs = make_dfs(&["aaaa", "bbbb", "cccc"], 1024);
        let split = InputSplit {
            path: "/t".into(),
            start: 2,
            length: 13,
            locations: vec![],
            index: 1,
        };
        let mut reader = dfs.open_split(split, Phase::Map);
        let all = reader.read_all().unwrap();
        let lines: Vec<&str> = all.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(lines, vec!["bbbb", "cccc"]);
    }

    #[test]
    fn split_boundary_at_newline_keeps_next_line_in_next_split() {
        // "aa\nbb\ncc\n" = 9 bytes.  Split A = [0,6), split B = [6,9).
        let dfs = make_dfs(&["aa", "bb", "cc"], 1024);
        let a = InputSplit {
            path: "/t".into(),
            start: 0,
            length: 6,
            locations: vec![],
            index: 0,
        };
        let b = InputSplit {
            path: "/t".into(),
            start: 6,
            length: 3,
            locations: vec![],
            index: 1,
        };
        let la: Vec<String> = dfs
            .open_split(a, Phase::Map)
            .read_all()
            .unwrap()
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        let lb: Vec<String> = dfs
            .open_split(b, Phase::Map)
            .read_all()
            .unwrap()
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        assert_eq!(la, vec!["aa", "bb"]);
        assert_eq!(lb, vec!["cc"]);
    }

    #[test]
    fn line_spanning_split_boundary_goes_to_the_split_it_starts_in() {
        // One long line straddling byte 5.
        let dfs = make_dfs(&["0123456789abcdef", "tail"], 1024);
        let a = InputSplit {
            path: "/t".into(),
            start: 0,
            length: 5,
            locations: vec![],
            index: 0,
        };
        let b = InputSplit {
            path: "/t".into(),
            start: 5,
            length: 17,
            locations: vec![],
            index: 1,
        };
        let la: Vec<String> = dfs
            .open_split(a, Phase::Map)
            .read_all()
            .unwrap()
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        let lb: Vec<String> = dfs
            .open_split(b, Phase::Map)
            .read_all()
            .unwrap()
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        assert_eq!(
            la,
            vec!["0123456789abcdef"],
            "the long line starts in split A"
        );
        assert_eq!(lb, vec!["tail"]);
    }

    #[test]
    fn empty_split_yields_nothing() {
        let dfs = make_dfs(&["x"], 1024);
        let split = InputSplit {
            path: "/t".into(),
            start: 2,
            length: 0,
            locations: vec![],
            index: 9,
        };
        let mut reader = dfs.open_split(split, Phase::Map);
        assert!(reader.next_line().unwrap().is_none());
        assert!(
            reader.next_line().unwrap().is_none(),
            "reader stays finished"
        );
    }
}
