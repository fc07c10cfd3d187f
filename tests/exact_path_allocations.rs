//! The exact job's split read allocates per chunk, not per line.
//!
//! `Dfs::split_lines` lends each line to its caller straight from the block
//! bytes, so reading a split costs a bounded number of allocations per chunk
//! read (stream heads, block table) and none per line.  A counting global
//! allocator holds it to that: a session over 120 000 lines must allocate
//! fewer than one block per 50 lines.  A reader that copies each line into a
//! `String` of its own allocates at least once a line and fails outright.
//!
//! The counter is per thread, so the test harness's own threads do not
//! count; this file holds one test, in a binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use earl_cluster::{Cluster, Phase};
use earl_dfs::{Dfs, DfsConfig, InputSplit};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is counting.  The thread-locals are
/// const-initialised `Cell`s with no destructor, so reaching them never
/// allocates; `try_with` keeps a thread's teardown from panicking here.
fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, whose
// methods have the same contracts, so the caller's guarantees are the ones
// `System` needs; `count` neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by this thread while `work` runs.
fn allocations(work: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_split_session_allocates_per_chunk_not_per_line() {
    const LINES: u64 = 120_000;
    // `scan_linear`'s layout: 1 MiB blocks, 4 KiB reads.
    let dfs = Dfs::new(
        Cluster::with_nodes(5),
        DfsConfig {
            block_size: 1 << 20,
            replication: 2,
            io_chunk: 4096,
        },
    )
    .unwrap();
    let status = dfs
        .write_lines(
            "/data",
            (0..LINES).map(|i| format!("{}", 500.0 + (i * 7919 % 100_003) as f64 / 997.0)),
        )
        .unwrap();
    assert!(status.num_blocks > 1, "the split spans blocks");
    let split = InputSplit {
        path: "/data".into(),
        start: 0,
        length: status.len,
        locations: Vec::new(),
        index: 0,
    };

    let (mut lines, mut sum) = (0u64, 0.0f64);
    let mut bytes_read = 0;
    let count = allocations(|| {
        bytes_read = dfs
            .split_lines(&split, Phase::Load, |_, line| {
                lines += 1;
                sum += line.parse::<f64>().unwrap();
            })
            .unwrap();
    });
    assert_eq!(lines, LINES);
    assert_eq!(bytes_read, status.len);
    assert!(sum > 0.0);
    let chunks = status.len.div_ceil(4096);
    assert!(
        count < LINES / 50,
        "{count} allocations for {LINES} lines in {chunks} chunks"
    );
}
