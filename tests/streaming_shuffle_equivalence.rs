//! Equivalence and resource-contract suite for the map-side streaming shuffle
//! (PR 4), companion to `shuffle_pipeline_determinism.rs`.
//!
//! Contracts enforced here:
//!
//! * **equivalence** — `shuffle_streaming` over per-task shard buffers
//!   (`ShardedBuffers::from_workers` + `merge`) ≡ the sequential `BTreeMap`
//!   oracle below, over random key/value/partitioner combinations, at every
//!   thread count and task count;
//! * **no clones** — keys and values are moved from the mapper's `emit` into
//!   their reduce group, never cloned;
//! * **no all-pairs vector** — the shuffle's largest single heap allocation
//!   stays at per-shard scale, never the job-wide pair count (asserted with a
//!   counting global allocator);
//! * **pipelined-cancel interaction** — a staged map phase whose output is
//!   already sharded map-side is dropped cleanly and leaves later iterations
//!   bit-identical;
//! * **cached counts** — `total_records` / `total_groups` agree with a manual
//!   walk of the partitions.
//!
//! The CI thread-matrix job runs this file with `EARL_THREADS` ∈ {1, 2, 4, 8};
//! when the variable is unset, every count is covered in-process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use earl_mapreduce::partition::{HashPartitioner, Partitioner};
use earl_mapreduce::{contrib, run_job, run_map_phase, InputSource, JobConf, ShuffleOutput};
use earl_parallel::{indexed_map, ShardBuffers, ShardedBuffers};
use rand::rngs::StdRng;
use rand::Rng;

// ---------------------------------------------------------------------------
// Thread-local allocation tracking: installed binary-wide, but only counting
// on the thread that opted in — the test harness's other threads never touch
// the counters.
// ---------------------------------------------------------------------------

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static TOTAL_BYTES: Cell<u64> = const { Cell::new(0) };
    static MAX_SINGLE: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn record(size: usize) {
        let _ = TRACKING.try_with(|t| {
            if t.get() {
                let size = size as u64;
                let _ = TOTAL_BYTES.try_with(|c| c.set(c.get() + size));
                let _ = MAX_SINGLE.try_with(|m| {
                    if size > m.get() {
                        m.set(size);
                    }
                });
            }
        });
    }
}

// SAFETY: delegates every operation to `System`; the bookkeeping touches only
// `Cell`s in this thread's TLS and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation tracking on this thread, returning
/// `(result, total_bytes_allocated, largest_single_allocation)`.
fn measure_allocations<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    TRACKING.with(|t| t.set(true));
    TOTAL_BYTES.with(|c| c.set(0));
    MAX_SINGLE.with(|m| m.set(0));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, TOTAL_BYTES.with(Cell::get), MAX_SINGLE.with(Cell::get))
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Thread counts under test: the `EARL_THREADS` matrix value when set, the
/// full {1, 2, 4, 8} ladder otherwise.
fn thread_counts() -> Vec<usize> {
    match std::env::var("EARL_THREADS") {
        Ok(v) => vec![v.parse().expect("EARL_THREADS must be a positive integer")],
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn seeded(seed: u64) -> StdRng {
    earl_bootstrap::rng::seeded_rng(seed)
}

fn rand_word(rng: &mut StdRng, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
    let len = rng.gen_range(1..=max_len);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

/// A deliberately skewed partitioner: everything below the pivot goes to
/// partition 0.
struct PivotPartitioner(u64);

impl Partitioner<u64> for PivotPartitioner {
    fn partition(&self, key: &u64, num_partitions: usize) -> usize {
        if *key < self.0 {
            0
        } else {
            (*key % num_partitions as u64) as usize
        }
    }
}

/// The sequential reference the shuffle must match bit for bit: one pass over
/// the pairs into per-partition `BTreeMap`s.
fn oracle<K, V, P>(pairs: &[(K, V)], partitions: usize, partitioner: &P) -> Vec<BTreeMap<K, Vec<V>>>
where
    K: Ord + Clone,
    V: Clone,
    P: Partitioner<K>,
{
    let partitions = partitions.max(1);
    let mut out: Vec<BTreeMap<K, Vec<V>>> = (0..partitions).map(|_| BTreeMap::new()).collect();
    for (key, value) in pairs.iter().cloned() {
        let p = partitioner.partition(&key, partitions).min(partitions - 1);
        out[p].entry(key).or_default().push(value);
    }
    out
}

/// A map phase of `tasks` map tasks run on `threads` workers: task `t` builds
/// its own shard buffers with `emit_task(t, buffers)`, and the buffers are
/// assembled in task order — the shape the runner hands the shuffle.
fn map_side<I: Send>(
    tasks: usize,
    shards: usize,
    threads: usize,
    emit_task: impl Fn(usize, &mut ShardBuffers<I>) + Sync,
) -> ShardedBuffers<I> {
    let workers = indexed_map(
        tasks,
        threads,
        || (),
        |task, ()| {
            let mut buffers = ShardBuffers::new(shards);
            emit_task(task, &mut buffers);
            buffers
        },
    );
    ShardedBuffers::from_workers(shards, workers)
}

/// The streaming path over `pairs` in input order, split over `tasks` map
/// tasks: every pair emitted into its shard map-side, then the reduce-side
/// merge — no all-pairs handoff.
fn stream_pairs<K, V, P>(
    pairs: &[(K, V)],
    partitions: usize,
    partitioner: &P,
    tasks: usize,
    threads: usize,
) -> ShuffleOutput<K, V>
where
    K: Ord + std::hash::Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    P: Partitioner<K> + Sync,
{
    let partitions = partitions.max(1);
    let per_task = pairs.len().div_ceil(tasks).max(1);
    let slices: Vec<&[(K, V)]> = pairs.chunks(per_task).collect();
    let buffers = map_side(slices.len(), partitions, threads, |task, buf| {
        for (key, value) in slices[task].iter().cloned() {
            buf.emit(partitioner.partition(&key, partitions), (key, value));
        }
    });
    ShuffleOutput::shuffle_streaming(buffers, threads)
}

// ---------------------------------------------------------------------------
// Property: equivalence with the oracle on arbitrary inputs
// ---------------------------------------------------------------------------

/// streaming ≡ oracle over arbitrary key/value/partitioner combinations at
/// every thread count, whether the pairs came from one map task or many (32
/// randomized cases; the case seed reproduces a failure).
#[test]
fn streaming_matches_the_oracle_on_arbitrary_inputs() {
    for case in 0u64..32 {
        let mut rng = seeded(0x57E4_0000 + case);
        let n = rng.gen_range(0..4_000usize);
        let key_space = rng.gen_range(1..200u64);
        let partitions = rng.gen_range(1..12usize);
        let tasks = rng.gen_range(1..40usize);

        // u64 keys, String values, skewed partitioner.
        let pairs: Vec<(u64, String)> = (0..n)
            .map(|_| (rng.gen_range(0..key_space), rand_word(&mut rng, 12)))
            .collect();
        let pivot = PivotPartitioner(key_space / 2);
        let reference = oracle(&pairs, partitions, &pivot);
        for &threads in &thread_counts() {
            for tasks in [1, tasks] {
                let streamed =
                    stream_pairs(&pairs, partitions, &pivot, tasks, threads).into_partitions();
                assert_eq!(
                    streamed, reference,
                    "case {case}, tasks {tasks}, threads {threads}"
                );
            }
        }

        // String keys, u64 values, hash partitioner.
        let pairs: Vec<(String, u64)> = (0..n)
            .map(|_| (rand_word(&mut rng, 6), rng.gen_range(0..u64::MAX)))
            .collect();
        let reference = oracle(&pairs, partitions, &HashPartitioner);
        for &threads in &thread_counts() {
            let streamed = stream_pairs(&pairs, partitions, &HashPartitioner, tasks, threads)
                .into_partitions();
            assert_eq!(
                streamed, reference,
                "case {case}, tasks {tasks}, threads {threads}"
            );
        }
    }
}

/// The cached `total_records` / `total_groups` agree with the oracle and with
/// a manual walk of the partitions.
#[test]
fn cached_counts_agree_with_a_manual_walk() {
    let pairs: Vec<(u64, u64)> = (0..6_000).map(|i| (i % 113, i)).collect();
    let reference = oracle(&pairs, 5, &HashPartitioner);
    assert_eq!(reference.iter().map(BTreeMap::len).sum::<usize>(), 113);
    for &threads in &thread_counts() {
        let streamed = stream_pairs(&pairs, 5, &HashPartitioner, 12, threads);
        assert_eq!(streamed.total_records(), 6_000, "threads {threads}");
        assert_eq!(streamed.total_groups(), 113, "threads {threads}");
        let manual_records: u64 = streamed
            .partitions()
            .flat_map(|p| p.values())
            .map(|v| v.len() as u64)
            .sum();
        assert_eq!(manual_records, 6_000);
    }
}

// ---------------------------------------------------------------------------
// Move semantics: keys are never cloned
// ---------------------------------------------------------------------------

static KEY_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A key that counts clones (only this test touches the counter).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct CountedKey(u64);

impl Clone for CountedKey {
    fn clone(&self) -> Self {
        KEY_CLONES.fetch_add(1, Ordering::Relaxed);
        CountedKey(self.0)
    }
}

struct IdentityPartitioner;
impl Partitioner<CountedKey> for IdentityPartitioner {
    fn partition(&self, key: &CountedKey, num_partitions: usize) -> usize {
        (key.0 as usize) % num_partitions
    }
}

/// Pairs emitted map-side are moved through emit → shard bucket → concat →
/// group; zero key clones on the whole streaming path, at every thread count.
#[test]
fn streaming_path_never_clones_keys() {
    for &threads in &thread_counts() {
        let before = KEY_CLONES.load(Ordering::Relaxed);
        let buffers = map_side(20, 4, threads, |task, buf| {
            for i in task * 100..(task + 1) * 100 {
                // The pair is *constructed* here, exactly like a mapper
                // emitting: no source collection to clone from.
                let key = CountedKey((i as u64) % 13);
                let shard = IdentityPartitioner.partition(&key, 4);
                buf.emit(shard, (key, i as u64));
            }
        });
        let out = ShuffleOutput::shuffle_streaming(buffers, threads);
        assert_eq!(out.total_records(), 2_000);
        assert_eq!(out.total_groups(), 13);
        assert_eq!(
            KEY_CLONES.load(Ordering::Relaxed),
            before,
            "streaming shuffle must move keys, never clone them (threads {threads})"
        );
    }
}

// ---------------------------------------------------------------------------
// Allocation contract: the all-pairs vector is gone
// ---------------------------------------------------------------------------

/// The shuffle's largest single allocation stays at per-shard scale: the
/// job-wide all-pairs vector a gather design would concatenate between map and
/// shuffle never exists.  Runs single-threaded on this thread so the
/// thread-local counters see every allocation.
#[test]
fn streaming_path_never_materialises_an_all_pairs_vector() {
    const TASKS: usize = 64;
    const PAIRS_PER_TASK: usize = 1_024;
    const SHARDS: usize = 8;
    let n = TASKS * PAIRS_PER_TASK; // 65_536 pairs × 16 bytes = 1 MiB
    let pair_bytes = (n * std::mem::size_of::<(u64, u64)>()) as u64;

    let ((), _, streaming_max) = measure_allocations(|| {
        let buffers = map_side(TASKS, SHARDS, 1, |task, buf| {
            for j in 0..PAIRS_PER_TASK {
                let i = (task * PAIRS_PER_TASK + j) as u64;
                let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 4_096;
                buf.emit(HashPartitioner.partition(&key, SHARDS), (key, i));
            }
        });
        let out = ShuffleOutput::shuffle_streaming(buffers, 1);
        assert_eq!(out.total_records(), n as u64);
    });

    assert!(
        streaming_max <= pair_bytes / 4,
        "streaming max single allocation {streaming_max} should stay at per-shard scale \
         (≤ {} for {SHARDS} shards), not the all-pairs {pair_bytes}",
        pair_bytes / 4
    );
}

// ---------------------------------------------------------------------------
// Pipelined-cancel interaction
// ---------------------------------------------------------------------------

fn pipeline_dfs(lines: &[String]) -> earl_dfs::Dfs {
    let cluster = earl_cluster::Cluster::builder()
        .nodes(3)
        .cost_model(earl_cluster::CostModel::commodity_2012())
        .seed(5)
        .build()
        .unwrap();
    let dfs = earl_dfs::Dfs::new(
        cluster,
        earl_dfs::DfsConfig {
            block_size: 1 << 12,
            replication: 2,
            io_chunk: 256,
        },
    )
    .unwrap();
    dfs.write_lines("/pipe", lines).unwrap();
    dfs
}

/// A map phase run on its own holds map output that is already sharded
/// map-side; dropping it before its reduce phase must release those buffers
/// cleanly and leave the next jobs bit-identical to a run that never staged
/// one.  As on the EARL ladder, the first job runs in cluster mode and later
/// ones in local mode.
#[test]
fn cancelling_a_staged_streaming_iteration_leaves_later_iterations_identical() {
    let lines: Vec<String> = (0..5_000)
        .map(|i| format!("k{} k{} v{}", i % 97, i % 7, i))
        .collect();
    let conf = |threads: usize, local_mode: bool| JobConf {
        local_mode,
        ..JobConf::new("wc", InputSource::Path("/pipe".into()))
            .with_reducers(6)
            .with_parallelism(Some(threads))
    };
    let (mapper, reducer) = (&contrib::TokenCountMapper, &contrib::WordCountReducer);

    for &threads in &thread_counts() {
        // Reference: plain schedule, two committed iterations.
        let plain = pipeline_dfs(&lines);
        let first_ref = run_job(&plain, &conf(1, false), mapper, reducer).unwrap();
        let second_ref = run_job(&plain, &conf(1, true), mapper, reducer).unwrap();

        // Staged schedule: iteration 2's map phase (and with it the map-side
        // sharding) runs on its own, is dropped, then the job re-runs for
        // real.
        let spec = pipeline_dfs(&lines);
        let first = run_job(&spec, &conf(threads, false), mapper, reducer).unwrap();
        assert_eq!(first.outputs, first_ref.outputs, "threads {threads}");
        assert_eq!(first.counters, first_ref.counters);

        let staged = run_map_phase(&spec, &conf(threads, true), mapper).unwrap();
        assert!(staged.stats().map_tasks >= 1);
        assert_eq!(
            staged.stats().shuffle_records,
            first_ref.stats.shuffle_records,
            "the staged map phase counted its sharded records"
        );
        assert_eq!(
            staged.stats().reduce_tasks,
            0,
            "cancelled before its reduce phase"
        );
        drop(staged);

        let second = run_job(&spec, &conf(threads, true), mapper, reducer).unwrap();
        assert_eq!(second.outputs, second_ref.outputs, "threads {threads}");
        assert_eq!(second.counters, second_ref.counters, "threads {threads}");
    }
}

/// A full job through the runner (map-side streaming shuffle → reduce) stays
/// bit-identical at every thread count — outputs, counters and stats.
#[test]
fn full_job_with_streaming_shuffle_is_identical_across_thread_counts() {
    let lines: Vec<String> = (0..20_000)
        .map(|i| format!("k{} k{} v-{}", i % 211, i % 13, i % 7))
        .collect();
    let run = |threads: usize| {
        let cluster = earl_cluster::Cluster::builder()
            .nodes(4)
            .cost_model(earl_cluster::CostModel::commodity_2012())
            .seed(3)
            .build()
            .unwrap();
        let dfs = earl_dfs::Dfs::new(
            cluster,
            earl_dfs::DfsConfig {
                block_size: 1 << 12,
                replication: 2,
                io_chunk: 256,
            },
        )
        .unwrap();
        dfs.write_lines("/shuf", &lines).unwrap();
        let conf = JobConf::new("wc", InputSource::Path("/shuf".into()))
            .with_reducers(8)
            .with_parallelism(Some(threads));
        run_job(
            &dfs,
            &conf,
            &contrib::TokenCountMapper,
            &contrib::WordCountReducer,
        )
        .unwrap()
    };
    let reference = run(1);
    for &threads in &thread_counts() {
        let result = run(threads);
        assert_eq!(reference.outputs, result.outputs, "threads {threads}");
        assert_eq!(reference.counters, result.counters, "threads {threads}");
        assert_eq!(reference.stats, result.stats, "threads {threads}");
    }
}
