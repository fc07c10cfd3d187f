//! # earl-parallel
//!
//! The scoped fork-join executor the whole workspace runs on.
//!
//! All hot paths — Monte-Carlo bootstrap replicates, delta-maintained
//! resample updates, and MapReduce map/reduce tasks — reduce to the same
//! shape: evaluate `count` independent work items,
//! each identified by its index, where every worker thread needs a private
//! scratch state (reusable buffers and nothing else).  This crate provides
//! that shape once, over `std::thread::scope` — no dependency on an external
//! thread-pool crate, no per-item allocation, and results that are
//! **bit-identical for every thread count** because item `i` depends only on
//! `i` (statistical callers derive per-replicate RNG streams from
//! `earl_bootstrap::rng::replicate_rng`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod pool;

pub use pool::WorkerPool;

/// Resolves a requested worker count: `None` means all available cores.
pub fn resolve_parallelism(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Below this many scalar operations a fork-join is slower than just doing the
/// work; callers use it to fall back to single-threaded execution.
pub const MIN_PARALLEL_WORK: usize = 1 << 15;

/// The one gating policy for worker counts: single-threaded when the total
/// scalar work is too small to amortise a fork-join, otherwise the requested
/// parallelism (`None` = all cores).
pub fn workers_for(total_work: usize, requested: Option<usize>) -> usize {
    if total_work < MIN_PARALLEL_WORK {
        1
    } else {
        resolve_parallelism(requested)
    }
}

/// Evaluates `count` independent work items, splitting them into contiguous
/// chunks over `threads` scoped workers.  Each worker builds one scratch state
/// with `make_scratch` and reuses it for all of its items; `eval(i, scratch)`
/// must depend only on `i` and the scratch contents it itself wrote.
///
/// Returns the results in index order.  With `threads <= 1` no thread is
/// spawned at all.  This is the one fork-join primitive the whole workspace
/// executes on — bootstrap replicates and MapReduce tasks alike.
pub fn indexed_map<T, S, G, F>(count: usize, threads: usize, make_scratch: G, eval: F) -> Vec<T>
where
    T: Send,
    S: Send,
    G: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(count).collect();
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 {
        let mut scratch = make_scratch();
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = Some(eval(i, &mut scratch));
        }
    } else {
        let chunk_len = count.div_ceil(threads);
        std::thread::scope(|scope| {
            for (chunk_idx, slots) in out.chunks_mut(chunk_len).enumerate() {
                let make_scratch = &make_scratch;
                let eval = &eval;
                scope.spawn(move || {
                    let base = chunk_idx * chunk_len;
                    let mut scratch = make_scratch();
                    for (offset, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(eval(base + offset, &mut scratch));
                    }
                });
            }
        });
    }
    out.into_iter()
        .map(|slot| slot.expect("every work item was executed"))
        .collect()
}

/// [`indexed_map`] specialised to replicate evaluation (one `f64` per
/// replicate).
pub fn replicate_map<S, G, F>(count: usize, threads: usize, make_scratch: G, eval: F) -> Vec<f64>
where
    S: Send,
    G: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> f64 + Sync,
{
    indexed_map(count, threads, make_scratch, eval)
}

/// Splits `items` into contiguous chunks of `chunk_len` (the last may be
/// shorter), preserving input order.
fn split_into_chunks<I>(items: Vec<I>, chunk_len: usize) -> Vec<Vec<I>> {
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(items.len().div_ceil(chunk_len.max(1)));
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<I> = iter.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    chunks
}

/// Like [`indexed_map`] but takes ownership of the work items: `eval(i, item)`
/// consumes `items[i]`.  Splitting is contiguous and chunk order is the input
/// order, so results are in index order and identical at every thread count.
/// The shuffle's per-shard merge runs on this (shards are moved, never cloned,
/// into their merger).
pub fn owned_indexed_map<I, T, F>(items: Vec<I>, threads: usize, eval: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let count = items.len();
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| eval(i, item))
            .collect();
    }
    let chunk_len = count.div_ceil(threads);
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(count).collect();
    let chunks = split_into_chunks(items, chunk_len);
    std::thread::scope(|scope| {
        for ((chunk_idx, chunk), slots) in chunks
            .into_iter()
            .enumerate()
            .zip(out.chunks_mut(chunk_len))
        {
            let eval = &eval;
            scope.spawn(move || {
                let base = chunk_idx * chunk_len;
                for ((offset, item), slot) in chunk.into_iter().enumerate().zip(slots.iter_mut()) {
                    *slot = Some(eval(base + offset, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every work item was executed"))
        .collect()
}

/// One producer's per-shard output buffers: the map-side half of the streaming
/// shuffle.  `emit(shard, item)` appends the item to that shard's bucket —
/// items are moved, never cloned, and emission order within a bucket is
/// preserved.
#[derive(Debug)]
pub struct ShardBuffers<I> {
    buckets: Vec<Vec<I>>,
    emitted: u64,
}

impl<I> ShardBuffers<I> {
    /// An empty buffer set routing into `num_shards` shards (clamped to at
    /// least one).  Callers build one buffer set per producer (a map task, so
    /// a retried or aborted task's buffers can simply be dropped) and
    /// reassemble them with [`ShardedBuffers::from_workers`].
    pub fn new(num_shards: usize) -> Self {
        Self {
            buckets: (0..num_shards.max(1)).map(|_| Vec::new()).collect(),
            emitted: 0,
        }
    }

    /// Routes `item` to `shard` (clamped defensively to the last shard).
    pub fn emit(&mut self, shard: usize, item: I) {
        let shard = shard.min(self.buckets.len() - 1);
        self.buckets[shard].push(item);
        self.emitted += 1;
    }

    /// Number of shards this buffer set routes into.
    pub fn num_shards(&self) -> usize {
        self.buckets.len()
    }

    /// Total items emitted into this buffer set.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// The producer-major output of a map phase: one [`ShardBuffers`] per
/// producer, in input order.  This is the reducer-ready barrier state of the
/// streaming shuffle — every mapper has finished, nothing has been
/// concatenated yet, and [`merge`](Self::merge) hands each shard its items in
/// input order.
#[derive(Debug)]
pub struct ShardedBuffers<I> {
    num_shards: usize,
    workers: Vec<ShardBuffers<I>>,
}

impl<I> ShardedBuffers<I> {
    /// An empty buffer set (no work items were evaluated).
    pub fn empty(num_shards: usize) -> Self {
        Self {
            num_shards: num_shards.max(1),
            workers: Vec::new(),
        }
    }

    /// Assembles the barrier state from per-producer buffers, in producer
    /// order.  [`merge`](Self::merge) concatenates each shard's buckets in
    /// this order, so passing producers in input order hands every shard its
    /// items in `(producer index, emission order)` order.  Every producer must
    /// route into the same `num_shards`.
    pub fn from_workers(num_shards: usize, workers: Vec<ShardBuffers<I>>) -> Self {
        let num_shards = num_shards.max(1);
        for worker in &workers {
            assert_eq!(
                worker.num_shards(),
                num_shards,
                "every producer must route into the same shard count"
            );
        }
        Self {
            num_shards,
            workers,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Total items emitted across all workers.
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(ShardBuffers::emitted).sum()
    }

    /// Merges each shard independently with `merge(shard_index, shard_items)`
    /// across `threads` scoped workers — the reduce-side half of the
    /// streaming shuffle.
    ///
    /// Determinism contract: a shard's items are concatenated in producer
    /// order, and producer order is input order, so every shard sees its items
    /// **in input (emission) order** regardless of `threads` — merge output is
    /// bit-identical at every thread count.  Items are moved, never cloned.
    pub fn merge<T, M>(self, threads: usize, merge: M) -> Vec<T>
    where
        I: Send,
        T: Send,
        M: Fn(usize, Vec<I>) -> T + Sync,
    {
        // Transpose ownership producer-major → shard-major.  Producer order is
        // input order, so concatenating a shard's buckets in this order
        // restores the original relative order of its items.
        let mut per_shard: Vec<Vec<Vec<I>>> = (0..self.num_shards)
            .map(|_| Vec::with_capacity(self.workers.len()))
            .collect();
        for worker in self.workers {
            for (shard, bucket) in worker.buckets.into_iter().enumerate() {
                if !bucket.is_empty() {
                    per_shard[shard].push(bucket);
                }
            }
        }
        owned_indexed_map(per_shard, threads, |shard, buckets| {
            let total: usize = buckets.iter().map(Vec::len).sum();
            let mut shard_items = Vec::with_capacity(total);
            for bucket in buckets {
                shard_items.extend(bucket);
            }
            merge(shard, shard_items)
        })
    }
}

/// Like [`replicate_map`] but for in-place mutation of `count` existing items:
/// `update(i, &mut items[i], scratch)`.  Used by delta maintenance, where each
/// maintained resample is updated rather than recomputed.
pub fn replicate_update<T, S, G, F>(items: &mut [T], threads: usize, make_scratch: G, update: F)
where
    T: Send,
    S: Send,
    G: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) + Sync,
{
    let count = items.len();
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 {
        let mut scratch = make_scratch();
        for (i, item) in items.iter_mut().enumerate() {
            update(i, item, &mut scratch);
        }
        return;
    }
    let chunk_len = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for (chunk_idx, chunk) in items.chunks_mut(chunk_len).enumerate() {
            let make_scratch = &make_scratch;
            let update = &update;
            scope.spawn(move || {
                let base = chunk_idx * chunk_len;
                let mut scratch = make_scratch();
                for (offset, item) in chunk.iter_mut().enumerate() {
                    update(base + offset, item, &mut scratch);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_parallelism_bounds() {
        assert_eq!(resolve_parallelism(Some(4)), 4);
        assert_eq!(resolve_parallelism(Some(0)), 1);
        assert!(resolve_parallelism(None) >= 1);
    }

    #[test]
    fn workers_for_gates_small_work() {
        assert_eq!(
            workers_for(10, Some(8)),
            1,
            "tiny work stays single-threaded"
        );
        assert_eq!(workers_for(MIN_PARALLEL_WORK, Some(8)), 8);
        assert!(workers_for(MIN_PARALLEL_WORK, None) >= 1);
    }

    #[test]
    fn replicate_map_is_identical_across_thread_counts() {
        let eval = |i: usize, _: &mut ()| (i as f64).sqrt();
        let expected: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(replicate_map(1000, threads, || (), eval), expected);
        }
        assert!(replicate_map(0, 4, || (), eval).is_empty());
    }

    #[test]
    fn replicate_update_touches_every_item_once() {
        let mut items: Vec<u64> = (0..997).collect();
        replicate_update(&mut items, 8, || (), |i, item, _| *item += i as u64);
        assert!(items.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
    }

    #[test]
    fn indexed_map_returns_non_copy_results_in_order() {
        let out: Vec<String> = indexed_map(100, 5, || (), |i, ()| format!("item-{i}"));
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, s)| s == &format!("item-{i}")));
    }

    #[test]
    fn owned_indexed_map_is_identical_across_thread_counts() {
        let items: Vec<String> = (0..503).map(|i| format!("v{i}")).collect();
        let expected: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = owned_indexed_map(items.clone(), threads, |_, s: String| format!("{s}!"));
            assert_eq!(got, expected, "threads {threads}");
        }
        assert!(owned_indexed_map(Vec::<u8>::new(), 4, |_, b| b).is_empty());
    }

    /// One buffer set per producer: producer `p` emits the items
    /// `p * per_producer ..` in order, item `i` routed to shard `i % shards`.
    fn per_producer_buffers(
        producers: usize,
        per_producer: usize,
        shards: usize,
    ) -> Vec<ShardBuffers<usize>> {
        (0..producers)
            .map(|p| {
                let mut buf = ShardBuffers::new(shards);
                for i in p * per_producer..(p + 1) * per_producer {
                    buf.emit(i % shards, i);
                }
                buf
            })
            .collect()
    }

    #[test]
    fn merge_preserves_input_order_within_each_shard_at_every_thread_count() {
        // Oracle: shard s holds exactly the items ≡ s (mod 7), ascending.
        let expected: Vec<(usize, Vec<usize>)> = (0..7)
            .map(|s| (s, (0..9_975).filter(|i| i % 7 == s).collect()))
            .collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let buffers = ShardedBuffers::from_workers(7, per_producer_buffers(57, 175, 7));
            assert_eq!(buffers.num_shards(), 7);
            assert_eq!(buffers.total_items(), 9_975);
            let merged = buffers.merge(threads, |s, v| (s, v));
            assert_eq!(merged, expected, "threads {threads}");
        }
    }

    #[test]
    fn merge_handles_empty_work_and_emit_clamps_shards() {
        let empty = ShardedBuffers::<u8>::empty(3);
        assert_eq!(empty.total_items(), 0);
        assert_eq!(empty.merge(4, |s, v: Vec<u8>| (s, v.len())).len(), 3);
        assert_eq!(ShardedBuffers::<u8>::empty(0).num_shards(), 1);

        // Out-of-range emission clamps to the last shard.
        let mut buf = ShardBuffers::new(2);
        for i in 0..3usize {
            buf.emit(99, i);
        }
        assert_eq!(buf.emitted(), 3);
        let merged = ShardedBuffers::from_workers(2, vec![buf]).merge(1, |s, v| (s, v));
        assert_eq!(merged, vec![(0, vec![]), (1, vec![0, 1, 2])]);
    }

    #[test]
    #[should_panic(expected = "same shard count")]
    fn from_workers_rejects_mismatched_shard_counts() {
        let _ = ShardedBuffers::from_workers(3, vec![ShardBuffers::<u8>::new(2)]);
    }

    #[test]
    fn scratch_is_per_worker() {
        // Each worker's scratch accumulates only its own chunk; the sum across
        // replicates must still cover every index exactly once.
        let vals = replicate_map(100, 7, Vec::<usize>::new, |i, seen| {
            seen.push(i);
            i as f64
        });
        let total: f64 = vals.iter().sum();
        assert_eq!(total, (0..100).sum::<usize>() as f64);
    }
}
