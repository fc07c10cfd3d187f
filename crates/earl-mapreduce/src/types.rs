//! The MapReduce programming model: mapper and reducer traits plus their
//! execution contexts.
//!
//! Signatures follow the paper's §2.1:
//!
//! ```text
//! map    : (k1, v1)        → list(k2, v2)
//! reduce : (k2, list(v2))  → (k3, v3)
//! ```
//!
//! Input records arrive as `(byte offset, line)` pairs, exactly like Hadoop's
//! `TextInputFormat`.

use std::hash::Hash as StdHash;

use earl_parallel::ShardBuffers;

use crate::counters::{builtin, Counters};
use crate::partition::{HashPartitioner, Partitioner};

/// Marker bounds for intermediate keys.
pub trait MrKey: Ord + StdHash + Clone + Send + Sync + 'static {}
impl<T: Ord + StdHash + Clone + Send + Sync + 'static> MrKey for T {}

/// Marker bounds for intermediate values.
pub trait MrValue: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> MrValue for T {}

/// Context handed to map functions for emitting intermediate pairs.
///
/// Every pair is routed into per-reduce-shard buckets *as it is emitted*, via
/// the same [`HashPartitioner`] the shuffle uses — the streaming shuffle's
/// hot path, which never materialises a per-task all-pairs vector and
/// allocates nothing per pair beyond the bucket slot.
#[derive(Debug)]
pub struct MapContext<K, V> {
    buffers: ShardBuffers<(K, V)>,
}

impl<K: MrKey, V: MrValue> MapContext<K, V> {
    /// Creates a context that routes every emitted pair straight into its own
    /// per-shard buckets, hash-partitioned over `num_shards` (at least one).
    /// Reclaim them — along with the counters — via
    /// [`into_shards`](Self::into_shards).
    pub fn sharded(num_shards: usize) -> Self {
        Self {
            buffers: ShardBuffers::new(num_shards),
        }
    }

    /// Emits one intermediate `(key, value)` pair.
    pub fn emit(&mut self, key: K, value: V) {
        let shard = HashPartitioner.partition(&key, self.buffers.num_shards());
        self.buffers.emit(shard, (key, value));
    }

    /// Consumes the context, returning the shard buffers (with this task's
    /// pairs routed in) and counters.  The buffers count their own pairs, so
    /// `MAP_OUTPUT_RECORDS` is taken from them here rather than bumped per
    /// emit; a context that emitted nothing has no such counter at all.
    pub fn into_shards(self) -> (ShardBuffers<(K, V)>, Counters) {
        let counters = map_output_counters(&self.buffers);
        (self.buffers, counters)
    }
}

/// The counters of a map compute whose pairs sit in `buffers`:
/// `MAP_OUTPUT_RECORDS` is the buffers' own pair count, and a compute that
/// emitted nothing has no such counter at all.
pub(crate) fn map_output_counters<P>(buffers: &ShardBuffers<P>) -> Counters {
    let mut counters = Counters::new();
    if buffers.emitted() > 0 {
        counters.add(builtin::MAP_OUTPUT_RECORDS, buffers.emitted());
    }
    counters
}

/// Context handed to reduce functions for emitting final output records.
#[derive(Debug)]
pub struct ReduceContext<O> {
    outputs: Vec<O>,
    counters: Counters,
}

impl<O> ReduceContext<O> {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self {
            outputs: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// Emits one output record.
    pub fn emit(&mut self, output: O) {
        self.counters.increment(builtin::REDUCE_OUTPUT_RECORDS);
        self.outputs.push(output);
    }

    /// Consumes the context, returning outputs and counters.
    pub fn into_parts(self) -> (Vec<O>, Counters) {
        (self.outputs, self.counters)
    }
}

impl<O> Default for ReduceContext<O> {
    fn default() -> Self {
        Self::new()
    }
}

/// A map function over `(offset, line)` input records.
pub trait Mapper: Send + Sync {
    /// Intermediate key type.
    type OutKey: MrKey;
    /// Intermediate value type.
    type OutValue: MrValue;

    /// Processes one input record.
    fn map(&self, offset: u64, line: &str, ctx: &mut MapContext<Self::OutKey, Self::OutValue>);

    /// Whether the map function is CPU-heavy (charged at the cost model's
    /// heavy multiplier).  Defaults to `false`.
    fn is_heavy(&self) -> bool {
        false
    }

    /// A wire-portable spec of this mapper for remote execution, or `None`
    /// (the default) to always run in-process.  A remote transport is only
    /// consulted when both the job's mapper and reducer return a spec.
    fn remote_spec(&self) -> Option<crate::transport::TaskSpec> {
        None
    }
}

/// A reduce function over `(key, values)` groups.
pub trait Reducer: Send + Sync {
    /// Intermediate key type (must match the mapper's).
    type InKey: MrKey;
    /// Intermediate value type (must match the mapper's).
    type InValue: MrValue;
    /// Final output record type.
    type Output: Send + 'static;

    /// Processes one key group.
    fn reduce(
        &self,
        key: &Self::InKey,
        values: &[Self::InValue],
        ctx: &mut ReduceContext<Self::Output>,
    );

    /// Whether the reduce function is CPU-heavy.  Defaults to `false`.
    fn is_heavy(&self) -> bool {
        false
    }

    /// A wire-portable spec of this reducer for remote execution, or `None`
    /// (the default) to always run in-process.
    fn remote_spec(&self) -> Option<crate::transport::TaskSpec> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Tokenizer;
    impl Mapper for Tokenizer {
        type OutKey = String;
        type OutValue = u64;
        fn map(&self, _offset: u64, line: &str, ctx: &mut MapContext<String, u64>) {
            for token in line.split_whitespace() {
                ctx.emit(token.to_owned(), 1);
            }
        }
    }

    struct Summer;
    impl Reducer for Summer {
        type InKey = String;
        type InValue = u64;
        type Output = (String, u64);
        fn reduce(&self, key: &String, values: &[u64], ctx: &mut ReduceContext<(String, u64)>) {
            ctx.emit((key.clone(), values.iter().sum()));
        }
    }

    #[test]
    fn map_context_collects_emits_and_counters() {
        let mut ctx = MapContext::sharded(1);
        Tokenizer.map(0, "a b a", &mut ctx);
        let (buffers, counters) = ctx.into_shards();
        assert_eq!(counters.get(builtin::MAP_OUTPUT_RECORDS), 3);
        let shards = earl_parallel::ShardedBuffers::from_workers(1, vec![buffers])
            .merge(1, |_, pairs: Vec<(String, u64)>| pairs);
        let pair = |key: &str| (key.to_owned(), 1);
        assert_eq!(shards, vec![vec![pair("a"), pair("b"), pair("a")]]);
    }

    #[test]
    fn sharded_map_context_routes_like_the_partitioner() {
        let mut ctx = MapContext::sharded(4);
        Tokenizer.map(0, "a b a c", &mut ctx);
        let (buffers, counters) = ctx.into_shards();
        assert_eq!(counters.get(builtin::MAP_OUTPUT_RECORDS), 4);
        assert_eq!(buffers.emitted(), 4);
        // The sink must use the exact same routing as the shuffle's
        // post-hoc partitioning pass did.
        let merged = earl_parallel::ShardedBuffers::from_workers(4, vec![buffers])
            .merge(1, |shard, pairs: Vec<(String, u64)>| (shard, pairs));
        for (shard, pairs) in merged {
            for (key, _) in pairs {
                assert_eq!(HashPartitioner.partition(&key, 4), shard);
            }
        }
    }

    /// The counters `into_shards` derives from the buffers equal counting
    /// every emit, for none, one and many pairs.
    #[test]
    fn map_output_records_equal_per_emit_counting() {
        for emits in [0, 1, 1_000] {
            let mut ctx = MapContext::sharded(3);
            let mut per_emit = Counters::new();
            for i in 0..emits {
                ctx.emit(format!("k{}", i % 7), 1u64);
                per_emit.increment(builtin::MAP_OUTPUT_RECORDS);
            }
            let (buffers, counters) = ctx.into_shards();
            assert_eq!(counters, per_emit, "{emits} emits");
            assert_eq!(buffers.emitted(), emits);
        }
    }

    #[test]
    fn reduce_context_collects_outputs() {
        let mut ctx = ReduceContext::new();
        Summer.reduce(&"a".to_owned(), &[1, 1, 1], &mut ctx);
        let (outputs, counters) = ctx.into_parts();
        assert_eq!(outputs, vec![("a".to_owned(), 3)]);
        assert_eq!(counters.get(builtin::REDUCE_OUTPUT_RECORDS), 1);
    }

    #[test]
    fn default_heaviness_is_light() {
        assert!(!Tokenizer.is_heavy());
        assert!(!Summer.is_heavy());
    }
}
