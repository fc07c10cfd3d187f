//! The shuffle: partitioning, grouping and sorting of intermediate pairs.
//!
//! There is one path.  The shuffle is map-side: mappers emit their pairs
//! straight into per-shard buffers ([`earl_parallel::ShardBuffers`], one set
//! per map task), so the pairs are never materialised into one vector.
//! [`ShuffleOutput::shuffle_streaming`] runs only the reduce-side half —
//! per-shard concatenation (in emission order) + grouping — via
//! [`ShardedBuffers::merge`].  Because each shard receives its pairs in input
//! order and grouping is per-shard, the result is bit-identical at every
//! thread count — and to a single sequential pass over the pairs into
//! per-partition `BTreeMap`s, the oracle the tests compare against.
//!
//! No key or value is ever cloned: pairs are moved from the map output into
//! their group.  (`BTreeMap::entry` takes the key by value; for a key already
//! present the duplicate key is dropped, not cloned.)
//!
//! `total_records` / `total_groups` are cached at build time — they are read
//! on every job (stats, reduce planning) and recomputing them meant an
//! all-partitions walk per call.

use std::collections::BTreeMap;

use earl_parallel::ShardedBuffers;

use crate::types::{MrKey, MrValue};

/// Intermediate data grouped per reduce partition, with values grouped by key
/// in sorted key order (the "sort" half of sort-and-shuffle).
#[derive(Debug)]
pub struct ShuffleOutput<K, V> {
    partitions: Vec<BTreeMap<K, Vec<V>>>,
    /// Total records across all partitions, cached at build time.
    total_records: u64,
    /// Total distinct keys across all partitions, cached at build time.
    total_groups: u64,
}

/// Groups pairs (already routed to one partition, in input order) by key.
/// Keys and values are moved, never cloned.
fn group_pairs<K: MrKey, V: MrValue>(pairs: Vec<(K, V)>) -> BTreeMap<K, Vec<V>> {
    let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for (key, value) in pairs {
        grouped.entry(key).or_default().push(value);
    }
    grouped
}

impl<K: MrKey, V: MrValue> ShuffleOutput<K, V> {
    /// Completes a **map-side** shuffle whose pairs were emitted directly into
    /// per-shard buffers during the map phase — no all-pairs vector ever
    /// existed.  Only the reduce-side half runs here: each shard's buckets are
    /// concatenated in emission order and grouped, one merger per reducer
    /// across `threads` workers.
    ///
    /// The caller routed each pair with the partitioner arithmetic (shard =
    /// `partitioner.partition(key, num_shards)`, clamped); under that contract
    /// the output is bit-identical at every thread count to one sequential
    /// pass over the same pairs in the same emission order.
    pub fn shuffle_streaming(buffers: ShardedBuffers<(K, V)>, threads: usize) -> Self {
        let total_records = buffers.total_items();
        let partitions = buffers.merge(threads, |_, shard| group_pairs(shard));
        let total_groups = partitions.iter().map(|p| p.len() as u64).sum();
        Self {
            partitions,
            total_records,
            total_groups,
        }
    }

    /// Total number of records across all partitions (cached at build time).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Total number of distinct keys across all partitions (cached at build
    /// time).
    pub fn total_groups(&self) -> u64 {
        self.total_groups
    }

    /// Iterates over partitions.
    pub fn partitions(&self) -> impl Iterator<Item = &BTreeMap<K, Vec<V>>> {
        self.partitions.iter()
    }

    /// Consumes the shuffle output, yielding the partitions.
    pub fn into_partitions(self) -> Vec<BTreeMap<K, Vec<V>>> {
        self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{HashPartitioner, Partitioner};
    use earl_parallel::ShardBuffers;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The sequential reference the shuffle must match bit for bit: one pass
    /// over the pairs into per-partition `BTreeMap`s.
    fn oracle<K: MrKey, V: MrValue, P: Partitioner<K>>(
        pairs: &[(K, V)],
        partitions: usize,
        partitioner: &P,
    ) -> Vec<BTreeMap<K, Vec<V>>> {
        let partitions = partitions.max(1);
        let mut out: Vec<BTreeMap<K, Vec<V>>> = (0..partitions).map(|_| BTreeMap::new()).collect();
        for (key, value) in pairs.iter().cloned() {
            let p = partitioner.partition(&key, partitions).min(partitions - 1);
            out[p].entry(key).or_default().push(value);
        }
        out
    }

    /// Emulates a map phase of `tasks` map tasks, each emitting its contiguous
    /// slice of `pairs` into its own shard buffers, then the streaming shuffle.
    fn stream<K: MrKey, V: MrValue, P: Partitioner<K>>(
        pairs: &[(K, V)],
        partitions: usize,
        partitioner: &P,
        tasks: usize,
        threads: usize,
    ) -> ShuffleOutput<K, V> {
        let partitions = partitions.max(1);
        let per_task = pairs.len().div_ceil(tasks.max(1)).max(1);
        let workers = pairs
            .chunks(per_task)
            .map(|chunk| {
                let mut buf = ShardBuffers::new(partitions);
                for (key, value) in chunk.iter().cloned() {
                    let shard = partitioner.partition(&key, partitions);
                    buf.emit(shard, (key, value));
                }
                buf
            })
            .collect();
        ShuffleOutput::shuffle_streaming(ShardedBuffers::from_workers(partitions, workers), threads)
    }

    #[test]
    fn shuffle_groups_by_key_in_sorted_order() {
        let pairs = vec![("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5)];
        let out = stream(&pairs, 1, &HashPartitioner, 2, 1);
        assert_eq!(out.partitions().count(), 1);
        assert_eq!(out.total_records(), 5);
        assert_eq!(out.total_groups(), 3);
        let partition = &out.into_partitions()[0];
        let keys: Vec<&&str> = partition.keys().collect();
        assert_eq!(keys, vec![&"a", &"b", &"c"]);
        assert_eq!(partition["a"], vec![2, 5]);
        assert_eq!(partition["b"], vec![1, 3]);
    }

    #[test]
    fn every_key_lands_in_exactly_one_partition() {
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i % 50, i)).collect();
        let out = stream(&pairs, 4, &HashPartitioner, 5, 2);
        assert_eq!(out.total_records(), 500);
        assert_eq!(out.total_groups(), 50);
        // No key appears in two partitions.
        let mut seen = std::collections::HashSet::new();
        for partition in out.partitions() {
            for key in partition.keys() {
                assert!(seen.insert(*key), "key {key} appeared in two partitions");
            }
        }
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn zero_partitions_is_clamped_to_one() {
        let out = stream(&[("k", 1)], 0, &HashPartitioner, 1, 8);
        assert_eq!(out.partitions().count(), 1);
        let out = ShuffleOutput::<&str, i32>::shuffle_streaming(ShardedBuffers::empty(0), 8);
        assert_eq!(out.partitions().count(), 1);
    }

    #[test]
    fn streaming_shuffle_matches_the_oracle_at_every_thread_count() {
        let pairs: Vec<(u64, u64)> = (0..5_000).map(|i| (i * 2_654_435_761 % 97, i)).collect();
        for parts in [1usize, 2, 4, 7] {
            let reference = oracle(&pairs, parts, &HashPartitioner);
            for threads in [1usize, 2, 4, 8, 64] {
                let streamed = stream(&pairs, parts, &HashPartitioner, threads, threads);
                assert_eq!(streamed.total_records(), 5_000);
                assert_eq!(
                    streamed.into_partitions(),
                    reference,
                    "parts {parts}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn cached_counts_match_a_manual_walk() {
        let pairs: Vec<(u64, u64)> = (0..2_500).map(|i| (i % 83, i)).collect();
        let streamed = stream(&pairs, 4, &HashPartitioner, 8, 8);
        let manual_records: u64 = streamed
            .partitions()
            .flat_map(|p| p.values())
            .map(|v| v.len() as u64)
            .sum();
        let manual_groups: u64 = streamed.partitions().map(|p| p.len() as u64).sum();
        assert_eq!(streamed.total_records(), manual_records);
        assert_eq!(streamed.total_groups(), manual_groups);
        assert_eq!(manual_records, 2_500);
        assert_eq!(manual_groups, 83);
    }

    /// A key that counts how many times it is cloned, to pin down the
    /// no-copy guarantees.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct CountedKey(u64);

    static KEY_CLONES: AtomicUsize = AtomicUsize::new(0);

    impl Clone for CountedKey {
        fn clone(&self) -> Self {
            KEY_CLONES.fetch_add(1, Ordering::Relaxed);
            CountedKey(self.0)
        }
    }

    #[test]
    fn streaming_shuffle_never_clones_keys() {
        let before = KEY_CLONES.load(Ordering::Relaxed);
        // Keys are constructed at emission, like a mapper: nothing to clone from.
        let workers = (0..4u64)
            .map(|task| {
                let mut buf = ShardBuffers::new(4);
                for i in task * 500..(task + 1) * 500 {
                    buf.emit((i % 13 % 4) as usize, (CountedKey(i % 13), i));
                }
                buf
            })
            .collect();
        let out = ShuffleOutput::shuffle_streaming(ShardedBuffers::from_workers(4, workers), 8);
        assert_eq!(out.total_records(), 2_000);
        assert_eq!(out.total_groups(), 13);
        assert_eq!(
            KEY_CLONES.load(Ordering::Relaxed),
            before,
            "shuffle must move keys, never clone them"
        );
    }
}
