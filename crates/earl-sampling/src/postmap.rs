//! Post-map sampling (§3.3, Algorithm 1).
//!
//! Post-map sampling "first reads the entire dataset and then randomly chooses
//! the required subset to process": every key/value pair is parsed and stored
//! under a random hash, and batches are then drawn **without replacement** from
//! that hash as the sample needs to grow.  Load times are higher than pre-map
//! sampling (the full file is read once), but the exact number of key/value
//! pairs is known, enabling precise result correction.

use earl_cluster::Phase;
use earl_dfs::{Dfs, DfsPath};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::source::{SampleBatch, SampleSource};
use crate::Result;

/// Incremental without-replacement sampler backed by a full scan of the file.
#[derive(Debug)]
pub struct PostMapSampler {
    /// Records in a random order; `cursor` marks how many have been handed out.
    shuffled: Vec<(u64, String)>,
    cursor: usize,
    initial_scan_bytes: u64,
}

impl PostMapSampler {
    /// Creates the sampler, performing the full scan (charged to the cluster's
    /// Load phase) and building the randomly-hashed in-memory store.
    pub fn new(dfs: Dfs, path: impl Into<DfsPath>, seed: u64) -> Result<Self> {
        let path = path.into();
        let status = dfs.status(path.clone())?;
        let before = dfs
            .cluster()
            .metrics()
            .snapshot()
            .phase(Phase::Load)
            .disk_bytes_read;
        // Read and parse everything once — the defining cost of post-map sampling.
        let mut shuffled: Vec<(u64, String)> =
            Vec::with_capacity(status.num_records.unwrap_or(0) as usize);
        let mut offset = 0u64;
        for line in dfs.read_all_lines(Phase::Load, path)? {
            let len = line.len() as u64 + 1;
            shuffled.push((offset, line));
            offset += len;
        }
        let after = dfs
            .cluster()
            .metrics()
            .snapshot()
            .phase(Phase::Load)
            .disk_bytes_read;
        // "Random hashing that generates a pre-determined set of keys": a seeded
        // permutation gives every record a random position, and drawing from the
        // front is then drawing without replacement.
        let mut rng = StdRng::seed_from_u64(seed);
        shuffled.shuffle(&mut rng);
        Ok(Self {
            shuffled,
            cursor: 0,
            initial_scan_bytes: after - before,
        })
    }

    /// Bytes read by the initial full scan.
    pub fn initial_scan_bytes(&self) -> u64 {
        self.initial_scan_bytes
    }
}

impl SampleSource for PostMapSampler {
    fn draw(&mut self, count: usize) -> Result<SampleBatch> {
        let end = (self.cursor + count).min(self.shuffled.len());
        let records = self.shuffled[self.cursor..end].to_vec();
        // The first batch carries the cost of the initial scan so that callers
        // comparing samplers see the full price of post-map sampling.
        let bytes_read = if self.cursor == 0 {
            self.initial_scan_bytes
        } else {
            0
        };
        self.cursor = end;
        Ok(SampleBatch {
            records,
            bytes_read,
        })
    }

    fn population_size(&self) -> Option<u64> {
        Some(self.shuffled.len() as u64)
    }

    fn drawn(&self) -> u64 {
        self.cursor as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_cluster::{Cluster, CostModel};
    use earl_dfs::DfsConfig;
    use std::collections::HashSet;

    fn dataset(n: usize) -> Dfs {
        let cluster = Cluster::builder()
            .nodes(2)
            .cost_model(CostModel::free())
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 4096,
                replication: 1,
                io_chunk: 256,
            },
        )
        .unwrap();
        dfs.write_lines("/data", (0..n).map(|i| format!("{}", i)))
            .unwrap();
        dfs
    }

    #[test]
    fn knows_exact_population_and_reads_whole_file_once() {
        let dfs = dataset(1_000);
        let file_len = dfs.status("/data").unwrap().len;
        let sampler = PostMapSampler::new(dfs, "/data", 1).unwrap();
        assert_eq!(sampler.population_size(), Some(1_000));
        assert_eq!(
            sampler.initial_scan_bytes(),
            file_len,
            "post-map sampling scans everything"
        );
    }

    #[test]
    fn draws_without_replacement_until_exhaustion() {
        let dfs = dataset(300);
        let mut sampler = PostMapSampler::new(dfs, "/data", 2).unwrap();
        let mut seen = HashSet::new();
        let mut total = 0;
        loop {
            let batch = sampler.draw(100).unwrap();
            if batch.is_empty() {
                break;
            }
            total += batch.len();
            for (_, line) in &batch.records {
                assert!(seen.insert(line.clone()), "record {line} drawn twice");
            }
        }
        assert_eq!(total, 300);
        assert_eq!(sampler.drawn(), 300);
        assert_eq!(sampler.sampled_fraction(), Some(1.0));
    }

    #[test]
    fn first_batch_carries_the_scan_cost() {
        let dfs = dataset(500);
        let mut sampler = PostMapSampler::new(dfs, "/data", 3).unwrap();
        let first = sampler.draw(10).unwrap();
        let second = sampler.draw(10).unwrap();
        assert!(first.bytes_read > 0);
        assert_eq!(second.bytes_read, 0);
    }

    #[test]
    fn sample_is_unbiased_for_the_mean() {
        let n = 10_000usize;
        let dfs = dataset(n);
        let true_mean = (n as f64 - 1.0) / 2.0;
        let mut sampler = PostMapSampler::new(dfs, "/data", 4).unwrap();
        let batch = sampler.draw(1_000).unwrap();
        let mean = batch
            .records
            .iter()
            .map(|(_, l)| l.parse::<f64>().unwrap())
            .sum::<f64>()
            / 1_000.0;
        assert!(
            (mean - true_mean).abs() / true_mean < 0.1,
            "sample mean {mean} vs {true_mean}"
        );
    }

    #[test]
    fn deterministic_given_seed_and_missing_file_errors() {
        let dfs = dataset(50);
        let mut a = PostMapSampler::new(dfs.clone(), "/data", 9).unwrap();
        let mut b = PostMapSampler::new(dfs.clone(), "/data", 9).unwrap();
        assert_eq!(a.draw(20).unwrap().records, b.draw(20).unwrap().records);
        assert!(PostMapSampler::new(dfs, "/nope", 1).is_err());
    }
}
