//! Pre-map sampling (§3.3, Algorithm 2).
//!
//! Pre-map sampling draws random *lines* directly from the file's logical
//! splits **before** any data is handed to a mapper, which "significantly
//! reduces the load times" compared to scanning everything.  The procedure:
//!
//! 1. pick a random byte position within the file (equivalently: a random split
//!    `F_i` and a random start location within it);
//! 2. backtrack/skip to the beginning of a line using the `LineRecordReader`
//!    semantics;
//! 3. include the line unless its start offset is already marked in the
//!    per-split bit-vector of used positions (so no line is sampled twice);
//! 4. repeat until the requested sample size is met.
//!
//! The trade-off the paper highlights: the number of key/value pairs in the
//! sample is only estimated (a line may hold several pairs), so result
//! correction for functions like SUM is approximate — exact accounting requires
//! post-map sampling.

use std::collections::HashSet;

use earl_cluster::Phase;
use earl_dfs::{Dfs, DfsError, DfsPath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SamplingError;
use crate::source::{SampleBatch, SampleSource};
use crate::Result;

/// Incremental uniform line sampler over a DFS file.
#[derive(Debug)]
pub struct PreMapSampler {
    dfs: Dfs,
    path: DfsPath,
    file_len: u64,
    population: Option<u64>,
    /// Bit-vector equivalent: the set of line-start offsets already sampled.
    used_offsets: HashSet<u64>,
    drawn: u64,
    rng: StdRng,
    /// Upper bound on wasted probes per requested record before giving up
    /// (protects against pathological near-exhaustion loops).
    max_probe_factor: usize,
    /// When set, probes that land in blocks lost to node failures are skipped
    /// (like a used offset) instead of aborting the draw: the sampler then
    /// draws uniformly from the *surviving* data, which is exactly the sample
    /// EARL's degrade mode (§3.4) prices.  Off by default so callers that
    /// expect loss to be loud (stock retry semantics) still see the error.
    skip_unavailable: bool,
}

impl PreMapSampler {
    /// Creates a sampler over `path`.
    pub fn new(dfs: Dfs, path: impl Into<DfsPath>, seed: u64) -> Result<Self> {
        let path = path.into();
        let status = dfs.status(path.clone())?;
        Ok(Self {
            dfs,
            path,
            file_len: status.len,
            population: status.num_records,
            used_offsets: HashSet::new(),
            drawn: 0,
            rng: StdRng::seed_from_u64(seed),
            max_probe_factor: 64,
            skip_unavailable: false,
        })
    }

    /// Makes probes into failure-orphaned blocks count as misses instead of
    /// errors, so draws are uniform over the surviving data (§3.4).  Skipping
    /// consumes exactly one RNG value per probe regardless, so draws stay a
    /// pure function of `(seed, dead set)` — deterministic at every thread
    /// count.
    pub fn skip_unavailable(mut self, skip: bool) -> Self {
        self.skip_unavailable = skip;
        self
    }

    /// The file being sampled.
    pub fn path(&self) -> &DfsPath {
        &self.path
    }

    /// Number of distinct line-start offsets recorded in the "bit-vector".
    pub fn used_offsets(&self) -> usize {
        self.used_offsets.len()
    }

    fn load_bytes_read(&self) -> u64 {
        let metrics = self.dfs.cluster().metrics();
        metrics.phase(Phase::Load).disk_bytes_read
    }
}

impl SampleSource for PreMapSampler {
    fn draw(&mut self, count: usize) -> Result<SampleBatch> {
        if self.file_len == 0 || count == 0 {
            return Ok(SampleBatch {
                records: Vec::new(),
                bytes_read: 0,
            });
        }
        if let Some(n) = self.population {
            if self.drawn >= n {
                return Ok(SampleBatch {
                    records: Vec::new(),
                    bytes_read: 0,
                });
            }
        }
        let before = self.load_bytes_read();
        let mut records = Vec::with_capacity(count);
        let mut probes = 0usize;
        let max_probes = count.saturating_mul(self.max_probe_factor).max(1_000);
        while records.len() < count && probes < max_probes {
            probes += 1;
            let offset = self.rng.gen_range(0..self.file_len);
            let probe = match self.dfs.probe_line(Phase::Load, &self.path, offset) {
                Err(DfsError::BlockUnavailable(_)) if self.skip_unavailable => continue,
                other => other?,
            };
            let Some((line_start, line)) = probe else {
                continue;
            };
            if self.used_offsets.insert(line_start) {
                records.push((line_start, line));
            }
            if let Some(n) = self.population {
                if self.used_offsets.len() as u64 >= n {
                    break;
                }
            }
        }
        self.drawn += records.len() as u64;
        Ok(SampleBatch {
            records,
            bytes_read: self.load_bytes_read() - before,
        })
    }

    fn population_size(&self) -> Option<u64> {
        self.population
    }

    fn drawn(&self) -> u64 {
        self.drawn
    }
}

/// Convenience: draws a single uniform sample of `count` lines from `path`
/// using pre-map sampling.
pub fn premap_sample(
    dfs: &Dfs,
    path: impl Into<DfsPath>,
    count: usize,
    seed: u64,
) -> Result<SampleBatch> {
    if count == 0 {
        return Err(SamplingError::InvalidConfig(
            "sample size must be ≥ 1".into(),
        ));
    }
    let mut sampler = PreMapSampler::new(dfs.clone(), path, seed)?;
    sampler.draw(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_cluster::{Cluster, CostModel};
    use earl_dfs::DfsConfig;

    fn dataset(n: usize) -> (Dfs, Vec<f64>) {
        let cluster = Cluster::builder()
            .nodes(3)
            .cost_model(CostModel::free())
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 4096,
                replication: 2,
                io_chunk: 32,
            },
        )
        .unwrap();
        let values: Vec<f64> = (0..n).map(|i| (i as f64 * 37.0) % 1000.0).collect();
        dfs.write_lines("/data", values.iter().map(|v| format!("{v}")))
            .unwrap();
        (dfs, values)
    }

    #[test]
    fn draws_distinct_lines_and_tracks_offsets() {
        let (dfs, _) = dataset(500);
        let mut sampler = PreMapSampler::new(dfs, "/data", 1).unwrap();
        let batch = sampler.draw(100).unwrap();
        assert_eq!(batch.len(), 100);
        let offsets: HashSet<u64> = batch.records.iter().map(|(o, _)| *o).collect();
        assert_eq!(offsets.len(), 100, "no line may be sampled twice");
        assert_eq!(sampler.used_offsets(), 100);
        assert_eq!(sampler.drawn(), 100);
        assert!(
            batch.bytes_read > 0,
            "pre-map sampling reads only what it touches"
        );
        assert_eq!(sampler.population_size(), Some(500));
        assert!((sampler.sampled_fraction().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn successive_draws_never_repeat_lines() {
        let (dfs, _) = dataset(300);
        let mut sampler = PreMapSampler::new(dfs, "/data", 2).unwrap();
        let mut all = HashSet::new();
        for _ in 0..5 {
            let batch = sampler.draw(40).unwrap();
            for (offset, _) in &batch.records {
                assert!(all.insert(*offset), "offset {offset} repeated across draws");
            }
        }
        assert_eq!(all.len(), 200);
    }

    #[test]
    fn exhausting_the_file_returns_everything_once() {
        let (dfs, values) = dataset(64);
        let mut sampler = PreMapSampler::new(dfs, "/data", 3).unwrap();
        let mut collected = Vec::new();
        loop {
            let batch = sampler.draw(32).unwrap();
            if batch.is_empty() {
                break;
            }
            collected.extend(batch.records);
        }
        assert_eq!(collected.len(), values.len());
        let mut sampled: Vec<f64> = collected.iter().map(|(_, l)| l.parse().unwrap()).collect();
        sampled.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expected = values.clone();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sampled, expected);
    }

    #[test]
    fn sample_mean_approximates_population_mean() {
        let (dfs, values) = dataset(5_000);
        let true_mean = values.iter().sum::<f64>() / values.len() as f64;
        let batch = premap_sample(&dfs, "/data", 500, 4).unwrap();
        let sample_mean = batch
            .records
            .iter()
            .map(|(_, l)| l.parse::<f64>().unwrap())
            .sum::<f64>()
            / batch.len() as f64;
        let rel_err = (sample_mean - true_mean).abs() / true_mean;
        assert!(
            rel_err < 0.1,
            "10% sample mean {sample_mean} vs population {true_mean}"
        );
    }

    #[test]
    fn premap_reads_far_less_than_the_whole_file() {
        let (dfs, _) = dataset(20_000);
        let file_len = dfs.status("/data").unwrap().len;
        let batch = premap_sample(&dfs, "/data", 200, 5).unwrap();
        assert!(
            batch.bytes_read < file_len / 2,
            "a 1% sample must not read most of the file ({} of {file_len})",
            batch.bytes_read
        );
    }

    /// §3.3's case for pre-map sampling: "a naive solution is to pick blocks at
    /// random … will not produce a uniformly random sample" when the data are
    /// clustered on an attribute.
    #[test]
    fn one_random_split_is_biased_on_clustered_data_where_premap_is_not() {
        let (dfs, _) = dataset(1);
        // Small values fill the first half of the file, large ones the second;
        // equal line widths, so byte-position probes favour neither half.
        let values: Vec<f64> = (0..4_000)
            .map(|i| if i < 2_000 { 100.0 } else { 900.0 } + (i % 7) as f64)
            .collect();
        let true_mean = values.iter().sum::<f64>() / values.len() as f64;
        dfs.write_lines("/clustered", values.iter().map(|v| format!("{v}")))
            .unwrap();
        let mean_error = |records: &[(u64, String)]| {
            let sum: f64 = records.iter().map(|(_, l)| l.parse::<f64>().unwrap()).sum();
            (sum / records.len() as f64 - true_mean).abs() / true_mean
        };
        let splits = dfs.splits("/clustered", 2048).unwrap();
        let (mut split_error, mut premap_error) = (0.0, 0.0);
        for seed in 0..8u64 {
            let pick = StdRng::seed_from_u64(seed).gen_range(0..splits.len());
            let split = dfs
                .open_split(splits[pick].clone(), Phase::Load)
                .read_all()
                .unwrap();
            let uniform = premap_sample(&dfs, "/clustered", split.len(), seed).unwrap();
            split_error += mean_error(&split);
            premap_error += mean_error(&uniform.records);
        }
        assert!(
            split_error > 4.0 * premap_error,
            "whole-split error {split_error:.3} should dwarf pre-map error {premap_error:.3} (sums over 8 seeds)"
        );
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let (dfs, _) = dataset(10);
        assert!(premap_sample(&dfs, "/data", 0, 1).is_err());
        assert!(PreMapSampler::new(dfs, "/missing", 1).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (dfs, _) = dataset(200);
        let a = premap_sample(&dfs, "/data", 50, 99).unwrap();
        let b = premap_sample(&dfs, "/data", 50, 99).unwrap();
        assert_eq!(a.records, b.records);
    }
}
