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
//! 3. include the line unless its start offset was sampled before — the
//!    paper's per-split bit-vector of used positions is a set of line-start
//!    offsets here — so no line is sampled twice;
//! 4. repeat until the requested sample size is met.
//!
//! A draw is one [`Dfs::probe_lines`] session: the file, its block table and
//! its stream heads are looked up once per draw, not once per probe, and a
//! line is copied out only when its offset is new.  Each probe is charged
//! exactly as a [`Dfs::read_line_at`] of its own.  Before every 16 probes
//! the draw reads the first byte of each of them, at offsets drawn from a
//! clone of its RNG, so that their cache misses overlap; the real RNG
//! sequence, and so every record and charge, stays as it was.
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

/// Upper bound on probes per requested record before a draw gives up
/// (protects against pathological near-exhaustion loops).
const MAX_PROBE_FACTOR: usize = 64;

/// Probes whose first bytes a draw reads ahead in one go.
const READ_AHEAD: usize = 16;

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
        let max_probes = count.saturating_mul(MAX_PROBE_FACTOR).max(1_000);
        let Self {
            dfs,
            path,
            file_len,
            population,
            used_offsets,
            rng,
            skip_unavailable,
            ..
        } = self;
        let file_len = *file_len;
        let batch = dfs.probe_lines(Phase::Load, path, |probes| {
            let mut records = Vec::with_capacity(count);
            let mut made = 0usize;
            // F7 (ROADMAP): a probe returns the first line that starts after
            // `offset - 1`, so a line is drawn with probability proportional
            // to its predecessor's length + 1.  That is uniform only while
            // line lengths do not depend on the values; see the ignored test
            // `variable_width_clustered_data_biases_premap_probes`.
            while records.len() < count && made < max_probes {
                if made % READ_AHEAD == 0 {
                    let mut ahead = rng.clone();
                    probes.read_ahead((0..READ_AHEAD).map(|_| ahead.gen_range(0..file_len)));
                }
                made += 1;
                let offset = rng.gen_range(0..file_len);
                let probe = match probes.probe(offset) {
                    Err(DfsError::BlockUnavailable(_)) if *skip_unavailable => continue,
                    other => other?,
                };
                let Some((line_start, line)) = probe else {
                    continue;
                };
                if used_offsets.insert(line_start) {
                    records.push((line_start, String::from_utf8_lossy(line).into_owned()));
                }
                if let Some(n) = *population {
                    if used_offsets.len() as u64 >= n {
                        break;
                    }
                }
            }
            Ok::<_, SamplingError>(SampleBatch {
                records,
                bytes_read: probes.bytes_read(),
            })
        })?;
        self.drawn += batch.records.len() as u64;
        Ok(batch)
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
    use earl_cluster::{Cluster, CostModel, FailureEvent, FailureSchedule, NodeId};
    use earl_dfs::DfsConfig;

    impl PreMapSampler {
        /// The draw as it was before the probe session, kept as the oracle:
        /// one `read_line_at` per probe, a `String` per probed line, and the
        /// bytes read taken from the cluster-wide Load metric.
        fn reference_draw(&mut self, count: usize) -> Result<SampleBatch> {
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
            let load_bytes_read = |dfs: &Dfs| {
                let metrics = dfs.cluster().metrics();
                metrics.phase(Phase::Load).disk_bytes_read
            };
            let before = load_bytes_read(&self.dfs);
            let mut records = Vec::with_capacity(count);
            let mut probes = 0usize;
            let max_probes = count.saturating_mul(MAX_PROBE_FACTOR).max(1_000);
            while records.len() < count && probes < max_probes {
                probes += 1;
                let offset = self.rng.gen_range(0..self.file_len);
                let probe = match self
                    .dfs
                    .read_line_at(Phase::Load, self.path.clone(), offset)
                {
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
                bytes_read: load_bytes_read(&self.dfs) - before,
            })
        }
    }

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

    /// The twin of the test above with line widths that follow the values,
    /// as printed numbers do: short lines in the first half, long ones in
    /// the second.  A probe returns the line after the one it lands in, so
    /// the long lines' successors are over-drawn (ROADMAP F7) and pre-map
    /// sampling is biased on this file.  It fails until probes are uniform
    /// over lines on any layout (ROADMAP item 18).
    #[test]
    #[ignore = "F7: pre-map probes are length-biased; ROADMAP item 18 fixes it"]
    fn variable_width_clustered_data_biases_premap_probes() {
        let (dfs, _) = dataset(1);
        let values: Vec<f64> = (0..4_000)
            .map(|i| if i < 2_000 { 100.0 } else { 900.0 } + (i % 7) as f64)
            .collect();
        let true_mean = values.iter().sum::<f64>() / values.len() as f64;
        // "100" against "900.000000000": 4 against 14 bytes a line.
        let lines = values.iter().enumerate().map(|(i, v)| {
            if i < 2_000 {
                format!("{v}")
            } else {
                format!("{v:.9}")
            }
        });
        dfs.write_lines("/clustered", lines).unwrap();
        let signed_error = |records: &[(u64, String)]| {
            let sum: f64 = records.iter().map(|(_, l)| l.parse::<f64>().unwrap()).sum();
            (sum / records.len() as f64 - true_mean) / true_mean
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
            let bias = signed_error(&uniform.records);
            println!(
                "seed {seed}: pre-map relative error {bias:+.4} over {} records",
                uniform.len()
            );
            split_error += signed_error(&split).abs();
            premap_error += bias.abs();
        }
        assert!(
            split_error > 4.0 * premap_error,
            "whole-split error {split_error:.3} should dwarf pre-map error {premap_error:.3} (sums over 8 seeds)"
        );
    }

    // ----- the probe session against the per-probe oracle ------------------

    /// A two-node priced cluster holding `content` at `/probed`.
    fn probed(
        content: &[u8],
        block_size: u64,
        io_chunk: u64,
        replication: u32,
        schedule: FailureSchedule,
    ) -> Dfs {
        let cluster = Cluster::builder()
            .nodes(2)
            .cost_model(CostModel::commodity_2012())
            .failure_schedule(schedule)
            .build()
            .unwrap();
        let config = DfsConfig {
            block_size,
            replication,
            io_chunk,
        };
        let dfs = Dfs::new(cluster, config).unwrap();
        let lines = content.split(|b| *b == b'\n').count() - usize::from(content.ends_with(b"\n"));
        dfs.write_encoded("/probed", content, lines as u64).unwrap();
        dfs
    }

    /// 300 lines of 0 to 70 bytes (the first one empty), one of them not
    /// UTF-8, then a last line without a newline.
    fn ragged() -> Vec<u8> {
        let mut content = Vec::new();
        for i in 0..300usize {
            if i == 150 {
                content.extend_from_slice(b"\xff\xfe not UTF-8");
            } else {
                content.extend((0..i * 37 % 71).map(|k| b'a' + ((i + k) % 26) as u8));
            }
            content.push(b'\n');
        }
        content.extend_from_slice(b"no trailing newline");
        content
    }

    /// Everything a draw can move, outside the batch it returns.
    #[derive(Debug, PartialEq)]
    struct SamplerState {
        used_offsets: HashSet<u64>,
        drawn: u64,
        rng: StdRng,
        metrics: earl_cluster::MetricsSnapshot,
        elapsed: earl_cluster::SimDuration,
        failure_events: Vec<FailureEvent>,
        failed_nodes: Vec<NodeId>,
        stream_heads: Vec<(u64, u32)>,
    }

    fn sampler_state(sampler: &PreMapSampler) -> SamplerState {
        let cluster = sampler.dfs.cluster();
        SamplerState {
            used_offsets: sampler.used_offsets.clone(),
            drawn: sampler.drawn,
            rng: sampler.rng.clone(),
            metrics: cluster.metrics().snapshot(),
            elapsed: cluster.elapsed(),
            failure_events: cluster.failure_events(),
            failed_nodes: cluster.failed_nodes(),
            stream_heads: sampler.dfs.stream_heads(sampler.path.clone()),
        }
    }

    /// Draws `counts` in turn with the session on one world and the oracle on
    /// an identical one, cycling through `counts` for `rounds` draws or until
    /// the population has run out, and compares every result and the whole
    /// state after each.  Returns the records and how many draws failed.
    fn assert_draws_match(
        build: impl Fn() -> Dfs,
        skip_unavailable: bool,
        counts: &[usize],
        rounds: usize,
        what: &str,
    ) -> (Vec<(u64, String)>, usize) {
        let sampler = |dfs| {
            PreMapSampler::new(dfs, "/probed", 7)
                .unwrap()
                .skip_unavailable(skip_unavailable)
        };
        let (mut new, mut old) = (sampler(build()), sampler(build()));
        let (mut records, mut failed) = (Vec::new(), 0);
        for (round, &count) in counts.iter().cycle().take(rounds).enumerate() {
            let got = new.draw(count);
            let expected = old.reference_draw(count);
            assert_eq!(got, expected, "{what}: draw {round} of {count}");
            assert_eq!(
                sampler_state(&new),
                sampler_state(&old),
                "{what}: state after draw {round} of {count}"
            );
            match got {
                Ok(batch) if batch.is_empty() && new.population.is_some_and(|n| new.drawn >= n) => {
                    break
                }
                Ok(batch) => records.extend(batch.records),
                Err(_) => failed += 1,
            }
        }
        (records, failed)
    }

    #[test]
    fn draw_matches_the_per_probe_oracle() {
        let none = || FailureSchedule::None;
        let content = ragged();
        let lines = 301;

        // Lines across chunk and block boundaries, drawn until the population
        // runs out — which takes the probe at offset 0, the only one that
        // returns the first line.
        for block_size in [64, 256, 4096] {
            let what = format!("ragged, block {block_size}");
            let build = || probed(&content, block_size, 16, 2, none());
            let (records, failed) = assert_draws_match(build, false, &[1, 7, 60, 200], 200, &what);
            assert_eq!((records.len(), failed), (lines, 0), "{what}");
            assert!(records.iter().any(|(start, _)| *start == 0), "{what}");
            assert!(
                records.iter().any(|(_, l)| l.contains('\u{fffd}')),
                "{what}"
            );
            assert!(
                records.iter().any(|(_, l)| l == "no trailing newline"),
                "{what}"
            );
            assert!(records.iter().any(|(_, l)| l.len() > 32), "{what}");
        }

        // Enough probes to leave more than 4 096 stream heads: the cap is
        // crossed part-way.
        let fixed: Vec<u8> = (0..5_000)
            .flat_map(|i| format!("{:05}\n", i % 7919).into_bytes())
            .collect();
        let build = || probed(&fixed, 256, 16, 2, none());
        let (records, _) = assert_draws_match(build, false, &[2_500], 2, "head cap");
        assert!(records.len() > 4_096, "head cap: {}", records.len());
        let heads = probed(&fixed, 256, 16, 2, none());
        let mut sampler = PreMapSampler::new(heads.clone(), "/probed", 7).unwrap();
        sampler.draw(2_500).unwrap();
        sampler.draw(2_500).unwrap();
        assert_eq!(heads.stream_heads("/probed").len(), 4_096, "head cap");

        // Replication 1 over two nodes with node 0 down, before or after its
        // blocks were orphaned: skipped probes, never an error.
        for reconcile in [false, true] {
            let what = format!("node 0 down, reconciled {reconcile}");
            let build = || {
                let dfs = probed(&content, 64, 16, 1, none());
                dfs.cluster().fail_node(NodeId(0)).unwrap();
                if reconcile {
                    assert!(!dfs.reconcile_failures().is_empty(), "{what}");
                }
                dfs
            };
            let (records, failed) = assert_draws_match(build, true, &[10, 40], 12, &what);
            assert_eq!(failed, 0, "{what}");
            assert!(
                !records.is_empty() && records.len() < lines,
                "{what}: {}",
                records.len()
            );
        }

        // Node 1 fails part-way through the second draw, when a failure poll
        // after a charge finds its time has come: the next probe into its
        // blocks is skipped, or fails the draw.
        let dry = probed(&content, 64, 16, 1, none());
        PreMapSampler::new(dry.clone(), "/probed", 7)
            .unwrap()
            .draw(60)
            .unwrap();
        let event = FailureEvent {
            node: NodeId(1),
            at: dry.cluster().now(),
        };
        for skip in [true, false] {
            let what = format!("node 1 fails at {:?}, skip {skip}", event.at);
            let build = || {
                probed(
                    &content,
                    64,
                    16,
                    1,
                    FailureSchedule::Deterministic(vec![event]),
                )
            };
            let (records, failed) = assert_draws_match(build, skip, &[40], 5, &what);
            assert!(records.len() >= 40, "{what}: {}", records.len());
            if skip {
                assert_eq!(failed, 0, "{what}");
            } else {
                assert!(failed > 0, "{what}");
            }
        }
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
