//! Property-based tests of the core invariants.
//!
//! The build environment has no crates.io access, so instead of proptest this
//! file drives each property over a seeded stream of randomized cases (32 per
//! property, like the previous `ProptestConfig::with_cases(32)`).  Failures
//! print the case seed, which reproduces the exact inputs.

use earl_bootstrap::bootstrap::{bootstrap_distribution, BootstrapConfig};
use earl_bootstrap::delta::{IncrementalBootstrap, SketchConfig};
use earl_bootstrap::estimators::{Estimator, Mean, Median, Quantile, StreamingStats, Variance};
use earl_bootstrap::rng::seeded_rng;
use earl_cluster::{Cluster, CostModel, Phase};
use earl_core::tasks::{MeanTask, MedianTask, SumTask};
use earl_core::EarlTask;
use earl_dfs::{Dfs, DfsConfig};
use earl_mapreduce::partition::{HashPartitioner, Partitioner};
use rand::rngs::StdRng;
use rand::Rng;

const CASES: u64 = 32;

/// Runs `property` over `CASES` randomized cases, each with its own seeded
/// RNG derived from `base` — re-seed with the printed case seed to reproduce
/// a failure.
fn check(base: u64, property: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let seed = base.wrapping_mul(0x1_0000).wrapping_add(case);
        let mut rng = seeded_rng(seed);
        property(&mut rng);
    }
}

fn rand_len(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    rng.gen_range(lo..hi)
}

fn rand_values(rng: &mut StdRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

fn rand_word(rng: &mut StdRng, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789 ,.:_-";
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

fn free_dfs(block_size: u64) -> Dfs {
    let cluster = Cluster::builder()
        .nodes(3)
        .cost_model(CostModel::free())
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

/// DFS round-trip: what is written is what is read, for arbitrary line
/// contents and block sizes (invariant 6).
#[test]
fn dfs_round_trip_preserves_lines() {
    check(1, |rng| {
        let lines: Vec<String> = (0..rand_len(rng, 1, 80))
            .map(|_| rand_word(rng, 40))
            .collect();
        let block_size = rng.gen_range(16u64..512);
        let dfs = free_dfs(block_size);
        dfs.write_lines("/prop/file", &lines).unwrap();
        let read = dfs.read_all_lines(Phase::Load, "/prop/file").unwrap();
        assert_eq!(read, lines, "block_size = {block_size}");
    });
}

/// Splits cover the file exactly once and the line reader never tears a
/// line, regardless of split size (invariant 6).
#[test]
fn splits_partition_lines_exactly() {
    check(2, |rng| {
        let lines: Vec<String> = (0..rand_len(rng, 1, 60))
            .map(|_| {
                let len = rng.gen_range(1..=20);
                (0..len)
                    .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                    .collect()
            })
            .collect();
        let split_size = rng.gen_range(8u64..256);
        let dfs = free_dfs(64);
        dfs.write_lines("/prop/split", &lines).unwrap();
        let mut collected = Vec::new();
        for split in dfs.splits("/prop/split", split_size).unwrap() {
            let mut reader = dfs.open_split(split, Phase::Map);
            collected.extend(reader.read_all().unwrap().into_iter().map(|(_, l)| l));
        }
        assert_eq!(collected, lines, "split_size = {split_size}");
    });
}

/// The hash partitioner sends every key to exactly one partition in range.
#[test]
fn partitioner_is_stable_and_bounded() {
    check(3, |rng| {
        let parts = rng.gen_range(1usize..16);
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let p = HashPartitioner.partition(&key, parts);
            assert!(p < parts);
            assert_eq!(p, HashPartitioner.partition(&key, parts));
        }
    });
}

/// Bootstrap replicates of the mean centre on the sample mean and the cv is
/// non-negative and finite for non-degenerate data (invariant 2).
#[test]
fn bootstrap_centres_on_the_point_estimate() {
    check(4, |rng| {
        let len = rand_len(rng, 20, 200);
        let values = rand_values(rng, len, 1.0, 1000.0);
        let b = rng.gen_range(10usize..60);
        let seed: u64 = rng.gen();
        let result =
            bootstrap_distribution(seed, &values, &Mean, &BootstrapConfig::with_resamples(b))
                .unwrap();
        assert!(result.cv.is_finite());
        assert!(result.cv >= 0.0);
        assert_eq!(result.replicates.len(), b);
        // The replicate mean stays within a few standard errors of f(s).
        let tolerance = 5.0 * result.std_error + 1e-9;
        assert!((result.replicate_mean - result.point_estimate).abs() <= tolerance);
        // Quantile estimators never leave the sample's range.
        let q = Quantile::new(0.9).estimate(&values);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        assert!(q >= min && q <= max);
    });
}

/// Delta-maintained resamples keep the right size and a finite error
/// estimate after any expansion (invariant 3).
#[test]
fn incremental_bootstrap_preserves_resample_sizes() {
    check(5, |rng| {
        let initial_len = rand_len(rng, 30, 120);
        let initial = rand_values(rng, initial_len, 0.0, 100.0);
        let delta_len = rand_len(rng, 10, 80);
        let delta = rand_values(rng, delta_len, 0.0, 100.0);
        let seed: u64 = rng.gen();
        let mut ib =
            IncrementalBootstrap::new(seed, &initial, 15, SketchConfig::default()).unwrap();
        let work = ib.expand(&delta).unwrap();
        assert_eq!(ib.sample_size(), initial.len() + delta.len());
        assert!(work.items_touched <= work.naive_items);
        let eval = ib.evaluate(&Median);
        assert!(eval.point_estimate.is_finite());
        assert_eq!(eval.replicates.len(), 15);
    });
}

/// EarlTask incremental update() agrees with batch evaluation, and the
/// streaming moments match the batch estimators (the paper's
/// initialize/update/finalize contract).
#[test]
fn incremental_task_states_match_batch_evaluation() {
    check(7, |rng| {
        let len = rand_len(rng, 2, 300);
        let values = rand_values(rng, len, -500.0, 500.0);
        let split = rng.gen_range(1usize..200).min(values.len() - 1);
        // Sum task.
        let sum = SumTask;
        let mut state = sum.initialize(&values[..split]);
        let other = sum.initialize(&values[split..]);
        sum.update(&mut state, &other);
        assert!((sum.finalize(&state) - sum.evaluate(&values)).abs() < 1e-6);
        // Mean task.
        let mean = MeanTask;
        let mut state = mean.initialize(&values[..split]);
        mean.update(&mut state, &mean.initialize(&values[split..]));
        assert!((mean.finalize(&state) - mean.evaluate(&values)).abs() < 1e-9);
        // Median task buffers are order-insensitive.
        let median = MedianTask;
        let mut state = median.initialize(&values[split..]);
        median.update(&mut state, &median.initialize(&values[..split]));
        assert!((median.finalize(&state) - median.evaluate(&values)).abs() < 1e-9);
        // Streaming moments match the batch variance.
        let mut stream = StreamingStats::new();
        for &v in &values {
            stream.push(v);
        }
        let batch_var = Variance.estimate(&values);
        if batch_var.is_finite() {
            assert!((stream.variance() - batch_var).abs() < 1e-6);
        }
    });
}

/// Sum correction by 1/p is exact when the sample really is a p-fraction.
#[test]
fn sum_correction_recovers_population_scale() {
    check(8, |rng| {
        let len = rand_len(rng, 50, 400);
        let values = rand_values(rng, len, 1.0, 10.0);
        let denominator = rng.gen_range(2usize..10);
        let p = 1.0 / denominator as f64;
        let take = ((values.len() as f64 * p).round() as usize).max(1);
        let sample_sum = SumTask.evaluate(&values[..take]);
        let corrected = SumTask.correct(sample_sum, take as f64 / values.len() as f64);
        let truth = SumTask.evaluate(&values);
        // The corrected estimate equals the truth up to sampling error, which for
        // a prefix of i.i.d.-generated values is bounded well within 50%.
        assert!((corrected - truth).abs() / truth < 0.5);
    });
}
