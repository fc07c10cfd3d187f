//! Kernel-equivalence contract of the bootstrap evaluation kernels.
//!
//! Two replicate-evaluation kernels answer the same bootstrap question —
//! gather (materialise + rescan) and count-based (resample-free multinomial
//! section counts, linear statistics only; `Auto` picks it for every
//! estimator with a linear or k-ary form).  This suite pins:
//!
//! * gather and `Auto` against a single-pass replicate oracle on the same
//!   `(seed, replicate)` streams: bit for bit for the single-pass folds
//!   (mean/sum/count/min/max), within 1e-9 *relative* for the moment tasks
//!   (variance/stddev), plus two pinned moment-task driver reports;
//! * count-based reproduces the gather replicate *distribution*'s moments
//!   (replicate mean, standard error, cv) within seeded tolerance — by
//!   construction the kernel matches them exactly in expectation;
//! * every kernel is a pure function of the seed: bit-identical at every
//!   worker count, with `B`-growth preserving the replicate prefix.
//!
//! The CI thread-matrix job runs this file with `EARL_THREADS` ∈ {1, 2, 4, 8}
//! on a multi-core runner; locally the {2, 8} ladder is used.

use earl_bootstrap::bootstrap::{
    bootstrap_distribution, BootstrapConfig, BootstrapKernel, ResolvedKernel,
};
use earl_bootstrap::estimators::{Count, Estimator, Max, Mean, Median, Min, Sum};
use earl_bootstrap::rng::{seeded_rng, standard_normal};
use earl_core::task::TaskEstimator;
use earl_core::tasks::{
    CorrelationTask, CountTask, CovarianceTask, MeanTask, MedianTask, RatioTask, StdDevTask,
    SumTask, VarianceTask, WeightedMeanTask,
};

/// Thread counts under test: the `EARL_THREADS` matrix value when set, the
/// {2, 8} ladder otherwise.  Every property compares against a 1-thread
/// reference run.
fn thread_counts() -> Vec<usize> {
    match std::env::var("EARL_THREADS") {
        Ok(v) => vec![v.parse().expect("EARL_THREADS must be a positive integer")],
        Err(_) => vec![2, 8],
    }
}

fn normal_sample(n: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|_| mean + sd * standard_normal(&mut rng))
        .collect()
}

fn run(
    seed: u64,
    data: &[f64],
    estimator: &dyn Estimator,
    b: usize,
    kernel: BootstrapKernel,
    threads: usize,
) -> earl_bootstrap::BootstrapResult {
    bootstrap_distribution(
        seed,
        data,
        estimator,
        &BootstrapConfig::with_resamples(b)
            .with_kernel(kernel)
            .with_parallelism(Some(threads)),
    )
    .expect("bootstrap")
}

/// Property: the count-based kernel reproduces the gather kernel's replicate
/// *distribution* moments within seeded tolerance — the same replicate mean,
/// standard error and cv a materialising bootstrap measures, at O(√n) per
/// replicate.  (By construction the kernel's distribution matches the
/// multinomial bootstrap's mean and variance exactly; the tolerance below is
/// pure Monte-Carlo noise at B = 400.)
#[test]
fn count_based_distribution_moments_match_gather_within_seeded_tolerance() {
    for (case, n) in [(0u64, 2_000usize), (1, 8_000), (2, 30_000)] {
        let data = normal_sample(n, 150.0, 35.0, 4000 + case);
        for est in [&Mean as &dyn Estimator, &Sum] {
            let gather = run(case, &data, est, 400, BootstrapKernel::Gather, 1);
            let counts = run(case, &data, est, 400, BootstrapKernel::Auto, 1);
            assert_eq!(
                counts.point_estimate, gather.point_estimate,
                "the point estimate never depends on the kernel"
            );
            let rel_mean =
                ((counts.replicate_mean - gather.replicate_mean) / gather.replicate_mean).abs();
            assert!(
                rel_mean < 2e-3,
                "{} n={n}: replicate means {} vs {}",
                Estimator::name(est),
                counts.replicate_mean,
                gather.replicate_mean
            );
            let se_ratio = counts.std_error / gather.std_error;
            assert!(
                (0.8..1.25).contains(&se_ratio),
                "{} n={n}: standard errors {} vs {}",
                Estimator::name(est),
                counts.std_error,
                gather.std_error
            );
            let cv_ratio = counts.cv / gather.cv;
            assert!(
                (0.8..1.25).contains(&cv_ratio),
                "{} n={n}: cv {} vs {}",
                Estimator::name(est),
                counts.cv,
                gather.cv
            );
        }
        // Count is the degenerate linear statistic: every replicate is exactly
        // the resample size on both kernels.
        let gather = run(case, &data, &Count, 50, BootstrapKernel::Gather, 1);
        let counts = run(case, &data, &Count, 50, BootstrapKernel::Auto, 1);
        assert_eq!(gather, counts);
    }
}

/// Property: the count-based kernel is a pure function of the seed — replicate
/// `b` depends only on `(seed, b)`, so results are bit-identical at every
/// thread count and growing B preserves the prefix.
#[test]
fn count_based_kernel_is_thread_invariant_with_prefix_stability() {
    let data = normal_sample(5_000, 60.0, 12.0, 77);
    let reference = run(9, &data, &Mean, 64, BootstrapKernel::Auto, 1);
    for &threads in &thread_counts() {
        let parallel = run(9, &data, &Mean, 64, BootstrapKernel::Auto, threads);
        assert_eq!(reference, parallel, "threads = {threads}");
    }
    let grown = run(9, &data, &Mean, 96, BootstrapKernel::Auto, 1);
    assert_eq!(reference.replicates[..], grown.replicates[..64]);
}

/// Property: `Auto` never routes a linear estimator to the gather kernel —
/// at both the estimator layer and the task layer the driver uses.
#[test]
fn auto_routes_every_linear_statistic_to_the_count_based_kernel() {
    for est in [&Mean as &dyn Estimator, &Sum, &Count] {
        assert_eq!(
            BootstrapKernel::Auto.resolve_for(est),
            ResolvedKernel::CountBased,
            "estimator {}",
            Estimator::name(est)
        );
    }
    assert_eq!(
        BootstrapKernel::Auto.resolve_for(&TaskEstimator::new(&MeanTask)),
        ResolvedKernel::CountBased
    );
    assert_eq!(
        BootstrapKernel::Auto.resolve_for(&TaskEstimator::new(&SumTask)),
        ResolvedKernel::CountBased
    );
    assert_eq!(
        BootstrapKernel::Auto.resolve_for(&TaskEstimator::new(&CountTask)),
        ResolvedKernel::CountBased
    );
    // Second moments and order statistics gather.
    assert_eq!(
        BootstrapKernel::Auto.resolve_for(&TaskEstimator::new(&VarianceTask)),
        ResolvedKernel::Gather
    );
    assert_eq!(
        BootstrapKernel::Auto.resolve_for(&TaskEstimator::new(&StdDevTask)),
        ResolvedKernel::Gather
    );
    assert_eq!(
        BootstrapKernel::Auto.resolve_for(&TaskEstimator::new(&MedianTask)),
        ResolvedKernel::Gather
    );
    assert_eq!(
        BootstrapKernel::Auto.resolve_for(&Median),
        ResolvedKernel::Gather
    );
}

// ---------------------------------------------------------------------------
// K-ary conformance: the count-based kernel serving ratio-of-linear tasks
// (weighted mean, ratio, covariance, correlation) must reproduce the gather
// kernel's replicate distribution, stay bitwise thread-invariant, and never
// silently degrade to gather under Auto.
// ---------------------------------------------------------------------------

/// Interleaved (x, y) pairs with genuine cross-column correlation and
/// positive columns — every k-ary task is well defined on them.
fn kary_sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .flat_map(|_| {
            let x = 100.0 + 20.0 * standard_normal(&mut rng);
            let y = 0.6 * x + 30.0 + 10.0 * standard_normal(&mut rng);
            [x, y]
        })
        .collect()
}

struct KaryCase {
    name: &'static str,
    estimator: Box<dyn Estimator>,
}

fn kary_cases() -> Vec<KaryCase> {
    static WEIGHTED_MEAN: WeightedMeanTask = WeightedMeanTask;
    static RATIO: RatioTask = RatioTask;
    static COVARIANCE: CovarianceTask = CovarianceTask;
    static CORRELATION: CorrelationTask = CorrelationTask;
    vec![
        KaryCase {
            name: "weighted_mean",
            estimator: Box::new(TaskEstimator::new(&WEIGHTED_MEAN)),
        },
        KaryCase {
            name: "ratio",
            estimator: Box::new(TaskEstimator::new(&RATIO)),
        },
        KaryCase {
            name: "covariance",
            estimator: Box::new(TaskEstimator::new(&COVARIANCE)),
        },
        KaryCase {
            name: "correlation",
            estimator: Box::new(TaskEstimator::new(&CORRELATION)),
        },
    ]
}

/// Property: for every k-ary task the count-based kernel reproduces the gather
/// kernel's replicate *distribution* moments within seeded tolerance — same
/// replicate mean, standard error and cv, at O(k·√n) per replicate.  The
/// correlation's cv is minuscule (ρ ≈ 0.8 resamples barely move), so its
/// standard-error ratio gets the one looser band.
#[test]
fn kary_count_based_distribution_moments_match_gather_within_seeded_tolerance() {
    for (case, n) in [(0u64, 2_000usize), (1, 8_000)] {
        let data = kary_sample(n, 6000 + case);
        for kc in kary_cases() {
            let est = kc.estimator.as_ref();
            let gather = run(case, &data, est, 400, BootstrapKernel::Gather, 1);
            let counts = run(case, &data, est, 400, BootstrapKernel::Auto, 1);
            assert_eq!(
                counts.point_estimate, gather.point_estimate,
                "the point estimate never depends on the kernel ({})",
                kc.name
            );
            // Two independent B=400 Monte-Carlo means each wobble by
            // se/√B around the ideal bootstrap expectation; 6 combined
            // standard errors (with a 2e-3 relative floor for the
            // nearly-degenerate statistics) is a seeded-tolerance band that
            // only a genuinely biased kernel escapes.
            let mc_se = gather.std_error / (400f64).sqrt();
            let tolerance = (6.0 * mc_se).max(2e-3 * gather.replicate_mean.abs());
            assert!(
                (counts.replicate_mean - gather.replicate_mean).abs() < tolerance,
                "{} n={n}: replicate means {} vs {} (tolerance {tolerance})",
                kc.name,
                counts.replicate_mean,
                gather.replicate_mean
            );
            let se_ratio = counts.std_error / gather.std_error;
            assert!(
                (0.7..1.4).contains(&se_ratio),
                "{} n={n}: standard errors {} vs {}",
                kc.name,
                counts.std_error,
                gather.std_error
            );
        }
    }
}

/// Property: every k-ary task's count-based bootstrap is a pure function of
/// the seed — bit-identical at every thread count of the `EARL_THREADS`
/// matrix, with `B`-growth preserving the replicate prefix.
#[test]
fn kary_count_based_kernel_is_thread_invariant_with_prefix_stability() {
    let data = kary_sample(3_000, 88);
    for kc in kary_cases() {
        let est = kc.estimator.as_ref();
        let reference = run(17, &data, est, 64, BootstrapKernel::Auto, 1);
        for &threads in &thread_counts() {
            let parallel = run(17, &data, est, 64, BootstrapKernel::Auto, threads);
            assert_eq!(reference, parallel, "{} threads = {threads}", kc.name);
        }
        let grown = run(17, &data, est, 96, BootstrapKernel::Auto, 1);
        assert_eq!(
            reference.replicates[..],
            grown.replicates[..64],
            "{} prefix",
            kc.name
        );
        // The gather kernel resamples whole records and is thread-invariant
        // too (it shares the per-replicate RNG stream contract).
        let gather_ref = run(17, &data, est, 32, BootstrapKernel::Gather, 1);
        for &threads in &thread_counts() {
            let gather_par = run(17, &data, est, 32, BootstrapKernel::Gather, threads);
            assert_eq!(gather_ref, gather_par, "{} gather threads", kc.name);
        }
    }
}

/// Property: `Auto` never routes a k-ary-capable task to the gather kernel —
/// the exact assertion the bench gate enforces, pinned here for every new
/// task at the estimator layer the driver uses.
#[test]
fn auto_routes_every_kary_task_to_the_count_based_kernel() {
    for kc in kary_cases() {
        assert_eq!(
            BootstrapKernel::Auto.resolve_for(kc.estimator.as_ref()),
            ResolvedKernel::CountBased,
            "{} must never silently reach the gather kernel under Auto",
            kc.name
        );
        // Only an explicit Gather request lands on gather.
        assert_eq!(
            BootstrapKernel::Gather.resolve_for(kc.estimator.as_ref()),
            ResolvedKernel::Gather
        );
    }
}

/// Property: the full EARL driver delivers identical reports whichever of the
/// schedule variants runs, with the kernel threaded end-to-end — and pinning
/// the kernel to `Gather` still meets the accuracy bound (the kernels answer
/// the same statistical question).
#[test]
fn driver_reports_meet_the_bound_under_every_kernel() {
    use earl_cluster::{Cluster, CostModel};
    use earl_core::{EarlConfig, EarlDriver};
    use earl_dfs::{Dfs, DfsConfig};
    use earl_workload::{DatasetBuilder, DatasetSpec};

    let build = || {
        let cluster = Cluster::builder()
            .nodes(3)
            .cost_model(CostModel::commodity_2012())
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 1 << 16,
                replication: 2,
                io_chunk: 128,
            },
        )
        .unwrap();
        DatasetBuilder::new(dfs.clone())
            .build("/data", &DatasetSpec::normal(30_000, 500.0, 100.0, 5))
            .unwrap();
        dfs
    };
    for kernel in [BootstrapKernel::Auto, BootstrapKernel::Gather] {
        for &threads in &thread_counts() {
            let config = EarlConfig {
                bootstrap_kernel: kernel,
                parallelism: Some(threads),
                ..EarlConfig::default()
            };
            let report = EarlDriver::new(build(), config)
                .run("/data", &MeanTask)
                .unwrap();
            assert!(report.meets_bound(), "kernel {kernel:?}");
            assert!(
                (report.result - 500.0).abs() < 15.0,
                "kernel {kernel:?}: result {}",
                report.result
            );
            // Same kernel, any thread count → identical report.
            let reference = EarlDriver::new(
                build(),
                EarlConfig {
                    bootstrap_kernel: kernel,
                    parallelism: Some(1),
                    ..EarlConfig::default()
                },
            )
            .run("/data", &MeanTask)
            .unwrap();
            assert_eq!(reference.result, report.result, "kernel {kernel:?}");
            assert_eq!(
                reference.error_estimate, report.error_estimate,
                "kernel {kernel:?}"
            );
            assert_eq!(reference.sample_size, report.sample_size);
        }
    }
}

// ---------------------------------------------------------------------------
// Single-pass oracle gate: the replicate evaluation of the retired streaming
// kernel, kept as a test-only oracle, against what `Auto` and `Gather`
// deliver today.
// ---------------------------------------------------------------------------

#[path = "../crates/earl-bootstrap/src/single_pass_oracle.rs"]
mod single_pass_oracle;

use single_pass_oracle::Fold;

/// The single-pass oracle's replicates `0..b` of a `seed` run over `data`.
fn oracle_replicates(fold: Fold, seed: u64, data: &[f64], b: usize) -> Vec<f64> {
    (0..b as u64)
        .map(|i| {
            let mut rng = earl_bootstrap::rng::replicate_rng(seed, i);
            single_pass_oracle::replicate(fold, &mut rng, data, data.len())
        })
        .collect()
}

/// Property: on the same `(seed, b)` streams, at every thread count, `Auto`
/// and `Gather` replicates of the variance and stddev tasks lie within 1e-9
/// relative of the single-pass shifted moments the streaming kernel computed.
/// (`Auto` resolves both tasks to gather.)
#[test]
fn streaming_moment_replicates_match_gather_within_1e9_relative() {
    for case in 0u64..4 {
        let n = 500 + (case as usize) * 900;
        let data = normal_sample(n, 25.0, 6.0, 3000 + case);
        let moments: [(Fold, Box<dyn Estimator>); 2] = [
            (Fold::Variance, Box::new(TaskEstimator::new(&VarianceTask))),
            (Fold::StdDev, Box::new(TaskEstimator::new(&StdDevTask))),
        ];
        for (fold, est) in &moments {
            let oracle = oracle_replicates(*fold, case, &data, 40);
            for &threads in &thread_counts() {
                for kernel in [BootstrapKernel::Auto, BootstrapKernel::Gather] {
                    let result = run(case, &data, est.as_ref(), 40, kernel, threads);
                    assert_eq!(result.replicates.len(), oracle.len());
                    for (r, o) in result.replicates.iter().zip(&oracle) {
                        assert!(
                            ((r - o) / o).abs() < 1e-9,
                            "{fold:?} {kernel:?}: replicate {r} vs oracle {o} \
                             (case {case}, threads {threads})"
                        );
                    }
                }
            }
        }
    }
}

/// Property: on the same `(seed, b)` streams, at every thread count, `Gather`
/// replicates of mean, sum, count, min and max equal the streaming kernel's
/// single-pass folds bit for bit.
#[test]
fn streaming_replicates_are_bit_identical_to_gather_for_linear_statistics() {
    for case in 0u64..4 {
        let n = 500 + (case as usize) * 900;
        let data = normal_sample(n, 25.0, 6.0, 3000 + case);
        let folds: [(Fold, &dyn Estimator); 5] = [
            (Fold::Mean, &Mean),
            (Fold::Sum, &Sum),
            (Fold::Count, &Count),
            (Fold::Min, &Min),
            (Fold::Max, &Max),
        ];
        for (fold, est) in folds {
            let oracle = oracle_replicates(fold, case, &data, 40);
            for &threads in &thread_counts() {
                let gather = run(case, &data, est, 40, BootstrapKernel::Gather, threads);
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&gather.replicates),
                    bits(&oracle),
                    "{fold:?} (case {case}, threads {threads})"
                );
            }
        }
    }
}

/// One variance or stddev run of the full driver: SSABE picks `B` and `n`
/// on the pilot, and delta maintenance updates the resamples between
/// iterations.
fn moment_report<T: earl_core::EarlTask>(task: &T, threads: usize) -> earl_core::EarlReport {
    use earl_cluster::{Cluster, CostModel};
    use earl_core::{EarlConfig, EarlDriver};
    use earl_dfs::{Dfs, DfsConfig};
    use earl_workload::{DatasetBuilder, DatasetSpec};

    let cluster = Cluster::builder()
        .nodes(3)
        .cost_model(CostModel::commodity_2012())
        .seed(11)
        .build()
        .unwrap();
    let dfs = Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 16,
            replication: 2,
            io_chunk: 128,
        },
    )
    .unwrap();
    DatasetBuilder::new(dfs.clone())
        .build("/data", &DatasetSpec::normal(40_000, 500.0, 100.0, 11))
        .unwrap();
    let config = EarlConfig {
        sigma: 0.03,
        tau: 0.002,
        seed: 11,
        parallelism: Some(threads),
        ..EarlConfig::default()
    };
    assert!(config.delta_maintenance && config.bootstraps.is_none());
    EarlDriver::new(dfs, config).run("/data", task).unwrap()
}

/// A report field pinned bit for bit, and the three error fields pinned to
/// within 1e-9 relative.
struct MomentPin {
    iterations: usize,
    sample_size: u64,
    sample_fraction: u64,
    bootstraps: usize,
    result: u64,
    sim_micros: u64,
    bytes_read: u64,
    error_estimate: u64,
    ci_low: u64,
    ci_high: u64,
}

fn assert_matches_pin(r: &earl_core::EarlReport, pin: &MomentPin, threads: usize) {
    let what = format!("{} at {threads} threads", r.task);
    assert!(!r.exact, "{what}: the run must stay approximate");
    assert_eq!(r.iterations, pin.iterations, "{what}: iterations");
    assert_eq!(r.sample_size, pin.sample_size, "{what}: sample size");
    assert_eq!(
        r.sample_fraction.to_bits(),
        pin.sample_fraction,
        "{what}: sample fraction"
    );
    assert_eq!(r.bootstraps, pin.bootstraps, "{what}: bootstraps");
    assert_eq!(r.result.to_bits(), pin.result, "{what}: result");
    assert_eq!(r.sim_time.as_micros(), pin.sim_micros, "{what}: sim time");
    assert_eq!(r.bytes_read, pin.bytes_read, "{what}: bytes read");
    for (name, observed, pinned) in [
        ("error estimate", r.error_estimate, pin.error_estimate),
        ("ci low", r.ci_low, pin.ci_low),
        ("ci high", r.ci_high, pin.ci_high),
    ] {
        let pinned = f64::from_bits(pinned);
        assert!(
            ((observed - pinned) / pinned).abs() < 1e-9,
            "{what}: {name} {observed} vs pinned {pinned}"
        );
    }
}

/// Property: the variance and stddev tasks' full driver runs — SSABE
/// choosing `B` and `n`, delta-maintained resamples across several
/// iterations — keep every report field recorded when their replicates came
/// from the single-pass moments: the control flow and accounting bit for
/// bit, the error estimate and interval within 1e-9 relative.
#[test]
fn moment_task_reports_match_their_single_pass_pins() {
    let variance = MomentPin {
        iterations: 3,
        sample_size: 7032,
        sample_fraction: 0x3fc6809d495182aa,
        bootstraps: 12,
        result: 0x40c36bce0d5903b6,
        sim_micros: 79_447_788,
        bytes_read: 988_263,
        error_estimate: 0x3f93a9114ba72b38,
        ci_low: 0x40c2dcf2f72d17eb,
        ci_high: 0x40c45b12bb616863,
    };
    let std_dev = MomentPin {
        iterations: 2,
        sample_size: 866,
        sample_fraction: 0x3f962b6ae7d566cf,
        bootstraps: 8,
        result: 0x4059785f4993e8cb,
        sim_micros: 11_066_987,
        bytes_read: 111_831,
        error_estimate: 0x3f963d63d11a6aa3,
        ci_low: 0x4058e22161810646,
        ci_high: 0x405a7345a9046008,
    };
    for &threads in &thread_counts() {
        assert_matches_pin(&moment_report(&VarianceTask, threads), &variance, threads);
        assert_matches_pin(&moment_report(&StdDevTask, threads), &std_dev, threads);
    }
}
