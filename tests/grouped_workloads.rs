//! Determinism and accuracy suite for the grouped per-key and categorical
//! workloads (PR 4).
//!
//! Contracts enforced here:
//!
//! * **per-group stream equivalence** — the grouped driver's accuracy stage
//!   (`grouped_accuracy`) produces, for every group, the **bitwise** result of
//!   a standalone `bootstrap_distribution` run over that group's values on the
//!   `group_seed(seed, key)` RNG stream — across the kernel × `EARL_THREADS`
//!   matrix;
//! * **thread/kernel invariance** — `run_grouped` reports are bit-identical at
//!   every thread count; `Auto` resolves the linear grouped statistics to the
//!   count-based kernel, and `Gather` agrees at seeded tolerance;
//! * **accuracy** — per-group estimates respect their own error bounds against
//!   exact ground truth, and `Sum`/`Count` are corrected by `1/p`;
//! * **categorical proportions** — the `ProportionTask` runs end-to-end
//!   through the scalar driver on the count-based kernel, and its bootstrap cv
//!   agrees with the paper's Appendix-A z-approximation.
//!
//! The CI thread-matrix job runs this file with `EARL_THREADS` ∈ {1, 2, 4, 8}.

use std::collections::BTreeMap;

use earl_bootstrap::bootstrap::{bootstrap_distribution, BootstrapConfig};
use earl_bootstrap::{BootstrapKernel, ResolvedKernel};
use earl_core::grouped::{group_seed, grouped_accuracy};
use earl_core::tasks::{MeanTask, ProportionTask, SumTask};
use earl_core::{EarlConfig, EarlDriver, GroupedAggregate, GroupedEarlReport, TaskEstimator};
use earl_dfs::{Dfs, DfsConfig};
use earl_workload::{CategoricalSpec, DatasetBuilder, GroupedSpec};

fn thread_counts() -> Vec<usize> {
    match std::env::var("EARL_THREADS") {
        Ok(v) => vec![v.parse().expect("EARL_THREADS must be a positive integer")],
        Err(_) => vec![1, 2, 4, 8],
    }
}

const KERNELS: [BootstrapKernel; 2] = [BootstrapKernel::Auto, BootstrapKernel::Gather];

fn dfs(nodes: u32, seed: u64) -> Dfs {
    let cluster = earl_cluster::Cluster::builder()
        .nodes(nodes)
        .cost_model(earl_cluster::CostModel::commodity_2012())
        .seed(seed)
        .build()
        .unwrap();
    Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 12,
            replication: 2,
            io_chunk: 256,
        },
    )
    .unwrap()
}

/// Synthetic per-group samples with distinct sizes (to exercise distinct
/// section layouts in the count-based kernel).
fn sample_groups(seed: u64) -> BTreeMap<String, Vec<f64>> {
    let mut rng = earl_bootstrap::rng::seeded_rng(seed);
    let mut groups = BTreeMap::new();
    for (i, key) in ["alpha", "beta", "gamma", "delta"].iter().enumerate() {
        let n = 150 + 70 * i;
        let mean = 50.0 * (i + 1) as f64;
        let values: Vec<f64> = (0..n)
            .map(|_| mean + 0.2 * mean * earl_bootstrap::rng::standard_normal(&mut rng))
            .collect();
        groups.insert((*key).to_owned(), values);
    }
    groups
}

/// The driver's per-group accuracy stage reproduces, for every group, a
/// standalone bootstrap on the `(group_seed, replicate)` stream — bitwise,
/// for every kernel and thread count, for both mean and sum statistics.
#[test]
fn per_group_cv_matches_standalone_bootstrap_across_kernel_and_thread_matrix() {
    let groups = sample_groups(0xA11CE);
    for agg in [GroupedAggregate::mean(), GroupedAggregate::sum()] {
        for kernel in KERNELS {
            for &threads in &thread_counts() {
                let cfg = BootstrapConfig::with_resamples(120)
                    .with_parallelism(Some(threads))
                    .with_kernel(kernel);
                let staged = grouped_accuracy(42, &groups, &agg, &cfg).unwrap();
                assert_eq!(staged.len(), groups.len());
                for (key, result) in &staged {
                    // The standalone run: same values, same (seed, replicate)
                    // streams, evaluated through the scalar estimator — always
                    // single-threaded to prove thread invariance too.
                    let standalone_cfg = BootstrapConfig::with_resamples(120)
                        .with_parallelism(Some(1))
                        .with_kernel(kernel);
                    let standalone = match agg.stat() {
                        earl_core::GroupedStat::Mean => bootstrap_distribution(
                            group_seed(42, key),
                            &groups[key],
                            &TaskEstimator::new(&MeanTask),
                            &standalone_cfg,
                        ),
                        _ => bootstrap_distribution(
                            group_seed(42, key),
                            &groups[key],
                            &TaskEstimator::new(&SumTask),
                            &standalone_cfg,
                        ),
                    }
                    .unwrap();
                    assert_eq!(
                        result.replicates,
                        standalone.replicates,
                        "{} group {key}: kernel {kernel:?}, threads {threads}",
                        agg.name()
                    );
                    assert_eq!(
                        result.cv.to_bits(),
                        standalone.cv.to_bits(),
                        "{} group {key}: cv must be bitwise stable",
                        agg.name()
                    );
                }
            }
        }
    }
}

fn grouped_report(threads: usize, kernel: BootstrapKernel, sigma: f64) -> GroupedEarlReport {
    let d = dfs(4, 23);
    DatasetBuilder::new(d.clone())
        .build_grouped(
            "/grouped",
            &GroupedSpec::normal_groups(5, 12_000, 100.0, 0.3, 23),
        )
        .unwrap();
    let config = EarlConfig {
        parallelism: Some(threads),
        bootstrap_kernel: kernel,
        bootstraps: Some(120),
        // A fixed initial sample so every kernel sees the same records in its
        // first iteration (the expansion schedule itself is kernel-dependent:
        // it follows the kernel's cv estimates).
        sample_size: Some(4_000),
        sigma,
        ..EarlConfig::default()
    };
    EarlDriver::new(d, config)
        .run_grouped("/grouped", &GroupedAggregate::mean())
        .unwrap()
}

/// The grouped driver's full report — every per-group estimate, cv and CI —
/// is bit-identical at every thread count, per kernel.
#[test]
fn grouped_reports_are_identical_across_thread_counts() {
    for kernel in [BootstrapKernel::Auto, BootstrapKernel::Gather] {
        let reference = grouped_report(1, kernel, 0.03);
        assert!(reference.groups.len() == 5);
        assert!(!reference.exact);
        for &threads in &thread_counts() {
            let report = grouped_report(threads, kernel, 0.03);
            assert_eq!(report, reference, "kernel {kernel:?}, threads {threads}");
        }
    }
}

/// `Auto` resolves the linear grouped statistics to the count-based kernel,
/// while `Gather` agrees on every per-group cv at seeded tolerance
/// (different algorithm, same distribution moments).
#[test]
fn auto_is_count_based_and_gather_agrees_at_tolerance() {
    assert_eq!(
        GroupedAggregate::mean().resolved_kernel(BootstrapKernel::Auto),
        ResolvedKernel::CountBased,
        "Auto must run the linear stats resample-free"
    );
    let auto = grouped_report(1, BootstrapKernel::Auto, 0.03);

    let gather = grouped_report(1, BootstrapKernel::Gather, 0.03);
    assert_eq!(gather.groups.len(), auto.groups.len());
    // Both kernels met σ on the same fixed first sample, so the per-group
    // point estimates are comparable (same records, same evaluation).
    assert_eq!(auto.iterations, 1, "σ=3% at n=4000 is met in one iteration");
    assert_eq!(gather.iterations, 1);
    for (a, g) in auto.groups.iter().zip(&gather.groups) {
        assert_eq!(a.key, g.key);
        assert_eq!(
            a.uncorrected_result, g.uncorrected_result,
            "point estimates are kernel-independent"
        );
        // cv agreement at seeded tolerance: the count-based kernel reproduces
        // the result distribution's mean/variance up to the Eq. 3 count
        // approximation; at B=120 the Monte-Carlo noise dominates.
        let rel = (a.error_estimate - g.error_estimate).abs() / g.error_estimate;
        assert!(
            rel < 0.35,
            "group {}: count-based cv {} vs gather cv {} (rel {rel})",
            a.key,
            a.error_estimate,
            g.error_estimate
        );
    }
}

/// Per-group estimates are accurate against exact ground truth, every group
/// meets its own bound, and the sum statistic is `1/p`-corrected.
#[test]
fn grouped_estimates_meet_their_bounds_against_ground_truth() {
    let d = dfs(5, 31);
    let spec = GroupedSpec::normal_groups(6, 15_000, 80.0, 0.25, 31);
    let ds = DatasetBuilder::new(d.clone())
        .build_grouped("/grouped", &spec)
        .unwrap();

    let mean_report = EarlDriver::new(d.clone(), EarlConfig::default())
        .run_grouped("/grouped", &GroupedAggregate::mean())
        .unwrap();
    assert!(mean_report.meets_bound());
    assert_eq!(mean_report.groups.len(), 6);
    assert!(mean_report.sample_fraction < 0.25, "sampling must pay off");
    for group in &mean_report.groups {
        let truth = ds.truth[&group.key].mean;
        let rel = (group.result - truth).abs() / truth;
        assert!(
            rel < 0.08,
            "group {} mean {} vs truth {truth} (rel {rel})",
            group.key,
            group.result
        );
        assert!(group.error_estimate <= mean_report.target_sigma + 1e-12);
        assert!(group.ci_low < group.result && group.result < group.ci_high);
        assert!(group.sample_size > 0);
    }

    // Sum: corrected to population scale.
    let sum_report = EarlDriver::new(d, EarlConfig::default())
        .run_grouped("/grouped", &GroupedAggregate::sum())
        .unwrap();
    for group in &sum_report.groups {
        let truth = ds.truth[&group.key].sum;
        assert!(
            group.result > group.uncorrected_result,
            "sum must be scaled up by 1/p"
        );
        let rel = (group.result - truth).abs() / truth;
        assert!(
            rel < 0.15,
            "group {} corrected sum {} vs truth {truth} (rel {rel})",
            group.key,
            group.result
        );
    }

    // Count: recovers each group's population share.
    let count_report = EarlDriver::new(
        dfs(5, 31),
        EarlConfig::default(), // fresh cluster, same data regenerated below
    );
    let d2 = count_report.dfs().clone();
    DatasetBuilder::new(d2)
        .build_grouped("/grouped", &spec)
        .unwrap();
    let count_report = count_report
        .run_grouped("/grouped", &GroupedAggregate::count())
        .unwrap();
    for group in &count_report.groups {
        let truth = ds.truth[&group.key].count as f64;
        let rel = (group.result - truth).abs() / truth;
        assert!(
            rel < 0.15,
            "group {} corrected count {} vs truth {truth} (rel {rel})",
            group.key,
            group.result
        );
    }
}

/// A tiny grouped file degenerates to exact evaluation: zero error, full
/// sample fraction, per-group results equal to ground truth.
#[test]
fn tiny_grouped_dataset_falls_back_to_exact_evaluation() {
    let d = dfs(2, 37);
    let spec = GroupedSpec::normal_groups(3, 120, 50.0, 0.6, 37);
    let ds = DatasetBuilder::new(d.clone())
        .build_grouped("/tiny", &spec)
        .unwrap();
    let config = EarlConfig {
        sigma: 0.005,
        bootstraps: Some(60),
        ..EarlConfig::default()
    };
    let report = EarlDriver::new(d, config)
        .run_grouped("/tiny", &GroupedAggregate::mean())
        .unwrap();
    assert!(
        report.exact,
        "σ = 0.5% on 360 noisy records needs everything"
    );
    assert_eq!(report.sample_fraction, 1.0);
    for group in &report.groups {
        assert_eq!(group.error_estimate, 0.0);
        let truth = ds.truth[&group.key].mean;
        assert!(
            (group.result - truth).abs() < 1e-9,
            "exact group {} must equal ground truth",
            group.key
        );
    }
}

/// A rare group must not be declared converged off a handful of records: its
/// bootstrap cv is near zero (few, near-identical replicates) while the real
/// error is unbounded, so the loop keeps expanding until the group clears the
/// `MIN_GROUP_SAMPLE` floor.
#[test]
fn rare_groups_are_not_declared_converged_below_the_sample_floor() {
    use earl_core::grouped::MIN_GROUP_SAMPLE;
    use earl_workload::GroupSpec;
    let d = dfs(3, 47);
    // 40,000 common records vs 400 rare ones (1%): the ~400-record pilot sees
    // the rare group ~4 times — far below the floor.
    let spec = GroupedSpec {
        groups: vec![
            GroupSpec {
                key: "common".into(),
                num_records: 40_000,
                distribution: earl_workload::Distribution::Normal {
                    mean: 100.0,
                    std_dev: 10.0,
                },
            },
            GroupSpec {
                key: "rare".into(),
                num_records: 400,
                distribution: earl_workload::Distribution::Normal {
                    mean: 500.0,
                    std_dev: 50.0,
                },
            },
        ],
        seed: 47,
    };
    DatasetBuilder::new(d.clone())
        .build_grouped("/rare", &spec)
        .unwrap();
    let report = EarlDriver::new(d, EarlConfig::default())
        .run_grouped("/rare", &GroupedAggregate::mean())
        .unwrap();
    assert!(report.meets_bound());
    let rare = report.group("rare").expect("rare group was sampled");
    assert!(
        rare.sample_size >= MIN_GROUP_SAMPLE as u64,
        "rare group converged with only {} records",
        rare.sample_size
    );
    assert!(
        report.iterations > 1,
        "the floor must have forced at least one expansion"
    );
}

/// The categorical proportion task runs end-to-end through the scalar driver,
/// meets the bound, recovers the true proportion, and its bootstrap cv agrees
/// with the Appendix-A z-approximation.
#[test]
fn categorical_proportion_runs_end_to_end_and_matches_the_z_approximation() {
    let d = dfs(4, 41);
    let spec = CategoricalSpec {
        categories: vec![
            ("spam".into(), 0.3),
            ("ham".into(), 0.6),
            ("unsure".into(), 0.1),
        ],
        num_records: 80_000,
        seed: 41,
    };
    let ds = DatasetBuilder::new(d.clone())
        .build_categorical("/cat", &spec)
        .unwrap();
    let config = EarlConfig {
        // Fixed B: large enough that Monte-Carlo noise on the cv is a few
        // percent, so the z cross-check below is meaningful.
        bootstraps: Some(400),
        ..EarlConfig::default()
    };
    let report = EarlDriver::new(d, config)
        .run("/cat", &ProportionTask::new("spam"))
        .unwrap();
    assert!(report.meets_bound());
    assert!(!report.exact);
    let truth = ds.true_proportion("spam");
    assert!(
        (report.result - truth).abs() < 0.05 * truth.max(1e-9),
        "proportion {} vs truth {truth}",
        report.result
    );

    // Appendix-A cross-check: cv_z = √(p̂(1−p̂)/n) / p̂.
    let z = ProportionTask::z_estimate(report.result, report.sample_size).unwrap();
    let rel = (report.error_estimate - z.cv()).abs() / z.cv();
    assert!(
        rel < 0.30,
        "bootstrap cv {} vs z cv {} (rel {rel})",
        report.error_estimate,
        z.cv()
    );
}

/// Proportion reports are bit-identical across thread counts (the count-based
/// kernel serving an indicator mean).
#[test]
fn proportion_reports_are_identical_across_thread_counts() {
    let run = |threads: usize| {
        let d = dfs(3, 43);
        DatasetBuilder::new(d.clone())
            .build_categorical(
                "/cat",
                &CategoricalSpec {
                    categories: vec![("hit".into(), 0.25), ("miss".into(), 0.75)],
                    num_records: 40_000,
                    seed: 43,
                },
            )
            .unwrap();
        let config = EarlConfig {
            parallelism: Some(threads),
            bootstraps: Some(200),
            ..EarlConfig::default()
        };
        EarlDriver::new(d, config)
            .run("/cat", &ProportionTask::new("hit"))
            .unwrap()
    };
    let reference = run(1);
    for &threads in &thread_counts() {
        let report = run(threads);
        assert_eq!(reference.result, report.result, "threads {threads}");
        assert_eq!(
            reference.error_estimate, report.error_estimate,
            "threads {threads}"
        );
        assert_eq!(reference.sample_size, report.sample_size);
        assert_eq!(reference.sim_time, report.sim_time, "threads {threads}");
    }
}
