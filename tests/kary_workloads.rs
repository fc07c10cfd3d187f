//! K-ary linear-form workloads, end to end (PR 5).
//!
//! The ratio-of-linear statistics — weighted mean, ratio of sums, paired
//! covariance and correlation — run through the full EARL driver on the
//! resample-free count-based kernel.  This suite locks the cross-layer
//! contract:
//!
//! * **driver accuracy** — every k-ary task meets its bound against exact
//!   ground truth computed from the written records;
//! * **fault-path equivalence** — an armed (never-firing) failure schedule
//!   runs the same parallel engine with deterministic failure arbitration;
//!   its delivered reports must be bit-identical to the failure-free
//!   streaming-shuffle run, for every k-ary task at every thread count
//!   (previously only scalar tasks were pinned under failures);
//! * **grouped weighted means** — `run_grouped` per-group replicates are
//!   bitwise identical to a standalone weighted bootstrap on the same
//!   `group_seed(seed, key)` stream, reports are thread- and kernel-invariant,
//!   and an all-zero-weight group raises
//!   [`EarlError::DegenerateGroupWeight`] instead of reporting NaN.
//!
//! The CI thread-matrix job runs this file with `EARL_THREADS` ∈ {1, 2, 4, 8};
//! locally the {2, 8} ladder is used.

use std::collections::BTreeMap;

use earl_bootstrap::bootstrap::{BootstrapConfig, BootstrapKernel};
use earl_cluster::{
    Cluster, CostModel, FailureEvent, FailureSchedule, NodeId, SimDuration, SimInstant,
};
use earl_core::grouped::{group_seed, grouped_accuracy, GroupedAggregate, MIN_GROUP_SAMPLE};
use earl_core::tasks::{CorrelationTask, CovarianceTask, RatioTask, WeightedMeanTask};
use earl_core::{EarlConfig, EarlDriver, EarlError};
use earl_dfs::{Dfs, DfsConfig};
use earl_workload::{
    DatasetBuilder, Distribution, GroupedWeightedSpec, PairedSpec, WeightedGroupSpec, WeightedSpec,
};

fn thread_counts() -> Vec<usize> {
    match std::env::var("EARL_THREADS") {
        Ok(v) => vec![v.parse().expect("EARL_THREADS must be a positive integer")],
        Err(_) => vec![2, 8],
    }
}

fn make_dfs(nodes: u32) -> Dfs {
    let cluster = Cluster::builder()
        .nodes(nodes)
        .cost_model(CostModel::commodity_2012())
        .build()
        .unwrap();
    Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 16,
            replication: 2,
            io_chunk: 256,
        },
    )
    .unwrap()
}

/// A DFS whose cluster has an armed failure schedule that never fires — the
/// engine must keep its parallel execution (arbitrating failures at
/// deterministic instants) while the schedule is pending, without any failure
/// actually occurring.
fn make_armed_dfs(nodes: u32) -> Dfs {
    let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
        node: NodeId(0),
        at: SimInstant::EPOCH + SimDuration::from_secs(1_000_000_000),
    }]);
    let cluster = Cluster::builder()
        .nodes(nodes)
        .cost_model(CostModel::commodity_2012())
        .failure_schedule(schedule)
        .build()
        .unwrap();
    Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 16,
            replication: 2,
            io_chunk: 256,
        },
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// Driver accuracy against exact ground truth
// ---------------------------------------------------------------------------

#[test]
fn ratio_covariance_and_correlation_meet_their_bounds_on_paired_truth() {
    let dfs = make_dfs(4);
    let ds = DatasetBuilder::new(dfs.clone())
        .build_paired("/pairs", &PairedSpec::linear(50_000, 2.5, 40.0, 25.0, 21))
        .unwrap();
    let driver = EarlDriver::new(dfs, EarlConfig::default());

    let ratio = driver.run("/pairs", &RatioTask).unwrap();
    assert!(ratio.meets_bound());
    assert!(
        !ratio.exact,
        "50k pairs at σ=5% must not require exact execution"
    );
    assert!(
        ratio.relative_error_vs(ds.truth.ratio) < 0.05,
        "ratio {} vs truth {}",
        ratio.result,
        ds.truth.ratio
    );

    let cov = driver.run("/pairs", &CovarianceTask).unwrap();
    assert!(cov.meets_bound());
    assert!(
        cov.relative_error_vs(ds.truth.covariance) < 0.15,
        "covariance {} vs truth {}",
        cov.result,
        ds.truth.covariance
    );

    let corr = driver.run("/pairs", &CorrelationTask).unwrap();
    assert!(corr.meets_bound());
    assert!(
        corr.relative_error_vs(ds.truth.correlation) < 0.05,
        "correlation {} vs truth {}",
        corr.result,
        ds.truth.correlation
    );
    // Sample sizes count records (pairs), not flat values.
    assert!(corr.sample_size <= ds.truth.count);
}

#[test]
fn weighted_mean_meets_its_bound_on_weighted_truth() {
    let dfs = make_dfs(4);
    let ds = DatasetBuilder::new(dfs.clone())
        .build_weighted(
            "/weighted",
            &WeightedSpec {
                num_records: 40_000,
                value: Distribution::Normal {
                    mean: 500.0,
                    std_dev: 100.0,
                },
                weight: Distribution::Uniform {
                    low: 0.5,
                    high: 1.5,
                },
                seed: 23,
            },
        )
        .unwrap();
    let report = EarlDriver::new(dfs, EarlConfig::default())
        .run("/weighted", &WeightedMeanTask)
        .unwrap();
    assert!(report.meets_bound());
    assert!(
        report.relative_error_vs(ds.truth.weighted_mean) < 0.05,
        "weighted mean {} vs truth {}",
        report.result,
        ds.truth.weighted_mean
    );
    assert_eq!(
        report.result, report.uncorrected_result,
        "ratio statistics need no 1/p correction"
    );
}

// ---------------------------------------------------------------------------
// Fault-path equivalence: armed schedule ≡ failure-free, bit-identical
// delivered reports on the same parallel engine
// ---------------------------------------------------------------------------

#[test]
fn armed_failure_schedules_deliver_bit_identical_kary_reports() {
    // Thread counts × every k-ary task: the armed engine
    // (deterministic failure arbitration) and the unarmed fast path must
    // deliver the same report to the last bit.  (A never-firing deterministic
    // event keeps the failure injector armed for the whole run.)
    let build = |dfs: &Dfs| {
        DatasetBuilder::new(dfs.clone())
            .build_paired("/pairs", &PairedSpec::linear(30_000, -1.5, 90.0, 20.0, 31))
            .unwrap();
        DatasetBuilder::new(dfs.clone())
            .build_weighted(
                "/weighted",
                &WeightedSpec {
                    num_records: 30_000,
                    value: Distribution::Normal {
                        mean: 300.0,
                        std_dev: 60.0,
                    },
                    weight: Distribution::Uniform {
                        low: 0.5,
                        high: 1.5,
                    },
                    seed: 33,
                },
            )
            .unwrap();
    };
    for &threads in &thread_counts() {
        let config = EarlConfig {
            parallelism: Some(threads),
            ..EarlConfig::default()
        };
        let run_one = |dfs: Dfs, path: &str, weighted: bool| {
            build(&dfs);
            let driver = EarlDriver::new(dfs, config);
            if weighted {
                driver.run(path, &WeightedMeanTask).unwrap()
            } else {
                driver.run(path, &RatioTask).unwrap()
            }
        };
        for (path, weighted) in [("/pairs", false), ("/weighted", true)] {
            let free = run_one(make_dfs(4), path, weighted);
            let armed = run_one(make_armed_dfs(4), path, weighted);
            assert_eq!(
                free.result.to_bits(),
                armed.result.to_bits(),
                "result (threads {threads}, {path})"
            );
            assert_eq!(
                free.uncorrected_result.to_bits(),
                armed.uncorrected_result.to_bits()
            );
            assert_eq!(
                free.error_estimate.to_bits(),
                armed.error_estimate.to_bits(),
                "error estimate (threads {threads}, {path})"
            );
            assert_eq!(free.ci_low.to_bits(), armed.ci_low.to_bits());
            assert_eq!(free.ci_high.to_bits(), armed.ci_high.to_bits());
            assert_eq!(free.sample_size, armed.sample_size);
            assert_eq!(free.sample_fraction, armed.sample_fraction);
            assert_eq!(free.bootstraps, armed.bootstraps);
            assert_eq!(free.iterations, armed.iterations);
            assert_eq!(free.exact, armed.exact);
        }
    }
}

// ---------------------------------------------------------------------------
// Grouped weighted means
// ---------------------------------------------------------------------------

/// Extracts every group's interleaved (value, weight) buffer the way the
/// grouped driver does, straight from the written file.
fn groups_from_file(dfs: &Dfs, path: &str) -> BTreeMap<String, Vec<f64>> {
    let agg = GroupedAggregate::weighted_mean();
    let lines = dfs.read_all_lines(earl_cluster::Phase::Load, path).unwrap();
    let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in &lines {
        if let Some((key, record)) = agg.extract_record(line) {
            groups.entry(key).or_default().extend(record.values());
        }
    }
    groups
}

#[test]
fn grouped_weighted_replicates_match_standalone_bootstraps_bitwise() {
    let dfs = make_dfs(3);
    let spec = GroupedWeightedSpec::normal_groups(4, 800, 100.0, 0.15, 41);
    DatasetBuilder::new(dfs.clone())
        .build_grouped_weighted("/gw", &spec)
        .unwrap();
    let groups = groups_from_file(&dfs, "/gw");
    assert_eq!(groups.len(), 4);
    let agg = GroupedAggregate::weighted_mean();
    let seed = 47u64;
    for &threads in &thread_counts() {
        let cfg = BootstrapConfig::with_resamples(80).with_parallelism(Some(threads));
        let all = grouped_accuracy(seed, &groups, &agg, &cfg).unwrap();
        for (key, result) in &all {
            // The per-group stream is a pure function of (seed, key): the same
            // bootstrap run standalone over the group's records reproduces
            // every replicate bit for bit, whatever other groups exist and
            // however many workers run.
            let standalone = agg
                .bootstrap_group(
                    group_seed(seed, key),
                    &groups[key],
                    &cfg.with_parallelism(Some(1)),
                )
                .unwrap();
            assert_eq!(
                result.replicates, standalone.replicates,
                "group {key}, threads {threads}"
            );
            assert_eq!(result.cv.to_bits(), standalone.cv.to_bits());
        }
    }
}

#[test]
fn run_grouped_weighted_means_meet_per_group_truth() {
    let spec = GroupedWeightedSpec::normal_groups(3, 15_000, 200.0, 0.2, 43);
    let run = |threads: usize, kernel: BootstrapKernel| {
        let dfs = make_dfs(3);
        let ds = DatasetBuilder::new(dfs.clone())
            .build_grouped_weighted("/gw", &spec)
            .unwrap();
        let config = EarlConfig {
            parallelism: Some(threads),
            bootstrap_kernel: kernel,
            ..EarlConfig::default()
        };
        let report = EarlDriver::new(dfs, config)
            .run_grouped("/gw", &GroupedAggregate::weighted_mean())
            .unwrap();
        (report, ds.truth)
    };
    let (report, truth) = run(1, BootstrapKernel::Auto);
    assert!(report.meets_bound());
    assert_eq!(report.groups.len(), 3);
    for g in &report.groups {
        let t = &truth[&g.key];
        assert!(
            (g.result - t.weighted_mean).abs() / t.weighted_mean.abs() < 0.05,
            "group {}: {} vs truth {}",
            g.key,
            g.result,
            t.weighted_mean
        );
        assert!(g.sample_size >= MIN_GROUP_SAMPLE as u64);
    }
    // Thread invariance of the whole grouped report.
    for &threads in &thread_counts() {
        let (parallel, _) = run(threads, BootstrapKernel::Auto);
        assert_eq!(report, parallel, "threads {threads}");
    }
    // Auto is the count-based kernel for the weighted mean, and the gather
    // kernel answers the same question within the bound.
    assert_eq!(
        GroupedAggregate::weighted_mean().resolved_kernel(BootstrapKernel::Auto),
        earl_bootstrap::bootstrap::ResolvedKernel::CountBased,
        "Auto runs weighted means resample-free"
    );
    let (gather, _) = run(1, BootstrapKernel::Gather);
    assert!(gather.meets_bound());
    for (a, g) in report.groups.iter().zip(&gather.groups) {
        assert!(
            (a.result - g.result).abs() / a.result.abs() < 0.05,
            "group {}: count-based {} vs gather {}",
            a.key,
            a.result,
            g.result
        );
    }
}

#[test]
fn all_zero_group_weight_raises_a_typed_error_not_nan() {
    let dfs = make_dfs(3);
    // Group "dead" carries weight 0 on every record; the others are healthy.
    let mut spec = GroupedWeightedSpec::normal_groups(2, 4_000, 100.0, 0.1, 45);
    spec.groups.push(WeightedGroupSpec {
        key: "dead".into(),
        num_records: 4_000,
        value: Distribution::Normal {
            mean: 50.0,
            std_dev: 5.0,
        },
        weight: Distribution::Normal {
            mean: 0.0,
            std_dev: 0.0,
        },
    });
    let ds = DatasetBuilder::new(dfs.clone())
        .build_grouped_weighted("/gw-dead", &spec)
        .unwrap();
    assert!(ds.truth["dead"].weighted_mean.is_nan());
    match EarlDriver::new(dfs, EarlConfig::default())
        .run_grouped("/gw-dead", &GroupedAggregate::weighted_mean())
    {
        Err(EarlError::DegenerateGroupWeight(key)) => assert_eq!(key, "dead"),
        other => panic!("expected DegenerateGroupWeight, got {other:?}"),
    }
}

#[test]
fn auto_never_routes_a_kary_task_to_the_gather_kernel_in_the_driver() {
    use earl_bootstrap::bootstrap::ResolvedKernel;
    use earl_core::task::TaskEstimator;
    let wm = WeightedMeanTask;
    let ratio = RatioTask;
    let cov = CovarianceTask;
    let corr = CorrelationTask;
    let wm_est = TaskEstimator::new(&wm);
    let ratio_est = TaskEstimator::new(&ratio);
    let cov_est = TaskEstimator::new(&cov);
    let corr_est = TaskEstimator::new(&corr);
    for (name, est) in [
        ("weighted_mean", &wm_est as &dyn earl_bootstrap::Estimator),
        ("ratio", &ratio_est),
        ("covariance", &cov_est),
        ("correlation", &corr_est),
    ] {
        assert_eq!(
            BootstrapKernel::Auto.resolve_for(est),
            ResolvedKernel::CountBased,
            "{name} must never reach the gather kernel under Auto"
        );
    }
    assert_eq!(
        GroupedAggregate::weighted_mean().resolved_kernel(BootstrapKernel::Auto),
        ResolvedKernel::CountBased
    );
}
