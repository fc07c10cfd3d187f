//! End-to-end integration tests spanning every crate: workload generation →
//! DFS → sampling → MapReduce → bootstrap → EARL driver.

use earl_cluster::{
    Cluster, CostModel, FailureEvent, FailureSchedule, NodeId, SimDuration, SimInstant,
};
use earl_core::tasks::{CountTask, MeanTask, MedianTask, QuantileTask, SumTask, VarianceTask};
use earl_core::{EarlConfig, EarlDriver, EarlError, SamplingMethod};
use earl_dfs::{Dfs, DfsConfig};
use earl_workload::layout::Layout;
use earl_workload::{DatasetBuilder, DatasetSpec, Distribution};

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

#[test]
fn every_builtin_task_meets_its_bound_on_synthetic_ground_truth() {
    let dfs = make_dfs(5);
    let ds = DatasetBuilder::new(dfs.clone())
        .build(
            "/integration/values",
            &DatasetSpec::normal(60_000, 800.0, 120.0, 1),
        )
        .unwrap();
    let driver = EarlDriver::new(dfs, EarlConfig::default());

    // Mean.
    let mean = driver.run("/integration/values", &MeanTask).unwrap();
    assert!(mean.meets_bound());
    assert!(mean.relative_error_vs(ds.true_mean) < 0.05);

    // Median.
    let median = driver.run("/integration/values", &MedianTask).unwrap();
    assert!(median.meets_bound());
    assert!(median.relative_error_vs(ds.true_median) < 0.05);

    // Sum and count are corrected by 1/p.
    let truth_sum: f64 = ds.values.iter().sum();
    let sum = driver.run("/integration/values", &SumTask).unwrap();
    assert!(
        sum.relative_error_vs(truth_sum) < 0.08,
        "sum {} vs {}",
        sum.result,
        truth_sum
    );
    let count = driver.run("/integration/values", &CountTask).unwrap();
    assert!(count.relative_error_vs(ds.values.len() as f64) < 0.08);

    // A tail quantile.
    let q9 = driver
        .run("/integration/values", &QuantileTask::new(0.9))
        .unwrap();
    let mut sorted = ds.values.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let truth_q9 = sorted[(0.9 * (sorted.len() - 1) as f64) as usize];
    assert!(q9.relative_error_vs(truth_q9) < 0.05);

    // Variance (scale-free, no correction).
    let var = driver.run("/integration/values", &VarianceTask).unwrap();
    let truth_var = ds.true_std_dev * ds.true_std_dev;
    assert!(
        var.relative_error_vs(truth_var) < 0.15,
        "variance {} vs {}",
        var.result,
        truth_var
    );
}

#[test]
fn skewed_data_still_respects_the_bound() {
    let dfs = make_dfs(5);
    let spec = DatasetSpec {
        num_records: 50_000,
        distribution: Distribution::LogNormal {
            mu: 3.0,
            sigma: 1.0,
        },
        layout: Layout::Shuffled,
        seed: 2,
        keyed: true,
    };
    let ds = DatasetBuilder::new(dfs.clone())
        .build("/integration/skewed", &spec)
        .unwrap();
    let driver = EarlDriver::new(dfs, EarlConfig::with_sigma(0.05));
    let report = driver.run("/integration/skewed", &MeanTask).unwrap();
    assert!(report.meets_bound());
    assert!(
        report.relative_error_vs(ds.true_mean) < 0.10,
        "skewed mean {} vs truth {}",
        report.result,
        ds.true_mean
    );
    assert!(report.sample_fraction < 0.6);
}

#[test]
fn earl_reads_much_less_data_than_exact_execution_on_large_inputs() {
    let dfs = make_dfs(5);
    DatasetBuilder::new(dfs.clone())
        .build(
            "/integration/large",
            &DatasetSpec::normal(120_000, 100.0, 15.0, 3),
        )
        .unwrap();
    let driver = EarlDriver::new(dfs, EarlConfig::default());
    let approx = driver.run("/integration/large", &MeanTask).unwrap();
    let exact = driver.run_exact("/integration/large", &MeanTask).unwrap();
    assert!(!approx.exact);
    assert!(
        approx.bytes_read * 4 < exact.bytes_read,
        "{} vs {}",
        approx.bytes_read,
        exact.bytes_read
    );
    assert!((approx.result - exact.result).abs() / exact.result < 0.05);
}

#[test]
fn pre_map_and_post_map_sampling_agree() {
    let dfs = make_dfs(4);
    let ds = DatasetBuilder::new(dfs.clone())
        .build(
            "/integration/sampling",
            &DatasetSpec::uniform(40_000, 0.0, 100.0, 4),
        )
        .unwrap();
    let pre = EarlDriver::new(dfs.clone(), EarlConfig::default())
        .run("/integration/sampling", &MeanTask)
        .unwrap();
    let post = EarlDriver::new(
        dfs,
        EarlConfig {
            sampling: SamplingMethod::PostMap,
            ..EarlConfig::default()
        },
    )
    .run("/integration/sampling", &MeanTask)
    .unwrap();
    // σ bounds the cv of the result distribution, so the realised error can
    // exceed σ by a small factor; 2σ is a comfortable envelope here.
    assert!(pre.relative_error_vs(ds.true_mean) < 0.10);
    assert!(post.relative_error_vs(ds.true_mean) < 0.10);
    assert!((pre.result - post.result).abs() / ds.true_mean < 0.15);
}

#[test]
fn node_failures_during_the_run_do_not_break_the_driver() {
    // A node dies 2 simulated seconds into the run; replication 2 keeps all
    // blocks readable and the driver must still meet its bound.
    let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
        node: NodeId(2),
        at: SimInstant::EPOCH + SimDuration::from_secs(2),
    }]);
    let cluster = Cluster::builder()
        .nodes(4)
        .failure_schedule(schedule)
        .build()
        .unwrap();
    let dfs = Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 15,
            replication: 2,
            io_chunk: 256,
        },
    )
    .unwrap();
    let ds = DatasetBuilder::new(dfs.clone())
        .build(
            "/integration/flaky",
            &DatasetSpec::normal(50_000, 70.0, 10.0, 5),
        )
        .unwrap();
    let driver = EarlDriver::new(dfs.clone(), EarlConfig::default());
    let report = driver.run("/integration/flaky", &MeanTask).unwrap();
    assert!(report.meets_bound());
    assert!(report.relative_error_vs(ds.true_mean) < 0.05);
    assert!(
        !dfs.cluster().failed_nodes().is_empty(),
        "the scheduled failure must have fired"
    );
}

#[test]
fn fault_tolerant_mode_bounds_the_error_after_data_loss() {
    let cluster = Cluster::builder()
        .nodes(4)
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
    let ds = DatasetBuilder::new(dfs.clone())
        .build(
            "/integration/lossy",
            &DatasetSpec::normal(30_000, 500.0, 60.0, 6),
        )
        .unwrap();
    dfs.cluster().fail_node(NodeId(3)).unwrap();
    // The default `Degrade` policy: the node died before the run, so the
    // driver writes its data off and samples the survivors.
    let report = EarlDriver::new(dfs, EarlConfig::default())
        .run("/integration/lossy", &MeanTask)
        .unwrap();
    assert!(report
        .fault_log
        .as_ref()
        .is_some_and(|log| log.splits_lost > 0));
    assert!(report.sample_fraction < 1.0);
    assert!(report.relative_error_vs(ds.true_mean) < 0.05);
    assert!(report.error_estimate > 0.0);
}

#[test]
fn accuracy_not_reached_is_reported_with_a_partial_result() {
    let dfs = make_dfs(3);
    // Tiny iteration budget and an unreachably tight bound.
    DatasetBuilder::new(dfs.clone())
        .build(
            "/integration/impossible",
            &DatasetSpec::normal(50_000, 10.0, 40.0, 7),
        )
        .unwrap();
    let config = EarlConfig {
        sigma: 0.0005,
        max_iterations: 1,
        sample_size: Some(200),
        bootstraps: Some(20),
        ..EarlConfig::default()
    };
    let driver = EarlDriver::new(dfs, config);
    match driver.run("/integration/impossible", &MeanTask) {
        Err(EarlError::AccuracyNotReached(report)) => {
            assert!(report.error_estimate > 0.0005);
            assert!(report.sample_size >= 200);
        }
        other => panic!("expected AccuracyNotReached, got {other:?}"),
    }
}

#[test]
fn simulated_cost_accounting_is_deterministic_across_runs() {
    let run = || {
        let dfs = make_dfs(5);
        DatasetBuilder::new(dfs.clone())
            .build(
                "/integration/deterministic",
                &DatasetSpec::normal(30_000, 500.0, 100.0, 8),
            )
            .unwrap();
        let driver = EarlDriver::new(dfs, EarlConfig::default());
        let report = driver.run("/integration/deterministic", &MeanTask).unwrap();
        (
            report.result,
            report.sim_time,
            report.bytes_read,
            report.sample_size,
        )
    };
    assert_eq!(run(), run());
}
