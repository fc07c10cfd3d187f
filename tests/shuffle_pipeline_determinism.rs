//! Determinism suite for the sharded shuffle and the pipelined EARL schedule
//! (PR 2), companion to `parallel_determinism.rs`.  (The shuffle's equivalence
//! with the sequential BTreeMap oracle on arbitrary inputs lives in
//! `streaming_shuffle_equivalence.rs`.)
//!
//! Contracts enforced here:
//!
//! * a full job run (map → sharded shuffle → reduce) is identical at every
//!   thread count;
//! * the pipelined schedule (`pipeline_depth = 2`), including a staged step
//!   that the stop rule cancels before its reduce phase, delivers the same
//!   final estimate and iteration count as the sequential schedule.
//!
//! The CI thread-matrix job runs this file with `EARL_THREADS` ∈ {1, 2, 4, 8}
//! on a multi-core runner; when the variable is unset, every count is covered
//! in-process.

use earl_core::tasks::{MeanTask, MedianTask};
use earl_core::{EarlConfig, EarlDriver};
use earl_dfs::{Dfs, DfsConfig};
use earl_mapreduce::{contrib, run_job, InputSource, JobConf};

/// Thread counts under test: the `EARL_THREADS` matrix value when set, the
/// full {1, 2, 4, 8} ladder otherwise.
fn thread_counts() -> Vec<usize> {
    match std::env::var("EARL_THREADS") {
        Ok(v) => vec![v.parse().expect("EARL_THREADS must be a positive integer")],
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn test_dfs(nodes: u32, seed: u64) -> Dfs {
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

/// A full job through the runner — map, **sharded** shuffle, reduce — is
/// bit-identical at every thread count, including outputs, counters and stats.
#[test]
fn job_with_sharded_shuffle_is_identical_across_thread_counts() {
    let lines: Vec<String> = (0..20_000)
        .map(|i| format!("k{} k{} v-{}", i % 211, i % 13, i % 7))
        .collect();
    let run = |threads: usize| {
        let dfs = test_dfs(4, 3);
        dfs.write_lines("/shuf", &lines).unwrap();
        let conf = JobConf::new("wc", InputSource::Path("/shuf".into()))
            .with_reducers(8)
            .with_parallelism(Some(threads));
        run_job(
            &dfs,
            &conf,
            &contrib::TokenCountMapper,
            &contrib::WordCountReducer,
        )
        .unwrap()
    };
    let reference = run(1);
    for &threads in &thread_counts() {
        let result = run(threads);
        assert_eq!(reference.outputs, result.outputs, "threads {threads}");
        assert_eq!(reference.counters, result.counters, "threads {threads}");
        assert_eq!(reference.stats, result.stats, "threads {threads}");
    }
}

fn driver_report(
    threads: usize,
    pipeline_depth: usize,
    sigma: f64,
    delta: bool,
) -> earl_core::EarlReport {
    let dfs = test_dfs(4, 17);
    earl_workload::DatasetBuilder::new(dfs.clone())
        .build(
            "/data",
            &earl_workload::DatasetSpec::normal(60_000, 500.0, 400.0, 17),
        )
        .unwrap();
    let config = EarlConfig {
        parallelism: Some(threads),
        pipeline_depth,
        sigma,
        delta_maintenance: delta,
        // Start deliberately small so the bound is missed and the loop
        // actually expands — the overlap path needs > 1 iteration.
        bootstraps: Some(40),
        sample_size: Some(500),
        ..EarlConfig::default()
    };
    EarlDriver::new(dfs, config)
        .run("/data", &MeanTask)
        .unwrap()
}

/// A pipelined run whose last staged step is cancelled by the stop rule
/// delivers the same final estimate, error, sample size and iteration count
/// as the sequential schedule — at every thread count.
#[test]
fn pipelined_run_with_a_cancelled_staged_step_matches_sequential() {
    // σ = 2% on high-dispersion data needs > 1 iteration, so the pipelined
    // schedule both commits a staged iteration and cancels the final
    // speculative one.
    let sequential = driver_report(1, 1, 0.02, true);
    assert!(
        sequential.iterations >= 2,
        "test needs a multi-iteration run to exercise the overlap (got {})",
        sequential.iterations
    );
    assert!(!sequential.exact);
    for &threads in &thread_counts() {
        let pipelined = driver_report(threads, 2, 0.02, true);
        assert_eq!(sequential.result, pipelined.result, "threads {threads}");
        assert_eq!(
            sequential.error_estimate, pipelined.error_estimate,
            "threads {threads}"
        );
        assert_eq!(
            sequential.sample_size, pipelined.sample_size,
            "threads {threads}"
        );
        assert_eq!(
            sequential.iterations, pipelined.iterations,
            "threads {threads}"
        );
        assert_eq!(
            sequential.sample_fraction, pipelined.sample_fraction,
            "threads {threads}"
        );
    }
}

/// The pipelined schedule itself is bit-identical across thread counts — the
/// full report, including the simulated time/IO accounting of the speculative
/// work, depends only on the seed.
#[test]
fn pipelined_schedule_is_identical_across_thread_counts() {
    let reference = driver_report(1, 2, 0.05, true);
    for &threads in &thread_counts() {
        let report = driver_report(threads, 2, 0.05, true);
        assert_eq!(reference.result, report.result, "threads {threads}");
        assert_eq!(
            reference.error_estimate, report.error_estimate,
            "threads {threads}"
        );
        assert_eq!(
            reference.sample_size, report.sample_size,
            "threads {threads}"
        );
        assert_eq!(reference.iterations, report.iterations, "threads {threads}");
        assert_eq!(reference.sim_time, report.sim_time, "threads {threads}");
        assert_eq!(reference.bytes_read, report.bytes_read, "threads {threads}");
    }
}

/// Non-delta (fresh bootstrap per iteration) pipelining also matches, with a
/// heavier order-statistic task.
#[test]
fn pipelined_median_without_delta_matches_sequential() {
    let dfs = test_dfs(3, 29);
    earl_workload::DatasetBuilder::new(dfs.clone())
        .build(
            "/data",
            &earl_workload::DatasetSpec::normal(30_000, 500.0, 150.0, 29),
        )
        .unwrap();
    let run = |depth: usize| {
        let config = EarlConfig {
            pipeline_depth: depth,
            delta_maintenance: false,
            ..EarlConfig::default()
        };
        EarlDriver::new(dfs.clone(), config)
            .run("/data", &MedianTask)
            .unwrap()
    };
    let sequential = run(1);
    let pipelined = run(2);
    assert_eq!(sequential.result, pipelined.result);
    assert_eq!(sequential.iterations, pipelined.iterations);
    assert_eq!(sequential.error_estimate, pipelined.error_estimate);
}
