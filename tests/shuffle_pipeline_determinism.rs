//! Determinism suite for the sharded shuffle and the EARL ladder that runs a
//! job through it at every step, companion to `parallel_determinism.rs`.
//! (The shuffle's equivalence with the sequential BTreeMap oracle on
//! arbitrary inputs lives in `streaming_shuffle_equivalence.rs`.)
//!
//! Contracts enforced here:
//!
//! * a full job run (map → sharded shuffle → reduce) is identical at every
//!   thread count;
//! * a ladder delivers the same whole report — estimate, error, sample,
//!   iteration count, simulated time and bytes read — at every thread count,
//!   and the same whether it is configured as pipelined
//!   (`pipeline_depth = 2`, the default) or sequential (`pipeline_depth = 1`):
//!   the engine runs one back-to-back schedule and ignores the depth. The
//!   `pipelined_*` test names date from the speculative depth-2 schedule.
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
        // Start deliberately small so the bound is missed and the ladder
        // actually expands.
        bootstraps: Some(40),
        sample_size: Some(500),
        ..EarlConfig::default()
    };
    EarlDriver::new(dfs, config)
        .run("/data", &MeanTask)
        .unwrap()
}

/// A run configured as pipelined (`pipeline_depth = 2`, the default) on a
/// ladder that climbs several steps (σ = 2 %) delivers the whole report of
/// the sequential configuration (`pipeline_depth = 1`) — estimate, error,
/// sample, iteration count, simulated time and bytes read — at every thread
/// count. The engine runs one schedule and ignores the depth, so no step is
/// staged ahead and none is cancelled: nothing read or charged past the
/// stopping step may show up in the report.
#[test]
fn pipelined_run_with_a_cancelled_staged_step_matches_sequential() {
    let sequential = driver_report(1, 1, 0.02, true);
    assert!(
        sequential.iterations >= 2,
        "σ = 2 % on high-dispersion data needs > 1 step (got {})",
        sequential.iterations
    );
    assert!(!sequential.exact);
    for &threads in &thread_counts() {
        let pipelined = driver_report(threads, 2, 0.02, true);
        assert_eq!(sequential, pipelined, "threads {threads}");
    }
}

/// The ladder's whole report at the default configuration is bit-identical
/// across thread counts on a run that stops earlier (σ = 5 %): the simulated
/// time/IO accounting depends only on the seed.
#[test]
fn pipelined_schedule_is_identical_across_thread_counts() {
    let reference = driver_report(1, 2, 0.05, true);
    assert!(!reference.exact);
    for &threads in &thread_counts() {
        let report = driver_report(threads, 2, 0.05, true);
        assert_eq!(reference, report, "threads {threads}");
    }
}

/// Non-delta (fresh bootstrap per iteration) ladders are thread-invariant
/// too, with a heavier order-statistic task.
#[test]
fn median_without_delta_is_identical_across_thread_counts() {
    let run = |threads: usize| {
        let dfs = test_dfs(3, 29);
        earl_workload::DatasetBuilder::new(dfs.clone())
            .build(
                "/data",
                &earl_workload::DatasetSpec::normal(30_000, 500.0, 150.0, 29),
            )
            .unwrap();
        let config = EarlConfig {
            parallelism: Some(threads),
            delta_maintenance: false,
            ..EarlConfig::default()
        };
        EarlDriver::new(dfs, config)
            .run("/data", &MedianTask)
            .unwrap()
    };
    let reference = run(1);
    for &threads in &thread_counts() {
        assert_eq!(reference, run(threads), "threads {threads}");
    }
}
