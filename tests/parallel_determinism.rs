//! Determinism contract of the parallel execution engine (PR 1).
//!
//! The engine's invariant: `parallelism` trades wall-clock time only — every
//! result (bootstrap replicates, job outputs, counters, stats, full EARL
//! reports) is bit-identical for every thread count, because replicate RNG
//! streams derive from `(seed, replicate index)` and MapReduce task state is
//! merged in deterministic task order after the barrier.

use earl_bootstrap::bootstrap::{bootstrap_distribution, BootstrapConfig};
use earl_bootstrap::estimators::{Mean, Median};
use earl_bootstrap::rng::{seeded_rng, standard_normal};
use earl_cluster::{
    Cluster, CostModel, FailureEvent, FailureSchedule, NodeId, SimDuration, SimInstant,
};
use earl_core::grouped::GroupedTaskMapper;
use earl_core::tasks::MeanTask;
use earl_core::{EarlConfig, EarlDriver, GroupedAggregate};
use earl_dfs::{Dfs, DfsConfig};
use earl_mapreduce::{contrib, run_job, InputSource, JobConf, ReduceContext, Reducer};
use earl_parallel::MIN_PARALLEL_WORK;

/// Non-reference thread counts under test: the `EARL_THREADS` matrix value
/// when set (the CI thread-matrix job runs this file at 1, 2, 4 and 8), the
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

fn test_dfs(nodes: u32, seed: u64) -> Dfs {
    let cluster = Cluster::builder()
        .nodes(nodes)
        .cost_model(CostModel::commodity_2012())
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

fn wordcount_lines() -> Vec<String> {
    (0..5_000)
        .map(|i| format!("w{} w{} shared tail-{}", i % 53, i % 17, i % 5))
        .collect()
}

/// Property: `bootstrap_distribution` is a pure function of `(seed, data,
/// config)` — identical to the last bit for thread counts {1, 2, 8}, across a
/// spread of seeds, sample sizes and B values.
#[test]
fn bootstrap_distribution_is_identical_across_thread_counts() {
    for case in 0u64..8 {
        let n = 500 + (case as usize) * 700;
        let b = 16 + (case as usize) * 9;
        let data = normal_sample(n, 50.0, 8.0, 1000 + case);
        let reference = bootstrap_distribution(
            case,
            &data,
            &Median,
            &BootstrapConfig::with_resamples(b).with_parallelism(Some(1)),
        )
        .unwrap();
        for &threads in &thread_counts() {
            let result = bootstrap_distribution(
                case,
                &data,
                &Median,
                &BootstrapConfig::with_resamples(b).with_parallelism(Some(threads)),
            )
            .unwrap();
            assert_eq!(reference, result, "case {case}, threads {threads}");
        }
    }
}

/// Property: `run_job` produces identical outputs, counters and stats for
/// thread counts {1, 2, 8} with the same cluster seed.
#[test]
fn run_job_is_identical_across_thread_counts() {
    let run = |threads: usize| {
        let dfs = test_dfs(4, 7);
        dfs.write_lines("/wc", wordcount_lines()).unwrap();
        let conf = JobConf::new("wc", InputSource::Path("/wc".into()))
            .with_reducers(4)
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

/// Hands every key's values back in the order the reducer received them, so
/// a reordering anywhere between emit and reduce shows in the outputs.
struct ArrivalOrder;

impl Reducer for ArrivalOrder {
    type InKey = String;
    type InValue = f64;
    type Output = (String, Vec<f64>);
    fn reduce(&self, key: &String, values: &[f64], ctx: &mut ReduceContext<Self::Output>) {
        ctx.emit((key.clone(), values.to_vec()));
    }
}

/// Property: a job over in-memory records (the ladder's step job) is
/// identical at every thread count — outputs with each key's value order,
/// counters, stats and the cluster's simulated clock — at parallelism 1, 2,
/// 3 and 8 (and `EARL_THREADS`), over enough records for the map phase to
/// be worth splitting, with some lines the mapper skips.
#[test]
fn memory_input_job_is_identical_across_thread_counts() {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let records: Vec<(u64, String)> = (0..2 * MIN_PARALLEL_WORK as u64 + 1_234)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let line = if i % 97 == 0 {
                "unkeyed line".to_owned()
            } else {
                format!("k{}\t{}", state % 211, (state >> 20) as f64 / 4096.0)
            };
            (i * 24, line)
        })
        .collect();
    let agg = GroupedAggregate::mean();
    let mapper = GroupedTaskMapper::new(&agg);
    for reducers in [4, 8] {
        let run = |threads: usize| {
            let dfs = test_dfs(4, 7);
            let conf = JobConf::new("memory", InputSource::Memory(records.clone()))
                .with_reducers(reducers)
                .with_parallelism(Some(threads));
            let job = run_job(&dfs, &conf, &mapper, &ArrivalOrder).unwrap();
            (job, dfs.cluster().elapsed())
        };
        let (reference, reference_clock) = run(1);
        assert_eq!(reference.stats.map_tasks, 1, "one in-memory map task");
        let mut counts = vec![2, 3, 8];
        counts.extend(thread_counts());
        for threads in counts {
            let (job, clock) = run(threads);
            let at = format!("{reducers} reducers, threads {threads}");
            assert_eq!(reference.outputs, job.outputs, "{at}");
            assert_eq!(reference.counters, job.counters, "{at}");
            assert_eq!(reference.stats, job.stats, "{at}");
            assert_eq!(reference_clock, clock, "{at}");
        }
    }
}

/// Equivalence: the parallel reduce path emits outputs in exactly the order
/// the sequential path does (partition order, sorted keys within each
/// partition).  The sequential path is forced by arming a failure schedule
/// whose only event lies far beyond the end of the job.
#[test]
fn parallel_reduce_matches_sequential_reduce_ordering() {
    let lines = wordcount_lines();

    // Sequential reference: a pending (but never-firing) failure schedule
    // routes the job down the legacy sequential engine.
    let sequential = {
        let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
            node: NodeId(0),
            at: SimInstant::EPOCH + SimDuration::from_secs(1_000_000),
        }]);
        let cluster = Cluster::builder()
            .nodes(4)
            .cost_model(CostModel::commodity_2012())
            .failure_schedule(schedule)
            .seed(7)
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 1 << 12,
                replication: 2,
                io_chunk: 256,
            },
        )
        .unwrap();
        dfs.write_lines("/wc", &lines).unwrap();
        let conf = JobConf::new("wc", InputSource::Path("/wc".into())).with_reducers(4);
        run_job(
            &dfs,
            &conf,
            &contrib::TokenCountMapper,
            &contrib::WordCountReducer,
        )
        .unwrap()
    };

    // Parallel run on an identical failure-free cluster.
    let parallel = {
        let dfs = test_dfs(4, 7);
        dfs.write_lines("/wc", &lines).unwrap();
        let conf = JobConf::new("wc", InputSource::Path("/wc".into()))
            .with_reducers(4)
            .with_parallelism(Some(8));
        run_job(
            &dfs,
            &conf,
            &contrib::TokenCountMapper,
            &contrib::WordCountReducer,
        )
        .unwrap()
    };

    assert_eq!(
        sequential.outputs, parallel.outputs,
        "output records (and their order) must not depend on the execution engine"
    );
    assert_eq!(sequential.counters, parallel.counters);
    assert_eq!(
        sequential.stats.map_input_records,
        parallel.stats.map_input_records
    );
    assert_eq!(sequential.stats.reduce_groups, parallel.stats.reduce_groups);
    assert_eq!(sequential.stats.reduce_tasks, parallel.stats.reduce_tasks);
}

/// Property: a full EARL driver run (sampling + SSABE + pipelined jobs + AES)
/// reports identical results for thread counts {1, 2, 8}.
#[test]
fn earl_driver_reports_are_identical_across_thread_counts() {
    let run = |threads: usize| {
        let dfs = test_dfs(3, 11);
        earl_workload::DatasetBuilder::new(dfs.clone())
            .build(
                "/data",
                &earl_workload::DatasetSpec::normal(20_000, 500.0, 100.0, 11),
            )
            .unwrap();
        let config = EarlConfig {
            parallelism: Some(threads),
            ..EarlConfig::default()
        };
        EarlDriver::new(dfs, config)
            .run("/data", &MeanTask)
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
        assert_eq!(
            reference.sample_size, report.sample_size,
            "threads {threads}"
        );
        assert_eq!(reference.bootstraps, report.bootstraps, "threads {threads}");
        assert_eq!(reference.iterations, report.iterations, "threads {threads}");
    }
}

/// Property: the parallel engine and the `Mean` bootstrap agree with the
/// sequential legacy estimate — exercised at the workspace level so a change
/// in any layer that breaks the stream derivation fails loudly here.
#[test]
fn bootstrap_mean_replicates_match_at_every_parallelism() {
    let data = normal_sample(10_000, 100.0, 10.0, 99);
    let configs: Vec<BootstrapConfig> = std::iter::once(1)
        .chain(thread_counts())
        .map(|t| BootstrapConfig::with_resamples(64).with_parallelism(Some(t)))
        .collect();
    let results: Vec<_> = configs
        .iter()
        .map(|c| bootstrap_distribution(42, &data, &Mean, c).unwrap())
        .collect();
    for pair in results.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
    // And `None` (all cores) matches too — the default EarlConfig path.
    let auto = bootstrap_distribution(
        42,
        &data,
        &Mean,
        &BootstrapConfig::with_resamples(64).with_parallelism(None),
    )
    .unwrap();
    assert_eq!(results[0], auto);
}
