//! Golden pins for the exact job: whole `EarlDriver::run_exact` reports.
//!
//! The exact job is the "stock Hadoop" baseline every early answer is priced
//! against, and EARL's own fallback when the sample would cover the data
//! (§3.2).  It is the only job that maps straight off DFS input splits, so
//! these pins hold the split read path: every line the mappers see, every
//! byte charged and the simulated clock.  Two worlds:
//!
//! * a scaled-down `scan_linear` world (`benchmark/src/scalar.rs`: 1 MiB
//!   blocks, 2 replicas, 4 KiB reads, 5 nodes) and the mean;
//! * a `DatasetDef` world (`serve_closed`'s: 64 KiB blocks, 128-byte reads,
//!   4 nodes) and both the mean and the median.  Their results must also
//!   match the generator's truth: the mean within 1e-9 relative (the
//!   benchmark's check of an exact report), the median bit for bit.
//!
//! Each report is pinned at 1, 2 and 8 worker threads, and once more under
//! `FailurePolicy::Degrade` with a node killed early in the job's map phase at
//! replication 1, so the splits whose blocks it held are lost.
//!
//! An output-preserving change leaves this file unedited and green.  When a
//! pin fails, the assertion prints the observed pin in hex, ready to paste —
//! but only a change that is meant to move outputs may re-pin.

use earl_cluster::{Cluster, FailureEvent, FailureSchedule, NodeId, SimDuration, SimInstant};
use earl_core::tasks::{MeanTask, MedianTask};
use earl_core::{EarlConfig, EarlDriver, EarlReport, EarlTask};
use earl_dfs::{Dfs, DfsConfig};
use earl_mapreduce::FailurePolicy;
use earl_serve::DatasetDef;
use earl_workload::{DatasetBuilder, DatasetSpec};

const SEED: u64 = 11;
const PATH: &str = "/bench/data";
const THREADS: [usize; 3] = [1, 2, 8];

/// The fields of an exact report that the split read decides, floats as bit
/// patterns, and the fault log's counts when a failure fired.
#[derive(Debug, PartialEq, Eq)]
struct ExactPin {
    result: u64,
    sim_micros: u64,
    bytes_read: u64,
    sample_size: u64,
    /// `(events, task_retries, splits_lost, records_salvaged, backoff_micros)`.
    faults: Option<(usize, u64, u64, u64, u64)>,
}

impl ExactPin {
    fn of(r: &EarlReport) -> Self {
        assert!(r.exact, "run_exact reports an exact answer");
        Self {
            result: r.result.to_bits(),
            sim_micros: r.sim_time.as_micros(),
            bytes_read: r.bytes_read,
            sample_size: r.sample_size,
            faults: r.fault_log.as_ref().map(|log| {
                (
                    log.events.len(),
                    log.task_retries,
                    log.splits_lost,
                    log.records_salvaged,
                    log.backoff.as_micros(),
                )
            }),
        }
    }
}

fn check(report: &EarlReport, expected: &ExactPin, what: &str) {
    let observed = ExactPin::of(report);
    assert!(
        observed == *expected,
        "{what}: exact report drifted from its pin; observed:\n{observed:#x?}"
    );
}

fn config(threads: usize, policy: FailurePolicy) -> EarlConfig {
    EarlConfig {
        seed: SEED,
        parallelism: Some(threads),
        failure_policy: policy,
        ..EarlConfig::default()
    }
}

fn run_exact<T: EarlTask>(dfs: Dfs, threads: usize, policy: FailurePolicy, task: &T) -> EarlReport {
    EarlDriver::new(dfs, config(threads, policy))
        .run_exact(PATH, task)
        .unwrap()
}

// ---------------------------------------------------------------------------
// scan_linear's world, scaled down
// ---------------------------------------------------------------------------

const SCAN_RECORDS: u64 = 200_000;

/// `benchmark/src/scalar.rs::fresh_dfs(5)` with `replication` replicas and
/// `schedule` armed, holding `scan_linear`'s dataset at `SCAN_RECORDS`.
fn scan_world(replication: u32, schedule: FailureSchedule) -> Dfs {
    let cluster = Cluster::builder()
        .nodes(5)
        .failure_schedule(schedule)
        .build()
        .unwrap();
    let dfs = Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 20,
            replication,
            io_chunk: 4096,
        },
    )
    .unwrap();
    DatasetBuilder::new(dfs.clone())
        .build(PATH, &DatasetSpec::normal(SCAN_RECORDS, 500.0, 100.0, SEED))
        .unwrap();
    dfs
}

#[test]
fn scan_linear_exact_reports_match_their_pins() {
    let expected = ExactPin {
        result: 0x407f3ea00948ca26,
        sim_micros: 4_210_703,
        bytes_read: 3_637_573,
        sample_size: SCAN_RECORDS,
        faults: None,
    };
    for threads in THREADS {
        let report = run_exact(
            scan_world(2, FailureSchedule::None),
            threads,
            FailurePolicy::Degrade,
            &MeanTask,
        );
        check(&report, &expected, &format!("threads {threads}"));
    }
}

#[test]
fn degraded_exact_report_with_a_node_lost_mid_job_matches_its_pin() {
    // The job's window on an unarmed world of the same shape; the failure
    // fires a fifth of the way through it, early in the map phase.
    let dry = scan_world(1, FailureSchedule::None);
    let start = dry.cluster().elapsed();
    run_exact(dry.clone(), 1, FailurePolicy::Degrade, &MeanTask);
    let end = dry.cluster().elapsed();
    let at = SimInstant::EPOCH
        + SimDuration::from_micros(start.as_micros() + (end.as_micros() - start.as_micros()) / 5);
    let event = FailureEvent {
        node: NodeId(0),
        at,
    };

    let expected = ExactPin {
        result: 0x407f42a7955a2942,
        sim_micros: 3_559_247,
        bytes_read: 1_532_228,
        sample_size: 84_449,
        faults: Some((1, 0, 2, 0, 0)),
    };
    for threads in THREADS {
        let dfs = scan_world(1, FailureSchedule::Deterministic(vec![event]));
        let report = run_exact(dfs, threads, FailurePolicy::Degrade, &MeanTask);
        check(&report, &expected, &format!("threads {threads}"));
        let lost = report.fault_log.as_ref().map_or(0, |log| log.splits_lost);
        assert!(
            lost > 0,
            "threads {threads}: the dead node's splits are lost"
        );
        assert!(report.sample_size < SCAN_RECORDS);
    }
}

// ---------------------------------------------------------------------------
// serve_closed's world: DatasetDef (64 KiB blocks, 128-byte reads)
// ---------------------------------------------------------------------------

const SERVE_RECORDS: u64 = 50_001;

fn serve_def() -> DatasetDef {
    DatasetDef::new(
        4,
        PATH,
        DatasetSpec::normal(SERVE_RECORDS, 500.0, 400.0, SEED),
    )
}

/// The median as the benchmark computes its truth: the middle order
/// statistic of the sorted values (the record count is odd).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

#[test]
fn dataset_def_exact_reports_match_their_pins_and_the_truth() {
    let def = serve_def();
    assert_eq!(
        def.dfs.io_chunk, 128,
        "serve_closed's world reads 128 bytes at a time"
    );
    let values = DatasetBuilder::generate_values(&def.spec);
    let mean_truth = values.iter().sum::<f64>() / values.len() as f64;
    let median_truth = median(&values);

    let expected_mean = ExactPin {
        result: 0x407f58ba608ec2d1,
        sim_micros: 7_901_369,
        bytes_read: 919_300,
        sample_size: SERVE_RECORDS,
        faults: None,
    };
    let expected_median = ExactPin {
        result: 0x407f343c82bc4dc2,
        sim_micros: 7_901_369,
        bytes_read: 919_300,
        sample_size: SERVE_RECORDS,
        faults: None,
    };
    for threads in THREADS {
        let what = format!("mean, threads {threads}");
        let mean = run_exact(
            def.build().unwrap(),
            threads,
            FailurePolicy::Degrade,
            &MeanTask,
        );
        check(&mean, &expected_mean, &what);
        let error = mean.relative_error_vs(mean_truth);
        assert!(error <= 1e-9, "{what}: relative error {error} vs the truth");

        let what = format!("median, threads {threads}");
        let median = run_exact(
            def.build().unwrap(),
            threads,
            FailurePolicy::Degrade,
            &MedianTask,
        );
        check(&median, &expected_median, &what);
        assert_eq!(
            median.result.to_bits(),
            median_truth.to_bits(),
            "{what}: {} vs the truth {median_truth}",
            median.result
        );
    }
}
