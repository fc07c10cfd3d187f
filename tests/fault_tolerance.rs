//! Chaos property suite: fault-tolerant parallel execution (PR 6).
//!
//! The engine no longer falls back to sequential execution when a failure
//! schedule is armed: failures are arbitrated at deterministic sim-instants
//! derived from the task plan, so the outcome of any `(schedule, plan)` pair
//! is a pure function independent of `EARL_THREADS`.  This suite locks that
//! contract end to end:
//!
//! * an armed schedule that never fires delivers reports **bit-identical —
//!   including `sim_time` and `bytes_read` — to an unarmed cluster**, at every
//!   thread count, while the sharded-shuffle counter proves the parallel
//!   engine (not a fallback) handled the job;
//! * a deterministic schedule that *does* fire mid-job produces the same
//!   `JobResult` (outputs, counters, stats, fault log) at every thread count,
//!   under both [`FailurePolicy::Retry`] and [`FailurePolicy::Degrade`];
//! * `Retry` with replication ≥ 2 reproduces the no-failure outputs exactly;
//!   `Degrade` at replication 1 drops the dead node's splits and logs them —
//!   including whatever a task emitted before it reached the dead block;
//! * the EARL driver under its default `Degrade` policy survives a mid-run
//!   node death at replication 1: the run returns `Ok`, the confidence
//!   interval brackets the ground truth, and the fault log records the loss;
//! * stochastic schedules draw per `(seed, node, window)` only, so they are
//!   equally thread-invariant and repeatable.
//!
//! Timing of mid-job failures is self-calibrating: a probe run on an unarmed
//! cluster measures the (deterministic) simulated instants of the same write
//! and job, and the real schedule fires inside that window — no magic
//! constants that silently drift out of the job's lifetime.
//!
//! The CI thread-matrix job runs this file with `EARL_THREADS` ∈ {1, 2, 4, 8};
//! locally the {2, 8} ladder is used.

use earl_cluster::{
    Cluster, CostModel, FailureEvent, FailureSchedule, NodeId, Phase, SimDuration, SimInstant,
};
use earl_core::tasks::MeanTask;
use earl_core::{EarlConfig, EarlDriver};
use earl_dfs::{Dfs, DfsConfig, DfsError};
use earl_mapreduce::counters::builtin;
use earl_mapreduce::{
    contrib::{MeanReducer, ValueExtractMapper},
    run_job, FailurePolicy, InputSource, JobConf, JobResult,
};
use earl_workload::{DatasetBuilder, DatasetSpec};

fn thread_counts() -> Vec<usize> {
    match std::env::var("EARL_THREADS") {
        Ok(v) => vec![v.parse().expect("EARL_THREADS must be a positive integer")],
        Err(_) => vec![2, 8],
    }
}

fn make_dfs(nodes: u32, replication: u32, schedule: FailureSchedule) -> Dfs {
    let cluster = Cluster::builder()
        .nodes(nodes)
        .cost_model(CostModel::commodity_2012())
        .failure_schedule(schedule)
        .build()
        .unwrap();
    Dfs::new(
        cluster,
        DfsConfig {
            block_size: 4096,
            replication,
            io_chunk: 256,
        },
    )
    .unwrap()
}

/// A deterministic schedule with one event so far in the future it can never
/// fire — the injector stays armed for the whole run.
fn never_firing() -> FailureSchedule {
    FailureSchedule::Deterministic(vec![FailureEvent {
        node: NodeId(0),
        at: SimInstant::EPOCH + SimDuration::from_secs(1_000_000_000),
    }])
}

fn write_mean_dataset(dfs: &Dfs, records: u64, seed: u64) -> f64 {
    DatasetBuilder::new(dfs.clone())
        .build("/data", &DatasetSpec::normal(records, 500.0, 100.0, seed))
        .unwrap()
        .true_mean
}

/// Runs `work` on an unarmed cluster and returns the simulated instants
/// `(after_write, after_work)` — because the simulation is deterministic, a
/// failure scheduled strictly inside that window is guaranteed to fire while
/// the same workload runs on an identically-configured armed cluster.
fn probe_window(
    nodes: u32,
    replication: u32,
    records: u64,
    seed: u64,
    work: impl Fn(&Dfs),
) -> (SimDuration, SimDuration) {
    let dfs = make_dfs(nodes, replication, FailureSchedule::None);
    write_mean_dataset(&dfs, records, seed);
    let after_write = dfs.cluster().elapsed();
    work(&dfs);
    let after_work = dfs.cluster().elapsed();
    assert!(
        after_work > after_write,
        "probe workload must advance the simulated clock"
    );
    (after_write, after_work)
}

/// An instant `numer/denom` of the way through the probed `(start, end)`
/// window.
fn within(start: SimDuration, end: SimDuration, numer: u64, denom: u64) -> SimInstant {
    let span = end.as_micros() - start.as_micros();
    SimInstant::EPOCH + SimDuration::from_micros(start.as_micros() + span * numer / denom)
}

fn mean_job_conf(policy: FailurePolicy, threads: usize) -> JobConf {
    JobConf::new("mean", InputSource::Path("/data".into()))
        .with_failure_policy(policy)
        .with_parallelism(Some(threads))
}

fn run_mean_job(dfs: &Dfs, policy: FailurePolicy, threads: usize) -> JobResult<f64> {
    run_job(
        dfs,
        &mean_job_conf(policy, threads),
        &ValueExtractMapper,
        &MeanReducer,
    )
    .unwrap()
}

fn assert_job_results_identical(a: &JobResult<f64>, b: &JobResult<f64>, what: &str) {
    assert_eq!(
        a.outputs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
        b.outputs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
        "outputs differ: {what}"
    );
    assert_eq!(a.counters, b.counters, "counters differ: {what}");
    assert_eq!(
        a.stats, b.stats,
        "stats (incl. sim_time, fault log) differ: {what}"
    );
}

// ---------------------------------------------------------------------------
// Armed-but-quiet ≡ unarmed, bit for bit, on the parallel engine
// ---------------------------------------------------------------------------

#[test]
fn armed_never_firing_schedule_is_bit_identical_to_the_unarmed_engine() {
    for threads in thread_counts() {
        let run_one = |schedule: FailureSchedule| {
            let dfs = make_dfs(4, 2, schedule);
            write_mean_dataset(&dfs, 30_000, 41);
            let config = EarlConfig {
                parallelism: Some(threads),
                ..EarlConfig::default()
            };
            EarlDriver::new(dfs, config)
                .run("/data", &MeanTask)
                .unwrap()
        };
        let free = run_one(FailureSchedule::None);
        let armed = run_one(never_firing());
        // Whole-report equality: result, error, CI, sample accounting, AND
        // sim_time / bytes_read — the armed engine must charge exactly what
        // the unarmed engine charges, because it IS the same engine.
        assert_eq!(free, armed, "threads {threads}");
        assert!(
            armed.fault_log.is_none(),
            "no failure fired, nothing to log"
        );
    }
}

#[test]
fn armed_schedule_jobs_go_through_the_streaming_shuffle() {
    // CI gate: an armed (never-firing) schedule must NOT push the job onto
    // any sequential path — the sharded-shuffle counter proves every
    // intermediate record travelled through the map-side streaming shuffle,
    // and the whole JobResult matches the unarmed run bit for bit.
    for threads in thread_counts() {
        let run_one = |schedule: FailureSchedule| {
            let dfs = make_dfs(4, 2, schedule);
            write_mean_dataset(&dfs, 20_000, 42);
            run_mean_job(&dfs, FailurePolicy::retry(), threads)
        };
        let free = run_one(FailureSchedule::None);
        let armed = run_one(never_firing());
        assert!(
            armed.counters.get(builtin::SHARDED_SHUFFLE_RECORDS) > 0,
            "armed-schedule job must stream its shuffle (threads {threads})"
        );
        assert_eq!(
            armed.counters.get(builtin::SHARDED_SHUFFLE_RECORDS),
            armed.stats.shuffle_records
        );
        assert_job_results_identical(
            &free,
            &armed,
            &format!("armed vs unarmed, threads {threads}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Firing deterministic schedules: thread-invariant under both policies
// ---------------------------------------------------------------------------

#[test]
fn firing_schedules_are_thread_invariant_under_every_policy() {
    let (after_write, after_job) = probe_window(4, 2, 25_000, 43, |dfs| {
        run_mean_job(dfs, FailurePolicy::retry(), 2);
    });
    // Fire one node a quarter of the way into the job — squarely inside the
    // map phase.
    let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
        node: NodeId(1),
        at: within(after_write, after_job, 1, 4),
    }]);

    for policy in [
        FailurePolicy::retry(),
        FailurePolicy::Retry {
            max_attempts: 4,
            backoff: SimDuration::from_millis(100),
        },
        FailurePolicy::Degrade,
    ] {
        let mut reference: Option<JobResult<f64>> = None;
        for threads in [1usize].into_iter().chain(thread_counts()) {
            let dfs = make_dfs(4, 2, schedule.clone());
            write_mean_dataset(&dfs, 25_000, 43);
            let result = run_mean_job(&dfs, policy, threads);
            assert!(
                !dfs.cluster().failed_nodes().is_empty(),
                "the scheduled failure must fire ({policy:?}, threads {threads})"
            );
            assert!(
                !result.stats.fault_log.events.is_empty(),
                "the fired event must be logged ({policy:?}, threads {threads})"
            );
            match &reference {
                None => reference = Some(result),
                Some(r) => assert_job_results_identical(
                    r,
                    &result,
                    &format!("{policy:?}, threads {threads} vs 1"),
                ),
            }
        }
    }
}

#[test]
fn retry_with_replication_reproduces_the_no_failure_answer_exactly() {
    let (after_write, after_job) = probe_window(4, 2, 25_000, 44, |dfs| {
        run_mean_job(dfs, FailurePolicy::retry(), 2);
    });
    let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
        node: NodeId(2),
        at: within(after_write, after_job, 1, 3),
    }]);

    for threads in thread_counts() {
        let clean_dfs = make_dfs(4, 2, FailureSchedule::None);
        write_mean_dataset(&clean_dfs, 25_000, 44);
        let clean = run_mean_job(&clean_dfs, FailurePolicy::retry(), threads);

        let lossy_dfs = make_dfs(4, 2, schedule.clone());
        write_mean_dataset(&lossy_dfs, 25_000, 44);
        let recovered = run_mean_job(&lossy_dfs, FailurePolicy::retry(), threads);

        assert!(
            !lossy_dfs.cluster().failed_nodes().is_empty(),
            "the failure must actually fire"
        );
        // Replication 2 means no input data died with the node, so retrying
        // onto survivors reproduces the answer bit for bit.
        assert_eq!(
            clean.outputs[0].to_bits(),
            recovered.outputs[0].to_bits(),
            "threads {threads}"
        );
        assert_eq!(recovered.stats.lost_map_tasks, 0);
        assert_eq!(
            recovered.counters.get(builtin::MAP_INPUT_RECORDS),
            clean.counters.get(builtin::MAP_INPUT_RECORDS),
            "every record is processed despite the failure"
        );
        if recovered.stats.restarted_tasks > 0 {
            assert_eq!(
                recovered.stats.fault_log.task_retries,
                recovered.stats.restarted_tasks
            );
        }
    }
}

#[test]
fn degrade_at_replication_one_drops_the_dead_nodes_splits() {
    let (after_write, after_job) = probe_window(3, 1, 20_000, 45, |dfs| {
        run_mean_job(dfs, FailurePolicy::Degrade, 2);
    });
    let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
        node: NodeId(1),
        at: within(after_write, after_job, 1, 5),
    }]);

    let mut reference: Option<JobResult<f64>> = None;
    for threads in [1usize].into_iter().chain(thread_counts()) {
        let dfs = make_dfs(3, 1, schedule.clone());
        write_mean_dataset(&dfs, 20_000, 45);
        let result = run_mean_job(&dfs, FailurePolicy::Degrade, threads);
        assert!(
            result.stats.lost_map_tasks > 0,
            "a node death early in the map phase must lose splits (threads {threads})"
        );
        assert!(result.stats.surviving_fraction() < 1.0);
        assert_eq!(
            result.counters.get(builtin::LOST_SPLITS),
            result.stats.lost_map_tasks
        );
        assert_eq!(
            result.stats.fault_log.splits_lost,
            result.stats.lost_map_tasks
        );
        // The surviving mean is still in the right ballpark.
        assert!((result.outputs[0] - 500.0).abs() < 50.0);
        match &reference {
            None => reference = Some(result),
            Some(r) => {
                assert_job_results_identical(r, &result, &format!("degrade, threads {threads}"))
            }
        }
    }
}

#[test]
fn degrade_drops_what_a_task_emitted_before_its_block_went_missing() {
    // Two-block splits at replication 1 with one of six nodes already dead:
    // some tasks never touch the dead node, and some read (and emit) their
    // first block, then hit `BlockUnavailable` on the second.  Those partial
    // emissions must vanish with the task.
    let world = || {
        let dfs = make_dfs(6, 1, FailureSchedule::None);
        write_mean_dataset(&dfs, 20_000, 50);
        dfs.cluster().fail_node(NodeId(1)).unwrap();
        let splits = dfs.splits("/data", 2 * 4096).unwrap();
        (dfs, splits)
    };

    // Ground truth from a probe world: read every split to its end or to its
    // first unavailable block.
    let (probe, splits) = world();
    let (mut surviving_records, mut lost, mut emitted_then_lost) = (0u64, 0u64, 0u64);
    for split in &splits {
        let mut reader = probe.open_split(split.clone(), Phase::Load);
        let mut records = 0u64;
        loop {
            match reader.next_line() {
                Ok(Some(_)) => records += 1,
                Ok(None) => break surviving_records += records,
                Err(DfsError::BlockUnavailable(_)) => {
                    lost += 1;
                    emitted_then_lost += records;
                    break;
                }
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
    }
    assert!(surviving_records > 0 && lost > 0);
    assert!(
        emitted_then_lost > 0,
        "the scenario needs a task that emits before it aborts"
    );

    let mut reference: Option<JobResult<f64>> = None;
    for threads in [1usize].into_iter().chain(thread_counts()) {
        let (dfs, splits) = world();
        let conf = JobConf::new("mean", InputSource::Splits(splits.clone()))
            .with_failure_policy(FailurePolicy::Degrade)
            .with_parallelism(Some(threads));
        let result = run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();

        // Every record is one emitted pair, so the shuffle saw exactly the
        // surviving tasks' records — on every accounting of it.
        assert_eq!(result.stats.shuffle_records, surviving_records);
        assert_eq!(
            result.counters.get(builtin::SHARDED_SHUFFLE_RECORDS),
            surviving_records
        );
        assert_eq!(
            result.counters.get(builtin::MAP_OUTPUT_RECORDS),
            surviving_records
        );
        assert_eq!(
            result.counters.get(builtin::MAP_INPUT_RECORDS),
            surviving_records
        );
        // ...and each aborted task is counted lost exactly once.
        assert_eq!(result.stats.map_tasks, splits.len() as u64);
        assert_eq!(result.stats.lost_map_tasks, lost);
        assert_eq!(result.stats.fault_log.splits_lost, lost);
        assert_eq!(result.counters.get(builtin::LOST_SPLITS), lost);
        match &reference {
            None => reference = Some(result),
            Some(r) => assert_job_results_identical(
                r,
                &result,
                &format!("partial-emit degrade, threads {threads}"),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Stochastic schedules: order-free draws, repeatable, thread-invariant
// ---------------------------------------------------------------------------

#[test]
fn stochastic_schedules_are_repeatable_and_thread_invariant() {
    // A rate high enough to matter over a multi-second job; the Degrade
    // policy below absorbs whatever data the draws happen to kill.
    let schedule = FailureSchedule::Stochastic {
        per_node_probability_per_sec: 0.005,
        seed: 0xC4A05,
    };
    let mut reference: Option<(JobResult<f64>, usize)> = None;
    for threads in [1usize].into_iter().chain(thread_counts()) {
        // Run the same stochastic world twice at this thread count: the
        // failure draws are keyed on (seed, node, window) only, so the two
        // runs — and every thread count — see identical failures.
        let mut per_run: Option<JobResult<f64>> = None;
        for run in 0..2 {
            let dfs = make_dfs(4, 2, schedule.clone());
            write_mean_dataset(&dfs, 25_000, 46);
            let result = run_mean_job(&dfs, FailurePolicy::Degrade, threads);
            let failed = dfs.cluster().failed_nodes().len();
            match &per_run {
                None => per_run = Some(result.clone()),
                Some(r) => assert_job_results_identical(
                    r,
                    &result,
                    &format!("repeat run {run}, threads {threads}"),
                ),
            }
            match &reference {
                None => reference = Some((result, failed)),
                Some((r, f)) => {
                    assert_eq!(*f, failed, "failure count differs at threads {threads}");
                    assert_job_results_identical(r, &result, &format!("threads {threads} vs 1"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The EARL driver survives mid-run node death under its default policy
// ---------------------------------------------------------------------------

#[test]
fn degrade_driver_survives_mid_run_node_death_at_replication_one() {
    // Tight bound + dispersed data force several expansion iterations, so
    // sample draws keep hitting the DFS after the failure fires.
    let config = EarlConfig {
        sigma: 0.02,
        ..EarlConfig::default()
    };
    let truth = {
        let dfs = make_dfs(4, 1, FailureSchedule::None);
        write_mean_dataset(&dfs, 40_000, 47)
    };
    let probe = {
        let dfs = make_dfs(4, 1, FailureSchedule::None);
        write_mean_dataset(&dfs, 40_000, 47);
        let after_write = dfs.cluster().elapsed();
        EarlDriver::new(dfs.clone(), config)
            .run("/data", &MeanTask)
            .unwrap();
        (after_write, dfs.cluster().elapsed())
    };

    for threads in thread_counts() {
        // Node 3 dies two thirds of the way into the run — past the pilot,
        // while sample expansion is still drawing from the DFS.
        let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
            node: NodeId(3),
            at: within(probe.0, probe.1, 2, 3),
        }]);
        let dfs = make_dfs(4, 1, schedule);
        write_mean_dataset(&dfs, 40_000, 47);
        let driver = EarlDriver::new(
            dfs.clone(),
            EarlConfig {
                parallelism: Some(threads),
                ..config
            },
        );
        let report = driver
            .run("/data", &MeanTask)
            .expect("the degrade policy must survive the node death");
        assert!(
            !dfs.cluster().failed_nodes().is_empty(),
            "the scheduled death must fire mid-run"
        );
        let log = report
            .fault_log
            .as_ref()
            .expect("a run that saw a failure must carry a fault log");
        assert!(!log.events.is_empty(), "the event itself is logged");
        assert!(
            log.splits_lost > 0,
            "at replication 1 the death must cost input splits"
        );
        assert!(
            report.ci_low <= truth && truth <= report.ci_high,
            "CI [{}, {}] must bracket the truth {} (threads {threads})",
            report.ci_low,
            report.ci_high,
            truth
        );
        assert!(
            report.relative_error_vs(truth) < 0.05,
            "estimate {} vs truth {truth}",
            report.result
        );
    }
}

#[test]
fn degrade_driver_is_thread_invariant_while_failures_fire() {
    // Replication 2: the node death fires but loses no data, so the delivered
    // numbers must match the no-failure run AND be identical at every thread
    // count.
    let probe = {
        let dfs = make_dfs(4, 2, FailureSchedule::None);
        write_mean_dataset(&dfs, 30_000, 48);
        let after_write = dfs.cluster().elapsed();
        EarlDriver::new(dfs.clone(), EarlConfig::default())
            .run("/data", &MeanTask)
            .unwrap();
        (after_write, dfs.cluster().elapsed())
    };
    let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
        node: NodeId(2),
        at: within(probe.0, probe.1, 1, 2),
    }]);

    let mut reference: Option<earl_core::EarlReport> = None;
    for threads in thread_counts() {
        let dfs = make_dfs(4, 2, schedule.clone());
        write_mean_dataset(&dfs, 30_000, 48);
        let config = EarlConfig {
            parallelism: Some(threads),
            ..EarlConfig::default()
        };
        let report = EarlDriver::new(dfs.clone(), config)
            .run("/data", &MeanTask)
            .unwrap();
        assert!(
            !dfs.cluster().failed_nodes().is_empty(),
            "the failure must fire (threads {threads})"
        );
        match &reference {
            None => reference = Some(report),
            Some(r) => {
                assert_eq!(r.result.to_bits(), report.result.to_bits());
                assert_eq!(r.error_estimate.to_bits(), report.error_estimate.to_bits());
                assert_eq!(r.ci_low.to_bits(), report.ci_low.to_bits());
                assert_eq!(r.ci_high.to_bits(), report.ci_high.to_bits());
                assert_eq!(r.sample_size, report.sample_size);
                assert_eq!(r.sample_fraction, report.sample_fraction);
                assert_eq!(r.iterations, report.iterations);
                assert_eq!(r.exact, report.exact);
                assert_eq!(r.fault_log, report.fault_log);
                assert_eq!(
                    r.sim_time, report.sim_time,
                    "sim accounting is thread-invariant (threads {threads})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A node that died before the run: the degrading driver answers from survivors
// ---------------------------------------------------------------------------

#[test]
fn degrading_driver_answers_when_a_node_died_before_the_run() {
    let truth = {
        let dfs = make_dfs(4, 1, FailureSchedule::None);
        write_mean_dataset(&dfs, 30_000, 49)
    };
    let dfs = make_dfs(4, 1, FailureSchedule::None);
    write_mean_dataset(&dfs, 30_000, 49);
    dfs.cluster().fail_node(NodeId(0)).unwrap();

    // §3.4: the dead node's data is written off up front, the pilot and every
    // expansion draw from the survivors, and the error bound prices the loss.
    let report = EarlDriver::new(dfs, EarlConfig::default())
        .run("/data", &MeanTask)
        .unwrap();
    assert!(report.sample_fraction < 1.0);
    assert!(!report.exact);
    assert!(report.error_estimate > 0.0);
    let log = report.fault_log.as_ref().expect("loss must be logged");
    assert!(log.splits_lost > 0);
    assert!(report.relative_error_vs(truth) < 0.05);
}
