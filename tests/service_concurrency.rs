//! Concurrency properties of the resident service, pinned at the facade
//! level: per-job reports stay bit-identical to solo runs under concurrent
//! load at every `EARL_THREADS` level, progressive updates are monotone,
//! cancellation releases capacity without corrupting neighbours, and the
//! 8-job smoke the CI `service-smoke` job runs.

use earl::core::tasks::{MeanTask, MedianTask};
use earl::core::{EarlConfig, EarlDriver, EarlReport, EarlUpdate};
use earl::mapreduce::TaskSpec;
use earl::serve::{
    replay, DatasetDef, DatasetRegistry, EarlService, JobRequest, ServeError, ServiceConfig,
};
use earl::workload::DatasetSpec;

/// Parallelism levels under test; `EARL_THREADS=n` pins one (CI matrix).
fn thread_counts() -> Vec<usize> {
    match std::env::var("EARL_THREADS") {
        Ok(v) => vec![v.parse().expect("EARL_THREADS must be a thread count")],
        Err(_) => vec![2, 8],
    }
}

/// Multi-iteration ladder: 60k records at cv ≈ 0.8, first sample just above
/// the pilot, so the run expands 700 → 1400 → 2800 before σ = 2% is met.
fn ladder_config(threads: usize, seed: u64) -> EarlConfig {
    EarlConfig {
        parallelism: Some(threads),
        sigma: 0.02,
        bootstraps: Some(60),
        sample_size: Some(700),
        seed,
        ..EarlConfig::default()
    }
}

fn spread_def() -> DatasetDef {
    DatasetDef::new(4, "/spread", DatasetSpec::normal(60_000, 500.0, 400.0, 21))
}

fn registry() -> DatasetRegistry {
    let mut registry = DatasetRegistry::new();
    registry.register("spread", spread_def());
    registry
}

fn solo_run(config: EarlConfig) -> EarlReport {
    let dfs = spread_def().build().unwrap();
    EarlDriver::new(dfs, config)
        .run("/spread", &MeanTask)
        .unwrap()
}

/// N jobs with distinct seeds admitted back-to-back: every report is
/// bit-identical to its solo baseline, no matter how the pool interleaves
/// them, at every thread count.
#[test]
fn concurrent_jobs_are_bit_identical_to_solo_runs() {
    for threads in thread_counts() {
        let service = EarlService::new(registry(), ServiceConfig::default());
        let seeds = [0xEA21u64, 7, 1234, 0xDEAD];
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                service
                    .admit(JobRequest::new(
                        TaskSpec::named("mean"),
                        "spread",
                        ladder_config(threads, seed),
                    ))
                    .unwrap()
            })
            .collect();
        for (handle, &seed) in handles.into_iter().zip(&seeds) {
            let report = handle
                .wait()
                .unwrap()
                .result
                .expect("concurrent job converges");
            let solo = solo_run(ladder_config(threads, seed));
            assert_eq!(
                report, solo,
                "seed {seed:#x} at {threads} threads must match its solo run"
            );
        }
    }
}

/// Two jobs start together on a dataset no job has built yet, so both reach
/// its registry entry while the records are still unencoded: each report
/// equals its solo run, and each log replays to its live report.
#[test]
fn jobs_racing_to_a_cold_dataset_match_their_solo_runs() {
    for threads in thread_counts() {
        let registry = registry();
        let service = EarlService::new(
            registry.clone(),
            ServiceConfig {
                max_running: 2,
                start_paused: true,
                ..ServiceConfig::default()
            },
        );
        let config = ladder_config(threads, 0xC01D);
        let admit = |task: &str| {
            service
                .admit(JobRequest::new(TaskSpec::named(task), "spread", config))
                .unwrap()
        };
        let (mean, median) = (admit("mean"), admit("median"));
        service.resume();
        let solo = |dfs| EarlDriver::new(dfs, config);
        let solos = [
            solo(spread_def().build().unwrap()).run("/spread", &MeanTask),
            solo(spread_def().build().unwrap()).run("/spread", &MedianTask),
        ];
        for (handle, solo) in [mean, median].into_iter().zip(solos) {
            let outcome = handle.wait().unwrap();
            let report = outcome.result.expect("cold-start job converges");
            assert_eq!(report, solo.unwrap(), "at {threads} threads");
            assert_eq!(replay(&outcome.log, &registry).unwrap(), report);
        }
    }
}

/// The progressive stream: at least two updates before the final report on a
/// multi-iteration workload, iteration numbers strictly increasing from 1,
/// sample fraction non-decreasing, cv non-increasing (the ladder only ever
/// tightens on this deterministic workload), and the last update agrees with
/// the final report.
#[test]
fn updates_are_monotone_and_cv_non_increasing() {
    for threads in thread_counts() {
        let service = EarlService::new(registry(), ServiceConfig::default());
        let handle = service
            .admit(JobRequest::new(
                TaskSpec::named("mean"),
                "spread",
                ladder_config(threads, 0xEA21),
            ))
            .unwrap();
        let mut updates: Vec<EarlUpdate> = Vec::new();
        while let Some(update) = handle.next_update() {
            updates.push(update);
        }
        let report = handle.wait().unwrap().result.expect("job converges");

        assert!(
            updates.len() >= 2,
            "multi-iteration workload must deliver progressive updates, got {}",
            updates.len()
        );
        assert_eq!(updates.len(), report.iterations);
        for (i, update) in updates.iter().enumerate() {
            assert_eq!(update.iteration, i + 1, "iterations are 1-based and dense");
        }
        for pair in updates.windows(2) {
            assert!(
                pair[1].sample_fraction >= pair[0].sample_fraction,
                "the ladder never shrinks the sample"
            );
            assert!(
                pair[1].cv <= pair[0].cv,
                "cv must tighten on this workload: {} -> {}",
                pair[0].cv,
                pair[1].cv
            );
        }
        let last = updates.last().unwrap();
        assert_eq!(last.estimate, report.result);
        assert_eq!(last.cv, report.error_estimate);
        assert_eq!(last.sample_fraction, report.sample_fraction);
    }
}

/// Cancel one job mid-ladder while a neighbour runs: the neighbour's report
/// is untouched (bit-identical to solo), the cancelled job's partial report
/// replays bit-identically from its log, and the freed slot runs a follow-up
/// job to completion.
#[test]
fn cancellation_releases_capacity_and_never_corrupts_neighbours() {
    for threads in thread_counts() {
        let registry = registry();
        let service = EarlService::new(registry.clone(), ServiceConfig::default());
        let victim = service
            .admit(JobRequest::new(
                TaskSpec::named("mean"),
                "spread",
                ladder_config(threads, 0xEA21),
            ))
            .unwrap();
        let neighbour = service
            .admit(JobRequest::new(
                TaskSpec::named("mean"),
                "spread",
                ladder_config(threads, 7),
            ))
            .unwrap();

        let first = victim.next_update().expect("at least one update");
        assert_eq!(first.iteration, 1);
        victim.cancel();
        let victim_outcome = victim.wait().unwrap();
        match &victim_outcome.result {
            Err(ServeError::Cancelled(partial)) => {
                assert!(partial.iterations >= 1);
                match replay(&victim_outcome.log, &registry) {
                    Err(ServeError::Cancelled(replayed)) => {
                        assert_eq!(replayed, *partial, "cancelled log replays bit-identically")
                    }
                    other => panic!("replay must cancel too, got {other:?}"),
                }
            }
            // The cancel can land after the bound was already met.
            Ok(report) => assert_eq!(replay(&victim_outcome.log, &registry).unwrap(), *report),
            other => panic!("unexpected victim outcome {other:?}"),
        }

        let neighbour_report = neighbour
            .wait()
            .unwrap()
            .result
            .expect("neighbour converges");
        assert_eq!(
            neighbour_report,
            solo_run(ladder_config(threads, 7)),
            "a neighbour's cancellation must not perturb the report"
        );

        // The cancelled job's slot is free again: a follow-up job runs.
        let follow_up = service
            .admit(JobRequest::new(
                TaskSpec::named("mean"),
                "spread",
                ladder_config(threads, 99),
            ))
            .unwrap();
        follow_up
            .wait()
            .unwrap()
            .result
            .expect("capacity released after cancellation");
    }
}

/// CI `service-smoke`: eight jobs admitted concurrently from client threads
/// all converge, and each matches its solo baseline.
#[test]
fn eight_concurrent_jobs_all_converge() {
    let service = std::sync::Arc::new(EarlService::new(
        registry(),
        ServiceConfig {
            max_running: 4,
            ..ServiceConfig::default()
        },
    ));
    let clients: Vec<_> = (0..8u64)
        .map(|i| {
            let service = std::sync::Arc::clone(&service);
            std::thread::spawn(move || {
                let config = ladder_config(2, 1000 + i);
                let handle = service
                    .admit(JobRequest::new(TaskSpec::named("mean"), "spread", config))
                    .unwrap();
                let report = handle.wait().unwrap().result.expect("job converges");
                (i, report)
            })
        })
        .collect();
    for client in clients {
        let (i, report) = client.join().unwrap();
        assert_eq!(
            report,
            solo_run(ladder_config(2, 1000 + i)),
            "job {i} must match its solo baseline"
        );
        assert!(report.error_estimate <= report.target_sigma);
    }
}
