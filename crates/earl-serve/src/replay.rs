//! Standalone deterministic replay of a recorded job.
//!
//! The harness that locks the service down: given a [`JobLog`] and the same
//! [`DatasetRegistry`] the service ran against, [`replay`] re-drives the job
//! with **no service at all** — no queue, no supervisor, no pool, no
//! neighbours — and must produce a bit-identical result.  The log's recorded
//! verdicts script the observer: whatever boundary a cancel actually landed
//! on under wall-clock concurrency, replay cancels at exactly that boundary.
//!
//! Replay always executes in-process, even for jobs that originally ran on a
//! remote TCP pool: the transport contract (pinned by the `earl-net` suites)
//! is that reports are bit-identical either way, so the in-process run is the
//! canonical referee for both backends.

use earl_core::EarlReport;

use crate::dataset::DatasetRegistry;
use crate::log::JobLog;
use crate::request::ServeError;

/// Re-runs the job described by `log` standalone and returns its report.
///
/// A log whose recorded stream cancelled mid-ladder replays to
/// [`ServeError::Cancelled`] carrying the partial report — compare that
/// report against the service's.  A log for a job that was shed without
/// running cannot be replayed and returns
/// [`ServeError::DeadlineExpired`](crate::ServeError::DeadlineExpired) with a
/// zero wait.
///
/// Determinism contract: the report (including `sim_time`, byte counters and
/// fault counters) is a pure function of `(dataset def, task, config, recorded
/// verdicts)` — so replay output is `assert_eq!`-comparable, field for field,
/// with both the original service run and a solo [`EarlDriver::run`]
/// (`EarlDriver::run` is the no-cancel special case).
///
/// [`EarlDriver::run`]: earl_core::EarlDriver::run
pub fn replay(log: &JobLog, registry: &DatasetRegistry) -> Result<EarlReport, ServeError> {
    if log.was_shed() {
        return Err(ServeError::DeadlineExpired {
            waited: std::time::Duration::ZERO,
        });
    }
    let (task, def, dfs) = log.request.open(registry)?;
    let driver = earl_core::EarlDriver::new(dfs, log.request.config);
    let mut observer = |update: earl_core::EarlUpdate| {
        if log.verdict_at(update.iteration) == Some(true) {
            earl_core::Progress::Cancel
        } else {
            earl_core::Progress::Continue
        }
    };
    let report = task.run_with_progress(&driver, def.path.as_str(), &mut observer)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetDef;
    use crate::log::JobEvent;
    use crate::request::{JobId, JobRequest};
    use earl_core::EarlConfig;
    use earl_mapreduce::TaskSpec;
    use earl_workload::DatasetSpec;

    #[test]
    fn a_shed_log_cannot_be_replayed() {
        let log = JobLog {
            job_id: JobId(1),
            seed: 0xEA21,
            request: JobRequest::new(TaskSpec::named("mean"), "d", EarlConfig::default()),
            started_seq: 0,
            events: vec![JobEvent::Admitted, JobEvent::Shed],
        };
        assert!(matches!(
            replay(&log, &DatasetRegistry::new()),
            Err(ServeError::DeadlineExpired { .. })
        ));
    }

    #[test]
    fn replaying_an_all_granted_log_matches_the_solo_run() {
        let def = DatasetDef::new(3, "/d", DatasetSpec::normal(2_000, 500.0, 100.0, 7));
        let mut registry = DatasetRegistry::new();
        registry.register("d", def.clone());

        let solo = {
            let dfs = def.build().unwrap();
            let driver = earl_core::EarlDriver::new(dfs, EarlConfig::default());
            driver.run("/d", &earl_core::tasks::MeanTask).unwrap()
        };
        let mut events = vec![JobEvent::Admitted, JobEvent::Started];
        events.extend((1..=solo.iterations).map(|i| JobEvent::Granted { iteration: i }));
        events.push(JobEvent::Finished);
        let log = JobLog {
            job_id: JobId(1),
            seed: EarlConfig::default().seed,
            request: JobRequest::new(TaskSpec::named("mean"), "d", EarlConfig::default()),
            started_seq: 1,
            events,
        };
        let replayed = replay(&log, &registry).unwrap();
        assert_eq!(replayed, solo);
    }

    /// A request the engine refuses (σ = 0, or more worker threads than it
    /// allows) is refused with `InvalidConfig` before its dataset is
    /// encoded or any world is built — on the service's path (`open`) and on
    /// replay.  No job runs, so no worker thread starts.
    #[test]
    fn an_invalid_config_is_refused_before_the_world_is_built() {
        let mut registry = DatasetRegistry::new();
        registry.register(
            "d",
            DatasetDef::new(3, "/d", DatasetSpec::normal(2_000, 500.0, 100.0, 7)),
        );
        let invalid = [
            EarlConfig {
                sigma: 0.0,
                ..EarlConfig::default()
            },
            EarlConfig {
                parallelism: Some(usize::MAX),
                ..EarlConfig::default()
            },
        ];
        for config in invalid {
            let request = JobRequest::new(TaskSpec::named("mean"), "d", config);
            let refused = |result: Result<(), ServeError>| {
                matches!(
                    result,
                    Err(ServeError::Engine(earl_core::EarlError::InvalidConfig(_)))
                )
            };
            assert!(refused(request.open(&registry).map(|_| ())), "{config:?}");
            let log = JobLog {
                job_id: JobId(1),
                seed: config.seed,
                request,
                started_seq: 1,
                events: vec![JobEvent::Admitted, JobEvent::Started],
            };
            assert!(refused(replay(&log, &registry).map(|_| ())), "{config:?}");
            assert!(!registry.is_encoded("d"), "{config:?} encoded the dataset");
        }
        // A valid request does fill the slot.
        let request = JobRequest::new(TaskSpec::named("mean"), "d", EarlConfig::default());
        request.open(&registry).unwrap();
        assert!(registry.is_encoded("d"));
    }
}
