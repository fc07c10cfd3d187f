//! Job requests and the service's error vocabulary.

use std::fmt;
use std::time::Duration;

use earl_core::{EarlConfig, EarlError, EarlReport};
use earl_dfs::Dfs;
use earl_mapreduce::TaskSpec;
use earl_net::WireTask;

use crate::dataset::{DatasetDef, DatasetRegistry};

/// Identity of an admitted job, unique within one service instance and
/// assigned in admission order.  Together with the request's seed it keys the
/// job's deterministic [`JobLog`](crate::JobLog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling priority of a job.  Higher priorities are drained first; aging
/// (see [`AdmissionQueue`](crate::AdmissionQueue)) guarantees lower priorities
/// still run under sustained high-priority load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work: runs when nothing more urgent is queued.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive work: drained before everything else.
    High,
}

/// Everything the service needs to run one approximate query: *what* to
/// compute ([`TaskSpec`]), *over which* registered dataset, *how accurately*
/// (the [`EarlConfig`]'s σ and seed), and *how urgently* (priority +
/// optional queueing deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The statistic to compute, by registry name (e.g. `"mean"`,
    /// `"quantile"` with one parameter).
    pub task: TaskSpec,
    /// Name of a dataset registered in the service's
    /// [`DatasetRegistry`](crate::DatasetRegistry).
    pub dataset: String,
    /// Engine configuration: accuracy budget σ, seed, kernel, parallelism,
    /// …  The seed keys the job's deterministic replay log.
    pub config: EarlConfig,
    /// Scheduling priority.
    pub priority: Priority,
    /// How long the job may wait *in the queue* before it is shed with
    /// [`ServeError::DeadlineExpired`].  `None` waits indefinitely.
    pub deadline: Option<Duration>,
}

impl JobRequest {
    /// A normal-priority, deadline-free request.
    pub fn new(task: TaskSpec, dataset: impl Into<String>, config: EarlConfig) -> Self {
        Self {
            task,
            dataset: dataset.into(),
            config,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the queueing deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Everything a run of this request needs, checked cheapest first: the
    /// task, then the engine config, then the dataset's world (the first
    /// build of a dataset encodes its records).  A request the engine would
    /// refuse is refused before any world is built.
    pub(crate) fn open<'r>(
        &self,
        registry: &'r DatasetRegistry,
    ) -> Result<(WireTask, &'r DatasetDef, Dfs), ServeError> {
        let task = WireTask::from_spec(&self.task)
            .ok_or_else(|| ServeError::UnknownTask(self.task.clone()))?;
        self.config.validate().map_err(ServeError::Engine)?;
        let (def, dfs) = registry.build(&self.dataset)?;
        Ok((task, def, dfs))
    }
}

/// Errors raised by the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue is full — backpressure, not failure.  Retry after
    /// the advisory delay; nothing was enqueued.
    Rejected {
        /// Jobs waiting when admission was refused (the queue's capacity).
        queue_depth: usize,
        /// Advisory retry delay, scaled to the current backlog.
        retry_after: Duration,
    },
    /// The job's deadline expired while it was still queued; it was shed
    /// without running.
    DeadlineExpired {
        /// How long the job had waited when it was shed.
        waited: Duration,
    },
    /// The job was cancelled at an iteration boundary; the partial report for
    /// the committed work is attached (every progressive update delivered
    /// before the cancellation remains valid).
    Cancelled(Box<EarlReport>),
    /// The request named a dataset the service's registry does not know.
    UnknownDataset(String),
    /// The request's task spec matches no registered task.
    UnknownTask(TaskSpec),
    /// Building the job's cluster/dataset or connecting its remote pool
    /// failed.
    Provision(String),
    /// The engine failed (or could not meet the bound) for reasons unrelated
    /// to the service layer.
    Engine(EarlError),
    /// The service shut down before the job produced an outcome.
    ServiceStopped,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected {
                queue_depth,
                retry_after,
            } => write!(
                f,
                "admission queue full ({queue_depth} jobs waiting); retry after {retry_after:?}"
            ),
            ServeError::DeadlineExpired { waited } => {
                write!(f, "deadline expired after queueing for {waited:?}")
            }
            ServeError::Cancelled(report) => write!(
                f,
                "job cancelled after iteration {} (cv {:.4} with a {:.1}% sample)",
                report.iterations,
                report.error_estimate,
                report.sample_fraction * 100.0
            ),
            ServeError::UnknownDataset(name) => write!(f, "unknown dataset {name:?}"),
            ServeError::UnknownTask(spec) => {
                write!(
                    f,
                    "unknown task {:?} with {} params",
                    spec.name,
                    spec.params.len()
                )
            }
            ServeError::Provision(msg) => write!(f, "provisioning failed: {msg}"),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::ServiceStopped => write!(f, "service stopped before the job completed"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EarlError> for ServeError {
    /// Engine errors pass through, except cancellation, which surfaces as the
    /// service-level [`ServeError::Cancelled`] so callers need not unwrap two
    /// layers.
    fn from(e: EarlError) -> Self {
        match e {
            EarlError::Cancelled(report) => ServeError::Cancelled(report),
            other => ServeError::Engine(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn request_builder_sets_knobs() {
        let req = JobRequest::new(TaskSpec::named("mean"), "/data", EarlConfig::default())
            .with_priority(Priority::High)
            .with_deadline(Duration::from_secs(3));
        assert_eq!(req.priority, Priority::High);
        assert_eq!(req.deadline, Some(Duration::from_secs(3)));
        assert_eq!(req.dataset, "/data");
    }

    #[test]
    fn cancellation_unwraps_through_the_error_conversion() {
        let err = EarlError::NoUsableRecords;
        assert_eq!(
            ServeError::from(err),
            ServeError::Engine(EarlError::NoUsableRecords)
        );
        assert!(ServeError::Rejected {
            queue_depth: 4,
            retry_after: Duration::from_millis(50)
        }
        .to_string()
        .contains("retry"));
    }
}
