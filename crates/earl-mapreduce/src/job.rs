//! Job configuration and results.

use std::sync::Arc;

use earl_cluster::{FaultLog, SimDuration};
use earl_dfs::{DfsPath, InputSplit};
use serde::{Deserialize, Serialize};

use crate::counters::Counters;
use crate::transport::{default_transport, TaskTransport};

/// Where a job's input records come from.
#[derive(Debug, Clone)]
pub enum InputSource {
    /// All splits of a DFS file, using the DFS default split size.
    Path(DfsPath),
    /// An explicit list of splits (used by pre-map sampling, which assigns a
    /// sampled subset of splits / lines to the job).
    Splits(Vec<InputSplit>),
    /// In-memory records `(offset, line)` — used for local mode and for
    /// running the user job over resamples held in memory.
    Memory(Vec<(u64, String)>),
}

/// What to do when a node fails while running one of the job's tasks.
///
/// Failures are arbitrated at deterministic sim-instants derived from the
/// task plan, so either policy yields the same outcome at every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// Stock Hadoop behaviour: re-plan the dead node's tasks onto survivors
    /// (re-syncing DFS metadata first), keeping — *salvaging* — the output of
    /// tasks that had already completed.  Each retry round charges `backoff`
    /// of simulated wall-clock before re-running; a task that fails
    /// `max_attempts` times aborts the job.
    Retry {
        /// Maximum executions of any one task before the job gives up.
        max_attempts: u32,
        /// Simulated delay charged before each retry round.
        backoff: SimDuration,
    },
    /// EARL's fault-tolerant approximation mode (§3.4): drop the lost splits
    /// and keep going; the accuracy-estimation stage accounts for the smaller
    /// effective sample.  Only map-side *input* data is ever abandoned —
    /// driver-held (in-memory) map tasks and reduce partitions are always
    /// re-run, since their data still exists.
    Degrade,
}

impl FailurePolicy {
    /// The default retry policy: up to 4 attempts per task with no back-off,
    /// matching the engine's historical restart behaviour.
    pub const fn retry() -> Self {
        FailurePolicy::Retry {
            max_attempts: 4,
            backoff: SimDuration::ZERO,
        }
    }

    /// Whether this is the degrade (§3.4) policy.
    pub const fn is_degrade(&self) -> bool {
        matches!(self, FailurePolicy::Degrade)
    }

    /// Attempt cap for tasks that must be re-run regardless of policy
    /// (in-memory map tasks, reduce partitions).
    pub const fn max_attempts(&self) -> u32 {
        match self {
            FailurePolicy::Retry { max_attempts, .. } => *max_attempts,
            FailurePolicy::Degrade => 4,
        }
    }

    /// Simulated back-off charged before each retry round.
    pub const fn backoff(&self) -> SimDuration {
        match self {
            FailurePolicy::Retry { backoff, .. } => *backoff,
            FailurePolicy::Degrade => SimDuration::ZERO,
        }
    }
}

impl Default for FailurePolicy {
    fn default() -> Self {
        Self::retry()
    }
}

/// Configuration of one MapReduce job.
#[derive(Debug, Clone)]
pub struct JobConf {
    /// Human-readable job name (appears in reports).
    pub name: String,
    /// Input records.
    pub input: InputSource,
    /// Number of reduce tasks.
    pub num_reducers: usize,
    /// Failure handling policy.
    pub failure_policy: FailurePolicy,
    /// Local mode: every task runs in the driver process, as every EARL
    /// ladder step after the first does.  A local job charges no job or
    /// task start-up, places no task on a node, and no node failure can lose
    /// its tasks; its shuffle charges neither the sort nor the network; and
    /// its map and reduce compute never go to a remote transport.  DFS reads
    /// and map and reduce CPU are charged as in cluster mode.
    pub local_mode: bool,
    /// Worker threads used to execute map tasks and reduce partitions
    /// concurrently (`None` = one per available core).  Results are identical
    /// for every value; only wall-clock time changes.  An active failure
    /// schedule does not force sequential execution: failures are arbitrated
    /// at plan-derived sim-instants, so the parallel engine keeps the
    /// sequential schedule's deterministic failure semantics.
    pub parallelism: Option<usize>,
    /// Where user compute executes (in-process by default).  A remote
    /// transport is consulted only for tasks whose mapper *and* reducer
    /// declare a wire-portable [`TaskSpec`](crate::TaskSpec); everything else
    /// keeps running in-process.
    pub transport: Arc<dyn TaskTransport>,
    /// The DFS path remote workers were provisioned with for this job's
    /// in-memory input (the driver holds resamples of this dataset in memory;
    /// remote map tasks address it by record offsets).  `None` disables
    /// remote map execution for [`InputSource::Memory`] jobs.
    pub source_path: Option<DfsPath>,
}

impl JobConf {
    /// A job reading a whole DFS file with `num_reducers` reducers.
    pub fn new(name: impl Into<String>, input: InputSource) -> Self {
        Self {
            name: name.into(),
            input,
            num_reducers: 1,
            failure_policy: FailurePolicy::default(),
            local_mode: false,
            parallelism: None,
            transport: default_transport(),
            source_path: None,
        }
    }

    /// Sets the number of reducers.
    pub fn with_reducers(mut self, n: usize) -> Self {
        self.num_reducers = n.max(1);
        self
    }

    /// Sets the failure policy.
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Sets the worker-thread count for map/reduce execution (`None` = all
    /// cores, `Some(1)` = sequential).
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the task transport (where user compute executes).
    pub fn with_transport(mut self, transport: Arc<dyn TaskTransport>) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the DFS path remote workers were provisioned with for this job's
    /// in-memory input.
    pub fn with_source_path(mut self, path: impl Into<DfsPath>) -> Self {
        self.source_path = Some(path.into());
        self
    }
}

/// Statistics of one job execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    /// Input records consumed by mappers.
    pub map_input_records: u64,
    /// Intermediate records emitted by mappers.
    pub shuffle_records: u64,
    /// Distinct keys seen by reducers.
    pub reduce_groups: u64,
    /// Map tasks executed (including restarts).
    pub map_tasks: u64,
    /// Reduce tasks executed.
    pub reduce_tasks: u64,
    /// Map tasks whose output was dropped because their node failed under the
    /// [`FailurePolicy::Degrade`] policy.
    pub lost_map_tasks: u64,
    /// Tasks restarted after node failures.
    pub restarted_tasks: u64,
    /// Simulated time elapsed on the cluster during this job.
    pub sim_time: SimDuration,
    /// Failure events observed and recovery work performed during this job.
    pub fault_log: FaultLog,
}

impl JobStats {
    /// Fraction of map tasks whose output survived (1.0 when nothing was lost).
    pub fn surviving_fraction(&self) -> f64 {
        if self.map_tasks == 0 {
            return 1.0;
        }
        1.0 - self.lost_map_tasks as f64 / self.map_tasks as f64
    }
}

/// The result of running a job.
#[derive(Debug, Clone)]
pub struct JobResult<O> {
    /// All reducer output records (concatenated across reduce partitions, in
    /// deterministic key order within each partition).
    pub outputs: Vec<O>,
    /// Job counters (built-in + user).
    pub counters: Counters,
    /// Execution statistics.
    pub stats: JobStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let conf = JobConf::new("test", InputSource::Memory(Vec::new()))
            .with_reducers(0)
            .with_failure_policy(FailurePolicy::Degrade)
            .with_parallelism(Some(4));
        assert_eq!(conf.num_reducers, 1, "reducer count is clamped to ≥1");
        assert_eq!(conf.failure_policy, FailurePolicy::Degrade);
        assert!(conf.failure_policy.is_degrade());
        assert!(!conf.local_mode, "cluster mode by default");
        assert_eq!(conf.parallelism, Some(4));
    }

    #[test]
    fn surviving_fraction() {
        let mut stats = JobStats::default();
        assert_eq!(stats.surviving_fraction(), 1.0);
        stats.map_tasks = 10;
        stats.lost_map_tasks = 3;
        assert!((stats.surviving_fraction() - 0.7).abs() < 1e-12);
    }
}
