//! Pipelined (Hadoop-Online-style) execution sessions.
//!
//! EARL modifies Hadoop so that (1) reducers process input before mappers
//! finish, (2) mappers stay alive until explicitly terminated, and (3) mappers
//! and reducers communicate to check the termination condition (§2.1).  The
//! practical consequence for performance is that the per-iteration job and
//! task start-up overhead of a naive "one MR job per sample expansion" design
//! disappears: tasks are reused as the sample grows.
//!
//! A [`PipelinedSession`] models exactly that: the first iteration is a
//! cluster-mode job that pays the full job/task start-up cost; subsequent
//! iterations run in local mode (see [`JobConf::local_mode`] for everything
//! that changes), and the [`ErrorFeedback`] channel carries error estimates
//! from the reduce side back to the (conceptual) mappers.

use std::sync::Arc;

use earl_dfs::Dfs;

use crate::feedback::ErrorFeedback;
use crate::job::{JobConf, JobResult, JobStats};
use crate::runner::{finish_job, run_map_phase, MapPhase};
use crate::types::{Mapper, Reducer};
use crate::Result;

/// A long-lived session that runs the same logical job repeatedly (with a
/// growing sample) while amortising start-up costs, as EARL's pipelining does.
#[derive(Debug)]
pub struct PipelinedSession {
    dfs: Dfs,
    feedback: Arc<ErrorFeedback>,
    iterations: u64,
}

impl PipelinedSession {
    /// Creates a session on the given DFS.
    pub fn new(dfs: Dfs) -> Self {
        Self {
            dfs,
            feedback: Arc::new(ErrorFeedback::new()),
            iterations: 0,
        }
    }

    /// The feedback channel shared between the reduce side (posting error
    /// estimates) and the map side (deciding whether to expand the sample).
    pub fn feedback(&self) -> Arc<ErrorFeedback> {
        Arc::clone(&self.feedback)
    }

    /// The DFS this session runs against.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Number of iterations run so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The config of one iteration: the first runs as given; later ones
    /// reuse the live tasks and run in local mode.  Local mode does more than
    /// drop the job and task start-up charges: a warm iteration also skips
    /// the shuffle's sort and network charges, places no task on a node,
    /// cannot lose a task to a node failure, and never sends its map or
    /// reduce compute to a remote transport — on a remote deployment only the
    /// first iteration's job reaches the wire.  DFS reads and map and reduce
    /// CPU are still charged, because the data genuinely has to be read and
    /// processed.
    fn iteration_conf(&self, conf: &JobConf) -> JobConf {
        let mut conf = conf.clone();
        if self.iterations > 0 {
            conf.local_mode = true;
        }
        conf
    }

    /// Runs one iteration of the job to completion (map + shuffle + reduce).
    pub fn run_iteration<M, R>(
        &mut self,
        conf: &JobConf,
        mapper: &M,
        reducer: &R,
    ) -> Result<JobResult<R::Output>>
    where
        M: Mapper,
        R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
    {
        let pending = self.begin_iteration(conf, mapper)?;
        self.complete_iteration(pending, reducer)
    }

    /// Runs only the **map half** of an iteration, returning the staged
    /// intermediate state.  This is the speculative half of the pipelined
    /// schedule: while the accuracy-estimation stage of iteration *i* runs,
    /// the map phase of iteration *i+1* proceeds concurrently; the reducer→
    /// mapper feedback channel then decides whether the staged iteration is
    /// [completed](Self::complete_iteration) or
    /// [cancelled](Self::cancel_iteration) before its reduce phase starts.
    pub fn begin_iteration<M>(
        &mut self,
        conf: &JobConf,
        mapper: &M,
    ) -> Result<PendingIteration<M::OutKey, M::OutValue>>
    where
        M: Mapper,
    {
        let conf = self.iteration_conf(conf);
        self.iterations += 1;
        let phase = run_map_phase(&self.dfs, &conf, mapper)?;
        Ok(PendingIteration { phase, conf })
    }

    /// Completes a staged iteration: shuffle + reduce over its map output.
    pub fn complete_iteration<R>(
        &self,
        pending: PendingIteration<R::InKey, R::InValue>,
        reducer: &R,
    ) -> Result<JobResult<R::Output>>
    where
        R: Reducer,
    {
        finish_job(&self.dfs, &pending.conf, pending.phase, reducer)
    }

    /// Cancels a staged iteration before its reduce phase: the map output is
    /// dropped and the iteration is not counted.  Returns the map-phase stats
    /// (the work that was speculatively performed and discarded).
    pub fn cancel_iteration<K, V>(&mut self, pending: PendingIteration<K, V>) -> JobStats {
        self.iterations = self.iterations.saturating_sub(1);
        pending.phase.stats().clone()
    }

    /// The newest error estimate on the feedback channel — the reducer→mapper
    /// termination signal (§3.3).  The driver compares it against its accuracy
    /// bound (one predicate, owned by the accuracy-estimation stage) to decide
    /// whether a speculative iteration is cancelled.  `None` while no estimate
    /// has been posted.
    pub fn latest_error(&self) -> Option<f64> {
        self.feedback.latest().map(|report| report.error)
    }
}

/// The staged map half of one pipelined iteration: created by
/// [`PipelinedSession::begin_iteration`], then either completed (shuffle +
/// reduce) or cancelled by the feedback channel.
#[derive(Debug)]
pub struct PendingIteration<K, V> {
    phase: MapPhase<K, V>,
    conf: JobConf,
}

impl<K, V> PendingIteration<K, V> {
    /// Stats of the completed map phase (reduce fields still zero).
    pub fn map_stats(&self) -> &JobStats {
        self.phase.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contrib::{MeanReducer, ValueExtractMapper};
    use crate::error::MrError;
    use crate::job::InputSource;
    use crate::transport::{
        RemoteMapOutcome, RemoteMapRequest, RemoteReduceOutcome, RemoteReduceRequest, TaskSpec,
        TaskTransport,
    };
    use crate::types::{MapContext, ReduceContext};
    use earl_cluster::{Cluster, Phase, SimInstant};
    use earl_dfs::DfsConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn session() -> PipelinedSession {
        let cluster = Cluster::with_nodes(3);
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 1024,
                replication: 2,
                io_chunk: 256,
            },
        )
        .unwrap();
        dfs.write_lines("/pipe", (1..=500).map(|i| i.to_string()))
            .unwrap();
        PipelinedSession::new(dfs)
    }

    #[test]
    fn second_iteration_is_cheaper_due_to_task_reuse() {
        let mut session = session();
        let conf = JobConf::new("mean", InputSource::Path("/pipe".into()));

        let t0 = session.dfs().cluster().elapsed();
        session
            .run_iteration(&conf, &ValueExtractMapper, &MeanReducer)
            .unwrap();
        let first = session.dfs().cluster().elapsed() - t0;

        let t1 = session.dfs().cluster().elapsed();
        session
            .run_iteration(&conf, &ValueExtractMapper, &MeanReducer)
            .unwrap();
        let second = session.dfs().cluster().elapsed() - t1;

        assert_eq!(session.iterations(), 2);
        assert!(
            second < first,
            "pipelined iterations must avoid start-up overhead: first={first} second={second}"
        );
    }

    #[test]
    fn results_are_identical_across_iterations() {
        let mut session = session();
        let conf = JobConf::new("mean", InputSource::Path("/pipe".into()));
        let a = session
            .run_iteration(&conf, &ValueExtractMapper, &MeanReducer)
            .unwrap();
        let b = session
            .run_iteration(&conf, &ValueExtractMapper, &MeanReducer)
            .unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert!((a.outputs[0] - 250.5).abs() < 1e-9);
    }

    #[test]
    fn staged_iteration_completes_like_a_plain_iteration() {
        let mut plain = session();
        let conf = JobConf::new("mean", InputSource::Path("/pipe".into()));
        let reference = plain
            .run_iteration(&conf, &ValueExtractMapper, &MeanReducer)
            .unwrap();

        let mut staged = session();
        let pending = staged.begin_iteration(&conf, &ValueExtractMapper).unwrap();
        assert!(pending.map_stats().map_tasks >= 1);
        assert_eq!(pending.map_stats().reduce_tasks, 0);
        let result = staged.complete_iteration(pending, &MeanReducer).unwrap();
        assert_eq!(result.outputs, reference.outputs);
        assert_eq!(result.counters, reference.counters);
        assert_eq!(staged.iterations(), 1);
    }

    #[test]
    fn cancelled_iteration_is_not_counted_and_restores_startup_charging() {
        let mut session = session();
        let conf = JobConf::new("mean", InputSource::Path("/pipe".into()));
        session
            .run_iteration(&conf, &ValueExtractMapper, &MeanReducer)
            .unwrap();

        // Speculative iteration 2: map phase runs, then the feedback channel
        // reports the bound is met and the iteration is cancelled.
        let pending = session.begin_iteration(&conf, &ValueExtractMapper).unwrap();
        assert_eq!(session.iterations(), 2);
        session.feedback().post(crate::feedback::ErrorReport {
            reducer: 0,
            error: 0.01,
            timestamp: SimInstant::EPOCH,
        });
        assert_eq!(session.latest_error(), Some(0.01));
        let wasted = session.cancel_iteration(pending);
        assert!(wasted.map_tasks >= 1);
        assert_eq!(session.iterations(), 1, "cancelled iterations do not count");

        // The next real iteration still gets start-up suppression (it is not
        // the first).
        let before = session.dfs().cluster().elapsed();
        session
            .run_iteration(&conf, &ValueExtractMapper, &MeanReducer)
            .unwrap();
        let cost = session.dfs().cluster().elapsed() - before;
        let mut fresh = super::tests::session();
        let t0 = fresh.dfs().cluster().elapsed();
        fresh
            .run_iteration(&conf, &ValueExtractMapper, &MeanReducer)
            .unwrap();
        let first_cost = fresh.dfs().cluster().elapsed() - t0;
        assert!(cost < first_cost, "reused tasks stay cheap after a cancel");
    }

    #[test]
    fn feedback_channel_is_shared() {
        let session = session();
        let fb = session.feedback();
        fb.post(crate::feedback::ErrorReport {
            reducer: 0,
            error: 0.04,
            timestamp: SimInstant::EPOCH,
        });
        assert_eq!(session.feedback().len(), 1);
    }

    /// [`ValueExtractMapper`] with a wire form, so a remote transport is asked.
    struct SpecMapper;
    impl Mapper for SpecMapper {
        type OutKey = u32;
        type OutValue = f64;
        fn map(&self, offset: u64, line: &str, ctx: &mut MapContext<u32, f64>) {
            ValueExtractMapper.map(offset, line, ctx);
        }
        fn remote_spec(&self) -> Option<TaskSpec> {
            Some(TaskSpec::named("mean"))
        }
    }

    /// [`MeanReducer`] with a wire form.
    struct SpecReducer;
    impl Reducer for SpecReducer {
        type InKey = u32;
        type InValue = f64;
        type Output = f64;
        fn reduce(&self, key: &u32, values: &[f64], ctx: &mut ReduceContext<f64>) {
            MeanReducer.reduce(key, values, ctx);
        }
        fn remote_spec(&self) -> Option<TaskSpec> {
            Some(TaskSpec::named("mean"))
        }
    }

    /// A non-local transport that counts the calls it gets and refuses each
    /// one, so the runner computes in-process.
    #[derive(Debug, Default)]
    struct CountingTransport {
        calls: AtomicUsize,
    }

    impl TaskTransport for CountingTransport {
        fn is_local(&self) -> bool {
            false
        }

        fn remote_map(&self, _request: &RemoteMapRequest<'_>) -> Result<RemoteMapOutcome> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Err(MrError::Transport("refused".into()))
        }

        fn remote_reduce(&self, _request: &RemoteReduceRequest<'_>) -> Result<RemoteReduceOutcome> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Err(MrError::Transport("refused".into()))
        }
    }

    #[test]
    fn only_the_first_iteration_pays_startup_and_shuffle_and_reaches_the_transport() {
        let mut session = session();
        let transport = Arc::new(CountingTransport::default());
        let records = (1..=500u64).map(|i| (i, i.to_string())).collect();
        let conf = JobConf::new("mean", InputSource::Memory(records))
            .with_source_path("/pipe")
            .with_transport(transport.clone());
        let cluster = session.dfs().cluster().clone();

        // (jobs started, tasks started, start-up time, shuffle time, wire calls)
        let mut step = || {
            let before = cluster.metrics().snapshot();
            let calls = transport.calls.load(Ordering::Relaxed);
            let result = session
                .run_iteration(&conf, &SpecMapper, &SpecReducer)
                .unwrap();
            assert_eq!(result.outputs, vec![250.5]);
            let after = cluster.metrics().snapshot();
            (
                after.jobs_run - before.jobs_run,
                after.tasks_started - before.tasks_started,
                after.phase(Phase::Other).sim_time_micros
                    - before.phase(Phase::Other).sim_time_micros,
                after.phase(Phase::Shuffle).sim_time_micros
                    - before.phase(Phase::Shuffle).sim_time_micros,
                transport.calls.load(Ordering::Relaxed) - calls,
            )
        };

        let (jobs, tasks, startup, shuffle, calls) = step();
        assert_eq!(jobs, 1, "the first iteration starts the job");
        assert_eq!(tasks, 2, "one map task and one reduce task");
        assert!(startup > 0, "job and task start-up are charged");
        assert!(shuffle > 0, "the shuffle's sort and network are charged");
        assert_eq!(calls, 2, "one map and one reduce call on the wire");

        assert_eq!(
            step(),
            (0, 0, 0, 0, 0),
            "a warm iteration charges no start-up or shuffle and stays in-process"
        );
    }
}
