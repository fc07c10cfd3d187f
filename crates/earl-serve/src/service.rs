//! The resident EARL service: admission, supervision, progressive delivery.
//!
//! Shape of the machine:
//!
//! ```text
//! admit() ──► AdmissionQueue (bounded, priority + aging) ──► supervisor loop
//!                                                                │ pop_next
//!                                                                ▼
//!                                                      shared WorkerPool
//!                                                      (max_running threads)
//!                                                                │ per job
//!                        updates channel ◄── observer ◄── EarlDriver::run_with_progress
//!                        done channel    ◄── JobOutcome { result, JobLog }
//! ```
//!
//! One supervisor thread owns scheduling; `max_running` pool threads own
//! execution.  Each job gets its **own** freshly built cluster + DFS (see
//! [`DatasetDef`](crate::DatasetDef)), which is what keeps every job's report
//! bit-identical to a solo run no matter what its neighbours do — the only
//! shared resources are OS threads, and the simulated world never observes
//! wall-clock scheduling.
//!
//! Backpressure is explicit: a full queue returns
//! [`ServeError::Rejected`](crate::ServeError::Rejected) with an advisory
//! retry delay and enqueues nothing.  Deadlines apply to *queueing* time and
//! are checked at scheduling points; an expired job is shed with
//! [`ServeError::DeadlineExpired`](crate::ServeError::DeadlineExpired) and
//! never takes a pool slot.  Cancellation is cooperative: the flag is read at
//! iteration boundaries, so a cancelled job still returns the partial report
//! for its committed work.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use earl_core::{EarlDriver, EarlReport, EarlUpdate, Progress};
use earl_net::TcpTransport;
use earl_parallel::WorkerPool;

use crate::dataset::DatasetRegistry;
use crate::log::{JobEvent, JobLog};
use crate::request::{JobId, JobRequest, ServeError};

/// How often the supervisor re-checks deadlines while idle.
const SCHEDULE_TICK: Duration = Duration::from_millis(5);

/// Remote execution backend: when set, each job connects the shared TCP
/// worker fleet and ships its map/reduce tasks over the wire instead of
/// running them on in-process threads.  Reports stay bit-identical either
/// way — that is the transport contract the `earl-net` suites pin.
#[derive(Debug, Clone, PartialEq)]
pub struct RemotePoolConfig {
    /// Addresses of already-listening `earl-worker` processes.
    pub addrs: Vec<SocketAddr>,
    /// Heartbeat interval for liveness tracking.
    pub heartbeat: Duration,
}

/// Service tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Jobs executing concurrently (pool threads).  Default 2.
    pub max_running: usize,
    /// Bounded admission-queue capacity; a push beyond it is rejected.
    /// Default 64.
    pub queue_capacity: usize,
    /// Selections a queued job may be passed over before aging forces it to
    /// the front regardless of priority.  Default 4.
    pub starvation_limit: u32,
    /// Start with dispatch paused (jobs queue but none run) until
    /// [`EarlService::resume`] — lets tests stage a backlog deterministically.
    /// Default `false`.
    pub start_paused: bool,
    /// Optional remote worker fleet; `None` runs in-process.
    pub remote: Option<RemotePoolConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_running: 2,
            queue_capacity: 64,
            starvation_limit: 4,
            start_paused: false,
            remote: None,
        }
    }
}

/// A queued job: the request plus the channels and cancel flag its
/// [`JobHandle`] holds the other ends of.
struct JobEntry {
    id: JobId,
    request: JobRequest,
    updates: Sender<EarlUpdate>,
    done: Sender<JobOutcome>,
    cancel: Arc<AtomicBool>,
}

struct State {
    queue: crate::scheduler::AdmissionQueue<JobEntry>,
    running: usize,
    paused: bool,
    shutdown: bool,
    next_id: u64,
    start_seq: u64,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    registry: DatasetRegistry,
    config: ServiceConfig,
}

/// Terminal result of one job: the engine's verdict plus the deterministic
/// message log that [`replay`](crate::replay) re-drives.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// `Ok(report)` when the bound was met (or exact fallback ran);
    /// `Err(Cancelled(report))` carries the partial report; other errors as
    /// documented on [`ServeError`].
    pub result: Result<EarlReport, ServeError>,
    /// The job's recorded message stream.
    pub log: JobLog,
}

/// Caller's handle to an admitted job: progressive updates, cooperative
/// cancellation, and the final outcome.
pub struct JobHandle {
    id: JobId,
    cancel: Arc<AtomicBool>,
    updates: Receiver<EarlUpdate>,
    done: Receiver<JobOutcome>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("cancel_requested", &self.cancel.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The job's service-assigned identity.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Requests cooperative cancellation.  The running job observes the flag
    /// at its next iteration boundary and returns its partial report via
    /// [`ServeError::Cancelled`]; a job whose current iteration already met
    /// the accuracy bound completes normally instead — cancellation never
    /// discards a final result.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Blocks for the next progressive [`EarlUpdate`]; `None` once the job
    /// has finished and all updates were drained.
    pub fn next_update(&self) -> Option<EarlUpdate> {
        self.updates.recv().ok()
    }

    /// Blocks until the job's terminal [`JobOutcome`].  Progressive updates
    /// not yet drained remain readable-never: prefer draining
    /// [`next_update`](Self::next_update) first if you want them.
    /// [`ServeError::ServiceStopped`] if the service shut down first.
    pub fn wait(self) -> Result<JobOutcome, ServeError> {
        self.done.recv().map_err(|_| ServeError::ServiceStopped)
    }
}

/// The resident service.  Dropping it shuts the supervisor down, drops all
/// still-queued jobs (their handles see [`ServeError::ServiceStopped`]), and
/// joins the pool — running jobs finish their current ladder first, since
/// cancellation is cooperative.
pub struct EarlService {
    inner: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl EarlService {
    /// Starts the supervisor over `registry` with the given knobs.
    pub fn new(registry: DatasetRegistry, config: ServiceConfig) -> Self {
        let inner = Arc::new(Shared {
            state: Mutex::new(State {
                queue: crate::scheduler::AdmissionQueue::new(
                    config.queue_capacity,
                    config.starvation_limit,
                ),
                running: 0,
                paused: config.start_paused,
                shutdown: false,
                next_id: 0,
                start_seq: 0,
            }),
            wake: Condvar::new(),
            registry,
            config,
        });
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("earl-supervisor".into())
                .spawn(move || supervisor_loop(&inner))
                .expect("spawn supervisor thread")
        };
        Self {
            inner,
            supervisor: Some(supervisor),
        }
    }

    /// Submits a job.  Success returns a [`JobHandle`] — the job is queued
    /// (or already dispatching).  A full queue returns
    /// [`ServeError::Rejected`] with an advisory `retry_after` scaled to the
    /// backlog, and enqueues nothing.
    pub fn admit(&self, request: JobRequest) -> Result<JobHandle, ServeError> {
        let mut state = self.lock();
        if state.shutdown {
            return Err(ServeError::ServiceStopped);
        }
        state.next_id += 1;
        let id = JobId(state.next_id);
        let (update_tx, update_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let entry = JobEntry {
            id,
            request: request.clone(),
            updates: update_tx,
            done: done_tx,
            cancel: Arc::clone(&cancel),
        };
        match state
            .queue
            .try_push(request.priority, request.deadline, Instant::now(), entry)
        {
            Ok(()) => {
                drop(state);
                self.inner.wake.notify_all();
                Ok(JobHandle {
                    id,
                    cancel,
                    updates: update_rx,
                    done: done_rx,
                })
            }
            Err(_rejected) => {
                let queue_depth = state.queue.len();
                Err(ServeError::Rejected {
                    queue_depth,
                    retry_after: Duration::from_millis(25 * (queue_depth as u64 + 1)),
                })
            }
        }
    }

    /// Pauses dispatch: queued jobs stay queued (deadlines still apply),
    /// running jobs keep running.
    pub fn pause(&self) {
        self.lock().paused = true;
        self.inner.wake.notify_all();
    }

    /// Resumes dispatch after [`pause`](Self::pause) or
    /// [`ServiceConfig::start_paused`].
    pub fn resume(&self) {
        self.lock().paused = false;
        self.inner.wake.notify_all();
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Jobs currently executing on the pool.
    pub fn running(&self) -> usize {
        self.lock().running
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .expect("service state mutex poisoned")
    }
}

impl Drop for EarlService {
    fn drop(&mut self) {
        if let Ok(mut state) = self.inner.state.lock() {
            state.shutdown = true;
        }
        self.inner.wake.notify_all();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

fn supervisor_loop(shared: &Arc<Shared>) {
    let pool = WorkerPool::new(shared.config.max_running.max(1));
    let mut state = shared.state.lock().expect("service state mutex poisoned");
    loop {
        if state.shutdown {
            // Dropping queued entries drops their `done` senders, so pending
            // handles observe ServiceStopped.  Running jobs finish when the
            // pool joins below.
            while state.queue.pop_next().is_some() {}
            drop(state);
            break;
        }
        for (entry, waited) in state.queue.shed_expired(Instant::now()) {
            deliver_shed(entry, waited);
        }
        if !state.paused && state.running < shared.config.max_running.max(1) {
            if let Some(entry) = state.queue.pop_next() {
                state.running += 1;
                state.start_seq += 1;
                let started_seq = state.start_seq;
                drop(state);
                let shared_job = Arc::clone(shared);
                pool.execute(move || {
                    execute_job(&shared_job, entry, started_seq);
                    let mut s = shared_job
                        .state
                        .lock()
                        .expect("service state mutex poisoned");
                    s.running = s.running.saturating_sub(1);
                    drop(s);
                    shared_job.wake.notify_all();
                });
                state = shared.state.lock().expect("service state mutex poisoned");
                continue;
            }
        }
        // Bounded wait so queued deadlines are re-checked even when no
        // admission/completion wakes us.
        let (guard, _timeout) = shared
            .wake
            .wait_timeout(state, SCHEDULE_TICK)
            .expect("service state mutex poisoned");
        state = guard;
    }
    drop(pool);
}

fn deliver_shed(entry: JobEntry, waited: Duration) {
    let log = JobLog {
        job_id: entry.id,
        seed: entry.request.config.seed,
        request: entry.request.clone(),
        started_seq: 0,
        events: vec![JobEvent::Admitted, JobEvent::Shed],
    };
    let _ = entry.done.send(JobOutcome {
        result: Err(ServeError::DeadlineExpired { waited }),
        log,
    });
}

/// Runs one job on a pool thread: resolve, build a private simulated world,
/// run with progressive delivery, record the message stream, deliver the
/// outcome.
fn execute_job(shared: &Shared, entry: JobEntry, started_seq: u64) {
    let mut log = JobLog {
        job_id: entry.id,
        seed: entry.request.config.seed,
        request: entry.request.clone(),
        started_seq,
        events: vec![JobEvent::Admitted, JobEvent::Started],
    };
    let result = run_job(shared, &entry, &mut log);
    log.events.push(JobEvent::Finished);
    let _ = entry.done.send(JobOutcome { result, log });
}

fn run_job(shared: &Shared, entry: &JobEntry, log: &mut JobLog) -> Result<EarlReport, ServeError> {
    let (task, def, dfs) = entry.request.open(&shared.registry)?;
    let mut driver = EarlDriver::new(dfs.clone(), entry.request.config);
    if let Some(remote) = &shared.config.remote {
        let transport =
            TcpTransport::connect(dfs.cluster().clone(), &remote.addrs, remote.heartbeat)
                .map_err(|e| ServeError::Provision(format!("remote pool connect: {e}")))?;
        transport
            .provision(&dfs, def.path.as_str())
            .map_err(|e| ServeError::Provision(format!("remote provision: {e}")))?;
        driver = driver.with_transport(Arc::new(transport));
    }
    let updates = entry.updates.clone();
    let cancel = Arc::clone(&entry.cancel);
    let mut observer = |update: EarlUpdate| {
        let iteration = update.iteration;
        // Send-before-decide: the subscriber sees the snapshot for the
        // boundary the verdict applies to.  A dropped receiver is not a
        // cancel — delivery is best-effort, the run's own contract decides.
        let _ = updates.send(update);
        if cancel.load(Ordering::Relaxed) {
            log.events.push(JobEvent::Cancelled { iteration });
            Progress::Cancel
        } else {
            log.events.push(JobEvent::Granted { iteration });
            Progress::Continue
        }
    };
    let report = task.run_with_progress(&driver, def.path.as_str(), &mut observer)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetDef;
    use earl_core::EarlConfig;
    use earl_mapreduce::TaskSpec;
    use earl_workload::DatasetSpec;

    fn registry() -> DatasetRegistry {
        let mut registry = DatasetRegistry::new();
        registry.register(
            "small",
            DatasetDef::new(3, "/data", DatasetSpec::normal(2_000, 500.0, 100.0, 7)),
        );
        registry
    }

    #[test]
    fn a_job_runs_to_completion_and_matches_the_solo_driver() {
        let service = EarlService::new(registry(), ServiceConfig::default());
        let request = JobRequest::new(TaskSpec::named("mean"), "small", EarlConfig::default());
        let handle = service.admit(request).unwrap();
        let outcome = handle.wait().unwrap();
        let report = outcome.result.expect("job should converge");

        let def = DatasetDef::new(3, "/data", DatasetSpec::normal(2_000, 500.0, 100.0, 7));
        let dfs = def.build().unwrap();
        let driver = EarlDriver::new(dfs, EarlConfig::default());
        let solo = driver.run("/data", &earl_core::tasks::MeanTask).unwrap();
        assert_eq!(report, solo, "service run must be bit-identical to solo");
        assert_eq!(outcome.log.started_seq, 1);
        assert_eq!(outcome.log.events.first(), Some(&JobEvent::Admitted));
        assert_eq!(outcome.log.events.last(), Some(&JobEvent::Finished));
    }

    #[test]
    fn re_registering_a_name_serves_the_new_definition() {
        let mut registry = registry();
        // Fill the old entry's encoding, then replace the definition.
        registry.build("small").unwrap();
        let def = DatasetDef::new(3, "/data", DatasetSpec::normal(2_000, 500.0, 100.0, 8));
        registry.register("small", def.clone());
        let service = EarlService::new(registry, ServiceConfig::default());
        let request = JobRequest::new(TaskSpec::named("mean"), "small", EarlConfig::default());
        let report = service
            .admit(request)
            .unwrap()
            .wait()
            .unwrap()
            .result
            .unwrap();

        let driver = EarlDriver::new(def.build().unwrap(), EarlConfig::default());
        let solo = driver.run("/data", &earl_core::tasks::MeanTask).unwrap();
        assert_eq!(report, solo, "a stale encoding would serve the old records");
    }

    #[test]
    fn an_unbounded_thread_request_is_refused_before_any_work() {
        // B·n < N would admit this job; the thread count must not.  The
        // engine validates before it samples, so no worker thread starts.
        let config = EarlConfig {
            bootstraps: Some(900_000),
            sample_size: Some(1),
            parallelism: Some(usize::MAX),
            ..EarlConfig::default()
        };
        let service = EarlService::new(registry(), ServiceConfig::default());
        let handle = service
            .admit(JobRequest::new(TaskSpec::named("mean"), "small", config))
            .unwrap();
        assert!(matches!(
            handle.wait().unwrap().result,
            Err(ServeError::Engine(earl_core::EarlError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn unknown_dataset_and_task_fail_cleanly() {
        let service = EarlService::new(registry(), ServiceConfig::default());
        let missing = service
            .admit(JobRequest::new(
                TaskSpec::named("mean"),
                "nope",
                EarlConfig::default(),
            ))
            .unwrap();
        assert_eq!(
            missing.wait().unwrap().result,
            Err(ServeError::UnknownDataset("nope".into()))
        );
        let bogus = service
            .admit(JobRequest::new(
                TaskSpec::named("mode"),
                "small",
                EarlConfig::default(),
            ))
            .unwrap();
        assert!(matches!(
            bogus.wait().unwrap().result,
            Err(ServeError::UnknownTask(_))
        ));
        // A quantile level outside 0 ≤ q ≤ 1 is refused, not clamped into an
        // answer for a different question.
        for level in [f64::NAN, 7.0] {
            let spec = TaskSpec {
                name: "quantile".into(),
                params: vec![level],
            };
            let out_of_range = service
                .admit(JobRequest::new(spec, "small", EarlConfig::default()))
                .unwrap();
            assert!(
                matches!(
                    out_of_range.wait().unwrap().result,
                    Err(ServeError::UnknownTask(_))
                ),
                "level {level}"
            );
        }
    }

    #[test]
    fn dropping_the_service_stops_queued_jobs() {
        let config = ServiceConfig {
            start_paused: true,
            ..ServiceConfig::default()
        };
        let service = EarlService::new(registry(), config);
        let handle = service
            .admit(JobRequest::new(
                TaskSpec::named("mean"),
                "small",
                EarlConfig::default(),
            ))
            .unwrap();
        drop(service);
        assert_eq!(handle.wait(), Err(ServeError::ServiceStopped));
    }
}
