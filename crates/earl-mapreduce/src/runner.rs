//! The job runner: executes a MapReduce job over the simulated cluster.
//!
//! User code (mappers and reducers) runs for real, so results are
//! exact; all I/O, CPU and start-up work is charged to the cluster cost model
//! so that the simulated elapsed time reflects the work actually performed.
//! This is the property the EARL reproduction needs: processing time is a
//! deterministic function of bytes scanned and records processed, which is
//! precisely what early approximation reduces.
//!
//! ## Execution model
//!
//! There is one task loop (`run_rounds`), and the map phase and the reduce
//! phase both run through it.  A phase hands the loop a task list — per task
//! its preferred nodes, its estimated work and whether it may be dropped when
//! lost — and a task body.  Every round plans the pending tasks onto nodes,
//! runs them concurrently across a scoped thread pool (start-up charge → node
//! placement → body), then arbitrates which of them were lost; lost tasks are
//! re-queued (or dropped, per policy) and the loop ends when nothing is
//! pending.  On a cluster with no failure schedule armed arbitration is a
//! no-op, so the loop runs exactly once:
//!
//! * task → node assignment is planned deterministically up front (locality
//!   first, then round-robin over available nodes), never through the cluster
//!   RNG, so the plan is independent of execution interleaving;
//! * each task accumulates its own [`Counters`], stats and [`ShardBuffers`],
//!   merged after the barrier in task-index order — `JobResult` is
//!   bit-identical for every `parallelism` value;
//! * cost-model charges are pure additions to the simulated clock and the
//!   per-phase metrics, so the merged totals (and therefore `sim_time`) do
//!   not depend on thread interleaving either.
//!
//! ## Compute source
//!
//! A task body is *compute → CPU charge → counters*, and only the compute has
//! a source: the mapper or reducer run in-process, or the outcome a remote
//! [`TaskTransport`](crate::TaskTransport) already produced.  A phase that
//! qualifies for remote execution (cluster mode, stable cluster, wire-portable
//! spec and pair types) makes **all** of its wire calls before the loop, hence
//! before its first cluster charge, and all-or-nothing: a failed call or a
//! malformed outcome discards every outcome and the tasks compute in-process,
//! the simulation untouched.  Outcomes that pass are handed to the same task
//! bodies, so placement, charges and counters come from the same lines on
//! both paths and a remote `JobResult` is bit-identical to an in-process one,
//! `sim_time` included.
//!
//! ## Deterministic failure arbitration
//!
//! Implicit failure polling is suppressed for the duration of each parallel
//! round ([`Cluster::suppress_failure_polling`]); while a schedule is armed,
//! the injector is polled after the barrier at **plan-derived task-boundary
//! instants** — the completion times the tasks would have under a serial
//! replay of the plan through the cost model — via
//! [`Cluster::arbitrate_failures_at`].  A task is lost iff its planned node
//! is dead at its estimated boundary.  The outcome is therefore a pure
//! function of `(schedule, plan, cost model)`: identical at every
//! `EARL_THREADS`, and — because arbitration itself charges nothing — an
//! armed schedule that never fires produces reports bit-identical (including
//! `sim_time`) to an unarmed cluster.
//!
//! Lost tasks are handled per [`FailurePolicy`]: `Retry` re-plans them onto
//! survivors (re-syncing DFS metadata, charging per-round back-off, keeping —
//! *salvaging* — the shard buffers of tasks that completed); `Degrade` (§3.4)
//! abandons lost input splits and lets the accuracy-estimation stage account
//! for the smaller sample.  In-memory map tasks and reduce partitions are
//! always re-run under either policy: their data still exists, so dropping
//! them would discard computation, not lost data.
//!
//! ## Streaming shuffle (M3R-style)
//!
//! The shuffle is **map-side**: every map task routes its output pairs
//! straight into its own per-shard buffers ([`ShardBuffers`]) as it
//! emits them, so no job-wide all-pairs vector ever exists between map and
//! shuffle, and a task that aborts or is lost simply has its buffers dropped.
//! At the reducer-ready barrier the surviving tasks' buffers are assembled in
//! task order ([`ShardedBuffers::from_workers`]); each reduce shard then holds
//! exactly its pairs in emission order and
//! [`ShuffleOutput::shuffle_streaming`] only concatenates and groups per
//! shard.
//!
//! [`Cluster::suppress_failure_polling`]: earl_cluster::Cluster::suppress_failure_polling
//! [`Cluster::arbitrate_failures_at`]: earl_cluster::Cluster::arbitrate_failures_at

use std::any::{Any, TypeId};
use std::collections::BTreeMap;

use earl_cluster::{ClusterError, NodeId, Phase, SimDuration, SimInstant};
use earl_dfs::{Dfs, DfsError, InputSplit};
use earl_parallel::{indexed_map, resolve_parallelism, workers_for, ShardBuffers, ShardedBuffers};
use parking_lot::Mutex;

use crate::counters::{builtin, Counters};
use crate::error::MrError;
#[cfg(any(doc, test))]
use crate::job::FailurePolicy;
use crate::job::{InputSource, JobConf, JobResult, JobStats};
use crate::shuffle::ShuffleOutput;
use crate::transport::{RemoteMapRequest, RemoteReduceRequest};
use crate::types::{map_output_counters, MapContext, Mapper, ReduceContext, Reducer};
use crate::Result;

/// Estimated serialized size of one intermediate record, used to charge the
/// shuffle's network traffic.
const AVG_RECORD_BYTES: u64 = 16;

/// What the compute step of one map task yields: input records consumed, the
/// task's own shard buffers (several when its compute was split, in input
/// order), and the counters its emits produced.
type MapCompute<M> = (
    u64,
    Vec<ShardBuffers<(<M as Mapper>::OutKey, <M as Mapper>::OutValue)>>,
    Counters,
);

/// What the compute step of one reduce task yields: the partition's outputs
/// and the counters its emits produced.
type ReduceCompute<R> = (Vec<<R as Reducer>::Output>, Counters);

/// Per-task compute results a remote transport produced before the loop ran
/// (empty when it produced none).  A task body takes its entry; an attempt
/// that finds none, or finds it taken (a re-run), computes in-process.
type RemoteComputes<T> = Vec<Mutex<Option<T>>>;

/// Runs a job: the map phase, then shuffle and reduce.
pub fn run_job<M, R>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    reducer: &R,
) -> Result<JobResult<R::Output>>
where
    M: Mapper,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
{
    finish_job(dfs, conf, run_map_phase(dfs, conf, mapper)?, reducer)
}

/// The completed map half of a job: all intermediate pairs already sharded
/// map-side, plus the counters and stats accumulated so far.  Produced by
/// [`run_map_phase`], consumed by [`finish_job`] (shuffle + reduce) — or
/// dropped outright when the caller cancels a staged job before its reduce
/// phase.
#[derive(Debug)]
pub struct MapPhase<K, V> {
    output: ShardedBuffers<(K, V)>,
    counters: Counters,
    stats: JobStats,
    start: SimDuration,
    /// How many injector events had fired before this job started — the tail
    /// of `cluster.failure_events()` beyond this index is what fired *during*
    /// the job and belongs in its fault log.
    events_seen: usize,
}

impl<K, V> MapPhase<K, V> {
    /// Stats accumulated by the map phase (map tasks, input records, shuffle
    /// records; reduce fields still zero).
    pub fn stats(&self) -> &JobStats {
        &self.stats
    }
}

/// The input of one map task.  In-memory records are borrowed from the
/// [`JobConf`] — the mapper reads them where they are.
enum MapInput<'a> {
    Split(InputSplit),
    Memory(&'a [(u64, String)]),
}

/// Runs only the map half of a job, leaving shuffle and reduce to
/// [`finish_job`]; [`run_job`] runs the two back to back.  Split, the halves
/// can be timed apart, or the map phase dropped before its reduce.
///
/// One task per input split (or one over the in-memory records), each
/// streaming into its own [`ShardBuffers`].  The in-memory task is placed,
/// charged and counted as one task, but its compute runs on all workers:
/// above [`MIN_PARALLEL_WORK`](earl_parallel::MIN_PARALLEL_WORK) records it
/// is cut into contiguous chunks, one per worker, whose buffers join the
/// task's output in input order.  Buffers and counters of
/// surviving tasks are merged in task order, so the reassembled
/// [`ShardedBuffers`] holds the same bits however many rounds it took.  Lost
/// DFS splits may be abandoned under `Degrade` (§3.4); in-memory inputs are
/// driver-held (nothing was lost but work) and are always re-run.
pub fn run_map_phase<M: Mapper>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
) -> Result<MapPhase<M::OutKey, M::OutValue>> {
    let cluster = dfs.cluster();
    let start = cluster.elapsed();
    let events_seen = cluster.failure_events().len();
    let mut counters = Counters::new();
    let mut stats = JobStats::default();

    if !conf.local_mode {
        cluster.charge_job_startup();
    }

    let inputs: Vec<MapInput<'_>> = match &conf.input {
        InputSource::Path(path) => dfs
            .default_splits(path.clone())?
            .into_iter()
            .map(MapInput::Split)
            .collect(),
        InputSource::Splits(splits) => splits.iter().cloned().map(MapInput::Split).collect(),
        InputSource::Memory(records) if records.is_empty() => Vec::new(),
        InputSource::Memory(records) => vec![MapInput::Memory(records)],
    };
    let num_shards = conf.num_reducers.max(1);

    let armed = cluster.failure_injection_pending();
    let remote = remote_map(dfs, conf, mapper, &inputs, num_shards, &mut stats).unwrap_or_default();
    // Apply any failure already due (e.g. fired during job start-up charges)
    // before planning, so the plan sees the true live set.
    if armed && !inputs.is_empty() && !cluster.arbitrate_failures_at(cluster.now()).is_empty() {
        dfs.reconcile_failures();
    }

    let heavy = mapper.is_heavy();
    let cost = cluster.cost_model();
    let tasks: Vec<Task<'_>> = inputs
        .iter()
        .map(|input| match input {
            MapInput::Split(split) => Task {
                preferred: &split.locations,
                work: cost.disk_read(split.length),
                droppable: true,
            },
            MapInput::Memory(records) => Task {
                preferred: &[],
                work: cost.map_cpu(records.len() as u64, heavy),
                droppable: false,
            },
        })
        .collect();
    let slots = run_rounds(
        dfs,
        conf,
        &tasks,
        &mut stats,
        |(_, parts): &(Counters, Vec<ShardBuffers<_>>)| {
            parts.iter().map(ShardBuffers::emitted).sum()
        },
        |i| {
            let remote = remote.get(i).and_then(|compute| compute.lock().take());
            let (records, buffers, mut task_counters) = match remote {
                Some(compute) => compute,
                None => match run_mapper(dfs, conf, mapper, &inputs[i], num_shards)? {
                    Some(compute) => compute,
                    None => return Ok(None),
                },
            };
            cluster.charge_map_cpu(records, heavy);
            task_counters.add(builtin::MAP_INPUT_RECORDS, records);
            Ok(Some((task_counters, buffers)))
        },
    )?;

    let mut workers = Vec::with_capacity(slots.len());
    for slot in slots {
        stats.map_tasks += 1;
        match slot {
            Some((task_counters, parts)) => {
                counters.merge(&task_counters);
                workers.extend(parts);
            }
            None => {
                stats.lost_map_tasks += 1;
                counters.increment(builtin::LOST_SPLITS);
                stats.fault_log.splits_lost += 1;
            }
        }
    }
    let output = ShardedBuffers::from_workers(num_shards, workers);
    stats.map_input_records = counters.get(builtin::MAP_INPUT_RECORDS);
    stats.shuffle_records = output.total_items();
    record_new_failure_events(dfs, events_seen, &mut stats);

    Ok(MapPhase {
        output,
        counters,
        stats,
        start,
        events_seen,
    })
}

/// Completes a job from its finished map phase: shuffle (sharded across the
/// worker pool), reduce, final stats.
pub fn finish_job<R>(
    dfs: &Dfs,
    conf: &JobConf,
    phase: MapPhase<R::InKey, R::InValue>,
    reducer: &R,
) -> Result<JobResult<R::Output>>
where
    R: Reducer,
{
    let cluster = dfs.cluster();
    let MapPhase {
        output,
        mut counters,
        mut stats,
        start,
        events_seen,
    } = phase;

    // ---- shuffle -------------------------------------------------------------
    // Cost charges are driven by the record count, so sim_time cannot depend
    // on the shuffle worker count.
    let shuffle_records = output.total_items();
    if !conf.local_mode && shuffle_records > 0 {
        cluster.charge_sort(shuffle_records);
        let nodes = cluster.available_nodes();
        if nodes.len() >= 2 {
            // On average (n-1)/n of intermediate data crosses the network.
            let crossing =
                shuffle_records * AVG_RECORD_BYTES * (nodes.len() as u64 - 1) / nodes.len() as u64;
            cluster.charge_net_transfer(Phase::Shuffle, nodes[0], nodes[1], crossing);
        }
    }
    let shuffle_workers = workers_for(shuffle_records as usize, conf.parallelism)
        .min(resolve_parallelism(conf.parallelism));
    // Streaming shuffle always: the pairs are already in their shards; only
    // the per-shard concatenate + group remains.
    let shuffled = ShuffleOutput::shuffle_streaming(output, shuffle_workers);
    stats.reduce_groups = shuffled.total_groups();

    // ---- reduce phase --------------------------------------------------------
    let outputs = reduce_phase(
        dfs,
        conf,
        reducer,
        shuffled.into_partitions(),
        &mut counters,
        &mut stats,
    )?;

    record_new_failure_events(dfs, events_seen, &mut stats);
    // Shuffle and fault counters are derived from the stats, and added only
    // when non-zero: a zero-valued entry would make an armed-but-quiet run's
    // counters differ from an unarmed run's.
    for (name, value) in [
        (builtin::SHARDED_SHUFFLE_RECORDS, shuffle_records),
        (builtin::RESTARTED_TASKS, stats.restarted_tasks),
        (builtin::FAILURE_EVENTS, stats.fault_log.events.len() as u64),
        (builtin::SALVAGED_RECORDS, stats.fault_log.records_salvaged),
        (builtin::BACKOFF_MICROS, stats.fault_log.backoff.as_micros()),
    ] {
        if value > 0 {
            counters.add(name, value);
        }
    }

    stats.sim_time = cluster.elapsed() - start;
    Ok(JobResult {
        outputs,
        counters,
        stats,
    })
}

/// Folds the injector events that fired since `events_seen` into the job's
/// fault log (idempotent: already-recorded events are skipped).
fn record_new_failure_events(dfs: &Dfs, events_seen: usize, stats: &mut JobStats) {
    let events = dfs.cluster().failure_events();
    if events.len() > events_seen {
        stats.fault_log.record_events(&events[events_seen..]);
    }
}

/// The reduce phase: one task per non-empty partition, outputs concatenated
/// in partition order.  Lost partitions are **always** re-run (under either
/// policy — only map-side sample loss is tolerated by §3.4; the partition data
/// is driver-held and still exists).
fn reduce_phase<R: Reducer>(
    dfs: &Dfs,
    conf: &JobConf,
    reducer: &R,
    partitions: Vec<BTreeMap<R::InKey, Vec<R::InValue>>>,
    counters: &mut Counters,
    stats: &mut JobStats,
) -> Result<Vec<R::Output>> {
    let partitions: Vec<_> = partitions.into_iter().filter(|p| !p.is_empty()).collect();
    let cluster = dfs.cluster();
    let records_in: Vec<u64> = partitions
        .iter()
        .map(|p| p.values().map(|v| v.len() as u64).sum())
        .collect();
    let remote = remote_reduce(dfs, conf, reducer, &partitions, stats).unwrap_or_default();

    let heavy = reducer.is_heavy();
    let cost = cluster.cost_model();
    let tasks: Vec<Task<'_>> = records_in
        .iter()
        .map(|&records| Task {
            preferred: &[],
            work: cost.reduce_cpu(records, heavy),
            droppable: false,
        })
        .collect();
    let slots = run_rounds(
        dfs,
        conf,
        &tasks,
        stats,
        |_| 0,
        |i| {
            let remote = remote.get(i).and_then(|compute| compute.lock().take());
            let compute: ReduceCompute<R> = remote.unwrap_or_else(|| {
                let mut ctx = ReduceContext::new();
                for (key, values) in &partitions[i] {
                    reducer.reduce(key, values, &mut ctx);
                }
                ctx.into_parts()
            });
            cluster.charge_reduce_cpu(Phase::Reduce, records_in[i], heavy);
            Ok(Some(compute))
        },
    )?;

    let mut outputs = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        let (out, task_counters) = slot.expect("reduce partitions are never dropped");
        stats.reduce_tasks += 1;
        counters.add(builtin::REDUCE_INPUT_GROUPS, partitions[i].len() as u64);
        counters.add(builtin::REDUCE_INPUT_RECORDS, records_in[i]);
        counters.merge(&task_counters);
        outputs.extend(out);
    }
    Ok(outputs)
}

/// One task as the round loop sees it.
struct Task<'a> {
    /// Nodes holding the task's input; the planner tries them first.
    preferred: &'a [NodeId],
    /// Estimated duration of the task's work after start-up, from the cost
    /// model — positions the task's arbitration boundary.
    work: SimDuration,
    /// Whether the task's input dies with its node (a DFS split), so that
    /// `Degrade` abandons the task when it is lost instead of re-running it.
    droppable: bool,
}

/// The task loop both phases run through: rounds of plan → run → arbitrate →
/// re-queue until nothing is pending.
///
/// Each round plans the pending tasks onto nodes and runs them concurrently
/// with implicit polling suppressed: start-up charge, node placement, then
/// `body(i)` — the phase's compute, CPU charge and counters.  After the
/// barrier an armed schedule is arbitrated at the plan's estimated task
/// boundaries (with nothing armed no task can be lost, and the loop runs
/// once).  A surviving task's result is committed to slot `i`; a lost task is
/// dropped (`Degrade`, droppable tasks only) or booked as a retry and
/// re-queued behind the policy back-off.  `body` returns `None` when the
/// task's input was already gone and the policy tolerates dropping it.
///
/// Returns one slot per task: the committed result, or `None` if dropped.
/// `salvageable` weighs a committed result for the fault log's
/// `records_salvaged`, counted in rounds that lost another task.
fn run_rounds<T: Send>(
    dfs: &Dfs,
    conf: &JobConf,
    tasks: &[Task<'_>],
    stats: &mut JobStats,
    salvageable: impl Fn(&T) -> u64,
    body: impl Fn(usize) -> Result<Option<T>> + Sync,
) -> Result<Vec<Option<T>>> {
    let cluster = dfs.cluster();
    let threads = resolve_parallelism(conf.parallelism);
    let armed = cluster.failure_injection_pending();
    // Local-mode tasks run in the driver process: no start-up, no placement.
    let startup = if conf.local_mode {
        SimDuration::ZERO
    } else {
        cluster.cost_model().task_startup
    };

    let mut slots: Vec<Option<T>> = tasks.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..tasks.len()).collect();
    // A pending task has run in every round so far: the round number is its
    // attempt count.
    let mut attempt = 0u32;

    while !pending.is_empty() {
        attempt += 1;
        if attempt > 1 {
            charge_retry_round(dfs, conf, stats);
        }

        let preferred: Vec<&[NodeId]> = pending.iter().map(|&i| tasks[i].preferred).collect();
        let plan = plan_nodes(dfs, &preferred)?;
        let round_start = cluster.now();

        let results = {
            let _pause = cluster.suppress_failure_polling();
            indexed_map(
                pending.len(),
                threads,
                || (),
                |j, ()| {
                    if !conf.local_mode {
                        cluster.charge_task_startup();
                        cluster.record_task_on(plan[j])?;
                    }
                    body(pending[j])
                },
            )
        };
        let lost = if armed {
            let estimates = pending.iter().map(|&i| startup + tasks[i].work);
            arbitrate_round(dfs, conf, &plan, round_start, estimates)
        } else {
            vec![false; pending.len()]
        };

        let mut next_pending = Vec::new();
        let mut round_salvaged = 0u64;
        let mut round_lost = false;
        for (j, result) in results.into_iter().enumerate() {
            let i = pending[j];
            match result? {
                // The task's input blocks were already gone (§3.4 drop).
                None => {}
                Some(value) if !lost[j] => {
                    round_salvaged += salvageable(&value);
                    slots[i] = Some(value);
                }
                Some(_) => {
                    round_lost = true;
                    if !(tasks[i].droppable && conf.failure_policy.is_degrade()) {
                        if attempt >= conf.failure_policy.max_attempts().max(1) {
                            return Err(MrError::ClusterLost);
                        }
                        book_restart(dfs, stats);
                        next_pending.push(i);
                    }
                }
            }
        }
        if round_lost {
            stats.fault_log.records_salvaged += round_salvaged;
        }
        pending = next_pending;
    }
    Ok(slots)
}

/// Plans the node of every task deterministically: first live preferred
/// (data-local) node, otherwise round-robin over the available nodes.  Never
/// consults the cluster RNG, so the plan is independent of both thread count
/// and execution order.
fn plan_nodes(dfs: &Dfs, preferred: &[&[NodeId]]) -> Result<Vec<NodeId>> {
    let available = dfs.cluster().available_nodes();
    if available.is_empty() {
        return Err(ClusterError::NoAvailableNodes.into());
    }
    Ok(preferred
        .iter()
        .enumerate()
        .map(|(i, candidates)| {
            candidates
                .iter()
                .copied()
                .find(|n| available.contains(n))
                .unwrap_or(available[i % available.len()])
        })
        .collect())
}

/// Arbitration for one executed round: polls the injector at each task's
/// estimated completion boundary — the tasks' estimated durations replayed
/// serially from `round_start` through the cost model — then catches up to
/// the charged clock, and marks which tasks were lost: a task is lost iff its
/// planned node is dead at its boundary.  The boundaries are a pure function
/// of the plan, so failure outcomes cannot depend on execution interleaving.
/// The real (makespan-charged) clock generally lags these serial estimates;
/// the injector's monotonic poll window makes the two composable.
fn arbitrate_round(
    dfs: &Dfs,
    conf: &JobConf,
    plan: &[NodeId],
    round_start: SimInstant,
    estimates: impl Iterator<Item = SimDuration>,
) -> Vec<bool> {
    let cluster = dfs.cluster();
    let mut dead: Vec<NodeId> = Vec::new();
    let mut boundary = round_start;
    let lost = plan
        .iter()
        .zip(estimates)
        .map(|(node, estimate)| {
            boundary = boundary + estimate;
            for ev in cluster.arbitrate_failures_at(boundary) {
                if !dead.contains(&ev.node) {
                    dead.push(ev.node);
                }
            }
            // Local-mode tasks run in the driver process and cannot be killed
            // by a node failure; the arbitration still advances the injector
            // window.
            !conf.local_mode && dead.contains(node)
        })
        .collect();
    cluster.arbitrate_failures_at(cluster.now());
    lost
}

/// Charges the policy back-off before a retry round and re-syncs DFS metadata
/// so retried reads avoid dead nodes.
fn charge_retry_round(dfs: &Dfs, conf: &JobConf, stats: &mut JobStats) {
    let backoff = conf.failure_policy.backoff();
    if backoff > SimDuration::ZERO {
        dfs.cluster().charge_parallel(Phase::Other, &[backoff]);
        stats.fault_log.backoff += backoff;
    }
    dfs.reconcile_failures();
}

/// Books one task restart: cluster metric, stats, fault log.  (The
/// `RESTARTED_TASKS` counter is derived from the stats when the job finishes.)
fn book_restart(dfs: &Dfs, stats: &mut JobStats) {
    dfs.cluster().record_task_restart();
    stats.restarted_tasks += 1;
    stats.fault_log.task_retries += 1;
}

/// Books the chunk re-dispatches a remote transport performed after worker
/// deaths: each is one retry round (back-off charge + DFS re-sync) plus one
/// task restart, exactly what the round loop books per lost task.
/// This is the unification point for wire-level failures: a call-deadline
/// expiry or socket death on the transport surfaces as a `retries` increment
/// and lands in the same `FaultLog` counters as simulated-failure retries.
/// Transparent revives never reach here (the transport's `retries` field
/// excludes them by contract), so a fully-recovered run books nothing.
fn book_remote_retries(dfs: &Dfs, conf: &JobConf, retries: u64, stats: &mut JobStats) {
    for _ in 0..retries {
        charge_retry_round(dfs, conf, stats);
        book_restart(dfs, stats);
    }
}

/// Whether a phase with intermediate pairs `(K, V)` may compute on the job's
/// transport at all: a non-local transport, cluster mode, a stable cluster
/// (an armed simulated failure schedule keeps the compute in-process, where
/// the loop can re-run it), and the `(u32, f64)` wire pair every remote
/// transport speaks.
fn remote_eligible<K: 'static, V: 'static>(dfs: &Dfs, conf: &JobConf) -> bool {
    !conf.transport.is_local()
        && !conf.local_mode
        && !dfs.cluster().failure_injection_pending()
        && TypeId::of::<(K, V)>() == TypeId::of::<(u32, f64)>()
}

/// Moves a value between two types already proven identical by `TypeId`
/// (e.g. `Vec<(u32, f64)>` → `Vec<(M::OutKey, M::OutValue)>` once
/// [`remote_eligible`] held).  Returns `None` if they were not the same type.
fn cast_owned<S: 'static, T: 'static>(value: S) -> Option<T> {
    let boxed: Box<dyn Any> = Box::new(value);
    boxed.downcast::<T>().ok().map(|b| *b)
}

/// Computes the map tasks on the job's remote transport when every gate
/// holds: [`remote_eligible`], a wire-portable mapper spec, a provisioned
/// source path and memory-only inputs.  Returns `None` — having charged
/// nothing — when a gate misses, a call fails or an outcome does not have
/// exactly `num_shards` shards (routing its pairs anyway would change
/// partition order, hence output bits); the tasks then run the mapper
/// in-process (memory inputs are driver-held; nothing is lost but remote
/// work).  On success the transport's reported retries are booked and every
/// task body finds its compute here.
fn remote_map<M: Mapper>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    inputs: &[MapInput<'_>],
    num_shards: usize,
    stats: &mut JobStats,
) -> Option<RemoteComputes<MapCompute<M>>> {
    if !remote_eligible::<M::OutKey, M::OutValue>(dfs, conf) {
        return None;
    }
    let spec = mapper.remote_spec()?;
    let source_path = conf.source_path.as_ref()?.as_str();
    // Summary-only deployments (workers provisioned with O(√n) section
    // summaries, never the raw records) cannot resolve offsets remotely;
    // skipping here keeps the decision deterministic instead of burning a
    // doomed wire round-trip per task.
    if !conf.transport.serves_records(source_path) {
        return None;
    }
    let outcomes = inputs
        .iter()
        .map(|input| {
            let MapInput::Memory(records) = input else {
                return None;
            };
            let offsets: Vec<u64> = records.iter().map(|&(offset, _)| offset).collect();
            let request = RemoteMapRequest {
                spec: &spec,
                source_path,
                offsets: &offsets,
                num_shards,
                max_attempts: conf.failure_policy.max_attempts().max(1),
            };
            let outcome = conf.transport.remote_map(&request).ok()?;
            (outcome.shards.len() == num_shards).then_some(outcome)
        })
        .collect::<Option<Vec<_>>>()?;

    let mut retries = 0;
    let mut computes = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        retries += outcome.retries;
        let shards: Vec<Vec<(M::OutKey, M::OutValue)>> = cast_owned(outcome.shards)?;
        let mut buffers = ShardBuffers::new(num_shards);
        for (shard, pairs) in shards.into_iter().enumerate() {
            for pair in pairs {
                buffers.emit(shard, pair);
            }
        }
        let emitted = map_output_counters(&buffers);
        computes.push(Mutex::new(Some((outcome.records, vec![buffers], emitted))));
    }
    book_remote_retries(dfs, conf, retries, stats);
    Some(computes)
}

/// The reduce-side analogue of [`remote_map`]: computes the partitions on the
/// job's remote transport when [`remote_eligible`] holds, the reducer has a
/// wire-portable spec and its outputs are `f64`.  An outcome must carry one
/// output per group; anything else declines the whole phase, which then
/// reduces in-process — partition data is driver-held, so nothing is lost.
fn remote_reduce<R: Reducer>(
    dfs: &Dfs,
    conf: &JobConf,
    reducer: &R,
    partitions: &[BTreeMap<R::InKey, Vec<R::InValue>>],
    stats: &mut JobStats,
) -> Option<RemoteComputes<ReduceCompute<R>>> {
    if !remote_eligible::<R::InKey, R::InValue>(dfs, conf)
        || TypeId::of::<R::Output>() != TypeId::of::<f64>()
    {
        return None;
    }
    let spec = reducer.remote_spec()?;
    let outcomes = partitions
        .iter()
        .map(|partition| {
            let partition: &BTreeMap<u32, Vec<f64>> = (partition as &dyn Any).downcast_ref()?;
            let groups: Vec<(u32, Vec<f64>)> =
                partition.iter().map(|(&k, v)| (k, v.clone())).collect();
            let request = RemoteReduceRequest {
                spec: &spec,
                groups: &groups,
                max_attempts: conf.failure_policy.max_attempts().max(1),
            };
            let outcome = conf.transport.remote_reduce(&request).ok()?;
            (outcome.outputs.len() == groups.len()).then_some(outcome)
        })
        .collect::<Option<Vec<_>>>()?;

    let mut retries = 0;
    let mut computes = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        retries += outcome.retries;
        let outputs: Vec<R::Output> = cast_owned(outcome.outputs)?;
        let mut emitted = Counters::new();
        if !outputs.is_empty() {
            emitted.add(builtin::REDUCE_OUTPUT_RECORDS, outputs.len() as u64);
        }
        computes.push(Mutex::new(Some((outputs, emitted))));
    }
    book_remote_retries(dfs, conf, retries, stats);
    Some(computes)
}

/// The in-process compute of one map task: the mapper over the task's input,
/// with the task's pairs routed straight into its own [`ShardBuffers`] by the
/// same partitioner arithmetic the reduce-side shuffle uses.  The
/// `MapContext` sinks each pair into the shard buckets *as it is emitted* —
/// no per-task all-pairs vector ever exists.  Returns
/// `None` when the task's input blocks were already lost and the failure
/// policy tolerates dropping them; whatever the task emitted before that
/// abort (or before a hard error) is dropped with its buffers, so an aborted
/// task contributes exactly nothing.
///
/// An in-memory task is still one task, but its compute runs on all workers:
/// the records are cut into `workers_for(len, parallelism)` contiguous
/// chunks, each mapped into its own buffers.  The buffers come back in chunk
/// order, so every shard still receives its pairs in input order.
fn run_mapper<M: Mapper>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    input: &MapInput<'_>,
    num_shards: usize,
) -> Result<Option<MapCompute<M>>> {
    let split = match input {
        MapInput::Split(split) => split,
        MapInput::Memory(lines) => return Ok(Some(map_memory(conf, mapper, lines, num_shards))),
    };
    let mut ctx = MapContext::sharded(num_shards);
    let mut records = 0u64;
    let read = dfs.split_lines(split, Phase::Load, |offset, line| {
        mapper.map(offset, line, &mut ctx);
        records += 1;
    });
    match read {
        Ok(_) => {}
        Err(DfsError::BlockUnavailable(_)) if conf.failure_policy.is_degrade() => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    // The map-side shuffle already happened inside `emit`.
    let (buffers, emitted) = ctx.into_shards();
    Ok(Some((records, vec![buffers], emitted)))
}

/// [`run_mapper`] over in-memory records: one chunk per worker, each mapped
/// into its own [`MapContext`]; the counters sum and the buffers keep chunk
/// order.
fn map_memory<M: Mapper>(
    conf: &JobConf,
    mapper: &M,
    lines: &[(u64, String)],
    num_shards: usize,
) -> MapCompute<M> {
    let workers = workers_for(lines.len(), conf.parallelism);
    let chunks: Vec<&[(u64, String)]> =
        lines.chunks(lines.len().div_ceil(workers).max(1)).collect();
    let parts = indexed_map(
        chunks.len(),
        workers,
        || (),
        |i, ()| {
            let mut ctx = MapContext::sharded(num_shards);
            for (offset, line) in chunks[i] {
                mapper.map(*offset, line, &mut ctx);
            }
            ctx.into_shards()
        },
    );
    let mut counters = Counters::new();
    let mut buffers = Vec::with_capacity(parts.len());
    for (part, part_counters) in parts {
        counters.merge(&part_counters);
        buffers.push(part);
    }
    (lines.len() as u64, buffers, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contrib::{
        MeanReducer, MedianReducer, TokenCountMapper, ValueExtractMapper, WordCountReducer,
    };
    use crate::transport::{RemoteMapOutcome, RemoteReduceOutcome, TaskSpec, TaskTransport};
    use earl_cluster::{Cluster, CostModel, FailureEvent, FailureSchedule, SimInstant};
    use earl_dfs::DfsConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn test_dfs(nodes: u32, free: bool) -> Dfs {
        let mut builder = Cluster::builder().nodes(nodes);
        if free {
            builder = builder.cost_model(CostModel::free());
        }
        Dfs::new(
            builder.build().unwrap(),
            DfsConfig {
                block_size: 256,
                replication: 2,
                io_chunk: 64,
            },
        )
        .unwrap()
    }

    #[test]
    fn word_count_over_dfs_matches_reference() {
        let dfs = test_dfs(3, true);
        let lines = vec!["the quick brown fox", "the lazy dog", "the fox"];
        dfs.write_lines("/wc", &lines).unwrap();
        let conf = JobConf::new("wordcount", InputSource::Path("/wc".into())).with_reducers(3);
        let result = run_job(&dfs, &conf, &TokenCountMapper, &WordCountReducer).unwrap();
        let mut counts: Vec<(String, u64)> = result.outputs.clone();
        counts.sort();
        let the = counts.iter().find(|(w, _)| w == "the").unwrap();
        assert_eq!(the.1, 3);
        let fox = counts.iter().find(|(w, _)| w == "fox").unwrap();
        assert_eq!(fox.1, 2);
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<u64>(), 9);
        assert_eq!(result.counters.get(builtin::MAP_INPUT_RECORDS), 3);
        assert_eq!(result.stats.map_input_records, 3);
        assert!(result.stats.reduce_tasks >= 1);
        assert_eq!(result.stats.lost_map_tasks, 0);
        assert_eq!(result.stats.surviving_fraction(), 1.0);
        assert!(result.stats.fault_log.is_empty());
    }

    #[test]
    fn memory_input_runs_without_dfs_reads() {
        let dfs = test_dfs(1, false);
        let conf = JobConf::new(
            "mean",
            InputSource::Memory((1..=100u64).map(|i| (i, i.to_string())).collect()),
        );
        let result = run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();
        assert_eq!(result.outputs.len(), 1);
        assert!((result.outputs[0] - 50.5).abs() < 1e-9);
        let load = dfs.cluster().metrics().snapshot().phase(Phase::Load);
        assert_eq!(
            load.disk_bytes_read, 0,
            "memory input must not touch the DFS"
        );
    }

    #[test]
    fn empty_input_produces_empty_result() {
        let dfs = test_dfs(1, true);
        let conf = JobConf::new("empty", InputSource::Memory(Vec::new()));
        let result = run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();
        assert!(result.outputs.is_empty());
        assert_eq!(result.stats.map_tasks, 0);
        assert_eq!(result.stats.reduce_tasks, 0);
    }

    #[test]
    fn retry_policy_recovers_from_node_failure() {
        // Node 1 fails shortly after the job starts; with replication 2 the
        // data survives and the retry policy must deliver the exact answer —
        // on the parallel engine, not a sequential fallback.
        let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
            node: NodeId(1),
            at: SimInstant::EPOCH + SimDuration::from_millis(100),
        }]);
        let cluster = Cluster::builder()
            .nodes(3)
            .failure_schedule(schedule)
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 512,
                replication: 2,
                io_chunk: 128,
            },
        )
        .unwrap();
        let lines: Vec<String> = (1..=1000).map(|i| i.to_string()).collect();
        dfs.write_lines("/ft", &lines).unwrap();
        let conf = JobConf::new("mean", InputSource::Path("/ft".into()))
            .with_failure_policy(FailurePolicy::retry());
        let result = run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();
        assert_eq!(result.outputs.len(), 1);
        assert!((result.outputs[0] - 500.5).abs() < 1e-9);
        assert!(
            !dfs.cluster().failed_nodes().is_empty(),
            "the failure must actually have fired"
        );
        assert!(
            !result.stats.fault_log.events.is_empty() || !dfs.cluster().failure_events().is_empty(),
            "the firing must be observable"
        );
    }

    #[test]
    fn retry_backoff_is_charged_to_the_clock() {
        // Kill a node mid-map under Retry with a visible back-off; if any task
        // retries, the back-off must appear in the fault log and counters.
        let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
            node: NodeId(1),
            at: SimInstant::EPOCH + SimDuration::from_secs(2),
        }]);
        let cluster = Cluster::builder()
            .nodes(3)
            .failure_schedule(schedule)
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 512,
                replication: 2,
                io_chunk: 128,
            },
        )
        .unwrap();
        let lines: Vec<String> = (1..=3000).map(|i| i.to_string()).collect();
        dfs.write_lines("/bk", &lines).unwrap();
        dfs.cluster().reset_accounting();
        let conf = JobConf::new("mean", InputSource::Path("/bk".into())).with_failure_policy(
            FailurePolicy::Retry {
                max_attempts: 4,
                backoff: SimDuration::from_millis(250),
            },
        );
        let result = run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();
        assert!((result.outputs[0] - 1500.5).abs() < 1e-9, "answer is exact");
        if result.stats.restarted_tasks > 0 {
            assert!(result.stats.fault_log.backoff >= SimDuration::from_millis(250));
            assert_eq!(
                result.counters.get(builtin::BACKOFF_MICROS),
                result.stats.fault_log.backoff.as_micros()
            );
            assert_eq!(
                result.stats.fault_log.task_retries,
                result.stats.restarted_tasks
            );
        }
    }

    #[test]
    fn degrade_policy_drops_lost_tasks_but_completes() {
        // Every node except node 0 fails very early; with the Degrade policy
        // the job still completes, reporting lost map tasks.
        let schedule = FailureSchedule::Deterministic(vec![
            FailureEvent {
                node: NodeId(1),
                at: SimInstant::EPOCH + SimDuration::from_millis(1),
            },
            FailureEvent {
                node: NodeId(2),
                at: SimInstant::EPOCH + SimDuration::from_millis(1),
            },
        ]);
        let cluster = Cluster::builder()
            .nodes(3)
            .failure_schedule(schedule)
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 256,
                replication: 1,
                io_chunk: 64,
            },
        )
        .unwrap();
        let lines: Vec<String> = (1..=2000).map(|i| i.to_string()).collect();
        dfs.write_lines("/loss", &lines).unwrap();
        dfs.cluster().reset_accounting();
        let conf = JobConf::new("mean", InputSource::Path("/loss".into()))
            .with_failure_policy(FailurePolicy::Degrade);
        let result = run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();
        // The job must finish; depending on which blocks were lost the answer
        // is approximate but the surviving fraction must be reported.
        assert!(result.stats.map_tasks > 0);
        if result.stats.lost_map_tasks > 0 {
            assert!(result.stats.surviving_fraction() < 1.0);
            assert_eq!(
                result.counters.get(builtin::LOST_SPLITS),
                result.stats.lost_map_tasks
            );
            assert_eq!(
                result.stats.fault_log.splits_lost,
                result.stats.lost_map_tasks
            );
        }
    }

    #[test]
    fn stats_record_sim_time_and_tasks() {
        let dfs = test_dfs(2, false);
        dfs.write_lines("/t", (1..=500).map(|i| i.to_string()))
            .unwrap();
        let conf = JobConf::new("mean", InputSource::Path("/t".into()));
        let result = run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();
        assert!(result.stats.sim_time > SimDuration::ZERO);
        assert!(result.stats.map_tasks >= 1);
        assert_eq!(result.stats.map_input_records, 500);
        assert_eq!(
            result.counters.get(builtin::SHARDED_SHUFFLE_RECORDS),
            result.stats.shuffle_records,
            "all intermediate records travel through the sharded shuffle"
        );
    }

    #[test]
    fn a_nan_line_does_not_panic_the_median_job() {
        // "NaN" parses as an f64, so the mapper emits it; the reducer must
        // order it (after every number) instead of panicking its task.
        let dfs = test_dfs(2, true);
        dfs.write_lines("/nan", ["1", "2", "NaN", "3", "4"])
            .unwrap();
        let conf = JobConf::new("median", InputSource::Path("/nan".into()));
        let result = run_job(&dfs, &conf, &ValueExtractMapper, &MedianReducer).unwrap();
        assert_eq!(result.outputs, vec![3.0]);
    }

    /// A wire-portable mapper: the line's value under key `offset % 11`, so
    /// several reduce partitions receive groups.
    struct SpecMapper;
    impl Mapper for SpecMapper {
        type OutKey = u32;
        type OutValue = f64;
        fn map(&self, offset: u64, line: &str, ctx: &mut MapContext<u32, f64>) {
            if let Ok(value) = line.parse::<f64>() {
                ctx.emit((offset % 11) as u32, value);
            }
        }
        fn remote_spec(&self) -> Option<TaskSpec> {
            Some(TaskSpec::named("loopback"))
        }
    }

    /// A wire-portable reducer: the group mean.
    struct SpecReducer;
    impl Reducer for SpecReducer {
        type InKey = u32;
        type InValue = f64;
        type Output = f64;
        fn reduce(&self, _key: &u32, values: &[f64], ctx: &mut ReduceContext<f64>) {
            ctx.emit(values.iter().sum::<f64>() / values.len() as f64);
        }
        fn remote_spec(&self) -> Option<TaskSpec> {
            Some(TaskSpec::named("loopback"))
        }
    }

    /// A non-local transport that runs the real mapper and reducer in this
    /// process, with knobs for the ways a transport can misbehave.
    #[derive(Debug, Default)]
    struct Loopback {
        records: BTreeMap<u64, String>,
        /// Retries every map outcome reports.
        retries: u64,
        /// Refuse every call.
        refuse: bool,
        /// Partition map output into `num_shards * shard_factor` shards
        /// (1 = as requested).
        shard_factor: usize,
        /// Drop the last output of every reduce outcome.
        short_reduce: bool,
        calls: AtomicUsize,
    }

    impl Loopback {
        fn over(records: &[(u64, String)]) -> Self {
            Self {
                records: records.iter().cloned().collect(),
                shard_factor: 1,
                ..Self::default()
            }
        }
    }

    impl TaskTransport for Loopback {
        fn is_local(&self) -> bool {
            false
        }

        fn remote_map(&self, request: &RemoteMapRequest<'_>) -> Result<RemoteMapOutcome> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if self.refuse {
                return Err(MrError::Transport("refused".into()));
            }
            let shards = request.num_shards * self.shard_factor;
            let mut ctx = MapContext::sharded(shards);
            for offset in request.offsets {
                SpecMapper.map(*offset, &self.records[offset], &mut ctx);
            }
            let (buffers, _) = ctx.into_shards();
            Ok(RemoteMapOutcome {
                shards: ShardedBuffers::from_workers(shards, vec![buffers])
                    .merge(1, |_, pairs| pairs),
                records: request.offsets.len() as u64,
                retries: self.retries,
            })
        }

        fn remote_reduce(&self, request: &RemoteReduceRequest<'_>) -> Result<RemoteReduceOutcome> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let mut ctx = ReduceContext::new();
            for (key, values) in request.groups {
                SpecReducer.reduce(key, values, &mut ctx);
            }
            let (mut outputs, _) = ctx.into_parts();
            if self.short_reduce {
                outputs.pop();
            }
            Ok(RemoteReduceOutcome {
                outputs,
                retries: 0,
            })
        }
    }

    fn loopback_records() -> Vec<(u64, String)> {
        (1..=400u64)
            .map(|i| (i, (i * 7 % 31).to_string()))
            .collect()
    }

    /// Runs the spec job over `records` on a fresh costed cluster, on
    /// `transport` (in-process when `None`).
    fn run_spec_job(
        records: &[(u64, String)],
        reducers: usize,
        parallelism: usize,
        transport: Option<Arc<Loopback>>,
    ) -> JobResult<f64> {
        let dfs = test_dfs(3, false);
        let mut conf = JobConf::new("spec", InputSource::Memory(records.to_vec()))
            .with_reducers(reducers)
            .with_parallelism(Some(parallelism))
            .with_source_path("/data")
            .with_failure_policy(FailurePolicy::Retry {
                max_attempts: 4,
                backoff: SimDuration::from_millis(250),
            });
        if let Some(transport) = transport {
            conf = conf.with_transport(transport);
        }
        run_job(&dfs, &conf, &SpecMapper, &SpecReducer).unwrap()
    }

    fn assert_same_result(a: &JobResult<f64>, b: &JobResult<f64>, what: &str) {
        assert_eq!(a.outputs, b.outputs, "{what}: outputs");
        assert_eq!(a.counters, b.counters, "{what}: counters");
        assert_eq!(a.stats, b.stats, "{what}: stats (incl. sim_time)");
    }

    #[test]
    fn loopback_transport_is_bit_identical_to_in_process() {
        let records = loopback_records();
        for reducers in [1usize, 3] {
            for parallelism in [1usize, 4] {
                let local = run_spec_job(&records, reducers, parallelism, None);
                let transport = Arc::new(Loopback::over(&records));
                let remote = run_spec_job(&records, reducers, parallelism, Some(transport.clone()));
                assert_same_result(
                    &remote,
                    &local,
                    &format!("{reducers} reducers, {parallelism} threads"),
                );
                assert_eq!(
                    transport.calls.load(Ordering::Relaxed),
                    1 + local.stats.reduce_tasks as usize,
                    "one wire call per map task and per reduce partition"
                );
                assert!(remote.stats.fault_log.is_empty());
            }
        }
    }

    #[test]
    fn reported_remote_retries_are_booked_like_lost_tasks() {
        let records = loopback_records();
        let local = run_spec_job(&records, 3, 1, None);
        let transport = Arc::new(Loopback {
            retries: 2,
            ..Loopback::over(&records)
        });
        let remote = run_spec_job(&records, 3, 1, Some(transport));
        assert_eq!(remote.outputs, local.outputs);
        assert_eq!(remote.stats.restarted_tasks, 2);
        assert_eq!(remote.stats.fault_log.task_retries, 2);
        assert_eq!(remote.counters.get(builtin::RESTARTED_TASKS), 2);
        let backoff = SimDuration::from_millis(500);
        assert_eq!(remote.stats.fault_log.backoff, backoff, "twice the policy");
        assert_eq!(
            remote.counters.get(builtin::BACKOFF_MICROS),
            backoff.as_micros()
        );
        assert_eq!(remote.stats.sim_time, local.stats.sim_time + backoff);
    }

    #[test]
    fn a_refusing_transport_yields_the_in_process_result() {
        let records = loopback_records();
        let local = run_spec_job(&records, 3, 4, None);
        let transport = Arc::new(Loopback {
            refuse: true,
            ..Loopback::over(&records)
        });
        let fallback = run_spec_job(&records, 3, 4, Some(transport.clone()));
        assert_same_result(&fallback, &local, "refused map call");
        assert!(transport.calls.load(Ordering::Relaxed) > 0, "it was asked");
    }

    /// The local-mode contract EARL's ladder steps rely on: in cluster mode a
    /// job starts, runs one map task and one reduce task, charges start-up
    /// and the shuffle, and asks the transport once per task; in local mode
    /// the same job gives the same output, sooner, with none of that.
    #[test]
    fn local_mode_charges_no_startup_or_shuffle_and_stays_off_the_wire() {
        let records = loopback_records();
        let dfs = test_dfs(3, false);
        let cluster = dfs.cluster().clone();
        let transport = Arc::new(Loopback {
            refuse: true,
            ..Loopback::over(&records)
        });
        let conf = JobConf::new("spec", InputSource::Memory(records.clone()))
            .with_source_path("/data")
            .with_transport(transport.clone());

        // (outputs, sim time, jobs started, tasks started, start-up time,
        // shuffle time, wire calls)
        let run = |local_mode: bool| {
            let conf = JobConf {
                local_mode,
                ..conf.clone()
            };
            let before = cluster.metrics().snapshot();
            let calls = transport.calls.load(Ordering::Relaxed);
            let result = run_job(&dfs, &conf, &SpecMapper, &SpecReducer).unwrap();
            let after = cluster.metrics().snapshot();
            (
                result.outputs,
                result.stats.sim_time,
                after.jobs_run - before.jobs_run,
                after.tasks_started - before.tasks_started,
                after.phase(Phase::Other).sim_time_micros
                    - before.phase(Phase::Other).sim_time_micros,
                after.phase(Phase::Shuffle).sim_time_micros
                    - before.phase(Phase::Shuffle).sim_time_micros,
                transport.calls.load(Ordering::Relaxed) - calls,
            )
        };

        let (outputs, sim_time, jobs, tasks, startup, shuffle, calls) = run(false);
        assert_eq!(jobs, 1, "a cluster-mode job is started");
        assert_eq!(tasks, 2, "one map task and one reduce task");
        assert!(startup > 0, "job and task start-up are charged");
        assert!(shuffle > 0, "the shuffle's sort and network are charged");
        assert_eq!(calls, 2, "one map and one reduce call on the wire");

        let (local_outputs, local_sim_time, jobs, tasks, startup, shuffle, calls) = run(true);
        assert_eq!(local_outputs, outputs);
        assert!(local_sim_time < sim_time, "{local_sim_time} vs {sim_time}");
        assert_eq!(
            (jobs, tasks, startup, shuffle, calls),
            (0, 0, 0, 0, 0),
            "a local job charges no start-up or shuffle and stays in-process"
        );
    }

    #[test]
    fn malformed_remote_outcomes_are_declined_not_misrouted() {
        let records = loopback_records();
        let local = run_spec_job(&records, 3, 1, None);
        // Twice the requested shard count: routing those pairs anyway would
        // clamp shards 3..6 into the last one and reorder the output.
        let wrong_shards = Arc::new(Loopback {
            shard_factor: 2,
            ..Loopback::over(&records)
        });
        let result = run_spec_job(&records, 3, 1, Some(wrong_shards));
        assert_same_result(&result, &local, "wrong map shard count");
        // One output short of one per group.
        let short_reduce = Arc::new(Loopback {
            short_reduce: true,
            ..Loopback::over(&records)
        });
        let result = run_spec_job(&records, 3, 1, Some(short_reduce));
        assert_same_result(&result, &local, "short reduce outcome");
    }
}
