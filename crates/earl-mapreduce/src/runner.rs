//! The job runner: executes a MapReduce job over the simulated cluster.
//!
//! User code (mappers, reducers, combiners) runs for real, so results are
//! exact; all I/O, CPU and start-up work is charged to the cluster cost model
//! so that the simulated elapsed time reflects the work actually performed.
//! This is the property the EARL reproduction needs: processing time is a
//! deterministic function of bytes scanned and records processed, which is
//! precisely what early approximation reduces.
//!
//! ## Execution model
//!
//! There is one round loop per phase.  Every round runs its pending tasks
//! concurrently across a scoped thread pool, then arbitrates which of them
//! were lost; lost tasks are re-queued (or dropped, per policy) and the loop
//! ends when nothing is pending.  On a cluster with no failure schedule armed
//! arbitration is a no-op, so the loop runs exactly once:
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
//! The shuffle is **map-side**: every map task routes its (combined) output
//! pairs straight into its own per-shard buffers ([`ShardBuffers`]) as it
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

use earl_cluster::{ClusterError, NodeId, Phase, SimDuration, SimInstant};
use earl_dfs::{Dfs, InputSplit};
use earl_parallel::{indexed_map, resolve_parallelism, workers_for, ShardBuffers, ShardedBuffers};

use crate::counters::{builtin, Counters};
use crate::error::MrError;
#[cfg(any(doc, test))]
use crate::job::FailurePolicy;
use crate::job::{InputSource, JobConf, JobResult, JobStats};
use crate::partition::{HashPartitioner, Partitioner};
use crate::shuffle::{apply_combiner, ShuffleOutput};
use crate::transport::{RemoteMapRequest, RemoteReduceRequest};
use crate::types::{Combiner, MapContext, Mapper, ReduceContext, Reducer};
use crate::Result;

/// The sharded intermediate buffers a map phase produces for a mapper `M`.
type MapperShards<M> = ShardedBuffers<(<M as Mapper>::OutKey, <M as Mapper>::OutValue)>;

/// What one completed map task hands back: its counters and its own shard
/// buffers.
type MapTaskOutput<M> = (
    Counters,
    ShardBuffers<(<M as Mapper>::OutKey, <M as Mapper>::OutValue)>,
);

/// Runs a job without a combiner.
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
    run_inner::<M, R, NeverCombiner<M::OutKey, M::OutValue>>(dfs, conf, mapper, reducer, None)
}

/// Runs a job with a combiner applied to each map task's local output.
pub fn run_job_with_combiner<M, R, C>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    reducer: &R,
    combiner: &C,
) -> Result<JobResult<R::Output>>
where
    M: Mapper,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
    C: Combiner<Key = M::OutKey, Value = M::OutValue>,
{
    run_inner::<M, R, C>(dfs, conf, mapper, reducer, Some(combiner))
}

/// A combiner type used only to instantiate the generic runner when no
/// combiner is supplied.  The runner short-circuits on the combiner `Option`
/// before grouping or copying anything, so `combine` can never be reached —
/// the previous implementation materialised `values.to_vec()` here for
/// nothing.
struct NeverCombiner<K, V>(std::marker::PhantomData<(K, V)>);

impl<K: crate::types::MrKey, V: crate::types::MrValue> Combiner for NeverCombiner<K, V> {
    type Key = K;
    type Value = V;
    fn combine(&self, _key: &K, _values: &[V]) -> Vec<V> {
        unreachable!("NeverCombiner is a type-level placeholder; the runner never invokes it")
    }
}

fn run_inner<M, R, C>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    reducer: &R,
    combiner: Option<&C>,
) -> Result<JobResult<R::Output>>
where
    M: Mapper,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
    C: Combiner<Key = M::OutKey, Value = M::OutValue>,
{
    let phase = map_phase_inner(dfs, conf, mapper, combiner)?;
    finish_job(dfs, conf, phase, reducer)
}

/// The completed map half of a job: all intermediate pairs already sharded
/// map-side, plus the counters and stats accumulated so far.  Produced by
/// [`run_map_phase`], consumed by [`finish_job`] (shuffle + reduce) — or
/// dropped outright when a pipelined session cancels a speculative iteration
/// before its reduce phase.
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

    /// Counters accumulated by the map phase.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

/// Runs only the map half of a job (task planning + map tasks + combiner),
/// leaving shuffle and reduce to [`finish_job`].  A pipelined session uses
/// this to overlap the map phase of a speculative iteration with the accuracy
/// estimation of the previous one.
pub fn run_map_phase<M>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
) -> Result<MapPhase<M::OutKey, M::OutValue>>
where
    M: Mapper,
{
    map_phase_inner::<M, NeverCombiner<M::OutKey, M::OutValue>>(dfs, conf, mapper, None)
}

fn map_phase_inner<M, C>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    combiner: Option<&C>,
) -> Result<MapPhase<M::OutKey, M::OutValue>>
where
    M: Mapper,
    C: Combiner<Key = M::OutKey, Value = M::OutValue>,
{
    let cluster = dfs.cluster();
    let start = cluster.elapsed();
    let events_seen = cluster.failure_events().len();
    let mut counters = Counters::new();
    let mut stats = JobStats::default();

    if conf.charge_job_startup && !conf.local_mode {
        cluster.charge_job_startup();
    }

    // ---- plan map tasks ----------------------------------------------------
    let map_inputs: Vec<MapInput> = match &conf.input {
        InputSource::Path(path) => dfs
            .default_splits(path.clone())?
            .into_iter()
            .map(MapInput::Split)
            .collect(),
        InputSource::Splits(splits) => splits.iter().cloned().map(MapInput::Split).collect(),
        InputSource::Memory(records) => {
            if records.is_empty() {
                Vec::new()
            } else {
                vec![MapInput::Memory(records.clone())]
            }
        }
    };

    // ---- map phase -----------------------------------------------------------
    // Remote transports handle only stable-cluster memory-input jobs whose
    // mapper is wire-portable; an armed simulated failure schedule (or any
    // gate miss, or a total transport failure) falls through to the local
    // map phase untouched.
    let remote = if cluster.failure_injection_pending() {
        None
    } else {
        map_phase_remote(
            dfs,
            conf,
            mapper,
            combiner.is_some(),
            &map_inputs,
            &mut counters,
            &mut stats,
        )?
    };
    let output = match remote {
        Some(output) => output,
        None => map_phase_local(
            dfs,
            conf,
            mapper,
            combiner,
            &map_inputs,
            &mut counters,
            &mut stats,
        )?,
    };
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
/// worker pool), reduce, output charging, final stats.
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
    let threads = resolve_parallelism(conf.parallelism);

    // ---- shuffle -------------------------------------------------------------
    // Cost charges are driven by the record count, so sim_time cannot depend
    // on the shuffle worker count.
    let shuffle_records = output.total_items();
    if !conf.local_mode && shuffle_records > 0 {
        cluster.charge_sort(shuffle_records);
        let nodes = cluster.available_nodes();
        if nodes.len() >= 2 {
            // On average (n-1)/n of intermediate data crosses the network.
            let crossing = shuffle_records * conf.avg_record_bytes * (nodes.len() as u64 - 1)
                / nodes.len() as u64;
            cluster.charge_net_transfer(Phase::Shuffle, nodes[0], nodes[1], crossing);
        }
    }
    let shuffle_workers = workers_for(shuffle_records as usize, conf.parallelism).min(threads);
    // Streaming shuffle always: the pairs are already in their shards; only
    // the per-shard concatenate + group remains.
    let shuffled = ShuffleOutput::shuffle_streaming(output, shuffle_workers);
    stats.reduce_groups = shuffled.total_groups();

    // ---- reduce phase --------------------------------------------------------
    let outputs = reduce_phase_parallel(
        dfs,
        conf,
        reducer,
        shuffled.into_partitions(),
        &mut counters,
        &mut stats,
        threads,
    )?;

    // ---- output --------------------------------------------------------------
    if let Some(_path) = &conf.output_path {
        // Output records are charged as sequential writes of the estimated
        // record size (materialisation is left to the caller, which knows how
        // to serialise its output type).
        cluster.charge_disk_write(Phase::Output, outputs.len() as u64 * conf.avg_record_bytes);
    }

    record_new_failure_events(dfs, events_seen, &mut stats);
    // Fault counters are added only when non-zero: a zero-valued entry would
    // make an armed-but-quiet run's counters differ from an unarmed run's.
    if shuffle_records > 0 {
        counters.add(builtin::SHARDED_SHUFFLE_RECORDS, shuffle_records);
    }
    if !stats.fault_log.events.is_empty() {
        counters.add(builtin::FAILURE_EVENTS, stats.fault_log.events.len() as u64);
    }
    if stats.fault_log.records_salvaged > 0 {
        counters.add(builtin::SALVAGED_RECORDS, stats.fault_log.records_salvaged);
    }
    if stats.fault_log.backoff > SimDuration::ZERO {
        counters.add(builtin::BACKOFF_MICROS, stats.fault_log.backoff.as_micros());
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

enum MapInput {
    Split(InputSplit),
    Memory(Vec<(u64, String)>),
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
                .find(|&n| node_alive(dfs, n))
                .unwrap_or(available[i % available.len()])
        })
        .collect())
}

/// Estimated completion boundaries of `tasks` replayed serially from
/// `phase_start` through the cost model.  These are the instants at which the
/// injector is polled after a parallel phase — a pure function of the plan,
/// so failure outcomes cannot depend on execution interleaving.  The real
/// (makespan-charged) clock generally lags these serial estimates; the
/// injector's monotonic poll window makes the two composable.
fn estimated_boundaries(
    phase_start: SimInstant,
    durations: impl Iterator<Item = SimDuration>,
) -> Vec<SimInstant> {
    let mut acc = SimDuration::ZERO;
    durations
        .map(|d| {
            acc += d;
            phase_start + acc
        })
        .collect()
}

/// Arbitration for one executed round: polls the injector at each estimated
/// task boundary (then catches up to the charged clock) and marks which tasks
/// were lost — a task is lost iff its planned node is dead at its boundary.
fn arbitrate_round(
    dfs: &Dfs,
    conf: &JobConf,
    plan: &[NodeId],
    boundaries: &[SimInstant],
) -> Vec<bool> {
    let cluster = dfs.cluster();
    let mut dead: Vec<NodeId> = Vec::new();
    let mut lost = vec![false; plan.len()];
    for (j, boundary) in boundaries.iter().enumerate() {
        for ev in cluster.arbitrate_failures_at(*boundary) {
            if !dead.contains(&ev.node) {
                dead.push(ev.node);
            }
        }
        // Local-mode tasks run in the driver process and cannot be killed by
        // a node failure; the arbitration still advances the injector window.
        lost[j] = !conf.local_mode && dead.contains(&plan[j]);
    }
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

/// Books one task retry (cluster metric, stats, counters, fault log) and
/// errors with [`MrError::ClusterLost`] once the attempt cap is reached.
fn book_task_retry(
    dfs: &Dfs,
    conf: &JobConf,
    attempts: u32,
    counters: &mut Counters,
    stats: &mut JobStats,
) -> Result<()> {
    if attempts >= conf.failure_policy.max_attempts().max(1) {
        return Err(MrError::ClusterLost);
    }
    dfs.cluster().record_task_restart();
    stats.restarted_tasks += 1;
    counters.increment(builtin::RESTARTED_TASKS);
    stats.fault_log.task_retries += 1;
    Ok(())
}

/// Whether the intermediate pair type is the `(u32, f64)` wire pair every
/// remote transport speaks.
fn is_wire_pair<K: 'static, V: 'static>() -> bool {
    TypeId::of::<K>() == TypeId::of::<u32>() && TypeId::of::<V>() == TypeId::of::<f64>()
}

/// Moves a value between two types already proven identical by `TypeId`
/// (e.g. `Vec<(u32, f64)>` → `Vec<(M::OutKey, M::OutValue)>` once
/// [`is_wire_pair`] held).  Returns `None` if they were not the same type.
fn cast_owned<S: 'static, T: 'static>(value: S) -> Option<T> {
    let boxed: Box<dyn Any> = Box::new(value);
    boxed.downcast::<T>().ok().map(|b| *b)
}

/// Books the chunk re-dispatches a remote transport performed after worker
/// deaths: each is one retry round (back-off charge + DFS re-sync) plus one
/// task restart, mirroring what the local round loop books per lost task.
/// This is the unification point for wire-level failures: a call-deadline
/// expiry or socket death on the transport surfaces as a `retries` increment
/// and lands in the same `FaultLog` counters as simulated-failure retries.
/// Transparent revives never reach here (the transport's `retries` field
/// excludes them by contract), so a fully-recovered run books nothing.
fn book_remote_retries(
    dfs: &Dfs,
    conf: &JobConf,
    retries: u64,
    counters: &mut Counters,
    stats: &mut JobStats,
) {
    for _ in 0..retries {
        charge_retry_round(dfs, conf, stats);
        dfs.cluster().record_task_restart();
        stats.restarted_tasks += 1;
        counters.increment(builtin::RESTARTED_TASKS);
        stats.fault_log.task_retries += 1;
    }
}

/// Runs the map phase on a remote transport when every gate holds: non-local
/// transport, cluster mode, no combiner, a wire-portable mapper spec, a
/// provisioned source path, memory-only inputs and the `(u32, f64)` wire pair
/// type.  Returns `Ok(None)` — leaving the simulation completely untouched —
/// when any gate misses or the transport fails outright, so the caller can
/// fall back to the in-process paths (memory inputs are driver-held; nothing
/// is lost but remote work).
///
/// All remote calls complete *before* the first cluster charge; the
/// coordinator then replays the exact per-task charge/counter sequence of
/// [`map_phase_local`], so a remote run is bit-identical to an in-process
/// run, including `sim_time`.
fn map_phase_remote<M>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    has_combiner: bool,
    inputs: &[MapInput],
    counters: &mut Counters,
    stats: &mut JobStats,
) -> Result<Option<MapperShards<M>>>
where
    M: Mapper,
{
    if conf.transport.is_local() || conf.local_mode || has_combiner || inputs.is_empty() {
        return Ok(None);
    }
    if !is_wire_pair::<M::OutKey, M::OutValue>() {
        return Ok(None);
    }
    let Some(spec) = mapper.remote_spec() else {
        return Ok(None);
    };
    let Some(source_path) = &conf.source_path else {
        return Ok(None);
    };
    // Summary-only deployments (workers provisioned with O(√n) section
    // summaries, never the raw records) cannot resolve offsets remotely;
    // skipping here keeps the decision deterministic instead of burning a
    // doomed wire round-trip per task.
    if !conf.transport.serves_records(source_path.as_str()) {
        return Ok(None);
    }
    let mut tasks: Vec<Vec<u64>> = Vec::with_capacity(inputs.len());
    for input in inputs {
        match input {
            MapInput::Memory(records) => tasks.push(records.iter().map(|&(o, _)| o).collect()),
            MapInput::Split(_) => return Ok(None),
        }
    }

    let num_shards = conf.num_reducers.max(1);
    let mut outcomes = Vec::with_capacity(tasks.len());
    for offsets in &tasks {
        let request = RemoteMapRequest {
            spec: &spec,
            source_path: source_path.as_str(),
            offsets,
            num_shards,
            max_attempts: conf.failure_policy.max_attempts().max(1),
        };
        match conf.transport.remote_map(&request) {
            Ok(outcome) => outcomes.push(outcome),
            Err(_) => return Ok(None),
        }
    }

    // User compute is done; now replay the in-process accounting.  The plan is
    // computed on the post-run live set so tasks are never booked on a node a
    // worker death already removed (on a quiet run the live set — and hence
    // the plan — matches the in-process one exactly).
    let cluster = dfs.cluster();
    let preferred: Vec<&[NodeId]> = inputs.iter().map(|_| &[][..]).collect();
    let plan = plan_nodes(dfs, &preferred)?;
    let heavy = mapper.is_heavy();
    let mut workers = Vec::with_capacity(outcomes.len());
    for (i, outcome) in outcomes.into_iter().enumerate() {
        book_remote_retries(dfs, conf, outcome.retries, counters, stats);
        cluster.charge_task_startup();
        cluster.record_task_on(plan[i])?;
        cluster.charge_map_cpu(outcome.records, heavy);

        let mut task_counters = Counters::new();
        task_counters.add(builtin::MAP_INPUT_RECORDS, outcome.records);
        let mut buffers = ShardBuffers::new(num_shards);
        let mut emitted = 0u64;
        for (shard, pairs) in outcome.shards.into_iter().enumerate() {
            emitted += pairs.len() as u64;
            let pairs: Vec<(M::OutKey, M::OutValue)> = cast_owned(pairs)
                .ok_or_else(|| MrError::Transport("wire pair cast failed".into()))?;
            for pair in pairs {
                buffers.emit(shard, pair);
            }
        }
        if emitted > 0 {
            task_counters.add(builtin::MAP_OUTPUT_RECORDS, emitted);
        }
        stats.map_tasks += 1;
        counters.merge(&task_counters);
        workers.push(buffers);
    }
    Ok(Some(ShardedBuffers::from_workers(num_shards, workers)))
}

/// Runs the reduce phase on a remote transport when every gate holds (the
/// reduce-side analogue of [`map_phase_remote`]: non-local transport, cluster
/// mode, wire-portable reducer spec, `(u32, f64)` groups and `f64` outputs).
/// Returns `Ok(None)` without touching the simulation when a gate misses or
/// the transport fails, so [`reduce_phase_parallel`] runs the partitions
/// in-process instead — partition data is driver-held, so nothing is lost.
fn reduce_phase_remote<R>(
    dfs: &Dfs,
    conf: &JobConf,
    reducer: &R,
    non_empty: &[std::collections::BTreeMap<R::InKey, Vec<R::InValue>>],
    records_in: &[u64],
    counters: &mut Counters,
    stats: &mut JobStats,
) -> Result<Option<Vec<R::Output>>>
where
    R: Reducer,
{
    if conf.transport.is_local() || conf.local_mode {
        return Ok(None);
    }
    if !is_wire_pair::<R::InKey, R::InValue>() || TypeId::of::<R::Output>() != TypeId::of::<f64>() {
        return Ok(None);
    }
    let Some(spec) = reducer.remote_spec() else {
        return Ok(None);
    };

    let mut all_groups: Vec<Vec<(u32, Vec<f64>)>> = Vec::with_capacity(non_empty.len());
    for partition in non_empty {
        let any: &dyn Any = partition;
        let Some(partition) = any.downcast_ref::<std::collections::BTreeMap<u32, Vec<f64>>>()
        else {
            return Ok(None);
        };
        all_groups.push(partition.iter().map(|(&k, v)| (k, v.clone())).collect());
    }

    let mut outcomes = Vec::with_capacity(all_groups.len());
    for groups in &all_groups {
        let request = RemoteReduceRequest {
            spec: &spec,
            groups,
            max_attempts: conf.failure_policy.max_attempts().max(1),
        };
        match conf.transport.remote_reduce(&request) {
            Ok(outcome) => outcomes.push(outcome),
            Err(_) => return Ok(None),
        }
    }

    let cluster = dfs.cluster();
    let preferred: Vec<&[NodeId]> = non_empty.iter().map(|_| &[][..]).collect();
    let plan = plan_nodes(dfs, &preferred)?;
    let heavy = reducer.is_heavy();
    let mut outputs: Vec<R::Output> = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        book_remote_retries(dfs, conf, outcome.retries, counters, stats);
        cluster.charge_task_startup();
        cluster.record_task_on(plan[i])?;
        cluster.charge_reduce_cpu(Phase::Reduce, records_in[i], heavy);

        let emitted = outcome.outputs.len() as u64;
        let out: Vec<R::Output> = cast_owned(outcome.outputs)
            .ok_or_else(|| MrError::Transport("wire output cast failed".into()))?;
        stats.reduce_tasks += 1;
        counters.add(builtin::REDUCE_INPUT_GROUPS, non_empty[i].len() as u64);
        counters.add(builtin::REDUCE_INPUT_RECORDS, records_in[i]);
        if emitted > 0 {
            counters.add(builtin::REDUCE_OUTPUT_RECORDS, emitted);
        }
        outputs.extend(out);
    }
    Ok(Some(outputs))
}

/// The local map phase: a round loop over the pending tasks with
/// deterministic failure arbitration between rounds.
///
/// Each round runs the pending tasks concurrently with implicit polling
/// suppressed, each task streaming into its own [`ShardBuffers`]; after the
/// barrier an armed schedule is arbitrated at the plan's estimated task
/// boundaries (with nothing armed no task can be lost, and the loop runs
/// once).  Surviving tasks commit their buffers/counters into slots indexed by
/// the original task position, so the reassembled [`ShardedBuffers`] merges to
/// the same bits however many rounds it took.  Lost tasks are re-queued
/// (`Retry`, and always for in-memory inputs) or abandoned (`Degrade` on DFS
/// splits, §3.4).
fn map_phase_local<M, C>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    combiner: Option<&C>,
    inputs: &[MapInput],
    counters: &mut Counters,
    stats: &mut JobStats,
) -> Result<MapperShards<M>>
where
    M: Mapper,
    C: Combiner<Key = M::OutKey, Value = M::OutValue>,
{
    let cluster = dfs.cluster();
    let num_shards = conf.num_reducers.max(1);
    if inputs.is_empty() {
        return Ok(ShardedBuffers::empty(num_shards));
    }
    let threads = resolve_parallelism(conf.parallelism);
    let armed = cluster.failure_injection_pending();
    // Apply any failure already due (e.g. fired during job start-up charges)
    // before planning, so the plan sees the true live set.
    if armed && !cluster.arbitrate_failures_at(cluster.now()).is_empty() {
        dfs.reconcile_failures();
    }

    let heavy = mapper.is_heavy();
    let cost = cluster.cost_model().clone();
    let estimate = |input: &MapInput| -> SimDuration {
        let startup = if conf.local_mode {
            SimDuration::ZERO
        } else {
            cost.task_startup
        };
        startup
            + match input {
                MapInput::Split(split) => cost.disk_read(split.length),
                MapInput::Memory(records) => cost.map_cpu(records.len() as u64, heavy),
            }
    };

    type BufferSlots<K, V> = Vec<Option<ShardBuffers<(K, V)>>>;
    let mut buffer_slots: BufferSlots<M::OutKey, M::OutValue> =
        (0..inputs.len()).map(|_| None).collect();
    let mut counter_slots: Vec<Option<Counters>> = (0..inputs.len()).map(|_| None).collect();
    let mut dropped = vec![false; inputs.len()];
    let mut attempts = vec![0u32; inputs.len()];
    let mut pending: Vec<usize> = (0..inputs.len()).collect();
    let mut first_round = true;

    while !pending.is_empty() {
        if !first_round {
            charge_retry_round(dfs, conf, stats);
        }
        first_round = false;
        for &i in &pending {
            attempts[i] += 1;
        }

        let preferred: Vec<&[NodeId]> = pending
            .iter()
            .map(|&i| match &inputs[i] {
                MapInput::Split(split) => split.locations.as_slice(),
                MapInput::Memory(_) => &[][..],
            })
            .collect();
        let plan = plan_nodes(dfs, &preferred)?;
        let boundaries = if armed {
            estimated_boundaries(cluster.now(), pending.iter().map(|&i| estimate(&inputs[i])))
        } else {
            Vec::new()
        };

        let results = {
            let _pause = cluster.suppress_failure_polling();
            indexed_map(
                pending.len(),
                threads,
                || (),
                |j, ()| {
                    run_map_task(
                        dfs,
                        conf,
                        mapper,
                        combiner,
                        &inputs[pending[j]],
                        plan[j],
                        num_shards,
                    )
                },
            )
        };
        let lost = if armed {
            arbitrate_round(dfs, conf, &plan, &boundaries)
        } else {
            vec![false; pending.len()]
        };

        let mut next_pending = Vec::new();
        let mut round_salvaged = 0u64;
        let mut round_lost = false;
        for (j, outcome) in results.into_iter().enumerate() {
            let i = pending[j];
            match outcome? {
                // The task's input blocks were already gone (§3.4 drop).
                None => dropped[i] = true,
                Some((task_counters, buffers)) if !lost[j] => {
                    round_salvaged += buffers.emitted();
                    buffer_slots[i] = Some(buffers);
                    counter_slots[i] = Some(task_counters);
                }
                Some(_) => {
                    round_lost = true;
                    // Lost DFS splits are abandoned under Degrade; in-memory
                    // inputs are driver-held (nothing was lost but work) and
                    // are always re-run.
                    if conf.failure_policy.is_degrade() && matches!(inputs[i], MapInput::Split(_)) {
                        dropped[i] = true;
                    } else {
                        book_task_retry(dfs, conf, attempts[i], counters, stats)?;
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

    for i in 0..inputs.len() {
        stats.map_tasks += 1;
        if dropped[i] {
            stats.lost_map_tasks += 1;
            counters.increment(builtin::LOST_SPLITS);
            stats.fault_log.splits_lost += 1;
        } else if let Some(task_counters) = &counter_slots[i] {
            counters.merge(task_counters);
        }
    }
    let workers: Vec<_> = buffer_slots.into_iter().flatten().collect();
    Ok(ShardedBuffers::from_workers(num_shards, workers))
}

/// One map task on a stable-for-this-round cluster: no retry loop, no
/// survival check (the round loop decides survival by arbitration after the
/// barrier).  The task's pairs are routed straight into its own
/// [`ShardBuffers`] with the same partitioner arithmetic the reduce-side
/// shuffle uses, and returned with the per-task counters.  Without a combiner
/// the `MapContext` sinks each pair into the shard buckets *as it is emitted*
/// — no per-task all-pairs vector ever exists; a combiner still buffers, since
/// it must see the task's full output before routing.  Returns `None` when the
/// task's input blocks were already lost and the failure policy tolerates
/// dropping them; whatever the task emitted before that abort (or before a
/// hard error) is dropped with its buffers, so an aborted task contributes
/// exactly nothing.
fn run_map_task<M, C>(
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    combiner: Option<&C>,
    input: &MapInput,
    node: NodeId,
    num_shards: usize,
) -> Result<Option<MapTaskOutput<M>>>
where
    M: Mapper,
    C: Combiner<Key = M::OutKey, Value = M::OutValue>,
{
    let cluster = dfs.cluster();
    if !conf.local_mode {
        cluster.charge_task_startup();
        cluster.record_task_on(node)?;
    }

    let mut ctx = if combiner.is_none() {
        MapContext::sharded(ShardBuffers::new(num_shards), num_shards)
    } else {
        MapContext::new()
    };
    let mut records = 0u64;
    let read_result: Result<()> = (|| {
        match input {
            MapInput::Split(split) => {
                let mut reader = dfs.open_split(split.clone(), Phase::Load);
                while let Some((offset, line)) = reader.next_line()? {
                    mapper.map(offset, &line, &mut ctx);
                    records += 1;
                }
            }
            MapInput::Memory(lines) => {
                for (offset, line) in lines {
                    mapper.map(*offset, line, &mut ctx);
                    records += 1;
                }
            }
        }
        Ok(())
    })();
    match read_result {
        Ok(()) => {}
        Err(MrError::Dfs(earl_dfs::DfsError::BlockUnavailable(_)))
            if conf.failure_policy.is_degrade() =>
        {
            return Ok(None)
        }
        Err(e) => return Err(e),
    }

    cluster.charge_map_cpu(records, mapper.is_heavy());

    let mut task_counters = Counters::new();
    task_counters.add(builtin::MAP_INPUT_RECORDS, records);
    let buffers = match combiner {
        None => {
            // Map-side shuffle already happened inside `emit`.
            let (buffers, emitted) = ctx.into_shards();
            task_counters.merge(&emitted);
            buffers
        }
        Some(combiner) => {
            let (pairs, emitted) = ctx.into_parts();
            task_counters.merge(&emitted);
            let combined = apply_combiner(pairs, combiner);
            task_counters.add(builtin::COMBINE_OUTPUT_RECORDS, combined.len() as u64);
            // Route the combined pairs to their reduce shards now — these
            // pairs are never concatenated with any other task's.
            let mut buffers = ShardBuffers::new(num_shards);
            for (key, value) in combined {
                let shard = HashPartitioner.partition(&key, num_shards);
                buffers.emit(shard, (key, value));
            }
            buffers
        }
    };
    Ok(Some((task_counters, buffers)))
}

/// Reduces all non-empty partitions concurrently across `threads` scoped
/// workers and concatenates their outputs in partition order.  While the
/// failure injector can still fire, each round is arbitrated like the map
/// phase; lost partitions are **always** re-run (under either policy — only
/// map-side sample loss is tolerated by §3.4; the partition data is
/// driver-held and still exists).
fn reduce_phase_parallel<R>(
    dfs: &Dfs,
    conf: &JobConf,
    reducer: &R,
    partitions: Vec<std::collections::BTreeMap<R::InKey, Vec<R::InValue>>>,
    counters: &mut Counters,
    stats: &mut JobStats,
    threads: usize,
) -> Result<Vec<R::Output>>
where
    R: Reducer,
{
    let non_empty: Vec<_> = partitions.into_iter().filter(|p| !p.is_empty()).collect();
    if non_empty.is_empty() {
        return Ok(Vec::new());
    }
    let cluster = dfs.cluster();
    let armed = cluster.failure_injection_pending();
    let records_in: Vec<u64> = non_empty
        .iter()
        .map(|p| p.values().map(|v| v.len() as u64).sum())
        .collect();
    if !armed {
        if let Some(outputs) =
            reduce_phase_remote(dfs, conf, reducer, &non_empty, &records_in, counters, stats)?
        {
            return Ok(outputs);
        }
    }
    let cost = cluster.cost_model().clone();
    let heavy = reducer.is_heavy();
    let estimate = |records: u64| -> SimDuration {
        let startup = if conf.local_mode {
            SimDuration::ZERO
        } else {
            cost.task_startup
        };
        startup + cost.reduce_cpu(records, heavy)
    };

    type ReduceSlot<O> = (Vec<O>, Counters, u64, u64);
    let mut slots: Vec<Option<ReduceSlot<R::Output>>> =
        (0..non_empty.len()).map(|_| None).collect();
    let mut attempts = vec![0u32; non_empty.len()];
    let mut pending: Vec<usize> = (0..non_empty.len()).collect();
    let mut first_round = true;

    while !pending.is_empty() {
        if !first_round {
            charge_retry_round(dfs, conf, stats);
        }
        first_round = false;
        for &i in &pending {
            attempts[i] += 1;
        }

        let preferred: Vec<&[NodeId]> = pending.iter().map(|_| &[][..]).collect();
        let plan = plan_nodes(dfs, &preferred)?;
        let boundaries = if armed {
            estimated_boundaries(
                cluster.now(),
                pending.iter().map(|&i| estimate(records_in[i])),
            )
        } else {
            Vec::new()
        };

        let results = {
            let _pause = cluster.suppress_failure_polling();
            indexed_map(
                pending.len(),
                threads,
                || (),
                |j, ()| -> Result<_> {
                    let i = pending[j];
                    let partition = &non_empty[i];
                    if !conf.local_mode {
                        cluster.charge_task_startup();
                        cluster.record_task_on(plan[j])?;
                    }
                    let mut ctx = ReduceContext::new();
                    for (key, values) in partition {
                        reducer.reduce(key, values, &mut ctx);
                    }
                    cluster.charge_reduce_cpu(Phase::Reduce, records_in[i], reducer.is_heavy());
                    let (outputs, task_counters) = ctx.into_parts();
                    Ok((
                        outputs,
                        task_counters,
                        partition.len() as u64,
                        records_in[i],
                    ))
                },
            )
        };
        let lost = if armed {
            arbitrate_round(dfs, conf, &plan, &boundaries)
        } else {
            vec![false; pending.len()]
        };

        let mut next_pending = Vec::new();
        for (j, result) in results.into_iter().enumerate() {
            let i = pending[j];
            let value = result?;
            if lost[j] {
                book_task_retry(dfs, conf, attempts[i], counters, stats)?;
                next_pending.push(i);
            } else {
                slots[i] = Some(value);
            }
        }
        pending = next_pending;
    }

    let mut outputs = Vec::new();
    for slot in slots {
        let (out, task_counters, groups, records) = slot.expect("every partition was reduced");
        stats.reduce_tasks += 1;
        counters.add(builtin::REDUCE_INPUT_GROUPS, groups);
        counters.add(builtin::REDUCE_INPUT_RECORDS, records);
        counters.merge(&task_counters);
        outputs.extend(out);
    }
    Ok(outputs)
}

fn node_alive(dfs: &Dfs, node: NodeId) -> bool {
    dfs.cluster()
        .node(node)
        .map(|n| n.is_available())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contrib::{
        CountCombiner, MeanReducer, TokenCountMapper, ValueExtractMapper, WordCountReducer,
    };
    use earl_cluster::{Cluster, CostModel, FailureEvent, FailureSchedule, SimInstant};
    use earl_dfs::DfsConfig;

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
    fn combiner_reduces_shuffle_volume_without_changing_results() {
        let dfs = test_dfs(2, true);
        let lines: Vec<String> = (0..50)
            .map(|i| format!("k{} k{} k{}", i % 3, i % 3, i % 5))
            .collect();
        dfs.write_lines("/c", &lines).unwrap();
        let conf = JobConf::new("wc", InputSource::Path("/c".into())).with_reducers(2);
        let plain = run_job(&dfs, &conf, &TokenCountMapper, &WordCountReducer).unwrap();
        let combined = run_job_with_combiner(
            &dfs,
            &conf,
            &TokenCountMapper,
            &WordCountReducer,
            &CountCombiner,
        )
        .unwrap();
        let mut a = plain.outputs.clone();
        let mut b = combined.outputs.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "combiner must not change results");
        assert!(
            combined.counters.get(builtin::COMBINE_OUTPUT_RECORDS) < plain.stats.shuffle_records,
            "combiner must shrink intermediate data"
        );
    }

    #[test]
    fn memory_input_runs_without_dfs_reads() {
        let dfs = test_dfs(1, false);
        let conf = JobConf::new(
            "mean",
            InputSource::from_lines((1..=100).map(|i| i.to_string())),
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
    fn local_mode_is_cheaper_than_cluster_mode() {
        let dfs = test_dfs(3, false);
        let lines: Vec<String> = (0..200).map(|i| i.to_string()).collect();
        dfs.write_lines("/m", &lines).unwrap();

        dfs.cluster().reset_accounting();
        let cluster_conf = JobConf::new("mean", InputSource::Path("/m".into()));
        run_job(&dfs, &cluster_conf, &ValueExtractMapper, &MeanReducer).unwrap();
        let cluster_time = dfs.cluster().elapsed();

        dfs.cluster().reset_accounting();
        let local_conf = JobConf::new("mean", InputSource::Path("/m".into())).local();
        run_job(&dfs, &local_conf, &ValueExtractMapper, &MeanReducer).unwrap();
        let local_time = dfs.cluster().elapsed();

        assert!(
            local_time < cluster_time,
            "local mode must avoid job/task start-up costs: {local_time} vs {cluster_time}"
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
    fn output_path_charges_write_cost() {
        let dfs = test_dfs(2, false);
        dfs.write_lines("/in", (1..=100).map(|i| i.to_string()))
            .unwrap();
        let before = dfs
            .cluster()
            .metrics()
            .snapshot()
            .phase(Phase::Output)
            .disk_bytes_written;
        let conf = JobConf::new("mean", InputSource::Path("/in".into())).with_output_path("/out");
        run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();
        let after = dfs
            .cluster()
            .metrics()
            .snapshot()
            .phase(Phase::Output)
            .disk_bytes_written;
        assert!(after > before);
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
}
