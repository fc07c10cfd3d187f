//! Task transports: where a job's map tasks and reduce partitions execute.
//!
//! The runner plans, charges and accounts every task on the simulated cluster
//! in one task loop regardless of transport; the transport only decides
//! *which process runs the user compute* a task's body then charges for:
//!
//! * [`InProcess`] (the default) — tasks run on the caller's threads, exactly
//!   as the engine always has.
//! * A remote transport (`earl-net`'s `TcpTransport`) — tasks whose mapper and
//!   reducer declare a wire-portable [`TaskSpec`] are shipped to real worker
//!   processes over TCP.  Only compact payloads travel: record *offsets* into
//!   data the workers were provisioned with out of band (map side) and shuffle
//!   shard pairs / per-group outputs (reduce side) — never raw input data at
//!   job time.
//!
//! A phase makes all of its remote calls before its first cluster charge and
//! keeps their outcomes only if every call succeeded and every outcome is
//! well-formed; otherwise its tasks compute in-process, the simulation
//! untouched.  Because every simulated charge stays with the coordinator and
//! the wire carries the same pairs in the same order the in-process engine
//! would emit, a remote run's `JobResult` — and the `EarlReport` built from
//! it — is bit-identical to the in-process run, including `sim_time` and byte
//! counters.  `docs/WIRE_PROTOCOL.md` specifies the frame format; this module
//! only defines the transport-neutral request/outcome types.

use std::fmt;
use std::sync::Arc;

use crate::error::MrError;
use crate::Result;

/// A wire-portable description of an EARL task: enough for a remote worker to
/// reconstruct the task (and therefore its mapper/reducer) from a registry of
/// known task names.  Tasks whose semantics cannot be captured this way simply
/// do not provide a spec and keep executing in-process.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskSpec {
    /// Registry name of the task (e.g. `"mean"`, `"quantile"`).
    pub name: String,
    /// Numeric parameters of the task (e.g. the quantile level), empty for
    /// parameter-free tasks.
    pub params: Vec<f64>,
}

impl TaskSpec {
    /// A parameter-free spec.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: Vec::new(),
        }
    }
}

/// One remote map task: run the spec's mapper over the records addressed by
/// `offsets` (resolved against data provisioned under `source_path`), routing
/// output pairs into `num_shards` reduce shards.
#[derive(Debug)]
pub struct RemoteMapRequest<'a> {
    /// The task to run.
    pub spec: &'a TaskSpec,
    /// Provisioned dataset the offsets address.
    pub source_path: &'a str,
    /// Line-start byte offsets of the task's input records, in record order.
    pub offsets: &'a [u64],
    /// Number of reduce shards to partition output pairs into.
    pub num_shards: usize,
    /// Maximum executions of any one chunk of this task before the transport
    /// gives up (mirrors [`FailurePolicy::max_attempts`]).
    ///
    /// [`FailurePolicy::max_attempts`]: crate::FailurePolicy::max_attempts
    pub max_attempts: u32,
}

/// What a remote map task produced: the per-shard intermediate pairs in
/// emission order, plus bookkeeping the coordinator folds into the job's
/// counters and fault log.
#[derive(Debug, Clone)]
pub struct RemoteMapOutcome {
    /// Intermediate pairs per reduce shard, in the exact order a single
    /// in-process pass over the records would have emitted them.  Exactly
    /// [`RemoteMapRequest::num_shards`] vectors: the runner declines an
    /// outcome of any other shape and maps in-process.
    pub shards: Vec<Vec<(u32, f64)>>,
    /// Input records consumed (drives the coordinator's CPU charge and the
    /// `MAP_INPUT_RECORDS` counter).
    pub records: u64,
    /// Chunk re-dispatches performed after *reported* worker deaths (each is
    /// booked as one task retry by the runner).  Transparent recoveries — a
    /// transport that redials, re-provisions and resends to the same worker
    /// within one call — must NOT be counted here: they are invisible to the
    /// simulation, which is what keeps fault-free-looking remote reports
    /// bit-identical to in-process ones.
    pub retries: u64,
}

/// Transport-neutral wire form of a count-based bootstrap section summary —
/// `earl-bootstrap`'s `LinearSections`/`KarySections` flattened to plain data
/// so the transport layer can ship them without depending on the statistics
/// crate.  Every `f64` travels bit-for-bit (the codec uses `to_bits`), so a
/// worker rebuilding the summary replicates bit-identically to the
/// coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum SectionSummary {
    /// Summary of a scalar linear statistic's base sample.
    Linear {
        /// Items summarised (section lengths sum to this).
        total_items: u64,
        /// Per-section `(len, mean, within-section sd)`, in section order.
        sections: Vec<(u64, f64, f64)>,
    },
    /// Summary of a k-ary linear statistic's base sample.
    Kary {
        /// Values per record in the interleaved sample.
        stride: u32,
        /// Components per record (`k`); means/factors carry exactly this many
        /// entries per dimension.
        arity: u32,
        /// Records summarised (section lengths sum to this).
        total_records: u64,
        /// Per-section `(len, component means, Cholesky factor)`: `means` has
        /// `arity` entries, `chol` is the lower triangle in row-major order
        /// (`arity·(arity+1)/2` entries — row `i` contributes `i + 1`).
        sections: Vec<(u64, Vec<f64>, Vec<f64>)>,
    },
}

impl SectionSummary {
    /// Number of sections — the O(√n) size driver of the payload.
    pub fn num_sections(&self) -> usize {
        match self {
            SectionSummary::Linear { sections, .. } => sections.len(),
            SectionSummary::Kary { sections, .. } => sections.len(),
        }
    }
}

/// One remote batch of count-based bootstrap replicates: evaluate replicates
/// `b ∈ [b_start, b_start + b_count)` of the spec's statistic from the section
/// summary provisioned under `(path, version)`.  Replicate `b` is a pure
/// function of `(summary, seed, b, size)`, so any split of a batch across
/// workers — or a local fallback — produces the same bits.
#[derive(Debug)]
pub struct RemoteSectionsRequest<'a> {
    /// The task whose linear/k-ary form evaluates the replicates.
    pub spec: &'a TaskSpec,
    /// Logical path the summary is provisioned under (distinct from any raw
    /// dataset path; by convention `"<source>#sections"`).
    pub path: &'a str,
    /// Monotone identity of the summary at `path`: the transport re-provisions
    /// workers only when `(path, version)` changes, so a B-growth loop reusing
    /// one summary ships it exactly once.
    pub version: u64,
    /// The summary itself (consulted only when `(path, version)` is new).
    pub summary: &'a SectionSummary,
    /// Base RNG seed of the replicate streams.
    pub seed: u64,
    /// First replicate index of the batch.
    pub b_start: u64,
    /// Number of replicates requested.
    pub b_count: u64,
    /// Resample size in records.
    pub size: u64,
    /// Maximum executions of any one chunk of the batch before the transport
    /// gives up (mirrors [`FailurePolicy::max_attempts`]).
    ///
    /// [`FailurePolicy::max_attempts`]: crate::FailurePolicy::max_attempts
    pub max_attempts: u32,
}

/// What a remote replicate batch produced.
#[derive(Debug, Clone)]
pub struct RemoteSectionsOutcome {
    /// Replicates in `b` order, bit-identical to local evaluation.
    pub replicates: Vec<f64>,
    /// Chunk re-dispatches performed after *reported* worker deaths.  Like
    /// [`RemoteMapOutcome::retries`], transparent same-worker recoveries are
    /// excluded.
    pub retries: u64,
}

/// One remote reduce partition: run the spec's reducer over `groups` (already
/// grouped and key-ordered by the coordinator's shuffle).
#[derive(Debug)]
pub struct RemoteReduceRequest<'a> {
    /// The task to run.
    pub spec: &'a TaskSpec,
    /// `(key, values)` groups in ascending key order, values in shuffle
    /// emission order.
    pub groups: &'a [(u32, Vec<f64>)],
    /// Maximum executions of the partition before the transport gives up.
    pub max_attempts: u32,
}

/// What a remote reduce partition produced.
#[derive(Debug, Clone)]
pub struct RemoteReduceOutcome {
    /// Reducer outputs in group order, one per group: the runner declines an
    /// outcome of any other length and reduces in-process.
    pub outputs: Vec<f64>,
    /// Re-dispatches performed after *reported* worker deaths.  Like
    /// [`RemoteMapOutcome::retries`], transparent same-worker recoveries are
    /// excluded.
    pub retries: u64,
}

/// Where the user compute of map tasks and reduce partitions runs.
///
/// Implementations must be deterministic in *content*: the pairs/outputs they
/// return must match what the in-process engine would produce for the same
/// inputs, in the same order (real-world wall-clock and retry behaviour are
/// free to vary — they are invisible to the simulated accounting except
/// through the explicit `retries` field and externally reported node deaths).
/// An outcome stands in for the compute of one task only; the runner places,
/// charges and counts that task itself, exactly as if it had computed
/// in-process.  An `Err` (or a malformed outcome) from any call of a phase
/// makes the runner discard the phase's outcomes and compute in-process.
pub trait TaskTransport: fmt::Debug + Send + Sync {
    /// Whether tasks execute in the coordinator process.  Local transports
    /// never receive `remote_map`/`remote_reduce` calls.
    fn is_local(&self) -> bool {
        true
    }

    /// Executes one map task remotely.
    fn remote_map(&self, request: &RemoteMapRequest<'_>) -> Result<RemoteMapOutcome> {
        let _ = request;
        Err(MrError::Transport(
            "this transport cannot execute remote map tasks".into(),
        ))
    }

    /// Executes one reduce partition remotely.
    fn remote_reduce(&self, request: &RemoteReduceRequest<'_>) -> Result<RemoteReduceOutcome> {
        let _ = request;
        Err(MrError::Transport(
            "this transport cannot execute remote reduce partitions".into(),
        ))
    }

    /// Whether workers hold the raw records of `path`, i.e. whether
    /// `remote_map` calls addressing offsets into `path` can succeed.  A
    /// summary-only deployment (workers provisioned with section summaries but
    /// never the records) answers `false`, letting the runner skip doomed
    /// remote map calls deterministically and keep that phase in-process.
    /// Local transports trivially serve everything the coordinator holds.
    fn serves_records(&self, path: &str) -> bool {
        let _ = path;
        true
    }

    /// Evaluates one batch of count-based bootstrap replicates remotely.
    fn remote_sections(
        &self,
        request: &RemoteSectionsRequest<'_>,
    ) -> Result<RemoteSectionsOutcome> {
        let _ = request;
        Err(MrError::Transport(
            "this transport cannot evaluate remote section replicates".into(),
        ))
    }
}

/// The default transport: every task runs on the caller's threads, exactly as
/// the engine always has.  Carries no state and never receives remote calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcess;

impl TaskTransport for InProcess {}

/// The default transport handle used by [`JobConf`](crate::JobConf).
pub fn default_transport() -> Arc<dyn TaskTransport> {
    Arc::new(InProcess)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_is_local_and_refuses_remote_calls() {
        let t = InProcess;
        assert!(t.is_local());
        let spec = TaskSpec::named("mean");
        let req = RemoteMapRequest {
            spec: &spec,
            source_path: "/data",
            offsets: &[0, 4],
            num_shards: 1,
            max_attempts: 4,
        };
        assert!(matches!(t.remote_map(&req), Err(MrError::Transport(_))));
        let req = RemoteReduceRequest {
            spec: &spec,
            groups: &[(0, vec![1.0])],
            max_attempts: 4,
        };
        assert!(matches!(t.remote_reduce(&req), Err(MrError::Transport(_))));
        assert!(t.serves_records("/data"), "local serves everything");
        let summary = SectionSummary::Linear {
            total_items: 2,
            sections: vec![(2, 1.0, 0.5)],
        };
        let req = RemoteSectionsRequest {
            spec: &spec,
            path: "/data#sections",
            version: 1,
            summary: &summary,
            seed: 7,
            b_start: 0,
            b_count: 4,
            size: 2,
            max_attempts: 4,
        };
        assert!(matches!(
            t.remote_sections(&req),
            Err(MrError::Transport(_))
        ));
    }

    #[test]
    fn task_spec_named_is_parameter_free() {
        let spec = TaskSpec::named("median");
        assert_eq!(spec.name, "median");
        assert!(spec.params.is_empty());
        assert_eq!(spec, spec.clone());
    }
}
