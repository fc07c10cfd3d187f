//! Worker-side task registry: reconstructing an [`EarlTask`] from its wire
//! spec and running the *real* mapper/reducer on it.
//!
//! [`earl_core::task::EarlTask`] is not object-safe (it has an associated
//! estimator `State`), so tasks cannot travel as trait objects.  Instead a
//! task whose `wire_spec()` returns `Some` names itself here, and the worker
//! rebuilds the concrete task from `(name, params)`.  Both sides of the wire
//! execute the same `TaskMapper`/`TaskReducer`/`HashPartitioner` code paths,
//! which is what makes remote output byte-for-byte equal to in-process output.
//!
//! This enum is the authoritative list of wire-portable tasks — for workers
//! and for `earl-serve` admission alike, so "admissible there" and "runnable
//! here" cannot diverge; adding a task here (plus its `wire_spec()` override in
//! `earl-core`) is all it takes to run it on a real cluster.

use earl_bootstrap::parallel::ShardedBuffers;
use earl_bootstrap::rng::replicate_rng;
use earl_bootstrap::{
    KaryComponents, KaryForm, KarySections, LinearForm, LinearSections, MAX_KARY_COMPONENTS,
};
use earl_core::driver::{TaskMapper, TaskReducer};
use earl_core::task::EarlTask;
use earl_core::tasks::{
    CountTask, MaxTask, MeanTask, MedianTask, MinTask, QuantileTask, StdDevTask, SumTask,
    VarianceTask,
};
use earl_core::{EarlDriver, EarlReport, EarlUpdate, Progress};
use earl_mapreduce::{MapContext, Mapper, ReduceContext, Reducer, SectionSummary, TaskSpec};

/// Hard ceiling on the replicates one `SectionTask` may request, so a corrupt
/// or hostile `b_count` cannot drive an unbounded evaluation loop.  Far above
/// any real batch (the coordinator fans out chunks of at most a few thousand).
const MAX_REPLICATES_PER_CALL: u64 = 1 << 20;

/// A count-based section summary rebuilt worker-side from its wire form —
/// the O(√n) state a near-stateless worker holds instead of raw records.
#[derive(Debug, Clone)]
pub enum StoredSections {
    /// Scalar linear summary ([`LinearSections`]).
    Linear(LinearSections),
    /// K-ary summary with per-section Cholesky factors ([`KarySections`]).
    Kary(KarySections),
}

impl StoredSections {
    /// Rebuilds the statistics-layer summary from its transport-neutral wire
    /// form, re-validating the structural invariants (`from_parts` re-checks
    /// section-length sums, arity and stride), so a malformed provision is
    /// refused at store time rather than poisoning later replicate calls.
    pub fn from_summary(summary: &SectionSummary) -> Result<Self, String> {
        match summary {
            SectionSummary::Linear {
                total_items,
                sections,
            } => LinearSections::from_parts(*total_items, sections.iter().copied())
                .map(StoredSections::Linear)
                .map_err(|e| e.to_string()),
            SectionSummary::Kary {
                stride,
                arity,
                total_records,
                sections,
            } => {
                let arity_us = *arity as usize;
                if arity_us == 0 || arity_us > MAX_KARY_COMPONENTS {
                    return Err(format!(
                        "arity {arity} is outside 1..={MAX_KARY_COMPONENTS}"
                    ));
                }
                let tri = arity_us * (arity_us + 1) / 2;
                let mut parts = Vec::with_capacity(sections.len());
                for (len, means, chol) in sections {
                    if means.len() != arity_us || chol.len() != tri {
                        return Err(format!(
                            "section shape ({} means, {} factors) disagrees with arity {arity}",
                            means.len(),
                            chol.len()
                        ));
                    }
                    let mut mean: KaryComponents = [0.0; MAX_KARY_COMPONENTS];
                    mean[..arity_us].copy_from_slice(means);
                    // Unpack the row-major lower triangle (row i carries i+1
                    // entries) back into the padded square factor.
                    let mut factor = [[0.0; MAX_KARY_COMPONENTS]; MAX_KARY_COMPONENTS];
                    let mut at = 0;
                    for (i, row) in factor.iter_mut().enumerate().take(arity_us) {
                        row[..=i].copy_from_slice(&chol[at..at + i + 1]);
                        at += i + 1;
                    }
                    parts.push((*len, mean, factor));
                }
                KarySections::from_parts(*stride as usize, arity_us, *total_records, parts)
                    .map(StoredSections::Kary)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// Number of sections held.
    pub fn num_sections(&self) -> usize {
        match self {
            StoredSections::Linear(s) => s.num_sections(),
            StoredSections::Kary(s) => s.num_sections(),
        }
    }
}

/// A task reconstructed from a [`TaskSpec`], ready to execute worker-side.
#[derive(Debug, Clone, PartialEq)]
pub enum WireTask {
    /// Arithmetic mean ([`MeanTask`]).
    Mean,
    /// Sum ([`SumTask`]).
    Sum,
    /// Non-empty record count ([`CountTask`]).
    Count,
    /// Population variance ([`VarianceTask`]).
    Variance,
    /// Population standard deviation ([`StdDevTask`]).
    StdDev,
    /// Median ([`MedianTask`]).
    Median,
    /// Minimum ([`MinTask`]).
    Min,
    /// Maximum ([`MaxTask`]).
    Max,
    /// Quantile at the given level ([`QuantileTask`]).
    Quantile(f64),
}

/// The one variant → concrete [`EarlTask`] table: evaluates `$body` with
/// `$task` bound to the concrete task `$wire` names.  `EarlTask` is not
/// object-safe, so each arm instantiates `$body` for its own task type.
macro_rules! with_task {
    ($wire:expr, $task:ident => $body:expr) => {
        match $wire {
            WireTask::Mean => with_task!(@bind $task = MeanTask, $body),
            WireTask::Sum => with_task!(@bind $task = SumTask, $body),
            WireTask::Count => with_task!(@bind $task = CountTask, $body),
            WireTask::Variance => with_task!(@bind $task = VarianceTask, $body),
            WireTask::StdDev => with_task!(@bind $task = StdDevTask, $body),
            WireTask::Median => with_task!(@bind $task = MedianTask, $body),
            WireTask::Min => with_task!(@bind $task = MinTask, $body),
            WireTask::Max => with_task!(@bind $task = MaxTask, $body),
            WireTask::Quantile(q) => with_task!(@bind $task = QuantileTask::new(*q), $body),
        }
    };
    (@bind $task:ident = $concrete:expr, $body:expr) => {{
        let $task = &$concrete;
        $body
    }};
}

impl WireTask {
    /// Reconstructs a task from its wire spec, or `None` for an unknown name,
    /// a malformed parameter list or a quantile level outside `0 ≤ q ≤ 1`
    /// (NaN included).  Specs arrive from outside the program — in wire frames
    /// at a worker, in job requests at the service — so this is where they are
    /// checked; [`QuantileTask::new`] would silently clamp.
    pub fn from_spec(spec: &TaskSpec) -> Option<Self> {
        match (spec.name.as_str(), spec.params.as_slice()) {
            ("mean", []) => Some(WireTask::Mean),
            ("sum", []) => Some(WireTask::Sum),
            ("count", []) => Some(WireTask::Count),
            ("variance", []) => Some(WireTask::Variance),
            ("stddev", []) => Some(WireTask::StdDev),
            ("median", []) => Some(WireTask::Median),
            ("min", []) => Some(WireTask::Min),
            ("max", []) => Some(WireTask::Max),
            ("quantile", [q]) if (0.0..=1.0).contains(q) => Some(WireTask::Quantile(*q)),
            _ => None,
        }
    }

    /// Runs the task's real mapper over `(offset, line)` records, partitioning
    /// emitted pairs into `num_shards` shard vectors exactly as the in-process
    /// engine does.  Returns per-shard pairs in emission order.
    pub fn run_map(&self, records: &[(u64, &str)], num_shards: usize) -> Vec<Vec<(u32, f64)>> {
        with_task!(self, task => map_with(task, records, num_shards))
    }

    /// Runs the task's real reducer over `(key, values)` groups, returning one
    /// output list in group order.
    pub fn run_reduce(&self, groups: &[(u32, Vec<f64>)]) -> Vec<f64> {
        with_task!(self, task => reduce_with(task, groups))
    }

    /// Runs the task through `driver` with progressive delivery — the
    /// coordinator-side entry `earl-serve` admits jobs through: `observer`
    /// sees one [`EarlUpdate`] per iteration and may cancel at any boundary.
    pub fn run_with_progress(
        &self,
        driver: &EarlDriver,
        path: &str,
        observer: &mut dyn FnMut(EarlUpdate) -> Progress,
    ) -> earl_core::Result<EarlReport> {
        with_task!(self, task => driver.run_with_progress(path, task, observer))
    }

    /// The task's scalar linear form, when its statistic declares one.
    fn linear_form(&self) -> Option<LinearForm> {
        with_task!(self, task => task.linear_form())
    }

    /// The task's k-ary form, when its statistic declares one.
    fn kary_form(&self) -> Option<KaryForm> {
        with_task!(self, task => task.kary_form())
    }

    /// Evaluates count-based bootstrap replicates `b ∈ [b_start, b_start +
    /// b_count)` of this task's statistic from a stored summary.  Replicate
    /// `b` draws from the stream `replicate_rng(seed, b)` — exactly the stream
    /// the coordinator's local kernel would use — so the result is
    /// bit-identical to in-process evaluation regardless of how a batch is
    /// split across workers.
    pub fn run_sections(
        &self,
        sections: &StoredSections,
        seed: u64,
        b_start: u64,
        b_count: u64,
        size: u64,
    ) -> Result<Vec<f64>, String> {
        if b_count > MAX_REPLICATES_PER_CALL {
            return Err(format!(
                "{b_count} replicates exceed the per-call limit of {MAX_REPLICATES_PER_CALL}"
            ));
        }
        let size = usize::try_from(size).map_err(|_| format!("resample size {size} overflows"))?;
        let mut out = Vec::with_capacity(b_count as usize);
        match sections {
            StoredSections::Linear(s) => {
                let form = self
                    .linear_form()
                    .ok_or_else(|| format!("task {self:?} has no linear form"))?;
                for i in 0..b_count {
                    let mut rng = replicate_rng(seed, b_start + i);
                    out.push(s.replicate(&mut rng, size, form));
                }
            }
            StoredSections::Kary(s) => {
                let form = self
                    .kary_form()
                    .ok_or_else(|| format!("task {self:?} has no k-ary form"))?;
                if form.arity() != s.arity() || form.stride() != s.stride() {
                    return Err(format!(
                        "summary shape (arity {}, stride {}) disagrees with the task's form \
                         (arity {}, stride {})",
                        s.arity(),
                        s.stride(),
                        form.arity(),
                        form.stride()
                    ));
                }
                for i in 0..b_count {
                    let mut rng = replicate_rng(seed, b_start + i);
                    out.push(s.replicate(&mut rng, size, &form));
                }
            }
        }
        Ok(out)
    }
}

fn map_with<T: EarlTask>(
    task: &T,
    records: &[(u64, &str)],
    num_shards: usize,
) -> Vec<Vec<(u32, f64)>> {
    let mapper = TaskMapper::new(task);
    let mut ctx = MapContext::sharded(num_shards);
    for &(offset, line) in records {
        mapper.map(offset, line, &mut ctx);
    }
    into_shard_vecs(ctx)
}

/// A map task's shards, each in emission order.  Not generic over the task,
/// so the merge is compiled once rather than once per registry task.
fn into_shard_vecs(ctx: MapContext<u32, f64>) -> Vec<Vec<(u32, f64)>> {
    let (buffers, _counters) = ctx.into_shards();
    ShardedBuffers::from_workers(buffers.num_shards(), vec![buffers]).merge(1, |_, pairs| pairs)
}

fn reduce_with<T: EarlTask>(task: &T, groups: &[(u32, Vec<f64>)]) -> Vec<f64> {
    let reducer = TaskReducer::new(task);
    let mut ctx = ReduceContext::new();
    for (key, values) in groups {
        reducer.reduce(key, values, &mut ctx);
    }
    let (outputs, _counters) = ctx.into_parts();
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_mapreduce::{HashPartitioner, Partitioner};

    #[test]
    fn specs_round_trip_through_the_registry() {
        let known = [
            "mean", "sum", "count", "variance", "stddev", "median", "min", "max",
        ];
        for name in known {
            assert!(
                WireTask::from_spec(&TaskSpec::named(name)).is_some(),
                "{name} should resolve"
            );
        }
        assert_eq!(
            WireTask::from_spec(&TaskSpec {
                name: "quantile".into(),
                params: vec![0.9],
            }),
            Some(WireTask::Quantile(0.9))
        );
        assert!(WireTask::from_spec(&TaskSpec::named("quantile")).is_none());
        assert!(WireTask::from_spec(&TaskSpec::named("no-such-task")).is_none());
        let mean_with_param = TaskSpec {
            name: "mean".into(),
            params: vec![1.0],
        };
        assert!(WireTask::from_spec(&mean_with_param).is_none());
    }

    #[test]
    fn out_of_range_quantile_levels_are_refused() {
        let quantile = |q: f64| {
            WireTask::from_spec(&TaskSpec {
                name: "quantile".into(),
                params: vec![q],
            })
        };
        for q in [f64::NAN, -0.1, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(quantile(q), None, "level {q} must not resolve");
        }
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(quantile(q), Some(WireTask::Quantile(q)));
        }
    }

    #[test]
    fn every_core_task_wire_spec_resolves() {
        let specs = [
            MeanTask.wire_spec(),
            SumTask.wire_spec(),
            CountTask.wire_spec(),
            VarianceTask.wire_spec(),
            StdDevTask.wire_spec(),
            MedianTask.wire_spec(),
            MinTask.wire_spec(),
            MaxTask.wire_spec(),
            QuantileTask::new(0.5).wire_spec(),
        ];
        for spec in specs {
            let spec = spec.expect("task advertises a wire spec");
            assert!(
                WireTask::from_spec(&spec).is_some(),
                "spec {spec:?} must resolve in the registry"
            );
        }
    }

    #[test]
    fn map_matches_the_in_process_mapper() {
        let records = [(0u64, "1.5"), (4, "2.5"), (8, "not a number"), (22, "3.0")];
        let shards = WireTask::Mean.run_map(&records, 2);
        assert_eq!(shards.len(), 2);
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, 3, "three parsable records emit one pair each");
        // All pairs share key 0 so they land in a single shard deterministically.
        let expected_shard = HashPartitioner.partition(&0u32, 2);
        assert_eq!(shards[expected_shard].len(), 3);
        let values: Vec<f64> = shards[expected_shard].iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![1.5, 2.5, 3.0], "emission order preserved");
    }

    #[test]
    fn reduce_matches_the_in_process_reducer() {
        let groups = vec![(0u32, vec![1.0, 2.0, 3.0])];
        assert_eq!(WireTask::Mean.run_reduce(&groups), vec![2.0]);
        assert_eq!(WireTask::Sum.run_reduce(&groups), vec![6.0]);
        assert_eq!(WireTask::Max.run_reduce(&groups), vec![3.0]);
        assert_eq!(WireTask::Quantile(0.5).run_reduce(&groups), vec![2.0]);
    }

    #[test]
    fn section_replicates_match_direct_kernel_evaluation_bit_for_bit() {
        let data: Vec<f64> = (0..200).map(|i| (i % 17) as f64 * 0.75 - 3.0).collect();
        let built = LinearSections::build(&data);
        let summary = SectionSummary::Linear {
            total_items: built.total_items(),
            sections: built.parts().collect(),
        };
        let stored = StoredSections::from_summary(&summary).unwrap();
        assert_eq!(stored.num_sections(), built.num_sections());
        let got = WireTask::Mean
            .run_sections(&stored, 0xEA21, 5, 40, data.len() as u64)
            .unwrap();
        let form = MeanTask.linear_form().unwrap();
        for (i, v) in got.iter().enumerate() {
            let mut rng = replicate_rng(0xEA21, 5 + i as u64);
            let want = built.replicate(&mut rng, data.len(), form);
            assert_eq!(v.to_bits(), want.to_bits(), "replicate {i}");
        }
    }

    #[test]
    fn malformed_summaries_and_formless_tasks_are_refused() {
        // Lengths not summing to the claimed total.
        let bad = SectionSummary::Linear {
            total_items: 10,
            sections: vec![(3, 0.0, 1.0)],
        };
        assert!(StoredSections::from_summary(&bad).is_err());
        // Section shape disagreeing with the claimed arity.
        let bad = SectionSummary::Kary {
            stride: 1,
            arity: 2,
            total_records: 1,
            sections: vec![(1, vec![1.0], vec![0.5])],
        };
        assert!(StoredSections::from_summary(&bad).is_err());
        // Median has no linear form: the worker must refuse, not guess.
        let ok = SectionSummary::Linear {
            total_items: 3,
            sections: vec![(3, 1.0, 0.5)],
        };
        let stored = StoredSections::from_summary(&ok).unwrap();
        assert!(WireTask::Median.run_sections(&stored, 1, 0, 4, 3).is_err());
        // Hostile replicate counts are bounded.
        assert!(WireTask::Mean
            .run_sections(&stored, 1, 0, u64::MAX, 3)
            .is_err());
    }
}
