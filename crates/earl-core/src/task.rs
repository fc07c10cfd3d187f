//! The [`EarlTask`] abstraction: the paper's extended reduce interface.
//!
//! EARL extends the MapReduce reduce phase with a finer-grained interface
//! (§2.1) of four methods:
//!
//! * `initialize()` — reduce a set of values into a *state*;
//! * `update()` — merge another state (or new values) into an existing state,
//!   enabling incremental processing as the sample grows;
//! * `finalize()` — turn the state into the current result;
//! * `correct()` — adjust a result computed from a `p`-fraction sample so it
//!   refers to the full data set (e.g. a SUM must be scaled by `1/p`; a MEAN
//!   needs no correction).
//!
//! Tasks also know how to extract their input values from raw record lines, so
//! the same task can be run by the sampling driver or by an exact MapReduce
//! job.

use earl_bootstrap::{Estimator, KaryForm, LinearForm};

/// A user analytics task in EARL's incremental-reduce form.
pub trait EarlTask: Send + Sync {
    /// The intermediate state produced by `initialize` and consumed by
    /// `finalize`.
    type State: Clone + Send + Sync;

    /// Short task name used in reports.
    fn name(&self) -> &'static str;

    /// Parses one input line into a value contributing to this task, or `None`
    /// if the line carries nothing relevant.  The default takes the last
    /// tab-separated field and parses it as `f64`.
    fn extract(&self, line: &str) -> Option<f64> {
        line.rsplit('\t').next().and_then(|f| f.trim().parse().ok())
    }

    /// Parses one input line into its full record — [`record_stride`](Self::record_stride)
    /// consecutive values appended to `out` — returning whether the line
    /// carried a record.  Multi-column tasks (weighted mean, ratios, paired
    /// statistics) override this to push all of a record's columns in order,
    /// **all or nothing**, so the flat sample stays a whole number of records.
    /// The default delegates to [`extract`](Self::extract) for scalar tasks.
    fn extract_record(&self, line: &str, out: &mut Vec<f64>) -> bool {
        match self.extract(line) {
            Some(value) => {
                out.push(value);
                true
            }
            None => false,
        }
    }

    /// Reduces a set of values into a state.
    fn initialize(&self, values: &[f64]) -> Self::State;

    /// Merges `other` into `state` (used for incremental/partial processing).
    fn update(&self, state: &mut Self::State, other: &Self::State);

    /// Computes the current result from a state.
    fn finalize(&self, state: &Self::State) -> f64;

    /// Corrects a result computed from a fraction `p` of the data (0 < p ≤ 1).
    /// The default is the identity — correct for scale-free statistics such as
    /// the mean, median or variance.
    fn correct(&self, result: f64, p: f64) -> f64 {
        let _ = p;
        result
    }

    /// Whether evaluating the task is CPU-heavy (propagated to the cost model).
    fn is_heavy(&self) -> bool {
        false
    }

    /// The task's linear form `θ = g(Σ wᵢ·xᵢ, Σ wᵢ)`, if its statistic is
    /// linear.  Declaring one opts the task into the resample-free
    /// count-based bootstrap kernel; the contract is `evaluate(values) ==
    /// form.finalize(Σ values, values.len())` for every value multiset.
    fn linear_form(&self) -> Option<LinearForm> {
        None
    }

    /// The task's k-ary linear form `θ = g(Σφ₁(r), …, Σφ_k(r), m)`, if the
    /// statistic is an aggregate of per-record linear sums (weighted mean,
    /// ratio, covariance, correlation, slope).  Declaring one opts the task
    /// into the resample-free count-based kernel and makes every kernel
    /// resample whole records of [`record_stride`](Self::record_stride)
    /// columns.
    fn kary_form(&self) -> Option<KaryForm> {
        None
    }

    /// Values per logical record in the flat extracted sample (1 for scalar
    /// tasks; the interleave width for multi-column tasks).
    fn record_stride(&self) -> usize {
        self.kary_form().map(|f| f.stride()).unwrap_or(1)
    }

    /// Convenience: evaluate the task end-to-end on a slice of values.
    fn evaluate(&self, values: &[f64]) -> f64 {
        self.finalize(&self.initialize(values))
    }

    /// A wire-portable spec of this task for remote (multi-process) execution,
    /// or `None` (the default) to always run in-process.  A task may declare
    /// one when a remote worker can reconstruct it from the spec's name and
    /// numeric parameters alone *and* its map/reduce behaviour is exactly the
    /// standard scalar pipeline (extract each line's value, evaluate the value
    /// multiset) with no custom counters or side effects — the registry in
    /// `earl-net` is the authoritative list.
    fn wire_spec(&self) -> Option<earl_mapreduce::TaskSpec> {
        None
    }
}

/// Adapts an [`EarlTask`] into an [`earl_bootstrap::Estimator`], so the
/// bootstrap machinery can evaluate the user's job on resamples — the core of
/// the Accuracy Estimation Stage.
pub struct TaskEstimator<'a, T: EarlTask> {
    task: &'a T,
}

impl<'a, T: EarlTask> TaskEstimator<'a, T> {
    /// Wraps a task.
    pub fn new(task: &'a T) -> Self {
        Self { task }
    }
}

impl<T: EarlTask> Estimator for TaskEstimator<'_, T> {
    fn estimate(&self, data: &[f64]) -> f64 {
        self.task.evaluate(data)
    }
    fn name(&self) -> &'static str {
        self.task.name()
    }
    fn linear_form(&self) -> Option<LinearForm> {
        self.task.linear_form()
    }
    fn kary_form(&self) -> Option<KaryForm> {
        self.task.kary_form()
    }
    fn record_stride(&self) -> usize {
        self.task.record_stride()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{MeanTask, SumTask};

    #[test]
    fn default_extract_parses_plain_and_keyed_lines() {
        let task = MeanTask;
        assert_eq!(task.extract("3.5"), Some(3.5));
        assert_eq!(task.extract("key\t7.25"), Some(7.25));
        assert_eq!(task.extract("a\tb\t-2"), Some(-2.0));
        assert_eq!(task.extract("junk"), None);
    }

    #[test]
    fn evaluate_composes_initialize_and_finalize() {
        assert_eq!(MeanTask.evaluate(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(SumTask.evaluate(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn task_estimator_adapts_to_the_bootstrap_interface() {
        let task = MeanTask;
        let est = TaskEstimator::new(&task);
        assert_eq!(est.estimate(&[2.0, 4.0]), 3.0);
        assert_eq!(Estimator::name(&est), "mean");
    }

    #[test]
    fn default_correct_is_identity() {
        assert_eq!(MeanTask.correct(42.0, 0.01), 42.0);
    }
}
