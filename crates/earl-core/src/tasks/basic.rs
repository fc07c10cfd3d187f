//! Sum-like tasks: mean, sum and count.
//!
//! These tasks have compact mergeable states (count + sum), which makes their
//! `update()` path truly incremental — the property the paper's
//! initialize/update/finalize/correct interface is designed for.  SUM and COUNT
//! are the canonical examples of tasks that *need* the `correct()` hook: a
//! value computed from a `p`-fraction sample must be scaled by `1/p`.

use earl_bootstrap::estimators::{self, Estimator};
use earl_bootstrap::LinearForm;
use serde::{Deserialize, Serialize};

use crate::task::EarlTask;

/// Mergeable (count, sum) state shared by the sum-like tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SumState {
    /// Number of values absorbed.
    pub count: u64,
    /// Sum of the values absorbed.
    pub sum: f64,
}

impl SumState {
    fn from_values(values: &[f64]) -> Self {
        Self {
            count: values.len() as u64,
            sum: values.iter().sum(),
        }
    }

    fn merge(&mut self, other: &SumState) {
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// The arithmetic mean.  Scale-free: no correction needed.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanTask;

impl EarlTask for MeanTask {
    type State = SumState;
    fn name(&self) -> &'static str {
        "mean"
    }
    fn initialize(&self, values: &[f64]) -> SumState {
        SumState::from_values(values)
    }
    fn update(&self, state: &mut SumState, other: &SumState) {
        state.merge(other);
    }
    fn finalize(&self, state: &SumState) -> f64 {
        if state.count == 0 {
            f64::NAN
        } else {
            state.sum / state.count as f64
        }
    }
    // The mean is linear: the same arithmetic as the estimator-side `Mean`,
    // so the accuracy-estimation bootstrap can run resample-free.
    fn linear_form(&self) -> Option<LinearForm> {
        estimators::Mean.linear_form()
    }
    fn wire_spec(&self) -> Option<earl_mapreduce::TaskSpec> {
        Some(earl_mapreduce::TaskSpec::named("mean"))
    }
}

/// The sum of all values.  Requires the `1/p` correction the paper uses as its
/// running example for `correct()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumTask;

impl EarlTask for SumTask {
    type State = SumState;
    fn name(&self) -> &'static str {
        "sum"
    }
    fn initialize(&self, values: &[f64]) -> SumState {
        SumState::from_values(values)
    }
    fn update(&self, state: &mut SumState, other: &SumState) {
        state.merge(other);
    }
    fn finalize(&self, state: &SumState) -> f64 {
        state.sum
    }
    fn correct(&self, result: f64, p: f64) -> f64 {
        if p > 0.0 {
            result / p
        } else {
            result
        }
    }
    fn linear_form(&self) -> Option<LinearForm> {
        estimators::Sum.linear_form()
    }
    fn wire_spec(&self) -> Option<earl_mapreduce::TaskSpec> {
        Some(earl_mapreduce::TaskSpec::named("sum"))
    }
}

/// The number of records.  Also corrected by `1/p`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountTask;

impl EarlTask for CountTask {
    type State = SumState;
    fn name(&self) -> &'static str {
        "count"
    }
    fn extract(&self, line: &str) -> Option<f64> {
        // Every non-empty line counts as one record regardless of content.
        if line.trim().is_empty() {
            None
        } else {
            Some(1.0)
        }
    }
    fn initialize(&self, values: &[f64]) -> SumState {
        SumState::from_values(values)
    }
    fn update(&self, state: &mut SumState, other: &SumState) {
        state.merge(other);
    }
    fn finalize(&self, state: &SumState) -> f64 {
        state.count as f64
    }
    fn correct(&self, result: f64, p: f64) -> f64 {
        if p > 0.0 {
            result / p
        } else {
            result
        }
    }
    fn linear_form(&self) -> Option<LinearForm> {
        estimators::Count.linear_form()
    }
    fn wire_spec(&self) -> Option<earl_mapreduce::TaskSpec> {
        Some(earl_mapreduce::TaskSpec::named("count"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_incremental_and_scale_free() {
        let task = MeanTask;
        let mut state = task.initialize(&[1.0, 2.0]);
        let more = task.initialize(&[3.0, 4.0, 5.0]);
        task.update(&mut state, &more);
        assert_eq!(task.finalize(&state), 3.0);
        assert_eq!(task.correct(3.0, 0.01), 3.0, "mean needs no correction");
        assert!(task.finalize(&task.initialize(&[])).is_nan());
    }

    #[test]
    fn sum_and_count_are_corrected_by_one_over_p() {
        let sum = SumTask;
        assert_eq!(sum.evaluate(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(sum.correct(6.0, 0.01), 600.0);
        assert_eq!(
            sum.correct(6.0, 0.0),
            6.0,
            "degenerate p leaves the value alone"
        );

        let count = CountTask;
        assert_eq!(count.evaluate(&[9.0, 9.0, 9.0, 9.0]), 4.0);
        assert_eq!(count.correct(4.0, 0.25), 16.0);
        assert_eq!(count.extract("anything"), Some(1.0));
        assert_eq!(count.extract("   "), None);
    }

    #[test]
    fn incremental_update_matches_batch_evaluation() {
        let task = SumTask;
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let batch = task.evaluate(&values);
        let mut state = task.initialize(&values[..30]);
        let s2 = task.initialize(&values[30..70]);
        let s3 = task.initialize(&values[70..]);
        task.update(&mut state, &s2);
        task.update(&mut state, &s3);
        assert_eq!(task.finalize(&state), batch);
    }
}
