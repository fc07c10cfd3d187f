//! Order statistics: median, quantiles, extrema.
//!
//! These are exactly the statistics for which no simple closed-form error
//! estimate exists — the paper's motivation for bootstrap-based accuracy
//! estimation (the jackknife famously fails for the median).  Their state is a
//! value buffer: `update()` concatenates buffers, and `finalize()` finds its
//! order statistics by O(n) selection ([`Quantile`]) or one scan (min, max).
//! `evaluate()` reads its slice directly instead of buffering a copy first.

use earl_bootstrap::estimators::Quantile;
use earl_bootstrap::Estimator;

use crate::task::EarlTask;

/// Mergeable buffer state for order statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BufferState {
    values: Vec<f64>,
}

impl BufferState {
    /// The buffered values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

macro_rules! buffer_task {
    ($(#[$doc:meta])* $name:ident, $task_name:literal, |$values:ident| $evaluate:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name;

        impl EarlTask for $name {
            type State = BufferState;
            fn name(&self) -> &'static str {
                $task_name
            }
            fn initialize(&self, values: &[f64]) -> BufferState {
                BufferState { values: values.to_vec() }
            }
            fn update(&self, state: &mut BufferState, other: &BufferState) {
                state.values.extend_from_slice(&other.values);
            }
            fn finalize(&self, state: &BufferState) -> f64 {
                self.evaluate(&state.values)
            }
            fn evaluate(&self, $values: &[f64]) -> f64 {
                $evaluate
            }
            fn wire_spec(&self) -> Option<earl_mapreduce::TaskSpec> {
                Some(earl_mapreduce::TaskSpec::named($task_name))
            }
        }
    };
}

buffer_task!(
    /// The median (Fig. 6's workload).
    MedianTask,
    "median",
    |values| Quantile::new(0.5).estimate(values)
);

buffer_task!(
    /// The minimum value.
    MinTask,
    "min",
    |values| values.iter().copied().fold(f64::NAN, |a, x| if a.is_nan() || x < a { x } else { a })
);

buffer_task!(
    /// The maximum value.
    MaxTask,
    "max",
    |values| values.iter().copied().fold(f64::NAN, |a, x| if a.is_nan() || x > a { x } else { a })
);

/// An arbitrary `q`-quantile.
#[derive(Debug, Clone, Copy)]
pub struct QuantileTask {
    q: f64,
}

impl QuantileTask {
    /// Creates a quantile task; `q` is clamped to `[0, 1]`.
    pub fn new(q: f64) -> Self {
        Self {
            q: q.clamp(0.0, 1.0),
        }
    }

    /// The quantile level.
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl EarlTask for QuantileTask {
    type State = BufferState;
    fn name(&self) -> &'static str {
        "quantile"
    }
    fn initialize(&self, values: &[f64]) -> BufferState {
        BufferState {
            values: values.to_vec(),
        }
    }
    fn update(&self, state: &mut BufferState, other: &BufferState) {
        state.values.extend_from_slice(&other.values);
    }
    fn finalize(&self, state: &BufferState) -> f64 {
        self.evaluate(&state.values)
    }
    fn evaluate(&self, values: &[f64]) -> f64 {
        Quantile::new(self.q).estimate(values)
    }
    fn wire_spec(&self) -> Option<earl_mapreduce::TaskSpec> {
        Some(earl_mapreduce::TaskSpec {
            name: "quantile".to_owned(),
            params: vec![self.q],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        let values = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(MedianTask.evaluate(&values), 5.0);
        assert_eq!(QuantileTask::new(0.0).evaluate(&values), 1.0);
        assert_eq!(QuantileTask::new(1.0).evaluate(&values), 9.0);
        assert_eq!(QuantileTask::new(0.5).evaluate(&values), 5.0);
        assert_eq!(QuantileTask::new(2.0).q(), 1.0);
        assert!(MedianTask.evaluate(&[]).is_nan());
    }

    #[test]
    fn tasks_finalize_bit_for_bit_like_the_quantile_estimator() {
        use earl_bootstrap::estimators::Median;
        // NaN sorts as "equal" to everything under `partial_cmp`, and -0.0 /
        // +0.0 compare equal, so the stable sort keeps them in arrival order:
        // both positions and signs must come out the same on either path.
        let inputs: [&[f64]; 4] = [
            &[0.0, -0.0, 1.0, -0.0, 0.0],
            &[-0.0, 0.0, f64::NAN, 2.0, -1.0, 0.0],
            &[f64::NAN, 3.0, -0.0, f64::NAN, 0.0, 0.0, -5.0],
            &[1.5, -0.0, 0.0, 1.5, 2.5, 1.5],
        ];
        for values in inputs {
            assert_eq!(
                MedianTask.evaluate(values).to_bits(),
                Median.estimate(values).to_bits(),
                "median of {values:?}"
            );
            for q in [0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0] {
                assert_eq!(
                    QuantileTask::new(q).evaluate(values).to_bits(),
                    Quantile::new(q).estimate(values).to_bits(),
                    "q = {q} of {values:?}"
                );
            }
        }
        // The stable sort is part of the contract: the middle of
        // [0, -0, 1, -0, 0] is the -0.0 that arrived fourth.
        assert_eq!(
            MedianTask.evaluate(inputs[0]).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    /// `evaluate` reads the slice directly; it must agree bit for bit with
    /// the buffered path, whole and merged from two halves.
    #[test]
    fn evaluate_equals_finalize_of_initialize_bit_for_bit() {
        fn check<T: EarlTask<State = BufferState>>(task: &T, values: &[f64]) {
            let direct = task.evaluate(values).to_bits();
            assert_eq!(
                direct,
                task.finalize(&task.initialize(values)).to_bits(),
                "{} of {values:?}",
                task.name()
            );
            for split in 0..=values.len() {
                let (head, tail) = values.split_at(split);
                let mut state = task.initialize(head);
                task.update(&mut state, &task.initialize(tail));
                assert_eq!(
                    direct,
                    task.finalize(&state).to_bits(),
                    "{} of {head:?} + {tail:?}",
                    task.name()
                );
            }
        }
        let inputs: [&[f64]; 7] = [
            &[],
            &[3.0],
            &[9.0, 1.0, 5.0, 3.0, 7.0, 1.0],
            &[0.0, -0.0, 1.0, -0.0, 0.0],
            &[-0.0, 0.0, f64::NAN, 2.0, -1.0, 0.0],
            &[f64::INFINITY, -5e-324, f64::NEG_INFINITY, 5e-324, -0.0],
            &[f64::NAN, 3.0, -0.0, f64::NAN, 0.0, 0.0, -5.0],
        ];
        for values in inputs {
            check(&MedianTask, values);
            check(&MinTask, values);
            check(&MaxTask, values);
            for q in [0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0] {
                check(&QuantileTask::new(q), values);
            }
        }
    }

    #[test]
    fn extremes() {
        let values = [4.0, -2.0, 10.0];
        assert_eq!(MinTask.evaluate(&values), -2.0);
        assert_eq!(MaxTask.evaluate(&values), 10.0);
        assert!(MinTask.evaluate(&[]).is_nan());
    }

    #[test]
    fn update_concatenates_buffers() {
        let task = MedianTask;
        let mut state = task.initialize(&[1.0, 2.0]);
        let other = task.initialize(&[3.0, 4.0, 100.0]);
        task.update(&mut state, &other);
        assert_eq!(state.values().len(), 5);
        assert_eq!(task.finalize(&state), 3.0);
    }

    #[test]
    fn order_tasks_are_not_corrected() {
        assert_eq!(MedianTask.correct(42.0, 0.01), 42.0);
        assert_eq!(MaxTask.correct(7.0, 0.5), 7.0);
    }
}
