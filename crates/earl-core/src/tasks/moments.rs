//! Second-moment tasks: variance and standard deviation.
//!
//! Their state is a mergeable moment accumulator (count, mean, M2) à la
//! Chan/Welford, so `update()` is O(1) regardless of how many values each
//! partial state absorbed.

use earl_bootstrap::StreamingStats;

use crate::task::EarlTask;

fn stats_from(values: &[f64]) -> StreamingStats {
    let mut s = StreamingStats::new();
    for &v in values {
        s.push(v);
    }
    s
}

/// The unbiased sample variance.
#[derive(Debug, Clone, Copy, Default)]
pub struct VarianceTask;

impl EarlTask for VarianceTask {
    type State = StreamingStats;
    fn name(&self) -> &'static str {
        "variance"
    }
    fn initialize(&self, values: &[f64]) -> StreamingStats {
        stats_from(values)
    }
    fn update(&self, state: &mut StreamingStats, other: &StreamingStats) {
        state.merge(other);
    }
    fn finalize(&self, state: &StreamingStats) -> f64 {
        state.variance()
    }
    // Second moments are not linear: the AES gathers each resample and
    // evaluates it through the task itself (Welford).
    fn wire_spec(&self) -> Option<earl_mapreduce::TaskSpec> {
        Some(earl_mapreduce::TaskSpec::named("variance"))
    }
}

/// The sample standard deviation.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdDevTask;

impl EarlTask for StdDevTask {
    type State = StreamingStats;
    fn name(&self) -> &'static str {
        "stddev"
    }
    fn initialize(&self, values: &[f64]) -> StreamingStats {
        stats_from(values)
    }
    fn update(&self, state: &mut StreamingStats, other: &StreamingStats) {
        state.merge(other);
    }
    fn finalize(&self, state: &StreamingStats) -> f64 {
        state.std_dev()
    }
    fn wire_spec(&self) -> Option<earl_mapreduce::TaskSpec> {
        Some(earl_mapreduce::TaskSpec::named("stddev"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: [f64; 8] = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];

    #[test]
    fn variance_matches_direct_computation() {
        assert!((VarianceTask.evaluate(&DATA) - 32.0 / 7.0).abs() < 1e-12);
        assert!((StdDevTask.evaluate(&DATA) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(VarianceTask.evaluate(&[1.0]).is_nan());
    }

    #[test]
    fn partial_states_merge_to_the_batch_answer() {
        let task = VarianceTask;
        let batch = task.evaluate(&DATA);
        let mut state = task.initialize(&DATA[..3]);
        let other = task.initialize(&DATA[3..]);
        task.update(&mut state, &other);
        assert!((task.finalize(&state) - batch).abs() < 1e-12);
    }

    #[test]
    fn scale_free_statistics_are_not_corrected() {
        assert_eq!(VarianceTask.correct(5.0, 0.1), 5.0);
        assert_eq!(StdDevTask.correct(5.0, 0.1), 5.0);
    }
}
