//! Categorical proportions (Appendix A of the paper).
//!
//! For categorical attributes the statistic of interest is the proportion of
//! records in a target category.  A proportion is the **mean of indicator
//! values** (1 for a match, 0 otherwise), so it is linear — under
//! [`BootstrapKernel::Auto`](earl_bootstrap::BootstrapKernel) the accuracy
//! estimation runs on the resample-free count-based kernel, and the whole
//! early-termination loop of the scalar driver applies unchanged.
//!
//! The paper's Appendix A estimates the proportion's accuracy with the normal
//! approximation (`p̂ ± z·√(p̂(1−p̂)/n)`) instead of the bootstrap;
//! [`ProportionTask::z_estimate`] exposes that route via
//! [`earl_bootstrap::categorical::ProportionEstimate`] so the two error
//! estimates can be cross-checked (the equivalence suite does).

use earl_bootstrap::categorical::ProportionEstimate;
use earl_bootstrap::estimators::{self, Estimator};
use earl_bootstrap::{LinearForm, StatsError};

use crate::task::EarlTask;
use crate::tasks::basic::SumState;

/// The proportion of records whose categorical field equals a target label.
///
/// Lines are `label` or `key<TAB>…<TAB>label`; the last tab-separated field is
/// the category.  Empty lines carry nothing.
#[derive(Debug, Clone)]
pub struct ProportionTask {
    target: String,
}

impl ProportionTask {
    /// A proportion task counting records whose category equals `target`.
    pub fn new(target: impl Into<String>) -> Self {
        Self {
            target: target.into(),
        }
    }

    /// The target category label.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// The Appendix-A normal-approximation estimate for a proportion `p_hat`
    /// observed on `n` records — the z-based accuracy route the paper uses for
    /// categorical data, for cross-checking against the bootstrap cv.
    pub fn z_estimate(p_hat: f64, n: u64) -> Result<ProportionEstimate, StatsError> {
        let successes = (p_hat * n as f64).round().clamp(0.0, n as f64) as u64;
        ProportionEstimate::new(successes, n)
    }
}

impl EarlTask for ProportionTask {
    type State = SumState;

    fn name(&self) -> &'static str {
        "proportion"
    }

    /// `1.0` when the line's last field equals the target category, `0.0` for
    /// any other non-empty line.
    fn extract(&self, line: &str) -> Option<f64> {
        let label = line.rsplit('\t').next()?.trim();
        if label.is_empty() {
            return None;
        }
        Some(if label == self.target { 1.0 } else { 0.0 })
    }

    fn initialize(&self, values: &[f64]) -> SumState {
        SumState {
            count: values.len() as u64,
            sum: values.iter().sum(),
        }
    }

    fn update(&self, state: &mut SumState, other: &SumState) {
        state.count += other.count;
        state.sum += other.sum;
    }

    fn finalize(&self, state: &SumState) -> f64 {
        if state.count == 0 {
            f64::NAN
        } else {
            state.sum / state.count as f64
        }
    }

    // A proportion is the mean of indicators: scale-free (no correction) and
    // linear — Auto routes its AES to the resample-free count-based kernel.
    fn linear_form(&self) -> Option<LinearForm> {
        estimators::Mean.linear_form()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskEstimator;
    use earl_bootstrap::bootstrap::{BootstrapKernel, ResolvedKernel};

    #[test]
    fn extract_maps_labels_to_indicators() {
        let task = ProportionTask::new("red");
        assert_eq!(task.extract("red"), Some(1.0));
        assert_eq!(task.extract("blue"), Some(0.0));
        assert_eq!(task.extract("k42\tred"), Some(1.0));
        assert_eq!(task.extract("k42\t0.5\tgreen"), Some(0.0));
        assert_eq!(task.extract("   "), None);
        assert_eq!(task.extract(""), None);
    }

    #[test]
    fn evaluate_is_the_indicator_mean_and_needs_no_correction() {
        let task = ProportionTask::new("x");
        let values = [1.0, 0.0, 0.0, 1.0];
        assert_eq!(task.evaluate(&values), 0.5);
        assert_eq!(task.correct(0.5, 0.01), 0.5, "proportions are scale-free");
        assert!(task.evaluate(&[]).is_nan());
    }

    #[test]
    fn auto_routes_the_proportion_to_the_count_based_kernel() {
        let task = ProportionTask::new("x");
        let estimator = TaskEstimator::new(&task);
        assert_eq!(
            BootstrapKernel::Auto.resolve_for(&estimator),
            ResolvedKernel::CountBased
        );
    }

    #[test]
    fn z_estimate_matches_the_categorical_module() {
        let est = ProportionTask::z_estimate(0.25, 400).unwrap();
        assert_eq!(est.successes, 100);
        assert!((est.p_hat - 0.25).abs() < 1e-12);
        assert!((est.std_error - (0.25f64 * 0.75 / 400.0).sqrt()).abs() < 1e-12);
        assert!(ProportionTask::z_estimate(0.5, 0).is_err());
    }
}
