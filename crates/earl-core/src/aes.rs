//! The Accuracy Estimation Stage (AES, §3.1).
//!
//! The AES takes the current sample, re-evaluates the user's task on `B`
//! bootstrap resamples, and summarises the resulting *result distribution*
//! into the error measure EARL reports: the coefficient of variation.  It is
//! deliberately independent of how the resamples were produced — the driver
//! feeds it either fresh Monte-Carlo resamples or delta-maintained ones.

use earl_bootstrap::bootstrap::{BootstrapResult, LinearSections, ResolvedKernel};
use serde::{Deserialize, Serialize};

use crate::task::EarlTask;

/// Records a fresh bootstrap of `bootstraps` replicates over a sample of
/// `records` touches — the work every AES charge (scalar, SSABE pilot,
/// per group) is priced by.  The count-based kernel scans the sample once to
/// build the section summaries, then touches one summary per section per
/// replicate (O(n + √n·B)); every other kernel touches each record once per
/// replicate.
pub(crate) fn aes_work(resolved: ResolvedKernel, records: usize, bootstraps: usize) -> u64 {
    match resolved {
        ResolvedKernel::CountBased => {
            (records + bootstraps * LinearSections::section_count(records)) as u64
        }
        _ => (bootstraps * records) as u64,
    }
}

/// The AES output for one iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AesReport {
    /// The task evaluated on the current sample.
    pub result: f64,
    /// The result corrected for the sampled fraction `p`.
    pub corrected_result: f64,
    /// Coefficient of variation of the result distribution.
    pub cv: f64,
    /// Standard error of the result distribution.
    pub std_error: f64,
    /// 95 % percentile confidence interval (corrected for `p`).
    pub ci: (f64, f64),
    /// Number of resamples used.
    pub bootstraps: usize,
    /// Sample size the estimate is based on.
    pub sample_size: usize,
}

/// The accuracy estimation stage.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyEstimationStage {
    sigma: f64,
}

impl AccuracyEstimationStage {
    /// Creates an AES targeting the error bound `sigma`.
    pub fn new(sigma: f64) -> Self {
        Self { sigma }
    }

    /// Whether an achieved cv satisfies the bound.
    pub fn meets_bound(&self, cv: f64) -> bool {
        cv.is_finite() && cv <= self.sigma + 1e-12
    }

    /// Summarises a bootstrap result — fresh or produced by the
    /// delta-maintained resamples — into an [`AesReport`].  `p` is the
    /// sampled fraction used for result correction.
    pub fn summarise<T: EarlTask>(
        &self,
        task: &T,
        bootstrap: &BootstrapResult,
        p: f64,
        sample_size: usize,
    ) -> AesReport {
        let (lo, hi) = bootstrap.percentile_ci(0.05);
        AesReport {
            result: bootstrap.point_estimate,
            corrected_result: task.correct(bootstrap.point_estimate, p),
            cv: bootstrap.cv,
            std_error: bootstrap.std_error,
            ci: (task.correct(lo, p), task.correct(hi, p)),
            bootstraps: bootstrap.replicates.len(),
            sample_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskEstimator;
    use crate::tasks::{MeanTask, MedianTask, SumTask};
    use earl_bootstrap::bootstrap::{bootstrap_distribution, BootstrapConfig};
    use earl_bootstrap::rng::{seeded_rng, standard_normal};

    fn sample(n: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| mean + sd * standard_normal(&mut rng))
            .collect()
    }

    #[test]
    fn estimate_reports_cv_and_corrected_result() {
        let aes = AccuracyEstimationStage::new(0.05);
        let data = sample(1_000, 200.0, 20.0, 1);
        let bootstrap = bootstrap_distribution(
            2,
            &data,
            &TaskEstimator::new(&MeanTask),
            &BootstrapConfig::with_resamples(40),
        )
        .unwrap();
        let report = aes.summarise(&MeanTask, &bootstrap, 0.01, data.len());
        assert_eq!(report.bootstraps, 40);
        assert_eq!(report.sample_size, 1_000);
        assert!((report.result - 200.0).abs() < 3.0);
        assert_eq!(
            report.result, report.corrected_result,
            "mean needs no correction"
        );
        assert!(report.cv < 0.01, "cv of the mean of 1000 points is tiny");
        assert!(aes.meets_bound(report.cv));
        assert!(report.ci.0 < report.result && report.result < report.ci.1);
    }

    #[test]
    fn sum_task_is_scaled_by_one_over_p() {
        let aes = AccuracyEstimationStage::new(0.05);
        let data = sample(500, 10.0, 1.0, 3);
        let bootstrap = bootstrap_distribution(
            4,
            &data,
            &TaskEstimator::new(&SumTask),
            &BootstrapConfig::with_resamples(30),
        )
        .unwrap();
        let report = aes.summarise(&SumTask, &bootstrap, 0.1, data.len());
        assert!((report.corrected_result - report.result * 10.0).abs() < 1e-6);
        assert!(report.ci.1 > report.ci.0);
    }

    #[test]
    fn small_noisy_samples_fail_the_bound() {
        let aes = AccuracyEstimationStage::new(0.01);
        // A tiny, highly dispersed sample cannot achieve a 1% bound.
        let data = sample(20, 10.0, 8.0, 5);
        let bootstrap = bootstrap_distribution(
            6,
            &data,
            &TaskEstimator::new(&MedianTask),
            &BootstrapConfig::with_resamples(50),
        )
        .unwrap();
        let report = aes.summarise(&MedianTask, &bootstrap, 1.0, data.len());
        assert!(
            !aes.meets_bound(report.cv),
            "cv {} should exceed 0.01",
            report.cv
        );
        assert!(!aes.meets_bound(f64::NAN));
    }

    #[test]
    fn empty_sample_is_an_error() {
        assert!(bootstrap_distribution(
            7,
            &[],
            &TaskEstimator::new(&MeanTask),
            &BootstrapConfig::with_resamples(30)
        )
        .is_err());
    }
}
