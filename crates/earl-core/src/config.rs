//! EARL configuration.
//!
//! The knobs mirror the symbols of Table 1 in the paper:
//!
//! | Symbol | Meaning                                   | Field                       |
//! |--------|-------------------------------------------|-----------------------------|
//! | σ      | user desired error bound                  | [`EarlConfig::sigma`]       |
//! | τ      | error accuracy (stability of cv)          | [`EarlConfig::tau`]         |
//! | B      | number of bootstraps                      | [`EarlConfig::bootstraps`]  |
//! | n      | sample size                               | [`EarlConfig::sample_size`] |
//! | p      | percentage of the data contained in a sample | [`EarlConfig::pilot_fraction`] (pilot) / reported per run |
//! | N      | total data size                           | read from the DFS file      |

use earl_bootstrap::BootstrapKernel;
use earl_mapreduce::FailurePolicy;
use serde::{Deserialize, Serialize};

use crate::error::EarlError;
use crate::Result;

/// The most worker threads a run may ask for.  Every bootstrap and MapReduce
/// phase forks up to `parallelism` scoped threads (capped only by its item
/// count), so an unbounded request could spawn one thread per replicate.
const MAX_PARALLELISM: usize = 1_024;

/// Which sampling technique feeds the EARL driver (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SamplingMethod {
    /// Pre-map sampling: random lines drawn straight from the input splits;
    /// fastest load times, approximate key/value accounting.
    #[default]
    PreMap,
    /// Post-map sampling: one full scan, then exact without-replacement draws;
    /// slower loading, exact accounting for result correction.
    PostMap,
}

/// Configuration of an EARL run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlConfig {
    /// The user's desired error bound σ on the coefficient of variation of the
    /// result distribution.  The paper's experiments use 0.05 ("results are
    /// accurate to within 5 % of the true answer").
    pub sigma: f64,
    /// The τ threshold used when estimating the number of bootstraps.
    pub tau: f64,
    /// Fraction of the data used for the SSABE pilot (paper: p = 0.01 "gives
    /// robust results").
    pub pilot_fraction: f64,
    /// Minimum pilot size in records (so tiny files still get a usable pilot).
    pub min_pilot: u64,
    /// Fixed number of bootstraps; `None` lets SSABE choose.
    pub bootstraps: Option<usize>,
    /// Fixed initial sample size; `None` lets SSABE choose.
    pub sample_size: Option<u64>,
    /// Maximum number of sample-expansion iterations before giving up.
    pub max_iterations: usize,
    /// Multiplier applied to the sample size when an expansion is needed.
    pub expansion_factor: f64,
    /// Sampling technique.
    pub sampling: SamplingMethod,
    /// Whether inter-iteration delta maintenance is used to update resamples
    /// incrementally (§4.1) instead of redrawing them.  Applies to tasks the
    /// gather kernel serves (median, quantiles, variance, stddev), whose
    /// maintained resamples are evaluated through the task itself; when
    /// `bootstrap_kernel` resolves a task to the resample-free count-based
    /// kernel (linear statistics under `Auto`), that kernel supersedes delta
    /// maintenance — re-evaluating every replicate from O(√n) section counts
    /// is cheaper than maintaining resamples at all.
    pub delta_maintenance: bool,
    /// Replicate-evaluation kernel for the accuracy-estimation bootstraps and
    /// the SSABE pilot (see [`BootstrapKernel`]).  `Auto` (default) picks per
    /// task: resample-free count-based for linear and k-ary-linear statistics
    /// (mean, sum, count, proportion, weighted mean, ratio, …), gather
    /// otherwise (median, quantiles, variance, stddev).  `Gather` forces the
    /// gather kernel for every task.  Both kernels are deterministic given
    /// the seed at any thread count.
    pub bootstrap_kernel: BootstrapKernel,
    /// What the MapReduce jobs launched by the driver do when a node fails
    /// mid-task.  The EARL default is [`FailurePolicy::Degrade`] (§3.4): lost
    /// input splits are dropped, the effective sample shrinks, and the
    /// accuracy-estimation stage widens the error estimate accordingly —
    /// surviving records are still a random sample of the data.  Use
    /// [`FailurePolicy::Retry`] (or [`FailurePolicy::retry`]) for stock
    /// Hadoop-style recovery that re-runs lost tasks on survivors.
    pub failure_policy: FailurePolicy,
    /// RNG seed controlling sampling and resampling.
    pub seed: u64,
    /// Worker threads used for bootstrap replicate evaluation and MapReduce
    /// task execution (`None` = one per available core).  Any value produces
    /// bit-identical results; the knob only trades wall-clock time.  At most
    /// 1 024 threads: [`EarlConfig::validate`] rejects larger requests.
    pub parallelism: Option<usize>,
    /// Ignored.  The EARL ladder runs its steps strictly back to back — draw
    /// Δ, job, accuracy estimation, verdict — and never stages a step ahead
    /// of the verdict on the previous one, whatever this field holds.  The
    /// field stays only so that existing configurations keep compiling.
    pub pipeline_depth: usize,
}

impl Default for EarlConfig {
    fn default() -> Self {
        Self {
            sigma: 0.05,
            tau: 0.01,
            pilot_fraction: 0.01,
            min_pilot: 256,
            bootstraps: None,
            sample_size: None,
            max_iterations: 10,
            expansion_factor: 2.0,
            sampling: SamplingMethod::PreMap,
            delta_maintenance: true,
            bootstrap_kernel: BootstrapKernel::Auto,
            failure_policy: FailurePolicy::Degrade,
            seed: 0xEA21,
            parallelism: None,
            pipeline_depth: 2,
        }
    }
}

impl EarlConfig {
    /// A configuration with the given error bound and all other knobs at their
    /// defaults.
    pub fn with_sigma(sigma: f64) -> Self {
        Self {
            sigma,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.sigma > 0.0 && self.sigma < 1.0) {
            return Err(EarlError::InvalidConfig("sigma must be in (0, 1)".into()));
        }
        if self.tau <= 0.0 || self.tau.is_nan() {
            return Err(EarlError::InvalidConfig("tau must be > 0".into()));
        }
        if !(self.pilot_fraction > 0.0 && self.pilot_fraction <= 1.0) {
            return Err(EarlError::InvalidConfig(
                "pilot_fraction must be in (0, 1]".into(),
            ));
        }
        if self.max_iterations == 0 {
            return Err(EarlError::InvalidConfig(
                "max_iterations must be ≥ 1".into(),
            ));
        }
        if self.expansion_factor <= 1.0 || self.expansion_factor.is_nan() {
            return Err(EarlError::InvalidConfig(
                "expansion_factor must be > 1".into(),
            ));
        }
        if let Some(b) = self.bootstraps {
            if b < 2 {
                return Err(EarlError::InvalidConfig("bootstraps must be ≥ 2".into()));
            }
        }
        if self
            .parallelism
            .is_some_and(|threads| threads > MAX_PARALLELISM)
        {
            return Err(EarlError::InvalidConfig(format!(
                "parallelism must be ≤ {MAX_PARALLELISM} worker threads"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_papers_experiments() {
        let c = EarlConfig::default();
        assert_eq!(c.sigma, 0.05);
        assert_eq!(c.pilot_fraction, 0.01);
        assert_eq!(c.sampling, SamplingMethod::PreMap);
        assert!(c.delta_maintenance);
        assert_eq!(
            c.bootstrap_kernel,
            BootstrapKernel::Auto,
            "default picks the fastest kernel each task supports"
        );
        assert_eq!(c.parallelism, None, "default is one worker per core");
        assert_eq!(
            c.failure_policy,
            FailurePolicy::Degrade,
            "EARL degrades gracefully on node failure (§3.4) instead of retrying"
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(EarlConfig {
            sigma: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EarlConfig {
            sigma: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EarlConfig {
            tau: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EarlConfig {
            pilot_fraction: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EarlConfig {
            pilot_fraction: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EarlConfig {
            max_iterations: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EarlConfig {
            expansion_factor: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EarlConfig {
            bootstraps: Some(1),
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EarlConfig {
            bootstraps: Some(30),
            ..Default::default()
        }
        .validate()
        .is_ok());
        assert!(EarlConfig::with_sigma(0.02).validate().is_ok());
    }

    #[test]
    fn validation_bounds_the_worker_thread_count() {
        let with = |parallelism| EarlConfig {
            parallelism,
            ..Default::default()
        };
        for ok in [None, Some(1), Some(MAX_PARALLELISM)] {
            assert!(with(ok).validate().is_ok(), "{ok:?}");
        }
        for too_many in [MAX_PARALLELISM + 1, usize::MAX] {
            assert!(matches!(
                with(Some(too_many)).validate(),
                Err(EarlError::InvalidConfig(_))
            ));
        }
    }
}
