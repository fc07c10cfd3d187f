//! SSABE — **S**ample **S**ize **A**nd **B**ootstrap **E**stimation (§3.2).
//!
//! EARL avoids over-provisioning the sample size `n` and the number of
//! bootstraps `B` with a two-phase empirical procedure executed on a small
//! pilot sample (≈1 % of the data) before the real job starts:
//!
//! 1. **B estimation** — evaluate the bootstrap cv for growing candidate `B`
//!    values and stop as soon as the estimate stabilises: `|cv_i − cv_{i−1}| <
//!    τ`.  In practice ≈30 bootstraps suffice, far below the theoretical
//!    `1/(2ε₀²)`.
//! 2. **n estimation** — split the pilot into a ladder of `l` nested
//!    subsamples of sizes `n_i = n / 2^{l−i}`, measure the cv at each size,
//!    fit a least-squares power-law curve through the points, and solve it for
//!    the sample size that achieves the user's error bound σ.
//!
//! If the resulting `B·n ≥ N`, early approximation is not worthwhile and EARL
//! falls back to exact execution over the full data set.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bootstrap::{
    bootstrap_distribution_via, BootstrapConfig, BootstrapKernel, BuiltSections, Resampler,
    SectionEvaluator,
};
use crate::estimators::{coefficient_of_variation, Estimator, Mean, StdDev};
use crate::least_squares::{fit_power_law, PowerLawFit};
use crate::rng::derive_seed;
use crate::{Result, StatsError};

/// Sub-seed stream tag of the B-estimation phase (1a).
const B_PHASE: u64 = 0;
/// Sub-seed stream tag base of the ladder levels of phase 1b.
const LADDER_PHASE: u64 = 1;
/// Number of ladder levels `l` used for the sample-size fit (paper: 5).
const LADDER_LEVELS: usize = 5;
/// Smallest `B` phase 1a may return (the paper's candidate set starts at 2):
/// a floor so the cv of the replicate distribution is itself reliable.
const MIN_B: usize = 5;

/// Configuration of the SSABE procedure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsabeConfig {
    /// The user's desired error bound σ on the coefficient of variation.
    pub sigma: f64,
    /// Error-stability threshold τ: B stops growing when `|cv_i − cv_{i−1}| < τ`.
    pub tau: f64,
    /// Hard cap on candidate `B` values (the paper's candidate set is
    /// `{2, …, 1/τ}`).
    pub max_b: usize,
    /// Worker threads for the ladder bootstraps (`None` = all cores; small
    /// pilots fall back to single-threaded execution automatically).
    pub parallelism: Option<usize>,
    /// Replicate-evaluation kernel for both phases (see [`BootstrapKernel`]).
    pub kernel: BootstrapKernel,
}

impl Default for SsabeConfig {
    fn default() -> Self {
        Self {
            sigma: 0.05,
            tau: 0.01,
            max_b: 200,
            parallelism: None,
            kernel: BootstrapKernel::Auto,
        }
    }
}

impl SsabeConfig {
    /// Creates a configuration for error bound `sigma` and stability `tau`,
    /// with the candidate-B cap set to `1/τ` as in the paper.
    pub fn new(sigma: f64, tau: f64) -> Self {
        let max_b = if tau > 0.0 {
            (1.0 / tau).ceil() as usize
        } else {
            200
        };
        Self {
            sigma,
            tau,
            max_b: max_b.clamp(10, 5_000),
            ..Self::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if self.sigma <= 0.0 || self.sigma.is_nan() {
            return Err(StatsError::InvalidParameter("sigma must be > 0".into()));
        }
        if self.tau <= 0.0 || self.tau.is_nan() {
            return Err(StatsError::InvalidParameter("tau must be > 0".into()));
        }
        if self.max_b < MIN_B {
            return Err(StatsError::InvalidParameter(format!(
                "need max_b ≥ {MIN_B}"
            )));
        }
        Ok(())
    }
}

/// Result of the sample-size phase: `(n, fit, ladder)`.
pub type NEstimate = (u64, PowerLawFit, Vec<(u64, f64)>);

/// The outcome of the SSABE procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsabeEstimate {
    /// Estimated number of bootstraps `B`.
    pub b: usize,
    /// Estimated sample size `n` needed to reach the error bound.
    pub n: u64,
    /// The cv the fitted curve predicts at `n`.
    pub predicted_cv: f64,
    /// The cv trace observed while growing `B` (one entry per candidate `B`,
    /// starting at `B = 2`).
    pub cv_trace: Vec<f64>,
    /// The `(n_i, cv_i)` ladder used for the sample-size fit.
    pub ladder: Vec<(u64, f64)>,
    /// The fitted power-law curve `cv(n) = a·n^b`.
    pub fit: PowerLawFit,
    /// Whether early approximation is worthwhile, i.e. `B·n < N`.
    pub worthwhile: bool,
}

/// The SSABE estimator.
#[derive(Clone)]
pub struct Ssabe {
    config: SsabeConfig,
    /// Optional remote replicate evaluation for the count-based kernel (see
    /// [`SectionEvaluator`]).  `None` evaluates everything locally; either
    /// way the estimates are the same pure function of the seed.
    evaluator: Option<Arc<SectionEvaluator>>,
}

impl std::fmt::Debug for Ssabe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ssabe")
            .field("config", &self.config)
            .field("evaluator", &self.evaluator.as_ref().map(|_| "Fn"))
            .finish()
    }
}

impl Ssabe {
    /// Creates the estimator.
    pub fn new(config: SsabeConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            evaluator: None,
        })
    }

    /// Routes count-based replicate evaluation through `evaluator` (e.g. a
    /// wire transport shipping the O(√n) section summary to remote workers).
    /// Both phases use it: B-estimation fetches replicates in growing chunks,
    /// the ladder fits fetch one batch per level.  A conforming evaluator
    /// returns the exact bits local evaluation would, so the estimates do not
    /// depend on where replicates ran; any decline falls back locally.
    pub fn with_evaluator(mut self, evaluator: Arc<SectionEvaluator>) -> Self {
        self.evaluator = Some(evaluator);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SsabeConfig {
        &self.config
    }

    /// Phase 1a: grows `B` over the candidate set `{2, …, max_b}` until the cv
    /// estimate stabilises to within τ.  Returns the chosen `B` and the cv
    /// trace.
    pub fn estimate_b(
        &self,
        seed: u64,
        pilot: &[f64],
        estimator: &dyn Estimator,
    ) -> Result<(usize, Vec<f64>)> {
        // Multi-column estimators resample whole records; every size below is
        // a record count.
        let stride = estimator.record_stride().max(1);
        if pilot.len() % stride != 0 {
            return Err(StatsError::InvalidParameter(format!(
                "pilot of {} values is not a whole number of {stride}-column records",
                pilot.len()
            )));
        }
        let pilot_records = pilot.len() / stride;
        if pilot_records < 2 {
            return Err(StatsError::EmptySample);
        }
        // Replicate i always draws from the stream (b_seed, i), so growing B
        // extends the replicate set without redrawing the prefix — the same
        // streams a full parallel bootstrap at any thread count would use.
        let b_seed = derive_seed(seed, B_PHASE);
        let sections = BuiltSections::build_for(pilot, estimator, self.config.kernel)?;
        // The sections path never touches the Resampler — leave it empty
        // (zero allocation) rather than building unused scratch.
        let mut scratch = if sections.is_some() {
            Resampler::new()
        } else {
            Resampler::with_capacity(pilot.len())
        };
        // Remote evaluation is fetched in fixed-size chunks ahead of the
        // incremental B growth: replicate i is a pure function of (b_seed, i),
        // so prefetching past the stopping point changes nothing, and any
        // decline switches to local evaluation of the same streams.
        const REMOTE_CHUNK: u64 = 32;
        let mut fetched: Vec<f64> = Vec::new();
        let mut remote_live = self.evaluator.is_some() && sections.is_some();
        let mut replicate = |i: usize| {
            let Some(built) = &sections else {
                return scratch.replicate(b_seed, i as u64, pilot, pilot_records, estimator);
            };
            if remote_live && i >= fetched.len() {
                let chunk = self.evaluator.as_ref().and_then(|ev| {
                    ev(
                        built,
                        b_seed,
                        fetched.len() as u64,
                        REMOTE_CHUNK,
                        pilot_records,
                    )
                });
                match chunk {
                    Some(chunk) if chunk.len() == REMOTE_CHUNK as usize => fetched.extend(chunk),
                    _ => remote_live = false,
                }
            }
            if let Some(&r) = fetched.get(i) {
                return r;
            }
            let mut rng = crate::rng::replicate_rng(b_seed, i as u64);
            built.replicate(&mut rng, pilot_records)
        };
        // Seed with two replicates (cv needs at least two points).
        let mut replicates: Vec<f64> = vec![replicate(0), replicate(1)];
        let mut trace = vec![coefficient_of_variation(&replicates)];
        let mut chosen = self.config.max_b;
        for b in 3..=self.config.max_b {
            replicates.push(replicate(b - 1));
            let cv = coefficient_of_variation(&replicates);
            let prev = *trace.last().expect("trace is non-empty");
            trace.push(cv);
            let stable = (cv - prev).abs() < self.config.tau;
            if stable && b >= MIN_B {
                chosen = b;
                break;
            }
        }
        Ok((chosen, trace))
    }

    /// Phase 1b: measures the cv on a nested subsample ladder of the pilot,
    /// fits a power-law curve and solves it for the target error bound σ.
    /// Returns `(n, fit, ladder)`.
    pub fn estimate_n(
        &self,
        seed: u64,
        pilot: &[f64],
        estimator: &dyn Estimator,
        b: usize,
    ) -> Result<NEstimate> {
        // Ladder sizes count *records*: a multi-column pilot is never cut in
        // the middle of a record.
        let stride = estimator.record_stride().max(1);
        let n0 = pilot.len() / stride;
        if pilot.len() % stride != 0 {
            return Err(StatsError::InvalidParameter(format!(
                "pilot of {} values is not a whole number of {stride}-column records",
                pilot.len()
            )));
        }
        if n0 < (1 << LADDER_LEVELS) {
            return Err(StatsError::InvalidParameter(format!(
                "pilot of {n0} items is too small for {LADDER_LEVELS} ladder levels"
            )));
        }
        let l = LADDER_LEVELS;
        let mut ladder = Vec::with_capacity(l);
        let config = BootstrapConfig::with_resamples(b.max(2))
            .with_parallelism(self.config.parallelism)
            .with_kernel(self.config.kernel);
        for i in 1..=l {
            // n_i = n0 / 2^(l - i): the smallest subsample first, the full pilot last.
            let ni = n0 >> (l - i);
            if ni < 2 {
                continue;
            }
            let subsample = &pilot[..ni * stride];
            let level_seed = derive_seed(seed, LADDER_PHASE + i as u64);
            let result = bootstrap_distribution_via(
                level_seed,
                subsample,
                estimator,
                &config,
                self.evaluator.as_deref(),
            )?;
            if result.cv.is_finite() && result.cv > 0.0 {
                ladder.push((ni as u64, result.cv));
            }
        }
        if ladder.len() < 2 {
            return Err(StatsError::InvalidParameter(
                "could not measure enough finite cv points for the ladder fit".into(),
            ));
        }
        let points: Vec<(f64, f64)> = ladder.iter().map(|(n, cv)| (*n as f64, *cv)).collect();
        let fit = fit_power_law(&points)?;
        let smallest_measured = ladder[0].0;
        let n = match fit.solve_for_x(self.config.sigma) {
            // Only trust the fitted curve inside the measured range: solving
            // to a size below the smallest ladder point would extrapolate from
            // pure Monte-Carlo noise, and the bound is already empirically
            // verified at every measured size.
            Some(x) if x.is_finite() && x >= smallest_measured as f64 => x.ceil() as u64,
            // The pilot already satisfies σ (or the curve is flat): the smallest
            // ladder size that met the bound, else the pilot size.
            _ => ladder
                .iter()
                .find(|(_, cv)| *cv <= self.config.sigma)
                .map(|(n, _)| *n)
                .unwrap_or(n0 as u64),
        };
        Ok((n, fit, ladder))
    }

    /// Runs both phases on a pilot sample drawn from a data set of `total_n`
    /// records and decides whether early approximation is worthwhile
    /// (`B·n < N`).
    pub fn estimate(
        &self,
        seed: u64,
        pilot: &[f64],
        estimator: &dyn Estimator,
        total_n: u64,
    ) -> Result<SsabeEstimate> {
        let (b, cv_trace) = self.estimate_b(seed, pilot, estimator)?;
        let (n, fit, ladder) = self.estimate_n(seed, pilot, estimator, b)?;
        let n = n.min(total_n.max(1));
        let predicted_cv = fit.predict(n as f64);
        let worthwhile = (b as u64).saturating_mul(n) < total_n;
        Ok(SsabeEstimate {
            b,
            n,
            predicted_cv,
            cv_trace,
            ladder,
            fit,
            worthwhile,
        })
    }
}

/// The theoretical number of bootstraps `1/(2ε₀²)` quoted in §3 of the paper,
/// where ε₀ is the acceptable Monte-Carlo error relative to the ideal
/// bootstrap.
pub fn theoretical_b(epsilon0: f64) -> u64 {
    if epsilon0 <= 0.0 {
        return u64::MAX;
    }
    (1.0 / (2.0 * epsilon0 * epsilon0)).ceil() as u64
}

/// The theoretical sample size for the **mean**: solving
/// `cv(n) = (sd/mean)/√n ≤ σ` gives `n ≥ (sd / (mean·σ))²`.  Used as the
/// "theoretical prediction" series of Fig. 8.
pub fn theoretical_n_for_mean(data: &[f64], sigma: f64) -> Result<u64> {
    if data.len() < 2 {
        return Err(StatsError::EmptySample);
    }
    if sigma <= 0.0 {
        return Err(StatsError::InvalidParameter("sigma must be > 0".into()));
    }
    let mean = Mean.estimate(data);
    let sd = StdDev.estimate(data);
    if mean == 0.0 {
        return Err(StatsError::InvalidParameter(
            "mean of zero has no relative error".into(),
        ));
    }
    Ok(((sd / (mean.abs() * sigma)).powi(2)).ceil().max(1.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{Mean, Median};
    use crate::rng::{seeded_rng, standard_normal};

    fn lognormal_ish(n: usize, seed: u64) -> Vec<f64> {
        // Positive, right-skewed data resembling the paper's synthetic sets.
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| (1.0 + 0.4 * standard_normal(&mut rng)).exp() * 50.0)
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(Ssabe::new(SsabeConfig {
            sigma: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(Ssabe::new(SsabeConfig {
            tau: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(Ssabe::new(SsabeConfig {
            max_b: MIN_B - 1,
            ..Default::default()
        })
        .is_err());
        assert!(Ssabe::new(SsabeConfig::new(0.05, 0.01)).is_ok());
    }

    #[test]
    fn estimated_b_is_far_below_the_theoretical_prediction() {
        // Paper §3.2 / Fig. 8: the empirical B (≈30) is much smaller than the
        // theoretical 1/(2ε₀²) (e.g. 5000 for ε₀ = 0.01).
        let pilot = lognormal_ish(2_000, 1);
        let ssabe = Ssabe::new(SsabeConfig::new(0.05, 0.01)).unwrap();
        let (b, trace) = ssabe.estimate_b(2, &pilot, &Mean).unwrap();
        assert!(b >= 5);
        assert!(b <= 100, "empirical B should be small, got {b}");
        assert!((b as u64) < theoretical_b(0.01));
        assert_eq!(
            trace.len(),
            b - 1,
            "one cv point per candidate B starting at B=2"
        );
    }

    #[test]
    fn estimate_n_scales_with_the_error_bound() {
        let pilot = lognormal_ish(4_096, 3);
        let loose = Ssabe::new(SsabeConfig::new(0.10, 0.01)).unwrap();
        let tight = Ssabe::new(SsabeConfig::new(0.01, 0.01)).unwrap();
        let (n_loose, fit, ladder) = loose.estimate_n(4, &pilot, &Mean, 30).unwrap();
        let (n_tight, _, _) = tight.estimate_n(4, &pilot, &Mean, 30).unwrap();
        assert!(
            n_tight > n_loose,
            "a tighter bound needs more data: {n_tight} vs {n_loose}"
        );
        assert!(fit.b < 0.0, "the error curve must decrease with n");
        assert!(ladder.len() >= 2);
        // The ladder sizes are nested powers of two of the pilot size.
        assert!(ladder.windows(2).all(|w| w[1].0 > w[0].0));
    }

    #[test]
    fn full_estimate_is_worthwhile_for_big_data_and_not_for_tiny_data() {
        let pilot = lognormal_ish(4_096, 5);
        let ssabe = Ssabe::new(SsabeConfig::new(0.05, 0.01)).unwrap();
        let big = ssabe.estimate(6, &pilot, &Mean, 100_000_000).unwrap();
        assert!(big.worthwhile, "sampling must pay off on 10^8 records");
        assert!(big.n < 100_000_000);
        assert!(
            big.predicted_cv <= 0.06,
            "predicted cv {} should be near the bound",
            big.predicted_cv
        );

        let small = ssabe.estimate(6, &pilot, &Mean, 50).unwrap();
        assert!(!small.worthwhile, "B·n ≥ N for a 50-record data set");
        assert!(small.n <= 50, "n is capped at the data size");
    }

    #[test]
    fn works_for_the_median_too() {
        let pilot = lognormal_ish(2_048, 7);
        let ssabe = Ssabe::new(SsabeConfig::new(0.05, 0.02)).unwrap();
        let est = ssabe.estimate(8, &pilot, &Median, 10_000_000).unwrap();
        assert!(est.b >= 5);
        assert!(est.n > 0);
        assert!(est.worthwhile);
    }

    #[test]
    fn evaluator_backed_estimates_match_local_ones_bit_for_bit() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let pilot = lognormal_ish(2_048, 13);
        let ssabe = Ssabe::new(SsabeConfig::new(0.05, 0.01)).unwrap();
        let local = ssabe.estimate(14, &pilot, &Mean, 10_000_000).unwrap();

        // A conforming evaluator re-runs the pure replicate function — the
        // estimates must not depend on where replicates were evaluated.
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let conforming: Arc<SectionEvaluator> =
            Arc::new(move |sections, seed, b_start, b_count, size| {
                seen.fetch_add(1, Ordering::SeqCst);
                Some(
                    (b_start..b_start + b_count)
                        .map(|b| sections.replicate(&mut crate::rng::replicate_rng(seed, b), size))
                        .collect(),
                )
            });
        let remote = ssabe
            .clone()
            .with_evaluator(conforming)
            .estimate(14, &pilot, &Mean, 10_000_000)
            .unwrap();
        assert_eq!(remote, local);
        // Phase 1a fetches in chunks, phase 1b once per ladder level.
        assert!(calls.load(Ordering::SeqCst) >= 2, "evaluator was consulted");

        // A declining evaluator silently falls back to local evaluation.
        let declining: Arc<SectionEvaluator> = Arc::new(|_, _, _, _, _| None);
        let fallback = ssabe
            .clone()
            .with_evaluator(declining)
            .estimate(14, &pilot, &Mean, 10_000_000)
            .unwrap();
        assert_eq!(fallback, local);
    }

    #[test]
    fn pilot_too_small_for_ladder_is_rejected() {
        let pilot = lognormal_ish(16, 9);
        let ssabe = Ssabe::new(SsabeConfig::default()).unwrap();
        assert!(matches!(
            ssabe.estimate_n(1, &pilot, &Mean, 30),
            Err(StatsError::InvalidParameter(_))
        ));
        assert!(matches!(
            ssabe.estimate_b(1, &[1.0], &Mean),
            Err(StatsError::EmptySample)
        ));
    }

    #[test]
    fn theoretical_formulas() {
        assert_eq!(theoretical_b(0.01), 5_000);
        assert_eq!(theoretical_b(0.1), 50);
        assert_eq!(theoretical_b(0.0), u64::MAX);
        // For data with sd/mean = 0.5 and sigma = 0.05, n = (0.5/0.05)^2 = 100.
        let data: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        let n = theoretical_n_for_mean(&data, 0.05).unwrap();
        assert!((95..=105).contains(&n), "expected ≈100, got {n}");
        assert!(theoretical_n_for_mean(&[1.0], 0.05).is_err());
        assert!(theoretical_n_for_mean(&data, 0.0).is_err());
    }
}
