//! Statistical calibration of the bootstrap: deterministic oracles that need
//! no repeated runs.
//!
//! For `Mean` the bootstrap distribution of a fixed sample has a closed-form
//! spread: a resample mean has variance `s²/n`, where `s` is the plug-in
//! (n-denominator) standard deviation of the sample.  So as `B → ∞` the
//! bootstrap cv tends to `s/(√n·|x̄|)`, and a large-`B` bootstrap must land
//! close to it under every kernel.

use earl_bootstrap::bootstrap::{
    bootstrap_distribution, BootstrapConfig, BootstrapKernel, ResolvedKernel,
};
use earl_bootstrap::estimators::Mean;
use earl_bootstrap::rng::{seeded_rng, standard_normal};

/// A B = 10 000 bootstrap cv of the mean lands within 2 % of the closed form
/// `s/(√n·|x̄|)`, under `Auto` (the count-based kernel) and `Gather`.  At
/// this B the cv's own relative sampling error is about 1/√(2B) ≈ 0.7 %.
#[test]
fn mean_bootstrap_cv_matches_the_closed_form() {
    let mut rng = seeded_rng(0xCA11);
    let sample: Vec<f64> = (0..1_000)
        .map(|_| 500.0 + 400.0 * standard_normal(&mut rng))
        .collect();
    let n = sample.len() as f64;
    let mean = sample.iter().sum::<f64>() / n;
    let plug_in_sd = (sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt();
    let closed_form = plug_in_sd / (n.sqrt() * mean.abs());

    for (kernel, resolved) in [
        (BootstrapKernel::Auto, ResolvedKernel::CountBased),
        (BootstrapKernel::Gather, ResolvedKernel::Gather),
    ] {
        assert_eq!(kernel.resolve_for(&Mean), resolved);
        let config = BootstrapConfig {
            kernel,
            ..BootstrapConfig::with_resamples(10_000)
        };
        let cv = bootstrap_distribution(0xB007, &sample, &Mean, &config)
            .unwrap()
            .cv;
        let off = (cv / closed_form - 1.0).abs();
        assert!(
            off < 0.02,
            "{kernel:?}: bootstrap cv {cv} is {:.2} % off the closed form {closed_form}",
            100.0 * off
        );
    }
}
