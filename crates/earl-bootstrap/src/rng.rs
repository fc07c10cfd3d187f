//! Deterministic RNG helpers.
//!
//! Every stochastic component of the reproduction accepts a seed so that
//! experiments are exactly repeatable; this module centralises RNG
//! construction and the index-sampling primitives used by the resamplers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a seeded standard RNG.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// One SplitMix64 output for the given state (stateless form).
///
/// SplitMix64 is the standard generator for *deriving* independent seeds: its
/// output function is a bijection on `u64`, so distinct inputs can never
/// collide.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed from `(seed, stream)` via two chained
/// SplitMix64 steps.  Used to give each phase of a procedure (SSABE's B-phase
/// vs. ladder levels, each delta expansion, …) its own seed space.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ stream)
}

/// The RNG stream of bootstrap replicate `replicate` under `seed`.
///
/// The stream depends **only** on `(seed, replicate)` — never on which worker
/// thread evaluates it or in what order — so bootstrap results are bit-identical
/// for every thread count, and growing `B` preserves the replicates already
/// drawn (the prefix property SSABE's incremental B-search relies on).
pub fn replicate_rng(seed: u64, replicate: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, replicate))
}

/// Draws `count` indices uniformly at random **with replacement** from
/// `[0, n)`.
pub fn sample_indices_with_replacement<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    count: usize,
) -> Vec<usize> {
    let mut out = Vec::new();
    sample_indices_with_replacement_into(rng, n, count, &mut out);
    out
}

/// Allocation-free variant of [`sample_indices_with_replacement`]: clears and
/// refills `out`, reusing its capacity.
pub fn sample_indices_with_replacement_into<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    count: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    if n == 0 {
        return;
    }
    out.reserve(count);
    for _ in 0..count {
        out.push(rng.gen_range(0..n));
    }
}

/// Draws one sample from the binomial distribution `Binomial(trials, p)`.
///
/// For small `trials` this sums Bernoulli draws; for large `trials` it uses
/// the Gaussian approximation `N(trials·p, trials·p·(1-p))` — exactly the
/// approximation the paper applies to Equation 2 when maintaining resamples
/// incrementally (§4.1).
pub fn binomial_sample<R: Rng + ?Sized>(rng: &mut R, trials: u64, p: f64) -> u64 {
    if trials == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return trials;
    }
    if trials <= 64 {
        let mut successes = 0;
        for _ in 0..trials {
            if rng.gen::<f64>() < p {
                successes += 1;
            }
        }
        return successes;
    }
    let mean = trials as f64 * p;
    let sd = (trials as f64 * p * (1.0 - p)).sqrt();
    let draw = mean + sd * standard_normal(rng);
    draw.round().clamp(0.0, trials as f64) as u64
}

/// Draws one standard-normal variate using the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_streams_are_independent_and_stable() {
        // Same (seed, replicate) -> same stream.
        let a: Vec<u64> = {
            let mut rng = replicate_rng(7, 3);
            (0..8).map(|_| rng.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = replicate_rng(7, 3);
            (0..8).map(|_| rng.gen()).collect()
        };
        assert_eq!(a, b);
        // Different replicate or seed -> different stream.
        let c: u64 = replicate_rng(7, 4).gen();
        let d: u64 = replicate_rng(8, 3).gen();
        assert_ne!(a[0], c);
        assert_ne!(a[0], d);
        // derive_seed separates phase streams.
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        // splitmix64 is a bijection-derived mix: distinct inputs stay distinct.
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn into_variant_reuses_the_buffer() {
        let mut rng = seeded_rng(9);
        let mut buf = Vec::new();
        sample_indices_with_replacement_into(&mut rng, 10, 100, &mut buf);
        assert_eq!(buf.len(), 100);
        let capacity = buf.capacity();
        sample_indices_with_replacement_into(&mut rng, 10, 100, &mut buf);
        assert_eq!(buf.len(), 100);
        assert_eq!(buf.capacity(), capacity, "refill must not reallocate");
        sample_indices_with_replacement_into(&mut rng, 0, 5, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a: Vec<u32> = {
            let mut rng = seeded_rng(42);
            (0..10).map(|_| rng.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut rng = seeded_rng(42);
            (0..10).map(|_| rng.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn with_replacement_can_repeat_and_is_bounded() {
        let mut rng = seeded_rng(1);
        let idx = sample_indices_with_replacement(&mut rng, 5, 1000);
        assert_eq!(idx.len(), 1000);
        assert!(idx.iter().all(|&i| i < 5));
        // With 1000 draws from 5 values, repeats are certain.
        let distinct: std::collections::HashSet<_> = idx.iter().collect();
        assert!(distinct.len() <= 5);
        assert!(sample_indices_with_replacement(&mut rng, 0, 10).is_empty());
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = seeded_rng(3);
        assert_eq!(binomial_sample(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial_sample(&mut rng, 10, 0.0), 0);
        assert_eq!(binomial_sample(&mut rng, 10, 1.0), 10);
        for _ in 0..100 {
            let x = binomial_sample(&mut rng, 20, 0.3);
            assert!(x <= 20);
        }
    }

    #[test]
    fn binomial_mean_is_roughly_np() {
        let mut rng = seeded_rng(4);
        let trials = 10_000u64;
        let p = 0.25;
        let draws: Vec<u64> = (0..200)
            .map(|_| binomial_sample(&mut rng, trials, p))
            .collect();
        let mean = draws.iter().sum::<u64>() as f64 / draws.len() as f64;
        let expected = trials as f64 * p;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn standard_normal_has_zero_mean_unit_variance() {
        let mut rng = seeded_rng(5);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
