//! Value generators with known population statistics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The distribution a value generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Uniform on `[low, high)`.
    Uniform {
        /// Lower bound (inclusive).
        low: f64,
        /// Upper bound (exclusive).
        high: f64,
    },
    /// Normal with the given mean and standard deviation.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Log-normal: `exp(N(mu, sigma))`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Exponential with the given rate λ.
    Exponential {
        /// Rate parameter λ.
        rate: f64,
    },
    /// Zipf over `{1, …, n}` with exponent `s` (values returned as f64 ranks).
    Zipf {
        /// Number of distinct ranks.
        n: u64,
        /// Skew exponent.
        s: f64,
    },
}

impl Distribution {
    /// The true population mean of the distribution (used to validate EARL's
    /// error bounds against ground truth).
    pub fn true_mean(&self) -> f64 {
        match *self {
            Distribution::Uniform { low, high } => (low + high) / 2.0,
            Distribution::Normal { mean, .. } => mean,
            Distribution::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Distribution::Exponential { rate } => 1.0 / rate,
            Distribution::Zipf { n, s } => {
                let h = |exp: f64| (1..=n).map(|k| (k as f64).powf(-exp)).sum::<f64>();
                h(s - 1.0) / h(s)
            }
        }
    }

    /// The true population standard deviation.
    pub fn true_std_dev(&self) -> f64 {
        match *self {
            Distribution::Uniform { low, high } => (high - low) / 12f64.sqrt(),
            Distribution::Normal { std_dev, .. } => std_dev,
            Distribution::LogNormal { mu, sigma } => {
                let s2 = sigma * sigma;
                (((s2).exp() - 1.0) * (2.0 * mu + s2).exp()).sqrt()
            }
            Distribution::Exponential { rate } => 1.0 / rate,
            Distribution::Zipf { n, s } => {
                let h = |exp: f64| (1..=n).map(|k| (k as f64).powf(-exp)).sum::<f64>();
                let mean = h(s - 1.0) / h(s);
                let second = h(s - 2.0) / h(s);
                (second - mean * mean).max(0.0).sqrt()
            }
        }
    }
}

/// A seeded generator of values from a [`Distribution`].
#[derive(Debug, Clone)]
pub struct ValueGenerator {
    distribution: Distribution,
    rng: StdRng,
    /// Precomputed Zipf normalisation constant, if applicable.
    zipf_cdf: Option<Vec<f64>>,
}

impl ValueGenerator {
    /// Creates a generator.
    pub fn new(distribution: Distribution, seed: u64) -> Self {
        let zipf_cdf = match distribution {
            Distribution::Zipf { n, s } => {
                let mut weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                for w in &mut weights {
                    acc += *w / total;
                    *w = acc;
                }
                Some(weights)
            }
            _ => None,
        };
        Self {
            distribution,
            rng: StdRng::seed_from_u64(seed),
            zipf_cdf,
        }
    }

    /// The distribution being generated.
    pub fn distribution(&self) -> Distribution {
        self.distribution
    }

    /// Draws the next value.
    pub fn next_value(&mut self) -> f64 {
        match self.distribution {
            Distribution::Uniform { low, high } => self.rng.gen_range(low..high),
            Distribution::Normal { mean, std_dev } => mean + std_dev * self.standard_normal(),
            Distribution::LogNormal { mu, sigma } => (mu + sigma * self.standard_normal()).exp(),
            Distribution::Exponential { rate } => {
                let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
                -u.ln() / rate
            }
            Distribution::Zipf { .. } => {
                let cdf = self.zipf_cdf.as_ref().expect("zipf cdf precomputed");
                let u: f64 = self.rng.gen();
                (cdf.partition_point(|&c| c < u) + 1) as f64
            }
        }
    }

    /// Draws `count` values.
    pub fn take(&mut self, count: usize) -> Vec<f64> {
        (0..count).map(|_| self.next_value()).collect()
    }

    fn standard_normal(&mut self) -> f64 {
        loop {
            let u1: f64 = self.rng.gen();
            let u2: f64 = self.rng.gen();
            if u1 > f64::MIN_POSITIVE {
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(values: &[f64]) -> f64 {
        values.iter().sum::<f64>() / values.len() as f64
    }

    fn empirical_sd(values: &[f64]) -> f64 {
        let m = empirical_mean(values);
        (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
    }

    #[test]
    fn uniform_matches_theory() {
        let d = Distribution::Uniform {
            low: 10.0,
            high: 30.0,
        };
        let values = ValueGenerator::new(d, 1).take(50_000);
        assert!((empirical_mean(&values) - d.true_mean()).abs() < 0.2);
        assert!((empirical_sd(&values) - d.true_std_dev()).abs() < 0.2);
        assert!(values.iter().all(|&v| (10.0..30.0).contains(&v)));
    }

    #[test]
    fn normal_matches_theory() {
        let d = Distribution::Normal {
            mean: 100.0,
            std_dev: 15.0,
        };
        let values = ValueGenerator::new(d, 2).take(50_000);
        assert!((empirical_mean(&values) - 100.0).abs() < 0.5);
        assert!((empirical_sd(&values) - 15.0).abs() < 0.5);
        assert!((d.true_std_dev() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn lognormal_matches_theory() {
        let d = Distribution::LogNormal {
            mu: 3.0,
            sigma: 0.5,
        };
        let values = ValueGenerator::new(d, 3).take(100_000);
        let rel = (empirical_mean(&values) - d.true_mean()).abs() / d.true_mean();
        assert!(rel < 0.02, "lognormal mean off by {rel}");
        assert!(values.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn exponential_matches_theory() {
        let d = Distribution::Exponential { rate: 0.25 };
        let values = ValueGenerator::new(d, 4).take(50_000);
        assert!((empirical_mean(&values) - 4.0).abs() < 0.1);
        assert!((d.true_std_dev() - d.true_mean()).abs() < 1e-12, "cv 1");
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let d = Distribution::Zipf { n: 100, s: 1.2 };
        let values = ValueGenerator::new(d, 5).take(50_000);
        assert!(values.iter().all(|&v| (1.0..=100.0).contains(&v)));
        // Rank 1 must be by far the most common.
        let ones = values.iter().filter(|&&v| v == 1.0).count() as f64 / values.len() as f64;
        assert!(ones > 0.15, "rank-1 frequency {ones}");
        let rel = (empirical_mean(&values) - d.true_mean()).abs() / d.true_mean();
        assert!(rel < 0.05, "zipf mean off by {rel}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let d = Distribution::Normal {
            mean: 0.0,
            std_dev: 1.0,
        };
        assert_eq!(
            ValueGenerator::new(d, 7).take(100),
            ValueGenerator::new(d, 7).take(100)
        );
        assert_ne!(
            ValueGenerator::new(d, 7).take(100),
            ValueGenerator::new(d, 8).take(100)
        );
    }
}
