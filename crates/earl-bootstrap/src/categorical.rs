//! Categorical data support (Appendix A of the paper).
//!
//! For categorical data the statistic of interest is the proportion of
//! "successes" in the population.  Given a sample of size `n` with `X`
//! successes, `p̂ = X/n` follows (approximately, for large `n`) a normal
//! distribution with mean `p` and variance `p(1−p)/n`, so its standard error
//! `√(p̂(1−p̂)/n)` gives the accuracy estimate in closed form — allowing EARL to
//! handle categorical attributes with the same early-termination loop as
//! numeric ones.

use serde::{Deserialize, Serialize};

use crate::{Result, StatsError};

/// A proportion estimate with its normal-approximation accuracy measures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProportionEstimate {
    /// Number of successes `X`.
    pub successes: u64,
    /// Sample size `n`.
    pub n: u64,
    /// The estimated proportion `p̂ = X/n`.
    pub p_hat: f64,
    /// The estimated standard error `√(p̂(1−p̂)/n)`.
    pub std_error: f64,
}

impl ProportionEstimate {
    /// Estimates a proportion from success/trial counts.
    pub fn new(successes: u64, n: u64) -> Result<Self> {
        if n == 0 {
            return Err(StatsError::EmptySample);
        }
        if successes > n {
            return Err(StatsError::InvalidParameter(
                "successes cannot exceed trials".into(),
            ));
        }
        let p_hat = successes as f64 / n as f64;
        let std_error = (p_hat * (1.0 - p_hat) / n as f64).sqrt();
        Ok(Self {
            successes,
            n,
            p_hat,
            std_error,
        })
    }

    /// Coefficient of variation of the estimate, `SE/p̂` — the same error
    /// measure EARL uses for numeric statistics.
    pub fn cv(&self) -> f64 {
        if self.p_hat == 0.0 {
            return f64::NAN;
        }
        self.std_error / self.p_hat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportion_basics() {
        let est = ProportionEstimate::new(30, 100).unwrap();
        assert!((est.p_hat - 0.3).abs() < 1e-12);
        assert!((est.std_error - (0.3f64 * 0.7 / 100.0).sqrt()).abs() < 1e-12);
        assert!(est.cv() > 0.0);
        assert!(ProportionEstimate::new(5, 0).is_err());
        assert!(ProportionEstimate::new(11, 10).is_err());
        let zero = ProportionEstimate::new(0, 10).unwrap();
        assert!(zero.cv().is_nan());
    }
}
