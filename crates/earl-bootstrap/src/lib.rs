//! # earl-bootstrap
//!
//! The statistical machinery of the EARL reproduction (Laptev, Zeng, Zaniolo —
//! VLDB 2012, §3–§4):
//!
//! * [`estimators`] — the functions of interest `f` (mean, median, quantiles,
//!   variance, correlation, …) evaluated over numeric samples, their
//!   linear-statistic contracts, plus mergeable streaming moments;
//! * [`bootstrap`] — Monte-Carlo bootstrap resampling producing a result
//!   distribution, point estimate, standard error, bias, coefficient of
//!   variation and percentile confidence intervals, evaluated through one of
//!   two replicate kernels ([`bootstrap::ResolvedKernel`]): gather, or
//!   resample-free count-based for linear statistics;
//! * [`ssabe`] — the paper's two-phase **S**ample **S**ize **A**nd **B**ootstrap
//!   **E**stimation algorithm (§3.2) that empirically picks `B` via
//!   τ-stability and `n` via a least-squares curve fit over a subsample ladder,
//!   plus the theoretical predictions it is compared against in Fig. 8;
//! * [`delta`] — the inter-iteration (§4.1) and intra-iteration (§4.2) delta
//!   maintenance optimisations, including the two-layer sketch structure and
//!   the Eq. 4 overlap model;
//! * [`categorical`] — proportion estimation with a normal-approximation
//!   standard error (Appendix A);
//! * [`parallel`] — the scoped fork-join executor all resampling paths run on:
//!   per-worker reusable scratch buffers (no per-replicate allocation) and
//!   per-replicate RNG streams derived from `(seed, replicate)` via SplitMix64.
//!
//! Everything is deterministic given a seed, **independent of the worker
//! thread count**: replicate `b` always draws from the RNG stream derived from
//! `(seed, b)`, so parallelism changes wall-clock time only.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bootstrap;
pub mod categorical;
pub mod delta;
pub mod estimators;
pub mod least_squares;
pub mod rng;
#[cfg(test)]
mod single_pass_oracle;
pub mod ssabe;

/// The shared fork-join executor (re-exported from `earl-parallel`).
pub use earl_parallel as parallel;

pub use bootstrap::{
    bootstrap_distribution, bootstrap_distribution_via, BootstrapConfig, BootstrapKernel,
    BootstrapResult, BuiltSections, KarySections, LinearSections, Resampler, ResolvedKernel,
    SectionEvaluator,
};
pub use estimators::{
    Estimator, KaryComponents, KaryForm, LinearForm, StreamingStats, MAX_KARY_COMPONENTS,
};
pub use ssabe::{Ssabe, SsabeConfig, SsabeEstimate};

/// Errors raised by the statistical layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample was empty (or too small for the requested operation).
    EmptySample,
    /// A configuration parameter was invalid.
    InvalidParameter(String),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "empty sample"),
            StatsError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
