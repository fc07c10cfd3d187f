//! # earl-core — the Early Accurate Result Library
//!
//! A from-scratch Rust reproduction of **EARL** (Laptev, Zeng, Zaniolo.
//! *Early Accurate Results for Advanced Analytics on MapReduce*, VLDB 2012):
//! a non-parametric extension of a MapReduce system that returns early
//! approximate results for arbitrary analytical jobs together with reliable,
//! bootstrap-based error estimates.
//!
//! ## How it works (paper §2–§4)
//!
//! 1. A uniform sample `s` of `n` records (`n ≪ N`) is drawn from the input
//!    using pre-map or post-map sampling ([`earl_sampling`]).
//! 2. The user's job is evaluated on `s` and on `B` bootstrap resamples of `s`,
//!    producing a *result distribution* ([`earl_bootstrap`]).
//! 3. The Accuracy Estimation Stage ([`aes`]) derives the coefficient of
//!    variation (cv) of that distribution.  If it exceeds the user's error
//!    bound σ, the sample is expanded by Δs and the process repeats — reusing
//!    previous work through delta maintenance.
//! 4. `B` and `n` are not guessed: they are estimated empirically by the SSABE
//!    procedure on a small pilot sample, and EARL falls back to exact execution
//!    whenever `B·n ≥ N`.
//!
//! ## Entry points
//!
//! * [`EarlDriver`] — run any [`EarlTask`] (mean, sum, median, quantiles,
//!   variance, count, or your own) with an error bound.
//! * [`EarlDriver::run_grouped`] — per-key aggregates with a bound per
//!   group, on the same ladder.
//! * [`tasks::kmeans`] — approximate K-Means (the paper's advanced-mining
//!   example, Fig. 7) plus the exact MapReduce baseline.
//!
//! Node failures (§3.4) need no separate entry point: under the default
//! `FailurePolicy::Degrade` the driver writes off lost data and answers from
//! what survives, with the error estimate pricing the loss.
//!
//! ```
//! use earl_cluster::Cluster;
//! use earl_dfs::{Dfs, DfsConfig};
//! use earl_core::{EarlConfig, EarlDriver, tasks::MeanTask};
//!
//! // A 5-node simulated cluster with a small file of numbers.
//! let dfs = Dfs::new(Cluster::with_nodes(5), DfsConfig::small_blocks(4096)).unwrap();
//! dfs.write_lines("/numbers", (0..20_000).map(|i| format!("{}", i % 1000))).unwrap();
//!
//! let driver = EarlDriver::new(dfs, EarlConfig { sigma: 0.05, ..EarlConfig::default() });
//! let report = driver.run("/numbers", &MeanTask).unwrap();
//! assert!(report.error_estimate <= 0.05 + 1e-9);
//! assert!(report.sample_fraction <= 1.0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aes;
pub mod config;
pub mod driver;
pub mod error;
pub mod grouped;
pub mod progress;
pub mod report;
pub mod task;
pub mod tasks;

pub use aes::{AccuracyEstimationStage, AesReport};
pub use config::{EarlConfig, SamplingMethod};
pub use driver::EarlDriver;
pub use error::EarlError;
pub use grouped::{GroupReport, GroupedAggregate, GroupedEarlReport, GroupedStat};
pub use progress::{EarlUpdate, Progress};
pub use report::EarlReport;
pub use task::{EarlTask, TaskEstimator};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EarlError>;
