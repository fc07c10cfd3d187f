//! # earl-bench
//!
//! The experiment harness that regenerates every figure of the EARL paper's
//! evaluation (§6) on the simulated cluster.
//!
//! Each `figN` function returns the data series behind the corresponding paper
//! figure; the `experiments` binary prints them as tables.  Absolute numbers
//! are simulated (see [`stock`] and [`earl_workload::scaling`] for the
//! substitution rationale); the *shapes* — who wins, by roughly what factor,
//! and where crossovers fall — are the reproduction targets, asserted by the
//! tests in [`figures`].  Wall-clock measurement of the engine itself is the
//! job of the repo's benchmark (`benchmark/README.md`), not of this crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod env;
pub mod figures;
pub mod stock;

pub use env::{BenchEnv, Scale};
