//! # earl-sampling
//!
//! Sampling over a distributed file system, as described in §3.3 of the EARL
//! paper (Laptev, Zeng, Zaniolo — VLDB 2012).
//!
//! The paper observes that neither naive block sampling (biased when data are
//! clustered on disk) nor reservoir sampling (requires a full scan) fits the
//! MapReduce setting, and introduces two practical techniques:
//!
//! * **Pre-map sampling** ([`premap`]) — draw random line offsets directly from
//!   the logical input splits *before* any data is sent to the mapper, using a
//!   bit-vector of already-used line starts (Algorithm 2).  Fast load times;
//!   the number of key/value pairs is only estimated.
//! * **Post-map sampling** ([`postmap`]) — read and parse everything once,
//!   hash the key/value pairs, and repeatedly draw without replacement from the
//!   hash as the required sample grows (Algorithm 1).  Slower loading but exact
//!   key/value accounting for result correction.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod postmap;
pub mod premap;
pub mod source;

pub use error::SamplingError;
pub use postmap::PostMapSampler;
pub use premap::PreMapSampler;
pub use source::{SampleBatch, SampleSource};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SamplingError>;
