//! # earl-workload
//!
//! Synthetic data generation for the EARL reproduction.  The paper's
//! experiments (§6) run on "a synthetically generated data-set" so the accuracy
//! of EARL's estimates can be validated against known ground truth; this crate
//! provides the corresponding generators:
//!
//! * [`generators`] — value distributions (uniform, normal, log-normal,
//!   exponential, Zipf) with known population statistics;
//! * [`layout`] — disk layouts (shuffled vs clustered-by-value), used to show
//!   when naive block sampling breaks;
//! * [`dataset`] — builders that materialise generated records as
//!   newline-delimited files in the simulated DFS (plain values, key\tvalue
//!   pairs, K-Means points);
//! * [`grouped`] — grouped (`key<TAB>value`, interleaved groups with exact
//!   per-group truth) and categorical (weighted labels with exact counts)
//!   datasets for the grouped-aggregate and proportion workloads;
//! * [`paired`] — paired `x<TAB>y`, weighted `value<TAB>weight` and grouped
//!   `key<TAB>value<TAB>weight` datasets with exact truth (covariance,
//!   correlation, slope, ratio, weighted means) for the k-ary linear-form
//!   workloads;
//! * [`kmeans_data`] — Gaussian-mixture point clouds with known centroids for
//!   the Fig. 7 experiment;
//! * [`scaling`] — helpers for the "nominal data size" mode used to reproduce
//!   the 100 GB-scale figures on laptop-scale materialised data.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataset;
pub mod generators;
pub mod grouped;
pub mod kmeans_data;
pub mod layout;
pub mod paired;
pub mod scaling;

pub use dataset::{DatasetBuilder, DatasetSpec, EncodedRecords};
pub use generators::{Distribution, ValueGenerator};
pub use grouped::{
    CategoricalDataset, CategoricalSpec, GroupSpec, GroupTruth, GroupedDataset, GroupedSpec,
};
pub use kmeans_data::{KmeansDataset, KmeansSpec};
pub use paired::{
    paired_truth, GroupedWeightedDataset, GroupedWeightedSpec, PairedDataset, PairedSpec,
    PairedTruth, WeightedDataset, WeightedGroupSpec, WeightedSpec, WeightedTruth,
};
pub use scaling::NominalSize;
