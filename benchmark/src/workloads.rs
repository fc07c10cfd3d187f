//! The five workloads and why each exists.

use earl::core::tasks::{MeanTask, MedianTask};
use earl::core::EarlConfig;
use earl::workload::{DatasetSpec, GroupedSpec};

use crate::grouped::Grouped;
use crate::harness::Workload;
use crate::scalar::{Scalar, ScalarSpec};
use crate::serve::Serve;

pub const NAMES: [&str; 5] = [
    "scan_linear",
    "ladder_order",
    "grouped_keys",
    "net_remote",
    "serve_closed",
];

/// Builds workload `name` with every generator and `EarlConfig::seed` fed
/// from `seed`; the engine receives only the generated inputs.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    // The ladder workloads pin (n, B) so that SSABE's choices cannot move
    // the ladder between seeds.
    let pinned = |sigma: f64, depth: usize| EarlConfig {
        sigma,
        sample_size: Some(2000),
        bootstraps: Some(200),
        max_iterations: 30,
        pipeline_depth: depth,
        seed,
        ..EarlConfig::default()
    };
    Some(match name {
        "scan_linear" => Box::new(Scalar::new(
            EarlConfig {
                seed,
                ..EarlConfig::default()
            },
            MeanTask,
            ScalarSpec {
                nodes: 5,
                dataset: DatasetSpec::normal(4_000_000, 500.0, 100.0, seed),
                truth: |d| d.true_mean,
                remote: false,
            },
        )),
        "ladder_order" => Box::new(Scalar::new(
            pinned(0.0044, EarlConfig::default().pipeline_depth),
            MedianTask,
            ScalarSpec {
                nodes: 5,
                dataset: DatasetSpec::normal(1_000_000, 500.0, 400.0, seed),
                truth: |d| d.true_median,
                remote: false,
            },
        )),
        "grouped_keys" => Box::new(Grouped::new(
            GroupedSpec::normal_groups(200, 10_000, 100.0, 0.25, seed),
            EarlConfig {
                sigma: 0.01,
                seed,
                ..EarlConfig::default()
            },
        )),
        "net_remote" => Box::new(Scalar::new(
            // Depth 1: the only depth at which section summaries travel.
            pinned(0.0033, 1),
            MeanTask,
            ScalarSpec {
                nodes: 4,
                dataset: DatasetSpec::normal(1_000_000, 500.0, 400.0, seed),
                truth: |d| d.true_mean,
                remote: true,
            },
        )),
        "serve_closed" => Box::new(Serve::new(
            DatasetSpec::normal(1_000_000, 500.0, 400.0, seed),
            EarlConfig {
                sigma: 0.0045,
                sample_size: Some(700),
                bootstraps: Some(60),
                max_iterations: 30,
                seed,
                ..EarlConfig::default()
            },
        )),
        _ => return None,
    })
}
