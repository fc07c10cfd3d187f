//! Regression pins for the EARL ladder's one schedule.
//!
//! The sequential schedule (`pipeline_depth: 1`) is the accounting reference
//! of the PR-1 experiment tables.  The constants below were recorded from
//! the engine when that schedule was one of two (and before/after the
//! streaming-shuffle refactor, which reproduced them bit-for-bit); the ladder
//! must keep reproducing every field — including the simulated clock and DFS
//! byte accounting — exactly.
//!
//! `pipeline_depth` is ignored since the ladder stopped speculating: the
//! default configuration (which still says 2) delivers the same report, bit
//! for bit.

use earl_core::tasks::{MeanTask, MedianTask};
use earl_core::{EarlConfig, EarlDriver, EarlReport};
use earl_dfs::{Dfs, DfsConfig};

fn dfs(nodes: u32, seed: u64) -> Dfs {
    let cluster = earl_cluster::Cluster::builder()
        .nodes(nodes)
        .cost_model(earl_cluster::CostModel::commodity_2012())
        .seed(seed)
        .build()
        .unwrap();
    Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 12,
            replication: 2,
            io_chunk: 256,
        },
    )
    .unwrap()
}

fn scenario_a(depth: usize) -> EarlReport {
    let d = dfs(4, 17);
    earl_workload::DatasetBuilder::new(d.clone())
        .build(
            "/data",
            &earl_workload::DatasetSpec::normal(60_000, 500.0, 400.0, 17),
        )
        .unwrap();
    let config = EarlConfig {
        pipeline_depth: depth,
        sigma: 0.02,
        bootstraps: Some(40),
        sample_size: Some(500),
        ..EarlConfig::default()
    };
    EarlDriver::new(d, config).run("/data", &MeanTask).unwrap()
}

/// Scenario A (multi-iteration mean, delta maintenance on) under the
/// sequential schedule reproduces the PR-1-era report bit for bit, including
/// the simulated clock and byte accounting.
#[test]
fn depth_one_reproduces_the_recorded_mean_report_bit_for_bit() {
    let r = scenario_a(1);
    assert_eq!(r.result.to_bits(), 0x407ef936c0bb9b91, "result drifted");
    assert_eq!(
        r.error_estimate.to_bits(),
        0x3f93f947fa7e8df2,
        "error estimate drifted"
    );
    assert_eq!(r.sample_size, 1200);
    assert_eq!(r.iterations, 2);
    assert_eq!(r.sample_fraction.to_bits(), 0x3f947ae147ae147b);
    assert_eq!(r.bootstraps, 40);
    assert_eq!(
        r.sim_time.as_micros(),
        14_459_850,
        "sequential sim-time accounting drifted"
    );
    assert_eq!(r.bytes_read, 310_784, "sequential byte accounting drifted");
}

/// Scenario B (single-iteration median, fresh bootstraps, gather kernel)
/// under the sequential schedule: same pin, different code path.
#[test]
fn depth_one_reproduces_the_recorded_median_report_bit_for_bit() {
    let d = dfs(3, 29);
    earl_workload::DatasetBuilder::new(d.clone())
        .build(
            "/data",
            &earl_workload::DatasetSpec::normal(30_000, 500.0, 150.0, 29),
        )
        .unwrap();
    let config = EarlConfig {
        pipeline_depth: 1,
        delta_maintenance: false,
        ..EarlConfig::default()
    };
    let r = EarlDriver::new(d, config)
        .run("/data", &MedianTask)
        .unwrap();
    assert_eq!(r.result.to_bits(), 0x407f1f04f2e6760f);
    assert_eq!(r.error_estimate.to_bits(), 0x3f9f7d88dbf71af1);
    assert_eq!(r.sample_size, 300);
    assert_eq!(r.iterations, 1);
    assert_eq!(r.sim_time.as_micros(), 5_318_485);
    assert_eq!(r.bytes_read, 77_056);
}

/// The default configuration still says `pipeline_depth: 2`, and the field
/// is ignored: the default run is the sequential schedule's report, bit for
/// bit, simulated clock and bytes read included.
#[test]
fn default_depth_is_two_and_delivers_sequential_results() {
    assert_eq!(EarlConfig::default().pipeline_depth, 2);
    let sequential = scenario_a(1);
    let defaulted = {
        let d = dfs(4, 17);
        earl_workload::DatasetBuilder::new(d.clone())
            .build(
                "/data",
                &earl_workload::DatasetSpec::normal(60_000, 500.0, 400.0, 17),
            )
            .unwrap();
        let config = EarlConfig {
            sigma: 0.02,
            bootstraps: Some(40),
            sample_size: Some(500),
            ..EarlConfig::default()
        };
        EarlDriver::new(d, config).run("/data", &MeanTask).unwrap()
    };
    assert_eq!(defaulted, sequential);
}
