//! Analytic cost of *stock Hadoop* runs at nominal (100 GB-class) data sizes.
//!
//! The paper's Figures 5, 6 and 10 sweep dataset sizes far beyond what a
//! unit-testable simulator should materialise.  Stock Hadoop's cost is linear
//! in the bytes scanned and records processed, so for the nominal-size sweeps
//! we charge it analytically *through the same cost model* the simulator uses
//! for everything else (the nominal-size substitution of
//! [`earl_workload::scaling`]).
//! EARL's cost, by contrast, depends on the sample size only and is measured by
//! actually running the driver.

use earl_cluster::{CostModel, SimDuration};
use earl_dfs::DEFAULT_BLOCK_SIZE;
use earl_workload::NominalSize;

/// The simulated time a full-scan MapReduce job (mean/median-style: one map
/// pass, one reduce) takes over a file of the given nominal size, under the
/// same serial-cost accounting the simulator applies to measured runs.
pub fn full_scan_job_time(cost: &CostModel, nominal: &NominalSize, heavy: bool) -> SimDuration {
    let records = nominal.nominal_records();
    let splits = (nominal.nominal_bytes / DEFAULT_BLOCK_SIZE).max(1);
    let mut total = cost.job_startup;
    // One map task per 64 MB split plus one reduce task.
    total += cost.task_startup.mul_f64(splits as f64 + 1.0);
    total += cost.disk_read(nominal.nominal_bytes);
    total += cost.map_cpu(records, heavy);
    total += cost.sort_cpu(records);
    total += cost.reduce_cpu(records, heavy);
    total
}

/// The simulated time of just loading (scanning) the nominal file — the
/// "standard Hadoop data loading" series of Fig. 5 and the post-map-sampling
/// load cost of Fig. 9.
pub fn full_scan_load_time(cost: &CostModel, nominal: &NominalSize) -> SimDuration {
    let splits = (nominal.nominal_bytes / DEFAULT_BLOCK_SIZE).max(1);
    cost.task_startup.mul_f64(splits as f64) + cost.disk_read(nominal.nominal_bytes)
}

/// The simulated time of drawing `sample_records` random lines with pre-map
/// sampling from a file of the given nominal size: one random seek plus one
/// I/O-chunk read per sampled line, independent of the nominal file size.
pub fn premap_sample_time(cost: &CostModel, sample_records: u64, chunk_bytes: u64) -> SimDuration {
    cost.disk_seek.mul_f64(sample_records as f64) + cost.disk_read(sample_records * chunk_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scan_time_is_linear_in_the_nominal_size() {
        let cost = CostModel::commodity_2012();
        let one = full_scan_job_time(&cost, &NominalSize::gib(1.0, 10_000, 100), false);
        let hundred = full_scan_job_time(&cost, &NominalSize::gib(100.0, 10_000, 100), false);
        let ratio = hundred.as_secs_f64() / one.as_secs_f64();
        assert!(
            (50.0..150.0).contains(&ratio),
            "100x data should cost ≈100x, got {ratio:.1}x"
        );
    }

    #[test]
    fn premap_sampling_cost_is_independent_of_the_file_size() {
        let cost = CostModel::commodity_2012();
        let t = premap_sample_time(&cost, 1_000, 256);
        // 1000 seeks at 10ms dominate: ≈10s regardless of whether the file is
        // 1GB or 100GB.
        assert!((5.0..20.0).contains(&t.as_secs_f64()));
    }

    #[test]
    fn sampling_beats_scanning_for_large_files_but_not_tiny_ones() {
        let cost = CostModel::commodity_2012();
        let sample = premap_sample_time(&cost, 2_000, 256);
        let huge = full_scan_load_time(&cost, &NominalSize::gib(100.0, 10_000, 100));
        let tiny = full_scan_load_time(&cost, &NominalSize::gib(0.25, 10_000, 100));
        assert!(sample < huge, "sampling must beat scanning 100GB");
        assert!(
            sample > tiny,
            "sampling does not pay off on 0.25GB — the Fig. 5 crossover"
        );
    }
}
