//! Nominal-size scaling for the 100 GB-class experiments.
//!
//! The paper's Figures 5–7, 9 and 10 sweep dataset sizes from below 1 GB to
//! beyond 100 GB.  Materialising 100 GB inside a unit-testable simulator is
//! pointless — the statistical behaviour of EARL depends on the *number of
//! sampled records*, while the cost of stock Hadoop depends on the *bytes
//! scanned*, which the cost model charges analytically.  A [`NominalSize`]
//! couples the two: a laptop-scale materialised record count plus the nominal
//! byte size the experiment pretends the file has.  The experiment harness
//! scales charged I/O by `scale_factor()` so processing times reflect the
//! nominal size, while all statistics run on the materialised records.
//!
//! The substitution preserves who-wins and crossover shapes because both
//! systems' costs are scaled by the same factor.

use serde::{Deserialize, Serialize};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// A dataset size expressed both as materialised records and as the nominal
/// on-disk size the experiment models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NominalSize {
    /// Records actually generated and written to the simulated DFS.
    pub materialised_records: u64,
    /// Average bytes per record in the materialised file.
    pub bytes_per_record: u64,
    /// The nominal total size in bytes the experiment reports (e.g. 100 GB).
    pub nominal_bytes: u64,
}

impl NominalSize {
    /// Creates a nominal size of `gib` GiB modelled by `materialised_records`
    /// records of roughly `bytes_per_record` bytes.
    pub fn gib(gib: f64, materialised_records: u64, bytes_per_record: u64) -> Self {
        Self {
            materialised_records,
            bytes_per_record: bytes_per_record.max(1),
            nominal_bytes: (gib * GIB) as u64,
        }
    }

    /// The number of records the nominal file would contain.
    pub fn nominal_records(&self) -> u64 {
        self.nominal_bytes / self.bytes_per_record
    }

    /// The factor by which materialised I/O costs must be multiplied so that a
    /// full scan of the materialised file costs what a full scan of the nominal
    /// file would.
    pub fn scale_factor(&self) -> f64 {
        let materialised_bytes = (self.materialised_records * self.bytes_per_record).max(1);
        self.nominal_bytes as f64 / materialised_bytes as f64
    }

    /// The fraction of the nominal file a sample of `records` records
    /// represents.
    pub fn sample_fraction(&self, records: u64) -> f64 {
        let total = self.nominal_records().max(1);
        records as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factor_reflects_the_ratio_of_sizes() {
        let size = NominalSize::gib(100.0, 1_000_000, 100);
        // Materialised: 100 MB; nominal: 100 GiB → factor ≈ 1073.7
        assert!((size.scale_factor() - 100.0 * GIB / 1e8).abs() < 1.0);
        assert_eq!(size.nominal_records(), (100.0 * GIB) as u64 / 100);
    }

    #[test]
    fn sample_fraction_is_relative_to_the_nominal_file() {
        let size = NominalSize::gib(10.0, 100_000, 100);
        let one_percent = size.nominal_records() / 100;
        assert!((size.sample_fraction(one_percent) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let size = NominalSize::gib(1.0, 0, 0);
        assert!(size.scale_factor() > 0.0);
        assert!(size.sample_fraction(10) > 0.0);
    }
}
