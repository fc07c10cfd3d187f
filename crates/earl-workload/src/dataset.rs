//! Dataset builders: materialise generated values as files in the simulated
//! DFS.

use std::fmt;
use std::io::Write as _;

use earl_dfs::{Dfs, DfsPath, FileStatus};
use serde::{Deserialize, Serialize};

use crate::generators::{Distribution, ValueGenerator};
use crate::layout::{apply_layout, Layout};

/// Specification of a numeric dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Number of records.
    pub num_records: u64,
    /// Value distribution.
    pub distribution: Distribution,
    /// Physical layout on disk.
    pub layout: Layout,
    /// RNG seed.
    pub seed: u64,
    /// Whether each line is written as `key<TAB>value` (with a sequential key)
    /// instead of a bare value.
    pub keyed: bool,
}

impl DatasetSpec {
    /// A shuffled normal dataset — the workhorse of the experiments.
    pub fn normal(num_records: u64, mean: f64, std_dev: f64, seed: u64) -> Self {
        Self {
            num_records,
            distribution: Distribution::Normal { mean, std_dev },
            layout: Layout::Shuffled,
            seed,
            keyed: false,
        }
    }

    /// A shuffled uniform dataset.
    pub fn uniform(num_records: u64, low: f64, high: f64, seed: u64) -> Self {
        Self {
            num_records,
            distribution: Distribution::Uniform { low, high },
            layout: Layout::Shuffled,
            seed,
            keyed: false,
        }
    }

    /// Switches the layout.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Switches to `key<TAB>value` lines.
    pub fn keyed(mut self) -> Self {
        self.keyed = true;
        self
    }
}

/// A dataset that has been generated and written to the DFS, together with the
/// ground truth needed to validate EARL's error bounds.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Where the data lives.
    pub path: DfsPath,
    /// The DFS file status after writing.
    pub status: FileStatus,
    /// The exact values written (in disk order).
    pub values: Vec<f64>,
    /// The exact population mean.
    pub true_mean: f64,
    /// The exact population median.
    pub true_median: f64,
    /// The exact population standard deviation.
    pub true_std_dev: f64,
}

/// A dataset's records encoded as the lines of its file: `"{v}\n"` per value,
/// or `"k{i}\t{v}\n"` when keyed.  Writing the same encoding into two DFSs
/// with the same configuration gives both the same file, blocks and charges,
/// so one encoding can stand in for any number of rebuilds.
pub struct EncodedRecords {
    bytes: Vec<u8>,
    num_records: u64,
}

impl EncodedRecords {
    /// Encodes `values` in order, one line each.
    pub fn encode(values: &[f64], keyed: bool) -> Self {
        // Room for a typical shortest-round-trip value and its key; a longer
        // one just grows the buffer.
        let per_line = if keyed { 28 } else { 20 };
        let mut bytes = Vec::with_capacity(values.len() * per_line);
        for (i, v) in values.iter().enumerate() {
            let line = if keyed {
                writeln!(bytes, "k{i}\t{v}")
            } else {
                writeln!(bytes, "{v}")
            };
            line.expect("writing to a Vec cannot fail");
        }
        bytes.shrink_to_fit();
        Self {
            bytes,
            num_records: values.len() as u64,
        }
    }

    /// Writes the records as a new file at `path`.
    pub fn write(&self, dfs: &Dfs, path: impl Into<DfsPath>) -> earl_dfs::Result<FileStatus> {
        dfs.write_encoded(path, &self.bytes, self.num_records)
    }
}

impl fmt::Debug for EncodedRecords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EncodedRecords")
            .field("bytes", &self.bytes.len())
            .field("num_records", &self.num_records)
            .finish()
    }
}

/// Builds datasets into a DFS.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    dfs: Dfs,
}

impl DatasetBuilder {
    /// Creates a builder for the given DFS.
    pub fn new(dfs: Dfs) -> Self {
        Self { dfs }
    }

    /// The DFS this builder writes into.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Generates the values for `spec` without writing them anywhere.
    pub fn generate_values(spec: &DatasetSpec) -> Vec<f64> {
        let mut generator = ValueGenerator::new(spec.distribution, spec.seed);
        let values = generator.take(spec.num_records as usize);
        apply_layout(values, spec.layout, spec.seed ^ 0x5eed)
    }

    /// Generates the values for `spec` and encodes them as its file's lines.
    pub fn encode(spec: &DatasetSpec) -> EncodedRecords {
        EncodedRecords::encode(&Self::generate_values(spec), spec.keyed)
    }

    /// Generates and writes the dataset to `path`, returning the materialised
    /// dataset with its ground-truth statistics.
    pub fn build(
        &self,
        path: impl Into<DfsPath>,
        spec: &DatasetSpec,
    ) -> earl_dfs::Result<GeneratedDataset> {
        let path = path.into();
        let values = Self::generate_values(spec);
        let status = EncodedRecords::encode(&values, spec.keyed).write(&self.dfs, path.clone())?;
        let true_mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let true_median = if sorted.is_empty() {
            f64::NAN
        } else if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        let true_std_dev = (values.iter().map(|v| (v - true_mean).powi(2)).sum::<f64>()
            / values.len().max(1) as f64)
            .sqrt();
        Ok(GeneratedDataset {
            path,
            status,
            values,
            true_mean,
            true_median,
            true_std_dev,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_cluster::{Cluster, CostModel, Phase};
    use earl_dfs::DfsConfig;

    fn dfs() -> Dfs {
        let cluster = Cluster::builder()
            .nodes(3)
            .cost_model(CostModel::free())
            .build()
            .unwrap();
        Dfs::new(
            cluster,
            DfsConfig {
                block_size: 8192,
                replication: 2,
                io_chunk: 256,
            },
        )
        .unwrap()
    }

    #[test]
    fn build_writes_all_records_with_ground_truth() {
        let builder = DatasetBuilder::new(dfs());
        let spec = DatasetSpec::normal(2_000, 50.0, 5.0, 1);
        let ds = builder.build("/normal", &spec).unwrap();
        assert_eq!(ds.status.num_records, Some(2_000));
        assert_eq!(ds.values.len(), 2_000);
        assert!((ds.true_mean - 50.0).abs() < 0.5);
        assert!((ds.true_median - 50.0).abs() < 0.5);
        assert!((ds.true_std_dev - 5.0).abs() < 0.5);
        // Round-trip: what was written parses back to the same values.
        let read = builder.dfs.read_all_lines(Phase::Load, "/normal").unwrap();
        assert_eq!(read.len(), 2_000);
        let parsed: Vec<f64> = read.iter().map(|l| l.parse().unwrap()).collect();
        assert_eq!(parsed, ds.values);
    }

    /// The build's write as it was before the encoder: one `format!`ed
    /// `String` per line through `write_lines`.  Kept as the oracle.
    fn write_formatted_lines(dfs: &Dfs, path: &str, values: &[f64], keyed: bool) -> FileStatus {
        if keyed {
            dfs.write_lines(
                path,
                values.iter().enumerate().map(|(i, v)| format!("k{i}\t{v}")),
            )
        } else {
            dfs.write_lines(path, values.iter().map(|v| format!("{v}")))
        }
        .unwrap()
    }

    #[test]
    fn encoded_records_write_the_same_file_as_formatted_lines() {
        let commodity = || {
            let cluster = Cluster::builder()
                .nodes(4)
                .cost_model(CostModel::commodity_2012())
                .build()
                .unwrap();
            Dfs::new(cluster, DfsConfig::small_blocks(4096)).unwrap()
        };
        let awkward = [
            0.0,
            -0.0,
            1e-300,
            -1e300,
            0.1 + 0.2,
            f64::NAN,
            f64::INFINITY,
        ];
        let mut generated =
            DatasetBuilder::generate_values(&DatasetSpec::normal(5_000, 500.0, 400.0, 4));
        generated.extend(awkward);
        for values in [&[][..], &[42.5][..], &awkward[..], &generated[..]] {
            for keyed in [false, true] {
                let (oracle, encoded) = (commodity(), commodity());
                let status = write_formatted_lines(&oracle, "/f", values, keyed);
                let records = EncodedRecords::encode(values, keyed);
                assert_eq!(records.num_records, values.len() as u64);
                assert_eq!(records.write(&encoded, "/f").unwrap(), status);
                assert_eq!(encoded.cluster().elapsed(), oracle.cluster().elapsed());
                assert_eq!(
                    encoded.cluster().metrics().snapshot(),
                    oracle.cluster().metrics().snapshot()
                );
                assert_eq!(
                    records.bytes,
                    &oracle.read_full(Phase::Load, "/f").unwrap()[..],
                    "{} values, keyed {keyed}",
                    values.len()
                );
            }
        }
    }

    #[test]
    fn keyed_records_have_tab_separated_keys() {
        let builder = DatasetBuilder::new(dfs());
        let spec = DatasetSpec::uniform(100, 0.0, 1.0, 2).keyed();
        builder.build("/keyed", &spec).unwrap();
        let lines = builder.dfs.read_all_lines(Phase::Load, "/keyed").unwrap();
        assert!(lines.iter().all(|l| l.contains('\t') && l.starts_with('k')));
    }

    #[test]
    fn clustered_layout_is_sorted_on_disk() {
        let builder = DatasetBuilder::new(dfs());
        let spec = DatasetSpec::uniform(500, 0.0, 100.0, 3).with_layout(Layout::ClusteredAscending);
        let ds = builder.build("/sorted", &spec).unwrap();
        assert!(ds.values.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::normal(100, 0.0, 1.0, 9);
        assert_eq!(
            DatasetBuilder::generate_values(&spec),
            DatasetBuilder::generate_values(&spec)
        );
    }
}
