//! Deterministically rebuildable datasets.
//!
//! The engine's whole determinism contract hangs on the simulated cluster:
//! every charge lands on one cluster's clock, so two jobs sharing a cluster
//! would interleave their `sim_time`/byte accounting and neither report could
//! ever be bit-identical to a solo run.  The service therefore gives **every
//! job its own cluster**, rebuilt deterministically from a [`DatasetDef`]:
//! same node count, same cost model, same generated records — so the solo
//! baseline, the service run, and a later replay all see exactly the same
//! simulated world, no matter how many jobs run concurrently around them.
//!
//! What jobs do share is the dataset's records, encoded once per registry
//! entry: [`DatasetRegistry::build`] writes those bytes into each job's fresh
//! cluster + DFS through the ordinary block-cutting write path, so the blocks,
//! replica placement and charges are the ones a [`DatasetDef::build`] from
//! scratch produces.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use earl_cluster::{Cluster, CostModel};
use earl_dfs::{Dfs, DfsConfig};
use earl_workload::{DatasetBuilder, DatasetSpec, EncodedRecords};

use crate::request::ServeError;

/// A recipe for one dataset and the simulated cluster that holds it — enough
/// to rebuild both bit-identically on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetDef {
    /// Simulated cluster size.
    pub nodes: u32,
    /// DFS layout knobs (block size, replication, IO chunk).
    pub dfs: DfsConfig,
    /// Path the dataset is written under.
    pub path: String,
    /// The generated data: distribution, record count, layout, seed.
    pub spec: DatasetSpec,
}

impl DatasetDef {
    /// A definition with the workspace's usual test-scale DFS layout (64 KiB
    /// blocks, 2 replicas).
    pub fn new(nodes: u32, path: impl Into<String>, spec: DatasetSpec) -> Self {
        Self {
            nodes,
            dfs: DfsConfig {
                block_size: 1 << 16,
                replication: 2,
                io_chunk: 128,
            },
            path: path.into(),
            spec,
        }
    }

    /// Builds a fresh cluster + DFS and writes the dataset into it.  Every
    /// call produces an identical simulated world: the cluster starts at
    /// sim-time zero with the 2012 commodity cost model, and the dataset's
    /// records are a pure function of its spec (including its seed).
    ///
    /// This generates and encodes the records anew; a [`DatasetRegistry`]
    /// encodes them once and writes the same bytes into the same world.
    pub fn build(&self) -> Result<Dfs, ServeError> {
        self.write(&DatasetBuilder::encode(&self.spec))
    }

    /// A fresh cluster + DFS holding `records` at [`DatasetDef::path`].
    fn write(&self, records: &EncodedRecords) -> Result<Dfs, ServeError> {
        let cluster = Cluster::builder()
            .nodes(self.nodes)
            .cost_model(CostModel::commodity_2012())
            .build()
            .map_err(|e| ServeError::Provision(format!("cluster: {e}")))?;
        let dfs = Dfs::new(cluster, self.dfs.clone())
            .map_err(|e| ServeError::Provision(format!("dfs: {e}")))?;
        records
            .write(&dfs, self.path.as_str())
            .map_err(|e| ServeError::Provision(format!("dataset {}: {e}", self.path)))?;
        Ok(dfs)
    }
}

/// One registered dataset: its definition and its records, encoded on first
/// use.  Clones of the registry share the slot.
#[derive(Debug, Clone)]
struct Entry {
    def: DatasetDef,
    records: Arc<OnceLock<EncodedRecords>>,
}

/// The service's name → [`DatasetDef`] catalogue.  Requests address datasets
/// by name; the service (and the replay harness) build a fresh world per job
/// with [`DatasetRegistry::build`].
#[derive(Debug, Clone, Default)]
pub struct DatasetRegistry {
    entries: BTreeMap<String, Entry>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `def` under `name`, replacing any previous definition (and
    /// its encoded records).
    pub fn register(&mut self, name: impl Into<String>, def: DatasetDef) -> &mut Self {
        let records = Arc::new(OnceLock::new());
        self.entries.insert(name.into(), Entry { def, records });
        self
    }

    /// Looks a definition up by name.
    pub fn get(&self, name: &str) -> Option<&DatasetDef> {
        self.entries.get(name).map(|entry| &entry.def)
    }

    /// A fresh cluster + DFS holding the dataset registered under `name`,
    /// identical to what [`DatasetDef::build`] produces.  The records are
    /// encoded on the entry's first build and reused by every later one.
    pub fn build(&self, name: &str) -> Result<(&DatasetDef, Dfs), ServeError> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| ServeError::UnknownDataset(name.to_string()))?;
        let records = entry
            .records
            .get_or_init(|| DatasetBuilder::encode(&entry.def.spec));
        Ok((&entry.def, entry.def.write(records)?))
    }

    /// Whether the dataset registered under `name` has had its records
    /// encoded (by a first build).
    #[cfg(test)]
    pub(crate) fn is_encoded(&self, name: &str) -> bool {
        self.entries
            .get(name)
            .is_some_and(|entry| entry.records.get().is_some())
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_cluster::Phase;
    use earl_core::tasks::{MeanTask, MedianTask};
    use earl_core::{EarlConfig, EarlDriver};
    use earl_workload::layout::Layout;

    #[test]
    fn rebuilds_are_bit_identical() {
        let def = DatasetDef::new(3, "/data", DatasetSpec::normal(2_000, 500.0, 100.0, 7));
        let a = def.build().unwrap();
        let b = def.build().unwrap();
        let ra = a.export_records("/data").unwrap();
        let rb = b.export_records("/data").unwrap();
        assert_eq!(ra, rb, "same def must rebuild the same records");
        assert_eq!(
            a.cluster().elapsed(),
            b.cluster().elapsed(),
            "fresh clusters start at the same sim-time"
        );
    }

    #[test]
    fn registry_round_trips_defs() {
        let mut registry = DatasetRegistry::new();
        assert!(registry.is_empty());
        let def = DatasetDef::new(2, "/d", DatasetSpec::normal(100, 1.0, 0.1, 1));
        registry.register("small", def.clone());
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.get("small"), Some(&def));
        assert_eq!(registry.get("missing"), None);
        assert_eq!(
            registry.build("missing").err(),
            Some(ServeError::UnknownDataset("missing".into()))
        );
    }

    /// Everything a job can observe of its world, in an order that charges
    /// both sides alike: the file, the clock and counters after the write,
    /// the lines read back, then a mean and a median run on that world.
    fn observe(dfs: Dfs, path: &str) -> impl PartialEq + std::fmt::Debug {
        let written = (
            dfs.status(path).unwrap(),
            dfs.cluster().elapsed(),
            dfs.cluster().metrics().snapshot(),
        );
        let lines = dfs.read_all_lines(Phase::Load, path).unwrap();
        let driver = EarlDriver::new(dfs, EarlConfig::default());
        let mean = driver.run(path, &MeanTask);
        let median = driver.run(path, &MedianTask);
        (written, lines, mean, median)
    }

    /// A registry-built world, cold (encoding on the way) and warm (from the
    /// cached encoding), equals a fresh `DatasetDef::build` — for plain and
    /// keyed records, every layout, and one record, a few thousand, and a
    /// file spanning several 64 KiB blocks.
    #[test]
    fn registry_worlds_are_bit_identical_to_fresh_builds() {
        for records in [1, 2_000, 20_000] {
            for layout in [
                Layout::Shuffled,
                Layout::ClusteredAscending,
                Layout::AsGenerated,
            ] {
                for keyed in [false, true] {
                    let mut spec =
                        DatasetSpec::normal(records, 500.0, 400.0, 31).with_layout(layout);
                    spec.keyed = keyed;
                    let def = DatasetDef::new(3, "/table", spec);
                    let mut registry = DatasetRegistry::new();
                    registry.register("table", def.clone());
                    let case = format!("{records} records, {layout:?}, keyed {keyed}");

                    let fresh = def.build().unwrap();
                    let blocks = fresh.status("/table").unwrap().num_blocks;
                    assert!(records < 20_000 || blocks >= 3, "{case}: {blocks} blocks");
                    let expected = observe(fresh, "/table");
                    for pass in ["cold", "warm"] {
                        let (built_def, dfs) = registry.build("table").unwrap();
                        assert_eq!(built_def, &def);
                        assert_eq!(observe(dfs, "/table"), expected, "{case}, {pass}");
                    }
                }
            }
        }
    }
}
