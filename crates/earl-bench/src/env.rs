//! Shared experiment environment: a paper-like 5-node cluster, a DFS, and
//! dataset builders.

use earl_cluster::{Cluster, CostModel};
use earl_dfs::{Dfs, DfsConfig};
use earl_workload::dataset::GeneratedDataset;
use earl_workload::{DatasetBuilder, DatasetSpec};

/// How big the materialised experiment inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for tests and CI (seconds, not minutes).
    Quick,
    /// Larger inputs (`experiments --full`).
    Full,
}

impl Scale {
    /// Materialised record count used for the driver-based experiments.
    pub fn records(self) -> u64 {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 200_000,
        }
    }
}

/// A reusable experiment environment.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    dfs: Dfs,
}

impl BenchEnv {
    /// Creates the paper-like environment: 5 nodes, 2 task slots each, the
    /// commodity-2012 cost model, 64 KiB blocks for the materialised data.
    pub fn new(seed: u64) -> Self {
        let cluster = Cluster::builder()
            .nodes(5)
            .task_slots(2)
            .cost_model(CostModel::commodity_2012())
            .seed(seed)
            .build()
            .expect("valid bench cluster");
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 1 << 16,
                replication: 2,
                io_chunk: 256,
            },
        )
        .expect("valid bench dfs");
        Self { dfs }
    }

    /// The DFS (and through it the cluster) of this environment.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Generates and writes the standard numeric dataset (normal, mean 500,
    /// σ 100 — the dispersion for which the paper reports "1 % sample and 30
    /// bootstraps" at a 5 % error bound).
    pub fn standard_dataset(&self, path: &str, records: u64, seed: u64) -> GeneratedDataset {
        DatasetBuilder::new(self.dfs.clone())
            .build(path, &DatasetSpec::normal(records, 500.0, 100.0, seed))
            .expect("dataset build")
    }

    /// Resets simulated time and metrics between measured runs (data and node
    /// state are preserved).
    pub fn reset(&self) {
        self.dfs.cluster().reset_accounting();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builds_and_datasets_materialise() {
        let env = BenchEnv::new(1);
        assert_eq!(env.dfs().cluster().num_nodes(), 5);
        let ds = env.standard_dataset("/bench", 5_000, 2);
        assert_eq!(ds.status.num_records, Some(5_000));
        let elapsed = || env.dfs().cluster().elapsed().as_micros();
        assert!(elapsed() > 0, "writing charges time");
        env.reset();
        assert_eq!(elapsed(), 0);
        assert!(Scale::Full.records() > Scale::Quick.records());
    }
}
