//! Comparing the sampling strategies of §3.3 on a clustered disk layout.
//!
//! ```text
//! cargo run --example sampling_strategies
//! ```
//!
//! Pre-map sampling, post-map sampling and naive block sampling (reading one
//! whole split) are run over the same file — written *sorted by value*, the
//! layout that breaks block sampling — and their estimates of the mean are
//! compared.

use earl_cluster::{Cluster, Phase};
use earl_dfs::{Dfs, DfsConfig};
use earl_sampling::{PostMapSampler, PreMapSampler, SampleSource};
use earl_workload::layout::Layout;
use earl_workload::{DatasetBuilder, DatasetSpec};

fn mean_of(records: &[(u64, String)]) -> f64 {
    let values: Vec<f64> = records.iter().filter_map(|(_, l)| l.parse().ok()).collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn main() {
    let cluster = Cluster::with_nodes(4);
    let dfs = Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 14,
            replication: 2,
            io_chunk: 256,
        },
    )
    .expect("dfs config");

    // 40,000 uniform values written in ascending order — clustered on disk.
    let spec =
        DatasetSpec::uniform(40_000, 0.0, 1_000.0, 5).with_layout(Layout::ClusteredAscending);
    let dataset = DatasetBuilder::new(dfs.clone())
        .build("/clustered/values", &spec)
        .expect("dataset");
    println!(
        "true mean = {:.3} (clustered-on-disk layout)\n",
        dataset.true_mean
    );
    let sample_size = 400;

    // Pre-map sampling: random lines straight from the splits.
    dfs.cluster().reset_accounting();
    let mut premap = PreMapSampler::new(dfs.clone(), "/clustered/values", 1).expect("premap");
    let batch = premap.draw(sample_size).expect("premap draw");
    println!(
        "pre-map  : mean {:>8.3}  ({} records, {} bytes read, {} sim time)",
        mean_of(&batch.records),
        batch.len(),
        batch.bytes_read,
        dfs.cluster().elapsed()
    );

    // Post-map sampling: full scan, then exact without-replacement draws.
    dfs.cluster().reset_accounting();
    let mut postmap = PostMapSampler::new(dfs.clone(), "/clustered/values", 1).expect("postmap");
    let batch = postmap.draw(sample_size).expect("postmap draw");
    println!(
        "post-map : mean {:>8.3}  ({} records, {} bytes read, {} sim time)",
        mean_of(&batch.records),
        batch.len(),
        batch.bytes_read,
        dfs.cluster().elapsed()
    );

    // Naive block sampling: one whole split — badly biased on this layout.
    dfs.cluster().reset_accounting();
    let splits = dfs.splits("/clustered/values", 1 << 14).expect("splits");
    let split = splits[splits.len() / 3].clone();
    let records = dfs
        .open_split(split, Phase::Load)
        .read_all()
        .expect("split read");
    println!(
        "block    : mean {:>8.3}  ({} records, {} bytes read, {} sim time)   <-- biased by clustering",
        mean_of(&records),
        records.len(),
        dfs.cluster().metrics().snapshot().phase(Phase::Load).disk_bytes_read,
        dfs.cluster().elapsed()
    );
}
