//! Approximate completion despite node failures (§3.4 of the paper).
//!
//! ```text
//! cargo run --example fault_tolerant_aggregation
//! ```
//!
//! Stock Hadoop reacts to node failures with task restarts; EARL instead
//! treats the surviving data as a sample and attaches a bootstrap error bound
//! to the answer.  This example kills two of four nodes (with replication 1 so
//! data is genuinely lost) and shows both behaviours: the EARL driver under
//! its default `Degrade` policy, and a plain MapReduce job under the same
//! policy.

use earl_cluster::{Cluster, NodeId};
use earl_core::tasks::MeanTask;
use earl_core::{EarlConfig, EarlDriver};
use earl_dfs::{Dfs, DfsConfig};
use earl_mapreduce::{contrib, FailurePolicy, InputSource, JobConf};
use earl_workload::{DatasetBuilder, DatasetSpec};

fn main() {
    let cluster = Cluster::with_nodes(4);
    // Replication 1: losing a node genuinely loses data (worst case for Hadoop).
    let dfs = Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 14,
            replication: 1,
            io_chunk: 256,
        },
    )
    .expect("dfs config");
    let dataset = DatasetBuilder::new(dfs.clone())
        .build(
            "/sensors/readings",
            &DatasetSpec::normal(60_000, 250.0, 40.0, 3),
        )
        .expect("dataset");
    println!(
        "true mean = {:.4} over {} records",
        dataset.true_mean,
        dataset.values.len()
    );

    // Disaster strikes: half the cluster goes down.
    dfs.cluster().fail_node(NodeId(0)).expect("fail node 0");
    dfs.cluster().fail_node(NodeId(1)).expect("fail node 1");
    println!(
        "nodes 0 and 1 failed; {:.1}% of the file still readable",
        dfs.readable_fraction("/sensors/readings")
            .expect("fraction")
            * 100.0
    );

    // EARL: sample the surviving data, with an error estimate.  `Degrade` is
    // the default policy; it is spelled out here because it is the point.
    let config = EarlConfig {
        failure_policy: FailurePolicy::Degrade,
        ..EarlConfig::default()
    };
    let report = EarlDriver::new(dfs.clone(), config)
        .run("/sensors/readings", &MeanTask)
        .expect("the degrade policy answers from the survivors");
    println!("\n--- EARL fault-tolerant approximate result ---\n{report}");
    if let Some(log) = &report.fault_log {
        println!(
            "driver fault log: {} lost block(s) written off",
            log.splits_lost
        );
    }
    println!(
        "relative error vs ground truth: {:.3}%",
        report.relative_error_vs(dataset.true_mean) * 100.0
    );

    // The same survival at the MapReduce level with the Degrade policy: the
    // job completes, reporting how many map tasks were lost.
    let conf = JobConf::new(
        "mean-after-failure",
        InputSource::Path("/sensors/readings".into()),
    )
    .with_failure_policy(FailurePolicy::Degrade);
    let job = earl_mapreduce::run_job(
        &dfs,
        &conf,
        &contrib::ValueExtractMapper,
        &contrib::MeanReducer,
    )
    .expect("MR job completes despite failures");
    println!(
        "MapReduce job with Degrade policy: {} of {} map tasks survived, mean of survivors = {:.4}",
        job.stats.map_tasks - job.stats.lost_map_tasks,
        job.stats.map_tasks,
        job.outputs.first().copied().unwrap_or(f64::NAN)
    );
    println!(
        "fault log: {} split(s) lost, {} record(s) salvaged",
        job.stats.fault_log.splits_lost, job.stats.fault_log.records_salvaged
    );
}
