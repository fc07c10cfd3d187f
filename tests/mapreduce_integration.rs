//! Integration tests of the substrate stack (cluster + DFS + MapReduce +
//! sampling) independent of the EARL driver.

use earl_cluster::{Cluster, CostModel};
use earl_dfs::{Dfs, DfsConfig};
use earl_mapreduce::contrib::{
    MeanReducer, TokenCountMapper, ValueExtractMapper, WordCountReducer,
};
use earl_mapreduce::{run_job, FailurePolicy, InputSource, JobConf};
use earl_sampling::premap::premap_sample;
use earl_sampling::{PostMapSampler, PreMapSampler, SampleSource};
use earl_workload::{DatasetBuilder, DatasetSpec};
use std::collections::HashMap;

fn make_dfs() -> Dfs {
    let cluster = Cluster::builder()
        .nodes(4)
        .cost_model(CostModel::commodity_2012())
        .build()
        .unwrap();
    Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 14,
            replication: 2,
            io_chunk: 256,
        },
    )
    .unwrap()
}

#[test]
fn word_count_pipeline_matches_an_independent_reference() {
    let dfs = make_dfs();
    let words = ["alpha", "beta", "gamma", "delta"];
    let lines: Vec<String> = (0..2_000)
        .map(|i| {
            format!(
                "{} {} {}",
                words[i % 4],
                words[(i / 2) % 4],
                words[(i / 7) % 4]
            )
        })
        .collect();
    dfs.write_lines("/mr/words", &lines).unwrap();

    // Reference counts computed directly.
    let mut reference: HashMap<String, u64> = HashMap::new();
    for line in &lines {
        for token in line.split_whitespace() {
            *reference.entry(token.to_owned()).or_insert(0) += 1;
        }
    }

    let conf = JobConf::new("wordcount", InputSource::Path("/mr/words".into())).with_reducers(3);
    let result = run_job(&dfs, &conf, &TokenCountMapper, &WordCountReducer).unwrap();
    let got: HashMap<String, u64> = result.outputs.into_iter().collect();
    assert_eq!(got, reference);
}

#[test]
fn sampling_plus_mapreduce_estimates_the_mean_cheaply() {
    let dfs = make_dfs();
    let ds = DatasetBuilder::new(dfs.clone())
        .build("/mr/values", &DatasetSpec::normal(30_000, 42.0, 6.0, 1))
        .unwrap();

    // Draw a 2% pre-map sample and run the mean job over it in memory.
    let batch = premap_sample(&dfs, "/mr/values", 600, 1).unwrap();
    let conf = JobConf::new("sampled-mean", InputSource::Memory(batch.records.clone()));
    let result = run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();
    let sample_mean = result.outputs[0];
    assert!((sample_mean - ds.true_mean).abs() / ds.true_mean < 0.05);

    // The sampled pipeline reads a small fraction of the file.
    assert!(batch.bytes_read < dfs.status("/mr/values").unwrap().len / 3);
}

#[test]
fn samplers_are_uniform_enough_for_downstream_statistics() {
    let dfs = make_dfs();
    let ds = DatasetBuilder::new(dfs.clone())
        .build("/mr/uniformity", &DatasetSpec::uniform(20_000, 0.0, 1.0, 2))
        .unwrap();
    let mut pre = PreMapSampler::new(dfs.clone(), "/mr/uniformity", 3).unwrap();
    let mut post = PostMapSampler::new(dfs, "/mr/uniformity", 3).unwrap();
    for sampler in [&mut pre as &mut dyn SampleSource, &mut post] {
        let batch = sampler.draw(1_000).unwrap();
        let mean: f64 = batch
            .records
            .iter()
            .filter_map(|(_, l)| l.parse::<f64>().ok())
            .sum::<f64>()
            / batch.len() as f64;
        assert!(
            (mean - ds.true_mean).abs() < 0.03,
            "sampler mean {mean} vs {}",
            ds.true_mean
        );
    }
}

#[test]
fn degrade_policy_job_reports_surviving_fraction_after_losing_a_node() {
    let cluster = Cluster::builder()
        .nodes(3)
        .cost_model(CostModel::free())
        .build()
        .unwrap();
    let dfs = Dfs::new(
        cluster,
        DfsConfig {
            block_size: 2048,
            replication: 1,
            io_chunk: 256,
        },
    )
    .unwrap();
    DatasetBuilder::new(dfs.clone())
        .build("/mr/lossy", &DatasetSpec::normal(20_000, 10.0, 1.0, 4))
        .unwrap();
    dfs.cluster().fail_node(earl_cluster::NodeId(1)).unwrap();
    dfs.reconcile_failures();
    let conf = JobConf::new("mean", InputSource::Path("/mr/lossy".into()))
        .with_failure_policy(FailurePolicy::Degrade);
    let result = run_job(&dfs, &conf, &ValueExtractMapper, &MeanReducer).unwrap();
    assert!(result.stats.surviving_fraction() <= 1.0);
    if result.stats.lost_map_tasks > 0 {
        assert!(result.stats.surviving_fraction() < 1.0);
    }
    // The surviving mean is still close to 10.
    assert!((result.outputs[0] - 10.0).abs() < 0.5);
}
