//! `grouped_keys`: `SELECT key, AVG(value) GROUP BY key` over 200 keys,
//! through `EarlDriver::run_grouped`; the exact job is `run_job` with the
//! grouped mapper/reducer over the path.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use earl::bootstrap::bootstrap::BootstrapConfig;
use earl::cluster::Cluster;
use earl::core::grouped::{grouped_accuracy, GroupedTaskMapper, GroupedTaskReducer};
use earl::core::tasks::MeanTask;
use earl::core::{EarlConfig, EarlDriver, GroupedAggregate, GroupedEarlReport, TaskEstimator};
use earl::dfs::Dfs;
use earl::mapreduce::{run_job, InputSource, JobConf};
use earl::sampling::PreMapSampler;
use earl::workload::{DatasetBuilder, GroupTruth, GroupedSpec, ValueGenerator};

use crate::harness::{timed_ops, Metric, Op, Phase, Workload};
use crate::layers::{self, ReferenceFacts, Tally};
use crate::scalar::{common_dfs_config, PATH};
use crate::trace::Tracer;

/// Reducers of the grouped jobs: what `run_grouped` picks for ≥ 8 groups.
const REDUCERS: usize = 8;

struct World {
    dfs: Dfs,
    truth: BTreeMap<String, GroupTruth>,
}

struct Reference {
    report: GroupedEarlReport,
    exact: Vec<(String, f64)>,
}

pub struct Grouped {
    spec: GroupedSpec,
    config: EarlConfig,
    aggregate: GroupedAggregate,
    world: Option<World>,
    reference: Option<Reference>,
    sim_drift: Cell<usize>,
}

/// Largest relative error of any group against its ground-truth mean.
fn worst_error<'a>(
    groups: impl Iterator<Item = (&'a str, f64)>,
    truth: &BTreeMap<String, GroupTruth>,
) -> f64 {
    groups
        .map(|(key, result)| match truth.get(key) {
            Some(t) => (result - t.mean).abs() / t.mean.abs(),
            None => f64::INFINITY,
        })
        .fold(0.0, f64::max)
}

impl Grouped {
    pub fn new(spec: GroupedSpec, config: EarlConfig) -> Self {
        Self {
            spec,
            config,
            aggregate: GroupedAggregate::mean(),
            world: None,
            reference: None,
            sim_drift: Cell::new(0),
        }
    }

    fn world(&self) -> &World {
        self.world.as_ref().expect("setup ran")
    }

    fn reference(&self) -> &Reference {
        self.reference.as_ref().expect("verify ran")
    }

    fn exact_conf(&self) -> JobConf {
        JobConf::new("exact-grouped", InputSource::Path(PATH.into()))
            .with_reducers(REDUCERS)
            .with_failure_policy(self.config.failure_policy)
            .with_parallelism(self.config.parallelism)
    }

    fn run_answer(&self) -> (f64, Result<GroupedEarlReport, String>) {
        let driver = EarlDriver::new(self.world().dfs.clone(), self.config);
        let t0 = Instant::now();
        let result = driver.run_grouped(PATH, &self.aggregate);
        (
            t0.elapsed().as_secs_f64(),
            result.map_err(|e| e.to_string()),
        )
    }

    fn check_answer(&self, report: &GroupedEarlReport) -> Option<String> {
        if !report.meets_bound() {
            return Some(format!(
                "worst group cv {} misses the bound",
                report.worst_cv()
            ));
        }
        if report.groups.len() != self.world().truth.len() {
            return Some(format!(
                "{} groups reported, {} written",
                report.groups.len(),
                self.world().truth.len()
            ));
        }
        let groups = report.groups.iter().map(|g| (g.key.as_str(), g.result));
        let error = worst_error(groups, &self.world().truth);
        if error > 3.0 * report.target_sigma {
            return Some(format!(
                "worst group error {error} vs ground truth exceeds 3 sigma"
            ));
        }
        None
    }

    fn run_exact(&self) -> (f64, Result<Vec<(String, f64)>, String>) {
        let mapper = GroupedTaskMapper::new(&self.aggregate);
        let reducer = GroupedTaskReducer::new(&self.aggregate);
        let t0 = Instant::now();
        let result = run_job(&self.world().dfs, &self.exact_conf(), &mapper, &reducer);
        let secs = t0.elapsed().as_secs_f64();
        (
            secs,
            result.map(|job| job.outputs).map_err(|e| e.to_string()),
        )
    }

    fn check_exact(&self, outputs: &[(String, f64)]) -> Option<String> {
        if outputs.len() != self.world().truth.len() {
            return Some(format!(
                "{} groups reduced, {} written",
                outputs.len(),
                self.world().truth.len()
            ));
        }
        let error = worst_error(
            outputs.iter().map(|(k, v)| (k.as_str(), *v)),
            &self.world().truth,
        );
        (error > 1e-9).then(|| format!("exact group mean is off by {error}"))
    }

    fn answer_op(&self) -> Op {
        let (secs, result) = self.run_answer();
        let reference = &self.reference().report;
        let failure = match result {
            Ok(report) => {
                if report.sim_time != reference.sim_time {
                    self.sim_drift.set(self.sim_drift.get() + 1);
                }
                // Per-group results, errors and sizes: everything but the
                // accounting a reused world shifts.
                let same = report.groups == reference.groups
                    && report.sample_size == reference.sample_size
                    && report.iterations == reference.iterations;
                self.check_answer(&report).or_else(|| {
                    (!same).then(|| "groups differ from the reference report".to_owned())
                })
            }
            Err(e) => Some(e),
        };
        // `run_grouped` has no observer: the first result a caller sees is
        // the report itself.
        Op {
            secs,
            first_secs: secs,
            failure,
        }
    }

    fn exact_op(&self) -> Op {
        let (secs, result) = self.run_exact();
        let failure = match result {
            Ok(outputs) => self.check_exact(&outputs).or_else(|| {
                (outputs != self.reference().exact)
                    .then(|| "exact outputs differ from the reference".to_owned())
            }),
            Err(e) => Some(e),
        };
        Op {
            secs,
            first_secs: secs,
            failure,
        }
    }

    /// The ladder `run_grouped` climbed: the pilot, doubled per iteration.
    fn ladder(&self) -> Result<Vec<usize>, String> {
        let report = &self.reference().report;
        let pilot = layers::pilot_records(&self.config, report.population);
        let ladder: Vec<usize> = (0..report.iterations)
            .map(|i| (pilot << i).min(report.population as usize))
            .collect();
        if ladder.last().copied() != Some(report.sample_size as usize) {
            return Err(format!(
                "ladder {ladder:?} does not end at the reported sample size {}",
                report.sample_size
            ));
        }
        Ok(ladder)
    }

    fn reenact(&self, tracer: &mut Tracer, tally: &mut Tally) -> Result<Vec<f64>, String> {
        let config = &self.config;
        let dfs = &self.world().dfs;
        let ladder = self.ladder()?;
        let bootstraps = self.reference().report.bootstraps;
        let resamples = BootstrapConfig::with_resamples(bootstraps)
            .with_parallelism(config.parallelism)
            .with_kernel(config.bootstrap_kernel);
        let mapper = GroupedTaskMapper::new(&self.aggregate);
        let reducer = GroupedTaskReducer::new(&self.aggregate);

        tracer.next_op();
        tracer.span("reenact", |tracer| {
            let mut sampler =
                PreMapSampler::new(dfs.clone(), PATH, config.seed).map_err(|e| e.to_string())?;
            let mut records: Vec<(u64, String)> = Vec::new();
            let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for size in ladder {
                let batch = layers::draw(tracer, &mut sampler, size - records.len(), tally)?;
                tracer.span("core.extract", |_| {
                    for (_, line) in &batch {
                        if let Some((key, record)) = self.aggregate.extract_record(line) {
                            groups.entry(key).or_default().extend(record.values());
                        }
                    }
                });
                records.extend(batch);
                tracer.span("mapreduce.sample_job", |tracer| {
                    let conf = JobConf::new("reenact", InputSource::Memory(records.clone()))
                        .with_reducers(groups.len().clamp(1, REDUCERS))
                        .with_failure_policy(config.failure_policy)
                        .with_parallelism(config.parallelism);
                    layers::sample_job(tracer, dfs, &conf, &mapper, &reducer, tally)
                })?;
                tracer
                    .span("bootstrap.aes", |_| {
                        grouped_accuracy(config.seed, &groups, &self.aggregate, &resamples)
                    })
                    .map_err(|e| e.to_string())?;
                tally.replicates += (bootstraps * groups.len()) as u64;
            }
            tally.ops += 1;
            Ok(groups.into_values().flatten().collect())
        })
    }
}

impl Workload for Grouped {
    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String> {
        self.world = None;
        let dfs =
            Dfs::new(Cluster::with_nodes(5), common_dfs_config()).map_err(|e| e.to_string())?;
        let builder = DatasetBuilder::new(dfs.clone());
        // `build_grouped` exposes no generate step of its own: these are the
        // generator calls it makes.
        let generate = || {
            for (i, group) in self.spec.groups.iter().enumerate() {
                let seed = self.spec.seed.wrapping_add(i as u64);
                let mut generator = ValueGenerator::new(group.distribution, seed);
                std::hint::black_box(generator.take(group.num_records as usize));
            }
        };
        let dataset =
            layers::build_dataset(tracer, generate, || builder.build_grouped(PATH, &self.spec))
                .map_err(|e| e.to_string())?;
        self.world = Some(World {
            dfs,
            truth: dataset.truth,
        });
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let report = self
            .run_answer()
            .1
            .map_err(|e| format!("reference run: {e}"))?;
        if let Some(why) = self.check_answer(&report) {
            return Err(format!("reference run: {why}"));
        }
        if report.exact {
            return Err("reference run degenerated to the exact job".into());
        }
        let exact = self
            .run_exact()
            .1
            .map_err(|e| format!("exact reference run: {e}"))?;
        if let Some(why) = self.check_exact(&exact) {
            return Err(format!("exact reference run: {why}"));
        }
        self.reference = Some(Reference { report, exact });
        Ok(())
    }

    fn answer_phase(&mut self, budget: Duration) -> Phase {
        timed_ops(budget, || self.answer_op())
    }

    fn exact_phase(&mut self, budget: Duration) -> Phase {
        timed_ops(budget, || self.exact_op())
    }

    fn stand_ins(&self) -> &'static [(&'static str, &'static str)] {
        &[(
            "first_result_s",
            "run_grouped has no observer: the first result is the report",
        )]
    }

    fn extra_metrics(&self) -> Vec<Metric> {
        vec![Metric::single(
            "core.reused_world_sim_drift",
            "count",
            self.sim_drift.get() as f64,
        )]
    }

    fn layers(&mut self, tracer: &mut Tracer, budget: Duration) -> Result<Vec<Metric>, String> {
        let mark = tracer.mark();
        let whole = layers::whole_ops(
            tracer,
            budget.mul_f64(0.3),
            || self.answer_op(),
            || self.exact_op(),
        )?;
        let (tally, values) = layers::reenact_for(tracer, budget.mul_f64(0.3), |tracer, tally| {
            self.reenact(tracer, tally)
        })?;

        let world = self.world();
        let report = &self.reference().report;
        let groups = report.groups.iter().map(|g| (g.key.as_str(), g.result));
        let facts = ReferenceFacts {
            iterations: report.iterations,
            sample_fraction: report.sample_fraction,
            bootstraps: report.bootstraps,
            cv: report.worst_cv(),
            rel_error: worst_error(groups, &world.truth),
            sim_s: report.sim_time.as_secs_f64(),
            sim_drift: self.sim_drift.get(),
        };
        let file_bytes = world.dfs.status(PATH).map_err(|e| e.to_string())?.len;
        let mut metrics = layers::ladder_metrics(tracer, mark, &tally, &whole, &facts, file_bytes);
        // The grouped driver runs neither SSABE nor one big section build;
        // both are probed on the pooled values so the layer is still seen.
        metrics.extend(layers::estimator_probes(
            tracer,
            &values,
            layers::pilot_records(&self.config, report.population),
            &self.config,
            &TaskEstimator::new(&MeanTask),
            report.population,
        )?);
        metrics.extend(layers::dfs_probes(
            tracer,
            &world.dfs,
            PATH,
            self.config.seed,
        )?);
        metrics.extend(layers::parallel_probes(tracer));
        metrics.extend(layers::exact_job_probes(
            tracer,
            &world.dfs,
            &self.exact_conf(),
            &GroupedTaskMapper::new(&self.aggregate),
            &GroupedTaskReducer::new(&self.aggregate),
        )?);
        Ok(metrics)
    }
}
