//! The scalar workloads — `scan_linear`, `ladder_order`, `net_remote`: one
//! statistic over one numeric file, through `EarlDriver::run_with_progress`
//! and `EarlDriver::run_exact`, in-process or over real worker processes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use earl::bootstrap::bootstrap::{bootstrap_distribution, BootstrapConfig, ResolvedKernel};
use earl::bootstrap::delta::{IncrementalBootstrap, SketchConfig};
use earl::cluster::Cluster;
use earl::core::driver::{TaskMapper, TaskReducer};
use earl::core::{
    EarlConfig, EarlDriver, EarlReport, EarlTask, EarlUpdate, Progress, TaskEstimator,
};
use earl::dfs::{Dfs, DfsConfig};
use earl::mapreduce::{InputSource, JobConf};
use earl::net::TcpTransport;
use earl::sampling::PreMapSampler;
use earl::workload::dataset::GeneratedDataset;
use earl::workload::{DatasetBuilder, DatasetSpec};

use crate::harness::{timed_ops, Metric, Op, Phase, Workload};
use crate::layers::{self, ReferenceFacts, Tally};
use crate::procs::WorkerProc;
use crate::stats;
use crate::trace::Tracer;

pub const PATH: &str = "/bench/data";
const WORKERS: usize = 2;
const HEARTBEAT: Duration = Duration::from_secs(10);

/// The DFS layout every workload but `serve_closed` uses (the service's
/// `DatasetDef::new` fixes its own).
pub fn common_dfs_config() -> DfsConfig {
    DfsConfig {
        block_size: 1 << 20,
        replication: 2,
        io_chunk: 4096,
    }
}

/// A fresh cluster and an empty DFS over it.
fn fresh_dfs(nodes: u32) -> Result<Dfs, String> {
    Dfs::new(Cluster::with_nodes(nodes), common_dfs_config()).map_err(|e| e.to_string())
}

/// The world a scalar workload builds for itself in `setup`.
pub struct ScalarSpec {
    pub nodes: u32,
    pub dataset: DatasetSpec,
    /// Which ground truth of the generated dataset the task estimates.
    pub truth: fn(&GeneratedDataset) -> f64,
    /// Run the answer jobs over two worker subprocesses on loopback.
    pub remote: bool,
}

struct Net {
    // Declared before `workers`: the transport says goodbye, then the guards
    // kill and reap whatever is left.
    transport: Arc<TcpTransport>,
    workers: Vec<WorkerProc>,
    connect_s: f64,
    provision_s: f64,
}

impl Drop for Net {
    fn drop(&mut self) {
        self.transport.shutdown();
    }
}

struct World {
    dfs: Dfs,
    truth: f64,
    net: Option<Net>,
}

struct Reference {
    report: EarlReport,
    updates: Vec<EarlUpdate>,
    exact: EarlReport,
}

pub struct Scalar<T: EarlTask> {
    config: EarlConfig,
    task: T,
    /// `None` for a solo driver, whose owner hands it a built DFS instead.
    spec: Option<ScalarSpec>,
    world: Option<World>,
    reference: Option<Reference>,
    /// Timed reports whose `sim_time` differs from the fresh-world reference.
    sim_drift: AtomicUsize,
}

/// Submit → first update → report, for one driver call.
fn timed_run<T: EarlTask>(
    driver: &EarlDriver,
    task: &T,
) -> (f64, f64, earl::core::Result<EarlReport>, Vec<EarlUpdate>) {
    let mut updates = Vec::new();
    let mut first = None;
    let t0 = Instant::now();
    let result = driver.run_with_progress(PATH, task, &mut |update| {
        first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
        updates.push(update);
        Progress::Continue
    });
    let secs = t0.elapsed().as_secs_f64();
    (secs, first.unwrap_or(secs), result, updates)
}

/// Why `report` fails on its own — bound missed, or too far from the ground
/// truth — if it does.
pub fn check_truth(report: &EarlReport, truth: f64) -> Option<String> {
    if !report.meets_bound() {
        return Some(format!(
            "cv {} misses the bound {}",
            report.error_estimate, report.target_sigma
        ));
    }
    let tolerance = if report.exact {
        1e-9
    } else {
        3.0 * report.target_sigma
    };
    let error = report.relative_error_vs(truth);
    if error > tolerance {
        return Some(format!(
            "relative error {error} vs ground truth exceeds {tolerance}"
        ));
    }
    None
}

/// [`check_truth`], then equality with the reference on the fields a reused
/// world leaves untouched: `sim_time` and `bytes_read` of a report drift on a
/// reused `Dfs`.
fn check_report(report: &EarlReport, reference: &EarlReport, truth: f64) -> Option<String> {
    if let Some(why) = check_truth(report, truth) {
        return Some(why);
    }
    let same = report.result.to_bits() == reference.result.to_bits()
        && report.sample_size == reference.sample_size
        && report.iterations == reference.iterations
        && report.error_estimate.to_bits() == reference.error_estimate.to_bits();
    (!same).then(|| {
        format!(
            "result {} n {} iterations {} cv {} differ from the reference {} / {} / {} / {}",
            report.result,
            report.sample_size,
            report.iterations,
            report.error_estimate,
            reference.result,
            reference.sample_size,
            reference.iterations,
            reference.error_estimate
        )
    })
}

impl<T: EarlTask> Scalar<T> {
    pub fn new(config: EarlConfig, task: T, spec: ScalarSpec) -> Self {
        Self {
            spec: Some(spec),
            ..Self::solo(config, task)
        }
    }

    /// A driver without a world of its own: see [`adopt`](Self::adopt).
    pub fn solo(config: EarlConfig, task: T) -> Self {
        Self {
            config,
            task,
            spec: None,
            world: None,
            reference: None,
            sim_drift: AtomicUsize::new(0),
        }
    }

    /// Uses an already built DFS holding the dataset at [`PATH`] as this
    /// workload's world (the service workload's solo drivers).
    pub fn adopt(&mut self, dfs: Dfs, truth: f64) {
        self.world = Some(World {
            dfs,
            truth,
            net: None,
        });
    }

    /// The fresh-world report `verify` recorded.
    pub fn reference_report(&self) -> &EarlReport {
        &self.reference().report
    }

    fn world(&self) -> &World {
        self.world.as_ref().expect("setup ran")
    }

    fn reference(&self) -> &Reference {
        self.reference.as_ref().expect("verify ran")
    }

    fn driver(&self, world: &World) -> EarlDriver {
        let driver = EarlDriver::new(world.dfs.clone(), self.config);
        match &world.net {
            Some(net) => driver.with_transport(net.transport.clone()),
            None => driver,
        }
    }

    pub fn answer_op(&self) -> Op {
        let (secs, first_secs, result, _) = timed_run(&self.driver(self.world()), &self.task);
        let reference = &self.reference().report;
        let failure = match result {
            Ok(report) => {
                if report.sim_time != reference.sim_time {
                    self.sim_drift.fetch_add(1, Ordering::Relaxed);
                }
                check_report(&report, reference, self.world().truth)
            }
            Err(e) => Some(e.to_string()),
        };
        Op {
            secs,
            first_secs,
            failure,
        }
    }

    pub fn exact_op(&self) -> Op {
        let driver = self.driver(self.world());
        let t0 = Instant::now();
        let result = driver.run_exact(PATH, &self.task);
        let secs = t0.elapsed().as_secs_f64();
        let failure = match result {
            Ok(report) => check_report(&report, &self.reference().exact, self.world().truth),
            Err(e) => Some(e.to_string()),
        };
        Op {
            secs,
            first_secs: secs,
            failure,
        }
    }

    /// The accuracy stage at one ladder step through the public entry point
    /// `EarlDriver` takes for this task: `IncrementalBootstrap` where resamples
    /// are delta-maintained (order statistics), a fresh
    /// `bootstrap_distribution` (count-based under `Auto`) otherwise.  The two
    /// differ a hundredfold in cost, so the re-enactment must take the same one.
    fn aes_step(
        &self,
        estimator: &TaskEstimator<'_, T>,
        values: &[f64],
        delta: &[f64],
        bootstraps: usize,
        incremental: &mut Option<IncrementalBootstrap>,
    ) -> Result<(), String> {
        let config = &self.config;
        let count_based =
            config.bootstrap_kernel.resolve_for(estimator) == ResolvedKernel::CountBased;
        if count_based || !config.delta_maintenance {
            let fresh = BootstrapConfig::with_resamples(bootstraps)
                .with_parallelism(config.parallelism)
                .with_kernel(config.bootstrap_kernel);
            let result = bootstrap_distribution(config.seed, values, estimator, &fresh);
            std::hint::black_box(result.map_err(|e| e.to_string())?);
            return Ok(());
        }
        let ib = match incremental.take() {
            None => {
                IncrementalBootstrap::new(config.seed, values, bootstraps, SketchConfig::default())
                    .map_err(|e| e.to_string())?
                    .with_parallelism(config.parallelism)
                    .with_kernel(config.bootstrap_kernel)
            }
            Some(mut ib) => {
                if !delta.is_empty() {
                    ib.expand(delta).map_err(|e| e.to_string())?;
                }
                ib
            }
        };
        std::hint::black_box(ib.evaluate(estimator));
        *incremental = Some(ib);
        Ok(())
    }

    /// Re-enacts the reference run's ladder — the sample sizes its updates
    /// report — by calling the layers directly with the same sizes, each call
    /// in a span.  One call is one operation of the trace.  Returns the final
    /// sample's values.
    fn reenact(&self, tracer: &mut Tracer, tally: &mut Tally) -> Result<Vec<f64>, String> {
        let config = &self.config;
        let dfs = &self.world().dfs;
        let reference = self.reference();
        let population = reference.report.population;
        let pilot = layers::pilot_records(config, population);
        let estimator = TaskEstimator::new(&self.task);
        let mapper = TaskMapper::new(&self.task);
        let reducer = TaskReducer::new(&self.task);

        tracer.next_op();
        tracer.span("reenact", |tracer| {
            let mut sampler = PreMapSampler::new(dfs.clone(), PATH, config.seed)
                .map_err(|e| e.to_string())?
                .skip_unavailable(config.failure_policy.is_degrade());
            let mut records: Vec<(u64, String)> = Vec::new();
            let mut values: Vec<f64> = Vec::new();
            let mut incremental = None;
            // Step 0 is the pilot draw (and SSABE, unless (n, B) are pinned);
            // steps 1.. are the iterations the updates describe.
            let sizes = std::iter::once(pilot)
                .chain(reference.updates.iter().map(|u| u.sample_size as usize));
            for (step, size) in sizes.enumerate() {
                let before = values.len();
                let needed = size.saturating_sub(records.len());
                if needed > 0 {
                    let batch = layers::draw(tracer, &mut sampler, needed, tally)?;
                    tracer.span("core.extract", |_| {
                        for (_, line) in &batch {
                            self.task.extract_record(line, &mut values);
                        }
                    });
                    records.extend(batch);
                }
                if step == 0 {
                    if config.bootstraps.is_none() || config.sample_size.is_none() {
                        let ssabe = layers::ssabe_for(config)?;
                        tracer
                            .span("bootstrap.ssabe", |_| {
                                ssabe.estimate(config.seed, &values, &estimator, population)
                            })
                            .map_err(|e| e.to_string())?;
                    }
                    continue;
                }
                tracer.span("mapreduce.sample_job", |tracer| {
                    let conf = JobConf::new("reenact", InputSource::Memory(records.clone()))
                        .with_failure_policy(config.failure_policy)
                        .with_parallelism(config.parallelism)
                        .with_source_path(PATH);
                    layers::sample_job(tracer, dfs, &conf, &mapper, &reducer, tally)
                })?;
                let bootstraps = reference.report.bootstraps;
                tracer.span("bootstrap.aes", |_| {
                    self.aes_step(
                        &estimator,
                        &values,
                        &values[before..],
                        bootstraps,
                        &mut incremental,
                    )
                })?;
                tally.replicates += bootstraps as u64;
            }
            tally.ops += 1;
            Ok(values)
        })
    }

    /// The task-specific half of the traced run: whole operations, the
    /// re-enacted ladder, and the estimator and exact-job probes.
    pub fn ladder_layers(
        &self,
        tracer: &mut Tracer,
        budget: Duration,
    ) -> Result<Vec<Metric>, String> {
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
        let config = &self.config;
        let facts = ReferenceFacts {
            iterations: report.iterations,
            sample_fraction: report.sample_fraction,
            bootstraps: report.bootstraps,
            cv: report.error_estimate,
            rel_error: report.relative_error_vs(world.truth),
            sim_s: report.sim_time.as_secs_f64(),
            sim_drift: self.sim_drift.load(Ordering::Relaxed),
        };
        let file_bytes = world.dfs.status(PATH).map_err(|e| e.to_string())?.len;
        let mut metrics = layers::ladder_metrics(tracer, mark, &tally, &whole, &facts, file_bytes);
        metrics.extend(layers::estimator_probes(
            tracer,
            &values,
            layers::pilot_records(config, report.population),
            config,
            &TaskEstimator::new(&self.task),
            report.population,
        )?);
        let exact_conf = JobConf::new("exact-probe", InputSource::Path(PATH.into()))
            .with_failure_policy(config.failure_policy)
            .with_parallelism(config.parallelism);
        metrics.extend(layers::exact_job_probes(
            tracer,
            &world.dfs,
            &exact_conf,
            &TaskMapper::new(&self.task),
            &TaskReducer::new(&self.task),
        )?);
        Ok(metrics)
    }

    /// The socket-bound half of `earl-net`, measured only where workers run.
    fn net_metrics(&self, world: &World, net: &Net) -> Vec<Metric> {
        const JOBS: usize = 5;
        const PINGS: usize = 100;
        let transport = &net.transport;
        let before = (
            transport.remote_calls(),
            transport.section_calls(),
            transport.reprovision_bytes(),
        );
        let remote: Vec<f64> = (0..JOBS)
            .map(|_| timed_run(&self.driver(world), &self.task).0)
            .collect();
        let per_job = |now: usize, then: usize| (now - then) as f64 / JOBS as f64;
        let in_process = EarlDriver::new(world.dfs.clone(), self.config);
        let local: Vec<f64> = (0..JOBS)
            .map(|_| timed_run(&in_process, &self.task).0)
            .collect();
        let t0 = Instant::now();
        for _ in 0..PINGS {
            transport.ping_all();
        }
        let ping_us = t0.elapsed().as_secs_f64() * 1e6 / (PINGS * WORKERS) as f64;
        let file_mib = world.dfs.status(PATH).map(|s| s.len).unwrap_or(0) as f64 / layers::MIB;
        let worker_rss: Vec<f64> = net
            .workers
            .iter()
            .filter_map(WorkerProc::peak_rss_mb)
            .collect();

        vec![
            Metric::single("net.connect_s", "s", net.connect_s),
            Metric::single("net.provision_s", "s", net.provision_s),
            Metric::single(
                "net.provision_mb_per_s",
                "MiB/s",
                file_mib / net.provision_s,
            ),
            Metric::single("net.ping_rtt_us", "us", ping_us),
            Metric::single(
                "net.remote_over_local_x",
                "x",
                stats::median(&remote) / stats::median(&local),
            ),
            Metric::samples("net.worker_rss_mb", "MiB", &worker_rss),
            Metric::single(
                "net.remote_calls",
                "count",
                per_job(transport.remote_calls(), before.0),
            ),
            Metric::single(
                "net.section_calls",
                "count",
                per_job(transport.section_calls(), before.1),
            ),
            Metric::single(
                "net.reprovision_bytes",
                "count",
                (transport.reprovision_bytes() - before.2) as f64 / JOBS as f64,
            ),
            Metric::single("net.revives", "count", transport.revives() as f64),
            Metric::single("net.rejoins", "count", transport.rejoins() as f64),
        ]
    }
}

impl<T: EarlTask> Workload for Scalar<T> {
    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let spec = self
            .spec
            .as_ref()
            .ok_or("a solo driver is handed its world")?;
        // Stops the previous set-up's workers before the next ones start.
        self.world = None;
        let dfs = fresh_dfs(spec.nodes)?;
        let builder = DatasetBuilder::new(dfs.clone());
        let dataset = layers::build_dataset(
            tracer,
            || {
                drop(std::hint::black_box(DatasetBuilder::generate_values(
                    &spec.dataset,
                )))
            },
            || builder.build(PATH, &spec.dataset),
        )
        .map_err(|e| e.to_string())?;
        let truth = (spec.truth)(&dataset);
        drop(dataset);

        let net = if spec.remote {
            let workers: Vec<WorkerProc> = (0..WORKERS)
                .map(|_| WorkerProc::spawn())
                .collect::<Result<_, _>>()?;
            let addrs: Vec<_> = workers.iter().map(|w| w.addr).collect();
            let t0 = Instant::now();
            let transport = TcpTransport::connect(dfs.cluster().clone(), &addrs, HEARTBEAT)
                .map_err(|e| format!("connect to workers: {e}"))?;
            let connect_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            transport
                .provision(&dfs, PATH)
                .map_err(|e| format!("provision workers: {e}"))?;
            Some(Net {
                transport: Arc::new(transport),
                workers,
                connect_s,
                provision_s: t1.elapsed().as_secs_f64(),
            })
        } else {
            None
        };
        self.world = Some(World { dfs, truth, net });
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let world = self.world();
        let (_, _, result, updates) = timed_run(&self.driver(world), &self.task);
        let report = result.map_err(|e| format!("reference run: {e}"))?;
        if let Some(why) = check_truth(&report, world.truth) {
            return Err(format!("reference run: {why}"));
        }
        if report.exact {
            return Err(
                "reference run fell back to the exact job: the workload measures nothing early"
                    .into(),
            );
        }
        if let (Some(net), Some(spec)) = (&world.net, &self.spec) {
            if net.transport.remote_calls() == 0 || net.transport.section_calls() == 0 {
                return Err("the remote reference run never used the wire".into());
            }
            // A second fresh world, same seed, no transport: whole-report
            // equality.
            let dfs = fresh_dfs(spec.nodes)?;
            DatasetBuilder::new(dfs.clone())
                .build(PATH, &spec.dataset)
                .map_err(|e| e.to_string())?;
            let local = EarlDriver::new(dfs, self.config)
                .run(PATH, &self.task)
                .map_err(|e| format!("in-process reference run: {e}"))?;
            if local != report {
                return Err(format!(
                    "remote report differs from the in-process report on fresh worlds:\n{report:?}\n{local:?}"
                ));
            }
        }
        let exact = self
            .driver(world)
            .run_exact(PATH, &self.task)
            .map_err(|e| format!("exact reference run: {e}"))?;
        if let Some(why) = check_truth(&exact, world.truth) {
            return Err(format!("exact reference run: {why}"));
        }
        self.reference = Some(Reference {
            report,
            updates,
            exact,
        });
        Ok(())
    }

    fn answer_phase(&mut self, budget: Duration) -> Phase {
        timed_ops(budget, || self.answer_op())
    }

    fn exact_phase(&mut self, budget: Duration) -> Phase {
        timed_ops(budget, || self.exact_op())
    }

    fn extra_metrics(&self) -> Vec<Metric> {
        vec![Metric::single(
            "core.reused_world_sim_drift",
            "count",
            self.sim_drift.load(Ordering::Relaxed) as f64,
        )]
    }

    fn layers(&mut self, tracer: &mut Tracer, budget: Duration) -> Result<Vec<Metric>, String> {
        let mut metrics = self.ladder_layers(tracer, budget)?;
        let world = self.world();
        metrics.extend(layers::dfs_probes(
            tracer,
            &world.dfs,
            PATH,
            self.config.seed,
        )?);
        if let Some(net) = &world.net {
            metrics.extend(layers::net_probes(tracer, &world.dfs, PATH)?);
            metrics.extend(self.net_metrics(world, net));
        }
        Ok(metrics)
    }
}
