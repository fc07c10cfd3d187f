//! The EARL driver: the iterative sample → estimate → expand loop of Figure 1.
//!
//! One [`EarlDriver::run`] call performs the whole pipeline the paper
//! describes:
//!
//! 1. draw a small pilot sample and run **SSABE** to pick the number of
//!    bootstraps `B` and the sample size `n` (§3.2), falling back to exact
//!    execution when `B·n ≥ N`;
//! 2. draw the sample (pre-map or post-map, §3.3) and run the user's task on
//!    it through the MapReduce engine (reusing tasks across iterations as the
//!    pipelined extension of §2.1 does);
//! 3. run the **Accuracy Estimation Stage** over `B` resamples — maintained
//!    incrementally via delta maintenance (§4.1) when enabled — and compare the
//!    cv against σ;
//! 4. expand the sample and repeat until the bound is met, the data is
//!    exhausted, or the iteration budget runs out.

use std::sync::Arc;

use earl_bootstrap::bootstrap::{
    bootstrap_distribution_via, BootstrapConfig, BootstrapResult, BuiltSections, ResolvedKernel,
    SectionEvaluator,
};
use earl_bootstrap::delta::{IncrementalBootstrap, SketchConfig};
use earl_bootstrap::rng::derive_seed;
use earl_bootstrap::ssabe::{Ssabe, SsabeConfig};
use earl_cluster::{FaultLog, Phase, SimDuration};
use earl_dfs::{Dfs, DfsError, DfsPath};
use earl_mapreduce::transport::default_transport;
use earl_mapreduce::{
    InputSource, JobConf, MapContext, Mapper, MrError, ReduceContext, Reducer,
    RemoteSectionsRequest, SectionSummary, TaskSpec, TaskTransport,
};
use earl_sampling::SamplingError;

/// Sub-seed stream of the SSABE pilot estimation.
const SSABE_STREAM: u64 = 1;
/// Sub-seed stream of the delta-maintained resamples.
const DELTA_STREAM: u64 = 2;
/// Sub-seed stream base of per-iteration fresh bootstraps (non-delta mode).
const FRESH_STREAM: u64 = 16;

use crate::aes::{aes_work, AccuracyEstimationStage};
use crate::config::{EarlConfig, SamplingMethod};
use crate::error::EarlError;
use crate::progress::{EarlUpdate, Progress};
use crate::report::EarlReport;
use crate::task::{EarlTask, TaskEstimator};
use crate::Result;
use earl_sampling::{PostMapSampler, PreMapSampler, SampleSource};

/// A [`Mapper`] that extracts a task's values from raw input lines.
pub struct TaskMapper<'a, T: EarlTask> {
    task: &'a T,
}

impl<'a, T: EarlTask> TaskMapper<'a, T> {
    /// Wraps a task.
    pub fn new(task: &'a T) -> Self {
        Self { task }
    }
}

impl<T: EarlTask> Mapper for TaskMapper<'_, T> {
    type OutKey = u32;
    type OutValue = f64;
    fn map(&self, _offset: u64, line: &str, ctx: &mut MapContext<u32, f64>) {
        if self.task.record_stride() == 1 {
            if let Some(value) = self.task.extract(line) {
                ctx.emit(0, value);
            }
        } else {
            // Multi-column record: emit every column in order.  Emission order
            // is preserved per key through the (deterministic) shuffle, so the
            // reducer sees whole records back to back.  The scratch buffer is
            // thread-local — one allocation per worker, not one per line.
            thread_local! {
                static RECORD: std::cell::RefCell<Vec<f64>> =
                    const { std::cell::RefCell::new(Vec::new()) };
            }
            RECORD.with(|cell| {
                let mut record = cell.borrow_mut();
                record.clear();
                if self.task.extract_record(line, &mut record) {
                    for &value in record.iter() {
                        ctx.emit(0, value);
                    }
                }
            });
        }
    }
    fn is_heavy(&self) -> bool {
        self.task.is_heavy()
    }
    fn remote_spec(&self) -> Option<TaskSpec> {
        self.task.wire_spec()
    }
}

/// A [`Reducer`] that evaluates a task over all values of its key.
pub struct TaskReducer<'a, T: EarlTask> {
    task: &'a T,
}

impl<'a, T: EarlTask> TaskReducer<'a, T> {
    /// Wraps a task.
    pub fn new(task: &'a T) -> Self {
        Self { task }
    }
}

impl<T: EarlTask> Reducer for TaskReducer<'_, T> {
    type InKey = u32;
    type InValue = f64;
    type Output = f64;
    fn reduce(&self, _key: &u32, values: &[f64], ctx: &mut ReduceContext<f64>) {
        ctx.emit(self.task.evaluate(values));
    }
    fn is_heavy(&self) -> bool {
        self.task.is_heavy()
    }
    fn remote_spec(&self) -> Option<TaskSpec> {
        self.task.wire_spec()
    }
}

/// What one EARL ladder estimates, and how: the four things a scalar task and
/// a grouped aggregate do differently inside the one loop,
/// [`EarlDriver::climb`].
pub(crate) trait Ladder {
    /// The committed extracted sample.
    type Sample: Default;
    /// One step's accuracy estimate.
    type Estimate;
    /// What the accuracy stage carries from one step to the next.
    type AesState: Default;
    /// The step job's mapper.
    type Map: Mapper;
    /// The step job's reducer; its [`Reducer::is_heavy`] prices the accuracy
    /// stage too.
    type Reduce: Reducer<InKey = MapKey<Self>, InValue = MapValue<Self>>;

    /// How a drawn batch extends the sample.
    fn extend(&self, sample: &mut Self::Sample, batch: &[(u64, String)]);
    /// The size that targets, the exact check and the report count, given
    /// the drawn `records`; 0 while no record is usable.
    fn size(&self, records: &[(u64, String)], sample: &Self::Sample) -> u64;
    /// The step's job over the committed sample plus `batch`, configured
    /// before its map phase runs.
    fn job(&self, input: InputSource, sample: &Self::Sample, batch: &[(u64, String)]) -> JobConf;
    /// The step job's mapper and reducer.
    fn tasks(&self) -> (Self::Map, Self::Reduce);
    /// The accuracy stage: one step's estimate and the work it charges.
    /// It never touches the simulated clock; the climb charges that work.
    fn estimate(
        &self,
        state: &mut Self::AesState,
        sample: &Self::Sample,
        iteration: usize,
    ) -> Result<(Self::Estimate, u64)>;
    /// The verdict: the error the stopping rule compares against σ, and
    /// whether the sample is large enough for a met bound to count.
    fn verdict(&self, sample: &Self::Sample, estimate: &Self::Estimate) -> (f64, bool);
}

type MapKey<L> = <<L as Ladder>::Map as Mapper>::OutKey;
type MapValue<L> = <<L as Ladder>::Map as Mapper>::OutValue;

/// What [`EarlDriver::climb`] shows its observer at each committed step: the
/// iteration, the estimate, the sample size and the sample fraction.
type StepObserver<'o, E> = dyn FnMut(usize, &E, u64, f64) -> Progress + 'o;

/// One run on its ladder: the sampler, the committed sample and the
/// accounting its report is assembled from.
pub(crate) struct Climb<L: Ladder> {
    sampler: Box<dyn SampleSource>,
    pub(crate) population: u64,
    /// Simulated clock, DFS bytes read and failure events logged when the run
    /// started.
    start: (SimDuration, u64, usize),
    pub(crate) records: Vec<(u64, String)>,
    pub(crate) sample: L::Sample,
    fault_log: FaultLog,
    pub(crate) iterations: usize,
    pub(crate) exact: bool,
    cancelled: bool,
    /// The last committed step's accuracy estimate.
    pub(crate) estimate: Option<L::Estimate>,
    aes: L::AesState,
}

impl<L: Ladder> Climb<L> {
    /// The reported sample fraction: records drawn over the population.
    pub(crate) fn sampled_fraction(&self) -> f64 {
        (self.sampler.drawn() as f64 / self.population as f64).clamp(0.0, 1.0)
    }

    /// Simulated time and DFS bytes read since the run started.
    pub(crate) fn charges(&self, dfs: &Dfs) -> (SimDuration, u64) {
        let cluster = dfs.cluster();
        (
            cluster.elapsed() - self.start.0,
            cluster.metrics().snapshot().total_disk_bytes_read() - self.start.1,
        )
    }
}

/// The scalar ladder: one [`EarlTask`] over the flat extracted sample,
/// `record_stride()` consecutive values per usable record.
struct ScalarLadder<'a, T: EarlTask> {
    driver: &'a EarlDriver,
    task: &'a T,
    path: &'a DfsPath,
    evaluator: Option<Arc<SectionEvaluator>>,
    /// `B`, fixed once SSABE or the configuration has chosen it.
    bootstraps: usize,
}

impl<'a, T: EarlTask> Ladder for ScalarLadder<'a, T> {
    type Sample = Vec<f64>;
    type Estimate = BootstrapResult;
    type AesState = Option<IncrementalBootstrap>;
    type Map = TaskMapper<'a, T>;
    type Reduce = TaskReducer<'a, T>;

    fn extend(&self, values: &mut Vec<f64>, batch: &[(u64, String)]) {
        for (_, line) in batch {
            // All-or-nothing per record: multi-column tasks never leave the
            // flat sample mid-record.
            self.task.extract_record(line, values);
        }
    }

    fn size(&self, _records: &[(u64, String)], values: &Vec<f64>) -> u64 {
        (values.len() / self.task.record_stride().max(1)) as u64
    }

    fn job(&self, input: InputSource, _values: &Vec<f64>, _batch: &[(u64, String)]) -> JobConf {
        JobConf::new(format!("earl-{}", self.task.name()), input)
            .with_transport(self.driver.transport.clone())
            .with_source_path(self.path.clone())
    }

    fn tasks(&self) -> (Self::Map, Self::Reduce) {
        (TaskMapper::new(self.task), TaskReducer::new(self.task))
    }

    /// A resample-free count-based bootstrap for linear tasks, a fresh
    /// Monte-Carlo bootstrap, or a delta-maintained resample update (§4.1);
    /// the work is the number of resample items touched.
    ///
    /// Kernel routing: when `config.bootstrap_kernel` resolves the task to the
    /// count-based kernel (linear and k-ary-linear statistics under `Auto`),
    /// the fresh bootstrap path is taken even with delta maintenance enabled —
    /// one O(n) section-build scan plus O(√n) per replicate per iteration is
    /// strictly cheaper than maintaining materialised resamples (whose
    /// per-iteration *evaluation* alone is O(B·n)), so there is no state worth
    /// maintaining.  Multi-column tasks (record stride > 1) always take the
    /// fresh path too: the maintained-resample structure adds and deletes
    /// individual *values*, which would split a record's columns apart.  The
    /// remote `evaluator`, when present, offloads count-based replicate
    /// batches; a conforming evaluator is bit-identical to local evaluation,
    /// so the result — and the work, which is defined by the *statistic*, not
    /// by where it ran — is unchanged.
    fn estimate(
        &self,
        incremental: &mut Option<IncrementalBootstrap>,
        values: &Vec<f64>,
        iteration: usize,
    ) -> Result<(BootstrapResult, u64)> {
        let config = &self.driver.config;
        let estimator = TaskEstimator::new(self.task);
        let resolved = config.bootstrap_kernel.resolve_for(&estimator);
        let stride = self.task.record_stride().max(1);
        let bootstraps = self.bootstraps;
        if !config.delta_maintenance || resolved == ResolvedKernel::CountBased || stride != 1 {
            let result = bootstrap_distribution_via(
                derive_seed(config.seed, FRESH_STREAM + iteration as u64),
                values,
                &estimator,
                &BootstrapConfig::with_resamples(bootstraps)
                    .with_parallelism(config.parallelism)
                    .with_kernel(config.bootstrap_kernel),
                self.evaluator.as_deref(),
            )
            .map_err(EarlError::Stats)?;
            // Work is accounted in records (identical to values for stride 1).
            return Ok((
                result,
                aes_work(resolved, values.len() / stride, bootstraps),
            ));
        }
        if let Some(ib) = incremental {
            // Δ is whatever the maintained resamples have not absorbed yet.
            let delta = &values[ib.sample_size()..];
            let touched = if delta.is_empty() {
                0
            } else {
                ib.expand(delta).map_err(EarlError::Stats)?.items_touched
            };
            return Ok((ib.evaluate(&estimator), touched));
        }
        let ib = IncrementalBootstrap::new(
            derive_seed(config.seed, DELTA_STREAM),
            values,
            bootstraps,
            SketchConfig::default(),
        )
        .map_err(EarlError::Stats)?
        .with_parallelism(config.parallelism);
        let result = ib.evaluate(&estimator);
        *incremental = Some(ib);
        Ok((result, (bootstraps * values.len()) as u64))
    }

    fn verdict(&self, _values: &Vec<f64>, bootstrap: &BootstrapResult) -> (f64, bool) {
        (bootstrap.cv, true)
    }
}

/// Converts a locally built section summary into its wire-transferable form.
///
/// The forms themselves (function pointers) never travel: workers rebuild
/// them from the task spec.  K-ary Cholesky factors are packed as the lower
/// triangle in row-major order, the layout `SectionSummary::Kary` documents.
fn wire_summary(sections: &BuiltSections) -> SectionSummary {
    match sections {
        BuiltSections::Linear(s, _) => SectionSummary::Linear {
            total_items: s.total_items(),
            sections: s.parts().collect(),
        },
        BuiltSections::Kary(s, _) => {
            let arity = s.arity();
            SectionSummary::Kary {
                stride: s.stride() as u32,
                arity: arity as u32,
                total_records: s.total_records(),
                sections: s
                    .parts()
                    .map(|(len, mean, chol)| {
                        let mut packed = Vec::with_capacity(arity * (arity + 1) / 2);
                        for (i, row) in chol.iter().enumerate().take(arity) {
                            packed.extend_from_slice(&row[..=i]);
                        }
                        (len, mean[..arity].to_vec(), packed)
                    })
                    .collect(),
            }
        }
    }
}

/// Content address of a section summary: FNV-1a over every count and f64 bit
/// pattern.  This is the `version` of the `(path, version)` identity the
/// transport uses to decide whether workers already hold the summary — a
/// B-growth loop reusing one summary ships it exactly once, while a new
/// iteration's summary (different sample) re-provisions.
fn summary_version(summary: &SectionSummary) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    match summary {
        SectionSummary::Linear {
            total_items,
            sections,
        } => {
            mix(0);
            mix(*total_items);
            for (len, mean, sd) in sections {
                mix(*len);
                mix(mean.to_bits());
                mix(sd.to_bits());
            }
        }
        SectionSummary::Kary {
            stride,
            arity,
            total_records,
            sections,
        } => {
            mix(1);
            mix(*stride as u64);
            mix(*arity as u64);
            mix(*total_records);
            for (len, means, chol) in sections {
                mix(*len);
                for v in means.iter().chain(chol.iter()) {
                    mix(v.to_bits());
                }
            }
        }
    }
    hash
}

/// Whether an error means *input data died with a node* — the one condition
/// the degrade policy (§3.4) absorbs instead of propagating.
fn is_data_loss(err: &EarlError) -> bool {
    matches!(
        err,
        EarlError::Dfs(DfsError::BlockUnavailable(_))
            | EarlError::MapReduce(MrError::Dfs(DfsError::BlockUnavailable(_)))
            | EarlError::Sampling(SamplingError::Dfs(DfsError::BlockUnavailable(_)))
    )
}

/// Draws up to `needed` records, degrading on data loss: under
/// [`FailurePolicy::Degrade`] a sample draw that hits blocks lost to a node
/// failure does not abort the run — the DFS metadata is re-synced (dropping
/// the dead node's splits from the file, so redraws touch only survivors),
/// the loss is logged, and the draw is retried against the surviving data;
/// what comes back remains a uniform sample of what survived, and the
/// accuracy-estimation stage prices it (§3.4).  If loss strikes again after
/// the re-sync the draw comes back empty, which ends the sample's growth (for
/// the pilot the run then ends `NoUsableRecords`).  Under `Retry` the error
/// propagates unchanged.  An empty draw of a positive `needed` means the
/// sample is exhausted.
///
/// [`FailurePolicy::Degrade`]: earl_mapreduce::FailurePolicy::Degrade
fn draw_degrading(
    dfs: &Dfs,
    config: &EarlConfig,
    sampler: &mut dyn SampleSource,
    needed: usize,
    fault_log: &mut FaultLog,
) -> Result<Vec<(u64, String)>> {
    if needed == 0 {
        return Ok(Vec::new());
    }
    let mut reconciled = false;
    loop {
        match sampler.draw(needed).map_err(EarlError::from) {
            Ok(batch) => return Ok(batch.records),
            Err(err) if config.failure_policy.is_degrade() && is_data_loss(&err) => {
                if reconciled {
                    // Loss persists even after re-syncing metadata: stop
                    // growing the sample and let the bound widen.
                    return Ok(Vec::new());
                }
                let orphaned = dfs.reconcile_failures();
                fault_log.splits_lost += orphaned.len().max(1) as u64;
                reconciled = true;
            }
            Err(err) => return Err(err),
        }
    }
}

/// The EARL driver.
#[derive(Debug, Clone)]
pub struct EarlDriver {
    dfs: Dfs,
    config: EarlConfig,
    transport: Arc<dyn TaskTransport>,
}

impl EarlDriver {
    /// Creates a driver over the given DFS.  The configuration is validated on
    /// each run.  Tasks execute in-process; use [`EarlDriver::with_transport`]
    /// to ship wire-portable tasks to real worker processes instead.
    pub fn new(dfs: Dfs, config: EarlConfig) -> Self {
        Self {
            dfs,
            config,
            transport: default_transport(),
        }
    }

    /// Points the driver's per-iteration jobs at a task transport (e.g.
    /// `earl-net`'s `TcpTransport` over real worker processes).  All planning,
    /// sampling and cost accounting stay with this driver; only the user
    /// compute of wire-portable tasks moves — reports are bit-identical to the
    /// in-process engine.
    pub fn with_transport(mut self, transport: Arc<dyn TaskTransport>) -> Self {
        self.transport = transport;
        self
    }

    /// The DFS this driver operates on.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The configuration in effect.
    pub fn config(&self) -> &EarlConfig {
        &self.config
    }

    /// Under the degrade policy, writes off data that died with failed nodes:
    /// re-syncs DFS metadata (so later reads touch only survivors) and logs
    /// the orphaned splits.  A no-op under `Retry` or while every node lives,
    /// so a run that never sees a failure is bit-identical to one on an
    /// unarmed cluster.
    fn write_off_losses(&self, fault_log: &mut FaultLog) {
        if self.config.failure_policy.is_degrade() && !self.dfs.cluster().failed_nodes().is_empty()
        {
            fault_log.splits_lost += self.dfs.reconcile_failures().len() as u64;
        }
    }

    /// Runs `task` over `path` with early approximation, returning a report
    /// whose error estimate satisfies the configured bound σ.
    ///
    /// Falls back to exact execution (like stock Hadoop) when the SSABE
    /// estimate says sampling will not pay off.  Returns
    /// [`EarlError::AccuracyNotReached`] carrying the partial report when the
    /// bound cannot be met within the iteration budget.
    pub fn run<T: EarlTask>(&self, path: impl Into<DfsPath>, task: &T) -> Result<EarlReport> {
        self.run_with_progress(path, task, &mut |_| Progress::Continue)
    }

    /// [`run`](Self::run) with progressive early-result delivery — the paper's
    /// headline behaviour exposed as an API.  `observer` receives one
    /// [`EarlUpdate`] snapshot at every iteration boundary (after that
    /// iteration's Accuracy Estimation Stage, including the final one), built
    /// from the same AES output the stopping rule reads, so delivery costs no
    /// extra simulated work.  Returning [`Progress::Cancel`] stops the ladder
    /// at that boundary: the driver abandons further expansion and returns
    /// [`EarlError::Cancelled`] carrying the partial report for the committed
    /// work.  A boundary whose bound is already met (or whose sample is
    /// exhausted or exact) completes normally even if the observer answers
    /// `Cancel` — cancellation never discards an already-final result.
    ///
    /// Determinism: the observer cannot perturb the run — snapshots are pure
    /// functions of the ladder, and for any fixed sequence of observer
    /// verdicts the result (including `sim_time` and byte counters) is
    /// bit-identical across thread counts and across re-runs.  An observer
    /// that always answers [`Progress::Continue`] yields exactly
    /// [`run`](Self::run)'s report.
    pub fn run_with_progress<T: EarlTask>(
        &self,
        path: impl Into<DfsPath>,
        task: &T,
        observer: &mut dyn FnMut(EarlUpdate) -> Progress,
    ) -> Result<EarlReport> {
        let path = path.into();

        // ---- remote section evaluator ---------------------------------------
        // Count-based bootstrap replicates can run on remote workers: the
        // transport ships the O(√n) section summary once per version, and
        // every batch thereafter carries only `(task, path, seed, B-range,
        // size)`.  The ladder's steps run back to back, so section calls never
        // interleave with map or reduce calls and every worker's call indices
        // stay deterministic.  A declined or failed remote batch falls back
        // to local evaluation inside the bootstrap, which is bit-identical
        // either way.
        let section_evaluator: Option<Arc<SectionEvaluator>> = match task.wire_spec() {
            Some(spec) if !self.transport.is_local() => {
                let transport = self.transport.clone();
                let sections_path = format!("{}#sections", path.as_str());
                let max_attempts = self.config.failure_policy.max_attempts().max(1);
                Some(Arc::new(
                    move |sections: &BuiltSections,
                          seed: u64,
                          b_start: u64,
                          b_count: u64,
                          size: usize| {
                        let summary = wire_summary(sections);
                        let outcome = transport
                            .remote_sections(&RemoteSectionsRequest {
                                spec: &spec,
                                path: &sections_path,
                                version: summary_version(&summary),
                                summary: &summary,
                                seed,
                                b_start,
                                b_count,
                                size: size as u64,
                                max_attempts,
                            })
                            .ok()?;
                        // `retries` is deliberately dropped: a conforming
                        // remote evaluation is content-identical to local, so
                        // fault-free remote reports stay bit-identical to
                        // in-process ones; worker deaths still reach the
                        // simulation through the transport's own reporting.
                        (outcome.replicates.len() as u64 == b_count).then_some(outcome.replicates)
                    },
                ))
            }
            _ => None,
        };
        let mut ladder = ScalarLadder {
            driver: self,
            task,
            path: &path,
            evaluator: section_evaluator,
            bootstraps: 0,
        };

        // ---- pilot (phase 1, run in local mode) + SSABE ---------------------
        let mut climb = self.start(&path, &ladder)?;
        let population = climb.population;
        let values = &climb.sample;
        let estimator = TaskEstimator::new(task);
        let (bootstraps, target_n, worthwhile) =
            match (self.config.bootstraps, self.config.sample_size) {
                // B and n arrive verbatim from service requests: a product that
                // overflows is not worthwhile, so it takes the exact path.
                (Some(b), Some(n)) => (
                    b,
                    n.min(population),
                    (b as u64)
                        .checked_mul(n)
                        .is_some_and(|work| work < population),
                ),
                _ => {
                    let ssabe_config = SsabeConfig {
                        parallelism: self.config.parallelism,
                        kernel: self.config.bootstrap_kernel,
                        ..SsabeConfig::new(self.config.sigma, self.config.tau)
                    };
                    let mut ssabe = Ssabe::new(ssabe_config).map_err(EarlError::Stats)?;
                    if let Some(evaluator) = &ladder.evaluator {
                        ssabe = ssabe.with_evaluator(evaluator.clone());
                    }
                    match ssabe.estimate(
                        derive_seed(self.config.seed, SSABE_STREAM),
                        values,
                        &estimator,
                        population,
                    ) {
                        Ok(est) => {
                            // SSABE runs in local mode on one machine: charge its
                            // resampling CPU to the accuracy-estimation phase
                            // (per-replicate cost depends on the kernel the
                            // pilot bootstraps resolved to; the count-based
                            // kernel additionally pays one O(n) section-build
                            // scan of the pilot).
                            let aes_pilot_cost = aes_work(
                                self.config.bootstrap_kernel.resolve_for(&estimator),
                                values.len() / task.record_stride().max(1),
                                est.b,
                            );
                            self.dfs.cluster().charge_reduce_cpu(
                                Phase::AccuracyEstimation,
                                aes_pilot_cost,
                                task.is_heavy(),
                            );
                            let b = self.config.bootstraps.unwrap_or(est.b);
                            let n = self.config.sample_size.unwrap_or(est.n).min(population);
                            (b, n, est.worthwhile)
                        }
                        // Pilot too small for the ladder fit (tiny files): sampling
                        // will not pay off anyway.
                        Err(_) => (30, population, false),
                    }
                }
            };

        if !worthwhile {
            return self.run_exact(path, task);
        }
        ladder.bootstraps = bootstraps;

        // ---- iterative approximation -----------------------------------------
        let aes = AccuracyEstimationStage::new(self.config.sigma);
        self.climb(
            &ladder,
            &mut climb,
            target_n,
            &mut |iteration, bootstrap, sample_size, fraction| {
                let snapshot = aes.summarise(task, bootstrap, fraction, sample_size as usize);
                observer(EarlUpdate {
                    iteration,
                    estimate: snapshot.corrected_result,
                    uncorrected: snapshot.result,
                    cv: snapshot.cv,
                    ci_low: snapshot.ci.0,
                    ci_high: snapshot.ci.1,
                    sample_size,
                    sample_fraction: fraction,
                    bootstraps: snapshot.bootstraps,
                })
            },
        )?;

        // ---- report ----------------------------------------------------------
        let values = &climb.sample;
        let sample_size = ladder.size(&climb.records, values);
        let bootstrap_result = climb.estimate.as_ref().ok_or(EarlError::NoUsableRecords)?;
        let sampled_fraction = climb.sampled_fraction();
        let aes_report = aes.summarise(
            task,
            bootstrap_result,
            sampled_fraction,
            sample_size as usize,
        );
        let (sim_time, bytes_read) = climb.charges(&self.dfs);
        let exact = climb.exact;
        let fault_log = std::mem::take(&mut climb.fault_log);
        let report = EarlReport {
            task: task.name().to_owned(),
            result: if exact {
                task.evaluate(values)
            } else {
                aes_report.corrected_result
            },
            uncorrected_result: aes_report.result,
            error_estimate: if exact { 0.0 } else { aes_report.cv },
            target_sigma: self.config.sigma,
            ci_low: aes_report.ci.0,
            ci_high: aes_report.ci.1,
            sample_size,
            population,
            sample_fraction: sampled_fraction,
            bootstraps: aes_report.bootstraps,
            iterations: climb.iterations,
            exact,
            sim_time,
            bytes_read,
            resample_work: climb.aes.as_ref().map(|ib| ib.work()),
            fault_log: (!fault_log.is_empty()).then_some(fault_log),
        };
        if climb.cancelled {
            // The observer stopped the ladder: hand back the partial report —
            // everything committed up to the cancellation boundary — through
            // the distinct cancellation error.
            return Err(EarlError::Cancelled(Box::new(report)));
        }
        if report.meets_bound() {
            Ok(report)
        } else if self.config.failure_policy.is_degrade()
            && report
                .fault_log
                .as_ref()
                .is_some_and(|log| log.splits_lost > 0)
        {
            // Input data genuinely died with a node and the degrade policy is
            // in force (§3.4): the widened error estimate over the surviving
            // sample IS the answer — the caller reads the achieved accuracy
            // from the report instead of the run aborting.
            Ok(report)
        } else {
            Err(EarlError::AccuracyNotReached(Box::new(report)))
        }
    }

    /// Opens a run over `path`: validates the configuration, opens the
    /// configured sampler and draws the pilot sample (`pilot_fraction` of the
    /// population, at least `min_pilot` records) into `ladder`'s sample.
    /// Under `Degrade` the pre-map sampler treats probes into
    /// failure-orphaned blocks as misses, and even the pilot survives data
    /// loss: a cluster that lost nodes *before* the run starts (the §3.4
    /// scenario) writes the loss off up front and draws from survivors.
    pub(crate) fn start<L: Ladder>(&self, path: &DfsPath, ladder: &L) -> Result<Climb<L>> {
        self.config.validate()?;
        let population = self.dfs.status(path.clone())?.num_records.unwrap_or(0);
        if population == 0 {
            return Err(EarlError::NoUsableRecords);
        }
        let cluster = self.dfs.cluster();
        // Failure events that fire from here on (including via implicit polls
        // during sampling or job charges) belong to this run's fault log.
        let start = (
            cluster.elapsed(),
            cluster.metrics().snapshot().total_disk_bytes_read(),
            cluster.failure_events().len(),
        );
        let (dfs, seed, degrade) = (
            self.dfs.clone(),
            self.config.seed,
            self.config.failure_policy.is_degrade(),
        );
        let mut sampler: Box<dyn SampleSource> = match self.config.sampling {
            SamplingMethod::PreMap => {
                Box::new(PreMapSampler::new(dfs, path.clone(), seed)?.skip_unavailable(degrade))
            }
            SamplingMethod::PostMap => Box::new(PostMapSampler::new(dfs, path.clone(), seed)?),
        };
        let pilot_target = ((population as f64 * self.config.pilot_fraction).ceil() as u64)
            .max(self.config.min_pilot)
            .min(population) as usize;
        let mut fault_log = FaultLog::default();
        self.write_off_losses(&mut fault_log);
        let records = draw_degrading(
            &self.dfs,
            &self.config,
            sampler.as_mut(),
            pilot_target,
            &mut fault_log,
        )?;
        let mut sample = L::Sample::default();
        ladder.extend(&mut sample, &records);
        if ladder.size(&records, &sample) == 0 {
            return Err(EarlError::NoUsableRecords);
        }
        Ok(Climb {
            sampler,
            population,
            start,
            records,
            sample,
            fault_log,
            iterations: 0,
            exact: false,
            cancelled: false,
            estimate: None,
            aes: L::AesState::default(),
        })
    }

    /// The EARL ladder (Figure 1), the one loop every query climbs: draw Δ →
    /// job (map + shuffle + reduce over the sample so far plus Δ) → AES →
    /// verdict, from `target_n` up by `expansion_factor` per step, until the
    /// bound is met, the sample is exhausted or exact, or the iteration
    /// budget runs out.  Steps run strictly back to back: the ladder never
    /// draws or maps ahead of a verdict.  `observer` answering
    /// [`Progress::Cancel`] stops the ladder at that boundary unless the
    /// boundary is already final.
    ///
    /// The paper's modified Hadoop keeps map and reduce tasks alive across
    /// sample expansions (§2.1): here the climb's first job runs in cluster
    /// mode and every later one in local mode ([`JobConf::local_mode`]), so
    /// only the first pays job and task start-up or reaches a remote
    /// transport.  Its reducers write their error to HDFS for the mappers to
    /// read (§3.3): here the stop rule reads the AES error directly.
    pub(crate) fn climb<L: Ladder>(
        &self,
        ladder: &L,
        climb: &mut Climb<L>,
        target_n: u64,
        observer: &mut StepObserver<'_, L::Estimate>,
    ) -> Result<()> {
        let cluster = self.dfs.cluster();
        let population = climb.population;
        let aes = AccuracyEstimationStage::new(self.config.sigma);
        let (mapper, reducer) = ladder.tasks();
        let mut target_n = target_n.max(1);
        let mut exhausted = false;

        while climb.iterations < self.config.max_iterations {
            climb.iterations += 1;
            let iterations = climb.iterations;
            // A node may have died during the previous iteration's charges:
            // write the loss off before expanding the sample.
            self.write_off_losses(&mut climb.fault_log);

            // ---- draw Δ + the step's job over the sample so far plus Δ -------
            let needed = target_n.saturating_sub(ladder.size(&climb.records, &climb.sample));
            let batch = draw_degrading(
                &self.dfs,
                &self.config,
                climb.sampler.as_mut(),
                needed as usize,
                &mut climb.fault_log,
            )?;
            exhausted |= needed > 0 && batch.is_empty();
            let input = InputSource::Memory(climb.records.iter().chain(&batch).cloned().collect());
            let mut conf = ladder
                .job(input, &climb.sample, &batch)
                .with_failure_policy(self.config.failure_policy)
                .with_parallelism(self.config.parallelism);
            // Every job after the climb's first runs in local mode.
            conf.local_mode = iterations > 1;
            let job = earl_mapreduce::run_job(&self.dfs, &conf, &mapper, &reducer)?;
            climb.fault_log.merge(&job.stats.fault_log);
            ladder.extend(&mut climb.sample, &batch);
            climb.records.extend(batch);

            // ---- AES ----------------------------------------------------------
            let sample_size = ladder.size(&climb.records, &climb.sample);
            target_n = (((sample_size as f64) * self.config.expansion_factor).ceil() as u64)
                .min(population);
            let (estimate, aes_work) =
                ladder.estimate(&mut climb.aes, &climb.sample, iterations)?;
            cluster.charge_reduce_cpu(Phase::AccuracyEstimation, aes_work, reducer.is_heavy());

            let (error, floor_met) = ladder.verdict(&climb.sample, &estimate);
            let fraction = climb.sampled_fraction();
            let cancel_requested =
                observer(iterations, &estimate, sample_size, fraction) == Progress::Cancel;
            climb.estimate = Some(estimate);

            // ---- verdict ------------------------------------------------------
            // The bound predicate is the AES's.  A boundary that is already
            // final (exact, bound met, exhausted) completes normally even if
            // the observer asked to cancel.
            climb.exact = sample_size >= population;
            let bound_met = floor_met && aes.meets_bound(error);
            let last_step = climb.exact || bound_met || exhausted;
            climb.cancelled = cancel_requested && !last_step;
            if last_step || climb.cancelled {
                break;
            }
        }

        // A death during the final iteration's charges still counts: write off
        // whatever it orphaned before closing the books.
        self.write_off_losses(&mut climb.fault_log);
        // Sweep events that fired during the run into the log (some fire via
        // implicit polls the job-level logs never see, e.g. during sampling).
        let all_events = cluster.failure_events();
        if let Some(fired) = all_events.get(climb.start.2..) {
            climb.fault_log.record_events(fired);
        }
        Ok(())
    }

    /// Runs `task` exactly over the full data set through the MapReduce engine
    /// — the "stock Hadoop" baseline of the paper's experiments.
    pub fn run_exact<T: EarlTask>(&self, path: impl Into<DfsPath>, task: &T) -> Result<EarlReport> {
        self.config.validate()?;
        let path = path.into();
        let status = self.dfs.status(path.clone())?;
        let population = status.num_records.unwrap_or(0);
        let cluster = self.dfs.cluster().clone();
        let start_time = cluster.elapsed();
        let start_bytes = cluster.metrics().snapshot().total_disk_bytes_read();

        let conf = JobConf::new(format!("exact-{}", task.name()), InputSource::Path(path))
            .with_failure_policy(self.config.failure_policy)
            .with_parallelism(self.config.parallelism);
        let mapper = TaskMapper::new(task);
        let reducer = TaskReducer::new(task);
        let result = earl_mapreduce::run_job(&self.dfs, &conf, &mapper, &reducer)?;
        let value = result
            .outputs
            .first()
            .copied()
            .ok_or(EarlError::NoUsableRecords)?;

        Ok(EarlReport {
            task: task.name().to_owned(),
            result: value,
            uncorrected_result: value,
            error_estimate: 0.0,
            target_sigma: self.config.sigma,
            ci_low: value,
            ci_high: value,
            sample_size: result.stats.map_input_records,
            population,
            sample_fraction: 1.0,
            bootstraps: 0,
            iterations: 1,
            exact: true,
            sim_time: cluster.elapsed() - start_time,
            bytes_read: cluster.metrics().snapshot().total_disk_bytes_read() - start_bytes,
            resample_work: None,
            fault_log: (!result.stats.fault_log.is_empty()).then(|| result.stats.fault_log.clone()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{MeanTask, MedianTask, SumTask};
    use earl_cluster::{Cluster, CostModel};
    use earl_dfs::DfsConfig;
    use earl_workload::{DatasetBuilder, DatasetSpec};

    fn dfs(nodes: u32) -> Dfs {
        let cluster = Cluster::builder()
            .nodes(nodes)
            .cost_model(CostModel::commodity_2012())
            .build()
            .unwrap();
        Dfs::new(
            cluster,
            DfsConfig {
                block_size: 1 << 16,
                replication: 2,
                io_chunk: 128,
            },
        )
        .unwrap()
    }

    fn build(dfs: &Dfs, records: u64, seed: u64) -> earl_workload::dataset::GeneratedDataset {
        DatasetBuilder::new(dfs.clone())
            .build("/data", &DatasetSpec::normal(records, 500.0, 100.0, seed))
            .unwrap()
    }

    #[test]
    fn approximate_mean_meets_the_bound_and_is_accurate() {
        let dfs = dfs(5);
        let ds = build(&dfs, 50_000, 1);
        let driver = EarlDriver::new(dfs, EarlConfig::default());
        let report = driver.run("/data", &MeanTask).unwrap();
        assert!(
            !report.exact,
            "50k records at σ=5% must not require exact execution"
        );
        assert!(report.meets_bound());
        assert!(
            report.sample_fraction < 0.25,
            "sample fraction {} should be small",
            report.sample_fraction
        );
        assert!(
            report.relative_error_vs(ds.true_mean) < 0.05,
            "result {} vs truth {}",
            report.result,
            ds.true_mean
        );
        assert!(report.bootstraps >= 5);
        assert!(report.sim_time > earl_cluster::SimDuration::ZERO);
        assert!(report.bytes_read > 0);
    }

    #[test]
    fn approximate_is_much_cheaper_than_exact() {
        let dfs = dfs(5);
        build(&dfs, 50_000, 2);
        let driver = EarlDriver::new(dfs.clone(), EarlConfig::default());

        let approx = driver.run("/data", &MeanTask).unwrap();
        let exact = driver.run_exact("/data", &MeanTask).unwrap();
        assert!(exact.exact);
        assert!(
            approx.bytes_read < exact.bytes_read / 2,
            "sampling must read far less: {} vs {}",
            approx.bytes_read,
            exact.bytes_read
        );
        // The answers agree to within the error bound.  (The *time* crossover —
        // EARL only wins on sufficiently large inputs, Fig. 5 — is exercised by
        // the integration tests and the fig5 experiment, not on this tiny file.)
        assert!((approx.result - exact.result).abs() / exact.result < 0.05);
    }

    #[test]
    fn tiny_dataset_falls_back_to_exact_execution() {
        let dfs = dfs(2);
        // High dispersion (cv = 0.8) so the SSABE-estimated B·n exceeds the
        // 300 available records and sampling cannot pay off.
        let ds = DatasetBuilder::new(dfs.clone())
            .build("/data", &DatasetSpec::normal(300, 500.0, 400.0, 3))
            .unwrap();
        let driver = EarlDriver::new(dfs, EarlConfig::default());
        let report = driver.run("/data", &MeanTask).unwrap();
        assert!(report.exact, "B·n ≥ N for a 300-record file");
        assert_eq!(report.sample_fraction, 1.0);
        assert!((report.result - ds.true_mean).abs() < 1e-9);
        assert_eq!(report.error_estimate, 0.0);
    }

    #[test]
    fn sum_task_is_corrected_to_population_scale() {
        let dfs = dfs(3);
        let ds = build(&dfs, 40_000, 4);
        let truth: f64 = ds.values.iter().sum();
        let driver = EarlDriver::new(dfs, EarlConfig::default());
        let report = driver.run("/data", &SumTask).unwrap();
        assert!(
            report.relative_error_vs(truth) < 0.08,
            "corrected sum {} vs truth {truth}",
            report.result
        );
        assert!(
            report.result > report.uncorrected_result,
            "sum must be scaled up by 1/p"
        );
    }

    #[test]
    fn median_works_with_and_without_delta_maintenance() {
        let dfs = dfs(3);
        let ds = build(&dfs, 30_000, 5);
        for delta in [true, false] {
            let config = EarlConfig {
                delta_maintenance: delta,
                ..EarlConfig::default()
            };
            let driver = EarlDriver::new(dfs.clone(), config);
            let report = driver.run("/data", &MedianTask).unwrap();
            assert!(report.meets_bound());
            assert!(
                report.relative_error_vs(ds.true_median) < 0.05,
                "median {} vs truth {} (delta={delta})",
                report.result,
                ds.true_median
            );
            assert_eq!(report.resample_work.is_some(), delta);
        }
    }

    #[test]
    fn tighter_bounds_need_bigger_samples() {
        let dfs = dfs(3);
        // High dispersion so that σ = 1% genuinely needs more than the pilot.
        DatasetBuilder::new(dfs.clone())
            .build("/data", &DatasetSpec::normal(60_000, 500.0, 400.0, 6))
            .unwrap();
        let loose = EarlDriver::new(dfs.clone(), EarlConfig::with_sigma(0.10))
            .run("/data", &MeanTask)
            .unwrap();
        let tight = EarlDriver::new(dfs, EarlConfig::with_sigma(0.01))
            .run("/data", &MeanTask)
            .unwrap();
        assert!(
            tight.sample_size > loose.sample_size,
            "σ=1% sample {} must exceed σ=10% sample {}",
            tight.sample_size,
            loose.sample_size
        );
    }

    #[test]
    fn post_map_sampling_also_works() {
        let dfs = dfs(3);
        let ds = build(&dfs, 20_000, 7);
        let config = EarlConfig {
            sampling: SamplingMethod::PostMap,
            ..EarlConfig::default()
        };
        let driver = EarlDriver::new(dfs, config);
        let report = driver.run("/data", &MeanTask).unwrap();
        assert!(report.meets_bound());
        assert!(report.relative_error_vs(ds.true_mean) < 0.05);
    }

    #[test]
    fn fixed_b_and_n_override_ssabe() {
        let dfs = dfs(3);
        build(&dfs, 20_000, 8);
        let config = EarlConfig {
            bootstraps: Some(12),
            sample_size: Some(1_000),
            ..EarlConfig::default()
        };
        let driver = EarlDriver::new(dfs, config);
        let report = driver.run("/data", &MeanTask).unwrap();
        assert_eq!(report.bootstraps, 12);
        assert!(report.sample_size >= 1_000);
    }

    #[test]
    fn overflowing_fixed_b_times_n_takes_the_exact_path() {
        let dfs = dfs(2);
        let ds = build(&dfs, 2_000, 8);
        // 2⁶³ · 2 wraps to 0, which would look worthwhile against any population.
        let config = EarlConfig {
            bootstraps: Some(usize::MAX / 2 + 1),
            sample_size: Some(2),
            ..EarlConfig::default()
        };
        let report = EarlDriver::new(dfs, config)
            .run("/data", &MeanTask)
            .unwrap();
        assert!(
            report.exact,
            "B·n overflows u64, so sampling cannot pay off"
        );
        assert!((report.result - ds.true_mean).abs() < 1e-9);
    }

    #[test]
    fn missing_file_and_unparsable_data_error() {
        let dfs = dfs(2);
        let driver = EarlDriver::new(dfs.clone(), EarlConfig::default());
        assert!(matches!(
            driver.run("/missing", &MeanTask),
            Err(EarlError::Dfs(_))
        ));
        dfs.write_lines("/text", (0..1000).map(|i| format!("word-{i}")))
            .unwrap();
        assert!(matches!(
            driver.run("/text", &MeanTask),
            Err(EarlError::NoUsableRecords)
        ));
        let invalid = EarlDriver::new(
            dfs,
            EarlConfig {
                sigma: 2.0,
                ..EarlConfig::default()
            },
        );
        assert!(matches!(
            invalid.run("/text", &MeanTask),
            Err(EarlError::InvalidConfig(_))
        ));
    }

    fn build_spread(dfs: &Dfs, records: u64, seed: u64) {
        DatasetBuilder::new(dfs.clone())
            .build("/data", &DatasetSpec::normal(records, 500.0, 400.0, seed))
            .unwrap();
    }

    /// A configuration that *must* expand through several iterations: the
    /// fixed starting sample (just above the pilot's 600 records) is far too
    /// small for σ at this dispersion, so the ladder doubles its way up —
    /// deterministically, at every thread count.
    fn multi_iteration_config() -> EarlConfig {
        EarlConfig {
            sigma: 0.02,
            bootstraps: Some(60),
            sample_size: Some(700),
            ..EarlConfig::default()
        }
    }

    #[test]
    fn noop_observer_is_bit_identical_to_run() {
        let make = || {
            let dfs = dfs(4);
            build_spread(&dfs, 60_000, 21);
            EarlDriver::new(dfs, multi_iteration_config())
        };
        let plain = make().run("/data", &MeanTask).unwrap();
        let observed = make()
            .run_with_progress("/data", &MeanTask, &mut |_| Progress::Continue)
            .unwrap();
        assert_eq!(plain, observed);
    }

    #[test]
    fn progress_updates_are_delivered_each_iteration_and_match_the_report() {
        let dfs = dfs(4);
        build_spread(&dfs, 60_000, 21);
        let driver = EarlDriver::new(dfs, multi_iteration_config());
        let mut updates: Vec<EarlUpdate> = Vec::new();
        let report = driver
            .run_with_progress("/data", &MeanTask, &mut |u| {
                updates.push(u);
                Progress::Continue
            })
            .unwrap();
        assert!(
            updates.len() >= 2,
            "multi-iteration workload must deliver ≥2 updates, got {}",
            updates.len()
        );
        assert_eq!(updates.len(), report.iterations, "one update per iteration");
        for (i, u) in updates.iter().enumerate() {
            assert_eq!(u.iteration, i + 1, "iterations are 1-based and monotone");
        }
        let last = updates.last().unwrap();
        assert_eq!(last.cv, report.error_estimate);
        assert_eq!(last.sample_size, report.sample_size);
        assert_eq!(last.sample_fraction, report.sample_fraction);
        assert_eq!(last.estimate, report.result);
        assert_eq!(last.ci_low, report.ci_low);
        assert_eq!(last.ci_high, report.ci_high);
    }

    #[test]
    fn cancel_at_the_first_boundary_returns_the_partial_report() {
        for boundary in [1usize, 2] {
            let dfs = dfs(4);
            build_spread(&dfs, 60_000, 21);
            // σ = 1 % keeps the ladder climbing past the second boundary.
            let config = EarlConfig {
                sigma: 0.01,
                ..multi_iteration_config()
            };
            let driver = EarlDriver::new(dfs, config);
            let mut seen = 0usize;
            let err = driver
                .run_with_progress("/data", &MeanTask, &mut |_| {
                    seen += 1;
                    if seen == boundary {
                        Progress::Cancel
                    } else {
                        Progress::Continue
                    }
                })
                .unwrap_err();
            assert_eq!(seen, boundary, "cancel stops the ladder at its boundary");
            match err {
                EarlError::Cancelled(report) => {
                    assert_eq!(report.iterations, boundary);
                    assert!(!report.exact);
                    assert!(report.sample_size > 0);
                    assert!(
                        report.error_estimate > 0.01,
                        "a run worth cancelling had not met its bound yet"
                    );
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }

    /// `NaN` parses as a value, so a median job can meet NaN records: the
    /// quantile of such a sample is NaN, and the run returns instead of
    /// panicking in a sort that cannot order a NaN.
    #[test]
    fn median_over_nan_lines_returns_without_panicking() {
        let dfs = dfs(3);
        dfs.write_lines(
            "/nan",
            (0..20_000u64).map(|i| {
                if i % 7 == 0 {
                    "NaN".to_owned()
                } else {
                    format!("{}", (i * 7_919) % 1_000)
                }
            }),
        )
        .unwrap();
        for delta in [true, false] {
            let config = EarlConfig {
                delta_maintenance: delta,
                ..EarlConfig::default()
            };
            let outcome = EarlDriver::new(dfs.clone(), config).run("/nan", &MedianTask);
            let report = match outcome {
                Ok(report) => report,
                Err(EarlError::AccuracyNotReached(report)) => *report,
                Err(other) => panic!("delta={delta}: unexpected error {other:?}"),
            };
            assert!(report.result.is_nan(), "delta={delta}: {}", report.result);
        }
    }

    #[test]
    fn reports_are_deterministic_for_a_fixed_seed() {
        let make = || {
            let dfs = dfs(3);
            build(&dfs, 20_000, 11);
            EarlDriver::new(dfs, EarlConfig::default())
                .run("/data", &MeanTask)
                .unwrap()
        };
        let a = make();
        let b = make();
        assert_eq!(a.result, b.result);
        assert_eq!(a.sample_size, b.sample_size);
        assert_eq!(a.error_estimate, b.error_estimate);
    }

    /// A non-local transport that counts the map and reduce calls it gets
    /// and refuses each one, so every task computes in-process.
    #[derive(Debug, Default)]
    struct RefusingTransport {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl TaskTransport for RefusingTransport {
        fn is_local(&self) -> bool {
            false
        }

        fn remote_map(
            &self,
            _request: &earl_mapreduce::RemoteMapRequest<'_>,
        ) -> earl_mapreduce::Result<earl_mapreduce::RemoteMapOutcome> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Err(MrError::Transport("refused".into()))
        }

        fn remote_reduce(
            &self,
            _request: &earl_mapreduce::RemoteReduceRequest<'_>,
        ) -> earl_mapreduce::Result<earl_mapreduce::RemoteReduceOutcome> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Err(MrError::Transport("refused".into()))
        }
    }

    /// The ladder's wire contract (§2.1): only step 1's job runs in cluster
    /// mode, so only its one map task and one reduce partition reach a
    /// remote transport.  Every later step runs in local mode and stays
    /// in-process.
    #[test]
    fn only_the_first_ladder_step_reaches_the_wire() {
        let run = |transport: Arc<dyn TaskTransport>| {
            let dfs = dfs(4);
            build_spread(&dfs, 60_000, 21);
            // σ = 1 % keeps the ladder climbing for several steps.
            let config = EarlConfig {
                sigma: 0.01,
                ..multi_iteration_config()
            };
            EarlDriver::new(dfs, config)
                .with_transport(transport)
                .run("/data", &MeanTask)
                .unwrap()
        };
        let in_process = run(default_transport());
        let transport = Arc::new(RefusingTransport::default());
        let remote = run(transport.clone());
        assert!(
            remote.iterations >= 3,
            "the ladder climbs at least 3 steps, got {}",
            remote.iterations
        );
        assert_eq!(
            transport.calls.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "step 1's map and reduce, nothing after"
        );
        assert_eq!(remote, in_process);
    }
}
