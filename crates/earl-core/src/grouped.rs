//! Grouped per-key EARL workloads: per-group aggregates with per-group error
//! bounds.
//!
//! The scalar [`EarlTask`] interface computes **one**
//! statistic over all extracted values.  Real analytics queries group first
//! (`SELECT key, AVG(value) … GROUP BY key`); this module opens that workload
//! for EARL:
//!
//! * [`GroupedAggregate`] extracts `(key, value)` pairs from `key<TAB>value`
//!   lines and evaluates one of [`GroupedStat`] per group;
//! * the MapReduce job runs with **string keys over multiple reducers**, so the
//!   map-side streaming shuffle genuinely routes groups to shards;
//! * the accuracy-estimation stage runs **one bootstrap per group**, each on
//!   its own deterministic RNG stream — [`group_seed`] derives the stream from
//!   `(config.seed, key)` alone, so a group's replicate sequence is identical
//!   no matter which other groups exist, how the sample grew, or how many
//!   worker threads run (pin: `tests/grouped_workloads.rs`).  The groups
//!   run in parallel, each group's bootstrap on one thread, in key-order
//!   runs of about equal work; a group holding more than one worker's share
//!   of the stage forks over its own replicates instead
//!   ([`grouped_accuracy`]);
//! * linear per-group statistics (all four of [`GroupedStat`]) run on the
//!   resample-free count-based kernel under [`BootstrapKernel::Auto`], exactly
//!   like their scalar counterparts.
//!
//! A grouped run climbs the scalar driver's ladder — sample → grouped job →
//! per-group AES → expand — until **every** group's cv meets σ.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use earl_bootstrap::bootstrap::{
    bootstrap_distribution, BootstrapConfig, BootstrapResult, ResolvedKernel,
};
use earl_bootstrap::parallel::{indexed_map, workers_for};
use earl_bootstrap::rng::derive_seed;
use earl_bootstrap::BootstrapKernel;
use earl_cluster::SimDuration;
use earl_dfs::DfsPath;
use earl_mapreduce::{InputSource, JobConf, MapContext, Mapper, ReduceContext, Reducer};
use serde::{Deserialize, Serialize};

use crate::aes::aes_work;
use crate::config::EarlConfig;
use crate::driver::{EarlDriver, Ladder};
use crate::error::EarlError;
use crate::progress::Progress;
use crate::task::{EarlTask, TaskEstimator};
use crate::tasks::{CountTask, MeanTask, SumTask, WeightedMeanTask};
use crate::Result;

/// Sub-seed stream of the grouped accuracy-estimation stage (disjoint from the
/// scalar driver's SSABE/delta/fresh streams).
const GROUPED_STREAM: u64 = 32;

/// Bootstraps per group when neither the config nor SSABE supplies a count.
/// (SSABE's `B`-search targets one scalar statistic; running it per group
/// would cost more than the bootstraps it saves, so the grouped driver uses a
/// fixed default instead.)
const DEFAULT_GROUPED_BOOTSTRAPS: usize = 100;

/// A group observed with fewer records than this never counts as converged,
/// whatever its bootstrap cv says: a handful of (or identical) values
/// bootstraps to cv ≈ 0 while the real estimation error is unbounded, so the
/// loop keeps expanding until every observed group clears the floor (or the
/// data is exhausted / the run degenerates to exact).
pub const MIN_GROUP_SAMPLE: usize = 30;

/// The per-group statistic of a [`GroupedAggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupedStat {
    /// Per-group arithmetic mean (scale-free, no correction).
    Mean,
    /// Per-group sum, corrected by `1/p`.
    Sum,
    /// Per-group record count, corrected by `1/p`.
    Count,
    /// Per-group weighted mean `Σwx / Σw` over `key<TAB>value<TAB>weight`
    /// lines (scale-free: both sums shrink by the same `p`).  A k-ary linear
    /// statistic — its per-group bootstraps run resample-free under `Auto`,
    /// and every kernel resamples whole `(value, weight)` records.
    WeightedMean,
}

/// The deterministic RNG seed of one group's accuracy-estimation bootstrap:
/// a function of `(seed, key)` only.  FNV-1a folds the key bytes into the
/// `GROUPED_STREAM` sub-seed space, so every group gets an independent
/// `(group_seed, replicate)` stream — the same stream a standalone
/// [`bootstrap_distribution`] call over that group's values would consume.
pub fn group_seed(seed: u64, key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    derive_seed(derive_seed(seed, GROUPED_STREAM), h)
}

/// A grouped per-key aggregate workload: `SELECT key, stat(value) GROUP BY
/// key` over `key<TAB>value` lines, with a bootstrap error bound per group.
#[derive(Debug, Clone, Copy)]
pub struct GroupedAggregate {
    stat: GroupedStat,
}

impl GroupedAggregate {
    /// A grouped aggregate computing `stat` per group.
    pub fn new(stat: GroupedStat) -> Self {
        Self { stat }
    }

    /// Per-group mean.
    pub fn mean() -> Self {
        Self::new(GroupedStat::Mean)
    }

    /// Per-group sum.
    pub fn sum() -> Self {
        Self::new(GroupedStat::Sum)
    }

    /// Per-group count.
    pub fn count() -> Self {
        Self::new(GroupedStat::Count)
    }

    /// Per-group weighted mean over `key<TAB>value<TAB>weight` lines.
    pub fn weighted_mean() -> Self {
        Self::new(GroupedStat::WeightedMean)
    }

    /// The statistic computed per group.
    pub fn stat(&self) -> GroupedStat {
        self.stat
    }

    /// Task name used in reports and job names.
    pub fn name(&self) -> &'static str {
        match self.stat {
            GroupedStat::Mean => "grouped-mean",
            GroupedStat::Sum => "grouped-sum",
            GroupedStat::Count => "grouped-count",
            GroupedStat::WeightedMean => "grouped-weighted-mean",
        }
    }

    /// Values per record in a group's flat value buffer: 1 for the scalar
    /// statistics, 2 (`value`, `weight` interleaved) for the weighted mean.
    pub fn value_stride(&self) -> usize {
        match self.stat {
            GroupedStat::WeightedMean => 2,
            _ => 1,
        }
    }

    /// Parses one `key<TAB>value` line into its `(key, value)` pair, or `None`
    /// for lines without a key or (except for `Count`) without a parsable
    /// numeric value.  `Count` only needs the key: every keyed record counts
    /// as `1.0`.  For the weighted mean (a two-column record) this returns the
    /// *value* column only — use [`extract_record`](Self::extract_record),
    /// which every engine path does, to get the full record.
    pub fn extract(&self, line: &str) -> Option<(String, f64)> {
        let (key, record) = self.extract_record(line)?;
        Some((key, record.values()[0]))
    }

    /// Parses one line into its key and full record (`value_stride()`
    /// components, all-or-nothing).  `key<TAB>value` for the scalar
    /// statistics, `key<TAB>value<TAB>weight` for the weighted mean.
    pub fn extract_record(&self, line: &str) -> Option<(String, GroupedRecord)> {
        let (key, record) = self.parse_record(line)?;
        Some((key.to_owned(), record))
    }

    /// [`extract_record`](Self::extract_record) with the key borrowed from
    /// `line`, for callers that allocate a key only when they keep it.
    fn parse_record<'l>(&self, line: &'l str) -> Option<(&'l str, GroupedRecord)> {
        let (key, rest) = line.split_once('\t')?;
        if key.is_empty() {
            return None;
        }
        let record = match self.stat {
            GroupedStat::Count => GroupedRecord::scalar(1.0),
            GroupedStat::WeightedMean => {
                let mut fields = rest.rsplit('\t');
                let weight: f64 = fields.next()?.trim().parse().ok()?;
                let value: f64 = fields.next()?.trim().parse().ok()?;
                GroupedRecord::pair(value, weight)
            }
            _ => GroupedRecord::scalar(rest.rsplit('\t').next()?.trim().parse().ok()?),
        };
        Some((key, record))
    }

    /// Evaluates the statistic over one group's (flat, possibly interleaved)
    /// values.
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        match self.stat {
            GroupedStat::Mean => MeanTask.evaluate(values),
            GroupedStat::Sum => SumTask.evaluate(values),
            GroupedStat::Count => CountTask.evaluate(values),
            GroupedStat::WeightedMean => WeightedMeanTask.evaluate(values),
        }
    }

    /// Corrects a per-group result computed from a fraction `p` of the data —
    /// the same `correct()` semantics as the scalar tasks (mean and weighted
    /// mean are scale-free, sum and count scale by `1/p`).
    pub fn correct(&self, result: f64, p: f64) -> f64 {
        match self.stat {
            GroupedStat::Mean => MeanTask.correct(result, p),
            GroupedStat::Sum => SumTask.correct(result, p),
            GroupedStat::Count => CountTask.correct(result, p),
            GroupedStat::WeightedMean => WeightedMeanTask.correct(result, p),
        }
    }

    /// Runs the statistic's bootstrap over one group's values.  All four
    /// statistics declare a (unary or k-ary) linear form, so
    /// `BootstrapKernel::Auto` resolves them to the resample-free count-based
    /// kernel.
    pub fn bootstrap_group(
        &self,
        seed: u64,
        values: &[f64],
        config: &BootstrapConfig,
    ) -> Result<BootstrapResult> {
        match self.stat {
            GroupedStat::Mean => {
                bootstrap_distribution(seed, values, &TaskEstimator::new(&MeanTask), config)
            }
            GroupedStat::Sum => {
                bootstrap_distribution(seed, values, &TaskEstimator::new(&SumTask), config)
            }
            GroupedStat::Count => {
                bootstrap_distribution(seed, values, &TaskEstimator::new(&CountTask), config)
            }
            GroupedStat::WeightedMean => {
                bootstrap_distribution(seed, values, &TaskEstimator::new(&WeightedMeanTask), config)
            }
        }
        .map_err(EarlError::Stats)
    }

    /// The kernel the statistic's AES resolves to under `kernel` — used for
    /// deterministic work accounting (all four statistics resolve `Auto` to
    /// `CountBased`).
    pub fn resolved_kernel(&self, kernel: BootstrapKernel) -> ResolvedKernel {
        match self.stat {
            GroupedStat::Mean => kernel.resolve_for(&TaskEstimator::new(&MeanTask)),
            GroupedStat::Sum => kernel.resolve_for(&TaskEstimator::new(&SumTask)),
            GroupedStat::Count => kernel.resolve_for(&TaskEstimator::new(&CountTask)),
            GroupedStat::WeightedMean => kernel.resolve_for(&TaskEstimator::new(&WeightedMeanTask)),
        }
    }
}

/// One extracted grouped record: up to two value components (the weighted
/// mean's `(value, weight)` pair), pushed into the group's flat buffer in
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupedRecord {
    buf: [f64; 2],
    len: usize,
}

impl GroupedRecord {
    fn scalar(value: f64) -> Self {
        Self {
            buf: [value, 0.0],
            len: 1,
        }
    }

    fn pair(value: f64, weight: f64) -> Self {
        Self {
            buf: [value, weight],
            len: 2,
        }
    }

    /// The record's components, in emission order.
    pub fn values(&self) -> &[f64] {
        &self.buf[..self.len]
    }
}

/// A [`Mapper`] emitting `(key, value)` pairs for a [`GroupedAggregate`] —
/// string keys over multiple reducers, the shape the map-side streaming
/// shuffle shards.
pub struct GroupedTaskMapper<'a> {
    agg: &'a GroupedAggregate,
}

impl<'a> GroupedTaskMapper<'a> {
    /// Wraps an aggregate.
    pub fn new(agg: &'a GroupedAggregate) -> Self {
        Self { agg }
    }
}

impl Mapper for GroupedTaskMapper<'_> {
    type OutKey = String;
    type OutValue = f64;
    fn map(&self, _offset: u64, line: &str, ctx: &mut MapContext<String, f64>) {
        if let Some((key, record)) = self.agg.extract_record(line) {
            // Multi-column records emit every component in order under the
            // same key; per-key emission order survives the shuffle, so the
            // reducer sees whole records back to back.
            let components = record.values();
            for value in &components[..components.len() - 1] {
                ctx.emit(key.clone(), *value);
            }
            ctx.emit(key, components[components.len() - 1]);
        }
    }
}

/// A [`Reducer`] evaluating a [`GroupedAggregate`] per key, emitting
/// `(key, statistic)` output records.
pub struct GroupedTaskReducer<'a> {
    agg: &'a GroupedAggregate,
}

impl<'a> GroupedTaskReducer<'a> {
    /// Wraps an aggregate.
    pub fn new(agg: &'a GroupedAggregate) -> Self {
        Self { agg }
    }
}

impl Reducer for GroupedTaskReducer<'_> {
    type InKey = String;
    type InValue = f64;
    type Output = (String, f64);
    fn reduce(&self, key: &String, values: &[f64], ctx: &mut ReduceContext<(String, f64)>) {
        ctx.emit((key.clone(), self.agg.evaluate(values)));
    }
}

/// Runs one bootstrap per group over `groups` (sorted key order), each on its
/// own [`group_seed`] RNG stream.  This is **the** per-group accuracy stage
/// the grouped driver executes — exposed so the equivalence suite can replay
/// any single group through a standalone [`bootstrap_distribution`] call and
/// demand bitwise-identical results.
///
/// The stage's work `Σ n_g·B` sets the worker count (`workers_for`).  A group
/// holding more than one worker's share of it forks over its own replicates,
/// one such group at a time; the other groups run side by side in
/// contiguous key-order runs of about equal work, each group's bootstrap on
/// one thread.  So like-sized groups, as many as the workers or more, are
/// spread over the workers, while a dominant group still gets all of them.
/// A group's replicates depend only on its stream, so every split gives the
/// same bits.  Results come back in key order, and an error is the first in
/// key order.
pub fn grouped_accuracy(
    seed: u64,
    groups: &BTreeMap<String, Vec<f64>>,
    agg: &GroupedAggregate,
    config: &BootstrapConfig,
) -> Result<Vec<(String, BootstrapResult)>> {
    let groups: Vec<_> = groups.iter().collect();
    let work_of: Vec<usize> = groups
        .iter()
        .map(|(_, values)| values.len().saturating_mul(config.num_resamples))
        .collect();
    let work = work_of.iter().fold(0usize, |sum, &w| sum.saturating_add(w));
    let share = work.div_ceil(workers_for(work, config.parallelism));
    let bootstrap = |i: usize, config: &BootstrapConfig| {
        let (key, values) = groups[i];
        agg.bootstrap_group(group_seed(seed, key), values, config)
    };

    // A group past one worker's share forks over its replicates on its own.
    let mut results: Vec<Option<Result<BootstrapResult>>> = work_of
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let forks = w > share && workers_for(w, config.parallelism) > 1;
            forks.then(|| bootstrap(i, config))
        })
        .collect();
    // The others run side by side, one thread per group.
    let rest: Vec<usize> = (0..groups.len())
        .filter(|&i| results[i].is_none())
        .collect();
    let rest_work: Vec<usize> = rest.iter().map(|&i| work_of[i]).collect();
    let rest_total = rest_work
        .iter()
        .fold(0usize, |sum, &w| sum.saturating_add(w));
    let runs = balanced_runs(&rest_work, workers_for(rest_total, config.parallelism));
    let single = config.with_parallelism(Some(1));
    let computed = indexed_map(
        runs.len(),
        runs.len(),
        || (),
        |run, ()| {
            runs[run]
                .clone()
                .map(|j| bootstrap(rest[j], &single))
                .collect::<Vec<_>>()
        },
    );
    for (&i, result) in rest.iter().zip(computed.into_iter().flatten()) {
        results[i] = Some(result);
    }
    groups
        .into_iter()
        .zip(results)
        .map(|((key, _), result)| {
            let result = result.expect("every group was bootstrapped")?;
            Ok((key.clone(), result))
        })
        .collect()
}

/// Cuts `weights` into at most `parts` contiguous, non-empty index ranges of
/// about equal total weight: each item goes to the part of the whole that
/// the midpoint of its own weight falls in.
fn balanced_runs(weights: &[usize], parts: usize) -> Vec<Range<usize>> {
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let parts = parts.max(1) as u128;
    let mut runs: Vec<(u128, Range<usize>)> = Vec::new();
    let mut before = 0u128;
    for (i, &w) in weights.iter().enumerate() {
        let w = w as u128;
        let part = match total {
            0 => 0,
            _ => ((2 * before + w) * parts / (2 * total)).min(parts - 1),
        };
        before += w;
        match runs.last_mut() {
            Some((last, run)) if *last == part => run.end = i + 1,
            _ => runs.push((part, i..i + 1)),
        }
    }
    runs.into_iter().map(|(_, run)| run).collect()
}

/// The report of one group inside a [`GroupedEarlReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupReport {
    /// The group key.
    pub key: String,
    /// The corrected per-group result.
    pub result: f64,
    /// The result before `correct()` was applied.
    pub uncorrected_result: f64,
    /// cv of the group's bootstrap result distribution (0 when exact).
    pub error_estimate: f64,
    /// 95 % percentile confidence interval (corrected).
    pub ci_low: f64,
    /// Upper end of the interval.
    pub ci_high: f64,
    /// Sampled records contributing to this group.
    pub sample_size: u64,
}

/// The report of a grouped EARL run: one entry per group plus the run-level
/// accounting of the scalar [`EarlReport`](crate::report::EarlReport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupedEarlReport {
    /// Name of the grouped task.
    pub task: String,
    /// Per-group results in sorted key order.
    pub groups: Vec<GroupReport>,
    /// The error bound σ each group must satisfy.
    pub target_sigma: f64,
    /// Total records in the final sample (across all groups).
    pub sample_size: u64,
    /// Records in the full data set.
    pub population: u64,
    /// `drawn / population` — the `p` used for result correction.
    pub sample_fraction: f64,
    /// Bootstraps per group.
    pub bootstraps: usize,
    /// Sample-expansion iterations performed.
    pub iterations: usize,
    /// Whether the run degenerated to exact evaluation of the whole data set.
    pub exact: bool,
    /// Simulated processing time of the whole run.
    pub sim_time: SimDuration,
    /// Bytes read from the DFS during the run.
    pub bytes_read: u64,
}

impl GroupedEarlReport {
    /// Whether **every** group's error estimate satisfies the bound — with at
    /// least [`MIN_GROUP_SAMPLE`] records behind it (a near-empty group's
    /// cv ≈ 0 is an artifact, not accuracy).  Exact runs trivially qualify.
    pub fn meets_bound(&self) -> bool {
        self.exact
            || self.groups.iter().all(|g| {
                g.sample_size >= MIN_GROUP_SAMPLE as u64
                    && g.error_estimate.is_finite()
                    && g.error_estimate <= self.target_sigma + 1e-12
            })
    }

    /// The report of one group, if present.
    pub fn group(&self, key: &str) -> Option<&GroupReport> {
        self.groups.iter().find(|g| g.key == key)
    }

    /// The largest per-group cv (`NAN`-free groups only; `INFINITY` if any
    /// group's cv is not finite).
    pub fn worst_cv(&self) -> f64 {
        worst_cv(self.groups.iter().map(|g| g.error_estimate))
    }
}

impl std::fmt::Display for GroupedEarlReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "EARL grouped report for `{}`: {} group(s), σ = {:.4}{}",
            self.task,
            self.groups.len(),
            self.target_sigma,
            if self.exact { " (exact)" } else { "" }
        )?;
        for g in &self.groups {
            writeln!(
                f,
                "  {:<12} {:>14.6}  cv {:.4}  95% CI [{:.4}, {:.4}]  n = {}",
                g.key, g.result, g.error_estimate, g.ci_low, g.ci_high, g.sample_size
            )?;
        }
        writeln!(
            f,
            "  sample {} of {} records ({:.3}%) in {} iteration(s), B = {} per group",
            self.sample_size,
            self.population,
            self.sample_fraction * 100.0,
            self.iterations,
            self.bootstraps
        )?;
        writeln!(f, "  simulated time: {}", self.sim_time)
    }
}

/// The grouped ladder: per-key flat value buffers, one bootstrap per group.
struct GroupedLadder<'a> {
    agg: &'a GroupedAggregate,
    config: &'a EarlConfig,
    bootstraps: usize,
}

impl<'a> Ladder for GroupedLadder<'a> {
    type Sample = BTreeMap<String, Vec<f64>>;
    type Estimate = Vec<(String, BootstrapResult)>;
    type AesState = ();
    type Map = GroupedTaskMapper<'a>;
    type Reduce = GroupedTaskReducer<'a>;

    /// Appends each parsed record to its group; a key is allocated only for
    /// a group the sample has not seen yet.
    fn extend(&self, groups: &mut Self::Sample, batch: &[(u64, String)]) {
        for (_, line) in batch {
            if let Some((key, record)) = self.agg.parse_record(line) {
                match groups.get_mut(key) {
                    Some(values) => values.extend(record.values()),
                    None => {
                        groups.insert(key.to_owned(), record.values().to_vec());
                    }
                }
            }
        }
    }

    /// Drawn records, keyed or not.
    fn size(&self, records: &[(u64, String)], groups: &Self::Sample) -> u64 {
        if groups.is_empty() {
            0
        } else {
            records.len() as u64
        }
    }

    /// String keys over up to eight reducers, so the map-side streaming
    /// shuffle routes each group's pairs to its shard.  The count depends only
    /// on the data — the committed keys plus the batch's new ones, counted
    /// before the map phase shards them — never on the thread count.
    fn job(&self, input: InputSource, groups: &Self::Sample, batch: &[(u64, String)]) -> JobConf {
        let new_keys: BTreeSet<&str> = batch
            .iter()
            .filter(|(_, line)| {
                // A committed key needs no parse: it cannot be new.
                line.split_once('\t')
                    .is_some_and(|(key, _)| !groups.contains_key(key))
            })
            .filter_map(|(_, line)| self.agg.parse_record(line))
            .map(|(key, _)| key)
            .collect();
        JobConf::new(format!("earl-{}", self.agg.name()), input)
            .with_reducers((groups.len() + new_keys.len()).clamp(1, 8))
    }

    fn tasks(&self) -> (Self::Map, Self::Reduce) {
        (
            GroupedTaskMapper::new(self.agg),
            GroupedTaskReducer::new(self.agg),
        )
    }

    fn estimate(
        &self,
        _: &mut (),
        groups: &Self::Sample,
        _iteration: usize,
    ) -> Result<(Self::Estimate, u64)> {
        let (config, stride) = (self.config, self.agg.value_stride());
        let resolved = self.agg.resolved_kernel(config.bootstrap_kernel);
        let work = groups
            .values()
            .map(|values| aes_work(resolved, values.len() / stride, self.bootstraps))
            .sum();
        let resamples = BootstrapConfig::with_resamples(self.bootstraps)
            .with_parallelism(config.parallelism)
            .with_kernel(config.bootstrap_kernel);
        Ok((
            grouped_accuracy(config.seed, groups, self.agg, &resamples)?,
            work,
        ))
    }

    /// The worst group's cv — the bound holds for every group iff it holds
    /// for the worst — and the sample floor: tiny groups report cv ≈ 0
    /// (identical replicates) while their real error is unbounded.
    fn verdict(&self, groups: &Self::Sample, estimate: &Self::Estimate) -> (f64, bool) {
        let stride = self.agg.value_stride();
        (
            worst_cv(estimate.iter().map(|(_, b)| b.cv)),
            groups
                .values()
                .all(|values| values.len() / stride >= MIN_GROUP_SAMPLE),
        )
    }
}

/// The largest of `cvs`, a non-finite cv counting as `INFINITY`.
fn worst_cv(cvs: impl Iterator<Item = f64>) -> f64 {
    cvs.map(|cv| if cv.is_finite() { cv } else { f64::INFINITY })
        .fold(0.0, f64::max)
}

impl EarlDriver {
    /// Runs a grouped per-key aggregate over `path` with early approximation:
    /// the sample expands until **every** group's bootstrap cv meets σ.
    ///
    /// It climbs the scalar [`run`](Self::run)'s ladder — same pilot, draws,
    /// job per step, stopping rule and §3.4 degrade path.  What differs: `B`
    /// comes from `config.bootstraps` (default 100 per group — SSABE's scalar
    /// `B`-search does not transfer to many groups), the accuracy stage runs
    /// one bootstrap per group, each on the deterministic [`group_seed`]
    /// stream — the groups in parallel across `config.parallelism` workers,
    /// a group past one worker's share of the work forking over its own
    /// replicates instead — and sample sizes
    /// count drawn records.  Returns
    /// [`EarlError::GroupedAccuracyNotReached`] carrying the partial report
    /// when some group cannot meet the bound within the iteration budget.
    ///
    /// Caveats inherent to sampling by record: the report covers **observed**
    /// groups only (a key never drawn cannot appear), and a group counts as
    /// converged only once at least [`MIN_GROUP_SAMPLE`] of its records are in
    /// the sample — a one-record group bootstraps to cv = 0 while its real
    /// error is unbounded.
    pub fn run_grouped(
        &self,
        path: impl Into<DfsPath>,
        agg: &GroupedAggregate,
    ) -> Result<GroupedEarlReport> {
        let config = self.config();
        let bootstraps = config.bootstraps.unwrap_or(DEFAULT_GROUPED_BOOTSTRAPS);
        let ladder = GroupedLadder {
            agg,
            config,
            bootstraps,
        };
        let mut climb = self.start(&path.into(), &ladder)?;
        let target_n = config
            .sample_size
            .unwrap_or(climb.records.len() as u64)
            .min(climb.population);
        self.climb(&ladder, &mut climb, target_n, &mut |_, _, _, _| {
            Progress::Continue
        })?;

        let (exact, p, stride) = (climb.exact, climb.sampled_fraction(), agg.value_stride());
        // An exact run reports each group's plain statistic, without spread.
        let correct = |x: f64| if exact { x } else { agg.correct(x, p) };
        let mut groups = Vec::new();
        for (key, bootstrap) in climb.estimate.iter().flatten() {
            let point = bootstrap.point_estimate;
            // A weighted group whose weights sum to zero has no defined
            // statistic: a typed error, not a NaN the caller would have to
            // sniff out (the bound predicate would wave an exact run's NaN
            // through).
            if agg.stat() == GroupedStat::WeightedMean && !point.is_finite() {
                return Err(EarlError::DegenerateGroupWeight(key.clone()));
            }
            let (lo, hi) = if exact {
                (point, point)
            } else {
                bootstrap.percentile_ci(0.05)
            };
            groups.push(GroupReport {
                key: key.clone(),
                result: correct(point),
                uncorrected_result: point,
                error_estimate: if exact { 0.0 } else { bootstrap.cv },
                ci_low: correct(lo),
                ci_high: correct(hi),
                sample_size: climb.sample[key].len() as u64 / stride as u64,
            });
        }
        let (sim_time, bytes_read) = climb.charges(self.dfs());
        let report = GroupedEarlReport {
            task: agg.name().to_owned(),
            groups,
            target_sigma: config.sigma,
            sample_size: climb.records.len() as u64,
            population: climb.population,
            sample_fraction: if exact { 1.0 } else { p },
            bootstraps,
            iterations: climb.iterations,
            exact,
            sim_time,
            bytes_read,
        };
        if report.meets_bound() {
            Ok(report)
        } else {
            Err(EarlError::GroupedAccuracyNotReached(Box::new(report)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_cluster::{Cluster, NodeId};
    use earl_dfs::{Dfs, DfsConfig};
    use earl_mapreduce::{run_job, FailurePolicy};
    use earl_workload::{DatasetBuilder, GroupedSpec};

    #[test]
    fn extract_parses_keyed_lines() {
        let mean = GroupedAggregate::mean();
        assert_eq!(mean.extract("a\t2.5"), Some(("a".into(), 2.5)));
        assert_eq!(mean.extract("a\tx\t-1"), Some(("a".into(), -1.0)));
        assert_eq!(mean.extract("noseparator"), None);
        assert_eq!(mean.extract("\t3.0"), None, "empty key is unusable");
        assert_eq!(mean.extract("a\tnot-a-number"), None);
        let count = GroupedAggregate::count();
        assert_eq!(count.extract("a\twhatever"), Some(("a".into(), 1.0)));
    }

    #[test]
    fn evaluate_and_correct_dispatch_to_the_scalar_tasks() {
        let values = [1.0, 2.0, 3.0];
        assert_eq!(GroupedAggregate::mean().evaluate(&values), 2.0);
        assert_eq!(GroupedAggregate::sum().evaluate(&values), 6.0);
        assert_eq!(GroupedAggregate::count().evaluate(&values), 3.0);
        assert_eq!(GroupedAggregate::mean().correct(2.0, 0.1), 2.0);
        assert_eq!(GroupedAggregate::sum().correct(6.0, 0.1), 60.0);
        assert_eq!(GroupedAggregate::count().correct(3.0, 0.5), 6.0);
    }

    #[test]
    fn all_grouped_stats_resolve_auto_to_count_based() {
        for agg in [
            GroupedAggregate::mean(),
            GroupedAggregate::sum(),
            GroupedAggregate::count(),
        ] {
            assert_eq!(
                agg.resolved_kernel(BootstrapKernel::Auto),
                ResolvedKernel::CountBased,
                "{} must run resample-free under Auto",
                agg.name()
            );
        }
    }

    #[test]
    fn weighted_mean_extracts_value_weight_records() {
        let wm = GroupedAggregate::weighted_mean();
        assert_eq!(wm.value_stride(), 2);
        let (key, record) = wm.extract_record("a\t10.0\t2.0").unwrap();
        assert_eq!(key, "a");
        assert_eq!(record.values(), &[10.0, 2.0]);
        // Missing weight column → no record at all.
        assert_eq!(wm.extract_record("a\t10.0"), None);
        assert_eq!(wm.extract_record("a\tx\t2.0"), None);
        assert_eq!(wm.extract_record("\t1\t2"), None, "empty key is unusable");
        // Scalar extract surfaces the value column for compatibility.
        assert_eq!(wm.extract("a\t10.0\t2.0"), Some(("a".into(), 10.0)));
        // Scalar stats keep their stride and extraction unchanged.
        assert_eq!(GroupedAggregate::mean().value_stride(), 1);
        let (_, rec) = GroupedAggregate::mean().extract_record("a\t2.5").unwrap();
        assert_eq!(rec.values(), &[2.5]);
    }

    #[test]
    fn weighted_mean_evaluates_and_corrects() {
        let wm = GroupedAggregate::weighted_mean();
        // (10, w1), (20, w3): (10 + 60) / 4 = 17.5.
        let interleaved = [10.0, 1.0, 20.0, 3.0];
        assert_eq!(wm.evaluate(&interleaved), 17.5);
        assert_eq!(
            wm.correct(17.5, 0.01),
            17.5,
            "ratio statistics are scale-free"
        );
        assert!(
            wm.evaluate(&[5.0, 0.0]).is_nan(),
            "zero weight sum is undefined"
        );
        assert_eq!(
            wm.resolved_kernel(BootstrapKernel::Auto),
            ResolvedKernel::CountBased,
            "weighted mean must run resample-free under Auto"
        );
    }

    #[test]
    fn group_seed_is_a_pure_function_of_seed_and_key() {
        assert_eq!(group_seed(7, "alpha"), group_seed(7, "alpha"));
        assert_ne!(group_seed(7, "alpha"), group_seed(7, "beta"));
        assert_ne!(group_seed(7, "alpha"), group_seed(8, "alpha"));
    }

    #[test]
    fn grouped_accuracy_uses_one_stream_per_group() {
        let mut groups = BTreeMap::new();
        groups.insert("a".to_owned(), (1..=200).map(f64::from).collect::<Vec<_>>());
        groups.insert("b".to_owned(), (1..=300).map(f64::from).collect::<Vec<_>>());
        let agg = GroupedAggregate::mean();
        let cfg = BootstrapConfig::with_resamples(50);
        let all = grouped_accuracy(9, &groups, &agg, &cfg).unwrap();
        assert_eq!(all.len(), 2);
        // Each group reproduces bitwise as a standalone bootstrap on its own
        // (seed, replicate) stream — independent of the other groups.
        for (key, result) in &all {
            let standalone = agg
                .bootstrap_group(group_seed(9, key), &groups[key], &cfg)
                .unwrap();
            assert_eq!(result.replicates, standalone.replicates, "group {key}");
            assert_eq!(result.cv.to_bits(), standalone.cv.to_bits());
        }
        // Dropping a group changes nothing for the others.
        groups.remove("b");
        let only_a = grouped_accuracy(9, &groups, &agg, &cfg).unwrap();
        assert_eq!(only_a[0].1.replicates, all[0].1.replicates);
    }

    /// The ladder's sample extension as an owned-key `entry` per record: the
    /// oracle the borrowed-key `extend` must match.
    fn extend_with_owned_keys(
        agg: &GroupedAggregate,
        groups: &mut BTreeMap<String, Vec<f64>>,
        batch: &[(u64, String)],
    ) {
        for (_, line) in batch {
            if let Some((key, record)) = agg.extract_record(line) {
                groups.entry(key).or_default().extend(record.values());
            }
        }
    }

    /// A sample's groups with their values as bits (`nan` parses).
    fn bits(groups: &BTreeMap<String, Vec<f64>>) -> BTreeMap<&str, Vec<u64>> {
        groups
            .iter()
            .map(|(key, values)| (key.as_str(), values.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    /// `extend` builds the same groups as the oracle, batch after batch:
    /// keyed lines, keys first seen in the middle of a batch, malformed
    /// lines, and two-column weighted-mean records.
    #[test]
    fn extend_matches_the_owned_key_oracle() {
        let batches: Vec<Vec<&str>> = vec![
            vec!["a\t1.5", "b\t2", "a\t-3\t4", "noseparator", "\t7", "c\tx"],
            vec!["b\t5\t1", "d\t6", "a\t7\t0.5", "d\t8", "e\tnan", "a\t"],
            vec!["f\t1\t2\t3", "b\t9\t9", "g\t1e3\t2", "\t\t", "h\t  4 "],
        ];
        for stat in [
            GroupedStat::Mean,
            GroupedStat::Sum,
            GroupedStat::Count,
            GroupedStat::WeightedMean,
        ] {
            let agg = GroupedAggregate::new(stat);
            let config = EarlConfig::default();
            let ladder = GroupedLadder {
                agg: &agg,
                config: &config,
                bootstraps: 2,
            };
            let (mut groups, mut oracle) = (BTreeMap::new(), BTreeMap::new());
            for (step, lines) in batches.iter().enumerate() {
                let batch: Vec<(u64, String)> = lines
                    .iter()
                    .enumerate()
                    .map(|(i, line)| (i as u64, line.to_string()))
                    .collect();
                ladder.extend(&mut groups, &batch);
                extend_with_owned_keys(&agg, &mut oracle, &batch);
                assert_eq!(bits(&groups), bits(&oracle), "{stat:?} after batch {step}");
            }
            assert!(groups.len() >= 4, "{stat:?} saw new keys in every batch");
        }
    }

    /// The per-group accuracy stage as a plain loop over the groups in key
    /// order, each bootstrap forking over its own replicates: the oracle a
    /// group-parallel stage must equal bit for bit.
    fn sequential_grouped_accuracy(
        seed: u64,
        groups: &BTreeMap<String, Vec<f64>>,
        agg: &GroupedAggregate,
        config: &BootstrapConfig,
    ) -> Result<Vec<(String, BootstrapResult)>> {
        groups
            .iter()
            .map(|(key, values)| {
                let result = agg.bootstrap_group(group_seed(seed, key), values, config)?;
                Ok((key.clone(), result))
            })
            .collect()
    }

    /// Every bit of a stage's outcome: per group its key and each field of
    /// its bootstrap result, or the error.
    fn outcome_bits(outcome: &Result<Vec<(String, BootstrapResult)>>) -> String {
        match outcome {
            Ok(groups) => groups
                .iter()
                .map(|(key, r)| {
                    let fields = [
                        r.point_estimate,
                        r.bias,
                        r.replicate_mean,
                        r.std_error,
                        r.cv,
                    ];
                    let bits: Vec<u64> = fields
                        .iter()
                        .chain(&r.replicates)
                        .map(|x| x.to_bits())
                        .collect();
                    format!("{key}:{bits:x?}\n")
                })
                .collect(),
            Err(e) => format!("error: {e:?}"),
        }
    }

    /// `grouped_accuracy` equals the sequential oracle bit for bit: on 200
    /// groups (enough work to spread the groups over the workers), on one
    /// dominant group among six small ones (it forks over its replicates
    /// while the small ones run side by side), on 3 large groups at 8
    /// threads (fewer groups than workers, so each group's replicates
    /// fork), for both kernels and a two-column statistic; and a failing
    /// group yields the first error in key order.
    #[test]
    fn group_parallel_aes_matches_the_sequential_oracle() {
        let mut state = 0x51_7cc1_b727_220a_u64;
        let mut groups_of = |count: usize, len: usize| -> BTreeMap<String, Vec<f64>> {
            (0..count)
                .map(|g| {
                    let values = (0..len + g % 7 * 2)
                        .map(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            (state % 100_000) as f64 / 64.0 + 1.0
                        })
                        .collect();
                    (format!("g{g:03}"), values)
                })
                .collect()
        };
        let many = groups_of(200, 60);
        let few = groups_of(3, 400);
        let mut skewed = groups_of(6, 60);
        let dominant = groups_of(1, 3_000).remove("g000").unwrap();
        skewed.insert("g002a".into(), dominant);
        let mut broken = many.clone();
        broken.insert("g050x".into(), Vec::new());
        broken.insert("g150x".into(), vec![1.0, 2.0, 3.0]);

        let mut threads = vec![None, Some(1), Some(2), Some(8)];
        if let Ok(v) = std::env::var("EARL_THREADS") {
            threads.push(Some(v.parse().expect("EARL_THREADS must be a number")));
        }
        for agg in [GroupedAggregate::mean(), GroupedAggregate::weighted_mean()] {
            for kernel in [BootstrapKernel::Auto, BootstrapKernel::Gather] {
                for &parallelism in &threads {
                    let config = BootstrapConfig::with_resamples(100)
                        .with_parallelism(parallelism)
                        .with_kernel(kernel);
                    for groups in [&many, &broken, &skewed] {
                        assert_eq!(
                            outcome_bits(&grouped_accuracy(7, groups, &agg, &config)),
                            outcome_bits(&sequential_grouped_accuracy(7, groups, &agg, &config)),
                            "{} {kernel:?} at {parallelism:?}, {} groups",
                            agg.name(),
                            groups.len()
                        );
                    }
                }
                let config = BootstrapConfig::with_resamples(100)
                    .with_parallelism(Some(8))
                    .with_kernel(kernel);
                assert_eq!(
                    outcome_bits(&grouped_accuracy(7, &few, &agg, &config)),
                    outcome_bits(&sequential_grouped_accuracy(7, &few, &agg, &config)),
                    "{} {kernel:?}, 3 groups at 8 threads",
                    agg.name()
                );
            }
        }
        let config = BootstrapConfig::with_resamples(100);
        let mean = GroupedAggregate::mean();
        assert!(
            matches!(
                grouped_accuracy(7, &broken, &mean, &config),
                Err(EarlError::Stats(earl_bootstrap::StatsError::EmptySample))
            ),
            "the empty group g050x fails first"
        );
    }

    /// Each item joins the part its weight's midpoint falls in: equal
    /// weights split evenly, a heavy head or tail gets a run of its own, and
    /// no run is empty.
    #[test]
    fn balanced_runs_split_by_weight_in_order() {
        assert_eq!(balanced_runs(&[1; 200], 2), vec![0..100, 100..200]);
        assert_eq!(balanced_runs(&[1; 12], 8).len(), 8);
        assert_eq!(balanced_runs(&[9, 1, 1, 1, 1, 1], 2), vec![0..1, 1..6]);
        assert_eq!(balanced_runs(&[1, 1, 1, 1, 1, 9], 2), vec![0..5, 5..6]);
        assert_eq!(balanced_runs(&[3, 3], 8), vec![0..1, 1..2]);
        assert_eq!(balanced_runs(&[0, 0, 0], 2), vec![0..3]);
        assert_eq!(balanced_runs(&[5, 5], 1), vec![0..2]);
        assert!(balanced_runs(&[], 4).is_empty());
    }

    /// The ladder reports each group's AES point estimate; the step job's
    /// reducer computes the same statistic over the same values in the same
    /// order.  Both must agree bit for bit, for every statistic, at every
    /// ladder step.
    #[test]
    fn reducer_outputs_equal_the_aes_point_estimates_bit_for_bit() {
        let dfs = Dfs::new(Cluster::for_tests(), DfsConfig::small_blocks(4096)).unwrap();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let lines: Vec<(u64, String)> = (0..900u64)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let value = (state % 10_000) as f64 / 7.0 - 300.0;
                let weight = (state >> 32) % 5;
                (i, format!("k{}\t{value}\t{weight}", state % 11))
            })
            .collect();
        for stat in [
            GroupedStat::Mean,
            GroupedStat::Sum,
            GroupedStat::Count,
            GroupedStat::WeightedMean,
        ] {
            let agg = GroupedAggregate::new(stat);
            let config = EarlConfig {
                seed: 5,
                ..EarlConfig::default()
            };
            let ladder = GroupedLadder {
                agg: &agg,
                config: &config,
                bootstraps: 20,
            };
            let mut groups = BTreeMap::new();
            for (from, to) in [(0, 300), (300, 900)] {
                let batch = &lines[from..to];
                let input = InputSource::Memory(lines[..to].to_vec());
                let mut conf = ladder.job(input, &groups, batch);
                conf.local_mode = from > 0; // warm, as on the ladder
                ladder.extend(&mut groups, batch);
                let (mapper, reducer) = ladder.tasks();
                let job = run_job(&dfs, &conf, &mapper, &reducer).unwrap();
                let outputs: BTreeMap<String, f64> = job.outputs.into_iter().collect();
                let (estimate, _) = ladder.estimate(&mut (), &groups, 0).unwrap();
                assert_eq!(outputs.len(), estimate.len(), "{stat:?} at {to}");
                for (key, bootstrap) in &estimate {
                    assert_eq!(
                        outputs[key].to_bits(),
                        bootstrap.point_estimate.to_bits(),
                        "{stat:?}, group {key}, step {to}"
                    );
                }
            }
        }
    }

    /// A replication-1 cluster with one node dead before the run: under
    /// `Retry` the grouped run fails with the DFS error, as a scalar run
    /// does; under `Degrade` it writes the loss off and answers from the
    /// survivors (or reports the bound it could not reach) — never a DFS
    /// error.
    #[test]
    fn grouped_runs_degrade_like_scalar_runs_when_a_node_died_before_the_run() {
        let run = |policy: FailurePolicy| {
            let dfs = Dfs::new(
                Cluster::with_nodes(4),
                DfsConfig {
                    block_size: 4096,
                    replication: 1,
                    io_chunk: 256,
                },
            )
            .unwrap();
            DatasetBuilder::new(dfs.clone())
                .build_grouped("/g", &GroupedSpec::normal_groups(6, 4_000, 100.0, 0.25, 3))
                .unwrap();
            dfs.cluster().fail_node(NodeId(1)).unwrap();
            let config = EarlConfig {
                sigma: 0.05,
                failure_policy: policy,
                ..EarlConfig::default()
            };
            EarlDriver::new(dfs, config).run_grouped("/g", &GroupedAggregate::mean())
        };
        match run(FailurePolicy::retry()) {
            Err(EarlError::Dfs(_) | EarlError::Sampling(_)) => {}
            other => panic!("Retry must surface the lost block, got {other:?}"),
        }
        let report = match run(FailurePolicy::Degrade) {
            Ok(report) => report,
            Err(EarlError::GroupedAccuracyNotReached(report)) => *report,
            Err(other) => panic!("Degrade must not fail on lost data, got {other:?}"),
        };
        assert!(!report.exact, "a quarter of the data is gone");
        assert!(report.sample_size > 0);
        assert!(report.groups.iter().all(|g| g.result.is_finite()));
    }
}
