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
//!   worker threads run (pin: `tests/grouped_workloads.rs`);
//! * linear per-group statistics (all three of [`GroupedStat`]) run on the
//!   resample-free count-based kernel under [`BootstrapKernel::Auto`], exactly
//!   like their scalar counterparts.
//!
//! The iterative loop mirrors the scalar driver — sample → grouped job → per-
//! group AES → expand — and terminates when **every** group's cv meets σ.

use std::collections::BTreeMap;

use earl_bootstrap::bootstrap::{
    bootstrap_distribution, BootstrapConfig, BootstrapResult, ResolvedKernel,
};
use earl_bootstrap::rng::derive_seed;
use earl_bootstrap::BootstrapKernel;
use earl_cluster::{Phase, SimDuration};
use earl_dfs::DfsPath;
use earl_mapreduce::{
    ErrorReport, InputSource, JobConf, MapContext, Mapper, PipelinedSession, ReduceContext, Reducer,
};
use serde::{Deserialize, Serialize};

use crate::aes::{aes_work, AccuracyEstimationStage};
use crate::driver::EarlDriver;
use crate::error::EarlError;
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
        Some((key.to_owned(), record))
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
pub fn grouped_accuracy(
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
        self.groups
            .iter()
            .map(|g| {
                if g.error_estimate.is_finite() {
                    g.error_estimate
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0, f64::max)
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

impl EarlDriver {
    /// Runs a grouped per-key aggregate over `path` with early approximation:
    /// the sample expands until **every** group's bootstrap cv meets σ.
    ///
    /// Differences from the scalar [`run`](Self::run): `B` comes from
    /// `config.bootstraps` (default 100 per group — SSABE's scalar `B`-search
    /// does not transfer to many groups), the accuracy stage runs one
    /// bootstrap per group, each on the deterministic [`group_seed`] stream,
    /// and the loop is its own, never-speculating one (`pipeline_depth` is
    /// ignored here: the per-group AES has no single error estimate to commit
    /// or cancel a staged step on).  It shares the scalar ladder's sampler
    /// and AES-work formula, not its loop.  Returns
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
        config.validate()?;
        let path = path.into();
        let dfs = self.dfs().clone();
        let status = dfs.status(path.clone())?;
        let population = status.num_records.unwrap_or(0);
        if population == 0 {
            return Err(EarlError::NoUsableRecords);
        }
        let cluster = dfs.cluster().clone();
        let start_time = cluster.elapsed();
        let start_bytes = cluster.metrics().snapshot().total_disk_bytes_read();

        // Loss stays loud here: the grouped loop has no degrade path.
        let mut sampler = self.open_sampler(&path, false)?;

        // ---- pilot -----------------------------------------------------------
        let pilot_target = ((population as f64 * config.pilot_fraction).ceil() as u64)
            .max(config.min_pilot)
            .min(population) as usize;
        let pilot = sampler.draw(pilot_target)?;
        let mut records: Vec<(u64, String)> = pilot.records;
        // Group buffers are flat interleaved samples: `stride` consecutive
        // values per record (1 for the scalar stats, 2 for the weighted mean).
        let stride = agg.value_stride();
        let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let extend_groups = |groups: &mut BTreeMap<String, Vec<f64>>, batch: &[(u64, String)]| {
            for (_, line) in batch {
                if let Some((key, record)) = agg.extract_record(line) {
                    groups.entry(key).or_default().extend(record.values());
                }
            }
        };
        extend_groups(&mut groups, &records);
        if groups.is_empty() {
            return Err(EarlError::NoUsableRecords);
        }

        let bootstraps = config.bootstraps.unwrap_or(DEFAULT_GROUPED_BOOTSTRAPS);
        let bcfg = BootstrapConfig::with_resamples(bootstraps)
            .with_parallelism(config.parallelism)
            .with_kernel(config.bootstrap_kernel);
        let aes = AccuracyEstimationStage::new(config.sigma);
        let resolved = agg.resolved_kernel(config.bootstrap_kernel);
        let mapper = GroupedTaskMapper::new(agg);
        let reducer = GroupedTaskReducer::new(agg);
        let mut session = PipelinedSession::new(dfs.clone());
        let feedback = session.feedback();

        let mut target_n = config
            .sample_size
            .unwrap_or(records.len() as u64)
            .min(population)
            .max(1);
        let mut iterations = 0usize;
        let mut exhausted = false;
        let mut exact = false;
        let mut engine_results: BTreeMap<String, f64> = BTreeMap::new();
        let mut group_bootstraps: Vec<(String, BootstrapResult)> = Vec::new();

        while iterations < config.max_iterations {
            iterations += 1;

            // Expand the sample up to the current target.
            let needed = target_n.saturating_sub(records.len() as u64) as usize;
            if needed > 0 {
                let batch = sampler.draw(needed)?;
                if batch.is_empty() {
                    exhausted = true;
                } else {
                    extend_groups(&mut groups, &batch.records);
                    records.extend(batch.records);
                }
            }

            // Run the grouped job through the engine: string keys, multiple
            // reducers — the map-side streaming shuffle routes each group's
            // pairs to its shard.  The reducer count depends only on the data
            // (never on the thread count), keeping results thread-invariant.
            let conf = JobConf::new(
                format!("earl-{}", agg.name()),
                InputSource::Memory(records.clone()),
            )
            .with_reducers(groups.len().clamp(1, 8))
            .with_failure_policy(config.failure_policy)
            .with_parallelism(config.parallelism);
            let job = session.run_iteration(&conf, &mapper, &reducer)?;
            engine_results = job.outputs.into_iter().collect();

            // ---- per-group accuracy estimation ------------------------------
            group_bootstraps = grouped_accuracy(config.seed, &groups, agg, &bcfg)?;
            let aes_records: u64 = groups
                .values()
                .map(|values| aes_work(resolved, values.len() / stride, bootstraps))
                .sum();
            cluster.charge_reduce_cpu(Phase::AccuracyEstimation, aes_records, false);

            // The worst per-group cv is posted on the reducer→mapper channel —
            // the §3.3 termination signal, observable via
            // `session.latest_error()` (the all-groups predicate below needs
            // every cv, not just the worst, so it does not read the channel
            // back).
            let worst = group_bootstraps
                .iter()
                .map(|(_, b)| {
                    if b.cv.is_finite() {
                        b.cv
                    } else {
                        f64::INFINITY
                    }
                })
                .fold(0.0, f64::max);
            feedback.post(ErrorReport {
                reducer: 0,
                error: worst,
                timestamp: cluster.now(),
            });

            if records.len() as u64 >= population {
                exact = true;
                break;
            }
            // A group converges only with a usable sample behind it: tiny
            // groups report cv ≈ 0 (identical replicates) while their real
            // error is unbounded.
            let all_met = group_bootstraps.iter().all(|(key, b)| {
                groups[key].len() / stride >= MIN_GROUP_SAMPLE && aes.meets_bound(b.cv)
            });
            if all_met || exhausted {
                break;
            }
            target_n =
                (((records.len() as f64) * config.expansion_factor).ceil() as u64).min(population);
        }

        // ---- report ----------------------------------------------------------
        let sampled_fraction = (sampler.drawn() as f64 / population as f64).clamp(0.0, 1.0);
        let group_reports: Vec<GroupReport> = group_bootstraps
            .iter()
            .map(|(key, bootstrap)| {
                // The engine's reduce output and the local evaluation are the
                // same function over the same values in the same order.
                let point = engine_results
                    .get(key)
                    .copied()
                    .unwrap_or(bootstrap.point_estimate);
                debug_assert_eq!(point.to_bits(), bootstrap.point_estimate.to_bits());
                let (lo, hi) = bootstrap.percentile_ci(0.05);
                let n = groups
                    .get(key)
                    .map(|v| (v.len() / stride) as u64)
                    .unwrap_or(0);
                if exact {
                    GroupReport {
                        key: key.clone(),
                        result: point,
                        uncorrected_result: point,
                        error_estimate: 0.0,
                        ci_low: point,
                        ci_high: point,
                        sample_size: n,
                    }
                } else {
                    GroupReport {
                        key: key.clone(),
                        result: agg.correct(point, sampled_fraction),
                        uncorrected_result: point,
                        error_estimate: bootstrap.cv,
                        ci_low: agg.correct(lo, sampled_fraction),
                        ci_high: agg.correct(hi, sampled_fraction),
                        sample_size: n,
                    }
                }
            })
            .collect();

        // A weighted group whose weights sum to zero has no defined statistic:
        // surface a typed error instead of a NaN result the caller would have
        // to sniff out of the report (the bound predicate would also wave an
        // exact run's NaN through).
        if agg.stat() == GroupedStat::WeightedMean {
            if let Some(g) = group_reports
                .iter()
                .find(|g| !g.uncorrected_result.is_finite())
            {
                return Err(EarlError::DegenerateGroupWeight(g.key.clone()));
            }
        }

        let report = GroupedEarlReport {
            task: agg.name().to_owned(),
            groups: group_reports,
            target_sigma: config.sigma,
            sample_size: records.len() as u64,
            population,
            sample_fraction: if exact { 1.0 } else { sampled_fraction },
            bootstraps,
            iterations,
            exact,
            sim_time: cluster.elapsed() - start_time,
            bytes_read: cluster.metrics().snapshot().total_disk_bytes_read() - start_bytes,
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
}
