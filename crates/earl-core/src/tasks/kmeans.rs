//! K-Means: the paper's advanced-mining showcase (Fig. 7).
//!
//! Two implementations are provided:
//!
//! * [`exact_kmeans_mapreduce`] — the stock-Hadoop baseline: each Lloyd
//!   iteration is a full MapReduce job over the entire data set (map: assign
//!   each point to its nearest centroid; reduce: average each cluster's
//!   points).
//! * [`approximate_kmeans`] — the EARL version: Lloyd runs on a uniform sample
//!   of the points, and the bootstrap estimates the stability (cv) of the
//!   per-point within-cluster cost; the sample expands until the cv satisfies
//!   the error bound.  The paper notes this speeds K-Means up both because the
//!   input is smaller and because K-Means converges faster on smaller data.

use earl_bootstrap::estimators::coefficient_of_variation;
use earl_bootstrap::rng::sample_indices_with_replacement;
use earl_cluster::{Phase, SimDuration};
use earl_dfs::{Dfs, DfsPath};
use earl_mapreduce::{InputSource, JobConf, MapContext, Mapper, ReduceContext, Reducer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::config::EarlConfig;
use crate::error::EarlError;
use crate::Result;
use earl_sampling::{PreMapSampler, SampleSource};

/// Configuration of a K-Means run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KmeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on total centroid movement.
    pub tolerance: f64,
    /// Seed for centroid initialisation.
    pub seed: u64,
    /// Number of random restarts; the model with the lowest within-cluster cost
    /// is kept.  The paper notes K-Means "is typically restarted from many
    /// initial positions" because it converges to local optima.
    pub restarts: usize,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        Self {
            k: 8,
            max_iterations: 20,
            tolerance: 1e-3,
            seed: 0x4B,
            restarts: 3,
        }
    }
}

/// A fitted K-Means model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KmeansModel {
    /// The fitted centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Total within-cluster sum of squares over the points it was fitted on.
    pub wcss: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

impl KmeansModel {
    /// Mean within-cluster cost per point (scale-free across sample sizes).
    pub fn cost_per_point(&self, num_points: usize) -> f64 {
        if num_points == 0 {
            f64::NAN
        } else {
            self.wcss / num_points as f64
        }
    }
}

/// Report of an approximate (EARL) K-Means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproxKmeansReport {
    /// The fitted model.
    pub model: KmeansModel,
    /// Coefficient of variation of the per-point cost across bootstrap
    /// resamples — EARL's error estimate for the clustering.
    pub cost_cv: f64,
    /// Points in the final sample.
    pub sample_size: u64,
    /// Points in the full data set.
    pub population: u64,
    /// Sample-expansion iterations.
    pub iterations: usize,
    /// Simulated time of the run.
    pub sim_time: SimDuration,
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = squared_distance(point, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// k-means++ seeding: the first centroid is a uniformly random point, each
/// subsequent centroid is drawn with probability proportional to its squared
/// distance from the nearest already-chosen centroid.
fn kmeans_plus_plus_init(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    use rand::Rng;
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let distances: Vec<f64> = points
            .iter()
            .map(|p| nearest_centroid(p, &centroids).1)
            .collect();
        let total: f64 = distances.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = 0;
            for (i, d) in distances.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    idx = i;
                    break;
                }
            }
            idx
        };
        centroids.push(points[chosen].clone());
    }
    centroids
}

/// Lloyd's algorithm over in-memory points with k-means++ seeding and
/// `restarts` random restarts (keeping the lowest-cost model).
pub fn lloyd(points: &[Vec<f64>], config: &KmeansConfig) -> Result<KmeansModel> {
    if points.is_empty() {
        return Err(EarlError::NoUsableRecords);
    }
    if config.k == 0 || config.k > points.len() {
        return Err(EarlError::InvalidConfig(format!(
            "k = {} must be in [1, number of points = {}]",
            config.k,
            points.len()
        )));
    }
    let restarts = config.restarts.max(1);
    let mut best: Option<KmeansModel> = None;
    for restart in 0..restarts {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(restart as u64));
        let model = lloyd_once(points, config, &mut rng);
        if best.as_ref().is_none_or(|b| model.wcss < b.wcss) {
            best = Some(model);
        }
    }
    Ok(best.expect("at least one restart ran"))
}

fn lloyd_once(points: &[Vec<f64>], config: &KmeansConfig, rng: &mut StdRng) -> KmeansModel {
    let dims = points[0].len();
    let mut centroids = kmeans_plus_plus_init(points, config.k, rng);
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut sums = vec![vec![0.0; dims]; config.k];
        let mut counts = vec![0usize; config.k];
        let mut wcss = 0.0;
        for point in points {
            let (idx, d) = nearest_centroid(point, &centroids);
            wcss += d;
            counts[idx] += 1;
            for (s, v) in sums[idx].iter_mut().zip(point) {
                *s += v;
            }
        }
        let mut movement = 0.0;
        for i in 0..config.k {
            if counts[i] == 0 {
                continue; // empty cluster keeps its centroid
            }
            let new: Vec<f64> = sums[i].iter().map(|s| s / counts[i] as f64).collect();
            movement += squared_distance(&new, &centroids[i]).sqrt();
            centroids[i] = new;
        }
        if movement < config.tolerance || iterations >= config.max_iterations {
            return KmeansModel {
                centroids,
                wcss,
                iterations,
            };
        }
    }
}

/// Parses a point from a line of whitespace-separated coordinates — the
/// format [`earl_workload::KmeansDataset`] writes, parsed by its own parser.
pub fn parse_point(line: &str) -> Option<Vec<f64>> {
    earl_workload::KmeansDataset::parse_point(line)
}

/// How far each `truth` centroid is from its nearest `found` centroid, as a
/// fraction of the overall centroid spread — the "within 5 % of the optimal"
/// measure the paper reports for Fig. 7.
pub fn centroid_match_error(found: &[Vec<f64>], truth: &[Vec<f64>]) -> f64 {
    if truth.is_empty() || found.is_empty() {
        return f64::NAN;
    }
    let spread = {
        let mut max = 0.0f64;
        for a in truth {
            for b in truth {
                max = max.max(squared_distance(a, b).sqrt());
            }
        }
        max.max(1e-12)
    };
    let total: f64 = truth
        .iter()
        .map(|t| {
            found
                .iter()
                .map(|f| squared_distance(t, f).sqrt())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / truth.len() as f64 / spread
}

// ---------------------------------------------------------------------------
// Exact MapReduce K-Means (stock Hadoop baseline)
// ---------------------------------------------------------------------------

struct AssignMapper {
    centroids: Vec<Vec<f64>>,
}

impl Mapper for AssignMapper {
    type OutKey = u32;
    type OutValue = (Vec<f64>, u64);
    fn map(&self, _offset: u64, line: &str, ctx: &mut MapContext<u32, (Vec<f64>, u64)>) {
        if let Some(point) = parse_point(line) {
            let (idx, _) = nearest_centroid(&point, &self.centroids);
            ctx.emit(idx as u32, (point, 1));
        }
    }
    fn is_heavy(&self) -> bool {
        true
    }
}

struct RecomputeReducer;

impl Reducer for RecomputeReducer {
    type InKey = u32;
    type InValue = (Vec<f64>, u64);
    type Output = (u32, Vec<f64>);
    fn reduce(
        &self,
        key: &u32,
        values: &[(Vec<f64>, u64)],
        ctx: &mut ReduceContext<(u32, Vec<f64>)>,
    ) {
        let dims = values.first().map(|(p, _)| p.len()).unwrap_or(0);
        let mut sum = vec![0.0; dims];
        let mut count = 0u64;
        for (point, c) in values {
            for (s, v) in sum.iter_mut().zip(point) {
                *s += v;
            }
            count += c;
        }
        if count > 0 {
            ctx.emit((*key, sum.into_iter().map(|s| s / count as f64).collect()));
        }
    }
    fn is_heavy(&self) -> bool {
        true
    }
}

/// Runs exact K-Means over the whole file, one MapReduce job per Lloyd
/// iteration — the behaviour of stock Hadoop in Fig. 7.  Returns the model and
/// the simulated time spent.
pub fn exact_kmeans_mapreduce(
    dfs: &Dfs,
    path: impl Into<DfsPath>,
    config: &KmeansConfig,
) -> Result<(KmeansModel, SimDuration)> {
    let path = path.into();
    let cluster = dfs.cluster().clone();
    let start = cluster.elapsed();

    // Initial centroids: k-means++ seeding over a small pre-map sample of the
    // points (sample-based seeding is standard practice for MapReduce K-Means).
    let seed_count = (config.k * 25).max(200);
    let seed_batch =
        earl_sampling::premap::premap_sample(dfs, path.clone(), seed_count, config.seed)?;
    let seed_points: Vec<Vec<f64>> = seed_batch
        .records
        .iter()
        .filter_map(|(_, l)| parse_point(l))
        .collect();
    if seed_points.len() < config.k {
        return Err(EarlError::InvalidConfig(format!(
            "could not draw {} initial centroids from {path}",
            config.k
        )));
    }
    let mut init_rng = StdRng::seed_from_u64(config.seed);
    let mut centroids = kmeans_plus_plus_init(&seed_points, config.k, &mut init_rng);

    let mut iterations = 0;
    loop {
        iterations += 1;
        let conf = JobConf::new(
            format!("kmeans-iter-{iterations}"),
            InputSource::Path(path.clone()),
        );
        let mapper = AssignMapper {
            centroids: centroids.clone(),
        };
        let result = earl_mapreduce::run_job(dfs, &conf, &mapper, &RecomputeReducer)?;
        let mut movement = 0.0;
        for (idx, new_centroid) in result.outputs {
            let idx = idx as usize;
            if idx < centroids.len() {
                movement += squared_distance(&new_centroid, &centroids[idx]).sqrt();
                centroids[idx] = new_centroid;
            }
        }
        if movement < config.tolerance || iterations >= config.max_iterations {
            break;
        }
    }

    // Final WCSS pass (one more scan, as stock Hadoop would do to score the model).
    let conf = JobConf::new("kmeans-score", InputSource::Path(path.clone()));
    let scorer = WcssMapper {
        centroids: centroids.clone(),
    };
    let score = earl_mapreduce::run_job(dfs, &conf, &scorer, &SumReducer)?;
    let wcss = score.outputs.first().copied().unwrap_or(f64::NAN);
    Ok((
        KmeansModel {
            centroids,
            wcss,
            iterations,
        },
        cluster.elapsed() - start,
    ))
}

struct WcssMapper {
    centroids: Vec<Vec<f64>>,
}

impl Mapper for WcssMapper {
    type OutKey = u32;
    type OutValue = f64;
    fn map(&self, _offset: u64, line: &str, ctx: &mut MapContext<u32, f64>) {
        if let Some(point) = parse_point(line) {
            ctx.emit(0, nearest_centroid(&point, &self.centroids).1);
        }
    }
    fn is_heavy(&self) -> bool {
        true
    }
}

struct SumReducer;

impl Reducer for SumReducer {
    type InKey = u32;
    type InValue = f64;
    type Output = f64;
    fn reduce(&self, _key: &u32, values: &[f64], ctx: &mut ReduceContext<f64>) {
        ctx.emit(values.iter().sum());
    }
}

// ---------------------------------------------------------------------------
// Approximate (EARL) K-Means
// ---------------------------------------------------------------------------

/// Runs K-Means on a uniform sample of the points, expanding the sample until
/// the bootstrap cv of the per-point cost meets the error bound in
/// `earl_config.sigma`.
pub fn approximate_kmeans(
    dfs: &Dfs,
    path: impl Into<DfsPath>,
    earl_config: &EarlConfig,
    kmeans_config: &KmeansConfig,
) -> Result<ApproxKmeansReport> {
    earl_config.validate()?;
    let path = path.into();
    let status = dfs.status(path.clone())?;
    let population = status.num_records.unwrap_or(0);
    if population == 0 {
        return Err(EarlError::NoUsableRecords);
    }
    let cluster = dfs.cluster().clone();
    let start = cluster.elapsed();
    let mut rng = StdRng::seed_from_u64(earl_config.seed);

    let mut sampler = PreMapSampler::new(dfs.clone(), path, earl_config.seed)?;
    let bootstraps = earl_config.bootstraps.unwrap_or(10).max(2);
    let mut target = earl_config
        .sample_size
        .unwrap_or_else(|| {
            ((population as f64 * 0.02).ceil() as u64).max(earl_config.min_pilot * 2)
        })
        .min(population);

    let mut points: Vec<Vec<f64>> = Vec::new();
    let mut iterations = 0;
    let mut model;
    let mut cost_cv;
    loop {
        iterations += 1;
        if (points.len() as u64) < target {
            let batch = sampler.draw((target - points.len() as u64) as usize)?;
            points.extend(batch.records.iter().filter_map(|(_, l)| parse_point(l)));
        }
        if points.is_empty() {
            return Err(EarlError::NoUsableRecords);
        }
        // Fit on the sample; charge the clustering work as heavy reduce CPU.
        model = lloyd(&points, kmeans_config)?;
        cluster.charge_reduce_cpu(
            Phase::Reduce,
            (points.len() * model.iterations) as u64,
            true,
        );

        // Bootstrap the per-point cost to estimate the clustering's stability.
        let costs: Vec<f64> = (0..bootstraps)
            .map(|_| {
                let idx = sample_indices_with_replacement(&mut rng, points.len(), points.len());
                let resample: Vec<Vec<f64>> = idx.into_iter().map(|i| points[i].clone()).collect();
                lloyd(&resample, kmeans_config).map(|m| m.cost_per_point(resample.len()))
            })
            .collect::<Result<Vec<f64>>>()?;
        cluster.charge_reduce_cpu(
            Phase::AccuracyEstimation,
            (bootstraps * points.len()) as u64,
            true,
        );
        cost_cv = coefficient_of_variation(&costs);

        let done = (cost_cv.is_finite() && cost_cv <= earl_config.sigma)
            || points.len() as u64 >= population
            || iterations >= earl_config.max_iterations;
        if done {
            return Ok(ApproxKmeansReport {
                model,
                cost_cv,
                sample_size: points.len() as u64,
                population,
                iterations,
                sim_time: cluster.elapsed() - start,
            });
        }
        target =
            ((points.len() as f64 * earl_config.expansion_factor).ceil() as u64).min(population);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_cluster::{Cluster, CostModel};
    use earl_dfs::DfsConfig;
    use earl_workload::{KmeansDataset, KmeansSpec};

    fn kmeans_dfs(points: u64, k: usize, seed: u64) -> (Dfs, KmeansDataset) {
        let cluster = Cluster::builder()
            .nodes(5)
            .cost_model(CostModel::commodity_2012())
            .build()
            .unwrap();
        let dfs = Dfs::new(
            cluster,
            DfsConfig {
                block_size: 1 << 17,
                replication: 2,
                io_chunk: 1024,
            },
        )
        .unwrap();
        let spec = KmeansSpec {
            num_points: points,
            k,
            dims: 2,
            cluster_std_dev: 1.5,
            centroid_spread: 200.0,
            seed,
        };
        let ds = KmeansDataset::generate(&dfs, "/points", &spec).unwrap();
        (dfs, ds)
    }

    #[test]
    fn lloyd_recovers_well_separated_clusters() {
        let (_, ds) = kmeans_dfs(2_000, 4, 1);
        let model = lloyd(
            &ds.points,
            &KmeansConfig {
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(model.centroids.len(), 4);
        let err = centroid_match_error(&model.centroids, &ds.true_centroids);
        assert!(
            err < 0.05,
            "centroid error {err} should be under 5% of the spread"
        );
        assert!(model.wcss > 0.0);
        assert!(model.iterations >= 1);
    }

    #[test]
    fn lloyd_validates_inputs() {
        assert!(lloyd(&[], &KmeansConfig::default()).is_err());
        let points = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        assert!(lloyd(
            &points,
            &KmeansConfig {
                k: 5,
                ..Default::default()
            }
        )
        .is_err());
        assert!(lloyd(
            &points,
            &KmeansConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
        let ok = lloyd(
            &points,
            &KmeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ok.wcss < 1e-9, "2 points, 2 clusters → zero cost");
    }

    #[test]
    fn approximate_kmeans_matches_truth_and_beats_exact_on_time() {
        let (dfs, ds) = kmeans_dfs(20_000, 4, 2);
        let kconfig = KmeansConfig {
            k: 4,
            max_iterations: 15,
            ..Default::default()
        };
        let earl_config = EarlConfig {
            sigma: 0.05,
            bootstraps: Some(8),
            ..EarlConfig::default()
        };

        dfs.cluster().reset_accounting();
        let approx = approximate_kmeans(&dfs, "/points", &earl_config, &kconfig).unwrap();
        let approx_time = approx.sim_time;

        dfs.cluster().reset_accounting();
        let (exact_model, exact_time) = exact_kmeans_mapreduce(&dfs, "/points", &kconfig).unwrap();

        // Both find the generative centroids...
        let approx_err = centroid_match_error(&approx.model.centroids, &ds.true_centroids);
        let exact_err = centroid_match_error(&exact_model.centroids, &ds.true_centroids);
        assert!(
            approx_err < 0.05,
            "EARL centroids within 5% of optimal (got {approx_err})"
        );
        assert!(exact_err < 0.05);
        // ...but EARL does it on a fraction of the data and much faster.
        assert!(approx.sample_size < approx.population / 2);
        assert!(
            approx_time < exact_time,
            "approximate {} must be faster than exact {}",
            approx_time,
            exact_time
        );
        assert!(approx.cost_cv.is_finite());
    }

    #[test]
    fn parse_point_and_match_error_edges() {
        assert_eq!(parse_point("1.0 2.0 3.0"), Some(vec![1.0, 2.0, 3.0]));
        assert_eq!(parse_point("1.0 x"), None);
        assert_eq!(parse_point(""), None);
        assert!(centroid_match_error(&[], &[vec![0.0]]).is_nan());
        let c = vec![vec![0.0, 0.0], vec![10.0, 10.0]];
        assert!(centroid_match_error(&c, &c) < 1e-12);
    }

    #[test]
    fn empty_file_is_rejected() {
        let cluster = Cluster::for_tests();
        let dfs = Dfs::new(cluster, DfsConfig::small_blocks(1024)).unwrap();
        dfs.write_lines("/empty", std::iter::empty::<String>())
            .unwrap_or_else(|_| {
                // writing an empty file may legitimately fail; create a file with a
                // blank line instead so the path exists
                dfs.write_lines("/empty", [""]).unwrap()
            });
        let err = approximate_kmeans(
            &dfs,
            "/empty",
            &EarlConfig::default(),
            &KmeansConfig::default(),
        );
        assert!(err.is_err());
    }
}
