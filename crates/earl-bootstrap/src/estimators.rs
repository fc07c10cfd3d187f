//! Functions of interest (`f` in the paper's notation) and mergeable
//! streaming moments ([`StreamingStats`]).
//!
//! EARL's accuracy estimation is *non-parametric*: it never needs a closed-form
//! variance formula for `f`, only the ability to evaluate `f` on resamples.
//! The [`Estimator`] trait captures exactly that; implementations are provided
//! for the statistics used throughout the paper's evaluation (mean, sum,
//! median, quantiles, variance, extrema, counts) plus Pearson correlation over
//! paired data.
//!
//! The bootstrap's gather kernel evaluates `f` on every materialised
//! resample.  Statistics that are *linear* — `f = g(Σ wᵢ·xᵢ, Σ wᵢ)` —
//! additionally expose a [`LinearForm`] via [`Estimator::linear_form`], which
//! is the contract the resample-free count-based bootstrap kernel builds on.
//!
//! ## K-ary linear forms
//!
//! A wider class of statistics is a **smooth function of a tuple of linear
//! sums**: the weighted mean `Σwx / Σw`, a ratio `Σa / Σb`, the paired
//! covariance, Pearson correlation and the regression slope all decompose as
//! `θ = g(Σφ₁(rᵢ), …, Σφ_k(rᵢ), m)` where `rᵢ` is one *record* (possibly a
//! tuple of columns, e.g. an `(x, y)` pair) and `m` is the resample record
//! count.  Such statistics declare a [`KaryForm`] via [`Estimator::kary_form`]
//! — the per-record component map `φ` plus the combiner `g` — which opts them
//! into the resample-free count-based kernel: one multinomial count draw per
//! replicate evaluates *all* `k` section-sums at once
//! ([`crate::bootstrap::KarySections`]).  Multi-column records are encoded
//! column-interleaved in the flat `&[f64]` sample (`[x₀, y₀, x₁, y₁, …]`);
//! [`Estimator::record_stride`] tells every kernel how many consecutive values
//! form one resampling unit, so the gather kernel resamples whole records and
//! never splits a pair.

use serde::{Deserialize, Serialize};

/// A statistic computed from a numeric sample.
pub trait Estimator: Send + Sync {
    /// Evaluates the statistic on `data`.  Implementations should return
    /// `f64::NAN` for inputs on which the statistic is undefined (e.g. an empty
    /// sample) rather than panic.
    fn estimate(&self, data: &[f64]) -> f64;

    /// A short human-readable name used in reports.
    fn name(&self) -> &'static str {
        "statistic"
    }

    /// The statistic's linear form `f = g(Σ wᵢ·xᵢ, Σ wᵢ)`, or `None` when the
    /// statistic is not linear.  Declaring a linear form opts the estimator
    /// into the resample-free count-based bootstrap kernel; the contract is
    /// `estimate(values) == form.finalize(Σ values, values.len())` for every
    /// value multiset.
    fn linear_form(&self) -> Option<LinearForm> {
        None
    }

    /// The statistic's k-ary linear form `θ = g(Σφ₁(r), …, Σφ_k(r), m)`, or
    /// `None` when the statistic is not an aggregate of per-record linear
    /// sums.  Declaring one opts the estimator into the resample-free
    /// count-based kernel ([`crate::bootstrap::KarySections`]); the contract
    /// is `estimate(data) == form.evaluate(data)` up to floating-point
    /// reassociation for every record multiset.  Estimators whose unary
    /// [`Estimator::linear_form`] exists need not declare a k-ary form — the
    /// unary path is the cheaper special case and takes precedence.
    fn kary_form(&self) -> Option<KaryForm> {
        None
    }

    /// How many consecutive values of the flat sample slice form one logical
    /// record — the unit every resampling kernel draws.  `1` for plain scalar
    /// samples; paired statistics (ratio, covariance, correlation, …) use
    /// column-interleaved records and report their interleave width here.
    fn record_stride(&self) -> usize {
        self.kary_form().map(|f| f.stride()).unwrap_or(1)
    }
}

/// The linear form of a statistic: `f = g(weighted_sum, total_weight)`.
///
/// This is the whole interface the count-based bootstrap kernel needs — a
/// replicate is evaluated from `(Σ cᵢ·xᵢ, Σ cᵢ)` where `cᵢ` are multinomial
/// resample counts, without ever materialising the resample.
#[derive(Debug, Clone, Copy)]
pub struct LinearForm {
    finalize: fn(weighted_sum: f64, total_weight: f64) -> f64,
}

impl LinearForm {
    /// Wraps the finalizer `g`.
    pub fn new(finalize: fn(f64, f64) -> f64) -> Self {
        Self { finalize }
    }

    /// Evaluates the statistic from the weighted sum and the total weight.
    pub fn finalize(&self, weighted_sum: f64, total_weight: f64) -> f64 {
        (self.finalize)(weighted_sum, total_weight)
    }
}

/// Maximum number of linear components a [`KaryForm`] may declare.  Fixed so
/// component sums live in a stack array — no allocation anywhere on the
/// count-based kernel's replicate path.
pub const MAX_KARY_COMPONENTS: usize = 8;

/// A fixed-size component buffer: the first `arity` slots are meaningful.
pub type KaryComponents = [f64; MAX_KARY_COMPONENTS];

/// The k-ary linear form of a statistic: `θ = g(Σφ₁(r), …, Σφ_k(r), m)`.
///
/// * `stride` — values per record in the flat column-interleaved sample (a
///   record is `&data[i*stride .. (i+1)*stride]`);
/// * `components` — the per-record map `φ`: fills `out[0..arity]` from one
///   record (e.g. `(x, y, x·y, x²)` for the regression slope);
/// * `combine` — the smooth combiner `g` over the component sums and the
///   resample record count `m`.
///
/// This is the whole interface the count-based kernel needs for ratio-of-sums
/// statistics: a replicate is evaluated from the `k` section-sums of one
/// multinomial count draw, without materialising the resample
/// ([`crate::bootstrap::KarySections`]).
#[derive(Debug, Clone, Copy)]
pub struct KaryForm {
    stride: usize,
    arity: usize,
    components: fn(record: &[f64], out: &mut KaryComponents),
    combine: fn(sums: &KaryComponents, draws: f64) -> f64,
}

impl KaryForm {
    /// Wraps the component map and combiner.  `stride ≥ 1`, `1 ≤ arity ≤`
    /// [`MAX_KARY_COMPONENTS`].
    pub fn new(
        stride: usize,
        arity: usize,
        components: fn(&[f64], &mut KaryComponents),
        combine: fn(&KaryComponents, f64) -> f64,
    ) -> Self {
        assert!(stride >= 1, "a record holds at least one value");
        assert!(
            (1..=MAX_KARY_COMPONENTS).contains(&arity),
            "arity must be in 1..={MAX_KARY_COMPONENTS}"
        );
        Self {
            stride,
            arity,
            components,
            combine,
        }
    }

    /// Values per record in the flat interleaved sample.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of linear components `k`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Fills `out[0..arity]` with the components of one record.
    pub fn components_of(&self, record: &[f64], out: &mut KaryComponents) {
        debug_assert_eq!(record.len(), self.stride);
        (self.components)(record, out)
    }

    /// Evaluates the statistic from component sums and the record count `m`.
    pub fn combine(&self, sums: &KaryComponents, draws: f64) -> f64 {
        (self.combine)(sums, draws)
    }

    /// Evaluates the statistic over a full interleaved sample by summing the
    /// components record by record — the reference evaluation the count-based
    /// kernel's section sums approximate, and the arithmetic ratio/weighted
    /// statistics use for [`Estimator::estimate`] itself.
    pub fn evaluate(&self, data: &[f64]) -> f64 {
        let mut sums = [0.0; MAX_KARY_COMPONENTS];
        let mut scratch = [0.0; MAX_KARY_COMPONENTS];
        let mut records = 0u64;
        for record in data.chunks_exact(self.stride) {
            (self.components)(record, &mut scratch);
            for c in 0..self.arity {
                sums[c] += scratch[c];
            }
            records += 1;
        }
        (self.combine)(&sums, records as f64)
    }
}

impl<F> Estimator for F
where
    F: Fn(&[f64]) -> f64 + Send + Sync,
{
    fn estimate(&self, data: &[f64]) -> f64 {
        self(data)
    }
    fn name(&self) -> &'static str {
        "closure"
    }
}

/// The arithmetic mean.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Mean;

impl Estimator for Mean {
    fn estimate(&self, data: &[f64]) -> f64 {
        if data.is_empty() {
            return f64::NAN;
        }
        data.iter().sum::<f64>() / data.len() as f64
    }
    fn name(&self) -> &'static str {
        "mean"
    }
    fn linear_form(&self) -> Option<LinearForm> {
        Some(LinearForm::new(
            |sum, n| {
                if n == 0.0 {
                    f64::NAN
                } else {
                    sum / n
                }
            },
        ))
    }
}

/// The sum of all values.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Sum;

impl Estimator for Sum {
    fn estimate(&self, data: &[f64]) -> f64 {
        data.iter().sum()
    }
    fn name(&self) -> &'static str {
        "sum"
    }
    fn linear_form(&self) -> Option<LinearForm> {
        Some(LinearForm::new(|sum, _| sum))
    }
}

/// The number of values (useful for testing correction logic).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Count;

impl Estimator for Count {
    fn estimate(&self, data: &[f64]) -> f64 {
        data.len() as f64
    }
    fn name(&self) -> &'static str {
        "count"
    }
    fn linear_form(&self) -> Option<LinearForm> {
        Some(LinearForm::new(|_, n| n))
    }
}

/// The median (see [`Quantile`] for general quantiles).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Median;

impl Estimator for Median {
    fn estimate(&self, data: &[f64]) -> f64 {
        Quantile::new(0.5).estimate(data)
    }
    fn name(&self) -> &'static str {
        "median"
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between order
/// statistics.
///
/// The two order statistics are found by selection, O(n), not by sorting.
/// The values are copied into a scratch buffer that is per thread and reused
/// by every later call on that thread, never shared between threads: one
/// allocation per thread, kept at the size of the largest input seen.
///
/// The quantile of data that holds a NaN is NaN, as the [`Mean`] of such
/// data is.  On NaN-free data the result is bit-for-bit that of a stable
/// sort by `partial_cmp`.  There only `0.0` and `-0.0` compare equal with
/// different bits, so selection can differ from the stable sort only when a
/// selected order statistic is a zero of either sign (whose sign the stable
/// sort takes from arrival order).  That case falls back to the stable sort.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Quantile {
    q: f64,
}

impl Quantile {
    /// Creates a quantile estimator; `q` is clamped to `[0, 1]`.
    pub fn new(q: f64) -> Self {
        Self {
            q: q.clamp(0.0, 1.0),
        }
    }

    /// The quantile level.
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl Estimator for Quantile {
    fn estimate(&self, data: &[f64]) -> f64 {
        if data.is_empty() || data.iter().any(|x| x.is_nan()) {
            return f64::NAN;
        }
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<f64>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let pos = self.q * (data.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let (at_lo, at_hi) = SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.extend_from_slice(data);
            select_order_statistics(&mut scratch, lo, hi).unwrap_or_else(|| {
                // Selection permuted the scratch: restore arrival order, which
                // decides the stable sort's ties.
                scratch.clear();
                scratch.extend_from_slice(data);
                scratch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                (scratch[lo], scratch[hi])
            })
        });
        if lo == hi {
            at_lo
        } else {
            let frac = pos - lo as f64;
            at_lo * (1.0 - frac) + at_hi * frac
        }
    }
    fn name(&self) -> &'static str {
        "quantile"
    }
}

/// The `lo`-th and `hi`-th order statistics of the NaN-free `values` (`hi`
/// is `lo` or `lo + 1`) by selection, or `None` where only a stable sort
/// decides their bits: either order statistic is `±0.0`.
fn select_order_statistics(values: &mut [f64], lo: usize, hi: usize) -> Option<(f64, f64)> {
    let (_, &mut at_lo, upper) = values.select_nth_unstable_by(lo, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    let at_hi = if hi == lo {
        at_lo
    } else {
        upper.iter().copied().fold(f64::INFINITY, f64::min)
    };
    (at_lo != 0.0 && at_hi != 0.0).then_some((at_lo, at_hi))
}

/// The (unbiased, n−1 denominator) sample variance.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Variance;

impl Estimator for Variance {
    fn estimate(&self, data: &[f64]) -> f64 {
        if data.len() < 2 {
            return f64::NAN;
        }
        let mean = Mean.estimate(data);
        data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64
    }
    fn name(&self) -> &'static str {
        "variance"
    }
}

/// The sample standard deviation.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StdDev;

impl Estimator for StdDev {
    fn estimate(&self, data: &[f64]) -> f64 {
        Variance.estimate(data).sqrt()
    }
    fn name(&self) -> &'static str {
        "stddev"
    }
}

/// The minimum.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Min;

impl Estimator for Min {
    fn estimate(&self, data: &[f64]) -> f64 {
        data.iter().copied().fold(
            f64::NAN,
            |acc, x| if acc.is_nan() || x < acc { x } else { acc },
        )
    }
    fn name(&self) -> &'static str {
        "min"
    }
}

/// The maximum.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Max;

impl Estimator for Max {
    fn estimate(&self, data: &[f64]) -> f64 {
        data.iter().copied().fold(
            f64::NAN,
            |acc, x| if acc.is_nan() || x > acc { x } else { acc },
        )
    }
    fn name(&self) -> &'static str {
        "max"
    }
}

/// Pearson correlation over interleaved pairs `[x0, y0, x1, y1, …]`.
///
/// The paper argues the i.i.d. key/value independence assumption "makes
/// sampling applicable to algorithms relying on capturing data-structure such
/// as correlation analysis" (§3.3); this estimator lets the test-suite and the
/// examples exercise exactly that case without a separate paired-sample API.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PairedCorrelation;

impl Estimator for PairedCorrelation {
    fn estimate(&self, data: &[f64]) -> f64 {
        let n = data.len() / 2;
        if n < 2 {
            return f64::NAN;
        }
        let xs: Vec<f64> = (0..n).map(|i| data[2 * i]).collect();
        let ys: Vec<f64> = (0..n).map(|i| data[2 * i + 1]).collect();
        let mx = Mean.estimate(&xs);
        let my = Mean.estimate(&ys);
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for i in 0..n {
            let dx = xs[i] - mx;
            let dy = ys[i] - my;
            cov += dx * dy;
            vx += dx * dx;
            vy += dy * dy;
        }
        if vx <= 0.0 || vy <= 0.0 {
            return f64::NAN;
        }
        cov / (vx.sqrt() * vy.sqrt())
    }
    fn name(&self) -> &'static str {
        "correlation"
    }
    // Correlation is a smooth combiner of five linear sums over (x, y) records:
    // (Σx, Σy, Σxy, Σx², Σy²).  Declaring the form routes its bootstrap to the
    // resample-free count-based kernel and makes every kernel resample whole
    // pairs (stride 2) instead of splitting them.
    fn kary_form(&self) -> Option<KaryForm> {
        Some(KaryForm::new(
            2,
            5,
            |r, out| {
                out[0] = r[0];
                out[1] = r[1];
                out[2] = r[0] * r[1];
                out[3] = r[0] * r[0];
                out[4] = r[1] * r[1];
            },
            |s, m| {
                if m < 2.0 {
                    return f64::NAN;
                }
                let cov = s[2] - s[0] * s[1] / m;
                let vx = s[3] - s[0] * s[0] / m;
                let vy = s[4] - s[1] * s[1] / m;
                if vx <= 0.0 || vy <= 0.0 {
                    return f64::NAN;
                }
                cov / (vx.sqrt() * vy.sqrt())
            },
        ))
    }
}

/// The weighted mean `Σwᵢxᵢ / Σwᵢ` over interleaved `[x0, w0, x1, w1, …]`
/// records.
///
/// The canonical *ratio-of-linear* statistic: not linear in the single-sum
/// sense (no [`LinearForm`] exists), but a smooth combiner of the two linear
/// sums `(Σwx, Σw)` — exactly the shape the k-ary count-based kernel serves
/// resample-free.  Scale-free under sampling (both sums scale by `p`), so no
/// `1/p` correction is needed.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct WeightedMean;

fn weighted_mean_form() -> KaryForm {
    KaryForm::new(
        2,
        2,
        |r, out| {
            out[0] = r[0] * r[1];
            out[1] = r[1];
        },
        |s, _| {
            if s[1] == 0.0 {
                f64::NAN
            } else {
                s[0] / s[1]
            }
        },
    )
}

impl Estimator for WeightedMean {
    // Evaluating through the form keeps the k-ary contract exact: the same
    // record-order accumulation the reference path performs.
    fn estimate(&self, data: &[f64]) -> f64 {
        weighted_mean_form().evaluate(data)
    }
    fn name(&self) -> &'static str {
        "weighted_mean"
    }
    fn kary_form(&self) -> Option<KaryForm> {
        Some(weighted_mean_form())
    }
}

/// The ratio of sums `Σaᵢ / Σbᵢ` over interleaved `[a0, b0, a1, b1, …]`
/// records (e.g. revenue per click, bytes per request).
///
/// Like [`WeightedMean`] this is a smooth combiner of two linear sums, and
/// scale-free under sampling.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Ratio;

fn ratio_form() -> KaryForm {
    KaryForm::new(
        2,
        2,
        |r, out| {
            out[0] = r[0];
            out[1] = r[1];
        },
        |s, _| {
            if s[1] == 0.0 {
                f64::NAN
            } else {
                s[0] / s[1]
            }
        },
    )
}

impl Estimator for Ratio {
    fn estimate(&self, data: &[f64]) -> f64 {
        ratio_form().evaluate(data)
    }
    fn name(&self) -> &'static str {
        "ratio"
    }
    fn kary_form(&self) -> Option<KaryForm> {
        Some(ratio_form())
    }
}

/// The sample covariance (n−1 denominator) over interleaved `[x0, y0, …]`
/// pairs.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PairedCovariance;

impl Estimator for PairedCovariance {
    fn estimate(&self, data: &[f64]) -> f64 {
        let n = data.len() / 2;
        if n < 2 {
            return f64::NAN;
        }
        // Centered two-pass evaluation for the point estimate; the k-ary
        // combiner below reproduces it up to reassociation error from raw
        // sums, which is what the count-based kernel's section sums feed.
        let mx = data.iter().step_by(2).sum::<f64>() / n as f64;
        let my = data.iter().skip(1).step_by(2).sum::<f64>() / n as f64;
        let mut cov = 0.0;
        for pair in data.chunks_exact(2) {
            cov += (pair[0] - mx) * (pair[1] - my);
        }
        cov / (n - 1) as f64
    }
    fn name(&self) -> &'static str {
        "covariance"
    }
    fn kary_form(&self) -> Option<KaryForm> {
        Some(KaryForm::new(
            2,
            3,
            |r, out| {
                out[0] = r[0];
                out[1] = r[1];
                out[2] = r[0] * r[1];
            },
            |s, m| {
                if m < 2.0 {
                    f64::NAN
                } else {
                    (s[2] - s[0] * s[1] / m) / (m - 1.0)
                }
            },
        ))
    }
}

/// The ordinary-least-squares slope of `y` on `x` over interleaved
/// `[x0, y0, …]` pairs — `(m·Σxy − Σx·Σy) / (m·Σx² − (Σx)²)`.
///
/// The same statistic [`crate::least_squares::linear_fit`] computes with
/// centered sums; declaring it here as a k-ary form lets a slope's accuracy
/// estimation run resample-free, and `least_squares::slope_via_kary_form`
/// cross-checks the two arithmetics against each other.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RegressionSlope;

/// The OLS slope combiner shared by [`RegressionSlope`] and
/// [`crate::least_squares::slope_via_kary_form`]: component sums are
/// `(Σx, Σy, Σxy, Σx²)`, `m` the record count.
pub fn regression_slope_form() -> KaryForm {
    KaryForm::new(
        2,
        4,
        |r, out| {
            out[0] = r[0];
            out[1] = r[1];
            out[2] = r[0] * r[1];
            out[3] = r[0] * r[0];
        },
        |s, m| {
            if m < 2.0 {
                return f64::NAN;
            }
            let sxx = s[3] - s[0] * s[0] / m;
            if sxx <= 0.0 {
                return f64::NAN;
            }
            (s[2] - s[0] * s[1] / m) / sxx
        },
    )
}

impl Estimator for RegressionSlope {
    fn estimate(&self, data: &[f64]) -> f64 {
        let n = data.len() / 2;
        if n < 2 {
            return f64::NAN;
        }
        let mx = data.iter().step_by(2).sum::<f64>() / n as f64;
        let my = data.iter().skip(1).step_by(2).sum::<f64>() / n as f64;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for pair in data.chunks_exact(2) {
            let dx = pair[0] - mx;
            sxy += dx * (pair[1] - my);
            sxx += dx * dx;
        }
        if sxx <= 0.0 {
            return f64::NAN;
        }
        sxy / sxx
    }
    fn name(&self) -> &'static str {
        "slope"
    }
    fn kary_form(&self) -> Option<KaryForm> {
        Some(regression_slope_form())
    }
}

/// The coefficient of variation of a set of values: `std-dev / |mean|`.
///
/// This is the error measure EARL reports to the user (§3): it is applied to
/// the *bootstrap result distribution*, not to the raw data.
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::NAN;
    }
    let mean = Mean.estimate(values);
    if mean == 0.0 {
        return f64::NAN;
    }
    let sd = StdDev.estimate(values);
    sd / mean.abs()
}

/// Streaming mean/variance accumulator (Welford's algorithm), used by the
/// incremental `update()` path of EARL tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford / Chan's
    /// formula), enabling per-reducer partial states to be combined.
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (NaN if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (NaN if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Running minimum (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Running maximum (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Coefficient of variation of the accumulated observations.
    pub fn cv(&self) -> f64 {
        let mean = self.mean();
        if !mean.is_finite() || mean == 0.0 {
            return f64::NAN;
        }
        self.std_dev() / mean.abs()
    }

    /// Sum of the accumulated observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: [f64; 8] = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];

    #[test]
    fn mean_sum_count() {
        assert!((Mean.estimate(&DATA) - 5.0).abs() < 1e-12);
        assert!((Sum.estimate(&DATA) - 40.0).abs() < 1e-12);
        assert_eq!(Count.estimate(&DATA), 8.0);
        assert!(Mean.estimate(&[]).is_nan());
        assert_eq!(Sum.estimate(&[]), 0.0);
    }

    #[test]
    fn variance_and_stddev() {
        // Population variance of DATA is 4.0; sample variance is 32/7.
        assert!((Variance.estimate(&DATA) - 32.0 / 7.0).abs() < 1e-12);
        assert!((StdDev.estimate(&DATA) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(Variance.estimate(&[1.0]).is_nan());
    }

    #[test]
    fn median_and_quantiles() {
        assert!((Median.estimate(&DATA) - 4.5).abs() < 1e-12);
        assert!((Median.estimate(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(Quantile::new(0.0).estimate(&DATA), 2.0);
        assert_eq!(Quantile::new(1.0).estimate(&DATA), 9.0);
        let q25 = Quantile::new(0.25).estimate(&DATA);
        assert!((q25 - 4.0).abs() < 1e-12);
        assert!(Quantile::new(0.5).estimate(&[]).is_nan());
        // out-of-range q is clamped
        assert_eq!(Quantile::new(7.0).q(), 1.0);
    }

    /// The quantile body before selection — copy, stable sort, interpolate —
    /// kept verbatim as the oracle `Quantile::estimate` must match bit for
    /// bit.
    fn reference_quantile(quantile: &Quantile, data: &[f64]) -> f64 {
        if data.is_empty() {
            return f64::NAN;
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pos = quantile.q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// One seeded input of `len` values in one of five shapes: continuous,
    /// heavy ties around ±0, special values (NaN, ±0, ±∞, subnormals,
    /// extremes) among continuous ones, the same without NaN, and mostly
    /// zeros of both signs.
    fn hostile_input(rng: &mut rand::rngs::StdRng, shape: usize, len: usize) -> Vec<f64> {
        use rand::Rng;
        const SPECIAL: [f64; 11] = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            5e-324,
            f64::MAX,
            f64::MIN,
            1.0,
        ];
        const TIES: [f64; 6] = [-1.0, -0.0, 0.0, 1.0, 2.0, 2.0];
        (0..len)
            .map(|_| match shape {
                0 => rng.gen_range(-1e3..1e3),
                1 => TIES[rng.gen_range(0..TIES.len())],
                2 if rng.gen_bool(0.3) => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                3 if rng.gen_bool(0.3) => SPECIAL[rng.gen_range(1..SPECIAL.len())],
                4 if rng.gen_bool(0.8) => [0.0, -0.0][rng.gen_range(0..2usize)],
                _ => rng.gen_range(-4.0..4.0),
            })
            .collect()
    }

    #[test]
    fn selection_matches_the_stable_sort_bit_for_bit() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e1ec7);
        let (mut selected, mut sorted, mut nan) = (0usize, 0usize, 0usize);
        let mut check = |data: &[f64], q: f64| {
            let quantile = Quantile::new(q);
            let observed = quantile.estimate(data);
            if data.iter().any(|x| x.is_nan()) {
                // The stable sort cannot order a NaN (it may panic); the
                // quantile of such data is NaN.
                assert!(observed.is_nan(), "q = {q}, n = {}: NaN input", data.len());
                nan += 1;
                return;
            }
            assert_eq!(
                observed.to_bits(),
                reference_quantile(&quantile, data).to_bits(),
                "q = {q}, n = {}: selection vs the stable sort",
                data.len()
            );
            let pos = quantile.q * (data.len() - 1) as f64;
            let mut scratch = data.to_vec();
            match select_order_statistics(&mut scratch, pos.floor() as usize, pos.ceil() as usize) {
                Some(_) => selected += 1,
                None => sorted += 1,
            }
        };
        for len in (1..=257).chain([9_999, 10_000, 10_001]) {
            for shape in 0..5 {
                let data = hostile_input(&mut rng, shape, len);
                for q in [0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0] {
                    check(&data, q);
                }
                // Levels k/(n-1), whose position is the integer k up to
                // rounding: no interpolation, or a vanishing one.
                let last = (len - 1) as f64;
                for k in [1.0, (last / 2.0).floor(), last - 1.0] {
                    if k > 0.0 {
                        check(&data, k / last);
                    }
                }
            }
        }
        // All three paths ran many times over.
        assert!(selected > 1_000, "selection decided only {selected} cases");
        assert!(sorted > 1_000, "the fallback decided only {sorted} cases");
        assert!(nan > 1_000, "only {nan} inputs held a NaN");
    }

    #[test]
    fn min_max() {
        assert_eq!(Min.estimate(&DATA), 2.0);
        assert_eq!(Max.estimate(&DATA), 9.0);
        assert!(Min.estimate(&[]).is_nan());
        assert!(Max.estimate(&[]).is_nan());
    }

    #[test]
    fn correlation_of_perfectly_linear_data_is_one() {
        let pairs: Vec<f64> = (0..50)
            .flat_map(|i| [i as f64, 2.0 * i as f64 + 1.0])
            .collect();
        assert!((PairedCorrelation.estimate(&pairs) - 1.0).abs() < 1e-9);
        let anti: Vec<f64> = (0..50).flat_map(|i| [i as f64, -3.0 * i as f64]).collect();
        assert!((PairedCorrelation.estimate(&anti) + 1.0).abs() < 1e-9);
        assert!(PairedCorrelation.estimate(&[1.0, 2.0]).is_nan());
        // constant series has undefined correlation
        let flat: Vec<f64> = (0..10).flat_map(|i| [i as f64, 5.0]).collect();
        assert!(PairedCorrelation.estimate(&flat).is_nan());
    }

    #[test]
    fn cv_of_distribution() {
        let values = [10.0, 10.0, 10.0];
        assert!(coefficient_of_variation(&values) < 1e-12);
        assert!(coefficient_of_variation(&[1.0]).is_nan());
        let spread = [5.0, 15.0];
        assert!(coefficient_of_variation(&spread) > 0.5);
    }

    #[test]
    fn closures_are_estimators() {
        let range = |data: &[f64]| Max.estimate(data) - Min.estimate(data);
        assert_eq!(range.estimate(&DATA), 7.0);
        assert_eq!(range.name(), "closure");
    }

    #[test]
    fn streaming_matches_batch() {
        let mut s = StreamingStats::new();
        for x in DATA {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - Mean.estimate(&DATA)).abs() < 1e-12);
        assert!((s.variance() - Variance.estimate(&DATA)).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
        assert!(s.cv() > 0.0);
    }

    #[test]
    fn streaming_merge_matches_single_pass() {
        let (left, right) = DATA.split_at(3);
        let mut a = StreamingStats::new();
        for &x in left {
            a.push(x);
        }
        let mut b = StreamingStats::new();
        for &x in right {
            b.push(x);
        }
        let mut merged = a;
        merged.merge(&b);
        let mut single = StreamingStats::new();
        for x in DATA {
            single.push(x);
        }
        assert!((merged.mean() - single.mean()).abs() < 1e-12);
        assert!((merged.variance() - single.variance()).abs() < 1e-12);
        assert_eq!(merged.count(), single.count());

        // merging with an empty accumulator is the identity
        let mut c = StreamingStats::new();
        c.merge(&single);
        assert!((c.mean() - single.mean()).abs() < 1e-12);
        let mut d = single;
        d.merge(&StreamingStats::new());
        assert!((d.variance() - single.variance()).abs() < 1e-12);
    }

    #[test]
    fn linear_forms_reproduce_their_estimators() {
        for est in [&Mean as &dyn Estimator, &Sum, &Count] {
            let form = est.linear_form().expect("linear estimator");
            let sum: f64 = DATA.iter().sum();
            assert_eq!(
                form.finalize(sum, DATA.len() as f64).to_bits(),
                est.estimate(&DATA).to_bits(),
                "{}",
                Estimator::name(est)
            );
        }
        assert!(Mean.linear_form().unwrap().finalize(0.0, 0.0).is_nan());
        assert!(Median.linear_form().is_none(), "order statistics stay out");
        assert!(Variance.linear_form().is_none(), "second moments stay out");
        let closure = |data: &[f64]| data.len() as f64;
        assert!(Estimator::linear_form(&closure).is_none());
    }

    #[test]
    fn kary_forms_reproduce_their_estimators() {
        // Interleaved (x, y) pairs with a known linear relationship + kink.
        let pairs: Vec<f64> = (0..60)
            .flat_map(|i| {
                let x = i as f64;
                [x, 3.0 * x + if i % 2 == 0 { 1.0 } else { -1.0 }]
            })
            .collect();
        for est in [
            &WeightedMean as &dyn Estimator,
            &Ratio,
            &PairedCovariance,
            &PairedCorrelation,
            &RegressionSlope,
        ] {
            let form = est.kary_form().expect("k-ary estimator");
            assert_eq!(form.stride(), 2);
            assert_eq!(Estimator::record_stride(est), 2);
            let direct = est.estimate(&pairs);
            let via_form = form.evaluate(&pairs);
            assert!(
                ((direct - via_form) / direct).abs() < 1e-9,
                "{}: {direct} vs {via_form}",
                Estimator::name(est)
            );
        }
        // Scalar estimators stay stride-1 with no k-ary form.
        assert!(Estimator::kary_form(&Mean).is_none());
        assert_eq!(Estimator::record_stride(&Mean), 1);
        assert!(Estimator::kary_form(&Median).is_none());
    }

    #[test]
    fn weighted_mean_and_ratio_values() {
        // (x, w): 10 with weight 1, 20 with weight 3 → (10 + 60) / 4 = 17.5.
        let data = [10.0, 1.0, 20.0, 3.0];
        assert!((WeightedMean.estimate(&data) - 17.5).abs() < 1e-12);
        // Equal weights degrade to the plain mean.
        let flat = [4.0, 1.0, 8.0, 1.0];
        assert_eq!(WeightedMean.estimate(&flat), 6.0);
        // All-zero weights are undefined, not a crash or an Inf.
        assert!(WeightedMean.estimate(&[5.0, 0.0, 7.0, 0.0]).is_nan());
        assert!(WeightedMean.estimate(&[]).is_nan());

        // (a, b): Σa = 30, Σb = 6.
        let ratio = [10.0, 2.0, 20.0, 4.0];
        assert_eq!(Ratio.estimate(&ratio), 5.0);
        assert!(Ratio.estimate(&[1.0, 0.0, -1.0, 0.0]).is_nan());
    }

    #[test]
    fn covariance_and_slope_match_closed_forms() {
        // y = 2x + 1 exactly: slope 2, correlation 1, cov = 2·var(x).
        let pairs: Vec<f64> = (0..50)
            .flat_map(|i| [i as f64, 2.0 * i as f64 + 1.0])
            .collect();
        assert!((RegressionSlope.estimate(&pairs) - 2.0).abs() < 1e-9);
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let var_x = Variance.estimate(&xs);
        assert!((PairedCovariance.estimate(&pairs) - 2.0 * var_x).abs() < 1e-9);
        // Degenerate inputs.
        assert!(PairedCovariance.estimate(&[1.0, 2.0]).is_nan());
        assert!(RegressionSlope.estimate(&[1.0, 2.0]).is_nan());
        let const_x: Vec<f64> = (0..10).flat_map(|i| [5.0, i as f64]).collect();
        assert!(RegressionSlope.estimate(&const_x).is_nan(), "vertical line");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn kary_form_rejects_excess_arity() {
        KaryForm::new(2, MAX_KARY_COMPONENTS + 1, |_, _| {}, |_, _| 0.0);
    }

    #[test]
    fn empty_streaming_stats_are_nan() {
        let s = StreamingStats::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert!(s.cv().is_nan());
    }
}
