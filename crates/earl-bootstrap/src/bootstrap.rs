//! Monte-Carlo bootstrap resampling (§3, §3.1 of the paper).
//!
//! Given a sample `s` of size `n` and a function of interest `f`, the bootstrap
//! draws `B` resamples of size `n` **with replacement** from `s`, evaluates `f`
//! on each, and uses the resulting *result distribution* to estimate the
//! accuracy of `f(s)`: its standard error, bias, coefficient of variation and
//! confidence intervals.  The Monte-Carlo variance estimate is
//!
//! ```text
//! σ̂²_B = (1/B) Σ (θ̂*_b − θ̄*)²
//! ```
//!
//! exactly as in the paper's §3.
//!
//! ## Execution model
//!
//! The `B` replicates are embarrassingly parallel, and EARL's whole value
//! proposition depends on the error-estimation overhead staying small relative
//! to the job.  [`bootstrap_distribution`] therefore evaluates replicates
//! across a scoped thread pool with per-worker reusable scratch state, so the
//! steady state performs **zero allocations per replicate**.  Replicate `b`
//! draws from an RNG stream derived deterministically from `(seed, b)` via
//! SplitMix64 ([`crate::rng::replicate_rng`]), which makes results
//! bit-identical for every thread count.
//!
//! ## Replicate-evaluation kernels
//!
//! A replicate is evaluated by one of two kernels ([`ResolvedKernel`]):
//!
//! * **Gather** — materialise the resample into a scratch buffer
//!   ([`Resampler::resample_into`]) and run [`Estimator::estimate`] over it.
//!   Serves every estimator, order statistics included.
//! * **CountBased** — resample-free evaluation for *linear* statistics
//!   (`θ = g(Σ cᵢxᵢ, Σ cᵢ)`): draw one multinomial count vector over `O(√n)`
//!   sections of the base sample per replicate and evaluate from section
//!   summaries in `O(√n)` — no per-element draws at all, the O(n) → O(√n·B)
//!   reduction of the roadmap.  Section counts come from sequential
//!   conditional binomials ([`crate::rng::binomial_sample`]: exact Bernoulli
//!   sums at ≤64 trials, the paper's Eq. 3 Gaussian approximation above);
//!   within a section the contribution applies the same Gaussian move to the
//!   value sum.  In the idealised scheme (exact binomials) the bootstrap
//!   result distribution's mean and variance — and hence EARL's error
//!   measure, the cv — are reproduced *exactly*; the Eq. 3 count
//!   approximation perturbs them only by its rounding/clamping, and higher
//!   moments converge at `O(1/√n)`.  The `tests/kernel_equivalence.rs` suite
//!   pins the realised moments against the gather kernel's.
//!
//!   The same kernel also serves **k-ary linear forms**
//!   ([`crate::estimators::KaryForm`]): statistics that are smooth combiners
//!   of a tuple of per-record linear sums (weighted mean, ratio, paired
//!   covariance, correlation, regression slope).  [`KarySections`] draws one
//!   multinomial count per replicate and reconstructs *all* `k` section-sums
//!   from per-section mean vectors and covariance Cholesky factors, so the
//!   cross-component correlation that a ratio's variance depends on is
//!   preserved — `O(k·√n)` draws per replicate instead of `O(n)`.
//!
//! [`BootstrapKernel::Auto`] (the default) resolves each estimator to
//! CountBased when it declares [`Estimator::linear_form`] or
//! [`Estimator::kary_form`], and to Gather otherwise;
//! [`BootstrapKernel::Gather`] forces the gather kernel, the reference the
//! count-based kernel is checked against.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::estimators::{
    coefficient_of_variation, Estimator, KaryComponents, KaryForm, LinearForm, Mean, StdDev,
    MAX_KARY_COMPONENTS,
};
use crate::parallel::{replicate_map, workers_for};
use crate::rng::{
    binomial_sample, replicate_rng, sample_indices_with_replacement_into, standard_normal,
};
use crate::{Result, StatsError};

/// Which per-replicate evaluation kernel the bootstrap machinery uses.
///
/// Every kernel derives replicate `b`'s randomness from the same
/// `(seed, b)` SplitMix64 stream, so each kernel's output is a pure function
/// of the seed — bit-identical at every thread count, with `B`-growth
/// preserving the replicate prefix.  See the module docs for the kernel
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BootstrapKernel {
    /// Pick per estimator: [`ResolvedKernel::CountBased`] for linear and
    /// k-ary-linear statistics, [`ResolvedKernel::Gather`] otherwise.
    #[default]
    Auto,
    /// Materialise every resample into a scratch buffer and re-scan it, for
    /// every estimator — the reference the count-based kernel is checked
    /// against.
    Gather,
}

/// The kernel actually executed after resolving [`BootstrapKernel`] against an
/// estimator's declared capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedKernel {
    /// Gather-and-rescan.
    Gather,
    /// Resample-free count-vector evaluation.
    CountBased,
}

impl BootstrapKernel {
    /// Resolves the kernel for i.i.d. resampling of `estimator`: under `Auto`
    /// an estimator declaring [`Estimator::linear_form`] or
    /// [`Estimator::kary_form`] always lands on `CountBased` — never silently
    /// on the gather kernel — and every other estimator gathers.
    pub fn resolve_for(self, estimator: &(impl Estimator + ?Sized)) -> ResolvedKernel {
        match self {
            BootstrapKernel::Auto
                if estimator.linear_form().is_some() || estimator.kary_form().is_some() =>
            {
                ResolvedKernel::CountBased
            }
            _ => ResolvedKernel::Gather,
        }
    }
}

/// Configuration of a bootstrap run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BootstrapConfig {
    /// Number of resamples `B`; each resample is as large as the sample (the
    /// standard bootstrap).
    pub num_resamples: usize,
    /// Worker threads used to evaluate the replicates; `None` means one per
    /// available core.  Any value yields bit-identical results — replicate RNG
    /// streams depend only on `(seed, replicate index)`.
    pub parallelism: Option<usize>,
    /// Replicate-evaluation kernel (see [`BootstrapKernel`]; the default
    /// `Auto` picks the fastest kernel each estimator supports).
    pub kernel: BootstrapKernel,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        // The paper observes ≈30 bootstraps normally suffice for a confident
        // estimate of the error (§3.1 / Fig. 2a).
        Self {
            num_resamples: 30,
            parallelism: None,
            kernel: BootstrapKernel::Auto,
        }
    }
}

impl BootstrapConfig {
    /// Creates a configuration with `b` resamples of the full sample size.
    pub fn with_resamples(b: usize) -> Self {
        Self {
            num_resamples: b,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count (`None` = all cores).
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the replicate-evaluation kernel.
    pub fn with_kernel(mut self, kernel: BootstrapKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The worker count actually used for `resample_size`-element resamples:
    /// the configured parallelism, downgraded to 1 when the total work is too
    /// small to amortise a fork-join.
    pub fn effective_parallelism(&self, resample_size: usize) -> usize {
        workers_for(
            self.num_resamples.saturating_mul(resample_size),
            self.parallelism,
        )
        .min(self.num_resamples.max(1))
    }
}

/// The outcome of a bootstrap run: the result distribution and derived
/// accuracy measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootstrapResult {
    /// The statistic evaluated on the original sample, `f(s)`.
    pub point_estimate: f64,
    /// The statistic evaluated on each resample, `θ̂*_1 … θ̂*_B`.
    pub replicates: Vec<f64>,
    /// Mean of the replicates, `θ̄*`.
    pub replicate_mean: f64,
    /// Bootstrap standard error (standard deviation of the replicates).
    pub std_error: f64,
    /// Bootstrap estimate of bias, `θ̄* − f(s)`.
    pub bias: f64,
    /// Coefficient of variation of the result distribution — the error measure
    /// EARL reports to the user.
    pub cv: f64,
}

impl BootstrapResult {
    /// A percentile confidence interval at level `1 − alpha` (e.g. `alpha =
    /// 0.05` for a 95 % interval).
    ///
    /// Uses `select_nth_unstable` order statistics — O(B) per call instead of
    /// a full O(B log B) sort of the replicate vector.  NaN replicates order
    /// above every number.
    pub fn percentile_ci(&self, alpha: f64) -> (f64, f64) {
        let alpha = alpha.clamp(0.0, 1.0);
        let b = self.replicates.len();
        if b == 0 {
            return (f64::NAN, f64::NAN);
        }
        let lo_idx = ((alpha / 2.0) * (b - 1) as f64).round() as usize;
        let hi_idx = (((1.0 - alpha / 2.0) * (b - 1) as f64).round() as usize).min(b - 1);
        // NaN replicates order last, so the comparator is a total order.
        let cmp = |a: &f64, b: &f64| {
            a.partial_cmp(b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
        };
        let mut scratch = self.replicates.clone();
        let (_, lo, upper) = scratch.select_nth_unstable_by(lo_idx, cmp);
        let lo = *lo;
        let hi = if hi_idx > lo_idx {
            *upper.select_nth_unstable_by(hi_idx - lo_idx - 1, cmp).1
        } else {
            lo
        };
        (lo, hi)
    }
}

/// Reusable scratch state for the gather kernel: the index/value buffer pair
/// ([`Resampler::resample_into`]).  After warm-up it performs no allocation
/// at all across replicates.
///
/// Each worker thread owns exactly one `Resampler`.
#[derive(Debug, Default)]
pub struct Resampler {
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Resampler {
    /// Creates an empty resampler (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a resampler with buffers pre-sized for `size`-element
    /// resamples.
    pub fn with_capacity(size: usize) -> Self {
        Self {
            indices: Vec::with_capacity(size),
            values: Vec::with_capacity(size),
        }
    }

    /// Draws one resample of `size` elements from `data` (with replacement)
    /// into the internal value buffer and returns it as a slice.
    pub fn resample_into<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data: &[f64],
        size: usize,
    ) -> &[f64] {
        sample_indices_with_replacement_into(rng, data.len(), size, &mut self.indices);
        self.values.clear();
        self.values.reserve(self.indices.len());
        self.values.extend(self.indices.iter().map(|&i| data[i]));
        &self.values
    }

    /// Evaluates `estimator` on one freshly drawn resample of the replicate
    /// stream `(seed, replicate)` — the unit of work the thread pool executes.
    ///
    /// For estimators whose [`Estimator::record_stride`] exceeds 1 the
    /// resample is drawn in **whole records** (`size` is a record count): one
    /// index draw copies the record's `stride` consecutive values, so paired
    /// columns are never split.  Stride-1 estimators draw one value per index.
    pub fn replicate<E: Estimator + ?Sized>(
        &mut self,
        seed: u64,
        replicate: u64,
        data: &[f64],
        size: usize,
        estimator: &E,
    ) -> f64 {
        let mut rng = replicate_rng(seed, replicate);
        let stride = estimator.record_stride().max(1);
        if stride == 1 {
            return estimator.estimate(self.resample_into(&mut rng, data, size));
        }
        let n_records = data.len() / stride;
        if n_records == 0 {
            return f64::NAN;
        }
        self.values.clear();
        self.values.reserve(size * stride);
        for _ in 0..size {
            let r = rng.gen_range(0..n_records);
            self.values
                .extend_from_slice(&data[r * stride..(r + 1) * stride]);
        }
        estimator.estimate(&self.values)
    }
}

/// One section of the count-based kernel's base-sample summary: enough to
/// reconstruct its contribution to any linear statistic from a resample count.
#[derive(Debug, Clone, Copy)]
struct Section {
    len: u64,
    mean: f64,
    /// Population (within-section) standard deviation.
    sd: f64,
}

/// The count-based kernel's precomputed view of a base sample: `O(√n)`
/// contiguous sections, each summarised by its length, mean and within-section
/// standard deviation.  Built once per bootstrap run in a single O(n) pass.
///
/// A replicate is then evaluated **without drawing a single element**: the
/// per-section resample counts `(m₁, …, m_k)` form a multinomial draw via
/// sequential conditional binomials (exact at ≤64 remaining trials,
/// Eq. 3-Gaussian above — see [`crate::rng::binomial_sample`]), and section
/// `j` contributes `mⱼ·μⱼ + σⱼ·√mⱼ·z` to the weighted sum — the Gaussian
/// approximation of a size-`mⱼ` with-replacement sum, the same move as the
/// paper's Eq. 3.  The resulting replicate distribution matches the gather
/// bootstrap's mean and variance up to that count approximation (exactly, in
/// the idealised exact-binomial scheme — see the module docs), at `O(√n)`
/// cost per replicate instead of `O(n)`.
#[derive(Debug, Clone)]
pub struct LinearSections {
    sections: Vec<Section>,
    total: u64,
}

impl LinearSections {
    /// Summarises `data` into `⌈√n⌉` sections (single O(n) pass).
    pub fn build(data: &[f64]) -> Self {
        let n = data.len();
        let k = (n as f64).sqrt().ceil().max(1.0) as usize;
        let chunk = n.div_ceil(k).max(1);
        let sections = data
            .chunks(chunk)
            .map(|c| {
                let len = c.len() as f64;
                let mean = c.iter().sum::<f64>() / len;
                let var = c.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / len;
                Section {
                    len: c.len() as u64,
                    mean,
                    sd: var.max(0.0).sqrt(),
                }
            })
            .collect();
        Self {
            sections,
            total: n as u64,
        }
    }

    /// Rebuilds a summary from `(len, mean, sd)` parts previously obtained via
    /// [`LinearSections::parts`] — the deserialisation half of shipping a
    /// summary over a wire.  The parts are taken verbatim (every f64 bit
    /// pattern is preserved, including non-finite values); only the structural
    /// invariant is checked: section lengths must sum to `total_items`.
    pub fn from_parts(
        total_items: u64,
        parts: impl IntoIterator<Item = (u64, f64, f64)>,
    ) -> Result<Self> {
        let sections: Vec<Section> = parts
            .into_iter()
            .map(|(len, mean, sd)| Section { len, mean, sd })
            .collect();
        let summed: u64 = sections.iter().map(|s| s.len).sum();
        if summed != total_items {
            return Err(StatsError::InvalidParameter(format!(
                "section lengths sum to {summed}, not the claimed {total_items} items"
            )));
        }
        if sections.is_empty() && total_items > 0 {
            return Err(StatsError::InvalidParameter(
                "a non-empty summary needs at least one section".into(),
            ));
        }
        Ok(Self {
            sections,
            total: total_items,
        })
    }

    /// The `(len, mean, sd)` summary of each section, in section order — the
    /// serialisation half of shipping a summary over a wire.  Together with
    /// [`LinearSections::total_items`] this is the complete state:
    /// `from_parts(total_items(), parts())` rebuilds an identical summary.
    pub fn parts(&self) -> impl Iterator<Item = (u64, f64, f64)> + '_ {
        self.sections.iter().map(|s| (s.len, s.mean, s.sd))
    }

    /// Number of sections (the per-replicate cost of the count-based kernel).
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }

    /// Number of sections [`LinearSections::build`] creates for an `n`-item
    /// sample, without building them — used by cost accounting.
    pub fn section_count(n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let k = (n as f64).sqrt().ceil().max(1.0) as usize;
        let chunk = n.div_ceil(k).max(1);
        n.div_ceil(chunk)
    }

    /// Items summarised.
    pub fn total_items(&self) -> u64 {
        self.total
    }

    /// Evaluates one `size`-element bootstrap replicate of the linear
    /// statistic `form` from this summary — `O(num_sections)` RNG draws and
    /// arithmetic, no element access.
    pub fn replicate<R: Rng + ?Sized>(&self, rng: &mut R, size: usize, form: LinearForm) -> f64 {
        let mut remaining_draws = size as u64;
        let mut remaining_items = self.total;
        let mut sum = 0.0;
        for s in &self.sections {
            if remaining_draws == 0 {
                break;
            }
            // Multinomial via sequential conditional binomials (exact for
            // small remaining draw counts, Eq. 3-Gaussian above 64 trials):
            // the count landing in this section, given what earlier sections
            // took.
            let m = if s.len >= remaining_items {
                remaining_draws
            } else {
                binomial_sample(rng, remaining_draws, s.len as f64 / remaining_items as f64)
            };
            remaining_items -= s.len;
            remaining_draws -= m;
            if m > 0 {
                sum += m as f64 * s.mean;
                if s.sd > 0.0 {
                    // Gaussian approximation of the sum of m with-replacement
                    // draws from this section (paper Eq. 3 at section level).
                    sum += s.sd * (m as f64).sqrt() * standard_normal(rng);
                }
            }
        }
        form.finalize(sum, size as f64)
    }
}

/// One section of the k-ary count-based kernel's summary: the per-component
/// mean vector plus the lower-triangular Cholesky factor of the within-section
/// component covariance, so a section's contribution to *all* `k` sums can be
/// reconstructed — with the right cross-component correlation — from one
/// resample count.
#[derive(Debug, Clone)]
struct KarySection {
    len: u64,
    mean: KaryComponents,
    /// Lower-triangular Cholesky factor `L` with `L·Lᵀ = Σ` (within-section
    /// population covariance of the component vector).  Degenerate directions
    /// (zero-variance components, exact collinearity) get zeroed columns, so
    /// no noise is injected where the section has none.
    chol: [KaryComponents; MAX_KARY_COMPONENTS],
}

/// The k-ary count-based kernel's precomputed view of a base sample: `O(√n)`
/// contiguous *record* sections, each summarised by its length, component-mean
/// vector and the Cholesky factor of its within-section component covariance.
/// Built once per bootstrap run in a single pass over the records.
///
/// A replicate evaluates **all `k` component sums from one multinomial count
/// draw**: section `j`'s resample count `mⱼ` comes from the same sequential
/// conditional binomials as the scalar [`LinearSections`] kernel, and its
/// contribution to the sum vector is `mⱼ·μⱼ + √mⱼ·Lⱼ·z` with `z ~ N(0, I_k)`
/// — the multivariate Eq. 3 move, preserving the joint distribution of the
/// section's sums including their cross-component covariance (which is what a
/// ratio/correlation combiner's variance depends on).  The combiner then maps
/// the sums to the statistic: `O(k·√n)` RNG draws and `O(k²·√n)` arithmetic
/// per replicate, never touching a record.
#[derive(Debug, Clone)]
pub struct KarySections {
    arity: usize,
    stride: usize,
    sections: Vec<KarySection>,
    total_records: u64,
}

impl KarySections {
    /// Summarises the interleaved sample `data` (records of `form.stride()`
    /// consecutive values) into `⌈√n_records⌉` sections.
    ///
    /// Returns an error when `data` is not a whole number of records.
    pub fn build(data: &[f64], form: &KaryForm) -> Result<Self> {
        let stride = form.stride();
        if data.len() % stride != 0 {
            return Err(StatsError::InvalidParameter(format!(
                "sample of {} values is not a whole number of {stride}-column records",
                data.len()
            )));
        }
        let arity = form.arity();
        let n = data.len() / stride;
        let k = (n as f64).sqrt().ceil().max(1.0) as usize;
        let records_per_section = n.div_ceil(k).max(1);
        let mut sections = Vec::with_capacity(n.div_ceil(records_per_section.max(1)).max(1));
        let mut scratch = [0.0; MAX_KARY_COMPONENTS];
        for chunk in data.chunks(records_per_section * stride) {
            let len = chunk.len() / stride;
            // First pass: component means.
            let mut mean = [0.0; MAX_KARY_COMPONENTS];
            for record in chunk.chunks_exact(stride) {
                form.components_of(record, &mut scratch);
                for c in 0..arity {
                    mean[c] += scratch[c];
                }
            }
            for m in mean.iter_mut().take(arity) {
                *m /= len as f64;
            }
            // Second pass: centered outer products → within-section population
            // covariance.  Sections hold O(√n) records, so the extra pass costs
            // the same O(n·k²) as the accumulation itself.
            let mut cov = [[0.0; MAX_KARY_COMPONENTS]; MAX_KARY_COMPONENTS];
            for record in chunk.chunks_exact(stride) {
                form.components_of(record, &mut scratch);
                for i in 0..arity {
                    let di = scratch[i] - mean[i];
                    for j in 0..=i {
                        cov[i][j] += di * (scratch[j] - mean[j]);
                    }
                }
            }
            for row in cov.iter_mut().take(arity) {
                for v in row.iter_mut().take(arity) {
                    *v /= len as f64;
                }
            }
            sections.push(KarySection {
                len: len as u64,
                mean,
                chol: cholesky_lower(&cov, arity),
            });
        }
        Ok(Self {
            arity,
            stride,
            sections,
            total_records: n as u64,
        })
    }

    /// Rebuilds a summary from parts previously obtained via
    /// [`KarySections::parts`] — the deserialisation half of shipping a
    /// summary over a wire.  Every f64 bit pattern is preserved verbatim
    /// (including non-finite values); the structural invariants checked are
    /// the ones [`KarySections::build`] guarantees: `1 ≤ arity ≤`
    /// [`MAX_KARY_COMPONENTS`], `stride ≥ 1` and section lengths summing to
    /// `total_records`.
    pub fn from_parts(
        stride: usize,
        arity: usize,
        total_records: u64,
        parts: impl IntoIterator<Item = (u64, KaryComponents, [KaryComponents; MAX_KARY_COMPONENTS])>,
    ) -> Result<Self> {
        if arity == 0 || arity > MAX_KARY_COMPONENTS {
            return Err(StatsError::InvalidParameter(format!(
                "arity {arity} is outside 1..={MAX_KARY_COMPONENTS}"
            )));
        }
        if stride == 0 {
            return Err(StatsError::InvalidParameter("stride must be ≥ 1".into()));
        }
        let sections: Vec<KarySection> = parts
            .into_iter()
            .map(|(len, mean, chol)| KarySection { len, mean, chol })
            .collect();
        let summed: u64 = sections.iter().map(|s| s.len).sum();
        if summed != total_records {
            return Err(StatsError::InvalidParameter(format!(
                "section lengths sum to {summed}, not the claimed {total_records} records"
            )));
        }
        if sections.is_empty() && total_records > 0 {
            return Err(StatsError::InvalidParameter(
                "a non-empty summary needs at least one section".into(),
            ));
        }
        Ok(Self {
            arity,
            stride,
            sections,
            total_records,
        })
    }

    /// The `(len, mean vector, Cholesky factor)` summary of each section, in
    /// section order — the serialisation half of shipping a summary over a
    /// wire.  Only the leading [`KarySections::arity`] entries of the mean and
    /// the lower triangle of the factor carry information; the rest is zero
    /// padding.  `from_parts(stride(), arity(), total_records(), parts())`
    /// rebuilds an identical summary.
    pub fn parts(
        &self,
    ) -> impl Iterator<Item = (u64, &KaryComponents, &[KaryComponents; MAX_KARY_COMPONENTS])> + '_
    {
        self.sections.iter().map(|s| (s.len, &s.mean, &s.chol))
    }

    /// Components per record the summary reconstructs (`k` of the k-ary form).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of sections (the per-replicate cost factor).  Identical to
    /// [`LinearSections::section_count`] of the record count.
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }

    /// Records summarised.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Values per record in the interleaved sample this summary was built
    /// from.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Evaluates one `size`-record bootstrap replicate of the k-ary statistic
    /// `form` from this summary — `O(arity)` RNG draws per section and no
    /// record access.
    pub fn replicate<R: Rng + ?Sized>(&self, rng: &mut R, size: usize, form: &KaryForm) -> f64 {
        let arity = self.arity;
        let mut remaining_draws = size as u64;
        let mut remaining_records = self.total_records;
        let mut sums = [0.0; MAX_KARY_COMPONENTS];
        let mut z = [0.0; MAX_KARY_COMPONENTS];
        for s in &self.sections {
            if remaining_draws == 0 {
                break;
            }
            // The same sequential conditional binomial as the scalar kernel:
            // the count landing in this section, given what earlier sections
            // took.
            let m = if s.len >= remaining_records {
                remaining_draws
            } else {
                binomial_sample(
                    rng,
                    remaining_draws,
                    s.len as f64 / remaining_records as f64,
                )
            };
            remaining_records -= s.len;
            remaining_draws -= m;
            if m > 0 {
                let mf = m as f64;
                let root = mf.sqrt();
                // One z per component, always drawn — the stream length per
                // section is data-independent, so degenerate sections cannot
                // shift later sections' randomness.
                for zi in z.iter_mut().take(arity) {
                    *zi = standard_normal(rng);
                }
                for (i, ((sum, mean), row)) in sums
                    .iter_mut()
                    .zip(&s.mean)
                    .zip(&s.chol)
                    .enumerate()
                    .take(arity)
                {
                    let noise: f64 = row.iter().zip(&z).take(i + 1).map(|(l, zj)| l * zj).sum();
                    *sum += mf * mean + root * noise;
                }
            }
        }
        form.combine(&sums, size as f64)
    }
}

/// Cholesky factorisation of the leading `arity×arity` block of a symmetric
/// positive *semi*-definite matrix (lower triangle of `cov` filled).
/// Zero/negative pivots — constant components, exact collinearity, rounding —
/// zero out their column instead of failing, dropping the (non-existent)
/// noise in that direction.
fn cholesky_lower(
    cov: &[[f64; MAX_KARY_COMPONENTS]; MAX_KARY_COMPONENTS],
    arity: usize,
) -> [KaryComponents; MAX_KARY_COMPONENTS] {
    let mut l = [[0.0; MAX_KARY_COMPONENTS]; MAX_KARY_COMPONENTS];
    for j in 0..arity {
        let d = cov[j][j] - l[j][..j].iter().map(|v| v * v).sum::<f64>();
        // Tolerance scaled to the diagonal magnitude: semidefinite inputs can
        // land a hair below zero after the subtractions.
        if d <= 1e-12 * cov[j][j].abs().max(1e-300) {
            continue; // column stays zero
        }
        let root = d.sqrt();
        l[j][j] = root;
        let row_j = l[j];
        for i in (j + 1)..arity {
            let dot: f64 = l[i][..j].iter().zip(&row_j[..j]).map(|(a, b)| a * b).sum();
            l[i][j] = (cov[i][j] - dot) / root;
        }
    }
    l
}

/// A count-based section summary paired with the form that evaluates it: the
/// complete, self-contained state a replicate evaluation needs.  This is what
/// [`bootstrap_distribution`] builds internally when the kernel resolves to
/// [`ResolvedKernel::CountBased`], exposed so callers (SSABE, a wire
/// transport) can build it once and evaluate replicates from it anywhere.
#[derive(Debug, Clone)]
pub enum BuiltSections {
    /// Scalar linear statistic: [`LinearSections`] + the finishing form.
    Linear(LinearSections, LinearForm),
    /// K-ary linear statistic: [`KarySections`] + the combining form.
    Kary(KarySections, KaryForm),
}

impl BuiltSections {
    /// Builds the section summary for `estimator` over `data` when `kernel`
    /// resolves to the count-based kernel; `Ok(None)` when it does not (the
    /// estimator needs materialised resamples).  The unary linear form is the
    /// cheaper special case and wins when an estimator declares both.
    pub fn build_for(
        data: &[f64],
        estimator: &(impl Estimator + ?Sized),
        kernel: BootstrapKernel,
    ) -> Result<Option<Self>> {
        if kernel.resolve_for(estimator) != ResolvedKernel::CountBased {
            return Ok(None);
        }
        Ok(Some(match estimator.linear_form() {
            Some(form) => BuiltSections::Linear(LinearSections::build(data), form),
            None => {
                let form = estimator
                    .kary_form()
                    .expect("CountBased resolution implies a linear or k-ary form");
                BuiltSections::Kary(KarySections::build(data, &form)?, form)
            }
        }))
    }

    /// Evaluates one `size`-record replicate from the summary.  Replicate `b`
    /// of a run is `replicate(&mut replicate_rng(seed, b), size)` — a pure
    /// function of `(summary, seed, b, size)`, which is what makes remotely
    /// evaluated replicates bit-identical to local ones.
    pub fn replicate<R: Rng + ?Sized>(&self, rng: &mut R, size: usize) -> f64 {
        match self {
            BuiltSections::Linear(sections, form) => sections.replicate(rng, size, *form),
            BuiltSections::Kary(sections, form) => sections.replicate(rng, size, form),
        }
    }

    /// Number of sections in the summary (the per-replicate cost factor and
    /// the O(√n) payload size of shipping it).
    pub fn num_sections(&self) -> usize {
        match self {
            BuiltSections::Linear(sections, _) => sections.num_sections(),
            BuiltSections::Kary(sections, _) => sections.num_sections(),
        }
    }
}

/// A hook that evaluates count-based replicates somewhere other than the
/// local thread pool — e.g. on remote workers holding a provisioned copy of
/// the section summary.  Called as `evaluator(sections, seed, b_start,
/// b_count, size)`; a conforming implementation returns exactly `b_count`
/// replicates where entry `i` is bit-identical to
/// `sections.replicate(&mut replicate_rng(seed, b_start + i), size)`, or
/// `None` to decline (the caller then evaluates locally — same bits either
/// way).  Since replicate `b` is a pure function of `(seed, b)`, local and
/// remote evaluation can be mixed freely within one run.
pub type SectionEvaluator =
    dyn Fn(&BuiltSections, u64, u64, u64, usize) -> Option<Vec<f64>> + Send + Sync;

/// Runs the Monte-Carlo bootstrap: `config.num_resamples` resamples of `data`,
/// each pushed through `estimator`, evaluated across a scoped thread pool
/// using the configured [`BootstrapKernel`].
///
/// Replicate `b` draws from the RNG stream `(seed, b)`, so the result is a
/// pure function of `(seed, data, estimator, B, size, kernel)` — the thread
/// count changes wall-clock time only, never the result.
pub fn bootstrap_distribution(
    seed: u64,
    data: &[f64],
    estimator: &(impl Estimator + ?Sized),
    config: &BootstrapConfig,
) -> Result<BootstrapResult> {
    bootstrap_distribution_via(seed, data, estimator, config, None)
}

/// [`bootstrap_distribution`] with a [`SectionEvaluator`] hook: when the
/// kernel resolves to the count-based kernel and `evaluator` is present, the
/// replicate batch is offered to the evaluator first (one call covering
/// `b ∈ [0, B)`); a decline — or a reply of the wrong length — falls back to
/// the local thread pool.  Because a conforming evaluator returns the exact
/// bits local evaluation would produce, the result is the same pure function
/// of `(seed, data, estimator, B, kernel)` on every path.
pub fn bootstrap_distribution_via(
    seed: u64,
    data: &[f64],
    estimator: &(impl Estimator + ?Sized),
    config: &BootstrapConfig,
    evaluator: Option<&SectionEvaluator>,
) -> Result<BootstrapResult> {
    if data.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if config.num_resamples < 2 {
        return Err(StatsError::InvalidParameter(
            "need at least 2 bootstrap resamples".into(),
        ));
    }
    // Multi-column estimators resample whole records: `size` and the section
    // summaries count records, not values.
    let stride = estimator.record_stride().max(1);
    if data.len() % stride != 0 {
        return Err(StatsError::InvalidParameter(format!(
            "sample of {} values is not a whole number of {stride}-column records",
            data.len()
        )));
    }
    let size = data.len() / stride;
    let point_estimate = estimator.estimate(data);
    let threads = config.effective_parallelism(size * stride);
    let replicates = match BuiltSections::build_for(data, estimator, config.kernel)? {
        Some(sections) => {
            let remote = evaluator
                .and_then(|ev| ev(&sections, seed, 0, config.num_resamples as u64, size))
                .filter(|r| r.len() == config.num_resamples);
            match remote {
                Some(replicates) => replicates,
                None => replicate_map(
                    config.num_resamples,
                    threads,
                    || (),
                    |b, ()| {
                        let mut rng = replicate_rng(seed, b as u64);
                        sections.replicate(&mut rng, size)
                    },
                ),
            }
        }
        None => replicate_map(
            config.num_resamples,
            threads,
            || Resampler::with_capacity(size),
            |b, scratch| scratch.replicate(seed, b as u64, data, size, estimator),
        ),
    };
    Ok(summarise(point_estimate, replicates))
}

/// Builds a [`BootstrapResult`] from an already-computed set of replicates
/// (used by the delta-maintenance paths, which produce replicates without
/// re-drawing resamples from scratch).
pub fn summarise(point_estimate: f64, replicates: Vec<f64>) -> BootstrapResult {
    let replicate_mean = Mean.estimate(&replicates);
    let std_error = StdDev.estimate(&replicates);
    let cv = coefficient_of_variation(&replicates);
    BootstrapResult {
        point_estimate,
        bias: replicate_mean - point_estimate,
        replicate_mean,
        std_error,
        cv,
        replicates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{Mean, Median};
    use crate::rng::seeded_rng;

    fn normal_sample(n: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| mean + sd * crate::rng::standard_normal(&mut rng))
            .collect()
    }

    #[test]
    fn linear_sections_round_trip_through_parts() {
        let data = normal_sample(1_000, 10.0, 3.0, 11);
        let built = LinearSections::build(&data);
        let rebuilt =
            LinearSections::from_parts(built.total_items(), built.parts()).expect("valid parts");
        assert_eq!(rebuilt.num_sections(), built.num_sections());
        for ((l0, m0, s0), (l1, m1, s1)) in built.parts().zip(rebuilt.parts()) {
            assert_eq!(l0, l1);
            assert_eq!(m0.to_bits(), m1.to_bits());
            assert_eq!(s0.to_bits(), s1.to_bits());
        }
        // And the rebuilt summary replicates bit-identically.
        let form = Mean.linear_form().expect("mean is linear");
        for b in 0..16u64 {
            let a = built.replicate(&mut replicate_rng(7, b), data.len(), form);
            let b_ = rebuilt.replicate(&mut replicate_rng(7, b), data.len(), form);
            assert_eq!(a.to_bits(), b_.to_bits());
        }
        // Structural invariants are enforced.
        assert!(LinearSections::from_parts(5, [(4, 0.0, 1.0)]).is_err());
        assert!(LinearSections::from_parts(1, std::iter::empty()).is_err());
    }

    #[test]
    fn kary_from_parts_validates_shape() {
        assert!(KarySections::from_parts(0, 2, 0, std::iter::empty()).is_err());
        assert!(KarySections::from_parts(1, 0, 0, std::iter::empty()).is_err());
        assert!(
            KarySections::from_parts(1, MAX_KARY_COMPONENTS + 1, 0, std::iter::empty()).is_err()
        );
        let zero = [0.0; MAX_KARY_COMPONENTS];
        assert!(
            KarySections::from_parts(1, 2, 9, [(4, zero, [zero; MAX_KARY_COMPONENTS])]).is_err()
        );
        assert!(
            KarySections::from_parts(1, 2, 4, [(4, zero, [zero; MAX_KARY_COMPONENTS])]).is_ok()
        );
    }

    #[test]
    fn evaluator_results_are_used_verbatim_and_declines_fall_back() {
        let data = normal_sample(500, 50.0, 5.0, 21);
        let config = BootstrapConfig::with_resamples(40);
        let local = bootstrap_distribution(9, &data, &Mean, &config).unwrap();

        // A conforming evaluator (re-running the pure replicate function)
        // reproduces the local result bit for bit.
        let conforming: &SectionEvaluator = &|sections, seed, b_start, b_count, size| {
            Some(
                (b_start..b_start + b_count)
                    .map(|b| sections.replicate(&mut replicate_rng(seed, b), size))
                    .collect(),
            )
        };
        let via = bootstrap_distribution_via(9, &data, &Mean, &config, Some(conforming)).unwrap();
        assert_eq!(via, local);

        // Declines and wrong-length replies fall back to local evaluation.
        let declining: &SectionEvaluator = &|_, _, _, _, _| None;
        let via = bootstrap_distribution_via(9, &data, &Mean, &config, Some(declining)).unwrap();
        assert_eq!(via, local);
        let short: &SectionEvaluator = &|_, _, _, _, _| Some(vec![1.0]);
        let via = bootstrap_distribution_via(9, &data, &Mean, &config, Some(short)).unwrap();
        assert_eq!(via, local);

        // Non-count-based estimators never consult the evaluator.
        let poisoned: &SectionEvaluator = &|_, _, _, _, _| Some(vec![f64::NAN; 40]);
        let gather = bootstrap_distribution(9, &data, &Median, &config).unwrap();
        let via = bootstrap_distribution_via(9, &data, &Median, &config, Some(poisoned)).unwrap();
        assert_eq!(via, gather);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            bootstrap_distribution(0, &[], &Mean, &BootstrapConfig::default()),
            Err(StatsError::EmptySample)
        ));
        assert!(
            bootstrap_distribution(0, &[1.0], &Mean, &BootstrapConfig::with_resamples(1)).is_err()
        );
    }

    #[test]
    fn bootstrap_std_error_matches_theory_for_the_mean() {
        // For the mean, the bootstrap SE should approximate sd/sqrt(n).
        let data = normal_sample(400, 100.0, 10.0, 1);
        let result =
            bootstrap_distribution(2, &data, &Mean, &BootstrapConfig::with_resamples(200)).unwrap();
        let theoretical = crate::estimators::StdDev.estimate(&data) / (data.len() as f64).sqrt();
        let ratio = result.std_error / theoretical;
        assert!(
            (0.7..1.3).contains(&ratio),
            "bootstrap SE {} vs theory {theoretical}",
            result.std_error
        );
        assert!(
            result.cv < 0.01,
            "cv of the mean of 400 points should be well under 1%"
        );
        assert_eq!(result.replicates.len(), 200);
    }

    #[test]
    fn bootstrap_works_for_the_median_where_jackknife_fails() {
        let data = normal_sample(200, 50.0, 5.0, 3);
        let result =
            bootstrap_distribution(4, &data, &Median, &BootstrapConfig::with_resamples(100))
                .unwrap();
        assert!(result.std_error > 0.0);
        assert!((result.point_estimate - 50.0).abs() < 2.0);
        let (lo, hi) = result.percentile_ci(0.05);
        assert!(lo <= result.replicate_mean && result.replicate_mean <= hi);
    }

    #[test]
    fn cv_decreases_with_sample_size() {
        // Fig. 2b: larger n → lower cv.
        let mut cvs = Vec::new();
        for n in [50usize, 200, 800] {
            let data = normal_sample(n, 10.0, 3.0, 7);
            let result =
                bootstrap_distribution(8, &data, &Mean, &BootstrapConfig::with_resamples(60))
                    .unwrap();
            cvs.push(result.cv);
        }
        assert!(
            cvs[0] > cvs[1] && cvs[1] > cvs[2],
            "cv must decrease with n: {cvs:?}"
        );
    }

    #[test]
    fn percentile_ci_brackets_the_truth_most_of_the_time() {
        let data = normal_sample(300, 20.0, 4.0, 11);
        let result =
            bootstrap_distribution(12, &data, &Mean, &BootstrapConfig::with_resamples(300))
                .unwrap();
        let (lo, hi) = result.percentile_ci(0.05);
        assert!(lo < hi);
        assert!(
            lo <= 20.5 && hi >= 19.5,
            "95% CI [{lo}, {hi}] should cover the true mean 20"
        );
    }

    #[test]
    fn percentile_ci_orders_nan_replicates_last() {
        for b in 2..300usize {
            let replicates: Vec<f64> = (0..b)
                .map(|i| {
                    if i % 3 == 0 {
                        f64::NAN
                    } else {
                        ((i * 7_919) % 1_000) as f64
                    }
                })
                .collect();
            let smallest = replicates
                .iter()
                .copied()
                .filter(|x| !x.is_nan())
                .fold(f64::INFINITY, f64::min);
            // At alpha = 0 the interval spans the extreme ranks: the
            // smallest number, and a NaN at the top.
            let (lo, hi) = summarise(0.0, replicates).percentile_ci(0.0);
            assert_eq!(lo, smallest, "B = {b}");
            assert!(hi.is_nan(), "B = {b}: {hi}");
        }
    }

    #[test]
    fn percentile_ci_matches_full_sort() {
        // The select-based quantiles must agree with the straightforward
        // sort-then-index implementation they replaced.
        let data = normal_sample(500, 5.0, 2.0, 13);
        let result =
            bootstrap_distribution(14, &data, &Mean, &BootstrapConfig::with_resamples(251))
                .unwrap();
        for alpha in [0.01, 0.05, 0.1, 0.5, 1.0] {
            let mut sorted = result.replicates.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let lo_idx = ((alpha / 2.0) * (sorted.len() - 1) as f64).round() as usize;
            let hi_idx = ((1.0 - alpha / 2.0) * (sorted.len() - 1) as f64).round() as usize;
            let expected = (sorted[lo_idx], sorted[hi_idx.min(sorted.len() - 1)]);
            assert_eq!(result.percentile_ci(alpha), expected, "alpha = {alpha}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = normal_sample(100, 5.0, 1.0, 20);
        let a = bootstrap_distribution(99, &data, &Mean, &BootstrapConfig::default()).unwrap();
        let b = bootstrap_distribution(99, &data, &Mean, &BootstrapConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // The acceptance property of the parallel engine: the full result —
        // every replicate — is identical for 1, 2 and 8 workers.
        let data = normal_sample(4_096, 42.0, 7.0, 21);
        let reference = bootstrap_distribution(
            7,
            &data,
            &Median,
            &BootstrapConfig::with_resamples(64).with_parallelism(Some(1)),
        )
        .unwrap();
        for threads in [2usize, 3, 8] {
            let parallel = bootstrap_distribution(
                7,
                &data,
                &Median,
                &BootstrapConfig::with_resamples(64).with_parallelism(Some(threads)),
            )
            .unwrap();
            assert_eq!(reference, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn growing_b_preserves_the_replicate_prefix() {
        // Replicate b depends only on (seed, b): a B=50 run's first 30
        // replicates equal the B=30 run exactly.  SSABE's incremental B search
        // relies on this.
        let data = normal_sample(256, 10.0, 2.0, 22);
        let small =
            bootstrap_distribution(5, &data, &Mean, &BootstrapConfig::with_resamples(30)).unwrap();
        let large =
            bootstrap_distribution(5, &data, &Mean, &BootstrapConfig::with_resamples(50)).unwrap();
        assert_eq!(small.replicates[..], large.replicates[..30]);
    }

    #[test]
    fn resampler_reuses_buffers() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let mut scratch = Resampler::with_capacity(data.len());
        let mut rng = seeded_rng(1);
        scratch.resample_into(&mut rng, &data, data.len());
        let (icap, vcap) = (scratch.indices.capacity(), scratch.values.capacity());
        for _ in 0..100 {
            let s = scratch.resample_into(&mut rng, &data, data.len());
            assert_eq!(s.len(), data.len());
        }
        assert_eq!(
            scratch.indices.capacity(),
            icap,
            "index buffer must not reallocate"
        );
        assert_eq!(
            scratch.values.capacity(),
            vcap,
            "value buffer must not reallocate"
        );
    }

    #[test]
    fn kernel_resolution_matches_estimator_capabilities() {
        use crate::estimators::{Count, StdDev, Sum, Variance};
        // Auto: linear → CountBased, everything else → Gather.
        for est in [&Mean as &dyn Estimator, &Sum, &Count] {
            assert_eq!(
                BootstrapKernel::Auto.resolve_for(est),
                ResolvedKernel::CountBased,
                "linear estimator {} must not silently route to gather",
                Estimator::name(est)
            );
            assert_eq!(
                BootstrapKernel::Gather.resolve_for(est),
                ResolvedKernel::Gather
            );
        }
        for est in [&Variance as &dyn Estimator, &StdDev, &Median] {
            assert_eq!(
                BootstrapKernel::Auto.resolve_for(est),
                ResolvedKernel::Gather,
                "{} has no linear form",
                Estimator::name(est)
            );
        }
    }

    #[test]
    fn replicates_match_the_single_pass_oracle() {
        use crate::estimators::{Count, Max, Min, StdDev, Sum, Variance};
        use crate::single_pass_oracle::{self, Fold};
        let data = normal_sample(1_400, 25.0, 6.0, 3001);
        let oracle = |fold: Fold| -> Vec<f64> {
            (0..30u64)
                .map(|b| {
                    single_pass_oracle::replicate(fold, &mut replicate_rng(5, b), &data, data.len())
                })
                .collect()
        };
        // Gather draws the oracle's indices in the oracle's order, so the
        // single-pass folds are its replicates bit for bit.
        for (fold, est) in [
            (Fold::Mean, &Mean as &dyn Estimator),
            (Fold::Sum, &Sum),
            (Fold::Count, &Count),
            (Fold::Min, &Min),
            (Fold::Max, &Max),
        ] {
            let config = BootstrapConfig::with_resamples(30).with_kernel(BootstrapKernel::Gather);
            let gather = bootstrap_distribution(5, &data, est, &config).unwrap();
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&gather.replicates), bits(&oracle(fold)), "{fold:?}");
        }
        // The shifted moments agree with Auto's replicates up to
        // reassociation.
        for (fold, est) in [
            (Fold::Variance, &Variance as &dyn Estimator),
            (Fold::StdDev, &StdDev),
        ] {
            let auto = bootstrap_distribution(5, &data, est, &BootstrapConfig::with_resamples(30))
                .unwrap();
            for (a, o) in auto.replicates.iter().zip(oracle(fold)) {
                assert!(((a - o) / o).abs() < 1e-9, "{fold:?}: {a} vs {o}");
            }
        }
    }

    #[test]
    fn count_based_kernel_matches_gather_distribution_moments() {
        let data = normal_sample(4_000, 120.0, 25.0, 33);
        let gather = bootstrap_distribution(
            43,
            &data,
            &Mean,
            &BootstrapConfig::with_resamples(400).with_kernel(BootstrapKernel::Gather),
        )
        .unwrap();
        let counts =
            bootstrap_distribution(43, &data, &Mean, &BootstrapConfig::with_resamples(400))
                .unwrap();
        assert_eq!(counts.point_estimate, gather.point_estimate);
        assert!(
            (counts.replicate_mean - gather.replicate_mean).abs() / gather.replicate_mean.abs()
                < 1e-3,
            "replicate means: count {} vs gather {}",
            counts.replicate_mean,
            gather.replicate_mean
        );
        let se_ratio = counts.std_error / gather.std_error;
        assert!(
            (0.8..1.25).contains(&se_ratio),
            "standard errors: count {} vs gather {}",
            counts.std_error,
            gather.std_error
        );
    }

    #[test]
    fn count_based_kernel_is_deterministic_and_thread_invariant() {
        let data = normal_sample(2_048, 7.0, 2.0, 35);
        let config = BootstrapConfig::with_resamples(64).with_parallelism(Some(1));
        let reference = bootstrap_distribution(45, &data, &Mean, &config).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel =
                bootstrap_distribution(45, &data, &Mean, &config.with_parallelism(Some(threads)))
                    .unwrap();
            assert_eq!(reference, parallel, "threads = {threads}");
        }
        // Growing B preserves the prefix on the count-based kernel too.
        let grown = BootstrapConfig {
            num_resamples: 96,
            ..config
        };
        let larger = bootstrap_distribution(45, &data, &Mean, &grown).unwrap();
        assert_eq!(reference.replicates[..], larger.replicates[..64]);
    }

    #[test]
    fn linear_sections_cover_the_sample_in_sqrt_n_sections() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let sections = LinearSections::build(&data);
        assert_eq!(sections.total_items(), 10_000);
        assert_eq!(sections.num_sections(), 100, "⌈√10000⌉ sections");
        for n in [0usize, 1, 2, 100, 101, 9_999, 10_000, 100_000] {
            assert_eq!(
                LinearSections::section_count(n),
                LinearSections::build(&vec![1.0; n]).num_sections(),
                "section_count must agree with build at n = {n}"
            );
        }
        // A full-size replicate of Count is exactly n — the multinomial counts
        // always sum to the requested resample size.
        use crate::estimators::Count;
        let form = Count.linear_form().unwrap();
        let mut rng = seeded_rng(9);
        for _ in 0..10 {
            assert_eq!(sections.replicate(&mut rng, data.len(), form), 10_000.0);
        }
        // A constant sample has zero within-section sd: every Mean replicate
        // is exactly the constant.
        let flat = vec![5.0; 1_000];
        let flat_sections = LinearSections::build(&flat);
        let mean_form = Mean.linear_form().unwrap();
        for _ in 0..5 {
            assert_eq!(
                flat_sections.replicate(&mut rng, flat.len(), mean_form),
                5.0
            );
        }
    }

    fn paired_sample(n: usize, seed: u64) -> Vec<f64> {
        // (x, w) pairs: positive values, weights in (0.5, 1.5).
        let mut rng = seeded_rng(seed);
        (0..n)
            .flat_map(|_| {
                let x = 100.0 + 20.0 * crate::rng::standard_normal(&mut rng);
                let w = 1.0 + 0.5 * (2.0 * rng.gen::<f64>() - 1.0);
                [x, w]
            })
            .collect()
    }

    #[test]
    fn kary_resolution_and_stride_validation() {
        use crate::estimators::{PairedCovariance, Ratio, WeightedMean};
        for est in [&WeightedMean as &dyn Estimator, &Ratio, &PairedCovariance] {
            assert_eq!(
                BootstrapKernel::Auto.resolve_for(est),
                ResolvedKernel::CountBased,
                "{} must run resample-free under Auto",
                Estimator::name(est)
            );
        }
        // An odd number of values is not a whole number of pairs.
        let odd = [1.0, 2.0, 3.0];
        assert!(matches!(
            bootstrap_distribution(0, &odd, &Ratio, &BootstrapConfig::with_resamples(10)),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn kary_count_based_matches_gather_distribution_moments() {
        use crate::estimators::{Ratio, WeightedMean};
        let data = paired_sample(4_000, 51);
        for est in [&WeightedMean as &dyn Estimator, &Ratio] {
            let gather = bootstrap_distribution(
                47,
                &data,
                est,
                &BootstrapConfig::with_resamples(400).with_kernel(BootstrapKernel::Gather),
            )
            .unwrap();
            let counts =
                bootstrap_distribution(47, &data, est, &BootstrapConfig::with_resamples(400))
                    .unwrap();
            assert_eq!(counts.point_estimate, gather.point_estimate);
            assert!(
                (counts.replicate_mean - gather.replicate_mean).abs() / gather.replicate_mean.abs()
                    < 1e-3,
                "{}: replicate means {} vs {}",
                Estimator::name(est),
                counts.replicate_mean,
                gather.replicate_mean
            );
            let se_ratio = counts.std_error / gather.std_error;
            assert!(
                (0.8..1.25).contains(&se_ratio),
                "{}: standard errors {} vs {}",
                Estimator::name(est),
                counts.std_error,
                gather.std_error
            );
        }
    }

    #[test]
    fn kary_kernel_is_deterministic_and_thread_invariant() {
        use crate::estimators::Ratio;
        let data = paired_sample(2_048, 53);
        let config = BootstrapConfig::with_resamples(64).with_parallelism(Some(1));
        let reference = bootstrap_distribution(55, &data, &Ratio, &config).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel =
                bootstrap_distribution(55, &data, &Ratio, &config.with_parallelism(Some(threads)))
                    .unwrap();
            assert_eq!(reference, parallel, "threads = {threads}");
        }
        let grown = BootstrapConfig {
            num_resamples: 96,
            ..config
        };
        let larger = bootstrap_distribution(55, &data, &Ratio, &grown).unwrap();
        assert_eq!(reference.replicates[..], larger.replicates[..64]);
    }

    #[test]
    fn kary_sections_handle_degenerate_components() {
        use crate::estimators::WeightedMean;
        // Constant value, constant weight: every component is degenerate, the
        // Cholesky columns zero out, and every replicate is exactly the value.
        let flat: Vec<f64> = (0..500).flat_map(|_| [7.0, 2.0]).collect();
        let form = WeightedMean.kary_form().unwrap();
        let sections = KarySections::build(&flat, &form).unwrap();
        assert_eq!(sections.total_records(), 500);
        assert_eq!(sections.stride(), 2);
        assert_eq!(
            sections.num_sections(),
            LinearSections::section_count(500),
            "record sectioning matches the scalar policy"
        );
        let mut rng = seeded_rng(3);
        for _ in 0..5 {
            assert_eq!(sections.replicate(&mut rng, 500, &form), 7.0);
        }
        // Gather agrees: a constant weighted mean bootstraps to the constant.
        let result = bootstrap_distribution(
            1,
            &flat,
            &WeightedMean,
            &BootstrapConfig::with_resamples(16).with_kernel(BootstrapKernel::Gather),
        )
        .unwrap();
        assert!(result.replicates.iter().all(|&r| r == 7.0));
    }

    #[test]
    fn gather_resamples_whole_records_for_paired_estimators() {
        use crate::estimators::Ratio;
        // Records are (a, 2a): any whole-record resample has ratio exactly
        // 0.5; splitting pairs would scramble it.
        let data: Vec<f64> = (1..=100)
            .flat_map(|i| {
                let a = i as f64;
                [a, 2.0 * a]
            })
            .collect();
        let result = bootstrap_distribution(
            9,
            &data,
            &Ratio,
            &BootstrapConfig::with_resamples(32).with_kernel(BootstrapKernel::Gather),
        )
        .unwrap();
        for r in &result.replicates {
            assert_eq!(*r, 0.5, "pairs must never be split");
        }
    }

    #[test]
    fn summarise_handles_small_replicate_sets() {
        let r = summarise(1.0, vec![1.0, 1.0]);
        assert_eq!(r.std_error, 0.0);
        assert_eq!(r.bias, 0.0);
        let (lo, hi) = r.percentile_ci(0.1);
        assert_eq!((lo, hi), (1.0, 1.0));
        // Replicates above the point estimate are a positive bias.
        assert!(summarise(10.0, vec![11.0, 11.5, 10.5]).bias > 0.0);
    }
}
