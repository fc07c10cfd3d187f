//! Inter-iteration delta maintenance (§4.1).
//!
//! Let `s` be the sample of size `n` used in iteration `i` with bootstrap
//! resamples `{b_i}`, and let the sample grow to `s′ = s ∪ Δs` of size `n′`.
//! Rather than redrawing `B` fresh resamples of size `n′`, each existing
//! resample is *updated*:
//!
//! 1. draw the new number of items that should originate from `s`,
//!    `|b′_{i,s}| ~ Binomial(n′, n/n′)` (Eq. 2), approximated by the Gaussian
//!    `N(n, n(1 − n/n′))` (Eq. 3) when `n′` is large;
//! 2. randomly delete items from (or add items of `s` to) the resample to hit
//!    that count;
//! 3. top the resample up to `n′` with items drawn from `Δs`.
//!
//! Steps 2–3 touch only `O(|Δs| + √n)` items instead of `n′`, which is where
//! the speed-up of Fig. 10 comes from.  The two-layer *sketch* structure of the
//! paper (a random in-memory subset of `c·√n` items per resample, with the full
//! resample on disk) is modelled here by explicit accounting: updates are
//! served from the sketch while it lasts, and every sketch exhaustion is
//! counted as a (simulated) disk access.

use serde::{Deserialize, Serialize};

use rand::Rng;

use crate::bootstrap::{summarise, BootstrapKernel, BootstrapResult};
use crate::estimators::Estimator;
use crate::parallel::{replicate_map, replicate_update, workers_for};
use crate::rng::{binomial_sample, derive_seed, replicate_rng};
use crate::{Result, StatsError};

/// Configuration of the per-resample sketch (the memory layer of the paper's
/// two-layer structure).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SketchConfig {
    /// The constant `c` in the sketch size `c·√n`.  Larger sketches use more
    /// memory but defer disk access longer.
    pub c: f64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self { c: 4.0 }
    }
}

/// Work accounting for an update, used to quantify the benefit of delta
/// maintenance versus rebuilding every resample from scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateWork {
    /// Items added to or removed from resamples by the incremental update.
    pub items_touched: u64,
    /// Items a full rebuild would have had to draw (`B · n′`).
    pub naive_items: u64,
    /// Updates served by the in-memory sketches.
    pub sketch_hits: u64,
    /// Times a sketch was exhausted and the (simulated) on-disk resample had to
    /// be accessed and re-sketched.
    pub disk_accesses: u64,
}

impl UpdateWork {
    /// Fraction of the naive work avoided by the incremental update.
    pub fn savings(&self) -> f64 {
        if self.naive_items == 0 {
            return 0.0;
        }
        1.0 - self.items_touched as f64 / self.naive_items as f64
    }

    /// Accumulates another work report into this one.
    pub fn accumulate(&mut self, other: &UpdateWork) {
        self.items_touched += other.items_touched;
        self.naive_items += other.naive_items;
        self.sketch_hits += other.sketch_hits;
        self.disk_accesses += other.disk_accesses;
    }
}

/// One maintained bootstrap resample.
#[derive(Debug, Clone)]
struct MaintainedResample {
    items: Vec<f64>,
    /// Remaining sketch budget before the next simulated disk access.
    sketch_budget: u64,
}

/// A bootstrap whose resamples are maintained incrementally across sample
/// expansions.
///
/// All per-resample work (initial draw, every delta update, every evaluation)
/// runs across a scoped thread pool.  Resample `i` in expansion `e` always
/// draws from the RNG stream derived from `(seed, e, i)`, so the maintained
/// state is bit-identical for every thread count.
#[derive(Debug, Clone)]
pub struct IncrementalBootstrap {
    sample: Vec<f64>,
    resamples: Vec<MaintainedResample>,
    sketch: SketchConfig,
    work: UpdateWork,
    expansions: u64,
    seed: u64,
    parallelism: Option<usize>,
}

impl IncrementalBootstrap {
    /// Creates the structure from an initial sample (treated as the first delta
    /// Δs₁ added to an empty set, per the paper) with `b` resamples.
    pub fn new(seed: u64, initial_sample: &[f64], b: usize, sketch: SketchConfig) -> Result<Self> {
        if initial_sample.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if b < 2 {
            return Err(StatsError::InvalidParameter(
                "need at least 2 resamples".into(),
            ));
        }
        let n = initial_sample.len();
        let sketch_budget = sketch_budget(&sketch, n);
        let mut this = Self {
            sample: initial_sample.to_vec(),
            resamples: vec![
                MaintainedResample {
                    items: Vec::new(),
                    sketch_budget
                };
                b
            ],
            sketch,
            work: UpdateWork::default(),
            expansions: 0,
            seed,
            parallelism: None,
        };
        // Expansion stream 0 is the initial draw; each resample fills itself
        // from its own (seed, 0, i) stream.
        let init_seed = derive_seed(seed, 0);
        let threads = this.threads_for(n);
        let sample = &this.sample;
        replicate_update(
            &mut this.resamples,
            threads,
            || (),
            |i, resample, ()| {
                let mut rng = replicate_rng(init_seed, i as u64);
                resample.items.reserve_exact(n);
                for _ in 0..n {
                    resample.items.push(sample[rng.gen_range(0..n)]);
                }
            },
        );
        this.work.items_touched = (b * n) as u64;
        this.work.naive_items = (b * n) as u64;
        Ok(this)
    }

    /// Sets the worker-thread count used by `expand` / `evaluate`
    /// (`None` = all cores).
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Accepts a kernel request and ignores it: maintained resamples are
    /// materialised, so `evaluate` always runs the gather kernel over them.
    /// (For linear statistics the resample-free count-based kernel
    /// supersedes delta maintenance entirely — callers route those to
    /// [`crate::bootstrap::bootstrap_distribution`] instead.)
    pub fn with_kernel(self, _kernel: BootstrapKernel) -> Self {
        self
    }

    fn threads_for(&self, per_resample_work: usize) -> usize {
        let b = self.resamples.len();
        workers_for(b.saturating_mul(per_resample_work.max(1)), self.parallelism)
    }

    /// Current sample size `n`.
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }

    /// Number of maintained resamples `B`.
    pub fn num_resamples(&self) -> usize {
        self.resamples.len()
    }

    /// Number of expansions applied so far.
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Cumulative work accounting.
    pub fn work(&self) -> UpdateWork {
        self.work
    }

    /// The current sample (all deltas concatenated).
    pub fn sample(&self) -> &[f64] {
        &self.sample
    }

    /// Expands the sample with `delta` and incrementally updates every
    /// resample in parallel.  Returns the work performed by this expansion.
    pub fn expand(&mut self, delta: &[f64]) -> Result<UpdateWork> {
        if delta.is_empty() {
            return Err(StatsError::EmptySample);
        }
        let n = self.sample.len();
        let n_prime = n + delta.len();
        let keep_fraction = n as f64 / n_prime as f64;
        // Expansion streams: 0 is the initial draw, e >= 1 the e-th expand.
        let expansion_seed = derive_seed(self.seed, self.expansions + 1);
        let threads = self.threads_for(delta.len() + (n as f64).sqrt() as usize);

        let sample = &self.sample;
        let sketch = &self.sketch;
        let mut pairs: Vec<(&mut MaintainedResample, UpdateWork)> = self
            .resamples
            .iter_mut()
            .map(|r| (r, UpdateWork::default()))
            .collect();
        replicate_update(
            &mut pairs,
            threads,
            || (),
            |i, (resample, step), ()| {
                let mut rng = replicate_rng(expansion_seed, i as u64);
                // Eq. 2 / Eq. 3: how many of the n′ items should come from the old s.
                let target_from_s =
                    binomial_sample(&mut rng, n_prime as u64, keep_fraction) as usize;
                let target_from_s = target_from_s.min(n_prime);
                let current = resample.items.len();
                let mut touched = 0u64;

                if target_from_s < current {
                    // Randomly delete (current - target_from_s) items.
                    for _ in 0..(current - target_from_s) {
                        let idx = rng.gen_range(0..resample.items.len());
                        resample.items.swap_remove(idx);
                        touched += 1;
                    }
                } else if target_from_s > current {
                    // Add items randomly drawn from the old sample s.
                    for _ in 0..(target_from_s - current) {
                        resample.items.push(sample[rng.gen_range(0..n)]);
                        touched += 1;
                    }
                }
                // Top up with items drawn from Δs.
                for _ in 0..(n_prime - target_from_s) {
                    resample.items.push(delta[rng.gen_range(0..delta.len())]);
                    touched += 1;
                }
                debug_assert_eq!(resample.items.len(), n_prime);

                // Sketch accounting: updates are served from the in-memory sketch
                // until it is exhausted, then the on-disk copy is touched and a new
                // sketch is drawn.
                let mut remaining = touched;
                while remaining > 0 {
                    if resample.sketch_budget >= remaining {
                        resample.sketch_budget -= remaining;
                        step.sketch_hits += remaining;
                        remaining = 0;
                    } else {
                        step.sketch_hits += resample.sketch_budget;
                        remaining -= resample.sketch_budget;
                        step.disk_accesses += 1;
                        resample.sketch_budget = sketch_budget(sketch, n_prime);
                    }
                }

                step.items_touched += touched;
                step.naive_items += n_prime as u64;
            },
        );
        let mut step = UpdateWork::default();
        for (_, w) in &pairs {
            step.accumulate(w);
        }
        drop(pairs);

        self.sample.extend_from_slice(delta);
        self.expansions += 1;
        self.work.accumulate(&step);
        Ok(step)
    }

    /// Evaluates `estimator` on every maintained resample in parallel and
    /// summarises the result distribution (point estimate taken on the full
    /// current sample).
    ///
    /// # Panics
    ///
    /// Panics if `estimator` is multi-column
    /// ([`Estimator::record_stride`] > 1): maintained resamples are per-value
    /// multisets, so evaluating a record-structured statistic over them would
    /// silently pair columns across records.  Those statistics run
    /// resample-free through [`crate::bootstrap::bootstrap_distribution`]
    /// instead (the driver routes them there and never reaches this path).
    pub fn evaluate(&self, estimator: &dyn Estimator) -> BootstrapResult {
        assert_eq!(
            estimator.record_stride(),
            1,
            "IncrementalBootstrap maintains value-level resamples; a multi-column \
             estimator's records would be split — use bootstrap_distribution's \
             count-based kernel instead"
        );
        let threads = self.threads_for(self.sample.len());
        let replicates = replicate_map(
            self.resamples.len(),
            threads,
            || (),
            |i, ()| estimator.estimate(&self.resamples[i].items),
        );
        summarise(estimator.estimate(&self.sample), replicates)
    }
}

fn sketch_budget(sketch: &SketchConfig, n: usize) -> u64 {
    (sketch.c.max(0.0) * (n as f64).sqrt()).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{bootstrap_distribution, BootstrapConfig};
    use crate::estimators::{Mean, Median};
    use crate::rng::{seeded_rng, standard_normal};

    fn normal(n: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| mean + sd * standard_normal(&mut rng))
            .collect()
    }

    #[test]
    fn construction_validations() {
        assert!(IncrementalBootstrap::new(0, &[], 10, SketchConfig::default()).is_err());
        assert!(IncrementalBootstrap::new(0, &[1.0, 2.0], 1, SketchConfig::default()).is_err());
        let ib =
            IncrementalBootstrap::new(0, &[1.0, 2.0, 3.0], 5, SketchConfig::default()).unwrap();
        assert_eq!(ib.sample_size(), 3);
        assert_eq!(ib.num_resamples(), 5);
        assert_eq!(ib.expansions(), 0);
    }

    #[test]
    fn expansion_keeps_resamples_at_the_new_size() {
        let initial = normal(500, 10.0, 2.0, 2);
        let delta = normal(300, 10.0, 2.0, 3);
        let mut ib = IncrementalBootstrap::new(1, &initial, 30, SketchConfig::default()).unwrap();
        let work = ib.expand(&delta).unwrap();
        assert_eq!(ib.sample_size(), 800);
        assert_eq!(ib.expansions(), 1);
        assert!(work.items_touched > 0);
        assert!(work.naive_items == 30 * 800);
        // Every maintained resample must have exactly n' items — checked via
        // evaluate() which would otherwise produce a different distribution.
        let result = ib.evaluate(&Mean);
        assert_eq!(result.replicates.len(), 30);
        assert!(ib.expand(&[]).is_err());
    }

    #[test]
    fn incremental_update_touches_far_fewer_items_than_a_rebuild() {
        // The Fig. 10 claim: delta maintenance saves a large fraction of the
        // work when Δs is small relative to s.
        let initial = normal(2_000, 50.0, 5.0, 5);
        let delta = normal(200, 50.0, 5.0, 6);
        let mut ib = IncrementalBootstrap::new(4, &initial, 30, SketchConfig::default()).unwrap();
        let work = ib.expand(&delta).unwrap();
        assert!(
            work.savings() > 0.5,
            "expected >50% work saved for a 10% expansion, got {:.1}%",
            work.savings() * 100.0
        );
    }

    #[test]
    fn maintained_distribution_matches_fresh_bootstrap() {
        // Statistical equivalence: the incrementally maintained result
        // distribution must agree with a fresh bootstrap over the full sample.
        let initial = normal(1_500, 100.0, 10.0, 7);
        let delta = normal(1_500, 100.0, 10.0, 8);
        let full: Vec<f64> = initial.iter().chain(delta.iter()).copied().collect();

        let mut ib = IncrementalBootstrap::new(9, &initial, 100, SketchConfig::default()).unwrap();
        ib.expand(&delta).unwrap();
        let maintained = ib.evaluate(&Mean);

        let fresh = bootstrap_distribution(10, &full, &Mean, &BootstrapConfig::with_resamples(100))
            .unwrap();

        // Point estimates are identical (same underlying sample)…
        assert!((maintained.point_estimate - fresh.point_estimate).abs() < 1e-9);
        // …and the standard errors agree to within Monte-Carlo noise.
        let ratio = maintained.std_error / fresh.std_error;
        assert!(
            (0.6..1.6).contains(&ratio),
            "maintained SE {} vs fresh SE {}",
            maintained.std_error,
            fresh.std_error
        );
        // cv shrinks as the sample doubles.
        assert!(maintained.cv < 0.02);
    }

    #[test]
    fn repeated_expansions_accumulate_work_and_stay_consistent() {
        let mut ib =
            IncrementalBootstrap::new(11, &normal(256, 10.0, 1.0, 12), 20, SketchConfig::default())
                .unwrap();
        let mut last_cv = ib.evaluate(&Median).cv;
        for step in 0..4 {
            let delta = normal(256, 10.0, 1.0, 13 + step);
            ib.expand(&delta).unwrap();
            let cv = ib.evaluate(&Median).cv;
            assert!(cv.is_finite());
            last_cv = cv;
        }
        assert_eq!(ib.sample_size(), 256 * 5);
        assert_eq!(ib.expansions(), 4);
        assert!(
            last_cv < 0.05,
            "cv after 5x data should be small, got {last_cv}"
        );
        let total = ib.work();
        assert!(total.items_touched < total.naive_items);
        assert!(total.sketch_hits > 0);
    }

    #[test]
    fn tiny_sketch_forces_disk_accesses_large_sketch_avoids_them() {
        let initial = normal(1_000, 5.0, 1.0, 20);
        let delta = normal(500, 5.0, 1.0, 21);

        let mut small =
            IncrementalBootstrap::new(22, &initial, 20, SketchConfig { c: 0.1 }).unwrap();
        let w_small = small.expand(&delta).unwrap();

        let mut big =
            IncrementalBootstrap::new(22, &initial, 20, SketchConfig { c: 100.0 }).unwrap();
        let w_big = big.expand(&delta).unwrap();

        assert!(w_small.disk_accesses > w_big.disk_accesses);
        assert_eq!(
            w_big.disk_accesses, 0,
            "a huge sketch should absorb the whole update"
        );
    }

    #[test]
    fn maintained_state_is_bit_identical_across_thread_counts() {
        let initial = normal(3_000, 20.0, 4.0, 30);
        let delta = normal(1_000, 20.0, 4.0, 31);
        let run = |threads: usize| {
            let mut ib = IncrementalBootstrap::new(33, &initial, 40, SketchConfig::default())
                .unwrap()
                .with_parallelism(Some(threads));
            let work = ib.expand(&delta).unwrap();
            (ib.evaluate(&Median), work)
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn kernel_requests_leave_evaluation_unchanged() {
        let mut ib = IncrementalBootstrap::new(
            42,
            &normal(1_000, 30.0, 6.0, 40),
            25,
            SketchConfig::default(),
        )
        .unwrap();
        ib.expand(&normal(400, 30.0, 6.0, 41)).unwrap();
        let gather = ib.evaluate(&Mean);
        for kernel in [BootstrapKernel::Auto, BootstrapKernel::Gather] {
            assert_eq!(ib.clone().with_kernel(kernel).evaluate(&Mean), gather);
        }
    }

    #[test]
    #[should_panic(expected = "value-level resamples")]
    fn evaluating_a_multi_column_estimator_panics_instead_of_misaligning() {
        // Maintained resamples are per-value multisets; evaluating a stride-2
        // statistic over them would silently pair columns across records.
        let pairs: Vec<f64> = (1..=40).flat_map(|i| [i as f64, 2.0 * i as f64]).collect();
        let ib = IncrementalBootstrap::new(1, &pairs, 10, SketchConfig::default()).unwrap();
        let _ = ib.evaluate(&crate::estimators::Ratio);
    }

    #[test]
    fn update_work_savings_math() {
        let w = UpdateWork {
            items_touched: 30,
            naive_items: 100,
            sketch_hits: 30,
            disk_accesses: 0,
        };
        assert!((w.savings() - 0.7).abs() < 1e-12);
        assert_eq!(UpdateWork::default().savings(), 0.0);
        let mut acc = UpdateWork::default();
        acc.accumulate(&w);
        acc.accumulate(&w);
        assert_eq!(acc.items_touched, 60);
        assert_eq!(acc.naive_items, 200);
    }
}
