//! Test-only oracle: the single-pass replicate evaluation the bootstrap once
//! offered as a third kernel, kept verbatim so the remaining kernels can be
//! checked against it.
//!
//! A replicate draws `size` indices from its RNG stream one at a time and
//! pushes each drawn value straight into a fold — no gather buffer, no
//! second pass.  The draws are the ones the gather kernel makes, in the same
//! order, so the folds of mean, sum, count, min and max equal the gather
//! kernel's replicates bit for bit, and the shifted Youngs–Cramer moments
//! agree with any two-pass or Welford variance to within reassociation error.
//!
//! The file depends on nothing but `rand`: `earl-bootstrap` compiles it under
//! `#[cfg(test)]`, and the workspace's kernel-equivalence suite includes the
//! same source by path to check the engine's task-level estimators.

use rand::Rng;

/// A statistic evaluated in one pass over the drawn values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Running sum; an empty stream is 0.
    Sum,
    /// Running sum ÷ running count.
    Mean,
    /// Number of values pushed.
    Count,
    /// NaN-seeded running minimum.
    Min,
    /// NaN-seeded running maximum.
    Max,
    /// Shifted second moments, finalized to the unbiased sample variance.
    Variance,
    /// Shifted second moments, finalized to the sample standard deviation.
    StdDev,
}

/// The fold state: one field set serves every [`Fold`].
#[derive(Debug, Clone, Copy)]
struct State {
    fold: Fold,
    count: u64,
    sum: f64,
    best: f64,
    shift: f64,
    s1: f64,
    s2: f64,
}

impl State {
    fn new(fold: Fold) -> Self {
        Self {
            fold,
            count: 0,
            sum: 0.0,
            best: f64::NAN,
            shift: 0.0,
            s1: 0.0,
            s2: 0.0,
        }
    }

    /// Absorbs one value (weight 1).
    fn push(&mut self, value: f64) {
        let w = 1.0;
        match self.fold {
            Fold::Sum | Fold::Mean => {
                self.sum += value * w;
                self.count += 1;
            }
            Fold::Count => self.count += 1,
            Fold::Min => {
                if self.best.is_nan() || value < self.best {
                    self.best = value;
                }
            }
            Fold::Max => {
                if self.best.is_nan() || value > self.best {
                    self.best = value;
                }
            }
            Fold::Variance | Fold::StdDev => {
                // The first value is the shift K; thereafter Σ(x−K) and
                // Σ(x−K)², two fused multiply-adds per value.
                if self.count == 0 {
                    self.shift = value;
                }
                let d = value - self.shift;
                self.count += 1;
                self.s1 += w * d;
                self.s2 += w * (d * d);
            }
        }
    }

    fn finalize(&self) -> f64 {
        match self.fold {
            Fold::Sum => self.sum,
            Fold::Mean if self.count == 0 => f64::NAN,
            Fold::Mean => self.sum / self.count as f64,
            Fold::Count => self.count as f64,
            Fold::Min | Fold::Max => self.best,
            Fold::Variance | Fold::StdDev => {
                if self.count < 2 {
                    return f64::NAN;
                }
                let n = self.count as f64;
                // Σ(x−x̄)² = Σ(x−K)² − (Σ(x−K))²/n, clamped against rounding.
                let m2 = (self.s2 - self.s1 * self.s1 / n).max(0.0);
                let var = m2 / (n - 1.0);
                if self.fold == Fold::StdDev {
                    var.sqrt()
                } else {
                    var
                }
            }
        }
    }
}

/// One replicate of `fold` over `data`: `size` indices drawn uniformly with
/// replacement from `rng`, each value pushed as it is drawn.  Pass the
/// replicate's stream (`replicate_rng(seed, b)`) to reproduce replicate `b`
/// of a bootstrap run.
pub fn replicate<R: Rng + ?Sized>(fold: Fold, rng: &mut R, data: &[f64], size: usize) -> f64 {
    let mut state = State::new(fold);
    let n = data.len();
    for _ in 0..size {
        state.push(data[rng.gen_range(0..n)]);
    }
    state.finalize()
}
