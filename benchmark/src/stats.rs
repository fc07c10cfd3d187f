//! Order statistics over timing samples: median, quartiles and the tail
//! percentile rule ("the highest percentile that has at least ten samples
//! beyond it").

/// Samples beyond a percentile needed before that percentile is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Median and quartiles of one metric's samples, as stored in result files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single measurement: no spread to speak of.
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Element-wise mean of two summaries: the typical value of an even mix
    /// of two kinds of operation.
    pub fn mean_with(&self, other: &Summary) -> Summary {
        Summary {
            median: (self.median + other.median) / 2.0,
            q1: (self.q1 + other.q1) / 2.0,
            q3: (self.q3 + other.q3) / 2.0,
            n: self.n + other.n,
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn relative_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Linear-interpolation quantile of an already sorted slice (`q` in 0..=1).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Median and quartiles of `samples`.
pub fn summarise(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        n: s.len(),
    }
}

/// Quartiles as Python's `statistics.quantiles(samples, n=4)` gives them (the
/// "exclusive" method), which the driver of `BENCHMARK.json` uses for the
/// spread of a metric over runs; `None` for fewer than two samples.
pub fn quartiles_exclusive(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// The highest percentile of `samples` with at least [`TAIL_SUPPORT`] samples
/// beyond it, as `(percentile in 0..100, value)`; `None` when even the
/// smallest sample has fewer than that beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let idx = s.len().checked_sub(TAIL_SUPPORT + 1)?;
    Some((100.0 * (idx + 1) as f64 / s.len() as f64, s[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summarise(&[5.0, 1.0, 2.0, 4.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(s.relative_spread(), 2.0 / 3.0);
        assert_eq!(Summary::single(7.0).relative_spread(), 0.0);
    }

    #[test]
    fn exclusive_quartiles_match_pythons() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles_exclusive(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        // Two points extrapolate: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "nothing has ten samples beyond it");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail(&eleven).unwrap();
        assert_eq!(v, 1.0, "only the smallest of 11 has ten beyond it");
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        let sixty: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        let (p, v) = tail(&sixty).unwrap();
        assert_eq!(v, 50.0, "the 50th of 60 has exactly ten beyond it");
        assert!((p - 100.0 * 50.0 / 60.0).abs() < 1e-12);
    }
}
