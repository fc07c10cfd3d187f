//! Intra-iteration delta maintenance (§4.2).
//!
//! Two resamples of the same sample share, in expectation, a sizable fraction
//! of identical data items.  The paper models the probability that a fraction
//! `y` of one resample is identical to another resample as
//!
//! ```text
//! P(X = y) = n! / ((n − y·n)! · n^{y·n})          (Eq. 4)
//! ```
//!
//! and the expected work saved by reusing the shared part as `P(X = y) · y`.
//! The optimal `y` for a given `n` is found by a simple search; the paper
//! reports an average saving of ≈20 % over the standard bootstrap.

/// The probability from Eq. 4 that a fraction `y` of a resample of size `n` is
/// identical to (the corresponding part of) another resample: the first `y·n`
/// draws hit `y·n` *distinct* pre-determined items, i.e. a falling-factorial
/// over `n^{y·n}`.
pub fn overlap_probability(n: u64, y: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let y = y.clamp(0.0, 1.0);
    let k = (y * n as f64).floor() as u64;
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    // ln P = ln(n!) − ln((n−k)!) − k·ln(n) = Σ_{i=n-k+1..n} ln(i) − k·ln(n)
    let mut log_p = 0.0;
    for i in (n - k + 1)..=n {
        log_p += (i as f64).ln();
    }
    log_p -= k as f64 * (n as f64).ln();
    log_p.exp()
}

/// Expected work saved when reusing an identical fraction `y`:
/// `P(X = y) · y`.
pub fn expected_work_saved(n: u64, y: f64) -> f64 {
    overlap_probability(n, y) * y.clamp(0.0, 1.0)
}

/// Finds the `y ∈ {0, 1/n, …, 1}` that maximises [`expected_work_saved`] for a
/// sample of size `n`, returning `(y, expected saving)`.
pub fn optimal_y(n: u64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 0.0);
    }
    let mut best = (0.0, 0.0);
    for k in 0..=n {
        let y = k as f64 / n as f64;
        let saved = expected_work_saved(n, y);
        if saved > best.1 {
            best = (y, saved);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq4_matches_the_papers_worked_example() {
        // §4.2: "if n = 29 and y = 0.3, … 35% of the time resamples will contain
        // 30% of identical data".  0.3·29 rounds to 9 shared items.
        let p = overlap_probability(29, 0.3);
        assert!((0.30..0.40).contains(&p), "expected ≈0.35, got {p}");
    }

    #[test]
    fn overlap_probability_edges() {
        assert_eq!(overlap_probability(0, 0.5), 0.0);
        assert_eq!(
            overlap_probability(100, 0.0),
            1.0,
            "sharing nothing is certain"
        );
        assert!(
            overlap_probability(100, 1.0) < 1e-10,
            "sharing everything is essentially impossible"
        );
        // Monotonically decreasing in y.
        let n = 50;
        let mut prev = 1.0;
        for k in 1..=n {
            let p = overlap_probability(n, k as f64 / n as f64);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn optimal_y_matches_the_sqrt_n_law() {
        // Maximising y·P(X=y) ≈ (k/n)·exp(−k²/2n) puts the optimum near
        // k = √n with a saving of ≈0.61/√n — the shape of Fig. 3.  The paper's
        // "over 20% average saving" corresponds to the small sample sizes its
        // optimisation targets (§4.2 notes it is "best suited for small sample
        // sizes").
        for n in [10u64, 29, 50, 100, 200] {
            let (y, saved) = optimal_y(n);
            assert!(y > 0.0 && y < 1.0);
            let law = 0.6065 / (n as f64).sqrt();
            assert!(
                (saved - law).abs() / law < 0.45,
                "for n={n}, expected saving ≈{law:.3}, got {saved:.3} at y={y:.3}"
            );
        }
        // Small samples reach the ≈20% region the paper reports.
        assert!(optimal_y(10).1 > 0.15);
        assert_eq!(optimal_y(0), (0.0, 0.0));
    }

    #[test]
    fn savings_decline_as_n_grows() {
        // Fig. 3 shape: the achievable saving shrinks with the sample size.
        let s_small = optimal_y(10).1;
        let s_mid = optimal_y(100).1;
        let s_large = optimal_y(1000).1;
        assert!(
            s_small > s_mid && s_mid > s_large,
            "{s_small} > {s_mid} > {s_large} expected"
        );
    }
}
