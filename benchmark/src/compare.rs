//! `bench compare A.json B.json`: each end-to-end metric's own bound, applied
//! per workload row.

use crate::contract::{Better, EndToEnd, END_TO_END};
use crate::json::Value;
use crate::stats::{self, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the baseline by more than the metric's bound.
    Regressed,
    /// Better by more than the bound and by more than either run's spread.
    Improved,
    /// Within the bound, but the spread inside a run is wider than the
    /// bound: the runs cannot tell "unchanged" from "changed".
    Unresolved,
    Unchanged,
}

/// By how much `new` is worse than `base`, as a share of `base` (negative
/// when it is better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        // Only `failed_share` has a zero baseline: any increase is infinite.
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

pub fn judge(metric: &EndToEnd, base: &Summary, new: &Summary) -> (Verdict, f64) {
    let worse = worsening(metric.better, base.median, new.median);
    let spread = base.relative_spread().max(new.relative_spread());
    let verdict = if worse > metric.bound {
        Verdict::Regressed
    } else if -worse > metric.bound.max(spread) {
        Verdict::Improved
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse)
}

/// Reads one stored metric back into a [`Summary`].
pub fn summary_of(metric: &Value) -> Option<Summary> {
    let num = |key: &str| metric.get(key).and_then(Value::as_f64);
    let median = num("value")?;
    Some(Summary {
        median,
        q1: num("q1").unwrap_or(median),
        q3: num("q3").unwrap_or(median),
        n: num("n").unwrap_or(1.0) as usize,
    })
}

/// Compares two sets (`workload → {metrics: {...}}` objects) row by row.
/// Returns the printed lines and the number of regressions.
pub fn compare_sets(base: &Value, new: &Value) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut regressions = 0;
    for (workload, base_row) in base.as_obj().unwrap_or(&[]) {
        let Some(new_row) = new.get(workload) else {
            lines.push(format!("{workload}: missing from the second file"));
            regressions += 1;
            continue;
        };
        for metric in &END_TO_END {
            let stored = |row: &Value| row.get("metrics")?.get(metric.name).and_then(summary_of);
            let (Some(a), Some(b)) = (stored(base_row), stored(new_row)) else {
                continue;
            };
            let (verdict, worse) = judge(metric, &a, &b);
            if verdict == Verdict::Regressed {
                regressions += 1;
            }
            lines.push(format!(
                "{workload} {} {:?}: {} -> {} {} ({:+.1} % worse, bound {:.0} %, spread {:.1} %)",
                metric.name,
                verdict,
                a.median,
                b.median,
                metric.unit,
                100.0 * worse,
                100.0 * metric.bound,
                100.0 * a.relative_spread().max(b.relative_spread()),
            ));
        }
    }
    (lines, regressions)
}

/// The driver's repeatability measure over `sets` (one per seed): for every
/// workload and end-to-end metric, the distance between the quartiles of the
/// sets' values as a share of their median.  Returns the printed lines and
/// the number of cells whose spread exceeds the metric's bound.
pub fn spread_over_sets(sets: &[Value]) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut wide = 0;
    let Some(first) = sets.first() else {
        return (lines, wide);
    };
    for (workload, _) in first.as_obj().unwrap_or(&[]) {
        // `failed_share` has its own rule (any increase) and no spread.
        for metric in END_TO_END.iter().filter(|m| m.bound > 0.0) {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.get(workload)?.get("metrics")?.get(metric.name))
                .filter_map(|cell| cell.get("value").and_then(Value::as_f64))
                .collect();
            let Some([q1, median, q3]) = stats::quartiles_exclusive(&values) else {
                continue;
            };
            let spread = (q3 - q1) / median.abs();
            let verdict = if spread > metric.bound {
                wide += 1;
                "TOO WIDE"
            } else if spread > metric.bound / 3.0 {
                "above a third of the bound"
            } else {
                "steady"
            };
            lines.push(format!(
                "{workload} {} median {median} {} spread {:.1} % of it over {} sets (bound {:.0} %): {verdict}",
                metric.name,
                metric.unit,
                100.0 * spread,
                values.len(),
                100.0 * metric.bound,
            ));
        }
    }
    (lines, wide)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, spread: f64) -> Summary {
        Summary {
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            n: 20,
        }
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    /// A summary `steps` bounds worse than 1.0 (negative: better).
    fn shifted(metric: &EndToEnd, steps: f64, spread: f64) -> Summary {
        let shift = 1.0 + steps * metric.bound;
        summary(
            match metric.better {
                Better::Lower => shift,
                Better::Higher => 2.0 - shift,
            },
            spread,
        )
    }

    #[test]
    fn bounds_apply_in_the_metrics_own_direction() {
        for name in ["answer_s", "jobs_per_s"] {
            let m = metric(name);
            let verdict = |steps: f64| judge(m, &summary(1.0, 0.02), &shifted(m, steps, 0.02)).0;
            assert_eq!(verdict(1.3), Verdict::Regressed, "{name}");
            assert_eq!(verdict(0.5), Verdict::Unchanged, "{name}");
            assert_eq!(verdict(-0.5), Verdict::Unchanged, "{name}");
            assert_eq!(verdict(-1.2), Verdict::Improved, "{name}");
        }
        assert!(worsening(Better::Lower, 1.0, 1.1) > 0.0);
        assert!(worsening(Better::Higher, 1.0, 1.1) < 0.0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let m = metric("answer_s");
        let wide = summary(1.0, 2.0 * m.bound);
        assert_eq!(
            judge(m, &wide, &shifted(m, 0.2, 0.02)).0,
            Verdict::Unresolved
        );
        // Nor does it let a gain smaller than the spread through.
        assert_eq!(
            judge(m, &wide, &shifted(m, -0.6, 0.02)).0,
            Verdict::Unresolved
        );
        // A regression beyond the bound is reported whatever the spread.
        assert_eq!(
            judge(m, &wide, &shifted(m, 1.2, 0.02)).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn any_more_failures_is_a_regression() {
        let failed = metric("failed_share");
        assert_eq!(
            judge(failed, &summary(0.0, 0.0), &summary(0.0, 0.0)).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(failed, &summary(0.0, 0.0), &summary(0.01, 0.0)).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn sets_are_compared_row_by_row() {
        let row = |answer: f64| {
            Value::obj([(
                "metrics",
                Value::obj([(
                    "answer_s",
                    Value::obj([
                        ("value", Value::Num(answer)),
                        ("q1", Value::Num(answer * 0.99)),
                        ("q3", Value::Num(answer * 1.01)),
                        ("n", Value::Num(20.0)),
                    ]),
                )]),
            )])
        };
        let base = Value::obj([("scan_linear", row(1.0)), ("ladder_order", row(2.0))]);
        let same = Value::obj([("scan_linear", row(1.01)), ("ladder_order", row(2.0))]);
        let slower = Value::obj([("scan_linear", row(1.0)), ("ladder_order", row(3.0))]);
        assert_eq!(compare_sets(&base, &same).1, 0);
        let (lines, regressions) = compare_sets(&base, &slower);
        assert_eq!(regressions, 1);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("ladder_order answer_s Regressed")));
        let missing = Value::obj([("scan_linear", row(1.0))]);
        assert_eq!(compare_sets(&base, &missing).1, 1);

        // Over sets: quartiles of [1.0, 1.01, 1.0] are 1.0 and 1.01, of
        // [2.0, 2.0, 3.0] they are 2.0 and 3.0.
        let (lines, wide) = spread_over_sets(&[base, same, slower]);
        assert_eq!(wide, 1);
        assert!(lines[0].starts_with("scan_linear answer_s median 1 s spread 1.0 %"));
        assert!(lines[1].contains("spread 50.0 %") && lines[1].ends_with("TOO WIDE"));
    }
}
