//! The metrics `BENCHMARK.json` promises — every workload reports every one of
//! them, end-to-end ones from the untraced run and per-layer ones from the
//! traced run — and the end-to-end metrics only some workloads have.  A unit
//! test holds these tables and the file together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the baseline's median by which it
/// may get worse before `compare` calls it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Part of `BENCHMARK.json` (reported by every workload), or printed and
    /// judged by `bench compare` only where a workload has it.
    pub universal: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    universal: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        universal,
    }
}

/// Every bound is the 25 % the contract allows at most: on the shared
/// reference host the spread of ten runs with ten seeds reached 18 % on
/// `answer_s`, 23 % on `first_result_s` and 22 % on `exact_s` in one of three
/// sweeps (README, "Repeatability"), and a tighter bound would sit inside it.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("answer_s", "s", Better::Lower, 0.25, true),
    e2e("first_result_s", "s", Better::Lower, 0.25, true),
    e2e("exact_s", "s", Better::Lower, 0.25, true),
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    // `serve_closed` only: one caller at a time completes 1 / `answer_s`
    // jobs per second, which says nothing `answer_s` does not.
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25, false),
    // `serve_closed` only: the other workloads run too few operations for any
    // percentile to have ten samples beyond it.
    e2e("answer_tail_s", "s", Better::Lower, 0.25, false),
    // `VmHWM` at exit.  Steady on the sequential workloads, but on
    // `serve_closed` it depends on how the two running jobs' private worlds
    // happen to overlap (326-455 MiB over ten runs): wider than the widest
    // bound the contract allows, so only `bench compare` judges it.
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25, false),
    // Always 0 on a healthy run, which the contract's metrics may not be; the
    // run's `failed` count carries it there.  Any increase is a regression.
    e2e("failed_share", "ratio", Better::Lower, 0.0, false),
];

/// Per-layer metrics every workload's traced run reports on its own data:
/// `(name, unit, better)`.  Layers only one workload has (`net.*` on
/// `net_remote`, `serve.*` on `serve_closed`, `parallel.*` on `grouped_keys`)
/// are printed and stored next to them by that workload alone.
pub const PER_LAYER: [(&str, &str, Better); 34] = [
    ("workload.generate_s", "s", Better::Lower),
    ("dfs.write_s", "s", Better::Lower),
    ("dfs.write_mb_per_s", "MiB/s", Better::Higher),
    ("dfs.scan_s", "s", Better::Lower),
    ("dfs.scan_mb_per_s", "MiB/s", Better::Higher),
    ("dfs.split_read_s", "s", Better::Lower),
    ("dfs.read_line_at_us", "us", Better::Lower),
    ("sampling.draw_s", "s", Better::Lower),
    ("sampling.us_per_record", "us", Better::Lower),
    ("sampling.read_amplification", "x", Better::Lower),
    ("mapreduce.map_s", "s", Better::Lower),
    ("mapreduce.map_records_per_s", "1/s", Better::Higher),
    ("mapreduce.map_mem_s", "s", Better::Lower),
    ("mapreduce.map_mem_records_per_s", "1/s", Better::Higher),
    ("mapreduce.shuffle_reduce_s", "s", Better::Lower),
    ("mapreduce.groups", "count", Better::Lower),
    ("mapreduce.shuffled_records", "count", Better::Lower),
    ("mapreduce.sample_job_s", "s", Better::Lower),
    ("bootstrap.aes_s", "s", Better::Lower),
    ("bootstrap.replicates_per_s", "1/s", Better::Higher),
    ("bootstrap.sections_build_s", "s", Better::Lower),
    ("bootstrap.ssabe_s", "s", Better::Lower),
    ("core.extract_s", "s", Better::Lower),
    ("core.iterations", "count", Better::Lower),
    ("core.sample_fraction", "ratio", Better::Lower),
    ("core.bootstraps", "count", Better::Lower),
    ("core.cv", "ratio", Better::Lower),
    ("core.rel_error", "ratio", Better::Lower),
    ("core.speedup_x", "x", Better::Higher),
    ("core.unattributed_s", "s", Better::Lower),
    ("core.reused_world_sim_drift", "count", Better::Lower),
    ("cluster.sim_s", "s", Better::Lower),
    ("cluster.sim_per_wall", "x", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workloads;

    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let file = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let rows = |key: &str| file.get(key).and_then(Value::as_arr).expect(key).to_vec();
        let field =
            |row: &Value, key: &str| row.get(key).and_then(Value::as_str).expect(key).to_owned();

        let names: Vec<String> = rows("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, workloads::NAMES);

        let promised: Vec<_> = END_TO_END.iter().filter(|m| m.universal).collect();
        let listed = rows("end_to_end");
        assert_eq!(listed.len(), promised.len());
        for (row, metric) in listed.iter().zip(promised) {
            assert_eq!(field(row, "name"), metric.name);
            assert_eq!(field(row, "unit"), metric.unit);
            assert_eq!(field(row, "better"), metric.better.as_str());
            assert_eq!(row.get("bound").and_then(Value::as_f64), Some(metric.bound));
        }

        let listed = rows("per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (row, (name, unit, better)) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(row, "name"), name);
            assert_eq!(field(row, "unit"), unit);
            assert_eq!(field(row, "better"), better.as_str());
        }

        let paths: Vec<_> = rows("paths")
            .iter()
            .map(|p| p.as_str().unwrap().to_owned())
            .collect();
        assert_eq!(paths, ["benchmark"]);
        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
