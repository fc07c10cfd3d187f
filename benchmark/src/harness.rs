//! What every workload provides and how one workload process is run: set-up
//! (timed), verification (untimed), blocked timed phases, metric assembly.

use std::time::{Duration, Instant};

use crate::procs;
use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// Timed set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Discarded operations before each timed phase (verification has already
/// run each kind of operation once on the same world).
pub const WARMUPS: usize = 1;
/// Fewest operations a timed phase measures, however slow they are.
pub const MIN_OPS: usize = 5;
/// Share of `--seconds` spent in the answer phase; the rest times exact jobs.
/// The phases run blocked — interleaving them doubled the spread of `exact_s`.
pub const ANSWER_SHARE: f64 = 0.55;

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Submit → final report in hand.
    pub secs: f64,
    /// Submit → first estimate with an error bar.
    pub first_secs: f64,
    /// Why the operation counts as failed, if it does.
    pub failure: Option<String>,
}

/// All operations of one timed phase and the typical waits over them.
#[derive(Debug, Clone)]
pub struct Phase {
    pub ops: Vec<Op>,
    pub secs: Summary,
    pub first_secs: Summary,
}

impl Phase {
    /// A phase of like operations: the typical wait is the median over all.
    pub fn uniform(ops: Vec<Op>) -> Self {
        let of = |f: fn(&Op) -> f64| stats::summarise(&ops.iter().map(f).collect::<Vec<_>>());
        Self {
            secs: of(|op| op.secs),
            first_secs: of(|op| op.first_secs),
            ops,
        }
    }
}

/// A reported number: name, unit, median and quartiles over its samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
    /// Free-text qualifier printed after the value (e.g. the tail percentile).
    pub note: Option<String>,
}

impl Metric {
    pub fn single(name: &str, unit: &'static str, value: f64) -> Self {
        Self::of(name, unit, Summary::single(value))
    }

    pub fn samples(name: &str, unit: &'static str, samples: &[f64]) -> Self {
        Self::of(name, unit, stats::summarise(samples))
    }

    pub fn of(name: &str, unit: &'static str, summary: Summary) -> Self {
        Self {
            name: name.to_owned(),
            unit,
            summary,
            note: None,
        }
    }

    pub fn value(&self) -> f64 {
        self.summary.median
    }
}

/// One benchmark workload.  The methods are called in declaration order.
pub trait Workload {
    /// Everything a user pays before the first operation: generate the
    /// inputs from the seed, write them to a fresh DFS, start whatever must be
    /// resident.  Replaces the world of an earlier call.  With a tracer the
    /// layers are timed separately.
    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String>;

    /// Untimed checks on the fresh world(s): ground truth, the error bound,
    /// and the cross-path equalities the workload promises.  Records the
    /// reference reports the timed operations are compared with.
    fn verify(&mut self) -> Result<(), String>;

    /// One early-accurate-result operation on the resident world.
    fn answer_phase(&mut self, budget: Duration) -> Phase;

    /// The exact job on the same data.
    fn exact_phase(&mut self, budget: Duration) -> Phase;

    /// `(metric, why)` for each end-to-end metric this workload has no
    /// operation of its own for.  `BENCHMARK.json` wants every workload to
    /// report every metric it lists, so the workload reports the nearest
    /// thing a user would see, and the reason is printed next to the value.
    fn stand_ins(&self) -> &'static [(&'static str, &'static str)] {
        &[]
    }

    /// Metrics only this workload has (printed and stored, but not part of
    /// the `BENCHMARK.json` contract, whose metrics every workload reports).
    fn extra_metrics(&self) -> Vec<Metric> {
        Vec::new()
    }

    /// The traced run: re-enacts the reference run's ladder through direct
    /// calls into each layer and probes the layers on this workload's data.
    fn layers(&mut self, tracer: &mut Tracer, budget: Duration) -> Result<Vec<Metric>, String>;
}

/// Runs `op` for `budget` (at least [`MIN_OPS`] times) after [`WARMUPS`]
/// discarded runs.
pub fn timed_ops(budget: Duration, mut op: impl FnMut() -> Op) -> Phase {
    for _ in 0..WARMUPS {
        op();
    }
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < MIN_OPS || start.elapsed() < budget {
        ops.push(op());
    }
    Phase::uniform(ops)
}

/// The result of one workload process.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failures: Vec<String>,
}

/// The untraced run: every end-to-end metric.
pub fn run_timed(workload: &mut dyn Workload, seconds: f64) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        workload.setup(None)?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    workload.verify()?;

    let answer = workload.answer_phase(Duration::from_secs_f64(seconds * ANSWER_SHARE));
    let exact = workload.exact_phase(Duration::from_secs_f64(seconds * (1.0 - ANSWER_SHARE)));

    let mut metrics = vec![
        Metric::of("answer_s", "s", answer.secs),
        Metric::of("first_result_s", "s", answer.first_secs),
        Metric::of("exact_s", "s", exact.secs),
        Metric::samples("setup_s", "s", &setups),
    ];
    for (name, why) in workload.stand_ins() {
        let metric = metrics.iter_mut().find(|m| m.name == *name);
        metric.expect("a stand-in names an end-to-end metric").note = Some(format!("({why})"));
    }
    metrics.extend(workload.extra_metrics());
    let failures: Vec<String> = answer
        .ops
        .iter()
        .chain(&exact.ops)
        .filter_map(|op| op.failure.clone())
        .collect();
    let attempted = answer.ops.len() + exact.ops.len();
    metrics.push(Metric::single(
        "failed_share",
        "ratio",
        failures.len() as f64 / attempted as f64,
    ));
    // Read last, so that it covers everything this process did.
    let rss = procs::peak_rss_mb("self").ok_or("cannot read VmHWM from /proc/self/status")?;
    metrics.push(Metric::single("peak_rss_mb", "MiB", rss));
    Ok(RunResult {
        metrics,
        attempted,
        failures,
    })
}

/// The traced run: every per-layer metric, spans left in `tracer`.
pub fn run_traced(
    workload: &mut dyn Workload,
    tracer: &mut Tracer,
    seconds: f64,
) -> Result<RunResult, String> {
    workload.setup(Some(tracer))?;
    workload.verify()?;
    let metrics = workload.layers(tracer, Duration::from_secs_f64(seconds))?;
    Ok(RunResult {
        metrics,
        attempted: (tracer.mark() as usize).max(1),
        failures: Vec::new(),
    })
}
