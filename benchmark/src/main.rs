//! `bench`: how long a user waits for an early accurate result, and for the
//! exact answer, on five workloads — measured from outside, through public
//! functions only — plus a traced run that splits each wait by crate.
//!
//! ```text
//! bench [--seed N] [--seconds S] [--out FILE] [--trace] [--sets K]
//! bench --workload NAME --seed N --seconds S --trace 0|1 [--detail FILE]
//! bench compare A.json B.json
//! ```
//!
//! The first form runs the suite: it re-executes itself once per workload
//! (second form) so that peak memory, allocator state and caches are per
//! workload; set `i` of `--sets K` runs with seed `N + i`.  See `README.md`
//! next to this package for every definition.

mod compare;
mod contract;
mod grouped;
mod harness;
mod json;
mod layers;
mod procs;
mod scalar;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use earl::bootstrap::parallel::resolve_parallelism;

use crate::contract::{END_TO_END, PER_LAYER};
use crate::harness::{Metric, RunResult};
use crate::json::Value;
use crate::trace::Tracer;

/// Seconds one run measures unless `--seconds` says otherwise; the same as
/// `run_seconds` in `BENCHMARK.json`, so suite results compare with the
/// driver's.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_OUT: &str = "bench-results.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        _ => Options::parse(&args).and_then(|options| match &options.workload {
            Some(name) => run_workload(name, &options),
            None => run_suite(&options),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    out: PathBuf,
    detail: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = Options {
            workload: None,
            seed: 11,
            seconds: DEFAULT_SECONDS,
            trace: false,
            sets: 1,
            out: PathBuf::from(DEFAULT_OUT),
            detail: None,
        };
        let mut args = args.iter().peekable();
        while let Some(flag) = args.next() {
            if flag == "--trace" {
                // `--trace 0|1` from the driver, a bare `--trace` by hand.
                options.trace = match args.peek().map(|v| v.as_str()) {
                    Some("0") | Some("1") => args.next().is_some_and(|v| v == "1"),
                    _ => true,
                };
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => options.workload = Some(value.clone()),
                "--seed" => options.seed = value.parse().map_err(|_| number("a whole number"))?,
                "--seconds" => options.seconds = value.parse().map_err(|_| number("a number"))?,
                "--sets" => options.sets = value.parse().map_err(|_| number("a whole number"))?,
                "--out" => options.out = PathBuf::from(value),
                "--detail" => options.detail = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag:?} (see the README)")),
            }
        }
        if !(options.seconds > 0.0 && options.seconds.is_finite()) || options.sets == 0 {
            return Err("--seconds and --sets must be positive".into());
        }
        Ok(options)
    }
}

fn fmt(value: f64) -> String {
    if value.abs() >= 1000.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.6}")
    }
}

fn metric_json(metric: &Metric) -> Value {
    let mut pairs = vec![
        ("value", Value::Num(metric.summary.median)),
        ("unit", Value::str(metric.unit)),
        ("n", Value::Num(metric.summary.n as f64)),
        ("q1", Value::Num(metric.summary.q1)),
        ("q3", Value::Num(metric.summary.q3)),
    ];
    if let Some(note) = &metric.note {
        pairs.push(("note", Value::str(note.clone())));
    }
    Value::obj(pairs)
}

/// One workload in this process: the driver's entry point, and the suite's
/// child.  The last line of standard output is the contract's result object.
fn run_workload(name: &str, options: &Options) -> Result<bool, String> {
    let mut workload = workloads::build(name, options.seed)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", workloads::NAMES))?;
    println!(
        "# workload={name} seed={} seconds={} trace={} nproc={} threads={}",
        options.seed,
        options.seconds,
        u8::from(options.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        resolve_parallelism(None),
    );
    let mut tracer = Tracer::new();
    let RunResult {
        metrics,
        attempted,
        failures,
    } = if options.trace {
        harness::run_traced(workload.as_mut(), &mut tracer, options.seconds)?
    } else {
        harness::run_timed(workload.as_mut(), options.seconds)?
    };
    // Stops the service, workers and transports before the result is
    // printed: nothing this process started outlives its last line.
    drop(workload);

    for metric in &metrics {
        let s = &metric.summary;
        println!(
            "{name} {} {} {} n={} q1={} q3={}{}",
            metric.name,
            fmt(s.median),
            metric.unit,
            s.n,
            fmt(s.q1),
            fmt(s.q3),
            metric
                .note
                .as_ref()
                .map_or(String::new(), |n| format!(" {n}")),
        );
    }
    for failure in &failures {
        eprintln!("bench: {name}: failed operation: {failure}");
    }

    let promised: Vec<&str> = if options.trace {
        PER_LAYER.iter().map(|(name, _, _)| *name).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.universal)
            .map(|m| m.name)
            .collect()
    };
    let mut contract = Vec::new();
    for wanted in promised {
        let metric = metrics
            .iter()
            .find(|m| m.name == wanted)
            .ok_or_else(|| format!("{name} did not report {wanted}"))?;
        let pair = [
            ("value", Value::Num(metric.value())),
            ("unit", Value::str(metric.unit)),
        ];
        contract.push((wanted, Value::obj(pair)));
    }
    let head = |metrics: Value| {
        vec![
            ("correct", Value::Bool(failures.is_empty())),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failures.len() as f64)),
            ("metrics", metrics),
        ]
    };
    if let Some(path) = &options.detail {
        let all = Value::obj(metrics.iter().map(|m| (m.name.clone(), metric_json(m))));
        let mut detail = head(all);
        if options.trace {
            detail.push(("spans", tracer.to_json()));
        }
        write(path, &Value::obj(detail).to_line())?;
    }
    println!("{}", Value::obj(head(Value::obj(contract))).to_line());
    Ok(true)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Runs one child and reads its detail file back.
fn child(name: &str, options: &Options, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate bench binary: {e}"))?;
    let detail = PathBuf::from(format!(
        "{}.{name}.{}.tmp",
        options.out.display(),
        u8::from(trace)
    ));
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("cannot run the {name} child: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{name} (trace {}) failed: {status}",
            u8::from(trace)
        ));
    }
    let value = read_json(&detail);
    let _ = std::fs::remove_file(&detail);
    value
}

/// The whole suite, `--sets` times, one child process per workload and run.
fn run_suite(options: &Options) -> Result<bool, String> {
    let host = Value::obj([
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("threads", Value::Num(resolve_parallelism(None) as f64)),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Value::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Value::Num(options.seed as f64)),
        ("seconds", Value::Num(options.seconds)),
    ]);
    println!("# bench suite host={}", host.to_line());

    let mut healthy = true;
    let mut sets = Vec::new();
    let mut spans = Vec::new();
    for set in 0..options.sets {
        let seed = options.seed + set as u64;
        let mut rows = Vec::new();
        for name in workloads::NAMES {
            let mut row = child(name, options, seed, false)?;
            healthy &= row.get("correct") == Some(&Value::Bool(true));
            if options.trace {
                let traced = child(name, options, seed, true)?;
                healthy &= traced.get("correct") == Some(&Value::Bool(true));
                let layers = traced.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
                if let Some(Value::Obj(metrics)) = row.get_mut("metrics") {
                    // A metric both runs report (counts) keeps the timed run's value.
                    for (name, value) in layers {
                        if !metrics.iter().any(|(known, _)| known == name) {
                            metrics.push((name.clone(), value.clone()));
                        }
                    }
                }
                if set == 0 {
                    spans.push((
                        name.to_owned(),
                        traced.get("spans").cloned().unwrap_or(Value::Null),
                    ));
                }
            }
            rows.push((name.to_owned(), row));
        }
        sets.push(Value::Obj(rows));
    }

    let mut regressions = 0;
    for (i, set) in sets.iter().enumerate().skip(1) {
        println!("# set {} against set 1 (same code, the next seed)", i + 1);
        let (lines, worse) = compare::compare_sets(&sets[0], set);
        lines.iter().for_each(|line| println!("{line}"));
        regressions += worse;
    }
    if sets.len() > 1 {
        println!(
            "# quartile spread of each cell over the {} sets",
            sets.len()
        );
        let (lines, wide) = compare::spread_over_sets(&sets);
        lines.iter().for_each(|line| println!("{line}"));
        regressions += wide;
    }
    write(
        &options.out,
        &Value::obj([("host", host), ("sets", Value::Arr(sets))]).to_pretty(),
    )?;
    println!("# results written to {}", options.out.display());
    if options.trace {
        let path = PathBuf::from(format!("{}.trace.json", options.out.display()));
        write(&path, &Value::Obj(spans).to_line())?;
        println!("# spans written to {}", path.display());
    }
    if regressions > 0 {
        eprintln!("bench: {regressions} cell(s) of the repeated sets are outside their bounds");
    }
    Ok(healthy && regressions == 0)
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [base, new] = paths else {
        return Err("usage: bench compare A.json B.json".into());
    };
    let first_set = |path: &String| -> Result<Value, String> {
        read_json(Path::new(path))?
            .get("sets")
            .and_then(Value::as_arr)
            .and_then(|sets| sets.first().cloned())
            .ok_or_else(|| format!("{path} holds no result set"))
    };
    let (lines, regressions) = compare::compare_sets(&first_set(base)?, &first_set(new)?);
    lines.iter().for_each(|line| println!("{line}"));
    println!("# {regressions} regression(s)");
    Ok(regressions == 0)
}
