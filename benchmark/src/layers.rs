//! Layer probes and the pieces of the re-enacted ladder: each times one
//! crate's public function, inside a span.
//!
//! A probe runs a fixed small number of times; the metric is the median.

use std::time::{Duration, Instant};

use earl::bootstrap::parallel::{indexed_map, resolve_parallelism};
use earl::bootstrap::{Estimator, LinearSections, Ssabe, SsabeConfig};
use earl::cluster::Phase;
use earl::core::EarlConfig;
use earl::dfs::Dfs;
use earl::mapreduce::{finish_job, run_map_phase, InputSource, JobConf, Mapper, Reducer};
use earl::net::worker::handle_message;
use earl::net::{Message, Store};
use earl::sampling::{PreMapSampler, SampleSource};
use earl::serve::{AdmissionQueue, Priority};

use crate::harness::{Metric, Op};
use crate::stats;
use crate::trace::Tracer;

/// Repetitions of each fixed-size probe.
const REPS: usize = 5;
/// Fewest re-enactments (and rounds of whole operations) a traced run makes.
const MIN_ROUNDS: usize = 3;
/// Random offsets per `read_line_at` repetition.
const LINE_PROBES: usize = 4096;
/// Records in the provision-sized wire message and the worker-side map task.
const WIRE_RECORDS: usize = 65_536;

pub const MIB: f64 = 1024.0 * 1024.0;

/// SplitMix64: seeds the probe offsets from `--seed` without pulling in an
/// RNG crate.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Times `f` `reps` times, each inside a span named `name` and an operation
/// of its own; returns the samples.
pub fn probe<T>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            tracer.next_op();
            let t0 = Instant::now();
            tracer.span(name, |_| std::hint::black_box(f()));
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn scaled(samples: &[f64], f: impl Fn(f64) -> f64) -> Vec<f64> {
    samples.iter().map(|&s| f(s)).collect()
}

/// `earl-dfs` read paths over the whole file and at random offsets.
pub fn dfs_probes(
    tracer: &mut Tracer,
    dfs: &Dfs,
    path: &str,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let len = dfs.status(path).map_err(|e| e.to_string())?.len;
    let mib = len as f64 / MIB;

    let scan = probe(tracer, "dfs.scan", REPS, || {
        dfs.read_all_lines(Phase::Load, path)
            .map(|lines| lines.len())
    });
    let split_read = probe(tracer, "dfs.split_read", REPS, || {
        let mut records = 0usize;
        for split in dfs.default_splits(path).expect("file exists") {
            records += dfs
                .open_split(split, Phase::Map)
                .read_all()
                .expect("split is readable")
                .len();
        }
        records
    });
    let mut state = seed;
    let line_at = probe(tracer, "dfs.read_line_at", REPS, || {
        (0..LINE_PROBES)
            .filter_map(|_| {
                let offset = splitmix64(&mut state) % len;
                dfs.read_line_at(Phase::Load, path, offset)
                    .expect("offset is inside the file")
            })
            .count()
    });
    Ok(vec![
        Metric::samples("dfs.scan_s", "s", &scan),
        Metric::samples("dfs.scan_mb_per_s", "MiB/s", &scaled(&scan, |s| mib / s)),
        Metric::samples("dfs.split_read_s", "s", &split_read),
        Metric::samples(
            "dfs.read_line_at_us",
            "us",
            &scaled(&line_at, |s| s * 1e6 / LINE_PROBES as f64),
        ),
    ])
}

/// The exact job taken apart: `run_map_phase` over the DFS path, then
/// `finish_job` (shuffle + reduce), each in its own span.
pub fn exact_job_probes<M, R>(
    tracer: &mut Tracer,
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    reducer: &R,
) -> Result<Vec<Metric>, String>
where
    M: Mapper,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
{
    debug_assert!(matches!(conf.input, InputSource::Path(_)));
    let (mut map_s, mut finish_s) = (Vec::new(), Vec::new());
    let (mut records, mut shuffled, mut groups) = (0u64, 0u64, 0u64);
    for _ in 0..REPS {
        tracer.next_op();
        let t0 = Instant::now();
        let phase = tracer
            .span("mapreduce.map", |_| run_map_phase(dfs, conf, mapper))
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let job = tracer
            .span("mapreduce.shuffle_reduce", |_| {
                finish_job(dfs, conf, phase, reducer)
            })
            .map_err(|e| e.to_string())?;
        map_s.push((t1 - t0).as_secs_f64());
        finish_s.push(t1.elapsed().as_secs_f64());
        records = job.stats.map_input_records;
        shuffled = job.stats.shuffle_records;
        groups = job.stats.reduce_groups;
    }
    Ok(vec![
        Metric::samples("mapreduce.map_s", "s", &map_s),
        Metric::samples(
            "mapreduce.map_records_per_s",
            "1/s",
            &scaled(&map_s, |s| records as f64 / s),
        ),
        Metric::samples("mapreduce.shuffle_reduce_s", "s", &finish_s),
        Metric::single("mapreduce.groups", "count", groups as f64),
        Metric::single("mapreduce.shuffled_records", "count", shuffled as f64),
    ])
}

/// `earl-parallel`: cost of one fork-join over trivial items, and the thread
/// count every other number on this host depends on.  Nothing here depends on
/// the data: `grouped_keys`, whose many small bootstraps fork most often,
/// reports it.
pub fn parallel_probes(tracer: &mut Tracer) -> Vec<Metric> {
    const FORKS: usize = 64;
    let threads = resolve_parallelism(None);
    let secs = probe(tracer, "parallel.fork_join", REPS, || {
        for _ in 0..FORKS {
            std::hint::black_box(indexed_map(threads * 64, threads, || (), |i, ()| i));
        }
    });
    let per_fork = scaled(&secs, |s| s * 1e6 / FORKS as f64);
    vec![
        Metric::samples("parallel.fork_join_us", "us", &per_fork),
        Metric::single("parallel.threads", "count", threads as f64),
    ]
}

/// `earl-net` without sockets: the wire codec on a provision-sized and a
/// `SectionTask`-sized message, and the worker's request handler on an
/// in-process store.
pub fn net_probes(tracer: &mut Tracer, dfs: &Dfs, path: &str) -> Result<Vec<Metric>, String> {
    let mut records = dfs.export_records(path).map_err(|e| e.to_string())?;
    records.truncate(WIRE_RECORDS);
    let offsets: Vec<u64> = records.iter().map(|(offset, _)| *offset).collect();
    let messages = [
        Message::Provision {
            path: path.to_owned(),
            records,
        },
        Message::SectionTask {
            name: "mean".into(),
            params: Vec::new(),
            path: format!("{path}#sections"),
            seed: 1,
            b_start: 0,
            b_count: 200,
            size: 80_000,
        },
    ];
    let encoded: Vec<Vec<u8>> = messages
        .iter()
        .map(|m| m.encode().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mib = encoded.iter().map(Vec::len).sum::<usize>() as f64 / MIB;

    let encode = probe(tracer, "net.encode", REPS, || {
        messages
            .iter()
            .map(|m| m.encode().expect("encodes").len())
            .sum::<usize>()
    });
    let decode = probe(tracer, "net.decode", REPS, || {
        for bytes in &encoded {
            std::hint::black_box(Message::decode(bytes).expect("decodes what encode wrote"));
        }
    });

    let mut store = Store::new();
    let [provision, _] = messages;
    match handle_message(&mut store, provision) {
        Some(Message::ProvisionAck { .. }) => {}
        other => return Err(format!("in-process worker refused provisioning: {other:?}")),
    }
    let mut refused = None;
    let handle = probe(tracer, "net.worker_handle", REPS, || {
        let reply = handle_message(
            &mut store,
            Message::MapTask {
                name: "mean".into(),
                params: Vec::new(),
                path: path.to_owned(),
                offsets: offsets.clone(),
                num_shards: 1,
            },
        );
        if !matches!(reply, Some(Message::MapOk { .. })) {
            refused = Some(format!("{reply:?}"));
        }
    });
    if let Some(reply) = refused {
        return Err(format!("in-process worker refused the map task: {reply}"));
    }
    Ok(vec![
        Metric::samples(
            "net.encode_mb_per_s",
            "MiB/s",
            &scaled(&encode, |s| mib / s),
        ),
        Metric::samples(
            "net.decode_mb_per_s",
            "MiB/s",
            &scaled(&decode, |s| mib / s),
        ),
        Metric::samples("net.worker_handle_s", "s", &handle),
    ])
}

/// `earl-serve`'s admission queue on its own: fill 64 entries, drain them.
pub fn queue_probe(tracer: &mut Tracer) -> Metric {
    const ENTRIES: u32 = 64;
    const ROUNDS: usize = 256;
    let secs = probe(tracer, "serve.queue", REPS, || {
        let mut queue: AdmissionQueue<u32> = AdmissionQueue::new(ENTRIES as usize, 4);
        let now = Instant::now();
        let mut popped = 0usize;
        for _ in 0..ROUNDS {
            for i in 0..ENTRIES {
                let priority = if i % 3 == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                };
                queue
                    .try_push(priority, None, now, i)
                    .expect("queue has room");
            }
            while queue.pop_next().is_some() {
                popped += 1;
            }
        }
        popped
    });
    let ops = (2 * ENTRIES as usize * ROUNDS) as f64;
    Metric::samples("serve.queue_ops_per_s", "1/s", &scaled(&secs, |s| ops / s))
}

/// Median of per-operation span sums after `mark`, or 0 when no operation
/// recorded `name`.
fn span_median(tracer: &Tracer, name: &str, mark: u64) -> f64 {
    let per_op = tracer.seconds_per_op(name, mark);
    if per_op.is_empty() {
        0.0
    } else {
        stats::median(&per_op)
    }
}

// ---- the re-enacted ladder ---------------------------------------------------

/// Counts taken while re-enacting, so ratios are measured where the work
/// happens.
#[derive(Default)]
pub struct Tally {
    /// Re-enactments completed.
    pub ops: u64,
    pub drawn: u64,
    pub bytes_read: u64,
    pub record_bytes: u64,
    pub mapped: u64,
    pub replicates: u64,
}

/// Records in the pilot sample both drivers draw before anything else.
pub fn pilot_records(config: &EarlConfig, population: u64) -> usize {
    ((population as f64 * config.pilot_fraction).ceil() as u64)
        .max(config.min_pilot)
        .min(population) as usize
}

/// `PreMapSampler::draw` for one ladder step.
pub fn draw(
    tracer: &mut Tracer,
    sampler: &mut PreMapSampler,
    count: usize,
    tally: &mut Tally,
) -> Result<Vec<(u64, String)>, String> {
    let batch = tracer
        .span("sampling.draw", |_| sampler.draw(count))
        .map_err(|e| e.to_string())?;
    tally.drawn += batch.records.len() as u64;
    tally.bytes_read += batch.bytes_read;
    tally.record_bytes += batch
        .records
        .iter()
        .map(|(_, line)| line.len() as u64 + 1)
        .sum::<u64>();
    Ok(batch.records)
}

/// The MapReduce job over one ladder step's in-memory sample: map, then
/// shuffle + reduce, as child spans.
pub fn sample_job<M, R>(
    tracer: &mut Tracer,
    dfs: &Dfs,
    conf: &JobConf,
    mapper: &M,
    reducer: &R,
    tally: &mut Tally,
) -> Result<(), String>
where
    M: Mapper,
    R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
{
    let phase = tracer
        .span("mapreduce.map_mem", |_| run_map_phase(dfs, conf, mapper))
        .map_err(|e| e.to_string())?;
    tally.mapped += phase.stats().map_input_records;
    tracer
        .span("mapreduce.sample_shuffle_reduce", |_| {
            finish_job(dfs, conf, phase, reducer)
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Whole operations timed in the traced run.
pub struct WholeOps {
    /// Answer operations with no span around them: the `answer_s` the
    /// re-enacted spans are subtracted from.
    pub bare: Vec<f64>,
    /// The same operation inside a span; the difference is the tracing cost.
    pub spanned: Vec<f64>,
    pub exact: Vec<f64>,
}

/// Alternates bare and spanned answer operations (and an exact job) for
/// `budget`, at least [`MIN_ROUNDS`] rounds.
pub fn whole_ops(
    tracer: &mut Tracer,
    budget: Duration,
    mut answer: impl FnMut() -> Op,
    mut exact: impl FnMut() -> Op,
) -> Result<WholeOps, String> {
    let mut ops = WholeOps {
        bare: Vec::new(),
        spanned: Vec::new(),
        exact: Vec::new(),
    };
    let start = Instant::now();
    while ops.bare.len() < MIN_ROUNDS || start.elapsed() < budget {
        let bare = answer();
        tracer.next_op();
        let spanned = tracer.span("answer", |_| answer());
        let exact = exact();
        for op in [&bare, &spanned, &exact] {
            if let Some(why) = &op.failure {
                return Err(format!("operation failed in the traced run: {why}"));
            }
        }
        ops.bare.push(bare.secs);
        ops.spanned.push(spanned.secs);
        ops.exact.push(exact.secs);
    }
    Ok(ops)
}

/// Re-enacts the ladder for `budget`, at least [`MIN_ROUNDS`] times; returns
/// the counts and the last re-enactment's sample values.
pub fn reenact_for(
    tracer: &mut Tracer,
    budget: Duration,
    mut reenact: impl FnMut(&mut Tracer, &mut Tally) -> Result<Vec<f64>, String>,
) -> Result<(Tally, Vec<f64>), String> {
    let mut tally = Tally::default();
    let mut values = Vec::new();
    let start = Instant::now();
    while tally.ops < MIN_ROUNDS as u64 || start.elapsed() < budget {
        values = reenact(tracer, &mut tally)?;
    }
    Ok((tally, values))
}

/// Set-up's dataset build.  `build` generates internally, so the traced run
/// times a second, discarded generation next to it: `dfs.write_s` is the
/// build's span minus the generation's.
pub fn build_dataset<T>(
    tracer: Option<&mut Tracer>,
    generate: impl FnOnce(),
    build: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => {
            tracer.next_op();
            tracer.span("workload.generate", |_| generate());
            tracer.span("dataset.build", |_| build())
        }
        None => build(),
    }
}

/// What the reference run reported, next to the clock.
pub struct ReferenceFacts {
    pub iterations: usize,
    pub sample_fraction: f64,
    pub bootstraps: usize,
    pub cv: f64,
    pub rel_error: f64,
    pub sim_s: f64,
    pub sim_drift: usize,
}

/// The metrics every ladder re-enactment yields, from the spans recorded
/// after `mark` (and the set-up spans, whenever they were recorded).
pub fn ladder_metrics(
    tracer: &Tracer,
    mark: u64,
    tally: &Tally,
    whole: &WholeOps,
    facts: &ReferenceFacts,
    file_bytes: u64,
) -> Vec<Metric> {
    let per_op = |count: u64| count as f64 / tally.ops as f64;
    let answer_s = stats::median(&whole.bare);
    let generate_s = span_median(tracer, "workload.generate", 0);
    let write_s = span_median(tracer, "dataset.build", 0) - generate_s;
    let median = |span: &str| span_median(tracer, span, mark);
    let spans =
        |name: &str, span: &str| Metric::samples(name, "s", &tracer.seconds_per_op(span, mark));
    vec![
        Metric::single("workload.generate_s", "s", generate_s),
        Metric::single("dfs.write_s", "s", write_s),
        Metric::single(
            "dfs.write_mb_per_s",
            "MiB/s",
            file_bytes as f64 / MIB / write_s,
        ),
        spans("sampling.draw_s", "sampling.draw"),
        Metric::single(
            "sampling.us_per_record",
            "us",
            median("sampling.draw") * 1e6 / per_op(tally.drawn),
        ),
        Metric::single(
            "sampling.read_amplification",
            "x",
            tally.bytes_read as f64 / tally.record_bytes as f64,
        ),
        spans("mapreduce.map_mem_s", "mapreduce.map_mem"),
        Metric::single(
            "mapreduce.map_mem_records_per_s",
            "1/s",
            per_op(tally.mapped) / median("mapreduce.map_mem"),
        ),
        spans("mapreduce.sample_job_s", "mapreduce.sample_job"),
        spans("bootstrap.aes_s", "bootstrap.aes"),
        Metric::single(
            "bootstrap.replicates_per_s",
            "1/s",
            per_op(tally.replicates) / median("bootstrap.aes"),
        ),
        spans("core.extract_s", "core.extract"),
        Metric::single("core.iterations", "count", facts.iterations as f64),
        Metric::single("core.sample_fraction", "ratio", facts.sample_fraction),
        Metric::single("core.bootstraps", "count", facts.bootstraps as f64),
        Metric::single("core.cv", "ratio", facts.cv),
        Metric::single("core.rel_error", "ratio", facts.rel_error),
        Metric::single(
            "core.speedup_x",
            "x",
            stats::median(&whole.exact) / answer_s,
        ),
        Metric::single("core.unattributed_s", "s", answer_s - median("reenact")),
        Metric::single(
            "core.reused_world_sim_drift",
            "count",
            facts.sim_drift as f64,
        ),
        Metric::single("cluster.sim_s", "s", facts.sim_s),
        Metric::single("cluster.sim_per_wall", "x", facts.sim_s / answer_s),
        Metric::single(
            "trace.overhead_pct",
            "%",
            100.0 * (stats::median(&whole.spanned) - answer_s) / answer_s,
        ),
        Metric::samples("trace.answer_s", "s", &whole.bare),
        spans("trace.reenacted_s", "reenact"),
    ]
}

/// SSABE configured as `EarlDriver` configures it.
pub fn ssabe_for(config: &EarlConfig) -> Result<Ssabe, String> {
    Ssabe::new(SsabeConfig {
        parallelism: config.parallelism,
        kernel: config.bootstrap_kernel,
        ..SsabeConfig::new(config.sigma, config.tau)
    })
    .map_err(|e| e.to_string())
}

/// `earl-bootstrap` entry points that are not on every workload's path:
/// the O(n) section-summary build at the final sample size and SSABE on the
/// pilot.
pub fn estimator_probes(
    tracer: &mut Tracer,
    values: &[f64],
    pilot_len: usize,
    config: &EarlConfig,
    estimator: &dyn Estimator,
    population: u64,
) -> Result<Vec<Metric>, String> {
    let sections = probe(tracer, "bootstrap.sections_build", REPS, || {
        LinearSections::build(values)
    });
    let ssabe = ssabe_for(config)?;
    let pilot = &values[..pilot_len.min(values.len())];
    let ssabe_s = probe(tracer, "bootstrap.ssabe_probe", REPS, || {
        ssabe.estimate(config.seed, pilot, estimator, population)
    });
    Ok(vec![
        Metric::samples("bootstrap.sections_build_s", "s", &sections),
        Metric::samples("bootstrap.ssabe_s", "s", &ssabe_s),
    ])
}
