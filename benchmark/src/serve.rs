//! `serve_closed`: the resident service under a closed loop — two client
//! threads, each `admit` → drain `next_update` → `wait`, alternating mean and
//! median jobs over one registered dataset.  Closed because `JobHandle`
//! callers each wait for their reply before asking again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use earl::core::tasks::{MeanTask, MedianTask};
use earl::core::{EarlConfig, EarlReport};
use earl::dfs::Dfs;
use earl::mapreduce::TaskSpec;
use earl::serve::{
    replay, DatasetDef, DatasetRegistry, EarlService, JobLog, JobRequest, ServeError, ServiceConfig,
};
use earl::workload::{DatasetBuilder, DatasetSpec};

use crate::harness::{timed_ops, Metric, Op, Phase, Workload, MIN_OPS};
use crate::layers;
use crate::scalar::{check_truth, Scalar, PATH};
use crate::stats::{self, Summary};
use crate::trace::Tracer;

const DATASET: &str = "spread";
const NODES: u32 = 4;
const CLIENTS: usize = 2;
const KINDS: [&str; 2] = ["mean", "median"];

/// One job as its client saw it.
struct Job {
    kind: usize,
    op: Op,
    admit_us: f64,
    updates: usize,
    rejected: bool,
    shed: bool,
}

pub struct Serve {
    config: EarlConfig,
    def: DatasetDef,
    registry: DatasetRegistry,
    service: Option<EarlService>,
    /// The DFS set-up built; becomes the mean driver's world in `verify`.
    solo_dfs: Option<Dfs>,
    /// Bare `EarlDriver`s over a pre-built DFS of the same definition: the
    /// service's reports must equal theirs, and their wait is what a job
    /// costs without the service around it.
    mean: Scalar<MeanTask>,
    median: Scalar<MedianTask>,
    truths: [f64; 2],
    next_seed: AtomicU64,
    /// The answer phase's jobs and the wall-clock window they filled.
    jobs: Vec<Job>,
    window_s: f64,
}

impl Serve {
    pub fn new(dataset: DatasetSpec, config: EarlConfig) -> Self {
        let def = DatasetDef::new(NODES, PATH, dataset);
        let mut registry = DatasetRegistry::new();
        registry.register(DATASET, def.clone());
        Self {
            config,
            def,
            registry,
            service: None,
            solo_dfs: None,
            mean: Scalar::solo(config, MeanTask),
            median: Scalar::solo(config, MedianTask),
            truths: [f64::NAN; 2],
            next_seed: AtomicU64::new(config.seed + 1),
            jobs: Vec::new(),
            window_s: 0.0,
        }
    }

    fn request(&self, kind: usize, seed: u64) -> JobRequest {
        let config = EarlConfig {
            seed,
            ..self.config
        };
        JobRequest::new(TaskSpec::named(KINDS[kind]), DATASET, config)
    }

    /// One job through the service, timed from the client's side.
    fn submit(&self, kind: usize, seed: u64) -> (Job, Option<(EarlReport, JobLog)>) {
        let service = self.service.as_ref().expect("setup ran");
        let mut job = Job {
            kind,
            op: Op {
                secs: 0.0,
                first_secs: 0.0,
                failure: None,
            },
            admit_us: 0.0,
            updates: 0,
            rejected: false,
            shed: false,
        };
        let t0 = Instant::now();
        let admitted = service.admit(self.request(kind, seed));
        job.admit_us = t0.elapsed().as_secs_f64() * 1e6;
        let outcome = admitted.and_then(|handle| {
            while handle.next_update().is_some() {
                if job.updates == 0 {
                    job.op.first_secs = t0.elapsed().as_secs_f64();
                }
                job.updates += 1;
            }
            handle.wait()
        });
        job.op.secs = t0.elapsed().as_secs_f64();
        if job.updates == 0 {
            job.op.first_secs = job.op.secs;
        }
        let done = match outcome.and_then(|o| o.result.map(|report| (report, o.log))) {
            Ok((report, log)) => {
                job.op.failure = check_truth(&report, self.truths[kind]);
                Some((report, log))
            }
            Err(e) => {
                job.rejected = matches!(e, ServeError::Rejected { .. });
                job.shed = matches!(e, ServeError::DeadlineExpired { .. });
                job.op.failure = Some(e.to_string());
                None
            }
        };
        (job, done)
    }

    /// The closed loop: every client warms up with one discarded job, all
    /// start together, each keeps one job in flight until the budget is spent.
    fn closed_loop(&self, budget: Duration) -> (Vec<Job>, f64) {
        let barrier = Barrier::new(CLIENTS + 1);
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let next = || self.next_seed.fetch_add(1, Ordering::Relaxed);
                        self.submit(client % KINDS.len(), next());
                        barrier.wait();
                        let start = Instant::now();
                        let mut jobs = Vec::new();
                        while jobs.len() < MIN_OPS || start.elapsed() < budget {
                            let kind = (client + jobs.len()) % KINDS.len();
                            jobs.push(self.submit(kind, next()).0);
                        }
                        jobs
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let jobs = clients
                .into_iter()
                .flat_map(|client| client.join().expect("client thread panicked"))
                .collect();
            (jobs, start.elapsed().as_secs_f64())
        })
    }

    /// The typical wait of the 50/50 mix: the two kinds' medians (and
    /// quartiles), averaged.  The median over all jobs of a two-humped mix
    /// sits between the humps and jumps with every job that crosses it.
    fn mix(jobs: &[Job], value: impl Fn(&Job) -> f64) -> Summary {
        let [a, b] = [0, 1].map(|kind| {
            let samples: Vec<f64> = jobs.iter().filter(|j| j.kind == kind).map(&value).collect();
            stats::summarise(&samples)
        });
        a.mean_with(&b)
    }

    fn job_metrics(jobs: &[Job]) -> Vec<Metric> {
        vec![
            Metric::samples(
                "serve.admit_us",
                "us",
                &jobs.iter().map(|j| j.admit_us).collect::<Vec<_>>(),
            ),
            Metric::samples(
                "serve.updates_per_job",
                "count",
                &jobs.iter().map(|j| j.updates as f64).collect::<Vec<_>>(),
            ),
            Metric::single(
                "serve.rejected",
                "count",
                jobs.iter().filter(|j| j.rejected).count() as f64,
            ),
            Metric::single(
                "serve.shed",
                "count",
                jobs.iter().filter(|j| j.shed).count() as f64,
            ),
        ]
    }
}

impl Workload for Serve {
    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String> {
        self.service = None;
        let dfs = layers::build_dataset(
            tracer,
            || {
                drop(std::hint::black_box(DatasetBuilder::generate_values(
                    &self.def.spec,
                )))
            },
            || self.def.build(),
        )
        .map_err(|e| e.to_string())?;
        self.solo_dfs = Some(dfs);
        self.service = Some(EarlService::new(
            self.registry.clone(),
            ServiceConfig {
                max_running: CLIENTS,
                ..ServiceConfig::default()
            },
        ));
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let values = DatasetBuilder::generate_values(&self.def.spec);
        self.truths = [
            values.iter().sum::<f64>() / values.len() as f64,
            stats::median(&values),
        ];
        // Each solo reference needs a world of its own: two runs on one
        // cluster would share its simulated clock.
        let built = self.solo_dfs.take().ok_or("setup ran")?;
        self.mean.adopt(built, self.truths[0]);
        self.median
            .adopt(self.def.build().map_err(|e| e.to_string())?, self.truths[1]);
        self.mean.verify()?;
        self.median.verify()?;

        let solos = [self.mean.reference_report(), self.median.reference_report()];
        for (kind, solo) in solos.into_iter().enumerate() {
            let name = KINDS[kind];
            let (job, done) = self.submit(kind, self.config.seed);
            let (report, log) = match (job.op.failure, done) {
                (None, Some(done)) => done,
                (why, _) => return Err(format!("{name} job through the service: {why:?}")),
            };
            if &report != solo {
                return Err(format!(
                    "service {name} report differs from the solo driver's:\n{report:?}\n{solo:?}"
                ));
            }
            let replayed = replay(&log, &self.registry)
                .map_err(|e| format!("replay of the {name} job: {e}"))?;
            if replayed != report {
                return Err(format!("replayed {name} report differs from the live one"));
            }
        }
        Ok(())
    }

    fn answer_phase(&mut self, budget: Duration) -> Phase {
        let (jobs, window_s) = self.closed_loop(budget);
        let phase = Phase {
            ops: jobs.iter().map(|job| job.op.clone()).collect(),
            secs: Self::mix(&jobs, |j| j.op.secs),
            first_secs: Self::mix(&jobs, |j| j.op.first_secs),
        };
        self.jobs = jobs;
        self.window_s = window_s;
        phase
    }

    fn exact_phase(&mut self, budget: Duration) -> Phase {
        timed_ops(budget, || self.mean.exact_op())
    }

    fn stand_ins(&self) -> &'static [(&'static str, &'static str)] {
        &[(
            "exact_s",
            "the service has no exact path: run_exact of the mean on a pre-built DFS",
        )]
    }

    fn extra_metrics(&self) -> Vec<Metric> {
        let mut metrics = Self::job_metrics(&self.jobs);
        metrics.push(Metric::single(
            "jobs_per_s",
            "1/s",
            self.jobs.len() as f64 / self.window_s,
        ));
        let all: Vec<f64> = self.jobs.iter().map(|j| j.op.secs).collect();
        if let Some((percentile, value)) = stats::tail(&all) {
            let mut tail = Metric::single("answer_tail_s", "s", value);
            tail.summary.n = all.len();
            tail.note = Some(format!("p{percentile:.0}"));
            metrics.push(tail);
        }
        metrics
    }

    fn layers(&mut self, tracer: &mut Tracer, budget: Duration) -> Result<Vec<Metric>, String> {
        let (jobs, _) = self.closed_loop(budget.mul_f64(0.2));
        if let Some(why) = jobs.iter().find_map(|j| j.op.failure.clone()) {
            return Err(format!("job failed in the traced run: {why}"));
        }
        let served_s = Self::mix(&jobs, |j| j.op.secs).median;

        // The layers of one job of each kind, then the mix's average job.
        let mean = self.mean.ladder_layers(tracer, budget.mul_f64(0.4))?;
        let median = self.median.ladder_layers(tracer, budget.mul_f64(0.4))?;
        let mut metrics: Vec<Metric> = mean
            .iter()
            .zip(&median)
            .map(|(a, b)| {
                assert_eq!(a.name, b.name, "both kinds report the same layers");
                Metric::of(&a.name, a.unit, a.summary.mean_with(&b.summary))
            })
            .collect();

        let solo_s = metrics
            .iter()
            .find(|m| m.name == "trace.answer_s")
            .map(Metric::value)
            .ok_or("the solo layers report no trace.answer_s")?;
        let build = layers::probe(tracer, "serve.dataset_build", 3, || {
            self.def.build().is_ok()
        });
        let (_, done) = self.submit(0, self.config.seed);
        let (_, log) = done.ok_or("the job recorded for replay failed")?;
        let replays = layers::probe(tracer, "serve.replay", 3, || {
            replay(&log, &self.registry).is_ok()
        });
        metrics.extend([
            Metric::samples("serve.dataset_build_s", "s", &build),
            Metric::single("serve.solo_answer_s", "s", solo_s),
            Metric::single("serve.overhead_s", "s", served_s - solo_s),
            Metric::samples("serve.replay_s", "s", &replays),
        ]);
        metrics.extend(Self::job_metrics(&jobs));
        let dfs = self.def.build().map_err(|e| e.to_string())?;
        metrics.extend(layers::dfs_probes(tracer, &dfs, PATH, self.config.seed)?);
        metrics.push(layers::queue_probe(tracer));
        Ok(metrics)
    }
}
