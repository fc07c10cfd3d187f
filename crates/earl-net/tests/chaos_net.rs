//! Chaos suite: deterministic network faults against the real TCP cluster.
//!
//! Every test here drives the *production* failure path — revive, rejoin,
//! deadlines, retry booking — by injecting faults from a [`FaultPlan`], either
//! in-process (a [`ChaosDialer`] wrapping each worker connection) or on real
//! sockets (a [`ChaosProxy`] in front of a worker subprocess).  Which fault
//! fires on which remote call is a pure function of `(seed, worker,
//! call-index)`, so each scenario is exactly reproducible.
//!
//! The determinism contract under fire:
//!
//! * A fault survived by a **transparent revive** (redial + re-handshake +
//!   re-provision + resend on the same worker) leaves no trace in the
//!   simulation: the report is **bit-identical** to the in-process run —
//!   including a worker that dies and rejoins mid-run, at node counts
//!   {1, 2, 4} and every `EARL_THREADS`.
//! * A fault that kills a worker for real lands in the standard machinery:
//!   the node failure is reported, the chunk re-dispatched (a retry the
//!   runner books into the `FaultLog`), and with `Retry` + replication ≥ 2
//!   the *result bits* still reproduce the no-failure run.  The worker
//!   rejoins at a later remote-call boundary via `Cluster::report_recovery`.
//!
//! The CI `chaos-net` job runs this file on the `EARL_THREADS` ∈ {1, 2, 4, 8}
//! matrix and gates on `rejoin_and_recover_with_real_subprocess_workers`.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use earl_cluster::{Cluster, CostModel};
use earl_core::tasks::MeanTask;
use earl_core::{EarlConfig, EarlDriver, EarlReport};
use earl_dfs::{Dfs, DfsConfig};
use earl_mapreduce::FailurePolicy;
use earl_net::{
    run_worker, ChaosDialer, ChaosProxy, Fault, FaultPlan, TcpDialer, TcpTransport,
    TcpTransportConfig,
};
use earl_workload::{DatasetBuilder, DatasetSpec};
use parking_lot::Mutex;

const DATASET: &str = "/chaos/values";

fn thread_counts() -> Vec<usize> {
    match std::env::var("EARL_THREADS") {
        Ok(v) => vec![v.parse().expect("EARL_THREADS must be a positive integer")],
        Err(_) => vec![1, 2],
    }
}

struct WorkerProc {
    child: Child,
    addr: SocketAddr,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_worker() -> WorkerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_earl-worker"))
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn earl-worker");
    let stdout = child.stdout.take().expect("worker stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
        .parse()
        .expect("parse worker address");
    WorkerProc { child, addr }
}

/// A fresh simulated cluster + DFS + deterministic dataset.  Building this
/// twice with the same arguments yields byte-identical state, which is what
/// makes in-process and chaos runs comparable.
fn make_dfs(nodes: u32, replication: u32) -> Dfs {
    let cluster = Cluster::builder()
        .nodes(nodes)
        .cost_model(CostModel::commodity_2012())
        .build()
        .unwrap();
    let dfs = Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 16,
            replication,
            io_chunk: 256,
        },
    )
    .unwrap();
    DatasetBuilder::new(dfs.clone())
        .build(DATASET, &DatasetSpec::normal(4_000, 100.0, 15.0, 7))
        .unwrap();
    dfs
}

/// Chaos-test transport knobs: a generous heartbeat (fault detection in these
/// tests comes from resets/EOFs, not silence) and zero rejoin backoff so a
/// dead worker is retried at every remote-call boundary — the deterministic
/// setting the rejoin contract is stated for.
fn chaos_config() -> TcpTransportConfig {
    let mut config = TcpTransportConfig::with_heartbeat(Duration::from_secs(2));
    config.rejoin_backoff = Duration::ZERO;
    config
}

fn run_local(nodes: u32, replication: u32, config: &EarlConfig) -> EarlReport {
    EarlDriver::new(make_dfs(nodes, replication), *config)
        .run(DATASET, &MeanTask)
        .unwrap()
}

/// Runs the job against `addrs` through a chaos dialer applying `plan`.
/// Returns the report and the transport (for counter assertions).
fn run_chaos(
    nodes: u32,
    replication: u32,
    config: &EarlConfig,
    tcp: TcpTransportConfig,
    addrs: &[SocketAddr],
    plan: FaultPlan,
) -> (EarlReport, Arc<TcpTransport>) {
    let dfs = make_dfs(nodes, replication);
    let dialer = Arc::new(ChaosDialer::new(Arc::new(TcpDialer), plan));
    let transport =
        Arc::new(TcpTransport::connect_via(dfs.cluster().clone(), addrs, tcp, dialer).unwrap());
    transport.provision(&dfs, DATASET).unwrap();
    let report = EarlDriver::new(dfs, *config)
        .with_transport(transport.clone())
        .run(DATASET, &MeanTask)
        .unwrap();
    (report, transport)
}

/// Asserts the estimate-defining bits of two reports match: result, error,
/// interval and sample accounting.  (Used for runs where a *reported* death
/// legitimately perturbs `sim_time` and the fault log but must not perturb
/// the answer.)
fn assert_result_bits_equal(a: &EarlReport, b: &EarlReport) {
    assert_eq!(a.result.to_bits(), b.result.to_bits(), "result bits");
    assert_eq!(
        a.uncorrected_result.to_bits(),
        b.uncorrected_result.to_bits(),
        "uncorrected result bits"
    );
    assert_eq!(
        a.error_estimate.to_bits(),
        b.error_estimate.to_bits(),
        "error estimate bits"
    );
    assert_eq!(a.ci_low.to_bits(), b.ci_low.to_bits(), "ci_low bits");
    assert_eq!(a.ci_high.to_bits(), b.ci_high.to_bits(), "ci_high bits");
    assert_eq!(a.sample_size, b.sample_size, "sample size");
    assert_eq!(a.iterations, b.iterations, "iteration count");
}

/// Worker call indices 0 (handshake) and 1 (provision batch) happen at set-up;
/// the first job-time request a worker serves is call 2.
const FIRST_JOB_CALL: u64 = 2;

/// Calls 2–13 on each worker carry SSABE's replicate batches over the section
/// path; the first map-path request each worker serves, step 1's map task,
/// is call 14.  A plan aimed at the job's map and reduce tasks starts here.
const FIRST_MAP_CALL: u64 = 14;

// ---------------------------------------------------------------------------
// Tentpole (a): every fault kind, survived transparently, bit-identical.
// ---------------------------------------------------------------------------

#[test]
fn every_fault_kind_is_revived_transparently_with_bit_identical_reports() {
    let workers = [spawn_worker(), spawn_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let config = EarlConfig::default();
    let baseline = run_local(4, 2, &config);

    for fault in [Fault::Reset, Fault::Truncate, Fault::Corrupt, Fault::Stall] {
        let plan = FaultPlan::scripted([(0, FIRST_MAP_CALL, fault)]);
        let (report, transport) = run_chaos(4, 2, &config, chaos_config(), &addrs, plan);
        assert_eq!(
            baseline, report,
            "a transparently revived {fault:?} must leave the report bit-identical"
        );
        assert!(
            transport.revives() >= 1,
            "{fault:?} must actually have forced a revive"
        );
        assert_eq!(transport.rejoins(), 0, "{fault:?}: no death was reported");
        assert_eq!(transport.live_workers(), 2);
        assert!(transport.remote_calls() > 0);
        transport.shutdown();
    }
}

#[test]
fn mid_provision_drop_is_survived_and_the_job_still_matches() {
    let workers = [spawn_worker(), spawn_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let config = EarlConfig::default();
    let baseline = run_local(4, 2, &config);

    // Call 1 on worker 0 is its first Provision batch: the dataset transfer
    // itself is cut mid-frame.
    let plan = FaultPlan::scripted([(0, 1, Fault::Truncate)]);
    let (report, transport) = run_chaos(4, 2, &config, chaos_config(), &addrs, plan);
    assert_eq!(
        baseline, report,
        "a mid-provision drop must be survived with a bit-identical report"
    );
    assert!(transport.revives() >= 1);
    assert_eq!(transport.live_workers(), 2);
    transport.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole (b): real deaths land in the PR 6 machinery; rejoin restores the
// node.
// ---------------------------------------------------------------------------

#[test]
fn a_reported_death_with_retry_policy_reproduces_result_bits_with_replication_2() {
    let workers = [spawn_worker(), spawn_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let config = EarlConfig {
        failure_policy: FailurePolicy::retry(),
        ..EarlConfig::default()
    };
    let baseline = run_local(4, 2, &config);

    // Revival disabled: the reset is a real, reported death.
    let mut tcp = chaos_config();
    tcp.redials_per_call = 0;
    let plan = FaultPlan::scripted([(0, FIRST_MAP_CALL, Fault::Reset)]);
    let (report, transport) = run_chaos(4, 2, &config, tcp, &addrs, plan);

    assert_result_bits_equal(&baseline, &report);
    let fault_log = report.fault_log.as_ref().expect("the death must be logged");
    assert!(!fault_log.events.is_empty(), "failure event recorded");
    assert!(
        fault_log.task_retries >= 1,
        "the wire-level re-dispatch is booked as a task retry"
    );
    assert!(
        transport.rejoins() >= 1,
        "the dead worker must have rejoined at a later call boundary"
    );
    assert_eq!(transport.live_workers(), 2, "both workers live again");
    let cluster_nodes = transport.worker_nodes();
    let dead_node = cluster_nodes[0];
    assert!(
        fault_log.events.iter().any(|e| e.node == dead_node),
        "the event names the dead worker's simulated node"
    );
    transport.shutdown();
}

#[test]
fn degrade_policy_records_losses_in_the_fault_log() {
    let workers = [spawn_worker(), spawn_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let config = EarlConfig {
        failure_policy: FailurePolicy::Degrade,
        ..EarlConfig::default()
    };

    let mut tcp = chaos_config();
    tcp.redials_per_call = 0;
    let plan = FaultPlan::scripted([(0, FIRST_MAP_CALL, Fault::Reset)]);
    let (report, transport) = run_chaos(2, 1, &config, tcp, &addrs, plan);

    assert!(report.result.is_finite(), "the degraded run still answers");
    let fault_log = report.fault_log.as_ref().expect("losses must be logged");
    assert!(!fault_log.events.is_empty());
    assert!(
        fault_log
            .events
            .iter()
            .any(|e| e.node == transport.worker_nodes()[0]),
        "the loss is attributed to the dead worker's node"
    );
    transport.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole (b), acceptance headline: a worker process dies and rejoins
// mid-run; the report stays bit-identical to the in-process engine at node
// counts {1, 2, 4} and the EARL_THREADS ladder.
// ---------------------------------------------------------------------------

#[test]
fn killed_worker_respawns_and_rejoins_bit_identically_at_every_node_count() {
    for nodes in [1u32, 2, 4] {
        for threads in thread_counts() {
            let config = EarlConfig {
                parallelism: Some(threads),
                ..EarlConfig::default()
            };
            let baseline = run_local(nodes, nodes.min(2), &config);

            let mut doomed = spawn_worker();
            let survivor = spawn_worker();
            let addrs = vec![doomed.addr, survivor.addr];

            let dfs = make_dfs(nodes, nodes.min(2));
            let transport = Arc::new(
                TcpTransport::connect_with(dfs.cluster().clone(), &addrs, chaos_config()).unwrap(),
            );
            // Redials of a killed process fail outright; the respawn hook
            // starts a replacement and hands its address back.
            let respawned: Arc<Mutex<Vec<WorkerProc>>> = Arc::new(Mutex::new(Vec::new()));
            let pool = respawned.clone();
            transport.set_respawn(move |_worker, _old_addr| {
                let fresh = spawn_worker();
                let addr = fresh.addr;
                pool.lock().push(fresh);
                Ok(addr)
            });
            transport.provision(&dfs, DATASET).unwrap();

            // Die after provisioning: the death is discovered mid-run by a
            // job-time dispatch.
            doomed.child.kill().unwrap();
            doomed.child.wait().unwrap();

            let report = EarlDriver::new(dfs, config)
                .with_transport(transport.clone())
                .run(DATASET, &MeanTask)
                .unwrap();

            assert_eq!(
                baseline, report,
                "respawn + rejoin must be invisible at {nodes} nodes / {threads} threads"
            );
            assert!(transport.revives() >= 1, "the kill forced a revive");
            assert_eq!(transport.live_workers(), 2);
            assert_eq!(
                respawned.lock().len(),
                1,
                "exactly one replacement process was started"
            );
            transport.shutdown();
            drop(survivor);
        }
    }
}

/// The CI `chaos-net` gate: a rejoin-and-recover scenario over real sockets
/// between real processes.  Worker 0 sits behind a [`ChaosProxy`] that resets
/// the connection mid-run; with revival disabled the death is reported into
/// the failure machinery, the chunk re-dispatches to the survivor, and the
/// worker rejoins through the proxy at a later remote-call boundary.
#[test]
fn rejoin_and_recover_with_real_subprocess_workers() {
    let behind_proxy = spawn_worker();
    let direct = spawn_worker();
    let proxy = ChaosProxy::spawn(
        behind_proxy.addr,
        0,
        FaultPlan::scripted([(0, FIRST_MAP_CALL, Fault::Reset)]),
    )
    .unwrap();
    let addrs = vec![proxy.addr(), direct.addr];

    let config = EarlConfig {
        failure_policy: FailurePolicy::retry(),
        ..EarlConfig::default()
    };
    let baseline = run_local(4, 2, &config);

    let dfs = make_dfs(4, 2);
    let cluster = dfs.cluster().clone();
    let mut tcp = chaos_config();
    tcp.redials_per_call = 0;
    let transport = Arc::new(TcpTransport::connect_with(cluster.clone(), &addrs, tcp).unwrap());
    transport.provision(&dfs, DATASET).unwrap();

    let report = EarlDriver::new(dfs, config)
        .with_transport(transport.clone())
        .run(DATASET, &MeanTask)
        .unwrap();

    assert_result_bits_equal(&baseline, &report);
    assert!(
        transport.rejoins() >= 1,
        "the proxied worker must die, rejoin and recover"
    );
    assert_eq!(transport.live_workers(), 2);
    let dead_node = transport.worker_nodes()[0];
    assert!(
        cluster.failure_events().iter().any(|e| e.node == dead_node),
        "the death went through report_external_failure"
    );
    assert_eq!(
        cluster.available_nodes().len(),
        4,
        "report_recovery returned the node to service"
    );
    assert!(transport.remote_calls() > 0);
    transport.shutdown();
}

/// The second CI `chaos-net` gate: kill-and-rejoin over the **section path**
/// (wire v2).  The driver routes SSABE and AES replicate batches through
/// `remote_sections`; worker 0 sits behind a [`ChaosProxy`] that resets its
/// connection at its first job-time call — which is section-path traffic
/// (SSABE's), before any map task.  With revival disabled the death is
/// reported into the failure machinery, the batch re-chunks onto the
/// survivor (bit-identical by replicate purity), and the worker rejoins at a
/// later remote-call boundary — its O(√n) summary replayed along with the
/// records it missed.
#[test]
fn section_path_kill_and_rejoin_recovers_result_bits() {
    let behind_proxy = spawn_worker();
    let direct = spawn_worker();
    let proxy = ChaosProxy::spawn(
        behind_proxy.addr,
        0,
        FaultPlan::scripted([(0, FIRST_JOB_CALL, Fault::Reset)]),
    )
    .unwrap();
    let addrs = vec![proxy.addr(), direct.addr];

    let config = EarlConfig {
        failure_policy: FailurePolicy::retry(),
        ..EarlConfig::default()
    };
    let baseline = run_local(4, 2, &config);

    let dfs = make_dfs(4, 2);
    let cluster = dfs.cluster().clone();
    let mut tcp = chaos_config();
    tcp.redials_per_call = 0;
    let transport = Arc::new(TcpTransport::connect_with(cluster.clone(), &addrs, tcp).unwrap());
    transport.provision(&dfs, DATASET).unwrap();

    let report = EarlDriver::new(dfs, config)
        .with_transport(transport.clone())
        .run(DATASET, &MeanTask)
        .unwrap();

    assert_result_bits_equal(&baseline, &report);
    assert!(
        transport.section_calls() > 0,
        "the run must actually have routed replicate batches over the wire"
    );
    assert!(
        transport.rejoins() >= 1,
        "the proxied worker must die, rejoin and recover"
    );
    assert!(
        transport.reprovision_bytes() > 0,
        "the rejoin must have replayed the worker's provisioned state"
    );
    assert_eq!(transport.live_workers(), 2);
    let dead_node = transport.worker_nodes()[0];
    assert!(
        cluster.failure_events().iter().any(|e| e.node == dead_node),
        "the death went through report_external_failure"
    );
    assert_eq!(
        cluster.available_nodes().len(),
        4,
        "report_recovery returned the node to service"
    );
    transport.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole (c): call deadlines.
// ---------------------------------------------------------------------------

#[test]
fn call_deadline_detects_a_stall_faster_than_the_heartbeat() {
    let stalled = spawn_worker();
    let healthy = spawn_worker();
    let addrs = vec![stalled.addr, healthy.addr];

    let config = EarlConfig {
        failure_policy: FailurePolicy::retry(),
        ..EarlConfig::default()
    };
    let baseline = run_local(4, 2, &config);

    // From the job's first map task on, worker 0 swallows every frame it is
    // ever sent (including rejoin handshakes).  The heartbeat alone would
    // need 10 s to notice; the 250 ms deadline must do it instead.
    let stall_everything: Vec<(usize, u64, Fault)> = (FIRST_MAP_CALL..256)
        .map(|c| (0, c, Fault::Stall))
        .collect();
    let mut tcp = TcpTransportConfig::with_heartbeat(Duration::from_secs(10));
    tcp.call_deadline = Some(Duration::from_millis(250));
    tcp.redials_per_call = 0;
    tcp.rejoin_backoff = Duration::from_millis(100);
    tcp.rejoin_backoff_cap = Duration::from_secs(2);

    let started = Instant::now();
    let (report, transport) = run_chaos(
        4,
        2,
        &config,
        tcp,
        &addrs,
        FaultPlan::scripted(stall_everything),
    );
    let elapsed = started.elapsed();

    assert_result_bits_equal(&baseline, &report);
    let fault_log = report.fault_log.as_ref().expect("the death must be logged");
    assert!(
        fault_log.task_retries >= 1,
        "the deadline-triggered re-dispatch lands in the FaultLog counters"
    );
    assert!(
        elapsed < Duration::from_secs(8),
        "deadline (250 ms) must beat the 10 s heartbeat; took {elapsed:?}"
    );
    transport.shutdown();
    drop((stalled, healthy));
}

// ---------------------------------------------------------------------------
// Satellites: connect retry, ping_all reporting, thread-count invariance.
// ---------------------------------------------------------------------------

#[test]
fn connect_retries_ride_out_the_listener_startup_race() {
    // Reserve a port, then bind the worker's listener only after a delay —
    // the coordinator's first dials land in the window where nothing listens.
    let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = placeholder.local_addr().unwrap();
    drop(placeholder);
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let listener = TcpListener::bind(addr).expect("rebind reserved port");
        let _ = run_worker(listener);
    });

    let mut tcp = chaos_config();
    tcp.connect_attempts = 40;
    tcp.connect_backoff = Duration::from_millis(25);
    let cluster = Cluster::with_nodes(2);
    let transport = TcpTransport::connect_with(cluster, &[addr], tcp).unwrap();
    assert_eq!(transport.ping_all(), 1, "the late worker is reachable");
    transport.shutdown();

    // Without retries, the same race is fatal.
    let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = placeholder.local_addr().unwrap();
    drop(placeholder);
    let mut tcp = chaos_config();
    tcp.connect_attempts = 1;
    assert!(
        TcpTransport::connect_with(Cluster::with_nodes(2), &[dead_addr], tcp).is_err(),
        "a single dial to a dead port must fail"
    );
}

#[test]
fn ping_all_reports_silent_death_into_the_failure_machinery() {
    let mut doomed = spawn_worker();
    let survivor = spawn_worker();
    let addrs = vec![doomed.addr, survivor.addr];

    let cluster = Cluster::with_nodes(4);
    let transport =
        Arc::new(TcpTransport::connect(cluster.clone(), &addrs, Duration::from_secs(10)).unwrap());
    assert_eq!(transport.ping_all(), 2);
    assert!(cluster.failure_events().is_empty());

    doomed.child.kill().unwrap();
    doomed.child.wait().unwrap();

    assert_eq!(transport.ping_all(), 1, "heartbeat notices the death");
    let dead_node = transport.worker_nodes()[0];
    assert_eq!(cluster.failed_nodes(), vec![dead_node]);
    assert!(
        cluster.failure_events().iter().any(|e| e.node == dead_node),
        "a silent death found by ping reaches the FaultLog event stream"
    );
    drop(survivor);
}

#[test]
fn chaos_reports_are_identical_across_thread_counts() {
    let workers = [spawn_worker(), spawn_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    // One transparent fault on each worker, mid-run.
    let plan = [
        (0usize, FIRST_MAP_CALL, Fault::Corrupt),
        (1usize, FIRST_MAP_CALL + 1, Fault::Reset),
    ];

    let mut reports = Vec::new();
    for threads in thread_counts() {
        let config = EarlConfig {
            parallelism: Some(threads),
            ..EarlConfig::default()
        };
        let baseline = run_local(4, 2, &config);
        let (report, transport) = run_chaos(
            4,
            2,
            &config,
            chaos_config(),
            &addrs,
            FaultPlan::scripted(plan),
        );
        assert_eq!(
            baseline, report,
            "chaos run must match in-process at {threads} threads"
        );
        assert!(transport.revives() >= 1);
        transport.shutdown();
        reports.push(report);
    }
    for pair in reports.windows(2) {
        assert_eq!(
            pair[0], pair[1],
            "the same fault plan must yield the same report at every thread count"
        );
    }
}

#[test]
fn seeded_plans_replay_identically() {
    let workers = [spawn_worker(), spawn_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    // Draw from the fast kinds only — a seeded stall would cost a heartbeat
    // per firing.  The seed is chosen so the schedule actually fires within
    // the run's call budget.
    let seed = (0..)
        .find(|&s| {
            let plan = FaultPlan::seeded_among(s, 0.15, vec![Fault::Reset, Fault::Corrupt]);
            (0..2).any(|w| {
                (FIRST_JOB_CALL..FIRST_JOB_CALL + 4).any(|c| plan.fault_for(w, c).is_some())
            })
        })
        .unwrap();
    let plan = || FaultPlan::seeded_among(seed, 0.15, vec![Fault::Reset, Fault::Corrupt]);

    let config = EarlConfig::default();
    let (first, t1) = run_chaos(4, 2, &config, chaos_config(), &addrs, plan());
    let (second, t2) = run_chaos(4, 2, &config, chaos_config(), &addrs, plan());
    assert_eq!(first, second, "a seeded plan must replay bit-identically");
    assert_eq!(
        (t1.revives(), t1.rejoins()),
        (t2.revives(), t2.rejoins()),
        "the transport walks the same recovery sequence both times"
    );
    assert!(t1.revives() >= 1, "the chosen seed must actually fire");
    t1.shutdown();
    t2.shutdown();
}
