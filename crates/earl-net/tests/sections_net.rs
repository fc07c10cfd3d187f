//! Integration tests of wire protocol v2's section-summary path.
//!
//! The contract under test: the coordinator ships the O(√n) section summary
//! to workers **once** (`ProvisionSections`), every replicate batch
//! thereafter carries only `(task, path, seed, B-range, size)`, and the
//! replicates that come back are **bit-identical** to in-process evaluation —
//! at any worker count, any simulated node count and any `EARL_THREADS`.  A
//! worker that drops and revives is brought back up to date by replaying the
//! summary, i.e. in O(√n) bytes, which the `reprovision_bytes` counter gates
//! (counter-based, never timed).  Record provisioning is exercised at its
//! edges too: byte-budget batching of long lines, and the clear error for a
//! record that cannot fit one frame.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use earl_bootstrap::LinearSections;
use earl_cluster::{Cluster, CostModel};
use earl_core::tasks::MeanTask;
use earl_core::{EarlConfig, EarlDriver};
use earl_dfs::{Dfs, DfsConfig};
use earl_mapreduce::{
    RemoteMapRequest, RemoteSectionsRequest, SectionSummary, TaskSpec, TaskTransport,
};
use earl_net::{
    run_worker, ChaosDialer, Fault, FaultPlan, StoredSections, TcpDialer, TcpTransport,
    TcpTransportConfig, WireTask, MAX_FRAME_LEN,
};
use earl_workload::{DatasetBuilder, DatasetSpec};

const HEARTBEAT: Duration = Duration::from_secs(10);
const DATASET: &str = "/sections/values";

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

/// An in-process worker accept loop — the same `run_worker` the binary runs,
/// without the subprocess overhead.  The listener stays alive for the whole
/// test, so transparent revives can redial the same address.
fn spawn_local_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = run_worker(listener);
    });
    addr
}

fn make_dfs(nodes: u32) -> Dfs {
    let cluster = Cluster::builder()
        .nodes(nodes)
        .cost_model(CostModel::commodity_2012())
        .build()
        .unwrap();
    Dfs::new(
        cluster,
        DfsConfig {
            block_size: 1 << 16,
            replication: nodes.min(2),
            io_chunk: 256,
        },
    )
    .unwrap()
}

fn build_dataset(dfs: &Dfs) {
    DatasetBuilder::new(dfs.clone())
        .build(DATASET, &DatasetSpec::normal(4_000, 100.0, 15.0, 7))
        .unwrap();
}

/// A deterministic sample, its linear section summary, and the wire spec of
/// the mean statistic — the fixture for the transport-level tests.
fn summary_fixture(n: usize) -> (Vec<f64>, SectionSummary, TaskSpec) {
    let values: Vec<f64> = (0..n)
        .map(|i| 100.0 + ((i * 37) % 97) as f64 * 0.25)
        .collect();
    let sections = LinearSections::build(&values);
    let summary = SectionSummary::Linear {
        total_items: sections.total_items(),
        sections: sections.parts().collect(),
    };
    let spec = TaskSpec {
        name: "mean".into(),
        params: vec![],
    };
    (values, summary, spec)
}

/// What the coordinator's own registry computes for the same batch — the
/// ground truth every remote outcome is compared against, bit for bit.
fn local_replicates(
    summary: &SectionSummary,
    spec: &TaskSpec,
    seed: u64,
    b_count: u64,
    size: u64,
) -> Vec<f64> {
    let stored = StoredSections::from_summary(summary).unwrap();
    WireTask::from_spec(spec)
        .unwrap()
        .run_sections(&stored, seed, 0, b_count, size)
        .unwrap()
}

// ---------------------------------------------------------------------------
// Tentpole acceptance: full-driver remote runs are bit-identical to
// in-process runs — sim_time, byte counters and fault log included — at node
// counts {1, 2, 4} and every EARL_THREADS, with the section path actually on
// the wire.
// ---------------------------------------------------------------------------

#[test]
fn remote_section_reports_are_bit_identical_to_in_process() {
    let workers = [spawn_worker(), spawn_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();

    for nodes in [1u32, 2, 4] {
        for threads in thread_counts() {
            let config = EarlConfig {
                parallelism: Some(threads),
                ..EarlConfig::default()
            };

            let dfs = make_dfs(nodes);
            build_dataset(&dfs);
            let local = EarlDriver::new(dfs, config)
                .run(DATASET, &MeanTask)
                .unwrap();

            let dfs = make_dfs(nodes);
            build_dataset(&dfs);
            let transport =
                Arc::new(TcpTransport::connect(dfs.cluster().clone(), &addrs, HEARTBEAT).unwrap());
            transport.provision(&dfs, DATASET).unwrap();
            let remote = EarlDriver::new(dfs, config)
                .with_transport(transport.clone())
                .run(DATASET, &MeanTask)
                .unwrap();

            assert_eq!(
                local, remote,
                "remote report must be bit-identical at {nodes} nodes / {threads} threads"
            );
            assert!(
                transport.section_calls() > 0,
                "count-based bootstrap work must ride the section path, not fall back"
            );
            assert!(
                transport.remote_calls() > 0,
                "map/reduce work must ride the wire too"
            );
            assert_eq!(transport.live_workers(), 2);
            transport.shutdown();
        }
    }
}

/// The default configuration ships count-based replicate batches to the
/// workers too: every remote run takes the section path, and its report is
/// bit-identical to the in-process run.
#[test]
fn default_config_remote_run_ships_section_batches() {
    let workers = [spawn_worker(), spawn_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();

    let dfs = make_dfs(4);
    build_dataset(&dfs);
    let local = EarlDriver::new(dfs, EarlConfig::default())
        .run(DATASET, &MeanTask)
        .unwrap();

    let dfs = make_dfs(4);
    build_dataset(&dfs);
    let transport =
        Arc::new(TcpTransport::connect(dfs.cluster().clone(), &addrs, HEARTBEAT).unwrap());
    transport.provision(&dfs, DATASET).unwrap();
    let remote = EarlDriver::new(dfs, EarlConfig::default())
        .with_transport(transport.clone())
        .run(DATASET, &MeanTask)
        .unwrap();

    assert_eq!(local, remote);
    assert!(
        transport.section_calls() > 0,
        "the default configuration must route section work remotely"
    );
    transport.shutdown();
}

#[test]
fn dead_cluster_falls_back_in_process_and_still_answers() {
    let mut workers = [spawn_worker(), spawn_worker()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();

    let config = EarlConfig::default();
    let dfs = make_dfs(4);
    build_dataset(&dfs);
    let transport =
        Arc::new(TcpTransport::connect(dfs.cluster().clone(), &addrs, HEARTBEAT).unwrap());
    transport.provision(&dfs, DATASET).unwrap();

    // Both workers die after provisioning: every remote gate — map, reduce
    // and sections — must decline gracefully and the run complete in-process.
    for w in &mut workers {
        w.child.kill().unwrap();
        w.child.wait().unwrap();
    }

    let report = EarlDriver::new(dfs, config)
        .with_transport(transport.clone())
        .run(DATASET, &MeanTask)
        .unwrap();
    assert!(
        report.result.is_finite(),
        "the in-process fallback must still produce an answer"
    );
    assert_eq!(transport.live_workers(), 0);
}

// ---------------------------------------------------------------------------
// Transport level: batch splitting across worker counts cannot perturb bits,
// and a revive replays the summary in O(√n) bytes.
// ---------------------------------------------------------------------------

#[test]
fn section_batches_split_across_any_worker_count_bit_identically() {
    let n = 10_000usize;
    let (_values, summary, spec) = summary_fixture(n);
    let seed = 0xEA51u64;
    let b_count = 64u64;
    let expected = local_replicates(&summary, &spec, seed, b_count, n as u64);

    let all: Vec<SocketAddr> = (0..3).map(|_| spawn_local_worker()).collect();
    for workers in 1..=3 {
        let cluster = Cluster::with_nodes(4);
        let transport = TcpTransport::connect(cluster, &all[..workers], HEARTBEAT).unwrap();
        let outcome = transport
            .remote_sections(&RemoteSectionsRequest {
                spec: &spec,
                path: "/sections/values#sections",
                version: 1,
                summary: &summary,
                seed,
                b_start: 0,
                b_count,
                size: n as u64,
                max_attempts: 3,
            })
            .unwrap();
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.replicates.len() as u64, b_count);
        for (i, (got, want)) in outcome.replicates.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "replicate {i} must be bit-identical at {workers} workers"
            );
        }
        assert_eq!(transport.section_calls(), 1);
        transport.shutdown();
    }
}

#[test]
fn a_summary_is_shipped_once_per_version_across_batches() {
    let n = 2_500usize;
    let (_values, summary, spec) = summary_fixture(n);
    let addr = spawn_local_worker();
    let transport = TcpTransport::connect(Cluster::with_nodes(2), &[addr], HEARTBEAT).unwrap();

    // Three batches against the same (path, version): B-growth reuses the
    // provisioned summary, so replicates must still be the b-contiguous
    // prefix of one stream, with no re-provisioning in between.
    let mut all = Vec::new();
    for (b_start, b_count) in [(0u64, 8u64), (8, 8), (16, 16)] {
        let outcome = transport
            .remote_sections(&RemoteSectionsRequest {
                spec: &spec,
                path: "/growth#sections",
                version: 42,
                summary: &summary,
                seed: 7,
                b_start,
                b_count,
                size: n as u64,
                max_attempts: 3,
            })
            .unwrap();
        all.extend(outcome.replicates);
    }
    let expected = local_replicates(&summary, &spec, 7, 32, n as u64);
    assert_eq!(all.len(), expected.len());
    for (got, want) in all.iter().zip(&expected) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
    assert_eq!(transport.section_calls(), 3);
    assert_eq!(
        transport.reprovision_bytes(),
        0,
        "no revive happened, so nothing was replayed"
    );
    transport.shutdown();
}

#[test]
fn revive_replays_summaries_in_o_sqrt_n_bytes_not_o_n() {
    let n = 10_000usize;
    let (values, summary, spec) = summary_fixture(n);
    let path = "/rejoin#sections";
    let seed = 0xBEEF;
    let b_count = 64u64;
    let expected = local_replicates(&summary, &spec, seed, b_count, n as u64);

    // What a record-provisioned deployment would have to replay instead: the
    // whole dataset, at its encoded wire cost.
    let record_bytes: usize = values.iter().map(|v| 8 + 4 + format!("{v:.6}").len()).sum();

    // Worker 0's call ladder on a summary-only transport: 0 = handshake,
    // 1 = ProvisionSections, 2 = its SectionTask chunk.  Reset that chunk:
    // the transparent revive redials, re-handshakes, replays the summary
    // (the only retained dataset) and resends.
    let addrs = [spawn_local_worker(), spawn_local_worker()];
    let plan = FaultPlan::scripted([(0, 2, Fault::Reset)]);
    let mut tcp = TcpTransportConfig::with_heartbeat(Duration::from_secs(2));
    tcp.rejoin_backoff = Duration::ZERO;
    let dialer = Arc::new(ChaosDialer::new(Arc::new(TcpDialer), plan));
    let transport = TcpTransport::connect_via(Cluster::with_nodes(4), &addrs, tcp, dialer).unwrap();

    let outcome = transport
        .remote_sections(&RemoteSectionsRequest {
            spec: &spec,
            path,
            version: 1,
            summary: &summary,
            seed,
            b_start: 0,
            b_count,
            size: n as u64,
            max_attempts: 3,
        })
        .unwrap();

    for (got, want) in outcome.replicates.iter().zip(&expected) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "a revive mid-batch must not perturb replicate bits"
        );
    }
    assert!(transport.revives() >= 1, "the reset must force a revive");
    assert_eq!(
        transport.rejoins(),
        0,
        "a transparent revive is not a death"
    );

    let replayed = transport.reprovision_bytes();
    assert!(
        replayed > 0,
        "the revive must have replayed the summary (counter-gated, not timed)"
    );
    // Explicit O(√n) bound: the summary frame is 24 bytes per section plus
    // fixed header/path overhead.  n = 10_000 → 100 sections → ~2.5 KiB.
    let bound = (24 * summary.num_sections() + path.len() + 64) as u64;
    assert!(
        replayed <= bound,
        "replayed {replayed} bytes, expected at most {bound} (O(√n))"
    );
    assert!(
        replayed * 20 <= record_bytes as u64,
        "replayed {replayed} bytes must be far below the {record_bytes}-byte raw dataset (O(n))"
    );
    transport.shutdown();
}

// ---------------------------------------------------------------------------
// Record provisioning at its edges: byte-budget batching and the oversized
// single-record error.
// ---------------------------------------------------------------------------

#[test]
fn provisioning_batches_by_bytes_so_long_lines_arrive_intact() {
    // 64 records of ~8 KiB each (space-padded numerics; extract() trims).  A
    // 4 KiB byte budget is smaller than any single record, so every record
    // must travel in its own frame — batching by record count would have
    // built one ~0.5 MiB frame instead.
    let dfs = make_dfs(2);
    let lines: Vec<String> = (0..64)
        .map(|i| format!("{:>8192}", format!("{}.25", 100 + i)))
        .collect();
    dfs.write_lines("/net/long", lines.iter().map(String::as_str))
        .unwrap();

    let addr = spawn_local_worker();
    let mut tcp = TcpTransportConfig::with_heartbeat(HEARTBEAT);
    tcp.provision_budget = 4 * 1024;
    let transport = TcpTransport::connect_with(dfs.cluster().clone(), &[addr], tcp).unwrap();
    transport.provision(&dfs, "/net/long").unwrap();

    // Every record must be present and intact on the worker: map the whole
    // dataset remotely and check each extracted value.
    let offsets: Vec<u64> = dfs
        .export_records("/net/long")
        .unwrap()
        .iter()
        .map(|(offset, _)| *offset)
        .collect();
    let spec = TaskSpec {
        name: "mean".into(),
        params: vec![],
    };
    let outcome = transport
        .remote_map(&RemoteMapRequest {
            spec: &spec,
            source_path: "/net/long",
            offsets: &offsets,
            num_shards: 1,
            max_attempts: 3,
        })
        .unwrap();
    assert_eq!(outcome.records, 64);
    let got: Vec<f64> = outcome.shards[0].iter().map(|&(_, v)| v).collect();
    let want: Vec<f64> = (0..64).map(|i| (100 + i) as f64 + 0.25).collect();
    assert_eq!(got, want, "long records must survive multi-frame batching");
    transport.shutdown();
}

#[test]
fn a_record_too_large_for_one_frame_is_a_clear_provisioning_error() {
    let dfs = make_dfs(2);
    // One record whose wire cost alone exceeds MAX_FRAME_LEN: no batching can
    // ever ship it.
    let huge = "9".repeat(MAX_FRAME_LEN as usize);
    dfs.write_lines("/net/huge", [huge.as_str()]).unwrap();
    dfs.write_lines("/net/fine", ["1.0", "2.0"]).unwrap();

    let addr = spawn_local_worker();
    let transport = TcpTransport::connect(dfs.cluster().clone(), &[addr], HEARTBEAT).unwrap();

    let err = transport.provision(&dfs, "/net/huge").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let msg = err.to_string();
    assert!(
        msg.contains("/net/huge") && msg.contains("exceeds") && msg.contains("frame limit"),
        "the error must name the record and the limit, got: {msg}"
    );

    // The pre-flight check fails before anything is retained or shipped: the
    // worker is untouched and provisioning other datasets still works.
    assert_eq!(transport.live_workers(), 1);
    transport.provision(&dfs, "/net/fine").unwrap();
    transport.shutdown();
}
