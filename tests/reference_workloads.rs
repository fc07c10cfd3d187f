//! Golden pins for all five benchmark workloads: the three bare-driver ladder
//! workloads, the remote ladder over TCP workers and the resident service.
//!
//! The configurations are copied from `benchmark/src/workloads.rs` (`build`:
//! `scan_linear`, `ladder_order`, `grouped_keys`, `net_remote`,
//! `serve_closed`), and the worlds from the set-up the benchmark gives them:
//! `benchmark/src/scalar.rs` (`common_dfs_config`, `fresh_dfs`,
//! `Scalar::setup`, and the reference run in `Scalar::verify`, including its
//! remote-versus-in-process check), `benchmark/src/grouped.rs`
//! (`Grouped::setup` and `Grouped::run_answer`) and `benchmark/src/serve.rs`
//! (`Serve::new`, `Serve::setup` and the service-versus-solo check of
//! `Serve::verify`).  Each runs at the benchmark's seed 11 on a fresh world,
//! exactly like the benchmark's reference run, and every deterministic field
//! of the report is pinned as a bit pattern: the `--trace 1` cells
//! `core.iterations`, `core.sample_fraction`, `core.bootstraps`, `core.cv`,
//! `cluster.sim_s`, `net.remote_calls`, `net.section_calls` and
//! `serve.updates_per_job` are read off these reports.
//!
//! `net_remote`'s workers run as threads of this process (the benchmark
//! spawns `earl-worker` processes; both serve the same `run_worker` loop) on
//! loopback.
//!
//! The full-size cases are `#[ignore]`d (run them in release with
//! `cargo test --release --test reference_workloads -- --ignored`).  Each has
//! a scaled-down twin that runs in the default suite: same generator, task
//! and configuration shape, fewer records or groups and a looser σ, chosen so
//! that the twin still climbs at least two ladder steps without going exact.
//!
//! An output-preserving change leaves this file unedited and green.  A change
//! that moves an output re-pins it, and the diff of the constants is the list
//! of what moved.  When a pin fails, the assertion prints the whole observed
//! pin in hex, ready to paste.
//!
//! `EARL_THREADS`, when set, selects the worker count (the CI determinism
//! matrix); unset, the driver uses one worker per core as the benchmark does.

use earl_cluster::Cluster;
use earl_core::tasks::{MeanTask, MedianTask};
use earl_core::{
    EarlConfig, EarlDriver, EarlReport, EarlTask, GroupedAggregate, GroupedEarlReport,
};
use earl_dfs::{Dfs, DfsConfig};
use earl_mapreduce::TaskSpec;
use earl_net::{run_worker, TcpTransport};
use earl_serve::{DatasetDef, DatasetRegistry, EarlService, JobRequest, ServiceConfig};
use earl_workload::{DatasetBuilder, DatasetSpec, GroupedSpec};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 11;
const PATH: &str = "/bench/data";

/// `benchmark/src/scalar.rs::common_dfs_config`.
fn common_dfs_config() -> DfsConfig {
    DfsConfig {
        block_size: 1 << 20,
        replication: 2,
        io_chunk: 4096,
    }
}

/// `benchmark/src/scalar.rs::fresh_dfs`.
fn fresh_dfs(nodes: u32) -> Dfs {
    Dfs::new(Cluster::with_nodes(nodes), common_dfs_config()).unwrap()
}

/// The benchmark's configuration, with the worker count `EARL_THREADS` names.
fn threaded(config: EarlConfig) -> EarlConfig {
    match std::env::var("EARL_THREADS") {
        Ok(v) => EarlConfig {
            parallelism: Some(v.parse().expect("EARL_THREADS must be a positive integer")),
            ..config
        },
        Err(_) => config,
    }
}

/// `benchmark/src/workloads.rs::build`'s `pinned`: (n, B) fixed so that
/// SSABE's choices cannot move the ladder.
fn pinned(sigma: f64, depth: usize) -> EarlConfig {
    EarlConfig {
        sigma,
        sample_size: Some(2000),
        bootstraps: Some(200),
        max_iterations: 30,
        pipeline_depth: depth,
        seed: SEED,
        ..EarlConfig::default()
    }
}

/// `Scalar::setup` + the reference run of `Scalar::verify`, in-process.
fn run_scalar<T: EarlTask>(
    nodes: u32,
    dataset: &DatasetSpec,
    config: EarlConfig,
    task: &T,
) -> EarlReport {
    let dfs = fresh_dfs(nodes);
    DatasetBuilder::new(dfs.clone())
        .build(PATH, dataset)
        .unwrap();
    EarlDriver::new(dfs, threaded(config))
        .run(PATH, task)
        .unwrap()
}

/// `Grouped::setup` + `Grouped::run_answer`.
fn run_grouped(spec: &GroupedSpec, config: EarlConfig) -> GroupedEarlReport {
    let dfs = fresh_dfs(5);
    DatasetBuilder::new(dfs.clone())
        .build_grouped(PATH, spec)
        .unwrap();
    EarlDriver::new(dfs, threaded(config))
        .run_grouped(PATH, &GroupedAggregate::mean())
        .unwrap()
}

/// Every deterministic field of an [`EarlReport`], floats as bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct ScalarPin {
    result: u64,
    uncorrected: u64,
    cv: u64,
    ci: (u64, u64),
    sample_size: u64,
    population: u64,
    sample_fraction: u64,
    iterations: usize,
    bootstraps: usize,
    exact: bool,
    sim_micros: u64,
    bytes_read: u64,
    /// `(items_touched, naive_items, sketch_hits, disk_accesses)`.
    resample_work: Option<(u64, u64, u64, u64)>,
}

impl ScalarPin {
    fn of(r: &EarlReport) -> Self {
        assert!(r.fault_log.is_none(), "no failure fires in these worlds");
        Self {
            result: r.result.to_bits(),
            uncorrected: r.uncorrected_result.to_bits(),
            cv: r.error_estimate.to_bits(),
            ci: (r.ci_low.to_bits(), r.ci_high.to_bits()),
            sample_size: r.sample_size,
            population: r.population,
            sample_fraction: r.sample_fraction.to_bits(),
            iterations: r.iterations,
            bootstraps: r.bootstraps,
            exact: r.exact,
            sim_micros: r.sim_time.as_micros(),
            bytes_read: r.bytes_read,
            resample_work: r.resample_work.map(|w| {
                (
                    w.items_touched,
                    w.naive_items,
                    w.sketch_hits,
                    w.disk_accesses,
                )
            }),
        }
    }
}

/// Every field of one [`earl_core::GroupReport`], floats as bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct GroupPin {
    key: &'static str,
    result: u64,
    uncorrected: u64,
    cv: u64,
    ci: (u64, u64),
    sample_size: u64,
}

/// Every deterministic field of a [`GroupedEarlReport`]: the run-level
/// accounting, the first and last group in full, and an FNV-1a digest over
/// every field of every group in key order.
#[derive(Debug, PartialEq, Eq)]
struct GroupedPin {
    groups: usize,
    first: GroupPin,
    last: GroupPin,
    digest: u64,
    worst_cv: u64,
    sample_size: u64,
    population: u64,
    sample_fraction: u64,
    iterations: usize,
    bootstraps: usize,
    exact: bool,
    sim_micros: u64,
    bytes_read: u64,
}

impl GroupedPin {
    fn of(r: &GroupedEarlReport) -> Self {
        let group = |g: &earl_core::GroupReport| GroupPin {
            key: Box::leak(g.key.clone().into_boxed_str()),
            result: g.result.to_bits(),
            uncorrected: g.uncorrected_result.to_bits(),
            cv: g.error_estimate.to_bits(),
            ci: (g.ci_low.to_bits(), g.ci_high.to_bits()),
            sample_size: g.sample_size,
        };
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &byte in bytes {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for g in &r.groups {
            mix(g.key.as_bytes());
            for word in [
                g.result.to_bits(),
                g.uncorrected_result.to_bits(),
                g.error_estimate.to_bits(),
                g.ci_low.to_bits(),
                g.ci_high.to_bits(),
                g.sample_size,
            ] {
                mix(&word.to_le_bytes());
            }
        }
        Self {
            groups: r.groups.len(),
            first: group(r.groups.first().expect("at least one group")),
            last: group(r.groups.last().expect("at least one group")),
            digest,
            worst_cv: r.worst_cv().to_bits(),
            sample_size: r.sample_size,
            population: r.population,
            sample_fraction: r.sample_fraction.to_bits(),
            iterations: r.iterations,
            bootstraps: r.bootstraps,
            exact: r.exact,
            sim_micros: r.sim_time.as_micros(),
            bytes_read: r.bytes_read,
        }
    }
}

fn check_scalar(report: &EarlReport, expected: ScalarPin) {
    let observed = ScalarPin::of(report);
    assert!(
        observed == expected,
        "report drifted from its pin; observed:\n{observed:#x?}"
    );
}

fn check_grouped(report: &GroupedEarlReport, expected: GroupedPin) {
    let observed = GroupedPin::of(report);
    assert!(
        observed == expected,
        "report drifted from its pin; observed:\n{observed:#x?}"
    );
}

/// A twin must climb the ladder, not stop on its first step or read
/// everything.
fn assert_climbs(iterations: usize, exact: bool) {
    assert!(
        iterations >= 2,
        "a twin must climb ≥ 2 steps, took {iterations}"
    );
    assert!(!exact, "a twin must not go exact");
}

// ---------------------------------------------------------------------------
// scan_linear: mean of 4 M records at the default 5 % bound, SSABE-chosen (n, B)
// ---------------------------------------------------------------------------

fn scan_linear(records: u64, sigma: f64) -> EarlReport {
    run_scalar(
        5,
        &DatasetSpec::normal(records, 500.0, 100.0, SEED),
        EarlConfig {
            sigma,
            seed: SEED,
            ..EarlConfig::default()
        },
        &MeanTask,
    )
}

#[test]
#[ignore = "full size: 4 M records; run in release with --ignored"]
fn scan_linear_full_size() {
    let report = scan_linear(4_000_000, EarlConfig::default().sigma);
    check_scalar(
        &report,
        ScalarPin {
            result: 0x407f3f17c7d41024,
            uncorrected: 0x407f3f17c7d41024,
            cv: 0x3f4956505480fc32,
            ci: (0x407f3922d01f8348, 0x407f497da3969b7b),
            sample_size: 40_000,
            population: 4_000_000,
            sample_fraction: 0x3f847ae147ae147b,
            iterations: 1,
            bootstraps: 5,
            exact: false,
            sim_micros: 406_616_550,
            bytes_read: 164_763_154,
            resample_work: None,
        },
    );
}

#[test]
fn scan_linear_twin() {
    let report = scan_linear(200_000, 0.002);
    assert_climbs(report.iterations, report.exact);
    check_scalar(
        &report,
        ScalarPin {
            result: 0x407f3eb3300141e8,
            uncorrected: 0x407f3eb3300141e8,
            cv: 0x3f5271bbdc4e9810,
            ci: (0x407f3b8e8192de77, 0x407f4e0fa692809c),
            sample_size: 23_344,
            population: 200_000,
            sample_fraction: 0x3fbde15ca6ca03c5,
            iterations: 3,
            bootstraps: 5,
            exact: false,
            sim_micros: 251_574_880,
            bytes_read: 101_591_408,
            resample_work: None,
        },
    );
}

// ---------------------------------------------------------------------------
// ladder_order: median of 1 M records over a pinned-(n, B) ladder at depth 2
// ---------------------------------------------------------------------------

fn ladder_order(records: u64, sigma: f64) -> EarlReport {
    run_scalar(
        5,
        &DatasetSpec::normal(records, 500.0, 400.0, SEED),
        pinned(sigma, EarlConfig::default().pipeline_depth),
        &MedianTask,
    )
}

#[test]
#[ignore = "full size: 1 M records; run in release with --ignored"]
fn ladder_order_full_size() {
    let report = ladder_order(1_000_000, 0.0044);
    check_scalar(
        &report,
        ScalarPin {
            result: 0x407f3c4714ac74b4,
            uncorrected: 0x407f3c4714ac74b4,
            cv: 0x3f69928b5baa2373,
            ci: (0x407f0e6837970c19, 0x407f729524b00f18),
            sample_size: 80_000,
            population: 1_000_000,
            sample_fraction: 0x3fb47ae147ae147b,
            iterations: 4,
            bootstraps: 200,
            exact: false,
            sim_micros: 871_561_231,
            bytes_read: 341_206_744,
            resample_work: Some((16_044_804, 30_000_000, 14_044_804, 15_665)),
        },
    );
}

#[test]
fn ladder_order_twin() {
    // Half the records, not a twentieth: with (n, B) pinned at (2000, 200),
    // any file under B·n = 400 000 records takes the exact path.
    let report = ladder_order(500_000, 0.009);
    assert_climbs(report.iterations, report.exact);
    check_scalar(
        &report,
        ScalarPin {
            result: 0x407f530b01478416,
            uncorrected: 0x407f530b01478416,
            cv: 0x3f7e0d4dfcd775c9,
            ci: (0x407edc6013ba24ee, 0x407fb7e686a45364),
            sample_size: 20_000,
            population: 500_000,
            sample_fraction: 0x3fa47ae147ae147b,
            iterations: 3,
            bootstraps: 200,
            exact: false,
            sim_micros: 215_573_999,
            bytes_read: 83_638_509,
            resample_work: Some((4_015_680, 7_000_000, 3_015_680, 6_034)),
        },
    );
}

// ---------------------------------------------------------------------------
// grouped_keys: per-key mean over 200 keys of 10 000 records each
// ---------------------------------------------------------------------------

fn grouped_keys(groups: usize, records_per_group: u64, sigma: f64) -> GroupedEarlReport {
    run_grouped(
        &GroupedSpec::normal_groups(groups, records_per_group, 100.0, 0.25, SEED),
        EarlConfig {
            sigma,
            seed: SEED,
            ..EarlConfig::default()
        },
    )
}

#[test]
#[ignore = "full size: 2 M records over 200 keys; run in release with --ignored"]
fn grouped_keys_full_size() {
    let report = grouped_keys(200, 10_000, 0.01);
    check_grouped(
        &report,
        GroupedPin {
            groups: 200,
            first: GroupPin {
                key: "g0",
                result: 0x4059792fd7753edb,
                uncorrected: 0x4059792fd7753edb,
                cv: 0x3f7a1d87894f33b6,
                ci: (0x405931309fd4406f, 0x4059d23cff34a18e),
                sample_size: 1_544,
            },
            last: GroupPin {
                key: "g99",
                result: 0x40c3a682722b9f70,
                uncorrected: 0x40c3a682722b9f70,
                cv: 0x3f79ecf40ea5e719,
                ci: (0x40c36802a039dfc7, 0x40c3e21aaea28b5f),
                sample_size: 1_602,
            },
            digest: 0x443259b51ea6db86,
            worst_cv: 0x3f7e7b0c31d5d0a0,
            sample_size: 320_000,
            population: 2_000_000,
            sample_fraction: 0x3fc47ae147ae147b,
            iterations: 5,
            bootstraps: 100,
            exact: false,
            sim_micros: 3_517_345_345,
            bytes_read: 1_429_090_731,
        },
    );
}

#[test]
fn grouped_keys_twin() {
    let report = grouped_keys(20, 5_000, 0.02);
    assert_climbs(report.iterations, report.exact);
    check_grouped(
        &report,
        GroupedPin {
            groups: 20,
            first: GroupPin {
                key: "g0",
                result: 0x4058de98cf1967dc,
                uncorrected: 0x4058de98cf1967dc,
                cv: 0x3f88c002962a9576,
                ci: (0x40584e8a8f065746, 0x4059643a879a4207),
                sample_size: 451,
            },
            last: GroupPin {
                key: "g9",
                result: 0x408fa0788337e5f2,
                uncorrected: 0x408fa0788337e5f2,
                cv: 0x3f88ce246249c4eb,
                ci: (0x408ee5976f4ed61d, 0x40902a17e3b96da0),
                sample_size: 391,
            },
            digest: 0xa2f58f29a7f78522,
            worst_cv: 0x3f8d3fc022fd16df,
            sample_size: 8_000,
            population: 100_000,
            sample_fraction: 0x3fb47ae147ae147b,
            iterations: 4,
            bootstraps: 100,
            exact: false,
            sim_micros: 88_541_254,
            bytes_read: 34_055_530,
        },
    );
}

// ---------------------------------------------------------------------------
// net_remote: mean of 1 M records over two TCP workers on loopback, depth 1
// ---------------------------------------------------------------------------

/// One remote run's pin: its report and the wire calls the transport made.
#[derive(Debug, PartialEq, Eq)]
struct RemotePin {
    remote_calls: usize,
    section_calls: usize,
    report: ScalarPin,
}

/// Starts one worker serving `run_worker` on a loopback port of its own.
fn spawn_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = run_worker(listener);
    });
    addr
}

/// `Scalar::setup` with `remote: true` + the reference run of
/// `Scalar::verify`: 4 nodes, two workers provisioned with the dataset, the
/// driver on their transport.  The report must equal an in-process driver's
/// on a second fresh world, as `Scalar::verify` demands.
fn net_remote(records: u64, sigma: f64) -> RemotePin {
    let dataset = DatasetSpec::normal(records, 500.0, 400.0, SEED);
    // Depth 1: the only depth at which section summaries travel.
    let config = pinned(sigma, 1);
    let dfs = fresh_dfs(4);
    DatasetBuilder::new(dfs.clone())
        .build(PATH, &dataset)
        .unwrap();
    let addrs = [spawn_worker(), spawn_worker()];
    let transport = Arc::new(
        TcpTransport::connect(dfs.cluster().clone(), &addrs, Duration::from_secs(10)).unwrap(),
    );
    transport.provision(&dfs, PATH).unwrap();
    let report = EarlDriver::new(dfs, threaded(config))
        .with_transport(transport.clone())
        .run(PATH, &MeanTask)
        .unwrap();
    let pin = RemotePin {
        remote_calls: transport.remote_calls(),
        section_calls: transport.section_calls(),
        report: ScalarPin::of(&report),
    };
    transport.shutdown();
    let local = run_scalar(4, &dataset, config, &MeanTask);
    assert_eq!(
        report, local,
        "remote report differs from the in-process report on a fresh world"
    );
    pin
}

fn check_remote(observed: RemotePin, expected: RemotePin) {
    assert!(
        observed == expected,
        "remote report drifted from its pin; observed:\n{observed:#x?}"
    );
}

#[test]
#[ignore = "full size: 1 M records; run in release with --ignored"]
fn net_remote_full_size() {
    let observed = net_remote(1_000_000, 0.0033);
    check_remote(
        observed,
        RemotePin {
            remote_calls: 2,
            section_calls: 4,
            report: ScalarPin {
                result: 0x407f3967eb21d3f9,
                uncorrected: 0x407f3967eb21d3f9,
                cv: 0x3f6785dbe4e1d533,
                ci: (0x407f143b5fbf4824, 0x407f6aaff70ee7a1),
                sample_size: 80_000,
                population: 1_000_000,
                sample_fraction: 0x3fb47ae147ae147b,
                iterations: 4,
                bootstraps: 200,
                exact: false,
                sim_micros: 840_061_553,
                bytes_read: 341_206_744,
                resample_work: None,
            },
        },
    );
}

#[test]
fn net_remote_twin() {
    // Half the records, as for `ladder_order`: (n, B) is pinned at (2000, 200).
    let observed = net_remote(500_000, 0.005);
    assert_climbs(observed.report.iterations, observed.report.exact);
    check_remote(
        observed,
        RemotePin {
            remote_calls: 2,
            section_calls: 4,
            report: ScalarPin {
                result: 0x407f5a91c4b7dbbd,
                uncorrected: 0x407f5a91c4b7dbbd,
                cv: 0x3f700869150a0555,
                ci: (0x407f22face4181f2, 0x407f9f8d101ec005),
                sample_size: 40_000,
                population: 500_000,
                sample_fraction: 0x3fb47ae147ae147b,
                iterations: 4,
                bootstraps: 200,
                exact: false,
                sim_micros: 421_652_563,
                bytes_read: 170_774_386,
                resample_work: None,
            },
        },
    );
}

// ---------------------------------------------------------------------------
// serve_closed: one mean and one median job through the resident service
// ---------------------------------------------------------------------------

/// One service job's pin: its report and the `EarlUpdate`s its client drained.
#[derive(Debug, PartialEq, Eq)]
struct ServedPin {
    updates: usize,
    report: ScalarPin,
}

/// `Serve::new` + `Serve::setup`: the dataset registered as `"spread"` on 4
/// nodes, a service running two jobs at once.  One mean job (seed 12) and one
/// median job (seed 13) are admitted together, each client drains its
/// updates, and each report must equal a solo driver's on a fresh world of
/// the same definition, as `Serve::verify` demands.
fn serve_closed(records: u64, sigma: f64) -> [ServedPin; 2] {
    let def = DatasetDef::new(4, PATH, DatasetSpec::normal(records, 500.0, 400.0, SEED));
    let mut registry = DatasetRegistry::new();
    registry.register("spread", def.clone());
    let service = EarlService::new(
        registry,
        ServiceConfig {
            max_running: 2,
            ..ServiceConfig::default()
        },
    );
    let config = |seed| {
        threaded(EarlConfig {
            sigma,
            sample_size: Some(700),
            bootstraps: Some(60),
            max_iterations: 30,
            seed,
            ..EarlConfig::default()
        })
    };
    let jobs = [("mean", 12), ("median", 13)];
    let handles = jobs.map(|(kind, seed)| {
        service
            .admit(JobRequest::new(
                TaskSpec::named(kind),
                "spread",
                config(seed),
            ))
            .unwrap()
    });
    let mut handles = handles.into_iter();
    jobs.map(|(kind, seed)| {
        let handle = handles.next().unwrap();
        let mut updates = 0;
        while handle.next_update().is_some() {
            updates += 1;
        }
        let report = handle.wait().unwrap().result.unwrap();
        let solo = EarlDriver::new(def.build().unwrap(), config(seed));
        let solo = match kind {
            "mean" => solo.run(PATH, &MeanTask),
            _ => solo.run(PATH, &MedianTask),
        }
        .unwrap();
        assert_eq!(
            report, solo,
            "service {kind} report differs from the solo driver's"
        );
        ServedPin {
            updates,
            report: ScalarPin::of(&report),
        }
    })
}

fn check_served(observed: [ServedPin; 2], expected: [ServedPin; 2]) {
    assert!(
        observed == expected,
        "service reports drifted from their pins; observed:\n{observed:#x?}"
    );
}

#[test]
#[ignore = "full size: 1 M records; run in release with --ignored"]
fn serve_closed_full_size() {
    let observed = serve_closed(1_000_000, 0.0045);
    check_served(
        observed,
        [
            ServedPin {
                updates: 3,
                report: ScalarPin {
                    result: 0x407f0ad667d79c4a,
                    uncorrected: 0x407f0ad667d79c4a,
                    cv: 0x3f6caded572a69c3,
                    ci: (0x407ecd55f96c46de, 0x407f399cafb0652d),
                    sample_size: 40_000,
                    population: 1_000_000,
                    sample_fraction: 0x3fa47ae147ae147b,
                    iterations: 3,
                    bootstraps: 60,
                    exact: false,
                    sim_micros: 411_023_413,
                    bytes_read: 5_225_984,
                    resample_work: None,
                },
            },
            ServedPin {
                updates: 4,
                report: ScalarPin {
                    result: 0x407f2d0e846eec5a,
                    uncorrected: 0x407f2d0e846eec5a,
                    cv: 0x3f6f2785e36b5694,
                    ci: (0x407ef67da6d40566, 0x407f70ecad0b6b4a),
                    sample_size: 80_000,
                    population: 1_000_000,
                    sample_fraction: 0x3fb47ae147ae147b,
                    iterations: 4,
                    bootstraps: 60,
                    exact: false,
                    sim_micros: 846_956_003,
                    bytes_read: 10_681_600,
                    resample_work: Some((4_816_504, 9_000_000, 4_216_504, 4_703)),
                },
            },
        ],
    );
}

#[test]
fn serve_closed_twin() {
    let observed = serve_closed(50_000, 0.01);
    for pin in &observed {
        assert_climbs(pin.report.iterations, pin.report.exact);
    }
    check_served(
        observed,
        [
            ServedPin {
                updates: 5,
                report: ScalarPin {
                    result: 0x407f37a19a7baf46,
                    uncorrected: 0x407f37a19a7baf46,
                    cv: 0x3f786901acfa8841,
                    ci: (0x407edaad1c909866, 0x407f85edb49f5300),
                    sample_size: 11_200,
                    population: 50_000,
                    sample_fraction: 0x3fccac083126e979,
                    iterations: 5,
                    bootstraps: 60,
                    exact: false,
                    sim_micros: 128_919_460,
                    bytes_read: 1_624_659,
                    resample_work: None,
                },
            },
            ServedPin {
                updates: 5,
                report: ScalarPin {
                    result: 0x407f81c0fde81739,
                    uncorrected: 0x407f81c0fde81739,
                    cv: 0x3f8427fc15fad2d1,
                    ci: (0x407eed019d0691dc, 0x408004b5eb21d86a),
                    sample_size: 11_200,
                    population: 50_000,
                    sample_fraction: 0x3fccac083126e979,
                    iterations: 5,
                    bootstraps: 60,
                    exact: false,
                    sim_micros: 129_890_665,
                    bytes_read: 1_620_352,
                    resample_work: Some((680_260, 1_302_000, 638_260, 2_067)),
                },
            },
        ],
    );
}
