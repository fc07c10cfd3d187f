//! # earl
//!
//! Facade crate for the EARL reproduction (Laptev, Zeng, Zaniolo — "Early
//! Accurate Results for Advanced Analytics on MapReduce", VLDB 2012).
//!
//! Re-exports every workspace crate under one roof so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! ```
//! use earl::core::{EarlConfig, EarlDriver};
//! use earl::cluster::Cluster;
//! use earl::dfs::{Dfs, DfsConfig};
//!
//! let cluster = Cluster::with_nodes(3);
//! let dfs = Dfs::new(cluster, DfsConfig::default()).unwrap();
//! dfs.write_lines("/data", (1..=1000).map(|i| i.to_string())).unwrap();
//! let driver = EarlDriver::new(dfs, EarlConfig::default());
//! let report = driver.run("/data", &earl::core::tasks::MeanTask).unwrap();
//! assert!(report.result > 0.0);
//! ```
//!
//! ## Choosing a bootstrap kernel
//!
//! The accuracy-estimation stage evaluates its bootstrap replicates one of two
//! ways (gather or count-based — see the README's kernel table).  `Auto`
//! picks the count-based kernel for linear statistics and gathers otherwise;
//! forcing the gather kernel is a one-field config change:
//!
//! ```
//! use earl::bootstrap::BootstrapKernel;
//! use earl::cluster::Cluster;
//! use earl::core::{tasks::MeanTask, EarlConfig, EarlDriver};
//! use earl::dfs::{Dfs, DfsConfig};
//!
//! // Force the gather kernel (e.g. to A/B the count-based error estimates).
//! let config = EarlConfig {
//!     bootstrap_kernel: BootstrapKernel::Gather,
//!     ..EarlConfig::default()
//! };
//!
//! let cluster = Cluster::with_nodes(3);
//! let dfs = Dfs::new(cluster, DfsConfig::default()).unwrap();
//! dfs.write_lines("/data", (1..=1000).map(|i| i.to_string())).unwrap();
//! let report = EarlDriver::new(dfs, config).run("/data", &MeanTask).unwrap();
//! assert!(report.error_estimate <= report.target_sigma);
//! ```
//!
//! ## Running against real workers
//!
//! [`net`] (`earl-net`) runs the same jobs on real worker subprocesses over
//! TCP with bit-identical reports; see `docs/ARCHITECTURE.md`,
//! `docs/WIRE_PROTOCOL.md` and the README's "Running a real cluster" section.
//! The transport survives real network trouble: socket errors and stalled
//! calls are revived transparently, reported deaths flow through the same
//! `FailurePolicy`/`FaultLog` machinery as simulated failures, and dead
//! workers rejoin with re-provisioning (`net::TcpTransportConfig` holds the
//! deadline/retry/rejoin knobs, `net::chaos` the deterministic fault
//! injection used to prove all of this).
//!
//! ## Running as a resident service
//!
//! [`serve`] (`earl-serve`) keeps the engine resident: concurrent jobs enter
//! a bounded admission queue (priority + aging fairness, deadline shedding,
//! explicit rejection under overflow), run on a shared worker pool, and
//! stream one progressive `EarlUpdate` per iteration to their subscriber —
//! with each job's message stream recorded for bit-identical deterministic
//! replay.  See `docs/ARCHITECTURE.md` and the README's "Running the
//! resident service" section.

pub use earl_bootstrap as bootstrap;
pub use earl_cluster as cluster;
pub use earl_core as core;
pub use earl_dfs as dfs;
pub use earl_mapreduce as mapreduce;
pub use earl_net as net;
pub use earl_sampling as sampling;
pub use earl_serve as serve;
pub use earl_workload as workload;
