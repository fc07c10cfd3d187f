//! # earl-mapreduce
//!
//! A Hadoop-like MapReduce engine running on the simulated cluster and DFS of
//! `earl-cluster` / `earl-dfs`.  It provides everything the EARL paper (Laptev,
//! Zeng, Zaniolo — VLDB 2012) assumes of its substrate:
//!
//! * the classic `map : (k1, v1) → list(k2, v2)` / `reduce : (k2, list(v2)) →
//!   (k3, v3)` programming model with partitioners and counters;
//! * locality-aware task scheduling over input splits, with node failures
//!   arbitrated deterministically on the simulated clock and handled per
//!   [`FailurePolicy`]: *retry* re-plans lost tasks onto survivors (stock
//!   Hadoop behaviour), *degrade* drops the lost splits and lets the accuracy
//!   stage bound the error (the fault-tolerant approximation mode of EARL
//!   §3.4) — both on the parallel engine, at every thread count;
//! * a **local mode** that runs a job's tasks in the driver process —
//!   without start-up, placement, failure arbitration, shuffle sort and
//!   network charges or remote compute (see [`JobConf::local_mode`]);
//! * a map phase that runs on its own ([`run_map_phase`]) and is later
//!   finished by shuffle + reduce ([`finish_job`]) or dropped before its
//!   reduce phase.
//!
//! The engine executes user code for real (results are exact), while all I/O,
//! CPU and start-up work is charged to the cluster's cost model so simulated
//! processing times reflect the work performed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod contrib;
pub mod counters;
pub mod error;
pub mod job;
pub mod partition;
pub mod runner;
pub mod shuffle;
pub mod transport;
pub mod types;

pub use counters::Counters;
pub use error::MrError;
pub use job::{FailurePolicy, InputSource, JobConf, JobResult, JobStats};
pub use partition::{HashPartitioner, Partitioner};
pub use runner::{finish_job, run_job, run_map_phase, MapPhase};
pub use shuffle::ShuffleOutput;
pub use transport::{
    InProcess, RemoteMapOutcome, RemoteMapRequest, RemoteReduceOutcome, RemoteReduceRequest,
    RemoteSectionsOutcome, RemoteSectionsRequest, SectionSummary, TaskSpec, TaskTransport,
};
pub use types::{MapContext, Mapper, ReduceContext, Reducer};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MrError>;
