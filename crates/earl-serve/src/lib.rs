//! # earl-serve — the resident EARL service
//!
//! Everything below this crate is one job per `EarlDriver::run`.  This crate
//! puts a long-running service in front of the engine, the "millions of
//! users" layer:
//!
//! * **Admission** — [`EarlService::admit`] accepts a [`JobRequest`] (task
//!   spec, dataset name, accuracy budget σ, priority, deadline) into a
//!   bounded queue.  A full queue answers
//!   [`ServeError::Rejected`]`{ retry_after }` instead of growing without
//!   bound; a job whose deadline expires while queued is shed with the
//!   distinct [`ServeError::DeadlineExpired`].  The task spec resolves
//!   through [`earl_net::WireTask`], the registry the `earl-worker` processes
//!   use — this crate keeps no task table of its own, so a spec the service
//!   runs is one a remote pool can run, and a spec the registry refuses (an
//!   unknown name, a quantile level outside `0 ≤ q ≤ 1`) finishes
//!   [`ServeError::UnknownTask`].
//! * **Fair scheduling** — a small supervisor loop drains the queue into a
//!   shared [`WorkerPool`](earl_parallel::WorkerPool): highest priority
//!   first, FIFO within a priority, with aging so a starved low-priority job
//!   is eventually forced to the front (no livelock under a hostile
//!   high-priority stream).
//! * **Progressive delivery** — each EARL iteration pushes an
//!   [`EarlUpdate`](earl_core::EarlUpdate) snapshot to the job's subscriber
//!   channel as σ tightens, and cooperative cancellation is checked at every
//!   iteration boundary, so an abandoned client stops consuming the pool.
//! * **Deterministic replay** — every observer verdict of a job is recorded
//!   in its [`JobLog`], keyed by `(seed, job_id)`.  [`replay`] re-drives that
//!   log standalone on a fresh deterministic cluster; the result is
//!   bit-identical to the service's (including `sim_time` and byte counters),
//!   which in turn is bit-identical to a solo `EarlDriver` run with the same
//!   verdicts.  Concurrency can change *which* boundary a cancel lands on —
//!   never what any fixed sequence of verdicts produces.
//!
//! Determinism is inherited, not re-proved: each job gets its own
//! deterministically built cluster + DFS (from the [`DatasetRegistry`]), so
//! concurrent jobs share executor threads but never simulated state.  The
//! registry encodes each dataset's records once per entry and writes those
//! bytes into every job's fresh DFS, which yields the world a from-scratch
//! [`DatasetDef::build`] would.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod dataset;
mod log;
mod replay;
mod request;
mod scheduler;
mod service;

pub use dataset::{DatasetDef, DatasetRegistry};
pub use log::{JobEvent, JobLog};
pub use replay::replay;
pub use request::{JobId, JobRequest, Priority, ServeError};
pub use scheduler::AdmissionQueue;
pub use service::{EarlService, JobHandle, JobOutcome, RemotePoolConfig, ServiceConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
