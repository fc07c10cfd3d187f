//! Work accounting.
//!
//! Everything the simulated cluster does is recorded in a [`Metrics`] registry,
//! tagged with the [`Phase`] of execution it belongs to.  The experiment
//! harness reads these counters to report, e.g., "bytes scanned by stock Hadoop
//! vs bytes scanned by EARL" alongside the simulated processing times.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::SimDuration;

/// Execution phases used to attribute work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Reading input data from the DFS (including sampling reads).
    Load,
    /// Running user map functions.
    Map,
    /// Sorting and moving intermediate data.
    Shuffle,
    /// Running user reduce functions.
    Reduce,
    /// Bootstrap resampling and accuracy estimation (EARL's AES).
    AccuracyEstimation,
    /// Writing output back to the DFS.
    Output,
    /// Anything else (job setup, bookkeeping).
    Other,
}

/// Counters for a single phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCounters {
    /// Bytes read from disk.
    pub disk_bytes_read: u64,
    /// Bytes written to disk.
    pub disk_bytes_written: u64,
    /// Bytes transferred over the network.
    pub net_bytes: u64,
    /// Records processed.
    pub records: u64,
    /// Simulated time spent, in microseconds.
    pub sim_time_micros: u64,
}

/// An immutable snapshot of all counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Per-phase counters.
    pub phases: BTreeMap<Phase, PhaseCounters>,
    /// Number of tasks started.
    pub tasks_started: u64,
    /// Number of tasks restarted because of failures.
    pub tasks_restarted: u64,
    /// Number of jobs run.
    pub jobs_run: u64,
}

impl MetricsSnapshot {
    /// Total bytes read from disk across all phases.
    pub fn total_disk_bytes_read(&self) -> u64 {
        self.phases.values().map(|c| c.disk_bytes_read).sum()
    }

    /// Total records processed across all phases.
    pub fn total_records(&self) -> u64 {
        self.phases.values().map(|c| c.records).sum()
    }

    /// Counters for one phase (zeroes if the phase never ran).
    pub fn phase(&self, phase: Phase) -> PhaseCounters {
        self.phases.get(&phase).copied().unwrap_or_default()
    }
}

/// Thread-safe metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<MetricsSnapshot>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records disk reads in a phase.
    pub fn record_disk_read(&self, phase: Phase, bytes: u64, time: SimDuration) {
        let mut inner = self.inner.lock();
        let c = inner.phases.entry(phase).or_default();
        c.disk_bytes_read += bytes;
        c.sim_time_micros += time.as_micros();
    }

    /// Records disk writes in a phase.
    pub fn record_disk_write(&self, phase: Phase, bytes: u64, time: SimDuration) {
        let mut inner = self.inner.lock();
        let c = inner.phases.entry(phase).or_default();
        c.disk_bytes_written += bytes;
        c.sim_time_micros += time.as_micros();
    }

    /// Records a network transfer in a phase.
    pub fn record_net(&self, phase: Phase, bytes: u64, time: SimDuration) {
        let mut inner = self.inner.lock();
        let c = inner.phases.entry(phase).or_default();
        c.net_bytes += bytes;
        c.sim_time_micros += time.as_micros();
    }

    /// Records CPU work over `records` records in a phase.
    pub fn record_cpu(&self, phase: Phase, records: u64, time: SimDuration) {
        let mut inner = self.inner.lock();
        let c = inner.phases.entry(phase).or_default();
        c.records += records;
        c.sim_time_micros += time.as_micros();
    }

    /// Records pure simulated time (no bytes/records) in a phase.
    pub fn record_time(&self, phase: Phase, time: SimDuration) {
        let mut inner = self.inner.lock();
        inner.phases.entry(phase).or_default().sim_time_micros += time.as_micros();
    }

    /// Records that a task started.
    pub fn record_task_start(&self) {
        self.inner.lock().tasks_started += 1;
    }

    /// Records that a task had to be restarted after a failure.
    pub fn record_task_restart(&self) {
        self.inner.lock().tasks_restarted += 1;
    }

    /// Records a job execution.
    pub fn record_job(&self) {
        self.inner.lock().jobs_run += 1;
    }

    /// Current counters of one phase (zeroes if the phase never ran), without
    /// cloning the whole registry.
    pub fn phase(&self, phase: Phase) -> PhaseCounters {
        self.inner.lock().phase(phase)
    }

    /// Returns a snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().clone()
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        *self.inner.lock() = MetricsSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_phase() {
        let m = Metrics::new();
        m.record_disk_read(Phase::Load, 100, SimDuration::from_micros(5));
        m.record_disk_read(Phase::Load, 50, SimDuration::from_micros(2));
        m.record_cpu(Phase::Map, 10, SimDuration::from_micros(1));
        let snap = m.snapshot();
        assert_eq!(snap.phase(Phase::Load).disk_bytes_read, 150);
        assert_eq!(snap.phase(Phase::Load).sim_time_micros, 7);
        assert_eq!(snap.phase(Phase::Map).records, 10);
        assert_eq!(snap.total_disk_bytes_read(), 150);
        assert_eq!(snap.total_records(), 10);
    }

    #[test]
    fn missing_phase_is_zero() {
        let snap = Metrics::new().snapshot();
        assert_eq!(snap.phase(Phase::Reduce), PhaseCounters::default());
    }

    #[test]
    fn task_and_job_counters() {
        let m = Metrics::new();
        m.record_task_start();
        m.record_task_start();
        m.record_task_restart();
        m.record_job();
        let snap = m.snapshot();
        assert_eq!(snap.tasks_started, 2);
        assert_eq!(snap.tasks_restarted, 1);
        assert_eq!(snap.jobs_run, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let m = Metrics::new();
        m.record_net(Phase::Shuffle, 10, SimDuration::from_micros(1));
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }
}
