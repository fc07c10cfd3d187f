//! Cost model for the simulated cluster.
//!
//! The EARL paper reports wall-clock processing times measured on a 5-node
//! cluster of 2008-era commodity machines (Core 2 Duo E8400, spinning disks,
//! 1 GbE).  The reproduction substitutes a deterministic cost model: every byte
//! scanned from disk, byte shipped across the network, and record processed by
//! a mapper/reducer is charged a fixed cost.  The absolute constants are chosen
//! to be in the ballpark of the paper's hardware so the *shapes* of the
//! time-vs-data-size figures match; they are configurable so experiments can
//! explore other regimes.

use serde::{Deserialize, Serialize};

use crate::clock::SimDuration;

const MIB: f64 = 1024.0 * 1024.0;

/// Per-operation cost constants used to convert work into simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of a random disk seek.
    pub disk_seek: SimDuration,
    /// Sequential disk read throughput, bytes per second.
    pub disk_read_bytes_per_sec: f64,
    /// Sequential disk write throughput, bytes per second.
    pub disk_write_bytes_per_sec: f64,
    /// Network throughput between two nodes, bytes per second.
    pub net_bytes_per_sec: f64,
    /// Fixed per-message network latency.
    pub net_latency: SimDuration,
    /// CPU cost to process a single record in a map function.
    pub cpu_per_map_record: SimDuration,
    /// CPU cost to process a single record in a reduce function.
    pub cpu_per_reduce_record: SimDuration,
    /// CPU cost per record for sorting/merging during the shuffle.
    pub cpu_per_sort_record: SimDuration,
    /// Fixed cost of launching a task (JVM start-up in Hadoop terms).
    pub task_startup: SimDuration,
    /// Fixed cost of launching a job (job submission, split computation, ...).
    pub job_startup: SimDuration,
    /// Multiplier applied to CPU costs for "heavy" user functions
    /// (e.g. a K-Means iteration costs more per record than a sum).
    pub heavy_cpu_factor: f64,
}

impl CostModel {
    /// Cost model resembling the paper's 2008-era commodity nodes:
    /// ~90 MB/s sequential disk reads, 1 GbE network, ~10 ms seeks, and JVM-like
    /// task start-up costs of a few hundred milliseconds.
    pub fn commodity_2012() -> Self {
        Self {
            disk_seek: SimDuration::from_millis(10),
            disk_read_bytes_per_sec: 90.0 * MIB,
            disk_write_bytes_per_sec: 70.0 * MIB,
            net_bytes_per_sec: 110.0 * MIB,
            net_latency: SimDuration::from_micros(200),
            cpu_per_map_record: SimDuration::from_micros(2),
            cpu_per_reduce_record: SimDuration::from_micros(2),
            cpu_per_sort_record: SimDuration::from_micros(1),
            task_startup: SimDuration::from_millis(400),
            job_startup: SimDuration::from_millis(1_500),
            heavy_cpu_factor: 8.0,
        }
    }

    /// A cost model with all costs set to zero.  Useful in unit tests that only
    /// care about functional behaviour.
    pub fn free() -> Self {
        Self {
            disk_seek: SimDuration::ZERO,
            disk_read_bytes_per_sec: f64::INFINITY,
            disk_write_bytes_per_sec: f64::INFINITY,
            net_bytes_per_sec: f64::INFINITY,
            net_latency: SimDuration::ZERO,
            cpu_per_map_record: SimDuration::ZERO,
            cpu_per_reduce_record: SimDuration::ZERO,
            cpu_per_sort_record: SimDuration::ZERO,
            task_startup: SimDuration::ZERO,
            job_startup: SimDuration::ZERO,
            heavy_cpu_factor: 1.0,
        }
    }

    /// Starts a builder initialised to [`CostModel::commodity_2012`].
    pub fn builder() -> CostModelBuilder {
        CostModelBuilder {
            model: Self::commodity_2012(),
        }
    }

    /// Time to sequentially read `bytes` bytes from one disk.
    pub fn disk_read(&self, bytes: u64) -> SimDuration {
        Self::throughput_cost(bytes, self.disk_read_bytes_per_sec)
    }

    /// Time to sequentially write `bytes` bytes to one disk.
    pub fn disk_write(&self, bytes: u64) -> SimDuration {
        Self::throughput_cost(bytes, self.disk_write_bytes_per_sec)
    }

    /// Time to transfer `bytes` bytes between two distinct nodes (latency +
    /// throughput).  Transfers within a node are free.
    pub fn net_transfer(&self, bytes: u64) -> SimDuration {
        self.net_latency + Self::throughput_cost(bytes, self.net_bytes_per_sec)
    }

    /// CPU time for `records` map invocations, scaled by `heavy` if the user
    /// function is flagged as heavy.
    pub fn map_cpu(&self, records: u64, heavy: bool) -> SimDuration {
        let base = self.cpu_per_map_record.mul_f64(records as f64);
        if heavy {
            base.mul_f64(self.heavy_cpu_factor)
        } else {
            base
        }
    }

    /// CPU time for `records` reduce invocations.
    pub fn reduce_cpu(&self, records: u64, heavy: bool) -> SimDuration {
        let base = self.cpu_per_reduce_record.mul_f64(records as f64);
        if heavy {
            base.mul_f64(self.heavy_cpu_factor)
        } else {
            base
        }
    }

    /// CPU time to sort `records` records (charged as n·log₂(n) comparisons at
    /// the per-sort-record cost).
    pub fn sort_cpu(&self, records: u64) -> SimDuration {
        if records <= 1 {
            return SimDuration::ZERO;
        }
        let n = records as f64;
        self.cpu_per_sort_record.mul_f64(n * n.log2() / 16.0)
    }

    fn throughput_cost(bytes: u64, bytes_per_sec: f64) -> SimDuration {
        if bytes == 0 || !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::commodity_2012()
    }
}

/// Fluent builder for [`CostModel`].
#[derive(Debug, Clone)]
pub struct CostModelBuilder {
    model: CostModel,
}

impl CostModelBuilder {
    /// Sets the random-seek cost.
    pub fn disk_seek(mut self, d: SimDuration) -> Self {
        self.model.disk_seek = d;
        self
    }

    /// Sets the per-record map CPU cost.
    pub fn cpu_per_map_record(mut self, d: SimDuration) -> Self {
        self.model.cpu_per_map_record = d;
        self
    }

    /// Sets the per-record reduce CPU cost.
    pub fn cpu_per_reduce_record(mut self, d: SimDuration) -> Self {
        self.model.cpu_per_reduce_record = d;
        self
    }

    /// Sets the fixed per-task start-up cost.
    pub fn task_startup(mut self, d: SimDuration) -> Self {
        self.model.task_startup = d;
        self
    }

    /// Sets the fixed per-job start-up cost.
    pub fn job_startup(mut self, d: SimDuration) -> Self {
        self.model.job_startup = d;
        self
    }

    /// Sets the heavy-function CPU multiplier.
    pub fn heavy_cpu_factor(mut self, factor: f64) -> Self {
        self.model.heavy_cpu_factor = factor.max(1.0);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> CostModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_read_scales_linearly() {
        let m = CostModel::commodity_2012();
        let one = m.disk_read(MIB as u64);
        let ten = m.disk_read(10 * MIB as u64);
        let ratio = ten.as_secs_f64() / one.as_secs_f64();
        assert!((ratio - 10.0).abs() < 0.01, "ratio was {ratio}");
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        assert_eq!(m.disk_read(1 << 30), SimDuration::ZERO);
        assert_eq!(m.net_transfer(1 << 30), SimDuration::ZERO);
        assert_eq!(m.map_cpu(1_000_000, true), SimDuration::ZERO);
        assert_eq!(m.sort_cpu(1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn heavy_factor_multiplies_cpu() {
        let m = CostModel::commodity_2012();
        let light = m.map_cpu(1000, false);
        let heavy = m.map_cpu(1000, true);
        let ratio = heavy.as_secs_f64() / light.as_secs_f64();
        assert!((ratio - m.heavy_cpu_factor).abs() < 0.05);
    }

    #[test]
    fn sort_cost_is_superlinear() {
        let m = CostModel::commodity_2012();
        let small = m.sort_cpu(1_000);
        let large = m.sort_cpu(1_000_000);
        assert!(large.as_micros() > 1000 * small.as_micros() / 2);
        assert_eq!(m.sort_cpu(1), SimDuration::ZERO);
    }

    #[test]
    fn builder_overrides_fields() {
        let m = CostModel::builder()
            .task_startup(SimDuration::from_millis(1))
            .heavy_cpu_factor(0.5) // clamped to 1.0
            .build();
        assert_eq!(m.task_startup, SimDuration::from_millis(1));
        assert_eq!(m.heavy_cpu_factor, 1.0);
    }

    #[test]
    fn zero_bytes_cost_latency_only() {
        let m = CostModel::commodity_2012();
        assert_eq!(m.disk_read(0), SimDuration::ZERO);
        assert_eq!(m.net_transfer(0), m.net_latency);
    }
}
