//! The cluster facade.
//!
//! A [`Cluster`] bundles the nodes, the simulated clock, the cost model, the
//! metrics registry and the failure injector.  Higher layers never advance the
//! clock themselves; they call the `charge_*` methods which compute the cost of
//! an operation, advance the clock, and record metrics in one step.
//!
//! ## Parallelism model
//!
//! Hadoop overlaps work across nodes.  Rather than simulating a full event
//! queue, the cluster exposes [`Cluster::charge_parallel`], which charges the
//! *maximum* of a set of per-node durations (the makespan) — the same
//! first-order model the paper uses when reasoning about why sampling reduces
//! response time (the job finishes when its slowest wave of tasks finishes).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::{SimClock, SimDuration, SimInstant};
use crate::cost::CostModel;
use crate::error::ClusterError;
use crate::failure::{FailureEvent, FailureInjector, FailureSchedule};
use crate::metrics::{Metrics, Phase};
use crate::node::{Node, NodeId, NodeState};
use crate::Result;

/// Shared handle to a simulated cluster.
///
/// The handle is cheaply cloneable (`Arc` internally) so the DFS, the MapReduce
/// engine and the EARL driver can all charge work against the same cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

#[derive(Debug)]
struct ClusterInner {
    nodes: RwLock<Vec<Node>>,
    clock: SimClock,
    cost: CostModel,
    metrics: Metrics,
    failures: parking_lot::Mutex<FailureInjector>,
    rng: parking_lot::Mutex<StdRng>,
    /// Depth of [`Cluster::suppress_failure_polling`] guards currently alive.
    /// While non-zero, `charge_*` calls do not implicitly poll the injector —
    /// the engine arbitrates failures explicitly at deterministic instants.
    poll_suppressed: AtomicUsize,
}

/// RAII guard returned by [`Cluster::suppress_failure_polling`]: while alive,
/// `charge_*` calls advance the clock and metrics but do **not** poll the
/// failure injector.  Dropping the guard re-enables implicit polling; the
/// holder is expected to arbitrate the covered window explicitly via
/// [`Cluster::arbitrate_failures_at`].
#[derive(Debug)]
#[must_use = "polling resumes when the guard is dropped"]
pub struct FailurePollingPause {
    inner: Arc<ClusterInner>,
}

impl Drop for FailurePollingPause {
    fn drop(&mut self) {
        self.inner.poll_suppressed.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Convenience constructor: `n` healthy nodes, 2 task slots each, the
    /// commodity cost model and no failures.  Matches the paper's 5-node setup
    /// when called with `n = 5`.
    pub fn with_nodes(n: u32) -> Self {
        Self::builder()
            .nodes(n)
            .build()
            .expect("default cluster config is valid")
    }

    /// A single-node cluster with a free cost model, for unit tests.
    pub fn for_tests() -> Self {
        Self::builder()
            .nodes(1)
            .cost_model(CostModel::free())
            .build()
            .expect("valid test cluster")
    }

    // ----- topology -------------------------------------------------------

    /// Number of nodes (including failed ones).
    pub fn num_nodes(&self) -> usize {
        self.inner.nodes.read().len()
    }

    /// Ids of nodes currently able to run tasks / serve blocks.
    pub fn available_nodes(&self) -> Vec<NodeId> {
        self.inner
            .nodes
            .read()
            .iter()
            .filter(|n| n.is_available())
            .map(|n| n.id())
            .collect()
    }

    /// Snapshot of a node.
    pub fn node(&self, id: NodeId) -> Result<Node> {
        self.inner
            .nodes
            .read()
            .get(id.index())
            .cloned()
            .ok_or(ClusterError::UnknownNode(id))
    }

    /// Whether node `id` exists and can currently serve blocks and run tasks
    /// (the per-read liveness test of the DFS, without snapshotting the node).
    pub fn is_node_available(&self, id: NodeId) -> bool {
        self.inner
            .nodes
            .read()
            .get(id.index())
            .is_some_and(Node::is_available)
    }

    /// Snapshot of all nodes.
    pub fn nodes(&self) -> Vec<Node> {
        self.inner.nodes.read().clone()
    }

    /// Returns the available node with the least stored data (used for
    /// balanced block placement).
    pub fn least_loaded_node(&self) -> Result<NodeId> {
        self.inner
            .nodes
            .read()
            .iter()
            .filter(|n| n.is_available())
            .min_by_key(|n| n.stored_bytes())
            .map(|n| n.id())
            .ok_or(ClusterError::NoAvailableNodes)
    }

    /// Draws a uniform random integer in `[0, bound)` from the cluster RNG.
    pub fn random_below(&self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.inner.rng.lock().gen_range(0..bound)
    }

    // ----- storage accounting (used by the DFS) ----------------------------

    /// Records that `bytes` of block data were placed on `node`.
    pub fn record_block_stored(&self, node: NodeId, bytes: u64) -> Result<()> {
        let mut nodes = self.inner.nodes.write();
        let n = nodes
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?;
        if !n.is_available() {
            return Err(ClusterError::NodeUnavailable(node));
        }
        n.add_stored(bytes);
        Ok(())
    }

    /// Records that a task ran on `node`.
    pub fn record_task_on(&self, node: NodeId) -> Result<()> {
        let mut nodes = self.inner.nodes.write();
        let n = nodes
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?;
        if !n.is_available() {
            return Err(ClusterError::NodeUnavailable(node));
        }
        n.record_task();
        self.inner.metrics.record_task_start();
        Ok(())
    }

    // ----- time / cost charging -------------------------------------------

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.inner.clock.now()
    }

    /// Total elapsed simulated time.
    pub fn elapsed(&self) -> SimDuration {
        self.inner.clock.elapsed()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Charges a sequential disk read of `bytes` bytes in `phase`.
    pub fn charge_disk_read(&self, phase: Phase, bytes: u64) -> SimDuration {
        let cost = self.inner.cost.disk_read(bytes);
        self.inner.clock.advance(cost);
        self.inner.metrics.record_disk_read(phase, bytes, cost);
        self.poll_failures();
        cost
    }

    /// Charges a random disk seek followed by a read of `bytes` bytes.
    pub fn charge_disk_seek_read(&self, phase: Phase, bytes: u64) -> SimDuration {
        let cost = self.inner.cost.disk_seek + self.inner.cost.disk_read(bytes);
        self.inner.clock.advance(cost);
        self.inner.metrics.record_disk_read(phase, bytes, cost);
        self.poll_failures();
        cost
    }

    /// Charges a sequential disk write of `bytes` bytes in `phase`.
    pub fn charge_disk_write(&self, phase: Phase, bytes: u64) -> SimDuration {
        let cost = self.inner.cost.disk_write(bytes);
        self.inner.clock.advance(cost);
        self.inner.metrics.record_disk_write(phase, bytes, cost);
        self.poll_failures();
        cost
    }

    /// Charges a network transfer of `bytes` bytes between `from` and `to`
    /// (free if they are the same node).
    pub fn charge_net_transfer(
        &self,
        phase: Phase,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        let cost = self.inner.cost.net_transfer(bytes);
        self.inner.clock.advance(cost);
        self.inner.metrics.record_net(phase, bytes, cost);
        self.poll_failures();
        cost
    }

    /// Charges CPU work for `records` map-records.
    pub fn charge_map_cpu(&self, records: u64, heavy: bool) -> SimDuration {
        let cost = self.inner.cost.map_cpu(records, heavy);
        self.inner.clock.advance(cost);
        self.inner.metrics.record_cpu(Phase::Map, records, cost);
        self.poll_failures();
        cost
    }

    /// Charges CPU work for `records` reduce-records in the given phase
    /// (reduce work may be attributed to [`Phase::AccuracyEstimation`] when it
    /// is bootstrap recomputation rather than the user's job proper).
    pub fn charge_reduce_cpu(&self, phase: Phase, records: u64, heavy: bool) -> SimDuration {
        let cost = self.inner.cost.reduce_cpu(records, heavy);
        self.inner.clock.advance(cost);
        self.inner.metrics.record_cpu(phase, records, cost);
        self.poll_failures();
        cost
    }

    /// Charges sort CPU work for `records` records during the shuffle.
    pub fn charge_sort(&self, records: u64) -> SimDuration {
        let cost = self.inner.cost.sort_cpu(records);
        self.inner.clock.advance(cost);
        self.inner.metrics.record_cpu(Phase::Shuffle, records, cost);
        self.poll_failures();
        cost
    }

    /// Charges the fixed start-up cost of one task.
    pub fn charge_task_startup(&self) -> SimDuration {
        let cost = self.inner.cost.task_startup;
        self.inner.clock.advance(cost);
        self.inner.metrics.record_time(Phase::Other, cost);
        self.poll_failures();
        cost
    }

    /// Charges the fixed start-up cost of one job.
    pub fn charge_job_startup(&self) -> SimDuration {
        let cost = self.inner.cost.job_startup;
        self.inner.clock.advance(cost);
        self.inner.metrics.record_time(Phase::Other, cost);
        self.inner.metrics.record_job();
        self.poll_failures();
        cost
    }

    /// Charges a set of durations that execute *in parallel* on different
    /// nodes: the clock advances by the maximum (makespan) but the metrics
    /// record the per-phase attribution passed in `attributed`.
    ///
    /// Returns the makespan.
    pub fn charge_parallel(&self, phase: Phase, durations: &[SimDuration]) -> SimDuration {
        let makespan = durations.iter().copied().max().unwrap_or(SimDuration::ZERO);
        self.inner.clock.advance(makespan);
        self.inner.metrics.record_time(phase, makespan);
        self.poll_failures();
        makespan
    }

    /// Records that a task was restarted due to a failure.
    pub fn record_task_restart(&self) {
        self.inner.metrics.record_task_restart();
    }

    // ----- failures ---------------------------------------------------------

    /// Fails a node immediately (administrative action or test hook).
    pub fn fail_node(&self, id: NodeId) -> Result<()> {
        let mut nodes = self.inner.nodes.write();
        let n = nodes
            .get_mut(id.index())
            .ok_or(ClusterError::UnknownNode(id))?;
        n.fail();
        Ok(())
    }

    /// Reports a node failure observed *outside* the failure injector — the
    /// hook real transports use when a worker process dies (heartbeat timeout
    /// or connection reset on its socket, `earl-net`).  The node is failed
    /// immediately and a [`FailureEvent`] stamped with the current simulated
    /// instant joins the injector's fired list, so the existing observability
    /// chain ([`Self::failure_events`] → job fault logs → `EarlReport`)
    /// records the death exactly like a scheduled one.  Reporting the same
    /// node twice is idempotent for the event list; the returned event is the
    /// one recorded (or previously recorded at the same instant).
    pub fn report_external_failure(&self, id: NodeId) -> Result<FailureEvent> {
        let event = FailureEvent {
            node: id,
            at: self.now(),
        };
        self.fail_node(id)?;
        self.inner.failures.lock().record_external(event);
        Ok(event)
    }

    /// Returns a node previously reported dead back to service — the hook
    /// real transports use when a dead worker redials, re-handshakes and is
    /// re-provisioned (`earl-net` worker rejoin).  The node is repaired in
    /// place (it comes back empty, exactly like [`Self::repair_node`]) and
    /// immediately rejoins [`Self::available_nodes`], so the next phase's
    /// planning picks it back up.  No fault-log entry is written: the *death*
    /// was the observable event, and recovery restores capacity without
    /// rewriting history.  Recovering a healthy node is a no-op.
    pub fn report_recovery(&self, id: NodeId) -> Result<()> {
        self.repair_node(id)
    }

    /// Repairs a failed node (it comes back empty).
    pub fn repair_node(&self, id: NodeId) -> Result<()> {
        let mut nodes = self.inner.nodes.write();
        let n = nodes
            .get_mut(id.index())
            .ok_or(ClusterError::UnknownNode(id))?;
        n.repair();
        Ok(())
    }

    /// Whether the failure injector can still fail nodes in the future.
    /// `false` means node availability is stable for the rest of the run.
    pub fn failure_injection_pending(&self) -> bool {
        self.inner.failures.lock().may_fail()
    }

    /// Nodes that have failed so far.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.inner
            .nodes
            .read()
            .iter()
            .filter(|n| n.state() == NodeState::Failed)
            .map(|n| n.id())
            .collect()
    }

    /// All failure events the injector has fired so far.
    pub fn failure_events(&self) -> Vec<FailureEvent> {
        self.inner.failures.lock().fired_events().to_vec()
    }

    /// Pauses implicit failure polling for the lifetime of the returned
    /// guard.  Parallel phases hold this while worker threads charge costs,
    /// so failures are never decided by execution interleaving; the phase
    /// then calls [`Self::arbitrate_failures_at`] at plan-derived instants.
    pub fn suppress_failure_polling(&self) -> FailurePollingPause {
        self.inner.poll_suppressed.fetch_add(1, Ordering::SeqCst);
        FailurePollingPause {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Polls the injector at an explicit instant `at` (which may run ahead of
    /// the charged clock), fails the returned nodes, and reports the events.
    /// Unlike the implicit polling in `charge_*`, this works even while a
    /// [`FailurePollingPause`] is held — it *is* the replacement for the
    /// suppressed polls.  The injector's poll window is monotonic, so calling
    /// this with non-decreasing instants partitions time deterministically.
    pub fn arbitrate_failures_at(&self, at: SimInstant) -> Vec<FailureEvent> {
        let available = self.available_nodes();
        if available.is_empty() {
            return Vec::new();
        }
        let fired = self.inner.failures.lock().poll(at, &available);
        if !fired.is_empty() {
            let mut nodes = self.inner.nodes.write();
            for ev in &fired {
                if let Some(n) = nodes.get_mut(ev.node.index()) {
                    n.fail();
                }
            }
        }
        fired
    }

    fn poll_failures(&self) {
        if self.inner.poll_suppressed.load(Ordering::SeqCst) > 0 {
            return;
        }
        // An injector that can never fire again (`may_fail` only ever goes
        // from true to false) makes the poll a no-op: skip the node snapshot.
        if !self.inner.failures.lock().may_fail() {
            return;
        }
        let now = self.inner.clock.now();
        let available = self.available_nodes();
        if available.is_empty() {
            return;
        }
        let newly_failed = self.inner.failures.lock().poll(now, &available);
        if newly_failed.is_empty() {
            return;
        }
        let mut nodes = self.inner.nodes.write();
        for ev in newly_failed {
            if let Some(n) = nodes.get_mut(ev.node.index()) {
                n.fail();
            }
        }
    }

    /// Resets the clock and metrics (node states and storage are preserved).
    /// Used between repetitions of an experiment on the same data.
    pub fn reset_accounting(&self) {
        self.inner.clock.reset();
        self.inner.metrics.reset();
    }
}

/// Builder for [`Cluster`].
#[derive(Debug)]
pub struct ClusterBuilder {
    num_nodes: u32,
    task_slots: u32,
    disk_capacity_bytes: u64,
    cost: CostModel,
    failure_schedule: FailureSchedule,
    seed: u64,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self {
            num_nodes: 5,
            task_slots: 2,
            disk_capacity_bytes: 320 * 1024 * 1024 * 1024, // paper: 320 GB-class disks
            cost: CostModel::commodity_2012(),
            failure_schedule: FailureSchedule::None,
            seed: 0xEA71,
        }
    }
}

impl ClusterBuilder {
    /// Sets the number of nodes.
    pub fn nodes(mut self, n: u32) -> Self {
        self.num_nodes = n;
        self
    }

    /// Sets the number of task slots per node.
    pub fn task_slots(mut self, slots: u32) -> Self {
        self.task_slots = slots;
        self
    }

    /// Sets the per-node disk capacity in bytes.
    pub fn disk_capacity_bytes(mut self, bytes: u64) -> Self {
        self.disk_capacity_bytes = bytes;
        self
    }

    /// Sets the cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the failure schedule.
    pub fn failure_schedule(mut self, schedule: FailureSchedule) -> Self {
        self.failure_schedule = schedule;
        self
    }

    /// Sets the seed for the cluster RNG (block placement, sampling decisions).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> Result<Cluster> {
        if self.num_nodes == 0 {
            return Err(ClusterError::InvalidConfig(
                "a cluster needs at least one node".into(),
            ));
        }
        let nodes = (0..self.num_nodes)
            .map(|i| Node::new(NodeId(i), self.task_slots, self.disk_capacity_bytes))
            .collect();
        Ok(Cluster {
            inner: Arc::new(ClusterInner {
                nodes: RwLock::new(nodes),
                clock: SimClock::new(),
                cost: self.cost,
                metrics: Metrics::new(),
                failures: parking_lot::Mutex::new(FailureInjector::new(self.failure_schedule)),
                rng: parking_lot::Mutex::new(StdRng::seed_from_u64(self.seed)),
                poll_suppressed: AtomicUsize::new(0),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureEvent;

    #[test]
    fn builder_rejects_empty_cluster() {
        assert!(matches!(
            Cluster::builder().nodes(0).build(),
            Err(ClusterError::InvalidConfig(_))
        ));
    }

    #[test]
    fn default_cluster_matches_paper_setup() {
        let c = Cluster::with_nodes(5);
        assert_eq!(c.num_nodes(), 5);
        assert_eq!(c.available_nodes().len(), 5);
    }

    #[test]
    fn charging_advances_clock_and_metrics() {
        let c = Cluster::with_nodes(2);
        let before = c.now();
        let cost = c.charge_disk_read(Phase::Load, 90 * 1024 * 1024);
        assert!(cost > SimDuration::ZERO);
        assert!(c.now() > before);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.phase(Phase::Load).disk_bytes_read, 90 * 1024 * 1024);
    }

    #[test]
    fn intra_node_transfer_is_free() {
        let c = Cluster::with_nodes(2);
        assert_eq!(
            c.charge_net_transfer(Phase::Shuffle, NodeId(0), NodeId(0), 1 << 20),
            SimDuration::ZERO
        );
        assert!(
            c.charge_net_transfer(Phase::Shuffle, NodeId(0), NodeId(1), 1 << 20)
                > SimDuration::ZERO
        );
    }

    #[test]
    fn parallel_charge_uses_makespan() {
        let c = Cluster::for_tests();
        let d = c.charge_parallel(
            Phase::Map,
            &[
                SimDuration::from_micros(5),
                SimDuration::from_micros(20),
                SimDuration::from_micros(1),
            ],
        );
        assert_eq!(d.as_micros(), 20);
        assert_eq!(c.elapsed().as_micros(), 20);
    }

    #[test]
    fn storage_accounting_and_least_loaded() {
        let c = Cluster::with_nodes(3);
        c.record_block_stored(NodeId(0), 100).unwrap();
        c.record_block_stored(NodeId(1), 50).unwrap();
        assert_eq!(c.least_loaded_node().unwrap(), NodeId(2));
    }

    #[test]
    fn failed_node_rejects_storage_and_tasks() {
        let c = Cluster::with_nodes(2);
        c.fail_node(NodeId(1)).unwrap();
        assert_eq!(c.available_nodes(), vec![NodeId(0)]);
        assert!(matches!(
            c.record_block_stored(NodeId(1), 10),
            Err(ClusterError::NodeUnavailable(_))
        ));
        assert!(matches!(
            c.record_task_on(NodeId(1)),
            Err(ClusterError::NodeUnavailable(_))
        ));
        c.repair_node(NodeId(1)).unwrap();
        assert_eq!(c.available_nodes().len(), 2);
    }

    #[test]
    fn reported_recovery_restores_service_but_keeps_the_death_on_record() {
        let c = Cluster::with_nodes(3);
        c.report_external_failure(NodeId(1)).unwrap();
        assert_eq!(c.available_nodes(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(c.failure_events().len(), 1);

        c.report_recovery(NodeId(1)).unwrap();
        assert_eq!(c.available_nodes().len(), 3, "the node is back in service");
        assert_eq!(
            c.failure_events().len(),
            1,
            "recovery must not rewrite the failure history"
        );
        // Recovering a healthy node is a no-op.
        c.report_recovery(NodeId(0)).unwrap();
        assert_eq!(c.available_nodes().len(), 3);
    }

    #[test]
    fn scheduled_failure_fires_as_time_is_charged() {
        let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
            node: NodeId(1),
            at: SimInstant::EPOCH + SimDuration::from_millis(500),
        }]);
        let c = Cluster::builder()
            .nodes(3)
            .failure_schedule(schedule)
            .build()
            .unwrap();
        // Charge enough disk time to pass 500ms.
        c.charge_disk_read(Phase::Load, 200 * 1024 * 1024);
        assert!(c.elapsed() > SimDuration::from_millis(500));
        assert_eq!(c.failed_nodes(), vec![NodeId(1)]);
    }

    #[test]
    fn suppressed_polling_defers_failures_to_explicit_arbitration() {
        let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
            node: NodeId(1),
            at: SimInstant::EPOCH + SimDuration::from_millis(500),
        }]);
        let c = Cluster::builder()
            .nodes(3)
            .failure_schedule(schedule)
            .build()
            .unwrap();
        {
            let _pause = c.suppress_failure_polling();
            c.charge_disk_read(Phase::Load, 200 * 1024 * 1024);
            assert!(c.elapsed() > SimDuration::from_millis(500));
            assert!(
                c.failed_nodes().is_empty(),
                "implicit polling is paused while the guard is held"
            );
        }
        let fired = c.arbitrate_failures_at(c.now());
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].node, NodeId(1));
        assert_eq!(c.failed_nodes(), vec![NodeId(1)]);
        assert_eq!(c.failure_events(), fired);
    }

    #[test]
    fn arbitration_may_run_ahead_of_the_charged_clock() {
        let schedule = FailureSchedule::Deterministic(vec![FailureEvent {
            node: NodeId(2),
            at: SimInstant::EPOCH + SimDuration::from_secs(10),
        }]);
        let c = Cluster::builder()
            .nodes(3)
            .failure_schedule(schedule)
            .build()
            .unwrap();
        // Arbitrating at an estimated boundary beyond the charged clock fires
        // the event; the later implicit poll at the (smaller) real clock must
        // not rewind the injector's window.
        let fired = c.arbitrate_failures_at(SimInstant::EPOCH + SimDuration::from_secs(11));
        assert_eq!(fired.len(), 1);
        c.charge_disk_read(Phase::Load, 1 << 20);
        assert_eq!(c.failed_nodes(), vec![NodeId(2)]);
        assert!(!c.failure_injection_pending());
    }

    #[test]
    fn unknown_node_errors() {
        let c = Cluster::with_nodes(1);
        assert!(matches!(
            c.node(NodeId(9)),
            Err(ClusterError::UnknownNode(_))
        ));
        assert!(matches!(
            c.fail_node(NodeId(9)),
            Err(ClusterError::UnknownNode(_))
        ));
    }

    #[test]
    fn random_helpers_are_bounded() {
        let c = Cluster::with_nodes(2);
        for _ in 0..100 {
            assert!(c.random_below(10) < 10);
        }
        assert_eq!(c.random_below(0), 0);
    }

    #[test]
    fn reset_accounting_clears_time_but_keeps_nodes() {
        let c = Cluster::with_nodes(2);
        c.record_block_stored(NodeId(0), 42).unwrap();
        c.charge_disk_read(Phase::Load, 1 << 20);
        c.reset_accounting();
        assert_eq!(c.elapsed(), SimDuration::ZERO);
        assert_eq!(c.metrics().snapshot().total_disk_bytes_read(), 0);
        assert_eq!(c.node(NodeId(0)).unwrap().stored_bytes(), 42);
    }

    #[test]
    fn no_available_nodes_error() {
        let c = Cluster::with_nodes(1);
        c.fail_node(NodeId(0)).unwrap();
        assert!(matches!(
            c.least_loaded_node(),
            Err(ClusterError::NoAvailableNodes)
        ));
    }
}
