//! Node-failure injection.
//!
//! §3.4 of the EARL paper argues that when an approximate answer is acceptable,
//! node failures need not trigger task restarts: the surviving sample still
//! yields a result with a quantified error.  To reproduce those experiments the
//! cluster supports two kinds of failure schedules:
//!
//! * **Deterministic** — "fail node 3 at t = 10 s" (used by integration tests
//!   so outcomes are exactly reproducible), and
//! * **Stochastic** — an annualised disk-failure rate in the spirit of the
//!   Schroeder & Gibson numbers cited by the paper (≈3 % of disks per year),
//!   driven by seeded per-node randomness.
//!
//! Determinism contract: every draw the stochastic arm makes is a pure
//! function of `(seed, node, window)` — there is no shared RNG stream, so the
//! outcome for a node does not depend on how many other nodes were polled
//! before it, nor on the order of `available_nodes`.  Combined with the
//! engine's policy of polling only at deterministic sim-instants, a schedule
//! produces the same failures at every thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::clock::{SimDuration, SimInstant};
use crate::node::NodeId;

/// A single scheduled failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// The node that fails.
    pub node: NodeId,
    /// The simulated instant at which it fails.
    pub at: SimInstant,
}

/// A failure schedule: either a fixed list of events or a stochastic rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FailureSchedule {
    /// No failures ever occur.
    None,
    /// The given events occur at their scheduled times.
    Deterministic(Vec<FailureEvent>),
    /// Each available node fails independently with probability
    /// `per_node_probability_per_sec` per simulated second.
    Stochastic {
        /// Per-node failure probability per simulated second.
        per_node_probability_per_sec: f64,
        /// RNG seed so runs are reproducible.
        seed: u64,
    },
}

/// What one job survived: the failure events that struck it, how it recovered,
/// and what the recovery cost.  Threaded through `JobStats`, the job counters,
/// and `EarlReport` so a degraded answer says *what* it survived.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultLog {
    /// Failure events observed while the job (or run) was executing.
    pub events: Vec<FailureEvent>,
    /// Task attempts re-planned onto surviving nodes (`Retry`, or the
    /// always-retried driver-memory/reduce tasks under `Degrade`).
    pub task_retries: u64,
    /// Input splits abandoned because their data was lost (`Degrade`, §3.4).
    pub splits_lost: u64,
    /// Records from tasks that had already completed when a failure struck and
    /// were kept instead of being re-computed.
    pub records_salvaged: u64,
    /// Total simulated back-off charged before retry rounds.
    pub backoff: SimDuration,
}

impl FaultLog {
    /// True when nothing failure-related happened.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.task_retries == 0
            && self.splits_lost == 0
            && self.records_salvaged == 0
            && self.backoff == SimDuration::ZERO
    }

    /// Records `events`, skipping any already present (arbitration and
    /// post-hoc sweeps can observe the same firing).
    pub fn record_events(&mut self, events: &[FailureEvent]) {
        for ev in events {
            if !self.events.contains(ev) {
                self.events.push(*ev);
            }
        }
    }

    /// Folds another log into this one (numeric fields add, events dedup).
    pub fn merge(&mut self, other: &FaultLog) {
        self.record_events(&other.events);
        self.task_retries += other.task_retries;
        self.splits_lost += other.splits_lost;
        self.records_salvaged += other.records_salvaged;
        self.backoff += other.backoff;
    }
}

/// Stateful injector that decides which nodes fail as simulated time advances.
#[derive(Debug)]
pub struct FailureInjector {
    schedule: FailureSchedule,
    last_checked: SimInstant,
    fired: Vec<FailureEvent>,
    /// Deterministic arm: `fired_index[i]` marks `events[i]` as consumed —
    /// O(1) dedup instead of rescanning `fired` per event.
    fired_index: Vec<bool>,
    fired_count: usize,
}

/// One independent draw keyed on `(seed, node, window)`: mixes the inputs
/// through splitmix64-style finalisers so nearby windows and node ids land in
/// unrelated RNG streams.
fn window_draw(seed: u64, node: NodeId, window_start: SimInstant, now: SimInstant) -> f64 {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let a = splitmix(seed ^ 0xEA12_0001);
    let b = splitmix(a ^ u64::from(node.0));
    let c = splitmix(b ^ window_start.duration_since(SimInstant::EPOCH).as_micros());
    let d = splitmix(c ^ now.duration_since(SimInstant::EPOCH).as_micros());
    StdRng::seed_from_u64(d).gen::<f64>()
}

impl FailureInjector {
    /// Creates an injector for the given schedule.
    pub fn new(schedule: FailureSchedule) -> Self {
        let fired_index = match &schedule {
            FailureSchedule::Deterministic(events) => vec![false; events.len()],
            _ => Vec::new(),
        };
        Self {
            schedule,
            last_checked: SimInstant::EPOCH,
            fired: Vec::new(),
            fired_index,
            fired_count: 0,
        }
    }

    /// Advances the injector to `now` and returns the events (among
    /// `available_nodes`) that fire in the interval `(last_checked, now]`.
    ///
    /// Polling is monotonic: a `now` at or before `last_checked` returns
    /// nothing and does **not** rewind the window, so arbitration at
    /// estimated task boundaries (which may run ahead of the charged clock)
    /// composes with later implicit polls without double-covering a window.
    /// Same-window events are delivered in `(timestamp, schedule-index)`
    /// order so multi-failure windows are reproducible.
    pub fn poll(&mut self, now: SimInstant, available_nodes: &[NodeId]) -> Vec<FailureEvent> {
        if now <= self.last_checked {
            return Vec::new();
        }
        let window_start = self.last_checked;
        self.last_checked = now;
        match &self.schedule {
            FailureSchedule::None => Vec::new(),
            FailureSchedule::Deterministic(events) => {
                let mut due: Vec<usize> = (0..events.len())
                    .filter(|&i| {
                        !self.fired_index[i] && events[i].at > window_start && events[i].at <= now
                    })
                    .collect();
                due.sort_by_key(|&i| (events[i].at, i));
                let mut failed = Vec::new();
                for i in due {
                    self.fired_index[i] = true;
                    self.fired_count += 1;
                    self.fired.push(events[i]);
                    if available_nodes.contains(&events[i].node) {
                        failed.push(events[i]);
                    }
                }
                failed
            }
            FailureSchedule::Stochastic {
                per_node_probability_per_sec,
                seed,
            } => {
                let window = now.duration_since(window_start);
                let secs = window.as_secs_f64();
                if secs <= 0.0 {
                    return Vec::new();
                }
                // P(survive window) = (1 - p)^secs; fail otherwise.  Each
                // node's draw is an independent function of (seed, node,
                // window) — see the module-level determinism contract.
                let p_window = 1.0 - (1.0 - per_node_probability_per_sec).powf(secs);
                let mut failed = Vec::new();
                let mut order: Vec<NodeId> = available_nodes.to_vec();
                order.sort_by_key(|n| n.0);
                for node in order {
                    if window_draw(*seed, node, window_start, now) < p_window {
                        let ev = FailureEvent { node, at: now };
                        failed.push(ev);
                        self.fired.push(ev);
                    }
                }
                failed
            }
        }
    }

    /// Whether this injector can still fail nodes in the future.  `false`
    /// guarantees no failure will ever fire again, so the engine may skip
    /// failure arbitration entirely.
    pub fn may_fail(&self) -> bool {
        match &self.schedule {
            FailureSchedule::None => false,
            FailureSchedule::Deterministic(events) => self.fired_count < events.len(),
            FailureSchedule::Stochastic {
                per_node_probability_per_sec,
                ..
            } => *per_node_probability_per_sec > 0.0,
        }
    }

    /// All failure events that have fired so far.
    pub fn fired_events(&self) -> &[FailureEvent] {
        &self.fired
    }

    /// Records a failure that was observed *outside* the schedule — e.g. a
    /// real remote worker process dying, detected by a heartbeat timeout on
    /// its connection (`earl-net`).  The event joins the fired list so every
    /// consumer of [`fired_events`](Self::fired_events) (job fault logs, the
    /// driver's end-of-run sweep) sees externally reported deaths exactly
    /// like scheduled ones.  The schedule itself is untouched: `may_fail`
    /// still answers for the *injector's* future only.
    pub fn record_external(&mut self, event: FailureEvent) {
        if !self.fired.contains(&event) {
            self.fired.push(event);
        }
    }

    /// The schedule driving this injector.
    pub fn schedule(&self) -> &FailureSchedule {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn failed_nodes(events: Vec<FailureEvent>) -> Vec<NodeId> {
        events.into_iter().map(|ev| ev.node).collect()
    }

    #[test]
    fn none_schedule_never_fails() {
        let mut inj = FailureInjector::new(FailureSchedule::None);
        let failed = inj.poll(SimInstant::EPOCH + SimDuration::from_secs(1_000), &nodes(5));
        assert!(failed.is_empty());
        assert!(inj.fired_events().is_empty());
    }

    #[test]
    fn deterministic_schedule_fires_once_in_window() {
        let ev = FailureEvent {
            node: NodeId(2),
            at: SimInstant::EPOCH + SimDuration::from_secs(10),
        };
        let mut inj = FailureInjector::new(FailureSchedule::Deterministic(vec![ev]));
        // before the event: nothing
        assert!(inj
            .poll(SimInstant::EPOCH + SimDuration::from_secs(5), &nodes(5))
            .is_empty());
        // window containing the event: node 2 fails
        let failed = inj.poll(SimInstant::EPOCH + SimDuration::from_secs(15), &nodes(5));
        assert_eq!(failed_nodes(failed), vec![NodeId(2)]);
        // later polls do not re-fire
        assert!(inj
            .poll(SimInstant::EPOCH + SimDuration::from_secs(30), &nodes(5))
            .is_empty());
        assert_eq!(inj.fired_events().len(), 1);
        assert!(!inj.may_fail());
    }

    #[test]
    fn deterministic_event_on_unavailable_node_is_consumed_silently() {
        let ev = FailureEvent {
            node: NodeId(9),
            at: SimInstant::EPOCH + SimDuration::from_secs(1),
        };
        let mut inj = FailureInjector::new(FailureSchedule::Deterministic(vec![ev]));
        let failed = inj.poll(SimInstant::EPOCH + SimDuration::from_secs(2), &nodes(3));
        assert!(failed.is_empty());
        assert_eq!(
            inj.fired_events().len(),
            1,
            "event is consumed even if node already gone"
        );
    }

    #[test]
    fn same_window_events_are_delivered_in_timestamp_order() {
        // Scheduled out of order; a single poll covering both must deliver
        // them sorted by (timestamp, index).
        let early = FailureEvent {
            node: NodeId(1),
            at: SimInstant::EPOCH + SimDuration::from_secs(3),
        };
        let late = FailureEvent {
            node: NodeId(2),
            at: SimInstant::EPOCH + SimDuration::from_secs(7),
        };
        let mut inj = FailureInjector::new(FailureSchedule::Deterministic(vec![late, early]));
        let failed = inj.poll(SimInstant::EPOCH + SimDuration::from_secs(10), &nodes(5));
        assert_eq!(failed, vec![early, late]);
        assert_eq!(inj.fired_events(), &[early, late]);
    }

    #[test]
    fn polling_backwards_is_a_no_op() {
        let ev = FailureEvent {
            node: NodeId(0),
            at: SimInstant::EPOCH + SimDuration::from_secs(8),
        };
        let mut inj = FailureInjector::new(FailureSchedule::Deterministic(vec![ev]));
        // Arbitration runs ahead of the charged clock…
        assert!(inj
            .poll(SimInstant::EPOCH + SimDuration::from_secs(5), &nodes(3))
            .is_empty());
        // …then an implicit poll at an earlier instant must not rewind the
        // window (which would re-cover (0, 5] and change outcomes).
        assert!(inj
            .poll(SimInstant::EPOCH + SimDuration::from_secs(2), &nodes(3))
            .is_empty());
        let failed = inj.poll(SimInstant::EPOCH + SimDuration::from_secs(9), &nodes(3));
        assert_eq!(failed_nodes(failed), vec![NodeId(0)]);
    }

    #[test]
    fn stochastic_high_rate_fails_quickly_and_is_deterministic_per_seed() {
        let schedule = FailureSchedule::Stochastic {
            per_node_probability_per_sec: 0.5,
            seed: 7,
        };
        let mut a = FailureInjector::new(schedule.clone());
        let mut b = FailureInjector::new(schedule);
        let t = SimInstant::EPOCH + SimDuration::from_secs(10);
        let fa = a.poll(t, &nodes(20));
        let fb = b.poll(t, &nodes(20));
        assert_eq!(fa, fb, "same seed must produce the same failures");
        assert!(
            !fa.is_empty(),
            "with p=0.5/s over 10s nearly every node should fail"
        );
    }

    #[test]
    fn stochastic_draws_do_not_depend_on_the_node_set_or_its_order() {
        // The same (seed, node, window) must produce the same outcome whether
        // the node is polled alone, among others, or in a different order —
        // the satellite fix for the shared-RNG-stream order dependence.
        let schedule = FailureSchedule::Stochastic {
            per_node_probability_per_sec: 0.2,
            seed: 42,
        };
        let t = SimInstant::EPOCH + SimDuration::from_secs(5);
        let all = FailureInjector::new(schedule.clone()).poll(t, &nodes(12));
        let reversed = {
            let mut order: Vec<NodeId> = nodes(12);
            order.reverse();
            FailureInjector::new(schedule.clone()).poll(t, &order)
        };
        assert_eq!(all, reversed, "iteration order must not matter");
        for node in nodes(12) {
            let solo = FailureInjector::new(schedule.clone()).poll(t, &[node]);
            let in_all = all.iter().any(|ev| ev.node == node);
            assert_eq!(
                !solo.is_empty(),
                in_all,
                "node {node:?} outcome must not depend on which other nodes were polled"
            );
        }
    }

    #[test]
    fn stochastic_zero_window_fails_nothing() {
        let mut inj = FailureInjector::new(FailureSchedule::Stochastic {
            per_node_probability_per_sec: 1.0,
            seed: 1,
        });
        assert!(inj.poll(SimInstant::EPOCH, &nodes(5)).is_empty());
    }

    #[test]
    fn fault_log_merges_and_dedups_events() {
        let ev = FailureEvent {
            node: NodeId(1),
            at: SimInstant::EPOCH + SimDuration::from_secs(1),
        };
        let mut a = FaultLog::default();
        assert!(a.is_empty());
        a.record_events(&[ev]);
        a.task_retries = 2;
        let mut b = FaultLog {
            events: vec![ev],
            splits_lost: 3,
            backoff: SimDuration::from_millis(10),
            ..FaultLog::default()
        };
        b.merge(&a);
        assert_eq!(b.events, vec![ev], "duplicate events collapse");
        assert_eq!(b.task_retries, 2);
        assert_eq!(b.splits_lost, 3);
        assert_eq!(b.backoff, SimDuration::from_millis(10));
        assert!(!b.is_empty());
    }
}
