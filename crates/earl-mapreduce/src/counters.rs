//! Job counters, mirroring Hadoop's named counters.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Well-known counter names used by the engine itself.
pub mod builtin {
    /// Records consumed by mappers.
    pub const MAP_INPUT_RECORDS: &str = "map.input.records";
    /// Records emitted by mappers.
    pub const MAP_OUTPUT_RECORDS: &str = "map.output.records";
    /// Distinct keys seen by reducers.
    pub const REDUCE_INPUT_GROUPS: &str = "reduce.input.groups";
    /// Records consumed by reducers.
    pub const REDUCE_INPUT_RECORDS: &str = "reduce.input.records";
    /// Records emitted by reducers.
    pub const REDUCE_OUTPUT_RECORDS: &str = "reduce.output.records";
    /// Input splits whose output was lost to node failures (degrade policy).
    pub const LOST_SPLITS: &str = "job.lost.splits";
    /// Tasks restarted after node failures (retry policy).
    pub const RESTARTED_TASKS: &str = "job.restarted.tasks";
    /// Failure events that struck the cluster while the job ran.
    pub const FAILURE_EVENTS: &str = "job.failure.events";
    /// Records from completed tasks kept (not re-computed) after a failure.
    pub const SALVAGED_RECORDS: &str = "job.salvaged.records";
    /// Simulated microseconds of retry back-off charged to the job.
    pub const BACKOFF_MICROS: &str = "job.backoff.micros";
    /// Intermediate records routed through the sharded streaming shuffle —
    /// positive whenever the map phase produced output, proving the gather
    /// path was not taken.
    pub const SHARDED_SHUFFLE_RECORDS: &str = "shuffle.sharded.records";
}

/// A set of named monotonically increasing counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    values: BTreeMap<String, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `name` by `delta`.  The name is copied only the first time
    /// it is counted.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.values.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                self.values.insert(name.to_owned(), delta);
            }
        }
    }

    /// Increments `name` by one.
    pub fn increment(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (0 if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (name, value) in &other.values {
            self.add(name, *value);
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.values {
            writeln!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_increment() {
        let mut c = Counters::new();
        assert!(c.is_empty());
        assert_eq!(c.get("x"), 0);
        c.add("x", 5);
        c.increment("x");
        c.increment("y");
        assert_eq!(c.get("x"), 6);
        assert_eq!(c.get("y"), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn merge_sums_by_name() {
        let mut a = Counters::new();
        a.add("shared", 2);
        a.add("only_a", 1);
        let mut b = Counters::new();
        b.add("shared", 3);
        b.add("only_b", 7);
        a.merge(&b);
        assert_eq!(a.get("shared"), 5);
        assert_eq!(a.get("only_a"), 1);
        assert_eq!(a.get("only_b"), 7);
    }

    #[test]
    fn display_lists_counters() {
        let mut c = Counters::new();
        c.add("a", 1);
        c.add("b", 2);
        let s = c.to_string();
        assert!(s.contains("a=1"));
        assert!(s.contains("b=2"));
    }

    #[test]
    fn iter_is_ordered() {
        let mut c = Counters::new();
        c.add("z", 1);
        c.add("a", 1);
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
