//! The mapper↔reducer feedback channel.
//!
//! In EARL's modified Hadoop, "every reducer writes its computed error together
//! with a time-stamp onto HDFS.  These files are then read by the mappers to
//! compute the overall average error" (§3.3), which drives the decision to
//! expand the sample or terminate.  The reproduction models that shared medium
//! with an in-memory channel: reducers post [`ErrorReport`]s, and the EARL
//! driver, standing in for the mappers, reads the latest one.

use crossbeam::queue::SegQueue;
use earl_cluster::SimInstant;
use parking_lot::Mutex;

/// One error observation posted by a reducer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorReport {
    /// Reducer partition that produced the estimate.
    pub reducer: usize,
    /// The estimated error (coefficient of variation).
    pub error: f64,
    /// Simulated time at which the estimate was produced.
    pub timestamp: SimInstant,
}

/// Shared feedback medium between reducers and mappers.
#[derive(Debug, Default)]
pub struct ErrorFeedback {
    queue: SegQueue<ErrorReport>,
    history: Mutex<Vec<ErrorReport>>,
}

impl ErrorFeedback {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts an error estimate (called by reducers / the AES stage).
    pub fn post(&self, report: ErrorReport) {
        self.queue.push(report);
    }

    /// Latest report per reducer, if any.
    pub fn latest(&self) -> Option<ErrorReport> {
        let mut history = self.history.lock();
        while let Some(report) = self.queue.pop() {
            history.push(report);
        }
        history.last().copied()
    }

    /// Total number of reports received.
    pub fn len(&self) -> usize {
        let mut history = self.history.lock();
        while let Some(report) = self.queue.pop() {
            history.push(report);
        }
        history.len()
    }

    /// Whether no report has been received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earl_cluster::SimDuration;

    fn at(ms: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_millis(ms)
    }

    #[test]
    fn empty_channel_has_no_latest_report() {
        let fb = ErrorFeedback::new();
        assert!(fb.is_empty());
        assert!(fb.latest().is_none());
    }

    #[test]
    fn latest_is_the_last_report_posted() {
        let fb = ErrorFeedback::new();
        fb.post(ErrorReport {
            reducer: 0,
            error: 0.10,
            timestamp: at(10),
        });
        fb.post(ErrorReport {
            reducer: 1,
            error: 0.20,
            timestamp: at(20),
        });
        fb.post(ErrorReport {
            reducer: 0,
            error: 0.30,
            timestamp: at(30),
        });
        assert_eq!(fb.len(), 3);
        assert_eq!(fb.latest().unwrap().error, 0.30);
    }

    #[test]
    fn reports_survive_concurrent_posting() {
        use std::sync::Arc;
        let fb = Arc::new(ErrorFeedback::new());
        let handles: Vec<_> = (0..4)
            .map(|r| {
                let fb = Arc::clone(&fb);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        fb.post(ErrorReport {
                            reducer: r,
                            error: i as f64,
                            timestamp: at(i + 1),
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fb.len(), 400);
    }
}
