//! Minimal stand-in for the slice of `crossbeam` this workspace uses.

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An unbounded MPMC FIFO queue with the `crossbeam::queue::SegQueue` API.
    ///
    /// Backed by a mutexed `VecDeque`.  No workspace code calls it; the
    /// dependency stays declared until both lockfiles are regenerated.
    #[derive(Debug)]
    pub struct SegQueue<T> {
        inner: Mutex<VecDeque<T>>,
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> SegQueue<T> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            Self {
                inner: Mutex::new(VecDeque::new()),
            }
        }

        /// Appends `value` to the back of the queue.
        pub fn push(&self, value: T) {
            self.inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(value);
        }

        /// Pops the front element, if any.
        pub fn pop(&self) -> Option<T> {
            self.inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
        }

        /// Number of queued elements.
        pub fn len(&self) -> usize {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_order() {
            let q = SegQueue::new();
            q.push(1);
            q.push(2);
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop(), Some(1));
            assert_eq!(q.pop(), Some(2));
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        }
    }
}
