//! Workspace-local stand-in for `crossbeam` (crates.io is unreachable in
//! this build environment). It provides the one crossbeam API the
//! workspace uses: [`deque`], the work-stealing deque triple
//! ([`deque::Worker`] / [`deque::Stealer`] / [`deque::Injector`])
//! that backs the `rayon` shim's scheduler. The upstream crate is a
//! lock-free Chase-Lev deque; this stand-in keeps the exact same API
//! and stealing semantics (owner pops LIFO, thieves steal FIFO from
//! the opposite end) over a mutex-protected ring, which is plenty for
//! the coarse-grained tasks the workspace schedules (whole simulation
//! cells, not micro-tasks).

/// Work-stealing deques (the `crossbeam-deque` subset).
///
/// A [`deque::Worker`] is a queue owned by one scheduler thread: the
/// owner pushes and pops at one end, while any number of
/// [`deque::Stealer`] handles take elements from the other end. A
/// [`deque::Injector`] is a shared FIFO every thread may push to and
/// steal from — the "global queue" of a work-stealing scheduler. All
/// three return [`deque::Steal`] from their stealing operations,
/// mirroring the upstream's retry-able result.
pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The result of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty at the time of the attempt.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The attempt lost a race and should be retried.
        ///
        /// The mutex-backed shim never loses races, so this variant is
        /// never produced here — it exists so callers written against
        /// the upstream's three-way result compile unchanged.
        Retry,
    }

    impl<T> Steal<T> {
        /// The stolen task, if the attempt succeeded.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(task) => Some(task),
                Steal::Empty | Steal::Retry => None,
            }
        }

        /// True when the queue was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }

        /// True when a task was stolen.
        pub fn is_success(&self) -> bool {
            matches!(self, Steal::Success(_))
        }

        /// True when the attempt should be retried.
        pub fn is_retry(&self) -> bool {
            matches!(self, Steal::Retry)
        }
    }

    /// Which end [`Worker::pop`] takes from.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Flavor {
        /// Owner pops the most recently pushed task (depth-first).
        Lifo,
        /// Owner pops the oldest task (breadth-first).
        Fifo,
    }

    fn lock<T>(queue: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
        // A panicking task poisons the mutex; the queue itself is still
        // consistent (guards cover single push/pop calls), so recover.
        queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A queue owned by one scheduler thread (see the module docs).
    #[derive(Debug)]
    pub struct Worker<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
        flavor: Flavor,
    }

    impl<T> Worker<T> {
        /// Creates a LIFO worker: `pop` returns the most recent push.
        pub fn new_lifo() -> Self {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
                flavor: Flavor::Lifo,
            }
        }

        /// Creates a FIFO worker: `pop` returns the oldest push.
        pub fn new_fifo() -> Self {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
                flavor: Flavor::Fifo,
            }
        }

        /// Pushes a task onto the owner's end.
        pub fn push(&self, task: T) {
            lock(&self.queue).push_back(task);
        }

        /// Pops a task from the owner's end.
        pub fn pop(&self) -> Option<T> {
            let mut queue = lock(&self.queue);
            match self.flavor {
                Flavor::Lifo => queue.pop_back(),
                Flavor::Fifo => queue.pop_front(),
            }
        }

        /// True when the deque holds no tasks.
        pub fn is_empty(&self) -> bool {
            lock(&self.queue).is_empty()
        }

        /// Number of queued tasks.
        pub fn len(&self) -> usize {
            lock(&self.queue).len()
        }

        /// Creates a stealer handle taking from the opposite end.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    /// A cloneable handle stealing from a [`Worker`]'s opposite end.
    #[derive(Debug)]
    pub struct Stealer<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    impl<T> Stealer<T> {
        /// Steals the task at the thief end (the oldest push).
        pub fn steal(&self) -> Steal<T> {
            match lock(&self.queue).pop_front() {
                Some(task) => Steal::Success(task),
                None => Steal::Empty,
            }
        }

        /// True when the deque holds no tasks.
        pub fn is_empty(&self) -> bool {
            lock(&self.queue).is_empty()
        }

        /// Number of queued tasks.
        pub fn len(&self) -> usize {
            lock(&self.queue).len()
        }
    }

    /// A shared FIFO injection queue (the scheduler's global queue).
    #[derive(Debug)]
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Self {
            Injector {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        /// Pushes a task onto the back of the queue.
        pub fn push(&self, task: T) {
            lock(&self.queue).push_back(task);
        }

        /// Steals the oldest task.
        pub fn steal(&self) -> Steal<T> {
            match lock(&self.queue).pop_front() {
                Some(task) => Steal::Success(task),
                None => Steal::Empty,
            }
        }

        /// Steals a batch of tasks into `dest`, returning the first.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut queue = lock(&self.queue);
            let Some(first) = queue.pop_front() else {
                return Steal::Empty;
            };
            // Upstream moves up to half the queue; one extra task per
            // steal is enough amortization for coarse-grained cells.
            if let Some(extra) = queue.pop_front() {
                drop(queue);
                dest.push(extra);
            }
            Steal::Success(first)
        }

        /// True when the queue holds no tasks.
        pub fn is_empty(&self) -> bool {
            lock(&self.queue).is_empty()
        }

        /// Number of queued tasks.
        pub fn len(&self) -> usize {
            lock(&self.queue).len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Steal, Worker};

    #[test]
    fn worker_pops_lifo_stealer_steals_fifo() {
        let worker: Worker<u32> = Worker::new_lifo();
        let stealer = worker.stealer();
        worker.push(1);
        worker.push(2);
        worker.push(3);
        assert_eq!(worker.len(), 3);
        // Owner takes the most recent push; the thief the oldest.
        assert_eq!(worker.pop(), Some(3));
        assert_eq!(stealer.steal(), Steal::Success(1));
        assert_eq!(worker.pop(), Some(2));
        assert!(stealer.steal().is_empty());
        assert!(worker.is_empty());
    }

    #[test]
    fn fifo_worker_pops_in_push_order() {
        let worker: Worker<u32> = Worker::new_fifo();
        worker.push(1);
        worker.push(2);
        assert_eq!(worker.pop(), Some(1));
        assert_eq!(worker.pop(), Some(2));
        assert_eq!(worker.pop(), None);
    }

    #[test]
    fn injector_feeds_workers_across_threads() {
        let injector: Injector<usize> = Injector::new();
        for task in 0..64 {
            injector.push(task);
        }
        let seen: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let local: Worker<usize> = Worker::new_lifo();
                        let mut got = Vec::new();
                        loop {
                            let task = local
                                .pop()
                                .or_else(|| injector.steal_batch_and_pop(&local).success());
                            match task {
                                Some(t) => got.push(t),
                                None => break,
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = seen.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
        assert!(injector.is_empty());
        assert_eq!(injector.len(), 0);
    }
}
