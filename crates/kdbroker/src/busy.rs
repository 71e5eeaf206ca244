//! Thread-occupancy modelling.
//!
//! The simulation runs every logical thread as a task, so "a thread is busy"
//! must be modelled explicitly. [`ServiceQueue`] represents one OS thread
//! multiplexing many event sources (a Kafka network processor thread
//! serving its connections): requests queue FIFO behind one another, and a
//! request that finds the thread idle pays the blocking-poll wakeup latency
//! the paper measures (§5.1: "thread invocations due to blocking polling").

use std::cell::Cell;
use std::time::Duration;

use sim::SimTime;

/// One logical OS thread shared by many tasks. Busy time is accumulated both
/// locally (per-thread accounting) and into a shared [`kdtelem::Counter`]
/// (e.g. the broker's `net_busy_ns`).
pub struct ServiceQueue {
    busy_until: Cell<u64>,
    wakeup: Duration,
    busy_ns: Cell<u64>,
    busy_total: kdtelem::Counter,
}

impl ServiceQueue {
    pub fn new(wakeup: Duration) -> Self {
        ServiceQueue::with_counter(wakeup, kdtelem::Counter::new())
    }

    /// As [`new`](Self::new), but busy time also accumulates into `total`
    /// (shared across the threads of a pool).
    pub fn with_counter(wakeup: Duration, total: kdtelem::Counter) -> Self {
        ServiceQueue {
            busy_until: Cell::new(0),
            wakeup,
            busy_ns: Cell::new(0),
            busy_total: total,
        }
    }

    /// Occupies the thread for `cost`, waiting behind earlier work. If the
    /// thread was idle, the wakeup latency is paid first (but does not count
    /// as busy time).
    pub async fn run(&self, cost: Duration) {
        let now = sim::now().as_nanos();
        let busy = self.busy_until.get();
        let start = if busy <= now {
            now + self.wakeup.as_nanos() as u64
        } else {
            busy
        };
        let end = start + cost.as_nanos() as u64;
        self.busy_until.set(end);
        self.busy_ns.set(self.busy_ns.get() + cost.as_nanos() as u64);
        self.busy_total.add(cost.as_nanos() as u64);
        sim::time::sleep_until(SimTime::from_nanos(end)).await;
    }

    /// Total virtual time this thread spent doing work (CPU-load metric).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }
}

/// A pool of [`ServiceQueue`]s with round-robin assignment (how connections
/// are spread over Kafka's network threads).
pub struct ServicePool {
    threads: Vec<ServiceQueue>,
    next: Cell<usize>,
}

impl ServicePool {
    pub fn new(n: usize, wakeup: Duration) -> Self {
        ServicePool::with_counter(n, wakeup, kdtelem::Counter::new())
    }

    /// As [`new`](Self::new), but every thread's busy time also accumulates
    /// into `total` (e.g. the broker's `net_busy_ns` metric).
    pub fn with_counter(n: usize, wakeup: Duration, total: kdtelem::Counter) -> Self {
        assert!(n > 0);
        ServicePool {
            threads: (0..n)
                .map(|_| ServiceQueue::with_counter(wakeup, total.clone()))
                .collect(),
            next: Cell::new(0),
        }
    }

    /// Assigns the next thread index round-robin.
    pub fn assign(&self) -> usize {
        let i = self.next.get();
        self.next.set((i + 1) % self.threads.len());
        i
    }

    pub fn thread(&self, i: usize) -> &ServiceQueue {
        &self.threads[i]
    }

    pub fn busy_ns(&self) -> u64 {
        self.threads.iter().map(ServiceQueue::busy_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_thread_pays_wakeup() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let q = ServiceQueue::new(Duration::from_micros(10));
            let t0 = sim::now();
            q.run(Duration::from_micros(5)).await;
            assert_eq!((sim::now() - t0).as_nanos(), 15_000);
            assert_eq!(q.busy_ns(), 5_000);
        });
    }

    #[test]
    fn busy_thread_queues_without_wakeup() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let q = std::rc::Rc::new(ServiceQueue::new(Duration::from_micros(10)));
            let q2 = std::rc::Rc::clone(&q);
            let a = sim::spawn(async move { q2.run(Duration::from_micros(5)).await });
            let q3 = std::rc::Rc::clone(&q);
            let b = sim::spawn(async move { q3.run(Duration::from_micros(5)).await });
            a.await.unwrap();
            b.await.unwrap();
            // wakeup(10) + 5 + 5 serialised: done at t=20us.
            assert_eq!(sim::now().as_nanos(), 20_000);
            assert_eq!(q.busy_ns(), 10_000);
        });
    }

    #[test]
    fn pool_round_robin() {
        let p = ServicePool::new(3, Duration::ZERO);
        assert_eq!(
            (0..7).map(|_| p.assign()).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2, 0]
        );
    }
}
