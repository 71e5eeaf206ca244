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

/// One logical OS thread shared by many tasks. Its busy time accumulates
/// into a counter its pool shares (the broker's `net_busy_ns`).
pub struct ServiceQueue {
    busy_until: Cell<u64>,
    wakeup: Duration,
    busy_total: kdtelem::Counter,
}

impl ServiceQueue {
    /// Occupies the thread for `cost`, waiting behind earlier work. If the
    /// thread was idle, the wakeup latency is paid first (but does not count
    /// as busy time).
    pub async fn run(&self, cost: Duration) {
        sim::time::sleep_until(self.reserve(cost)).await;
    }

    /// Books the thread for `cost` exactly as [`run`](Self::run) does and
    /// returns the instant the work ends, for a caller whose next step
    /// starts there and can take that instant in its own timer.
    pub fn reserve(&self, cost: Duration) -> SimTime {
        let now = sim::now().as_nanos();
        let busy = self.busy_until.get();
        let start = if busy <= now {
            now + self.wakeup.as_nanos() as u64
        } else {
            busy
        };
        let end = start + cost.as_nanos() as u64;
        self.busy_until.set(end);
        self.busy_total.add(cost.as_nanos() as u64);
        SimTime::from_nanos(end)
    }
}

/// A pool of [`ServiceQueue`]s with round-robin assignment (how connections
/// are spread over Kafka's network threads).
pub struct ServicePool {
    threads: Vec<ServiceQueue>,
    next: Cell<usize>,
}

impl ServicePool {
    /// `n` threads whose busy time accumulates into `total`.
    pub fn with_counter(n: usize, wakeup: Duration, total: kdtelem::Counter) -> Self {
        assert!(n > 0);
        ServicePool {
            threads: (0..n)
                .map(|_| ServiceQueue {
                    busy_until: Cell::new(0),
                    wakeup,
                    busy_total: total.clone(),
                })
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool of one thread with a 10 µs wake-up, and its busy counter.
    fn one_thread() -> (ServicePool, kdtelem::Counter) {
        let busy = kdtelem::Counter::new();
        (
            ServicePool::with_counter(1, Duration::from_micros(10), busy.clone()),
            busy,
        )
    }

    #[test]
    fn idle_thread_pays_wakeup() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (pool, busy) = one_thread();
            let t0 = sim::now();
            pool.thread(0).run(Duration::from_micros(5)).await;
            assert_eq!((sim::now() - t0).as_nanos(), 15_000);
            assert_eq!(busy.get(), 5_000);
        });
    }

    #[test]
    fn busy_thread_queues_without_wakeup() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (pool, busy) = one_thread();
            let pool = std::rc::Rc::new(pool);
            let p2 = std::rc::Rc::clone(&pool);
            let a = sim::spawn(async move { p2.thread(0).run(Duration::from_micros(5)).await });
            let p3 = std::rc::Rc::clone(&pool);
            let b = sim::spawn(async move { p3.thread(0).run(Duration::from_micros(5)).await });
            a.await.unwrap();
            b.await.unwrap();
            // wakeup(10) + 5 + 5 serialised: done at t=20us.
            assert_eq!(sim::now().as_nanos(), 20_000);
            assert_eq!(busy.get(), 10_000);
        });
    }

    #[test]
    fn pool_round_robin() {
        let p = ServicePool::with_counter(3, Duration::ZERO, kdtelem::Counter::new());
        assert_eq!(
            (0..7).map(|_| p.assign()).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2, 0]
        );
    }
}
