//! A due-time queue drained by a pool of workers that take time to wake.
//!
//! Models Kafka's shared request queue (paper Fig 2 ➊➋➌): network
//! processors and RDMA pollers [`push`](HandoffQueue::push) an item that
//! becomes visible at its due instant (the queue transfer), the API workers
//! loop on [`recv`](HandoffQueue::recv). A worker that comes back from its
//! previous item takes the earliest *visible* item at once; one that was
//! parked starts `wakeup` after its item became visible (the blocking-poll
//! wake-up of §5.1), the longest-parked worker first.
//!
//! Due times do not decrease from one push to the next, so the k-th item
//! meets the k-th parked worker whatever happens in between. The queue
//! matches them eagerly — at push time if a worker is parked, at park time
//! if an item is already on its way — and registers the worker's timer for
//! `due + wakeup` right then: a hand-over costs that one executor event,
//! none at `due` and none to put the worker to sleep.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::mem::take;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use super::WaitList;
use crate::time::{now, try_now, wake_at, SimTime};

struct State<T> {
    /// Items nobody has claimed, in due order.
    items: VecDeque<(SimTime, T)>,
    /// Parked workers, each with the item it starts on and when, once it is
    /// promised one (its timer is registered then).
    parked: WaitList<Option<(SimTime, T)>>,
    wakeup: Duration,
    closed: bool,
}

impl<T> State<T> {
    /// Promises `item` to the longest-parked worker without one, arming its
    /// timer; queues it if there is none.
    fn offer(&mut self, due: SimTime, item: T) {
        match self.parked.arm(Option::is_none) {
            Some((waker, promise)) => {
                let start = due.max(now()) + self.wakeup;
                wake_at(start, waker);
                *promise = Some((start, item));
            }
            None => {
                let at = self.items.partition_point(|e| e.0 <= due);
                self.items.insert(at, (due, item));
            }
        }
    }
}

/// See the [module docs](self).
pub struct HandoffQueue<T> {
    state: RefCell<State<T>>,
}

impl<T> HandoffQueue<T> {
    /// A queue whose parked workers take `wakeup` to start on an item.
    pub fn new(wakeup: Duration) -> Self {
        let state = RefCell::new(State {
            items: VecDeque::new(),
            parked: WaitList::default(),
            wakeup,
            closed: false,
        });
        HandoffQueue { state }
    }

    /// Queues `item`, visible to the workers from `due` (now, if that is
    /// past). Dropped if the queue is closed.
    pub fn push(&self, due: SimTime, item: T) {
        let mut s = self.state.borrow_mut();
        debug_assert!(s.items.back().is_none_or(|e| e.0 <= due), "due order");
        if !s.closed {
            s.offer(due, item);
        }
    }

    /// Waits for this worker's next item; `None` once the queue is closed.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv {
            queue: self,
            ticket: None,
        }
    }

    /// Ends the pool: drops every item, promised or not, ignores later
    /// pushes and makes `recv()` return `None`, waking the parked workers.
    pub fn close(&self) {
        let mut s = self.state.borrow_mut();
        s.closed = true;
        let (items, mut parked) = (take(&mut s.items), take(&mut s.parked));
        // Item destructors and the wakes run without the queue borrowed.
        drop(s);
        drop(items);
        parked.wake_all();
    }

    /// No item, visible or not, is waiting for a worker to start on it.
    pub fn is_empty(&self) -> bool {
        let s = self.state.borrow();
        s.items.is_empty() && s.parked.iter().all(Option::is_none)
    }
}

/// Future returned by [`HandoffQueue::recv`].
pub struct Recv<'a, T> {
    queue: &'a HandoffQueue<T>,
    /// Identifies this worker among the parked ones while it is.
    ticket: Option<u64>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let queue = self.queue;
        let mut s = queue.state.borrow_mut();
        if s.closed {
            return Poll::Ready(None);
        }
        let now = now();
        if let Some(ticket) = self.ticket {
            // Parked: only a promise whose wake-up has elapsed ends the wait.
            let promise = s.parked.repark(ticket, cx.waker()).and_then(|p| p.as_ref());
            if promise.is_none_or(|p| p.0 > now) {
                return Poll::Pending;
            }
            self.ticket = None;
            return Poll::Ready(s.parked.remove(ticket).flatten().map(|p| p.1));
        }
        if s.items.front().is_some_and(|e| e.0 <= now) {
            // Came back busy to a visible item: no wake-up to pay.
            return Poll::Ready(s.items.pop_front().map(|e| e.1));
        }
        // Nothing visible: park — already promised the earliest item in
        // transfer, if there is one (then nobody else is parked idle).
        self.ticket = Some(s.parked.park(cx.waker(), None));
        if let Some((due, item)) = s.items.pop_front() {
            s.offer(due, item);
        }
        Poll::Pending
    }
}

impl<T> Drop for Recv<'_, T> {
    /// A worker that gives up waiting leaves the pool; an item promised to
    /// it goes to the next worker, `wakeup` after that worker gets it
    /// (nowhere if the runtime itself is being torn down).
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        let mut s = self.queue.state.borrow_mut();
        let promise = s.parked.remove(ticket).flatten();
        if let Some((start, item)) = promise.filter(|_| try_now().is_some()) {
            let due = start - s.wakeup;
            s.offer(due, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::sync::{DueQueue, Semaphore};
    use crate::time::{sleep, sleep_until};
    use crate::Runtime;
    use std::cell::Cell;
    use std::rc::Rc;

    const TRANSFER: Duration = Duration::from_micros(11);
    const WAKEUP: Duration = Duration::from_micros(10);

    /// Item `i` of a schedule is pushed at `at` ns and occupies the worker
    /// that takes it for `work` ns.
    #[derive(Clone, Copy, Debug)]
    struct Push {
        at: u64,
        work: u64,
    }

    /// `(worker, item, start instant in ns)`, in start order.
    type Starts = Vec<(usize, usize, u64)>;

    /// What the two stacks under comparison offer a driver.
    trait Stack: 'static {
        fn push(&self, item: usize);
        fn close(&self);
        /// One worker's next item, with every cost of getting it paid.
        async fn next(&self) -> Option<usize>;
    }

    impl Stack for HandoffQueue<usize> {
        fn push(&self, item: usize) {
            HandoffQueue::push(self, now() + TRANSFER, item);
        }
        fn close(&self) {
            HandoffQueue::close(self);
        }
        async fn next(&self) -> Option<usize> {
            self.recv().await
        }
    }

    /// The three pieces this queue replaced, as the broker had them: a
    /// `DueQueue` whose stage task moved items at their due instant into a
    /// FIFO guarded by a FIFO-fair permit semaphore, and workers that slept
    /// the wake-up whenever they had to wait for a permit.
    struct Reference {
        stage: Rc<DueQueue<usize>>,
        fifo: RefCell<VecDeque<usize>>,
        permits: Semaphore,
        closed: Cell<bool>,
    }

    impl Reference {
        fn start() -> Rc<Reference> {
            let r = Rc::new(Reference {
                stage: Rc::new(DueQueue::new()),
                fifo: RefCell::new(VecDeque::new()),
                permits: Semaphore::new(0),
                closed: Cell::new(false),
            });
            let r2 = Rc::clone(&r);
            crate::spawn_detached(async move {
                while let Some(item) = r2.stage.next().await {
                    // A closed request queue refused the send: item dropped.
                    if !r2.closed.get() {
                        r2.fifo.borrow_mut().push_back(item);
                        r2.permits.add_permits(1);
                    }
                }
            });
            r
        }

        fn try_recv(&self) -> Option<usize> {
            let permit = self.permits.try_acquire(1)?;
            permit.forget();
            self.fifo.borrow_mut().pop_front()
        }
    }

    impl Stack for Rc<Reference> {
        fn push(&self, item: usize) {
            self.stage.push(now() + TRANSFER, item);
        }
        fn close(&self) {
            self.closed.set(true);
            self.permits.close();
        }
        async fn next(&self) -> Option<usize> {
            let item = match self.try_recv() {
                Some(item) => item,
                None => {
                    let permit = self.permits.acquire(1).await.ok()?;
                    permit.forget();
                    let item = self.fifo.borrow_mut().pop_front();
                    sleep(WAKEUP).await;
                    item?
                }
            };
            // The worker loop's `alive` check: the item dies with the broker.
            (!self.closed.get()).then_some(item)
        }
    }

    /// Runs `pushes` through `stack` with `workers` workers, closing it at
    /// `close_at` ns if given.
    fn run<S: Stack>(
        stack: fn() -> S,
        pushes: &[Push],
        workers: usize,
        close_at: Option<u64>,
    ) -> Starts {
        let pushes: Rc<[Push]> = pushes.into();
        Runtime::new().block_on(async move {
            let stack = Rc::new(stack());
            let starts = Rc::new(RefCell::new(Starts::new()));
            for w in 0..workers {
                let (stack, starts, pushes) =
                    (Rc::clone(&stack), Rc::clone(&starts), Rc::clone(&pushes));
                crate::spawn_detached(async move {
                    while let Some(item) = stack.next().await {
                        starts.borrow_mut().push((w, item, now().as_nanos()));
                        sleep(Duration::from_nanos(pushes[item].work)).await;
                    }
                });
            }
            if let Some(at) = close_at {
                let stack = Rc::clone(&stack);
                crate::spawn_detached(async move {
                    sleep_until(SimTime::from_nanos(at)).await;
                    stack.close();
                });
            }
            for (item, p) in pushes.iter().enumerate() {
                sleep_until(SimTime::from_nanos(p.at)).await;
                stack.push(item);
            }
            sleep(Duration::from_millis(100)).await;
            starts.take()
        })
    }

    /// A seeded schedule on a 1 µs grid: gaps of 0 (a burst at one instant)
    /// to `max_gap` µs between pushes, 0 to `max_work` µs of work per item —
    /// plus 1 ns, so that no worker ever finishes on the grid. The two
    /// stacks order a worker that finishes in the very nanosecond an item
    /// falls due differently (DESIGN.md §10); everything else must agree.
    fn schedule(seed: u64, n: usize, max_gap: u64, max_work: u64) -> Vec<Push> {
        assert!(n < 500, "a run of n items moves a finish n ns off the grid");
        let mut rng = SimRng::seed_from_u64(seed);
        let mut at = 0;
        (0..n)
            .map(|_| {
                if !rng.random_bool(0.25) {
                    at += rng.below(max_gap + 1) * 1_000;
                }
                Push {
                    at,
                    work: rng.below(max_work + 1) * 1_000 + 1,
                }
            })
            .collect()
    }

    /// How each item of a run met its worker: `[idle, promised at park,
    /// busy]` — the worker was parked when the item was pushed, parked
    /// while it was in transfer, or came back to find it visible.
    fn cases(pushes: &[Push], workers: usize, starts: &Starts) -> [usize; 3] {
        let mut free_at = vec![0; workers];
        let mut seen = [0; 3];
        for &(w, item, start) in starts {
            let due = pushes[item].at + TRANSFER.as_nanos() as u64;
            let case = if free_at[w] <= pushes[item].at {
                0
            } else if free_at[w] < due {
                1
            } else {
                2
            };
            let woken = due + WAKEUP.as_nanos() as u64;
            assert_eq!(
                start,
                if case == 2 { free_at[w] } else { woken },
                "item {item}"
            );
            seen[case] += 1;
            free_at[w] = start + pushes[item].work;
        }
        seen
    }

    #[test]
    fn starts_equal_the_stage_permit_sleep_stack() {
        let mut seen = [0; 3];
        for workers in [1, 2, 8] {
            // Sparse (workers mostly idle), matched, and overloaded
            // (workers mostly busy) relative to the pool's capacity.
            for (seed, max_gap, max_work) in [(1, 80, 8), (2, 40, 12), (3, 24, 16), (4, 8, 24)] {
                let pushes = schedule(
                    seed * 100 + workers as u64,
                    400,
                    max_gap,
                    max_work * workers as u64,
                );
                assert!(
                    pushes.windows(2).filter(|w| w[0].at == w[1].at).count() > 50,
                    "bursts"
                );
                let new = run(|| HandoffQueue::new(WAKEUP), &pushes, workers, None);
                assert_eq!(new.len(), pushes.len(), "every item is served");
                assert_eq!(
                    new,
                    run(Reference::start, &pushes, workers, None),
                    "{workers} workers, seed {seed}"
                );
                let here = cases(&pushes, workers, &new);
                seen.iter_mut().zip(here).for_each(|(a, b)| *a += b);
                // Closed in mid-flight, between two grid instants: the same
                // items start before the close, none after.
                let close_at = pushes[pushes.len() / 2].at + 500;
                let cut = run(
                    || HandoffQueue::new(WAKEUP),
                    &pushes,
                    workers,
                    Some(close_at),
                );
                assert_eq!(cut, run(Reference::start, &pushes, workers, Some(close_at)));
                assert!(cut.len() < new.len() && cut.iter().all(|s| s.2 < close_at));
                assert_eq!(cut[..], new[..cut.len()]);
            }
        }
        assert!(
            seen.iter().all(|&n| n > 100),
            "idle / promised at park / busy: {seen:?}"
        );
    }

    type Log = Rc<RefCell<Vec<(u32, u32, u64)>>>;

    /// Spawns a worker that logs `(w, item, now)` and works `work` per item.
    fn worker(q: &Rc<HandoffQueue<u32>>, log: &Log, w: u32, work: Duration) {
        let (q, log) = (Rc::clone(q), Rc::clone(log));
        crate::spawn_detached(async move {
            while let Some(item) = q.recv().await {
                log.borrow_mut().push((w, item, now().as_nanos()));
                sleep(work).await;
            }
        });
    }

    #[test]
    fn multiple_consumers_share_work() {
        Runtime::new().block_on(async {
            let q = Rc::new(HandoffQueue::new(WAKEUP));
            let log = Rc::new(RefCell::new(Vec::new()));
            (0..3).for_each(|w| worker(&q, &log, w, Duration::from_micros(1)));
            (0..9).for_each(|i| q.push(now() + TRANSFER, i));
            sleep(Duration::from_micros(30)).await;
            // The longest-idle workers wake for the first three, 21 µs in;
            // each then takes the next visible item as it finishes.
            let expect: Vec<_> = (0..9)
                .map(|i| (i % 3, i, 21_000 + u64::from(i / 3) * 1_000))
                .collect();
            assert_eq!(*log.borrow(), expect);
            assert!(q.is_empty());
        });
    }

    #[test]
    fn a_hand_over_to_a_parked_worker_is_one_poll() {
        let rt = Runtime::new();
        let q = Rc::new(HandoffQueue::new(WAKEUP));
        let log = Rc::new(RefCell::new(Vec::new()));
        let (q2, log2) = (Rc::clone(&q), Rc::clone(&log));
        rt.block_on(async move {
            (0..2).for_each(|w| worker(&q2, &log2, w, Duration::ZERO));
            crate::time::yield_now().await; // both park
        });
        let before = rt.poll_count();
        let q2 = Rc::clone(&q);
        rt.block_on(async move {
            for i in 0..10 {
                q2.push(now() + TRANSFER, i);
                sleep(Duration::from_micros(50)).await;
            }
        });
        assert_eq!(log.borrow().len(), 10);
        // Root: start + one per sleep. Workers: one poll per item, at
        // `due + wakeup` — none at `due`, none to go to sleep.
        assert_eq!(rt.poll_count() - before, 1 + 10 + 10);
    }

    #[test]
    fn close_wakes_receivers() {
        Runtime::new().block_on(async {
            let q: Rc<HandoffQueue<Rc<()>>> = Rc::new(HandoffQueue::new(WAKEUP));
            let ended = Rc::new(RefCell::new(Vec::new()));
            for w in 0..3 {
                let (q, ended) = (Rc::clone(&q), Rc::clone(&ended));
                crate::spawn_detached(async move {
                    assert!(q.recv().await.is_none());
                    ended.borrow_mut().push((w, now().as_nanos()));
                });
            }
            let witness = Rc::new(());
            sleep(Duration::from_micros(1)).await;
            q.push(now() + TRANSFER, Rc::clone(&witness)); // promised to worker 0 for 22 µs
            q.close();
            assert_eq!(
                Rc::strong_count(&witness),
                1,
                "a promised item is dropped at close"
            );
            q.push(now(), Rc::clone(&witness));
            assert!(q.is_empty(), "pushes after close are ignored");
            sleep(Duration::from_micros(30)).await;
            assert_eq!(*ended.borrow(), [(0, 1_000), (1, 1_000), (2, 1_000)]);
            assert!(q.recv().await.is_none());
        });
    }

    #[test]
    fn a_worker_that_gives_up_passes_its_promise_on() {
        Runtime::new().block_on(async {
            let q = Rc::new(HandoffQueue::new(WAKEUP));
            let log = Rc::new(RefCell::new(Vec::new()));
            let q2 = Rc::clone(&q);
            let quitter = crate::spawn(async move {
                crate::time::timeout(Duration::from_micros(5), q2.recv()).await
            });
            crate::time::yield_now().await;
            worker(&q, &log, 1, Duration::ZERO);
            q.push(now() + TRANSFER, 7); // promised to the quitter
            assert!(quitter.await.unwrap().is_err());
            sleep(Duration::from_micros(30)).await;
            // Worker 1 got it at 5 µs, still in transfer: due 11 µs + wake-up.
            assert_eq!(*log.borrow(), [(1, 7, 21_000)]);
        });
    }
}
