//! A single-consumer due-time queue: items become available when the
//! virtual clock reaches their due instant.
//!
//! This is the substrate for long-lived *stages* that replace "one task per
//! delayed item" — the NIC model's work-request engine, the broker's request
//! hand-off and each RPC connection's reply writer. A producer calls
//! [`DueQueue::push`] from synchronous code; the consumer task loops on
//! [`DueQueue::next`]. The queue arms wheel timers for the consumer's stored
//! waker itself, so pushing into a parked consumer costs no "arm" poll, and
//! the consumer drains everything due at an instant in one poll (each
//! `next().await` that finds a due item returns without yielding).
//!
//! Items with equal due times come out in push order.
//!
//! # Consumer contract
//!
//! One task consumes. It may do anything between two `next()` calls,
//! including sleep: the queue only ever wakes a consumer that is *parked in
//! `next()`*.
//!
//! * A push that finds the consumer parked registers the item's wheel timer
//!   right then — exactly when a task spawned for the item would have
//!   started its sleep. Among the timers of one instant the wheel fires in
//!   registration order, so the stage keeps the place in that instant's
//!   schedule the per-item task had: replacing tasks by a stage does not
//!   re-order same-instant events elsewhere in the simulation. Consecutive
//!   pushes for one instant share a timer (one poll for the burst).
//! * A push that finds the consumer busy registers nothing. When the
//!   consumer comes back it takes what is due without yielding, and if
//!   nothing is, parks and arms the earliest item. So a consumer that sleeps
//!   between `next()` calls (a writer occupying a network thread) is never
//!   polled on behalf of the queue while it does, however many items pile
//!   up; the price is that an item pushed at a busy consumer takes its place
//!   among an instant's timers when the consumer parks, not when it was
//!   pushed.
//! * [`close`](DueQueue::close) ends the stage: queued items are dropped,
//!   later pushes are ignored, `next()` returns `None` (waking the consumer
//!   if it is parked).
//!
//! Timers cannot be cancelled, so a consumer that was armed and then went
//! off to work is polled once for nothing when the timer fires.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::time::{now, wake_at, SimTime};

struct Entry<T> {
    due: SimTime,
    seq: u64,
    /// A wheel timer for `due` was registered on this entry's behalf.
    armed: bool,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Reversed: `BinaryHeap` is a max-heap and the earliest `(due, seq)`
    /// must surface first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

struct State<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    /// The consumer's waker while it is parked in `next()`.
    parked: Option<Waker>,
    /// Deadline of the most recent timer, while it is still pending: a
    /// burst of pushes for one instant arms one timer.
    last_armed: Option<SimTime>,
    closed: bool,
}

impl<T> State<T> {
    /// Registers a timer for `due` if the consumer is parked, unless the
    /// previous one was for the same instant. Whether it is parked.
    fn arm(&mut self, due: SimTime) -> bool {
        let Some(waker) = &self.parked else { return false };
        if self.last_armed != Some(due) {
            wake_at(due, waker);
            self.last_armed = Some(due);
        }
        true
    }
}

/// See the [module docs](self).
pub struct DueQueue<T> {
    state: RefCell<State<T>>,
}

impl<T> Default for DueQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DueQueue<T> {
    pub fn new() -> Self {
        DueQueue {
            state: RefCell::new(State {
                heap: BinaryHeap::new(),
                next_seq: 0,
                parked: None,
                last_armed: None,
                closed: false,
            }),
        }
    }

    /// Queues `item` to be handed to the consumer at `due` (immediately, in
    /// the consumer's next poll, if `due` is not in the future). Dropped if
    /// the queue is closed.
    pub fn push(&self, due: SimTime, item: T) {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return;
        }
        let armed = s.arm(due);
        let seq = s.next_seq;
        s.next_seq += 1;
        s.heap.push(Entry { due, seq, armed, item });
    }

    /// Pops the earliest item if it is due; otherwise parks the consumer
    /// until the earliest due instant. `None` once the queue is closed.
    pub fn poll_next(&self, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return Poll::Ready(None);
        }
        let now = now();
        if s.last_armed.is_some_and(|due| due <= now) {
            s.last_armed = None;
        }
        if s.heap.peek().is_some_and(|e| e.due <= now) {
            s.parked = None;
            return Poll::Ready(s.heap.pop().map(|e| e.item));
        }
        match &mut s.parked {
            Some(w) => w.clone_from(cx.waker()),
            None => s.parked = Some(cx.waker().clone()),
        }
        // What was pushed while the consumer was away has no timer yet.
        let unarmed = s.heap.peek_mut().filter(|e| !e.armed).map(|mut e| {
            e.armed = true;
            e.due
        });
        if let Some(due) = unarmed {
            s.arm(due);
        }
        Poll::Pending
    }

    /// Waits for the next due item; `None` once the queue is closed. Single
    /// consumer: the timers wake whichever task parked here last.
    pub fn next(&self) -> Next<'_, T> {
        Next { queue: self }
    }

    /// Ends the stage: drops what is queued, ignores later pushes and makes
    /// `next()` return `None`, waking the consumer if it is parked.
    pub fn close(&self) {
        let mut s = self.state.borrow_mut();
        s.closed = true;
        let dropped = std::mem::take(&mut s.heap);
        let parked = s.parked.take();
        // Item destructors and the wake run without the queue borrowed.
        drop(s);
        drop(dropped);
        if let Some(w) = parked {
            w.wake();
        }
    }

    /// Whether [`close`](Self::close) has run.
    pub fn is_closed(&self) -> bool {
        self.state.borrow().closed
    }

    /// Items queued, due or not.
    pub fn len(&self) -> usize {
        self.state.borrow().heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`DueQueue::next`].
pub struct Next<'a, T> {
    queue: &'a DueQueue<T>,
}

impl<T> Future for Next<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        self.queue.poll_next(cx)
    }
}

impl<T> Drop for Next<'_, T> {
    /// A consumer that gives up waiting (lost a race) is not parked.
    fn drop(&mut self) {
        self.queue.state.borrow_mut().parked = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::rc::Rc;
    use std::time::Duration;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Spawns a consumer logging `(now, item)` per item; returns the log.
    fn consume(q: &Rc<DueQueue<u32>>) -> Rc<RefCell<Vec<(u64, u32)>>> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let (q, log2) = (Rc::clone(q), Rc::clone(&log));
        crate::spawn_detached(async move {
            while let Some(item) = q.next().await {
                log2.borrow_mut().push((crate::now().as_nanos(), item));
            }
        });
        log
    }

    #[test]
    fn items_surface_at_their_due_time_in_due_then_push_order() {
        let rt = Runtime::new();
        rt.block_on(async {
            let q = Rc::new(DueQueue::new());
            let log = consume(&q);
            q.push(at(300), 3);
            q.push(at(100), 1);
            q.push(at(300), 4);
            q.push(at(200), 2);
            crate::time::sleep(Duration::from_micros(1)).await;
            assert_eq!(*log.borrow(), vec![(100, 1), (200, 2), (300, 3), (300, 4)]);
        });
    }

    #[test]
    fn one_poll_per_burst_and_none_to_arm() {
        let rt = Runtime::new();
        let q = Rc::new(DueQueue::new());
        let q2 = Rc::clone(&q);
        let log = rt.block_on(async move {
            let log = consume(&q2);
            crate::time::yield_now().await; // consumer parks on the empty queue
            log
        });
        let before = rt.poll_count();
        let q2 = Rc::clone(&q);
        rt.block_on(async move {
            // Out-of-order pushes into a parked consumer, with ties: five
            // items over three instants, same-instant items back to back.
            for (due, item) in [(500, 5), (100, 1), (100, 2), (300, 3), (300, 4)] {
                q2.push(at(due), item);
            }
            crate::time::sleep(Duration::from_micros(1)).await;
        });
        assert_eq!(log.borrow().len(), 5);
        // Root: 2 polls (start, wake from sleep). Consumer: one per burst.
        assert_eq!(rt.poll_count() - before, 2 + 3);
    }

    #[test]
    fn past_due_push_is_served_in_the_same_instant() {
        let rt = Runtime::new();
        rt.block_on(async {
            let q = Rc::new(DueQueue::new());
            let log = consume(&q);
            crate::time::sleep(Duration::from_nanos(50)).await;
            q.push(at(10), 7);
            q.push(at(50), 8);
            crate::time::sleep(Duration::from_nanos(1)).await;
            assert_eq!(*log.borrow(), vec![(50, 7), (50, 8)]);
        });
    }

    #[test]
    fn pushes_while_consumer_is_busy_elsewhere_are_not_lost() {
        let rt = Runtime::new();
        rt.block_on(async {
            let q: Rc<DueQueue<u32>> = Rc::new(DueQueue::new());
            let log = Rc::new(RefCell::new(Vec::new()));
            let (q2, log2) = (Rc::clone(&q), Rc::clone(&log));
            crate::spawn_detached(async move {
                while let Some(item) = q2.next().await {
                    // A slow stage: not parked on the queue while it works.
                    crate::time::sleep(Duration::from_nanos(150)).await;
                    log2.borrow_mut().push((crate::now().as_nanos(), item));
                }
            });
            q.push(at(100), 1);
            crate::time::sleep(Duration::from_nanos(120)).await;
            q.push(at(130), 2); // consumer is mid-item
            q.push(at(400), 3);
            crate::time::sleep(Duration::from_micros(1)).await;
            assert_eq!(*log.borrow(), vec![(250, 1), (400, 2), (550, 3)]);
        });
    }

    #[test]
    fn a_busy_consumer_is_not_polled_for_pushes() {
        let rt = Runtime::new();
        let q: Rc<DueQueue<u32>> = Rc::new(DueQueue::new());
        let q2 = Rc::clone(&q);
        let log = rt.block_on(async move {
            let log = Rc::new(RefCell::new(Vec::new()));
            let (q3, log2) = (Rc::clone(&q2), Rc::clone(&log));
            crate::spawn_detached(async move {
                while let Some(item) = q3.next().await {
                    crate::time::sleep(Duration::from_micros(10)).await;
                    log2.borrow_mut().push((crate::now().as_nanos(), item));
                }
            });
            q2.push(at(0), 0);
            crate::time::yield_now().await; // consumer takes item 0, sleeps to 10 us
            log
        });
        let before = rt.poll_count();
        let q2 = Rc::clone(&q);
        rt.block_on(async move {
            // Nine items fall due, at nine instants, while the consumer works.
            for i in 1..10 {
                q2.push(at(i * 1_000), i as u32);
            }
            crate::time::sleep(Duration::from_micros(200)).await;
        });
        let served: Vec<u64> = log.borrow().iter().map(|&(t, _)| t).collect();
        assert_eq!(served, (1..=10).map(|i| i * 10_000).collect::<Vec<_>>());
        // Root 2, consumer one per item it finishes: no poll per push.
        assert_eq!(rt.poll_count() - before, 2 + 10);
    }

    #[test]
    fn items_pushed_at_a_busy_consumer_are_armed_when_it_parks() {
        let rt = Runtime::new();
        rt.block_on(async {
            let q: Rc<DueQueue<u32>> = Rc::new(DueQueue::new());
            let log = Rc::new(RefCell::new(Vec::new()));
            let (q2, log2) = (Rc::clone(&q), Rc::clone(&log));
            crate::spawn_detached(async move {
                while let Some(item) = q2.next().await {
                    crate::time::sleep(Duration::from_nanos(100)).await;
                    log2.borrow_mut().push((crate::now().as_nanos(), item));
                }
            });
            q.push(at(0), 0);
            crate::time::yield_now().await;
            q.push(at(900), 2); // consumer busy until 100
            q.push(at(500), 1);
            crate::time::sleep(Duration::from_micros(2)).await;
            assert_eq!(*log.borrow(), vec![(100, 0), (600, 1), (1_000, 2)]);
        });
    }

    #[test]
    fn close_ends_a_parked_consumer_and_drops_the_rest() {
        let rt = Runtime::new();
        rt.block_on(async {
            let q: Rc<DueQueue<Rc<()>>> = Rc::new(DueQueue::new());
            let q2 = Rc::clone(&q);
            let consumer = crate::spawn(async move {
                let mut n = 0;
                while q2.next().await.is_some() {
                    n += 1;
                }
                n
            });
            let witness = Rc::new(());
            q.push(at(100), Rc::clone(&witness));
            q.push(at(10_000), Rc::clone(&witness));
            crate::time::sleep(Duration::from_nanos(200)).await;
            q.close();
            assert_eq!(Rc::strong_count(&witness), 1, "queued item dropped at close");
            q.push(at(300), Rc::clone(&witness));
            assert!(q.is_empty(), "pushes after close are ignored");
            assert_eq!(consumer.await.unwrap(), 1);
            assert_eq!(crate::now().as_nanos(), 200, "woken by close, not by a timer");
        });
    }
}
