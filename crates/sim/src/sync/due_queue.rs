//! A single-consumer due-time queue: items become available when the
//! virtual clock reaches their due instant.
//!
//! This is the substrate for long-lived *stages* that replace "one task per
//! delayed item" — the NIC model's work-request engine and the broker's
//! request hand-off. A producer calls [`DueQueue::push`] from synchronous
//! code; the consumer task loops on [`DueQueue::next`]. The queue arms wheel
//! timers for the consumer's stored waker itself, so pushing into a parked
//! consumer costs no "arm" poll, and the consumer drains everything due at
//! an instant in one poll (each `next().await` that finds a due item
//! returns without yielding).
//!
//! Items with equal due times come out in push order.
//!
//! # Timer discipline
//!
//! Every push registers its wheel timer *at push time*, exactly when a task
//! spawned for the item would have started its sleep. Among the timers of
//! one instant the wheel fires in registration order, so the stage keeps
//! the place in that instant's schedule the per-item task had: replacing
//! tasks by a stage does not re-order same-instant events elsewhere in the
//! simulation. A burst of consecutive pushes for one instant shares a timer
//! (one poll for the burst); a push for an instant that already has a timer
//! from before an intervening push arms a second one, and the consumer's
//! second poll at that instant finds nothing — wasted, harmless, and rare
//! outside zero-cost test profiles.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::task::{Context, Poll, Waker};

use crate::executor::with_current;
use crate::time::SimTime;

struct Entry<T> {
    due: u64,
    seq: u64,
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
    /// The consumer's waker, kept across polls (`clone_from` is a no-op
    /// while the same task keeps consuming). `None` until its first park.
    waker: Option<Waker>,
    /// Deadline of the most recent timer, while it is still pending: a
    /// burst of pushes for one instant arms one timer.
    last_armed: Option<u64>,
}

impl<T> State<T> {
    fn arm(&mut self, due: u64) {
        if self.last_armed == Some(due) {
            return;
        }
        if let Some(waker) = &self.waker {
            with_current(|rt| rt.register_timer(due, waker.clone()));
            self.last_armed = Some(due);
        }
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
                waker: None,
                last_armed: None,
            }),
        }
    }

    /// Queues `item` to be handed to the consumer at `due` (immediately, in
    /// the consumer's next poll, if `due` is not in the future).
    pub fn push(&self, due: SimTime, item: T) {
        let mut s = self.state.borrow_mut();
        let (due, seq) = (due.as_nanos(), s.next_seq);
        s.next_seq += 1;
        s.heap.push(Entry { due, seq, item });
        s.arm(due);
    }

    /// Pops the earliest item if it is due; otherwise parks the consumer
    /// until the earliest due instant.
    pub fn poll_next(&self, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        let now = with_current(|rt| rt.now_nanos());
        if s.last_armed.is_some_and(|due| due <= now) {
            s.last_armed = None;
        }
        if s.heap.peek().is_some_and(|e| e.due <= now) {
            return Poll::Ready(s.heap.pop().unwrap().item);
        }
        match &mut s.waker {
            Some(w) => w.clone_from(cx.waker()),
            None => {
                // First park: arm what was pushed before there was a waker.
                for e in s.heap.iter() {
                    with_current(|rt| rt.register_timer(e.due, cx.waker().clone()));
                }
                s.waker = Some(cx.waker().clone());
            }
        }
        Poll::Pending
    }

    /// Waits for the next due item. Single consumer: the timers wake whichever
    /// task parked here last.
    pub async fn next(&self) -> T {
        std::future::poll_fn(|cx| self.poll_next(cx)).await
    }

    /// Items queued, due or not.
    pub fn len(&self) -> usize {
        self.state.borrow().heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            loop {
                let item = q.next().await;
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
                loop {
                    let item = q2.next().await;
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
}
