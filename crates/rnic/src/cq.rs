//! Completion queues.
//!
//! Bounded, like hardware CQs: pushing into a full CQ is a fatal event that
//! breaks every attached QP. The paper's push-replication module exists to
//! avoid exactly this ("a flood of small records could ... overflow the RDMA
//! completion queue of a slow follower leading to disconnection of all
//! corresponding QPs", §4.3.2), so overflow must be a real, observable
//! failure here.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use sim::sync::Notify;
use sim::SimTime;

use crate::nic::Registry;
use crate::qp::QpShared;
use crate::verbs::Cqe;

/// A thread blocked in [`CompletionQueue::wait`].
struct Waiter {
    ticket: u64,
    waker: Waker,
    /// Its wake-up latency.
    wakeup: Duration,
    /// The instant its timer is registered for, once a push has armed it.
    due: Option<SimTime>,
}

/// The threads blocked in [`CompletionQueue::wait`], longest parked first.
/// The first is held inline: a CQ with one consumer — every client's ack CQ
/// — never allocates for it.
#[derive(Default)]
struct Waiters {
    first: Option<Waiter>,
    /// Those behind `first`; empty while it is.
    rest: Vec<Waiter>,
    next_ticket: u64,
}

impl Waiters {
    fn park(&mut self, waker: Waker, wakeup: Duration) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let waiter = Waiter { ticket, waker, wakeup, due: None };
        match self.first {
            None => self.first = Some(waiter),
            Some(_) => self.rest.push(waiter),
        }
        ticket
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Waiter> {
        self.first.iter_mut().chain(&mut self.rest)
    }

    fn get_mut(&mut self, ticket: u64) -> Option<&mut Waiter> {
        self.iter_mut().find(|w| w.ticket == ticket)
    }

    fn remove(&mut self, ticket: u64) -> Option<Waiter> {
        if self.first.as_ref().is_some_and(|w| w.ticket == ticket) {
            let next = (!self.rest.is_empty()).then(|| self.rest.remove(0));
            return std::mem::replace(&mut self.first, next);
        }
        let at = self.rest.iter().position(|w| w.ticket == ticket)?;
        Some(self.rest.remove(at))
    }

    /// Arms the longest-parked waiter no push has armed yet: it runs its
    /// wake-up latency from now. `false` if there is none.
    fn arm_next(&mut self) -> bool {
        let Some(w) = self.iter_mut().find(|w| w.due.is_none()) else {
            return false;
        };
        let due = sim::now() + w.wakeup;
        w.due = Some(due);
        sim::time::wake_at(due, &w.waker);
        true
    }
}

pub(crate) struct CqInner {
    queue: RefCell<VecDeque<Cqe>>,
    capacity: usize,
    notify: Notify,
    waiters: RefCell<Waiters>,
    overflowed: Cell<bool>,
    attached: RefCell<Vec<Weak<QpShared>>>,
    completions_total: Cell<u64>,
    /// Holds the `rnic cq.*` cells every CQ of the fabric records into.
    fabric: Rc<Registry>,
}

/// A completion queue shared by one or more QPs.
#[derive(Clone)]
pub struct CompletionQueue {
    pub(crate) inner: Rc<CqInner>,
}

impl CompletionQueue {
    pub(crate) fn with_capacity(capacity: usize, fabric: Rc<Registry>) -> Self {
        assert!(capacity > 0);
        CompletionQueue {
            inner: Rc::new(CqInner {
                queue: RefCell::new(VecDeque::new()),
                capacity,
                notify: Notify::new(),
                waiters: RefCell::new(Waiters::default()),
                overflowed: Cell::new(false),
                attached: RefCell::new(Vec::new()),
                completions_total: Cell::new(0),
                fabric,
            }),
        }
    }

    pub(crate) fn attach(&self, qp: &Rc<QpShared>) {
        self.inner.attached.borrow_mut().push(Rc::downgrade(qp));
    }

    /// Poisons the CQ as a hardware overflow would: every attached QP
    /// transitions to the error state and further completions are lost.
    fn poison(&self) {
        self.inner.overflowed.set(true);
        self.inner.fabric.telem.cq_overflows.inc();
        let attached: Vec<_> = self.inner.attached.borrow().clone();
        for qp in attached.into_iter().filter_map(|w| w.upgrade()) {
            QpShared::fail(&qp);
        }
        self.inner.notify.notify_waiters();
        // An armed waiter still returns at its instant, the others now.
        let mut waiters = self.inner.waiters.borrow_mut();
        waiters.iter_mut().for_each(|w| w.waker.wake_by_ref());
    }

    /// Fault injection: overflows this CQ now, regardless of occupancy —
    /// the §4.3.2 slow-follower disaster on demand. All attached QPs fail
    /// (and, per RC semantics, their peers observe the disconnect).
    pub fn inject_overflow(&self) {
        if !self.inner.overflowed.get() {
            self.poison();
        }
    }

    /// Pushes a completion. On overflow the CQ is poisoned and every
    /// attached QP transitions to the error state.
    pub(crate) fn push(&self, cqe: Cqe) {
        if self.inner.overflowed.get() {
            return; // poisoned: completions are lost
        }
        {
            let mut q = self.inner.queue.borrow_mut();
            if q.len() >= self.inner.capacity {
                drop(q);
                self.poison();
                return;
            }
            q.push_back(cqe);
            self.inner
                .completions_total
                .set(self.inner.completions_total.get() + 1);
            self.inner.fabric.telem.cq_cqes.inc();
            self.inner.fabric.telem.cq_depth.add(1);
        }
        if !self.inner.waiters.borrow_mut().arm_next() {
            self.inner.notify.notify_one();
        }
    }

    /// Non-blocking poll, like `ibv_poll_cq`.
    pub fn poll(&self) -> Option<Cqe> {
        let cqe = self.inner.queue.borrow_mut().pop_front();
        if cqe.is_some() {
            self.inner.fabric.telem.cq_depth.sub(1);
        }
        cqe
    }

    /// Non-blocking batch poll, like `ibv_poll_cq(cq, N, wc)`: pops up to
    /// the free capacity of `out` in completion order. Returns how many were
    /// taken. Never allocates — the destination is stack space.
    pub fn poll_batch<const N: usize>(&self, out: &mut kdbuf::ArrayVec<Cqe, N>) -> usize {
        let mut q = self.inner.queue.borrow_mut();
        let mut taken = 0;
        while !out.is_full() {
            let Some(cqe) = q.pop_front() else { break };
            self.inner.fabric.telem.cq_depth.sub(1);
            let _ = out.push(cqe);
            taken += 1;
        }
        taken
    }

    /// As [`poll_batch`](Self::poll_batch) but into a caller-pooled `Vec`
    /// (appends; retained capacity makes steady-state drains allocation-free)
    /// bounded by `max`. Returns how many were taken.
    pub fn drain_into(&self, out: &mut Vec<Cqe>, max: usize) -> usize {
        let mut q = self.inner.queue.borrow_mut();
        let mut taken = 0;
        while taken < max {
            let Some(cqe) = q.pop_front() else { break };
            self.inner.fabric.telem.cq_depth.sub(1);
            out.push(cqe);
            taken += 1;
        }
        taken
    }

    /// Waits (virtual time) for the next completion.
    ///
    /// An overflow loses completions pushed *after* it; those queued before
    /// are still served here and by [`poll`](Self::poll) /
    /// [`drain_into`](Self::drain_into). `None` — the CQ is dead — comes
    /// only once an overflowed queue is empty.
    pub async fn next(&self) -> Option<Cqe> {
        loop {
            if let Some(cqe) = self.poll() {
                return Some(cqe);
            }
            if self.inner.overflowed.get() {
                return None;
            }
            self.inner.notify.notified().await;
        }
    }

    /// Blocks like a thread in `ibv_get_cq_event`: returns `wakeup` after
    /// the completion that ends the wait was pushed, with that completion
    /// and whatever arrived behind it still queued — the push arms the
    /// caller's timer, so the wait costs no poll at the arrival instant. At
    /// once if the CQ is not empty. `false`: the CQ is dead (overflowed and
    /// drained).
    ///
    /// Any number of consumers may block here. Each push arms the
    /// longest-parked one that no earlier push armed; one that wakes to a
    /// queue somebody else has emptied in the meantime is parked again, in
    /// place and at no charge.
    pub fn wait(&self, wakeup: Duration) -> Wait<'_> {
        Wait {
            cq: self,
            wakeup,
            ticket: None,
        }
    }

    pub fn len(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// True once an overflow has poisoned this CQ.
    pub fn overflowed(&self) -> bool {
        self.inner.overflowed.get()
    }

    /// Total completions ever delivered (telemetry).
    pub fn completions_total(&self) -> u64 {
        self.inner.completions_total.get()
    }
}

/// Future returned by [`CompletionQueue::wait`].
pub struct Wait<'a> {
    cq: &'a CompletionQueue,
    wakeup: Duration,
    /// Identifies this consumer among the parked ones while it is.
    ticket: Option<u64>,
}

impl Future for Wait<'_> {
    type Output = bool;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let cq = self.cq;
        let dead = cq.inner.overflowed.get();
        let mut waiters = cq.inner.waiters.borrow_mut();
        let Some(ticket) = self.ticket else {
            if !cq.is_empty() || dead {
                return Poll::Ready(!cq.is_empty());
            }
            self.ticket = Some(waiters.park(cx.waker().clone(), self.wakeup));
            return Poll::Pending;
        };
        let w = waiters.get_mut(ticket).expect("a parked waiter is listed");
        // Armed: only that timer ends the wait. Not armed: only poisoning.
        let woken = w.due.map_or(dead, |due| due <= sim::now());
        if !woken || (cq.is_empty() && !dead) {
            if woken {
                w.due = None;
            }
            w.waker.clone_from(cx.waker());
            return Poll::Pending;
        }
        waiters.remove(ticket);
        self.ticket = None;
        Poll::Ready(!cq.is_empty())
    }
}

impl Drop for Wait<'_> {
    /// A consumer that stops waiting leaves the list; the wake a push armed
    /// it with passes to the next in line (to nobody if the runtime itself
    /// is being torn down).
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        let mut waiters = self.cq.inner.waiters.borrow_mut();
        let armed = waiters.remove(ticket).is_some_and(|w| w.due.is_some());
        if armed && !self.cq.is_empty() && sim::time::try_now().is_some() {
            waiters.arm_next();
        }
    }
}
