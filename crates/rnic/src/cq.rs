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
use std::rc::{Rc, Weak};
use std::task::{Poll, Waker};
use std::time::Duration;

use sim::sync::Notify;

use crate::qp::QpShared;
use crate::verbs::Cqe;

pub(crate) struct CqInner {
    queue: RefCell<VecDeque<Cqe>>,
    capacity: usize,
    notify: Notify,
    /// The thread blocked in [`CompletionQueue::wait`] and its wake-up
    /// latency, until a push arms it for `wake_due`.
    sleeper: RefCell<Option<(Waker, Duration)>>,
    wake_due: Cell<sim::SimTime>,
    overflowed: Cell<bool>,
    attached: RefCell<Vec<Weak<QpShared>>>,
    completions_total: Cell<u64>,
    // Registry-backed telemetry: current/peak occupancy across all CQs and
    // total CQEs delivered (the overflow-risk signal of §4.3.2).
    depth: kdtelem::Gauge,
    cqes: kdtelem::Counter,
    overflows: kdtelem::Counter,
}

/// A completion queue shared by one or more QPs.
#[derive(Clone)]
pub struct CompletionQueue {
    pub(crate) inner: Rc<CqInner>,
}

impl CompletionQueue {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        let telem = kdtelem::current();
        CompletionQueue {
            inner: Rc::new(CqInner {
                queue: RefCell::new(VecDeque::new()),
                capacity,
                notify: Notify::new(),
                sleeper: RefCell::new(None),
                wake_due: Cell::new(sim::SimTime::ZERO),
                overflowed: Cell::new(false),
                attached: RefCell::new(Vec::new()),
                completions_total: Cell::new(0),
                depth: telem.gauge("rnic", "cq.depth"),
                cqes: telem.counter("rnic", "cq.cqes"),
                overflows: telem.counter("rnic", "cq.overflows"),
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
        self.inner.overflows.inc();
        let attached: Vec<_> = self.inner.attached.borrow().clone();
        for qp in attached.into_iter().filter_map(|w| w.upgrade()) {
            QpShared::fail(&qp);
        }
        self.inner.notify.notify_waiters();
        if let Some((waker, _)) = self.inner.sleeper.take() {
            waker.wake();
        }
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
            self.inner.cqes.inc();
            self.inner.depth.add(1);
        }
        match self.inner.sleeper.take() {
            Some((waker, wakeup)) => {
                let due = sim::now() + wakeup;
                self.inner.wake_due.set(due);
                sim::time::wake_at(due, &waker);
            }
            None => self.inner.notify.notify_one(),
        }
    }

    /// Non-blocking poll, like `ibv_poll_cq`.
    pub fn poll(&self) -> Option<Cqe> {
        let cqe = self.inner.queue.borrow_mut().pop_front();
        if cqe.is_some() {
            self.inner.depth.sub(1);
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
            self.inner.depth.sub(1);
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
            self.inner.depth.sub(1);
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
    /// once if the CQ is not empty. For a CQ with one consumer. `false`: the
    /// CQ is dead (overflowed and drained).
    pub async fn wait(&self, wakeup: Duration) -> bool {
        std::future::poll_fn(|cx| {
            if sim::now() < self.inner.wake_due.get() {
                return Poll::Pending; // armed: only that timer ends the wait
            }
            if !self.is_empty() || self.inner.overflowed.get() {
                return Poll::Ready(!self.is_empty());
            }
            *self.inner.sleeper.borrow_mut() = Some((cx.waker().clone(), wakeup));
            Poll::Pending
        })
        .await
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
