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
use std::task::{Context, Poll};
use std::time::Duration;

use sim::sync::WaitList;
use sim::SimTime;

use crate::nic::Registry;
use crate::qp::QpShared;
use crate::verbs::Cqe;

/// A consumer parked on a CQ: the wake-up latency of a thread blocked in
/// [`CompletionQueue::wait`] (`None`: a task in [`CompletionQueue::next`],
/// which a push wakes directly), and the instant a push armed it for.
type Parked = (Option<Duration>, Option<SimTime>);

/// Arms the longest-parked unarmed consumer of one kind — blocked in `wait`
/// (its wake-up runs from now, on a timer) or not (woken now) — recording
/// the instant. `false` if there is none.
fn arm(waiters: &mut WaitList<Parked>, blocked: bool) -> bool {
    let Some((waker, (wakeup, due))) = waiters.arm(|p| p.0.is_some() == blocked && p.1.is_none())
    else {
        return false;
    };
    let at = sim::now() + wakeup.unwrap_or_default();
    *due = Some(at);
    match wakeup {
        Some(_) => sim::time::wake_at(at, waker),
        None => waker.wake_by_ref(),
    }
    true
}

pub(crate) struct CqInner {
    queue: RefCell<VecDeque<Cqe>>,
    capacity: usize,
    waiters: RefCell<WaitList<Parked>>,
    overflowed: Cell<bool>,
    attached: RefCell<Vec<Weak<QpShared>>>,
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
                waiters: RefCell::new(WaitList::default()),
                overflowed: Cell::new(false),
                attached: RefCell::new(Vec::new()),
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
        // `next()` consumers not yet woken first, then every blocked one: an
        // armed one still returns at its instant, the others now.
        let waiters = self.inner.waiters.borrow();
        waiters.wake_in_place(|p| p.0.is_none() && p.1.is_none());
        waiters.wake_in_place(|p| p.0.is_some());
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
            self.inner.fabric.telem.cq_cqes.inc();
            self.inner.fabric.telem.cq_depth.add(1);
        }
        // A blocked consumer first; a `next()` one only once every blocked
        // one is armed.
        let mut waiters = self.inner.waiters.borrow_mut();
        if !arm(&mut waiters, true) {
            arm(&mut waiters, false);
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
        self.take(N - out.len(), |cqe| {
            let _ = out.push(cqe);
        })
    }

    /// As [`poll_batch`](Self::poll_batch) but into a caller-pooled `Vec`
    /// (appends; retained capacity makes steady-state drains allocation-free)
    /// bounded by `max`. Returns how many were taken.
    pub fn drain_into(&self, out: &mut Vec<Cqe>, max: usize) -> usize {
        self.take(max, |cqe| out.push(cqe))
    }

    /// Pops up to `max` completions into `put`, in completion order.
    fn take(&self, max: usize, put: impl FnMut(Cqe)) -> usize {
        let mut q = self.inner.queue.borrow_mut();
        let n = max.min(q.len());
        q.drain(..n).for_each(put);
        self.inner.fabric.telem.cq_depth.sub(n as u64);
        n
    }

    /// Waits (virtual time) for the next completion.
    ///
    /// An overflow loses completions pushed *after* it; those queued before
    /// are still served here and by [`poll`](Self::poll) /
    /// [`drain_into`](Self::drain_into). `None` — the CQ is dead — comes
    /// only once an overflowed queue is empty.
    ///
    /// Parks like [`wait`](Self::wait) with no wake-up, behind the blocked
    /// consumers: a push wakes it directly once every one of them is armed.
    pub async fn next(&self) -> Option<Cqe> {
        self.park(None).await;
        self.poll()
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
        self.park(Some(wakeup))
    }

    fn park(&self, wakeup: Option<Duration>) -> Wait<'_> {
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

    /// True once an overflow has poisoned this CQ.
    pub fn overflowed(&self) -> bool {
        self.inner.overflowed.get()
    }
}

/// Future returned by [`CompletionQueue::wait`].
pub struct Wait<'a> {
    cq: &'a CompletionQueue,
    wakeup: Option<Duration>,
    /// Identifies this consumer among the parked ones while it is.
    ticket: Option<u64>,
}

impl Future for Wait<'_> {
    type Output = bool;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let cq = self.cq;
        let dead = cq.inner.overflowed.get();
        let mut waiters = cq.inner.waiters.borrow_mut();
        // A parked consumer is listed until it returns or is dropped.
        let Some((_, due)) = self.ticket.and_then(|t| waiters.repark(t, cx.waker())) else {
            if !cq.is_empty() || dead {
                return Poll::Ready(!cq.is_empty());
            }
            self.ticket = Some(waiters.park(cx.waker(), (self.wakeup, None)));
            return Poll::Pending;
        };
        // Armed: only that instant ends the wait. Not armed: only poisoning.
        let woken = due.map_or(dead, |due| due <= sim::now());
        if !woken || (cq.is_empty() && !dead) {
            if woken {
                *due = None;
            }
            return Poll::Pending;
        }
        if let Some(ticket) = self.ticket.take() {
            waiters.remove(ticket);
        }
        Poll::Ready(!cq.is_empty())
    }
}

impl Drop for Wait<'_> {
    /// A consumer that stops waiting leaves the list; the wake a push armed
    /// a blocked one with passes to the next blocked one in line (to nobody
    /// if the runtime itself is being torn down).
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        let mut waiters = self.cq.inner.waiters.borrow_mut();
        let armed = waiters.remove(ticket).is_some_and(|p| p.0.is_some() && p.1.is_some());
        if armed && !self.cq.is_empty() && sim::time::try_now().is_some() {
            arm(&mut waiters, true);
        }
    }
}
