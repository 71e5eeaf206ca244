//! Completion queues.
//!
//! Bounded, like hardware CQs: pushing into a full CQ is a fatal event that
//! breaks every attached QP. The paper's push-replication module exists to
//! avoid exactly this ("a flood of small records could ... overflow the RDMA
//! completion queue of a slow follower leading to disconnection of all
//! corresponding QPs", §4.3.2), so overflow must be a real, observable
//! failure here.
//!
//! A send CQE is *scheduled*: when the NIC engine delivers a signaled WR it
//! already knows the instant its completion surfaces, and hands it over with
//! that instant ([`CompletionQueue::push_at`]). The one queue holds the
//! visible CQEs first and the scheduled ones behind them, in `(instant,
//! push)` order. A scheduled CQE is invisible to `poll`, `drain_into`, `len`
//! and the waiters until its instant, when it joins the visible ones with no
//! task running. It arms the consumer a push at that instant would arm, on a
//! wheel timer for the instant (plus the wake-up of a blocked consumer); a
//! consumer that parks while a scheduled CQE nobody is armed for is still
//! queued arms itself for it.
//!
//! Overflow is decided when a CQE is handed over, never when it surfaces: a
//! scheduled CQE takes its slot at once (`cq.depth` counts it), and a
//! hand-over that finds every slot taken poisons the CQ at that instant.
//! CQEs queued before the poison, scheduled ones included, are still served
//! at their instants; every later one is lost.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use sim::sync::WaitList;
use sim::{InlineDeque, SimTime};

use crate::nic::Registry;
use crate::qp::QpShared;
use crate::verbs::Cqe;

/// A consumer parked on a CQ: the wake-up latency of a thread blocked in
/// [`CompletionQueue::wait`] (`None`: a task in [`CompletionQueue::next`]),
/// and, once armed, the instant of the CQE it was armed for — it returns
/// that long after it.
type Parked = (Option<Duration>, Option<SimTime>);

/// When an armed consumer returns.
fn due((wakeup, armed): &Parked) -> Option<SimTime> {
    armed.map(|at| at + wakeup.unwrap_or_default())
}

/// Arms a parked consumer for a CQE that surfaces at `at` (now or later) as
/// a push at `at` would: the longest-parked blocked consumer not armed by
/// then, else — if `next_too` — such a `next()` one. A blocked consumer
/// returns `wakeup` after `at` (a timer), a `next()` one at `at` (woken now
/// if that is now). A consumer taken from a later scheduled CQE leaves that
/// one to the next in line. `false` if nobody is free.
fn arm(waiters: &mut WaitList<Parked>, at: SimTime, now: SimTime, next_too: bool) -> bool {
    let free = |p: &Parked, blocked: bool| p.0.is_some() == blocked && p.1.is_none_or(|a| a > at);
    let armed = match waiters.arm(|p| free(p, true)) {
        Some(found) => Some(found),
        None if next_too => waiters.arm(|p| free(p, false)),
        None => None,
    };
    let Some((waker, parked)) = armed else {
        return false;
    };
    let displaced = parked.1.replace(at);
    match parked.0 {
        Some(wakeup) => sim::time::wake_at(at + wakeup, waker),
        None if at > now => sim::time::wake_at(at, waker),
        None => waker.wake_by_ref(),
    }
    if let Some(later) = displaced {
        arm(waiters, later, now, true);
    }
    true
}

/// A queued CQE and the instant it surfaces (scheduled until then).
type Slot = (Cqe, SimTime);

/// The instant of the earliest scheduled CQE in `scheduled` that no parked
/// consumer is armed for (CQEs of one instant are interchangeable).
fn unclaimed<'a>(
    mut scheduled: impl Iterator<Item = &'a Slot>,
    waiters: &WaitList<Parked>,
) -> Option<SimTime> {
    let mut run = (SimTime::ZERO, 0);
    scheduled.find_map(|&(_, at)| {
        run = (at, if run.0 == at { run.1 + 1 } else { 1 });
        let armed = waiters.iter().filter(|p| p.1 == Some(at)).count();
        (armed < run.1).then_some(at)
    })
}

pub(crate) struct CqInner {
    /// Visible CQEs, then the `scheduled` ones, in `(instant, push)` order.
    /// The first is inline: a window-1 client's CQs never hold two.
    queue: RefCell<InlineDeque<Slot>>,
    /// How many CQEs at the back of `queue` had not surfaced when it was
    /// last looked at.
    scheduled: Cell<usize>,
    capacity: usize,
    waiters: RefCell<WaitList<Parked>>,
    overflowed: Cell<bool>,
    /// The QPs a poison fails, in attach order (a client's CQs serve one
    /// QP each).
    attached: RefCell<InlineDeque<Weak<QpShared>>>,
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
                queue: RefCell::default(),
                scheduled: Cell::new(0),
                capacity,
                waiters: RefCell::new(WaitList::default()),
                overflowed: Cell::new(false),
                attached: RefCell::default(),
                fabric,
            }),
        }
    }

    pub(crate) fn attach(&self, qp: &Rc<QpShared>) {
        self.inner.attached.borrow_mut().push_back(Rc::downgrade(qp));
    }

    /// Poisons the CQ as a hardware overflow would: every attached QP
    /// transitions to the error state and further completions are lost.
    fn poison(&self) {
        self.inner.overflowed.set(true);
        self.inner.fabric.telem.cq_overflows.inc();
        let attached: Vec<_> = self.inner.attached.borrow().iter().cloned().collect();
        for qp in attached.into_iter().filter_map(|w| w.upgrade()) {
            QpShared::fail(&qp);
        }
        // `next()` consumers not yet armed first, then every blocked one: an
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

    /// Pushes a completion, visible now. On overflow the CQ is poisoned and
    /// every attached QP transitions to the error state.
    pub(crate) fn push(&self, cqe: Cqe) {
        self.push_at(cqe, SimTime::ZERO);
    }

    /// Hands over a completion that surfaces at `at` (at once if that has
    /// passed): it takes its slot now, and poisons the CQ now if there is
    /// none.
    pub(crate) fn push_at(&self, cqe: Cqe, at: SimTime) {
        if self.inner.overflowed.get() {
            return; // poisoned: completions are lost
        }
        // A CQ is only touched outside a runtime while it is torn down.
        let now = sim::time::try_now().unwrap_or(SimTime::ZERO);
        let at = at.max(now);
        {
            let mut q = self.inner.queue.borrow_mut();
            if q.len() >= self.inner.capacity {
                drop(q);
                self.poison();
                return;
            }
            let visible = self.visible(&q);
            if at == now {
                q.insert(visible, (cqe, at));
            } else {
                // Behind every scheduled CQE due no later.
                let later = q.iter_from(visible).rev().take_while(|s| s.1 > at).count();
                let index = q.len() - later;
                q.insert(index, (cqe, at));
                self.inner.scheduled.set(self.inner.scheduled.get() + 1);
            }
            self.inner.fabric.telem.cq_cqes.inc();
            self.inner.fabric.telem.cq_depth.add(1);
        }
        // A blocked consumer first; a `next()` one only once every blocked
        // one is armed.
        arm(&mut self.inner.waiters.borrow_mut(), at, now, true);
    }

    /// How many CQEs of `q` are visible: scheduled ones whose instant has
    /// come join them. Free while nothing is scheduled.
    fn visible(&self, q: &InlineDeque<Slot>) -> usize {
        let scheduled = self.inner.scheduled.get();
        if scheduled == 0 {
            return q.len();
        }
        let now = sim::time::try_now().unwrap_or(SimTime::ZERO);
        let visible = q.len() - scheduled;
        let surfaced = q.iter_from(visible).take_while(|s| s.1 <= now).count();
        self.inner.scheduled.set(scheduled - surfaced);
        visible + surfaced
    }

    /// Non-blocking poll, like `ibv_poll_cq`.
    pub fn poll(&self) -> Option<Cqe> {
        let mut q = self.inner.queue.borrow_mut();
        if self.visible(&q) == 0 {
            return None;
        }
        self.inner.fabric.telem.cq_depth.sub(1);
        q.pop_front().map(|(cqe, _)| cqe)
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
    fn take(&self, max: usize, mut put: impl FnMut(Cqe)) -> usize {
        let mut q = self.inner.queue.borrow_mut();
        let n = max.min(self.visible(&q));
        for (cqe, _) in std::iter::from_fn(|| q.pop_front()).take(n) {
            put(cqe);
        }
        self.inner.fabric.telem.cq_depth.sub(n as u64);
        n
    }

    /// Waits (virtual time) for the next completion.
    ///
    /// An overflow loses completions pushed *after* it; those queued before
    /// — scheduled ones at their instants — are still served here and by
    /// [`poll`](Self::poll) / [`drain_into`](Self::drain_into). `None` — the
    /// CQ is dead — comes only once an overflowed queue is empty.
    ///
    /// Parks like [`wait`](Self::wait) with no wake-up, behind the blocked
    /// consumers: a push wakes it directly once every one of them is armed.
    pub async fn next(&self) -> Option<Cqe> {
        self.park(None).await;
        self.poll()
    }

    /// Blocks like a thread in `ibv_get_cq_event`: returns `wakeup` after
    /// the completion that ends the wait surfaced, with that completion
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

    /// Arms the unarmed consumer `ticket` for the earliest scheduled CQE
    /// nobody is armed for — on a dead CQ, for the last scheduled one if
    /// every one is taken, so that it sees the queue run dry.
    fn arm_parked(&self, waiters: &mut WaitList<Parked>, ticket: u64, waker: &Waker) {
        let q = self.inner.queue.borrow();
        let visible = self.visible(&q);
        let mut scheduled = q.iter_from(visible);
        let Some(at) = unclaimed(scheduled.clone(), waiters)
            .or_else(|| scheduled.next_back().filter(|_| self.overflowed()).map(|s| s.1))
        else {
            return;
        };
        let parked = waiters.repark(ticket, waker).expect("parked");
        parked.1 = Some(at);
        sim::time::wake_at(due(parked).expect("armed"), waker);
    }

    pub fn len(&self) -> usize {
        self.visible(&self.inner.queue.borrow())
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
        // A parked consumer is listed until it returns or is dropped. Armed:
        // only its instant ends the wait. Not armed: only poisoning.
        let woken = match self.ticket.and_then(|t| waiters.repark(t, cx.waker())) {
            None => true,
            Some(parked) => {
                let woken = due(parked).map_or(dead, |due| due <= sim::now());
                if woken {
                    parked.1 = None;
                }
                woken
            }
        };
        if woken {
            let visible = cq.len();
            if visible > 0 || (dead && cq.inner.queue.borrow().is_empty()) {
                if let Some(ticket) = self.ticket.take() {
                    waiters.remove(ticket);
                }
                return Poll::Ready(visible > 0);
            }
            // Parked (again), unarmed: the next push arms it, or a scheduled
            // CQE nobody is armed for does now.
            let wakeup = self.wakeup;
            let ticket = *self
                .ticket
                .get_or_insert_with(|| waiters.park(cx.waker(), (wakeup, None)));
            cq.arm_parked(&mut waiters, ticket, cx.waker());
        }
        Poll::Pending
    }
}

impl Drop for Wait<'_> {
    /// A consumer that stops waiting leaves the list. A CQE it was armed for
    /// that is still scheduled goes to the next in line; the wake a visible
    /// CQE armed a blocked one with passes to the next blocked one (to
    /// nobody if the runtime itself is being torn down).
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        let mut waiters = self.cq.inner.waiters.borrow_mut();
        let Some((wakeup, Some(at))) = waiters.remove(ticket) else {
            return;
        };
        let Some(now) = sim::time::try_now() else {
            return;
        };
        if at > now {
            arm(&mut waiters, at, now, true);
        } else if wakeup.is_some() && !self.cq.is_empty() {
            arm(&mut waiters, now, now, false);
        }
    }
}
