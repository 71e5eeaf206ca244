//! Completion queues.
//!
//! Bounded, like hardware CQs: a push into a full CQ breaks every attached
//! QP — the failure the paper's push replication exists to avoid (a slow
//! follower's CQ overflowing, §4.3.2), so it is real and observable here.
//!
//! A send CQE is *scheduled*: when the NIC engine delivers a signaled WR it
//! already knows the instant its completion surfaces, and hands it over with
//! that instant (`CompletionQueue::push_at`). The queue is one due-ordered
//! store: a CQE is visible to `poll`, `drain_into`, `len` and the waiters
//! once its instant is due, with no task running. The hand-over arms the
//! consumer a push at that instant would arm; a consumer that parks while a
//! scheduled CQE nobody is armed for is queued arms itself for it.
//!
//! A consumer armed for a CQE that somebody else takes first would wake to
//! an empty queue and park again. Its timer is taken back instead
//! ([`Arm::take_back`]) as soon as that wake would find nothing and leave it
//! unarmed, and given back, to fire where it would have, as soon as it would
//! not (see `restate`).
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

use sim::sync::wait_list::{Arm, CQ};
use sim::sync::WaitList;
use sim::{InlineDeque, SimTime};

use crate::nic::Registry;
use crate::qp::QpShared;
use crate::verbs::Cqe;

/// The consumers parked on a CQ. One's cost is the wake-up latency of a
/// thread blocked in [`CompletionQueue::wait`] (`None`: a task in
/// [`CompletionQueue::next`]).
type Waiters = WaitList<Arm, CQ>;

/// Arms the longest-parked blocked consumer not armed by `at` for a CQE
/// that surfaces then, else — if `next_too` — such a `next()` one. One taken
/// from a later CQE hands that one on.
fn arm(waiters: &mut Waiters, at: SimTime, next_too: bool) {
    let free =
        |blocked| move |p: &Arm| p.cost().is_some() == blocked && p.at.is_none_or(|a| a > at);
    let displaced = match waiters.arm(at, free(true)).map(|(_, d)| d) {
        None if next_too => waiters.arm(at, free(false)).map(|(_, d)| d),
        armed => armed,
    };
    if let Some(Some(later)) = displaced {
        arm(waiters, later, true);
    }
}

/// Where every wake taken back whose turn has come would have left its
/// consumer: parked, unarmed.
fn settle(waiters: &mut Waiters) {
    for (p, _) in waiters.iter_mut() {
        if p.held() && !p.pending() {
            *p = Arm::new(p.cost());
        }
    }
}

/// A CQ is only touched outside a runtime while it is torn down.
fn now() -> SimTime {
    sim::time::try_now().unwrap_or(SimTime::ZERO)
}

pub(crate) struct CqInner {
    /// The CQEs by the instants they surface: those due are visible. The
    /// first is inline: a window-1 client's CQs never hold two.
    queue: RefCell<InlineDeque<(SimTime, Cqe)>>,
    capacity: usize,
    waiters: RefCell<Waiters>,
    overflowed: Cell<bool>,
    /// The QPs a poison fails, in attach order (a client's CQs serve one
    /// QP each).
    attached: RefCell<InlineDeque<Weak<QpShared>>>,
    /// Holds the `rnic cq.*` cells every CQ of the fabric records into.
    fabric: Rc<Registry>,
}

impl CqInner {
    fn new(capacity: usize, fabric: &Rc<Registry>) -> Self {
        assert!(capacity > 0);
        CqInner {
            queue: RefCell::default(),
            capacity,
            waiters: RefCell::new(WaitList::default()),
            overflowed: Cell::new(false),
            attached: RefCell::default(),
            fabric: Rc::clone(fabric),
        }
    }
}

/// A handle on a CQ's state: a lone CQ's own allocation, or one of the two
/// a QP's send and receive CQs share.
#[derive(Clone)]
pub(crate) enum CqRef {
    Lone(Rc<CqInner>),
    /// The pair, and whether this is its receive CQ.
    Pair(Rc<[CqInner; 2]>, bool),
}

impl std::ops::Deref for CqRef {
    type Target = CqInner;

    fn deref(&self) -> &CqInner {
        match self {
            CqRef::Lone(cq) => cq,
            CqRef::Pair(cqs, recv) => &cqs[usize::from(*recv)],
        }
    }
}

/// A completion queue shared by one or more QPs.
#[derive(Clone)]
pub struct CompletionQueue {
    pub(crate) inner: CqRef,
}

impl CompletionQueue {
    pub(crate) fn with_capacity(capacity: usize, fabric: &Rc<Registry>) -> Self {
        let inner = CqRef::Lone(Rc::new(CqInner::new(capacity, fabric)));
        CompletionQueue { inner }
    }

    /// A QP's send and receive CQs, in one allocation.
    pub(crate) fn pair(send: usize, recv: usize, fabric: &Rc<Registry>) -> (Self, Self) {
        let cqs = Rc::new([CqInner::new(send, fabric), CqInner::new(recv, fabric)]);
        let half = |recv| CompletionQueue {
            inner: CqRef::Pair(Rc::clone(&cqs), recv),
        };
        (half(false), half(true))
    }

    pub(crate) fn attach(&self, qp: &Rc<QpShared>) {
        self.inner
            .attached
            .borrow_mut()
            .push_back(Rc::downgrade(qp));
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
        let mut waiters = self.inner.waiters.borrow_mut();
        waiters.wake_in_place(|p| p.cost().is_none() && p.at.is_none());
        waiters.wake_in_place(|p| p.cost().is_some());
        self.give_back(&mut waiters);
    }

    /// Fault injection: overflows this CQ now, regardless of occupancy —
    /// the §4.3.2 slow-follower disaster on demand.
    pub fn inject_overflow(&self) {
        if !self.inner.overflowed.get() {
            settle(&mut self.inner.waiters.borrow_mut());
            self.poison();
        }
    }

    /// Pushes a completion, visible now.
    pub(crate) fn push(&self, cqe: Cqe) {
        self.push_at(cqe, SimTime::ZERO);
    }

    /// Hands over a completion that surfaces at `at` (or now): it takes its
    /// slot now, and poisons the CQ now if there is none.
    pub(crate) fn push_at(&self, cqe: Cqe, at: SimTime) {
        if self.inner.overflowed.get() {
            return; // poisoned: completions are lost
        }
        let at = at.max(now());
        settle(&mut self.inner.waiters.borrow_mut());
        {
            let mut q = self.inner.queue.borrow_mut();
            if q.len() >= self.inner.capacity {
                drop(q);
                self.poison();
                return;
            }
            q.push_due(at, cqe);
            self.inner.fabric.telem.cq_cqes.inc();
            self.inner.fabric.telem.cq_depth.add(1);
        }
        // A blocked consumer first; a `next()` one only once every blocked
        // one is armed.
        let mut waiters = self.inner.waiters.borrow_mut();
        arm(&mut waiters, at, true);
        self.give_back(&mut waiters);
    }

    /// Non-blocking poll, like `ibv_poll_cq`.
    pub fn poll(&self) -> Option<Cqe> {
        let mut polled = None;
        self.take(1, |cqe| polled = Some(cqe));
        polled
    }

    /// Non-blocking batch poll, like `ibv_poll_cq(cq, N, wc)`: pops up to
    /// the free capacity of `out`, in completion order; how many it took.
    pub fn poll_batch<const N: usize>(&self, out: &mut kdbuf::ArrayVec<Cqe, N>) -> usize {
        self.take(N - out.len(), |cqe| {
            let _ = out.push(cqe);
        })
    }

    /// As [`poll_batch`](Self::poll_batch), appending at most `max` to a
    /// caller-pooled `Vec`.
    pub fn drain_into(&self, out: &mut Vec<Cqe>, max: usize) -> usize {
        self.take(max, |cqe| out.push(cqe))
    }

    /// Pops up to `max` completions into `put`, in completion order.
    fn take(&self, max: usize, mut put: impl FnMut(Cqe)) -> usize {
        let mut q = self.inner.queue.borrow_mut();
        let n = max.min(q.due(now()));
        for (_, cqe) in std::iter::from_fn(|| q.pop_front()).take(n) {
            put(cqe);
        }
        drop(q);
        self.inner.fabric.telem.cq_depth.sub(n as u64);
        if n > 0 {
            self.restate(&mut self.inner.waiters.borrow_mut());
        }
        n
    }

    /// [`restate`](Self::restate) after a change that can only make a wake
    /// find something — a hand-over, a consumer leaving, a poison — where
    /// only a wake taken back can change.
    fn give_back(&self, waiters: &mut Waiters) {
        if waiters.iter().any(Arm::held) {
            self.restate(waiters);
        }
    }

    /// Restates every armed consumer's wake after a change. One whose wake
    /// would find no CQE and leave it unarmed has its timer taken back: no
    /// CQE surfaces by its due instant, and each one queued has as many
    /// consumers armed for its instant as that instant has CQEs. One taken
    /// back that a change made otherwise — a CQE to find, one to be armed
    /// for, a poisoned CQ — has it given back. The rest are settled: a wake
    /// taken back whose turn has come left its consumer parked, unarmed.
    fn restate(&self, waiters: &mut Waiters) {
        settle(waiters);
        if !waiters.iter().any(Arm::pending) {
            return;
        }
        let q = self.inner.queue.borrow();
        let mut run = (SimTime::ZERO, 0);
        let claimed = !self.overflowed()
            && q.iter().all(|&(at, _)| {
                run = (at, if run.0 == at { run.1 + 1 } else { 1 });
                waiters.iter().filter(|p| p.at == Some(at)).count() >= run.1
            });
        let first = q.front().map(|&(at, _)| at);
        drop(q);
        for (p, waker) in waiters.iter_mut().filter(|(p, _)| p.pending()) {
            if claimed && first.is_none_or(|at| p.due().is_some_and(|due| at > due)) {
                p.take_back();
            } else {
                p.give_back(waker);
            }
        }
    }

    /// Waits for the next completion; `None` — the CQ is dead — only once an
    /// overflowed queue is empty (what was queued before the overflow is
    /// still served at its instant). Parks like [`wait`](Self::wait) with no
    /// wake-up, behind the blocked consumers.
    pub async fn next(&self) -> Option<Cqe> {
        self.park(None).await;
        self.poll()
    }

    /// Blocks like a thread in `ibv_get_cq_event`: returns `wakeup` after
    /// the completion that ends the wait surfaced, with it and whatever
    /// arrived behind it still queued, on the one timer its push armed. At
    /// once if the CQ is not empty. `false`: the CQ is dead (overflowed and
    /// drained). Any number of consumers may block here; one that wakes to a
    /// queue somebody else has emptied is parked again, in place.
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

    /// Arms the consumer `ticket`, woken and parked again, for the earliest
    /// scheduled CQE nobody is armed for (CQEs of one instant are
    /// interchangeable) — on a dead CQ, for the last scheduled one if every
    /// one is taken, so that it sees the queue run dry. Whether it armed it.
    fn arm_parked(&self, waiters: &mut Waiters, ticket: u64, waker: &Waker) -> bool {
        let parked = waiters.get_mut(ticket).expect("parked");
        *parked = Arm::new(parked.cost());
        let q = self.inner.queue.borrow();
        let mut scheduled = q.iter_from(q.due(now()));
        let mut run = (SimTime::ZERO, 0);
        let unclaimed = scheduled.clone().find_map(|&(at, _)| {
            run = (at, if run.0 == at { run.1 + 1 } else { 1 });
            (waiters.iter().filter(|p| p.at == Some(at)).count() < run.1).then_some(at)
        });
        let dry = scheduled.next_back().filter(|_| self.overflowed());
        let at = unclaimed.or(dry.map(|s| s.0));
        if let Some(at) = at {
            waiters.get_mut(ticket).expect("parked").set(at, waker);
        }
        at.is_some()
    }

    pub fn len(&self) -> usize {
        self.inner.queue.borrow().due(now())
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
        let dead = cq.overflowed();
        let mut waiters = cq.inner.waiters.borrow_mut();
        settle(&mut waiters);
        // A parked consumer is listed until it returns or is dropped. Armed:
        // only its instant ends the wait. Not armed: only poisoning.
        let parked = self.ticket.and_then(|t| waiters.get_mut(t));
        let woken = parked.is_none_or(|p| p.due().map_or(dead, |due| due <= sim::now()));
        let visible = cq.len();
        if woken && (visible > 0 || (dead && cq.inner.queue.borrow().is_empty())) {
            if let Some(ticket) = self.ticket.take() {
                waiters.remove(ticket);
            }
            return Poll::Ready(visible > 0);
        }
        let ticket = match self.ticket {
            Some(ticket) => waiters.repark(ticket, cx.waker()).map(|_| ticket),
            None => Some(waiters.park(cx.waker(), Arm::new(self.wakeup))),
        };
        self.ticket = ticket;
        if woken {
            // Parked again, unarmed: the next push arms it, or a scheduled
            // CQE nobody is armed for does now.
            // A CQE it claims may be what another consumer's wake would
            // have found unclaimed.
            if cq.arm_parked(&mut waiters, ticket.expect("parked"), cx.waker()) {
                cq.restate(&mut waiters);
            }
        }
        Poll::Pending
    }
}

impl Drop for Wait<'_> {
    /// A consumer that stops waiting leaves the list. A scheduled CQE it was
    /// armed for goes to the next in line; a visible one's wake of a blocked
    /// consumer passes to the next blocked one.
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        let mut waiters = self.cq.inner.waiters.borrow_mut();
        settle(&mut waiters);
        let Some((parked, at)) = waiters.leave(ticket) else {
            return;
        };
        let now = sim::now();
        if at > now {
            arm(&mut waiters, at, true);
        } else if parked.cost().is_some() && !self.cq.is_empty() {
            arm(&mut waiters, now, false);
        }
        self.cq.give_back(&mut waiters);
    }
}
