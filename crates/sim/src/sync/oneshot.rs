//! A one-shot channel: a single value passed from one producer to one
//! consumer.
//!
//! [`channel`] allocates a cell per channel. A [`Pool`] recycles them: a cell
//! goes back to its pool, emptied, once both of its ends have dropped.
//! [`Receiver::charged`] receives as a thread that pays a CPU cost once the
//! value arrives: the wake and the charge are one event.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use super::wait_list::Arm;
use crate::time::{now, try_now, SimTime};
use crate::InlineDeque;

struct State<T> {
    value: Option<T>,
    closed: bool,
    waker: Option<Waker>,
    /// A parked [`Charged`] receive's cost, and the instant it was armed at.
    arm: Arm,
}

struct Chan<T> {
    state: RefCell<State<T>>,
    /// The pool the cell returns to; dangling for [`channel`].
    pool: Weak<FreeList<T>>,
}

/// Last in, first out; a pool that never has two cells free allocates none.
type FreeList<T> = RefCell<InlineDeque<Rc<Chan<T>>>>;

/// Sending half; consumed by [`Sender::send`].
pub struct Sender<T> {
    chan: Rc<Chan<T>>,
}

/// Receiving half; a future resolving to `Result<T, RecvError>`.
pub struct Receiver<T> {
    chan: Rc<Chan<T>>,
}

/// The sender was dropped without sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oneshot sender dropped without sending")
    }
}

impl std::error::Error for RecvError {}

fn pair<T>(pool: Weak<FreeList<T>>) -> (Sender<T>, Receiver<T>) {
    let state = RefCell::new(State {
        value: None,
        closed: false,
        waker: None,
        arm: Arm::default(),
    });
    on(Rc::new(Chan { state, pool }))
}

fn on<T>(chan: Rc<Chan<T>>) -> (Sender<T>, Receiver<T>) {
    (
        Sender {
            chan: Rc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// Creates a connected sender/receiver pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    pair(Weak::new())
}

/// Recycled channel cells. Every cell a pool makes comes back to it while
/// the pool lives; one whose ends outlive the pool is freed instead.
pub struct Pool<T> {
    free: Rc<FreeList<T>>,
}

impl<T> Pool<T> {
    pub fn new() -> Self {
        Pool {
            free: Rc::default(),
        }
    }

    /// A connected pair on a recycled cell, or on a new one if none is free.
    pub fn channel(&self) -> (Sender<T>, Receiver<T>) {
        let recycled = self.free.borrow_mut().pop_back();
        match recycled {
            Some(chan) => on(chan),
            None => pair(Rc::downgrade(&self.free)),
        }
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Run by each end as it drops: the last one out returns the cell, emptied,
/// to its pool. No borrow of the cell is held while the leftovers drop or
/// the free list is borrowed — either may reach this pool again.
fn release<T>(chan: &Rc<Chan<T>>) {
    if Rc::strong_count(chan) != 1 {
        return;
    }
    let Some(free) = chan.pool.upgrade() else {
        return;
    };
    let leftovers = {
        let mut s = chan.state.borrow_mut();
        s.closed = false;
        s.arm = Arm::default();
        (s.value.take(), s.waker.take())
    };
    drop(leftovers);
    free.borrow_mut().push_back(Rc::clone(chan));
}

impl<T> Sender<T> {
    /// Sends the value, arming a parked receive. Fails (returning it) if
    /// the receiver was dropped.
    pub fn send(self, value: T) -> Result<(), T> {
        if self.is_closed() {
            return Err(value);
        }
        let mut s = self.chan.state.borrow_mut();
        s.value = Some(value);
        if let Some(waker) = s.waker.take() {
            s.arm.set(try_now().unwrap_or(SimTime::ZERO), &waker);
        }
        Ok(())
    }

    /// True if the receiver half is gone.
    pub fn is_closed(&self) -> bool {
        Rc::strong_count(&self.chan) == 1
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.chan.state.borrow_mut();
        s.closed = true;
        if let Some(w) = s.waker.take() {
            w.wake();
        }
        drop(s);
        release(&self.chan);
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        release(&self.chan);
    }
}

impl<T> Future for Receiver<T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.poll_charged(cx, Duration::ZERO)
    }
}

impl<T> Receiver<T> {
    /// Receives as a thread that pays `cost` of CPU once the value is in: a
    /// send at T wakes a receive parked on it once, at T + cost. A value
    /// sent before the first poll is charged from that poll; a dropped
    /// sender fails the receive at once. A zero cost is a plain receive.
    pub fn charged(self, cost: Duration) -> Charged<T> {
        Charged { rx: self, cost }
    }

    fn poll_charged(&self, cx: &mut Context<'_>, cost: Duration) -> Poll<Result<T, RecvError>> {
        let mut s = self.chan.state.borrow_mut();
        let cost = Some(cost).filter(|c| !c.is_zero());
        if s.value.is_some() {
            if cost.is_some() {
                if s.arm.at.is_none() || s.arm.cost != cost {
                    // Sent before this receive parked: charged from now.
                    s.arm = Arm::new(cost);
                    s.arm.set(now(), cx.waker());
                }
                if s.arm.due().is_some_and(|due| due > now()) {
                    return Poll::Pending;
                }
            }
            s.arm = Arm::default();
            return Poll::Ready(s.value.take().ok_or(RecvError));
        }
        if s.closed {
            return Poll::Ready(Err(RecvError));
        }
        s.waker = Some(cx.waker().clone());
        s.arm = Arm::new(cost);
        Poll::Pending
    }

    /// Non-blocking check: `Some(Ok(v))` if the value has arrived,
    /// `Some(Err(_))` if the sender is gone, `None` if still pending.
    pub fn try_recv(&mut self) -> Option<Result<T, RecvError>> {
        let mut s = self.chan.state.borrow_mut();
        let value = s.value.take().map(Ok);
        value.or_else(|| s.closed.then_some(Err(RecvError)))
    }
}

/// Future returned by [`Receiver::charged`].
pub struct Charged<T> {
    rx: Receiver<T>,
    cost: Duration,
}

impl<T> Future for Charged<T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.rx.poll_charged(cx, self.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    #[test]
    fn send_then_recv() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, rx) = channel();
            tx.send(9u8).unwrap();
            assert_eq!(rx.await, Ok(9));
        });
    }

    #[test]
    fn recv_waits_for_send() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, rx) = channel();
            crate::spawn(async move {
                crate::time::sleep(std::time::Duration::from_micros(3)).await;
                tx.send("hi").unwrap();
            });
            assert_eq!(rx.await, Ok("hi"));
            assert_eq!(crate::now().as_nanos(), 3_000);
        });
    }

    #[test]
    fn dropped_sender_errors() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, rx) = channel::<u8>();
            drop(tx);
            assert_eq!(rx.await, Err(RecvError));
        });
    }

    #[test]
    fn dropped_receiver_fails_send() {
        let (tx, rx) = channel::<u8>();
        drop(rx);
        assert!(tx.is_closed());
        assert_eq!(tx.send(1), Err(1));
    }

    impl<T> Pool<T> {
        /// Cells parked on the free list.
        fn idle(&self) -> usize {
            self.free.borrow().len()
        }
    }

    /// Counts the wakes of the task it stands for.
    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl CountingWaker {
        fn new() -> Arc<Self> {
            Arc::new(CountingWaker(AtomicUsize::new(0)))
        }

        fn wakes(&self) -> usize {
            self.0.load(Ordering::Relaxed)
        }

        /// Polls `rx` once on this waker; `true` if it was still pending.
        fn park<F: Future + Unpin>(self: &Arc<Self>, rx: &mut F) -> bool {
            let waker = Waker::from(Arc::clone(self));
            Pin::new(rx)
                .poll(&mut Context::from_waker(&waker))
                .is_pending()
        }
    }

    #[test]
    fn pool_dropped_receiver_fails_send_and_recycles() {
        let pool = Pool::new();
        let (tx, rx) = pool.channel();
        drop(rx);
        assert_eq!(pool.idle(), 0, "the sender still holds the cell");
        assert!(tx.is_closed());
        assert_eq!(tx.send(7u32), Err(7), "the value comes back");
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pool_recycles_a_cell_dropped_unread_empty() {
        let pool = Pool::new();
        let waker = CountingWaker::new();
        let (tx, mut rx) = pool.channel();
        let cell = Rc::as_ptr(&rx.chan);
        assert!(waker.park(&mut rx));
        tx.send(5u32).unwrap();
        assert_eq!(waker.wakes(), 1);
        drop(rx); // unread: the value is still in the cell
        assert_eq!(pool.idle(), 1);

        // A parked receiver that goes away leaves its waker in the cell; the
        // sender's drop wakes it, as it does without a pool.
        let (tx, mut rx) = pool.channel();
        assert_eq!(Rc::as_ptr(&rx.chan), cell, "the recycled cell");
        assert!(waker.park(&mut rx));
        drop(rx);
        drop(tx);
        assert_eq!(waker.wakes(), 2);

        let (tx, mut rx) = pool.channel();
        assert_eq!(Rc::as_ptr(&rx.chan), cell, "the same cell a third time");
        assert_eq!(rx.try_recv(), None, "no value and no closed flag left over");
        tx.send(6).unwrap();
        assert_eq!(waker.wakes(), 2, "no stale waker left over");
        assert_eq!(rx.try_recv(), Some(Ok(6)));
    }

    /// Either drop order, parked or not. A `Sender::drop` that still held its
    /// borrow of the cell when it recycled would panic here, in a destructor.
    #[test]
    fn pool_recycles_a_cell_only_after_both_ends_drop() {
        let pool = Pool::<u32>::new();
        let waker = CountingWaker::new();
        for (sender_first, parked) in [(true, false), (false, false), (true, true), (false, true)] {
            let (tx, mut rx) = pool.channel();
            if parked {
                assert!(waker.park(&mut rx));
            }
            if sender_first {
                drop(tx);
                assert_eq!(pool.idle(), 0);
                assert_eq!(rx.try_recv(), Some(Err(RecvError)));
                drop(rx);
            } else {
                drop(rx);
                assert_eq!(pool.idle(), 0);
                drop(tx);
            }
            let case = format!("sender first {sender_first}, parked {parked}");
            assert_eq!(pool.idle(), 1, "{case}");
        }
    }

    #[test]
    fn pool_of_a_bounded_stream_creates_no_more_cells_than_in_flight() {
        let pool = Pool::new();
        let mut cells = std::collections::HashSet::new();
        let mut in_flight = std::collections::VecDeque::new();
        for i in 0..10_000u32 {
            if in_flight.len() == 4 {
                let (tx, mut rx): (Sender<u32>, Receiver<u32>) = in_flight.pop_front().unwrap();
                tx.send(i).unwrap();
                assert_eq!(rx.try_recv(), Some(Ok(i)));
            }
            let (tx, rx) = pool.channel();
            cells.insert(Rc::as_ptr(&tx.chan));
            in_flight.push_back((tx, rx));
        }
        drop(in_flight);
        assert_eq!((cells.len(), pool.idle()), (4, 4));
    }

    /// Polls the root takes to receive on `rx`, and the instant it got it.
    async fn receive<F: Future>(rx: F) -> (F::Output, u32, SimTime) {
        let mut rx = std::pin::pin!(rx);
        let mut polls = 0;
        let out = std::future::poll_fn(|cx| {
            polls += 1;
            rx.as_mut().poll(cx)
        })
        .await;
        (out, polls, crate::now())
    }

    fn micros(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn pending_timers() -> usize {
        crate::executor::with_current(|inner| inner.pending_timers())
    }

    #[test]
    fn charged_returns_exactly_its_cost_after_the_send_on_one_wake() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, rx) = channel();
            crate::spawn(async move {
                crate::time::sleep(Duration::from_micros(3)).await;
                tx.send(4u8).unwrap();
            });
            let got = receive(rx.charged(Duration::from_micros(5))).await;
            assert_eq!(
                got,
                (Ok(4), 2, micros(8)),
                "parked once, woken once, at send + cost"
            );
        });
    }

    #[test]
    fn charged_value_sent_before_the_first_poll_is_charged_from_that_poll() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, rx) = channel();
            tx.send(4u8).unwrap();
            crate::time::sleep(Duration::from_micros(2)).await;
            let got = receive(rx.charged(Duration::from_micros(5))).await;
            assert_eq!(got, (Ok(4), 2, micros(7)));
            let (tx, rx) = channel();
            tx.send(5u8).unwrap();
            assert_eq!(
                receive(rx.charged(Duration::ZERO)).await,
                (Ok(5), 1, micros(7))
            );
        });
    }

    #[test]
    fn charged_fails_at_once_when_the_sender_drops() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, rx) = channel::<u8>();
            crate::spawn(async move {
                crate::time::sleep(Duration::from_micros(3)).await;
                drop(tx);
            });
            let got = receive(rx.charged(Duration::from_micros(5))).await;
            assert_eq!(got, (Err(RecvError), 2, micros(3)));
        });
    }

    #[test]
    fn charged_receive_dropped_before_the_send_arms_no_timer() {
        let rt = Runtime::new();
        rt.block_on(async {
            let waker = CountingWaker::new();
            let (tx, rx) = channel::<u32>();
            let mut charged = rx.charged(Duration::from_micros(5));
            assert!(waker.park(&mut charged));
            drop(charged);
            assert_eq!(tx.send(1), Err(1));
            // The failed send's drop wakes the waker left in the cell at
            // once, as for a plain receive; nothing is armed for later.
            assert_eq!((pending_timers(), waker.wakes()), (0, 1));
        });
    }

    #[test]
    fn a_recycled_cell_carries_no_stale_charge() {
        let rt = Runtime::new();
        rt.block_on(async {
            let pool = Pool::new();
            // Parked, sent to, and dropped before its instant: the cell
            // recycles holding a due instant.
            let (tx, rx) = pool.channel();
            let cell = Rc::as_ptr(&tx.chan);
            let mut charged = rx.charged(Duration::from_micros(5));
            let waker = CountingWaker::new();
            assert!(waker.park(&mut charged));
            tx.send(1u32).unwrap();
            drop(charged);
            // Parked and dropped unsent: it recycles holding a cost.
            let (tx, rx) = pool.channel();
            assert_eq!(Rc::as_ptr(&tx.chan), cell);
            let mut charged = rx.charged(Duration::from_micros(5));
            assert!(waker.park(&mut charged));
            drop(charged);
            drop(tx);
            for _ in 0..2 {
                let (tx, rx) = pool.channel();
                assert_eq!(Rc::as_ptr(&tx.chan), cell);
                let start = crate::now();
                crate::spawn(async move {
                    crate::time::sleep(Duration::from_micros(1)).await;
                    tx.send(2).unwrap();
                });
                let (got, _, at) = receive(rx).await;
                assert_eq!((got, at - start), (Ok(2), Duration::from_micros(1)));
            }
        });
    }

    #[test]
    fn pool_outlived_by_its_channels_frees_their_cells() {
        let pool = Pool::new();
        let (tx, rx) = pool.channel();
        drop(pool);
        tx.send(1u8).unwrap();
        drop(rx);
    }
}
