//! A single-value broadcast channel ("watch"), modelled on
//! `tokio::sync::watch`.
//!
//! The broker publishes per-partition log-end-offset changes on it. A
//! receiver parks on one [`WaitList`] until a send after the last it has
//! seen. A send wakes every parked receiver at once — except that a
//! *charged* send ([`Sender::send_charged`]) arms each receiver waiting with
//! its key in [`Receiver::changed_charged`] for the send's instant plus that
//! receiver's cost instead, the way a charged oneshot receive is armed: the
//! wake and the CPU cost paid on it are one event, and the receiver gets the
//! value the send carried.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Duration;

use super::wait_list::{Arm, WaitList, FRONTIER};
use crate::time::now;

/// A parked receiver: its charge and key, and — once a charged send armed
/// it — the value and version that send carried.
struct Parked<T> {
    arm: Arm,
    key: u64,
    sent: Option<(T, u64)>,
}

impl<T> AsMut<Arm> for Parked<T> {
    fn as_mut(&mut self) -> &mut Arm {
        &mut self.arm
    }
}

struct Shared<T> {
    value: RefCell<T>,
    /// Sends so far.
    version: Cell<u64>,
    /// Set once the sender is gone.
    closed: Cell<bool>,
    receivers: RefCell<WaitList<Parked<T>, FRONTIER>>,
}

/// Sending half: replaces the value and notifies receivers.
pub struct Sender<T> {
    shared: Rc<Shared<T>>,
}

/// Receiving half: observes the latest value and awaits changes.
pub struct Receiver<T> {
    shared: Rc<Shared<T>>,
    seen: u64,
}

/// Creates a watch channel with an initial value.
pub fn channel<T>(initial: T) -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(Shared {
        value: RefCell::new(initial),
        version: Cell::new(0),
        closed: Cell::new(false),
        receivers: RefCell::default(),
    });
    (
        Sender {
            shared: Rc::clone(&shared),
        },
        Receiver { shared, seen: 0 },
    )
}

impl<T> Sender<T> {
    /// Replaces the value and wakes every waiting receiver, longest parked
    /// first; one a charged send armed keeps its wake.
    pub fn send(&self, value: T) {
        let s = &self.shared;
        *s.value.borrow_mut() = value;
        s.version.set(s.version.get() + 1);
        s.receivers.borrow_mut().wake_where(|r| r.arm.at.is_none());
    }

    /// Creates an additional receiver that has not yet observed the current
    /// version (its first `changed().await` returns immediately).
    pub fn subscribe(&self) -> Receiver<T> {
        Receiver {
            shared: Rc::clone(&self.shared),
            seen: 0,
        }
    }
}

impl<T: Clone> Sender<T> {
    /// As [`send`](Self::send), except that a receiver waiting in
    /// [`Receiver::changed_charged`] with a cost and with `key` is armed for
    /// now plus its cost, and returns then with `value`.
    pub fn send_charged(&self, value: T, key: u64) {
        let s = &self.shared;
        let version = s.version.get() + 1;
        let mut receivers = s.receivers.borrow_mut();
        let due = |r: &Parked<T>| r.arm.at.is_none() && r.key == key && r.arm.cost().is_some();
        while let Some((r, _)) = receivers.arm(now(), due) {
            r.sent = Some((value.clone(), version));
        }
        drop(receivers);
        self.send(value);
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.closed.set(true);
        self.shared
            .receivers
            .borrow_mut()
            .wake_where(|r| r.arm.at.is_none());
    }
}

impl<T> Receiver<T> {
    /// Reads the current value (marking it seen).
    pub fn borrow_and_update<R>(&mut self, f: impl FnOnce(&T) -> R) -> R {
        self.seen = self.shared.version.get();
        f(&self.shared.value.borrow())
    }

    /// Waits until the value changes past the last version this receiver
    /// observed: one parked entry per wait, however often it is polled, and
    /// none once it is dropped. `Err(())` if the sender is gone.
    pub async fn changed(&mut self) -> Result<(), ()> {
        self.changed_charged(None, 0).await.map(drop)
    }

    /// As [`changed`](Self::changed), as a task that pays `cost` once a
    /// charged send with `key` arrives: such a send at T returns
    /// `Ok(Some(value))` at T + cost, with the value it sent and the version
    /// it made seen, whatever is sent meanwhile. Any other send returns
    /// `Ok(None)` at once, as does a change made before the first poll.
    pub fn changed_charged(&mut self, cost: Option<Duration>, key: u64) -> Changed<'_, T> {
        Changed {
            rx: self,
            cost,
            key,
            ticket: None,
        }
    }
}

/// Future returned by [`Receiver::changed_charged`].
pub struct Changed<'a, T> {
    rx: &'a mut Receiver<T>,
    cost: Option<Duration>,
    key: u64,
    ticket: Option<u64>,
}

impl<T> Changed<'_, T> {
    /// Whether a charged send armed it: it returns at that send's instant
    /// plus its cost.
    pub fn armed(&self) -> bool {
        let mut receivers = self.rx.shared.receivers.borrow_mut();
        let parked = self.ticket.and_then(|t| receivers.get_mut(t));
        parked.is_some_and(|r| r.arm.at.is_some())
    }
}

impl<T> Future for Changed<'_, T> {
    type Output = Result<Option<T>, ()>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let s = Rc::clone(&this.rx.shared);
        let mut receivers = s.receivers.borrow_mut();
        if let Some(ticket) = this.ticket {
            match receivers.get_mut(ticket) {
                // Armed by a charged send: only its instant ends the wait.
                Some(r) if r.arm.due().is_some_and(|due| due <= now()) => {
                    let (value, version) = r.sent.take().expect("armed by a charged send");
                    receivers.remove(ticket);
                    this.ticket = None;
                    this.rx.seen = version;
                    return Poll::Ready(Ok(Some(value)));
                }
                Some(_) => {
                    receivers.repark(ticket, cx.waker());
                    return Poll::Pending;
                }
                // Unparked by a send, or by the sender's drop.
                None => this.ticket = None,
            }
        }
        let version = s.version.get();
        if version > this.rx.seen {
            this.rx.seen = version;
            return Poll::Ready(Ok(None));
        }
        if s.closed.get() {
            return Poll::Ready(Err(()));
        }
        let parked = Parked {
            arm: Arm::new(this.cost),
            key: this.key,
            sent: None,
        };
        this.ticket = Some(receivers.park(cx.waker(), parked));
        Poll::Pending
    }
}

impl<T> Drop for Changed<'_, T> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket {
            self.rx.shared.receivers.borrow_mut().remove(ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::time::Duration;

    #[test]
    fn receives_latest_value() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = channel(0u64);
            tx.send(1);
            tx.send(2);
            rx.changed().await.unwrap();
            assert_eq!(rx.borrow_and_update(|v| *v), 2);
        });
    }

    #[test]
    fn changed_waits() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = channel(0u64);
            rx.borrow_and_update(|_| ());
            crate::spawn(async move {
                crate::time::sleep(Duration::from_micros(7)).await;
                tx.send(5);
                // Keep the sender alive until after the assertion.
                crate::time::sleep(Duration::from_micros(7)).await;
            });
            rx.changed().await.unwrap();
            assert_eq!(crate::now().as_nanos(), 7_000);
            assert_eq!(rx.borrow_and_update(|v| *v), 5);
        });
    }

    #[test]
    fn sender_drop_errors() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = channel(0u64);
            rx.borrow_and_update(|_| ());
            drop(tx);
            assert_eq!(rx.changed().await, Err(()));
        });
    }

    #[test]
    fn a_timed_out_wait_leaves_no_waker() {
        let rt = Runtime::new();
        let tx = rt.block_on(async {
            let (tx, mut rx) = channel(0u64);
            // The replica long-poll's shape: `timeout` polls the wait on entry
            // and again when its timer fires, then drops it.
            crate::spawn_detached(async move {
                for _ in 0..1_000 {
                    let waited = crate::time::timeout(Duration::from_micros(1), rx.changed());
                    assert!(waited.await.is_err());
                }
                crate::time::sleep(Duration::from_secs(1)).await;
                drop(rx);
            });
            crate::time::sleep(Duration::from_millis(2)).await;
            tx
        });
        // The waiter is parked in its `sleep`: the send has nobody to wake.
        let before = rt.poll_count();
        rt.block_on(async move {
            tx.send(1);
            crate::time::yield_now().await;
        });
        assert_eq!(
            rt.poll_count() - before,
            2,
            "root only: start and the yield"
        );
    }
}
