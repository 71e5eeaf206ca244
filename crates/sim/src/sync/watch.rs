//! A single-value broadcast channel ("watch"), modelled on
//! `tokio::sync::watch`.
//!
//! The broker uses this to publish per-partition high-watermark changes to
//! interested tasks (e.g. delayed TCP fetches waiting for new data).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use super::WaitList;

struct Shared<T> {
    value: T,
    version: u64,
    sender_alive: bool,
    waiters: WaitList<()>,
}

/// Sending half: replaces the value and notifies receivers.
pub struct Sender<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

/// Receiving half: observes the latest value and awaits changes.
pub struct Receiver<T> {
    shared: Rc<RefCell<Shared<T>>>,
    seen: u64,
}

/// Creates a watch channel with an initial value.
pub fn channel<T>(initial: T) -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(RefCell::new(Shared {
        value: initial,
        version: 0,
        sender_alive: true,
        waiters: WaitList::default(),
    }));
    (
        Sender {
            shared: Rc::clone(&shared),
        },
        Receiver { shared, seen: 0 },
    )
}

impl<T> Sender<T> {
    /// Replaces the value and wakes all waiting receivers.
    pub fn send(&self, value: T) {
        let mut s = self.shared.borrow_mut();
        s.value = value;
        s.version += 1;
        s.waiters.wake_all();
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

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.borrow_mut();
        s.sender_alive = false;
        s.waiters.wake_all();
    }
}

impl<T> Receiver<T> {
    /// Reads the current value (marking it seen).
    pub fn borrow_and_update<R>(&mut self, f: impl FnOnce(&T) -> R) -> R {
        let s = self.shared.borrow();
        self.seen = s.version;
        f(&s.value)
    }

    /// Waits until the value changes past the last version this receiver
    /// observed. Returns `Err(())` if the sender is gone.
    pub fn changed(&mut self) -> Changed<'_, T> {
        Changed {
            rx: self,
            ticket: None,
        }
    }
}

/// Future returned by [`Receiver::changed`]: one parked entry per wait,
/// however often it is polled, and none once it is dropped.
pub struct Changed<'a, T> {
    rx: &'a mut Receiver<T>,
    ticket: Option<u64>,
}

impl<T> Future for Changed<'_, T> {
    type Output = Result<(), ()>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<(), ()>> {
        let this = &mut *self;
        let mut s = this.rx.shared.borrow_mut();
        if s.version != this.rx.seen {
            this.rx.seen = s.version;
            return Poll::Ready(Ok(()));
        }
        if !s.sender_alive {
            return Poll::Ready(Err(()));
        }
        if this.ticket.and_then(|t| s.waiters.repark(t, cx.waker())).is_none() {
            this.ticket = Some(s.waiters.park(cx.waker(), ()));
        }
        Poll::Pending
    }
}

impl<T> Drop for Changed<'_, T> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket {
            self.rx.shared.borrow_mut().waiters.remove(ticket);
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
        assert_eq!(rt.poll_count() - before, 2, "root only: start and the yield");
    }
}
