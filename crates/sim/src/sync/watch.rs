//! A single-value broadcast channel ("watch"), modelled on
//! `tokio::sync::watch`.
//!
//! The broker publishes per-partition log-end-offset changes on it. A
//! receiver waits on a [`Frontier`] of sends for the one after the last it
//! has seen.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use super::Frontier;

struct Shared<T> {
    value: RefCell<T>,
    /// Sends so far.
    version: Cell<u64>,
    /// `version` while the sender lives, `u64::MAX` once it is gone.
    wake: Frontier,
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
        wake: Frontier::default(),
    });
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
        let s = &self.shared;
        *s.value.borrow_mut() = value;
        s.version.set(s.version.get() + 1);
        s.wake.advance_to(s.version.get());
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
        self.shared.wake.advance_to(u64::MAX);
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
        let s = &self.shared;
        s.wake.reached(self.seen + 1).await;
        if s.version.get() == self.seen {
            return Err(()); // woken by the sender's drop
        }
        self.seen = s.version.get();
        Ok(())
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
