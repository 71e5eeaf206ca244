//! A broadcast notification, modelled on `tokio::sync::Notify`.
//!
//! Used where tasks need to be told "state you care about changed": e.g. a
//! QP's error state, a broker shutting down, a replication session dying.
//! There is no stored permit: a waiter re-checks its condition after every
//! wake, and a broadcast with nobody waiting is lost.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use super::WaitList;

#[derive(Default)]
struct State {
    waiters: WaitList<()>,
    /// Broadcasts so far.
    epoch: u64,
}

/// Wakes every waiting task at once. Held inline by its owner; the
/// [`Notified`] futures borrow it.
#[derive(Default)]
pub struct Notify {
    state: RefCell<State>,
}

impl Notify {
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes all current waiters.
    pub fn notify_waiters(&self) {
        let mut s = self.state.borrow_mut();
        s.epoch += 1;
        s.waiters.wake_all();
    }

    /// Waits for the next broadcast after this call.
    pub fn notified(&self) -> Notified<'_> {
        Notified {
            notify: self,
            ticket: None,
            epoch: self.state.borrow().epoch,
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified<'a> {
    notify: &'a Notify,
    ticket: Option<u64>,
    epoch: u64,
}

impl Future for Notified<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.notify.state.borrow_mut();
        if s.epoch != self.epoch {
            return Poll::Ready(());
        }
        // Only a broadcast unparks a waiter, and it moves the epoch.
        if self.ticket.and_then(|t| s.waiters.repark(t, cx.waker())).is_none() {
            let ticket = s.waiters.park(cx.waker(), ());
            drop(s);
            self.ticket = Some(ticket);
        }
        Poll::Pending
    }
}

impl Drop for Notified<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket {
            self.notify.state.borrow_mut().waiters.remove(ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

    #[test]
    fn notify_waiters_wakes_all() {
        let rt = Runtime::new();
        rt.block_on(async {
            let n = Rc::new(Notify::new());
            let count = Rc::new(Cell::new(0));
            for _ in 0..3 {
                let n = Rc::clone(&n);
                let count = Rc::clone(&count);
                crate::spawn(async move {
                    n.notified().await;
                    count.set(count.get() + 1);
                });
            }
            crate::time::sleep(Duration::from_micros(1)).await;
            n.notify_waiters();
            crate::time::sleep(Duration::from_micros(1)).await;
            assert_eq!(count.get(), 3);
        });
    }
}
