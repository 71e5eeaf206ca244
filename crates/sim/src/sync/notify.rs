//! A broadcast notification, modelled on `tokio::sync::Notify`.
//!
//! Used where tasks need to be told "state you care about changed": e.g. a
//! QP's error state, a broker shutting down, a replication session dying.
//! There is no stored permit: a waiter re-checks its condition after every
//! wake, and a broadcast with nobody waiting is lost. It is a [`Frontier`]
//! of broadcasts: `notified()` waits for the count to pass the one it read,
//! so every broadcast passes every waiter.

use super::frontier::{Frontier, Reached};

/// Wakes every waiting task at once. Held inline by its owner; the futures
/// [`notified`](Self::notified) returns borrow it.
#[derive(Default)]
pub struct Notify {
    /// Broadcasts so far.
    epoch: Frontier,
}

impl Notify {
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes all current waiters, longest parked first.
    pub fn notify_waiters(&self) {
        self.epoch.advance_to(self.epoch.get() + 1);
    }

    /// Waits for the next broadcast after this call.
    pub fn notified(&self) -> Reached<'_> {
        self.epoch.reached(self.epoch.get() + 1)
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
