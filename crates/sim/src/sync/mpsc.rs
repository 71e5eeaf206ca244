//! Unbounded multi-producer single-consumer channels: the control plane's
//! plumbing, e.g. a listener's queue of incoming connections. The receiver
//! waits on a [`Frontier`] of sends for the one after the last it took.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use super::Frontier;
use crate::InlineDeque;

/// The receiver was dropped; contains the rejected value.
#[derive(Debug)]
pub struct SendError<T>(pub T);

struct Shared<T> {
    queue: RefCell<InlineDeque<T>>,
    /// Sends so far while a sender lives, `u64::MAX` once the last is gone.
    sent: Frontier,
    /// Senders alive: the receiver is gone once they are all there is.
    senders: Cell<usize>,
}

/// Sending half; cloneable.
pub struct Sender<T> {
    shared: Rc<Shared<T>>,
}

/// Receiving half.
pub struct Receiver<T> {
    shared: Rc<Shared<T>>,
    /// Values taken so far.
    taken: u64,
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(Shared {
        queue: RefCell::default(),
        sent: Frontier::default(),
        senders: Cell::new(1),
    });
    let tx = Rc::clone(&shared);
    (Sender { shared: tx }, Receiver { shared, taken: 0 })
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.set(self.shared.senders.get() + 1);
        let shared = Rc::clone(&self.shared);
        Sender { shared }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let s = &self.shared;
        s.senders.set(s.senders.get() - 1);
        if s.senders.get() == 0 {
            s.sent.advance_to(u64::MAX);
        }
    }
}

impl<T> Sender<T> {
    /// Queues `value`; fails, returning it, once the receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), SendError<T>> {
        let s = &self.shared;
        if Rc::strong_count(s) == s.senders.get() {
            return Err(SendError(value));
        }
        s.queue.borrow_mut().push_back(value);
        s.sent.advance_to(s.sent.get() + 1);
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Receives the next value, or `None` once all senders are gone and the
    /// queue is drained.
    pub async fn recv(&mut self) -> Option<T> {
        self.shared.sent.reached(self.taken + 1).await;
        let value = self.shared.queue.borrow_mut().pop_front();
        self.taken += value.is_some() as u64;
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::time::Duration;

    #[test]
    fn unbounded_fifo() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = unbounded();
            for i in 0..5 {
                tx.try_send(i).unwrap();
            }
            for i in 0..5 {
                assert_eq!(rx.recv().await, Some(i));
            }
        });
    }

    #[test]
    fn recv_none_after_senders_drop() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = unbounded::<u8>();
            tx.try_send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv().await, Some(1));
            assert_eq!(rx.recv().await, None);
        });
    }

    #[test]
    fn multi_producer_order_is_arrival_order() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = unbounded();
            for i in 0..4u32 {
                let tx = tx.clone();
                crate::spawn(async move {
                    crate::time::sleep(Duration::from_micros(u64::from(4 - i))).await;
                    tx.try_send(i).unwrap();
                });
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            assert_eq!(got, vec![3, 2, 1, 0]);
        });
    }

    #[test]
    fn send_to_dropped_receiver_fails() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.try_send(1).map_err(|e| e.0), Err(1));
    }
}
