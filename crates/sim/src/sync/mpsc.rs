//! Unbounded multi-producer single-consumer channels: the control plane's
//! plumbing, e.g. a listener's queue of incoming connections. (The broker's
//! shared request queue is [`HandoffQueue`](super::HandoffQueue).)

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// The receiver was dropped; contains the rejected value.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel closed")
    }
}

struct Shared<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    recv_waker: Option<Waker>,
}

impl<T> Shared<T> {
    fn wake_recv(&mut self) {
        if let Some(w) = self.recv_waker.take() {
            w.wake();
        }
    }
}

/// Sending half; cloneable.
pub struct Sender<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

/// Receiving half.
pub struct Receiver<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(RefCell::new(Shared {
        queue: VecDeque::new(),
        senders: 1,
        receiver_alive: true,
        recv_waker: None,
    }));
    (
        Sender {
            shared: Rc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.borrow_mut().senders += 1;
        Sender {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.borrow_mut();
        s.senders -= 1;
        if s.senders == 0 {
            s.wake_recv();
        }
    }
}

impl<T> Sender<T> {
    /// Queues `value`; fails, returning it, once the receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), SendError<T>> {
        let mut s = self.shared.borrow_mut();
        if !s.receiver_alive {
            return Err(SendError(value));
        }
        s.queue.push_back(value);
        s.wake_recv();
        Ok(())
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.borrow_mut().receiver_alive = false;
    }
}

impl<T> Receiver<T> {
    /// Receives the next value, or `None` once all senders are gone and the
    /// queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { receiver: self }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    receiver: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut s = self.receiver.shared.borrow_mut();
        if let Some(v) = s.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if s.senders == 0 {
            return Poll::Ready(None);
        }
        s.recv_waker = Some(cx.waker().clone());
        Poll::Pending
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
