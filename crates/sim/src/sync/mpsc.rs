//! Multi-producer single-consumer channels (bounded and unbounded).
//!
//! Most control-plane plumbing uses unbounded channels. (The broker's
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

/// Error for [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// Bounded channel at capacity.
    Full(T),
    /// Receiver dropped.
    Closed(T),
}

struct Shared<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    senders: usize,
    receiver_alive: bool,
    recv_waker: Option<Waker>,
    send_wakers: VecDeque<Waker>,
}

impl<T> Shared<T> {
    fn wake_recv(&mut self) {
        if let Some(w) = self.recv_waker.take() {
            w.wake();
        }
    }

    fn wake_one_sender(&mut self) {
        if let Some(w) = self.send_wakers.pop_front() {
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
    with_capacity(None)
}

/// Creates a bounded channel with the given capacity (must be > 0).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "mpsc capacity must be positive");
    with_capacity(Some(capacity))
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(RefCell::new(Shared {
        queue: VecDeque::new(),
        capacity,
        senders: 1,
        receiver_alive: true,
        recv_waker: None,
        send_wakers: VecDeque::new(),
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
    /// Sends, waiting (in virtual time) for space on a bounded channel.
    pub async fn send(&self, mut value: T) -> Result<(), SendError<T>> {
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Closed(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    SendReady {
                        shared: &self.shared,
                    }
                    .await;
                }
            }
        }
    }

    /// Non-blocking send.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut s = self.shared.borrow_mut();
        if !s.receiver_alive {
            return Err(TrySendError::Closed(value));
        }
        if let Some(cap) = s.capacity {
            if s.queue.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        s.queue.push_back(value);
        s.wake_recv();
        Ok(())
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.shared.borrow().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the receiver is gone.
    pub fn is_closed(&self) -> bool {
        !self.shared.borrow().receiver_alive
    }
}

/// Future that resolves when a bounded channel may have space.
struct SendReady<'a, T> {
    shared: &'a Rc<RefCell<Shared<T>>>,
}

impl<T> Future for SendReady<'_, T> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.shared.borrow_mut();
        if !s.receiver_alive {
            return Poll::Ready(());
        }
        match s.capacity {
            Some(cap) if s.queue.len() >= cap => {
                s.send_wakers.push_back(cx.waker().clone());
                Poll::Pending
            }
            _ => Poll::Ready(()),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.shared.borrow_mut();
        s.receiver_alive = false;
        // Unblock all pending senders so they observe closure.
        while let Some(w) = s.send_wakers.pop_front() {
            w.wake();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next value, or `None` once all senders are gone and the
    /// queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<T> {
        let mut s = self.shared.borrow_mut();
        let v = s.queue.pop_front();
        if v.is_some() {
            s.wake_one_sender();
        }
        v
    }

    pub fn len(&self) -> usize {
        self.shared.borrow().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            s.wake_one_sender();
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
                tx.send(i).await.unwrap();
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
            tx.send(1).await.unwrap();
            drop(tx);
            assert_eq!(rx.recv().await, Some(1));
            assert_eq!(rx.recv().await, None);
        });
    }

    #[test]
    fn bounded_backpressure() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, mut rx) = bounded::<u32>(2);
            tx.send(1).await.unwrap();
            tx.send(2).await.unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));

            // A consumer draining after 5us unblocks the async send.
            crate::spawn(async move {
                crate::time::sleep(Duration::from_micros(5)).await;
                assert_eq!(rx.recv().await, Some(1));
                assert_eq!(rx.recv().await, Some(2));
                assert_eq!(rx.recv().await, Some(3));
            });
            tx.send(3).await.unwrap();
            assert_eq!(crate::now().as_nanos(), 5_000);
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
                    tx.send(i).await.unwrap();
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
        let rt = Runtime::new();
        rt.block_on(async {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.is_closed());
            assert!(tx.send(1).await.is_err());
        });
    }
}
