//! An asynchronous FIFO mutex.
//!
//! Models Kafka's per-topic-partition write lock (paper §5.1, Fig 12), which
//! API workers hold *across* modelled CPU time. A released lock passes
//! straight to the longest waiter, even if another task tries to lock
//! first.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::task::{Context, Poll};

use super::wait_list::{WaitList, MUTEX};

/// An async mutual-exclusion lock with FIFO handoff. Held inline by its
/// owner; the [`Lock`] futures and guards borrow it.
pub struct Mutex<T: ?Sized> {
    held: Cell<bool>,
    /// The tasks parked for the lock, in FIFO order.
    waiters: RefCell<WaitList<(), MUTEX>>,
    value: UnsafeCell<T>,
}

impl<T: ?Sized> Mutex<T> {
    /// Polls a lock; `ticket` is its place in line while it waits.
    fn poll_lock(&self, ticket: &mut Option<u64>, cx: &mut Context<'_>) -> Poll<()> {
        let mut waiters = self.waiters.borrow_mut();
        match *ticket {
            Some(t) if waiters.repark(t, cx.waker()).is_some() => return Poll::Pending,
            // Unparked by `release`, which handed it the lock.
            Some(_) => *ticket = None,
            // Free: nobody is in line (a release with a waiter hands over).
            None if !self.held.get() => self.held.set(true),
            None => {
                *ticket = Some(waiters.park(cx.waker(), ()));
                return Poll::Pending;
            }
        }
        Poll::Ready(())
    }

    /// Hands the lock to the longest waiter, or frees it if there is none.
    fn release(&self) {
        let next = self.waiters.borrow_mut().pop_front();
        match next {
            Some((waker, ())) => waker.wake(),
            None => self.held.set(false),
        }
    }

    /// A lock dropped in line leaves it; one dropped after `release` handed
    /// it the lock passes it on.
    fn cancel(&self, ticket: Option<u64>) {
        let Some(ticket) = ticket else { return };
        let left = self.waiters.borrow_mut().remove(ticket);
        if left.is_none() {
            self.release();
        }
    }
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            held: Cell::new(false),
            waiters: RefCell::default(),
            value: UnsafeCell::new(value),
        }
    }

    /// Locks the mutex, waiting in FIFO order.
    pub fn lock(&self) -> Lock<'_, T> {
        Lock {
            mutex: self,
            ticket: None,
        }
    }
}

/// Future returned by [`Mutex::lock`].
pub struct Lock<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    ticket: Option<u64>,
}

impl<'a, T: ?Sized> Future for Lock<'a, T> {
    type Output = MutexGuard<'a, T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mutex = self.mutex;
        let locked = mutex.poll_lock(&mut self.ticket, cx);
        locked.map(|()| MutexGuard { mutex })
    }
}

impl<T: ?Sized> Drop for Lock<'_, T> {
    /// Leaves the line, or passes on a lock it was handed and never took.
    fn drop(&mut self) {
        self.mutex.cancel(self.ticket);
    }
}

/// RAII guard; the lock is released (or handed off) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard existence implies exclusive logical ownership; the
        // runtime is single-threaded so no data race is possible.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::rc::Rc;
    use std::time::Duration;

    #[test]
    fn exclusive_access() {
        let rt = Runtime::new();
        rt.block_on(async {
            let m = Rc::new(Mutex::new(0u32));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let m = Rc::clone(&m);
                handles.push(crate::spawn(async move {
                    let mut g = m.lock().await;
                    let v = *g;
                    // Hold across a sleep: critical sections serialise.
                    crate::time::sleep(Duration::from_micros(1)).await;
                    *g = v + 1;
                }));
            }
            for h in handles {
                h.await.unwrap();
            }
            assert_eq!(*m.lock().await, 4);
            // 4 serialised 1us critical sections.
            assert_eq!(crate::now().as_nanos(), 4_000);
        });
    }

    #[test]
    fn fifo_handoff() {
        let rt = Runtime::new();
        rt.block_on(async {
            let m = Rc::new(Mutex::new(Vec::new()));
            let g = m.lock().await;
            for i in 0..3 {
                let m = Rc::clone(&m);
                crate::spawn(async move {
                    m.lock().await.push(i);
                });
                crate::time::yield_now().await;
            }
            drop(g);
            crate::time::sleep(Duration::from_nanos(1)).await;
            assert_eq!(*m.lock().await, vec![0, 1, 2]);
        });
    }
}
