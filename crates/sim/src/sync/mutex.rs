//! An asynchronous FIFO mutex.
//!
//! Models Kafka's per-topic-partition write lock (paper §5.1, Fig 12: "each
//! TP file can be accessed by at most one API worker at a time due to
//! locking"). Because sim tasks only interleave at `.await` points a plain
//! `RefCell` would often do, but API workers hold the lock *across* modelled
//! CPU time (`sleep`s), so a real async lock is required. The lock is one
//! permit of the semaphore's FIFO: a released lock passes straight to the
//! longest waiter, even if another task tries to lock first.

use std::cell::UnsafeCell;
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::task::{Context, Poll};

use super::semaphore::Permits;

/// An async mutual-exclusion lock with FIFO handoff. Held inline by its
/// owner; the [`Lock`] futures and guards borrow it.
pub struct Mutex<T: ?Sized> {
    lock: Permits,
    value: UnsafeCell<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            lock: Permits::new(1),
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
        // Never closed: the one permit is always there to be had.
        let locked = mutex.lock.poll_acquire(&mut self.ticket, 1, cx);
        locked.map(|_| MutexGuard { mutex })
    }
}

impl<T: ?Sized> Drop for Lock<'_, T> {
    /// Leaves the line, or passes on a lock it was handed and never took.
    fn drop(&mut self) {
        self.mutex.lock.cancel(self.ticket, 1);
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
        self.mutex.lock.release(1);
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
