//! A counting semaphore with FIFO fairness.
//!
//! This backs the credit-based flow control of the RDMA push-replication
//! module (paper §4.3.2): the follower grants credits; the leader acquires
//! one per outstanding replicate request.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct State {
    permits: usize,
    closed: bool,
    /// FIFO queue of (waiter id, permits wanted, waker).
    waiters: VecDeque<(u64, usize, Waker)>,
    next_id: u64,
}

/// The semaphore was closed while waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcquireError;

impl fmt::Display for AcquireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "semaphore closed")
    }
}

impl std::error::Error for AcquireError {}

/// An async counting semaphore.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<State>>,
}

impl Semaphore {
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(State {
                permits,
                closed: false,
                waiters: VecDeque::new(),
                next_id: 0,
            })),
        }
    }

    pub fn available_permits(&self) -> usize {
        self.state.borrow().permits
    }

    /// Adds permits, waking eligible waiters in FIFO order. Permits are
    /// *transferred* to woken waiters immediately so a concurrent
    /// `try_acquire` cannot steal them before the waiter polls.
    pub fn add_permits(&self, n: usize) {
        self.state.borrow_mut().permits += n;
        // Wake the longest FIFO prefix that can now be satisfied; holding to
        // strict FIFO avoids starving large acquisitions. Each waker runs
        // with the state released.
        loop {
            let mut s = self.state.borrow_mut();
            let Some(want) = s.waiters.front().map(|w| w.1).filter(|&want| want <= s.permits) else {
                return;
            };
            s.permits -= want;
            let (_, _, waker) = s.waiters.pop_front().expect("peeked above");
            drop(s);
            waker.wake();
        }
    }

    /// Acquires `n` permits, waiting as needed. The returned permit releases
    /// on drop unless [`SemaphorePermit::forget`] is called.
    pub fn acquire(&self, n: usize) -> Acquire {
        Acquire {
            sem: self.clone(),
            want: n,
            id: None,
        }
    }

    /// Non-blocking acquire.
    pub fn try_acquire(&self, n: usize) -> Option<SemaphorePermit> {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return None;
        }
        // Respect FIFO: don't let a try_acquire cut in front of waiters.
        if s.permits >= n && s.waiters.is_empty() {
            s.permits -= n;
            Some(SemaphorePermit {
                sem: self.clone(),
                count: n,
            })
        } else {
            None
        }
    }

    /// Closes the semaphore; all pending and future acquires fail.
    pub fn close(&self) {
        let mut s = self.state.borrow_mut();
        s.closed = true;
        let waiters: Vec<_> = s.waiters.drain(..).collect();
        drop(s);
        for (_, _, w) in waiters {
            w.wake();
        }
    }

    pub fn is_closed(&self) -> bool {
        self.state.borrow().closed
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    want: usize,
    id: Option<u64>,
}

impl Future for Acquire {
    type Output = Result<SemaphorePermit, AcquireError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let want = self.want;
        let mut s = self.sem.state.borrow_mut();
        if s.closed {
            return Poll::Ready(Err(AcquireError));
        }
        match self.id {
            None => {
                if s.permits >= want && s.waiters.is_empty() {
                    s.permits -= want;
                    drop(s);
                    return Poll::Ready(Ok(SemaphorePermit {
                        sem: self.sem.clone(),
                        count: want,
                    }));
                }
                let id = s.next_id;
                s.next_id += 1;
                s.waiters.push_back((id, want, cx.waker().clone()));
                drop(s);
                self.id = Some(id);
                Poll::Pending
            }
            Some(id) => {
                if s.waiters.iter().any(|(wid, _, _)| *wid == id) {
                    for (wid, _, w) in s.waiters.iter_mut() {
                        if *wid == id {
                            *w = cx.waker().clone();
                        }
                    }
                    return Poll::Pending;
                }
                // We were popped by add_permits, which already transferred
                // our permits to us.
                drop(s);
                self.id = None;
                Poll::Ready(Ok(SemaphorePermit {
                    sem: self.sem.clone(),
                    count: want,
                }))
            }
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let mut s = self.sem.state.borrow_mut();
            let was_waiting = s.waiters.iter().any(|(wid, _, _)| *wid == id);
            s.waiters.retain(|(wid, _, _)| *wid != id);
            if !was_waiting && !s.closed {
                // Permits were transferred to us by add_permits but we were
                // dropped before taking them: give them back.
                drop(s);
                self.sem.add_permits(self.want);
            }
        }
    }
}

/// Permits held from a [`Semaphore`]; released on drop.
pub struct SemaphorePermit {
    sem: Semaphore,
    count: usize,
}

impl SemaphorePermit {
    /// Number of permits held.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Leaks the permits (they are not returned on drop).
    pub fn forget(mut self) {
        self.count = 0;
    }
}

impl Drop for SemaphorePermit {
    fn drop(&mut self) {
        if self.count > 0 {
            self.sem.add_permits(self.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::cell::Cell;
    use std::time::Duration;

    #[test]
    fn acquire_release() {
        let rt = Runtime::new();
        rt.block_on(async {
            let sem = Semaphore::new(2);
            let p1 = sem.acquire(1).await.unwrap();
            let _p2 = sem.acquire(1).await.unwrap();
            assert_eq!(sem.available_permits(), 0);
            assert!(sem.try_acquire(1).is_none());
            drop(p1);
            assert_eq!(sem.available_permits(), 1);
        });
    }

    #[test]
    fn fifo_ordering() {
        let rt = Runtime::new();
        rt.block_on(async {
            let sem = Semaphore::new(0);
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..3 {
                let sem = sem.clone();
                let order = Rc::clone(&order);
                crate::spawn(async move {
                    let p = sem.acquire(1).await.unwrap();
                    order.borrow_mut().push(i);
                    p.forget();
                });
                // Stagger arrival so queue order is deterministic.
                crate::time::sleep(Duration::from_nanos(1)).await;
            }
            sem.add_permits(3);
            crate::time::sleep(Duration::from_nanos(1)).await;
            assert_eq!(*order.borrow(), vec![0, 1, 2]);
        });
    }

    #[test]
    fn large_acquire_not_starved() {
        let rt = Runtime::new();
        rt.block_on(async {
            let sem = Semaphore::new(0);
            let got2 = Rc::new(Cell::new(false));
            {
                let sem = sem.clone();
                let got2 = Rc::clone(&got2);
                crate::spawn(async move {
                    let _p = sem.acquire(2).await.unwrap();
                    got2.set(true);
                });
            }
            crate::time::sleep(Duration::from_nanos(1)).await;
            // One permit is not enough for the head waiter; a later
            // try_acquire(1) must not steal it (FIFO).
            sem.add_permits(1);
            assert!(sem.try_acquire(1).is_none());
            sem.add_permits(1);
            crate::time::sleep(Duration::from_nanos(1)).await;
            assert!(got2.get());
        });
    }

    #[test]
    fn close_fails_waiters() {
        let rt = Runtime::new();
        rt.block_on(async {
            let sem = Semaphore::new(0);
            let sem2 = sem.clone();
            let h = crate::spawn(async move { sem2.acquire(1).await });
            crate::time::sleep(Duration::from_nanos(1)).await;
            sem.close();
            assert_eq!(h.await.unwrap().err(), Some(AcquireError));
        });
    }
}
