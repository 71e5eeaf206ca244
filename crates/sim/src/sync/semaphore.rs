//! A counting semaphore with FIFO fairness.
//!
//! This backs the credit-based flow control of the RDMA push-replication
//! module (paper §4.3.2): the follower grants credits; the leader acquires
//! one per outstanding replicate request. Its FIFO, [`Permits`], is also the
//! whole of [`Mutex`](super::Mutex)'s locking: a lock is one permit.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use super::WaitList;

/// The semaphore was closed while waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcquireError;

struct State {
    permits: usize,
    closed: bool,
    /// Parked acquirers with the permits each wants.
    waiters: WaitList<usize>,
}

impl State {
    /// Takes `n` free permits unless somebody is queued for them first.
    fn take(&mut self, n: usize) -> bool {
        let free = self.permits >= n && self.waiters.is_empty();
        if free {
            self.permits -= n;
        }
        free
    }
}

/// Permits and the FIFO of acquirers parked for them.
pub(crate) struct Permits {
    state: RefCell<State>,
}

impl Permits {
    pub(crate) fn new(permits: usize) -> Self {
        let waiters = WaitList::default();
        Permits {
            state: RefCell::new(State { permits, closed: false, waiters }),
        }
    }

    /// Polls an acquire of `want` permits; `ticket` is its place in line
    /// while it waits.
    pub(crate) fn poll_acquire(
        &self,
        ticket: &mut Option<u64>,
        want: usize,
        cx: &mut Context<'_>,
    ) -> Poll<Result<(), AcquireError>> {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return Poll::Ready(Err(AcquireError));
        }
        match *ticket {
            Some(t) if s.waiters.repark(t, cx.waker()).is_some() => return Poll::Pending,
            // Unparked by `release`, which transferred the permits to it.
            Some(_) => *ticket = None,
            None if s.take(want) => {}
            None => {
                *ticket = Some(s.waiters.park(cx.waker(), want));
                return Poll::Pending;
            }
        }
        Poll::Ready(Ok(()))
    }

    /// Adds permits and transfers them, in FIFO order, to the longest prefix
    /// of waiters they satisfy — so a `try_acquire` cannot take them before
    /// the woken waiter polls, and a large acquire is never starved.
    pub(crate) fn release(&self, n: usize) {
        let mut s = self.state.borrow_mut();
        s.permits += n;
        while let Some(want) = s.waiters.front().copied().filter(|&want| want <= s.permits) {
            s.permits -= want;
            if let Some((waker, _)) = s.waiters.pop_front() {
                waker.wake();
            }
        }
    }

    /// An acquire dropped in line leaves it; one dropped after `release`
    /// transferred its permits gives them back (unless closed).
    pub(crate) fn cancel(&self, ticket: Option<u64>, want: usize) {
        let Some(ticket) = ticket else { return };
        let mut s = self.state.borrow_mut();
        if s.waiters.remove(ticket).is_none() && !s.closed {
            drop(s);
            self.release(want);
        }
    }
}

/// An async counting semaphore. Clones share the permits.
#[derive(Clone)]
pub struct Semaphore {
    fifo: Rc<Permits>,
}

impl Semaphore {
    pub fn new(permits: usize) -> Self {
        Semaphore {
            fifo: Rc::new(Permits::new(permits)),
        }
    }

    /// Adds permits, waking eligible waiters in FIFO order.
    pub fn add_permits(&self, n: usize) {
        self.fifo.release(n);
    }

    /// Acquires `n` permits, waiting as needed. The returned permit releases
    /// on drop unless [`SemaphorePermit::forget`] is called.
    pub fn acquire(&self, n: usize) -> Acquire {
        Acquire {
            sem: self.clone(),
            want: n,
            ticket: None,
        }
    }

    /// Non-blocking acquire; never cuts in front of a waiter.
    pub fn try_acquire(&self, n: usize) -> Option<SemaphorePermit> {
        let mut s = self.fifo.state.borrow_mut();
        (!s.closed && s.take(n)).then(|| SemaphorePermit {
            sem: self.clone(),
            count: n,
        })
    }

    /// Closes the semaphore; all pending and future acquires fail.
    pub fn close(&self) {
        let mut s = self.fifo.state.borrow_mut();
        s.closed = true;
        s.waiters.wake_all();
    }

    pub fn is_closed(&self) -> bool {
        self.fifo.state.borrow().closed
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    want: usize,
    ticket: Option<u64>,
}

impl Future for Acquire {
    type Output = Result<SemaphorePermit, AcquireError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let got = this.sem.fifo.poll_acquire(&mut this.ticket, this.want, cx);
        got.map_ok(|()| SemaphorePermit {
            sem: this.sem.clone(),
            count: this.want,
        })
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        self.sem.fifo.cancel(self.ticket, self.want);
    }
}

/// Permits held from a [`Semaphore`]; released on drop.
pub struct SemaphorePermit {
    sem: Semaphore,
    count: usize,
}

impl SemaphorePermit {
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
            assert!(sem.try_acquire(1).is_none());
            drop(p1);
            assert!(sem.try_acquire(1).is_some(), "released on drop");
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
