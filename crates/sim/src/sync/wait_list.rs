//! The one list of parked tasks under every multi-waiter primitive
//! (DESIGN.md §10 "One wait list"). A waiting future parks its waker with a
//! payload — what it waits for, or has been promised — and keeps the ticket
//! until it returns or is dropped:
//!
//! * FIFO by first park; a re-poll re-parks in place (one wait, one entry);
//! * a producer arms the longest-parked entry that is not armed yet, and
//!   records that in its payload;
//! * a future dropped while armed has its primitive arm the next in line.
//!
//! The first entry is held inline, so a list that never has two waiters at
//! once never allocates. Tickets grow in park order: the rest are found by
//! binary search.

use std::collections::VecDeque;
use std::task::Waker;

struct Entry<P> {
    ticket: u64,
    waker: Waker,
    payload: P,
}

/// See the [module docs](self).
#[derive(Default)]
pub struct WaitList<P> {
    /// The longest-parked entry.
    first: Option<Entry<P>>,
    /// The others, in park (hence ticket) order; empty while `first` is.
    rest: VecDeque<Entry<P>>,
    next_ticket: u64,
}

impl<P> WaitList<P> {
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Parks a task behind every other; the ticket names it from now on.
    pub fn park(&mut self, waker: &Waker, payload: P) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let entry = Entry {
            ticket,
            waker: waker.clone(),
            payload,
        };
        match self.first {
            None => self.first = Some(entry),
            Some(_) => self.rest.push_back(entry),
        }
        ticket
    }

    /// Re-parks `ticket` in place with `waker`: its payload, or `None` if it
    /// was unparked (popped, removed or woken by [`wake_all`](Self::wake_all)).
    pub fn repark(&mut self, ticket: u64, waker: &Waker) -> Option<&mut P> {
        let entry = if self.first.as_ref().is_some_and(|e| e.ticket == ticket) {
            self.first.as_mut()
        } else {
            let at = self.rest.binary_search_by_key(&ticket, |e| e.ticket).ok()?;
            self.rest.get_mut(at)
        }?;
        entry.waker.clone_from(waker);
        Some(&mut entry.payload)
    }

    /// Unparks `ticket`: its payload, or `None` if it was not parked.
    pub fn remove(&mut self, ticket: u64) -> Option<P> {
        if self.first.as_ref().is_some_and(|e| e.ticket == ticket) {
            return self.pop_front().map(|(_, payload)| payload);
        }
        let at = self.rest.binary_search_by_key(&ticket, |e| e.ticket).ok()?;
        self.rest.remove(at).map(|e| e.payload)
    }

    /// The longest-parked entry's payload.
    pub fn front(&self) -> Option<&P> {
        self.first.as_ref().map(|e| &e.payload)
    }

    /// Unparks the longest-parked entry: its waker, to wake, and payload.
    pub fn pop_front(&mut self) -> Option<(Waker, P)> {
        let next = self.rest.pop_front();
        let first = std::mem::replace(&mut self.first, next)?;
        Some((first.waker, first.payload))
    }

    /// The longest-parked entry that `unarmed` accepts, to arm: its waker,
    /// for a timer or a direct wake, and its payload, to record that in.
    pub fn arm(&mut self, mut unarmed: impl FnMut(&P) -> bool) -> Option<(&Waker, &mut P)> {
        let mut entries = self.first.iter_mut().chain(&mut self.rest);
        let e = entries.find(|e| unarmed(&e.payload))?;
        Some((&e.waker, &mut e.payload))
    }

    /// Payloads, longest parked first.
    pub fn iter(&self) -> impl Iterator<Item = &P> {
        self.first.iter().chain(&self.rest).map(|e| &e.payload)
    }

    /// Wakes, longest parked first, every entry `pick` accepts, leaving it
    /// parked: each re-polls and sees for itself what changed.
    pub fn wake_in_place(&self, pick: impl Fn(&P) -> bool) {
        let entries = self.first.iter().chain(&self.rest);
        entries
            .filter(|e| pick(&e.payload))
            .for_each(|e| e.waker.wake_by_ref());
    }

    /// Unparks and wakes every entry, longest parked first. The list keeps
    /// its capacity: steady-state broadcasts allocate nothing.
    pub fn wake_all(&mut self) {
        let first = self.first.take();
        first
            .into_iter()
            .chain(self.rest.drain(..))
            .for_each(|e| e.waker.wake());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::Wake;

    /// Counts its wakes.
    struct Counter(std::sync::atomic::AtomicU32);

    impl Wake for Counter {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn counter() -> (Arc<Counter>, Waker) {
        let c = Arc::new(Counter(0.into()));
        (Arc::clone(&c), Waker::from(c))
    }

    fn wakes(c: &Counter) -> u32 {
        c.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn fifo_by_first_park_with_removal_from_anywhere() {
        let (_, w) = counter();
        let mut list = WaitList::default();
        let t: Vec<u64> = (0..6).map(|i| list.park(&w, i)).collect();
        assert_eq!(list.remove(t[3]), Some(3));
        assert_eq!(list.remove(t[3]), None, "removed once");
        assert_eq!(
            list.remove(t[0]),
            Some(0),
            "the inline one: the next moves up"
        );
        assert_eq!(list.front(), Some(&1));
        let t6 = list.park(&w, 6);
        assert_eq!(list.iter().copied().collect::<Vec<_>>(), [1, 2, 4, 5, 6]);
        assert_eq!(list.pop_front().map(|e| e.1), Some(1));
        assert_eq!(list.remove(t6), Some(6));
        assert_eq!(list.iter().copied().collect::<Vec<_>>(), [2, 4, 5]);
    }

    #[test]
    fn re_park_refreshes_the_waker_in_place_and_arm_takes_the_oldest_unarmed() {
        let ((a, wa), (b, wb)) = (counter(), counter());
        let mut list = WaitList::default();
        let t: Vec<u64> = (0..3).map(|_| list.park(&wa, false)).collect();
        *list.repark(t[1], &wb).unwrap() = false;
        assert!(list.repark(99, &wb).is_none());
        for expect in [0, 1, 2] {
            let (waker, armed) = list.arm(|armed| !armed).unwrap();
            waker.wake_by_ref();
            *armed = true;
            assert_eq!(list.iter().filter(|&&armed| armed).count(), expect + 1);
        }
        assert!(list.arm(|armed| !armed).is_none());
        assert_eq!(
            (wakes(&a), wakes(&b)),
            (2, 1),
            "the middle one re-parked with b"
        );
        list.wake_in_place(|_| true);
        assert_eq!((wakes(&a), wakes(&b)), (4, 2));
        list.wake_all();
        assert_eq!((wakes(&a), wakes(&b)), (6, 3));
        assert!(list.is_empty() && list.repark(t[0], &wa).is_none());
    }
}
