//! The one list of parked tasks under every multi-waiter primitive, and the
//! one timed wake (DESIGN.md §10 "One wait list"). A waiting future parks
//! its waker with a payload — what it waits for, or has been promised — and
//! keeps the ticket until it returns or is dropped:
//!
//! * FIFO by first park; a re-poll re-parks in place (one wait, one entry).
//! * A producer arms the longest-parked entry its primitive's predicate
//!   accepts ([`WaitList::arm`]). The entry's [`Arm`] records the instant,
//!   and registers one wheel timer for it plus the waiter's cost (a thread's
//!   wake-up, a CPU charge) — or, with no cost, wakes it directly if the
//!   instant is now. Every timed wake under `sync` is [`Arm::set`]. Until
//!   its turn comes the timer can be taken back ([`Arm::take_back`]), to cost
//!   no poll, and given back ([`Arm::give_back`]) to fire where it would have.
//! * A future dropped while armed leaves with its arm unspent
//!   ([`WaitList::leave`]); its primitive arms the next in line with it.
//!
//! The entries are an [`InlineDeque`], found by ticket (tickets grow in
//! park order). A re-poll that leaves an entry parked — a wake that did
//! nothing — is a *re-park*, counted per thread and `KIND` ([`reparks`]).

use std::cell::Cell;
use std::num::NonZeroU64;
use std::task::Waker;
use std::time::Duration;

use crate::time::{try_now, wake_at, SimTime, Timer};
use crate::InlineDeque;

/// The kinds of list a re-park is counted under, by index.
pub const KINDS: [&str; 5] = ["other", "frontier", "mutex", "handoff", "cq"];
pub const OTHER: usize = 0;
pub const FRONTIER: usize = 1;
pub const MUTEX: usize = 2;
pub const HANDOFF: usize = 3;
pub const CQ: usize = 4;

thread_local! {
    static REPARKS: [Cell<u64>; KINDS.len()] = const { [const { Cell::new(0) }; KINDS.len()] };
}

/// Re-parks on this thread so far, by kind (indexed as [`KINDS`]).
pub fn reparks() -> [u64; KINDS.len()] {
    REPARKS.with(|r| r.each_ref().map(Cell::get))
}

/// A waiter's timed wake: what it pays on top of the instant it is handed
/// what it waits for (`None`: a task woken at that instant directly), and
/// that instant once it is armed — with the wheel timer [`set`](Self::set)
/// registered for it, which can be taken back ([`take_back`](Self::take_back))
/// and given back ([`give_back`](Self::give_back)) until its turn comes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Arm {
    pub at: Option<SimTime>,
    /// The cost in nanoseconds, plus one.
    cost: Option<NonZeroU64>,
    /// The seq of the timer `set` registered, plus one (`0`: none), with
    /// [`HELD`] set while it is taken back.
    timer: u64,
}

/// The bit of [`Arm::timer`] that marks a timer taken back.
const HELD: u64 = 1 << 63;

// An arm sits in every oneshot cell and in every CQ's inline waiter.
const _: () = assert!(std::mem::size_of::<Arm>() == 32);

impl Arm {
    pub fn new(cost: Option<Duration>) -> Arm {
        let nanos = |c: Duration| u64::try_from(c.as_nanos()).expect("a cost in u64 ns");
        Arm {
            at: None,
            cost: cost.and_then(|c| NonZeroU64::new(nanos(c) + 1)),
            timer: 0,
        }
    }

    /// What the waiter pays on top of its instant; `None`: woken directly.
    pub fn cost(&self) -> Option<Duration> {
        self.cost.map(|c| Duration::from_nanos(c.get() - 1))
    }

    /// When an armed waiter returns: its instant plus its cost.
    pub fn due(&self) -> Option<SimTime> {
        let cost = self.cost.map_or(0, |c| c.get() - 1);
        self.at.map(|at| SimTime::from_nanos(at.as_nanos() + cost))
    }

    /// Arms `waker`'s task for `at` (see the [module docs](self)): the
    /// instant it was armed for before, if any. A timer set before is left
    /// to fire.
    pub fn set(&mut self, at: SimTime, waker: &Waker) -> Option<SimTime> {
        let displaced = self.at.replace(at);
        self.timer = if self.cost.is_none() && try_now().is_none_or(|now| at <= now) {
            waker.wake_by_ref();
            0
        } else {
            wake_at(at + self.cost().unwrap_or_default(), waker).seq() + 1
        };
        displaced
    }

    /// The timer of this arm, taken back or not.
    fn timer(&self) -> Option<Timer> {
        let seq = (self.timer & !HELD).checked_sub(1)?;
        Some(Timer::new(self.due()?, seq))
    }

    /// Whether its timer's turn has not come: the arm's wake is ahead, on
    /// that timer or, taken back, on nothing.
    pub fn pending(&self) -> bool {
        self.timer().is_some_and(|t| !t.passed())
    }

    /// Whether its timer is taken back.
    pub fn held(&self) -> bool {
        self.timer & HELD != 0
    }

    /// Takes back its timer, if its turn has not come: the task is not woken
    /// for it, and the arm keeps its instant.
    pub fn take_back(&mut self) {
        if !self.held() && self.timer().is_some_and(|t| t.cancel()) {
            self.timer |= HELD;
        }
    }

    /// Gives back to `waker`'s task the timer [`take_back`](Self::take_back)
    /// took, whose turn has not come: the task wakes as if it had never been
    /// taken.
    pub fn give_back(&mut self, waker: &Waker) {
        if let Some(timer) = self.timer().filter(|_| self.held()) {
            timer.restore(waker);
            self.timer &= !HELD;
        }
    }
}

impl AsMut<Arm> for Arm {
    fn as_mut(&mut self) -> &mut Arm {
        self
    }
}

/// An arm and what it was armed with.
impl<T> AsMut<Arm> for (Arm, T) {
    fn as_mut(&mut self) -> &mut Arm {
        &mut self.0
    }
}

struct Entry<P> {
    ticket: u64,
    waker: Waker,
    payload: P,
}

/// See the [module docs](self).
pub struct WaitList<P, const KIND: usize = OTHER> {
    /// In park (hence ticket) order.
    entries: InlineDeque<Entry<P>>,
    next_ticket: u64,
}

impl<P, const KIND: usize> Default for WaitList<P, KIND> {
    fn default() -> Self {
        WaitList {
            entries: InlineDeque::new(),
            next_ticket: 0,
        }
    }
}

impl<P, const KIND: usize> WaitList<P, KIND> {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parks a task behind every other; the ticket names it from now on.
    pub fn park(&mut self, waker: &Waker, payload: P) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.entries.push_back(Entry {
            ticket,
            waker: waker.clone(),
            payload,
        });
        ticket
    }

    /// Where `ticket` is parked.
    fn find(&self, ticket: u64) -> Option<usize> {
        self.entries.find_by_key(ticket, |e| e.ticket)
    }

    /// Re-parks `ticket` in place with `waker`, counting a re-park: its
    /// payload, or `None` if it was unparked (popped, removed or woken by
    /// [`wake_where`](Self::wake_where)).
    pub fn repark(&mut self, ticket: u64, waker: &Waker) -> Option<&mut P> {
        let entry = self.entries.get_mut(self.find(ticket)?)?;
        entry.waker.clone_from(waker);
        REPARKS.with(|r| r[KIND].set(r[KIND].get() + 1));
        Some(&mut entry.payload)
    }

    /// `ticket`'s payload, `None` if it is not parked.
    pub fn get_mut(&mut self, ticket: u64) -> Option<&mut P> {
        let at = self.find(ticket)?;
        self.entries.get_mut(at).map(|e| &mut e.payload)
    }

    /// Unparks `ticket`: its payload, or `None` if it was not parked.
    pub fn remove(&mut self, ticket: u64) -> Option<P> {
        self.entries.remove(self.find(ticket)?).map(|e| e.payload)
    }

    /// The longest-parked entry's payload.
    pub fn front(&self) -> Option<&P> {
        self.entries.front().map(|e| &e.payload)
    }

    /// Unparks the longest-parked entry: its waker, to wake, and payload.
    pub fn pop_front(&mut self) -> Option<(Waker, P)> {
        self.entries.pop_front().map(|e| (e.waker, e.payload))
    }

    /// Payloads, longest parked first.
    pub fn iter(&self) -> impl Iterator<Item = &P> {
        self.entries.iter().map(|e| &e.payload)
    }

    /// Payloads with the wakers of their tasks, longest parked first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&mut P, &Waker)> {
        self.entries.iter_mut().map(|e| (&mut e.payload, &e.waker))
    }

    /// Wakes, longest parked first, every entry `pick` accepts, leaving it
    /// parked: each re-polls and sees for itself what changed.
    pub fn wake_in_place(&self, pick: impl Fn(&P) -> bool) {
        self.entries
            .iter()
            .filter(|e| pick(&e.payload))
            .for_each(|e| e.waker.wake_by_ref());
    }

    /// Unparks and wakes, longest parked first, every entry `pick` accepts;
    /// the others keep their places. The list keeps its capacity.
    pub fn wake_where(&mut self, pick: impl Fn(&P) -> bool) {
        self.entries.retain(|e| {
            let picked = pick(&e.payload);
            if picked {
                e.waker.wake_by_ref();
            }
            !picked
        });
    }

    /// Unparks and wakes every entry, longest parked first. The list keeps
    /// its capacity: steady-state broadcasts allocate nothing.
    pub fn wake_all(&mut self) {
        self.wake_where(|_| true);
    }
}

impl<P: AsMut<Arm>, const KIND: usize> WaitList<P, KIND> {
    /// Arms the longest-parked entry `pick` accepts for `at` ([`Arm::set`]):
    /// its payload, to record what it was armed with, and the instant it was
    /// armed for before, if any, to hand on. `None` if `pick` accepts none.
    pub fn arm(
        &mut self,
        at: SimTime,
        mut pick: impl FnMut(&P) -> bool,
    ) -> Option<(&mut P, Option<SimTime>)> {
        let e = self.entries.iter_mut().find(|e| pick(&e.payload))?;
        let displaced = e.payload.as_mut().set(at, &e.waker);
        Some((&mut e.payload, displaced))
    }

    /// Unparks `ticket`, whose future gave up: its payload and the instant
    /// it was armed for, for its primitive to hand on — `None` if it was not
    /// armed, or the runtime itself is going away. A timer of its arm that
    /// was taken back is given back: its task still gets that wake, as it
    /// would have had the timer never been taken.
    pub fn leave(&mut self, ticket: u64) -> Option<(P, SimTime)> {
        let Entry {
            waker, mut payload, ..
        } = self.entries.remove(self.find(ticket)?)?;
        let arm = payload.as_mut();
        if arm.held() && arm.pending() {
            arm.give_back(&waker);
        }
        let at = arm.at.filter(|_| try_now().is_some())?;
        Some((payload, at))
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
        let mut list: WaitList<_> = WaitList::default();
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
        let mut list: WaitList<Arm> = WaitList::default();
        let t: Vec<u64> = (0..3).map(|_| list.park(&wa, Arm::default())).collect();
        let before = reparks()[OTHER];
        assert!(list.repark(t[1], &wb).is_some());
        assert!(list.repark(99, &wb).is_none());
        assert_eq!(reparks()[OTHER], before + 1, "one re-park");
        let at = SimTime::from_nanos(7);
        for expect in [0, 1, 2] {
            // No cost and no runtime: a direct wake.
            let (armed, displaced) = list.arm(at, |p| p.at.is_none()).unwrap();
            assert_eq!((armed.due(), displaced), (Some(at), None));
            assert_eq!(list.iter().filter(|p| p.at.is_some()).count(), expect + 1);
        }
        assert!(list.arm(at, |p| p.at.is_none()).is_none());
        assert_eq!(
            (wakes(&a), wakes(&b)),
            (2, 1),
            "the middle one re-parked with b"
        );
        assert_eq!(list.get_mut(t[2]).unwrap().at, Some(at));
        assert!(list.leave(t[2]).is_none(), "no runtime: nothing to hand on");
        list.wake_in_place(|_| true);
        assert_eq!((wakes(&a), wakes(&b)), (3, 2));
        list.wake_all();
        assert_eq!((wakes(&a), wakes(&b)), (4, 3));
        assert!(list.is_empty() && list.repark(t[0], &wa).is_none());
    }
}
