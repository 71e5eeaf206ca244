//! A counter that only goes up, and tasks waiting for it to reach a
//! threshold (DESIGN.md §10 "One wait list"). An advance unparks and wakes
//! exactly the waiters whose thresholds it passed, longest parked first.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use super::wait_list::{WaitList, FRONTIER};

/// See the [module docs](self). Held inline by its owner; the [`Reached`]
/// futures borrow it.
#[derive(Default)]
pub struct Frontier {
    value: Cell<u64>,
    /// Parked waiters, each with its threshold.
    waiters: RefCell<WaitList<u64, FRONTIER>>,
}

impl Frontier {
    pub fn new(value: u64) -> Self {
        Frontier {
            value: Cell::new(value),
            waiters: RefCell::default(),
        }
    }

    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// Moves the value up to `value` (at or below it, does nothing) and
    /// wakes every waiter whose threshold it passed.
    pub fn advance_to(&self, value: u64) {
        if value > self.value.get() {
            self.value.set(value);
            self.waiters
                .borrow_mut()
                .wake_where(|&threshold| threshold <= value);
        }
    }

    /// Resolves once the value is at least `threshold`: at once, without
    /// parking, if it already is.
    pub fn reached(&self, threshold: u64) -> Reached<'_> {
        Reached {
            frontier: self,
            threshold,
            ticket: None,
        }
    }
}

/// Future returned by [`Frontier::reached`]: one parked entry per wait,
/// however often it is polled, and none once it returns or is dropped.
pub struct Reached<'a> {
    frontier: &'a Frontier,
    threshold: u64,
    ticket: Option<u64>,
}

impl Future for Reached<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        if this.frontier.value.get() >= this.threshold {
            this.ticket = None; // the advance that passed it unparked it
            return Poll::Ready(());
        }
        let mut waiters = this.frontier.waiters.borrow_mut();
        if this
            .ticket
            .and_then(|t| waiters.repark(t, cx.waker()))
            .is_none()
        {
            this.ticket = Some(waiters.park(cx.waker(), this.threshold));
        }
        Poll::Pending
    }
}

impl Drop for Reached<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket {
            self.frontier.waiters.borrow_mut().remove(ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::sync::Notify;
    use crate::time::{now, sleep, sleep_until, timeout, yield_now};
    use crate::{Runtime, SimTime};
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

    type Log = Rc<RefCell<Vec<(usize, u64)>>>;

    /// Spawns waiter `id` for `threshold`; it logs `(id, now)` when it
    /// proceeds.
    fn waiter(f: &Rc<Frontier>, log: &Log, id: usize, threshold: u64) {
        let (f, log) = (Rc::clone(f), Rc::clone(log));
        crate::spawn_detached(async move {
            f.reached(threshold).await;
            log.borrow_mut().push((id, now().as_nanos()));
        });
    }

    fn parked(f: &Frontier) -> Vec<u64> {
        f.waiters.borrow().iter().copied().collect()
    }

    #[test]
    fn an_advance_wakes_exactly_the_passed_waiters_longest_parked_first() {
        let rt = Runtime::new();
        let f = Rc::new(Frontier::default());
        let log = Log::default();
        let (f2, log2) = (Rc::clone(&f), Rc::clone(&log));
        rt.block_on(async move {
            for (id, threshold) in [3, 1, 4, 1, 5].into_iter().enumerate() {
                waiter(&f2, &log2, id, threshold);
            }
            yield_now().await; // all five park
        });
        let before = rt.poll_count();
        let f2 = Rc::clone(&f);
        rt.block_on(async move {
            f2.advance_to(3);
            yield_now().await;
        });
        assert_eq!(*log.borrow(), [(0, 0), (1, 0), (3, 0)]);
        assert_eq!(parked(&f), [4, 5], "the others keep their places");
        assert_eq!(
            rt.poll_count() - before,
            2 + 3,
            "root twice, the three passed once each"
        );
    }

    #[test]
    fn two_advances_before_a_poll_wake_a_waiter_once() {
        let rt = Runtime::new();
        let f = Rc::new(Frontier::default());
        let log = Log::default();
        let (f2, log2) = (Rc::clone(&f), Rc::clone(&log));
        rt.block_on(async move {
            waiter(&f2, &log2, 0, 2);
            yield_now().await;
        });
        let before = rt.poll_count();
        let f2 = Rc::clone(&f);
        rt.block_on(async move {
            f2.advance_to(2);
            f2.advance_to(3);
            f2.advance_to(3);
            yield_now().await;
        });
        assert_eq!(*log.borrow(), [(0, 0)]);
        assert_eq!(rt.poll_count() - before, 2 + 1);
        assert_eq!(f.get(), 3);
    }

    #[test]
    fn a_dropped_waiter_hands_nothing_on_and_leaves_no_entry() {
        let rt = Runtime::new();
        let f = Rc::new(Frontier::default());
        let log = Log::default();
        let (f2, log2) = (Rc::clone(&f), Rc::clone(&log));
        rt.block_on(async move {
            let quitter = Rc::clone(&f2);
            crate::spawn_detached(async move {
                let waited = timeout(Duration::from_micros(1), quitter.reached(1)).await;
                assert!(waited.is_err());
            });
            waiter(&f2, &log2, 1, 2);
            sleep(Duration::from_micros(2)).await;
            assert_eq!(parked(&f2), [2], "the quitter left the list");
        });
        let before = rt.poll_count();
        let f2 = Rc::clone(&f);
        rt.block_on(async move {
            f2.advance_to(1);
            yield_now().await;
        });
        assert!(log.borrow().is_empty());
        assert_eq!(rt.poll_count() - before, 2, "root only: nobody was woken");
    }

    #[test]
    fn reached_of_a_passed_value_returns_without_parking() {
        let f = Frontier::new(5);
        let mut cx = Context::from_waker(std::task::Waker::noop());
        for threshold in [0, 5] {
            let mut wait = std::pin::pin!(f.reached(threshold));
            assert_eq!(wait.as_mut().poll(&mut cx), Poll::Ready(()));
            assert!(parked(&f).is_empty());
        }
        let mut wait = std::pin::pin!(f.reached(6));
        assert_eq!(wait.as_mut().poll(&mut cx), Poll::Pending);
        assert_eq!(wait.as_mut().poll(&mut cx), Poll::Pending);
        assert_eq!(parked(&f), [6], "a re-poll re-parks in place");
    }

    /// A waiter of a seeded schedule: it starts waiting at `at` ns for
    /// `threshold` and gives up after `patience` ns, if given.
    #[derive(Clone, Copy)]
    struct Wait {
        at: u64,
        threshold: u64,
        patience: Option<u64>,
    }

    /// What the two implementations under comparison offer a driver.
    trait Counter: Default + 'static {
        fn advance_to(&self, value: u64);
        async fn reached(&self, threshold: u64);
    }

    impl Counter for Frontier {
        fn advance_to(&self, value: u64) {
            Frontier::advance_to(self, value)
        }
        async fn reached(&self, threshold: u64) {
            Frontier::reached(self, threshold).await
        }
    }

    /// The broadcast loop the frontier replaced: a counter and a `Notify`;
    /// every advance wakes every waiter, and those it did not pass wait
    /// again — `reparks` counts them. (`Notify` is itself a frontier of
    /// broadcasts now; `tests/wake_order.rs` pins its wake order by a digest
    /// recorded before it was.)
    #[derive(Default)]
    struct Broadcast {
        value: Cell<u64>,
        notify: Notify,
        reparks: Cell<u64>,
    }

    impl Counter for Broadcast {
        fn advance_to(&self, value: u64) {
            if value > self.value.get() {
                self.value.set(value);
                self.notify.notify_waiters();
            }
        }
        async fn reached(&self, threshold: u64) {
            if self.value.get() >= threshold {
                return;
            }
            loop {
                self.notify.notified().await;
                if self.value.get() >= threshold {
                    return;
                }
                self.reparks.set(self.reparks.get() + 1);
            }
        }
    }

    /// `(waiter, proceeded, instant)` in the order they happened.
    type Outcomes = Vec<(usize, bool, u64)>;

    /// Runs `waits` and `advances` (`(instant, value)`, in time order)
    /// against a fresh `C`: the outcomes, executor polls, and `C` itself.
    fn run<C: Counter>(waits: &[Wait], advances: &[(u64, u64)]) -> (Outcomes, u64, Rc<C>) {
        let rt = Runtime::new();
        let c = Rc::new(C::default());
        let log = Rc::new(RefCell::new(Outcomes::new()));
        let (c2, log2) = (Rc::clone(&c), Rc::clone(&log));
        let (waits, advances) = (waits.to_vec(), advances.to_vec());
        rt.block_on(async move {
            for (id, w) in waits.into_iter().enumerate() {
                let (c, log) = (Rc::clone(&c2), Rc::clone(&log2));
                crate::spawn_detached(async move {
                    sleep_until(SimTime::from_nanos(w.at)).await;
                    let proceeded = match w.patience {
                        Some(ns) => timeout(Duration::from_nanos(ns), c.reached(w.threshold))
                            .await
                            .is_ok(),
                        None => {
                            c.reached(w.threshold).await;
                            true
                        }
                    };
                    log.borrow_mut().push((id, proceeded, now().as_nanos()));
                });
            }
            for (at, value) in advances {
                sleep_until(SimTime::from_nanos(at)).await;
                c2.advance_to(value);
            }
            sleep(Duration::from_millis(1)).await;
        });
        let outcomes = log.take();
        (outcomes, rt.poll_count(), c)
    }

    /// A seeded schedule on a 1 µs grid: waits start on it, give up 250 ns
    /// past it and advances land 500 ns past it, so that no waiter starts or
    /// quits in an advance's instant — where the broadcast's re-parks would
    /// queue behind a newcomer. With `bursts`, an instant may see several
    /// advances before any waiter runs: the frontier wakes the waiters the
    /// first one passed before those the second one did, the broadcast wakes
    /// them all in park order, and the two agree when thresholds grow with
    /// park order — as commit tickets and acks=all offsets do. So a bursty
    /// schedule hands out thresholds in start order.
    fn schedule(seed: u64, bursts: bool) -> (Vec<Wait>, Vec<(u64, u64)>) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut waits: Vec<Wait> = (0..32)
            .map(|_| Wait {
                at: rng.below(40) * 1_000,
                threshold: rng.below(48),
                patience: rng.random_bool(0.25).then(|| rng.below(20) * 1_000 + 250),
            })
            .collect();
        if bursts {
            let mut thresholds: Vec<u64> = waits.iter().map(|w| w.threshold).collect();
            thresholds.sort_unstable();
            waits.sort_by_key(|w| w.at);
            waits
                .iter_mut()
                .zip(thresholds)
                .for_each(|(w, t)| w.threshold = t);
        }
        let mut value = 0;
        let mut advances = Vec::new();
        for step in 0..60 {
            let n = if bursts { rng.below(3) } else { rng.below(2) };
            for _ in 0..n {
                value += rng.below(3);
                advances.push((step * 1_000 + 500, value));
            }
        }
        (waits, advances)
    }

    #[test]
    fn agrees_with_the_broadcast_reference() {
        let (mut reparks, mut proceeded, mut gave_up) = (0, 0, 0);
        for seed in 0..200 {
            let (waits, advances) = schedule(seed, seed % 2 == 1);
            let (ours, our_polls, _) = run::<Frontier>(&waits, &advances);
            let (theirs, their_polls, reference) = run::<Broadcast>(&waits, &advances);
            assert_eq!(ours, theirs, "seed {seed}");
            let wasted = reference.reparks.get();
            assert_eq!(
                our_polls,
                their_polls - wasted,
                "seed {seed}: the re-parks go, nothing else"
            );
            reparks += wasted;
            proceeded += ours.iter().filter(|o| o.1).count();
            gave_up += ours.iter().filter(|o| !o.1).count();
        }
        assert!(
            reparks > 1_000 && proceeded > 1_000 && gave_up > 100,
            "re-parks {reparks}, proceeded {proceeded}, gave up {gave_up}"
        );
    }
}
