//! Virtual time: instants, sleeps, and timeouts.

use std::fmt;
use std::future::Future;
use std::ops::{Add, AddAssign, Sub};
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::executor::{try_with_current, with_current};

/// An instant on the simulation's virtual clock, in nanoseconds since the
/// runtime started. Analogous to `std::time::Instant` but deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration since an earlier instant; saturates to zero.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        // Later minus earlier; `saturating_since` is for any other order.
        let ns = self.0.checked_sub(rhs.0);
        Duration::from_nanos(ns.expect("SimTime subtraction underflow"))
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.as_nanos() as u64)
    }
}

/// Current virtual time of the active runtime.
pub fn now() -> SimTime {
    with_current(|inner| SimTime::from_nanos(inner.now_nanos()))
}

/// Current virtual time, or `None` when no runtime is active on this thread.
/// Telemetry uses this so it can be read outside `block_on` without panicking.
pub fn try_now() -> Option<SimTime> {
    try_with_current(|inner| SimTime::from_nanos(inner.now_nanos()))
}

/// Wakes `waker` once the virtual clock reaches `deadline` (at the next
/// scheduling point if it already has). The timer cannot be cancelled: a
/// task that stopped waiting gets one spurious poll. This is how a
/// synchronous producer arms a parked consumer for the instant its input
/// becomes usable — [`DueQueue`](crate::sync::DueQueue) and the simulated
/// TCP pipe do — instead of waking it now only to have it go to sleep.
pub fn wake_at(deadline: SimTime, waker: &Waker) {
    with_current(|inner| inner.register_timer(deadline.as_nanos(), waker.clone()));
}

/// Future returned by [`sleep`] / [`sleep_until`].
pub struct Sleep {
    deadline: SimTime,
    /// The waker the wheel timer was registered for. A pending `Sleep` owns
    /// exactly one timer: re-polls by the same task (spurious wakes) do not
    /// register another, which would each come back as one more spurious
    /// wake.
    armed: Option<Waker>,
}

impl Sleep {
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.armed.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
            wake_at(self.deadline, cx.waker());
            self.armed = Some(cx.waker().clone());
        }
        Poll::Pending
    }
}

/// Sleeps for `duration` of virtual time.
pub fn sleep(duration: Duration) -> Sleep {
    sleep_until(now() + duration)
}

/// Sleeps until the given virtual instant (returns immediately if past).
pub fn sleep_until(deadline: SimTime) -> Sleep {
    Sleep {
        deadline,
        armed: None,
    }
}

/// Yields once, letting every other currently-runnable task make progress
/// before this one resumes. Does not advance the clock.
pub fn yield_now() -> YieldNow {
    YieldNow { polled: false }
}

pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// A fixed-period virtual-time ticker: each [`Interval::tick`] sleeps until
/// the next multiple of the period past the creation instant. Ticks never
/// skip — if a tick is serviced late the next one still fires `period`
/// after the *scheduled* (not actual) time, keeping sample timestamps on a
/// deterministic grid.
pub struct Interval {
    next: SimTime,
    period: Duration,
}

impl Interval {
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Waits for the next tick and returns its scheduled instant.
    pub async fn tick(&mut self) -> SimTime {
        let at = self.next;
        sleep_until(at).await;
        self.next = at + self.period;
        at
    }
}

/// Creates an [`Interval`] whose first tick fires `period` from now.
/// `period` must be non-zero (a zero period would live-lock the wheel).
pub fn interval(period: Duration) -> Interval {
    assert!(period > Duration::ZERO, "interval period must be non-zero");
    Interval {
        next: now() + period,
        period,
    }
}

/// Error returned by [`timeout`] when the deadline fires first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl fmt::Display for Elapsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadline elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Runs `future` with a virtual-time deadline.
pub async fn timeout<F: Future>(duration: Duration, future: F) -> Result<F::Output, Elapsed> {
    let sleep = sleep(duration);
    let mut sleep = std::pin::pin!(sleep);
    let mut future = std::pin::pin!(future);
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = future.as_mut().poll(cx) {
            return Poll::Ready(Ok(v));
        }
        if sleep.as_mut().poll(cx).is_ready() {
            return Poll::Ready(Err(Elapsed));
        }
        Poll::Pending
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_nanos(1_000);
        assert_eq!(t + Duration::from_nanos(500), SimTime::from_nanos(1_500));
        assert_eq!(
            SimTime::from_nanos(1_500) - t,
            Duration::from_nanos(500)
        );
        assert_eq!(t.saturating_since(SimTime::from_nanos(2_000)), Duration::ZERO);
        assert_eq!(format!("{}", SimTime::from_nanos(1_500)), "1.500us");
    }

    #[test]
    fn sleep_zero_is_instant() {
        let rt = Runtime::new();
        rt.block_on(async {
            let t0 = now();
            sleep(Duration::ZERO).await;
            assert_eq!(now(), t0);
        });
    }

    #[test]
    fn sleep_until_past_returns_immediately() {
        let rt = Runtime::new();
        rt.block_on(async {
            sleep(Duration::from_micros(10)).await;
            let t = now();
            sleep_until(SimTime::from_nanos(1)).await;
            assert_eq!(now(), t);
        });
    }

    #[test]
    fn timeout_wins_and_loses() {
        let rt = Runtime::new();
        rt.block_on(async {
            let fast = timeout(Duration::from_micros(10), async {
                sleep(Duration::from_micros(1)).await;
                5
            })
            .await;
            assert_eq!(fast, Ok(5));
            let slow = timeout(Duration::from_micros(1), async {
                sleep(Duration::from_micros(10)).await;
                5
            })
            .await;
            assert_eq!(slow, Err(Elapsed));
        });
    }

    #[test]
    fn spurious_wakes_of_a_sleeper_cost_one_poll_each_and_no_timer() {
        const N: u64 = 50;
        let rt = Runtime::new();
        let waker = rt.block_on(async {
            let slot = std::rc::Rc::new(std::cell::RefCell::new(None));
            let slot2 = std::rc::Rc::clone(&slot);
            crate::spawn_detached(async move {
                let mut first = std::pin::pin!(sleep(Duration::from_millis(1)));
                std::future::poll_fn(|cx| {
                    *slot2.borrow_mut() = Some(cx.waker().clone());
                    first.as_mut().poll(cx)
                })
                .await;
                sleep(Duration::from_millis(1)).await;
            });
            yield_now().await; // the sleeper parks in its first sleep
            let waker: Waker = slot.borrow_mut().take().unwrap();
            waker
        });
        let before = rt.poll_count();
        let timers = rt.block_on(async move {
            for _ in 0..N {
                waker.wake_by_ref();
            }
            yield_now().await;
            with_current(|inner| inner.pending_timers())
        });
        assert_eq!(timers, 1, "a pending Sleep owns exactly one timer");
        assert_eq!(rt.poll_count() - before, 2 + N, "root 2 + one per spurious wake");
        // No timer is left behind to come back as a wake of the next sleep:
        // the sleeper is polled once per deadline.
        let before = rt.poll_count();
        rt.block_on(async { sleep(Duration::from_millis(3)).await });
        assert_eq!(rt.poll_count() - before, 2 + 2);
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let rt = Runtime::new();
        rt.block_on(async {
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..8 {
                let log = std::rc::Rc::clone(&log);
                handles.push(crate::spawn(async move {
                    sleep(Duration::from_micros(5)).await;
                    log.borrow_mut().push(i);
                }));
            }
            for h in handles {
                h.await.unwrap();
            }
            // FIFO tie-break: the simulation's cross-task orderings (e.g.
            // RDMA completion handoffs) rely on this.
            assert_eq!(*log.borrow(), (0..8).collect::<Vec<_>>());
        });
    }

    #[test]
    fn interval_ticks_on_a_fixed_grid() {
        let rt = Runtime::new();
        rt.block_on(async {
            sleep(Duration::from_nanos(100)).await;
            let mut iv = interval(Duration::from_micros(2));
            let mut ticks = Vec::new();
            for _ in 0..3 {
                ticks.push(iv.tick().await.as_nanos());
            }
            assert_eq!(ticks, vec![2_100, 4_100, 6_100]);
            // A late servicer stays on the grid rather than drifting.
            sleep(Duration::from_micros(5)).await; // now = 11_100, past two ticks
            assert_eq!(iv.tick().await.as_nanos(), 8_100); // fires immediately
            assert_eq!(iv.tick().await.as_nanos(), 10_100);
            assert_eq!(iv.tick().await.as_nanos(), 12_100);
        });
    }

    #[test]
    fn yield_now_interleaves() {
        let rt = Runtime::new();
        rt.block_on(async {
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let l1 = std::rc::Rc::clone(&log);
            let h = crate::spawn(async move {
                l1.borrow_mut().push("task");
            });
            log.borrow_mut().push("before-yield");
            yield_now().await;
            log.borrow_mut().push("after-yield");
            h.await.unwrap();
            assert_eq!(*log.borrow(), vec!["before-yield", "task", "after-yield"]);
        });
    }
}
