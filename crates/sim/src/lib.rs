//! A deterministic, single-threaded, discrete-event async runtime.
//!
//! `sim` is the execution substrate for the KafkaDirect reproduction. Every
//! component of the simulated cluster — brokers, clients, NIC engines, links —
//! runs as a cooperative task on one OS thread. Time is *virtual*: it advances
//! only when no task is runnable, jumping straight to the earliest pending
//! timer. This gives microsecond-scale timing fidelity that a real scheduler
//! on a small machine cannot, and makes every experiment reproducible
//! bit-for-bit for a given seed.
//!
//! The API mirrors the familiar tokio surface where practical:
//!
//! ```
//! use std::time::Duration;
//!
//! let rt = sim::Runtime::new();
//! let elapsed = rt.block_on(async {
//!     let start = sim::now();
//!     let task = sim::spawn(async {
//!         sim::time::sleep(Duration::from_micros(3)).await;
//!         42u32
//!     });
//!     assert_eq!(task.await.unwrap(), 42);
//!     sim::now() - start
//! });
//! assert_eq!(elapsed, Duration::from_micros(3));
//! ```
//!
//! # Design notes
//!
//! * Tasks are `!Send` futures stored in a slab. A waker is a plain integer
//!   — its runtime's tag and its task's id — and waking it pushes the id onto
//!   that runtime's ready queue, found among the live runtimes of the
//!   current thread. A wake on another thread than the runtime's panics; on
//!   its own thread after the runtime is dropped, it does nothing. Spurious
//!   wakeups are allowed, so wakers carry no dedup state.
//! * The timer queue is a hierarchical timer wheel keyed by
//!   `(deadline, seq)` — same-deadline timers fire in registration order,
//!   one wheel pass per fired instant, each fired timer's task polled at its
//!   turn. Until then a timer can be taken back and put back in its place
//!   ([`time::Timer`]). A dropped sleep leaves a stale entry behind; waking
//!   a finished task is a no-op.
//! * If the ready queue and timer wheel are both empty while the `block_on`
//!   future is still pending, the runtime panics: in a closed simulation this
//!   is always a deadlock bug, and failing loudly beats hanging a test.
//! * The hot path is allocation-free at steady state: task memory is
//!   recycled through a size-class arena, wakers are integers that clone and
//!   drop for free, and wheel/ready-queue capacity is retained across
//!   events.

mod executor;
pub mod future;
pub mod inline_deque;
pub mod rng;
pub mod sync;
pub mod time;
mod wheel;

pub use executor::{JoinError, JoinHandle, Runtime, Site};
pub use inline_deque::InlineDeque;
pub use time::{now, try_now, SimTime};

use std::future::Future;
use std::panic::Location;

/// Spawns a task onto the current runtime.
///
/// # Panics
/// Panics if called outside of [`Runtime::block_on`].
#[track_caller]
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    executor::spawn(future, Location::caller())
}

/// Spawns a task that is first polled at `start`: a task whose first act
/// would be to sleep until then, without the poll that arms the sleep. The
/// task is stored now and its timer registered now, so it fires ahead of a
/// timer for the same instant registered later. A `start` at or before now
/// is [`spawn`].
///
/// # Panics
/// Panics if called outside of [`Runtime::block_on`].
#[track_caller]
pub fn spawn_at<F>(start: SimTime, future: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    executor::spawn_at(start, future, Location::caller())
}

/// Spawns a fire-and-forget task without allocating a [`JoinHandle`]
/// completion channel. Prefer this on hot paths where the handle from
/// [`spawn`] would be dropped anyway.
///
/// # Panics
/// Panics if called outside of [`Runtime::block_on`].
#[track_caller]
pub fn spawn_detached<F>(future: F)
where
    F: Future<Output = ()> + 'static,
{
    executor::spawn_detached(future, Location::caller())
}

/// Starts counting the current runtime's executor polls by the site of the
/// `spawn*` or `block_on` call that made the polled task (each of those
/// records its caller's `file:line:column`). Uncounted, a poll pays one
/// branch.
///
/// # Panics
/// Panics if called outside of [`Runtime::block_on`].
pub fn count_polls_by_site() {
    executor::count_polls_by_site()
}

/// Stops the count [`count_polls_by_site`] started and returns it: polls
/// per spawn site, most first. Empty if nothing was counting.
///
/// # Panics
/// Panics if called outside of [`Runtime::block_on`].
pub fn take_polls_by_site() -> Vec<(Site, u64)> {
    executor::take_polls_by_site()
}
