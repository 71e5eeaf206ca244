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
//! * Tasks are `!Send` futures stored in a slab; wakers push task ids onto a
//!   shared ready queue. Spurious wakeups are allowed, so wakers carry no
//!   dedup state.
//! * The timer queue is a hierarchical timer wheel keyed by
//!   `(deadline, seq)` — same-deadline timers fire in registration order. A
//!   dropped sleep leaves a stale entry behind; waking a finished task is a
//!   no-op.
//! * If the ready queue and timer wheel are both empty while the `block_on`
//!   future is still pending, the runtime panics: in a closed simulation this
//!   is always a deadlock bug, and failing loudly beats hanging a test.
//! * The hot path is allocation-free at steady state: task memory is
//!   recycled through a size-class arena, per-slot wakers are cached, and
//!   wheel/ready-queue capacity is retained across events.

mod executor;
pub mod future;
pub mod rng;
pub mod sync;
pub mod time;
mod wheel;

pub use executor::{JoinError, JoinHandle, Runtime, SpawnError};
pub use time::{now, try_now, SimTime};

use std::future::Future;

/// Spawns a task onto the current runtime.
///
/// # Panics
/// Panics if called outside of [`Runtime::block_on`].
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    executor::spawn(future)
}

/// Spawns a fire-and-forget task without allocating a [`JoinHandle`]
/// completion channel. Prefer this on hot paths where the handle from
/// [`spawn`] would be dropped anyway.
///
/// # Panics
/// Panics if called outside of [`Runtime::block_on`].
pub fn spawn_detached<F>(future: F)
where
    F: Future<Output = ()> + 'static,
{
    executor::spawn_detached(future)
}

/// Returns a best-effort identifier of the currently running task, useful in
/// trace output. `0` is the `block_on` root task.
pub fn current_task_id() -> u64 {
    executor::current_task_id()
}
