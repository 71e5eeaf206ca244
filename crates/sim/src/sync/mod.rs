//! Asynchronous synchronisation primitives for the single-threaded runtime.
//!
//! All primitives here are `!Send`: tasks on the sim runtime live on one
//! thread and interleave only at `.await` points, so interior mutability via
//! `RefCell` is sound and cheap. The APIs mirror tokio's where practical.
//! Every one that parks more than one task parks them on a [`WaitList`];
//! every timed wake is one [`wait_list::Arm`], and every queue of items due
//! at instants is one [`InlineDeque`](crate::InlineDeque) in `(instant,
//! push)` order.

pub mod due_queue;
pub mod frontier;
pub mod handoff;
pub mod mpsc;
pub mod mutex;
pub mod notify;
pub mod oneshot;
pub mod wait_list;
pub mod watch;

pub use due_queue::DueQueue;
pub use frontier::Frontier;
pub use handoff::HandoffQueue;
pub use mutex::{Mutex, MutexGuard};
pub use notify::Notify;
pub use wait_list::WaitList;
