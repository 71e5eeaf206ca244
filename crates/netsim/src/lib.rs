//! Network substrate for the KafkaDirect reproduction.
//!
//! Models the paper's testbed (§5, "Settings"): a cluster of machines joined
//! by a 56 Gbit/s InfiniBand fabric. Three layers:
//!
//! * [`profile`] — every calibrated cost constant, each cited to the paper
//!   section it comes from. Change the profile, change the testbed.
//! * [`fabric`] + [`link`] — nodes with ingress/egress NIC ports; byte-level
//!   FIFO serialisation, propagation delay, per-message overheads, and the
//!   per-address atomic rate limit (§4.2.2: 2.68 Mops/s).
//! * [`tcp`] — a socket-like byte-stream transport over the same links, with
//!   kernel-copy and syscall/wakeup costs. This is what "Kafka over IPoIB"
//!   uses; `rnic` (a separate crate) implements the RDMA verbs over the same
//!   fabric.
//!
//! Everything runs on the [`sim`] virtual-time runtime, so all "costs" are
//! deterministic virtual nanoseconds.

pub mod fabric;
pub mod link;
pub mod profile;
pub mod tcp;

pub use fabric::{Fabric, NodeHandle, NodeId};
pub use link::Link;
pub use profile::NetProfile;
