//! A software model of RDMA reliable-connection (RC) verbs.
//!
//! This crate stands in for the InfiniBand ConnectX-4 RNICs of the paper's
//! testbed (§2, §5). It implements the full set of semantics KafkaDirect's
//! protocols rely on:
//!
//! * **One-sided operations** — RDMA Write, WriteWithImm, RDMA Read — that
//!   move bytes directly between registered memory regions without any
//!   involvement of the target's "CPU" (no target task runs).
//! * **Remote atomics** — Compare-and-Swap and Fetch-and-Add on 8-byte
//!   words, serialised per address at the paper's measured 2.68 Mops/s
//!   (§4.2.2).
//! * **Two-sided Send/Recv** with posted receive buffers, RNR stalls, and
//!   receive-side completions (used by the OSU-Kafka baseline, §4).
//! * **Reliable delivery and strict ordering**: work requests on one QP
//!   execute remotely in post order, and completions are delivered in order
//!   — the property §4.2.2 uses to process produce requests consistently.
//! * **Failure semantics**: access violations break the connection, CQ
//!   overflow disconnects all attached QPs (the motivation for credit-based
//!   replication flow control, §4.3.2), and peers observe disconnects
//!   asynchronously (used for revoking produce access on client failure).
//!
//! Memory registered with [`RNic::reg_mr`] is *shared* with the owner: an
//! RDMA Write lands bytes directly in the buffer the broker's storage layer
//! reads — the zero-copy property the paper is built on.

pub mod cm;
pub mod cq;
mod engine;
pub mod mr;
pub mod qp;
pub mod srq;
pub mod verbs;

mod nic;

pub use cm::{MuxLease, MuxPool, RdmaConnectError, RdmaListener};
pub use cq::CompletionQueue;
pub use mr::{Access, BufSlice, MemoryRegion, RemoteMr, ShmBuf};
pub use nic::{NicStats, RNic, WQE_BYTES};
pub use qp::{QpOptions, QueuePair};
pub use srq::Srq;
pub use verbs::{CqOpcode, CqStatus, Cqe, PostError, RecvWr, SendWr, WorkRequest};
