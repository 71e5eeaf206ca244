//! Log-structured storage for the KafkaDirect reproduction.
//!
//! This crate is the "Apache Kafka data plane" substrate (paper §3):
//! topics are partitioned into topic partitions (TPs), each TP is an
//! append-only log physically made of fixed-size, **preallocated** segment
//! files (Fig 1 — preallocation is what makes RDMA writes into files
//! possible, §4.2.2). Records travel in CRC32C-protected batches; the broker
//! assigns dense per-TP offsets at commit time.
//!
//! Layering notes:
//! * Segment memory is a `kdbuf::ShmBuf`, the handle the NIC model
//!   registers, so an RDMA write lands bytes directly in the log — the
//!   zero-copy property everything else builds on.
//! * A log is in memory only, or also has a file tier ([`FileStore`]) that
//!   sealed segments spill to; there is no third kind.
//! * This crate is runtime-agnostic (no `sim` dependency): it is plain data
//!   structure code, unit-testable without a runtime.

pub mod codec;
pub mod crc32c;
pub mod log;
pub mod record;
pub mod segment;
pub mod store;
pub mod topics;

pub use codec::{Reader, WireError, Writer};
pub use log::{AppendError, AppendInfo, Log, LogConfig, LogPosition};
pub use record::{
    assign_base_offset, parse_header, verify_batch, BatchBuilder, BatchError, BatchHeader, Record,
    RecordRef, RecordView, BATCH_HEADER_LEN,
};
pub use segment::Segment;
pub use store::{FileStore, IoCharge, StorageConfig, SyncMode};
pub use topics::{PartitionId, TopicId, TopicPartition};
