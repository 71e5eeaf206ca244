//! KafkaDirect clients.
//!
//! Implements every client the paper evaluates:
//!
//! * [`producer::TcpProducer`] — the original Kafka producer (§4.2.1): one
//!   RPC per produce request, defensive copy of user data, pipelinable.
//! * [`rdma_producer::RdmaProducer`] — the KafkaDirect producer (§4.2.2) in
//!   both **exclusive** (WriteWithImm straight into the head file) and
//!   **shared** (FAA reservation through the order/offset word, Fig 5)
//!   modes, with out-of-space detection and head-file re-requests.
//! * [`consumer::TcpConsumer`] — the original fetch-request poll consumer
//!   (§4.4.1).
//! * [`rdma_consumer::RdmaConsumer`] — the KafkaDirect consumer (§4.4.2,
//!   Fig 9): n ≥ 1 subscriptions under one consumer id, RDMA Reads of file
//!   bytes, one read of the contiguous slot region refreshing all of them,
//!   partial batch reassembly, file rolling, access release.
//! * `data_plane` — both RDMA clients underneath: a control connection plus
//!   one QP, with the one dial, reconnect, leader lookup and closing `Drop`.
//! * [`conn`] — RPC transports: framed TCP and the OSU-Kafka two-sided
//!   RDMA Send/Recv transport.
//! * [`admin`] — topic creation and metadata discovery.

pub mod admin;
pub mod conn;
pub mod consumer;
mod data_plane;
pub mod error;
pub mod producer;
pub mod rdma_consumer;
pub mod rdma_producer;

pub use admin::Admin;
pub use conn::{ClientTransport, Conn};
pub use consumer::{Polled, TcpConsumer};
pub use error::ClientError;
pub use producer::TcpProducer;
pub use rdma_consumer::RdmaConsumer;
pub use rdma_producer::RdmaProducer;
