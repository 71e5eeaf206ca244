//! The KafkaDirect broker (paper Fig 2).
//!
//! One `Broker` per fabric node. The internal structure mirrors the paper's
//! figure:
//!
//! * **Network modules** — TCP processor threads (➊) and, for the OSU-Kafka
//!   baseline, a two-sided RDMA Send/Recv transport; both feed the shared
//!   request queue. The KafkaDirect RDMA network module (➋) polls completion
//!   queues of client QPs and enqueues produce completions.
//! * **API modules** — a pool of API worker threads (➌) that verify, assign
//!   offsets, and commit (➍), consulting the RDMA produce module (➎) for
//!   file-ID mapping and order enforcement.
//! * **Replication modules** — TCP pull fetchers (➏) and the RDMA push
//!   module (➐) with credit-based flow control and opportunistic batching.
//! * **Data management** — topic partitions, per-TP write locks, RDMA
//!   metadata slots (➑) for consumers.
//!
//! Every datapath can be toggled independently (`RdmaToggles`), exactly as
//! the paper's evaluation requires ("KafkaDirect supports enabling only
//! particular RDMA modules", §5.3).

pub mod admin;
pub mod broker;
pub mod busy;
mod common;
pub mod config;
pub mod data;
mod dispatch;
mod fetch;
pub mod metrics;
pub mod rdma_consume;
pub mod rdma_net;
pub mod rdma_produce;
pub mod repl;
pub mod requests;
pub mod server_osu;
mod server_rpc;
pub mod server_tcp;
mod tcp_produce;

pub use broker::Broker;
pub use config::{BrokerConfig, RdmaToggles, Transport};
pub use metrics::MetricsSnapshot;
