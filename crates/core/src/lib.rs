//! # kafkadirect
//!
//! A full-system reproduction of **"KafkaDirect: Zero-copy Data Access for
//! Apache Kafka over RDMA Networks"** (SIGMOD 2022) in simulation.
//!
//! This facade crate wires the substrate crates together and provides the
//! [`SimCluster`] harness used by the examples, the integration tests, and
//! every benchmark that regenerates a figure of the paper.
//!
//! ```
//! use kafkadirect::{SimCluster, SystemKind};
//! use kdstorage::Record;
//!
//! let rt = sim::Runtime::new();
//! rt.block_on(async {
//!     let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
//!     cluster.create_topic("events", 1, 1).await;
//!     let client = cluster.add_client_node("client");
//!
//!     let mut producer = kdclient::RdmaProducer::connect(
//!         &client, cluster.bootstrap(), "events", 0, false).await.unwrap();
//!     let offset = producer.send(&Record::value(b"hello".to_vec())).await.unwrap();
//!     assert_eq!(offset, 0);
//!
//!     let mut consumer = kdclient::RdmaConsumer::connect(
//!         &client, cluster.bootstrap(), "events", 0, 0).await.unwrap();
//!     let records = consumer.next_records().await.unwrap();
//!     assert_eq!(records[0].record.value, b"hello");
//! });
//! ```

pub mod chaos;
pub mod cluster;
pub mod events;
pub mod systems;

pub use cluster::{ClusterOptions, SimCluster};
pub use systems::SystemKind;

// Re-export the component crates under one roof.
pub use kdbroker::{Broker, BrokerConfig, ObserveConfig, RdmaToggles, Transport};
pub use kdclient::{Admin, ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
pub use kdstorage::{Record, RecordView};
pub use netsim::profile::Profile;
pub use netsim::{Fabric, NodeHandle};
