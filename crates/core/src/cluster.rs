//! The cluster harness: a fabric, N broker machines, and client machines,
//! mirroring the paper's 12-node InfiniBand testbed (§5 "Settings").
//!
//! The harness is test and bench scaffolding, so it panics rather than
//! return errors: an admin RPC that fails (connect, topic creation, a
//! telemetry dump) panics with the step's name, because no caller can go
//! on without it.

use std::cell::RefCell;

use kdbroker::{Broker, BrokerConfig};
use kdclient::Admin;
use kdstorage::{LogConfig, TopicPartition};
use kdwire::{BrokerAddr, PartitionMeta};
use netsim::profile::Profile;
use netsim::{Fabric, NodeHandle};

use crate::systems::SystemKind;

/// Harness options: the fabric's cost profile and the one template every
/// broker of the cluster is started from. [`SimCluster::start_with`] takes
/// the template as written, except for the system axis (`transport`,
/// `rdma`), which comes from the [`SystemKind`].
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    pub profile: Profile,
    pub broker: BrokerConfig,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            profile: Profile::testbed(),
            // Experiments default to modest segments so sweeps stay within
            // memory; the paper's 1 GiB is configurable.
            broker: BrokerConfig {
                log: LogConfig {
                    segment_size: 32 * 1024 * 1024,
                    max_batch_size: 1024 * 1024 + 4096,
                },
                ..BrokerConfig::default()
            },
        }
    }
}

/// A running simulated cluster. Brokers can be crashed, restarted (with log
/// recovery from their surviving segment buffers), and failed over — the
/// harness plays the role of an external cluster controller.
pub struct SimCluster {
    pub fabric: Fabric,
    pub system: SystemKind,
    brokers: RefCell<Vec<Broker>>,
    broker_nodes: Vec<NodeHandle>,
    admin_node: NodeHandle,
    telemetry: kdtelem::Registry,
    config: kdbroker::BrokerConfig,
    peers: Vec<BrokerAddr>,
}

impl SimCluster {
    /// Starts `n` brokers of the given system with default options.
    pub fn start(system: SystemKind, n: usize) -> SimCluster {
        Self::start_with(system, n, ClusterOptions::default())
    }

    /// Starts `n` brokers with explicit options.
    pub fn start_with(system: SystemKind, n: usize, opts: ClusterOptions) -> SimCluster {
        assert!(n > 0);
        // Everything the cluster builds from here on (links, NICs, brokers,
        // clients created on this thread) reports into the ambient registry.
        let telemetry = kdtelem::current();
        let fabric = Fabric::new(opts.profile);
        let mut broker_nodes = Vec::new();
        let mut peers = Vec::new();
        let axis = system.broker_config();
        let config = BrokerConfig {
            transport: axis.transport,
            rdma: axis.rdma,
            ..opts.broker
        };
        for i in 0..n {
            let node = fabric.add_node(&format!("broker{i}"));
            peers.push(BrokerAddr {
                node: node.id.0,
                port: config.tcp_port,
                rdma_port: config.rdma_port,
            });
            broker_nodes.push(node);
        }
        let brokers = broker_nodes
            .iter()
            .map(|node| Broker::start(node, config.clone(), peers.clone()))
            .collect();
        let admin_node = fabric.add_node("admin");
        SimCluster {
            fabric,
            system,
            brokers: RefCell::new(brokers),
            broker_nodes,
            admin_node,
            telemetry,
            config,
            peers,
        }
    }

    /// Address of the bootstrap (controller) broker.
    pub fn bootstrap(&self) -> BrokerAddr {
        self.broker(0).addr()
    }

    /// Handle to broker `i` (a cheap clone; restarts swap the slot, so
    /// re-fetch after `restart_broker`).
    pub fn broker(&self, i: usize) -> Broker {
        self.brokers.borrow()[i].clone()
    }

    pub fn brokers(&self) -> Vec<Broker> {
        self.brokers.borrow().clone()
    }

    pub fn broker_count(&self) -> usize {
        self.brokers.borrow().len()
    }

    pub fn broker_node(&self, i: usize) -> &NodeHandle {
        &self.broker_nodes[i]
    }

    /// Adds a client machine to the fabric.
    pub fn add_client_node(&self, name: &str) -> NodeHandle {
        self.fabric.add_node(name)
    }

    /// Creates a topic through the controller and waits until its leaders
    /// are installed.
    pub async fn create_topic(&self, topic: &str, partitions: u32, replication: u32) {
        let admin = self.admin(self.bootstrap()).await;
        admin
            .create_topic(topic, partitions, replication)
            .await
            .expect("create topic");
    }

    /// An admin client on the cluster's admin machine, connected to `broker`.
    async fn admin(&self, broker: BrokerAddr) -> Admin {
        Admin::connect(&self.admin_node, broker)
            .await
            .expect("admin connect")
    }

    /// The telemetry registry this cluster's components report into.
    pub fn telemetry(&self) -> &kdtelem::Registry {
        &self.telemetry
    }

    /// Aggregated telemetry snapshot across every instrumented component
    /// (NICs, links, brokers, clients built on this thread).
    pub fn telemetry_report(&self) -> kdtelem::TelemetryReport {
        self.telemetry.snapshot()
    }

    /// Crashes broker `i` (see [`Broker::crash`]). Idempotent.
    pub fn crash_broker(&self, i: usize) {
        self.broker(i).crash();
    }

    /// Restarts a crashed broker on the same fabric node, recovering every
    /// partition it hosted from the surviving segment buffers (CRC scan,
    /// torn tails truncated). Cluster metadata — which may have moved on
    /// via [`fail_over`](Self::fail_over) while the broker was down — is
    /// re-learned from the controller, so a demoted ex-leader comes back as
    /// a follower under the new epoch. Returns the fresh broker handle.
    pub fn restart_broker(&self, i: usize) -> Broker {
        let old = self.broker(i);
        assert!(!old.is_alive(), "restart_broker({i}) on a live broker");
        let remnants = old.durable_state();
        let fresh = Broker::start(
            &self.broker_nodes[i],
            self.config.clone(),
            self.peers.clone(),
        );
        // Authoritative metadata: the lowest-indexed live broker's view —
        // usually broker 0, the controller, which generated plans never
        // crash. A stale restarting ex-leader must NOT trust its own
        // pre-crash store when any live peer exists: a fail_over while it
        // was down only updated live brokers, and reinstalling the old view
        // would resurrect a second leader under a fenced epoch. Only a
        // full-cluster outage falls back to the broker's own store.
        let src = (0..self.broker_count())
            .filter(|&j| j != i)
            .map(|j| self.broker(j))
            .find(|b| b.is_alive())
            .unwrap_or_else(|| old.clone());
        let me = fresh.addr().node;
        let mut remnant: std::collections::HashMap<_, _> = remnants.into_iter().collect();
        for t in src.inner().store.all_topics() {
            let mut parts = t.partitions.clone();
            parts.sort_by_key(|p| p.partition);
            for pm in parts {
                let tp = TopicPartition::new(t.name.as_str(), pm.partition);
                let hosted = pm.leader.node == me || pm.replicas.iter().any(|r| r.node == me);
                // No remnant (metadata only, or a partition created while
                // this broker was down): install fresh.
                let recovered = remnant.remove(&tp).filter(|_| hosted);
                if let Some(bufs) = recovered.as_ref().filter(|_| pm.leader.node != me) {
                    // Rejoining as a follower: apply the leader-epoch
                    // truncation rule before recovery (below).
                    self.truncate_to_leader_prefix(&tp, pm.leader, bufs);
                }
                kdbroker::admin::install(fresh.inner(), t.name.as_str(), pm, recovered);
            }
        }
        self.brokers.borrow_mut()[i] = fresh.clone();
        fresh
    }

    /// The stand-in for Kafka's `OffsetsForLeaderEpoch` truncation: a
    /// restarting follower's recovered log may have diverged from the
    /// current leader (the crashed ex-leader committed bytes that were
    /// never replicated before a failover). Zero the follower's buffers
    /// from the first byte that differs from the live leader's committed
    /// prefix — the recovery CRC scan then truncates at the last intact
    /// batch boundary before the divergence. If no live leader is found the
    /// log is recovered as-is; the push module detects the misaligned
    /// frontier at session establish and refuses to replicate onto it.
    fn truncate_to_leader_prefix(
        &self,
        tp: &TopicPartition,
        leader: BrokerAddr,
        bufs: &[(u64, rnic::ShmBuf)],
    ) {
        let Some(lb) = self
            .brokers
            .borrow()
            .iter()
            .find(|b| b.addr().node == leader.node && b.is_alive())
            .cloned()
        else {
            return;
        };
        let Some(lp) = lb.inner().store.get(tp) else {
            return;
        };
        for (base, buf) in bufs.iter() {
            let matched = (0..lp.log.segment_count())
                .filter_map(|k| lp.log.segment(k).map(|s| (k, s)))
                .find(|(_, s)| s.base_offset() == *base);
            match matched {
                Some((k, ls)) => {
                    // Evicted leader segments compare against file bytes.
                    let common = |lbytes: &[u8]| {
                        let lim = (ls.committed_pos() as usize).min(lbytes.len());
                        let same = |fseg: &[u8]| {
                            lbytes[..lim]
                                .iter()
                                .zip(fseg)
                                .take_while(|(a, b)| a == b)
                                .count()
                        };
                        buf.with(same)
                    };
                    let n = if ls.is_resident() {
                        ls.shared_buf().with(common)
                    } else {
                        common(&lp.log.store().and_then(|s| s.load(k)).unwrap_or_default())
                    };
                    buf.zero_from(n);
                }
                None => buf.zero_from(0),
            }
        }
    }

    /// Epoch-fenced leader change: promotes the first live follower of the
    /// partition, bumps the epoch, and installs the new view on every live
    /// broker (controller first). The demoted leader keeps a replica role;
    /// its active produce grant is revoked with `FencedEpoch`, rotating the
    /// rkey so any producer or push session still operating under the old
    /// epoch faults at the NIC. Returns the new leader, or `None` when no
    /// live follower exists to promote.
    pub fn fail_over(&self, topic: &str, partition: u32) -> Option<BrokerAddr> {
        let tp = TopicPartition::new(topic, partition);
        let meta = self.broker(0).inner().store.partition_meta(&tp)?;
        let live = |n: u32| {
            self.brokers
                .borrow()
                .iter()
                .any(|b| b.addr().node == n && b.is_alive())
        };
        let mut candidates: Vec<BrokerAddr> = meta
            .replicas
            .iter()
            .filter(|r| r.node != meta.leader.node && live(r.node))
            .copied()
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let new_leader = candidates.remove(0);
        let mut replicas = vec![meta.leader];
        replicas.extend(candidates);
        let epoch = meta.epoch + 1;
        for b in self.brokers() {
            if b.is_alive() {
                let meta = PartitionMeta {
                    partition,
                    epoch,
                    leader: new_leader,
                    replicas: replicas.clone(),
                };
                kdbroker::admin::install(b.inner(), topic, meta, None);
            }
        }
        Some(new_leader)
    }

    /// Address of the leader broker for a partition.
    pub async fn leader_of(&self, topic: &str, partition: u32) -> BrokerAddr {
        let admin = self.admin(self.bootstrap()).await;
        admin.leader_of(topic, partition).await.expect("leader")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_starts_and_creates_topics() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let cluster = SimCluster::start(SystemKind::Kafka, 3);
            cluster.create_topic("t", 4, 2).await;
            // Leaders spread round-robin over the three brokers.
            let l0 = cluster.leader_of("t", 0).await;
            let l1 = cluster.leader_of("t", 1).await;
            let l2 = cluster.leader_of("t", 2).await;
            let l3 = cluster.leader_of("t", 3).await;
            assert_ne!(l0.node, l1.node);
            assert_ne!(l1.node, l2.node);
            assert_eq!(l0.node, l3.node);
        });
    }

    #[test]
    fn duplicate_topic_rejected() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let cluster = SimCluster::start(SystemKind::Kafka, 1);
            cluster.create_topic("t", 1, 1).await;
            let admin = cluster.admin(cluster.bootstrap()).await;
            let err = admin.create_topic("t", 1, 1).await.err();
            assert_eq!(
                err,
                Some(kdclient::ClientError::Broker(
                    kdwire::ErrorCode::AlreadyExists
                ))
            );
        });
    }

    /// `ClusterOptions::default()` is what every figure and kdmark's
    /// clusters run: pin the exact config each system's brokers start with.
    /// The destructuring names every field, so a new one must be pinned too.
    #[test]
    fn default_template_is_pinned_per_system() {
        use kdbroker::{RdmaToggles, Transport};
        use std::time::Duration;
        let pull = RdmaToggles {
            replicate: false,
            ..RdmaToggles::all()
        };
        let none = RdmaToggles::none();
        for (system, want_transport, want_rdma) in [
            (SystemKind::Kafka, Transport::Tcp, none),
            (SystemKind::OsuKafka, Transport::RdmaSendRecv, none),
            (SystemKind::KafkaDirect, Transport::Tcp, RdmaToggles::all()),
            (SystemKind::KafkaDirectWith(pull), Transport::Tcp, pull),
        ] {
            let started = sim::Runtime::new().block_on(async move {
                let broker = SimCluster::start(system, 1).broker(0);
                broker.inner().config.clone()
            });
            let BrokerConfig {
                tcp_port,
                rdma_port,
                transport,
                rdma,
                api_workers,
                rdma_pollers,
                log:
                    LogConfig {
                        segment_size,
                        max_batch_size,
                    },
                replication_credits,
                replication_max_batch,
                shared_order_timeout,
                cq_batch,
                srq_depth,
                mux_pool,
                storage,
            } = started;
            assert_eq!((transport, rdma), (want_transport, want_rdma), "{system:?}");
            assert_eq!((tcp_port, rdma_port), (9092, 18515));
            assert_eq!(
                (api_workers, rdma_pollers, cq_batch, srq_depth),
                (8, 2, 16, 4096)
            );
            assert_eq!((segment_size, max_batch_size), (32 << 20, (1 << 20) + 4096));
            assert_eq!((replication_credits, replication_max_batch), (16, 1024));
            assert_eq!(shared_order_timeout, Duration::from_millis(2));
            assert_eq!(mux_pool, 0);
            assert!(storage.is_none());
        }
    }
}
