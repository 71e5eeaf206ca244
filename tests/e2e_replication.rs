//! Replication datapaths end to end (§4.3, §5.2): TCP pull on the Kafka
//! baseline, RDMA push on KafkaDirect, high-watermark visibility, and
//! acks=all semantics.

use kafkadirect::{RdmaToggles, SimCluster, SystemKind};
use kdclient::{ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::Record;

/// Pull replication: records become consumable only after followers catch
/// up; acks=all waits for full replication.
#[test]
fn pull_replication_three_way() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::Kafka, 3);
        cluster.create_topic("t", 1, 3).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let producer = TcpProducer::connect(&cnode, leader, ClientTransport::Tcp, "t", 0)
            .await
            .unwrap();
        for i in 0..10u8 {
            // acks=All (default): resolves only once both followers hold it.
            let off = producer.send(&Record::value(vec![i; 128])).await.unwrap();
            assert_eq!(off, u64::from(i));
        }
        // The leader's high watermark covers all records.
        let admin = kdclient::Admin::connect(&cnode, cluster.bootstrap())
            .await
            .unwrap();
        let (_, hw) = admin.list_offsets("t", 0).await.unwrap();
        assert_eq!(hw, 10);
        // Followers really hold the bytes (replica fetch counters moved).
        let follower_metrics: u64 = cluster
            .brokers()
            .iter()
            .map(|b| b.metrics().replica_fetches)
            .sum();
        assert!(follower_metrics > 0, "pull fetchers must have run");
        // And the data is consumable.
        let mut consumer = TcpConsumer::connect(&cnode, leader, ClientTransport::Tcp, "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 10 {
            got.extend(consumer.next_records().await.unwrap());
        }
        assert_eq!(got.len(), 10);
    });
}

/// RDMA push replication: leader writes directly into follower files; the
/// follower-side commit is zero copy too.
#[test]
fn push_replication_three_way() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 3);
        cluster.create_topic("t", 1, 3).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
            .await
            .unwrap();
        for i in 0..25u8 {
            let off = producer.send(&Record::value(vec![i; 256])).await.unwrap();
            assert_eq!(off, u64::from(i));
        }
        // Push writes happened from the leader.
        let leader_broker = cluster
            .brokers()
            .into_iter()
            .find(|b| b.addr().node == leader.node)
            .unwrap();
        let lm = leader_broker.metrics();
        assert!(lm.push_writes > 0, "push module must have written");
        assert!(lm.push_bytes > 0);
        // No broker copied any bytes with its CPU: produce was RDMA,
        // replication was RDMA push, commits were in place.
        for b in cluster.brokers() {
            assert_eq!(b.metrics().heap_copied_bytes, 0, "zero-copy replication");
            assert_eq!(b.metrics().replica_fetches, 0, "no pull fetchers in push mode");
        }
        // Followers committed identical bytes: their logs answer reads.
        let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 25 {
            got.extend(consumer.next_records().await.unwrap());
        }
        for (i, rv) in got.iter().enumerate() {
            assert_eq!(rv.record.value, vec![i as u8; 256]);
        }
    });
}

/// Module isolation (Fig 14/15): RDMA produce with TCP pull replication, and
/// TCP produce with RDMA push replication, both deliver correct data.
#[test]
fn mixed_datapath_combinations() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        // RDMA produce only (replication stays pull).
        let prod_only = SystemKind::KafkaDirectWith(RdmaToggles {
            produce: true,
            replicate: false,
            consume: false,
        });
        let cluster = SimCluster::start(prod_only, 2);
        cluster.create_topic("t", 1, 2).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
            .await
            .unwrap();
        for i in 0..8u8 {
            producer.send(&Record::value(vec![i; 64])).await.unwrap();
        }
        let mut consumer = TcpConsumer::connect(&cnode, leader, ClientTransport::Tcp, "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 8 {
            got.extend(consumer.next_records().await.unwrap());
        }
        assert_eq!(got.len(), 8);
    });
    rt.block_on(async {
        // RDMA replication only (produce stays TCP).
        let repl_only = SystemKind::KafkaDirectWith(RdmaToggles {
            produce: false,
            replicate: true,
            consume: false,
        });
        let cluster = SimCluster::start(repl_only, 2);
        cluster.create_topic("t", 1, 2).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let producer = TcpProducer::connect(&cnode, leader, ClientTransport::Tcp, "t", 0)
            .await
            .unwrap();
        for i in 0..8u8 {
            producer.send(&Record::value(vec![i; 64])).await.unwrap();
        }
        let leader_broker = cluster
            .brokers()
            .into_iter()
            .find(|b| b.addr().node == leader.node)
            .unwrap();
        assert!(leader_broker.metrics().push_writes > 0);
    });
}

/// Replication follows the leader across file rolls (push mode), keeping
/// follower logs byte-identical.
#[test]
fn push_replication_across_file_rolls() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let opts = kafkadirect::ClusterOptions {
            log: kdstorage::LogConfig {
                segment_size: 8 * 1024,
                max_batch_size: 4 * 1024,
            },
            ..Default::default()
        };
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 2, opts);
        cluster.create_topic("t", 1, 2).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
            .await
            .unwrap();
        let n = 30u32;
        for i in 0..n {
            let off = producer
                .send(&Record::value(vec![(i % 251) as u8; 900]))
                .await
                .unwrap();
            assert_eq!(off, u64::from(i));
        }
        // All records fully replicated (acks resolved) and readable.
        let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < n as usize {
            got.extend(consumer.next_records().await.unwrap());
        }
        for (i, rv) in got.iter().enumerate() {
            assert_eq!(rv.record.value, vec![(i % 251) as u8; 900]);
        }
    });
}

/// The high watermark gates consumers: data not yet replicated is invisible
/// on every datapath (§4.4.2: "An RDMA consumer never reads beyond the last
/// readable byte").
#[test]
fn consumers_never_see_uncommitted_records() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::Kafka, 2);
        cluster.create_topic("t", 1, 2).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let mut producer = TcpProducer::connect(&cnode, leader, ClientTransport::Tcp, "t", 0)
            .await
            .unwrap();
        // Leader-only ack so the producer doesn't wait for replication.
        producer.acks = kdclient::producer::Acks::Leader;
        producer.send(&Record::value(vec![1u8; 64])).await.unwrap();
        // Immediately fetch: the record may not be replicated yet; the
        // response must never contain records beyond the high watermark.
        let mut consumer = TcpConsumer::connect(&cnode, leader, ClientTransport::Tcp, "t", 0, 0)
            .await
            .unwrap();
        let records = consumer.poll().await.unwrap();
        let admin = kdclient::Admin::connect(&cnode, cluster.bootstrap())
            .await
            .unwrap();
        let (_, hw) = admin.list_offsets("t", 0).await.unwrap();
        for rv in &records {
            assert!(rv.offset < hw, "fetched record beyond high watermark");
        }
        // Eventually it replicates and becomes visible.
        let mut got = records;
        while got.is_empty() {
            got = consumer.poll().await.unwrap();
        }
        assert_eq!(got[0].record.value, vec![1u8; 64]);
    });
}

/// Two KafkaDirect brokers built directly, the follower granting its push
/// leader a single credit, with topic `t` (one partition, RF 2) created.
struct OneCreditPair {
    fabric: netsim::Fabric,
    cfg: kdbroker::BrokerConfig,
    peers: Vec<kdwire::BrokerAddr>,
    nodes: Vec<netsim::NodeHandle>,
    brokers: Vec<kafkadirect::Broker>,
    leader: kdwire::BrokerAddr,
}

async fn one_credit_pair() -> OneCreditPair {
    let mut cfg = SystemKind::KafkaDirect.broker_config();
    cfg.replication_credits = 1;
    cfg.log = kdstorage::LogConfig {
        segment_size: 1 << 20,
        max_batch_size: 64 * 1024,
    };
    let fabric = netsim::Fabric::new(netsim::profile::Profile::testbed());
    let mut peers = Vec::new();
    let mut nodes = Vec::new();
    for i in 0..2 {
        let node = fabric.add_node(&format!("b{i}"));
        peers.push(kdwire::BrokerAddr {
            node: node.id.0,
            port: cfg.tcp_port,
            rdma_port: cfg.rdma_port,
        });
        nodes.push(node);
    }
    let brokers: Vec<_> = nodes
        .iter()
        .map(|n| kafkadirect::Broker::start(n, cfg.clone(), peers.clone()))
        .collect();
    let admin_node = fabric.add_node("admin");
    let admin = kdclient::Admin::connect(&admin_node, peers[0]).await.unwrap();
    admin.create_topic("t", 1, 2).await.unwrap();
    let leader = admin.leader_of("t", 0).await.unwrap();
    OneCreditPair { fabric, cfg, peers, nodes, brokers, leader }
}

impl OneCreditPair {
    fn leader_broker(&self) -> &kafkadirect::Broker {
        &self.brokers[1 - self.follower()]
    }

    fn follower(&self) -> usize {
        self.brokers.iter().position(|b| b.addr().node != self.leader.node).unwrap()
    }

    /// Starts the crashed follower again on its node with what its "disk"
    /// kept, under the metadata the leader still holds.
    fn restart_follower(&self) -> kafkadirect::Broker {
        let fi = self.follower();
        let (cfg, peers) = (self.cfg.clone(), self.peers.clone());
        let fresh = kafkadirect::Broker::start(&self.nodes[fi], cfg, peers);
        let topic = self.leader_broker().inner().store.topic_meta("t").unwrap();
        let pm = &topic.partitions[0];
        for (tp, bufs) in self.brokers[fi].durable_state() {
            fresh.install_recovered(
                tp.topic.as_str(),
                tp.partition,
                pm.epoch,
                pm.leader,
                pm.replicas.clone(),
                bufs,
            );
        }
        fresh
    }
}

/// Push replication remains correct with the minimum credit window: the
/// leader strictly alternates write → credit-return (§4.3.2 flow control at
/// its tightest).
#[test]
fn push_replication_with_one_credit() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let OneCreditPair { fabric, brokers, leader, .. } = one_credit_pair().await;
        let cnode = fabric.add_node("client");
        let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
            .await
            .unwrap();
        for i in 0..40u8 {
            assert_eq!(
                producer.send(&Record::value(vec![i; 200])).await.unwrap(),
                u64::from(i)
            );
        }
        let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 40 {
            got.extend(consumer.next_records().await.unwrap());
        }
        for (i, rv) in got.iter().enumerate() {
            assert_eq!(rv.record.value, vec![i as u8; 200]);
        }
        let leader_broker = brokers.iter().find(|b| b.addr().node == leader.node).unwrap();
        assert!(leader_broker.metrics().push_writes >= 40);
    });
}

/// A follower that dies while the leader's push loop is parked on the
/// credit semaphore (its one credit is out with the write in flight) must
/// not strand that loop: the session's collectors close the semaphore when
/// they see the QP die, the loop re-establishes once the follower is back,
/// and the acks=all produces parked on the high watermark complete.
#[test]
fn push_loop_parked_on_credits_survives_a_follower_restart() {
    use std::time::Duration;
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let pair = one_credit_pair().await;
        let (leader, follower) = (pair.leader_broker(), &pair.brokers[pair.follower()]);
        let cnode = pair.fabric.add_node("client");
        let mut producer = RdmaProducer::connect(&cnode, pair.leader, "t", 0, false)
            .await
            .unwrap();
        // One replicated record first, so the push session exists.
        assert_eq!(producer.send(&Record::value(vec![0; 700])).await.unwrap(), 0);
        let pushed = leader.metrics().push_writes;
        // Two pipelined produces, too large to share one push write: pushing
        // the first takes the only credit, the second parks the push loop on
        // the semaphore. The follower dies as the first write is posted.
        let first = producer.send_pipelined(&Record::value(vec![1; 700])).await.unwrap();
        let second = producer.send_pipelined(&Record::value(vec![2; 700])).await.unwrap();
        while leader.metrics().push_writes == pushed {
            sim::time::sleep(Duration::from_nanos(100)).await;
        }
        follower.crash();
        sim::time::sleep(Duration::from_millis(5)).await;

        let fresh = pair.restart_follower();

        for (ack, offset) in [(first, 1), (second, 2)] {
            let ack = sim::time::timeout(Duration::from_millis(500), ack).await;
            let ack = ack.expect("the produce is acknowledged once re-replicated");
            assert_eq!(ack.unwrap(), (kdwire::ErrorCode::None, offset));
        }
        // The leader counts a write replicated at its NIC-level completion;
        // the follower's own commit of it trails by a worker hop.
        sim::time::sleep(Duration::from_millis(1)).await;
        let tp = kdstorage::TopicPartition::new("t", 0);
        assert_eq!(fresh.inner().store.get(&tp).unwrap().log.next_offset(), 3);
    });
}

/// A follower that dies while the leader's push loop waits for new bytes —
/// everything committed is posted, and that last write is in flight — must
/// not strand the loop until the next produce: a session that dies with a
/// write unacknowledged is re-established at once, the grant of the
/// restarted follower rewinds the cursor to what it kept, and the acks=all
/// produce parked on the high watermark completes.
#[test]
fn push_loop_parked_on_bytes_survives_a_follower_restart() {
    use std::time::Duration;
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let pair = one_credit_pair().await;
        let (leader, follower) = (pair.leader_broker(), &pair.brokers[pair.follower()]);
        let cnode = pair.fabric.add_node("client");
        let mut producer = RdmaProducer::connect(&cnode, pair.leader, "t", 0, false)
            .await
            .unwrap();
        assert_eq!(producer.send(&Record::value(vec![0; 700])).await.unwrap(), 0);
        let pushed = leader.metrics().push_writes;
        // One pipelined produce and nothing after it: once its push write is
        // posted the loop has no bytes left to push. The follower dies as
        // that write is posted.
        let ack = producer.send_pipelined(&Record::value(vec![1; 700])).await.unwrap();
        while leader.metrics().push_writes == pushed {
            sim::time::sleep(Duration::from_nanos(100)).await;
        }
        follower.crash();
        sim::time::sleep(Duration::from_millis(5)).await;
        let fresh = pair.restart_follower();

        let ack = sim::time::timeout(Duration::from_millis(500), ack).await;
        let ack = ack.expect("the produce is acknowledged once re-replicated");
        assert_eq!(ack.unwrap(), (kdwire::ErrorCode::None, 1));
        sim::time::sleep(Duration::from_millis(1)).await;
        let tp = kdstorage::TopicPartition::new("t", 0);
        assert_eq!(fresh.inner().store.get(&tp).unwrap().log.next_offset(), 2);
    });
}
