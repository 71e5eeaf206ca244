//! Replication datapaths end to end (§4.3, §5.2): TCP pull on the Kafka
//! baseline, RDMA push on KafkaDirect, high-watermark visibility, and
//! acks=all semantics.

use std::collections::VecDeque;
use std::rc::Rc;

use kafkadirect::{ClusterOptions, RdmaToggles, SimCluster, SystemKind};
use kdclient::{ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::{Record, TopicPartition};

/// A pipelined produce's ack.
type Ack = sim::sync::oneshot::Receiver<(kdwire::ErrorCode, u64)>;

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
            assert_eq!(
                b.metrics().replica_fetches,
                0,
                "no pull fetchers in push mode"
            );
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
        let mut opts = kafkadirect::ClusterOptions::default();
        opts.broker.log = kdstorage::LogConfig {
            segment_size: 8 * 1024,
            max_batch_size: 4 * 1024,
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

/// Two KafkaDirect brokers, the follower granting its push leader a single
/// credit, with topic `t` (one partition, RF 2) created.
struct OneCreditPair {
    cluster: SimCluster,
    leader: kdwire::BrokerAddr,
}

async fn one_credit_pair() -> OneCreditPair {
    let mut opts = kafkadirect::ClusterOptions::default();
    opts.broker.replication_credits = 1;
    opts.broker.log = kdstorage::LogConfig {
        segment_size: 1 << 20,
        max_batch_size: 64 * 1024,
    };
    let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 2, opts);
    cluster.create_topic("t", 1, 2).await;
    let leader = cluster.leader_of("t", 0).await;
    OneCreditPair { cluster, leader }
}

impl OneCreditPair {
    fn leader_broker(&self) -> kafkadirect::Broker {
        self.cluster.broker(1 - self.follower())
    }

    fn follower(&self) -> usize {
        (0..2)
            .find(|&i| self.cluster.broker(i).addr().node != self.leader.node)
            .unwrap()
    }
}

/// Push replication remains correct with the minimum credit window: the
/// leader strictly alternates write → credit-return (§4.3.2 flow control at
/// its tightest).
#[test]
fn push_replication_with_one_credit() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let pair = one_credit_pair().await;
        let (cnode, leader) = (pair.cluster.add_client_node("client"), pair.leader);
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
        assert!(pair.leader_broker().metrics().push_writes >= 40);
    });
}

/// A follower that dies while the leader's push loop is parked on its
/// credit returns (its one credit is out with the write in flight) must not
/// strand that loop: the QP's death flushes the receive the loop waits on,
/// the loop re-establishes once the follower is back, and the acks=all
/// produces parked on the high watermark complete.
#[test]
fn push_loop_parked_on_credits_survives_a_follower_restart() {
    use std::time::Duration;
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let pair = one_credit_pair().await;
        let (leader, follower) = (pair.leader_broker(), pair.follower());
        let cnode = pair.cluster.add_client_node("client");
        let mut producer = RdmaProducer::connect(&cnode, pair.leader, "t", 0, false)
            .await
            .unwrap();
        // One replicated record first, so the push session exists.
        assert_eq!(
            producer.send(&Record::value(vec![0; 700])).await.unwrap(),
            0
        );
        let pushed = leader.metrics().push_writes;
        // Two pipelined produces, too large to share one push write: pushing
        // the first takes the only credit, the second parks the push loop on
        // the credit return. The follower dies as the first write is posted.
        let first = producer
            .send_pipelined(&Record::value(vec![1; 700]))
            .await
            .unwrap();
        let second = producer
            .send_pipelined(&Record::value(vec![2; 700]))
            .await
            .unwrap();
        while leader.metrics().push_writes == pushed {
            sim::time::sleep(Duration::from_nanos(100)).await;
        }
        pair.cluster.crash_broker(follower);
        sim::time::sleep(Duration::from_millis(5)).await;

        let fresh = pair.cluster.restart_broker(follower);

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
        let (leader, follower) = (pair.leader_broker(), pair.follower());
        let cnode = pair.cluster.add_client_node("client");
        let mut producer = RdmaProducer::connect(&cnode, pair.leader, "t", 0, false)
            .await
            .unwrap();
        assert_eq!(
            producer.send(&Record::value(vec![0; 700])).await.unwrap(),
            0
        );
        let pushed = leader.metrics().push_writes;
        // One pipelined produce and nothing after it: once its push write is
        // posted the loop has no bytes left to push. The follower dies as
        // that write is posted.
        let ack = producer
            .send_pipelined(&Record::value(vec![1; 700]))
            .await
            .unwrap();
        while leader.metrics().push_writes == pushed {
            sim::time::sleep(Duration::from_nanos(100)).await;
        }
        pair.cluster.crash_broker(follower);
        sim::time::sleep(Duration::from_millis(5)).await;
        let fresh = pair.cluster.restart_broker(follower);

        let ack = sim::time::timeout(Duration::from_millis(500), ack).await;
        let ack = ack.expect("the produce is acknowledged once re-replicated");
        assert_eq!(ack.unwrap(), (kdwire::ErrorCode::None, 1));
        sim::time::sleep(Duration::from_millis(1)).await;
        let tp = kdstorage::TopicPartition::new("t", 0);
        assert_eq!(fresh.inner().store.get(&tp).unwrap().log.next_offset(), 2);
    });
}

/// A push write the follower's NIC took before the session's QP died still
/// acks after the death: its completion surfaces at the write's completion
/// instant, and the leader counts it then — the high watermark covers the
/// record, and `repl.replicate_ns` records the write, before any new session
/// exists (a new grant would also cover it, one RPC and a connect later).
#[test]
fn a_write_delivered_before_the_push_qp_dies_still_acks() {
    use std::time::Duration;
    let registry = kdtelem::Registry::new();
    let _telem = kdtelem::enter(&registry);
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let pair = one_credit_pair().await;
        let (leader, follower) = (pair.leader_broker(), pair.cluster.broker(pair.follower()));
        let cnode = pair.cluster.add_client_node("client");
        let mut producer = RdmaProducer::connect(&cnode, pair.leader, "t", 0, false)
            .await
            .unwrap();
        // One replicated record first, so the push session exists.
        assert_eq!(
            producer.send(&Record::value(vec![0; 700])).await.unwrap(),
            0
        );
        let tp = TopicPartition::new("t", 0);
        let lead = leader.inner().store.get(&tp).unwrap();
        let foll = follower.inner().store.get(&tp).unwrap();
        let session = leader.inner().repl_qps.borrow()[0].clone();
        let replicated = registry.histogram("kdbroker", "repl.replicate_ns");
        let before = replicated.count();

        let ack = producer
            .send_pipelined(&Record::value(vec![0xAB; 700]))
            .await
            .unwrap();
        // The write lands in the follower's file at its delivery.
        let mirrored = || {
            let (l, f) = (lead.log.segment(0).unwrap(), foll.log.segment(0).unwrap());
            let end = l.committed_pos();
            end > 0 && l.batch_count() == 2 && l.read(0, end) == f.read(0, end)
        };
        while !mirrored() {
            sim::time::sleep(Duration::from_nanos(10)).await;
        }
        assert_eq!(
            lead.log.high_watermark(),
            1,
            "the write's NIC ack is still on its way"
        );
        session.close();

        while lead.log.high_watermark() < 2 {
            sim::time::sleep(Duration::from_nanos(100)).await;
        }
        assert_eq!(
            leader.inner().repl_qps.borrow().len(),
            1,
            "the write's own completion acked it, not a new session's grant"
        );
        assert_eq!(
            replicated.count(),
            before + 1,
            "the write's replication latency"
        );
        let ack = sim::time::timeout(Duration::from_millis(1), ack).await;
        assert_eq!(ack.expect("acked").unwrap(), (kdwire::ErrorCode::None, 1));
    });
}

/// What an ack and a read mean under RF 3 push replication, on kdmark
/// `pubsub_repl`'s topology: three brokers, push replication, a window-1
/// producer and a pipelined one (both shared mode, as two producers of one
/// partition must be), and a tailing RDMA consumer. A completion says that
/// bytes moved, not that they are replicated ("RDMA and the Completion
/// Fallacy", PAPERS.md), so the oracle reads the leader's high watermark
/// itself: every ack a producer receives, and every record the consumer is
/// handed, has an offset below it at that instant.
#[test]
fn acks_and_deliveries_stay_below_the_high_watermark() {
    const W1: u64 = 120;
    const PIPELINED: u64 = 360;
    const WINDOW: usize = 8;
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 3);
        cluster.create_topic("t", 1, 3).await;
        let leader = cluster.leader_of("t", 0).await;
        let brokers = cluster.brokers();
        let broker = brokers
            .iter()
            .find(|b| b.addr().node == leader.node)
            .unwrap();
        let part = broker
            .inner()
            .store
            .get(&TopicPartition::new("t", 0))
            .unwrap();
        let hw = Rc::new(move || part.log.high_watermark());
        let acked = |what: &str, offset: u64, hw: &dyn Fn() -> u64| {
            assert!(
                offset < hw(),
                "{what} ack of offset {offset} at HW {}",
                hw()
            );
        };

        let node = cluster.add_client_node("window-1");
        let mut w1 = RdmaProducer::connect(&node, leader, "t", 0, true)
            .await
            .unwrap();
        let check = Rc::clone(&hw);
        let w1 = sim::spawn(async move {
            for i in 0..W1 {
                let offset = w1.send(&Record::value(vec![i as u8; 200])).await.unwrap();
                acked("window-1", offset, &*check);
            }
        });
        let node = cluster.add_client_node("pipelined");
        let mut pipelined = RdmaProducer::connect(&node, leader, "t", 0, true)
            .await
            .unwrap();
        let check = Rc::clone(&hw);
        let pipelined = sim::spawn(async move {
            let mut window = VecDeque::<Ack>::new();
            for i in 0..PIPELINED {
                if window.len() == WINDOW {
                    let ack = window.pop_front().unwrap();
                    let (error, offset) = ack.await.unwrap();
                    assert_eq!(error, kdwire::ErrorCode::None);
                    acked("pipelined", offset, &*check);
                }
                let record = Record::value(vec![i as u8; 300]);
                window.push_back(pipelined.send_pipelined(&record).await.unwrap());
            }
            for ack in window {
                let (_, offset) = ack.await.unwrap();
                acked("pipelined", offset, &*check);
            }
        });

        let cnode = cluster.add_client_node("consumer");
        let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
            .await
            .unwrap();
        let mut next = 0;
        while next < W1 + PIPELINED {
            for rv in consumer.poll().await.unwrap() {
                assert_eq!(rv.offset, next, "delivered in order, once");
                assert!(
                    rv.offset < hw(),
                    "delivered offset {} at HW {}",
                    rv.offset,
                    hw()
                );
                next += 1;
            }
        }
        w1.await.unwrap();
        pipelined.await.unwrap();
        assert_eq!(hw(), W1 + PIPELINED);
    });
}

/// A push session posts one credit-return receive per credit of its grant.
/// The push loop re-posts a return's receive only when it next takes a
/// credit, so every credit can come back while the loop waits for bytes. An
/// RNR storm on the leader's end of the session holds the returns of a
/// 120-record flood (one push write each, 128 credits) until the flood is
/// over and the loop idle; released at once, each must find a receive (no
/// RNR park). A second flood then takes credits again: every record is
/// pushed and the high watermark reaches the end.
#[test]
fn a_flood_with_128_credits_never_finds_the_credit_receives_empty() {
    use std::time::Duration;
    const FLOOD: u64 = 120;
    let registry = kdtelem::Registry::new();
    let _telem = kdtelem::enter(&registry);
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let mut opts = ClusterOptions::default();
        opts.broker.replication_credits = 128;
        // One record per push write.
        opts.broker.replication_max_batch = 1;
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 2, opts);
        cluster.create_topic("t", 1, 2).await;
        let leader = cluster.leader_of("t", 0).await;
        let brokers = cluster.brokers();
        let broker = brokers
            .iter()
            .find(|b| b.addr().node == leader.node)
            .unwrap();
        let node = cluster.add_client_node("flood");
        let mut producer = RdmaProducer::connect(&node, leader, "t", 0, false)
            .await
            .unwrap();
        // The first record establishes the push session.
        assert_eq!(producer.send(&Record::value(vec![0; 64])).await.unwrap(), 0);
        let session = broker.inner().repl_qps.borrow()[0].clone();
        let flood = async |producer: &mut RdmaProducer| {
            let mut acks = Vec::new();
            for i in 0..FLOOD {
                let record = Record::value(vec![i as u8; 64]);
                acks.push(producer.send_pipelined(&record).await.unwrap());
            }
            for ack in acks {
                assert_eq!(ack.await.unwrap().0, kdwire::ErrorCode::None);
            }
        };
        let storm = Duration::from_millis(5);
        let storm_end = sim::now() + storm;
        session.inject_rnr_storm(storm);
        flood(&mut producer).await;
        assert!(
            sim::now() < storm_end,
            "the first flood is over inside the storm"
        );
        sim::time::sleep(Duration::from_millis(6)).await;
        flood(&mut producer).await;
        sim::time::sleep(Duration::from_millis(1)).await;

        let part = broker
            .inner()
            .store
            .get(&TopicPartition::new("t", 0))
            .unwrap();
        assert_eq!(part.log.high_watermark(), 1 + 2 * FLOOD);
        assert_eq!(
            broker.metrics().push_writes,
            1 + 2 * FLOOD,
            "one write per record"
        );
        let rnr = |name| registry.snapshot().counter("rnic", name).unwrap_or(0);
        assert_eq!((rnr("qp.rnr_dry"), rnr("srq.rnr_dry")), (0, 0), "RNR parks");
    });
}
