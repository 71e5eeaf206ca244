//! End-to-end produce→consume across every system and datapath combination
//! the paper evaluates (§5.1, §5.3).

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::Record;

fn records(n: usize, size: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::value(vec![(i % 251) as u8; size])
                .with_key(format!("k{i}").into_bytes())
                .with_timestamp(i as i64)
        })
        .collect()
}

/// TCP produce + TCP consume on the unmodified-Kafka configuration.
#[test]
fn kafka_tcp_round_trip() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::Kafka, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let producer =
            TcpProducer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "t", 0)
                .await
                .unwrap();
        let sent = records(20, 100);
        for (i, r) in sent.iter().enumerate() {
            let offset = producer.send(r).await.unwrap();
            assert_eq!(offset, i as u64);
        }
        let mut consumer =
            TcpConsumer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "t", 0, 0)
                .await
                .unwrap();
        let mut got = Vec::new();
        while got.len() < sent.len() {
            got.extend(consumer.next_records().await.unwrap());
        }
        assert_eq!(got.len(), sent.len());
        for (i, rv) in got.iter().enumerate() {
            assert_eq!(rv.offset, i as u64);
            assert_eq!(rv.record.value, sent[i].value);
            assert_eq!(rv.record.key.as_deref(), sent[i].key.as_deref());
        }
    });
}

/// OSU-Kafka transport round trip.
#[test]
fn osu_round_trip() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::OsuKafka, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let producer =
            TcpProducer::connect(&cnode, cluster.bootstrap(), ClientTransport::Osu, "t", 0)
                .await
                .unwrap();
        for (i, r) in records(10, 512).iter().enumerate() {
            assert_eq!(producer.send(r).await.unwrap(), i as u64);
        }
        let mut consumer =
            TcpConsumer::connect(&cnode, cluster.bootstrap(), ClientTransport::Osu, "t", 0, 0)
                .await
                .unwrap();
        let mut got = Vec::new();
        while got.len() < 10 {
            got.extend(consumer.next_records().await.unwrap());
        }
        assert_eq!(got.len(), 10);
    });
}

/// Exclusive RDMA produce + RDMA consume (the full KafkaDirect fast path).
#[test]
fn kafkadirect_exclusive_round_trip() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        let sent = records(50, 200);
        for (i, r) in sent.iter().enumerate() {
            assert_eq!(producer.send(r).await.unwrap(), i as u64);
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < sent.len() {
            got.extend(consumer.next_records().await.unwrap());
        }
        for (i, rv) in got.iter().enumerate() {
            assert_eq!(rv.offset, i as u64);
            assert_eq!(rv.record.value, sent[i].value);
        }
        // The produce path was genuinely zero-copy on the broker: no bytes
        // crossed a broker-CPU copy.
        let m = cluster.broker(0).metrics();
        assert_eq!(m.heap_copied_bytes, 0, "zero-copy produce violated");
        assert_eq!(m.rdma_commits, 50);
        // Fetches were served by the NIC alone.
        assert!(cluster.broker(0).nic_stats().reads_served > 0);
        assert_eq!(m.fetch_requests, 0, "no TCP fetches should have happened");
    });
}

/// Shared-mode producers (FAA reservations) interleaving on one partition.
#[test]
fn kafkadirect_shared_producers_interleave() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let mut handles = Vec::new();
        for pid in 0..3u8 {
            let cnode = cluster.add_client_node(&format!("c{pid}"));
            let bootstrap = cluster.bootstrap();
            handles.push(sim::spawn(async move {
                let mut producer = RdmaProducer::connect(&cnode, bootstrap, "t", 0, true)
                    .await
                    .unwrap();
                let mut offsets = Vec::new();
                for i in 0..10usize {
                    let r = Record::value(vec![pid; 64]).with_timestamp(i as i64);
                    offsets.push(producer.send(&r).await.unwrap());
                }
                offsets
            }));
        }
        let mut all_offsets = Vec::new();
        for h in handles {
            all_offsets.extend(h.await.unwrap());
        }
        // 30 records, distinct dense offsets 0..30.
        all_offsets.sort_unstable();
        assert_eq!(all_offsets, (0..30).collect::<Vec<u64>>());

        // Every record readable, none corrupted, none lost.
        let cnode = cluster.add_client_node("consumer");
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 30 {
            got.extend(consumer.next_records().await.unwrap());
        }
        let mut per_pid = [0u32; 3];
        for rv in &got {
            per_pid[rv.record.value[0] as usize] += 1;
        }
        assert_eq!(per_pid, [10, 10, 10]);
    });
}

/// Mixed TCP + RDMA producers on one shared file (§4.2.2 "Shared RDMA/TCP
/// access"): the broker reserves through the same atomic word.
#[test]
fn shared_mixed_tcp_and_rdma_producers() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut rdma = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, true)
            .await
            .unwrap();
        let tcp = TcpProducer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "t", 0)
            .await
            .unwrap();
        let mut offsets = Vec::new();
        for i in 0..6 {
            if i % 2 == 0 {
                offsets.push(rdma.send(&Record::value(vec![1u8; 32])).await.unwrap());
            } else {
                offsets.push(tcp.send(&Record::value(vec![2u8; 32])).await.unwrap());
            }
        }
        offsets.sort_unstable();
        assert_eq!(offsets, (0..6).collect::<Vec<u64>>());
    });
}

/// Producers roll across preallocated files; consumers follow (release +
/// re-request, §4.2.2 / §4.4.2).
#[test]
fn file_roll_producer_and_consumer_follow() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let mut opts = kafkadirect::ClusterOptions::default();
        opts.broker.log = kdstorage::LogConfig {
            segment_size: 16 * 1024, // tiny files force rolls
            max_batch_size: 8 * 1024,
        };
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        let n: u32 = 40;
        for i in 0..n {
            let r = Record::value(vec![i as u8; 1000]);
            assert_eq!(producer.send(&r).await.unwrap(), u64::from(i));
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < n as usize {
            got.extend(consumer.next_records().await.unwrap());
        }
        for (i, rv) in got.iter().enumerate() {
            assert_eq!(rv.offset, i as u64);
            assert_eq!(rv.record.value[0], i as u8);
        }
        // Rolling really happened and the consumer walked multiple files.
        assert!(
            consumer.stats.access_requests >= 2,
            "consumer must re-request files"
        );
        assert!(consumer.stats.releases >= 1, "consumer must release files");
    });
}

/// A late consumer starting mid-log gets exactly the suffix.
#[test]
fn consumer_starting_at_offset() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..20u8 {
            producer.send(&Record::value(vec![i; 16])).await.unwrap();
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 12)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 8 {
            got.extend(consumer.next_records().await.unwrap());
        }
        assert_eq!(got.first().unwrap().offset, 12);
        assert_eq!(got.last().unwrap().offset, 19);
    });
}

/// Consumer-group offsets commit and restore over TCP (§5.4).
#[test]
fn offset_commit_and_restore() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..10u8 {
            producer.send(&Record::value(vec![i; 8])).await.unwrap();
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        let mut seen = 0;
        while seen < 7 {
            seen += consumer.next_records().await.unwrap().len();
        }
        consumer.commit_offset("g1").await.unwrap();
        let committed = consumer.offset();

        let admin = kdclient::Admin::connect(&cnode, cluster.bootstrap())
            .await
            .unwrap();
        assert_eq!(
            admin.fetch_offset("g1", "t", 0).await.unwrap(),
            Some(committed)
        );
        assert_eq!(admin.fetch_offset("other", "t", 0).await.unwrap(), None);
    });
}

/// Multiple partitions with independent producers and consumers.
#[test]
fn multi_partition_isolation() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 4, 1).await;
        let mut handles = Vec::new();
        for part in 0..4u32 {
            let cnode = cluster.add_client_node(&format!("c{part}"));
            let bootstrap = cluster.bootstrap();
            handles.push(sim::spawn(async move {
                let mut producer = RdmaProducer::connect(&cnode, bootstrap, "t", part, false)
                    .await
                    .unwrap();
                for i in 0..15u8 {
                    producer
                        .send(&Record::value(vec![part as u8, i]))
                        .await
                        .unwrap();
                }
                let mut consumer = RdmaConsumer::connect(&cnode, bootstrap, "t", part, 0)
                    .await
                    .unwrap();
                let mut got = Vec::new();
                while got.len() < 15 {
                    got.extend(consumer.next_records().await.unwrap());
                }
                for (i, rv) in got.iter().enumerate() {
                    assert_eq!(rv.record.value, vec![part as u8, i as u8]);
                }
            }));
        }
        for h in handles {
            h.await.unwrap();
        }
    });
}

/// Large (near-limit) records survive the RDMA paths intact.
#[test]
fn large_records_round_trip() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        let mut payload = vec![0u8; 512 * 1024];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (i % 255) as u8;
        }
        producer
            .send(&Record::value(payload.clone()))
            .await
            .unwrap();
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        consumer.fetch_size = 64 * 1024;
        let got = consumer.next_records().await.unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].record.value, payload);
    });
}

/// Regression: pipelined exclusive produces of *variable* sizes must commit
/// in completion order even when several broker CQ pollers interleave
/// (§4.2.2's ordering requirement — a real race we hit during development).
#[test]
fn pipelined_variable_size_produce_orders_correctly() {
    let rt = sim::Runtime::with_seed(3);
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        let n = 500usize;
        let mut inflight: std::collections::VecDeque<
            sim::sync::oneshot::Receiver<(kdwire::ErrorCode, u64)>,
        > = std::collections::VecDeque::new();
        for i in 0..n {
            if inflight.len() >= 32 {
                let (err, _) = inflight.pop_front().unwrap().await.unwrap();
                assert!(err.is_ok(), "produce {i} failed: {err:?}");
            }
            // Sizes vary so any completion/position misalignment corrupts.
            let size = 50 + (i * 37) % 700;
            let rx = producer
                .send_pipelined(&Record::value(vec![(i % 251) as u8; size]))
                .await
                .unwrap();
            inflight.push_back(rx);
        }
        while let Some(rx) = inflight.pop_front() {
            let (err, _) = rx.await.unwrap();
            assert!(err.is_ok(), "tail produce failed: {err:?}");
        }
        // Every byte must read back exactly.
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        consumer.fetch_size = 8192;
        let mut got = Vec::new();
        while got.len() < n {
            got.extend(consumer.next_records().await.unwrap());
        }
        for (i, rv) in got.iter().enumerate() {
            let size = 50 + (i * 37) % 700;
            assert_eq!(rv.offset, i as u64);
            assert_eq!(rv.record.value, vec![(i % 251) as u8; size], "record {i}");
        }
        assert_eq!(cluster.broker(0).metrics().produce_aborts, 0);
        assert_eq!(cluster.broker(0).metrics().grants_revoked, 0);
    });
}

/// The n = 1 consumer schedule, frozen: the RPCs, Reads and CPU charges of a
/// single-subscription `RdmaConsumer` over a catch-up across file rolls and
/// a tailing phase with empty polls. The constants were recorded on the
/// commit *before* the multi-subscription consumer was merged into this
/// type, so a change to any of them is a change to what every figure runs.
#[test]
fn single_subscription_schedule_is_pinned() {
    let rt = sim::Runtime::with_seed(7);
    rt.block_on(async {
        let mut opts = kafkadirect::ClusterOptions::default();
        opts.broker.log = kdstorage::LogConfig {
            segment_size: 8 * 1024,
            max_batch_size: 4 * 1024,
        };
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
        cluster.create_topic("t", 1, 1).await;
        let pnode = cluster.add_client_node("p");
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&pnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..30u8 {
            producer.send(&Record::value(vec![i; 700])).await.unwrap();
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        consumer.fetch_size = 4096;
        // Tailing phase: ten more records, spaced so the consumer polls empty
        // in between.
        let tail = sim::spawn(async move {
            sim::time::sleep(std::time::Duration::from_micros(400)).await;
            for i in 30..40u8 {
                producer.send(&Record::value(vec![i; 700])).await.unwrap();
                sim::time::sleep(std::time::Duration::from_micros(25)).await;
            }
        });
        let (mut offsets, mut polls, mut empty) = (Vec::new(), 0u32, 0u32);
        // (poll index, records delivered) of every data-carrying poll.
        let mut deliveries = Vec::new();
        while offsets.len() < 40 {
            let got = consumer.poll().await.unwrap();
            polls += 1;
            if got.is_empty() {
                empty += 1;
            } else {
                deliveries.push((polls, got.len()));
            }
            offsets.extend(got.iter().map(|rv| rv.offset));
        }
        tail.await.unwrap();
        assert_eq!(offsets, (0..40).collect::<Vec<u64>>());
        let s = consumer.stats;
        assert_eq!(
            (
                s.data_reads,
                s.data_bytes,
                s.slot_reads,
                s.access_requests,
                s.releases
            ),
            PINNED_STATS
        );
        assert_eq!((polls, empty), PINNED_POLLS);
        assert_eq!(deliveries, PINNED_DELIVERIES);
        assert_eq!(sim::now().as_nanos(), PINNED_END_NS);
    });
}

/// data_reads, data_bytes, slot_reads, access_requests, releases.
const PINNED_STATS: (u64, u64, u64, u64, u64) = (12, 30160, 132, 4, 3);
/// polls, of which empty.
const PINNED_POLLS: (u32, u32) = (142, 130);
const PINNED_DELIVERIES: &[(u32, usize)] = &[
    (1, 5),
    (2, 5),
    (4, 5),
    (5, 5),
    (7, 5),
    (8, 5),
    (10, 5),
    (11, 1),
    (28, 1),
    (66, 1),
    (104, 1),
    (142, 1),
];
const PINNED_END_NS: u64 = 5_806_742;
