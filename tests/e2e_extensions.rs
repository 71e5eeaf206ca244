//! Tests of the two implemented extensions the paper leaves as future work:
//! RDMA offset commit (§5.4) and adaptive fetch sizing (§4.4.2).

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{RdmaConsumer, RdmaProducer};
use kdstorage::Record;

/// One-sided offset commit: visible through OffsetFetch, zero broker CPU.
#[test]
fn rdma_offset_commit_round_trip() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..10u8 {
            producer.send(&Record::value(vec![i; 32])).await.unwrap();
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        consumer.enable_rdma_offset_commit("g").await.unwrap();
        let mut seen = 0;
        while seen < 6 {
            seen += consumer.next_records().await.unwrap().len();
        }
        let busy_before = cluster.broker(0).metrics().worker_busy_ns;
        consumer.commit_offset_rdma().await.unwrap();
        let busy_after = cluster.broker(0).metrics().worker_busy_ns;
        assert_eq!(
            busy_after, busy_before,
            "one-sided commit costs no broker CPU"
        );
        assert_eq!(consumer.stats.rdma_offset_commits, 1);

        // The committed offset is visible over the normal TCP API.
        let admin = kdclient::Admin::connect(&cnode, cluster.bootstrap())
            .await
            .unwrap();
        assert_eq!(
            admin.fetch_offset("g", "t", 0).await.unwrap(),
            Some(consumer.offset())
        );
    });
}

/// TCP and RDMA commits for the same group coexist; the newest wins.
#[test]
fn rdma_and_tcp_commits_merge() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..10u8 {
            producer.send(&Record::value(vec![i; 32])).await.unwrap();
        }
        let admin = kdclient::Admin::connect(&cnode, cluster.bootstrap())
            .await
            .unwrap();
        // TCP commit at 3.
        admin.commit_offset("g", "t", 0, 3).await.unwrap();
        // RDMA commit at 7.
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        consumer.enable_rdma_offset_commit("g").await.unwrap();
        let mut seen = 0;
        while seen < 7 {
            seen += consumer.next_records().await.unwrap().len();
        }
        consumer.commit_offset_rdma().await.unwrap();
        let rdma_committed = consumer.offset(); // batch-granular: >= 7
        assert!(rdma_committed >= 7);
        assert_eq!(
            admin.fetch_offset("g", "t", 0).await.unwrap(),
            Some(rdma_committed.max(3)),
            "newest commit wins"
        );
        // A later (higher) TCP commit overrides again.
        admin.commit_offset("g", "t", 0, 20).await.unwrap();
        assert_eq!(admin.fetch_offset("g", "t", 0).await.unwrap(), Some(20));
    });
}

/// Offset slots are rejected when the RDMA consume datapath is disabled.
#[test]
fn offset_slot_requires_rdma_consume() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::Kafka, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let conn =
            kdclient::Conn::connect(&cnode, cluster.bootstrap(), kdclient::ClientTransport::Tcp)
                .await
                .unwrap();
        let resp = conn
            .call(&kdwire::Request::OffsetSlotAccess {
                group: "g".into(),
                topic: "t".into(),
                partition: 0,
            })
            .await
            .unwrap();
        match resp {
            kdwire::Response::OffsetSlotAccess { error, .. } => {
                assert_eq!(error, kdwire::ErrorCode::InvalidRequest);
            }
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// Adaptive fetch sizing reads large records with far fewer RDMA Reads than
/// the fixed 2 KiB default, and still delivers identical data.
#[test]
fn adaptive_fetch_reduces_reads() {
    let run = |adaptive: bool| {
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
            cluster.create_topic("t", 1, 1).await;
            let cnode = cluster.add_client_node("c");
            let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
                .await
                .unwrap();
            let n = 30u32;
            for i in 0..n {
                producer
                    .send(&Record::value(vec![(i % 251) as u8; 48 * 1024]))
                    .await
                    .unwrap();
            }
            let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
                .await
                .unwrap();
            consumer.adaptive_fetch = adaptive;
            let mut got = Vec::new();
            while got.len() < n as usize {
                got.extend(consumer.next_records().await.unwrap());
            }
            for (i, rv) in got.iter().enumerate() {
                assert_eq!(rv.record.value, vec![(i as u32 % 251) as u8; 48 * 1024]);
            }
            consumer.stats.data_reads
        })
    };
    let fixed = run(false);
    let adaptive = run(true);
    assert!(
        adaptive * 5 < fixed,
        "adaptive ({adaptive} reads) must need far fewer reads than fixed ({fixed})"
    );
    // Roughly two reads per record in steady state (header probe + body).
    assert!(adaptive <= 3 * 30, "adaptive reads: {adaptive}");
}

/// Adaptive mode also works for tiny records (EWMA shrinks the reads).
#[test]
fn adaptive_fetch_handles_small_records() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..50u8 {
            producer.send(&Record::value(vec![i; 64])).await.unwrap();
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        consumer.adaptive_fetch = true;
        let mut got = Vec::new();
        while got.len() < 50 {
            got.extend(consumer.next_records().await.unwrap());
        }
        for (i, rv) in got.iter().enumerate() {
            assert_eq!(rv.record.value, vec![i as u8; 64]);
        }
    });
}

/// Polls until some subscription delivers.
async fn next_tagged(
    consumer: &mut RdmaConsumer,
) -> Vec<(kdstorage::TopicPartition, kdstorage::RecordView)> {
    loop {
        let records = consumer.poll_tagged().await.unwrap();
        if !records.is_empty() {
            return records;
        }
    }
}

/// The Fig 9 multi-subscription consumer: N partitions, ONE slot read per
/// poll, all data delivered correctly.
#[test]
fn multi_consumer_single_slot_read() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        let parts = 6u32;
        cluster.create_topic("t", parts, 1).await;
        let cnode = cluster.add_client_node("c");
        // Produce a distinct stream into each partition.
        for p in 0..parts {
            let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", p, false)
                .await
                .unwrap();
            for i in 0..10u8 {
                producer
                    .send(&Record::value(vec![p as u8, i]))
                    .await
                    .unwrap();
            }
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        for p in 1..parts {
            consumer.subscribe("t", p, 0);
        }
        let mut per_part = vec![Vec::new(); parts as usize];
        let mut total = 0;
        while total < (parts * 10) as usize {
            for (tp, rv) in next_tagged(&mut consumer).await {
                per_part[tp.partition as usize].push(rv);
                total += 1;
            }
        }
        for (p, got) in per_part.iter().enumerate() {
            assert_eq!(got.len(), 10);
            for (i, rv) in got.iter().enumerate() {
                assert_eq!(rv.offset, i as u64);
                assert_eq!(rv.record.value, vec![p as u8, i as u8]);
            }
        }
        // The Fig 9 property: metadata for all 6 subscriptions refreshed
        // with far fewer slot reads than a per-subscription design.
        assert!(
            consumer.stats.slot_reads <= consumer.stats.data_reads + 4,
            "one slot read per poll: slot_reads={} data_reads={}",
            consumer.stats.slot_reads,
            consumer.stats.data_reads / parts as u64,
        );
        // Access requests: exactly one per subscription (no churn).
        assert_eq!(consumer.stats.access_requests, u64::from(parts));
    });
}

/// Multi-consumer keeps up with live producers on all partitions and
/// follows file rolls.
#[test]
fn multi_consumer_live_stream_with_rolls() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let mut opts = kafkadirect::ClusterOptions::default();
        opts.broker.log = kdstorage::LogConfig {
            segment_size: 8 * 1024,
            max_batch_size: 4 * 1024,
        };
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
        cluster.create_topic("t", 3, 1).await;
        let cnode = cluster.add_client_node("c");
        let n_per = 25u32;
        for p in 0..3u32 {
            let bootstrap = cluster.bootstrap();
            let node = cluster.add_client_node(&format!("p{p}"));
            sim::spawn(async move {
                let mut producer = RdmaProducer::connect(&node, bootstrap, "t", p, false)
                    .await
                    .unwrap();
                for i in 0..n_per {
                    producer
                        .send(&Record::value(vec![(p * 100 + i % 90) as u8; 700]))
                        .await
                        .unwrap();
                }
            });
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        consumer.fetch_size = 4096;
        for p in 1..3 {
            consumer.subscribe("t", p, 0);
        }
        let mut counts = [0usize; 3];
        while counts.iter().sum::<usize>() < (3 * n_per) as usize {
            for (tp, rv) in next_tagged(&mut consumer).await {
                let p = tp.partition;
                assert_eq!(
                    rv.record.value,
                    vec![(p * 100 + (rv.offset as u32) % 90) as u8; 700]
                );
                counts[p as usize] += 1;
            }
        }
        assert_eq!(counts, [25, 25, 25]);
        // File rolls forced re-acquisitions beyond the initial three.
        assert!(consumer.stats.access_requests > 3);
    });
}
