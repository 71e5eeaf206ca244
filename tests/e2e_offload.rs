//! CPU-offload claims (§5.1, §5.3): the RDMA consume datapath involves no
//! broker CPU; zero-copy produce reduces worker time; empty fetches are
//! served entirely by the NIC.

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::Record;

/// RDMA consumers fetching preloaded records add **zero** broker CPU time
/// and zero broker requests — the §5.3 "completely offloaded" claim.
#[test]
fn rdma_consume_uses_no_broker_cpu() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..50u8 {
            producer.send(&Record::value(vec![i; 512])).await.unwrap();
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        // One control-plane access request is allowed; snapshot after it.
        let first = consumer.next_records().await.unwrap();
        assert!(!first.is_empty());
        let before = cluster.broker(0).metrics();
        let nic_before = cluster.broker(0).nic_stats();
        let mut got = first.len();
        while got < 50 {
            got += consumer.next_records().await.unwrap().len();
        }
        let after = cluster.broker(0).metrics();
        let nic_after = cluster.broker(0).nic_stats();
        assert_eq!(
            after.worker_busy_ns, before.worker_busy_ns,
            "broker workers must not run for RDMA fetches"
        );
        assert_eq!(after.fetch_requests, before.fetch_requests);
        assert!(
            nic_after.reads_served > nic_before.reads_served,
            "the NIC alone served the reads"
        );
    });
}

/// Empty fetches: TCP costs broker CPU per request; RDMA slot reads cost
/// none (the §5.3 "thousands of clients with no CPU cost" claim).
#[test]
fn empty_fetch_cpu_comparison() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        // TCP side.
        let cluster = SimCluster::start(SystemKind::Kafka, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut consumer =
            TcpConsumer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "t", 0, 0)
                .await
                .unwrap();
        let before = cluster.broker(0).metrics();
        for _ in 0..20 {
            assert!(consumer.poll().await.unwrap().is_empty());
        }
        let after = cluster.broker(0).metrics();
        assert_eq!(after.empty_fetches - before.empty_fetches, 20);
        assert!(after.worker_busy_ns > before.worker_busy_ns);
        assert!(after.net_busy_ns > before.net_busy_ns);
    });
    rt.block_on(async {
        // RDMA side.
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        // First check performs the access RPC; subsequent checks are pure
        // RDMA slot reads.
        consumer.check_new_data().await.unwrap();
        let before = cluster.broker(0).metrics();
        for _ in 0..1000 {
            consumer.check_new_data().await.unwrap();
        }
        let after = cluster.broker(0).metrics();
        assert_eq!(
            after.worker_busy_ns, before.worker_busy_ns,
            "slot reads must cost zero broker CPU"
        );
        assert_eq!(after.net_busy_ns, before.net_busy_ns);
        assert!(consumer.stats.slot_reads >= 1000);
    });
}

/// Zero-copy produce: for the same workload, the Kafka broker copies every
/// byte (twice, counting the kernel), while KafkaDirect copies none and
/// spends measurably less worker time per byte.
#[test]
fn produce_copy_accounting() {
    let payload_bytes: u64 = 50 * 4096;

    let rt = sim::Runtime::new();
    let (kafka_copied, kafka_busy) = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::Kafka, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let producer =
            TcpProducer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "t", 0)
                .await
                .unwrap();
        for _ in 0..50 {
            producer
                .send(&Record::value(vec![7u8; 4096]))
                .await
                .unwrap();
        }
        let m = cluster.broker(0).metrics();
        (m.heap_copied_bytes, m.worker_busy_ns)
    });

    let rt = sim::Runtime::new();
    let (kd_copied, kd_busy) = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for _ in 0..50 {
            producer
                .send(&Record::value(vec![7u8; 4096]))
                .await
                .unwrap();
        }
        let m = cluster.broker(0).metrics();
        (m.heap_copied_bytes, m.worker_busy_ns)
    });

    assert!(kafka_copied >= payload_bytes, "Kafka copies every byte");
    assert_eq!(kd_copied, 0, "KafkaDirect copies none");
    // Fig 13's 3.3x CPU-load reduction: we assert at least 2x here.
    assert!(
        kafka_busy > 2 * kd_busy,
        "worker time: kafka={kafka_busy}ns kd={kd_busy}ns"
    );
}

/// Many RDMA consumers fan out with no broker CPU growth (§5.3 "serve
/// thousands of clients").
#[test]
fn many_consumers_fan_out() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("producer");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..10u8 {
            producer.send(&Record::value(vec![i; 128])).await.unwrap();
        }
        let busy_before = cluster.broker(0).metrics().worker_busy_ns;
        let mut handles = Vec::new();
        for c in 0..24 {
            let cnode = cluster.add_client_node(&format!("c{c}"));
            let bootstrap = cluster.bootstrap();
            handles.push(sim::spawn(async move {
                let mut consumer = RdmaConsumer::connect(&cnode, bootstrap, "t", 0, 0)
                    .await
                    .unwrap();
                let mut got = Vec::new();
                while got.len() < 10 {
                    got.extend(consumer.next_records().await.unwrap());
                }
                got.len()
            }));
        }
        for h in handles {
            assert_eq!(h.await.unwrap(), 10);
        }
        let busy_after = cluster.broker(0).metrics().worker_busy_ns;
        // Only the 24 access-grant RPCs cost CPU (a few µs each), far less
        // than serving 240 records over TCP would.
        let delta_us = (busy_after - busy_before) / 1000;
        assert!(delta_us < 500, "consumer fan-out cost {delta_us}us of CPU");
    });
}
