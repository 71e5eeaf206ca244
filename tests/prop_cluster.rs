//! Generative cluster tests: randomized workloads through the full stack
//! must preserve the log invariants — dense offsets, no holes, no
//! corruption, reads equal writes — for every datapath mix.
//!
//! Cases are generated by a seeded in-tree RNG (`sim::rng::SimRng`) in a
//! fixed-count loop, so failures reproduce exactly from the printed seed.

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::Record;
use sim::rng::SimRng;

/// One randomized producer action.
#[derive(Debug, Clone)]
struct Op {
    producer: usize,
    size: usize,
}

fn arb_ops(rng: &mut SimRng, producers: usize) -> Vec<Op> {
    let n = rng.random_range(1usize..40);
    (0..n)
        .map(|_| Op {
            producer: rng.random_range(0usize..producers),
            size: rng.random_range(1usize..1500),
        })
        .collect()
}

/// Randomized interleavings of shared RDMA producers + a TCP producer on one
/// partition: consumers must read exactly the multiset of written payloads,
/// in dense offset order.
#[test]
fn shared_partition_linearizes() {
    for case in 0..12u64 {
        let mut rng = SimRng::seed_from_u64(0xC1_0001 ^ case);
        let ops = arb_ops(&mut rng, 3);
        let seed = rng.random_range(0u64..1000);
        let rt = sim::Runtime::with_seed(seed);
        let total = ops.len();
        rt.block_on(async move {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
            cluster.create_topic("t", 1, 1).await;
            let cnode = cluster.add_client_node("c");
            // Producer 0/1: shared RDMA; producer 2: TCP into the shared file.
            let mut rdma0 = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, true)
                .await
                .unwrap();
            let mut rdma1 = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, true)
                .await
                .unwrap();
            let tcp =
                TcpProducer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "t", 0)
                    .await
                    .unwrap();
            let mut sent = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                let payload = vec![(i % 251) as u8; op.size];
                let record = Record::value(payload.clone());
                let off = match op.producer {
                    0 => rdma0.send(&record).await.unwrap(),
                    1 => rdma1.send(&record).await.unwrap(),
                    _ => tcp.send(&record).await.unwrap(),
                };
                sent.push((off, payload));
            }
            // Offsets are dense and unique.
            let mut offsets: Vec<u64> = sent.iter().map(|(o, _)| *o).collect();
            offsets.sort_unstable();
            assert_eq!(
                offsets,
                (0..total as u64).collect::<Vec<_>>(),
                "case {case}"
            );

            // Read everything back over RDMA and compare payload by offset.
            let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
                .await
                .unwrap();
            let mut got = Vec::new();
            while got.len() < total {
                got.extend(consumer.next_records().await.unwrap());
            }
            sent.sort_by_key(|(o, _)| *o);
            for (rv, (off, payload)) in got.iter().zip(&sent) {
                assert_eq!(rv.offset, *off, "case {case}");
                assert_eq!(&rv.record.value, payload, "case {case}");
            }
        });
    }
}

/// Random record sizes through replication: TCP consume on the Kafka
/// baseline equals RDMA consume on KafkaDirect for the same inputs.
#[test]
fn replicated_reads_match_writes() {
    let run = |system: SystemKind, sizes: Vec<usize>| {
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let cluster = SimCluster::start(system, 2);
            cluster.create_topic("t", 1, 2).await;
            let cnode = cluster.add_client_node("c");
            let leader = cluster.leader_of("t", 0).await;
            let mut payloads = Vec::new();
            match system {
                SystemKind::KafkaDirect => {
                    let mut p = RdmaProducer::connect(&cnode, leader, "t", 0, false)
                        .await
                        .unwrap();
                    for (i, size) in sizes.iter().enumerate() {
                        let v = vec![(i % 250) as u8 + 1; *size];
                        p.send(&Record::value(v.clone())).await.unwrap();
                        payloads.push(v);
                    }
                }
                _ => {
                    let p = TcpProducer::connect(&cnode, leader, ClientTransport::Tcp, "t", 0)
                        .await
                        .unwrap();
                    for (i, size) in sizes.iter().enumerate() {
                        let v = vec![(i % 250) as u8 + 1; *size];
                        p.send(&Record::value(v.clone())).await.unwrap();
                        payloads.push(v);
                    }
                }
            }
            // Read back.
            let mut got = Vec::new();
            match system {
                SystemKind::KafkaDirect => {
                    let mut c = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
                        .await
                        .unwrap();
                    while got.len() < payloads.len() {
                        got.extend(c.next_records().await.unwrap());
                    }
                }
                _ => {
                    let mut c =
                        TcpConsumer::connect(&cnode, leader, ClientTransport::Tcp, "t", 0, 0)
                            .await
                            .unwrap();
                    while got.len() < payloads.len() {
                        got.extend(c.next_records().await.unwrap());
                    }
                }
            }
            got.into_iter()
                .map(|rv| rv.record.value)
                .collect::<Vec<_>>()
        })
    };
    for case in 0..12u64 {
        let mut rng = SimRng::seed_from_u64(0xC1_0002 ^ case);
        let n = rng.random_range(1usize..25);
        let sizes: Vec<usize> = (0..n).map(|_| rng.random_range(1usize..2000)).collect();
        let kafka = run(SystemKind::Kafka, sizes.clone());
        let kd = run(SystemKind::KafkaDirect, sizes.clone());
        assert_eq!(kafka.len(), sizes.len(), "case {case}");
        assert_eq!(
            &kafka, &kd,
            "case {case}: both systems must deliver identical data"
        );
    }
}
