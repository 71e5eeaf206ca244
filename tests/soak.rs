//! Soak test: a long randomized mixed workload across every datapath with
//! injected failures, asserting the global invariants at the end —
//! dense offsets, no holes, no corruption, no lost committed records.

use std::collections::VecDeque;

use kafkadirect::{ClusterOptions, SimCluster, SystemKind};
use kdclient::{ClientTransport, RdmaConsumer, RdmaProducer, TcpProducer};
use kdstorage::Record;

/// Encodes (actor, seq) into the record payload for end-of-run accounting.
fn payload(actor: u8, seq: u32, size: usize) -> Vec<u8> {
    let mut v = vec![0u8; size.max(6)];
    v[0] = actor;
    v[1..5].copy_from_slice(&seq.to_le_bytes());
    let tail = (actor as usize + seq as usize) % 251;
    for b in &mut v[5..] {
        *b = tail as u8;
    }
    v
}

fn decode(v: &[u8]) -> (u8, u32) {
    (v[0], u32::from_le_bytes(v[1..5].try_into().unwrap()))
}

#[test]
fn mixed_workload_soak() {
    let rt = sim::Runtime::with_seed(2024);
    rt.block_on(async {
        let opts = ClusterOptions {
            log: kdstorage::LogConfig {
                segment_size: 64 * 1024, // frequent rolls
                max_batch_size: 16 * 1024,
            },
            ..Default::default()
        };
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 3, opts);
        cluster.create_topic("shared", 1, 2).await; // shared-mode producers
        cluster.create_topic("excl", 2, 3).await; // exclusive producers, RF=3
        let shared_leader = cluster.leader_of("shared", 0).await;

        let mut producer_handles = Vec::new();

        // Two shared RDMA producers + one TCP producer on "shared".
        for actor in 0..2u8 {
            let node = cluster.add_client_node(&format!("shared{actor}"));
            producer_handles.push(sim::spawn(async move {
                let mut p = RdmaProducer::connect(&node, shared_leader, "shared", 0, true)
                    .await
                    .unwrap();
                let mut sent = 0u32;
                for seq in 0..120u32 {
                    let size = 32 + (seq as usize * 13) % 900;
                    match p.send(&Record::value(payload(actor, seq, size))).await {
                        Ok(_) => sent += 1,
                        Err(_) => {
                            // Aborted by a session revoke: retry once after
                            // the implicit re-grant.
                            if p.send(&Record::value(payload(actor, seq, size))).await.is_ok() {
                                sent += 1;
                            }
                        }
                    }
                }
                (actor, sent)
            }));
        }
        {
            let node = cluster.add_client_node("sharedtcp");
            producer_handles.push(sim::spawn(async move {
                let p = TcpProducer::connect(&node, shared_leader, ClientTransport::Tcp, "shared", 0)
                    .await
                    .unwrap();
                let mut sent = 0u32;
                for seq in 0..120u32 {
                    let size = 32 + (seq as usize * 7) % 600;
                    if p.send(&Record::value(payload(2, seq, size))).await.is_ok() {
                        sent += 1;
                    }
                }
                (2u8, sent)
            }));
        }

        // Exclusive producers on "excl" partitions, one of which crashes
        // mid-run and is replaced.
        for part in 0..2u32 {
            let leader = cluster.leader_of("excl", part).await;
            let node = cluster.add_client_node(&format!("excl{part}"));
            producer_handles.push(sim::spawn(async move {
                let actor = 10 + part as u8;
                let mut p = RdmaProducer::connect(&node, leader, "excl", part, false)
                    .await
                    .unwrap();
                let mut sent = 0u32;
                for seq in 0..100u32 {
                    if part == 1 && seq == 50 {
                        // Crash and take over with a fresh producer.
                        p.crash();
                        sim::time::sleep(std::time::Duration::from_millis(2)).await;
                        p = RdmaProducer::connect(&node, leader, "excl", part, false)
                            .await
                            .unwrap();
                    }
                    let size = 16 + (seq as usize * 31) % 2000;
                    if p.send(&Record::value(payload(actor, seq, size))).await.is_ok() {
                        sent += 1;
                    }
                }
                (actor, sent)
            }));
        }

        let mut sent_by_actor = std::collections::HashMap::new();
        for h in producer_handles {
            let (actor, sent) = h.await.unwrap();
            *sent_by_actor.entry(actor).or_insert(0u32) += sent;
        }

        // Drain everything with a multi-consumer ("excl") and a
        // single-partition consumer ("shared").
        let cnode = cluster.add_client_node("drain");
        let mut got: std::collections::HashMap<u8, VecDeque<u32>> = Default::default();

        let mut sc = RdmaConsumer::connect(&cnode, shared_leader, "shared", 0, 0)
            .await
            .unwrap();
        let admin = kdclient::Admin::connect(&cnode, cluster.bootstrap()).await.unwrap();
        let (_, shared_hw) = admin.list_offsets("shared", 0).await.unwrap();
        let mut n = 0;
        while n < shared_hw {
            for rv in sc.next_records().await.unwrap() {
                let (actor, seq) = decode(&rv.record.value);
                // Verify the deterministic tail byte (no corruption).
                let tail = (actor as usize + seq as usize) % 251;
                assert!(rv.record.value[5..].iter().all(|&b| b == tail as u8));
                got.entry(actor).or_default().push_back(seq);
                n += 1;
            }
        }

        // "excl": the leaders differ per partition and a consumer reads its
        // partition's leader, so one consumer per partition.
        for part in 0..2u32 {
            let leader = cluster.leader_of("excl", part).await;
            let mut mc = RdmaConsumer::connect(&cnode, leader, "excl", part, 0)
                .await
                .unwrap();
            // ListOffsets must go to the partition's leader.
            let leader_admin = kdclient::Admin::connect(&cnode, leader).await.unwrap();
            let (_, hw) = leader_admin.list_offsets("excl", part).await.unwrap();
            let mut n = 0;
            while n < hw {
                for rv in mc.next_records().await.unwrap() {
                    let (actor, seq) = decode(&rv.record.value);
                    let tail = (actor as usize + seq as usize) % 251;
                    assert!(rv.record.value[5..].iter().all(|&b| b == tail as u8));
                    got.entry(actor).or_default().push_back(seq);
                    n += 1;
                }
            }
        }

        // Every acknowledged record was read exactly once, and per-actor
        // sequences arrive in order (per-producer FIFO).
        for (actor, sent) in &sent_by_actor {
            let seqs = got.remove(actor).unwrap_or_default();
            assert_eq!(
                seqs.len() as u32,
                *sent,
                "actor {actor}: acked {sent}, read {}",
                seqs.len()
            );
            let mut prev = None;
            for s in &seqs {
                if let Some(p) = prev {
                    assert!(*s > p, "actor {actor}: out-of-order {p} -> {s}");
                }
                prev = Some(*s);
            }
        }
        assert!(got.is_empty(), "records from unknown actors: {:?}", got.keys());

        // Broker invariants: zero CPU copies anywhere (all-RDMA datapaths,
        // except the one TCP producer's bytes).
        let tcp_bytes: u64 = cluster
            .brokers()
            .iter()
            .map(|b| b.metrics().heap_copied_bytes)
            .sum();
        assert!(tcp_bytes > 0, "the TCP producer's copies are accounted");
        // Aborts may or may not have occurred (crash timing), but the system
        // finished with all sessions healthy.
        for b in cluster.brokers() {
            let m = b.metrics();
            assert!(m.rdma_commits > 0 || m.produce_requests > 0);
        }
    });
}
