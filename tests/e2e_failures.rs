//! Failure injection (§4.2.2 failure handling, §4.3.2 flow control):
//! client crashes, holes in shared files, corrupt writes, revocation.

use std::time::Duration;

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{RdmaConsumer, RdmaProducer};
use kdstorage::record::single_record_batch;
use kdstorage::Record;
use kdwire::messages::{ProduceMode, Request, Response};
use rnic::{QpOptions, RNic, SendWr, ShmBuf, WorkRequest};

/// A crashed exclusive producer's grant is revoked on QP disconnect, and a
/// new producer can take over.
#[test]
fn exclusive_grant_revoked_on_disconnect() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c1");
        let mut p1 = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        p1.send(&Record::value(vec![1u8; 32])).await.unwrap();

        // A second producer on another node is denied while p1 lives.
        let cnode2 = cluster.add_client_node("c2");
        let denied = RdmaProducer::connect(&cnode2, cluster.bootstrap(), "t", 0, false).await;
        assert!(matches!(
            denied,
            Err(kdclient::ClientError::Broker(kdwire::ErrorCode::AccessDenied))
        ));

        // p1 "crashes": drop it (QPs close on drop of the last handle).
        p1.crash();
        sim::time::sleep(Duration::from_millis(1)).await;
        assert!(cluster.broker(0).metrics().grants_revoked >= 1);

        // Now the second producer succeeds and appends after p1's records.
        let mut p2 = RdmaProducer::connect(&cnode2, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        let off = p2.send(&Record::value(vec![2u8; 32])).await.unwrap();
        assert_eq!(off, 1);
    });
}

/// A producer that merely goes out of scope disconnects too: its exclusive
/// grant is revoked and a producer on another node takes the partition over.
/// Without `Drop` the ack reader's QP handle kept the connection — and the
/// grant — alive for good, and the second producer was denied indefinitely.
#[test]
fn dropped_exclusive_producer_releases_its_grant() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c1");
        let mut p1 = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        p1.send(&Record::value(vec![1u8; 32])).await.unwrap();
        drop(p1);
        sim::time::sleep(Duration::from_millis(1)).await;
        assert!(cluster.broker(0).metrics().grants_revoked >= 1);

        let cnode2 = cluster.add_client_node("c2");
        let mut p2 = RdmaProducer::connect(&cnode2, cluster.bootstrap(), "t", 0, false)
            .await
            .expect("the dropped producer's grant is gone");
        let off = p2.send(&Record::value(vec![2u8; 32])).await.unwrap();
        assert_eq!(off, 1);
    });
}

/// Consumers that go out of scope disconnect: the broker's ends of their QPs
/// stop occupying contexts on its NIC (the cache knee counts those) and are
/// let go of, instead of accumulating for as long as the broker lives.
#[test]
fn dropped_consumers_unpin_their_broker_contexts() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let broker = cluster.broker(0);
        let broker = broker.inner();
        let idle = broker.nic.qp_contexts();
        for round in 0..3 {
            let mut consumers = Vec::new();
            for _ in 0..8 {
                let c = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0).await;
                consumers.push(c.unwrap());
            }
            assert_eq!(broker.nic.qp_contexts(), idle + 8, "round {round}");
            drop(consumers);
            assert_eq!(broker.nic.qp_contexts(), idle, "round {round}");
        }
        let kept = broker.consume_qps.borrow().len();
        assert!(kept <= 16, "the broker still holds {kept} consumer QPs, 24 of 24 dead");
    });
}

/// What a consumer holds on the broker — its slot region, its read holds
/// and the slot references every HW advance rewrites — lives as long as the
/// control connection that acquired it. Before, the broker's map of consumer
/// slot regions was only ever inserted into: each dropped consumer left its
/// region registered and its slot rewritten on every produce, and a segment
/// it held could never spill.
#[test]
fn a_dropped_consumer_releases_its_broker_state() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let bootstrap = cluster.bootstrap();
        let mut producer = RdmaProducer::connect(&cnode, bootstrap, "t", 0, false)
            .await
            .unwrap();
        producer.send(&Record::value(vec![0u8; 64])).await.unwrap();
        let baseline = cluster.broker(0).metrics().registered_bytes;

        let mut first = RdmaConsumer::connect(&cnode, bootstrap, "t", 0, 0).await.unwrap();
        let one_live = slot_updates_per_record(&cluster, &mut producer, &mut first).await;
        drop(first);
        for round in 0..50 {
            let mut consumer = RdmaConsumer::connect(&cnode, bootstrap, "t", 0, 0)
                .await
                .unwrap();
            let read = consumer.next_records().await.unwrap();
            assert!(!read.is_empty(), "round {round}");
        }
        // One more goes away with its access request in flight: the broker
        // grants it after the connection has closed.
        let mut doomed = RdmaConsumer::connect(&cnode, bootstrap, "t", 0, 0).await.unwrap();
        let read = sim::time::timeout(Duration::from_micros(20), doomed.next_records()).await;
        assert!(read.is_err(), "the access request is still in flight");
        drop(doomed);
        sim::time::sleep(Duration::from_millis(1)).await;
        let registered = cluster.broker(0).metrics().registered_bytes;
        assert_eq!(registered, baseline, "dropped consumers' regions are still registered");

        let mut live = RdmaConsumer::connect(&cnode, bootstrap, "t", 0, 0).await.unwrap();
        let per_record = slot_updates_per_record(&cluster, &mut producer, &mut live).await;
        assert_eq!(per_record, one_live, "dropped consumers' slots are still rewritten");
    });
}

/// Slot updates per produced record while `consumer` reads the head file.
async fn slot_updates_per_record(
    cluster: &SimCluster,
    producer: &mut RdmaProducer,
    consumer: &mut RdmaConsumer,
) -> u64 {
    consumer.next_records().await.unwrap();
    let before = cluster.broker(0).metrics().slot_updates;
    for i in 0..10u8 {
        producer.send(&Record::value(vec![i; 64])).await.unwrap();
    }
    (cluster.broker(0).metrics().slot_updates - before) / 10
}

/// A hole in a shared file (reservation whose write never arrives) aborts
/// the session after the order timeout; other producers recover by
/// re-requesting access — and no hole ever becomes visible to consumers.
#[test]
fn shared_hole_times_out_and_aborts() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("good");
        let mut good = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, true)
            .await
            .unwrap();
        good.send(&Record::value(vec![7u8; 64])).await.unwrap();

        // An adversarial client reserves a region via FAA but never writes:
        // this creates the hole of §4.2.2.
        let evil_node = cluster.add_client_node("evil");
        let evil_nic = RNic::new(&evil_node);
        let ctrl = kdclient::Conn::connect(
            &evil_node,
            cluster.bootstrap(),
            kdclient::ClientTransport::Tcp,
        )
        .await
        .unwrap();
        let resp = ctrl
            .call(&Request::ProduceAccess {
                topic: "t".into(),
                partition: 0,
                mode: ProduceMode::Shared,
                min_bytes: 0,
            })
            .await
            .unwrap();
        let grant = match resp {
            Response::ProduceAccess(g) => g,
            _ => panic!("bad response"),
        };
        assert!(grant.error.is_ok());
        let word = grant.shared_word.unwrap();
        let send_cq = evil_nic.create_cq(16);
        let recv_cq = evil_nic.create_cq(16);
        let qp = evil_nic
            .connect(
                cluster.broker(0).node_id(),
                cluster.bootstrap().rdma_port,
                send_cq.clone(),
                recv_cq,
                QpOptions::default(),
            )
            .await
            .unwrap();
        let result = ShmBuf::zeroed(8);
        qp.post_send(SendWr::new(
            1,
            WorkRequest::FetchAdd {
                local: result.as_slice(),
                remote_addr: word.addr,
                rkey: word.rkey,
                add: kdwire::slots::shared_word_addend(100),
            },
        ))
        .unwrap();
        assert!(send_cq.next().await.unwrap().ok());
        // ... and never writes. The good producer's next record arrives
        // out of order and parks; after the timeout the session aborts.
        let next = good.send(&Record::value(vec![8u8; 64])).await;
        // The good producer either got an abort error ack and re-acquired,
        // or its retry loop already recovered — either way data must land.
        let off = match next {
            Ok(off) => off,
            Err(_) => good.send(&Record::value(vec![8u8; 64])).await.unwrap(),
        };
        assert!(off >= 1);
        let m = cluster.broker(0).metrics();
        assert!(m.produce_aborts >= 1, "hole must abort the session");

        // Consumers see a dense, hole-free log.
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 2 {
            got.extend(consumer.next_records().await.unwrap());
        }
        assert_eq!(got[0].record.value[0], 7);
        assert_eq!(got[1].record.value[0], 8);
    });
}

/// A corrupt batch written via RDMA fails CRC verification at the broker,
/// the session is revoked, and the log stays clean.
#[test]
fn corrupt_rdma_write_rejected() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        // Manual exclusive producer that corrupts its batch bytes.
        let ctrl =
            kdclient::Conn::connect(&cnode, cluster.bootstrap(), kdclient::ClientTransport::Tcp)
                .await
                .unwrap();
        let resp = ctrl
            .call(&Request::ProduceAccess {
                topic: "t".into(),
                partition: 0,
                mode: ProduceMode::Exclusive,
                min_bytes: 0,
            })
            .await
            .unwrap();
        let grant = match resp {
            Response::ProduceAccess(g) => g,
            _ => panic!(),
        };
        let nic = RNic::new(&cnode);
        let send_cq = nic.create_cq(16);
        let recv_cq = nic.create_cq(16);
        let qp = nic
            .connect(
                cluster.broker(0).node_id(),
                cluster.bootstrap().rdma_port,
                send_cq,
                recv_cq.clone(),
                QpOptions::default(),
            )
            .await
            .unwrap();
        // Post a recv for the error ack.
        let ack_buf = ShmBuf::zeroed(16);
        qp.post_recv(rnic::RecvWr {
            wr_id: 0,
            buf: Some(ack_buf.as_slice()),
        })
        .unwrap();
        let mut batch = single_record_batch(1, &Record::value(vec![9u8; 64]));
        let last = batch.len() - 1;
        batch[last] ^= 0xff; // break the CRC
        let staged = ShmBuf::from_vec(batch);
        qp.post_send(SendWr::unsignaled(
            0,
            WorkRequest::WriteImm {
                local: staged.as_slice(),
                remote_addr: grant.region.addr,
                rkey: grant.region.rkey,
                imm: kdwire::pack_imm(grant.file_id, 0),
            },
        ))
        .unwrap();
        // The error ack arrives (CorruptBatch = 3).
        let cqe = recv_cq.next().await.unwrap();
        assert!(cqe.ok());
        assert_eq!(ack_buf.read_at(0, 1)[0], 3, "CorruptBatch error code");
        // Nothing was committed.
        let admin = kdclient::Admin::connect(&cnode, cluster.bootstrap())
            .await
            .unwrap();
        let (_, hw) = admin.list_offsets("t", 0).await.unwrap();
        assert_eq!(hw, 0);
        assert!(cluster.broker(0).metrics().grants_revoked >= 1);
    });
}

/// A follower crash during push replication: the leader keeps serving
/// produces (acks pick back up once the follower is replicated again), the
/// restarted follower recovers its log from the surviving segment buffers
/// and catches up over a fresh push session, and the high watermark
/// re-advances to cover everything.
#[test]
fn follower_crash_during_push_replication() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 2);
        cluster.create_topic("t", 1, 2).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let leader_idx = (0..2)
            .find(|&i| cluster.broker(i).addr().node == leader.node)
            .unwrap();
        let follower_idx = 1 - leader_idx;

        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..5u8 {
            let off = producer.send(&Record::value(vec![i; 200])).await.unwrap();
            assert_eq!(off, u64::from(i));
        }

        cluster.crash_broker(follower_idx);
        sim::time::sleep(Duration::from_millis(1)).await;

        // The leader keeps accepting and committing produces; with RF=2 the
        // acks wait on replication, so they are outstanding while the
        // follower is down. Post them pipelined and collect later.
        let mut pending = Vec::new();
        for i in 5..10u8 {
            pending.push(
                producer
                    .send_pipelined(&Record::value(vec![i; 200]))
                    .await
                    .unwrap(),
            );
        }
        // The leader committed them locally even though the HW is stalled.
        sim::time::sleep(Duration::from_millis(2)).await;
        let leader_b = cluster.broker(leader_idx);
        assert!(leader_b.metrics().rdma_commits >= 10, "leader kept serving");
        let admin = kdclient::Admin::connect(&cnode, cluster.bootstrap())
            .await
            .unwrap();
        let (_, hw_stalled) = admin.list_offsets("t", 0).await.unwrap();
        assert_eq!(hw_stalled, 5, "HW stalls while the follower is down");

        // Restart: the follower recovers its log (CRC scan over the
        // surviving buffers) and the leader's pusher re-establishes against
        // the recovered frontier.
        cluster.restart_broker(follower_idx);
        for (i, ack) in pending.into_iter().enumerate() {
            let (err, off) = ack.await.unwrap();
            assert!(err.is_ok(), "ack resumes after follower catch-up");
            assert_eq!(off, 5 + i as u64);
        }
        let mut hw = 0;
        for _ in 0..500 {
            let (_, h) = admin.list_offsets("t", 0).await.unwrap();
            hw = h;
            if hw == 10 {
                break;
            }
            sim::time::sleep(Duration::from_micros(200)).await;
        }
        assert_eq!(hw, 10, "HW re-advances over the restarted follower");

        // Everything is consumer-visible, dense and in order.
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 10 {
            got.extend(consumer.next_records().await.unwrap());
        }
        for (i, rv) in got.iter().enumerate() {
            assert_eq!(rv.record.value[0] as usize, i);
        }
        // The restarted follower's log mirrors the leader's bytes.
        let follower_b = cluster.broker(follower_idx);
        let tp = kdstorage::TopicPartition::new("t", 0);
        let fl = follower_b.inner().store.get(&tp).unwrap();
        let ll = leader_b.inner().store.get(&tp).unwrap();
        assert_eq!(fl.log.next_offset(), ll.log.next_offset());
    });
}

/// Consumer release after finishing an immutable file really deregisters
/// broker memory (§4.4.2 "to reduce memory usage").
#[test]
fn consume_release_unregisters_memory() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let opts = kafkadirect::ClusterOptions {
            log: kdstorage::LogConfig {
                segment_size: 8 * 1024,
                max_batch_size: 4 * 1024,
            },
            ..Default::default()
        };
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..20u8 {
            producer.send(&Record::value(vec![i; 900])).await.unwrap();
        }
        let peak = cluster.broker(0).metrics().registered_bytes;
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 20 {
            got.extend(consumer.next_records().await.unwrap());
        }
        assert!(consumer.stats.releases >= 1);
        // Registered bytes went up for reading and back down on release.
        let now = cluster.broker(0).metrics().registered_bytes;
        assert!(now <= peak + 2 * 8 * 1024 + 64 * 16, "stale registrations left behind");
    });
}

/// A `ConsumeRelease` drops only what the releasing consumer holds: a peer
/// that never acquired a segment cannot deregister it from under a
/// consumer reading it, however often it asks (Storm's rule for one-sided
/// reads: a region is never torn down on another party's word).
#[test]
fn a_foreign_consume_release_leaves_a_readers_segment_registered() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        for i in 0..10u8 {
            producer.send(&Record::value(vec![i; 64])).await.unwrap();
        }
        while got.len() < 10 {
            got.extend(consumer.next_records().await.unwrap());
        }

        // The consumer holds segment 0; a stranger releases it twice.
        let registered = cluster.broker(0).metrics().registered_bytes;
        let stranger = cluster.add_client_node("stranger");
        let transport = kdclient::ClientTransport::Tcp;
        let ctrl = kdclient::Conn::connect(&stranger, cluster.bootstrap(), transport)
            .await
            .unwrap();
        for _ in 0..2 {
            let release = Request::ConsumeRelease {
                topic: "t".into(),
                partition: 0,
                consumer_id: 7,
                segment: 0,
            };
            let resp = ctrl.call(&release).await.unwrap();
            assert!(matches!(resp, Response::ConsumeRelease { error: kdwire::ErrorCode::None }));
        }
        assert_eq!(cluster.broker(0).metrics().registered_bytes, registered);

        // The reader goes on reading the segment it holds.
        for i in 10..20u8 {
            producer.send(&Record::value(vec![i; 64])).await.unwrap();
        }
        while got.len() < 20 {
            got.extend(consumer.next_records().await.expect("the segment is still registered"));
        }
        let values: Vec<u8> = got.iter().map(|r| r.record.value[0]).collect();
        assert_eq!(values, (0..20).collect::<Vec<u8>>());
    });
}

/// Overflowing the preallocated shared file triggers OutOfSpace handling:
/// producers re-request and continue on the new head file.
#[test]
fn shared_file_overflow_recovers() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let opts = kafkadirect::ClusterOptions {
            log: kdstorage::LogConfig {
                segment_size: 4 * 1024,
                max_batch_size: 2 * 1024,
            },
            ..Default::default()
        };
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, true)
            .await
            .unwrap();
        for i in 0..20u32 {
            let off = producer
                .send(&Record::value(vec![(i % 251) as u8; 700]))
                .await
                .unwrap();
            assert_eq!(off, u64::from(i));
        }
        // Multiple files were used.
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        let mut got = Vec::new();
        while got.len() < 20 {
            got.extend(consumer.next_records().await.unwrap());
        }
        assert!(consumer.stats.access_requests >= 2);
    });
}
