//! Cluster behaviours: leader routing, metadata, multi-broker workloads,
//! and cross-system consistency.

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{Admin, ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::Record;

/// Producing to a non-leader broker yields NotLeader; metadata points the
/// client at the right one.
#[test]
fn not_leader_routing() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::Kafka, 3);
        cluster.create_topic("t", 3, 1).await;
        let cnode = cluster.add_client_node("c");
        let admin = Admin::connect(&cnode, cluster.bootstrap()).await.unwrap();
        // Find a partition whose leader is NOT broker 0.
        let (_, topics) = admin.metadata(&["t"]).await.unwrap();
        let part = topics[0]
            .partitions
            .iter()
            .find(|p| p.leader.node != cluster.bootstrap().node)
            .expect("some partition led elsewhere");
        // Produce to the wrong broker.
        let wrong = TcpProducer::connect(
            &cnode,
            cluster.bootstrap(),
            ClientTransport::Tcp,
            "t",
            part.partition,
        )
        .await
        .unwrap();
        let err = wrong.send(&Record::value(b"x".to_vec())).await.err();
        assert_eq!(
            err,
            Some(kdclient::ClientError::Broker(kdwire::ErrorCode::NotLeader))
        );
        // Produce to the right broker.
        let right = TcpProducer::connect(
            &cnode,
            part.leader,
            ClientTransport::Tcp,
            "t",
            part.partition,
        )
        .await
        .unwrap();
        assert_eq!(right.send(&Record::value(b"x".to_vec())).await.unwrap(), 0);
    });
}

/// RDMA access requests are also leader-only.
#[test]
fn rdma_access_leader_only() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 2);
        cluster.create_topic("t", 2, 1).await;
        let cnode = cluster.add_client_node("c");
        let leader0 = cluster.leader_of("t", 0).await;
        let leader1 = cluster.leader_of("t", 1).await;
        assert_ne!(leader0.node, leader1.node);
        // Partition 1's leader refuses produce access for partition... 0's
        // leader address is wrong for partition 1.
        let denied = RdmaProducer::connect(&cnode, leader0, "t", 1, false).await;
        assert!(denied.is_err(), "non-leader must deny produce access");
        let denied = RdmaConsumer::connect(&cnode, leader0, "t", 1, 0).await;
        assert!(denied.is_ok(), "consumer connect is lazy");
        let mut consumer = denied.unwrap();
        assert!(consumer.poll().await.is_err(), "access request must fail");
    });
}

/// Metadata reflects every broker and all partitions with leaders spread.
#[test]
fn metadata_covers_cluster() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::Kafka, 4);
        cluster.create_topic("a", 8, 2).await;
        cluster.create_topic("b", 2, 1).await;
        let cnode = cluster.add_client_node("c");
        // Metadata is consistent regardless of which broker answers.
        for broker in cluster.brokers() {
            let admin = Admin::connect(&cnode, broker.addr()).await.unwrap();
            let (brokers, topics) = admin.metadata(&[]).await.unwrap();
            assert_eq!(brokers.len(), 4);
            assert_eq!(topics.len(), 2);
            let a = topics.iter().find(|t| t.name == "a").unwrap();
            assert_eq!(a.partitions.len(), 8);
            for p in &a.partitions {
                assert_eq!(p.replicas.len(), 1, "RF=2 ⇒ one follower");
                assert_ne!(p.leader.node, p.replicas[0].node);
            }
            let leaders: std::collections::HashSet<u32> =
                a.partitions.iter().map(|p| p.leader.node).collect();
            assert_eq!(leaders.len(), 4, "leaders spread over all brokers");
        }
    });
}

/// A full mesh of producers/consumers across brokers and partitions, over
/// the OSU transport end to end.
#[test]
fn osu_multi_broker_mesh() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::OsuKafka, 3);
        cluster.create_topic("t", 3, 2).await;
        let mut handles = Vec::new();
        for part in 0..3u32 {
            let leader = cluster.leader_of("t", part).await;
            let cnode = cluster.add_client_node(&format!("c{part}"));
            handles.push(sim::spawn(async move {
                let producer =
                    TcpProducer::connect(&cnode, leader, ClientTransport::Osu, "t", part)
                        .await
                        .unwrap();
                for i in 0..12u8 {
                    producer
                        .send(&Record::value(vec![part as u8, i]))
                        .await
                        .unwrap();
                }
                let mut consumer =
                    TcpConsumer::connect(&cnode, leader, ClientTransport::Osu, "t", part, 0)
                        .await
                        .unwrap();
                let mut got = Vec::new();
                while got.len() < 12 {
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

/// Unknown topics/partitions are rejected consistently.
#[test]
fn unknown_topic_errors() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let producer =
            TcpProducer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "nope", 0)
                .await
                .unwrap();
        assert_eq!(
            producer.send(&Record::value(b"x".to_vec())).await.err(),
            Some(kdclient::ClientError::Broker(
                kdwire::ErrorCode::UnknownTopicOrPartition
            ))
        );
        // Existing topic, nonexistent partition.
        let producer =
            TcpProducer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "t", 9)
                .await
                .unwrap();
        assert_eq!(
            producer.send(&Record::value(b"x".to_vec())).await.err(),
            Some(kdclient::ClientError::Broker(kdwire::ErrorCode::NotLeader))
        );
        // CreateTopic validation.
        let admin = Admin::connect(&cnode, cluster.bootstrap()).await.unwrap();
        assert!(admin.create_topic("bad", 0, 1).await.is_err());
        assert!(
            admin.create_topic("bad", 1, 5).await.is_err(),
            "RF > brokers"
        );
    });
}

/// Two topics on one broker stay fully isolated (file ids, slots, offsets).
#[test]
fn topic_isolation_on_one_broker() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("x", 1, 1).await;
        cluster.create_topic("y", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut px = RdmaProducer::connect(&cnode, cluster.bootstrap(), "x", 0, false)
            .await
            .unwrap();
        let mut py = RdmaProducer::connect(&cnode, cluster.bootstrap(), "y", 0, false)
            .await
            .unwrap();
        assert_ne!(px.grant().file_id, py.grant().file_id);
        for i in 0..8u8 {
            px.send(&Record::value(vec![b'x', i])).await.unwrap();
            py.send(&Record::value(vec![b'y', i])).await.unwrap();
        }
        for (topic, tag) in [("x", b'x'), ("y", b'y')] {
            let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), topic, 0, 0)
                .await
                .unwrap();
            let mut got = Vec::new();
            while got.len() < 8 {
                got.extend(consumer.next_records().await.unwrap());
            }
            for (i, rv) in got.iter().enumerate() {
                assert_eq!(rv.record.value, vec![tag, i as u8]);
            }
        }
    });
}
