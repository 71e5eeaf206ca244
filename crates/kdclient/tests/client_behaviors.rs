//! Client-side behaviours against a directly-constructed broker: ack modes,
//! offset skipping, counters, and error surfaces.

use kdbroker::{Broker, BrokerConfig, RdmaToggles};
use kdclient::producer::Acks;
use kdclient::{Admin, ClientTransport, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::Record;
use kdwire::BrokerAddr;
use netsim::profile::Profile;
use netsim::{Fabric, NodeHandle};

async fn broker(fabric: &Fabric, config: BrokerConfig) -> (Broker, BrokerAddr, NodeHandle) {
    let node = fabric.add_node("broker");
    let addr = BrokerAddr {
        node: node.id.0,
        port: config.tcp_port,
        rdma_port: config.rdma_port,
    };
    let b = Broker::start(&node, config, vec![addr]);
    let client = fabric.add_node("client");
    let admin = Admin::connect(&client, addr).await.unwrap();
    admin.create_topic("t", 1, 1).await.unwrap();
    (b, addr, client)
}

#[test]
fn acks_modes_all_deliver() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let fabric = Fabric::new(Profile::testbed());
        let (_b, addr, client) =
            broker(&fabric, BrokerConfig::kafkadirect(RdmaToggles::all())).await;
        let mut p = TcpProducer::connect(&client, addr, ClientTransport::Tcp, "t", 0)
            .await
            .unwrap();
        let mut latencies = Vec::new();
        for acks in [Acks::None, Acks::Leader, Acks::All] {
            p.acks = acks;
            let t0 = sim::now();
            p.send(&Record::value(b"x".to_vec())).await.unwrap();
            latencies.push((sim::now() - t0).as_nanos());
        }
        // RF=1: all modes commit at the leader; fire-and-forget is not
        // slower than leader-ack.
        assert!(latencies[0] <= latencies[1] + 1000);
        let admin = Admin::connect(&client, addr).await.unwrap();
        let (_, hw) = admin.list_offsets("t", 0).await.unwrap();
        assert_eq!(hw, 3);
    });
}

#[test]
fn consumer_skips_mid_batch_offsets() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let fabric = Fabric::new(Profile::testbed());
        let (_b, addr, client) = broker(&fabric, BrokerConfig::kafka()).await;
        let p = TcpProducer::connect(&client, addr, ClientTransport::Tcp, "t", 0)
            .await
            .unwrap();
        // One batch of 5 records (offsets 0..5).
        let records: Vec<Record> = (0..5u8).map(|i| Record::value(vec![i])).collect();
        p.send_many(&records).await.unwrap();
        // Start mid-batch: the broker returns the whole batch; the client
        // must skip records below the requested offset.
        let mut c = TcpConsumer::connect(&client, addr, ClientTransport::Tcp, "t", 0, 3)
            .await
            .unwrap();
        let got = c.next_records().await.unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].offset, 3);
        assert_eq!(got[1].offset, 4);
    });
}

#[test]
fn consumer_counters_track_empty_fetches() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let fabric = Fabric::new(Profile::testbed());
        let (_b, addr, client) = broker(&fabric, BrokerConfig::kafka()).await;
        let mut c = TcpConsumer::connect(&client, addr, ClientTransport::Tcp, "t", 0, 0)
            .await
            .unwrap();
        for _ in 0..5 {
            assert!(c.poll().await.unwrap().is_empty());
        }
        assert_eq!(c.fetches, 5);
        assert_eq!(c.empty_fetches, 5);
        let p = TcpProducer::connect(&client, addr, ClientTransport::Tcp, "t", 0)
            .await
            .unwrap();
        p.send(&Record::value(b"x".to_vec())).await.unwrap();
        assert_eq!(c.next_records().await.unwrap().len(), 1);
        assert_eq!(c.empty_fetches, 5, "non-empty polls don't count");
    });
}

#[test]
fn rdma_producer_grant_reflects_broker_state() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let fabric = Fabric::new(Profile::testbed());
        let (_b, addr, client) =
            broker(&fabric, BrokerConfig::kafkadirect(RdmaToggles::all())).await;
        let mut p = RdmaProducer::connect(&client, addr, "t", 0, false)
            .await
            .unwrap();
        assert_eq!(p.grant().segment, 0);
        assert_eq!(p.grant().write_pos, 0);
        assert_eq!(p.grant().next_offset, 0);
        p.send(&Record::value(vec![1u8; 64])).await.unwrap();
        // A shared producer on the same TP conflicts with the live
        // exclusive grant.
        let shared = RdmaProducer::connect(&client, addr, "t", 0, true).await;
        assert!(matches!(
            shared,
            Err(kdclient::ClientError::Broker(
                kdwire::ErrorCode::AccessDenied
            ))
        ));
    });
}

#[test]
fn producer_send_many_batches_share_one_offset_run() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let fabric = Fabric::new(Profile::testbed());
        let (_b, addr, client) = broker(&fabric, BrokerConfig::kafka()).await;
        let p = TcpProducer::connect(&client, addr, ClientTransport::Tcp, "t", 0)
            .await
            .unwrap();
        let base = p
            .send_many(&[
                Record::value(b"a".to_vec()),
                Record::value(b"b".to_vec()),
                Record::value(b"c".to_vec()),
            ])
            .await
            .unwrap();
        assert_eq!(base, 0);
        let next = p.send(&Record::value(b"d".to_vec())).await.unwrap();
        assert_eq!(next, 3, "batch occupied offsets 0..3");
    });
}

#[test]
fn rdma_disabled_broker_rejects_produce_access() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let fabric = Fabric::new(Profile::testbed());
        // OSU config: RDMA transport listeners exist, but one-sided
        // datapaths are off → produce access must be denied.
        let (_b, addr, client) = broker(&fabric, BrokerConfig::osu()).await;
        let denied = RdmaProducer::connect(&client, addr, "t", 0, false).await;
        assert!(matches!(
            denied,
            Err(kdclient::ClientError::Broker(
                kdwire::ErrorCode::AccessDenied
            ))
        ));
    });
}

/// A stand-in broker that answers every fetch with `bytes`.
fn fetch_server(node: &NodeHandle, port: u16, bytes: Vec<u8>) {
    let mut listener = netsim::tcp::TcpListener::bind(node, port);
    sim::spawn(async move {
        let (mut r, mut w) = listener.accept().await.unwrap().into_split();
        while let Ok((corr, _, _request)) = kdwire::frame::read_frame(&mut r).await {
            let resp = kdwire::Response::Fetch(kdwire::FetchResp {
                error: kdwire::ErrorCode::None,
                high_watermark: 2,
                log_end: 2,
                start_offset: 0,
                next_offset: 2,
                bytes: bytes.clone(),
            });
            if kdwire::frame::write_frame(&mut w, corr, None, &resp.encode())
                .await
                .is_err()
            {
                break;
            }
        }
    });
}

/// Fetch responses are peer-controlled bytes: one cut inside a batch, or
/// whose length field points past its end, is an error — not a slice out of
/// bounds.
#[test]
fn tcp_consumer_rejects_a_mis_framed_fetch_response() {
    use kdstorage::record::{single_record_batch, LENGTH_PREFIX_LEN};
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let fabric = Fabric::new(Profile::testbed());
        let (server, client) = (fabric.add_node("server"), fabric.add_node("client"));
        let batch = single_record_batch(1, &Record::value(vec![7; 64]));
        let mut whole = batch.clone();
        whole.extend_from_slice(&batch);
        kdstorage::record::assign_base_offset(&mut whole[batch.len()..], 1);
        let mut cut = whole.clone();
        cut.truncate(batch.len() + batch.len() / 2);
        let mut cut_in_prefix = whole.clone();
        cut_in_prefix.truncate(batch.len() + 5);
        let mut oversized = whole.clone();
        let at = batch.len() + LENGTH_PREFIX_LEN - 4;
        oversized[at..at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let cases = [
            (whole, Ok(2)),
            (cut, Err(())),
            (cut_in_prefix, Err(())),
            (oversized, Err(())),
        ];
        for (i, (bytes, want)) in cases.into_iter().enumerate() {
            let port = 9000 + i as u16;
            fetch_server(&server, port, bytes);
            let addr = BrokerAddr {
                node: server.id.0,
                port,
                rdma_port: 0,
            };
            let mut c = TcpConsumer::connect(&client, addr, ClientTransport::Tcp, "t", 0, 0)
                .await
                .unwrap();
            let got = c.poll().await;
            match want {
                Ok(n) => assert_eq!(got.unwrap().len(), n),
                Err(()) => assert_eq!(got.unwrap_err(), kdclient::ClientError::Corrupt, "case {i}"),
            }
        }
    });
}

/// The RDMA consumer reads file bytes no broker CPU has looked at since the
/// commit. A length field that points past the end of the file is waited on
/// while the file may still grow, and is corruption once the file is sealed
/// — never a read or a slice past the end, never a silent skip to the next
/// file.
#[test]
fn rdma_consumer_rejects_a_batch_that_outgrows_its_file() {
    use kdstorage::record::LENGTH_PREFIX_LEN;
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let fabric = Fabric::new(Profile::testbed());
        let log = kdstorage::LogConfig {
            segment_size: 4096,
            max_batch_size: 2048,
        };
        let config = BrokerConfig {
            log,
            ..BrokerConfig::kafkadirect(RdmaToggles::all())
        };
        let (b, addr, client) = broker(&fabric, config).await;
        let mut p = RdmaProducer::connect(&client, addr, "t", 0, false)
            .await
            .unwrap();
        for i in 0..3u8 {
            p.send(&Record::value(vec![i; 500])).await.unwrap();
        }
        // Garble the third batch's length field in the file itself.
        let tp = kdstorage::TopicPartition::new("t", 0);
        let part = b.inner().store.get(&tp).unwrap();
        let file = part.log.segment(0).unwrap();
        let third = file.batch_at(2).unwrap();
        file.write_at(
            third.pos + LENGTH_PREFIX_LEN as u32 - 4,
            &(1u32 << 20).to_le_bytes(),
        );

        let mut c = kdclient::RdmaConsumer::connect(&client, addr, "t", 0, 0)
            .await
            .unwrap();
        c.fetch_size = 4096;
        assert_eq!(
            c.poll().await.unwrap().len(),
            2,
            "the batches in front are fine"
        );
        for _ in 0..3 {
            assert!(
                c.poll().await.unwrap().is_empty(),
                "the tail waits for its bytes"
            );
        }
        // More records seal the file: the tail can no longer complete.
        for i in 3..9u8 {
            p.send(&Record::value(vec![i; 500])).await.unwrap();
        }
        assert!(part.log.head_index() >= 1);
        let err = loop {
            match c.poll().await {
                Ok(records) => assert!(records.is_empty()),
                Err(e) => break e,
            }
        };
        assert_eq!(err, kdclient::ClientError::Corrupt);
    });
}
