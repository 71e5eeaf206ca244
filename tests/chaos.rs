//! Chaos soak: deterministic randomized fault plans (kdfault) played
//! against a replicated KafkaDirect cluster while a producer pushes a
//! uniquely-tagged record stream.
//!
//! Checked per seed:
//! * **No acked record lost or reordered** — every acknowledged record
//!   appears exactly once in the consumed stream, in ack order (acks are
//!   full-commit acks: RF>1 RDMA produces only ack once replicated).
//! * **No hole consumer-visible, copy discipline holds** — the drained
//!   trace log passes every `kdtelem::check` invariant.
//! * **Determinism** — the same seed replays to a bit-identical trace-event
//!   log (and identical ack/consume sequences and final virtual time).
//!
//! Plus a targeted proof that a stale-epoch producer's one-sided RDMA
//! write is fenced after a failover: the revoked rkey faults at the NIC
//! and the bytes never become consumer-visible; and the same seeds with a
//! consumer tailing the partition through the faults.

mod common;

use std::time::Duration;

use common::{run_seed, run_seed_tailed, seeds_under_test, Outcome, SEEDS};
use kafkadirect::{SimCluster, SystemKind};
use kdclient::{Admin, RdmaConsumer, RdmaProducer};
use kdstorage::record::single_record_batch;
use kdstorage::Record;
use kdwire::messages::{ProduceMode, Request, Response};
use rnic::{QpOptions, RNic, SendWr, ShmBuf, WorkRequest};

/// Acked records form an exactly-once, in-order subsequence of the
/// consumed stream.
fn assert_no_loss(seed: u64, o: &Outcome) {
    for &a in &o.acked {
        let n = o.consumed.iter().filter(|&&c| c == a).count();
        assert_eq!(n, 1, "seed {seed}: acked attempt {a} appears {n} times");
    }
    let mut it = o.consumed.iter();
    for &a in &o.acked {
        assert!(
            it.any(|&c| c == a),
            "seed {seed}: acked records reordered (attempt {a} out of sequence)"
        );
    }
}

#[test]
fn chaos_soak_holds_invariants_across_seeds() {
    for seed in seeds_under_test(&SEEDS) {
        let o = run_seed(seed);
        assert!(o.injected >= 1, "seed {seed}: plan injected nothing");
        assert!(
            o.violations.is_empty(),
            "seed {seed}: trace invariants violated: {:?}",
            o.violations
        );
        assert!(
            !o.acked.is_empty(),
            "seed {seed}: no attempt survived the faults"
        );
        assert_no_loss(seed, &o);
    }
}

/// The soak's seeds with one more client: an `RdmaConsumer` tailing the
/// partition from the bootstrap broker while the plan plays, recovering
/// through its data plane. Everything it delivered is a gap-free,
/// duplicate-free prefix of the final leader's committed log (the soak's
/// own checks hold too), and it ends caught up to the final HW or with
/// `RetriesExhausted` after an outage longer than its backoff.
#[test]
fn a_tailing_consumer_rides_out_every_chaos_seed() {
    for seed in seeds_under_test(&SEEDS) {
        let o = run_seed_tailed(seed);
        assert!(o.violations.is_empty(), "seed {seed}: {:?}", o.violations);
        assert_no_loss(seed, &o);
        let tail = o.tail.expect("a tailed run");
        let caught_up = tail.delivered.len() as u64 == tail.hw;
        match tail.end {
            Some(Ok(())) => assert!(caught_up, "seed {seed}"),
            Some(Err(kdclient::ClientError::RetriesExhausted)) => {}
            end => panic!(
                "seed {seed}: the tailing consumer ended {end:?} at {} of {}",
                tail.delivered.len(),
                tail.hw
            ),
        }
        eprintln!(
            "seed {seed}: tail delivered {} of HW {}, ended {:?}, after {} recoveries",
            tail.delivered.len(),
            tail.hw,
            tail.end,
            tail.recoveries
        );
    }
}

#[test]
fn chaos_soak_replays_bit_identically() {
    for seed in seeds_under_test(&[SEEDS[0], SEEDS[3], SEEDS[6]]) {
        let a = run_seed(seed);
        let b = run_seed(seed);
        assert_eq!(a.end_ns, b.end_ns, "seed {seed}: virtual end time differs");
        assert_eq!(a.acked, b.acked, "seed {seed}: ack sequence differs");
        assert_eq!(a.consumed, b.consumed, "seed {seed}: consumed differs");
        assert_eq!(a.injected, b.injected, "seed {seed}: fault count differs");
        assert!(
            a.events == b.events,
            "seed {seed}: trace event log not bit-identical ({} vs {} events)",
            a.events.len(),
            b.events.len()
        );
    }
}

/// Crash the partition leader (even if it is broker 0, the controller),
/// fail over, restart it — all through the chaos interpreter. The restarted
/// broker must re-learn metadata from a live peer rather than trust its own
/// stale pre-crash store (which would resurrect a second leader under a
/// fenced epoch), and a reconnecting producer must commit against the
/// promoted leader once the follower is back.
#[test]
fn leader_crash_failover_restart_recovers() {
    let rt = sim::Runtime::with_seed(7);
    rt.block_on(async {
        let injector = kdfault::Injector::new();
        let _i = kdfault::enter(&injector);
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 3);
        cluster.create_topic("t", 1, 2).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
            .await
            .unwrap();
        for i in 0..5u8 {
            producer.send(&Record::value(vec![i; 32])).await.unwrap();
        }

        let leader_idx = (0..cluster.broker_count())
            .find(|&i| cluster.broker_node(i).id.0 == leader.node)
            .unwrap() as u32;
        let plan = kdfault::FaultPlan {
            seed: 0,
            faults: vec![
                kdfault::ScheduledFault {
                    at_ns: 100_000,
                    kind: kdfault::FaultKind::BrokerCrash { broker: leader_idx },
                },
                kdfault::ScheduledFault {
                    at_ns: 200_000,
                    kind: kdfault::FaultKind::FailOver {
                        topic: "t".into(),
                        partition: 0,
                    },
                },
                kdfault::ScheduledFault {
                    at_ns: 2_000_000,
                    kind: kdfault::FaultKind::BrokerRestart { broker: leader_idx },
                },
            ],
        };
        assert_eq!(kafkadirect::chaos::run_plan(&cluster, &plan).await, 3);
        assert_eq!(injector.injected_total(), 3);

        // The producer redials (its bootstrap is the crashed-and-restarted
        // ex-leader, whose refreshed metadata must point at the promotion).
        producer.reconnect().await.unwrap();
        for i in 5..10u8 {
            assert_eq!(
                producer.send(&Record::value(vec![i; 32])).await.unwrap(),
                i as u64
            );
        }

        // Exactly one broker claims leadership, under the bumped epoch.
        let claimants: Vec<u64> = (0..cluster.broker_count())
            .filter_map(|i| {
                let b = cluster.broker(i);
                b.inner()
                    .store
                    .get(&kdstorage::TopicPartition::new("t", 0))
                    .filter(|p| b.is_alive() && p.is_leader())
                    .map(|p| p.epoch())
            })
            .collect();
        assert_eq!(claimants, vec![1], "exactly one leader, epoch bumped");

        let new_leader = cluster.leader_of("t", 0).await;
        assert_ne!(new_leader.node, leader.node);
        let mut consumer = RdmaConsumer::connect(&cnode, new_leader, "t", 0, 0)
            .await
            .unwrap();
        let mut seen = Vec::new();
        while seen.len() < 10 {
            for rv in consumer.next_records().await.unwrap() {
                seen.push(rv.record.value[0]);
            }
        }
        assert_eq!(seen, (0..10u8).collect::<Vec<_>>());
    });
}

/// After a failover bumps the partition epoch, a producer still holding the
/// old grant is fenced: its one-sided write faults at the NIC (the revoked
/// rkey no longer resolves) and the bytes never become consumer-visible.
#[test]
fn stale_epoch_producer_write_is_fenced() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 2);
        cluster.create_topic("t", 1, 2).await;
        let cnode = cluster.add_client_node("c");
        let old_leader = cluster.leader_of("t", 0).await;

        // A raw exclusive producer (so we control the WRs directly).
        let ctrl = kdclient::Conn::connect(&cnode, old_leader, kdclient::ClientTransport::Tcp)
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
            _ => panic!("bad response"),
        };
        assert!(grant.error.is_ok());
        let nic = RNic::new(&cnode);
        let send_cq = nic.create_cq(16);
        let recv_cq = nic.create_cq(16);
        let qp = nic
            .connect(
                netsim::NodeId(old_leader.node),
                old_leader.rdma_port,
                send_cq.clone(),
                recv_cq,
                QpOptions::default(),
            )
            .await
            .unwrap();

        // One committed record under the old epoch.
        let good = ShmBuf::from_vec(single_record_batch(7, &Record::value(vec![1u8; 64])));
        let good_len = good.len() as u64;
        qp.post_send(SendWr::new(
            1,
            WorkRequest::WriteImm {
                local: good.as_slice(),
                remote_addr: grant.region.addr,
                rkey: grant.region.rkey,
                imm: kdwire::pack_imm(grant.file_id, 0),
            },
        ))
        .unwrap();
        assert!(send_cq.next().await.unwrap().ok());
        sim::time::sleep(Duration::from_millis(2)).await;

        // Failover: the epoch bumps, the old leader's grant is revoked and
        // its MR deregistered — the rkey is rotated out from under us.
        let new_leader = cluster.fail_over("t", 0).expect("live follower to promote");
        assert_ne!(new_leader.node, old_leader.node);
        sim::time::sleep(Duration::from_millis(1)).await;

        // The stale producer keeps writing with the old grant: the NIC
        // rejects the rkey and the send completes with an error.
        let stale = ShmBuf::from_vec(single_record_batch(7, &Record::value(vec![0xEE; 64])));
        qp.post_send(SendWr::new(
            2,
            WorkRequest::WriteImm {
                local: stale.as_slice(),
                remote_addr: grant.region.addr + good_len,
                rkey: grant.region.rkey,
                imm: kdwire::pack_imm(grant.file_id, 0),
            },
        ))
        .unwrap();
        let cqe = send_cq.next().await.unwrap();
        assert!(!cqe.ok(), "stale-epoch write must fault at the NIC");

        // The fenced bytes are not consumer-visible: the new leader serves
        // exactly the pre-failover record.
        sim::time::sleep(Duration::from_millis(2)).await;
        let admin = Admin::connect(&cnode, new_leader).await.unwrap();
        let (_, hw) = admin.list_offsets("t", 0).await.unwrap();
        assert_eq!(hw, 1, "only the old-epoch committed record is visible");
        let mut consumer = RdmaConsumer::connect(&cnode, new_leader, "t", 0, 0)
            .await
            .unwrap();
        let got = consumer.next_records().await.unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].record.value[0], 1);

        // A fresh producer under the new epoch proceeds normally.
        let mut p2 = RdmaProducer::connect(&cnode, new_leader, "t", 0, false)
            .await
            .unwrap();
        let off = p2.send(&Record::value(vec![2u8; 64])).await.unwrap();
        assert_eq!(off, 1);
    });
}
