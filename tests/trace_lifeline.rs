//! Causal-trace lifeline tests: drain a full produce→replicate→fetch run's
//! trace events and feed them to the invariant checker (`kdtelem::check`)
//! on both datapaths.
//!
//! * The RDMA produce lifeline must contain a posted WQE and **zero**
//!   broker-CPU copy events — the paper's zero-copy claim asserted from the
//!   event log itself, not a counter.
//! * The TCP produce lifeline must pay exactly **two** broker copies
//!   (socket receive + log append, Fig 2).
//! * Push-replication acks only appear after the remote RDMA write
//!   completion on the same lifeline (§4.3).
//! * The drained log round-trips through the Chrome trace-event exporter
//!   and the in-tree parser.

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::Record;
use kdtelem::check::{broker_copies, check, commit_traces};
use kdtelem::EventKind;

/// Runs `f` under a private telemetry registry and returns the drained
/// trace-event log. The registry must be entered *before* the cluster is
/// built: components capture the ambient registry at construction.
fn trace_run(f: impl FnOnce()) -> Vec<kdtelem::TraceEvent> {
    let registry = kdtelem::Registry::new();
    let _scope = kdtelem::enter(&registry);
    f();
    assert_eq!(registry.trace_events_dropped(), 0, "event ring overflowed");
    registry.drain_trace_events()
}

fn has_kind(events: &[kdtelem::TraceEvent], f: impl Fn(&EventKind) -> bool) -> bool {
    events.iter().any(|e| f(&e.kind))
}

/// TCP datapath: every committing lifeline pays exactly the two broker
/// copies, the fetch is stitched to the broker's `FetchServed`, and all
/// invariants hold.
#[test]
fn tcp_lifeline_passes_checker_with_two_copies() {
    let events = trace_run(|| {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let cluster = SimCluster::start(SystemKind::Kafka, 1);
            cluster.create_topic("t", 1, 1).await;
            let cnode = cluster.add_client_node("c");
            let producer =
                TcpProducer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "t", 0)
                    .await
                    .unwrap();
            for i in 0..10u8 {
                producer.send(&Record::value(vec![i; 256])).await.unwrap();
            }
            let mut consumer =
                TcpConsumer::connect(&cnode, cluster.bootstrap(), ClientTransport::Tcp, "t", 0, 0)
                    .await
                    .unwrap();
            let mut got = 0;
            while got < 10 {
                got += consumer.next_records().await.unwrap().len();
            }
        });
    });

    let report = check(&events);
    assert!(report.ok(), "invariant violations: {:?}", report.violations);
    assert_eq!(report.commits, 10, "one commit per produce");
    assert!(report.fetches >= 1, "broker served no fetch");

    // Every produce lifeline paid exactly the two copies of Fig 2 and
    // crossed the wire (its frames were traced through netsim).
    let commits = commit_traces(&events);
    assert_eq!(commits.len(), 10);
    for id in &commits {
        assert_eq!(broker_copies(&events, *id), 2, "trace {id}");
        assert!(
            events
                .iter()
                .any(|e| e.trace_id == *id && matches!(e.kind, EventKind::PacketEnqueued { .. })),
            "TCP lifeline {id} never touched a link"
        );
    }
    // No lifeline posted a WQE: this is the pure-TCP system.
    assert!(!has_kind(&events, |k| matches!(
        k,
        EventKind::WqePosted { .. }
    )));
    // The fetch lifeline carries the broker's FetchServed event.
    assert!(has_kind(&events, |k| matches!(
        k,
        EventKind::FetchServed { .. }
    )));
}

/// RDMA datapath with push replication (RF=2): zero broker copies on every
/// committing lifeline, replication acks follow remote write completions,
/// and the consumer's one-sided fetches are stitched client-side.
#[test]
fn rdma_lifeline_passes_checker_with_zero_copies() {
    let events = trace_run(|| {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 2);
            cluster.create_topic("t", 1, 2).await;
            let cnode = cluster.add_client_node("c");
            let leader = cluster.leader_of("t", 0).await;
            let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
                .await
                .unwrap();
            for i in 0..20u8 {
                producer.send(&Record::value(vec![i; 128])).await.unwrap();
            }
            let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
                .await
                .unwrap();
            let mut got = 0;
            while got < 20 {
                got += consumer.next_records().await.unwrap().len();
            }
        });
    });

    let report = check(&events);
    assert!(report.ok(), "invariant violations: {:?}", report.violations);
    // Leader commits (client lifelines) + follower commits (replication
    // lifelines) are all in the log.
    assert!(report.commits >= 20, "commits: {}", report.commits);
    assert!(report.fetches >= 1, "no fetch was stitched");
    assert!(report.repl_acks >= 1, "push replication left no acks");

    // The zero-copy claim, from trace events alone: every committing
    // lifeline posted a WQE and moved nothing through a broker CPU copy.
    for id in commit_traces(&events) {
        assert_eq!(
            broker_copies(&events, id),
            0,
            "trace {id} copied on the broker"
        );
        assert!(
            events
                .iter()
                .any(|e| e.trace_id == id && matches!(e.kind, EventKind::WqePosted { .. })),
            "committing lifeline {id} has no posted WQE"
        );
    }
    // No CpuCopy event anywhere on a broker site.
    assert!(
        !has_kind(&events, |k| matches!(
            k,
            EventKind::CpuCopy { site, .. } if site.starts_with("broker")
        )),
        "broker CPU copied bytes on the RDMA datapath"
    );
}

/// Four subscriptions on one consumer — two partitions with sealed files
/// behind a mutable head, two with a head file only: every round with a
/// dry subscription costs ONE slot read whatever the subscription count, and
/// every data read roots a lifeline whose `FetchServed` names its own
/// partition's stream and continues that stream's offsets.
#[test]
fn four_subscriptions_one_slot_read_and_a_lifeline_per_data_read() {
    const COUNTS: [u64; 4] = [25, 25, 3, 3];
    let data_reads = std::cell::Cell::new(0);
    let events = trace_run(|| {
        let rt = sim::Runtime::new();
        data_reads.set(rt.block_on(async {
            let mut opts = kafkadirect::ClusterOptions::default();
            opts.broker.log = kdstorage::LogConfig {
                segment_size: 8 * 1024,
                max_batch_size: 4 * 1024,
            };
            let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
            cluster.create_topic("t", 4, 1).await;
            let cnode = cluster.add_client_node("c");
            for (p, n) in COUNTS.iter().enumerate() {
                let mut producer =
                    RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", p as u32, false)
                        .await
                        .unwrap();
                for i in 0..*n {
                    producer
                        .send(&Record::value(vec![i as u8; 700]))
                        .await
                        .unwrap();
                }
            }
            let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
                .await
                .unwrap();
            for p in 1..4 {
                consumer.subscribe("t", p, 0);
            }
            // Larger than a batch: every data read completes at least one.
            consumer.fetch_size = 4096;
            let mut next = [0u64; 4];
            let mut tailing = 0;
            while tailing < 5 {
                let before = consumer.stats;
                let got = consumer.poll_tagged().await.unwrap();
                for (tp, rv) in &got {
                    assert_eq!(rv.offset, next[tp.partition as usize]);
                    next[tp.partition as usize] += 1;
                }
                let slot_reads = consumer.stats.slot_reads - before.slot_reads;
                assert!(slot_reads <= 1, "{slot_reads} slot reads in one round");
                if next == COUNTS && got.is_empty() {
                    // Caught up on all four: the whole round is one read.
                    assert_eq!(slot_reads, 1);
                    assert_eq!(consumer.stats.data_reads, before.data_reads);
                    tailing += 1;
                }
            }
            assert!(consumer.stats.releases >= 4, "partitions 0 and 1 rolled");
            consumer.stats.data_reads
        }));
    });

    let report = check(&events);
    assert!(report.ok(), "invariant violations: {:?}", report.violations);
    let mut served = [0u64; 4];
    let mut lifelines = std::collections::HashSet::new();
    for e in &events {
        if let EventKind::FetchServed {
            stream,
            start_offset,
            next_offset,
            ..
        } = e.kind
        {
            let p = (0..4)
                .find(|&p| kdtelem::stream_key("t", p) == stream)
                .unwrap();
            assert_eq!(start_offset, served[p as usize], "partition {p}");
            served[p as usize] = next_offset;
            assert!(lifelines.insert(e.trace_id), "two reads on one lifeline");
        }
    }
    assert_eq!(served, COUNTS);
    assert_eq!(lifelines.len() as u64, data_reads.get());
}

/// The drained log exports to Chrome trace-event JSON that the in-tree
/// parser round-trips: same event count, span begin/end pairing intact.
#[test]
fn trace_export_round_trips_chrome_json() {
    let events = trace_run(|| {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
            cluster.create_topic("t", 1, 1).await;
            let cnode = cluster.add_client_node("c");
            let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
                .await
                .unwrap();
            for i in 0..5u8 {
                producer.send(&Record::value(vec![i; 64])).await.unwrap();
            }
        });
    });
    assert!(!events.is_empty());

    let json = kdtelem::chrome::to_chrome_json(&events);
    let parsed = kdtelem::chrome::parse_chrome_json(&json).expect("exporter emits parseable JSON");
    // One process_name metadata record precedes the events.
    assert_eq!(
        parsed.len(),
        events.len() + 1,
        "event count changed in export"
    );

    // Async span begin/end phases pair up.
    let begins = parsed.iter().filter(|e| e.ph == "b").count();
    let ends = parsed.iter().filter(|e| e.ph == "e").count();
    assert_eq!(begins, ends, "unbalanced async span phases");
    assert!(begins >= 5, "expected one span pair per produce at least");

    // Truncated input is rejected, not mis-parsed.
    assert!(kdtelem::chrome::parse_chrome_json(&json[..json.len() / 2]).is_none());
}

/// §4.2.2 at kdmark's `produce_large` shape — 32 KiB records of one size,
/// window 32, the broker's default 8 API workers: commits to the file run
/// in the order of the WriteImm completions, which is post order, so rule 7
/// holds and judges every neighbouring pair of lifelines. The records are of
/// one size so that a commit taken out of turn still verifies — it commits
/// another lifeline's bytes at the frontier — and shows only as base offsets
/// out of ticket order.
#[test]
fn commits_follow_post_order_at_the_large_produce_shape() {
    const RECORDS: usize = 1_200;
    const WINDOW: usize = 32;
    let registry = kdtelem::Registry::new();
    registry.set_event_capacity(1 << 20);
    let _scope = kdtelem::enter(&registry);
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
            .await
            .unwrap();
        // The kdmark loop: when the window is full, retire acks down to half
        // of it and refill the freed slots as one WR chain.
        let chunk = vec![Record::value(vec![0xA5; 32 * 1024]); WINDOW];
        type Ack = sim::sync::oneshot::Receiver<(kdwire::ErrorCode, u64)>;
        let (mut inflight, mut posted) = (std::collections::VecDeque::<Ack>::new(), Vec::new());
        let mut sent = 0;
        while sent < RECORDS {
            while inflight.len() > WINDOW / 2 {
                assert!(inflight.pop_front().unwrap().await.unwrap().0.is_ok());
            }
            let n = (WINDOW - inflight.len()).min(RECORDS - sent);
            producer
                .send_pipelined_chain(&chunk[..n], &mut posted)
                .await
                .unwrap();
            inflight.extend(posted.drain(..));
            sent += n;
        }
        for ack in inflight {
            assert!(ack.await.unwrap().0.is_ok());
        }
    });
    assert_eq!(registry.trace_events_dropped(), 0, "event ring overflowed");
    let events = registry.drain_trace_events();
    let report = check(&events);
    assert!(
        report.ok(),
        "invariant violations: {:?}",
        &report.violations[..report.violations.len().min(5)]
    );
    assert_eq!(report.commits, RECORDS);
    assert!(
        report.order_pairs > 1_000,
        "rule 7 judged {} pairs",
        report.order_pairs
    );
}
