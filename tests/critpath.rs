//! Critical-path analyzer against real datapath runs (not synthetic event
//! logs): the per-stage attribution must reconcile with measured end-to-end
//! latency on the RDMA path, and the TCP path must show exactly the two
//! permitted broker copies in its attribution.

use std::time::Duration;

use kafkadirect::{ClusterOptions, SimCluster, SystemKind};
use kdclient::{ClientTransport, RdmaProducer, TcpProducer};
use kdstorage::{Record, StorageConfig, SyncMode};
use kdtelem::critpath::{analyze, Stage};

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

/// RDMA produce: every lifeline's stage sums must equal its end-to-end
/// latency exactly (the analyzer partitions inter-event gaps), and the
/// lifeline totals must agree with the client-measured produce latencies.
#[test]
fn rdma_stage_sums_reconcile_with_measured_e2e() {
    let measured: std::rc::Rc<std::cell::RefCell<Vec<u64>>> = Default::default();
    let measured2 = measured.clone();
    let events = trace_run(|| {
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
            cluster.create_topic("t", 1, 1).await;
            let cnode = cluster.add_client_node("c");
            let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
                .await
                .unwrap();
            for i in 0..8u8 {
                let t0 = sim::now();
                producer.send(&Record::value(vec![i; 256])).await.unwrap();
                measured2
                    .borrow_mut()
                    .push((sim::now() - t0).as_nanos() as u64);
                // Space the sends out so lifelines never interleave — each
                // trace's total is then exactly one send's latency.
                sim::time::sleep(Duration::from_micros(50)).await;
            }
        });
    });

    let report = analyze(&events);
    assert!(
        report.ok(),
        "stage sums must reconcile: {:?}",
        report.errors
    );
    assert_eq!(
        report.lifelines.len(),
        8,
        "one committing lifeline per send"
    );

    for l in &report.lifelines {
        // The reconciliation invariant, asserted independently of ok().
        assert_eq!(
            l.stage_ns.iter().sum::<u64>(),
            l.total_ns,
            "lifeline {} stage sums diverge from its end-to-end time",
            l.trace_id
        );
        assert_eq!(l.broker_copies, 0, "zero-copy path grew a broker copy");
    }

    // A lifeline spans client post → broker commit (the one-way data path);
    // the client-measured latency adds the ack's return trip on top, so each
    // lifeline total must be positive and strictly inside its measured e2e.
    // Lifelines come out in send order (trace ids are allocated in order).
    let measured = measured.borrow();
    assert_eq!(measured.len(), report.lifelines.len());
    for (l, &e2e) in report.lifelines.iter().zip(measured.iter()) {
        assert!(
            0 < l.total_ns && l.total_ns < e2e,
            "lifeline {} total {} vs measured e2e {}",
            l.trace_id,
            l.total_ns,
            e2e
        );
    }
    // Identical spaced-out sends on a deterministic fabric: every lifeline
    // must attribute identically, bucket for bucket.
    for l in &report.lifelines[1..] {
        assert_eq!(l.stage_ns, report.lifelines[0].stage_ns);
    }

    // Attribution found real datapath stages, and none of the latency was
    // attributed to CPU copies.
    let (dominant, ns) = report.dominant().expect("nonzero attribution");
    assert!(ns > 0);
    assert_ne!(dominant, Stage::CpuCopy);
    assert!(
        report.stage_total(Stage::LinkPropagation) > 0,
        "no time attributed to the wire"
    );
    assert_eq!(report.stage_total(Stage::CpuCopy), 0);
}

/// Hot-tier RDMA produce over the file-backed store: durability must not
/// put a broker CPU copy on the datapath. The active segment stays
/// MR-registered in memory, so WriteWithImm lands records exactly as in
/// memory mode; the file tier syncs asynchronously off the lifeline.
#[test]
fn tiered_rdma_produce_attributes_zero_broker_copies() {
    let dir = std::env::temp_dir().join(format!("kd-critpath-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let storage = StorageConfig::tiered(&dir).with_sync(SyncMode::EveryMs(5));
    let events = trace_run(|| {
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let mut opts = ClusterOptions::default();
            opts.broker.storage = Some(storage);
            let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
            cluster.create_topic("t", 1, 1).await;
            let cnode = cluster.add_client_node("c");
            let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
                .await
                .unwrap();
            for i in 0..8u8 {
                producer.send(&Record::value(vec![i; 256])).await.unwrap();
                sim::time::sleep(Duration::from_micros(50)).await;
            }
        });
    });
    std::fs::remove_dir_all(&dir).ok();

    let report = analyze(&events);
    assert!(
        report.ok(),
        "stage sums must reconcile: {:?}",
        report.errors
    );
    assert_eq!(
        report.lifelines.len(),
        8,
        "one committing lifeline per send"
    );
    for l in &report.lifelines {
        assert_eq!(
            l.broker_copies, 0,
            "durable hot tier must keep the produce path zero-copy"
        );
        assert_eq!(l.stage_ns.iter().sum::<u64>(), l.total_ns);
    }
    assert_eq!(report.stage_total(Stage::CpuCopy), 0);
}

/// TCP produce: the analyzer attributes exactly the two permitted broker
/// copies (socket receive + log append, Fig 2) on every committing
/// lifeline, with nonzero latency charged to the copy stage.
#[test]
fn tcp_attribution_charges_exactly_two_copies() {
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
            for i in 0..6u8 {
                producer.send(&Record::value(vec![i; 256])).await.unwrap();
            }
        });
    });

    let report = analyze(&events);
    assert!(
        report.ok(),
        "stage sums must reconcile: {:?}",
        report.errors
    );
    assert_eq!(report.lifelines.len(), 6);
    for l in &report.lifelines {
        assert_eq!(
            l.broker_copies, 2,
            "TCP lifeline {} must pay exactly the two Fig 2 copies",
            l.trace_id
        );
        assert_eq!(l.stage_ns.iter().sum::<u64>(), l.total_ns);
    }
    assert!(
        report.stage_total(Stage::CpuCopy) > 0,
        "copies must carry attributed latency"
    );

    // Folded-stack export names the copy stage for flamegraph tooling.
    let folded = report.folded("tcp_produce");
    assert!(folded.contains("tcp_produce;cpu_copy "));
}
