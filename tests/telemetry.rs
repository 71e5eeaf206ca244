//! Telemetry integration tests: the paper's headline claims asserted from
//! the kdtelem registry rather than ad-hoc counters.
//!
//! * §5.1 / §5.3 latency figures: an end-to-end run must export
//!   p50/p99 latency for the produce, replicate, and fetch paths.
//! * §4.2.2 zero copy: the RDMA produce path moves no bytes through a
//!   broker-CPU copy (`heap_copied_bytes == 0`), while the TCP path does.
//! * DESIGN.md §8's metric inventory is exactly what a run registers.

use std::collections::BTreeSet;

use kafkadirect::{ClusterOptions, RdmaToggles, SimCluster, SystemKind};
use kdclient::{ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};
use kdstorage::Record;

/// Runs `f` under a private telemetry registry and returns that registry.
/// The registry must be entered *before* the cluster is built: components
/// grab their instrument handles from the ambient registry at construction.
fn with_registry(f: impl FnOnce()) -> kdtelem::Registry {
    let registry = kdtelem::Registry::new();
    let _scope = kdtelem::enter(&registry);
    f();
    registry
}

/// An end-to-end replicated run exports latency percentiles for all three
/// critical-path stages: produce, replicate, fetch.
#[test]
fn e2e_run_exports_critical_path_percentiles() {
    let registry = with_registry(|| {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 2);
            cluster.create_topic("t", 1, 2).await;
            let cnode = cluster.add_client_node("c");
            let leader = cluster.leader_of("t", 0).await;
            let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
                .await
                .unwrap();
            for i in 0..30u8 {
                producer.send(&Record::value(vec![i; 128])).await.unwrap();
            }
            let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
                .await
                .unwrap();
            let mut got = 0;
            while got < 30 {
                got += consumer.next_records().await.unwrap().len();
            }
        });
    });

    let report = registry.snapshot();
    for (component, name) in [
        ("kdclient", "produce.e2e_ns"),
        ("kdbroker", "repl.replicate_ns"),
        ("kdclient", "fetch.e2e_ns"),
    ] {
        let h = report
            .histogram(component, name)
            .unwrap_or_else(|| panic!("{component}.{name} missing"));
        assert!(h.stats.count > 0, "{component}.{name} recorded nothing");
        assert!(h.stats.p50 > 0, "{component}.{name} p50 = 0");
        assert!(h.stats.p99 >= h.stats.p50, "{component}.{name} p99 < p50");
        assert!(h.stats.max >= h.stats.p99, "{component}.{name} max < p99");
    }
    // Broker-side commit service latency is a separate instrument from the
    // client's end-to-end view and must be strictly smaller on average
    // (RDMA produces bypass the Produce RPC, so the broker-side stage is
    // the commit handler, not `api_produce_ns`).
    let commit = report.histogram("kdbroker", "rdma.commit_ns").unwrap();
    let e2e = report.histogram("kdclient", "produce.e2e_ns").unwrap();
    assert!(commit.stats.count > 0);
    assert!(commit.stats.mean < e2e.stats.mean, "service >= e2e latency");

    // Every stage left its lifeline events in the trace: a span for the
    // produce, the commit and the fetch, and a replication ack for the push
    // write (a lifeline of its own, rooted without a span) ...
    let events = registry.drain_trace_events();
    let begun: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| match e.kind {
            kdtelem::EventKind::SpanBegin { name, .. } => Some(name),
            _ => None,
        })
        .collect();
    for want in ["client.produce", "broker.rdma_commit", "client.fetch"] {
        assert!(begun.contains(want), "span {want} missing (got {begun:?})");
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, kdtelem::EventKind::ReplAck { .. })),
        "no replication ack in the trace"
    );
    // ... and its duration in its histogram.
    for (component, name) in [
        ("kdclient", "produce.e2e_ns"),
        ("kdbroker", "rdma.commit_ns"),
        ("kdbroker", "repl.replicate_ns"),
        ("kdclient", "fetch.e2e_ns"),
    ] {
        assert!(
            report.histogram(component, name).unwrap().stats.count > 0,
            "{component}.{name}"
        );
    }
}

/// §4.2.2: the RDMA produce path is zero-copy on the broker — asserted via
/// the registry, not the per-broker snapshot struct.
#[test]
fn rdma_produce_is_zero_copy_via_registry() {
    let registry = with_registry(|| {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
            cluster.create_topic("t", 1, 1).await;
            let cnode = cluster.add_client_node("c");
            let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
                .await
                .unwrap();
            for i in 0..20u8 {
                producer.send(&Record::value(vec![i; 256])).await.unwrap();
            }
        });
    });
    let report = registry.snapshot();
    assert_eq!(
        report.counter("kdbroker", "copy.heap_bytes"),
        Some(0),
        "RDMA produce copied bytes through the broker CPU"
    );
    assert_eq!(report.counter("kdbroker", "rdma.commits"), Some(20));
    // The NIC did real one-sided work for it.
    assert!(report.counter("rnic", "qp.one_sided_in").unwrap() > 0);
}

/// The TCP produce path *does* copy on the broker — the control for the
/// zero-copy assertion above, through the same registry instrument.
#[test]
fn tcp_produce_copies_on_the_broker() {
    let registry = with_registry(|| {
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
        });
    });
    let copied = registry
        .snapshot()
        .counter("kdbroker", "copy.heap_bytes")
        .unwrap();
    assert!(
        copied > 10 * 256,
        "TCP produce must copy every batch: {copied}"
    );
}

/// Network-thread busy time flows into `MetricsSnapshot::net_busy_ns`
/// (regression: it was hardcoded to zero) and into the registry.
#[test]
fn net_busy_time_is_accounted() {
    let registry = with_registry(|| {
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
                producer.send(&Record::value(vec![i; 512])).await.unwrap();
            }
            let m = cluster.broker(0).metrics();
            assert!(m.net_busy_ns > 0, "net thread busy time not accounted");
            assert!(m.worker_busy_ns > 0);
        });
    });
    assert!(
        registry
            .snapshot()
            .counter("kdbroker", "cpu.net_busy_ns")
            .unwrap()
            > 0
    );
}

/// One `(component, name, kind)` of the metric inventory.
type Metric = (String, String, &'static str);

/// DESIGN §8's inventory table: the backticked names of each row, by the
/// column they sit in.
fn documented_inventory() -> BTreeSet<Metric> {
    let design = include_str!("../DESIGN.md");
    let section = design
        .split("### Metric inventory")
        .nth(1)
        .expect("DESIGN §8 inventory");
    let table = section.lines().skip_while(|l| !l.starts_with('|'));
    let rows = table.take_while(|l| l.starts_with('|'));
    let ticked = |cell: &str| -> Vec<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    };
    let mut inventory = BTreeSet::new();
    // The header row and its rule name nothing.
    for row in rows.skip(2) {
        let cells: Vec<&str> = row.split('|').collect();
        let [component] = ticked(cells[1]).try_into().expect("one component per row");
        for (cell, kind) in cells[2..5].iter().zip(["counter", "gauge", "histogram"]) {
            for name in ticked(cell) {
                inventory.insert((component.clone(), name, kind));
            }
        }
    }
    inventory
}

/// Exclusive and shared RDMA produce, TCP produce, and an RDMA and a TCP
/// consumer, over a topic of RF 2 — one partition per producer.
async fn every_client(cluster: &SimCluster) {
    cluster.create_topic("t", 3, 2).await;
    let node = cluster.add_client_node("c");
    let record = Record::value(vec![7; 64]);
    for (partition, shared) in [(0, false), (1, true)] {
        let leader = cluster.leader_of("t", partition).await;
        let mut producer = RdmaProducer::connect(&node, leader, "t", partition, shared)
            .await
            .unwrap();
        producer.send(&record).await.unwrap();
    }
    let leader = cluster.leader_of("t", 2).await;
    let tcp = ClientTransport::Tcp;
    let producer = TcpProducer::connect(&node, leader, tcp, "t", 2)
        .await
        .unwrap();
    producer.send(&record).await.unwrap();
    let mut consumer = TcpConsumer::connect(&node, leader, tcp, "t", 2, 0)
        .await
        .unwrap();
    while consumer.next_records().await.unwrap().is_empty() {}
    let leader = cluster.leader_of("t", 0).await;
    let mut consumer = RdmaConsumer::connect(&node, leader, "t", 0, 0)
        .await
        .unwrap();
    while consumer.next_records().await.unwrap().is_empty() {}
}

/// The metric inventory in DESIGN §8 is checked, not kept by hand: a run
/// that reaches every registering site — every client datapath, push and
/// pull replication, the file tier, a lending pool of 8 and a fault
/// injector — registers exactly the instruments the table names, under the
/// kind whose column names them.
#[test]
fn metric_inventory_matches_design() {
    let dir = std::env::temp_dir().join(format!("kd-inventory-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let storage = kdstorage::StorageConfig::tiered(&dir);
    let registry = with_registry(|| {
        sim::Runtime::new().block_on(async {
            let injector = kdfault::Injector::new();
            let _faults = kdfault::enter(&injector);
            let mut opts = ClusterOptions::default();
            opts.broker.mux_pool = 8;
            opts.broker.storage = Some(storage);
            every_client(&SimCluster::start_with(SystemKind::KafkaDirect, 2, opts)).await;
            // Pull replication is a cluster-wide mode: a second cluster runs it.
            let pull = RdmaToggles {
                replicate: false,
                ..RdmaToggles::all()
            };
            every_client(&SimCluster::start(SystemKind::KafkaDirectWith(pull), 2)).await;
        })
    });
    std::fs::remove_dir_all(&dir).ok();

    let report = registry.snapshot();
    let mut registered = BTreeSet::<Metric>::new();
    for r in &report.counters {
        registered.insert((r.component.clone(), r.name.clone(), "counter"));
    }
    for r in &report.gauges {
        registered.insert((r.component.clone(), r.name.clone(), "gauge"));
    }
    for r in &report.histograms {
        registered.insert((r.component.clone(), r.name.clone(), "histogram"));
    }
    let documented = documented_inventory();
    let unlisted: Vec<_> = registered.difference(&documented).collect();
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        unlisted.is_empty() && unregistered.is_empty(),
        "registered but not in DESIGN §8: {unlisted:?}; \
         in DESIGN §8 but not registered: {unregistered:?}"
    );
}
