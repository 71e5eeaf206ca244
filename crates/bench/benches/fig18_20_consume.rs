//! Figures 18, 19, 20 and the §5.3 empty-fetch tables — the consume
//! datapath. Run with `cargo bench --bench fig18_20_consume`.

use kafkadirect::{SimCluster, SystemKind};
use kdbench::harness::{consume_bandwidth_mibps, consume_latency_us, end_to_end_latency_us};
use kdbench::stats::{fmt, size_label, Table};
use kdclient::{ClientTransport, RdmaConsumer, TcpConsumer};

fn fig18() {
    println!();
    println!("# Fig 18 — Consume latency (us) on 10k preloaded records");
    println!("# paper: Kafka >=200 us at all sizes; KafkaDirect 4.2 us (50x).");
    let sizes = [32, 128, 512, 2048, 8192, 32768, 131072];
    let mut table = Table::new(&["size", "Kafka", "KafkaDirect"]);
    for size in sizes {
        // Preload count scaled down for big records (bounded memory).
        let count = (2_000_000 / size.max(64)).clamp(50, 2000);
        table.row(vec![
            size_label(size),
            fmt(consume_latency_us(SystemKind::Kafka, size, count)),
            fmt(consume_latency_us(SystemKind::KafkaDirect, size, count)),
        ]);
    }
    table.print();
}

fn empty_fetch_latency() {
    println!();
    println!("# §5.3 table — Latency of empty fetch requests (us)");
    println!("# paper: TCP fetch >=200 us; RDMA metadata-slot read ~2.5 us.");
    let rt = sim::Runtime::new();
    let tcp = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::Kafka, 1);
        cluster.create_topic("t", 1, 1).await;
        let node = cluster.add_client_node("c");
        let mut consumer =
            TcpConsumer::connect(&node, cluster.bootstrap(), ClientTransport::Tcp, "t", 0, 0)
                .await
                .unwrap();
        let mut stats = kdbench::stats::LatencyStats::new();
        for _ in 0..40 {
            let t0 = sim::now();
            assert!(consumer.poll().await.unwrap().is_empty());
            stats.record(sim::now() - t0);
        }
        stats.median_us()
    });
    let rt = sim::Runtime::new();
    let rdma = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let node = cluster.add_client_node("c");
        let mut consumer = RdmaConsumer::connect(&node, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        consumer.check_new_data().await.unwrap(); // access grant
        let mut stats = kdbench::stats::LatencyStats::new();
        for _ in 0..200 {
            let t0 = sim::now();
            consumer.check_new_data().await.unwrap();
            stats.record(sim::now() - t0);
        }
        stats.median_us()
    });
    let mut table = Table::new(&["system", "empty_fetch_us"]);
    table.row(vec!["Kafka (TCP fetch)".into(), fmt(tcp)]);
    table.row(vec!["KafkaDirect (slot read)".into(), fmt(rdma)]);
    table.print();
}

fn fig19() {
    println!();
    println!("# Fig 19 — End-to-end latency (us): produce then fetch one record");
    println!("# paper: Kafka ~600 us; either RDMA datapath ~-200 us; both ~100 us.");
    let sizes = [32, 128, 512, 2048, 8192, 65536];
    let systems: Vec<(&str, SystemKind)> = vec![
        ("Kafka", SystemKind::Kafka),
        ("OSU", SystemKind::OsuKafka),
        (
            "RDMA Prod.",
            SystemKind::KafkaDirectWith(kafkadirect::RdmaToggles {
                produce: true,
                replicate: false,
                consume: false,
            }),
        ),
        (
            "RDMA Cons.",
            SystemKind::KafkaDirectWith(kafkadirect::RdmaToggles {
                produce: false,
                replicate: false,
                consume: true,
            }),
        ),
        (
            "Prod.+Cons.",
            SystemKind::KafkaDirectWith(kafkadirect::RdmaToggles {
                produce: true,
                replicate: false,
                consume: true,
            }),
        ),
    ];
    let mut header = vec!["size"];
    header.extend(systems.iter().map(|(n, _)| *n));
    let mut table = Table::new(&header);
    for size in sizes {
        let mut row = vec![size_label(size)];
        for (_, system) in &systems {
            row.push(fmt(end_to_end_latency_us(*system, size, 25)));
        }
        table.row(row);
    }
    table.print();
}

fn fig20() {
    println!();
    println!("# Fig 20 — Consume goodput (MiB/s), one record per fetch for TCP systems");
    println!("# paper: Kafka/OSU <150 MiB/s; KafkaDirect ~1 GiB/s at 32K (9x).");
    let sizes = [32, 128, 512, 2048, 8192, 32768];
    let mut table = Table::new(&["size", "Kafka", "OSU Kafka", "KafkaDirect"]);
    for size in sizes {
        let count = (4_000_000 / size.max(256)).clamp(100, 4000);
        table.row(vec![
            size_label(size),
            fmt(consume_bandwidth_mibps(SystemKind::Kafka, size, count)),
            fmt(consume_bandwidth_mibps(SystemKind::OsuKafka, size, count)),
            fmt(consume_bandwidth_mibps(
                SystemKind::KafkaDirect,
                size,
                count,
            )),
        ]);
    }
    table.print();
}

fn empty_fetch_throughput() {
    println!();
    println!("# §5.3 table — Empty fetch throughput per broker (requests/s)");
    println!("# paper: Kafka 53K/s (TCP module bound); KafkaDirect 8,300K/s (156x),");
    println!("#        with zero broker CPU involvement.");
    // TCP: many consumers hammer an empty topic; count served fetches.
    let rt = sim::Runtime::new();
    let (tcp_rate, tcp_busy) = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::Kafka, 1);
        cluster.create_topic("t", 1, 1).await;
        let mut handles = Vec::new();
        for c in 0..12 {
            let node = cluster.add_client_node(&format!("c{c}"));
            let bootstrap = cluster.bootstrap();
            handles.push(sim::spawn(async move {
                let mut consumer =
                    TcpConsumer::connect(&node, bootstrap, ClientTransport::Tcp, "t", 0, 0)
                        .await
                        .unwrap();
                for _ in 0..120 {
                    let _ = consumer.poll().await;
                }
            }));
        }
        let before = cluster.broker(0).metrics();
        let t0 = sim::now();
        for h in handles {
            h.await.unwrap();
        }
        let after = cluster.broker(0).metrics();
        let served = after.empty_fetches - before.empty_fetches;
        (
            served as f64 / (sim::now() - t0).as_secs_f64(),
            after.worker_busy_ns + after.net_busy_ns,
        )
    });
    // RDMA: consumers poll metadata slots; count NIC-served reads.
    let rt = sim::Runtime::new();
    let (rdma_rate, rdma_busy) = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let mut consumers = Vec::new();
        for c in 0..24 {
            let node = cluster.add_client_node(&format!("c{c}"));
            let mut consumer = RdmaConsumer::connect(&node, cluster.bootstrap(), "t", 0, 0)
                .await
                .unwrap();
            consumer.check_new_data().await.unwrap();
            consumers.push(consumer);
        }
        let busy0 = {
            let m = cluster.broker(0).metrics();
            m.worker_busy_ns + m.net_busy_ns
        };
        let reads0 = cluster.broker(0).nic_stats().reads_served;
        let t0 = sim::now();
        let mut handles = Vec::new();
        for mut consumer in consumers {
            handles.push(sim::spawn(async move {
                for _ in 0..3000 {
                    consumer.check_new_data().await.unwrap();
                }
            }));
        }
        for h in handles {
            h.await.unwrap();
        }
        let reads = cluster.broker(0).nic_stats().reads_served - reads0;
        let busy = {
            let m = cluster.broker(0).metrics();
            m.worker_busy_ns + m.net_busy_ns
        };
        (reads as f64 / (sim::now() - t0).as_secs_f64(), busy - busy0)
    });
    let mut table = Table::new(&["system", "empty_fetches_per_s", "broker_cpu_ns"]);
    table.row(vec![
        "Kafka (12 TCP consumers)".into(),
        fmt(tcp_rate),
        tcp_busy.to_string(),
    ]);
    table.row(vec![
        "KafkaDirect (24 RDMA consumers)".into(),
        fmt(rdma_rate),
        rdma_busy.to_string(),
    ]);
    table.print();
    println!("# speedup: {:.0}x", rdma_rate / tcp_rate);
}

fn main() {
    fig18();
    empty_fetch_latency();
    fig19();
    fig20();
    empty_fetch_throughput();
}
