//! Ablations of KafkaDirect's design choices beyond the paper's headline
//! figures (DESIGN.md §4):
//!
//! * replication credit window (§4.3.2 flow control),
//! * consumer fetch size (§4.4.2 picks 2 KiB),
//! * metadata-slot span vs. subscription count (Fig 9 layout).
//!
//! Run with `cargo bench --bench ablations`.

use std::time::Duration;

use kafkadirect::{ClusterOptions, Record, SimCluster, SystemKind};
use kdbench::harness::AnyProducer;
use kdbench::stats::{fmt, size_label, Table};
use kdclient::{RdmaConsumer, RdmaProducer};

/// Credit window vs. replicated produce throughput: too few credits stall
/// the push pipeline; beyond a handful the committing worker dominates.
fn ab_credit_window() {
    println!();
    println!("# Ablation — push-replication credit window (4 KiB records, 2-way)");
    let mut table = Table::new(&["credits", "goodput_MiB/s"]);
    for credits in [1u32, 2, 4, 8, 16, 32] {
        let rt = sim::Runtime::new();
        let mibps = rt.block_on(async move {
            let mut opts = ClusterOptions::default();
            opts.broker.replication_credits = credits;
            let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 2, opts);
            cluster.create_topic("bench", 1, 2).await;
            let cnode = cluster.add_client_node("client");
            let mut producer = AnyProducer::Rdma(
                RdmaProducer::connect(&cnode, cluster.bootstrap(), "bench", 0, false)
                    .await
                    .unwrap(),
            );
            let record = Record::value(vec![7u8; 4096]);
            let count = 1500usize;
            let t0 = sim::now();
            producer.send_burst(std::iter::repeat_n(&record, count), 32).await;
            (count * 4096) as f64 / (sim::now() - t0).as_secs_f64() / (1024.0 * 1024.0)
        });
        table.row(vec![credits.to_string(), fmt(mibps)]);
    }
    table.print();
}

/// Consumer fetch size vs. latency and goodput — the §4.4.2 trade-off that
/// motivates the 2 KiB default ("less than 3 us ... more than 5 GiB/sec").
fn ab_fetch_size() {
    println!();
    println!("# Ablation — RDMA consumer fetch size (1 KiB records preloaded)");
    let mut table = Table::new(&["fetch", "read_latency_us", "goodput_MiB/s"]);
    for fetch in [512u32, 1024, 2048, 4096, 8192, 16384, 65536] {
        let rt = sim::Runtime::new();
        let (lat, bw) = rt.block_on(async move {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
            cluster.create_topic("t", 1, 1).await;
            let cnode = cluster.add_client_node("c");
            let mut producer = AnyProducer::Rdma(
                RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
                    .await
                    .unwrap(),
            );
            let count = 3000usize;
            let record = Record::value(vec![9u8; 1024]);
            producer.send_burst(std::iter::repeat_n(&record, count), 32).await;
            let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
                .await
                .unwrap();
            consumer.fetch_size = fetch;
            let t0 = sim::now();
            let mut seen = 0;
            let mut reads = 0u64;
            while seen < count {
                let before = consumer.stats.data_reads;
                seen += consumer.poll().await.unwrap().len();
                reads += consumer.stats.data_reads - before;
            }
            let elapsed = sim::now() - t0;
            let lat_us = elapsed.as_nanos() as f64 / 1000.0 / reads as f64;
            let bw = (count * 1024) as f64 / elapsed.as_secs_f64() / (1024.0 * 1024.0);
            (lat_us, bw)
        });
        table.row(vec![size_label(fetch as usize), fmt(lat), fmt(bw)]);
    }
    table.print();
}

/// Metadata-slot span: a consumer subscribed to many partitions still
/// refreshes all slots with ONE read; cost grows only with the span bytes
/// (Fig 9's contiguous-region design).
fn ab_slot_span() {
    println!();
    println!("# Ablation — Fig 9 slot layout: per-subscription slot reads (naive)");
    println!(
        "# vs ONE read of the contiguous per-consumer region (one consumer, n subscriptions)."
    );
    let mut table = Table::new(&[
        "partitions",
        "naive_reads",
        "naive_us",
        "fig9_reads",
        "fig9_us",
    ]);
    for parts in [1u32, 2, 4, 8, 16, 32] {
        let rt = sim::Runtime::new();
        let (nr, nus, fr, fus) = rt.block_on(async move {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
            cluster.create_topic("t", parts, 1).await;
            let cnode = cluster.add_client_node("c");
            // Naive: one single-partition consumer per subscription, each
            // refreshing its own slot.
            let mut consumers = Vec::new();
            for p in 0..parts {
                let mut c = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", p, 0)
                    .await
                    .unwrap();
                c.check_new_data().await.unwrap();
                consumers.push(c);
            }
            let t0 = sim::now();
            let mut naive_reads = 0u64;
            for c in consumers.iter_mut() {
                let before = c.stats.slot_reads;
                c.check_new_data().await.unwrap();
                naive_reads += c.stats.slot_reads - before;
            }
            let naive_us = (sim::now() - t0).as_nanos() as f64 / 1000.0;

            // Fig 9: one consumer id, one contiguous slot region, one read.
            let mut mc = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
                .await
                .unwrap();
            for p in 1..parts {
                mc.subscribe("t", p, 0);
            }
            mc.check_new_data().await.unwrap(); // access grants
            let before = mc.stats.slot_reads;
            let t1 = sim::now();
            let _ = mc.poll().await.unwrap();
            let fig9_reads = mc.stats.slot_reads - before;
            let fig9_us = (sim::now() - t1).as_nanos() as f64 / 1000.0;
            (naive_reads, naive_us, fig9_reads, fig9_us)
        });
        table.row(vec![
            parts.to_string(),
            nr.to_string(),
            fmt(nus),
            fr.to_string(),
            fmt(fus),
        ]);
    }
    table.print();
}

/// Shared-order hole timeout: shorter timeouts abort (and recover) faster
/// but risk false aborts under jitter; the produce stream always survives.
fn ab_order_timeout() {
    println!();
    println!("# Ablation — shared-mode hole timeout vs recovery time after a crashed reservation");
    let mut table = Table::new(&["timeout_us", "recovery_us"]);
    for timeout_us in [200u64, 500, 1000, 2000, 5000] {
        let rt = sim::Runtime::new();
        let recovery = rt.block_on(async move {
            let mut opts = ClusterOptions::default();
            opts.broker.shared_order_timeout = Duration::from_micros(timeout_us);
            let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
            cluster.create_topic("t", 1, 1).await;
            let cnode = cluster.add_client_node("client");
            let mut good = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, true)
                .await
                .unwrap();
            good.send(&Record::value(vec![1u8; 64])).await.unwrap();
            // Poison the order stream: reserve via FAA and never write.
            let evil = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, true)
                .await
                .unwrap();
            evil.poison_reservation(64).await;
            // Time how long the good producer takes to land its next record.
            let t0 = sim::now();
            let mut ok = false;
            for _ in 0..4 {
                if good.send(&Record::value(vec![2u8; 64])).await.is_ok() {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "producer must recover after the abort");
            (sim::now() - t0).as_nanos() as f64 / 1000.0
        });
        table.row(vec![timeout_us.to_string(), fmt(recovery)]);
    }
    table.print();
}

/// EXTENSION (§5.4 future work): offset commit latency and broker CPU, TCP
/// request vs one-sided RDMA write.
fn ab_offset_commit() {
    println!();
    println!("# Extension — offset commit: TCP request vs one-sided RDMA write");
    let rt = sim::Runtime::new();
    let (tcp_us, tcp_cpu, rdma_us, rdma_cpu) = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("c");
        let mut producer = RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
            .await
            .unwrap();
        for i in 0..5u8 {
            producer.send(&Record::value(vec![i; 32])).await.unwrap();
        }
        let mut consumer = RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
            .await
            .unwrap();
        while consumer.next_records().await.unwrap().is_empty() {}
        consumer.enable_rdma_offset_commit("g").await.unwrap();

        let n = 100;
        let busy0 = cluster.broker(0).metrics().worker_busy_ns;
        let t0 = sim::now();
        for _ in 0..n {
            consumer.commit_offset("g").await.unwrap();
        }
        let tcp_us = (sim::now() - t0).as_nanos() as f64 / 1000.0 / n as f64;
        let tcp_cpu = (cluster.broker(0).metrics().worker_busy_ns - busy0) / n;

        let busy1 = cluster.broker(0).metrics().worker_busy_ns;
        let t1 = sim::now();
        for _ in 0..n {
            consumer.commit_offset_rdma().await.unwrap();
        }
        let rdma_us = (sim::now() - t1).as_nanos() as f64 / 1000.0 / n as f64;
        let rdma_cpu = (cluster.broker(0).metrics().worker_busy_ns - busy1) / n;
        (tcp_us, tcp_cpu, rdma_us, rdma_cpu)
    });
    let mut table = Table::new(&["commit path", "latency_us", "broker_cpu_ns"]);
    table.row(vec!["TCP request".into(), fmt(tcp_us), tcp_cpu.to_string()]);
    table.row(vec!["RDMA write".into(), fmt(rdma_us), rdma_cpu.to_string()]);
    table.print();
    println!("# speedup: {:.0}x, broker CPU eliminated", tcp_us / rdma_us);
}

/// EXTENSION (§4.4.2 alternative): adaptive fetch sizing vs the fixed 2 KiB
/// default for various record sizes.
fn ab_adaptive_fetch() {
    println!();
    println!("# Extension — adaptive fetch sizing (reads per 100 records, goodput MiB/s)");
    let mut table = Table::new(&["record", "fixed_reads", "fixed_MiB/s", "adaptive_reads", "adaptive_MiB/s"]);
    for size in [256usize, 4096, 65536] {
        let run = |adaptive: bool| {
            let rt = sim::Runtime::new();
            rt.block_on(async move {
                let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
                cluster.create_topic("t", 1, 1).await;
                let cnode = cluster.add_client_node("c");
                let mut producer =
                    RdmaProducer::connect(&cnode, cluster.bootstrap(), "t", 0, false)
                        .await
                        .unwrap();
                let n = 100usize;
                for i in 0..n {
                    producer
                        .send(&Record::value(vec![(i % 251) as u8; size]))
                        .await
                        .unwrap();
                }
                let mut consumer =
                    RdmaConsumer::connect(&cnode, cluster.bootstrap(), "t", 0, 0)
                        .await
                        .unwrap();
                consumer.adaptive_fetch = adaptive;
                let t0 = sim::now();
                let mut seen = 0;
                while seen < n {
                    seen += consumer.poll().await.unwrap().len();
                }
                let bw = (n * size) as f64 / (sim::now() - t0).as_secs_f64() / (1024.0 * 1024.0);
                (consumer.stats.data_reads, bw)
            })
        };
        let (fr, fb) = run(false);
        let (ar, ab) = run(true);
        table.row(vec![
            size_label(size),
            fr.to_string(),
            fmt(fb),
            ar.to_string(),
            fmt(ab),
        ]);
    }
    table.print();
}

fn main() {
    ab_credit_window();
    ab_fetch_size();
    ab_slot_span();
    ab_order_timeout();
    ab_offset_commit();
    ab_adaptive_fetch();
}
