//! Figures 14–17 — the replication datapath (§5.2).
//!
//! Fig 14: produce latency under 3-way replication for five configurations.
//! Fig 15: produce goodput under 3-way replication.
//! Fig 16: goodput of 32 KiB records vs replication factor.
//! Fig 17: goodput of 32-byte produces vs the push-replication batch cap.
//! Run with `cargo bench --bench fig14_17_replication`.

use kafkadirect::{RdmaToggles, SystemKind};
use kdbench::harness::{
    produce_bandwidth_mibps, produce_latency_us, AnyProducer, ProduceOpts, ProducerMode,
};
use kdbench::stats::{fmt, size_label, Table};

fn kd(produce: bool, replicate: bool) -> SystemKind {
    SystemKind::KafkaDirectWith(RdmaToggles {
        produce,
        replicate,
        consume: false,
    })
}

/// The five configurations of Figs 14/15.
fn configs() -> Vec<(&'static str, SystemKind, ProducerMode)> {
    vec![
        ("Kafka", SystemKind::Kafka, ProducerMode::Rpc),
        ("OSU", SystemKind::OsuKafka, ProducerMode::Rpc),
        ("RDMA Prod.", kd(true, false), ProducerMode::RdmaExclusive),
        ("RDMA Repl.", kd(false, true), ProducerMode::Rpc),
        ("Prod.+Repl.", kd(true, true), ProducerMode::RdmaExclusive),
    ]
}

fn fig14() {
    println!();
    println!("# Fig 14 — Produce latency (us) with 3-way replication (acks=all)");
    println!("# paper: Kafka ~700 us small; either RDMA module alone ~-300 us;");
    println!("#        both modules ~100 us (7x over Kafka).");
    let sizes = [32, 128, 512, 2048, 8192, 32768, 131072];
    let mut header = vec!["size"];
    header.extend(configs().iter().map(|(n, _, _)| *n));
    let mut table = Table::new(&header);
    for size in sizes {
        let mut row = vec![size_label(size)];
        for (_, system, mode) in configs() {
            let mut o = ProduceOpts::new(system, mode, size);
            o.brokers = 3;
            o.replication = 3;
            row.push(fmt(produce_latency_us(&o, 30)));
        }
        table.row(row);
    }
    table.print();
}

fn fig15() {
    println!();
    println!("# Fig 15 — Produce goodput (MiB/s) with 3-way replication");
    println!("# paper: KafkaDirect (both modules) 9-14x Kafka; RDMA Prod. alone");
    println!("#        bottlenecked by pull replication (~500 MiB/s @32K).");
    let sizes = [32, 128, 512, 2048, 8192, 32768];
    let mut header = vec!["size"];
    header.extend(configs().iter().map(|(n, _, _)| *n));
    let mut table = Table::new(&header);
    for size in sizes {
        let mut row = vec![size_label(size)];
        for (_, system, mode) in configs() {
            let mut o = ProduceOpts::new(system, mode, size);
            o.brokers = 3;
            o.replication = 3;
            o.records = ((2 << 20) / size.max(512)).clamp(150, 3000);
            o.window = 32;
            row.push(fmt(produce_bandwidth_mibps(&o)));
        }
        table.row(row);
    }
    table.print();
}

fn fig16() {
    println!();
    println!("# Fig 16 — Produce goodput of 32 KiB records vs replication factor (MiB/s)");
    println!("# paper: RDMA Prod. 1.5 GiB/s at RF=1 dropping to ~0.5 with TCP pull;");
    println!("#        RDMA Prod.+Repl. sustains the rate (14x Kafka).");
    let mut table = Table::new(&["RF", "Kafka", "RDMA Prod.", "RDMA Repl.", "Prod.+Repl."]);
    for rf in 1..=4u32 {
        let mk = |system, mode| {
            let mut o = ProduceOpts::new(system, mode, 32 * 1024);
            o.brokers = 4;
            o.replication = rf;
            o.records = 600;
            o.window = 32;
            produce_bandwidth_mibps(&o)
        };
        table.row(vec![
            rf.to_string(),
            fmt(mk(SystemKind::Kafka, ProducerMode::Rpc)),
            fmt(mk(kd(true, false), ProducerMode::RdmaExclusive)),
            fmt(mk(kd(false, true), ProducerMode::Rpc)),
            fmt(mk(kd(true, true), ProducerMode::RdmaExclusive)),
        ]);
    }
    table.print();
}

fn fig17() {
    println!();
    println!("# Fig 17 — Goodput of 32-byte produces vs replication batch cap (MiB/s)");
    println!("# paper: no batching ~3.8 MiB/s; grows with the cap, plateaus ~5.2 MiB/s");
    println!("#        (bottlenecked by the committing API worker, not the wire).");
    let mut table = Table::new(&["batch", "2-way repl", "3-way repl"]);
    for batch in [32u32, 64, 128, 256, 512, 1024] {
        let mk = |rf: u32| {
            let system = kd(true, true);
            let rt = sim::Runtime::new();
            rt.block_on(async move {
                let mut cfg = system.broker_config();
                cfg.replication_max_batch = batch;
                cfg.log = kdstorage::LogConfig {
                    segment_size: 32 * 1024 * 1024,
                    max_batch_size: 1024 * 1024,
                };
                // Boot a custom cluster with the batch cap.
                let fabric = netsim::Fabric::new(netsim::profile::Profile::testbed());
                let mut peers = Vec::new();
                let mut nodes = Vec::new();
                for i in 0..rf {
                    let node = fabric.add_node(&format!("b{i}"));
                    peers.push(kdwire::BrokerAddr {
                        node: node.id.0,
                        port: cfg.tcp_port,
                        rdma_port: cfg.rdma_port,
                    });
                    nodes.push(node);
                }
                let _brokers: Vec<_> = nodes
                    .iter()
                    .map(|n| kdbroker::Broker::start(n, cfg.clone(), peers.clone()))
                    .collect();
                let admin_node = fabric.add_node("admin");
                let admin = kdclient::Admin::connect(&admin_node, peers[0]).await.unwrap();
                admin.create_topic("bench", 1, rf).await.unwrap();
                let cnode = fabric.add_node("client");
                let mut producer = AnyProducer::Rdma(
                    kdclient::RdmaProducer::connect(&cnode, peers[0], "bench", 0, false)
                        .await
                        .unwrap(),
                );
                let record = kdstorage::Record::value(vec![7u8; 32]);
                // Windowed pipelined produce of unbatched 32-byte records.
                let count = 4000;
                let t0 = sim::now();
                producer.send_burst(std::iter::repeat_n(&record, count), 32).await;
                (count * 32) as f64 / (sim::now() - t0).as_secs_f64() / (1024.0 * 1024.0)
            })
        };
        table.row(vec![size_label(batch as usize), fmt(mk(2)), fmt(mk(3))]);
    }
    table.print();
}

fn main() {
    fig14();
    fig15();
    fig16();
    fig17();
}
