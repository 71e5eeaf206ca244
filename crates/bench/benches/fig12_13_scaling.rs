//! Figures 12 & 13 — produce scaling (§5.1).
//!
//! Fig 12: goodput of 32 KiB records vs number of partitions (per-TP write
//! locks cap per-partition parallelism; saturation at the API worker count).
//! Fig 13: total goodput of 4 KiB records vs number of producers against a
//! broker with a single API worker — the per-worker capacity that yields the
//! paper's "3.3× reduction in CPU load" claim.
//! Run with `cargo bench --bench fig12_13_scaling`.

use kafkadirect::SystemKind;
use kdbench::harness::{produce_bandwidth_mibps, ProduceOpts, ProducerMode};
use kdbench::stats::{fmt, Table};

fn fig12() {
    println!();
    println!("# Fig 12 — Produce goodput for 32 KiB records vs partitions (GiB/s)");
    println!("# paper: grows with partitions, saturates around 8 (the API worker");
    println!("#        count); KafkaDirect 4.5 GiB/s excl / 3 GiB/s shared; Kafka ~0.5.");
    let mut table = Table::new(&["partitions", "KD excl", "KD shared", "Kafka"]);
    for partitions in [1u32, 2, 4, 8, 16] {
        let mk = |system, mode| {
            let mut o = ProduceOpts::new(system, mode, 32 * 1024);
            o.partitions = partitions;
            o.producers = partitions as usize;
            o.records = 1500 / partitions as usize + 200;
            o.window = 32;
            produce_bandwidth_mibps(&o) / 1024.0
        };
        table.row(vec![
            partitions.to_string(),
            fmt(mk(SystemKind::KafkaDirect, ProducerMode::RdmaExclusive)),
            fmt(mk(SystemKind::KafkaDirect, ProducerMode::RdmaShared)),
            fmt(mk(SystemKind::Kafka, ProducerMode::Rpc)),
        ]);
    }
    table.print();
}

fn fig13() {
    println!();
    println!("# Fig 13 — Total goodput of 4 KiB records vs producers, ONE API worker (MiB/s)");
    println!("# paper: KafkaDirect plateaus ~630 MiB/s (>=4 producers); Kafka ~190 MiB/s.");
    println!("#        => line rate needs ~10 KD workers vs ~33 Kafka workers: 3.3x CPU.");
    let mut table = Table::new(&["producers", "KafkaDirect", "Kafka"]);
    let mut kd_plateau: f64 = 0.0;
    let mut kafka_plateau: f64 = 0.0;
    for producers in 1..=7usize {
        let mk = |system, mode| {
            let mut o = ProduceOpts::new(system, mode, 4096);
            o.partitions = producers as u32; // private TP per producer
            o.producers = producers;
            o.records = 400;
            o.window = 16;
            o.cluster.broker.api_workers = 1;
            produce_bandwidth_mibps(&o)
        };
        let kd = mk(SystemKind::KafkaDirect, ProducerMode::RdmaExclusive);
        let kafka = mk(SystemKind::Kafka, ProducerMode::Rpc);
        kd_plateau = kd_plateau.max(kd);
        kafka_plateau = kafka_plateau.max(kafka);
        table.row(vec![producers.to_string(), fmt(kd), fmt(kafka)]);
    }
    table.print();
    let line_rate = 6.0 * 1024.0;
    println!(
        "# workers needed for 6 GiB/s line rate: KafkaDirect {:.1}, Kafka {:.1} => {:.1}x CPU-load reduction",
        line_rate / kd_plateau,
        line_rate / kafka_plateau,
        kd_plateau / kafka_plateau,
    );
}

fn main() {
    fig12();
    fig13();
}
