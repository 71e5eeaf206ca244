//! Figure 21 — the §5.4 event-processing benchmark: delay between event
//! generation at an IoT sensor and its consumption by a streaming engine,
//! under constant-rate and periodic-burst publishing, with and without
//! replication, for all three systems.
//!
//! Scaled down from the paper's 400 s runs to 30 virtual seconds per cell
//! (documented in EXPERIMENTS.md); the delay distributions stabilise within
//! seconds. Run with `cargo bench --bench fig21_events`.

use std::time::Duration;

use kafkadirect::events::SensorGenerator;
use kafkadirect::{Record, SimCluster, SystemKind};
use kdbench::harness::{AnyProducer, ProducerMode};
use kdbench::stats::{fmt, LatencyStats, Table};
use kdclient::{RdmaConsumer, TcpConsumer};

const RUN_SECS: u64 = 30;
/// 400 msg/s split over the two topics, as in the paper.
const RATE_PER_TOPIC: u64 = 200;
/// Periodic burst: every 10 s an enlarged batch (§5.4).
const BURST_PERIOD: Duration = Duration::from_secs(10);
const BURST_SIZE: usize = 400;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    ConstantRate,
    PeriodicBurst,
}

fn run_cell(system: SystemKind, workload: Workload, replicated: bool) -> (f64, f64, f64) {
    let rt = sim::Runtime::with_seed(7);
    rt.block_on(async move {
        let brokers = if replicated { 2 } else { 1 };
        let rf = if replicated { 2 } else { 1 };
        let cluster = SimCluster::start(system, brokers);
        cluster.create_topic("north", 1, rf).await;
        cluster.create_topic("south", 1, rf).await;

        let mode = if system.rdma_produce() {
            ProducerMode::RdmaExclusive
        } else {
            ProducerMode::Rpc
        };

        // Publishers: one sensor per topic.
        for topic in ["north", "south"] {
            let leader = cluster.leader_of(topic, 0).await;
            let node = cluster.add_client_node(&format!("sensor-{topic}"));
            let system = cluster.system;
            let topic = topic.to_string();
            sim::spawn(async move {
                let mut producer =
                    AnyProducer::connect(system, &node, leader, &topic, 0, mode).await;
                let mut generator = SensorGenerator::new(1);
                let interval = Duration::from_nanos(1_000_000_000 / RATE_PER_TOPIC);
                let deadline = sim::now() + Duration::from_secs(RUN_SECS);
                let mut next_burst = sim::now() + BURST_PERIOD;
                while sim::now() < deadline {
                    if workload == Workload::PeriodicBurst && sim::now() >= next_burst {
                        next_burst += BURST_PERIOD;
                        // The whole burst is born "now"; delays of its tail
                        // events include the produce-pipeline backlog.
                        let burst: Vec<Record> = (0..BURST_SIZE)
                            .map(|_| Record::value(generator.next_event().to_json().into_bytes()))
                            .collect();
                        producer.send_burst(&burst, 32).await;
                    }
                    let event = generator.next_event();
                    producer
                        .send(&Record::value(event.to_json().into_bytes()))
                        .await;
                    sim::time::sleep(interval).await;
                }
            });
        }

        // Engines: one consumer per topic, recording event delays.
        let mut handles = Vec::new();
        for topic in ["north", "south"] {
            let leader = cluster.leader_of(topic, 0).await;
            let node = cluster.add_client_node(&format!("engine-{topic}"));
            let rdma = cluster.system.rdma_consume();
            let transport = cluster.system.client_transport();
            let topic = topic.to_string();
            handles.push(sim::spawn(async move {
                let mut stats = LatencyStats::new();
                let deadline = sim::now() + Duration::from_secs(RUN_SECS);
                let mut since_commit = 0u32;
                if rdma {
                    let mut consumer = RdmaConsumer::connect(&node, leader, &topic, 0, 0)
                        .await
                        .expect("consumer");
                    while sim::now() < deadline {
                        let records = consumer.poll().await.expect("poll");
                        if records.is_empty() {
                            sim::time::sleep(Duration::from_micros(200)).await;
                            continue;
                        }
                        record_delays(&records, &mut stats);
                        since_commit += records.len() as u32;
                        if since_commit >= 100 {
                            // Commit offsets over TCP (§5.4's noted source
                            // of delay variance for KafkaDirect).
                            consumer.commit_offset("engine").await.ok();
                            since_commit = 0;
                        }
                    }
                } else {
                    let mut consumer = TcpConsumer::connect(&node, leader, transport, &topic, 0, 0)
                        .await
                        .expect("consumer");
                    while sim::now() < deadline {
                        let records = consumer.poll().await.expect("poll");
                        if records.is_empty() {
                            sim::time::sleep(Duration::from_micros(200)).await;
                            continue;
                        }
                        record_delays(&records, &mut stats);
                    }
                }
                stats
            }));
        }
        let mut merged = LatencyStats::new();
        for h in handles {
            let stats = h.await.unwrap();
            merged.merge(&stats);
        }
        (
            merged.median_us() / 1000.0,
            merged.percentile(99.0) / 1000.0,
            merged.percentile(99.9) / 1000.0,
        )
    })
}

fn record_delays(records: &[kdstorage::RecordView], stats: &mut LatencyStats) {
    let now_us = sim::now().as_nanos() / 1000;
    for rv in records {
        let json = std::str::from_utf8(&rv.record.value).expect("utf8");
        let event = kafkadirect::events::TrafficEvent::from_json(json).expect("json");
        stats.record(Duration::from_micros(
            now_us.saturating_sub(event.timestamp_us),
        ));
    }
}

fn main() {
    let systems = [
        ("Kafka", SystemKind::Kafka),
        ("OSU Kafka", SystemKind::OsuKafka),
        ("KafkaDirect", SystemKind::KafkaDirect),
    ];
    for (wname, workload) in [
        ("constant-rate", Workload::ConstantRate),
        ("periodic-burst", Workload::PeriodicBurst),
    ] {
        for replicated in [false, true] {
            println!();
            println!(
                "# Fig 21 — event delay (ms), {wname} publisher, {} replication",
                if replicated { "2x" } else { "no" }
            );
            println!("# paper: KafkaDirect lowest everywhere (~3.3x lower on average);");
            println!("#        burst spikes absorbed without unavailability.");
            let mut table = Table::new(&["system", "p50_ms", "p99_ms", "p999_ms"]);
            for (name, system) in systems {
                let (p50, p99, p999) = run_cell(system, workload, replicated);
                table.row(vec![name.into(), fmt(p50), fmt(p99), fmt(p999)]);
            }
            table.print();
        }
    }
}
