//! The §5.4 streaming workload: an IoT traffic sensor publishes JSON events
//! at a constant rate into two topics; a stream-processing consumer reports
//! the event delay (publish → consume), the Fig 21 metric.
//!
//! ```sh
//! cargo run --example iot_pipeline
//! ```

use kafkadirect::events::{SensorGenerator, TrafficEvent};
use kafkadirect::{Record, SimCluster, SystemKind};
use kdclient::{RdmaConsumer, RdmaProducer};
use std::time::Duration;

const EVENTS_PER_TOPIC: usize = 200;
/// 400 msg/s across two topics, as in the paper's constant-rate workload.
const INTER_EVENT: Duration = Duration::from_micros(5000);

fn main() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 2);
        cluster.create_topic("lanes-north", 1, 2).await;
        cluster.create_topic("lanes-south", 1, 2).await;

        // The sensor device: one producer per topic.
        for topic in ["lanes-north", "lanes-south"] {
            let leader = cluster.leader_of(topic, 0).await;
            let node = cluster.add_client_node(&format!("sensor-{topic}"));
            let topic = topic.to_string();
            sim::spawn(async move {
                let mut producer = RdmaProducer::connect(&node, leader, &topic, 0, false)
                    .await
                    .expect("sensor producer");
                let mut generator = SensorGenerator::new(7);
                for _ in 0..EVENTS_PER_TOPIC {
                    let event = generator.next_event();
                    let record = Record::value(event.to_json().into_bytes());
                    producer.send(&record).await.expect("publish");
                    sim::time::sleep(INTER_EVENT).await;
                }
            });
        }

        // The stream-processing engine: consumes both topics, computes a
        // running aggregate, and records event delays.
        let mut handles = Vec::new();
        for topic in ["lanes-north", "lanes-south"] {
            let leader = cluster.leader_of(topic, 0).await;
            let node = cluster.add_client_node(&format!("engine-{topic}"));
            let topic = topic.to_string();
            handles.push(sim::spawn(async move {
                let mut consumer = RdmaConsumer::connect(&node, leader, &topic, 0, 0)
                    .await
                    .expect("engine consumer");
                let mut delays_us = Vec::new();
                let mut cars_total = 0u64;
                while delays_us.len() < EVENTS_PER_TOPIC {
                    for rv in consumer.next_records().await.expect("consume") {
                        let json = std::str::from_utf8(&rv.record.value).expect("utf8");
                        let event = TrafficEvent::from_json(json).expect("json");
                        let now_us = sim::now().as_nanos() / 1000;
                        delays_us.push(now_us.saturating_sub(event.timestamp_us));
                        cars_total += u64::from(event.cars);
                    }
                    // Commit progress over TCP, as the paper notes (§5.4).
                    if delays_us.len() % 50 == 0 {
                        consumer.commit_offset("engine").await.ok();
                    }
                }
                (topic, delays_us, cars_total)
            }));
        }

        for h in handles {
            let (topic, mut delays, cars) = h.await.expect("engine task");
            delays.sort_unstable();
            let p50 = delays[delays.len() / 2];
            let p99 = delays[delays.len() * 99 / 100];
            println!(
                "{topic}: {} events, cars_total={cars}, delay p50={p50} us, p99={p99} us",
                delays.len()
            );
        }
        println!("virtual duration: {:.3} s", sim::now().as_secs_f64());
    });
}
