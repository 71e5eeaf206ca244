//! Quickstart: one broker, one RDMA producer, one RDMA consumer.
//!
//! ```sh
//! cargo run --example quickstart
//! cargo run --example quickstart -- --durable
//! ```
//!
//! Starts a simulated KafkaDirect broker, produces a handful of records
//! through the zero-copy RDMA produce datapath (§4.2.2), reads them back
//! with one-sided RDMA Reads (§4.4.2), and prints what happened — including
//! the broker-side evidence that no CPU copies occurred.
//!
//! With `--durable` the broker runs the file-backed tiered store
//! (per-commit fsync) in a temporary directory: after the produce/consume
//! round the broker is hard-crashed, restarted from its segment files, and
//! every record is read back again — exiting non-zero if the recovered log
//! differs.
//!
//! A continuous-telemetry sampler records the produce/consume round; the
//! example reads stalls from that series (`kdtelem::health`) and runs the
//! critical-path checker over the run's trace lifelines. Any stall or
//! critpath reconciliation error exits non-zero — CI runs this as a live
//! observability gate.

use std::time::Duration;

use kafkadirect::{ClusterOptions, Record, SimCluster, SystemKind};
use kdclient::{RdmaConsumer, RdmaProducer};

fn main() {
    let durable = std::env::args().any(|a| a == "--durable");
    let dir = std::env::temp_dir().join(format!("kd-quickstart-{}", std::process::id()));
    let storage = durable.then(|| {
        std::fs::remove_dir_all(&dir).ok();
        kdstorage::StorageConfig::tiered(&dir).with_sync(kdstorage::SyncMode::PerCommit)
    });
    let rt = sim::Runtime::new();
    let dir2 = dir.clone();
    rt.block_on(async move {
        let dir = dir2;
        // A one-broker KafkaDirect cluster on a simulated 56 Gbit/s fabric,
        // sampled every 100 µs of virtual time from its start.
        let sampler = kdtelem::Sampler::start(
            &kdtelem::current(),
            kdtelem::SeriesOptions {
                interval: Duration::from_micros(100),
                ..Default::default()
            },
        );
        let mut opts = ClusterOptions::default();
        opts.broker.storage = storage;
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
        cluster.create_topic("greetings", 1, 1).await;
        println!("cluster up: broker at node {}", cluster.bootstrap().node);

        // Produce: WriteWithImm straight into the topic-partition file.
        let client = cluster.add_client_node("client");
        let mut producer =
            RdmaProducer::connect(&client, cluster.bootstrap(), "greetings", 0, false)
                .await
                .expect("producer connect");
        for i in 0..5 {
            let t0 = sim::now();
            let offset = producer
                .send(&Record::value(format!("hello #{i}").into_bytes()))
                .await
                .expect("produce");
            println!(
                "produced offset {offset} in {:.1} us",
                (sim::now() - t0).as_nanos() as f64 / 1000.0
            );
        }

        // Consume: RDMA Reads; the broker CPU is not involved.
        let mut consumer = RdmaConsumer::connect(&client, cluster.bootstrap(), "greetings", 0, 0)
            .await
            .expect("consumer connect");
        let mut seen = 0;
        while seen < 5 {
            for rv in consumer.next_records().await.expect("consume") {
                println!(
                    "consumed offset {}: {:?}",
                    rv.offset,
                    String::from_utf8_lossy(&rv.record.value)
                );
                seen += 1;
            }
        }

        let m = cluster.broker(0).metrics();
        let nic = cluster.broker(0).nic_stats();
        println!();
        println!("broker-side accounting:");
        println!("  rdma produce commits : {}", m.rdma_commits);
        println!(
            "  broker CPU copies    : {} bytes (zero copy!)",
            m.heap_copied_bytes
        );
        println!("  NIC-served reads     : {}", nic.reads_served);
        println!("  TCP fetch requests   : {}", m.fetch_requests);
        if durable {
            println!("  segment bytes synced : {}", m.storage_bytes_flushed);
            println!("  fsyncs               : {}", m.storage_fsyncs);
        }
        println!("  virtual time elapsed : {}", sim::now());
        sampler.stop();
        let series = sampler.dump();

        // Durability drill: kill the broker process, recover from the
        // segment files, and prove every acked record survived.
        if durable {
            drop(producer);
            drop(consumer);
            cluster.crash_broker(0);
            cluster.restart_broker(0);
            println!();
            println!("durable tier: broker crashed and restarted from {dir:?}");
            let mut consumer =
                RdmaConsumer::connect(&client, cluster.bootstrap(), "greetings", 0, 0)
                    .await
                    .expect("post-restart consumer connect");
            let mut recovered = Vec::new();
            while recovered.len() < 5 {
                for rv in consumer.next_records().await.expect("post-restart consume") {
                    recovered.push(String::from_utf8_lossy(&rv.record.value).into_owned());
                }
            }
            for (i, v) in recovered.iter().enumerate() {
                let want = format!("hello #{i}");
                if *v != want {
                    eprintln!("quickstart: recovered record {i} is {v:?}, expected {want:?}");
                    std::process::exit(1);
                }
            }
            println!(
                "durable tier: all {} records re-read after restart",
                recovered.len()
            );
        }

        // Continuous telemetry: the series of the produce/consume round, and
        // any stretch of 5 ms without a commit in it.
        let health = kdtelem::health(&series, Duration::from_millis(5));
        println!();
        println!("observability:");
        println!(
            "  series samples       : {} @ {} us/interval",
            series.samples,
            series.interval_ns / 1_000
        );
        if let Some(c) = series.counter("kdbroker", "rdma.commits") {
            println!("  commit deltas        : {:?}", c.deltas());
        }
        let stalls = health
            .events
            .iter()
            .filter(|e| matches!(e.kind, kdtelem::HealthKind::Stall { .. }))
            .count();
        println!("  stalls               : {stalls}");
        if stalls > 0 {
            eprintln!("quickstart: the series shows {stalls} stall(s)");
            std::process::exit(1);
        }
    });

    // Critical-path check over the run's trace lifelines: stage sums must
    // reconcile with the measured end-to-end totals.
    let events = kdtelem::current().drain_trace_events();
    let report = kdtelem::critpath::analyze(&events);
    match report.dominant() {
        Some((stage, ns)) => println!(
            "critical path: dominant stage {} ({} ns across {} lifelines)",
            stage.name(),
            ns,
            report.lifelines.len()
        ),
        None => println!("critical path: no lifelines recorded"),
    }
    if !report.ok() {
        eprintln!(
            "quickstart: critical-path checker errors: {:?}",
            report.errors
        );
        std::process::exit(1);
    }
    if durable {
        std::fs::remove_dir_all(&dir).ok();
    }
}
