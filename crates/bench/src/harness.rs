//! Shared measurement harnesses for the figure benchmarks.
//!
//! Every figure runs each data point in a **fresh runtime** (deterministic,
//! no cross-contamination) and measures **virtual time**; see DESIGN.md §3.1
//! for why wall-clock time is meaningless here.

use std::collections::VecDeque;

use kafkadirect::{ClusterOptions, Record, SimCluster, SystemKind};
use kdclient::{RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer};

use crate::stats::{goodput_mibps, LatencyStats};

/// How records are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProducerMode {
    /// Produce RPCs over the system's transport (TCP or OSU Send/Recv).
    Rpc,
    /// Exclusive one-sided RDMA produce (§4.2.2).
    RdmaExclusive,
    /// Shared one-sided RDMA produce via FAA (§4.2.2).
    RdmaShared,
}

/// Parameters of a produce experiment.
#[derive(Debug, Clone)]
pub struct ProduceOpts {
    pub system: SystemKind,
    pub mode: ProducerMode,
    pub record_size: usize,
    /// Records per producer.
    pub records: usize,
    /// Max produce requests in flight per producer (1 = closed loop).
    pub window: usize,
    pub partitions: u32,
    /// Producers; producer *i* targets partition *i % partitions*.
    pub producers: usize,
    pub brokers: usize,
    pub replication: u32,
    /// The fabric and broker template the cluster is booted with.
    pub cluster: ClusterOptions,
}

impl ProduceOpts {
    pub fn new(system: SystemKind, mode: ProducerMode, record_size: usize) -> Self {
        ProduceOpts {
            system,
            mode,
            record_size,
            records: 200,
            window: 1,
            partitions: 1,
            producers: 1,
            brokers: 1,
            replication: 1,
            cluster: ClusterOptions::default(),
        }
    }
}

/// A producer of either kind with a uniform async interface.
// One of these exists per bench run; the size gap between variants
// (RdmaProducer carries its staging pool inline) is irrelevant here.
#[allow(clippy::large_enum_variant)]
pub enum AnyProducer {
    Rpc(TcpProducer),
    Rdma(RdmaProducer),
}

impl AnyProducer {
    pub async fn connect(
        system: SystemKind,
        node: &netsim::NodeHandle,
        leader: kdwire::BrokerAddr,
        topic: &str,
        partition: u32,
        mode: ProducerMode,
    ) -> AnyProducer {
        match mode {
            ProducerMode::Rpc => AnyProducer::Rpc(
                TcpProducer::connect(
                    node,
                    leader,
                    system.client_transport(),
                    topic,
                    partition,
                )
                .await
                .expect("rpc producer"),
            ),
            ProducerMode::RdmaExclusive => AnyProducer::Rdma(
                RdmaProducer::connect(node, leader, topic, partition, false)
                    .await
                    .expect("rdma producer"),
            ),
            ProducerMode::RdmaShared => AnyProducer::Rdma(
                RdmaProducer::connect(node, leader, topic, partition, true)
                    .await
                    .expect("shared rdma producer"),
            ),
        }
    }

    pub async fn send(&mut self, record: &Record) -> u64 {
        match self {
            AnyProducer::Rpc(p) => p.send(record).await.expect("produce"),
            AnyProducer::Rdma(p) => p.send(record).await.expect("produce"),
        }
    }

    /// Produces `records`, one post each, with up to `window` in flight;
    /// returns once every ack arrived. A failed post or an error ack panics:
    /// a figure computed from `count × size` must not count a lost record.
    pub async fn send_burst<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a Record>,
        window: usize,
    ) {
        match self {
            AnyProducer::Rpc(p) => {
                let mut inflight: VecDeque<sim::JoinHandle<Result<u64, kdclient::ClientError>>> =
                    VecDeque::new();
                for r in records {
                    if inflight.len() >= window {
                        inflight.pop_front().unwrap().await.unwrap().expect("produce");
                    }
                    inflight.push_back(p.send_pipelined(r));
                }
                while let Some(h) = inflight.pop_front() {
                    h.await.unwrap().expect("produce");
                }
            }
            AnyProducer::Rdma(p) => {
                let mut inflight: VecDeque<AckReceiver> = VecDeque::new();
                for r in records {
                    if inflight.len() >= window {
                        check_ack(inflight.pop_front().unwrap().await);
                    }
                    inflight.push_back(p.send_pipelined(r).await.expect("post"));
                }
                while let Some(rx) = inflight.pop_front() {
                    check_ack(rx.await);
                }
            }
        }
    }

    /// Produces `count` records keeping up to `window` in flight; returns
    /// once every ack arrived.
    pub async fn send_windowed(&mut self, record: &Record, count: usize, window: usize) {
        let AnyProducer::Rdma(p) = self else {
            // RPCs do not chain: one pipelined request per record.
            return self.send_burst(std::iter::repeat_n(record, count), window).await;
        };
        // Freed window slots refill as one linked WR chain: when the awaited
        // ack returns, every ack that landed behind it (acks are FIFO per
        // QP) retires too, and the whole freed run is posted with a single
        // doorbell.
        let max_chain = window.min(count).max(1);
        let chunk: Vec<Record> = vec![record.clone(); max_chain];
        let mut inflight: VecDeque<AckReceiver> = VecDeque::new();
        let mut rxs: Vec<AckReceiver> = Vec::new();
        let mut sent = 0usize;
        while sent < count {
            if inflight.len() >= window {
                // Retire acks until half the window is free: slots freed in
                // a burst refill as one long chain instead of dribbling out
                // one doorbell per ack.
                while inflight.len() > window / 2 {
                    check_ack(inflight.pop_front().unwrap().await);
                }
                while let Some(ack) = inflight.front_mut().and_then(|rx| rx.try_recv()) {
                    check_ack(ack);
                    inflight.pop_front();
                }
            }
            let free = (window - inflight.len()).min(count - sent).max(1);
            p.send_pipelined_chain(&chunk[..free], &mut rxs)
                .await
                .expect("post");
            sent += free;
            inflight.extend(rxs.drain(..));
        }
        while let Some(rx) = inflight.pop_front() {
            check_ack(rx.await);
        }
    }
}

/// The receiving end of one RDMA produce acknowledgment.
type AckReceiver = sim::sync::oneshot::Receiver<(kdwire::ErrorCode, u64)>;

fn check_ack(ack: Result<(kdwire::ErrorCode, u64), sim::sync::oneshot::RecvError>) {
    let (err, _) = ack.expect("ack");
    assert!(err.is_ok(), "produce failed: {err:?}");
}

/// Boots a cluster + topic for a produce experiment.
pub async fn setup(opts: &ProduceOpts) -> SimCluster {
    let cluster = SimCluster::start_with(opts.system, opts.brokers, opts.cluster.clone());
    cluster
        .create_topic("bench", opts.partitions, opts.replication)
        .await;
    cluster
}

/// Median produce latency in µs (closed loop, one producer) — the Fig 10/14
/// methodology: "a round-trip time measured by a produce client".
pub fn produce_latency_us(opts: &ProduceOpts, samples: usize) -> f64 {
    let opts = opts.clone();
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("client");
        let mut producer =
            AnyProducer::connect(cluster.system, &node, leader, "bench", 0, opts.mode).await;
        let record = Record::value(vec![0xA5u8; opts.record_size]);
        // Warmup.
        for _ in 0..5 {
            producer.send(&record).await;
        }
        let mut stats = LatencyStats::new();
        for _ in 0..samples {
            let t0 = sim::now();
            producer.send(&record).await;
            stats.record(sim::now() - t0);
        }
        stats.median_us()
    })
}

/// Aggregate produce goodput in MiB/s across all producers (pipelined).
pub fn produce_bandwidth_mibps(opts: &ProduceOpts) -> f64 {
    let opts = opts.clone();
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let cluster = setup(&opts).await;
        let mut leaders = Vec::new();
        for p in 0..opts.partitions {
            leaders.push(cluster.leader_of("bench", p).await);
        }
        let t0 = sim::now();
        let mut handles = Vec::new();
        for i in 0..opts.producers {
            let partition = i as u32 % opts.partitions;
            let leader = leaders[partition as usize];
            let node = cluster.add_client_node(&format!("client{i}"));
            let mode = opts.mode;
            let size = opts.record_size;
            let count = opts.records;
            let window = opts.window;
            let system = cluster.system;
            handles.push(sim::spawn(async move {
                let mut producer =
                    AnyProducer::connect(system, &node, leader, "bench", partition, mode).await;
                let record = Record::value(vec![0xA5u8; size]);
                producer.send_windowed(&record, count, window).await;
            }));
        }
        for h in handles {
            h.await.unwrap();
        }
        let elapsed = sim::now() - t0;
        let bytes = (opts.producers * opts.records * opts.record_size) as u64;
        goodput_mibps(bytes, elapsed)
    })
}

/// Preloads `count` records then measures the median per-record consume
/// latency (Fig 18 methodology: records preloaded, fetched one by one).
pub fn consume_latency_us(system: SystemKind, record_size: usize, count: usize) -> f64 {
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let opts = ProduceOpts::new(system, preferred_mode(system), record_size);
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("client");
        preload(&cluster, &node, leader, record_size, count).await;

        let mut stats = LatencyStats::new();
        if system.rdma_consume() {
            let mut consumer = RdmaConsumer::connect(&node, leader, "bench", 0, 0)
                .await
                .expect("consumer");
            // Paper methodology: records are fetched one by one — size the
            // RDMA read to one encoded record.
            consumer.fetch_size = (record_size + 96) as u32;
            let mut seen = 0;
            while seen < count {
                let t0 = sim::now();
                let records = consumer.poll().await.expect("poll");
                if records.is_empty() {
                    continue;
                }
                stats.record(sim::now() - t0);
                seen += records.len();
            }
        } else {
            let mut consumer =
                TcpConsumer::connect(&node, leader, system.client_transport(), "bench", 0, 0)
                    .await
                    .expect("consumer");
            // One record per fetch (the paper disables response batching in
            // the bandwidth experiment; for latency it fetches one by one).
            consumer.max_bytes = (record_size + 128) as u32;
            let mut seen = 0;
            while seen < count {
                let t0 = sim::now();
                let records = consumer.poll().await.expect("poll");
                if records.is_empty() {
                    continue;
                }
                stats.record(sim::now() - t0);
                seen += records.len();
            }
        }
        stats.median_us()
    })
}

/// Consume goodput in MiB/s over `count` preloaded records (Fig 20: broker
/// replies with one record per fetch for the TCP systems).
pub fn consume_bandwidth_mibps(system: SystemKind, record_size: usize, count: usize) -> f64 {
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let opts = ProduceOpts::new(system, preferred_mode(system), record_size);
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("client");
        preload(&cluster, &node, leader, record_size, count).await;

        let t0 = sim::now();
        let mut seen = 0usize;
        if system.rdma_consume() {
            let mut consumer = RdmaConsumer::connect(&node, leader, "bench", 0, 0)
                .await
                .expect("consumer");
            consumer.fetch_size = consumer.fetch_size.max((record_size + 128) as u32);
            while seen < count {
                seen += consumer.poll().await.expect("poll").len();
            }
        } else {
            let mut consumer =
                TcpConsumer::connect(&node, leader, system.client_transport(), "bench", 0, 0)
                    .await
                    .expect("consumer");
            consumer.max_bytes = (record_size + 128) as u32; // one record per fetch
            while seen < count {
                seen += consumer.poll().await.expect("poll").len();
            }
        }
        goodput_mibps((count * record_size) as u64, sim::now() - t0)
    })
}

/// Runs a closed-loop produce experiment inside a private telemetry registry
/// and returns the aggregated [`kdtelem::TelemetryReport`] — latency
/// percentiles per broker API, NIC and link counters, client e2e histograms.
pub fn produce_telemetry(opts: &ProduceOpts, samples: usize) -> kdtelem::TelemetryReport {
    let registry = kdtelem::Registry::new();
    let _scope = kdtelem::enter(&registry);
    let _ = produce_latency_us(opts, samples);
    registry.snapshot()
}

/// Prints a telemetry report table when `KD_TELEM=1` is set, so every bench
/// can expose its instrument readings without cluttering default output.
pub fn maybe_print_telemetry(label: &str, report: &kdtelem::TelemetryReport) {
    if std::env::var_os("KD_TELEM").is_some_and(|v| v == "1") {
        println!();
        println!("# telemetry — {label}");
        print!("{}", report.to_table());
    }
}

/// Captures every trace event of one end-to-end produce→fetch run on
/// `system`'s preferred datapaths and returns the drained event log.
pub fn capture_trace(system: SystemKind, record_size: usize, samples: usize) -> Vec<kdtelem::TraceEvent> {
    let registry = kdtelem::Registry::new();
    let _scope = kdtelem::enter(&registry);
    let _ = end_to_end_latency_us(system, record_size, samples);
    registry.drain_trace_events()
}

/// When `KD_TRACE=<path>` is set, records one end-to-end produce→fetch run
/// on `system` and writes its lifelines as Chrome trace-event JSON to
/// `<path>` — load the file in Perfetto (ui.perfetto.dev) or
/// `chrome://tracing` to see client→broker→consumer spans and events.
pub fn maybe_write_trace(label: &str, system: SystemKind) {
    let Some(path) = std::env::var_os("KD_TRACE") else {
        return;
    };
    let events = capture_trace(system, 256, 4);
    let json = kdtelem::chrome::to_chrome_json(&events);
    let path = std::path::PathBuf::from(path);
    match std::fs::write(&path, json) {
        Ok(()) => println!(
            "# trace — {label}: wrote {} events to {}",
            events.len(),
            path.display()
        ),
        Err(e) => eprintln!("# trace — {label}: cannot write {}: {e}", path.display()),
    }
}

/// Runs a pipelined produce workload on `system`'s preferred datapath with
/// the virtual-time sampler armed, inside a private telemetry registry, and
/// returns the recorded [`kdtelem::SeriesDump`] — every counter, gauge and
/// histogram sampled on a fixed virtual-time grid.
pub fn capture_series(
    system: SystemKind,
    record_size: usize,
    count: usize,
    interval: std::time::Duration,
) -> kdtelem::SeriesDump {
    let registry = kdtelem::Registry::new();
    let _scope = kdtelem::enter(&registry);
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let log = kdtelem::Sampler::start(
            &kdtelem::current(),
            kdtelem::SeriesOptions {
                interval,
                capacity: 1 << 16,
            },
        );
        let opts = ProduceOpts::new(system, preferred_mode(system), record_size);
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("client");
        let mut producer =
            AnyProducer::connect(cluster.system, &node, leader, "bench", 0, opts.mode).await;
        let record = Record::value(vec![0xA5u8; record_size]);
        producer.send_windowed(&record, count, 16).await;
        log.stop();
        log.dump()
    })
}

/// When `KD_SERIES=<path>` is set, records a sampled produce run on
/// `system` and writes the time-series as JSON lines to `<path>` — render
/// it with `cargo run --release -p bench --bin kdtop -- <path>`.
pub fn maybe_write_series(label: &str, system: SystemKind) {
    let Some(path) = std::env::var_os("KD_SERIES") else {
        return;
    };
    let dump = capture_series(system, 256, 2000, std::time::Duration::from_micros(50));
    let path = std::path::PathBuf::from(path);
    match std::fs::write(&path, dump.to_json_lines()) {
        Ok(()) => println!(
            "# series — {label}: wrote {} samples ({} dropped) to {}",
            dump.samples,
            dump.dropped,
            path.display()
        ),
        Err(e) => eprintln!("# series — {label}: cannot write {}: {e}", path.display()),
    }
}

/// The preferred produce datapath of a system (for preloading data).
pub fn preferred_mode(system: SystemKind) -> ProducerMode {
    if system.rdma_produce() {
        ProducerMode::RdmaExclusive
    } else {
        ProducerMode::Rpc
    }
}

async fn preload(
    cluster: &SimCluster,
    node: &netsim::NodeHandle,
    leader: kdwire::BrokerAddr,
    record_size: usize,
    count: usize,
) {
    let mode = preferred_mode(cluster.system);
    let mut producer = AnyProducer::connect(cluster.system, node, leader, "bench", 0, mode).await;
    let record = Record::value(vec![0x5Au8; record_size]);
    producer.send_windowed(&record, count, 32).await;
}

/// End-to-end latency (Fig 19): one client produces a record then fetches
/// it; per-datapath toggles choose the produce/consume paths.
pub fn end_to_end_latency_us(
    system: SystemKind,
    record_size: usize,
    samples: usize,
) -> f64 {
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let opts = ProduceOpts::new(system, preferred_mode(system), record_size);
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("client");
        let mut producer =
            AnyProducer::connect(cluster.system, &node, leader, "bench", 0, opts.mode).await;
        let record = Record::value(vec![0x11u8; record_size]);

        let mut stats = LatencyStats::new();
        if system.rdma_consume() {
            let mut consumer = RdmaConsumer::connect(&node, leader, "bench", 0, 0)
                .await
                .expect("consumer");
            consumer.fetch_size = consumer.fetch_size.max((record_size + 128) as u32);
            for i in 0..samples {
                let t0 = sim::now();
                producer.send(&record).await;
                let mut got = 0;
                while got == 0 {
                    got = consumer.poll().await.expect("poll").len();
                }
                if i >= 3 {
                    stats.record(sim::now() - t0);
                }
            }
        } else {
            let mut consumer =
                TcpConsumer::connect(&node, leader, system.client_transport(), "bench", 0, 0)
                    .await
                    .expect("consumer");
            for i in 0..samples {
                let t0 = sim::now();
                producer.send(&record).await;
                let mut got = 0;
                while got == 0 {
                    got = consumer.poll().await.expect("poll").len();
                }
                if i >= 3 {
                    stats.record(sim::now() - t0);
                }
            }
        }
        stats.median_us()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_harness_smoke() {
        let opts = ProduceOpts::new(SystemKind::KafkaDirect, ProducerMode::RdmaExclusive, 64);
        let us = produce_latency_us(&opts, 10);
        assert!(us > 10.0 && us < 1000.0, "latency {us}us");
    }

    #[test]
    fn bandwidth_harness_smoke() {
        let mut opts = ProduceOpts::new(SystemKind::Kafka, ProducerMode::Rpc, 1024);
        opts.records = 50;
        opts.window = 16;
        let mibps = produce_bandwidth_mibps(&opts);
        assert!(mibps > 0.1, "bandwidth {mibps}");
    }

    #[test]
    fn e2e_harness_smoke() {
        let us = end_to_end_latency_us(SystemKind::KafkaDirect, 64, 5);
        assert!(us > 10.0 && us < 2000.0, "e2e {us}us");
    }
}
