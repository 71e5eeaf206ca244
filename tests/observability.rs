//! Continuous-telemetry integration: a chaos soak whose time-series shows
//! the throughput dip and recovery around an injected broker crash with a
//! finite failover MTTR read from it (`kdtelem::health`), replication lag
//! in a harness-sampled series, and the determinism guarantee (sampling
//! on/off leaves the trace-event log bit-identical).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{RdmaConsumer, RdmaProducer};
use kdstorage::Record;
use kdtelem::{HealthKind, Sampler, SeriesOptions};

const CRASH_NS: u64 = 500_000;
const FAILOVER_NS: u64 = 700_000;
const RESTART_NS: u64 = 3_000_000;

/// Chaos soak under an ambient sampler: crash the partition leader
/// mid-stream, fail over, restart. The exported series must show commit
/// throughput dip to zero across the outage and recover after the
/// failover, the fault injection must be visible in the same series, and
/// `kdtelem::health` must read a stall and a finite MTTR from it.
#[test]
fn crash_soak_series_shows_dip_recovery_and_finite_mttr() {
    let rt = sim::Runtime::with_seed(7);
    let registry = kdtelem::Registry::new();
    let _t = kdtelem::enter(&registry);
    let reg = registry.clone();
    let (dump, plan_start) = rt.block_on(async move {
        let injector = kdfault::Injector::new();
        let _i = kdfault::enter(&injector);
        // Ambient (cluster-wide) observability: the harness's sampler
        // belongs to no broker, so it records across the crash.
        let log = Sampler::start(
            &reg,
            SeriesOptions {
                interval: Duration::from_micros(50),
                capacity: 1 << 14,
            },
        );

        let cluster = SimCluster::start(SystemKind::KafkaDirect, 3);
        cluster.create_topic("t", 1, 2).await;
        let leader = cluster.leader_of("t", 0).await;
        let leader_idx = (0..cluster.broker_count())
            .find(|&i| cluster.broker_node(i).id.0 == leader.node)
            .unwrap() as u32;

        // Producer: warm up with committed traffic before the faults, then
        // keep a retrying stream running so traffic spans the crash and the
        // recovery. On failure the loop redials every broker directly (the
        // usual bootstrap re-resolve would dial the crashed leader), so it
        // finds the promoted follower as soon as the failover lands — the
        // MTTR read from the series then measures the failover, not the
        // restart.
        let pnode = cluster.add_client_node("p");
        let addrs: Vec<_> = (0..cluster.broker_count())
            .map(|i| cluster.broker(i).addr())
            .collect();
        let mut producer = RdmaProducer::connect(&pnode, leader, "t", 0, false)
            .await
            .unwrap();
        for warmup in 0..5u64 {
            producer
                .send(&Record::value(warmup.to_le_bytes().to_vec()))
                .await
                .unwrap();
        }
        let acked: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let acked2 = Rc::clone(&acked);
        let done = Rc::new(std::cell::Cell::new(false));
        let done2 = Rc::clone(&done);
        sim::spawn(async move {
            let mut producer = Some(producer);
            for attempt in 0..60u64 {
                let rec = Record::value(attempt.to_le_bytes().to_vec());
                let sent = match producer.as_mut() {
                    Some(p) => matches!(
                        sim::time::timeout(Duration::from_millis(1), p.send(&rec)).await,
                        Ok(Ok(_))
                    ),
                    None => false,
                };
                if sent {
                    acked2.borrow_mut().push(attempt);
                } else {
                    producer = None;
                    for &addr in &addrs {
                        if let Ok(p) = RdmaProducer::connect(&pnode, addr, "t", 0, false).await {
                            producer = Some(p);
                            break;
                        }
                    }
                }
                sim::time::sleep(Duration::from_micros(20)).await;
            }
            done2.set(true);
        });

        let plan = kdfault::FaultPlan {
            seed: 0,
            faults: vec![
                kdfault::ScheduledFault {
                    at_ns: CRASH_NS,
                    kind: kdfault::FaultKind::BrokerCrash { broker: leader_idx },
                },
                kdfault::ScheduledFault {
                    at_ns: FAILOVER_NS,
                    kind: kdfault::FaultKind::FailOver {
                        topic: "t".into(),
                        partition: 0,
                    },
                },
                kdfault::ScheduledFault {
                    at_ns: RESTART_NS,
                    kind: kdfault::FaultKind::BrokerRestart { broker: leader_idx },
                },
            ],
        };
        // Fault offsets are relative to the plan start; capture it so the
        // series windows below can be anchored in absolute virtual time.
        let plan_start = sim::now().as_nanos();
        assert_eq!(kafkadirect::chaos::run_plan(&cluster, &plan).await, 3);

        while !done.get() {
            sim::time::sleep(Duration::from_millis(1)).await;
        }
        assert!(
            acked.borrow().len() >= 10,
            "soak produced too little to judge: {} acks",
            acked.borrow().len()
        );
        log.stop();
        (log.dump(), plan_start)
    });

    // The series export round-trips (this is what KD_SERIES writes to disk).
    let parsed = kdtelem::SeriesDump::from_json_lines(&dump.to_json_lines()).expect("round trip");
    assert_eq!(parsed, dump);

    // Commit throughput: positive before the crash, zero across the outage
    // window, positive again after the restart.
    let crash_ts = plan_start + CRASH_NS;
    let failover_ts = plan_start + FAILOVER_NS;
    let restart_ts = plan_start + RESTART_NS;
    let commits = dump
        .counter("kdbroker", "rdma.commits")
        .expect("commit series");
    assert!(
        commits
            .points
            .iter()
            .any(|p| p.ts_ns < crash_ts && p.delta > 0),
        "no commits recorded before the crash"
    );
    let outage: Vec<_> = commits
        .points
        .iter()
        .filter(|p| p.ts_ns > crash_ts + 50_000 && p.ts_ns <= failover_ts)
        .collect();
    assert!(!outage.is_empty(), "sampler missed the outage window");
    assert!(
        outage.iter().all(|p| p.delta == 0),
        "commits advanced while the leader was down"
    );
    assert!(
        commits
            .points
            .iter()
            .any(|p| p.ts_ns > restart_ts && p.delta > 0),
        "throughput never recovered after the restart"
    );

    // The injected fault itself lines up in the same series: the kdfault
    // crash counter steps from 0 to 1 right at the crash tick.
    let crashes = dump
        .counter("kdfault", "inject.broker_crashes")
        .expect("fault injection series");
    assert!(
        crashes
            .points
            .iter()
            .any(|p| p.delta == 1 && p.ts_ns >= crash_ts && p.ts_ns < crash_ts + 100_000),
        "crash injection not visible at the crash time in the series"
    );

    // netsim's link instruments ride along for queue-pressure plots.
    assert!(
        dump.gauge("netsim", "link.backlog_ns").is_some(),
        "link backlog gauge missing from the series"
    );

    // Health: the outage exceeded the 150us budget → stall; commits after
    // failover → recovery; crash counter + first post-crash progress → a
    // finite MTTR spanning the outage.
    let health = kdtelem::health(&dump, Duration::from_micros(150));
    let events = &health.events;
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, HealthKind::Stall { .. })),
        "no stall event for a {}ns outage: {events:?}",
        FAILOVER_NS - CRASH_NS
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, HealthKind::Recovered { .. })),
        "stall never recovered: {events:?}"
    );
    let mttr = health.mttr_ns.expect("failover MTTR measured");
    assert!(
        (100_000..RESTART_NS).contains(&mttr),
        "MTTR {mttr}ns implausible for a {}ns failover",
        FAILOVER_NS - CRASH_NS
    );
}

/// A harness-started sampler over a replicated run: the series shows the
/// cluster's commits and the replication lag in flight, and a healthy run
/// reads no stall.
#[test]
fn harness_series_shows_repl_lag_and_no_stall() {
    let rt = sim::Runtime::new();
    let registry = kdtelem::Registry::new();
    let _t = kdtelem::enter(&registry);
    let series = rt.block_on(async move {
        let sampler = Sampler::start(
            &registry,
            SeriesOptions {
                interval: Duration::from_micros(100),
                ..SeriesOptions::default()
            },
        );
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 2);
        cluster.create_topic("t", 1, 2).await;
        let cnode = cluster.add_client_node("c");
        let leader = cluster.leader_of("t", 0).await;
        let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
            .await
            .unwrap();
        for i in 0..10u8 {
            producer.send(&Record::value(vec![i; 128])).await.unwrap();
        }
        let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
            .await
            .unwrap();
        let mut got = 0;
        while got < 10 {
            got += consumer.next_records().await.unwrap().len();
        }
        // One more interval, so a tick follows the last commit.
        sim::time::sleep(Duration::from_micros(100)).await;
        sampler.stop();
        sampler.dump()
    });

    assert!(series.samples > 0, "sampler never ticked");
    assert_eq!(series.interval_ns, 100_000);
    // Both brokers share the ambient registry, so the sampled series
    // aggregates by key across the cluster: 10 leader commits plus the
    // same 10 appends replicated onto the RF=2 follower.
    let commits = series.counter("kdbroker", "rdma.commits").expect("commits");
    assert_eq!(
        commits.points.last().unwrap().value,
        20,
        "cumulative commits"
    );
    // Per-partition replication lag gauge: push replication ran, so the
    // (partition, follower) lag cell must have peaked above zero.
    let lag = series
        .gauge("kdbroker", "repl.lag")
        .expect("repl.lag series");
    assert!(
        lag.points.last().unwrap().peak > 0,
        "replication lag never observed in flight"
    );
    assert_eq!(lag.points.last().unwrap().value, 0, "lag drained at rest");

    // Health at the old broker default budget: no stalls in a healthy run.
    let health = kdtelem::health(&series, Duration::from_millis(5));
    assert!(
        health
            .events
            .iter()
            .all(|e| !matches!(e.kind, HealthKind::Stall { .. })),
        "healthy run stalled: {:?}",
        health.events
    );
}

/// Sampling must be a pure observer: the same seeded workload run with a
/// sampler on and off yields a bit-identical trace-event log, the same
/// final virtual time, and the same committed stream.
#[test]
fn sampler_leaves_replay_digest_bit_identical() {
    fn run(observe: bool) -> (u64, Vec<kdtelem::TraceEvent>, Vec<u8>) {
        kdtelem::reset_trace_ids();
        let rt = sim::Runtime::with_seed(11);
        let registry = kdtelem::Registry::new();
        let _t = kdtelem::enter(&registry);
        let reg = registry.clone();
        let consumed = rt.block_on(async move {
            let sampler = observe.then(|| Sampler::start(&reg, SeriesOptions::default()));
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 2);
            cluster.create_topic("t", 1, 2).await;
            let cnode = cluster.add_client_node("c");
            let leader = cluster.leader_of("t", 0).await;
            let mut producer = RdmaProducer::connect(&cnode, leader, "t", 0, false)
                .await
                .unwrap();
            for i in 0..20u8 {
                producer.send(&Record::value(vec![i; 64])).await.unwrap();
                sim::time::sleep(Duration::from_micros(30)).await;
            }
            let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
                .await
                .unwrap();
            let mut seen = Vec::new();
            while seen.len() < 20 {
                for rv in consumer.next_records().await.unwrap() {
                    seen.push(rv.record.value[0]);
                }
            }
            if let Some(sampler) = sampler {
                assert!(sampler.samples() > 0, "the sampler never ticked");
            }
            seen
        });
        (
            rt.block_on(async { sim::now().as_nanos() }),
            registry.drain_trace_events(),
            consumed,
        )
    }

    let (end_off, events_off, consumed_off) = run(false);
    let (end_on, events_on, consumed_on) = run(true);
    assert_eq!(consumed_off, consumed_on, "committed stream diverged");
    assert_eq!(end_off, end_on, "virtual end time diverged");
    assert_eq!(
        events_off.len(),
        events_on.len(),
        "trace event count diverged"
    );
    assert!(
        events_off == events_on,
        "trace-event log not bit-identical with sampling on"
    );
}
