//! Shared chaos-run harness used by `tests/chaos.rs` (invariant soak) and
//! `tests/wheel_determinism.rs` (pre/post timer-wheel golden comparison).
//!
//! `run_seed` plays one seeded fault plan against a replicated cluster and
//! returns everything the invariants and the determinism replay compare,
//! the partition-log reference check ([`check_log`]) among its violations.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::time::Duration;

use kafkadirect::{SimCluster, SystemKind};
use kdbroker::data::Partition;
use kdclient::{Admin, RdmaConsumer, RdmaProducer};
use kdstorage::record::{decode_batch, peek_total_len};
use kdstorage::{Record, TopicPartition};

// batch_determinism uses its own seed subset, so the full pool is dead code
// from that binary's point of view.
#[allow(dead_code)]
pub const SEEDS: [u64; 8] = [3, 7, 11, 19, 42, 101, 555, 9001];
pub const ATTEMPTS: u64 = 80;
pub const HORIZON_NS: u64 = 30_000_000; // 30 ms of virtual time for fault triggers

/// `KD_FAULT_SEED=<u64>` narrows a run to one chosen fault plan (see
/// EXPERIMENTS.md, "Chaos soak" recipe); otherwise the fixed seed set runs.
#[allow(dead_code)]
pub fn seeds_under_test(default: &[u64]) -> Vec<u64> {
    match std::env::var("KD_FAULT_SEED") {
        Ok(s) => vec![s.parse().expect("KD_FAULT_SEED must be a u64")],
        Err(_) => default.to_vec(),
    }
}

pub fn payload(attempt: u64) -> Vec<u8> {
    let mut v = attempt.to_le_bytes().to_vec();
    v.extend(std::iter::repeat_n((attempt % 251) as u8, 24));
    v
}

#[allow(dead_code)]
pub fn attempt_of(value: &[u8]) -> u64 {
    u64::from_le_bytes(value[..8].try_into().unwrap())
}

/// Everything a run produces that the invariants (and the determinism
/// replay) compare.
#[derive(PartialEq)]
pub struct Outcome {
    pub acked: Vec<u64>,
    pub consumed: Vec<u64>,
    pub injected: u64,
    pub end_ns: u64,
    pub events: Vec<kdtelem::TraceEvent>,
    pub violations: Vec<String>,
}

impl Outcome {
    /// Order-sensitive FNV-1a digest of the run: the full trace-id stream
    /// (trace_id, span_id, ts_ns per event, in drain order), the final
    /// virtual time, and the ack/consume sequences. Any scheduler reordering
    /// — even of same-timestamp events — changes the digest.
    // Used by the wheel_determinism test binary; other binaries including
    // this shared module see it as dead code.
    #[allow(dead_code)]
    pub fn digest(&self) -> u64 {
        self.fold_digest(self.events.iter().map(|e| (e.ts_ns, e.trace_id, e.span_id)))
    }

    /// The same digest over the events sorted by `(ts_ns, trace_id,
    /// span_id)`: blind to the order in which same-instant events were
    /// recorded, sensitive to everything else. A change that only
    /// re-shuffles tasks inside an instant (a different task topology)
    /// moves [`digest`](Self::digest) and leaves this one alone.
    #[allow(dead_code)]
    pub fn sorted_digest(&self) -> u64 {
        let mut keys: Vec<_> = self
            .events
            .iter()
            .map(|e| (e.ts_ns, e.trace_id, e.span_id))
            .collect();
        keys.sort_unstable();
        self.fold_digest(keys.into_iter())
    }

    fn fold_digest(&self, events: impl Iterator<Item = (u64, u64, u64)>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(self.events.len() as u64);
        for (ts_ns, trace_id, span_id) in events {
            fold(trace_id);
            fold(span_id);
            fold(ts_ns);
        }
        fold(self.end_ns);
        fold(self.acked.len() as u64);
        for &a in &self.acked {
            fold(a);
        }
        fold(self.consumed.len() as u64);
        for &c in &self.consumed {
            fold(c);
        }
        h
    }
}

/// Runs the seed with the default broker datapath configuration (batched CQ
/// draining as shipped).
// Used by chaos.rs; the determinism binaries call run_seed_with directly.
#[allow(dead_code)]
pub fn run_seed(seed: u64) -> Outcome {
    run_seed_with(seed, None, None)
}

/// Runs one seeded fault plan; `rdma_pollers` / `cq_batch` override the
/// broker's poller count and CQ drain batch (`None` = shipped defaults).
/// `cq_batch = 1` reproduces the pre-batching one-completion-per-wakeup
/// poller bit for bit — the golden-digest test pins it.
pub fn run_seed_with(seed: u64, rdma_pollers: Option<usize>, cq_batch: Option<usize>) -> Outcome {
    let mut opts = kafkadirect::ClusterOptions::default();
    let broker = &mut opts.broker;
    broker.rdma_pollers = rdma_pollers.unwrap_or(broker.rdma_pollers);
    broker.cq_batch = cq_batch.unwrap_or(broker.cq_batch);
    run_seed_opts(seed, opts, false)
}

/// Runs one seeded fault plan with the brokers' accepted produce QPs
/// multiplexed over `mux_pool` NIC contexts (`0` = the default: one context
/// each). Used by `tests/conn_scaling.rs`: below the NIC cache knee the
/// sizing must not reach the schedule, so the full digest — not just the
/// acked set — is comparable across pool sizes.
#[allow(dead_code)]
pub fn run_seed_mux(seed: u64, mux_pool: usize) -> Outcome {
    let mut opts = kafkadirect::ClusterOptions::default();
    opts.broker.mux_pool = mux_pool;
    run_seed_opts(seed, opts, false)
}

/// Runs one seeded fault plan against a **tiered-storage** cluster: every
/// partition's segments live in real files under a per-(tag, seed) temp
/// dir (wiped before the run), sync mode per-commit, and the plan injects
/// [`kdfault::FaultKind::TornWrite`] riders that garble the dead broker's
/// active segment file before recovery reads it back.
#[allow(dead_code)]
pub fn run_seed_durable(seed: u64, tag: &str) -> Outcome {
    let dir = std::env::temp_dir().join(format!(
        "kd-chaos-{tag}-{seed}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let storage = kdstorage::StorageConfig::tiered(&dir)
        .with_sync(kdstorage::SyncMode::PerCommit);
    let mut opts = kafkadirect::ClusterOptions::default();
    opts.broker.storage = Some(storage);
    let out = run_seed_opts(seed, opts, true);
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn run_seed_opts(seed: u64, opts: kafkadirect::ClusterOptions, torn_writes: bool) -> Outcome {
    // Trace ids come from a thread-local allocator; reset it so replays of
    // the same seed produce bit-identical event logs.
    kdtelem::reset_trace_ids();
    let rt = sim::Runtime::with_seed(seed);
    rt.block_on(async move {
        // Fresh telemetry + injector per run so drained traces and fault
        // counters are exactly this run's.
        let registry = kdtelem::Registry::new();
        let _t = kdtelem::enter(&registry);
        let injector = kdfault::Injector::new();
        let _i = kdfault::enter(&injector);

        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 3, opts);
        cluster.create_topic("chaos", 1, 2).await;

        let mut cfg = kdfault::PlanConfig::new(3, HORIZON_NS);
        cfg.failover_topic = Some("chaos".to_string());
        cfg.max_faults = 10;
        cfg.allow_torn_write = torn_writes;
        let plan = kdfault::FaultPlan::random(seed, &cfg);
        assert!(!plan.faults.is_empty(), "{}", plan.describe());

        // Producer task: one uniquely-tagged record per attempt. A timed-out
        // or failed attempt is simply not retried (its tag may still land in
        // the log as an unacked extra — at-least-once); an acked attempt is
        // never re-sent, so acked tags are unique by construction.
        let acked: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let done = Rc::new(Cell::new(false));
        let pnode = cluster.add_client_node("chaos-producer");
        let bootstrap = cluster.bootstrap();
        {
            let acked = Rc::clone(&acked);
            let done = Rc::clone(&done);
            sim::spawn(async move {
                let mut producer = loop {
                    match RdmaProducer::connect(&pnode, bootstrap, "chaos", 0, false).await {
                        Ok(p) => break p,
                        Err(_) => sim::time::sleep(Duration::from_millis(1)).await,
                    }
                };
                for attempt in 0..ATTEMPTS {
                    let rec = Record::value(payload(attempt));
                    match sim::time::timeout(Duration::from_millis(40), producer.send(&rec)).await
                    {
                        Ok(Ok(_off)) => acked.borrow_mut().push(attempt),
                        _ => {
                            // Broker down or leadership moved: redial (bounded
                            // backoff) and move on to the next attempt.
                            let _ = producer.reconnect().await;
                        }
                    }
                    sim::time::sleep(Duration::from_micros(50)).await;
                }
                done.set(true);
            });
        }

        // Play the fault plan to completion, then wait the workload out.
        kafkadirect::chaos::run_plan(&cluster, &plan).await;
        while !done.get() {
            sim::time::sleep(Duration::from_millis(1)).await;
        }

        // Let replication settle: poll the (possibly moved) leader until the
        // high watermark stops advancing.
        let cnode = cluster.add_client_node("chaos-observer");
        let leader = cluster.leader_of("chaos", 0).await;
        let admin = Admin::connect(&cnode, leader).await.expect("admin");
        let mut hw = 0u64;
        let mut stable = 0;
        for _ in 0..2000 {
            let (_, h) = admin.list_offsets("chaos", 0).await.expect("offsets");
            if h == hw {
                stable += 1;
                if stable >= 20 {
                    break;
                }
            } else {
                stable = 0;
                hw = h;
            }
            sim::time::sleep(Duration::from_micros(500)).await;
        }

        // Drain the full committed stream from the final leader.
        let mut consumer = RdmaConsumer::connect(&cnode, leader, "chaos", 0, 0)
            .await
            .expect("consumer");
        let mut drained = Vec::new();
        while (drained.len() as u64) < hw {
            for rv in consumer.next_records().await.expect("fetch") {
                drained.push((rv.offset, attempt_of(&rv.record.value)));
            }
        }

        let end_ns = sim::now().as_nanos();
        let events = registry.drain_trace_events();
        let mut violations = kdtelem::check::check(&events).violations;
        let acked = acked.borrow().clone();
        violations.extend(check_log(&cluster, leader, &acked, &drained, &mut consumer).await);
        let consumed = drained.iter().map(|&(_, attempt)| attempt).collect();
        Outcome {
            acked,
            consumed,
            injected: injector.injected_total(),
            end_ns,
            events,
            violations,
        }
    })
}

/// The partition-log reference check of a finished soak. It runs after the
/// end instant is read and the trace drained, so no digest sees it, reads
/// the logs of the final leader and of every live in-sync replica directly,
/// and returns one line per broken rule:
/// * acked ⊆ committed: every acked attempt is below the leader's HW;
/// * the drained `(offset, attempt)` sequence is a gap-free, duplicate-free
///   prefix of the leader's committed log;
/// * one more poll after the drain delivers nothing;
/// * every acked attempt is in every live in-sync replica's log.
async fn check_log(
    cluster: &SimCluster,
    leader: kdwire::BrokerAddr,
    acked: &[u64],
    drained: &[(u64, u64)],
    consumer: &mut RdmaConsumer,
) -> Vec<String> {
    let tp = TopicPartition::new("chaos", 0);
    let live = |node: u32| {
        let broker = cluster.brokers().into_iter().find(|b| b.addr().node == node)?;
        broker.is_alive().then(|| broker.inner().store.get(&tp)).flatten()
    };
    let Some(lead) = live(leader.node) else {
        return vec![format!("the final leader {} hosts no live partition", leader.node)];
    };
    let mut violations = Vec::new();
    let committed = records_of(&lead, true);
    let missing = |log: &[(u64, u64)]| {
        let have: HashSet<u64> = log.iter().map(|&(_, attempt)| attempt).collect();
        acked.iter().find(|a| !have.contains(a)).copied()
    };
    if let Some(a) = missing(&committed) {
        violations.push(format!("acked attempt {a} is not committed on the leader"));
    }
    let gap_free = drained.iter().enumerate().all(|(i, &(offset, _))| offset == i as u64);
    if !gap_free || !committed.starts_with(drained) {
        violations.push("the drained sequence is not a gap-free prefix of the leader's log".into());
    }
    match consumer.poll().await {
        Ok(more) if more.is_empty() => {}
        Ok(more) => violations.push(format!("a poll after the drain delivered {}", more.len())),
        Err(e) => violations.push(format!("a poll after the drain failed: {e}")),
    }
    for replica in lead.replicas() {
        let log = live(replica.node).map(|p| records_of(&p, false));
        if let Some(a) = log.and_then(|log| missing(&log)) {
            violations.push(format!("acked attempt {a} is missing on replica {}", replica.node));
        }
    }
    violations
}

/// `(offset, attempt)` of every record in `p`'s log: up to the HW when
/// `committed_only`, else to the log end.
fn records_of(p: &Partition, committed_only: bool) -> Vec<(u64, u64)> {
    let bytes = p.log.read_from(0, u32::MAX, committed_only).bytes;
    let mut rest = &bytes[..];
    let mut out = Vec::new();
    while let Ok(len) = peek_total_len(rest) {
        let Ok(batch) = decode_batch(&rest[..len]) else {
            break;
        };
        out.extend(batch.map(|rv| (rv.offset, attempt_of(&rv.record.value))));
        rest = &rest[len..];
    }
    out
}
