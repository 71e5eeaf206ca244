//! Connection-scaling equivalence (DESIGN.md §13): every produce and
//! replication QP a broker accepts consumes from one shared receive queue,
//! and how the connections are *sized* — one pinned NIC context each (the
//! default, `mux_pool = 0`) or multiplexed over a small lending pool
//! (`mux_pool = 8`) — is a *resource* axis, not a *behaviour* axis.
//!
//! Below the NIC cache knee (`nic_cache_qps`) both sizings must run the
//! exact same schedule: QP lending only changes context accounting. So the
//! same seeded fault plan must produce not just the same acked/consumed
//! sets but a **bit-identical ordered trace digest** under either —
//! mirroring `tests/batch_determinism.rs` for the CQ-batch axis.
//!
//! The chaos soak replays the full 8-seed fault pool over the multiplexed
//! sizing (`tests/chaos.rs` covers the default one): broker crashes flush
//! error CQEs through QPs attached to the SRQ, and the invariants prove no
//! acked record is lost — an error flush never strands (or double-frees)
//! the shared buffers surviving connections depend on.
//!
//! The per-QP receive arm this suite used to compare against (one private
//! receive queue of `recv_depth` buffers per accepted QP) is gone.
//! `tests/golden/chaos_trace_digests.txt` was recorded under it and is
//! matched, un-re-recorded, by the shared-queue broker
//! (`tests/wheel_determinism.rs`): that file is the frozen
//! PerQp ≡ SRQ reference.
//!
//! The fan-in ladder at the end is the *resource* half of the contract, in
//! exact counters and pinned virtual time: broker receive memory is O(1) in
//! client count, the two sizings take the same virtual time below the knee,
//! and past it only the multiplexed one keeps its throughput.

mod common;

use common::{seeds_under_test, Outcome, SEEDS};

const MUX_POOL: usize = 8;

/// Acked records form an exactly-once, in-order subsequence of the
/// consumed stream (same invariant as the chaos soak).
fn assert_no_loss(seed: u64, o: &Outcome) {
    for &a in &o.acked {
        let n = o.consumed.iter().filter(|&&c| c == a).count();
        assert_eq!(n, 1, "seed {seed}: acked attempt {a} appears {n} times");
    }
    let mut it = o.consumed.iter();
    for &a in &o.acked {
        assert!(
            it.any(|&c| c == a),
            "seed {seed}: acked records reordered (attempt {a})"
        );
    }
}

#[test]
fn dedicated_and_multiplexed_bit_identical_below_cache_knee() {
    for &seed in &[SEEDS[4], SEEDS[7]] {
        let dedicated = common::run_seed_mux(seed, 0);
        let muxed = common::run_seed_mux(seed, MUX_POOL);
        for (what, o) in [("dedicated", &dedicated), ("multiplexed", &muxed)] {
            assert!(
                o.violations.is_empty(),
                "seed {seed} {what}: invariant violations: {:?}",
                o.violations
            );
        }
        assert_eq!(muxed.acked, dedicated.acked, "seed {seed}: acked set diverged");
        assert_eq!(
            muxed.consumed, dedicated.consumed,
            "seed {seed}: consumed stream diverged"
        );
        assert_eq!(
            muxed.digest(),
            dedicated.digest(),
            "seed {seed}: trace digest diverged — the connection sizing leaked into the schedule"
        );
    }
}

#[test]
fn chaos_soak_stays_green_multiplexed() {
    for seed in seeds_under_test(&SEEDS) {
        let o = common::run_seed_mux(seed, MUX_POOL);
        assert!(o.injected >= 1, "seed {seed}: plan injected nothing");
        assert!(
            o.violations.is_empty(),
            "seed {seed}: trace invariants violated: {:?}",
            o.violations
        );
        assert!(!o.acked.is_empty(), "seed {seed}: no attempt survived the faults");
        assert_no_loss(seed, &o);
    }
}

#[test]
fn multiplexed_replays_bit_identically() {
    let seed = SEEDS[2];
    let a = common::run_seed_mux(seed, MUX_POOL);
    let b = common::run_seed_mux(seed, MUX_POOL);
    assert_eq!(a.digest(), b.digest(), "seed {seed}: multiplexed replay diverged");
    assert_eq!(a.acked, b.acked);
    assert_eq!(a.consumed, b.consumed);
}

/// The shared queue is the only receive path, so it must survive running
/// dry: with 4 posted buffers and 64 closed-loop producers writing at once,
/// senders park on RNR until the pollers replenish — and every record is
/// still committed and acked exactly once, in order per producer.
#[test]
fn dry_srq_parks_senders_and_loses_nothing() {
    use kafkadirect::{ClusterOptions, SimCluster, SystemKind};
    use kdclient::{RdmaConsumer, RdmaProducer};
    use kdstorage::Record;

    const PRODUCERS: u64 = 64;
    const PARTITIONS: u32 = 8;
    const RECORDS: u64 = 8;

    kdtelem::reset_trace_ids();
    sim::Runtime::with_seed(1).block_on(async {
        let registry = kdtelem::Registry::new();
        let _t = kdtelem::enter(&registry);
        let mut opts = ClusterOptions::default();
        opts.broker.srq_depth = 4;
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
        cluster.create_topic("dry", PARTITIONS, 1).await;
        let bootstrap = cluster.bootstrap();
        let mut tasks = Vec::new();
        for id in 0..PRODUCERS {
            let node = cluster.add_client_node(&format!("p{id}"));
            tasks.push(sim::spawn(async move {
                let partition = (id % u64::from(PARTITIONS)) as u32;
                let mut producer = RdmaProducer::connect(&node, bootstrap, "dry", partition, true)
                    .await
                    .expect("connect");
                let mut offsets = Vec::new();
                for seq in 0..RECORDS {
                    let rec = Record::value(common::payload(id * RECORDS + seq));
                    offsets.push(producer.send(&rec).await.expect("acked"));
                }
                offsets
            }));
        }
        // attempt tag -> the offset its (single) ack named.
        let mut acked = std::collections::HashMap::new();
        for (id, task) in tasks.into_iter().enumerate() {
            let offsets = task.await.expect("producer task");
            assert!(
                offsets.windows(2).all(|w| w[0] < w[1]),
                "producer {id}: acks out of order: {offsets:?}"
            );
            for (seq, offset) in offsets.into_iter().enumerate() {
                acked.insert(id as u64 * RECORDS + seq as u64, offset);
            }
        }

        // Every acked record sits exactly once at the offset its ack named.
        let cnode = cluster.add_client_node("observer");
        let mut seen = 0;
        for partition in 0..PARTITIONS {
            let leader = cluster.leader_of("dry", partition).await;
            let mut consumer = RdmaConsumer::connect(&cnode, leader, "dry", partition, 0)
                .await
                .expect("consumer");
            let want = PRODUCERS / u64::from(PARTITIONS) * RECORDS;
            let mut got = 0;
            while got < want {
                for rv in consumer.next_records().await.expect("fetch") {
                    let tag = common::attempt_of(&rv.record.value);
                    assert_eq!(acked.get(&tag), Some(&rv.offset), "record {tag}");
                    assert_eq!((tag / RECORDS) % u64::from(PARTITIONS), u64::from(partition));
                    got += 1;
                }
            }
            assert_eq!(got, want, "partition {partition} holds extra records");
            seen += got;
        }
        assert_eq!(seen, PRODUCERS * RECORDS);

        let dry = registry.snapshot().counter("rnic", "srq.rnr_dry").unwrap_or(0);
        assert!(dry > 0, "a depth-4 SRQ under 64 producers never ran dry");
        let violations = kdtelem::check::check(&registry.drain_trace_events()).violations;
        assert!(violations.is_empty(), "trace invariants violated: {violations:?}");
    });
}

// ---------------------------------------------------------------------------
// Fan-in ladder (DESIGN.md §13): `clients` shared-mode RDMA producers, one
// node + NIC + QP each, against one broker.
// ---------------------------------------------------------------------------

/// Partitions the producers spread over (shared mode serialises FAAs per
/// partition at the paper's 2.68 Mops/s — one word would cap the ladder).
const FANIN_PARTITIONS: u32 = 16;
/// Ack receive buffers per client (the window is 1; the default 512 is an
/// 8 KiB region per client for no modelling gain).
const ACK_DEPTH: usize = 4;
/// Records per point, spread over the clients (each sends at least one).
const FANIN_RECORDS: usize = 8192;
/// Below-knee reference the rungs past the knee are judged against: the
/// 1000-client point, which `fanin_memory_is_flat_and_sizings_agree_below_knee`
/// pins for both sizings.
const FANIN_REFERENCE: FaninPoint = FaninPoint {
    records: 8000,
    virtual_ns: 5_616_746,
};

struct FaninPoint {
    records: u64,
    /// Virtual time of the produce phase (every client connects first).
    virtual_ns: u64,
}

impl FaninPoint {
    fn records_per_sec(&self) -> f64 {
        self.records as f64 * 1e9 / self.virtual_ns as f64
    }
}

/// Runs one point and checks its memory contract: the broker NIC's
/// posted-receive high-water mark is the SRQ and nothing else, and it pins a
/// NIC context per client (`mux_pool == 0`) or `mux_pool` of them.
fn fanin_point(mux_pool: usize, clients: usize) -> FaninPoint {
    use kafkadirect::{BrokerConfig, ClusterOptions, SimCluster, SystemKind};
    use kdclient::RdmaProducer;
    use kdstorage::Record;

    let per_client = (FANIN_RECORDS / clients).max(1);
    let (virtual_ns, recv_peak, contexts_peak) = sim::Runtime::new().block_on(async move {
        let mut opts = ClusterOptions::default();
        opts.broker.mux_pool = mux_pool;
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
        cluster.create_topic("fanin", FANIN_PARTITIONS, 1).await;
        let mut leaders = Vec::new();
        for p in 0..FANIN_PARTITIONS {
            leaders.push(cluster.leader_of("fanin", p).await);
        }
        let connects: Vec<_> = (0..clients)
            .map(|i| {
                let node = cluster.add_client_node(&format!("f{i}"));
                let p = i as u32 % FANIN_PARTITIONS;
                let leader = leaders[p as usize];
                sim::spawn(async move {
                    let (shared, depth) = (true, ACK_DEPTH);
                    RdmaProducer::connect_with_ack_depth(&node, leader, "fanin", p, shared, depth)
                        .await
                        .expect("connect")
                })
            })
            .collect();
        let mut producers = Vec::with_capacity(clients);
        for c in connects {
            producers.push(c.await.expect("connect task"));
        }
        let t0 = sim::now();
        let sends: Vec<_> = producers
            .into_iter()
            .map(|mut producer| {
                sim::spawn(async move {
                    let record = Record::value(vec![0x6b; 128]);
                    for _ in 0..per_client {
                        producer.send(&record).await.expect("send");
                    }
                    producer
                })
            })
            .collect();
        // Producers stay connected until the last one is done, then drop
        // inside the runtime (disconnects talk to the fabric).
        let mut producers = Vec::with_capacity(clients);
        for s in sends {
            producers.push(s.await.expect("send task"));
        }
        let virtual_ns = (sim::now() - t0).as_nanos() as u64;
        let nic = cluster.broker(0).inner().nic.clone();
        (virtual_ns, nic.recv_buffer_bytes_peak(), nic.qp_contexts_peak())
    });

    let what = format!("{clients} clients, mux_pool {mux_pool}");
    let srq_bytes = BrokerConfig::default().srq_depth as u64 * rnic::WQE_BYTES;
    assert_eq!(recv_peak, srq_bytes, "{what}: broker receive memory is not the SRQ's");
    let contexts = if mux_pool == 0 { clients } else { mux_pool };
    assert_eq!(contexts_peak, contexts as u64, "{what}: NIC contexts pinned");
    FaninPoint {
        records: (clients * per_client) as u64,
        virtual_ns,
    }
}

/// Below the knee (`nic_cache_qps` = 1024 contexts) connection sizing costs
/// nothing: both sizings take the same virtual time at every rung. The three
/// instants were re-recorded when the pollers started draining after their
/// wake-up instead of before it (70 801 990 / 7 220 244 / 5 702 427 until
/// then): ten lock-step clients now arrive as one batch of ten, and a batch
/// is routed after its whole `cqe_batch_marginal` charge where ten drains of
/// one each paid only their own (+1.0 %); at the larger rungs the batches
/// were already there and the wake-ups they no longer pay make them faster.
#[test]
fn fanin_memory_is_flat_and_sizings_agree_below_knee() {
    let reference = FANIN_REFERENCE.virtual_ns;
    for (clients, virtual_ns) in [(10, 71_539_090), (100, 7_204_085), (1000, reference)] {
        for mux_pool in [0, MUX_POOL] {
            let p = fanin_point(mux_pool, clients);
            assert_eq!(p.virtual_ns, virtual_ns, "{clients} clients, mux_pool {mux_pool}");
        }
    }
}

/// Past the knee a context per client thrashes the NIC's QP-context cache;
/// the lending pool does not. `pinned`, where given, is the virtual time of
/// the dedicated and of the multiplexed run.
fn fanin_past_knee(clients: usize, pinned: Option<(u64, u64)>) {
    let dedicated = fanin_point(0, clients);
    let muxed = fanin_point(MUX_POOL, clients);
    if let Some((dedicated_ns, muxed_ns)) = pinned {
        assert_eq!(dedicated.virtual_ns, dedicated_ns, "{clients} clients, a context each");
        assert_eq!(muxed.virtual_ns, muxed_ns, "{clients} clients, multiplexed");
    }
    let retention = muxed.records_per_sec() / FANIN_REFERENCE.records_per_sec();
    assert!(
        retention >= 0.80,
        "{clients} multiplexed clients retain {:.0} % of the 1000-client rate (floor 80 %)",
        retention * 100.0
    );
    let ratio = dedicated.records_per_sec() / muxed.records_per_sec();
    assert!(
        ratio < 0.5,
        "{clients} clients with a context each run at {:.0} % of the multiplexed rate: \
         the cache knee is gone",
        ratio * 100.0
    );
}

/// This process's peak resident set so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("a VmHWM line");
    let kib: u64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM in kB");
    kib / 1024
}

/// Retention 90 %. Release build: 2 s, 332 MiB resident (it was 1045 MiB and
/// 7 s while every client owned four histogram cells and a 16 KiB ack
/// reader, DESIGN.md §13). Re-recorded with the rungs above (24 023 720 /
/// 8 086 101 until then). The resident-set ceiling is the process's
/// high-water mark, so it means something only when this test runs alone in
/// its process, as scripts/ci.sh runs it.
#[test]
#[ignore = "10k clients: run with --release (scripts/ci.sh does)"]
fn fanin_10k_clients_multiplexed_retains_throughput() {
    fanin_past_knee(10_000, Some((24_024_520, 7_772_675)));
    let rss = peak_rss_mib();
    assert!(rss <= 500, "the 10k rung peaked at {rss} MiB resident (ceiling 500)");
    println!("fanin_10k: peak RSS {rss} MiB");
}

/// Release build: 135 s and 3.2 GiB resident (100k nodes, NICs and QPs; it was
/// 199 s and 10.8 GiB, DESIGN.md §13 says what the remaining 33 KiB per
/// client are) — still not for a shared host, which is why its two instants
/// (261 483 830 / 80 072 878, retention 89 %, before the pollers drained after
/// their wake-up) were dropped rather than re-recorded when that moved every
/// rung: it holds the retention floor and the knee, the rungs above hold
/// instants.
#[test]
#[ignore = "100k clients: minutes and ~3 GiB even with --release"]
fn fanin_100k_clients_multiplexed_retains_throughput() {
    fanin_past_knee(100_000, None);
}
