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
        let cluster = SimCluster::start_with(
            SystemKind::KafkaDirect,
            1,
            ClusterOptions {
                srq_depth: Some(4),
                ..Default::default()
            },
        );
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
