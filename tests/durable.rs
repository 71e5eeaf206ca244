//! Durable-tier chaos soak: the `tests/chaos.rs` invariants replayed over
//! **file-backed** storage (`StorageConfig::tiered`), plus per-sync-mode
//! crash/restart guarantees at RF=1.
//!
//! Checked per seed against a tiered RF=2 cluster with torn-write faults
//! garbling the dead broker's active segment file before every restart:
//! * **No acked record lost or reordered** — recovery reads real file
//!   bytes (the torn tail is CRC-truncated; replication refills it).
//! * **Trace invariants hold** — zero-copy discipline, no holes.
//! * **Bit-identical replay** — the same seed reproduces the same trace
//!   event log even though real files sit under the log: all I/O latency
//!   is charged through the virtual-time cost model.
//!
//! At RF=1 (no replica to refill from) each sync mode's contract is pinned:
//! `PerCommit` loses nothing acked; `EveryMs` loses at most the suffix
//! written after the last flush; `Never` keeps exactly the sealed segments
//! — and no mode ever reorders or leaves a gap in what survives.

mod common;

use std::time::Duration;

use common::{attempt_of, payload, run_seed_durable, seeds_under_test, Outcome, SEEDS};
use kafkadirect::{ClusterOptions, SimCluster, SystemKind};
use kdclient::{Admin, RdmaConsumer, RdmaProducer};
use kdstorage::{LogConfig, Record, StorageConfig, SyncMode};

/// Acked records form an exactly-once, in-order subsequence of the
/// consumed stream (same invariant as the memory-mode soak).
fn assert_no_loss(seed: u64, o: &Outcome) {
    for &a in &o.acked {
        let n = o.consumed.iter().filter(|&&c| c == a).count();
        assert_eq!(n, 1, "seed {seed}: acked attempt {a} appears {n} times");
    }
    let mut it = o.consumed.iter();
    for &a in &o.acked {
        assert!(
            it.any(|&c| c == a),
            "seed {seed}: acked records reordered (attempt {a} out of sequence)"
        );
    }
}

#[test]
fn durable_chaos_soak_recovers_acked_records() {
    for seed in seeds_under_test(&SEEDS) {
        let o = run_seed_durable(seed, "soak");
        assert!(o.injected >= 1, "seed {seed}: plan injected nothing");
        assert!(
            o.violations.is_empty(),
            "seed {seed}: trace invariants violated: {:?}",
            o.violations
        );
        assert!(
            !o.acked.is_empty(),
            "seed {seed}: no attempt survived the faults"
        );
        assert_no_loss(seed, &o);
    }
}

#[test]
fn durable_chaos_replays_bit_identically() {
    for seed in seeds_under_test(&[SEEDS[1], SEEDS[4]]) {
        let a = run_seed_durable(seed, "replay");
        let b = run_seed_durable(seed, "replay");
        assert_eq!(a.end_ns, b.end_ns, "seed {seed}: virtual end time differs");
        assert_eq!(a.acked, b.acked, "seed {seed}: ack sequence differs");
        assert_eq!(a.consumed, b.consumed, "seed {seed}: consumed differs");
        assert!(
            a.events == b.events,
            "seed {seed}: trace event log not bit-identical ({} vs {} events)",
            a.events.len(),
            b.events.len()
        );
    }
}

/// What one RF=1 crash/restart round trip produced.
struct Rf1Outcome {
    /// Attempts acked before the crash, in ack order.
    acked: Vec<u64>,
    /// Attempts readable after restart, in offset order.
    consumed: Vec<u64>,
    /// Log-end offset of the sealed (flushed-at-seal) segments at crash
    /// time — the floor every sync mode must preserve.
    sealed_end: u64,
}

/// Produces `chunks` of records against a single tiered broker (sleeping
/// `gap_ms` of virtual time between chunks so periodic flushers can fire),
/// hard-crashes it, restarts from the segment files, and reads back the
/// surviving stream.
fn rf1_crash_restart(tag: &str, sync: SyncMode, chunks: &[u32], gap_ms: u64) -> Rf1Outcome {
    let chunks = chunks.to_vec();
    let dir = std::env::temp_dir().join(format!("kd-rf1-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let storage = StorageConfig::tiered(&dir).with_sync(sync);
    let rt = sim::Runtime::with_seed(17);
    let out = rt.block_on(async move {
        let mut opts = ClusterOptions::default();
        // Small segments force rotation, so `Never` still seals — and
        // therefore flushes — a prefix.
        opts.broker.log = LogConfig {
            segment_size: 2048,
            max_batch_size: 1536,
        };
        opts.broker.storage = Some(storage);
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
        cluster.create_topic("t", 1, 1).await;
        let cnode = cluster.add_client_node("rf1-client");
        let bootstrap = cluster.bootstrap();
        let mut producer = RdmaProducer::connect(&cnode, bootstrap, "t", 0, false)
            .await
            .expect("producer");
        let mut acked = Vec::new();
        let mut attempt = 0u64;
        for &n in &chunks {
            for _ in 0..n {
                producer
                    .send(&Record::value(payload(attempt)))
                    .await
                    .expect("rf1 produce");
                acked.push(attempt);
                attempt += 1;
            }
            sim::time::sleep(Duration::from_millis(gap_ms)).await;
        }
        drop(producer);

        // The durable floor: sealed segments always flush fully at seal.
        let sealed_end = {
            let b = cluster.broker(0);
            let p = b
                .inner()
                .store
                .get(&kdstorage::TopicPartition::new("t", 0))
                .expect("partition");
            let head = p.log.head_index();
            if head == 0 {
                0
            } else {
                p.log.segment(head - 1).unwrap().next_offset()
            }
        };

        cluster.crash_broker(0);
        cluster.restart_broker(0);
        let leader = cluster.leader_of("t", 0).await;
        // The restarted listener comes up asynchronously: redial until it
        // accepts.
        let admin = loop {
            match Admin::connect(&cnode, leader).await {
                Ok(a) => break a,
                Err(_) => sim::time::sleep(Duration::from_millis(1)).await,
            }
        };
        let (earliest, hw) = admin.list_offsets("t", 0).await.expect("offsets");
        assert_eq!(earliest, 0, "no retention configured, log starts at 0");
        let mut consumed = Vec::new();
        if hw > 0 {
            let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
                .await
                .expect("consumer");
            while (consumed.len() as u64) < hw {
                for rv in consumer.next_records().await.expect("fetch") {
                    consumed.push(attempt_of(&rv.record.value));
                }
            }
        }
        Rf1Outcome {
            acked,
            consumed,
            sealed_end,
        }
    });
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// The surviving stream is a dense prefix of the acked stream: nothing
/// reordered, nothing skipped below the survival frontier.
fn assert_prefix(o: &Rf1Outcome) {
    assert!(o.consumed.len() <= o.acked.len());
    assert_eq!(
        o.consumed,
        o.acked[..o.consumed.len()],
        "recovered stream diverged from the acked prefix"
    );
}

#[test]
fn per_commit_sync_loses_no_acked_record_at_rf1() {
    let o = rf1_crash_restart("percommit", SyncMode::PerCommit, &[30, 10], 2);
    assert_prefix(&o);
    assert_eq!(
        o.consumed, o.acked,
        "per-commit: every acked record must survive the crash"
    );
}

#[test]
fn every_ms_sync_loses_at_most_unsynced_suffix_at_rf1() {
    // Two flush periods of idle time after the first chunk guarantee it is
    // on disk; the trailing chunk races the flusher and may be lost.
    let o = rf1_crash_restart("everyms", SyncMode::EveryMs(5), &[30, 10], 12);
    assert_prefix(&o);
    assert!(
        o.consumed.len() >= 30,
        "every-ms: records flushed {}ms before the crash were lost ({} < 30)",
        12,
        o.consumed.len()
    );
}

#[test]
fn never_sync_recovers_exactly_sealed_segments_at_rf1() {
    let o = rf1_crash_restart("never", SyncMode::Never, &[40], 1);
    assert_prefix(&o);
    assert!(
        o.sealed_end > 0,
        "workload too small: no segment sealed, nothing durable to check"
    );
    assert_eq!(
        o.consumed.len() as u64,
        o.sealed_end,
        "never-sync: exactly the sealed segments survive (head is volatile)"
    );
}
