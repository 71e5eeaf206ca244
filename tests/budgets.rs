//! Deterministic budgets: exact counters of fixed workloads, no wall clock
//! (ROADMAP item 1 — the form kdperf's gates are to shrink into). A budget
//! is the measured value plus a little slack; a change that spends more
//! executor events per record than that fails here, by name.

use kafkadirect::{SimCluster, SystemKind};
use kdclient::RdmaProducer;
use kdstorage::Record;

/// Executor polls per record of a fully replicated RDMA produce: 3 brokers,
/// RF 3, push replication, one exclusive producer at window 1 (every `send`
/// waits for its acks=all acknowledgment). Measured 32.0: one event per
/// term of the §5.1 cost model on the commit path — CQ poll, request-queue
/// hand-over, worker charge — at the leader and both followers, plus the
/// NIC engine's deliveries and completions, the push loops and their
/// collectors (DESIGN.md §10 has the per-task table). With the hand-off as
/// three pieces (stage task, permit wake, wake-up sleep) and the pollers'
/// and the ack task's wake-then-sleep pairs it was 42.0: ten more, one per
/// piece per broker plus the producer's.
#[test]
fn replicated_rdma_produce_polls_per_record() {
    const WARMUP: u8 = 32;
    const RECORDS: u64 = 500;
    const BUDGET: f64 = 32.5;

    let rt = sim::Runtime::new();
    let (cluster, mut producer) = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 3);
        cluster.create_topic("t", 1, 3).await;
        let node = cluster.add_client_node("producer");
        let leader = cluster.leader_of("t", 0).await;
        let mut producer = RdmaProducer::connect(&node, leader, "t", 0, false).await.unwrap();
        // Sessions, grants and pools are set up by the first records.
        for i in 0..WARMUP {
            producer.send(&Record::value(vec![i; 512])).await.unwrap();
        }
        (cluster, producer)
    });
    let before = rt.poll_count();
    let cluster = rt.block_on(async move {
        let record = Record::value(vec![7; 512]);
        for i in 0..RECORDS {
            assert_eq!(producer.send(&record).await.unwrap(), u64::from(WARMUP) + i);
        }
        cluster
    });
    let polls = (rt.poll_count() - before) as f64 / RECORDS as f64;
    let pushed: u64 = cluster.brokers().iter().map(|b| b.metrics().push_writes).sum();
    assert!(pushed >= 2 * RECORDS, "every record was pushed to both followers");
    assert!(polls <= BUDGET, "{polls:.2} executor polls per replicated record (budget {BUDGET})");
}
