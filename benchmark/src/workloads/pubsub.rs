//! `pubsub_repl`: an open-loop producer at a fixed virtual rate into a
//! 3-broker, replication-factor-3 partition (push replication), with one
//! RDMA consumer tailing the same partition and committing its offset every
//! 100 records. Delay is timed from each record's *due* time to its delivery
//! to the consumer, so a stall shows in every record queued behind it.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{RdmaConsumer, RdmaProducer};
use kdwire::ErrorCode;
use sim::rng::SimRng;

use super::{boot, BrokerTotals, Ctx, Fut, Outcome, Workload, TOPIC};
use crate::gen::{poisson_schedule, wait_due, Pool, Verifier};
use crate::probe::NO_SPAN;

const NOMINAL: usize = 256;
const POOL_LEN: usize = 4096;
/// Frozen size: records of the measured region.
const RECORDS: usize = 24_000;
/// Offered load, records per virtual second: about 60 % of the ~137 k/s at
/// which delivery saturates on this topology (the sweep is in
/// `benchmark/README.md`).
pub const RATE_PER_S: f64 = 80_000.0;
/// Virtual time after the last due time at which the consumer gives up on
/// records that never arrive (they are then counted as failed).
const GIVE_UP: std::time::Duration = std::time::Duration::from_secs(1);
const WARM: usize = 256;
const COMMIT_EVERY: u64 = 100;
const GROUP: &str = "kdmark";
/// Window-1 sends in set-up: the Fig 14 anchor probe.
const PROBE_SENDS: usize = 9;

pub struct PubSub;

pub struct State {
    cluster: SimCluster,
    producer: RdmaProducer,
    consumer: RdmaConsumer,
    pool: Rc<Pool>,
    due: Rc<Vec<u64>>,
    next_seq: u64,
    probe_w1_ns: u64,
}

fn ack_ok(ack: Result<(ErrorCode, u64), sim::sync::oneshot::RecvError>, seq: u64) -> bool {
    matches!(ack, Ok((ErrorCode::None, offset)) if offset == seq)
}

impl Workload for PubSub {
    type State = State;

    fn setup(&self, ctx: Ctx) -> Fut<State> {
        Box::pin(async move {
            let probe = &ctx.probe;
            let records = ctx.scale.of(RECORDS);
            let mut rng = SimRng::seed_from_u64(ctx.seed);
            let pool = Rc::new(Pool::new(&mut rng, POOL_LEN, NOMINAL, 0));
            let due = Rc::new(poisson_schedule(&mut rng, records, RATE_PER_S));

            let (cluster, leaders) = boot(probe, SystemKind::KafkaDirect, 3, 1, 3).await;
            let leader = leaders[0];
            let pnode = cluster.add_client_node("producer");
            let cnode = cluster.add_client_node("consumer");
            let mut producer = probe
                .call(
                    "connect",
                    NO_SPAN,
                    u64::MAX,
                    RdmaProducer::connect(&pnode, leader, TOPIC, 0, false),
                )
                .await
                .expect("producer connect");
            let mut consumer = probe
                .call(
                    "connect",
                    NO_SPAN,
                    u64::MAX,
                    RdmaConsumer::connect(&cnode, leader, TOPIC, 0, 0),
                )
                .await
                .expect("consumer connect");

            // Warm both sides, then probe the 3-way window-1 produce latency.
            let mut w1 = Vec::with_capacity(PROBE_SENDS);
            for seq in 0..(WARM + PROBE_SENDS) as u64 {
                let t0 = sim::now();
                let offset = producer.send(pool.get(seq)).await.expect("warm send");
                assert_eq!(offset, seq, "warm-up offset");
                if seq >= WARM as u64 {
                    w1.push((sim::now() - t0).as_nanos() as u64);
                }
            }
            w1.sort_unstable();
            let next_seq = (WARM + PROBE_SENDS) as u64;
            let mut v = Verifier::new(Rc::clone(&pool), 0);
            while v.next_offset() < next_seq {
                for r in consumer.poll().await.expect("warm poll") {
                    v.accept(r.offset, &r.record.value);
                }
            }
            assert_eq!(v.finish(next_seq), 0, "warm-up deliveries failed");
            State {
                cluster,
                producer,
                consumer,
                pool,
                due,
                next_seq,
                probe_w1_ns: w1[w1.len() / 2],
            }
        })
    }

    fn measure(&self, ctx: Ctx, st: State) -> Fut<(State, Outcome)> {
        Box::pin(async move {
            let State {
                cluster,
                mut producer,
                mut consumer,
                pool,
                due,
                next_seq: first,
                probe_w1_ns,
            } = st;
            let records = due.len() as u64;
            let end = first + records;
            let phase = ctx.probe.begin("phase.open_loop", NO_SPAN, u64::MAX);
            let start = sim::now();
            let delivered = Rc::new(Cell::new(0u64));

            // The generator: sends on schedule whatever the system does, and
            // retires acknowledgments (FIFO per QP) without ever waiting for
            // one before the schedule is exhausted.
            let generator = {
                let (probe, pool, due) = (Rc::clone(&ctx.probe), Rc::clone(&pool), Rc::clone(&due));
                let delivered = Rc::clone(&delivered);
                sim::spawn(async move {
                    let body = async {
                        let mut lag_ns = Vec::with_capacity(due.len());
                        let mut failed = 0u64;
                        let mut inflight = VecDeque::new();
                        for (i, &d) in due.iter().enumerate() {
                            lag_ns.push(wait_due(start, d).await);
                            let seq = first + i as u64;
                            let sent = probe
                                .call(
                                    "send_pipelined",
                                    phase,
                                    seq,
                                    producer.send_pipelined(pool.get(seq)),
                                )
                                .await;
                            match sent {
                                Ok(rx) => inflight.push_back((seq, rx)),
                                Err(_) => failed += 1,
                            }
                            while let Some((s, rx)) = inflight.front_mut() {
                                let Some(ack) = rx.try_recv() else { break };
                                failed += u64::from(!ack_ok(ack, *s));
                                inflight.pop_front();
                            }
                        }
                        // Un-delivered when the last record has been sent.
                        let backlog = records - delivered.get();
                        for (s, rx) in inflight {
                            failed += u64::from(!ack_ok(probe.wait(rx).await, s));
                        }
                        (lag_ns, failed, backlog)
                    };
                    let out = probe.own(body).await;
                    (producer, out)
                })
            };

            let tail = {
                let (probe, pool, due) = (Rc::clone(&ctx.probe), Rc::clone(&pool), Rc::clone(&due));
                let delivered = Rc::clone(&delivered);
                sim::spawn(async move {
                    let body = async {
                        let mut v = Verifier::new(pool, first);
                        let mut delay_ns = Vec::with_capacity(due.len());
                        let (mut polls, mut empty) = (0u64, 0u64);
                        let mut committed = first;
                        let mut last_delivery = start;
                        let deadline =
                            start + std::time::Duration::from_nanos(due[due.len() - 1]) + GIVE_UP;
                        while v.next_offset() < end && sim::now() < deadline {
                            let batch = probe
                                .call("poll", phase, v.next_offset(), consumer.poll())
                                .await
                                .expect("poll");
                            polls += 1;
                            if batch.is_empty() {
                                empty += 1;
                                continue;
                            }
                            let now = sim::now();
                            last_delivery = now;
                            for r in &batch {
                                v.accept(r.offset, &r.record.value);
                                if let Some(&d) = due.get((r.offset.wrapping_sub(first)) as usize) {
                                    delay_ns.push(now.as_nanos() - (start.as_nanos() + d));
                                }
                            }
                            delivered.set(v.next_offset() - first);
                            if v.next_offset() - committed >= COMMIT_EVERY {
                                committed = v.next_offset();
                                probe
                                    .call(
                                        "commit_offset",
                                        phase,
                                        committed,
                                        consumer.commit_offset(GROUP),
                                    )
                                    .await
                                    .expect("offset commit");
                            }
                        }
                        (v.finish(end), delay_ns, polls, empty, last_delivery)
                    };
                    let out = probe.own(body).await;
                    (consumer, out)
                })
            };

            let (producer, (mut lag_ns, send_failed, backlog)) =
                generator.await.expect("generator");
            let (consumer, (recv_failed, lat_ns, polls, empty, last_delivery)) =
                tail.await.expect("consumer");
            ctx.probe.end(phase);

            lag_ns.sort_unstable();
            let lag_p99 =
                crate::stats::percentile(&lag_ns, crate::stats::supported(0.99, lag_ns.len()));
            let out = Outcome {
                records,
                // Every record is attempted twice: one send, one delivery.
                attempted: 2 * records,
                failed: send_failed + recv_failed,
                goodput_bytes: pool.payload_bytes(first, records),
                goodput_v_ns: (last_delivery - start).as_nanos() as u64,
                lat_ns,
                extras: vec![
                    ("loadgen.gen_lag_p99_us", lag_p99 as f64 / 1e3),
                    ("loadgen.backlog_end_records", backlog as f64),
                    (
                        "kdclient.empty_polls_pct",
                        100.0 * empty as f64 / polls as f64,
                    ),
                    ("core.anchor_probe_us", probe_w1_ns as f64 / 1e3),
                ],
            };
            let st = State {
                cluster,
                producer,
                consumer,
                pool,
                due,
                next_seq: end,
                probe_w1_ns,
            };
            (st, out)
        })
    }

    fn cluster<'a>(&self, st: &'a State) -> &'a SimCluster {
        &st.cluster
    }

    fn finish(&self, _ctx: Ctx, st: State) -> Fut<u64> {
        // Every record was already checked on delivery.
        Box::pin(async move {
            drop(st);
            0
        })
    }

    fn claim(&self, d: &BrokerTotals, out: &Outcome) -> Result<(), String> {
        if d.heap_copied_bytes != 0 {
            return Err(format!(
                "brokers copied {} bytes on RDMA paths",
                d.heap_copied_bytes
            ));
        }
        if d.fetch_requests != 0 {
            return Err(format!(
                "brokers served {} fetch RPCs for an RDMA consumer",
                d.fetch_requests
            ));
        }
        // Followers commit merged spans, so only the leader's share of the
        // commit count is known; pushes must have happened at all.
        if d.rdma_commits < out.records || d.push_writes == 0 {
            return Err(format!(
                "{} commits and {} push writes for {} records at RF 3",
                d.rdma_commits, d.push_writes, out.records
            ));
        }
        Ok(())
    }
}
