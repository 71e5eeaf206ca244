//! `produce_small`, `produce_large`, `produce_tcp`: one producer, one broker,
//! replication factor 1. Phase `lat` sends at window 1 (the Fig 10
//! methodology) and gives the latency samples; phase `bw` keeps a window of
//! sends in flight in a closed loop and gives the goodput.

use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

use kafkadirect::{SimCluster, SystemKind};
use kdclient::{
    ClientError, ClientTransport, RdmaConsumer, RdmaProducer, TcpConsumer, TcpProducer,
};
use kdwire::ErrorCode;
use sim::rng::SimRng;
use sim::sync::oneshot;

use super::{boot, BrokerTotals, Ctx, Fut, Outcome, Workload, TOPIC};
use crate::gen::{OffsetSet, Pool, Verifier};
use crate::probe::{Probe, SpanId, NO_SPAN};

#[derive(Clone, Copy)]
pub struct Produce {
    system: SystemKind,
    /// Mean record payload, bytes.
    nominal: usize,
    pool_len: usize,
    /// Frozen sizes (records): window-1 sends, windowed sends, in-flight cap.
    lat: usize,
    bw: usize,
    window: usize,
}

impl Produce {
    pub fn small() -> Produce {
        Produce {
            system: SystemKind::KafkaDirect,
            nominal: 64,
            pool_len: 4096,
            lat: 2_000,
            bw: 120_000,
            window: 32,
        }
    }

    pub fn large() -> Produce {
        Produce {
            system: SystemKind::KafkaDirect,
            nominal: 32 * 1024,
            pool_len: 1024,
            lat: 1_000,
            bw: 4_000,
            window: 32,
        }
    }

    pub fn tcp() -> Produce {
        Produce {
            system: SystemKind::Kafka,
            nominal: 512,
            pool_len: 4096,
            lat: 1_000,
            bw: 30_000,
            window: 32,
        }
    }

    /// Windowed sends before the measured region: pools, rings and the
    /// broker's head file are hot when the counters start.
    fn warm(&self, ctx: &Ctx) -> usize {
        ctx.scale.of(self.bw) / 16 + self.window
    }
}

// One per repeat; the size gap between the variants does not matter.
#[allow(clippy::large_enum_variant)]
pub enum AnyProducer {
    Rdma(RdmaProducer),
    /// Pipelined RPCs are separate tasks whose client-side cost grows with
    /// the record, so a small record can overtake a large one: offsets are
    /// checked as a set (each handed out once, none skipped), not by order.
    Tcp(TcpProducer, OffsetSet),
}

type Ack = oneshot::Receiver<(ErrorCode, u64)>;

/// Counts a send whose ack is not OK or does not carry the expected offset
/// (one in-order producer per partition: offset == sequence number).
fn check_ack(got: Result<u64, ClientError>, seq: u64, failed: &mut u64) {
    if got != Ok(seq) {
        *failed += 1;
    }
}

fn check_ack_in(got: Result<u64, ClientError>, acked: &mut OffsetSet, failed: &mut u64) {
    if !got.is_ok_and(|offset| acked.mark(offset)) {
        *failed += 1;
    }
}

impl AnyProducer {
    /// A producer for partition 0. `capacity`: how many records it will ever
    /// send.
    pub async fn connect(
        system: SystemKind,
        node: &netsim::NodeHandle,
        leader: kdwire::BrokerAddr,
        capacity: usize,
    ) -> AnyProducer {
        if system.rdma_produce() {
            AnyProducer::Rdma(
                RdmaProducer::connect(node, leader, TOPIC, 0, false)
                    .await
                    .expect("rdma producer connect"),
            )
        } else {
            AnyProducer::Tcp(
                TcpProducer::connect(node, leader, ClientTransport::Tcp, TOPIC, 0)
                    .await
                    .expect("tcp producer connect"),
                OffsetSet::new(capacity),
            )
        }
    }

    /// One send at window 1; the partition has a single producer, so the
    /// acknowledged offset must equal the sequence number.
    pub async fn send(
        &mut self,
        probe: &Probe,
        parent: SpanId,
        pool: &Pool,
        seq: u64,
        failed: &mut u64,
    ) {
        let record = pool.get(seq);
        match self {
            AnyProducer::Rdma(p) => check_ack(
                probe.call("send", parent, seq, p.send(record)).await,
                seq,
                failed,
            ),
            AnyProducer::Tcp(p, acked) => check_ack_in(
                probe.call("send", parent, seq, p.send(record)).await,
                acked,
                failed,
            ),
        }
    }

    /// Closed loop with up to `window` sends in flight over sequence numbers
    /// `seqs`. The RDMA arm retires acks in half-window
    /// bursts so freed slots refill as one WR chain behind one doorbell (the
    /// policy of `kdbench::harness::send_windowed`).
    pub async fn send_windowed(
        &mut self,
        probe: &Probe,
        parent: SpanId,
        pool: &Pool,
        seqs: Range<u64>,
        window: usize,
        failed: &mut u64,
    ) {
        let (start, end) = (seqs.start, seqs.end);
        match self {
            AnyProducer::Tcp(p, acked) => {
                let mut inflight: VecDeque<sim::JoinHandle<_>> = VecDeque::with_capacity(window);
                for seq in start..end {
                    if inflight.len() >= window {
                        let h = inflight.pop_front().unwrap();
                        check_ack_in(probe.wait(h).await.expect("send task"), acked, failed);
                    }
                    let span = probe.begin("send_pipelined", parent, seq);
                    inflight.push_back(p.send_pipelined(pool.get(seq)));
                    probe.end(span);
                }
                for h in inflight {
                    check_ack_in(probe.wait(h).await.expect("send task"), acked, failed);
                }
            }
            AnyProducer::Rdma(p) => {
                let retire = |ack: Result<(ErrorCode, u64), oneshot::RecvError>,
                              seq: u64,
                              failed: &mut u64| {
                    let got = match ack {
                        Ok((ErrorCode::None, offset)) => Ok(offset),
                        Ok((e, _)) => Err(ClientError::Broker(e)),
                        Err(_) => Err(ClientError::Disconnected),
                    };
                    check_ack(got, seq, failed);
                };
                let mut inflight: VecDeque<(u64, Ack)> = VecDeque::with_capacity(window + 1);
                let mut rxs: Vec<Ack> = Vec::with_capacity(window);
                let mut seq = start;
                while seq < end {
                    if inflight.len() >= window {
                        while inflight.len() > window / 2 {
                            let (s, rx) = inflight.pop_front().unwrap();
                            retire(probe.wait(rx).await, s, failed);
                        }
                        while let Some((s, rx)) = inflight.front_mut() {
                            let Some(ack) = rx.try_recv() else { break };
                            retire(ack, *s, failed);
                            inflight.pop_front();
                        }
                    }
                    let free = (window - inflight.len()).min((end - seq) as usize).max(1);
                    let run = pool.run(seq, free);
                    probe
                        .call(
                            "send_chain",
                            parent,
                            seq,
                            p.send_pipelined_chain(run, &mut rxs),
                        )
                        .await
                        .expect("post chain");
                    for rx in rxs.drain(..) {
                        inflight.push_back((seq, rx));
                        seq += 1;
                    }
                }
                for (s, rx) in inflight {
                    retire(probe.wait(rx).await, s, failed);
                }
            }
        }
    }
}

/// Reads partition 0 back from offset 0 to `end` and checks every record
/// against the pool. Returns the failures found.
pub async fn read_back(
    system: SystemKind,
    node: &netsim::NodeHandle,
    leader: kdwire::BrokerAddr,
    pool: Rc<Pool>,
    end: u64,
) -> u64 {
    let mut v = if system.rdma_produce() {
        Verifier::new(pool, 0)
    } else {
        Verifier::any_order(pool, 0)
    };
    // The two consumers share no trait, only the shape of `poll`. A poll
    // that yields nothing 64 times in a row means the log ends early; the
    // verifier then counts the missing tail.
    macro_rules! drain {
        ($consumer:expr) => {{
            let mut idle = 0;
            while v.next_offset() < end && idle < 64 {
                let records = $consumer.poll().await.expect("read-back poll");
                idle = if records.is_empty() { idle + 1 } else { 0 };
                for r in &records {
                    v.accept(r.offset, &r.record.value);
                }
            }
        }};
    }
    if system.rdma_consume() {
        let mut c = RdmaConsumer::connect(node, leader, TOPIC, 0, 0)
            .await
            .expect("read-back consumer");
        // Verification, not measurement: large reads keep it short.
        c.fetch_size = 256 * 1024;
        drain!(c);
    } else {
        let mut c = TcpConsumer::connect(node, leader, ClientTransport::Tcp, TOPIC, 0, 0)
            .await
            .expect("read-back consumer");
        drain!(c);
    }
    v.finish(end)
}

pub struct State {
    cluster: SimCluster,
    node: netsim::NodeHandle,
    leader: kdwire::BrokerAddr,
    producer: AnyProducer,
    pool: Rc<Pool>,
    next_seq: u64,
}

impl Workload for Produce {
    type State = State;

    fn setup(&self, ctx: Ctx) -> Fut<State> {
        let w = *self;
        Box::pin(async move {
            let probe = &ctx.probe;
            let warm = w.warm(&ctx);
            let lat = ctx.scale.of(w.lat);
            // Inputs. The `lat` records carry one shift per seed, so the
            // window-1 percentiles (a step function of size alone) are not
            // the same number under every seed; the `bw` pool is unshifted,
            // so goodput still compares across seeds.
            let mut rng = SimRng::seed_from_u64(ctx.seed);
            let shift = rng.below(17) as i64 - 8;
            let main = Pool::new(&mut rng, w.pool_len, w.nominal, 0);
            let alt = Pool::new(&mut rng, w.pool_len.min(lat.max(2)), w.nominal, shift);
            let lat_start = (warm + 8) as u64;
            let pool = Rc::new(main.with_alt(lat_start..lat_start + lat as u64, alt));

            let (cluster, leaders) = boot(probe, w.system, 1, 1, 1).await;
            let leader = leaders[0];
            let node = cluster.add_client_node("producer");
            let mut producer = probe
                .call(
                    "connect",
                    NO_SPAN,
                    u64::MAX,
                    AnyProducer::connect(
                        w.system,
                        &node,
                        leader,
                        lat_start as usize + lat + ctx.scale.of(w.bw),
                    ),
                )
                .await;
            let mut failed = 0;
            producer
                .send_windowed(probe, NO_SPAN, &pool, 0..warm as u64, w.window, &mut failed)
                .await;
            for seq in warm as u64..lat_start {
                producer.send(probe, NO_SPAN, &pool, seq, &mut failed).await;
            }
            assert_eq!(failed, 0, "warm-up sends failed");
            State {
                cluster,
                node,
                leader,
                producer,
                pool,
                next_seq: lat_start,
            }
        })
    }

    fn measure(&self, ctx: Ctx, mut st: State) -> Fut<(State, Outcome)> {
        let w = *self;
        Box::pin(async move {
            let probe = &ctx.probe;
            let (lat, bw) = (ctx.scale.of(w.lat), ctx.scale.of(w.bw));
            let mut out = Outcome {
                records: (lat + bw) as u64,
                attempted: (lat + bw) as u64,
                lat_ns: Vec::with_capacity(lat),
                ..Outcome::default()
            };

            let phase = probe.begin("phase.lat", NO_SPAN, u64::MAX);
            for seq in st.next_seq..st.next_seq + lat as u64 {
                let t0 = sim::now();
                st.producer
                    .send(probe, phase, &st.pool, seq, &mut out.failed)
                    .await;
                out.lat_ns.push((sim::now() - t0).as_nanos() as u64);
            }
            probe.end(phase);
            st.next_seq += lat as u64;

            let phase = probe.begin("phase.bw", NO_SPAN, u64::MAX);
            let t0 = sim::now();
            st.producer
                .send_windowed(
                    probe,
                    phase,
                    &st.pool,
                    st.next_seq..st.next_seq + bw as u64,
                    w.window,
                    &mut out.failed,
                )
                .await;
            out.goodput_v_ns = (sim::now() - t0).as_nanos() as u64;
            out.goodput_bytes = st.pool.payload_bytes(st.next_seq, bw as u64);
            probe.end(phase);
            st.next_seq += bw as u64;
            (st, out)
        })
    }

    fn cluster<'a>(&self, st: &'a State) -> &'a SimCluster {
        &st.cluster
    }

    fn finish(&self, ctx: Ctx, st: State) -> Fut<u64> {
        let system = self.system;
        Box::pin(async move {
            let failed = if ctx.readback {
                read_back(
                    system,
                    &st.node,
                    st.leader,
                    Rc::clone(&st.pool),
                    st.next_seq,
                )
                .await
            } else {
                0
            };
            drop(st);
            failed
        })
    }

    fn claim(&self, d: &BrokerTotals, out: &Outcome) -> Result<(), String> {
        if self.system.rdma_produce() {
            // The title's claim: the broker CPU copies no produced byte.
            if d.heap_copied_bytes != 0 {
                return Err(format!(
                    "broker copied {} bytes on an RDMA produce path",
                    d.heap_copied_bytes
                ));
            }
            if d.rdma_commits != out.records || d.nic_writes_in < out.records {
                return Err(format!(
                    "{} RDMA commits and {} one-sided writes for {} records",
                    d.rdma_commits, d.nic_writes_in, out.records
                ));
            }
        } else {
            if d.heap_copied_bytes < out.goodput_bytes {
                return Err("TCP produce path copied fewer bytes than it received".to_string());
            }
            if d.produce_requests != out.records {
                return Err(format!(
                    "{} produce requests for {} records",
                    d.produce_requests, out.records
                ));
            }
        }
        Ok(())
    }
}
