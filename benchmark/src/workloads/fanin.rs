//! `fanin_2k`: 2 000 clients, each on its own node, connect to one broker in
//! the default connection mode and send 8 small records at window 1 into 16
//! shared-mode partitions. The timed region includes the connects: past the
//! NIC's 1 024-QP context cache, connection handling is the workload.

use std::rc::Rc;
use std::time::Duration;

use kafkadirect::{SimCluster, SystemKind};
use kdclient::RdmaProducer;
use sim::rng::SimRng;

use super::{boot, BrokerTotals, Ctx, Fut, Outcome, Scale, Workload, TOPIC};
use crate::gen::{OffsetSet, Pool};
use crate::probe::NO_SPAN;

const PARTITIONS: u32 = 16;
const NOMINAL: usize = 128;
const POOL_LEN: usize = 1024;
/// Clients start at a seeded instant inside this window (virtual time).
const START_WINDOW: Duration = Duration::from_millis(1);
/// Ack receive buffers per client. Every client sends at window 1, so the
/// depth changes no virtual result (goodput, latency and polls are identical
/// to the default 512); the default would have the host allocate a million
/// 16-byte buffers per repeat and the workload would measure `malloc`
/// (`kdperf`'s fan-in sweep makes the same choice).
const ACK_DEPTH: usize = 4;

pub struct FanIn;

/// Frozen sizes `(clients, sends per client)`. The traced repeat keeps every
/// client (fewer clients would fall back under the cache knee) and cuts the
/// sends instead.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (2_000, 8),
        Scale::Eighth => (2_000, 1),
        Scale::Twentieth => (200, 4),
    }
}

pub struct State {
    cluster: SimCluster,
    nodes: Vec<netsim::NodeHandle>,
    leaders: Vec<kdwire::BrokerAddr>,
    start_ns: Vec<u64>,
    pool: Rc<Pool>,
    producers: Vec<RdmaProducer>,
}

struct ClientResult {
    producer: RdmaProducer,
    connect_v_ns: u64,
    /// `(offset or failure, send→ack virtual ns)` per send.
    sends: Vec<(Option<u64>, u64)>,
}

impl Workload for FanIn {
    type State = State;

    fn setup(&self, ctx: Ctx) -> Fut<State> {
        Box::pin(async move {
            let probe = &ctx.probe;
            let (clients, _) = sizes(ctx.scale);
            let mut rng = SimRng::seed_from_u64(ctx.seed);
            let pool = Rc::new(Pool::new(&mut rng, POOL_LEN, NOMINAL, 0));
            let start_ns = (0..clients)
                .map(|_| rng.below(START_WINDOW.as_nanos() as u64))
                .collect();

            let (cluster, leaders) = boot(probe, SystemKind::KafkaDirect, 1, PARTITIONS, 1).await;
            let nodes = (0..clients)
                .map(|i| cluster.add_client_node(&format!("c{i}")))
                .collect();
            State {
                cluster,
                nodes,
                leaders,
                start_ns,
                pool,
                producers: Vec::new(),
            }
        })
    }

    fn measure(&self, ctx: Ctx, mut st: State) -> Fut<(State, Outcome)> {
        Box::pin(async move {
            let (clients, sends) = sizes(ctx.scale);
            let phase = ctx.probe.begin("phase.fanin", NO_SPAN, u64::MAX);
            let start = sim::now();
            let mut tasks = Vec::with_capacity(clients);
            for (i, node) in st.nodes.iter().enumerate() {
                let partition = i as u32 % PARTITIONS;
                let leader = st.leaders[partition as usize];
                let (probe, pool, node) =
                    (Rc::clone(&ctx.probe), Rc::clone(&st.pool), node.clone());
                let delay = Duration::from_nanos(st.start_ns[i]);
                tasks.push(sim::spawn(async move {
                    let body = async {
                        sim::time::sleep(delay).await;
                        let first_seq = (i * sends) as u64;
                        let t0 = sim::now();
                        let mut producer = probe
                            .call(
                                "connect",
                                phase,
                                first_seq,
                                RdmaProducer::connect_with_ack_depth(
                                    &node, leader, TOPIC, partition, true, ACK_DEPTH,
                                ),
                            )
                            .await
                            .expect("fan-in connect");
                        let connect_v_ns = (sim::now() - t0).as_nanos() as u64;
                        let mut out = Vec::with_capacity(sends);
                        for seq in first_seq..first_seq + sends as u64 {
                            let t0 = sim::now();
                            let acked = probe
                                .call("send", phase, seq, producer.send(pool.get(seq)))
                                .await;
                            out.push((acked.ok(), (sim::now() - t0).as_nanos() as u64));
                        }
                        ClientResult {
                            producer,
                            connect_v_ns,
                            sends: out,
                        }
                    };
                    probe.own(body).await
                }));
            }

            let per_partition = clients.div_ceil(PARTITIONS as usize) * sends;
            let mut acked: Vec<OffsetSet> = (0..PARTITIONS)
                .map(|_| OffsetSet::new(per_partition))
                .collect();
            let mut out = Outcome {
                records: (clients * sends) as u64,
                attempted: (clients * sends) as u64,
                lat_ns: Vec::with_capacity(clients * sends),
                ..Outcome::default()
            };
            let mut connect_v_ns = Vec::with_capacity(clients);
            for (i, task) in tasks.into_iter().enumerate() {
                let r = task.await.expect("client task");
                connect_v_ns.push(r.connect_v_ns);
                for (offset, ns) in r.sends {
                    out.lat_ns.push(ns);
                    // Shared partitions: offsets interleave between clients,
                    // but each is handed out once and none is skipped.
                    let fresh = offset.is_some_and(|o| acked[i % PARTITIONS as usize].mark(o));
                    out.failed += u64::from(!fresh);
                }
                st.producers.push(r.producer);
            }
            out.goodput_v_ns = (sim::now() - start).as_nanos() as u64;
            out.goodput_bytes = st.pool.payload_bytes(0, out.records);
            ctx.probe.end(phase);
            if out.failed == 0 {
                let sent = |p: usize| {
                    (clients / PARTITIONS as usize + usize::from(p < clients % PARTITIONS as usize))
                        * sends
                };
                out.failed += acked
                    .iter()
                    .enumerate()
                    .map(|(p, set)| set.missing_below(sent(p)))
                    .sum::<u64>();
            }
            connect_v_ns.sort_unstable();
            out.extras = vec![(
                "kdclient.connect_v_us",
                connect_v_ns[connect_v_ns.len() / 2] as f64 / 1e3,
            )];
            (st, out)
        })
    }

    fn cluster<'a>(&self, st: &'a State) -> &'a SimCluster {
        &st.cluster
    }

    fn finish(&self, _ctx: Ctx, st: State) -> Fut<u64> {
        Box::pin(async move {
            drop(st);
            0
        })
    }

    fn claim(&self, d: &BrokerTotals, out: &Outcome) -> Result<(), String> {
        if d.heap_copied_bytes != 0 {
            return Err(format!(
                "broker copied {} bytes on an RDMA produce path",
                d.heap_copied_bytes
            ));
        }
        if d.rdma_commits != out.records {
            return Err(format!(
                "{} RDMA commits for {} records",
                d.rdma_commits, out.records
            ));
        }
        Ok(())
    }
}
