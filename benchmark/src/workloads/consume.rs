//! `consume_catchup`: a partition is preloaded in set-up, then one RDMA
//! consumer drains it from offset 0 with fixed-size one-sided reads. The
//! broker's CPU serves no fetch and copies no byte (§5.3).

use std::rc::Rc;

use kafkadirect::{SimCluster, SystemKind};
use kdclient::RdmaConsumer;
use sim::rng::SimRng;

use super::produce::AnyProducer;
use super::{boot, BrokerTotals, Ctx, Fut, Outcome, Workload, TOPIC};
use crate::gen::{Pool, Verifier};
use crate::probe::NO_SPAN;

const NOMINAL: usize = 512;
const POOL_LEN: usize = 4096;
/// Frozen size: records preloaded and drained.
const RECORDS: usize = 100_000;
const PRELOAD_WINDOW: usize = 32;
/// Single-record reads in set-up: the Fig 18 anchor probe.
const PROBE_READS: usize = 33;

pub struct Catchup;

pub struct State {
    cluster: SimCluster,
    // Held so the preload connection's teardown stays out of the drain.
    _producer: AnyProducer,
    consumer: RdmaConsumer,
    verifier: Verifier,
    pool: Rc<Pool>,
    end: u64,
    probe_read_ns: u64,
}

impl Workload for Catchup {
    type State = State;

    fn setup(&self, ctx: Ctx) -> Fut<State> {
        Box::pin(async move {
            let probe = &ctx.probe;
            let records = ctx.scale.of(RECORDS);
            let mut rng = SimRng::seed_from_u64(ctx.seed);
            // The default 2 KiB read, moved by at most 16 B per seed: every
            // catch-up read is full-size, so per-fetch latency is one number
            // per read size and would otherwise read the same on every seed.
            let fetch_size =
                kdclient::rdma_consumer::DEFAULT_FETCH_SIZE + rng.below(33) as u32 - 16;
            let pool = Rc::new(Pool::new(&mut rng, POOL_LEN, NOMINAL, 0));

            let (cluster, leaders) = boot(probe, SystemKind::KafkaDirect, 1, 1, 1).await;
            let leader = leaders[0];
            let pnode = cluster.add_client_node("preloader");
            let cnode = cluster.add_client_node("consumer");
            let mut producer =
                AnyProducer::connect(SystemKind::KafkaDirect, &pnode, leader, records).await;
            let mut failed = 0;
            producer
                .send_windowed(
                    probe,
                    NO_SPAN,
                    &pool,
                    0..records as u64,
                    PRELOAD_WINDOW,
                    &mut failed,
                )
                .await;
            assert_eq!(failed, 0, "preload sends failed");

            // Anchor probe: records fetched one by one (Fig 18 methodology).
            let mut one_by_one = RdmaConsumer::connect(&cnode, leader, TOPIC, 0, 0)
                .await
                .expect("probe consumer connect");
            one_by_one.fetch_size = (NOMINAL + 96) as u32;
            let mut reads = Vec::with_capacity(PROBE_READS);
            while reads.len() < PROBE_READS {
                let t0 = sim::now();
                if !one_by_one.poll().await.expect("probe poll").is_empty() {
                    reads.push((sim::now() - t0).as_nanos() as u64);
                }
            }
            drop(one_by_one);
            reads.sort_unstable();

            let mut consumer = probe
                .call(
                    "connect",
                    NO_SPAN,
                    u64::MAX,
                    RdmaConsumer::connect(&cnode, leader, TOPIC, 0, 0),
                )
                .await
                .expect("consumer connect");
            consumer.fetch_size = fetch_size;
            // The first poll requests access to the file over TCP; the drain
            // proper is one-sided from here on.
            let mut verifier = Verifier::new(Rc::clone(&pool), 0);
            for r in consumer.poll().await.expect("first poll") {
                verifier.accept(r.offset, &r.record.value);
            }
            State {
                cluster,
                _producer: producer,
                consumer,
                verifier,
                pool,
                end: records as u64,
                probe_read_ns: reads[reads.len() / 2],
            }
        })
    }

    fn measure(&self, ctx: Ctx, mut st: State) -> Fut<(State, Outcome)> {
        Box::pin(async move {
            let probe = &ctx.probe;
            let first = st.verifier.next_offset();
            let records = st.end - first;
            let mut out = Outcome {
                records,
                attempted: records,
                lat_ns: Vec::with_capacity(records as usize / 3),
                ..Outcome::default()
            };
            let phase = probe.begin("phase.drain", NO_SPAN, u64::MAX);
            let start = sim::now();
            let (mut polls, mut empty) = (0u64, 0u64);
            // A drain makes progress at least every other poll; a long run
            // of empty ones means the log ends early (counted as failures).
            let mut idle = 0;
            while st.verifier.next_offset() < st.end && idle < 1_000 {
                let t0 = sim::now();
                let batch = probe
                    .call("poll", phase, st.verifier.next_offset(), st.consumer.poll())
                    .await
                    .expect("poll");
                polls += 1;
                if batch.is_empty() {
                    // A file roll, or a read that ended inside a record.
                    empty += 1;
                    idle += 1;
                    continue;
                }
                idle = 0;
                out.lat_ns.push((sim::now() - t0).as_nanos() as u64);
                for r in &batch {
                    st.verifier.accept(r.offset, &r.record.value);
                }
            }
            out.goodput_v_ns = (sim::now() - start).as_nanos() as u64;
            out.goodput_bytes = st.pool.payload_bytes(first, records);
            probe.end(phase);
            out.extras = vec![
                (
                    "kdclient.empty_polls_pct",
                    100.0 * empty as f64 / polls as f64,
                ),
                ("core.anchor_probe_us", st.probe_read_ns as f64 / 1e3),
            ];
            // Deliveries were checked as they arrived; what never arrived
            // is counted here.
            out.failed = st.verifier.failed + (st.end - st.verifier.next_offset());
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
        if (d.nic_reads_served as usize) < out.lat_ns.len() {
            return Err(format!(
                "{} one-sided reads served for {} fetches",
                d.nic_reads_served,
                out.lat_ns.len()
            ));
        }
        if d.fetch_requests != 0 || d.heap_copied_bytes != 0 {
            return Err(format!(
                "broker CPU served {} fetches and copied {} bytes during a one-sided drain",
                d.fetch_requests, d.heap_copied_bytes
            ));
        }
        Ok(())
    }
}
