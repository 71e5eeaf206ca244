//! The six workloads and the repeat runner they share.
//!
//! One repeat = fresh runtime + fresh cluster: set-up (untimed by the
//! end-to-end metrics, reported as `setup_s`) → measured region → check and
//! teardown. Everything counted in the measured region except host time is a
//! pure function of the seed and must repeat bit for bit.

pub mod consume;
pub mod fanin;
pub mod produce;
pub mod pubsub;

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Instant;

use kafkadirect::{ClusterOptions, SimCluster, SystemKind};

use crate::probe::{Probe, NO_SPAN};
use crate::trace::TraceData;

/// `(name, why)` of every workload, in run order. `BENCHMARK.json` lists the
/// same pairs (a unit test compares them).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "produce_small",
        "64 B exclusive RDMA produce: per-operation regime, sim/rnic/kdbroker/kdclient per-WR cost carries it, per-byte layers are idle",
    ),
    (
        "produce_large",
        "32 KiB exclusive RDMA produce: per-byte regime, netsim packetisation, kdbuf and kdstorage carry it; a per-WR saving must not move it",
    ),
    (
        "produce_tcp",
        "512 B Kafka produce RPCs over TCP: rnic is idle, netsim::tcp, kdwire and the broker's two copies carry it; bypasses every verbs optimisation",
    ),
    (
        "pubsub_repl",
        "open loop at a fixed rate into 3 brokers RF 3 with a tailing RDMA consumer: writes beside reads, replication and slot updates on one log",
    ),
    (
        "consume_catchup",
        "one RDMA consumer drains a preloaded partition: read-only use of the layers produce_* only write through, broker serves no fetch",
    ),
    (
        "fanin_2k",
        "2000 clients connect and send 8 records each to 16 shared partitions: connection handling past the 1024-QP cache knee dominates",
    ),
];

/// How much of a workload's frozen size a repeat runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// The traced repeat and its untraced twin.
    Eighth,
    /// `--smoke`.
    Twentieth,
}

impl Scale {
    pub fn of(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Eighth => (n / 8).max(1),
            Scale::Twentieth => (n / 20).max(1),
        }
    }
}

/// What every stage of a repeat gets.
#[derive(Clone)]
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    pub probe: Rc<Probe>,
    /// Read the whole partition back after the measured region and compare
    /// every payload (done once per process, in the discarded warm repeat:
    /// the measured repeats are bit-identical to it).
    pub readback: bool,
}

pub type Fut<T> = Pin<Box<dyn Future<Output = T>>>;

/// What the measured region reports from inside the runtime.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Records the per-record metrics divide by.
    pub records: u64,
    /// Operations attempted / failed (sends not acknowledged OK, deliveries
    /// missing, repeated, out of order or with the wrong payload).
    pub attempted: u64,
    pub failed: u64,
    /// Payload bytes and virtual ns of the `bw` / drain phase.
    pub goodput_bytes: u64,
    pub goodput_v_ns: u64,
    /// Virtual-time latency samples, ns.
    pub lat_ns: Vec<u64>,
    /// Workload-specific per-layer values (name without unit → value).
    pub extras: Vec<(&'static str, f64)>,
}

pub trait Workload {
    type State: 'static;
    /// Boots the cluster, generates the inputs, connects, preloads, warms.
    fn setup(&self, ctx: Ctx) -> Fut<Self::State>;
    fn measure(&self, ctx: Ctx, state: Self::State) -> Fut<(Self::State, Outcome)>;
    fn cluster<'a>(&self, state: &'a Self::State) -> &'a SimCluster;
    /// Optional read-back, then teardown inside the runtime (disconnects
    /// talk to the fabric). Returns failures found.
    fn finish(&self, ctx: Ctx, state: Self::State) -> Fut<u64>;
    /// A correctness condition on the broker-side counters of the measured
    /// region that the paper claims for this workload; `Err` explains.
    fn claim(&self, delta: &BrokerTotals, outcome: &Outcome) -> Result<(), String>;
}

/// Topic every workload produces to and consumes from.
pub const TOPIC: &str = "kdmark";

/// Boots `brokers` brokers of `system` with default options, creates
/// [`TOPIC`] and looks up the leader of each partition, each call under a
/// span of its own.
pub async fn boot(
    probe: &Probe,
    system: SystemKind,
    brokers: usize,
    partitions: u32,
    replication: u32,
) -> (SimCluster, Vec<kdwire::BrokerAddr>) {
    let cluster = probe
        .call("cluster.start", NO_SPAN, u64::MAX, async {
            SimCluster::start_with(system, brokers, ClusterOptions::default())
        })
        .await;
    let create = cluster.create_topic(TOPIC, partitions, replication);
    probe.call("create_topic", NO_SPAN, u64::MAX, create).await;
    let mut leaders = Vec::with_capacity(partitions as usize);
    for p in 0..partitions {
        let lookup = cluster.leader_of(TOPIC, p);
        leaders.push(probe.call("leader_of", NO_SPAN, u64::MAX, lookup).await);
    }
    (cluster, leaders)
}

/// Sum over brokers of the counters the metrics read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BrokerTotals {
    pub worker_busy_ns: u64,
    pub net_busy_ns: u64,
    pub heap_copied_bytes: u64,
    pub produce_requests: u64,
    pub rdma_commits: u64,
    pub fetch_requests: u64,
    pub produce_aborts: u64,
    pub grants_revoked: u64,
    /// Log segments over all hosted partitions (the in-memory store keeps no
    /// rotation counter; a roll shows as one more segment).
    pub segments: u64,
    pub push_writes: u64,
    pub nic_writes_in: u64,
    pub nic_reads_served: u64,
}

impl BrokerTotals {
    pub fn of(cluster: &SimCluster) -> BrokerTotals {
        let mut t = BrokerTotals::default();
        for b in cluster.brokers() {
            let m = b.metrics();
            let n = b.nic_stats();
            t.worker_busy_ns += m.worker_busy_ns;
            t.net_busy_ns += m.net_busy_ns;
            t.heap_copied_bytes += m.heap_copied_bytes;
            t.produce_requests += m.produce_requests;
            t.rdma_commits += m.rdma_commits;
            t.fetch_requests += m.fetch_requests;
            t.produce_aborts += m.produce_aborts;
            t.grants_revoked += m.grants_revoked;
            t.segments += b
                .inner()
                .store
                .local_partitions()
                .iter()
                .map(|p| u64::from(p.log.segment_count()))
                .sum::<u64>();
            t.push_writes += m.push_writes;
            t.nic_writes_in += n.writes_in;
            t.nic_reads_served += n.reads_served;
        }
        t
    }

    pub fn since(&self, earlier: &BrokerTotals) -> BrokerTotals {
        BrokerTotals {
            worker_busy_ns: self.worker_busy_ns - earlier.worker_busy_ns,
            net_busy_ns: self.net_busy_ns - earlier.net_busy_ns,
            heap_copied_bytes: self.heap_copied_bytes - earlier.heap_copied_bytes,
            produce_requests: self.produce_requests - earlier.produce_requests,
            rdma_commits: self.rdma_commits - earlier.rdma_commits,
            fetch_requests: self.fetch_requests - earlier.fetch_requests,
            produce_aborts: self.produce_aborts - earlier.produce_aborts,
            grants_revoked: self.grants_revoked - earlier.grants_revoked,
            segments: self.segments - earlier.segments,
            push_writes: self.push_writes - earlier.push_writes,
            nic_writes_in: self.nic_writes_in - earlier.nic_writes_in,
            nic_reads_served: self.nic_reads_served - earlier.nic_reads_served,
        }
    }

    pub fn cpu_ns(&self) -> u64 {
        self.worker_busy_ns + self.net_busy_ns
    }
}

/// Broker-NIC connection state at the end of the measured region (leader of
/// partition 0's broker: every workload has its clients on broker 0).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NicState {
    pub recv_buffer_bytes_peak: u64,
    pub qp_contexts_peak: u64,
    pub cache_miss_rate: f64,
}

/// The part of a repeat that must be identical in every repeat of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    pub outcome: Outcome,
    pub brokers: BrokerTotals,
    pub nic: NicState,
    pub polls: u64,
    /// Virtual ns of the whole measured region.
    pub v_region_ns: u64,
    /// Failures found after the measured region (read-back) and a broken
    /// workload claim, if any.
    pub late_failures: u64,
    pub claim_error: Option<String>,
}

impl Exact {
    /// Names of the quantities in which `other` differs from `self`.
    pub fn diff(&self, other: &Exact) -> Vec<&'static str> {
        let (a, b) = (&self.outcome, &other.outcome);
        [
            ("records", a.records != b.records),
            (
                "failed",
                a.failed != b.failed || self.late_failures != other.late_failures,
            ),
            (
                "goodput",
                (a.goodput_bytes, a.goodput_v_ns) != (b.goodput_bytes, b.goodput_v_ns),
            ),
            ("latency samples", a.lat_ns != b.lat_ns),
            ("extras", a.extras != b.extras),
            ("broker counters", self.brokers != other.brokers),
            ("nic state", self.nic != other.nic),
            ("polls", self.polls != other.polls),
            ("virtual time", self.v_region_ns != other.v_region_ns),
            ("claim", self.claim_error != other.claim_error),
        ]
        .into_iter()
        .filter_map(|(name, differs)| differs.then_some(name))
        .collect()
    }
}

pub struct Repeat {
    pub exact: Exact,
    /// Allocations (and bytes requested) in the measured region. Exact for a
    /// given position in the process (the first measured repeat reads the
    /// same in every process), but not across repeats: thread-local buffer
    /// pools outlive a runtime and keep warming, so later repeats allocate
    /// slightly less.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Host ns of the measured region.
    pub host_ns: u64,
    /// Host ns from the start of the repeat to the start of the measured
    /// region.
    pub setup_host_ns: u64,
    pub trace: Option<TraceData>,
}

/// Runs one repeat of `w`. With `ctx.probe` on, the repeat is the traced one:
/// the event ring is sized for the run and the drained trace is analysed.
pub fn run_repeat<W: Workload>(w: &W, ctx: &Ctx) -> Repeat {
    let started = Instant::now();
    let traced = ctx.probe.is_on();
    // A private registry per repeat: instruments never accumulate across
    // repeats, and the traced repeat gets an event ring that drops nothing.
    let registry = kdtelem::Registry::new();
    if traced {
        registry.set_event_capacity(1 << 23);
    }
    let _telem = kdtelem::enter(&registry);
    let rt = sim::Runtime::with_seed(ctx.seed);

    let probe = Rc::clone(&ctx.probe);
    let root = probe.begin("repeat", NO_SPAN, u64::MAX);
    let setup_span = probe.begin("setup", root, u64::MAX);
    let state = rt.block_on(w.setup(ctx.clone()));
    probe.end(setup_span);
    let baseline = crate::trace::Baseline::take(&registry);

    let brokers0 = BrokerTotals::of(w.cluster(&state));
    probe.reset_host_time();
    let measure_span = probe.begin("measure", root, u64::MAX);
    let setup_host_ns = started.elapsed().as_nanos() as u64;
    let (allocs0, bytes0) = crate::alloc::snapshot();
    let polls0 = rt.poll_count();
    let v0 = rt.now();
    let t0 = Instant::now();
    let p = Rc::clone(&probe);
    let fut = w.measure(ctx.clone(), state);
    let (state, outcome) = rt.block_on(async move { p.own(fut).await });
    let host_ns = t0.elapsed().as_nanos() as u64;
    let v_region_ns = (rt.now() - v0).as_nanos() as u64;
    let polls = rt.poll_count() - polls0;
    let (allocs1, bytes1) = crate::alloc::snapshot();
    probe.end(measure_span);

    let cluster = w.cluster(&state);
    let brokers = BrokerTotals::of(cluster).since(&brokers0);
    let nic = {
        let b0 = cluster.broker(0);
        let nic = &b0.inner().nic;
        NicState {
            recv_buffer_bytes_peak: nic.recv_buffer_bytes_peak(),
            qp_contexts_peak: nic.qp_contexts_peak(),
            cache_miss_rate: nic.cache_miss_rate(),
        }
    };
    let claim_error = w.claim(&brokers, &outcome).err();
    let mut trace = traced.then(|| TraceData::collect(&registry, baseline, &probe));

    let finish_span = probe.begin("finish", root, u64::MAX);
    let late_failures = rt.block_on(w.finish(ctx.clone(), state));
    probe.end(finish_span);
    probe.end(root);
    if let Some(t) = &mut trace {
        t.attach_spans(probe.take_spans());
    }

    Repeat {
        exact: Exact {
            outcome,
            brokers,
            nic,
            polls,
            v_region_ns,
            late_failures,
            claim_error,
        },
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        host_ns,
        setup_host_ns,
        trace,
    }
}

/// Runs one repeat of the named workload.
pub fn run_named(name: &str, ctx: &Ctx) -> Repeat {
    match name {
        "produce_small" => run_repeat(&produce::Produce::small(), ctx),
        "produce_large" => run_repeat(&produce::Produce::large(), ctx),
        "produce_tcp" => run_repeat(&produce::Produce::tcp(), ctx),
        "pubsub_repl" => run_repeat(&pubsub::PubSub, ctx),
        "consume_catchup" => run_repeat(&consume::Catchup, ctx),
        "fanin_2k" => run_repeat(&fanin::FanIn, ctx),
        other => panic!("unknown workload {other}"),
    }
}
