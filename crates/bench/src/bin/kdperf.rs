//! kdperf — wall-clock performance harness for the hot datapath.
//!
//! Unlike the figure benchmarks (which report **virtual** time and model the
//! paper's hardware), kdperf measures what the simulator itself costs on the
//! machine running it: records/second of wall-clock throughput, nanoseconds
//! of host CPU per record, executor polls ("events") per second, and — via a
//! counting global allocator — heap allocations per record at steady state.
//!
//! The workload is the Fig 10/11 produce loop: one producer, one broker,
//! replication disabled, windowed pipelining. Three datapaths are measured:
//! exclusive one-sided RDMA produce (KafkaDirect) over the in-memory store,
//! the same loop over the **file-backed tiered store** (the hot tier must
//! not tax the RDMA path), and the TCP baseline (Kafka). A fourth section
//! verifies that a 1 MiB netsim TCP send performs O(1) allocations once the
//! packet pool is warm, and a fifth measures cold-tier fetch throughput
//! (sparse-index file reads of evicted segments) across read sizes.
//!
//! Output: a JSON report plus a human-readable summary. Both default paths
//! derive from one PR tag — `BENCH_<TAG>.json` and `results/PERF_<TAG>.md`,
//! where `<TAG>` comes from `--tag` or `KD_BENCH_TAG` (default `PR14`); a
//! `--smoke` run writes both under `target/` instead, so it never replaces
//! a recorded full-size run; explicit `--out`/`--summary` still override.
//! Exit status is non-zero if a steady-state budget is exceeded:
//!
//! * exclusive RDMA produce — memory **and** tiered — must stay at
//!   **<= 2 allocs/record**;
//! * exclusive RDMA produce — memory **and** tiered — must stay at
//!   **<= 2.75 executor polls/record** (measured 2.63 on both; the PR 4
//!   loop needed ~21, the three-piece request hand-off 2.95);
//! * Kafka/TCP produce RPCs (the `tcp` datapath) must stay at **<= 12.5
//!   executor polls/record** and **<= 4.5 allocs/record** (measured 12.0 /
//!   4.0; the task-per-hop RPC plane needed 21.0 / 10.0);
//! * the warm 1 MiB TCP send must stay under one alloc per MSS packet;
//! * running the virtual-time telemetry sampler must cost **<= 3%** of
//!   exclusive-RDMA records/s (best-of-3 interleaved pairs; the wall-clock
//!   budget is enforced only when the host's measured noise floor — the
//!   spread of identical-config unsampled runs — is at or below the budget;
//!   override with `KDPERF_SAMPLER_BUDGET=<pct>`), and the sampled run must
//!   not allocate beyond its unsampled twin (samples/4 + 256 allowance —
//!   this deterministic half of the contract is gated on every host).
//!
//! The report also carries the broker-side `cqe_batch` histogram (CQEs
//! taken per `ibv_poll_cq`-style drain), the direct measure of how much
//! completion batching the workload achieved.
//!
//! Usage: `kdperf [--smoke] [--records N] [--warmup N] [--window W]
//! [--size BYTES] [--tag TAG] [--out PATH] [--summary PATH]`
//!
//! `KDPERF_ATTRIB=<class>[:<nth>]` attributes allocations by power-of-two
//! size class: every allocation in size class `<class>` (i.e. sizes in
//! `[2^class, 2^(class+1))`) is counted, and the `<nth>` such allocation
//! (default 300) of the exclusive-RDMA measured region dumps a backtrace.
//! See EXPERIMENTS.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use kafkadirect::{ClusterOptions, Record, SimCluster, SystemKind};
use kdbench::harness::{setup, AnyProducer, ProduceOpts, ProducerMode};
use kdclient::RdmaProducer;

// ---------------------------------------------------------------------------
// Counting allocator.
// ---------------------------------------------------------------------------

/// Wraps the system allocator and counts every allocation (and realloc —
/// growth is a cost even when the block does not move). Deallocations are
/// free and uncounted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Per-power-of-two size-class counts, for `KDPERF_SIZES=1` diagnostics.
static SIZE_CLASSES: [AtomicU64; 24] = [const { AtomicU64::new(0) }; 24];

/// `KDPERF_ATTRIB` state: the armed size class (`u64::MAX` = off), the
/// ordinal that triggers a backtrace, and the running count of matching
/// allocations inside the armed region.
static ATTRIB_CLASS: AtomicU64 = AtomicU64::new(u64::MAX);
static ATTRIB_NTH: AtomicU64 = AtomicU64::new(300);
static ATTRIB_SEEN: AtomicU64 = AtomicU64::new(0);
thread_local! { static IN_TRAP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) }; }

fn count(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    let class = (usize::BITS - size.max(1).leading_zeros() - 1).min(23) as usize;
    SIZE_CLASSES[class].fetch_add(1, Relaxed);
    if class as u64 == ATTRIB_CLASS.load(Relaxed) {
        let n = ATTRIB_SEEN.fetch_add(1, Relaxed) + 1;
        if n == ATTRIB_NTH.load(Relaxed) {
            IN_TRAP.with(|f| {
                // Capturing a backtrace allocates; the guard stops the
                // recursive allocations from re-triggering the trap.
                if !f.get() {
                    f.set(true);
                    eprintln!(
                        "KDPERF_ATTRIB: allocation #{n} of size class {class} ({size}B):\n{}",
                        std::backtrace::Backtrace::force_capture()
                    );
                    f.set(false);
                }
            });
        }
    }
}

/// Parses `KDPERF_ATTRIB=<class>[:<nth>]` (off when unset/invalid). Returns
/// the armed class, if any.
fn attrib_config() -> Option<u64> {
    let raw = std::env::var("KDPERF_ATTRIB").ok()?;
    let (class, nth) = match raw.split_once(':') {
        Some((c, n)) => (c.parse().ok()?, n.parse().ok()?),
        None => (raw.parse().ok()?, 300),
    };
    ATTRIB_NTH.store(nth, Relaxed);
    Some(class)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Config {
    records: usize,
    warmup: usize,
    window: usize,
    record_size: usize,
    /// Fan-in sweep client-count range (log-spaced points, inclusive).
    fanin_min: usize,
    fanin_max: usize,
    /// PR tag — the single source for both default artifact paths.
    tag: String,
    out: String,
    summary: String,
}

impl Config {
    fn from_args() -> Config {
        let mut cfg = Config {
            records: 4000,
            warmup: 500,
            window: 32,
            record_size: 512,
            fanin_min: 10,
            fanin_max: 100_000,
            tag: std::env::var("KD_BENCH_TAG").unwrap_or_else(|_| "PR14".to_string()),
            out: String::new(),
            summary: String::new(),
        };
        let mut smoke = false;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut take = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match arg.as_str() {
                "--smoke" => {
                    smoke = true;
                    cfg.records = 600;
                    cfg.warmup = 150;
                    // A tiny fan-in smoke: every mode boots and the O(1)
                    // SRQ recv-memory invariant is checked, but every point
                    // stays far below the NIC cache knee, so the throughput
                    // assertions (which need past-knee points) are skipped.
                    cfg.fanin_min = 10;
                    cfg.fanin_max = 100;
                }
                "--records" => cfg.records = take("--records").parse().expect("--records"),
                "--warmup" => cfg.warmup = take("--warmup").parse().expect("--warmup"),
                "--window" => cfg.window = take("--window").parse().expect("--window"),
                "--size" => cfg.record_size = take("--size").parse().expect("--size"),
                "--fanin" => {
                    let v = take("--fanin");
                    let (lo, hi) = v
                        .split_once("..")
                        .unwrap_or_else(|| panic!("--fanin takes MIN..MAX, got {v}"));
                    cfg.fanin_min = lo.trim().parse().expect("--fanin MIN");
                    cfg.fanin_max = hi.trim().parse().expect("--fanin MAX");
                    assert!(
                        cfg.fanin_min >= 1 && cfg.fanin_min <= cfg.fanin_max,
                        "--fanin range must satisfy 1 <= MIN <= MAX"
                    );
                }
                "--tag" => cfg.tag = take("--tag"),
                "--out" => cfg.out = take("--out"),
                "--summary" => cfg.summary = take("--summary"),
                other => panic!("unknown argument: {other}"),
            }
        }
        // Artifact naming convention (EXPERIMENTS.md): both defaults derive
        // from the one tag — under `target/` for a smoke run, whose numbers
        // must not replace a checked-in full-size report; explicit paths
        // override.
        let (json_dir, md_dir) = if smoke { ("target/", "target/") } else { ("", "results/") };
        if cfg.out.is_empty() {
            cfg.out = format!("{json_dir}BENCH_{}.json", cfg.tag);
        }
        if cfg.summary.is_empty() {
            cfg.summary = format!("{md_dir}PERF_{}.md", cfg.tag);
        }
        cfg
    }
}

// ---------------------------------------------------------------------------
// Produce-path measurement.
// ---------------------------------------------------------------------------

/// `(utime, stime, minflt, majflt)` from `/proc/self/stat` — poor-man's
/// rusage for attributing wall-clock gaps to user CPU vs syscalls vs paging.
fn proc_stat() -> (u64, u64, u64, u64) {
    let s = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised comm; stat(5): minflt=10, majflt=12,
    // utime=14, stime=15 (1-based over the whole line).
    let rest = s.rsplit(')').next().unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let g = |i: usize| f.get(i).copied().unwrap_or(0);
    // After stripping "pid (comm) ", field 1-based index k maps to f[k-3].
    (g(11), g(12), g(7), g(9))
}

struct PathResult {
    label: &'static str,
    records: usize,
    wall_ns: u64,
    virtual_ns: u64,
    polls: u64,
    allocs: u64,
    alloc_bytes: u64,
    /// Broker-side CQEs-per-drain distribution ("kdbroker"/"cq.batch"),
    /// over the whole run (warmup included). Absent on the TCP path.
    cqe_batch: Option<kdtelem::HistStats>,
    /// Time-series samples taken during the run (sampled runs only).
    samples: Option<u64>,
}

impl PathResult {
    fn ns_per_record(&self) -> f64 {
        self.wall_ns as f64 / self.records as f64
    }

    fn records_per_sec(&self) -> f64 {
        self.records as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    fn events_per_sec(&self) -> f64 {
        self.polls as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    fn allocs_per_record(&self) -> f64 {
        self.allocs as f64 / self.records as f64
    }

    /// Executor polls charged per measured record — the scheduling-work
    /// analogue of allocs/record, and the number CQ batching drives down.
    fn polls_per_record(&self) -> f64 {
        self.polls as f64 / self.records as f64
    }
}

/// Runs the Fig 10/11 produce loop on one datapath: boots a cluster, warms
/// the pools with `cfg.warmup` records, then measures `cfg.records` more.
/// Warmup and measurement share one runtime so arenas, pools, and rings are
/// hot when the counters start.
fn run_produce(
    label: &'static str,
    system: SystemKind,
    mode: ProducerMode,
    cfg: &Config,
    storage: Option<kdstorage::StorageConfig>,
    sampler_us: Option<u64>,
) -> PathResult {
    let mut opts = ProduceOpts::new(system, mode, cfg.record_size);
    opts.records = cfg.records;
    opts.window = cfg.window;
    opts.storage = storage;
    // Private registry: the brokers' `cqe_batch` histogram lands here.
    let registry = kdtelem::Registry::new();
    let _telem = kdtelem::enter(&registry);
    let rt = sim::Runtime::new();

    let warmup = cfg.warmup;
    let window = cfg.window;
    let size = cfg.record_size;
    let sample_registry = registry.clone();
    let (cluster, producer, record, series) = rt.block_on(async move {
        // The sampler (if armed) runs through warmup + measurement, exactly
        // as a production broker would run it: the overhead gate compares
        // this run's wall-clock throughput against a twin whose sampler is
        // armed with an interval longer than the run (zero ticks fire) —
        // both sides execute identical setup/teardown code, so the delta
        // isolates per-tick sampling work instead of folding in binary
        // code-layout luck between sampled and sampler-free builds.
        let series = sampler_us.map(|us| {
            kdtelem::Sampler::start(
                &sample_registry,
                kdtelem::SeriesOptions {
                    interval: std::time::Duration::from_micros(us),
                    capacity: 1 << 16,
                },
            )
        });
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("perf-client");
        let mut producer =
            AnyProducer::connect(cluster.system, &node, leader, "bench", 0, mode).await;
        let record = Record::value(vec![0xA5u8; size]);
        producer.send_windowed(&record, warmup, window).await;
        (cluster, producer, record, series)
    });

    let (allocs0, bytes0) = alloc_snapshot();
    for c in &SIZE_CLASSES {
        c.store(0, Relaxed);
    }
    let polls0 = rt.poll_count();
    if label == "rdma_exclusive" {
        if let Some(class) = attrib_config() {
            ATTRIB_SEEN.store(0, Relaxed);
            ATTRIB_CLASS.store(class, Relaxed);
        }
    }
    let ru0 = proc_stat();
    let v0 = rt.now();
    let t0 = Instant::now();
    let records = cfg.records;
    let (cluster, producer) = rt.block_on(async move {
        let mut producer = producer;
        producer.send_windowed(&record, records, window).await;
        (cluster, producer)
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    if std::env::var_os("KDPERF_RUSAGE").is_some_and(|v| v == "1") {
        let (ut0, st0, mf0, mj0) = ru0;
        let (ut1, st1, mf1, mj1) = proc_stat();
        eprintln!(
            "  [{label}] utime {} ticks, stime {} ticks, minflt {}, majflt {}",
            ut1 - ut0,
            st1 - st0,
            mf1 - mf0,
            mj1 - mj0
        );
    }
    ATTRIB_CLASS.store(u64::MAX, Relaxed);
    let (allocs1, bytes1) = alloc_snapshot();
    if std::env::var_os("KDPERF_SIZES").is_some_and(|v| v == "1") {
        for (class, n) in SIZE_CLASSES.iter().enumerate() {
            let n = n.load(Relaxed);
            if n > 0 {
                eprintln!("  [{label}] size 2^{class:<2} x {n}");
            }
        }
    }
    let polls = rt.poll_count() - polls0;
    let virtual_ns = (rt.now() - v0).as_nanos() as u64;

    let samples = series.as_ref().map(|s| {
        s.stop();
        s.samples()
    });

    // Tear down inside the runtime so connection/broker drops that talk to
    // the fabric run with an active executor.
    rt.block_on(async move {
        drop(producer);
        drop(cluster);
    });

    let cqe_batch = registry
        .snapshot()
        .histograms
        .iter()
        .find(|h| h.component == "kdbroker" && h.name == "cq.batch")
        .map(|h| h.stats);

    PathResult {
        label,
        records,
        wall_ns,
        virtual_ns,
        polls,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        cqe_batch,
        samples,
    }
}

// ---------------------------------------------------------------------------
// 1 MiB TCP send allocation check.
// ---------------------------------------------------------------------------

struct TcpSendCheck {
    payload_bytes: usize,
    packets: u64,
    allocs: u64,
}

/// Streams 1 MiB messages across a raw netsim TCP connection and counts the
/// allocations of one warm send (writer + concurrently draining reader).
/// With the pooled packet path this is O(1); the pre-pool code allocated two
/// `Vec`s per MSS packet.
fn run_tcp_1mib() -> TcpSendCheck {
    const PAYLOAD: usize = 1 << 20;
    let rt = sim::Runtime::new();
    let allocs = rt.block_on(async {
        let profile = netsim::profile::Profile::testbed();
        let mss = profile.net.tcp_mss as usize;
        let fabric = netsim::Fabric::new(profile);
        let src = fabric.add_node("src");
        let dst = fabric.add_node("dst");
        let dst_id = dst.id;
        let mut listener = netsim::tcp::TcpListener::bind(&dst, 7000);
        // 3 rounds total: two warmup (fill the packet pool, grow the reader's
        // reassembly buffer and the sink) + one measured.
        let reader = sim::spawn(async move {
            let mut stream = listener.accept().await.expect("accept");
            let mut sink = Vec::with_capacity(PAYLOAD);
            for _ in 0..3 {
                sink.clear();
                stream.read_exact_into(PAYLOAD, &mut sink).await.expect("read");
            }
        });
        let mut stream = netsim::tcp::connect(&src, dst_id, 7000)
            .await
            .expect("connect");
        let payload = vec![0xEEu8; PAYLOAD];
        for _ in 0..2 {
            stream.write_all(&payload).await.expect("warmup write");
        }
        let (a0, _) = alloc_snapshot();
        stream.write_all(&payload).await.expect("measured write");
        let (a1, _) = alloc_snapshot();
        reader.await.expect("reader");
        (a1 - a0, mss)
    });
    let (count, mss) = allocs;
    TcpSendCheck {
        payload_bytes: PAYLOAD,
        packets: PAYLOAD.div_ceil(mss) as u64,
        allocs: count,
    }
}

// ---------------------------------------------------------------------------
// Cold-tier fetch throughput.
// ---------------------------------------------------------------------------

/// One cold-fetch measurement: sequential `read_from` passes over a fully
/// evicted tiered log at a fixed per-read byte cap.
struct ColdFetchPoint {
    max_bytes: u32,
    reads: u64,
    mib_per_sec: f64,
}

struct ColdFetchResult {
    segments: u32,
    bytes: u64,
    series: Vec<ColdFetchPoint>,
}

/// Builds a tiered log (small segments), evicts every sealed segment to the
/// file tier, then measures wall-clock throughput of reading the whole log
/// back through the sparse-index cold path at several read-size caps. Reads
/// go through `SegmentStore::read_cold` without paging segments back in, so
/// every pass stays cold.
fn run_cold_fetch() -> ColdFetchResult {
    use std::rc::Rc;

    let dir = std::env::temp_dir().join(format!("kdperf-cold-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = kdstorage::StorageConfig::tiered(&dir).with_sync(kdstorage::SyncMode::Never);
    let store = Rc::new(kdstorage::FileStore::create(&dir, &cfg).expect("cold-fetch store"));
    let log = kdstorage::Log::with_store(
        kdstorage::LogConfig {
            segment_size: 256 * 1024,
            max_batch_size: 64 * 1024,
        },
        store,
    );

    // ~8 MiB of 1 KiB records, 16 per batch.
    let mut builder = kdstorage::BatchBuilder::new(1);
    for _ in 0..16 {
        builder.append(&Record::value(vec![0xC7u8; 1024]));
    }
    let batch = builder.build().expect("batch");
    const TARGET: u64 = 8 << 20;
    let mut appended = 0u64;
    while appended < TARGET {
        log.append_batch(&batch).expect("append");
        appended += batch.len() as u64;
    }
    log.set_high_watermark(log.next_offset());
    log.sync_all();
    for i in 0..log.head_index() {
        assert!(log.evict_segment(i), "segment {i} must evict");
    }

    let hw = log.next_offset();
    let mut series = Vec::new();
    let mut out = Vec::new();
    for max_bytes in [16 * 1024u32, 64 * 1024, 256 * 1024, 1 << 20] {
        let mut reads = 0u64;
        let mut bytes = 0u64;
        let t0 = Instant::now();
        let mut offset = 0u64;
        while offset < hw {
            let (_, next) = log.read_from_into(offset, max_bytes, true, &mut out);
            assert!(next > offset, "cold read stalled at {offset}");
            bytes += out.len() as u64;
            reads += 1;
            offset = next;
        }
        let wall = t0.elapsed().as_nanos().max(1) as f64;
        series.push(ColdFetchPoint {
            max_bytes,
            reads,
            mib_per_sec: bytes as f64 / (1 << 20) as f64 * 1e9 / wall,
        });
    }
    let result = ColdFetchResult {
        segments: log.head_index(),
        bytes: appended,
        series,
    };
    std::fs::remove_dir_all(&dir).ok();
    result
}

// ---------------------------------------------------------------------------
// Fan-in connection-scaling sweep (DESIGN.md §13).
// ---------------------------------------------------------------------------

/// Partitions the fan-in producers spread over (shared mode serialises FAAs
/// per partition at the paper's 2.68 Mops/s — one word would cap the sweep).
const FANIN_PARTITIONS: u32 = 16;
/// NIC contexts of the `srq_mux` arm's lending pool (DCT-style).
const FANIN_MUX_POOL: usize = 8;
/// Ack receive buffers per simulated client (window is 1; 512 would pin
/// ~800 MiB of host memory at 100k clients for no modelling gain).
const FANIN_ACK_DEPTH: usize = 4;
const FANIN_RECORD_BYTES: usize = 128;
/// Minimum records measured per point, spread across all clients (every
/// client sends at least one record).
const FANIN_TARGET_RECORDS: usize = 8192;
/// SRQ+mux must retain at least this fraction of its below-knee reference
/// throughput at every point with >= 10k clients.
const FANIN_RETENTION_MIN: f64 = 0.80;

struct FaninPoint {
    clients: usize,
    per_client: usize,
    virtual_ns: u64,
    wall_ms: u64,
    /// Broker-NIC posted-receive memory high-water mark (modeled bytes:
    /// WQE + buffer per posted WR).
    recv_buf_peak: u64,
    /// Broker-NIC pinned QP contexts high-water mark.
    qp_contexts_peak: u64,
    /// Modeled NIC QP-context-cache miss rate at peak occupancy.
    miss_rate: f64,
}

impl FaninPoint {
    fn records(&self) -> u64 {
        (self.clients * self.per_client) as u64
    }

    /// Virtual-time produce throughput (the modeled-hardware number; the
    /// connect phase is excluded from the measured span).
    fn records_per_sec(&self) -> f64 {
        self.records() as f64 * 1e9 / self.virtual_ns.max(1) as f64
    }
}

struct FaninMode {
    label: &'static str,
    points: Vec<FaninPoint>,
}

struct FaninSweep {
    min: usize,
    max: usize,
    nic_cache_qps: u64,
    srq_depth: usize,
    modes: Vec<FaninMode>,
    /// Scaling-contract violations (empty = the fan-in gate passes).
    failures: Vec<String>,
}

/// Log-spaced client counts: decades up from `min`, with `max` always
/// included as the final point.
fn fanin_points(min: usize, max: usize) -> Vec<usize> {
    let mut pts = Vec::new();
    let mut n = min.max(1);
    while n < max {
        pts.push(n);
        n = n.saturating_mul(10);
    }
    pts.push(max);
    pts
}

/// One fan-in point: a 1-broker KafkaDirect cluster whose accepted QPs
/// multiplex over `mux_pool` NIC contexts (0 = one context each), `clients`
/// shared-mode RDMA producers (one node + NIC + QP each) spread over
/// [`FANIN_PARTITIONS`] partitions. Every client connects first; the
/// measured span covers only the produce phase.
fn run_fanin_point(mux_pool: usize, clients: usize) -> FaninPoint {
    let registry = kdtelem::Registry::new();
    let _telem = kdtelem::enter(&registry);
    let rt = sim::Runtime::new();
    let per_client = (FANIN_TARGET_RECORDS / clients).max(1);
    let t0 = Instant::now();
    let (virtual_ns, recv_buf_peak, qp_contexts_peak) = rt.block_on(async move {
        let cluster = SimCluster::start_with(
            SystemKind::KafkaDirect,
            1,
            ClusterOptions {
                mux_pool: Some(mux_pool),
                ..Default::default()
            },
        );
        cluster.create_topic("fanin", FANIN_PARTITIONS, 1).await;
        let mut leaders = Vec::with_capacity(FANIN_PARTITIONS as usize);
        for p in 0..FANIN_PARTITIONS {
            leaders.push(cluster.leader_of("fanin", p).await);
        }
        let mut connects = Vec::with_capacity(clients);
        for i in 0..clients {
            let node = cluster.add_client_node(&format!("f{i}"));
            let p = (i % FANIN_PARTITIONS as usize) as u32;
            let leader = leaders[p as usize];
            connects.push(sim::spawn(async move {
                RdmaProducer::connect_with_ack_depth(
                    &node,
                    leader,
                    "fanin",
                    p,
                    true,
                    FANIN_ACK_DEPTH,
                )
                .await
                .expect("fanin producer connect")
            }));
        }
        let mut producers = Vec::with_capacity(clients);
        for c in connects {
            producers.push(c.await.expect("fanin connect task"));
        }
        let v0 = sim::now();
        let mut sends = Vec::with_capacity(clients);
        for mut prod in producers {
            sends.push(sim::spawn(async move {
                let rec = Record::value(vec![0x6b; FANIN_RECORD_BYTES]);
                for _ in 0..per_client {
                    prod.send(&rec).await.expect("fanin send");
                }
                prod
            }));
        }
        let mut producers = Vec::with_capacity(clients);
        for s in sends {
            producers.push(s.await.expect("fanin send task"));
        }
        let virtual_ns = (sim::now() - v0).as_nanos() as u64;
        let broker = cluster.broker(0);
        let inner = broker.inner().clone();
        let out = (
            virtual_ns,
            inner.nic.recv_buffer_bytes_peak(),
            inner.nic.qp_contexts_peak(),
        );
        // Tear down inside the runtime (disconnects talk to the fabric).
        drop(inner);
        drop(producers);
        drop(cluster);
        out
    });
    let cap = kafkadirect::Profile::testbed().net.nic_cache_qps;
    let miss_rate = if cap > 0 && qp_contexts_peak > cap {
        (qp_contexts_peak - cap) as f64 / qp_contexts_peak as f64
    } else {
        0.0
    };
    FaninPoint {
        clients,
        per_client,
        virtual_ns,
        wall_ms: t0.elapsed().as_millis() as u64,
        recv_buf_peak,
        qp_contexts_peak,
        miss_rate,
    }
}

fn run_fanin_sweep(cfg: &Config) -> FaninSweep {
    // The two sizings of the one receive layer: dedicated NIC contexts
    // (the default) and a multiplexed lending pool.
    const MODES: [(&str, usize); 2] = [("srq", 0), ("srq_mux", FANIN_MUX_POOL)];
    let counts = fanin_points(cfg.fanin_min, cfg.fanin_max);
    let mut modes = Vec::new();
    for (label, mux_pool) in MODES {
        let mut points = Vec::new();
        for &clients in &counts {
            let p = run_fanin_point(mux_pool, clients);
            println!(
                "  {:<16} {label:>7} {:>7} clients: {:>9.0} rec/s (virtual)  recv {:>7} KiB  \
                 contexts {:>7}  miss {:>5.1}%  ({} ms wall)",
                "fanin_sweep",
                p.clients,
                p.records_per_sec(),
                p.recv_buf_peak / 1024,
                p.qp_contexts_peak,
                p.miss_rate * 100.0,
                p.wall_ms,
            );
            points.push(p);
        }
        modes.push(FaninMode { label, points });
    }

    let profile = kafkadirect::Profile::testbed();
    let cap = profile.net.nic_cache_qps;
    let srq_depth = kafkadirect::BrokerConfig::default().srq_depth;
    let mut failures = Vec::new();

    // The scaling contract. Throughput clauses need points on both sides of
    // the cache knee, so a `--smoke`-sized sweep only checks the memory
    // invariants.
    let by = |label: &str| modes.iter().find(|m| m.label == label).unwrap();
    fn reference(m: &FaninMode, cap: u64) -> Option<&FaninPoint> {
        m.points
            .iter()
            .rfind(|p| p.clients <= (cap as usize).min(1000))
    }

    // 1. Broker posted-receive memory is O(1) in client count.
    for label in ["srq", "srq_mux"] {
        let m = by(label);
        let lo = m.points.iter().map(|p| p.recv_buf_peak).min().unwrap_or(0);
        let hi = m.points.iter().map(|p| p.recv_buf_peak).max().unwrap_or(0);
        if hi > lo {
            failures.push(format!(
                "{label}: broker recv-buffer peak grew with client count \
                 ({lo} -> {hi} bytes; SRQ provisioning must be O(1))"
            ));
        }
    }
    // 2. Past the knee, SRQ+mux retains >= 80% of its reference (dedicated
    //    contexts thrash the QP-context cache; the table shows by how much).
    let mux = by("srq_mux");
    if mux.points.last().is_some_and(|p| p.clients > cap as usize) {
        if let Some(base) = reference(mux, cap) {
            for p in mux.points.iter().filter(|p| p.clients >= 10_000) {
                let ratio = p.records_per_sec() / base.records_per_sec();
                if ratio < FANIN_RETENTION_MIN {
                    failures.push(format!(
                        "srq_mux: {} clients retain only {:.0}% of the \
                         {}-client throughput (floor {:.0}%)",
                        p.clients,
                        ratio * 100.0,
                        base.clients,
                        FANIN_RETENTION_MIN * 100.0
                    ));
                }
            }
        }
    }

    FaninSweep {
        min: cfg.fanin_min,
        max: cfg.fanin_max,
        nic_cache_qps: cap,
        srq_depth,
        modes,
        failures,
    }
}

fn json_fanin(s: &FaninSweep) -> String {
    let modes: Vec<String> = s
        .modes
        .iter()
        .map(|m| {
            let pts: Vec<String> = m
                .points
                .iter()
                .map(|p| {
                    format!(
                        concat!(
                            "{{ \"clients\": {}, \"records\": {}, ",
                            "\"virtual_ns\": {}, \"records_per_sec\": {:.0}, ",
                            "\"recv_buffer_bytes_peak\": {}, ",
                            "\"qp_contexts_peak\": {}, ",
                            "\"nic_cache_miss_rate\": {:.4}, ",
                            "\"wall_ms\": {} }}"
                        ),
                        p.clients,
                        p.records(),
                        p.virtual_ns,
                        p.records_per_sec(),
                        p.recv_buf_peak,
                        p.qp_contexts_peak,
                        p.miss_rate,
                        p.wall_ms,
                    )
                })
                .collect();
            format!(
                "\"{}\": [\n        {}\n      ]",
                m.label,
                pts.join(",\n        ")
            )
        })
        .collect();
    let failures: Vec<String> = s
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('"', "'")))
        .collect();
    format!(
        concat!(
            "{{\n",
            "    \"clients\": \"{}..{}\",\n",
            "    \"partitions\": {},\n",
            "    \"srq_depth\": {},\n",
            "    \"nic_cache_qps\": {},\n",
            "    \"retention_floor\": {:.2},\n",
            "    \"modes\": {{\n      {}\n    }},\n",
            "    \"failures\": [{}],\n",
            "    \"pass\": {}\n",
            "  }}"
        ),
        s.min,
        s.max,
        FANIN_PARTITIONS,
        s.srq_depth,
        s.nic_cache_qps,
        FANIN_RETENTION_MIN,
        modes.join(",\n      "),
        failures.join(", "),
        s.failures.is_empty(),
    )
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

const RDMA_ALLOC_BUDGET: f64 = 2.0;
/// Executor polls per exclusive-RDMA record at steady state, for each
/// gated datapath (memory, tiered): measured 2.63 on a full run, 2.64 on
/// the smoke run, plus 0.1. The PR 4 one-completion-per-wakeup loop needed
/// ~20.8, a task per work request 3.2, the three-piece hand-off 2.95.
const RDMA_POLLS_BUDGET: f64 = 2.75;
/// Executor polls and allocations per Kafka/TCP produce RPC at steady
/// state (the `tcp` datapath): measured 12.01 / 4.02 on a full run, 12.06 /
/// 4.23 on the smoke run, plus slack. The task-per-hop RPC plane needed
/// 21.0 / 10.0, the three-piece hand-off 14.0 (DESIGN.md §10).
const TCP_POLLS_BUDGET: f64 = 12.5;
const TCP_ALLOC_BUDGET: f64 = 4.5;
/// Max wall-clock throughput cost of running the virtual-time sampler, in
/// percent of unsampled exclusive-RDMA records/s. Override with
/// `KDPERF_SAMPLER_BUDGET=<pct>` (useful on noisy shared hosts).
const SAMPLER_OVERHEAD_BUDGET_PCT: f64 = 3.0;

fn sampler_budget_pct() -> f64 {
    std::env::var("KDPERF_SAMPLER_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SAMPLER_OVERHEAD_BUDGET_PCT)
}

/// The sampler-overhead measurement: best-of-N unsampled vs best-of-N
/// sampled exclusive-RDMA runs (best-of damps scheduler noise; overhead
/// clamps at zero since a sampled run can win by luck).
struct SamplerOverhead {
    base_rps: f64,
    sampled_rps: f64,
    samples: u64,
    /// Spread of the identical-config unsampled runs, as a % of the best —
    /// the host's measured noise floor. The wall-clock budget is enforced
    /// only when this floor is at or below the budget.
    noise_floor_pct: f64,
    /// Allocations the sampled run made beyond its unsampled twin (the
    /// deterministic side of the contract: sampler ticks must not allocate).
    extra_allocs: u64,
}

impl SamplerOverhead {
    fn overhead_pct(&self) -> f64 {
        ((self.base_rps - self.sampled_rps) / self.base_rps * 100.0).max(0.0)
    }

    /// Whether the wall-clock overhead budget is enforced on this host.
    fn gated(&self) -> bool {
        self.noise_floor_pct <= sampler_budget_pct()
    }

    /// One-time ring growth is bounded; per-tick allocation scales with the
    /// tick count, so this allowance passes any alloc-free sampler while
    /// even one allocation per tick trips it.
    fn alloc_allowance(&self) -> u64 {
        self.samples / 4 + 256
    }
}

fn json_path(r: &PathResult) -> String {
    let cqe_batch = match &r.cqe_batch {
        Some(h) => format!(
            concat!(
                "{{\n",
                "        \"drains\": {},\n",
                "        \"cqes\": {},\n",
                "        \"mean\": {:.2},\n",
                "        \"p50\": {},\n",
                "        \"p90\": {},\n",
                "        \"p99\": {},\n",
                "        \"max\": {}\n",
                "      }}"
            ),
            h.count, h.sum, h.mean, h.p50, h.p90, h.p99, h.max,
        ),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\n",
            "      \"records\": {},\n",
            "      \"wall_ns\": {},\n",
            "      \"virtual_ns\": {},\n",
            "      \"ns_per_record\": {:.1},\n",
            "      \"records_per_sec\": {:.0},\n",
            "      \"executor_polls\": {},\n",
            "      \"polls_per_record\": {:.2},\n",
            "      \"events_per_sec\": {:.0},\n",
            "      \"allocs\": {},\n",
            "      \"allocs_per_record\": {:.3},\n",
            "      \"alloc_bytes\": {},\n",
            "      \"cqe_batch_histogram\": {}\n",
            "    }}"
        ),
        r.records,
        r.wall_ns,
        r.virtual_ns,
        r.ns_per_record(),
        r.records_per_sec(),
        r.polls,
        r.polls_per_record(),
        r.events_per_sec(),
        r.allocs,
        r.allocs_per_record(),
        r.alloc_bytes,
        cqe_batch,
    )
}

fn json_cold_fetch(cold: &ColdFetchResult) -> String {
    let points: Vec<String> = cold
        .series
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "{{ \"max_bytes\": {}, \"reads\": {}, ",
                    "\"mib_per_sec\": {:.1} }}"
                ),
                p.max_bytes, p.reads, p.mib_per_sec
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "    \"segments\": {},\n",
            "    \"bytes\": {},\n",
            "    \"series\": [\n      {}\n    ]\n",
            "  }}"
        ),
        cold.segments,
        cold.bytes,
        points.join(",\n      "),
    )
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    cfg: &Config,
    rdma: &PathResult,
    tiered: &PathResult,
    tcp: &PathResult,
    tcp_1mib: &TcpSendCheck,
    cold: &ColdFetchResult,
    sampler: &SamplerOverhead,
    fanin: &FaninSweep,
    pass: bool,
) {
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kdperf\",\n",
            "  \"workload\": \"fig10_11_produce\",\n",
            "  \"config\": {{\n",
            "    \"records\": {},\n",
            "    \"warmup\": {},\n",
            "    \"window\": {},\n",
            "    \"record_size\": {}\n",
            "  }},\n",
            "  \"datapaths\": {{\n",
            "    \"rdma_exclusive\": {},\n",
            "    \"rdma_tiered\": {},\n",
            "    \"tcp\": {}\n",
            "  }},\n",
            "  \"tcp_1mib_send\": {{\n",
            "    \"payload_bytes\": {},\n",
            "    \"packets\": {},\n",
            "    \"allocs\": {}\n",
            "  }},\n",
            "  \"cold_fetch\": {},\n",
            "  \"fanin_sweep\": {},\n",
            "  \"sampler_overhead\": {{\n",
            "    \"base_records_per_sec\": {:.0},\n",
            "    \"sampled_records_per_sec\": {:.0},\n",
            "    \"overhead_pct\": {:.2},\n",
            "    \"budget_pct\": {:.1},\n",
            "    \"samples\": {},\n",
            "    \"noise_floor_pct\": {:.2},\n",
            "    \"gated\": {},\n",
            "    \"extra_allocs\": {},\n",
            "    \"alloc_allowance\": {}\n",
            "  }},\n",
            "  \"budget\": {{\n",
            "    \"rdma_exclusive_allocs_per_record_max\": {:.1},\n",
            "    \"rdma_exclusive_polls_per_record_max\": {:.1},\n",
            "    \"tcp_polls_per_record_max\": {:.1},\n",
            "    \"tcp_allocs_per_record_max\": {:.1},\n",
            "    \"tcp_1mib_send_allocs_max\": {},\n",
            "    \"sampler_overhead_pct_max\": {:.1},\n",
            "    \"fanin_retention_min\": {:.2},\n",
            "    \"pass\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        cfg.records,
        cfg.warmup,
        cfg.window,
        cfg.record_size,
        json_path(rdma),
        json_path(tiered),
        json_path(tcp),
        tcp_1mib.payload_bytes,
        tcp_1mib.packets,
        tcp_1mib.allocs,
        json_cold_fetch(cold),
        json_fanin(fanin),
        sampler.base_rps,
        sampler.sampled_rps,
        sampler.overhead_pct(),
        sampler_budget_pct(),
        sampler.samples,
        sampler.noise_floor_pct,
        sampler.gated(),
        sampler.extra_allocs,
        sampler.alloc_allowance(),
        RDMA_ALLOC_BUDGET,
        RDMA_POLLS_BUDGET,
        TCP_POLLS_BUDGET,
        TCP_ALLOC_BUDGET,
        tcp_1mib.packets,
        sampler_budget_pct(),
        FANIN_RETENTION_MIN,
        pass,
    );
    write_artifact(&cfg.out, &json);
}

/// Writes one report file, creating its directory first (`results/`, or
/// `target/` for a smoke run built with `CARGO_TARGET_DIR` elsewhere).
fn write_artifact(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

fn summary_row(r: &PathResult) -> String {
    format!(
        "| {} | {} | {:.0} | {:.0} | {:.2} | {:.3} |\n",
        r.label,
        r.records,
        r.records_per_sec(),
        r.ns_per_record(),
        r.polls_per_record(),
        r.allocs_per_record(),
    )
}

#[allow(clippy::too_many_arguments)]
fn write_summary(
    cfg: &Config,
    rdma: &PathResult,
    tiered: &PathResult,
    tcp: &PathResult,
    tcp_1mib: &TcpSendCheck,
    cold: &ColdFetchResult,
    sampler: &SamplerOverhead,
    fanin: &FaninSweep,
    pass: bool,
) {
    let mut md = String::new();
    md.push_str("# kdperf — hot-datapath wall-clock report\n\n");
    md.push_str(&format!(
        "Workload: Fig 10/11 produce loop, {}-byte records, window {}, \
         {} warmup + {} measured records per datapath.\n\n",
        cfg.record_size, cfg.window, cfg.warmup, cfg.records
    ));
    md.push_str("| datapath | records | records/s (wall) | ns/record (wall) | polls/record | allocs/record |\n");
    md.push_str("|---|---|---|---|---|---|\n");
    md.push_str(&summary_row(rdma));
    md.push_str(&summary_row(tiered));
    md.push_str(&summary_row(tcp));
    md.push_str(
        "\n`rdma_tiered` is the exclusive-RDMA loop over the file-backed \
         tiered store (EveryMs(5) flushing): the hot tier shares the memory \
         path's allocation and scheduling budgets.\n",
    );
    if let Some(h) = &rdma.cqe_batch {
        md.push_str(&format!(
            "\nBroker CQ drains (exclusive RDMA): {} drains for {} CQEs — \
             mean batch {:.2}, p50 {}, p90 {}, p99 {}, max {}.\n",
            h.count, h.sum, h.mean, h.p50, h.p90, h.p99, h.max
        ));
    }
    md.push_str(&format!(
        "\n1 MiB TCP send (warm, {} MSS packets): **{} allocations** \
         (budget: < 1 per packet).\n",
        tcp_1mib.packets, tcp_1mib.allocs
    ));
    md.push_str(&format!(
        "\nCold-tier fetch ({} segments, {} MiB, fully evicted — every read \
         goes through the sparse-index file path):\n\n",
        cold.segments,
        cold.bytes >> 20
    ));
    md.push_str("| read cap | reads | MiB/s (wall) |\n|---|---|---|\n");
    for p in &cold.series {
        md.push_str(&format!(
            "| {} KiB | {} | {:.0} |\n",
            p.max_bytes / 1024,
            p.reads,
            p.mib_per_sec
        ));
    }
    md.push_str(&format!(
        "\nFan-in connection scaling (DESIGN.md §13): {}..{} shared-mode \
         RDMA producers (one QP each) over {} partitions against one broker, \
         NIC QP-context cache capacity {} (knee), SRQ depth {}; `srq` pins \
         one NIC context per connection, `srq_mux` multiplexes them over {}. \
         Throughput is **virtual-time** records/s over the produce \
         phase:\n\n",
        fanin.min,
        fanin.max,
        FANIN_PARTITIONS,
        fanin.nic_cache_qps,
        fanin.srq_depth,
        FANIN_MUX_POOL,
    ));
    md.push_str(
        "| mode | clients | records/s (virtual) | broker recv KiB (peak) | QP contexts (peak) | NIC cache miss |\n|---|---|---|---|---|---|\n",
    );
    for m in &fanin.modes {
        for p in &m.points {
            md.push_str(&format!(
                "| {} | {} | {:.0} | {} | {} | {:.1}% |\n",
                m.label,
                p.clients,
                p.records_per_sec(),
                p.recv_buf_peak / 1024,
                p.qp_contexts_peak,
                p.miss_rate * 100.0,
            ));
        }
    }
    if fanin.failures.is_empty() {
        md.push_str(&format!(
            "\nScaling contract: broker recv memory O(1) in clients, SRQ+mux \
             retains >= {:.0}% of its below-knee rate at >= 10k clients — \
             **PASS**.\n",
            FANIN_RETENTION_MIN * 100.0
        ));
    } else {
        md.push_str("\nScaling contract **FAIL**:\n");
        for f in &fanin.failures {
            md.push_str(&format!("* {f}\n"));
        }
    }
    md.push_str(&format!(
        "\nSampler overhead (exclusive RDMA, best-of-3 interleaved pairs, \
         measured-records floor 5000): {:.0} records/s unsampled vs {:.0} \
         records/s with the 100 µs virtual-time sampler ({} samples) — \
         **{:.2}%** of throughput (budget {:.1}%{}). Sampled run allocated \
         +{} vs its unsampled twin (allowance {}; gated unconditionally — \
         sampler ticks must stay allocation-free).\n",
        sampler.base_rps,
        sampler.sampled_rps,
        sampler.samples,
        sampler.overhead_pct(),
        sampler_budget_pct(),
        if sampler.gated() {
            String::new()
        } else {
            format!(
                "; wall-clock budget ungated: host noise floor {:.1}% exceeds it",
                sampler.noise_floor_pct
            )
        },
        sampler.extra_allocs,
        sampler.alloc_allowance(),
    ));
    md.push_str(&format!(
        "\nBefore/after (exclusive RDMA, this host class): the pre-batching \
         loop (PR 4) measured ~111.5k records/s at ~20.8 polls/record and \
         ~1.0 allocs/record; with CQ batch draining + doorbell-batched \
         posting this run measures {:.0} records/s at {:.2} polls/record \
         and {:.3} allocs/record.\n",
        rdma.records_per_sec(),
        rdma.polls_per_record(),
        rdma.allocs_per_record()
    ));
    md.push_str(&format!(
        "\nBudgets: exclusive RDMA produce (memory and tiered) <= \
         {RDMA_ALLOC_BUDGET} allocs/record, <= {RDMA_POLLS_BUDGET} executor \
         polls/record, Kafka/TCP produce <= {TCP_ALLOC_BUDGET} allocs/record, \
         <= {TCP_POLLS_BUDGET} polls/record, and sampler overhead <= {:.1}% \
         at steady state — **{}**.\n",
        sampler_budget_pct(),
        if pass { "PASS" } else { "FAIL" }
    ));
    md.push_str(
        "\nWall-clock numbers vary with the host; only the allocation counts \
         are asserted. Regenerate with `cargo run --release -p kdbench --bin kdperf`.\n",
    );
    write_artifact(&cfg.summary, &md);
}

fn print_path(r: &PathResult) {
    println!(
        "  {:<16} {:>9.0} rec/s  {:>8.0} ns/rec  {:>6.2} polls/rec  {:>7.3} allocs/rec  ({} allocs, {} bytes, {} polls, {} ms wall, {} ms virtual)",
        r.label,
        r.records_per_sec(),
        r.ns_per_record(),
        r.polls_per_record(),
        r.allocs_per_record(),
        r.allocs,
        r.alloc_bytes,
        r.polls,
        r.wall_ns / 1_000_000,
        r.virtual_ns / 1_000_000,
    );
    if let Some(h) = &r.cqe_batch {
        println!(
            "  {:<16} {} drains / {} cqes  mean {:.2}  p50 {}  p90 {}  p99 {}  max {}",
            "cqe_batch", h.count, h.sum, h.mean, h.p50, h.p90, h.p99, h.max
        );
    }
}

fn main() {
    let cfg = Config::from_args();
    println!(
        "# kdperf: fig10/11 produce workload, {}B records, window {}, {}+{} records",
        cfg.record_size, cfg.window, cfg.warmup, cfg.records
    );

    let rdma = run_produce(
        "rdma_exclusive",
        SystemKind::KafkaDirect,
        ProducerMode::RdmaExclusive,
        &cfg,
        None,
        None,
    );
    print_path(&rdma);

    // The same loop over the durable tier: the active segment stays
    // MR-registered in memory, so RDMA produce must not get slower per
    // record in scheduling or allocation terms. (Periodic flushing — the
    // EveryMs mode — is what a throughput deployment would run.)
    let tiered_dir = std::env::temp_dir().join(format!("kdperf-tiered-{}", std::process::id()));
    std::fs::remove_dir_all(&tiered_dir).ok();
    let tiered_storage = kdstorage::StorageConfig::tiered(&tiered_dir)
        .with_sync(kdstorage::SyncMode::EveryMs(5));
    let tiered = run_produce(
        "rdma_tiered",
        SystemKind::KafkaDirect,
        ProducerMode::RdmaExclusive,
        &cfg,
        Some(tiered_storage),
        None,
    );
    std::fs::remove_dir_all(&tiered_dir).ok();
    print_path(&tiered);

    let tcp = run_produce("tcp", SystemKind::Kafka, ProducerMode::Rpc, &cfg, None, None);
    print_path(&tcp);
    let tcp_1mib = run_tcp_1mib();
    println!(
        "  {:<16} {} allocs for a warm 1 MiB send ({} packets)",
        "tcp_1mib_send", tcp_1mib.allocs, tcp_1mib.packets
    );
    let cold = run_cold_fetch();
    for p in &cold.series {
        println!(
            "  {:<16} {:>6} KiB reads: {:>7.0} MiB/s ({} reads over {} MiB cold)",
            "cold_fetch",
            p.max_bytes / 1024,
            p.mib_per_sec,
            p.reads,
            cold.bytes >> 20
        );
    }

    // Sampler-overhead gate: best-of-3 unsampled vs best-of-3 sampled runs
    // of the exclusive-RDMA loop. Continuous telemetry must be cheap enough
    // to leave on. The comparison runs get a measured-records floor: a
    // percent-level wall-clock delta can't be resolved on a millisecond
    // run, so even `--smoke` (600 records) compares multi-millisecond runs
    // — best-of-N damps scheduler noise, the floor bounds its relative
    // size.
    let scfg = {
        let mut c = cfg.clone();
        c.records = c.records.max(5000);
        c
    };
    // Both sides arm the sampler — the base twin at an interval longer
    // than any run (zero ticks fire), so setup/teardown and code layout are
    // identical and the delta is per-tick sampling work alone.
    let one = |sampled: bool| {
        run_produce(
            if sampled { "rdma_sampled" } else { "rdma_exclusive" },
            SystemKind::KafkaDirect,
            ProducerMode::RdmaExclusive,
            &scfg,
            None,
            Some(if sampled { 100 } else { 3_600_000_000 }),
        )
    };
    // Interleave base/sampled pairs so drifting host load (frequency
    // scaling, a background task arriving mid-measurement) hits both sides
    // equally instead of biasing whichever block ran second. The spread of
    // the identical-config base runs doubles as the host's measured noise
    // floor: a 3% signal is only resolvable where same-binary same-config
    // runs agree to within 3%, so the wall-clock budget is enforced only
    // below that floor (the number is always reported). The *deterministic*
    // side of the contract — sampler ticks must not allocate — is gated
    // unconditionally below via the counting allocator.
    let mut base_best: Option<PathResult> = None;
    let mut sampled_best: Option<PathResult> = None;
    let mut base_lo = f64::INFINITY;
    let mut base_hi = 0.0f64;
    for _ in 0..3 {
        let b = one(false);
        base_lo = base_lo.min(b.records_per_sec());
        base_hi = base_hi.max(b.records_per_sec());
        if base_best.as_ref().is_none_or(|x| b.records_per_sec() > x.records_per_sec()) {
            base_best = Some(b);
        }
        let s = one(true);
        if sampled_best.as_ref().is_none_or(|x| s.records_per_sec() > x.records_per_sec()) {
            sampled_best = Some(s);
        }
    }
    let base2 = base_best.unwrap();
    let best_sampled = sampled_best.unwrap();
    print_path(&best_sampled);
    let sampler = SamplerOverhead {
        base_rps: base2.records_per_sec(),
        sampled_rps: best_sampled.records_per_sec(),
        samples: best_sampled.samples.unwrap_or(0),
        noise_floor_pct: ((base_hi - base_lo) / base_hi.max(1.0) * 100.0).max(0.0),
        extra_allocs: best_sampled.allocs.saturating_sub(base2.allocs),
    };
    let noise_floor_pct = sampler.noise_floor_pct;
    let sampler_gated = sampler.gated();
    let sampler_extra_allocs = sampler.extra_allocs;
    let sampler_alloc_allowance = sampler.alloc_allowance();
    println!(
        "  {:<16} {:.2}% of base throughput ({} samples; budget {:.1}%{}; +{} allocs vs base, allowance {})",
        "sampler_overhead",
        sampler.overhead_pct(),
        sampler.samples,
        sampler_budget_pct(),
        if sampler_gated {
            String::new()
        } else {
            format!(", ungated: host noise floor {noise_floor_pct:.1}% > budget")
        },
        sampler_extra_allocs,
        sampler_alloc_allowance,
    );

    // Fan-in connection-scaling sweep: the two connection sizings across
    // log-spaced client counts (virtual-time throughput + broker
    // receive-memory + modeled NIC cache pressure). Runs LAST on purpose:
    // its 10k–100k-client points churn hundreds of MiB of heap, and the
    // wall-clock sampler comparisons above are sensitive to allocator state
    // (its throughput is virtual-time, so nothing above perturbs *it*).
    let fanin = run_fanin_sweep(&cfg);

    let rdma_ok = rdma.allocs_per_record() <= RDMA_ALLOC_BUDGET;
    let polls_ok = rdma.polls_per_record() <= RDMA_POLLS_BUDGET;
    let tiered_alloc_ok = tiered.allocs_per_record() <= RDMA_ALLOC_BUDGET;
    let tiered_polls_ok = tiered.polls_per_record() <= RDMA_POLLS_BUDGET;
    let tcp_polls_ok = tcp.polls_per_record() <= TCP_POLLS_BUDGET;
    let tcp_alloc_ok = tcp.allocs_per_record() <= TCP_ALLOC_BUDGET;
    let tcp_send_ok = tcp_1mib.allocs < tcp_1mib.packets;
    let sampler_ok = !sampler_gated || sampler.overhead_pct() <= sampler_budget_pct();
    let sampler_allocs_ok = sampler_extra_allocs <= sampler_alloc_allowance;
    let fanin_ok = fanin.failures.is_empty();
    let pass = rdma_ok
        && polls_ok
        && tiered_alloc_ok
        && tiered_polls_ok
        && tcp_polls_ok
        && tcp_alloc_ok
        && tcp_send_ok
        && sampler_ok
        && sampler_allocs_ok
        && fanin_ok;

    write_json(
        &cfg, &rdma, &tiered, &tcp, &tcp_1mib, &cold, &sampler, &fanin, pass,
    );
    write_summary(
        &cfg, &rdma, &tiered, &tcp, &tcp_1mib, &cold, &sampler, &fanin, pass,
    );
    println!("# wrote {} and {}", cfg.out, cfg.summary);

    if !rdma_ok {
        eprintln!(
            "kdperf: FAIL — exclusive RDMA produce allocates {:.3}/record (budget {RDMA_ALLOC_BUDGET})",
            rdma.allocs_per_record()
        );
    }
    if !polls_ok {
        eprintln!(
            "kdperf: FAIL — exclusive RDMA produce needs {:.2} executor polls/record (budget {RDMA_POLLS_BUDGET})",
            rdma.polls_per_record()
        );
    }
    if !tiered_alloc_ok {
        eprintln!(
            "kdperf: FAIL — tiered RDMA produce allocates {:.3}/record (budget {RDMA_ALLOC_BUDGET})",
            tiered.allocs_per_record()
        );
    }
    if !tiered_polls_ok {
        eprintln!(
            "kdperf: FAIL — tiered RDMA produce needs {:.2} executor polls/record (budget {RDMA_POLLS_BUDGET})",
            tiered.polls_per_record()
        );
    }
    if !tcp_polls_ok {
        eprintln!(
            "kdperf: FAIL — Kafka/TCP produce needs {:.2} executor polls/record (budget {TCP_POLLS_BUDGET})",
            tcp.polls_per_record()
        );
    }
    if !tcp_alloc_ok {
        eprintln!(
            "kdperf: FAIL — Kafka/TCP produce allocates {:.3}/record (budget {TCP_ALLOC_BUDGET})",
            tcp.allocs_per_record()
        );
    }
    if !tcp_send_ok {
        eprintln!(
            "kdperf: FAIL — warm 1 MiB TCP send allocated {} times ({} packets; budget < 1/packet)",
            tcp_1mib.allocs, tcp_1mib.packets
        );
    }
    if !fanin_ok {
        for f in &fanin.failures {
            eprintln!("kdperf: FAIL — fan-in sweep: {f}");
        }
    }
    if !sampler_ok {
        eprintln!(
            "kdperf: FAIL — telemetry sampler costs {:.2}% of exclusive-RDMA records/s (budget {:.1}%)",
            sampler.overhead_pct(),
            sampler_budget_pct()
        );
    }
    if !sampler_allocs_ok {
        eprintln!(
            "kdperf: FAIL — sampler ticks allocated: +{} allocs vs the unsampled twin (allowance {})",
            sampler_extra_allocs, sampler_alloc_allowance
        );
    }
    if !pass {
        std::process::exit(1);
    }
    println!("# allocation budgets: PASS");
}
