//! Deterministic budgets: exact counters of fixed workloads, no wall clock.
//! Executor polls, heap allocations and virtual nanoseconds of a run repeat
//! exactly — in debug and release, alone or beside other tests — so each
//! budget is the value measured when it was last set plus at most ~2 %, and
//! each pinned instant is an equality. A change that spends more per record
//! fails here, by name, with the measured value in the message; a change
//! that moves a pinned instant moved Fig 10/11 and has to say so. Wall-clock
//! speed is kdmark's business (`benchmark/`), not this file's.
//!
//! The produce tests drive `kdbench::harness::{setup, AnyProducer}` — the
//! loop the Fig 10/11 benches run — which is why this target belongs to
//! `kdbench`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use kafkadirect::{Record, SimCluster, SystemKind};
use kdbench::harness::{setup, AnyProducer, ProduceOpts, ProducerMode};
use kdclient::{RdmaConsumer, RdmaProducer};

// ---------------------------------------------------------------------------
// Counting allocator.
// ---------------------------------------------------------------------------

/// Power-of-two size classes a count is kept for (the last one is open).
const CLASSES: usize = 24;

thread_local! {
    // Per thread: libtest runs every test on a thread of its own and a
    // `sim::Runtime` never leaves the thread that drives it, so a test reads
    // exactly its own allocations however many tests run beside it.
    static ALLOCS: [Cell<u64>; CLASSES] = const { [const { Cell::new(0) }; CLASSES] };
    // What this thread allocated and has not freed: (blocks, bytes) by the
    // size class of the block.
    static LIVE: [Cell<(i64, i64)>; CLASSES] = const { [const { Cell::new((0, 0)) }; CLASSES] };
}

/// This thread's allocations so far, by size class.
fn allocs_by_class() -> [u64; CLASSES] {
    ALLOCS.with(|c| std::array::from_fn(|i| c[i].get()))
}

/// This thread's live heap, `(blocks, bytes)` by size class. Signed: a block
/// freed here may have been allocated before the thread's locals existed.
fn live_by_class() -> [(i64, i64); CLASSES] {
    LIVE.with(|c| std::array::from_fn(|i| c[i].get()))
}

/// Wraps the system allocator and counts every allocation (and realloc —
/// growth is a cost even when the block does not move). Deallocations cost
/// nothing and are counted only against the live heap.
struct CountingAlloc;

fn class_of(size: usize) -> usize {
    (size.max(1).ilog2() as usize).min(CLASSES - 1)
}

fn count(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down, when there is no test left to count for.
    let class = class_of(size);
    let _ = ALLOCS.try_with(|c| c[class].set(c[class].get() + 1));
    live(class, 1, size as i64);
}

fn live(class: usize, blocks: i64, bytes: i64) {
    let _ = LIVE.try_with(|c| {
        let (n, b) = c[class].get();
        c[class].set((n + blocks, b + bytes));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` and `live` only touch
// thread-local `Cell`s and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        live(class_of(layout.size()), -1, -(layout.size() as i64));
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(class_of(layout.size()), -1, -(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// One measured region.
// ---------------------------------------------------------------------------

/// The counters of this thread and of one runtime at one instant.
struct Mark {
    polls: u64,
    by_class: [u64; CLASSES],
    now: sim::SimTime,
}

impl Mark {
    fn take(rt: &sim::Runtime) -> Mark {
        Mark {
            polls: rt.poll_count(),
            by_class: allocs_by_class(),
            now: rt.now(),
        }
    }
}

/// What `records` records cost between two marks.
struct Region {
    records: u64,
    polls: u64,
    /// Allocations, by size class.
    by_class: [u64; CLASSES],
    virtual_ns: u64,
}

impl Region {
    fn since(start: &Mark, rt: &sim::Runtime, records: u64) -> Region {
        let end = Mark::take(rt);
        Region {
            records,
            polls: end.polls - start.polls,
            by_class: std::array::from_fn(|i| end.by_class[i] - start.by_class[i]),
            virtual_ns: (end.now - start.now).as_nanos() as u64,
        }
    }

    fn allocs(&self) -> u64 {
        self.by_class.iter().sum()
    }

    fn check_polls(&self, what: &str, budget: f64) {
        let per = self.polls as f64 / self.records as f64;
        assert!(
            per <= budget,
            "{what}: {per:.4} executor polls per record ({} in {} records), budget {budget}",
            self.polls,
            self.records
        );
    }

    /// A failure names where the allocations went: the region's counts by
    /// power-of-two size class, which is what narrows an unexpected
    /// allocation down to a type.
    fn check_allocs(&self, what: &str, budget: f64) {
        let per = self.allocs() as f64 / self.records as f64;
        assert!(
            per <= budget,
            "{what}: {per:.4} allocations per record ({} in {} records), budget {budget}; \
             by size class: {}",
            self.allocs(),
            self.records,
            self.size_classes()
        );
    }

    fn size_classes(&self) -> String {
        let rows: Vec<String> = (0..CLASSES)
            .filter(|&class| self.by_class[class] > 0)
            .map(|class| format!("[2^{class}, 2^{}) B x {}", class + 1, self.by_class[class]))
            .collect();
        rows.join(", ")
    }
}

// ---------------------------------------------------------------------------
// Fig 10/11 produce loop: one producer, one broker, RF 1, window 32.
// ---------------------------------------------------------------------------

const WARMUP: usize = 500;
const RECORDS: usize = 4000;
const WINDOW: usize = 32;
const RECORD_BYTES: usize = 512;

/// Boots a cluster, warms pools, arenas and rings with [`WARMUP`] records of
/// `record_bytes`, then measures `records` more in the same runtime.
/// `sampler` arms the virtual-time telemetry sampler for the whole run, as a
/// broker would run it; the second value is the number of samples it took.
fn produce(
    system: SystemKind,
    mode: ProducerMode,
    storage: Option<kdstorage::StorageConfig>,
    sampler: Option<Duration>,
    records: usize,
    record_bytes: usize,
) -> (Region, u64) {
    let mut opts = ProduceOpts::new(system, mode, record_bytes);
    opts.storage = storage;
    let registry = kdtelem::Registry::new();
    let _telem = kdtelem::enter(&registry);
    let rt = sim::Runtime::new();
    let (cluster, mut producer, record, series) = rt.block_on(async move {
        let series = sampler.map(|interval| {
            kdtelem::Sampler::start(
                &kdtelem::current(),
                kdtelem::SeriesOptions {
                    interval,
                    capacity: 1 << 16,
                },
            )
        });
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("client");
        let mut producer =
            AnyProducer::connect(cluster.system, &node, leader, "bench", 0, mode).await;
        let record = Record::value(vec![0xA5u8; record_bytes]);
        producer.send_windowed(&record, WARMUP, WINDOW).await;
        (cluster, producer, record, series)
    });

    let start = Mark::take(&rt);
    let producer = rt.block_on(async move {
        producer.send_windowed(&record, records, WINDOW).await;
        producer
    });
    let region = Region::since(&start, &rt, records as u64);

    let samples = series.map_or(0, |s| {
        s.stop();
        s.samples()
    });
    // Tear down inside the runtime: dropped connections talk to the fabric.
    rt.block_on(async move {
        drop(producer);
        drop(cluster);
    });
    (region, samples)
}

/// Exclusive one-sided RDMA produce over the in-memory store. Measured
/// 2.5617 polls and 0.0257 allocations per record (10 247 and 103 in 4000);
/// the one-completion-per-wakeup loop needed ~20.8 polls, a task per work
/// request 3.2, the three-piece request hand-off 2.95, the summed verify
/// charge with one ack Send per record 2.6252 polls, run vectors grown by
/// doubling 1.1485 allocations, and an ack channel allocated per record
/// (before the producer recycled its cells) 1.0263. The pinned span is the loop behind
/// Fig 11's 512 B point at steady state (94.0 MiB/s). It was 34 501 250 ns
/// (56.6 MiB/s) while the pollers drained before their wake-up and a run
/// committed — and acked — only once the sum of its verifications was slept:
/// producer and worker took turns, 276 µs per 32 records where the worker
/// needs 165. Now a span commits when its own verification is paid, the run's
/// acks leave as one, and the loop is worker-bound
/// (`exclusive_windowed_produce_is_worker_bound` holds that by name).
#[test]
fn rdma_exclusive_produce_per_record() {
    let (system, mode) = (SystemKind::KafkaDirect, ProducerMode::RdmaExclusive);
    let (r, _) = produce(system, mode, None, None, RECORDS, RECORD_BYTES);
    r.check_polls("rdma_exclusive", 2.62);
    r.check_allocs("rdma_exclusive", 0.05);
    assert_eq!(r.virtual_ns, 20_776_198, "rdma_exclusive: the virtual timeline moved");
}

/// The same loop over the file-backed tiered store, flushing every 5 ms: the
/// active segment stays registered in memory, so the hot tier must cost an
/// RDMA produce nothing — not an executor event, not an allocation, not a
/// virtual nanosecond. Measured 2.5638 / 0.0293 (1.0297 with an ack channel
/// allocated per record); budgets and pin moved with the in-memory loop's,
/// for its reasons.
#[test]
fn rdma_tiered_produce_per_record() {
    let dir = std::env::temp_dir().join(format!("kd-budgets-tiered-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let storage =
        kdstorage::StorageConfig::tiered(&dir).with_sync(kdstorage::SyncMode::EveryMs(5));
    let (r, _) = produce(
        SystemKind::KafkaDirect,
        ProducerMode::RdmaExclusive,
        Some(storage),
        None,
        RECORDS,
        RECORD_BYTES,
    );
    std::fs::remove_dir_all(&dir).ok();
    r.check_polls("rdma_tiered", 2.62);
    r.check_allocs("rdma_tiered", 0.05);
    assert_eq!(r.virtual_ns, 20_776_198, "rdma_tiered: the virtual timeline moved");
}

/// The exclusive windowed loop is limited by one API worker and nothing
/// else (paper §5.1, Fig 11): 4000 records at window 32 take at most 1.02 ×
/// the worker's own time for them — `api_produce_base` plus the CRC over the
/// encoded batch, per record — at every size where that worker, not the
/// link, is the bottleneck. Measured 1.0053–1.0055; the summed verify charge
/// behind pollers that drained before waking read 1.67 at 512 B. Whatever
/// makes producer and worker take turns again — a run longer than the
/// producer's half window, an ack held past its run, a wake-up paid per
/// completion — fails here, by name, without a re-recorded number.
#[test]
fn exclusive_windowed_produce_is_worker_bound() {
    let cpu = netsim::profile::Profile::testbed().cpu;
    for record_bytes in [64, 512, 1024, 4096] {
        let (system, mode) = (SystemKind::KafkaDirect, ProducerMode::RdmaExclusive);
        let (r, _) = produce(system, mode, None, None, RECORDS, record_bytes);
        let record = Record::value(vec![0xA5u8; record_bytes]);
        let batch_len = kdstorage::record::single_record_batch(1, &record).len() as u64;
        let verify = cpu.api_produce_base + netsim::profile::copy_time(batch_len, cpu.crc_bandwidth);
        let worker_ns = verify.as_nanos() as u64 * RECORDS as u64;
        assert!(
            r.virtual_ns as f64 <= 1.02 * worker_ns as f64,
            "{record_bytes} B: {} virtual ns for {RECORDS} records, {:.3} x the {worker_ns} ns \
             one worker needs to verify them",
            r.virtual_ns,
            r.virtual_ns as f64 / worker_ns as f64
        );
    }
}

/// Segment memory is recycled, not mapped afresh (`kdbuf::shm`): what the
/// first cluster on a thread allocates in the ≥ 1 MiB size classes — its
/// preallocated 32 MiB segment files — is parked when it goes, and a second
/// cluster booted and produced into on the same thread allocates nothing
/// there. A segment, or any other large buffer, that stops coming from
/// `ShmBuf::zeroed` shows up here as a count. (The registry's event ring is
/// capped so that telemetry, which doubles its way past 1 MiB on a longer
/// run, is not what is counted.)
#[test]
fn a_second_cluster_allocates_no_segment_memory() {
    const MIB_CLASS: usize = 20;
    let large_allocs = || {
        let before = allocs_by_class();
        let registry = kdtelem::Registry::new();
        registry.set_event_capacity(4096);
        let _telem = kdtelem::enter(&registry);
        sim::Runtime::new().block_on(async {
            let cluster = SimCluster::start(SystemKind::KafkaDirect, 3);
            cluster.create_topic("t", 2, 3).await;
            let node = cluster.add_client_node("producer");
            let record = Record::value(vec![0xA5u8; RECORD_BYTES]);
            for partition in 0..2 {
                let leader = cluster.leader_of("t", partition).await;
                let mut producer =
                    RdmaProducer::connect(&node, leader, "t", partition, false).await.unwrap();
                for _ in 0..64 {
                    producer.send(&record).await.unwrap();
                }
            }
        });
        let after = allocs_by_class();
        (MIB_CLASS..CLASSES).map(|c| after[c] - before[c]).sum::<u64>()
    };
    // Six — 2 partitions x 3 replicas, a segment each — unless this thread
    // already ran a cluster (`--test-threads=1`) and parked some.
    assert!(large_allocs() <= 6, "the first cluster allocates its segments and nothing else");
    assert_eq!(large_allocs(), 0, "the second cluster allocated in the >= 1 MiB classes");
}

/// Kafka produce RPCs over TCP. Measured 12.0085 polls and 4.0135
/// allocations per record (16 054 in 4000, some runs one more — the one count
/// here that is not exact); the task-per-hop RPC plane needed 21.0 / 10.0,
/// the three-piece hand-off 14.0 polls (DESIGN.md §10).
#[test]
fn tcp_produce_per_record() {
    let (r, _) = produce(SystemKind::Kafka, ProducerMode::Rpc, None, None, RECORDS, RECORD_BYTES);
    r.check_polls("tcp", 12.25);
    r.check_allocs("tcp", 4.10);
    assert_eq!(r.virtual_ns, 136_213_080, "tcp: the virtual timeline moved");
}

/// Sampler ticks allocate nothing: a run sampled every 100 µs of virtual
/// time against a twin whose sampler is armed with an interval longer than
/// the run (no tick fires, set-up and teardown identical). One-time ring
/// growth is bounded, per-tick allocation scales with the tick count, so the
/// allowance passes any allocation-free sampler and even one allocation per
/// tick trips it. Measured +159 allocations for 454 ticks. 8000 records:
/// the worker-bound loop gets through 5000 in 26 ms of virtual time, under
/// 300 ticks.
#[test]
fn sampler_ticks_do_not_allocate() {
    const SAMPLED_RECORDS: usize = 8000;
    let run = |interval| {
        produce(
            SystemKind::KafkaDirect,
            ProducerMode::RdmaExclusive,
            None,
            Some(interval),
            SAMPLED_RECORDS,
            RECORD_BYTES,
        )
    };
    let (base, idle_samples) = run(Duration::from_secs(3600));
    let (sampled, samples) = run(Duration::from_micros(100));
    assert_eq!(idle_samples, 0, "the unsampled twin took samples");
    assert!(samples >= 400, "only {samples} samples in {} virtual ns", sampled.virtual_ns);
    assert_eq!(sampled.virtual_ns, base.virtual_ns, "sampling moved the virtual timeline");
    let extra = sampled.allocs().saturating_sub(base.allocs());
    let allowance = samples / 4 + 256;
    assert!(
        extra <= allowance,
        "{samples} sampler ticks allocated: +{extra} allocations over the unsampled twin \
         (allowance {allowance}); sampled run by size class: {}",
        sampled.size_classes()
    );
}

/// A warm 1 MiB netsim TCP send (writer plus concurrently draining reader,
/// 64 MSS packets) allocates O(1): the packet pool, the reader's reassembly
/// buffer and the sink are grown by two warm-up rounds. Measured 2; the
/// pre-pool code allocated two `Vec`s per packet.
#[test]
fn warm_1mib_tcp_send_allocates_o1() {
    const PAYLOAD: usize = 1 << 20;
    let rt = sim::Runtime::new();
    let allocs = rt.block_on(async {
        let fabric = netsim::Fabric::new(netsim::profile::Profile::testbed());
        let src = fabric.add_node("src");
        let dst = fabric.add_node("dst");
        let dst_id = dst.id;
        let mut listener = netsim::tcp::TcpListener::bind(&dst, 7000);
        let reader = sim::spawn(async move {
            let mut stream = listener.accept().await.expect("accept");
            let mut sink = Vec::with_capacity(PAYLOAD);
            for _ in 0..3 {
                sink.clear();
                stream.read_exact_into(PAYLOAD, &mut sink).await.expect("read");
            }
        });
        let mut stream = netsim::tcp::connect(&src, dst_id, 7000).await.expect("connect");
        let payload = vec![0xEEu8; PAYLOAD];
        for _ in 0..2 {
            stream.write_all(&payload).await.expect("warm-up write");
        }
        let before: u64 = allocs_by_class().iter().sum();
        stream.write_all(&payload).await.expect("measured write");
        let allocs = allocs_by_class().iter().sum::<u64>() - before;
        reader.await.expect("reader");
        allocs
    });
    assert!(allocs <= 4, "a warm 1 MiB TCP send allocated {allocs} times (budget 4)");
}

// ---------------------------------------------------------------------------
// The planes the Fig 10/11 loop does not reach.
// ---------------------------------------------------------------------------

/// One RDMA consumer drains a partition preloaded through the Fig 10/11
/// loop; the broker serves no fetch. The first [`WARMUP`] records pay for
/// the connection, the access grant and the fetch buffers. Measured 1.1071
/// polls and 0.2776 allocations per record (1110 in 3998: the `Vec` each
/// data-carrying `poll` returns). Delivered records are views of a pooled
/// chunk; decoding each into an owned `Record` (a `Vec` per batch and per
/// value) read 2.2769, and 2.5533 while `fetch` appended each data read to
/// the partial-batch buffer through `ShmBuf::read_at` — a `to_vec` of the
/// whole read, 1105 of them here — instead of straight from the registered
/// buffer.
#[test]
fn rdma_consume_catchup_per_record() {
    let opts = ProduceOpts::new(SystemKind::KafkaDirect, ProducerMode::RdmaExclusive, RECORD_BYTES);
    let rt = sim::Runtime::new();
    let (cluster, mut consumer, warm) = rt.block_on(async move {
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("client");
        let mut producer =
            AnyProducer::connect(cluster.system, &node, leader, "bench", 0, opts.mode).await;
        let record = Record::value(vec![0x5Au8; RECORD_BYTES]);
        producer.send_windowed(&record, WARMUP + RECORDS, WINDOW).await;
        let mut consumer = RdmaConsumer::connect(&node, leader, "bench", 0, 0)
            .await
            .expect("consumer");
        let mut warm = 0;
        while warm < WARMUP {
            warm += consumer.poll().await.expect("poll").len();
        }
        (cluster, consumer, warm)
    });
    let rest = WARMUP + RECORDS - warm;

    let start = Mark::take(&rt);
    let consumer = rt.block_on(async move {
        let mut seen = 0;
        while seen < rest {
            seen += consumer.poll().await.expect("poll").len();
        }
        assert_eq!(seen, rest, "the partition holds more than was produced");
        consumer
    });
    let r = Region::since(&start, &rt, rest as u64);
    rt.block_on(async move {
        drop(consumer);
        drop(cluster);
    });
    r.check_polls("rdma_consume", 1.125);
    r.check_allocs("rdma_consume", 0.30);
}

/// A fully replicated RDMA produce: 3 brokers, RF 3, push replication, one
/// exclusive producer at window 1 (every `send` waits for its acks=all
/// acknowledgment). Measured 0.148 allocations (74 in 500; 1.148 with an ack
/// channel allocated per record) and 32.0 polls
/// per record: one event per term of the §5.1 cost model on the commit path
/// — CQ poll, request-queue hand-over, worker charge — at the leader and
/// both followers, plus the NIC engine's deliveries and completions, the
/// push loops and their collectors (DESIGN.md §10 has the per-task table).
/// With the hand-off as three pieces (stage task, permit wake, wake-up
/// sleep) and the pollers' and the ack task's wake-then-sleep pairs it was
/// 42.0 polls: ten more, one per piece per broker plus the producer's.
#[test]
fn replicated_rdma_produce_polls_per_record() {
    const WARMUP: u8 = 32;
    const RECORDS: u64 = 500;

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
    let start = Mark::take(&rt);
    let cluster = rt.block_on(async move {
        let record = Record::value(vec![7; 512]);
        for i in 0..RECORDS {
            assert_eq!(producer.send(&record).await.unwrap(), u64::from(WARMUP) + i);
        }
        cluster
    });
    let r = Region::since(&start, &rt, RECORDS);
    let pushed: u64 = cluster.brokers().iter().map(|b| b.metrics().push_writes).sum();
    assert!(pushed >= 2 * RECORDS, "every record was pushed to both followers");
    r.check_polls("replicated rdma produce", 32.5);
    r.check_allocs("replicated rdma produce", 0.16);
}

// ---------------------------------------------------------------------------
// What a connection holds (DESIGN.md §13).
// ---------------------------------------------------------------------------

const FANIN_PARTITIONS: u32 = 16;
/// Ack receive buffers per fan-in client (the window is 1), as on the ladder
/// in `tests/conn_scaling.rs` and in kdmark's `fanin_2k`.
const FANIN_ACK_DEPTH: usize = 4;

/// A one-broker cluster with the fan-in topic, and its partition leaders. The
/// rings of `registry` are capped and then filled by one client's records,
/// so telemetry of later clients displaces what is there instead of growing.
async fn fanin_cluster(registry: &kdtelem::Registry) -> (SimCluster, Vec<kdwire::BrokerAddr>) {
    registry.set_event_capacity(256);
    let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
    cluster.create_topic("fanin", FANIN_PARTITIONS, 1).await;
    let mut leaders = Vec::new();
    for p in 0..FANIN_PARTITIONS {
        leaders.push(cluster.leader_of("fanin", p).await);
    }
    let mut warm = fanin_client(&cluster, &leaders, 0).await;
    for _ in 0..64 {
        warm.send(&Record::value(vec![0x6b; 128])).await.expect("warm-up send");
    }
    (cluster, leaders)
}

/// Client `i` of the fan-in ladder: a node, a NIC and a shared-mode producer
/// of its own.
async fn fanin_client(cluster: &SimCluster, leaders: &[kdwire::BrokerAddr], i: usize) -> RdmaProducer {
    let node = cluster.add_client_node(&format!("f{i}"));
    let p = i as u32 % FANIN_PARTITIONS;
    let leader = leaders[p as usize];
    RdmaProducer::connect_with_ack_depth(&node, leader, "fanin", p, true, FANIN_ACK_DEPTH)
        .await
        .expect("connect")
}

/// The heap a parked client pins, everything counted: its node and links,
/// NIC, control connection and data-plane QP with their tasks, the producer
/// itself, and what the broker keeps for the two connections. 1000 fan-in
/// clients connect one after the other, send one record each and stay.
/// Measured 9 388 B per client in some 60 blocks, 2 944 B of them the five
/// task frames (DESIGN.md §13 has the table by owner); 152 B of it are the
/// producer's ack-cell pool, one parked cell and its free list, without which
/// it read 9 236. It was 60 741 B while
/// every client owned four 7.6 KiB histogram cells (two links, NIC, producer)
/// nobody read through its handle, an ack reader whose frame held two
/// 64-entry batches across its wait (10.5 KiB, a 16 KiB arena block) and
/// `spawn` wrappers that doubled the frames of tasks nobody joins. The heap is
/// byte-exact and the same in debug and release (a future's layout is fixed
/// before optimisation), so the budget sits 3 % above the measurement.
#[test]
fn parked_client_footprint() {
    const CLIENTS: usize = 1000;
    const BUDGET: i64 = 9_900;
    let registry = kdtelem::Registry::new();
    let _telem = kdtelem::enter(&registry);
    sim::Runtime::new().block_on(async move {
        let (cluster, leaders) = fanin_cluster(&registry).await;
        let mut parked = Vec::with_capacity(CLIENTS);
        let before = live_by_class();
        for i in 1..=CLIENTS {
            let mut producer = fanin_client(&cluster, &leaders, i).await;
            producer.send(&Record::value(vec![0x6b; 128])).await.expect("send");
            parked.push(producer);
        }
        let after = live_by_class();
        let held: Vec<(usize, i64, i64)> = (0..CLASSES)
            .map(|c| (c, after[c].0 - before[c].0, after[c].1 - before[c].1))
            .filter(|&(_, blocks, bytes)| blocks != 0 || bytes != 0)
            .collect();
        let per_client = held.iter().map(|&(_, _, bytes)| bytes).sum::<i64>() / CLIENTS as i64;
        let rows: Vec<String> = held
            .iter()
            .map(|(c, blocks, bytes)| format!("[2^{c}, 2^{}) B: {blocks} blocks, {bytes} B", c + 1))
            .collect();
        assert!(
            per_client <= BUDGET,
            "a parked fan-in client holds {per_client} B of heap, budget {BUDGET}; live heap of \
             {CLIENTS} clients by size class: {}",
            rows.join("; ")
        );
        drop(parked);
    });
}

/// The registry's instrument vectors are O(names x owners), not
/// O(connections ever made): a connection's CQs, NIC and producer record
/// into cells their fabric or an earlier handle of the name registered, so
/// connecting, reconnecting and going away register nothing. Before, every
/// `setup_data_plane` appended six cells that outlived its CQs — a leak on
/// each reconnect, and a per-tick cost for the series sampler.
#[test]
fn registry_does_not_grow_per_connection() {
    let registry = kdtelem::Registry::new();
    let _telem = kdtelem::enter(&registry);
    let cells = {
        let registry = registry.clone();
        move || {
            let (mut counters, mut gauges, mut histograms) = (0, 0, 0);
            registry.fold_counters(|_, _| counters += 1);
            registry.fold_gauges(|_, _, _| gauges += 1);
            registry.fold_histograms(|_, _| histograms += 1);
            (counters, gauges, histograms)
        }
    };
    sim::Runtime::new().block_on(async move {
        let (cluster, leaders) = fanin_cluster(&registry).await;
        let node = cluster.add_client_node("client");
        let record = Record::value(vec![0x6b; 128]);
        let connect = || RdmaProducer::connect(&node, leaders[0], "fanin", 0, true);

        let mut after_one = None;
        for cycle in 0..100 {
            let mut producer = connect().await.expect("connect");
            producer.send(&record).await.expect("send");
            drop(producer);
            let after_one = *after_one.get_or_insert_with(&cells);
            assert_eq!(cells(), after_one, "connect/send/drop cycle {cycle} registered cells");
        }

        // A crashed data plane is redialled by the next send.
        let mut producer = connect().await.expect("connect");
        let before = cells();
        for _ in 0..20 {
            producer.crash();
            producer.send(&record).await.expect("send over a fresh data plane");
        }
        assert_eq!(cells(), before, "reconnecting the data plane registered cells");
    });
}
