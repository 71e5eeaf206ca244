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
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::task::{Poll, Waker};
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
    // The allocation-site profile (`fanin_connect_allocation_sites`): off
    // unless a test turns it on.
    static SITES: Sites = const {
        Sites { on: Cell::new(false), busy: Cell::new(false), traces: RefCell::new(Vec::new()) }
    };
}

/// A backtrace of each allocation this thread makes while `on`. The capture
/// allocates too: while it runs (`busy`) nothing is counted or captured.
struct Sites {
    on: Cell<bool>,
    busy: Cell<bool>,
    traces: RefCell<Vec<Backtrace>>,
}

/// True while this thread captures an allocation site.
fn in_site_hook() -> bool {
    SITES.try_with(|s| s.busy.get()).unwrap_or(false)
}

/// Captures where the allocation being counted was made, if the profile is
/// on.
fn capture_site() {
    let _ = SITES.try_with(|s| {
        if s.on.get() {
            s.busy.set(true);
            let trace = Backtrace::force_capture();
            s.traces.borrow_mut().push(trace);
            s.busy.set(false);
        }
    });
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
    if in_site_hook() {
        return;
    }
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down, when there is no test left to count for.
    let class = class_of(size);
    let _ = ALLOCS.try_with(|c| c[class].set(c[class].get() + 1));
    live(class, 1, size as i64);
    capture_site();
}

fn live(class: usize, blocks: i64, bytes: i64) {
    if in_site_hook() {
        return;
    }
    let _ = LIVE.try_with(|c| {
        let (n, b) = c[class].get();
        c[class].set((n + blocks, b + bytes));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` and `live` only touch
// thread-local cells, and what the site capture allocates re-enters them
// only to return at once.
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
    reparks: [u64; REPARK_KINDS],
}

/// `sim::sync::wait_list::KINDS`: the kinds of wait list a re-park (a
/// re-poll that leaves a waiter parked) is counted under.
const REPARK_KINDS: usize = sim::sync::wait_list::KINDS.len();

/// Re-parks are exact: a wake that does nothing, added or removed, moves
/// one of them.
fn check_reparks(what: &str, got: [u64; REPARK_KINDS], expected: [u64; REPARK_KINDS]) {
    let named = |counts: [u64; REPARK_KINDS]| -> Vec<(&str, u64)> {
        sim::sync::wait_list::KINDS
            .into_iter()
            .zip(counts)
            .collect()
    };
    let (got, expected) = (named(got), named(expected));
    assert_eq!(got, expected, "{what}: re-parks by wait-list kind");
}

impl Mark {
    fn take(rt: &sim::Runtime) -> Mark {
        Mark {
            polls: rt.poll_count(),
            by_class: allocs_by_class(),
            now: rt.now(),
            reparks: sim::sync::wait_list::reparks(),
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
    /// Re-parks, by wait-list kind.
    reparks: [u64; REPARK_KINDS],
}

impl Region {
    fn since(start: &Mark, rt: &sim::Runtime, records: u64) -> Region {
        let end = Mark::take(rt);
        Region {
            records,
            polls: end.polls - start.polls,
            by_class: std::array::from_fn(|i| end.by_class[i] - start.by_class[i]),
            virtual_ns: (end.now - start.now).as_nanos() as u64,
            reparks: std::array::from_fn(|i| end.reparks[i] - start.reparks[i]),
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
    opts.cluster.broker.storage = storage;
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
    r.check_polls("rdma_exclusive", 2.525);
    r.check_allocs("rdma_exclusive", 0.05);
    check_reparks("rdma_exclusive", r.reparks, [0; REPARK_KINDS]);
    assert_eq!(
        r.virtual_ns, 20_776_198,
        "rdma_exclusive: the virtual timeline moved"
    );
}

/// The same loop at kdmark's `produce_large` shape: 2000 records of 32 KiB.
/// A worker verifies each for ~50 µs, so the commit turn is where the other
/// API workers wait. Measured 6.479 polls and 0.0775 allocations per record
/// (12 958 and 155 in 2000); while a turn was a counter and a broadcast `Notify` that woke every
/// worker parked on the file, all but one to park again, 9.381 polls.
#[test]
fn rdma_exclusive_large_produce_per_record() {
    let (system, mode) = (SystemKind::KafkaDirect, ProducerMode::RdmaExclusive);
    let (r, _) = produce(system, mode, None, None, 2_000, 32 * 1024);
    r.check_polls("rdma_exclusive_large", 6.61);
    r.check_allocs("rdma_exclusive_large", 0.079);
    assert_eq!(
        r.virtual_ns, 30_285_986,
        "rdma_exclusive_large: the virtual timeline moved"
    );
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
    let storage = kdstorage::StorageConfig::tiered(&dir).with_sync(kdstorage::SyncMode::EveryMs(5));
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
    assert_eq!(
        r.virtual_ns, 20_776_198,
        "rdma_tiered: the virtual timeline moved"
    );
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
        let verify =
            cpu.api_produce_base + netsim::profile::copy_time(batch_len, cpu.crc_bandwidth);
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
                let mut producer = RdmaProducer::connect(&node, leader, "t", partition, false)
                    .await
                    .unwrap();
                for _ in 0..64 {
                    producer.send(&record).await.unwrap();
                }
            }
        });
        let after = allocs_by_class();
        (MIB_CLASS..CLASSES)
            .map(|c| after[c] - before[c])
            .sum::<u64>()
    };
    // Six — 2 partitions x 3 replicas, a segment each — unless this thread
    // already ran a cluster (`--test-threads=1`) and parked some.
    assert!(
        large_allocs() <= 6,
        "the first cluster allocates its segments and nothing else"
    );
    assert_eq!(
        large_allocs(),
        0,
        "the second cluster allocated in the >= 1 MiB classes"
    );
}

/// Kafka produce RPCs over TCP. Measured 10.0085 polls and 0.0123
/// allocations per record (49 in 4000, some runs one more — the one count
/// here that is not exact); the task-per-hop RPC plane needed 21.0 / 10.0,
/// the three-piece hand-off 14.0 polls, and 12.0085 / 4.0135 while the reply
/// writer slept its network thread before the write, a pipelined send's task
/// woke only to sleep its client-side cost, and each request's topic was a
/// fresh `Rc<str>` (DESIGN.md §10). Restoring either sleep is one more poll
/// per record. 3.0122 allocations (12 049) while each pipelined send's
/// `JoinHandle` made its own completion cell and the broker decoded each
/// request owned, its topic into a `String` and its batch into a `Vec`
/// (DESIGN.md §10 "One TCP produce, hop by hop"): any one of the three back
/// is +1.0 per record. No waiter of any kind is woken to park again: zero
/// re-parks.
#[test]
fn tcp_produce_per_record() {
    let (r, _) = produce(
        SystemKind::Kafka,
        ProducerMode::Rpc,
        None,
        None,
        RECORDS,
        RECORD_BYTES,
    );
    r.check_polls("tcp", 10.25);
    r.check_allocs("tcp", 0.0125);
    check_reparks("tcp", r.reparks, [0; REPARK_KINDS]);
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
    assert!(
        samples >= 400,
        "only {samples} samples in {} virtual ns",
        sampled.virtual_ns
    );
    assert_eq!(
        sampled.virtual_ns, base.virtual_ns,
        "sampling moved the virtual timeline"
    );
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
                stream
                    .read_exact_into(PAYLOAD, &mut sink)
                    .await
                    .expect("read");
            }
        });
        let mut stream = netsim::tcp::connect(&src, dst_id, 7000)
            .await
            .expect("connect");
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
    assert!(
        allocs <= 4,
        "a warm 1 MiB TCP send allocated {allocs} times (budget 4)"
    );
}

// ---------------------------------------------------------------------------
// The planes the Fig 10/11 loop does not reach.
// ---------------------------------------------------------------------------

/// One RDMA consumer drains a partition preloaded through the Fig 10/11
/// loop; the broker serves no fetch. The first [`WARMUP`] records pay for
/// the connection, the access grant and the fetch buffers. Measured 0.5543
/// polls per record (2216 in 3998; 0.8307 while each data read's CRC + copy
/// was a sleep after the read's completion, a second event, and 1.1071
/// while the NIC engine spent a poll surfacing each read's CQE) and 0.00075
/// allocations (3 in 3998, none of them the consumer's: the runtime call's
/// start, an executor queue, and the broker revoking the grants of the
/// producer dropped before the region; `warm_rdma_consumer_polls_allocate_nothing`
/// counts the consumer alone). It read 0.2776 (1110) while each poll
/// collected its records into a fresh `Vec`, before a poll's batch
/// (`kdclient::Polled`) handed its vector back to the consumer on drop.
/// Delivered records are views of a pooled chunk; decoding each into an
/// owned `Record` (a `Vec` per batch and per value) read 2.2769, and 2.5533
/// while `fetch` appended each data read to the partial-batch buffer
/// through `ShmBuf::read_at` — a `to_vec` of the whole read, 1105 of them
/// here — instead of straight from the registered buffer.
#[test]
fn rdma_consume_catchup_per_record() {
    let opts = ProduceOpts::new(
        SystemKind::KafkaDirect,
        ProducerMode::RdmaExclusive,
        RECORD_BYTES,
    );
    let rt = sim::Runtime::new();
    let (cluster, mut consumer, warm) = rt.block_on(async move {
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("client");
        let mut producer =
            AnyProducer::connect(cluster.system, &node, leader, "bench", 0, opts.mode).await;
        let record = Record::value(vec![0x5Au8; RECORD_BYTES]);
        producer
            .send_windowed(&record, WARMUP + RECORDS, WINDOW)
            .await;
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
    r.check_polls("rdma_consume", 0.57);
    r.check_allocs("rdma_consume", 0.001);
    check_reparks("rdma_consume", r.reparks, [0; REPARK_KINDS]);
}

/// A warm RDMA consumer's polls allocate nothing: each batch's vector comes
/// back to the consumer when the batch drops, records are views of pooled
/// chunks, and the read buffers are the consumer's own. 2 000 records of a
/// preloaded partition, read after 500 that warmed the consumer; counted
/// while the consumer's polls run, not while the NIC engine or the broker
/// do (the engine files CQE wakes into timer-wheel slots, and a slot's
/// first use grows its `Vec`). The trace ring is sized to fill during the
/// warm-up: one still growing toward its 65 536 events would be counted
/// against the poll whose event grew it.
#[test]
fn warm_rdma_consumer_polls_allocate_nothing() {
    const RECORDS: usize = 2000;
    let opts = ProduceOpts::new(
        SystemKind::KafkaDirect,
        ProducerMode::RdmaExclusive,
        RECORD_BYTES,
    );
    sim::Runtime::new().block_on(async move {
        kdtelem::current().set_event_capacity(4096);
        let cluster = setup(&opts).await;
        let leader = cluster.leader_of("bench", 0).await;
        let node = cluster.add_client_node("client");
        let mut producer =
            AnyProducer::connect(cluster.system, &node, leader, "bench", 0, opts.mode).await;
        let record = Record::value(vec![0x5Au8; RECORD_BYTES]);
        producer
            .send_windowed(&record, WARMUP + RECORDS, WINDOW)
            .await;
        let mut consumer = RdmaConsumer::connect(&node, leader, "bench", 0, 0)
            .await
            .expect("consumer");
        let mut seen = 0;
        while seen < WARMUP {
            seen += consumer.poll().await.expect("poll").len();
        }
        let reads = consumer.stats.data_reads;
        let allocs = {
            let mut polls = std::pin::pin!(async {
                while seen < WARMUP + RECORDS {
                    seen += consumer.poll().await.expect("poll").len();
                }
            });
            let mut allocs = 0;
            std::future::poll_fn(|cx| {
                let before: u64 = allocs_by_class().iter().sum();
                let polled = std::future::Future::poll(polls.as_mut(), cx);
                allocs += allocs_by_class().iter().sum::<u64>() - before;
                polled
            })
            .await;
            allocs
        };
        assert_eq!(
            allocs,
            0,
            "{} warm data reads allocated",
            consumer.stats.data_reads - reads
        );
        drop((consumer, producer));
        drop(cluster);
    });
}

/// A fully replicated RDMA produce: 3 brokers, RF 3, push replication, one
/// exclusive producer at window 1 (every `send` waits for its acks=all
/// acknowledgment). Measured 0.134 allocations (67 in 500; 0.148 while the
/// producer was dropped inside the region and its QP close grew its CQ by
/// the 512 flushed ack receives, 1.148 with an ack channel allocated per
/// record) and 26.0 polls per record: one event per term of the §5.1 cost model on the commit path
/// — CQ poll, request-queue hand-over, worker charge — at the leader and
/// both followers, plus the NIC engine's deliveries, the push loops and
/// their write-completion collectors (DESIGN.md §10 has the per-task
/// table; `poll_sites` prints it). It was 27.0 while the producer's ack
/// reader woke for each ack before the sender did, 30.0 while the producer slept its dispatch chain after
/// the ack's wake and each push session had a second collector, woken by
/// every credit return (one per record per follower); 32.0 while the engine
/// spent a poll surfacing each push write's CQE (two per record); and 42.0
/// with the hand-off as three pieces (stage task, permit wake, wake-up
/// sleep) and the pollers' and the ack task's wake-then-sleep pairs: ten
/// more, one per piece per broker plus the producer's. Re-parks: none (a
/// poller armed for a CQE another poller drained first would be one on a
/// CQ); 1 000 on a `Frontier`, two per record, while each push session's
/// write-completion collector re-polled its QP's disconnect wait at every
/// completion's wake.
#[test]
fn replicated_rdma_produce_polls_per_record() {
    let (r, _) = replicated_produce(false);
    r.check_polls("replicated rdma produce", 24.5);
    check_reparks("replicated rdma produce", r.reparks, [0; REPARK_KINDS]);
    r.check_allocs("replicated rdma produce", 0.137);
}

/// The scenario of `replicated_rdma_produce_polls_per_record`, its measured
/// region, and — if `poll_sites` — that region's polls by spawn site.
fn replicated_produce(poll_sites: bool) -> (Region, Vec<(sim::Site, u64)>) {
    const WARMUP: u8 = 32;
    const RECORDS: u64 = 500;

    let rt = sim::Runtime::new();
    let (cluster, mut producer) = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 3);
        cluster.create_topic("t", 1, 3).await;
        let node = cluster.add_client_node("producer");
        let leader = cluster.leader_of("t", 0).await;
        let mut producer = RdmaProducer::connect(&node, leader, "t", 0, false)
            .await
            .unwrap();
        // Sessions, grants and pools are set up by the first records.
        for i in 0..WARMUP {
            producer.send(&Record::value(vec![i; 512])).await.unwrap();
        }
        (cluster, producer)
    });
    let start = Mark::take(&rt);
    let (producer, by_site) = rt.block_on(async move {
        if poll_sites {
            sim::count_polls_by_site();
        }
        let record = Record::value(vec![7; 512]);
        for i in 0..RECORDS {
            assert_eq!(producer.send(&record).await.unwrap(), u64::from(WARMUP) + i);
        }
        (producer, sim::take_polls_by_site())
    });
    let r = Region::since(&start, &rt, RECORDS);
    let pushed: u64 = cluster
        .brokers()
        .iter()
        .map(|b| b.metrics().push_writes)
        .sum();
    assert!(
        pushed >= 2 * RECORDS,
        "every record was pushed to both followers"
    );
    // Closing the QP flushes the ack receives into the producer's CQ: that
    // is teardown, outside the measured region.
    rt.block_on(async move {
        drop(producer);
        drop(cluster);
    });
    (r, by_site)
}

/// kdmark `pubsub_repl` in small: a pipelined producer at its mean rate
/// (one record per 12.5 µs, sent in pairs 4 µs apart) into an RF 3
/// partition, and an `RdmaConsumer` tailing it; 500 records after a
/// window-1 warm-up that both sides read. Polls are exact: 15 185 over the
/// region (30.370 per record), in 7 352 618 ns of virtual time, as before. They were
/// 16 433, with 748 CQ re-parks, while a poller armed for a CQE the other
/// poller drained first was woken to find the CQ empty, and while a push
/// loop woken by the log end then slept its post cost (500 wakes: the first
/// record of each pair). Allocations: 1.438 per record (719 in 500), about
/// one of them the 500 ack cells the scenario holds until its end, which
/// the ack pool grows by; 2.438 while each consumer poll collected its
/// records into a fresh `Vec`.
#[test]
fn pipelined_replicated_produce_and_tail_polls() {
    let (r, _) = pipelined_replicated_produce(false);
    r.check_allocs("pipelined replicated produce and tail", 1.46);
    assert_eq!(
        (r.polls, r.virtual_ns),
        (15_185, 7_352_618),
        "pipelined replicated produce and tail: executor polls or virtual time moved"
    );
    check_reparks(
        "pipelined replicated produce and tail",
        r.reparks,
        [0; REPARK_KINDS],
    );
}

/// The scenario of `pipelined_replicated_produce_and_tail_polls`, its
/// measured region, and — if `poll_sites` — that region's polls by spawn
/// site.
fn pipelined_replicated_produce(poll_sites: bool) -> (Region, Vec<(sim::Site, u64)>) {
    const WARMUP: u64 = 32;
    const RECORDS: u64 = 500;
    // In pairs: the second record of a pair lands within a poller's
    // wake-up of the first.
    const GAPS: [Duration; 2] = [Duration::from_micros(21), Duration::from_micros(4)];

    let rt = sim::Runtime::new();
    let (cluster, producer, consumer) = rt.block_on(async {
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 3);
        cluster.create_topic("t", 1, 3).await;
        let leader = cluster.leader_of("t", 0).await;
        let (pnode, cnode) = (
            cluster.add_client_node("producer"),
            cluster.add_client_node("consumer"),
        );
        let mut producer = RdmaProducer::connect(&pnode, leader, "t", 0, false)
            .await
            .unwrap();
        let mut consumer = RdmaConsumer::connect(&cnode, leader, "t", 0, 0)
            .await
            .unwrap();
        for i in 0..WARMUP {
            producer
                .send(&Record::value(vec![i as u8; 512]))
                .await
                .unwrap();
        }
        let mut read = 0;
        while read < WARMUP {
            read += consumer.poll().await.unwrap().len() as u64;
        }
        (cluster, producer, consumer)
    });
    let start = Mark::take(&rt);
    let (producer, consumer, by_site) = rt.block_on(async move {
        let (mut producer, mut consumer) = (producer, consumer);
        if poll_sites {
            sim::count_polls_by_site();
        }
        let tail = sim::spawn(async move {
            let mut next = WARMUP;
            while next < WARMUP + RECORDS {
                for r in consumer.poll().await.unwrap() {
                    assert_eq!(r.offset, next);
                    next += 1;
                }
            }
            consumer
        });
        let record = Record::value(vec![7; 512]);
        let mut acks = Vec::with_capacity(RECORDS as usize);
        for gap in GAPS.iter().cycle().take(RECORDS as usize) {
            sim::time::sleep(*gap).await;
            acks.push(producer.send_pipelined(&record).await.unwrap());
        }
        for (i, ack) in (WARMUP..).zip(acks) {
            assert_eq!(ack.await, Ok((kdwire::ErrorCode::None, i)));
        }
        let consumer = tail.await.unwrap();
        (producer, consumer, sim::take_polls_by_site())
    });
    let r = Region::since(&start, &rt, RECORDS);
    rt.block_on(async move {
        drop((producer, consumer));
        drop(cluster);
    });
    (r, by_site)
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
        warm.send(&Record::value(vec![0x6b; 128]))
            .await
            .expect("warm-up send");
    }
    (cluster, leaders)
}

/// Client `i` of the fan-in ladder: a node, a NIC and a shared-mode producer
/// of its own.
async fn fanin_client(
    cluster: &SimCluster,
    leaders: &[kdwire::BrokerAddr],
    i: usize,
) -> RdmaProducer {
    let node = cluster.add_client_node(&format!("f{i}"));
    let p = i as u32 % FANIN_PARTITIONS;
    let leader = leaders[p as usize];
    RdmaProducer::connect_with_ack_depth(&node, leader, "fanin", p, true, FANIN_ACK_DEPTH)
        .await
        .expect("connect")
}

/// The live heap this thread added since `before`: its bytes, and the
/// blocks and bytes by size class that a failure prints.
fn held_since(before: &[(i64, i64); CLASSES]) -> (i64, String) {
    let after = live_by_class();
    let held: Vec<(usize, i64, i64)> = (0..CLASSES)
        .map(|c| (c, after[c].0 - before[c].0, after[c].1 - before[c].1))
        .filter(|&(_, blocks, bytes)| blocks != 0 || bytes != 0)
        .collect();
    let rows: Vec<String> = held
        .iter()
        .map(|(c, blocks, bytes)| format!("[2^{c}, 2^{}) B: {blocks} blocks, {bytes} B", c + 1))
        .collect();
    (
        held.iter().map(|&(_, _, bytes)| bytes).sum(),
        rows.join("; "),
    )
}

/// What the clients of [`park_fanin_clients`] added.
struct Parked {
    /// Their live heap, as [`held_since`] gives it.
    held: (i64, String),
    allocs: u64,
    /// Executor polls, theirs and the broker's.
    polls: u64,
    /// A backtrace of each allocation, if asked for.
    traces: Vec<Backtrace>,
    /// Polls by spawn site, if asked for.
    poll_sites: Vec<(sim::Site, u64)>,
    /// Re-parks, by wait-list kind, theirs and the broker's.
    reparks: [u64; REPARK_KINDS],
}

/// What [`park_fanin_clients`] attributes to call sites. Either costs
/// allocations of its own.
#[derive(Clone, Copy, PartialEq)]
enum Attribute {
    Nothing,
    Allocations,
    Polls,
}

/// The scenario of the tests below: `clients` fan-in clients connect one
/// after the other, send `sends` records each at window 1 and stay.
fn park_fanin_clients(clients: usize, sends: usize, attribute: Attribute) -> Parked {
    let registry = kdtelem::Registry::new();
    let _telem = kdtelem::enter(&registry);
    let rt = sim::Runtime::new();
    let (cluster, leaders) = rt.block_on(async move { fanin_cluster(&registry).await });
    let (polls, reparks) = (rt.poll_count(), sim::sync::wait_list::reparks());
    let (held, allocs, traces, poll_sites, kept) = rt.block_on(async move {
        let mut parked = Vec::with_capacity(clients);
        let (before, allocs) = (live_by_class(), allocs_by_class());
        SITES.with(|s| s.on.set(attribute == Attribute::Allocations));
        if attribute == Attribute::Polls {
            sim::count_polls_by_site();
        }
        for i in 1..=clients {
            let mut producer = fanin_client(&cluster, &leaders, i).await;
            for _ in 0..sends {
                let record = Record::value(vec![0x6b; 128]);
                producer.send(&record).await.expect("send");
            }
            parked.push(producer);
        }
        let held = held_since(&before);
        let after = allocs_by_class();
        SITES.with(|s| s.on.set(false));
        let traces = SITES.with(|s| s.traces.take());
        let allocs = (0..CLASSES).map(|c| after[c] - allocs[c]).sum();
        let poll_sites = sim::take_polls_by_site();
        (held, allocs, traces, poll_sites, (cluster, parked))
    });
    let polls = rt.poll_count() - polls;
    let after = sim::sync::wait_list::reparks();
    let reparks = std::array::from_fn(|i| after[i] - reparks[i]);
    rt.block_on(async move { drop(kept) });
    Parked {
        held,
        allocs,
        polls,
        traces,
        poll_sites,
        reparks,
    }
}

/// The heap a parked client pins, everything counted: its node and links,
/// NIC, control connection and data-plane QP with their tasks, the producer
/// itself, and what the broker keeps for the two connections. 1000 fan-in
/// clients connect one after the other, send one record each and stay.
/// Measured 6 889 B per client (DESIGN.md §13 has the table by owner). It
/// read 6 872 B while the staging buffer was its first batch's exact size,
/// not the power of two a larger later record would grow it to, and while
/// small task frames, topic names and a QP's two CQs were blocks of their
/// own. It read 7 306 B while every producer spawned an ack
/// reader at connect and made the ack-cell pool it answers through, with a
/// parked cell: a window-1 client reads its own ack. It read 7 282 B while a oneshot cell's receive charge was a 16 B enum
/// where it is now a 32 B `sim::sync::wait_list::Arm` (and the broker's
/// reply stage 8 B smaller), 8 585 B while each CQ grew a 320 B ring at its first CQE, each
/// TCP pipe a 128 B chunk queue at its first chunk, the broker's reply stage
/// a 512 B heap at its first reply, and the RPC client a map at its first
/// call (each now holds its first entry inline), and 9 063 B while a TCP connection kept two
/// pipes, two window semaphores and two receive buffers apart, a producer
/// generation three `Rc`s and an 8 B FAA result buffer, and a CQ its one QP
/// in a vector, and 9 192 B earlier than that; 9 160 B before a oneshot cell carried a 16 B receive charge (two
/// cells here), 9 451 B while each of a client's task slots allocated a 32 B
/// `Arc` for its waker and kept a `Waker` beside its task. It was 60 741 B while
/// every client owned four 7.6 KiB histogram cells (two links, NIC, producer)
/// nobody read through its handle, an ack reader whose frame held two
/// 64-entry batches across its wait (10.5 KiB, a 16 KiB arena block) and
/// `spawn` wrappers that doubled the frames of tasks nobody joins. The heap is
/// byte-exact and the same in debug and release (a future's layout is fixed
/// before optimisation), so the budget sits 2 % above the measurement.
#[test]
fn parked_client_footprint() {
    const CLIENTS: usize = 1000;
    const BUDGET: i64 = 7_009;
    let (held, rows) = park_fanin_clients(CLIENTS, 1, Attribute::Nothing).held;
    let per_client = held / CLIENTS as i64;
    assert!(
        per_client <= BUDGET,
        "a parked fan-in client holds {per_client} B of heap, budget {BUDGET}; live heap of \
         {CLIENTS} clients by size class: {rows}"
    );
}

/// What a connect allocates: the allocations per window-1 shared-mode
/// producer of the `parked_client_footprint` scenario — its connect and its
/// first send, everything counted. Measured 23.447 per client; the budget is
/// 2 % above (`fanin_connect_allocation_sites` names the lines). It was
/// 30.280 while the executor allocated a block per small task frame where
/// it now carves a 16 KiB slab (four per client, three of them the
/// broker's), the broker decoded each request's topic into a `String` and
/// the producer kept one in its `ProduceAccess` request (both now a
/// `kdwire::TopicName`, inline up to 22 bytes), and a QP's two CQs were two
/// allocations; 33.282 while every producer spawned an ack reader at connect and made an
/// ack-cell pool and its first cell, 34.282 while `RNic::connect` allocated a oneshot cell for its reply
/// (now one of its fabric's recycled cells), 48.283 while the per-connection queues a window-1 client holds one entry
/// in grew from empty at their first one (two CQ rings, two TCP chunk
/// queues, two oneshot free lists, the producer's ack waiters and staging
/// buffers, the RPC client's calls, the broker's reply stage), each side
/// read its frames' payloads into a growing `Vec`, and the broker's reply
/// frame grew field by field (3 allocations); 62.281 while a TCP connection built two pipes, two
/// window semaphores and two receive buffers, a producer generation three
/// `Rc`s and an 8 B FAA result buffer, a CQ a vector for its one QP, and the
/// first staging buffer grew from empty (kdmark's `fanin_2k` read 7.479
/// allocations per record then, 5.711 next, 3.961, 3.836, 3.461 and 2.501
/// since).
#[test]
fn fanin_client_connect_allocations() {
    const CLIENTS: usize = 1000;
    const BUDGET: f64 = 23.92;
    let allocs = park_fanin_clients(CLIENTS, 1, Attribute::Nothing).allocs;
    let per_client = allocs as f64 / CLIENTS as f64;
    assert!(
        per_client <= BUDGET,
        "a fan-in client's connect and first send made {per_client:.3} allocations, budget {BUDGET}"
    );
}

/// What a connect costs the executor: every poll of the
/// `parked_client_footprint` scenario, client and broker side, exactly. It
/// was 30 006 while every producer's ack reader parked at connect and woke
/// for the ack before the sender did: two polls per client.
#[test]
fn fanin_client_polls() {
    const CLIENTS: usize = 1000;
    const POLLS: u64 = 28_005;
    let parked = park_fanin_clients(CLIENTS, 1, Attribute::Nothing);
    let per_client = parked.polls as f64 / CLIENTS as f64;
    let what = format!("{CLIENTS} fan-in clients' connects and first sends");
    assert_eq!(parked.polls, POLLS, "{what}: {per_client:.3} polls each");
    check_reparks(&what, parked.reparks, [0; REPARK_KINDS]);
}

/// Where a connect allocates (DESIGN.md §10's owner table), in two
/// scenarios, with a backtrace of every allocation:
/// - the scenario of `fanin_client_connect_allocations`, 200 clients one
///   after the other, one send each;
/// - kdmark `fanin_2k`'s measured region in its shape
///   ([`fanin_2k_region`]): 2 000 clients connecting concurrently within
///   1 ms, 8 sends each, whose total per client reads what kdmark's
///   `allocs_per_record` times 8 does.
///
/// Each prints allocations per client by the workspace source line that
/// made them and that line's nearest workspace caller; a task block (the
/// executor's arena placing a spawned future, or refilling a slab for it)
/// by the line that spawned the task, its `sim::Site`; and the scenario's
/// own allocations apart. A report, not a gate; run it with
/// `cargo test --release -p kdbench --test budgets -- --ignored --nocapture fanin_connect_allocation_sites`.
#[test]
#[ignore]
fn fanin_connect_allocation_sites() {
    const CLIENTS: usize = 200;
    let Parked { allocs, traces, .. } = park_fanin_clients(CLIENTS, 1, Attribute::Allocations);
    assert_eq!(traces.len() as u64, allocs, "one backtrace per allocation");
    print_sites(
        &format!("{CLIENTS} clients one after the other, 1 send each"),
        traces,
        CLIENTS,
    );
    let (allocs, traces) = fanin_2k_region(true);
    assert_eq!(traces.len() as u64, allocs, "one backtrace per allocation");
    print_sites(
        &format!("kdmark fanin_2k's region: {FANIN_2K_CLIENTS} clients within 1 ms, {FANIN_2K_SENDS} sends each"),
        traces,
        FANIN_2K_CLIENTS,
    );
}

const FANIN_2K_CLIENTS: usize = 2000;
const FANIN_2K_SENDS: usize = 8;

/// kdmark `fanin_2k`'s measured region at seed 1, as kdmark builds it
/// (`benchmark/src/workloads/fanin.rs`): a fresh one-broker cluster with 16
/// shared partitions and a node per client made beforehand; the region
/// spawns a joined task per client that sleeps to its seeded start inside
/// 1 ms, connects at ack depth 4 and sends 8 records of 96..=160 B at
/// window 1, then joins them in order. Its allocations, and a backtrace of
/// each if `traced`.
fn fanin_2k_region(traced: bool) -> (u64, Vec<Backtrace>) {
    const TOPIC: &str = "kdmark";
    let registry = kdtelem::Registry::new();
    let _telem = kdtelem::enter(&registry);
    let rt = sim::Runtime::with_seed(1);
    let (cluster, leaders, nodes, start_ns, pool) = rt.block_on(async {
        // kdmark's draws: the record pool, then the start instants.
        let mut rng = sim::rng::SimRng::seed_from_u64(1);
        let pool: Vec<Record> = (0..1024)
            .map(|_| {
                let mut payload = vec![0u8; 96 + rng.below(65) as usize];
                rng.fill(&mut payload);
                Record::value(payload)
            })
            .collect();
        let start_ns: Vec<u64> = (0..FANIN_2K_CLIENTS)
            .map(|_| rng.below(1_000_000))
            .collect();
        let cluster = SimCluster::start(SystemKind::KafkaDirect, 1);
        cluster.create_topic(TOPIC, FANIN_PARTITIONS, 1).await;
        let mut leaders = Vec::new();
        for p in 0..FANIN_PARTITIONS {
            leaders.push(cluster.leader_of(TOPIC, p).await);
        }
        let nodes: Vec<_> = (0..FANIN_2K_CLIENTS)
            .map(|i| cluster.add_client_node(&format!("c{i}")))
            .collect();
        (cluster, leaders, nodes, start_ns, Rc::new(pool))
    });
    let allocs = allocs_by_class();
    SITES.with(|s| s.on.set(traced));
    let producers = rt.block_on(async move {
        let mut tasks = Vec::with_capacity(FANIN_2K_CLIENTS);
        for (i, node) in nodes.into_iter().enumerate() {
            let partition = i as u32 % FANIN_PARTITIONS;
            let leader = leaders[partition as usize];
            let (pool, delay) = (Rc::clone(&pool), Duration::from_nanos(start_ns[i]));
            tasks.push(sim::spawn(async move {
                sim::time::sleep(delay).await;
                let mut producer = RdmaProducer::connect_with_ack_depth(
                    &node,
                    leader,
                    TOPIC,
                    partition,
                    true,
                    FANIN_ACK_DEPTH,
                )
                .await
                .expect("fan-in connect");
                let mut acked = Vec::with_capacity(FANIN_2K_SENDS);
                for seq in i * FANIN_2K_SENDS..(i + 1) * FANIN_2K_SENDS {
                    acked.push(producer.send(&pool[seq % pool.len()]).await.ok());
                }
                (producer, acked)
            }));
        }
        let mut producers = Vec::new();
        for task in tasks {
            let (producer, acked) = task.await.expect("client task");
            assert!(acked.iter().all(Option::is_some), "every send acked");
            producers.push(producer);
        }
        producers
    });
    SITES.with(|s| s.on.set(false));
    let after = allocs_by_class();
    let allocs = (0..CLASSES).map(|c| after[c] - allocs[c]).sum();
    let traces = SITES.with(|s| s.traces.take());
    rt.block_on(async move { drop((producers, cluster)) });
    (allocs, traces)
}

/// Prints `traces` as allocations per client by site (see
/// [`fanin_connect_allocation_sites`]), most first.
fn print_sites(what: &str, traces: Vec<Backtrace>, clients: usize) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let total = traces.len();
    let (mut blocks, mut harness) = (0, 0);
    let mut by_site = std::collections::BTreeMap::<(String, String), u64>::new();
    for trace in traces {
        let frames = workspace_frames(&format!("{trace:?}"), root);
        let in_sim = |(_, at): &&(String, String)| at.starts_with("crates/sim/src/");
        let placed = frames
            .iter()
            .take_while(in_sim)
            .any(|(f, at)| at.starts_with("crates/sim/src/executor.rs:") && f.starts_with("place"));
        let key = match frames.first() {
            _ if placed => {
                blocks += 1;
                let site = frames.iter().find(|f| !in_sim(f)).map(|(_, at)| at);
                ("task block".into(), site.cloned().unwrap_or_default())
            }
            Some((_, at)) if at.starts_with("tests/") => {
                harness += 1;
                (format!("(scenario) {at}"), String::new())
            }
            Some((_, site)) => {
                let caller = frames.iter().map(|(_, at)| at).find(|at| *at != site);
                (site.clone(), caller.cloned().unwrap_or_default())
            }
            None => ("(outside the workspace)".into(), String::new()),
        };
        *by_site.entry(key).or_default() += 1;
    }
    let per_client = |n: usize| n as f64 / clients as f64;
    println!(
        "{what}: {:.3} allocations per client: {:.3} task blocks, {:.3} the scenario's own, \
         {:.3} the rest",
        per_client(total),
        per_client(blocks),
        per_client(harness),
        per_client(total - blocks - harness),
    );
    let mut rows: Vec<_> = by_site.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for ((site, caller), n) in rows {
        println!("{:>8.3}  {site}  <- {caller}", per_client(n as usize));
    }
}

/// Where the polls go (DESIGN.md §10): executor polls per record by the
/// site of the `sim::spawn*` or `block_on` call that made the polled task,
/// for the fan-in scenario at kdmark `fanin_2k`'s shape (window-1 clients
/// that connect and send 8 records each, here 200 of them one after the
/// other) and for `replicated_rdma_produce_polls_per_record`'s region. A
/// report, not a gate; run it with
/// `cargo test --release -p kdbench --test budgets -- --ignored --nocapture poll_sites`.
#[test]
#[ignore]
fn poll_sites() {
    const CLIENTS: usize = 200;
    const SENDS: usize = 8;
    let print = |what: &str, records: u64, rows: &[(sim::Site, u64)]| {
        let per_record = rows.iter().map(|(_, p)| p).sum::<u64>() as f64 / records as f64;
        println!("{what}: {per_record:.3} polls per record");
        for (site, p) in rows {
            let per_record = *p as f64 / records as f64;
            println!("{per_record:>10.3}  {}:{}", site.file(), site.line());
        }
    };
    let fanin = park_fanin_clients(CLIENTS, SENDS, Attribute::Polls);
    let what = format!("fan-in, {CLIENTS} clients x {SENDS} records");
    print(&what, (CLIENTS * SENDS) as u64, &fanin.poll_sites);
    let (r, rows) = replicated_produce(true);
    print("replicated rdma produce", r.records, &rows);
    let (r, rows) = pipelined_replicated_produce(true);
    print("pipelined replicated produce and tail", r.records, &rows);
}

/// The function and `file:line` of each frame of a backtrace's `Debug` text
/// that lies in the workspace at `root`, innermost first, relative to it,
/// from the allocator's caller on. A relative file is this crate's.
fn workspace_frames(trace: &str, root: &str) -> Vec<(String, String)> {
    let normal = |path: &str| {
        let mut parts: Vec<&str> = Vec::new();
        for part in path.split('/') {
            match part {
                ".." => drop(parts.pop()),
                "." | "" => {}
                part => parts.push(part),
            }
        }
        parts.join("/")
    };
    let root = normal(root);
    let frames: Vec<&str> = trace.split("{ fn: \"").skip(1).collect();
    // The counting allocator's frames: up to `count`, then its entries.
    let entry = frames.iter().rposition(|f| f.starts_with("count\""));
    let allocator = ["alloc", "alloc_zeroed", "realloc"];
    frames[entry.map_or(0, |at| at + 1)..]
        .iter()
        .filter_map(|frame| {
            let function = frame.split('"').next()?;
            if allocator.contains(&function) || function.starts_with("__rust_") {
                return None;
            }
            let file = frame.split("file: \"").nth(1)?.split('"').next()?;
            let line = frame
                .split("line: ")
                .nth(1)?
                .split(|c: char| !c.is_ascii_digit())
                .next()?;
            let file = match file.starts_with('/') {
                true => normal(file),
                false => normal(&format!("{}/{file}", env!("CARGO_MANIFEST_DIR"))),
            };
            let file = file.strip_prefix(&root)?.trim_start_matches('/');
            Some((function.to_string(), format!("{file}:{line}")))
        })
        .collect()
}

/// A joined task's future is stored once. 1 000 tasks each park a future
/// of some 5 000 B across a sleep. Measured 8 386 B per task: the executor's
/// 8 KiB arena block and 194 B of slot, oneshot cell and handle (8 377 B
/// before a slot kept its spawn site, 8 361 B while the cell's receive charge was a 16 B enum, not a 32 B `Arm`;
/// 8 345 B before the cell carried a receive charge, 8 394 B while each slot
/// also allocated an `Arc` for its waker); the budget
/// leaves 200 B beside the block (256 B while the waker `Arc`s were there).
/// A `spawn` wrapper written as `async move { let out = future.await; .. }`
/// laid the future out twice, as captured variable and as awaitee, and took
/// a 16 KiB block per task.
#[test]
fn joined_task_frame_is_stored_once() {
    const TASKS: usize = 1000;
    const FRAME: usize = 5_000;
    const BUDGET: i64 = 8 * 1024 + 200;
    sim::Runtime::new().block_on(async {
        let before = live_by_class();
        let mut handles = Vec::with_capacity(TASKS);
        for i in 0..TASKS {
            let task = async move {
                let frame = [i as u8; FRAME];
                sim::time::sleep(Duration::from_micros(1)).await;
                std::hint::black_box(&frame)[FRAME - 1]
            };
            let size = std::mem::size_of_val(&task);
            assert!((4096..8192).contains(&size), "a {size} B future");
            handles.push(sim::spawn(task));
        }
        sim::time::yield_now().await;
        let (held, rows) = held_since(&before);
        let per_task = held / TASKS as i64;
        assert!(
            per_task <= BUDGET,
            "a parked joined task holds {per_task} B of heap, budget {BUDGET}; live heap of \
             {TASKS} tasks by size class: {rows}"
        );
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.await, Ok(i as u8));
        }
    });
}

/// A wake is a queue push. A waker is an integer — its runtime's tag and
/// its task's id — so cloning, waking and dropping one allocates nothing:
/// 100 000 of each here, over 1 000 parked tasks that take a clone of their
/// waker at every poll, once a first round has grown the ready queue.
#[test]
fn wakers_allocate_nothing() {
    const TASKS: usize = 1000;
    const ROUNDS: usize = 100;
    sim::Runtime::new().block_on(async {
        let wakers: Rc<RefCell<Vec<Option<Waker>>>> = Rc::new(RefCell::new(vec![None; TASKS]));
        for i in 0..TASKS {
            let wakers = Rc::clone(&wakers);
            sim::spawn_detached(std::future::poll_fn(move |cx| {
                wakers.borrow_mut()[i] = Some(cx.waker().clone());
                Poll::<()>::Pending
            }));
        }
        let round = || async {
            for waker in wakers.borrow().iter() {
                let waker = waker.clone().expect("every task parked");
                waker.wake_by_ref();
                drop(waker);
            }
            // Every woken task runs before the root does again.
            sim::time::yield_now().await;
        };
        sim::time::yield_now().await;
        round().await;
        let before = allocs_by_class();
        for _ in 0..ROUNDS {
            round().await;
        }
        let after = allocs_by_class();
        let allocs: u64 = (0..CLASSES).map(|c| after[c] - before[c]).sum();
        assert_eq!(
            allocs,
            0,
            "{} waker clones, wakes and drops allocated",
            TASKS * ROUNDS
        );
    });
}

/// A joined spawn allocates nothing in a warm runtime: its future takes a
/// recycled arena block, and its completion cell comes from the runtime's
/// pool for its output type, back there once the join has returned. 1 000
/// rounds of a `spawn` + `await` and a `spawn_at` + `await` here, 64 ns of
/// virtual time apart, made 2 000 allocations (one cell per join) while
/// each joined task made its own `oneshot::channel`. The warm-up runs
/// rounds until the clock passes 2^18 ns (262 µs), a full turn of the timer
/// wheel's level of 4 µs slots, so every wheel slot a `spawn_at` files its
/// timer in here has held one before.
#[test]
fn warm_joined_spawns_allocate_nothing() {
    const WARM_NS: u64 = 1 << 18;
    const ROUNDS: u64 = 1000;
    sim::Runtime::new().block_on(async {
        let round = |i: u64| async move {
            assert_eq!(sim::spawn(async move { i + 1 }).await, Ok(i + 1));
            let start = sim::now() + Duration::from_nanos(64);
            assert_eq!(sim::spawn_at(start, async move { i + 2 }).await, Ok(i + 2));
        };
        while sim::now().as_nanos() <= WARM_NS {
            round(0).await;
        }
        let before = allocs_by_class();
        for i in 0..ROUNDS {
            round(i).await;
        }
        let after = allocs_by_class();
        let allocs: u64 = (0..CLASSES).map(|c| after[c] - before[c]).sum();
        assert_eq!(allocs, 0, "{ROUNDS} rounds of joined spawns allocated");
    });
}

/// A charge rides its wake. A charged receive is one timer armed by the
/// send, so 10 000 round trips — a responder task sends on each pooled
/// channel 100 ns after the receiver parks, and the receiver returns 200 ns
/// after that — allocate nothing. The warm-up runs rounds until the clock
/// passes 2^24 ns (16.8 ms), a full turn of the timer wheel's level of
/// 262 µs slots: every wheel slot the 3 ms measured here file a timer in
/// has held one before, and so has the pool cell.
#[test]
fn charged_round_trips_allocate_nothing() {
    const WARM_NS: u64 = 1 << 24;
    const ROUNDS: u64 = 10_000;
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let pool = Rc::new(sim::sync::oneshot::Pool::<u64>::new());
        let parked: Rc<Cell<Option<sim::sync::oneshot::Sender<u64>>>> = Rc::default();
        let responder = Rc::clone(&parked);
        sim::spawn_detached(async move {
            loop {
                sim::time::sleep(Duration::from_nanos(100)).await;
                if let Some(tx) = responder.take() {
                    let _ = tx.send(sim::now().as_nanos());
                }
            }
        });
        let round = async || {
            let (tx, rx) = pool.channel();
            parked.set(Some(tx));
            let sent = rx.charged(Duration::from_nanos(200)).await.expect("sent");
            assert_eq!(
                sim::now().as_nanos(),
                sent + 200,
                "returned at send + charge"
            );
        };
        while sim::now().as_nanos() < WARM_NS {
            round().await;
        }
        let before = allocs_by_class();
        for _ in 0..ROUNDS {
            round().await;
        }
        let after = allocs_by_class();
        let allocs: u64 = (0..CLASSES).map(|c| after[c] - before[c]).sum();
        assert_eq!(allocs, 0, "{ROUNDS} charged round trips allocated");
    });
}

/// A turn wakes its owner. Two waiters take alternate turns on one
/// `sim::sync::Frontier` — one parked inline in its wait list, one behind it
/// — and each of 10 000 advances wakes the one it passed, which parks again
/// for its next turn: once warm, nothing allocates.
#[test]
fn frontier_rounds_allocate_nothing() {
    const ROUNDS: u64 = 10_000;
    sim::Runtime::new().block_on(async {
        let turn = Rc::new(sim::sync::Frontier::default());
        let taken = Rc::new(Cell::new(0u64));
        for first in [1, 2] {
            let (turn, taken) = (Rc::clone(&turn), Rc::clone(&taken));
            sim::spawn_detached(async move {
                for next in (first..).step_by(2) {
                    turn.reached(next).await;
                    taken.set(taken.get() + 1);
                }
            });
        }
        let round = async |value: u64| {
            sim::time::yield_now().await;
            turn.advance_to(value);
        };
        for value in 1..=100 {
            round(value).await;
        }
        let before = allocs_by_class();
        for value in 101..=100 + ROUNDS {
            round(value).await;
        }
        let after = allocs_by_class();
        sim::time::yield_now().await;
        assert_eq!(
            taken.get(),
            100 + ROUNDS,
            "every advance handed a turn over"
        );
        let allocs: u64 = (0..CLASSES).map(|c| after[c] - before[c]).sum();
        assert_eq!(allocs, 0, "{ROUNDS} park/advance rounds allocated");
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
            assert_eq!(
                cells(),
                after_one,
                "connect/send/drop cycle {cycle} registered cells"
            );
        }

        // A crashed data plane is redialled by the next send.
        let mut producer = connect().await.expect("connect");
        let before = cells();
        for _ in 0..20 {
            producer.crash();
            producer
                .send(&record)
                .await
                .expect("send over a fresh data plane");
        }
        assert_eq!(
            cells(),
            before,
            "reconnecting the data plane registered cells"
        );
    });
}
