//! Crash-recovery replay must not allocate per surviving batch.
//!
//! `Segment::recover` pre-scans the buffer to size its batch index in one
//! reservation, and `Log::read_from_into` copies batches into a
//! caller-recycled buffer through `Segment::read_into`. A counting global
//! allocator pins both properties: recovery cost is O(segments) allocations
//! regardless of batch count, and a warm fetch buffer makes reads
//! allocation-free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kdstorage::record::single_record_batch;
use kdstorage::{Log, LogConfig, Record};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One-segment log holding `batches` single-record batches.
fn filled_log(batches: usize) -> Log {
    let config = LogConfig {
        segment_size: 1024 * 1024,
        max_batch_size: 4096,
    };
    let log = Log::new(config);
    for i in 0..batches {
        let batch = single_record_batch(7, &Record::value(vec![(i % 251) as u8; 32]));
        log.append_batch(&batch).unwrap();
    }
    log
}

fn surviving_buffers(log: &Log) -> Vec<(u64, kdbuf::ShmBuf)> {
    (0..log.segment_count())
        .map(|i| log.segment(i).unwrap())
        .map(|s| (s.base_offset(), s.shared_buf()))
        .collect()
}

fn measure_recovery(batches: usize) -> (Log, u64) {
    let log = filled_log(batches);
    let config = log.config().clone();
    let buffers = surviving_buffers(&log);
    drop(log);
    let before = allocs();
    let recovered = Log::recover(config, None, buffers);
    let after = allocs();
    assert_eq!(recovered.next_offset(), batches as u64, "replay complete");
    (recovered, after - before)
}

#[test]
fn recovery_replay_does_not_allocate_per_batch() {
    // Warm up thread-local scratch etc. so both measurements see the same
    // steady state.
    let _ = measure_recovery(8);

    let (_small, small_allocs) = measure_recovery(50);
    let (recovered, large_allocs) = measure_recovery(500);

    // 10x the batches may not cost extra allocations: the index is sized by
    // the pre-scan, the scan itself works in place on the surviving buffer.
    assert!(
        large_allocs <= small_allocs,
        "recovery allocations scale with batch count: {small_allocs} allocs \
         for 50 batches vs {large_allocs} for 500"
    );
    // And the absolute cost is a handful of fixed structures (segment Rc,
    // index reservation, segment list), not a per-batch budget.
    assert!(
        large_allocs <= 8,
        "recovery of one segment should allocate O(1) structures, got {large_allocs}"
    );

    // Reads through a recycled buffer are allocation-free once the buffer
    // has warmed to the fetch size.
    recovered.set_high_watermark(recovered.next_offset());
    let mut buf = Vec::new();
    let (_, next) = recovered.read_from_into(0, 1 << 20, true, &mut buf);
    assert_eq!(next, 500);
    assert!(!buf.is_empty());
    let before = allocs();
    let mut offset = 0;
    while offset < 500 {
        let (_, next) = recovered.read_from_into(offset, 1 << 20, true, &mut buf);
        assert!(next > offset);
        offset = next;
    }
    assert_eq!(
        allocs() - before,
        0,
        "warm read_from_into must not allocate"
    );
}
