//! `kdstorage`: log append, CRC, batch decode, and the file-backed tier.

use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

use kdstorage::record::{decode_batch, single_record_batch};
use kdstorage::{FileStore, Log, LogConfig, Record, StorageConfig, SyncMode};

use super::ns_per_call;

fn config(segment_size: u32) -> LogConfig {
    LogConfig {
        segment_size,
        max_batch_size: 1024 * 1024 + 4096,
    }
}

/// Appends `count` copies of `batch` to a fresh in-memory log.
fn append_run(batch: &[u8], count: usize) {
    let log = Log::new(config(32 * 1024 * 1024));
    for _ in 0..count {
        log.append_batch(std::hint::black_box(batch))
            .expect("append");
    }
    std::hint::black_box(log.next_offset());
}

pub fn run(budget: Duration, out_dir: &Path, out: &mut Vec<(&'static str, f64)>) {
    let small = single_record_batch(7, &Record::value(vec![0x11u8; 512]));
    let large = single_record_batch(7, &Record::value(vec![0x22u8; 32 * 1024]));
    out.push((
        "kdstorage.append_ns_per_record",
        ns_per_call(budget, || append_run(&small, 2_000)) / 2_000.0,
    ));
    out.push((
        "kdstorage.append_ns_per_kib",
        // 512 x 32 KiB = 16 MiB: stays inside one segment.
        ns_per_call(budget, || append_run(&large, 512)) / (512.0 * large.len() as f64 / 1024.0),
    ));
    let data = vec![0xABu8; 64 * 1024];
    out.push((
        "kdstorage.crc_ns_per_kib",
        ns_per_call(budget, || {
            std::hint::black_box(kdstorage::crc32c::crc32c(std::hint::black_box(&data)));
        }) / 64.0,
    ));
    out.push((
        "kdstorage.decode_ns_per_record",
        ns_per_call(budget, || {
            std::hint::black_box(decode_batch(std::hint::black_box(&small)).expect("decode"));
        }),
    ));

    // File tier: 64 x 64 KiB batches into 1 MiB segments, every sealed
    // segment evicted, then the whole log read back cold. No end-to-end
    // workload runs this store; the numbers are a before/after for a
    // change to it.
    let dir = out_dir.join(format!("kdmark-filestore-{}", std::process::id()));
    let batch = single_record_batch(7, &Record::value(vec![0x33u8; 64 * 1024]));
    let kib_per_pass = 64.0 * batch.len() as f64 / 1024.0;
    let build = |evict: bool| {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("file-store directory");
        let cfg = StorageConfig::tiered(&dir).with_sync(SyncMode::Never);
        let store = Rc::new(FileStore::create(&dir, &cfg).expect("file store"));
        let log = Log::with_store(config(1024 * 1024), store);
        for _ in 0..64 {
            log.append_batch(&batch).expect("file append");
        }
        log.set_high_watermark(log.next_offset());
        log.sync_all();
        if evict {
            for i in 0..log.head_index() {
                assert!(log.evict_segment(i), "segment {i} must evict");
            }
        }
        log
    };
    out.push((
        "kdstorage.file_append_ns_per_kib",
        ns_per_call(budget, || {
            std::hint::black_box(build(false).next_offset());
        }) / kib_per_pass,
    ));
    let log = build(true);
    let end = log.next_offset();
    let mut sink = Vec::new();
    out.push((
        "kdstorage.cold_read_ns_per_kib",
        ns_per_call(budget, || {
            let mut offset = 0;
            while offset < end {
                let (_, next) = log.read_from_into(offset, 256 * 1024, true, &mut sink);
                assert!(next > offset, "cold read stalled at {offset}");
                offset = next;
            }
        }) / kib_per_pass,
    ));
    drop(log);
    std::fs::remove_dir_all(&dir).ok();
}
