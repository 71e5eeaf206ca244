//! Seeded property test for the file-backed tier: rotation + eviction +
//! sparse-index lookups round-trip under randomized workloads.
//!
//! For each seed: append batches of random record counts/sizes into a
//! tiered log with small segments (forcing rotation), and randomly evict
//! sealed segments (forcing cold reads through the sparse index) and page
//! some back in. Invariants:
//! * every committed offset is readable, in order, with the offsets the
//!   commit assigned;
//! * the sparse-index sidecars of sealed segments parse and are monotonic.

use std::rc::Rc;

use kdstorage::record::{decode_batch, BatchBuilder, Record};
use kdstorage::{FileStore, Log, LogConfig, StorageConfig, SyncMode};
use sim::rng::SimRng;

fn temp_dir(seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("kdstore-prop-{}-{}", seed, std::process::id()))
}

fn random_batch(rng: &mut SimRng, tag: &mut u64) -> (Vec<u8>, u32) {
    let records = 1 + rng.below(5) as u32;
    let size = 16 + rng.below(220) as usize;
    let mut out = Vec::new();
    let mut b = BatchBuilder::begin(7, &mut out);
    for _ in 0..records {
        // Tag every record with a global sequence number so reads can be
        // checked for order and identity, not just count.
        let mut v = vec![0u8; size];
        v[..8].copy_from_slice(&tag.to_le_bytes());
        *tag += 1;
        b.append(&Record::value(v));
    }
    b.finish().unwrap();
    (out, records)
}

fn check_seed(seed: u64) {
    let dir = temp_dir(seed);
    std::fs::remove_dir_all(&dir).ok();
    let cfg = StorageConfig::tiered(&dir).with_sync(SyncMode::PerCommit);
    let store = FileStore::create(&dir, &cfg).unwrap();
    let log = Log::with_store(
        LogConfig {
            segment_size: 2048,
            max_batch_size: 1536,
        },
        Rc::new(store),
    );

    let mut rng = SimRng::seed_from_u64(seed ^ 0x5705_9EED);
    let mut tag = 0u64;
    // offset -> sequence tag of the record committed there.
    let mut expected: Vec<u64> = Vec::new();
    for _ in 0..200 {
        let (bytes, records) = random_batch(&mut rng, &mut tag);
        let info = log.append_batch(&bytes).expect("append");
        assert_eq!(info.base_offset, expected.len() as u64, "dense offsets");
        for i in 0..records {
            expected.push(tag - u64::from(records - i));
        }
        log.set_high_watermark(log.next_offset());
        // Randomly spill sealed segments to the cold tier.
        if rng.random_bool(0.3) {
            let idx = rng.below(u64::from(log.head_index().max(1))) as u32;
            log.evict_segment(idx);
        }
        // Occasionally page one back in.
        if rng.random_bool(0.1) {
            let idx = rng.below(u64::from(log.head_index().max(1))) as u32;
            log.restore_segment(idx);
        }
    }
    let end = log.next_offset();
    assert_eq!(end, expected.len() as u64);
    assert!(
        (0..log.head_index()).any(|i| !log.segment(i).unwrap().is_resident()),
        "some reads must go through the file tier"
    );

    // Every offset is readable in order with the right payload — mixing hot
    // segments, evicted (sparse-index file reads), and the head.
    let mut out = Vec::new();
    let mut offset = 0;
    let mut max_bytes = 700; // small cap: many reads, exercises resume
    while offset < end {
        let (start_off, next) = log.read_from_into(offset, max_bytes, true, &mut out);
        assert!(start_off <= offset, "reads start at a batch boundary");
        assert!(next > offset, "progress at offset {offset} (seed {seed})");
        let mut at = 0;
        let mut have = start_off;
        while at < out.len() {
            let h = kdstorage::verify_batch(&out[at..]).unwrap();
            assert_eq!(h.base_offset, have);
            for (i, r) in decode_batch(&out[at..]).unwrap().enumerate() {
                let o = have + i as u64;
                if o >= offset && o < end {
                    let got = u64::from_le_bytes(r.record.value[..8].try_into().unwrap());
                    assert_eq!(got, expected[o as usize], "offset {o} (seed {seed})");
                }
            }
            have = h.last_offset() + 1;
            at += h.total_len();
        }
        assert_eq!(have, next);
        offset = next;
        max_bytes = 700 + (offset % 900) as u32; // vary the cap
    }

    // Sidecars of sealed segments parse and are monotonic.
    assert!(log.head_index() >= 1, "the log must have rolled");
    for i in 0..log.head_index() {
        let path = dir.join(format!("segment-{i:05}.index"));
        let (base, entries) = FileStore::read_index_sidecar(&path).unwrap();
        assert_eq!(base, log.segment(i).unwrap().base_offset());
        assert_eq!(entries[0].1, 0, "first entry points at segment start");
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotation_eviction_and_sparse_index_round_trip() {
    for seed in [3, 7, 11, 19, 42, 101, 555, 9001] {
        check_seed(seed);
    }
}

/// The recovered image of a tiered log equals its durable prefix: recovery
/// from the snapshot must reproduce exactly the synced batches, and adopt
/// must leave the new file tier byte-identical to the recovered memory.
#[test]
fn recovery_round_trips_durable_snapshot() {
    for seed in [5u64, 23, 77] {
        let dir = temp_dir(seed.wrapping_mul(31));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StorageConfig::tiered(&dir).with_sync(SyncMode::Never);
        let store = FileStore::create(&dir, &cfg).unwrap();
        let log = Log::with_store(
            LogConfig {
                segment_size: 2048,
                max_batch_size: 1536,
            },
            Rc::new(store),
        );
        let mut rng = SimRng::seed_from_u64(seed);
        let mut tag = 0u64;
        let mut synced_end = 0u64;
        for step in 0..60 {
            let (bytes, _) = random_batch(&mut rng, &mut tag);
            log.append_batch(&bytes).unwrap();
            if step % 7 == 6 {
                log.sync_all();
                synced_end = log.next_offset();
            }
        }
        // Sealed segments flushed at seal; the head only to its last sync.
        let sealed_end = log.segment(log.head_index() - 1).map(|s| s.next_offset());
        let parts = log
            .store()
            .unwrap()
            .durable_snapshot()
            .into_iter()
            .map(|(b, v)| (b, kdbuf::ShmBuf::from_vec(v)))
            .collect();
        let dir2 = dir.with_extension("recovered");
        std::fs::remove_dir_all(&dir2).ok();
        let store2 = FileStore::create(&dir2, &cfg).unwrap();
        let recovered = Log::recover(log.config().clone(), Some(Rc::new(store2)), parts);
        let expect = synced_end.max(sealed_end.unwrap_or(0));
        assert_eq!(recovered.next_offset(), expect, "seed {seed}");
        // The adopted file tier is fully synced to the recovered frontier.
        for i in 0..recovered.segment_count() {
            assert_eq!(
                recovered.store().unwrap().synced_pos(i),
                recovered.segment(i).unwrap().committed_pos()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }
}
