//! Segment images reach `Log::recover` after a crash: the live buffers of a
//! memory log, or what a tiered log's files hold
//! (`FileStore::durable_snapshot`). Whatever the bytes, recovery never
//! panics and allocates at most `C` bytes per image byte plus `K`. What it
//! keeps is a prefix of what was committed — or, when a valid batch from
//! another log was spliced in, batches that all verify at offsets dense
//! from the first base — and the log it leaves takes appends. A tiered
//! log's adopted files hold exactly the recovered memory's committed bytes.
//! Recovery never reads the index sidecars (only
//! `FileStore::read_index_sidecar` does), so they are not fuzzed here.

mod common;

use std::rc::Rc;

use common::allocated;
use common::batches::{arb_batch, reseal, set_u32, COUNT_AT, LENGTH_AT};
use kdbuf::ShmBuf;
use kdstorage::record::{decode_batch, RecordView};
use kdstorage::{FileStore, Log, LogConfig, StorageConfig, SyncMode};
use sim::rng::SimRng;

/// Bytes recovery may allocate per image byte: a batch takes at least 47
/// bytes and costs a 24-byte index entry, a tiered segment its file state.
const C: usize = 1;

/// Bytes recovery may allocate whatever the image.
const K: usize = 1024;

/// Seeded mutation rounds.
const ROUNDS: u32 = 20_000;

fn config() -> LogConfig {
    LogConfig {
        segment_size: 4096,
        max_batch_size: 2048,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("kdstore-hostile-{tag}-{}", std::process::id()))
}

/// Every record a log holds up to its log end, read through its own
/// batches: each must decode, at offsets dense from 0.
fn records(log: &Log) -> Vec<RecordView> {
    log.set_high_watermark(log.next_offset());
    let mut out = Vec::new();
    let mut offset = 0;
    while offset < log.next_offset() {
        let f = log.read_from(offset, 1 << 20, true);
        let mut at = 0;
        while at < f.bytes.len() {
            let batch = decode_batch(&f.bytes[at..]).expect("a recovered batch decodes");
            let h = kdstorage::verify_batch(&f.bytes[at..]).expect("and verifies");
            assert_eq!(h.base_offset, out.len() as u64, "dense offsets");
            out.extend(batch);
            at += h.total_len();
        }
        offset = f.next_offset;
    }
    out
}

/// A log that crashed: its surviving image, what it had committed, and
/// the `(position, length)` of every batch in each segment's image.
struct Crashed {
    image: Vec<(u64, Vec<u8>)>,
    committed: Vec<RecordView>,
    batches: Vec<Vec<(usize, usize)>>,
}

fn crashed(rng: &mut SimRng, tiered: bool, dir: &std::path::Path) -> Crashed {
    let sync = [SyncMode::Never, SyncMode::PerCommit, SyncMode::EveryMs(1)][rng.below(3) as usize];
    let log = if tiered {
        let store = FileStore::create(dir, &StorageConfig::tiered(dir).with_sync(sync)).unwrap();
        Log::with_store(config(), Rc::new(store))
    } else {
        Log::new(config())
    };
    for _ in 0..24 + rng.below(24) {
        log.append_batch(&arb_batch(rng)).unwrap();
        if rng.random_bool(0.2) {
            log.sync_all();
        }
    }
    let image = match log.store() {
        Some(store) => store.durable_snapshot(),
        None => (0..log.segment_count())
            .map(|i| log.segment(i).unwrap())
            .map(|s| (s.base_offset(), s.read(0, s.capacity())))
            .collect(),
    };
    let batches = image
        .iter()
        .map(|(_, bytes)| {
            let mut spans = Vec::new();
            let mut at = 0;
            while let Ok(h) = kdstorage::verify_batch(&bytes[at..]) {
                spans.push((at, h.total_len()));
                at += h.total_len();
            }
            spans
        })
        .collect();
    Crashed {
        image,
        committed: records(&log),
        batches,
    }
}

/// Mutates one segment of `image` in place. Returns true when a valid batch
/// from `donor` was spliced in.
fn mutate(rng: &mut SimRng, c: &Crashed, image: &mut [(u64, Vec<u8>)], donor: &Crashed) -> bool {
    let s = rng.below(image.len() as u64) as usize;
    let seg = &mut image[s].1;
    let spans = &c.batches[s];
    let end = spans.last().map_or(0, |&(at, len)| at + len);
    // Where a batch starts, or where the next one would.
    let boundary = |rng: &mut SimRng| {
        let i = rng.below(spans.len() as u64 + 1) as usize;
        spans.get(i).map_or(end, |&(at, _)| at)
    };
    let used = (end + 64).min(seg.len());
    match rng.below(5) {
        0 => {
            for _ in 0..=rng.below(2) {
                let i = rng.below(used as u64) as usize;
                seg[i] ^= 1 << rng.below(8);
            }
        }
        1 => {
            let from = rng.below(used as u64) as usize;
            seg[from..].fill(0);
        }
        2 => {
            let at = boundary(rng);
            let length = match rng.below(3) {
                0 => u32::MAX - rng.below(16) as u32,
                1 => rng.next_u32(),
                _ => rng.below(4096) as u32,
            };
            if at + 12 <= seg.len() {
                set_u32(&mut seg[at..], LENGTH_AT, length);
                reseal(&mut seg[at..]);
            }
        }
        3 => {
            let at = boundary(rng);
            let count = match rng.below(2) {
                0 => u32::MAX - rng.below(16) as u32,
                _ => rng.next_u32(),
            };
            if at + 47 <= seg.len() {
                set_u32(&mut seg[at..], COUNT_AT, count);
                reseal(&mut seg[at..]);
            }
        }
        _ => {
            let ds = rng.below(donor.image.len() as u64) as usize;
            let spans = &donor.batches[ds];
            let Some(&(from, len)) = spans.get(rng.below(spans.len().max(1) as u64) as usize)
            else {
                return false;
            };
            let at = boundary(rng);
            if at + len > seg.len() {
                return false;
            }
            seg[at..at + len].copy_from_slice(&donor.image[ds].1[from..from + len]);
            return true;
        }
    }
    false
}

#[test]
fn recovery_survives_mutated_segment_images() {
    let mut rng = SimRng::seed_from_u64(0x27BA_0002);
    let origin = temp_dir("origin");
    let pool: Vec<Crashed> = (0..16)
        .map(|i| {
            let c = crashed(&mut rng, i % 2 == 1, &origin);
            assert!(c.image.len() >= 2, "the log must span segments");
            c
        })
        .collect();
    let dir = temp_dir("recovered");
    let (mut spliced, mut shortened) = (0u32, 0u32);
    for round in 0..ROUNDS {
        let which = rng.below(pool.len() as u64) as usize;
        let c = &pool[which];
        let donor = &pool[(which + 1 + rng.below(pool.len() as u64 - 1) as usize) % pool.len()];
        let mut image = c.image.clone();
        let splice = mutate(&mut rng, c, &mut image, donor);
        let image_bytes: usize = image.iter().map(|(_, b)| b.len()).sum();
        let parts: Vec<(u64, ShmBuf)> = image
            .into_iter()
            .map(|(base, b)| (base, ShmBuf::from_vec(b)))
            .collect();
        let tiered = rng.below(4) == 0;
        let store =
            tiered.then(|| Rc::new(FileStore::create(&dir, &StorageConfig::tiered(&dir)).unwrap()));

        let (log, bytes) = allocated(|| Log::recover(config(), store.clone(), parts));
        assert!(
            bytes <= C * image_bytes + K,
            "round {round}: recovering {image_bytes} bytes allocated {bytes}"
        );

        let got = records(&log);
        if splice {
            spliced += 1;
        } else {
            assert!(got.len() <= c.committed.len(), "round {round}");
            assert_eq!(
                got[..],
                c.committed[..got.len()],
                "round {round}: not a prefix"
            );
            shortened += u32::from(got.len() < c.committed.len());
        }
        if let Some(store) = &store {
            for (i, (_, file)) in store.durable_snapshot().iter().enumerate() {
                let seg = log.segment(i as u32).unwrap();
                let n = seg.committed_pos();
                assert_eq!(
                    file[..n as usize],
                    seg.read(0, n)[..],
                    "round {round}: segment {i}"
                );
                assert!(
                    file[n as usize..].iter().all(|&b| b == 0),
                    "round {round}: segment {i}"
                );
            }
        }
        let end = log.next_offset();
        let info = log
            .append_batch(&arb_batch(&mut rng))
            .expect("recovered log takes appends");
        assert_eq!(info.base_offset, end, "round {round}");
    }
    assert!(spliced > ROUNDS / 20, "{spliced} rounds spliced a batch");
    assert!(shortened > ROUNDS / 4, "{shortened} rounds lost records");
    std::fs::remove_dir_all(&origin).ok();
    std::fs::remove_dir_all(&dir).ok();
}
