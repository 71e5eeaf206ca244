//! The file tier: preallocated segment files behind a [`Log`].
//!
//! The paper runs Kafka's logs on tmpfs-backed, preallocated segment files
//! (§4.2.2, Fig 1). A tiered [`Log`] holds a [`FileStore`] and notifies it
//! at the storage-relevant points of its lifecycle — segment creation, batch
//! commit, seal — so the log stays a data structure while the store decides
//! what reaches a file. A log without a store is memory mode: nothing
//! touches a file and nothing is charged.
//!
//! One preallocated segment file per log segment plus a sparse offset index
//! sidecar written at seal. Batches are written to the file only at sync
//! points, so the file content *is* the durable prefix — a machine crash
//! simply never sees the unsynced suffix. Fsync and write latency are
//! modeled, not measured: real file operations complete synchronously, and
//! the accumulated [`IoCharge`] is drained by the broker into
//! `sim::time::sleep`, keeping deterministic replay intact.
//!
//! A write CQE is not an fsync ("the completion fallacy"): sync policy is
//! explicit via [`SyncMode`] and observable through the accumulated
//! [`IoCharge`] (fsync count, flushed bytes) that feeds the `storage.*`
//! metrics.
//!
//! I/O on the store's own files ends in `expect`: the store created and
//! sized every file under a directory it wiped itself, so a failing call
//! means the host is broken, not that a peer sent bad bytes, and the
//! simulation has no story for a half-broken disk. Bytes read back from a
//! file are parsed like any other input.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::record;
use crate::segment::Segment;

/// When committed bytes are made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Flush only when a segment seals (rolls). A crash loses the whole
    /// active segment's unflushed content.
    Never,
    /// A broker-side flusher syncs the active segment every N virtual
    /// milliseconds. A crash loses at most the last interval's commits.
    EveryMs(u64),
    /// Flush + fsync inside every commit: no acked record is ever lost to
    /// a crash (the Kafka `flush.messages=1` regime).
    PerCommit,
}

/// Modeled latency of one fsync (device flush), also charged for creating
/// and extending a segment file. With the two throughputs below, roughly an
/// NVMe device: 50 µs flush, ~3.4 GiB/s write, ~5 GiB/s read.
const FSYNC_NS: u64 = 50_000;
const WRITE_NS_PER_KIB: u64 = 300;
const READ_NS_PER_KIB: u64 = 200;

/// Sparse-index density: one entry every this many committed batches.
const INDEX_INTERVAL: usize = 4;

fn write_cost(bytes: u64) -> u64 {
    bytes * WRITE_NS_PER_KIB / 1024
}

fn read_cost(bytes: u64) -> u64 {
    bytes * READ_NS_PER_KIB / 1024
}

/// Where a broker's segment files live and when they are synced. A broker
/// with one is tiered; a broker without one keeps its logs in memory.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Base directory for segment files. Each broker nests
    /// `node<N>/<topic>-<partition>/` under it.
    pub dir: PathBuf,
    pub sync: SyncMode,
}

impl StorageConfig {
    /// Tiered (file-backed) storage rooted at `dir`, synced every 5 ms.
    pub fn tiered(dir: impl Into<PathBuf>) -> Self {
        StorageConfig {
            dir: dir.into(),
            sync: SyncMode::EveryMs(5),
        }
    }

    pub fn with_sync(mut self, sync: SyncMode) -> Self {
        self.sync = sync;
        self
    }
}

/// Accumulated I/O work since the last drain: modeled latency plus the
/// observable counters behind the `storage.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCharge {
    /// Modeled nanoseconds of file I/O to charge on the virtual clock.
    pub ns: u64,
    /// Bytes written to segment files.
    pub flushed_bytes: u64,
    /// Number of fsyncs issued.
    pub fsyncs: u64,
    /// Segments sealed (rotated) since the last drain.
    pub rotated: u64,
    /// Bytes served from the cold (file) tier.
    pub cold_read_bytes: u64,
}

impl IoCharge {
    pub fn is_zero(&self) -> bool {
        *self == IoCharge::default()
    }
}

/// Outcome of a cold (file-tier) batch-range read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColdRead {
    /// Base offset of the first batch copied out, if any.
    pub start_offset: Option<u64>,
    /// Offset after the last batch copied out.
    pub next_offset: u64,
    /// True when the read hit the offset limit or byte cap — the caller
    /// stops scanning further segments.
    pub done: bool,
}

/// Per-segment durable state.
struct SegState {
    file: File,
    base_offset: u64,
    capacity: u32,
    /// Durable frontier: bytes `[0, synced)` of the segment are in the file.
    synced: Cell<u32>,
    /// Committed batches already considered for the sparse index.
    indexed: Cell<usize>,
    /// Sparse offset index: `(base_offset, byte position)` of every
    /// `INDEX_INTERVAL`-th committed batch. Entry 0 is always present.
    sparse: RefCell<Vec<(u64, u32)>>,
}

/// The file-backed tier: one preallocated segment file (plus a sparse-index
/// sidecar at seal) per log segment, under one directory per partition.
pub struct FileStore {
    dir: PathBuf,
    sync: SyncMode,
    states: RefCell<Vec<SegState>>,
    charge: Cell<IoCharge>,
}

impl FileStore {
    /// Creates a fresh store rooted at `dir`, wiping any stale content from
    /// a previous run (replaying a seed must not see old files).
    pub fn create(dir: impl Into<PathBuf>, cfg: &StorageConfig) -> io::Result<FileStore> {
        let dir = dir.into();
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(FileStore {
            dir,
            sync: cfg.sync,
            states: RefCell::new(Vec::new()),
            charge: Cell::new(IoCharge::default()),
        })
    }

    fn segment_path(&self, index: u32) -> PathBuf {
        self.dir.join(format!("segment-{index:05}.log"))
    }

    fn index_path(&self, index: u32) -> PathBuf {
        self.dir.join(format!("segment-{index:05}.index"))
    }

    fn add_charge(&self, f: impl FnOnce(&mut IoCharge)) {
        let mut c = self.charge.get();
        f(&mut c);
        self.charge.set(c);
    }

    /// Opens segment `index`'s file, preallocated to the segment's full
    /// extent (§4.2.2): unsynced bytes read back as zeros, which the
    /// recovery scan treats as an absent batch.
    fn new_state(&self, index: u32, base_offset: u64, capacity: u32) -> SegState {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.segment_path(index))
            .expect("create segment file");
        file.set_len(u64::from(capacity)).expect("preallocate");
        SegState {
            file,
            base_offset,
            capacity,
            synced: Cell::new(0),
            indexed: Cell::new(0),
            sparse: RefCell::new(Vec::new()),
        }
    }

    /// Advances the sparse index over newly committed batches.
    fn index_new_batches(&self, st: &SegState, seg: &Segment) {
        let total = seg.batch_count();
        let mut sparse = st.sparse.borrow_mut();
        for i in st.indexed.get()..total {
            if i.is_multiple_of(INDEX_INTERVAL) {
                // `i < batch_count()`.
                let b = seg.batch_at(i).expect("indexed batch exists");
                sparse.push((b.base_offset, b.pos));
            }
        }
        st.indexed.set(total);
    }

    /// Writes `[synced, committed)` of `seg` to the file, fsyncs, charges.
    /// The fsync is modeled only: in-process crash recovery reads the
    /// page-cache-backed file bytes either way.
    fn flush_state(&self, st: &SegState, seg: &Segment) {
        let committed = seg.committed_pos();
        let synced = st.synced.get();
        if committed > synced {
            let len = committed - synced;
            seg.with_slice(synced, len, |bytes| {
                st.file
                    .write_all_at(bytes, u64::from(synced))
                    .expect("segment write");
            });
            st.synced.set(committed);
            self.add_charge(|c| {
                c.ns += write_cost(u64::from(len));
                c.flushed_bytes += u64::from(len);
            });
        }
        self.add_charge(|c| {
            c.ns += FSYNC_NS;
            c.fsyncs += 1;
        });
        self.index_new_batches(st, seg);
    }

    /// Persists the sparse index sidecar (`segment-N.index`): a flat list
    /// of big-endian `(u64 offset, u32 pos)` pairs prefixed by the
    /// segment's base offset. Nothing reads it back but
    /// [`read_index_sidecar`](Self::read_index_sidecar): recovery rebuilds
    /// the index from the segment bytes.
    fn write_index_sidecar(&self, index: u32, st: &SegState) {
        let sparse = st.sparse.borrow();
        let mut bytes = Vec::with_capacity(8 + sparse.len() * 12);
        bytes.extend_from_slice(&st.base_offset.to_be_bytes());
        for (off, pos) in sparse.iter() {
            bytes.extend_from_slice(&off.to_be_bytes());
            bytes.extend_from_slice(&pos.to_be_bytes());
        }
        std::fs::write(self.index_path(index), &bytes).expect("write index sidecar");
        self.add_charge(|c| {
            c.ns += write_cost(bytes.len() as u64);
            c.flushed_bytes += bytes.len() as u64;
        });
    }

    /// Parses a sidecar produced by [`write_index_sidecar`] (test/tooling
    /// aid): `(base_offset, entries)`.
    pub fn read_index_sidecar(path: &Path) -> io::Result<(u64, Vec<(u64, u32)>)> {
        let bytes = std::fs::read(path)?;
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "bad sidecar");
        let (base, rest) = bytes.split_first_chunk::<8>().ok_or_else(bad)?;
        let (entries, []) = rest.as_chunks::<12>() else {
            return Err(bad());
        };
        let entries = entries
            .iter()
            .map(|&[o0, o1, o2, o3, o4, o5, o6, o7, p0, p1, p2, p3]| {
                (
                    u64::from_be_bytes([o0, o1, o2, o3, o4, o5, o6, o7]),
                    u32::from_be_bytes([p0, p1, p2, p3]),
                )
            })
            .collect();
        Ok((u64::from_be_bytes(*base), entries))
    }

    /// A new segment `index` was opened with `base_offset`/`capacity`.
    pub(crate) fn on_create(&self, index: u32, base_offset: u64, capacity: u32) {
        let states = &mut *self.states.borrow_mut();
        assert_eq!(states.len(), index as usize, "segments created in order");
        states.push(self.new_state(index, base_offset, capacity));
        self.add_charge(|c| c.ns += FSYNC_NS); // allocate+extend
    }

    /// A batch was committed into segment `index`.
    pub(crate) fn on_commit(&self, index: u32, seg: &Segment) {
        if matches!(self.sync, SyncMode::PerCommit) {
            self.flush(index, seg);
        }
    }

    /// Writes the dirty suffix `[synced, committed)` of segment `index` to
    /// its file and fsyncs.
    pub(crate) fn flush(&self, index: u32, seg: &Segment) {
        self.flush_state(&self.states.borrow()[index as usize], seg);
    }

    /// Segment `index` sealed (the log rolled): final flush + persist the
    /// sparse-index sidecar.
    pub(crate) fn on_seal(&self, index: u32, seg: &Segment) {
        let states = self.states.borrow();
        let st = &states[index as usize];
        self.flush_state(st, seg);
        self.write_index_sidecar(index, st);
        self.add_charge(|c| c.rotated += 1);
    }

    /// Reads back the full durable image of segment `index` (page-in for
    /// RDMA consumers of cold segments). `None` when there is no file.
    pub fn load(&self, index: u32) -> Option<Vec<u8>> {
        let states = self.states.borrow();
        let st = states.get(index as usize)?;
        let mut bytes = vec![0u8; st.capacity as usize];
        st.file.read_exact_at(&mut bytes, 0).expect("segment read");
        self.add_charge(|c| {
            c.ns += read_cost(bytes.len() as u64);
            c.cold_read_bytes += bytes.len() as u64;
        });
        Some(bytes)
    }

    /// Serves whole batches from the file tier starting at the batch
    /// containing `offset`, stopping at `limit` (exclusive offset) or when
    /// `out` reaches `max_bytes`.
    pub(crate) fn read_cold(
        &self,
        index: u32,
        offset: u64,
        limit: u64,
        max_bytes: u32,
        out: &mut Vec<u8>,
    ) -> ColdRead {
        let states = self.states.borrow();
        let mut res = ColdRead {
            start_offset: None,
            next_offset: offset,
            done: false,
        };
        let Some(st) = states.get(index as usize) else {
            return res;
        };
        let synced = st.synced.get();
        // Sparse-index seek: start at the last indexed batch at or before
        // `offset`, then walk length prefixes.
        let mut pos = {
            let sparse = st.sparse.borrow();
            match sparse.partition_point(|e| e.0 <= offset).checked_sub(1) {
                Some(i) => sparse[i].1,
                None => 0,
            }
        };
        let mut hdr = [0u8; record::BATCH_HEADER_LEN];
        let mut read_bytes = 0u64;
        loop {
            if u64::from(pos) + record::BATCH_HEADER_LEN as u64 > u64::from(synced) {
                break;
            }
            st.file
                .read_exact_at(&mut hdr, u64::from(pos))
                .expect("header read");
            read_bytes += record::BATCH_HEADER_LEN as u64;
            // A zeroed or garbled region ends the durable batches.
            let Ok(h) = record::parse_header(&hdr) else {
                break;
            };
            let Ok(total) = u32::try_from(h.total_len()) else {
                break;
            };
            if u64::from(pos) + u64::from(total) > u64::from(synced) {
                break;
            }
            let next = h.base_offset + u64::from(h.record_count);
            if next <= offset {
                pos += total; // before the requested offset: skip
                continue;
            }
            if next > limit {
                res.done = true;
                break;
            }
            if !out.is_empty() && out.len() + total as usize > max_bytes as usize {
                res.done = true;
                break;
            }
            let at = out.len();
            out.resize(at + total as usize, 0);
            st.file
                .read_exact_at(&mut out[at..], u64::from(pos))
                .expect("batch read");
            read_bytes += u64::from(total);
            res.start_offset.get_or_insert(h.base_offset);
            res.next_offset = next;
            pos += total;
            if out.len() >= max_bytes as usize {
                res.done = true;
                break;
            }
        }
        if read_bytes > 0 {
            self.add_charge(|c| {
                c.ns += read_cost(read_bytes);
                c.cold_read_bytes += read_bytes;
            });
        }
        res
    }

    /// Byte position up to which segment `index` is durable.
    pub fn synced_pos(&self, index: u32) -> u32 {
        self.states
            .borrow()
            .get(index as usize)
            .map_or(0, |st| st.synced.get())
    }

    /// Adopts a recovered segment: (re)creates its file from the in-memory
    /// image's committed prefix and rebuilds the sparse index.
    pub(crate) fn adopt(&self, index: u32, seg: &Segment) {
        let states = &mut *self.states.borrow_mut();
        assert_eq!(states.len(), index as usize, "segments adopted in order");
        let st = self.new_state(index, seg.base_offset(), seg.capacity());
        self.flush_state(&st, seg);
        states.push(st);
    }

    /// Fault hook: garbles the last `k` durable bytes of the active
    /// (highest-index) segment file. Returns bytes garbled.
    pub(crate) fn garble_active_tail(&self, k: u32) -> u64 {
        let states = self.states.borrow();
        let Some(st) = states.last() else {
            return 0;
        };
        let synced = st.synced.get();
        let k = k.min(synced);
        if k == 0 {
            return 0;
        }
        let start = synced - k;
        let mut bytes = vec![0u8; k as usize];
        st.file
            .read_exact_at(&mut bytes, u64::from(start))
            .expect("tail read");
        for b in &mut bytes {
            *b ^= 0xA5;
        }
        st.file
            .write_all_at(&bytes, u64::from(start))
            .expect("tail garble");
        st.file.sync_data().expect("tail fsync");
        u64::from(k)
    }

    /// The durable image of every segment as `(base_offset, bytes)`, read
    /// back from the files.
    pub fn durable_snapshot(&self) -> Vec<(u64, Vec<u8>)> {
        self.states
            .borrow()
            .iter()
            .map(|st| {
                let mut bytes = vec![0u8; st.capacity as usize];
                st.file.read_exact_at(&mut bytes, 0).expect("segment read");
                (st.base_offset, bytes)
            })
            .collect()
    }

    /// Drains accumulated I/O cost and counters.
    pub(crate) fn take_charge(&self) -> IoCharge {
        self.charge.replace(IoCharge::default())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use crate::log::{Log, LogConfig};
    use crate::record::{encode_batch, Record};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kdstore-{}-{}", tag, std::process::id()))
    }

    fn batch(n: usize, size: usize) -> Vec<u8> {
        let records: Vec<Record> = (0..n).map(|i| Record::value(vec![(i % 251) as u8; size])).collect();
        encode_batch(1, &records).unwrap()
    }

    fn tiered_log(tag: &str, sync: SyncMode) -> (Log, PathBuf) {
        let dir = temp_dir(tag);
        let cfg = StorageConfig::tiered(&dir).with_sync(sync);
        let store = FileStore::create(&dir, &cfg).unwrap();
        let log = Log::with_store(
            LogConfig {
                segment_size: 4096,
                max_batch_size: 2048,
            },
            Rc::new(store),
        );
        (log, dir)
    }

    fn files(log: &Log) -> &FileStore {
        log.store().expect("a tiered log")
    }

    #[test]
    fn per_commit_sync_makes_every_commit_durable() {
        let (log, dir) = tiered_log("percommit", SyncMode::PerCommit);
        log.append_batch(&batch(3, 40)).unwrap();
        log.append_batch(&batch(2, 40)).unwrap();
        let head = log.head();
        assert_eq!(files(&log).synced_pos(0), head.committed_pos());
        let charge = log.take_io();
        assert_eq!(charge.fsyncs, 2, "one per commit");
        assert!(charge.flushed_bytes > 0);
        assert!(charge.ns > 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn never_sync_leaves_active_segment_volatile() {
        let (log, dir) = tiered_log("never", SyncMode::Never);
        log.append_batch(&batch(3, 40)).unwrap();
        assert_eq!(files(&log).synced_pos(0), 0);
        // Sealing forces the flush.
        log.roll();
        assert_eq!(files(&log).synced_pos(0), log.segment(0).unwrap().committed_pos());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn durable_snapshot_recovers_only_synced_prefix() {
        let (log, dir) = tiered_log("snap", SyncMode::Never);
        log.append_batch(&batch(2, 50)).unwrap();
        log.sync_all();
        log.append_batch(&batch(4, 50)).unwrap(); // never synced
        let parts = files(&log).durable_snapshot();
        assert_eq!(parts.len(), 1);
        let bufs = parts
            .into_iter()
            .map(|(b, v)| (b, kdbuf::ShmBuf::from_vec(v)))
            .collect();
        let recovered = Log::recover(log.config().clone(), None, bufs);
        assert_eq!(recovered.next_offset(), 2, "unsynced suffix lost");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cold_read_serves_batches_through_sparse_index() {
        let (log, dir) = tiered_log("cold", SyncMode::Never);
        let payload = batch(2, 300);
        for _ in 0..10 {
            log.append_batch(&payload).unwrap();
        }
        assert!(log.segment_count() >= 2, "must span segments");
        log.set_high_watermark(log.next_offset());
        let hot = log.read_from(0, 1 << 20, true);
        // Evict every sealed segment, then read again through the file tier.
        let mut evicted = 0;
        for i in 0..log.segment_count() - 1 {
            assert!(log.evict_segment(i), "sealed segment evicts");
            assert!(!log.segment(i).unwrap().is_resident());
            evicted += 1;
        }
        assert!(evicted >= 1);
        let cold = log.read_from(0, 1 << 20, true);
        assert_eq!(cold.bytes, hot.bytes, "cold bytes identical");
        assert_eq!(cold.next_offset, hot.next_offset);
        let charge = log.take_io();
        assert!(charge.cold_read_bytes > 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn evicted_segment_pages_back_in() {
        let (log, dir) = tiered_log("pagein", SyncMode::Never);
        let payload = batch(1, 600);
        for _ in 0..8 {
            log.append_batch(&payload).unwrap();
        }
        let before = log.segment(0).unwrap().shared_buf().as_slice().to_vec();
        assert!(log.evict_segment(0));
        assert_eq!(log.segment(0).unwrap().shared_buf().len(), 0);
        assert!(log.restore_segment(0));
        let seg = log.segment(0).unwrap();
        assert!(seg.is_resident());
        // The committed prefix round-trips exactly; RDMA consumers read
        // through the same shared RefCell they registered.
        let committed = seg.committed_pos() as usize;
        assert_eq!(seg.read(0, committed as u32), &before[..committed]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sidecar_round_trips_sparse_index() {
        let (log, dir) = tiered_log("sidecar", SyncMode::Never);
        let payload = batch(1, 300);
        for _ in 0..12 {
            log.append_batch(&payload).unwrap();
        }
        assert!(log.segment_count() >= 2);
        let path = dir.join("segment-00000.index");
        assert!(path.exists(), "sidecar written at seal");
        let (base, entries) = FileStore::read_index_sidecar(&path).unwrap();
        assert_eq!(base, 0);
        assert!(!entries.is_empty());
        assert_eq!(entries[0], (0, 0), "first batch always indexed");
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1, "monotonic index");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn garble_tail_corrupts_only_last_k_durable_bytes() {
        let (log, dir) = tiered_log("garble", SyncMode::PerCommit);
        log.append_batch(&batch(2, 100)).unwrap();
        let synced = files(&log).synced_pos(0);
        let garbled = log.garble_active_tail(16);
        assert_eq!(garbled, 16);
        let parts = files(&log).durable_snapshot();
        let (_, bytes) = &parts[0];
        let clean = log.head().read(0, synced - 16);
        assert_eq!(&bytes[..(synced - 16) as usize], &clean[..]);
        assert_ne!(
            &bytes[(synced - 16) as usize..synced as usize],
            &log.head().read(synced - 16, 16)[..]
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
