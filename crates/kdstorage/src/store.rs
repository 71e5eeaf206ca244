//! Pluggable segment storage backends: the in-memory tier and the
//! file-backed durable tier.
//!
//! The paper runs Kafka's logs on tmpfs-backed, preallocated segment files
//! (§4.2.2, Fig 1); this module supplies the "file" half that the in-memory
//! reproduction elided. A [`SegmentStore`] hangs off every [`Log`] and is
//! notified at the storage-relevant points of the log lifecycle — segment
//! creation, batch commit, seal, reclaim — so the log code stays a pure
//! data structure while the backend decides what (if anything) hits disk.
//!
//! Two implementations:
//! * [`MemStore`] — the status quo: segments live only in their
//!   `kdbuf::ShmBuf` buffers. Every hook is a no-op and every charge
//!   is zero, so memory-mode behaviour (and the chaos replay digests) are
//!   bit-identical to a build without this module.
//! * [`FileStore`] — the durable tier: one preallocated, length-prefixed
//!   segment file per log segment plus a sparse offset index sidecar.
//!   Batches are written to the file only at sync points, so the file
//!   content *is* the durable prefix — a machine crash simply never sees
//!   the unsynced suffix. Fsync and write latency are charged through a
//!   virtual-time I/O cost model ([`IoCostModel`]) that the broker drains
//!   into `sim::time::sleep`, keeping deterministic replay intact.
//!
//! A write CQE is not an fsync ("the completion fallacy"): sync policy is
//! explicit via [`SyncMode`] and observable through the accumulated
//! [`IoCharge`] (fsync count, flushed bytes) that feeds the `storage.*`
//! metrics.

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

/// Virtual-time cost model for file I/O. All latencies are *modeled*: real
/// file operations complete synchronously, then the accumulated
/// nanoseconds are slept on the simulated clock by the broker.
#[derive(Debug, Clone, Copy)]
pub struct IoCostModel {
    /// Base cost of one fsync (device flush latency).
    pub fsync_ns: u64,
    /// Sequential write throughput, as nanoseconds per KiB.
    pub write_ns_per_kib: u64,
    /// Sequential read throughput, as nanoseconds per KiB.
    pub read_ns_per_kib: u64,
}

impl Default for IoCostModel {
    fn default() -> Self {
        // Roughly an NVMe device: 50 µs flush, ~3.4 GiB/s write, ~5 GiB/s
        // read.
        IoCostModel {
            fsync_ns: 50_000,
            write_ns_per_kib: 300,
            read_ns_per_kib: 200,
        }
    }
}

impl IoCostModel {
    fn write_cost(&self, bytes: u64) -> u64 {
        bytes * self.write_ns_per_kib / 1024
    }

    fn read_cost(&self, bytes: u64) -> u64 {
        bytes * self.read_ns_per_kib / 1024
    }
}

/// Size/time-based retention for sealed segments.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetentionConfig {
    /// Keep at most this many live (non-reclaimed) segments; oldest sealed
    /// segments below the high watermark are reclaimed first.
    pub max_segments: Option<u32>,
    /// Reclaim sealed segments older than this (measured from seal time).
    pub max_age_ms: Option<u64>,
    /// How often the broker's retention sweep runs.
    pub check_every_ms: u64,
}

impl RetentionConfig {
    /// Retention disabled: segments live forever.
    pub fn none() -> Self {
        RetentionConfig {
            max_segments: None,
            max_age_ms: None,
            check_every_ms: 1_000,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.max_segments.is_some() || self.max_age_ms.is_some()
    }
}

/// Which backend a broker's logs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// In-memory only (the pre-durability status quo).
    Memory,
    /// Tiered: the active segment stays in an MR-registered in-memory
    /// region (RDMA produce remains zero-copy), sealed segments spill to
    /// preallocated files and can be evicted from memory; cold fetches go
    /// through the file tier.
    Tiered,
}

/// Storage selection + tuning, carried by `BrokerConfig`/`ClusterOptions`.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    pub mode: StorageMode,
    /// Base directory for segment files (tiered mode). Each broker nests
    /// `node<N>/<topic>-<partition>/` under it.
    pub dir: Option<PathBuf>,
    pub sync: SyncMode,
    pub cost: IoCostModel,
    pub retention: RetentionConfig,
    /// Sparse-index density: one index entry every N committed batches.
    pub index_interval: u32,
    /// Issue real `fdatasync` calls at flush points. The *modeled* fsync
    /// latency always flows through the virtual clock regardless; the
    /// physical call only protects against host-OS crashes (which the
    /// simulator never experiences in-process) and blocks the simulation
    /// thread for ~0.5-1ms per flush, so it defaults to off.
    pub physical_fsync: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            mode: StorageMode::Memory,
            dir: None,
            sync: SyncMode::EveryMs(5),
            cost: IoCostModel::default(),
            retention: RetentionConfig::none(),
            index_interval: 4,
            physical_fsync: false,
        }
    }
}

impl StorageConfig {
    /// Tiered (file-backed) storage rooted at `dir`.
    pub fn tiered(dir: impl Into<PathBuf>) -> Self {
        StorageConfig {
            mode: StorageMode::Tiered,
            dir: Some(dir.into()),
            ..StorageConfig::default()
        }
    }

    pub fn with_sync(mut self, sync: SyncMode) -> Self {
        self.sync = sync;
        self
    }

    pub fn with_retention(mut self, retention: RetentionConfig) -> Self {
        self.retention = retention;
        self
    }

    /// Opt back in to physical `fdatasync` at flush points (see
    /// [`StorageConfig::physical_fsync`]).
    pub fn with_physical_fsync(mut self, on: bool) -> Self {
        self.physical_fsync = on;
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
    /// Segments reclaimed by retention since the last drain.
    pub reclaimed: u64,
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
pub struct ColdRead {
    /// Base offset of the first batch copied out, if any.
    pub start_offset: Option<u64>,
    /// Offset after the last batch copied out.
    pub next_offset: u64,
    /// True when the read hit the offset limit or byte cap — the caller
    /// stops scanning further segments.
    pub done: bool,
}

/// Backend notifications from the log lifecycle. All hooks are infallible
/// from the log's perspective: file errors panic (the simulation has no
/// story for a half-broken disk), costs accumulate into an internal
/// [`IoCharge`] drained with [`take_charge`](SegmentStore::take_charge).
pub trait SegmentStore {
    fn storage_mode(&self) -> StorageMode;

    /// A new segment `index` was opened with `base_offset`/`capacity`.
    fn on_create(&self, index: u32, base_offset: u64, capacity: u32);

    /// A batch was committed into segment `index` (the new committed
    /// frontier is `seg.committed_pos()`).
    fn on_commit(&self, index: u32, seg: &Segment);

    /// Write the dirty suffix `[synced, committed)` of segment `index` to
    /// its file and fsync.
    fn flush(&self, index: u32, seg: &Segment);

    /// Segment `index` sealed (the log rolled): final flush + persist the
    /// sparse-index sidecar.
    fn on_seal(&self, index: u32, seg: &Segment);

    /// Segment `index` was reclaimed by retention: delete its files.
    fn on_reclaim(&self, index: u32);

    /// Read back the full durable image of segment `index` (page-in for
    /// RDMA consumers of cold segments). `None` when there is no file.
    fn load(&self, index: u32) -> Option<Vec<u8>>;

    /// Serve whole batches from the file tier starting at the batch
    /// containing `offset`, stopping at `limit` (exclusive offset) or when
    /// `out` reaches `max_bytes`.
    fn read_cold(
        &self,
        index: u32,
        offset: u64,
        limit: u64,
        max_bytes: u32,
        out: &mut Vec<u8>,
    ) -> ColdRead;

    /// Byte position up to which segment `index` is durable.
    fn synced_pos(&self, index: u32) -> u32;

    /// Adopt a recovered segment: (re)create its file from the in-memory
    /// image's committed prefix and rebuild the sparse index.
    fn adopt(&self, index: u32, seg: &Segment);

    /// Fault hook: garble the last `k` durable bytes of the active
    /// (highest-index live) segment file. Returns bytes garbled.
    fn garble_active_tail(&self, k: u32) -> u64;

    /// The durable image of every live segment as `(base_offset, bytes)`,
    /// read back from the files. `None` for backends with no durable tier.
    fn durable_snapshot(&self) -> Option<Vec<(u64, Vec<u8>)>>;

    /// Drain accumulated I/O cost and counters.
    fn take_charge(&self) -> IoCharge;
}

/// The in-memory backend: every hook is a no-op, every charge zero.
#[derive(Default)]
pub struct MemStore;

impl SegmentStore for MemStore {
    fn storage_mode(&self) -> StorageMode {
        StorageMode::Memory
    }

    fn on_create(&self, _index: u32, _base_offset: u64, _capacity: u32) {}

    fn on_commit(&self, _index: u32, _seg: &Segment) {}

    fn flush(&self, _index: u32, _seg: &Segment) {}

    fn on_seal(&self, _index: u32, _seg: &Segment) {}

    fn on_reclaim(&self, _index: u32) {}

    fn load(&self, _index: u32) -> Option<Vec<u8>> {
        None
    }

    fn read_cold(
        &self,
        _index: u32,
        offset: u64,
        _limit: u64,
        _max_bytes: u32,
        _out: &mut Vec<u8>,
    ) -> ColdRead {
        ColdRead {
            start_offset: None,
            next_offset: offset,
            done: false,
        }
    }

    fn synced_pos(&self, _index: u32) -> u32 {
        0
    }

    fn adopt(&self, _index: u32, _seg: &Segment) {}

    fn garble_active_tail(&self, _k: u32) -> u64 {
        0
    }

    fn durable_snapshot(&self) -> Option<Vec<(u64, Vec<u8>)>> {
        None
    }

    fn take_charge(&self) -> IoCharge {
        IoCharge::default()
    }
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
    /// `index_interval`-th committed batch. Entry 0 is always present.
    sparse: RefCell<Vec<(u64, u32)>>,
    /// Set when retention deleted the files.
    dead: Cell<bool>,
}

/// The file-backed tier: one preallocated segment file (plus a sparse-index
/// sidecar at seal) per log segment, under one directory per partition.
pub struct FileStore {
    dir: PathBuf,
    sync: SyncMode,
    cost: IoCostModel,
    index_interval: u32,
    physical_fsync: bool,
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
            cost: cfg.cost,
            index_interval: cfg.index_interval.max(1),
            physical_fsync: cfg.physical_fsync,
            states: RefCell::new(Vec::new()),
            charge: Cell::new(IoCharge::default()),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn sync_mode(&self) -> SyncMode {
        self.sync
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

    fn create_file(&self, index: u32, capacity: u32) -> File {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.segment_path(index))
            .expect("create segment file");
        // Preallocate full-size up front (§4.2.2): the durable image always
        // has the segment's full extent; unsynced bytes read back as zeros,
        // which the recovery scan treats as an absent batch.
        file.set_len(u64::from(capacity)).expect("preallocate");
        file
    }

    /// Advances the sparse index over newly committed batches.
    fn index_new_batches(&self, st: &SegState, seg: &Segment) {
        let total = seg.batch_count();
        let mut i = st.indexed.get();
        let mut sparse = st.sparse.borrow_mut();
        while i < total {
            if (i as u32).is_multiple_of(self.index_interval) {
                let b = seg.batch_at(i).expect("indexed batch exists");
                sparse.push((b.base_offset, b.pos));
            }
            i += 1;
        }
        st.indexed.set(total);
    }

    /// Writes `[synced, committed)` of `seg` to the file, fsyncs, charges.
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
                c.ns += self.cost.write_cost(u64::from(len));
                c.flushed_bytes += u64::from(len);
            });
        }
        // The modeled fsync cost always flows through virtual time; the
        // *physical* fdatasync only matters if the host OS dies mid-run
        // (in-process crash recovery reads page-cache-backed file bytes
        // either way) and stalls the simulation thread ~0.5-1ms per call,
        // so it is opt-in.
        if self.physical_fsync {
            st.file.sync_data().expect("segment fsync");
        }
        self.add_charge(|c| {
            c.ns += self.cost.fsync_ns;
            c.fsyncs += 1;
        });
        self.index_new_batches(st, seg);
    }

    /// Persists the sparse index sidecar (`segment-N.index`): a flat list
    /// of big-endian `(u64 offset, u32 pos)` pairs prefixed by the
    /// segment's base offset.
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
            c.ns += self.cost.write_cost(bytes.len() as u64);
            c.flushed_bytes += bytes.len() as u64;
        });
    }

    /// Parses a sidecar produced by [`write_index_sidecar`] (test/tooling
    /// aid): `(base_offset, entries)`.
    pub fn read_index_sidecar(path: &Path) -> io::Result<(u64, Vec<(u64, u32)>)> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < 8 || (bytes.len() - 8) % 12 != 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad sidecar"));
        }
        let base = u64::from_be_bytes(bytes[..8].try_into().unwrap());
        let entries = bytes[8..]
            .chunks_exact(12)
            .map(|c| {
                (
                    u64::from_be_bytes(c[..8].try_into().unwrap()),
                    u32::from_be_bytes(c[8..].try_into().unwrap()),
                )
            })
            .collect();
        Ok((base, entries))
    }
}

impl SegmentStore for FileStore {
    fn storage_mode(&self) -> StorageMode {
        StorageMode::Tiered
    }

    fn on_create(&self, index: u32, base_offset: u64, capacity: u32) {
        let states = &mut *self.states.borrow_mut();
        assert_eq!(states.len(), index as usize, "segments created in order");
        let file = self.create_file(index, capacity);
        self.add_charge(|c| c.ns += self.cost.fsync_ns); // allocate+extend
        states.push(SegState {
            file,
            base_offset,
            capacity,
            synced: Cell::new(0),
            indexed: Cell::new(0),
            sparse: RefCell::new(Vec::new()),
            dead: Cell::new(false),
        });
    }

    fn on_commit(&self, index: u32, seg: &Segment) {
        if matches!(self.sync, SyncMode::PerCommit) {
            self.flush(index, seg);
        }
    }

    fn flush(&self, index: u32, seg: &Segment) {
        let states = self.states.borrow();
        let st = &states[index as usize];
        if st.dead.get() {
            return;
        }
        self.flush_state(st, seg);
    }

    fn on_seal(&self, index: u32, seg: &Segment) {
        {
            let states = self.states.borrow();
            let st = &states[index as usize];
            if !st.dead.get() {
                self.flush_state(st, seg);
                self.write_index_sidecar(index, st);
            }
        }
        self.add_charge(|c| c.rotated += 1);
    }

    fn on_reclaim(&self, index: u32) {
        let states = self.states.borrow();
        let st = &states[index as usize];
        if st.dead.get() {
            return;
        }
        st.dead.set(true);
        let _ = std::fs::remove_file(self.segment_path(index));
        let _ = std::fs::remove_file(self.index_path(index));
        self.add_charge(|c| {
            c.ns += self.cost.fsync_ns; // directory metadata update
            c.reclaimed += 1;
        });
    }

    fn load(&self, index: u32) -> Option<Vec<u8>> {
        let states = self.states.borrow();
        let st = states.get(index as usize)?;
        if st.dead.get() {
            return None;
        }
        let mut bytes = vec![0u8; st.capacity as usize];
        st.file.read_exact_at(&mut bytes, 0).expect("segment read");
        self.add_charge(|c| {
            c.ns += self.cost.read_cost(bytes.len() as u64);
            c.cold_read_bytes += bytes.len() as u64;
        });
        Some(bytes)
    }

    fn read_cold(
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
        if st.dead.get() {
            return res;
        }
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
            let Ok(h) = record::parse_header(&hdr) else {
                break; // zeroed / garbled region: end of durable batches
            };
            let total = h.total_len() as u32;
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
                c.ns += self.cost.read_cost(read_bytes);
                c.cold_read_bytes += read_bytes;
            });
        }
        res
    }

    fn synced_pos(&self, index: u32) -> u32 {
        let states = self.states.borrow();
        states
            .get(index as usize)
            .map_or(0, |st| if st.dead.get() { 0 } else { st.synced.get() })
    }

    fn adopt(&self, index: u32, seg: &Segment) {
        let states = &mut *self.states.borrow_mut();
        assert_eq!(states.len(), index as usize, "segments adopted in order");
        let file = self.create_file(index, seg.capacity());
        let st = SegState {
            file,
            base_offset: seg.base_offset(),
            capacity: seg.capacity(),
            synced: Cell::new(0),
            indexed: Cell::new(0),
            sparse: RefCell::new(Vec::new()),
            dead: Cell::new(false),
        };
        self.flush_state(&st, seg);
        states.push(st);
    }

    fn garble_active_tail(&self, k: u32) -> u64 {
        let states = self.states.borrow();
        let Some(st) = states.iter().rev().find(|st| !st.dead.get()) else {
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

    fn durable_snapshot(&self) -> Option<Vec<(u64, Vec<u8>)>> {
        let states = self.states.borrow();
        let mut out = Vec::new();
        for st in states.iter() {
            if st.dead.get() {
                continue;
            }
            let mut bytes = vec![0u8; st.capacity as usize];
            st.file.read_exact_at(&mut bytes, 0).expect("segment read");
            out.push((st.base_offset, bytes));
        }
        Some(out)
    }

    fn take_charge(&self) -> IoCharge {
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

    #[test]
    fn per_commit_sync_makes_every_commit_durable() {
        let (log, dir) = tiered_log("percommit", SyncMode::PerCommit);
        log.append_batch(&batch(3, 40)).unwrap();
        log.append_batch(&batch(2, 40)).unwrap();
        let head = log.head();
        assert_eq!(log.store().synced_pos(0), head.committed_pos());
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
        assert_eq!(log.store().synced_pos(0), 0);
        // Sealing forces the flush.
        log.roll();
        assert_eq!(log.store().synced_pos(0), log.segment(0).unwrap().committed_pos());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn durable_snapshot_recovers_only_synced_prefix() {
        let (log, dir) = tiered_log("snap", SyncMode::Never);
        log.append_batch(&batch(2, 50)).unwrap();
        log.sync_all();
        log.append_batch(&batch(4, 50)).unwrap(); // never synced
        let parts = log.store().durable_snapshot().unwrap();
        assert_eq!(parts.len(), 1);
        let bufs = parts
            .into_iter()
            .map(|(b, v)| (b, kdbuf::ShmBuf::from_vec(v)))
            .collect();
        let recovered = Log::recover_with_store(
            log.config().clone(),
            Rc::new(MemStore),
            bufs,
        );
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
        let synced = log.store().synced_pos(0);
        let garbled = log.store().garble_active_tail(16);
        assert_eq!(garbled, 16);
        let parts = log.store().durable_snapshot().unwrap();
        let (_, bytes) = &parts[0];
        let clean = log.head().read(0, synced - 16);
        assert_eq!(&bytes[..(synced - 16) as usize], &clean[..]);
        assert_ne!(
            &bytes[(synced - 16) as usize..synced as usize],
            &log.head().read(synced - 16, 16)[..]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn retention_reclaims_old_segments_and_deletes_files() {
        let (log, dir) = tiered_log("retain", SyncMode::PerCommit);
        let payload = batch(1, 600);
        for _ in 0..20 {
            log.append_batch(&payload).unwrap();
        }
        log.set_high_watermark(log.next_offset());
        assert!(log.segment_count() >= 4);
        let retention = RetentionConfig {
            max_segments: Some(2),
            max_age_ms: None,
            check_every_ms: 100,
        };
        let reclaimed = log.apply_retention(0, &retention);
        assert!(reclaimed >= 1);
        assert!(log.start_offset() > 0);
        assert!(!dir.join("segment-00000.log").exists(), "file deleted");
        // Reads below the retention floor fail with the typed error.
        let mut out = Vec::new();
        let err = log
            .read_from_checked(0, 4096, true, &mut out)
            .unwrap_err();
        match err {
            crate::log::ReadError::OutOfRetention { requested, start } => {
                assert_eq!(requested, 0);
                assert_eq!(start, log.start_offset());
            }
        }
        // Surviving offsets still read fine.
        let f = log.read_from(log.start_offset(), 1 << 20, true);
        assert_eq!(f.start_offset, log.start_offset());
        assert_eq!(f.next_offset, log.next_offset());
        std::fs::remove_dir_all(dir).ok();
    }
}
