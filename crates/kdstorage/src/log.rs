//! The topic-partition log: an ordered chain of segments (paper Fig 1).
//!
//! Responsibilities:
//! * rolling to a new preallocated head file when the current one fills,
//! * dense offset assignment at commit time,
//! * the high watermark (replication-committed offset) and its byte-level
//!   position — what the broker publishes to RDMA consumers as the "last
//!   readable byte" of each file (§4.4.2),
//! * byte-range reads for TCP fetches and pull replication.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use kdbuf::ShmBuf;

use crate::codec::WireError;
use crate::record::{self, BatchError};
use crate::segment::{BatchIndexEntry, Segment};
use crate::store::{FileStore, IoCharge};

/// Log configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Segment ("file") size; the paper deploys 1 GiB (§5 Settings). Tests
    /// and benches use smaller segments to bound memory.
    pub segment_size: u32,
    /// Maximum encoded batch size (Kafka's 1 MiB record limit, §3).
    pub max_batch_size: u32,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_size: 64 * 1024 * 1024,
            max_batch_size: 1024 * 1024,
        }
    }
}

impl LogConfig {
    pub fn with_segment_size(mut self, size: u32) -> Self {
        self.segment_size = size;
        self
    }
}

/// Byte-level position in a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogPosition {
    /// Index into the segment chain.
    pub segment: u32,
    /// Byte position within that segment.
    pub pos: u32,
}

/// Result of a successful append/commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendInfo {
    pub base_offset: u64,
    pub record_count: u32,
    pub position: LogPosition,
    pub total_len: u32,
    /// True if this append created a new head file.
    pub rolled: bool,
}

/// Errors from append/commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendError {
    /// Batch bigger than `max_batch_size` (or than a whole segment).
    TooLarge { len: usize, max: usize },
    /// Validation failed.
    Batch(BatchError),
    /// In-place commit position does not match the committed frontier.
    NonContiguousCommit { expected: u32, got: u32 },
    /// A replicated batch's leader-assigned base offset does not match this
    /// replica's log end.
    OffsetMismatch { expected: u64, got: u64 },
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::TooLarge { len, max } => write!(f, "batch {len} B exceeds max {max} B"),
            AppendError::Batch(e) => write!(f, "{e}"),
            AppendError::NonContiguousCommit { expected, got } => {
                write!(f, "commit at {got} but committed frontier is {expected}")
            }
            AppendError::OffsetMismatch { expected, got } => {
                write!(f, "replica batch at offset {got} but log end is {expected}")
            }
        }
    }
}

impl std::error::Error for AppendError {}

impl From<BatchError> for AppendError {
    fn from(e: BatchError) -> Self {
        AppendError::Batch(e)
    }
}

/// Result of a byte-range read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchSlice {
    /// Raw bytes of zero or more whole batches.
    pub bytes: Vec<u8>,
    /// Offset of the first record in `bytes` (may precede the requested
    /// offset: reads start at a batch boundary, as in Kafka).
    pub start_offset: u64,
    /// Offset to request next.
    pub next_offset: u64,
}

/// A topic-partition log.
pub struct Log {
    config: LogConfig,
    /// The file tier, notified at segment lifecycle points; `None` keeps
    /// the log in memory only.
    store: Option<Rc<FileStore>>,
    segments: RefCell<Vec<Rc<Segment>>>,
    /// First offset not yet replicated to the configured in-sync replicas;
    /// consumers may not read at or past this (§4.4.2).
    high_watermark: Cell<u64>,
    /// Byte position equivalent of `high_watermark`.
    hw_position: Cell<LogPosition>,
}

impl Log {
    /// A fresh log in memory only.
    pub fn new(config: LogConfig) -> Log {
        let head = Segment::new(0, config.segment_size);
        Log::on(config, None, vec![head])
    }

    /// A fresh log whose segments are also written to `store`'s files.
    pub fn with_store(config: LogConfig, store: Rc<FileStore>) -> Log {
        let head = Segment::new(0, config.segment_size);
        store.on_create(0, 0, config.segment_size);
        Log::on(config, Some(store), vec![head])
    }

    /// Rebuilds a log from the segment images that survived a crash: the
    /// live buffers of a memory log, or what a file tier's
    /// [`durable_snapshot`](FileStore::durable_snapshot) read back. Each
    /// part is `(base_offset, bytes)` and is scanned with
    /// [`Segment::recover`], re-chaining offsets densely from the first
    /// part's base. Recovery stops at a part whose base is not the offset
    /// the parts before it recovered to (a segment came back shorter than
    /// it was sealed), so what survives is a prefix of what was committed.
    /// Every segment but the last is re-sealed. The high watermark restarts at
    /// zero: it is volatile state that replication (or the single-replica
    /// commit rule) re-advances. With a `store`, every recovered segment is
    /// adopted: the file tier rewrites its files from the recovered
    /// committed prefix, so the disk image and the memory image agree from
    /// the first commit after restart.
    pub fn recover(
        config: LogConfig,
        store: Option<Rc<FileStore>>,
        parts: Vec<(u64, ShmBuf)>,
    ) -> Log {
        let mut segments: Vec<Rc<Segment>> = Vec::with_capacity(parts.len().max(1));
        let mut next = parts.first().map_or(0, |(base, _)| *base);
        for (base, buf) in parts {
            if base != next {
                break;
            }
            let seg = Segment::recover(next, buf);
            next = seg.next_offset();
            segments.push(seg);
        }
        if segments.is_empty() {
            segments.push(Segment::new(0, config.segment_size));
        }
        for s in &segments[..segments.len() - 1] {
            s.seal();
        }
        if let Some(store) = &store {
            for (i, s) in segments.iter().enumerate() {
                store.adopt(i as u32, s);
            }
        }
        Log::on(config, store, segments)
    }

    /// A log over `segments`, the last of which is the head.
    fn on(config: LogConfig, store: Option<Rc<FileStore>>, segments: Vec<Rc<Segment>>) -> Log {
        Log {
            config,
            store,
            segments: RefCell::new(segments),
            high_watermark: Cell::new(0),
            hw_position: Cell::new(LogPosition { segment: 0, pos: 0 }),
        }
    }

    pub fn config(&self) -> &LogConfig {
        &self.config
    }

    /// The file tier, if the log has one.
    pub fn store(&self) -> Option<&Rc<FileStore>> {
        self.store.as_ref()
    }

    /// Drains the file tier's accumulated I/O cost and counters. Always
    /// zero in memory mode — callers skip charging entirely then.
    pub fn take_io(&self) -> IoCharge {
        self.store.as_ref().map_or_else(IoCharge::default, |s| s.take_charge())
    }

    /// The mutable head file.
    pub fn head(&self) -> Rc<Segment> {
        // Every constructor leaves at least one segment and none removes one.
        Rc::clone(self.segments.borrow().last().expect("log has a head"))
    }

    /// Index of the head segment.
    pub fn head_index(&self) -> u32 {
        self.segments.borrow().len() as u32 - 1
    }

    pub fn segment(&self, index: u32) -> Option<Rc<Segment>> {
        self.segments.borrow().get(index as usize).cloned()
    }

    pub fn segment_count(&self) -> u32 {
        self.segments.borrow().len() as u32
    }

    /// Log end offset: the offset the next record will get.
    pub fn next_offset(&self) -> u64 {
        self.head().next_offset()
    }

    pub fn high_watermark(&self) -> u64 {
        self.high_watermark.get()
    }

    /// Byte position of the high watermark (segment index + last readable
    /// byte in it).
    pub fn high_watermark_position(&self) -> LogPosition {
        self.hw_position.get()
    }

    /// Seals the head and opens a new preallocated head file.
    pub fn roll(&self) -> Rc<Segment> {
        let next_offset = self.next_offset();
        let old = self.head();
        old.seal();
        let old_idx = self.head_index();
        let head = Segment::new(next_offset, self.config.segment_size);
        self.segments.borrow_mut().push(Rc::clone(&head));
        if let Some(store) = &self.store {
            store.on_seal(old_idx, &old);
            store.on_create(old_idx + 1, next_offset, self.config.segment_size);
        }
        head
    }

    /// First offset the log holds: the first segment's base.
    pub fn start_offset(&self) -> u64 {
        self.segments.borrow()[0].base_offset()
    }

    /// Flushes the head segment's dirty suffix to the file tier (the
    /// every-N-ms flusher and explicit sync points).
    pub fn sync_all(&self) {
        if let Some(store) = &self.store {
            store.flush(self.head_index(), &self.head());
        }
    }

    /// Evicts a sealed, fully durable segment's bytes from memory (cold
    /// spill). Returns false in memory mode and when the segment is the
    /// head, not sealed, not fully synced, or already evicted — the caller
    /// is responsible for checking RDMA registrations pin nothing on it.
    pub fn evict_segment(&self, index: u32) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        if index >= self.head_index() {
            return false;
        }
        let Some(seg) = self.segment(index) else {
            return false;
        };
        if !seg.is_sealed()
            || !seg.is_resident()
            || store.synced_pos(index) < seg.committed_pos()
        {
            return false;
        }
        seg.evict();
        true
    }

    /// Pages an evicted segment's bytes back in from the file tier, into
    /// the **same** shared buffer existing `Rc` clones point at.
    pub fn restore_segment(&self, index: u32) -> bool {
        let Some(seg) = self.segment(index) else {
            return false;
        };
        if seg.is_resident() {
            return false;
        }
        let Some(bytes) = self.store.as_ref().and_then(|s| s.load(index)) else {
            return false;
        };
        seg.restore(&bytes);
        true
    }

    fn check_size(&self, len: usize) -> Result<(), AppendError> {
        let max = self
            .config
            .max_batch_size
            .min(self.config.segment_size) as usize;
        if len > max {
            return Err(AppendError::TooLarge { len, max });
        }
        Ok(())
    }

    /// Appends an already-encoded batch by copying it into the head file
    /// (the TCP produce path ➍: "copies data from the network receive
    /// buffer to the file buffer", §4.2.1). Verifies, assigns offsets,
    /// commits.
    pub fn append_batch(&self, bytes: &[u8]) -> Result<AppendInfo, AppendError> {
        self.check_size(bytes.len())?;
        let header = record::verify_batch(bytes)?;
        Ok(self.append_verified(bytes, &header))
    }

    /// Appends a batch replicated from the leader (pull replication ➏):
    /// offsets were already assigned by the leader and must line up with
    /// this replica's log end.
    pub fn append_replica(&self, bytes: &[u8]) -> Result<AppendInfo, AppendError> {
        self.check_size(bytes.len())?;
        let header = record::verify_batch(bytes)?;
        if header.base_offset != self.next_offset() {
            return Err(AppendError::OffsetMismatch {
                expected: self.next_offset(),
                got: header.base_offset,
            });
        }
        Ok(self.append_verified(bytes, &header))
    }

    /// Copies a verified batch into the head, rolling first if it does not
    /// fit, and commits it at the log end.
    fn append_verified(&self, bytes: &[u8], header: &record::BatchHeader) -> AppendInfo {
        // Verification read `total_len()` bytes of `bytes`, whose length
        // `check_size` bounded by a `u32`.
        let total = header.total_len() as u32;
        let mut rolled = false;
        let mut head = self.head();
        let pos = match head.reserve(total) {
            Some(pos) => pos,
            None => {
                head = self.roll();
                rolled = true;
                // `check_size` bounded the batch by the segment size.
                head.reserve(total).expect("fresh segment fits max batch")
            }
        };
        head.write_at(pos, bytes);
        let info = self.commit_at_unchecked(&head, pos, header.record_count, total);
        AppendInfo { rolled, ..info }
    }

    /// Commits a batch whose bytes are **already in** the head file at
    /// `pos` — the RDMA produce path: the NIC wrote the bytes, the API
    /// worker verifies in place and assigns offsets without any copy
    /// (§4.2.2).
    pub fn commit_in_place(&self, pos: u32) -> Result<AppendInfo, AppendError> {
        let head = self.head();
        if pos != head.committed_pos() {
            return Err(AppendError::NonContiguousCommit {
                expected: head.committed_pos(),
                got: pos,
            });
        }
        // Parse the length prefix, then verify the full batch in place.
        let avail = head.capacity() - pos;
        let prefix_len = (record::LENGTH_PREFIX_LEN as u32).min(avail);
        let total = head.with_slice(pos, prefix_len, record::peek_total_len)?;
        self.check_size(total)?;
        let total = match u32::try_from(total) {
            Ok(total) if total <= avail => total,
            _ => return Err(AppendError::Batch(BatchError::Corrupt(WireError::BadLength))),
        };
        let header = head.with_slice(pos, total, record::verify_batch)?;
        Ok(self.commit_at_unchecked(&head, pos, header.record_count, total))
    }

    /// Shared tail of both commit paths: assign the base offset in place
    /// and index the batch.
    fn commit_at_unchecked(
        &self,
        head: &Rc<Segment>,
        pos: u32,
        record_count: u32,
        total: u32,
    ) -> AppendInfo {
        let base_offset = head.next_offset();
        head.with_slice_mut(pos, total, |bytes| {
            record::assign_base_offset(bytes, base_offset);
        });
        head.push_committed(BatchIndexEntry {
            base_offset,
            pos,
            len: total,
            record_count,
        });
        if let Some(store) = &self.store {
            store.on_commit(self.head_index(), head);
        }
        AppendInfo {
            base_offset,
            record_count,
            position: LogPosition {
                segment: self.head_index(),
                pos,
            },
            total_len: total,
            rolled: false,
        }
    }

    /// Advances the high watermark to `offset` (must land on a batch
    /// boundary — replication acknowledges whole batches).
    pub fn set_high_watermark(&self, offset: u64) {
        let current = self.high_watermark.get();
        if offset <= current {
            return;
        }
        assert!(
            offset <= self.next_offset(),
            "high watermark beyond log end"
        );
        // Replication acknowledges whole batches, so `offset` is always the
        // `next_offset` of some committed batch: locate it directly.
        let segments = self.segments.borrow();
        let last = offset - 1;
        let seg_idx = segments
            .partition_point(|s| s.base_offset() <= last)
            .saturating_sub(1);
        // `current < offset <= next_offset()`: `last` is a committed offset.
        let b = segments[seg_idx]
            .find_batch(last)
            .expect("high watermark inside committed region");
        // Replication normally acknowledges whole batches; if an ack lands
        // mid-batch, round the watermark down to the batch start (a record
        // is visible only when its whole batch is replicated).
        let (offset, pos) = if b.next_offset() == offset {
            (offset, b.end_pos())
        } else {
            (b.base_offset, b.pos)
        };
        if offset <= current {
            return;
        }
        self.hw_position.set(LogPosition {
            segment: seg_idx as u32,
            pos,
        });
        self.high_watermark.set(offset);
    }

    /// Reads up to `max_bytes` of whole batches starting at the batch
    /// containing `offset`. `committed_only` limits to the high watermark
    /// (consumer fetch); replication fetch reads to the log end.
    pub fn read_from(&self, offset: u64, max_bytes: u32, committed_only: bool) -> FetchSlice {
        let mut bytes = Vec::new();
        let (start_offset, next_offset) =
            self.read_from_into(offset, max_bytes, committed_only, &mut bytes);
        FetchSlice {
            start_offset,
            next_offset,
            bytes,
        }
    }

    /// As [`read_from`](Self::read_from), appending the batch bytes to a
    /// caller-recycled buffer instead of allocating one. Returns
    /// `(start_offset, next_offset)`; the copy-out itself goes through
    /// [`Segment::read_into`], so a warm buffer makes the whole read
    /// allocation-free.
    pub fn read_from_into(
        &self,
        offset: u64,
        max_bytes: u32,
        committed_only: bool,
        out: &mut Vec<u8>,
    ) -> (u64, u64) {
        out.clear();
        let limit = if committed_only {
            self.high_watermark.get()
        } else {
            self.next_offset()
        };
        if offset >= limit {
            return (offset, offset);
        }
        // Locate the segment containing `offset`.
        let segments = self.segments.borrow();
        let seg_idx = segments
            .partition_point(|s| s.base_offset() <= offset)
            .saturating_sub(1);
        let mut start_offset = None;
        let mut next_offset = offset;
        'outer: for (idx, seg) in segments.iter().enumerate().skip(seg_idx) {
            if !seg.is_resident() {
                // Cold segment: serve whole batches from the file tier
                // through the sparse index (offsets in the file are already
                // assigned — flushes cover only committed bytes). Only a
                // log with a file tier evicts.
                let Some(store) = &self.store else {
                    continue;
                };
                let r = store.read_cold(
                    idx as u32,
                    next_offset.max(seg.base_offset()),
                    limit,
                    max_bytes,
                    out,
                );
                if let Some(s) = r.start_offset {
                    start_offset.get_or_insert(s);
                    next_offset = r.next_offset;
                }
                if r.done || out.len() >= max_bytes as usize {
                    break 'outer;
                }
                continue;
            }
            let Some(mut i) = seg.batch_index_of(next_offset.max(seg.base_offset())) else {
                continue;
            };
            while let Some(b) = seg.batch_at(i) {
                if b.next_offset() > limit {
                    break 'outer;
                }
                if !out.is_empty() && out.len() + b.len as usize > max_bytes as usize {
                    break 'outer;
                }
                seg.read_into(b.pos, b.len, out);
                start_offset.get_or_insert(b.base_offset);
                next_offset = b.next_offset();
                i += 1;
                if out.len() >= max_bytes as usize {
                    break 'outer;
                }
            }
        }
        (start_offset.unwrap_or(offset), next_offset)
    }

    /// Finds the committed batch containing `offset` and its segment index.
    pub fn locate(&self, offset: u64) -> Option<(u32, BatchIndexEntry)> {
        let segments = self.segments.borrow();
        let seg_idx = segments
            .partition_point(|s| s.base_offset() <= offset)
            .checked_sub(1)?;
        // The batch may live in an earlier segment than the partition point
        // suggests only if offsets were sparse — they are dense here.
        let entry = segments[seg_idx].find_batch(offset)?;
        Some((seg_idx as u32, entry))
    }

    /// Whether the segment holding `offset` is in the hot (memory) tier.
    /// `None` when the offset is not committed anywhere.
    pub fn is_offset_resident(&self, offset: u64) -> Option<bool> {
        let (seg_idx, _) = self.locate(offset)?;
        Some(self.segment(seg_idx)?.is_resident())
    }

    /// Fault hook: garble the last `k` durable bytes of the active segment
    /// file (torn-write injection against real file bytes). Returns bytes
    /// garbled — zero in memory mode.
    pub fn garble_active_tail(&self, k: u32) -> u64 {
        self.store.as_ref().map_or(0, |s| s.garble_active_tail(k))
    }

    /// Total committed bytes across all segments (telemetry).
    pub fn committed_bytes(&self) -> u64 {
        self.segments
            .borrow()
            .iter()
            .map(|s| u64::from(s.committed_pos()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_batch, single_record_batch, Record};

    fn batch(n: usize, size: usize) -> Vec<u8> {
        let records: Vec<Record> = (0..n).map(|i| Record::value(vec![i as u8; size])).collect();
        encode_batch(1, &records).unwrap()
    }

    fn small_log() -> Log {
        Log::new(LogConfig {
            segment_size: 4096,
            max_batch_size: 2048,
        })
    }

    #[test]
    fn append_assigns_dense_offsets() {
        let log = small_log();
        let a = log.append_batch(&batch(3, 10)).unwrap();
        let b = log.append_batch(&batch(2, 10)).unwrap();
        assert_eq!(a.base_offset, 0);
        assert_eq!(b.base_offset, 3);
        assert_eq!(log.next_offset(), 5);
    }

    #[test]
    fn rolls_to_new_head_when_full() {
        let log = small_log();
        let payload = batch(1, 900); // ~1 KiB each
        let mut rolled = 0;
        for _ in 0..8 {
            if log.append_batch(&payload).unwrap().rolled {
                rolled += 1;
            }
        }
        assert!(rolled >= 1);
        assert!(log.segment_count() >= 2);
        // Every non-head segment is sealed.
        for i in 0..log.segment_count() - 1 {
            assert!(log.segment(i).unwrap().is_sealed());
        }
        assert!(!log.head().is_sealed());
        // Base offsets chain correctly.
        let s1 = log.segment(1).unwrap();
        assert_eq!(s1.base_offset(), log.segment(0).unwrap().next_offset());
    }

    #[test]
    fn oversize_batch_rejected() {
        let log = small_log();
        let big = batch(1, 3000);
        assert!(matches!(
            log.append_batch(&big),
            Err(AppendError::TooLarge { .. })
        ));
    }

    #[test]
    fn commit_in_place_is_zero_copy() {
        let log = small_log();
        let head = log.head();
        let bytes = batch(2, 16);
        // Simulate an RDMA write landing directly in the head file.
        head.write_at(0, &bytes);
        head.advance_write_pos(bytes.len() as u32);
        let info = log.commit_in_place(0).unwrap();
        assert_eq!(info.base_offset, 0);
        assert_eq!(info.record_count, 2);
        // In-place offset assignment is visible in the segment bytes.
        let stored = head.read(0, bytes.len() as u32);
        let hdr = crate::record::verify_batch(&stored).unwrap();
        assert_eq!(hdr.base_offset, 0);
    }

    #[test]
    fn commit_in_place_rejects_holes() {
        let log = small_log();
        let head = log.head();
        let bytes = batch(1, 16);
        head.write_at(100, &bytes);
        assert!(matches!(
            log.commit_in_place(100),
            Err(AppendError::NonContiguousCommit { expected: 0, got: 100 })
        ));
    }

    #[test]
    fn commit_in_place_rejects_bad_crc() {
        let log = small_log();
        let head = log.head();
        let mut bytes = batch(1, 16);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        head.write_at(0, &bytes);
        assert!(matches!(
            log.commit_in_place(0),
            Err(AppendError::Batch(BatchError::BadCrc { .. }))
        ));
    }

    #[test]
    fn read_respects_high_watermark() {
        let log = small_log();
        log.append_batch(&batch(2, 8)).unwrap();
        log.append_batch(&batch(2, 8)).unwrap();
        // Nothing replicated yet: committed read sees nothing.
        let f = log.read_from(0, 4096, true);
        assert!(f.bytes.is_empty());
        // Replication read sees everything.
        let f = log.read_from(0, 4096, false);
        assert_eq!(f.next_offset, 4);
        // Advance HW past the first batch only.
        log.set_high_watermark(2);
        let f = log.read_from(0, 4096, true);
        assert_eq!(f.next_offset, 2);
        let decoded = crate::record::decode_batch(&f.bytes).unwrap();
        assert_eq!(decoded.len(), 2);
    }

    #[test]
    fn read_starts_at_batch_boundary() {
        let log = small_log();
        log.append_batch(&batch(5, 8)).unwrap();
        log.set_high_watermark(5);
        // Request offset 3: read returns the whole containing batch,
        // start_offset tells the consumer to skip.
        let f = log.read_from(3, 4096, true);
        assert_eq!(f.start_offset, 0);
        assert_eq!(f.next_offset, 5);
    }

    #[test]
    fn read_spans_segments() {
        let log = small_log();
        let payload = batch(1, 900);
        for _ in 0..8 {
            log.append_batch(&payload).unwrap();
        }
        log.set_high_watermark(log.next_offset());
        let mut offset = 0;
        let mut seen = 0;
        loop {
            let f = log.read_from(offset, 100_000, true);
            if f.bytes.is_empty() {
                break;
            }
            let mut at = 0;
            while at < f.bytes.len() {
                let h = crate::record::verify_batch(&f.bytes[at..]).unwrap();
                seen += h.record_count;
                at += h.total_len();
            }
            offset = f.next_offset;
        }
        assert_eq!(seen, 8);
    }

    #[test]
    fn max_bytes_limits_but_returns_at_least_one_batch() {
        let log = small_log();
        log.append_batch(&batch(1, 400)).unwrap();
        log.append_batch(&batch(1, 400)).unwrap();
        log.set_high_watermark(2);
        let f = log.read_from(0, 10, true); // tiny cap
        assert_eq!(f.next_offset, 1, "one whole batch still returned");
        let h = crate::record::verify_batch(&f.bytes).unwrap();
        assert_eq!(h.record_count, 1);
    }

    #[test]
    fn hw_position_tracks_bytes_across_segments() {
        let log = small_log();
        let payload = batch(1, 900);
        let mut infos = Vec::new();
        for _ in 0..8 {
            infos.push(log.append_batch(&payload).unwrap());
        }
        log.set_high_watermark(3);
        let p = log.high_watermark_position();
        let expected = infos[2];
        assert_eq!(p.segment, expected.position.segment);
        assert_eq!(p.pos, expected.position.pos + expected.total_len);
        // Move HW to the end: position is in the head segment.
        log.set_high_watermark(8);
        let p = log.high_watermark_position();
        assert_eq!(p.segment, log.head_index());
        assert_eq!(p.pos, log.head().committed_pos());
    }

    #[test]
    fn batch_exactly_filling_segment_rolls_cleanly() {
        // Craft a batch, then a segment sized to exactly fit it.
        let payload = batch(1, 500);
        let log = Log::new(LogConfig {
            segment_size: payload.len() as u32,
            max_batch_size: payload.len() as u32,
        });
        let a = log.append_batch(&payload).unwrap();
        assert!(!a.rolled);
        assert_eq!(log.head().remaining(), 0);
        let b = log.append_batch(&payload).unwrap();
        assert!(b.rolled, "second batch must open a new file");
        assert_eq!(b.position.segment, 1);
        assert_eq!(b.base_offset, 1);
        assert!(log.segment(0).unwrap().is_sealed());
    }

    #[test]
    fn locate_spans_segments() {
        let log = small_log();
        let payload = batch(2, 900);
        for _ in 0..6 {
            log.append_batch(&payload).unwrap();
        }
        assert!(log.segment_count() >= 2);
        for offset in 0..12u64 {
            let (seg, entry) = log.locate(offset).expect("every offset locatable");
            assert!(entry.base_offset <= offset && offset < entry.next_offset());
            assert!(log.segment(seg).is_some());
        }
        assert!(log.locate(12).is_none(), "past the end");
    }

    #[test]
    fn single_record_batches_commit() {
        let log = small_log();
        for i in 0..10u8 {
            let b = single_record_batch(9, &Record::value(vec![i]));
            log.append_batch(&b).unwrap();
        }
        assert_eq!(log.next_offset(), 10);
    }

    /// The raw buffers of every segment, i.e. what "survives" a crash.
    fn surviving_buffers(log: &Log) -> Vec<(u64, ShmBuf)> {
        (0..log.segment_count())
            .map(|i| log.segment(i).unwrap())
            .map(|s| (s.base_offset(), s.shared_buf()))
            .collect()
    }

    #[test]
    fn recovery_preserves_committed_batches_and_next_offset() {
        let log = small_log();
        let payload = batch(2, 300);
        for _ in 0..10 {
            log.append_batch(&payload).unwrap();
        }
        assert!(log.segment_count() >= 2, "test must span segments");
        let end = log.next_offset();

        let recovered = Log::recover(log.config().clone(), None, surviving_buffers(&log));
        assert_eq!(recovered.next_offset(), end);
        assert_eq!(recovered.segment_count(), log.segment_count());
        recovered.set_high_watermark(end);
        // Every record survives, in order, with the same offsets.
        let mut offset = 0;
        while offset < end {
            let f = recovered.read_from(offset, 100_000, true);
            assert!(!f.bytes.is_empty());
            let mut at = 0;
            while at < f.bytes.len() {
                let h = crate::record::verify_batch(&f.bytes[at..]).unwrap();
                assert_eq!(h.base_offset, offset);
                offset = h.last_offset() + 1;
                at += h.total_len();
            }
        }
        assert_eq!(offset, end);
    }

    #[test]
    fn recovery_truncates_torn_last_record() {
        let log = small_log();
        log.append_batch(&batch(3, 50)).unwrap();
        log.append_batch(&batch(2, 50)).unwrap();
        // A torn write: only half the next batch's bytes reached the file
        // before the crash. Non-zero payload so the missing half cannot
        // CRC-match the zero-filled preallocation.
        let head = log.head();
        let torn = single_record_batch(1, &Record::value(vec![0xAB; 50]));
        head.write_at(head.committed_pos(), &torn[..torn.len() / 2]);
        head.advance_write_pos(head.committed_pos() + torn.len() as u32 / 2);

        let recovered = Log::recover(log.config().clone(), None, surviving_buffers(&log));
        assert_eq!(recovered.next_offset(), 5, "torn record dropped");
        assert_eq!(recovered.head().batch_count(), 2);
        // The torn region is writable again: the next append lands there.
        let info = recovered.append_batch(&batch(1, 50)).unwrap();
        assert_eq!(info.base_offset, 5);
    }

    #[test]
    fn recovery_truncates_bad_crc_tail() {
        let log = small_log();
        log.append_batch(&batch(2, 40)).unwrap();
        // A fully-written batch whose bytes rotted (single bit flip fails
        // the CRC check).
        let head = log.head();
        let mut bad = batch(2, 40);
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        head.write_at(head.committed_pos(), &bad);
        head.advance_write_pos(head.committed_pos() + bad.len() as u32);

        let recovered = Log::recover(log.config().clone(), None, surviving_buffers(&log));
        assert_eq!(recovered.next_offset(), 2, "corrupt tail truncated");
        assert_eq!(recovered.head().batch_count(), 1);
    }

    #[test]
    fn recovery_commits_written_but_unassigned_batch() {
        // An RDMA producer's one-sided write landed in full (valid CRC) but
        // the broker crashed before assigning offsets: the batch recovers
        // with the next dense offset, exactly as a completed commit would
        // have assigned.
        let log = small_log();
        log.append_batch(&batch(4, 30)).unwrap();
        let head = log.head();
        let landed = batch(2, 30); // base_offset still 0 in these bytes
        head.write_at(head.committed_pos(), &landed);
        head.advance_write_pos(head.committed_pos() + landed.len() as u32);

        let recovered = Log::recover(log.config().clone(), None, surviving_buffers(&log));
        assert_eq!(recovered.next_offset(), 6);
        recovered.set_high_watermark(6);
        let f = recovered.read_from(4, 4096, true);
        let h = crate::record::verify_batch(&f.bytes).unwrap();
        assert_eq!(h.base_offset, 4, "recovery assigned the dense offset");
        assert_eq!(h.record_count, 2);
    }

    #[test]
    fn recovery_of_empty_buffers_yields_fresh_log() {
        let recovered = Log::recover(LogConfig::default(), None, Vec::new());
        assert_eq!(recovered.next_offset(), 0);
        assert_eq!(recovered.segment_count(), 1);
    }
}
