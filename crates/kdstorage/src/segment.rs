//! Preallocated log segments ("files", paper Fig 1).
//!
//! A segment is a fixed-capacity byte buffer created full-size up front —
//! the paper enables Kafka's file preallocation because "RNICs ... only can
//! write data to an already preallocated memory region" (§4.2.2). The head
//! segment of a partition is mutable; once full it is sealed and becomes
//! immutable forever (consumers rely on that to read it with RDMA without
//! coordination, §4.4.2).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use kdbuf::ShmBuf;

use crate::record;

/// Index entry for one committed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchIndexEntry {
    /// First Kafka offset in the batch.
    pub base_offset: u64,
    /// Byte position of the batch within the segment.
    pub pos: u32,
    /// Total encoded length.
    pub len: u32,
    /// Number of records.
    pub record_count: u32,
}

impl BatchIndexEntry {
    pub fn end_pos(&self) -> u32 {
        self.pos + self.len
    }

    pub fn next_offset(&self) -> u64 {
        self.base_offset + u64::from(self.record_count)
    }
}

/// A preallocated, fixed-size segment file.
pub struct Segment {
    base_offset: u64,
    buf: ShmBuf,
    /// Preallocated size. Stored separately from the buffer because an
    /// evicted (cold-tier) segment's buffer is emptied to reclaim memory.
    capacity: u32,
    /// Bytes written (or reserved) so far; the append point.
    write_pos: Cell<u32>,
    /// Bytes covered by committed (verified, offset-assigned) batches.
    committed_pos: Cell<u32>,
    sealed: Cell<bool>,
    /// False when the bytes live only in the file tier (buffer evicted).
    resident: Cell<bool>,
    batches: RefCell<Vec<BatchIndexEntry>>,
}

impl Segment {
    /// Preallocates a segment of `capacity` bytes whose first record will
    /// have offset `base_offset`.
    pub fn new(base_offset: u64, capacity: u32) -> Rc<Segment> {
        Segment::on(base_offset, ShmBuf::zeroed(capacity as usize))
    }

    /// An empty index over `buf`.
    fn on(base_offset: u64, buf: ShmBuf) -> Rc<Segment> {
        Rc::new(Segment {
            base_offset,
            capacity: buf.len() as u32,
            buf,
            write_pos: Cell::new(0),
            committed_pos: Cell::new(0),
            sealed: Cell::new(false),
            resident: Cell::new(true),
            batches: RefCell::new(Vec::new()),
        })
    }

    /// Rebuilds a segment's in-memory index from raw "on-disk" bytes after
    /// a crash. Scans batches from position 0: each must parse and pass its
    /// CRC; the scan stops at the first torn, corrupt, or absent batch and
    /// everything after it is discarded — the §4.2.2 "no holes" rule
    /// applied at restart. Offsets are re-assigned densely from
    /// `base_offset` (the offset field sits outside CRC coverage), so
    /// batches that were fully written but never offset-assigned — a crash
    /// between the one-sided RDMA write and the commit — recover too.
    pub fn recover(base_offset: u64, buf: ShmBuf) -> Rc<Segment> {
        let seg = Segment::on(base_offset, buf);
        // Structural pre-scan (no CRC): counts batches so the index is
        // sized in one allocation and the replay loop below never
        // reallocates — recovery cost per surviving batch is pure CPU.
        {
            let mut count = 0usize;
            let mut pos = 0u32;
            // Header parse (magic, bounds) without the CRC pass: stops the
            // count at zeroed/garbage tails the same way the real scan
            // will, while staying O(1) per batch.
            while let Some(total) = seg.batch_len_at(pos) {
                let head = (record::BATCH_HEADER_LEN as u32).min(total);
                if seg.with_slice(pos, head, record::parse_header).is_err() {
                    break;
                }
                count += 1;
                pos += total;
            }
            seg.batches.borrow_mut().reserve(count);
        }
        loop {
            let pos = seg.committed_pos.get();
            let Some(total) = seg.batch_len_at(pos) else {
                break;
            };
            let Ok(header) = seg.with_slice(pos, total, record::verify_batch) else {
                break;
            };
            let next = seg.next_offset();
            seg.with_slice_mut(pos, total, |b| record::assign_base_offset(b, next));
            seg.push_committed(BatchIndexEntry {
                base_offset: next,
                pos,
                len: total,
                record_count: header.record_count,
            });
        }
        seg
    }

    /// Total length of the batch whose length prefix is at `pos`, read
    /// from the segment's own bytes: `None` unless the prefix is there
    /// and the batch it describes fits in the segment.
    fn batch_len_at(&self, pos: u32) -> Option<u32> {
        let avail = self.capacity - pos;
        let prefix = (record::LENGTH_PREFIX_LEN as u32).min(avail);
        let total = self.with_slice(pos, prefix, record::peek_total_len).ok()?;
        u32::try_from(total).ok().filter(|&total| total <= avail)
    }

    pub fn base_offset(&self) -> u64 {
        self.base_offset
    }

    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    pub fn write_pos(&self) -> u32 {
        self.write_pos.get()
    }

    pub fn committed_pos(&self) -> u32 {
        self.committed_pos.get()
    }

    pub fn remaining(&self) -> u32 {
        self.capacity() - self.write_pos.get()
    }

    pub fn is_sealed(&self) -> bool {
        self.sealed.get()
    }

    /// Offset after the last committed record, if any batch is committed.
    pub fn next_offset(&self) -> u64 {
        self.batches
            .borrow()
            .last()
            .map_or(self.base_offset, BatchIndexEntry::next_offset)
    }

    /// True while the segment's bytes are in memory (hot tier).
    pub fn is_resident(&self) -> bool {
        self.resident.get()
    }

    /// Drops the in-memory bytes of a sealed segment (cold-tier spill).
    /// The shared buffer is emptied **in place** so existing handles (and
    /// any re-registration through them) observe the eviction rather than
    /// keeping a stale copy alive — and the memory goes back to the
    /// allocator now, not to the free list of whole segments.
    pub fn evict(&self) {
        assert!(self.sealed.get(), "only sealed segments evict");
        self.buf.with_vec(|buf| {
            buf.clear();
            buf.shrink_to_fit();
        });
        self.resident.set(false);
    }

    /// Restores evicted bytes from the file tier into the same shared
    /// buffer (page-in for RDMA consumers of cold segments).
    pub fn restore(&self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.capacity as usize, "full segment image");
        self.buf.with_vec(|buf| {
            buf.clear();
            buf.extend_from_slice(bytes);
        });
        self.resident.set(true);
    }

    /// The raw storage: registering it with the NIC gives RDMA peers direct
    /// access to the segment's memory — the zero-copy seam of the paper.
    pub fn shared_buf(&self) -> ShmBuf {
        self.buf.clone()
    }

    /// Marks the segment immutable.
    pub fn seal(&self) {
        self.sealed.set(true);
    }

    /// Reserves `len` bytes at the current append point (local/exclusive
    /// path). Returns the start position, or `None` if the segment cannot
    /// hold them (the caller rolls to a new head file).
    pub fn reserve(&self, len: u32) -> Option<u32> {
        if self.sealed.get() || self.remaining() < len {
            return None;
        }
        let pos = self.write_pos.get();
        self.write_pos.set(pos + len);
        Some(pos)
    }

    /// Moves the append point forward to `pos` (shared-RDMA mode: the
    /// broker mirrors the FAA-reserved offset word here, §4.2.2).
    pub fn advance_write_pos(&self, pos: u32) {
        assert!(!self.sealed.get(), "cannot write a sealed segment");
        assert!(pos <= self.capacity(), "write pos beyond preallocation");
        if pos > self.write_pos.get() {
            self.write_pos.set(pos);
        }
    }

    /// Discards reserved-but-uncommitted bytes (used when aborting shared
    /// RDMA produce after a client failure, §4.2.2: the broker "prohibits
    /// holes").
    pub fn truncate_to_committed(&self) {
        self.write_pos.set(self.committed_pos.get());
    }

    /// Copies bytes into the segment at `pos` (the TCP datapath's second
    /// memory copy; the RDMA datapath never calls this — the NIC wrote the
    /// bytes already).
    pub fn write_at(&self, pos: u32, data: &[u8]) {
        assert!(!self.sealed.get(), "cannot write a sealed segment");
        self.buf.write_at(pos as usize, data);
    }

    /// Copies `len` bytes out of the segment.
    pub fn read(&self, pos: u32, len: u32) -> Vec<u8> {
        self.with_slice(pos, len, <[u8]>::to_vec)
    }

    /// Appends `len` bytes at `pos` to `out` — the allocation-free variant
    /// of [`read`](Self::read) for callers that recycle a fetch buffer
    /// (e.g. `Log::read_from_into`).
    pub fn read_into(&self, pos: u32, len: u32, out: &mut Vec<u8>) {
        self.with_slice(pos, len, |bytes| out.extend_from_slice(bytes));
    }

    /// Runs `f` over the segment bytes at `[pos, pos+len)` without copying.
    pub fn with_slice<R>(&self, pos: u32, len: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        let pos = pos as usize;
        self.buf.with(|buf| f(&buf[pos..pos + len as usize]))
    }

    /// Mutates the segment bytes at `[pos, pos+len)` in place (offset
    /// assignment).
    pub fn with_slice_mut<R>(&self, pos: u32, len: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.buf.with_mut(pos as usize, len as usize, f)
    }

    /// Records a committed batch. Commits must be contiguous: `entry.pos`
    /// must equal the current committed position.
    pub fn push_committed(&self, entry: BatchIndexEntry) {
        assert_eq!(
            entry.pos,
            self.committed_pos.get(),
            "commits must be contiguous (no holes)"
        );
        debug_assert_eq!(entry.base_offset, self.next_offset());
        self.committed_pos.set(entry.end_pos());
        if self.write_pos.get() < entry.end_pos() {
            self.write_pos.set(entry.end_pos());
        }
        self.batches.borrow_mut().push(entry);
    }

    /// Number of committed batches.
    pub fn batch_count(&self) -> usize {
        self.batches.borrow().len()
    }

    /// Finds the committed batch containing `offset`.
    pub fn find_batch(&self, offset: u64) -> Option<BatchIndexEntry> {
        let batches = self.batches.borrow();
        if batches.is_empty() {
            return None;
        }
        let idx = batches.partition_point(|b| b.base_offset <= offset);
        if idx == 0 {
            return None;
        }
        let entry = batches[idx - 1];
        (offset < entry.next_offset()).then_some(entry)
    }

    /// The committed batch at index `i`.
    pub fn batch_at(&self, i: usize) -> Option<BatchIndexEntry> {
        self.batches.borrow().get(i).copied()
    }

    /// Index of the committed batch containing `offset`.
    pub fn batch_index_of(&self, offset: u64) -> Option<usize> {
        let batches = self.batches.borrow();
        let idx = batches.partition_point(|b| b.base_offset <= offset);
        if idx == 0 {
            return None;
        }
        (offset < batches[idx - 1].next_offset()).then_some(idx - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_roll_point() {
        let s = Segment::new(100, 64);
        assert_eq!(s.reserve(40), Some(0));
        assert_eq!(s.reserve(30), None); // only 24 left
        assert_eq!(s.reserve(24), Some(40));
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn sealed_rejects_reserve() {
        let s = Segment::new(0, 64);
        s.seal();
        assert_eq!(s.reserve(1), None);
        assert!(s.is_sealed());
    }

    #[test]
    fn write_read_round_trip() {
        let s = Segment::new(0, 32);
        s.write_at(4, b"abcd");
        assert_eq!(s.read(4, 4), b"abcd");
        s.with_slice(4, 4, |b| assert_eq!(b, b"abcd"));
    }

    #[test]
    fn committed_batches_index() {
        let s = Segment::new(10, 1024);
        s.push_committed(BatchIndexEntry {
            base_offset: 10,
            pos: 0,
            len: 100,
            record_count: 5,
        });
        s.push_committed(BatchIndexEntry {
            base_offset: 15,
            pos: 100,
            len: 50,
            record_count: 2,
        });
        assert_eq!(s.next_offset(), 17);
        assert_eq!(s.committed_pos(), 150);
        assert_eq!(s.find_batch(9), None);
        assert_eq!(s.find_batch(10).unwrap().pos, 0);
        assert_eq!(s.find_batch(14).unwrap().pos, 0);
        assert_eq!(s.find_batch(15).unwrap().pos, 100);
        assert_eq!(s.find_batch(16).unwrap().pos, 100);
        assert_eq!(s.find_batch(17), None);
        assert_eq!(s.batch_index_of(16), Some(1));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_commit_panics() {
        let s = Segment::new(0, 1024);
        s.push_committed(BatchIndexEntry {
            base_offset: 0,
            pos: 8,
            len: 10,
            record_count: 1,
        });
    }

    #[test]
    fn truncate_discards_reserved() {
        let s = Segment::new(0, 128);
        s.push_committed(BatchIndexEntry {
            base_offset: 0,
            pos: 0,
            len: 32,
            record_count: 1,
        });
        s.advance_write_pos(96);
        assert_eq!(s.write_pos(), 96);
        s.truncate_to_committed();
        assert_eq!(s.write_pos(), 32);
        assert_eq!(s.committed_pos(), 32);
    }

    /// Segment memory outlives its segment (`kdbuf::shm`): a buffer whose
    /// previous life was full of CRC-valid batches must read as a fresh
    /// preallocation, or a crash before the first commit would recover the
    /// previous owner's records.
    #[test]
    fn a_recycled_buffer_is_indistinguishable_from_a_fresh_one() {
        const CAPACITY: u32 = 256 * 1024 + 3 * 4096; // no other test's size
        let batch = record::single_record_batch(1, &record::Record::value(vec![0xAB; 1000]));
        let parked = kdbuf::shm::parked_bytes();
        let old = Segment::new(0, CAPACITY);
        while let Some(pos) = old.reserve(batch.len() as u32) {
            old.write_at(pos, &batch);
            let base_offset = old.next_offset();
            old.with_slice_mut(pos, 8, |b| record::assign_base_offset(b, base_offset));
            old.push_committed(BatchIndexEntry {
                base_offset,
                pos,
                len: batch.len() as u32,
                record_count: 1,
            });
        }
        let (buf, filled) = (old.shared_buf(), old.batch_count());
        assert!(filled > 200 && old.remaining() < batch.len() as u32);
        drop(old);
        let addr = buf.with(|b| b.as_ptr() as usize);
        assert_eq!(
            Segment::recover(0, buf).batch_count(),
            filled,
            "the bytes were live"
        );
        assert_eq!(kdbuf::shm::parked_bytes(), parked + CAPACITY as usize);

        let fresh = Segment::new(500, CAPACITY);
        assert_eq!(
            kdbuf::shm::parked_bytes(),
            parked,
            "taken from the free list"
        );
        fresh.with_slice(0, CAPACITY, |b| {
            assert_eq!(b.as_ptr() as usize, addr, "the same memory");
            assert!(b.iter().all(|&x| x == 0), "reads all-zero");
        });
        let recovered = Segment::recover(500, fresh.shared_buf());
        assert_eq!((recovered.batch_count(), recovered.committed_pos()), (0, 0));
        assert_eq!(recovered.next_offset(), 500);
    }

    /// Eviction exists to return memory: an evicted segment's buffer goes
    /// back to the allocator when emptied, not to the free list when dropped.
    #[test]
    fn an_evicted_segment_is_not_parked() {
        const CAPACITY: u32 = 256 * 1024 + 5 * 4096;
        let parked = kdbuf::shm::parked_bytes();
        let s = Segment::new(0, CAPACITY);
        s.write_at(0, &[1; 64]);
        let image = s.read(0, CAPACITY);
        s.seal();
        s.evict();
        assert_eq!(s.shared_buf().len(), 0);
        s.restore(&image);
        assert_eq!(s.read(0, 64), [1; 64]);
        s.evict();
        drop(s);
        assert_eq!(kdbuf::shm::parked_bytes(), parked);
    }
}
