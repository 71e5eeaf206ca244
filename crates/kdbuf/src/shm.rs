//! [`ShmBuf`]: the unit of "physical" memory in the simulation, and the one
//! owner of a log segment's bytes — `kdstorage::Segment` and
//! `rnic::MemoryRegion` hold clones of one handle, so an RDMA write lands in
//! the segment itself (the mmap + `ibv_reg_mr` flow of §4.2.2).
//!
//! Registered memory is a long-lived resource, not something each new owner
//! maps afresh: every mutable access raises the buffer's *dirty* high-water
//! mark, and when the last handle of a large buffer drops, `[0, dirty)` is
//! zeroed and the buffer parked on a bounded per-thread free list that
//! [`ShmBuf::zeroed`] takes from before it allocates. A parked buffer reads
//! as a fresh one, but its pages are mapped. Only the dirty prefix is zeroed:
//! a sparse 32 MiB segment costs its few written pages, not its capacity.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// Buffers at least this long are parked when their last handle drops. From
/// here up a fresh `vec![0; n]` is an `mmap` whose pages fault in one by one
/// on first touch, which is the cost parking removes.
const PARK_MIN_LEN: usize = 128 * 1024;
/// Most bytes of capacity one thread keeps parked; a buffer that does not fit
/// is freed as before.
const PARK_MAX_BYTES: usize = 1 << 30;

/// A zeroed buffer off duty, and how far into it pages are known to be
/// mapped: the furthest any of its lives wrote.
struct ParkedBuf {
    data: Vec<u8>,
    mapped: usize,
}

struct Parked {
    /// Ascending by `mapped`.
    bufs: Vec<ParkedBuf>,
    bytes: usize,
}

thread_local! {
    static PARKED: RefCell<Parked> = const {
        RefCell::new(Parked {
            bufs: Vec::new(),
            bytes: 0,
        })
    };
}

/// Bytes of capacity parked on this thread's free list.
pub fn parked_bytes() -> usize {
    PARKED.try_with(|p| p.borrow().bytes).unwrap_or(0)
}

/// An all-zero parked buffer of exactly `len` bytes, if this thread has one:
/// the furthest-written. A log fills its segments in the order it creates
/// them and leaves the last partly empty, so this keeps a run that repeats
/// inside the pages it has instead of growing every buffer to the fullest.
fn unpark(len: usize) -> Option<ParkedBuf> {
    PARKED
        .try_with(|p| {
            let p = &mut *p.borrow_mut();
            let at = p.bufs.iter().rposition(|b| b.data.len() == len)?;
            p.bytes -= len;
            Some(p.bufs.remove(at))
        })
        .ok()
        .flatten()
}

/// Zeroes what was written of `buf` and parks it, or frees it when it is
/// small (an evicted segment is empty) or the list is full.
fn park(mut buf: ParkedBuf, dirty: usize) {
    let len = buf.data.len();
    if len < PARK_MIN_LEN {
        return;
    }
    // `try_with`: the last handle may drop while the thread's locals are
    // being torn down.
    let _ = PARKED.try_with(|p| {
        let p = &mut *p.borrow_mut();
        if p.bytes + len > PARK_MAX_BYTES {
            return;
        }
        buf.data[..dirty].fill(0);
        debug_assert!(
            buf.data[dirty..]
                .chunks(4096)
                .all(|c| c == &[0u8; 4096][..c.len()]),
            "a write past the dirty mark ({dirty} of {len} B) bypassed ShmBuf's accessors"
        );
        buf.mapped = buf.mapped.max(dirty);
        p.bytes += len;
        let at = p.bufs.partition_point(|b| b.mapped <= buf.mapped);
        p.bufs.insert(at, buf);
    });
}

struct Inner {
    data: RefCell<Vec<u8>>,
    /// Every byte at or past this index is zero.
    dirty: Cell<usize>,
    /// `ParkedBuf::mapped` of the buffer's earlier lives.
    mapped: usize,
}

impl Drop for Inner {
    fn drop(&mut self) {
        let buf = ParkedBuf {
            data: std::mem::take(self.data.get_mut()),
            mapped: self.mapped,
        };
        park(buf, self.dirty.get());
    }
}

/// A shared, heap-backed buffer. Cloning shares the storage.
///
/// All the interior mutability is transient (no borrow is held across an
/// `.await`), so `RefCell` is sufficient on the single-threaded runtime.
#[derive(Clone)]
pub struct ShmBuf {
    inner: Rc<Inner>,
}

impl ShmBuf {
    /// A zeroed buffer of `len` bytes: a parked one of that length if this
    /// thread has one, else a fresh allocation.
    pub fn zeroed(len: usize) -> Self {
        match unpark(len) {
            Some(buf) => ShmBuf::new(buf.data, 0, buf.mapped),
            None => ShmBuf::new(vec![0; len], 0, 0),
        }
    }

    /// Wraps an existing vector.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let dirty = v.len();
        ShmBuf::new(v, dirty, 0)
    }

    fn new(data: Vec<u8>, dirty: usize, mapped: usize) -> Self {
        ShmBuf {
            inner: Rc::new(Inner {
                data: RefCell::new(data),
                dirty: Cell::new(dirty),
                mapped,
            }),
        }
    }

    fn mark_dirty(&self, end: usize) {
        self.inner.dirty.set(self.inner.dirty.get().max(end));
    }

    pub fn len(&self) -> usize {
        self.inner.data.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies `src` into the buffer at `offset`.
    ///
    /// # Panics
    /// Panics on out-of-bounds; callers (the NIC engine) validate first.
    pub fn write_at(&self, offset: usize, src: &[u8]) {
        self.with_mut(offset, src.len(), |dst| dst.copy_from_slice(src));
    }

    /// Copies `len` bytes starting at `offset` out of the buffer.
    pub fn read_at(&self, offset: usize, len: usize) -> Vec<u8> {
        self.inner.data.borrow()[offset..offset + len].to_vec()
    }

    /// Copies bytes into a caller-provided slice.
    pub fn read_into(&self, offset: usize, dst: &mut [u8]) {
        dst.copy_from_slice(&self.inner.data.borrow()[offset..offset + dst.len()]);
    }

    /// Runs `f` over an immutable view of the whole buffer (no `.await`
    /// while inside).
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.inner.data.borrow())
    }

    /// Runs `f` over a mutable view of `[offset, offset + len)`.
    pub fn with_mut<R>(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let r = f(&mut self.inner.data.borrow_mut()[offset..offset + len]);
        self.mark_dirty(offset + len);
        r
    }

    /// Runs `f` over the backing vector itself, which it may resize: a
    /// staging buffer re-encoded per record, a segment's bytes evicted to
    /// the file tier and paged back in.
    pub fn with_vec<R>(&self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let data = &mut *self.inner.data.borrow_mut();
        let r = f(data);
        self.inner.dirty.set(data.len());
        r
    }

    /// Zeroes every byte from `from` on.
    pub fn zero_from(&self, from: usize) {
        let dirty = self.inner.dirty.get();
        if from < dirty {
            self.inner.data.borrow_mut()[from..dirty].fill(0);
            self.inner.dirty.set(from);
        }
    }

    /// Reads a little-endian u64 at `offset` (8-aligned not required for
    /// local access).
    pub fn read_u64(&self, offset: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(offset, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64 at `offset`.
    pub fn write_u64(&self, offset: usize, v: u64) {
        self.write_at(offset, &v.to_le_bytes());
    }

    /// A slice view `[offset, offset+len)` of this buffer.
    pub fn slice(&self, offset: usize, len: usize) -> BufSlice {
        assert!(offset + len <= self.len(), "ShmBuf::slice out of bounds");
        BufSlice {
            buf: self.clone(),
            offset,
            len,
        }
    }

    /// Whole-buffer slice.
    pub fn as_slice(&self) -> BufSlice {
        self.slice(0, self.len())
    }

    /// True if both handles refer to the same storage.
    pub fn same_buffer(&self, other: &ShmBuf) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for ShmBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShmBuf(len={})", self.len())
    }
}

/// A view into a [`ShmBuf`]; the local-buffer argument of work requests.
#[derive(Clone, Debug)]
pub struct BufSlice {
    buf: ShmBuf,
    offset: usize,
    len: usize,
}

impl BufSlice {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.with(<[u8]>::to_vec)
    }

    /// Runs `f` over the slice's bytes without copying (no `.await` while
    /// inside).
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        self.buf
            .with(|s| f(&s[self.offset..self.offset + self.len]))
    }

    pub fn copy_from(&self, src: &[u8]) {
        assert!(src.len() <= self.len, "BufSlice::copy_from overflow");
        self.buf.write_at(self.offset, src);
    }

    /// Copies this slice's bytes into `dst` without an intermediate
    /// allocation. Alias-safe: when both views share storage (a loopback
    /// RDMA op), the copy goes through a single mutable borrow via
    /// `copy_within`.
    pub fn copy_to(&self, dst: &BufSlice) {
        assert!(self.len <= dst.len, "BufSlice::copy_to overflow");
        if self.buf.same_buffer(&dst.buf) {
            let data = &mut *self.buf.inner.data.borrow_mut();
            data.copy_within(self.offset..self.offset + self.len, dst.offset);
            self.buf.mark_dirty(dst.offset + self.len);
        } else {
            self.with(|s| dst.buf.write_at(dst.offset, s));
        }
    }

    /// Narrows the slice.
    pub fn sub(&self, offset: usize, len: usize) -> BufSlice {
        assert!(offset + len <= self.len, "BufSlice::sub out of bounds");
        BufSlice {
            buf: self.buf.clone(),
            offset: self.offset + offset,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Lengths are distinct per test: with `--test-threads=1` every test
    // shares the main thread's free list.

    #[test]
    fn a_parked_buffer_comes_back_zeroed_and_mapped() {
        const LEN: usize = PARK_MIN_LEN + 4096;
        let before = parked_bytes();
        let buf = ShmBuf::zeroed(LEN);
        let addr = buf.with(|b| b.as_ptr() as usize);
        buf.write_at(0, &[0xAA; 100]);
        buf.with_mut(70_000, 8, |b| b.fill(0xBB));
        buf.write_u64(LEN - 8, u64::MAX);
        let view = buf.slice(5000, 16); // a live view keeps the buffer
        drop(buf);
        assert_eq!(parked_bytes(), before);
        view.copy_from(&[0xCC; 16]);
        drop(view);
        assert_eq!(parked_bytes(), before + LEN);

        let again = ShmBuf::zeroed(LEN);
        assert_eq!(parked_bytes(), before);
        assert_eq!(again.with(|b| b.as_ptr() as usize), addr, "the same memory");
        assert!(again.with(|b| b.iter().all(|&x| x == 0)), "reads as fresh");
    }

    #[test]
    fn only_whole_large_buffers_of_the_same_length_match() {
        const LEN: usize = PARK_MIN_LEN + 2 * 4096;
        let before = parked_bytes();
        drop(ShmBuf::zeroed(PARK_MIN_LEN - 1));
        assert_eq!(parked_bytes(), before, "small buffers are freed");
        // Emptied to give memory back (an evicted segment): freed, not parked.
        let evicted = ShmBuf::zeroed(LEN);
        evicted.with_vec(|v| {
            v.clear();
            v.shrink_to_fit();
        });
        drop(evicted);
        assert_eq!(parked_bytes(), before);
        // A vector that arrived full of bytes is parked like any other.
        drop(ShmBuf::from_vec(vec![0x5A; LEN]));
        assert_eq!(parked_bytes(), before + LEN);
        drop(ShmBuf::zeroed(LEN + 1));
        assert_eq!(
            parked_bytes(),
            before + 2 * LEN + 1,
            "a longer request missed"
        );
        let hit = ShmBuf::zeroed(LEN);
        assert_eq!(parked_bytes(), before + LEN + 1);
        assert!(hit.with(|b| b.iter().all(|&x| x == 0)));
    }

    #[test]
    fn the_furthest_written_buffer_goes_out_first() {
        const LEN: usize = PARK_MIN_LEN + 3 * 4096;
        let addr = |b: &ShmBuf| b.with(|s| s.as_ptr() as usize);
        let bufs = [
            ShmBuf::zeroed(LEN),
            ShmBuf::zeroed(LEN),
            ShmBuf::zeroed(LEN),
        ];
        let [little, most, none] = [addr(&bufs[0]), addr(&bufs[1]), addr(&bufs[2])];
        bufs[0].write_at(0, &[1; 8]);
        bufs[1].write_at(100_000, &[1; 8]);
        drop(bufs);
        // A life that writes less does not forget the pages an earlier one
        // mapped.
        for _ in 0..2 {
            let again = [
                ShmBuf::zeroed(LEN),
                ShmBuf::zeroed(LEN),
                ShmBuf::zeroed(LEN),
            ];
            assert_eq!(
                [addr(&again[0]), addr(&again[1]), addr(&again[2])],
                [most, little, none]
            );
        }
    }

    #[test]
    fn the_free_list_is_bounded() {
        const LEN: usize = 64 << 20; // never touched: address space only
        let before = parked_bytes();
        let fit = (PARK_MAX_BYTES - before) / LEN;
        let bufs: Vec<ShmBuf> = (0..fit + 1).map(|_| ShmBuf::zeroed(LEN)).collect();
        drop(bufs);
        assert_eq!(parked_bytes(), before + fit * LEN, "one too many was freed");
        // Take them back so the list is as this test found it.
        drop(
            (0..fit)
                .map(|_| ShmBuf::zeroed(LEN).with_vec(std::mem::take))
                .collect::<Vec<_>>(),
        );
        assert_eq!(parked_bytes(), before);
    }

    #[test]
    fn every_mutable_access_feeds_the_dirty_mark() {
        let dirty = |b: &ShmBuf| b.inner.dirty.get();
        let b = ShmBuf::zeroed(64);
        assert_eq!(dirty(&b), 0);
        b.write_at(4, &[1, 2, 3]);
        assert_eq!(dirty(&b), 7);
        b.with_mut(10, 2, |s| s[0] = 9);
        b.write_u64(0, 1); // below the mark
        assert_eq!(dirty(&b), 12);
        b.slice(20, 4).copy_from(&[7; 4]);
        assert_eq!(dirty(&b), 24);
        // Loopback copy inside one buffer, and a copy from another.
        b.slice(20, 4).copy_to(&b.slice(30, 4));
        assert_eq!((dirty(&b), b.read_at(30, 4)), (34, vec![7; 4]));
        ShmBuf::from_vec(vec![8; 2])
            .as_slice()
            .copy_to(&b.slice(40, 2));
        assert_eq!(dirty(&b), 42);
        b.zero_from(6);
        assert_eq!(dirty(&b), 6);
        assert_eq!(
            b.read_at(0, 8),
            [1, 0, 0, 0, 0, 0, 0, 0],
            "below `from`: kept"
        );
        assert!(b.with(|s| s[6..].iter().all(|&x| x == 0)));
        b.with_vec(|v| v.truncate(16));
        assert_eq!((dirty(&b), b.len()), (16, 16));
        assert_eq!(dirty(&ShmBuf::from_vec(vec![0; 5])), 5);
    }
}
