//! Pooled byte buffers for the simulator's hot datapath.
//!
//! Three primitives, all zero-dependency and single-threaded (the simulator
//! runs one thread; everything here is `Rc`/thread-local based):
//!
//! * [`ShmBuf`] / [`BufSlice`] — registered memory: a shared fixed-size
//!   buffer that tracks how much of itself was written and is recycled, its
//!   pages still mapped, when its last owner drops it (see [`shm`]).
//! * [`Pool`] / [`Buf`] — a slab of fixed-size chunks handed out as cheaply
//!   sliceable, reference-counted, immutable views (a minimal `Bytes`).
//!   Dropping the last view of a chunk returns it — *including its `Rc`
//!   allocation* — to the pool free list, so a steady-state
//!   producer/consumer pair performs zero allocator traffic per packet.
//! * [`Scratch`] / [`scratch`] — a thread-local stack of reusable `Vec<u8>`s
//!   for transient encode/snapshot work (frame building, read staging).
//!   Dropping a `Scratch` clears the vector but keeps its capacity.
//!
//! None of them affects virtual time: pooling replaces real allocator
//! calls with free-list pushes, and every simulated cost (kernel copy time,
//! wire time) is charged by the caller exactly as before.

pub mod shm;

pub use shm::{BufSlice, ShmBuf};

use std::cell::{Cell, RefCell};
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::rc::{Rc, Weak};

/// Default chunk size: comfortably a jumbo-ish packet / one MSS segment.
pub const DEFAULT_CHUNK: usize = 2048;

#[derive(Default)]
struct PoolStats {
    /// Chunks created fresh from the allocator.
    allocated: Cell<u64>,
    /// Chunk handouts served from the free list (no allocator traffic).
    recycled: Cell<u64>,
}

struct PoolInner {
    chunk_size: usize,
    free: RefCell<Vec<Rc<ChunkInner>>>,
    stats: PoolStats,
}

/// A chunk's bytes are written only by [`Pool::copy_in`], and only while no
/// view of the chunk exists, so views read them without a borrow flag.
struct ChunkInner {
    data: Box<[u8]>,
    /// Where the chunk goes back to; dangling for a chunk of its own.
    pool: Weak<PoolInner>,
}

/// A pool of fixed-size byte chunks. Clone handles freely; the free list is
/// shared.
#[derive(Clone)]
pub struct Pool {
    inner: Rc<PoolInner>,
}

impl Pool {
    pub fn new(chunk_size: usize) -> Pool {
        assert!(chunk_size > 0);
        Pool {
            inner: Rc::new(PoolInner {
                chunk_size,
                free: RefCell::new(Vec::new()),
                stats: PoolStats::default(),
            }),
        }
    }

    pub fn chunk_size(&self) -> usize {
        self.inner.chunk_size
    }

    /// Copies `bytes` into a pooled chunk and returns a view of exactly that
    /// prefix. Oversized payloads get a dedicated right-sized chunk that is
    /// dropped (not recycled) when released, so the free list stays
    /// uniform.
    pub fn copy_in(&self, bytes: &[u8]) -> Buf {
        let n = bytes.len();
        let free = if n <= self.inner.chunk_size { self.inner.free.borrow_mut().pop() } else { None };
        // The last view of a free chunk put it there: it has no other owner.
        let recycled = free.and_then(|mut c| {
            Rc::get_mut(&mut c)?.data[..n].copy_from_slice(bytes);
            Some(c)
        });
        let chunk = match recycled {
            Some(c) => {
                self.inner.stats.recycled.set(self.inner.stats.recycled.get() + 1);
                c
            }
            None => self.fresh(bytes),
        };
        Buf { chunk, off: 0, len: n }
    }

    fn fresh(&self, bytes: &[u8]) -> Rc<ChunkInner> {
        self.inner.stats.allocated.set(self.inner.stats.allocated.get() + 1);
        let mut data = vec![0u8; self.inner.chunk_size.max(bytes.len())].into_boxed_slice();
        data[..bytes.len()].copy_from_slice(bytes);
        Rc::new(ChunkInner {
            data,
            pool: Rc::downgrade(&self.inner),
        })
    }

    /// Chunks created fresh from the allocator (lifetime total).
    pub fn allocated_chunks(&self) -> u64 {
        self.inner.stats.allocated.get()
    }

    /// Handouts served from the free list (lifetime total).
    pub fn recycled_chunks(&self) -> u64 {
        self.inner.stats.recycled.get()
    }

    /// Chunks currently parked on the free list.
    pub fn free_chunks(&self) -> usize {
        self.inner.free.borrow().len()
    }
}

/// A reference-counted view into a pooled chunk; derefs to its bytes.
/// Cloning and slicing are refcount bumps; dropping the last view recycles
/// the chunk.
pub struct Buf {
    chunk: Rc<ChunkInner>,
    off: usize,
    len: usize,
}

impl Buf {
    /// A sub-view sharing the same chunk (refcount bump, no copy).
    pub fn slice(&self, off: usize, len: usize) -> Buf {
        assert!(off + len <= self.len);
        Buf {
            chunk: Rc::clone(&self.chunk),
            off: self.off + off,
            len,
        }
    }

    /// The sub-view whose bytes are `part`, which must be a subslice of this
    /// view's bytes (as a parser borrowed it).
    pub fn slice_ref(&self, part: &[u8]) -> Buf {
        let off = (part.as_ptr() as usize).wrapping_sub(self.as_ptr() as usize);
        self.slice(off, part.len())
    }
}

/// A view of a copy of `bytes` in a chunk of its own, which no pool takes
/// back.
impl<T: AsRef<[u8]> + ?Sized> From<&T> for Buf {
    fn from(bytes: &T) -> Buf {
        let bytes = bytes.as_ref();
        let chunk = Rc::new(ChunkInner {
            data: bytes.into(),
            pool: Weak::new(),
        });
        Buf { chunk, off: 0, len: bytes.len() }
    }
}

impl Deref for Buf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.chunk.data[self.off..self.off + self.len]
    }
}

impl Clone for Buf {
    fn clone(&self) -> Buf {
        Buf {
            chunk: Rc::clone(&self.chunk),
            off: self.off,
            len: self.len,
        }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        // Last view out returns the chunk — Rc box and all — to the pool,
        // provided it is the pool's uniform size (oversized one-offs just
        // free).
        if Rc::strong_count(&self.chunk) == 1 {
            if let Some(pool) = self.chunk.pool.upgrade() {
                if self.chunk.data.len() == pool.chunk_size {
                    pool.free.borrow_mut().push(Rc::clone(&self.chunk));
                }
            }
        }
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        **self == **other
    }
}

impl Eq for Buf {}

impl PartialEq<Vec<u8>> for Buf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Buf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Buf(len={})", self.len)
    }
}

thread_local! {
    static SCRATCH_STACK: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A reusable `Vec<u8>` borrowed from a thread-local stack; cleared (but
/// capacity kept) and returned on drop. Derefs to `Vec<u8>`.
pub struct Scratch {
    vec: Vec<u8>,
}

/// Takes a cleared scratch vector from the thread-local stack (or a fresh
/// one the first few times).
pub fn scratch() -> Scratch {
    let vec = SCRATCH_STACK.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    Scratch { vec }
}

impl Scratch {
    /// Detaches the underlying vector (it will not return to the stack).
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.vec)
    }
}

impl Deref for Scratch {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.vec
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if self.vec.capacity() == 0 {
            return; // taken by into_vec, or never grew
        }
        self.vec.clear();
        SCRATCH_STACK.with(|s| s.borrow_mut().push(std::mem::take(&mut self.vec)));
    }
}

/// A fixed-capacity, stack-allocated vector: the bounded scratch space the
/// batched verbs datapath drains completions into (`ibv_poll_cq` semantics —
/// "give me up to N"). Never touches the allocator.
pub struct ArrayVec<T, const N: usize> {
    items: [MaybeUninit<T>; N],
    len: usize,
}

impl<T, const N: usize> ArrayVec<T, N> {
    pub fn new() -> Self {
        ArrayVec {
            // SAFETY: an array of `MaybeUninit` needs no initialisation.
            items: unsafe { MaybeUninit::uninit().assume_init() },
            len: 0,
        }
    }

    pub const fn capacity(&self) -> usize {
        N
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn is_full(&self) -> bool {
        self.len == N
    }

    /// Appends `value`; returns it back if full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        if self.len == N {
            return Err(value);
        }
        self.items[self.len].write(value);
        self.len += 1;
        Ok(())
    }

    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // SAFETY: slot `len` was initialised by `push` and is now unowned.
        Some(unsafe { self.items[self.len].assume_init_read() })
    }

    pub fn clear(&mut self) {
        while self.pop().is_some() {}
    }

    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the first `len` slots are initialised.
        unsafe { std::slice::from_raw_parts(self.items.as_ptr().cast::<T>(), self.len) }
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: the first `len` slots are initialised.
        unsafe { std::slice::from_raw_parts_mut(self.items.as_mut_ptr().cast::<T>(), self.len) }
    }

    /// Removes and returns all elements in order, front to back.
    pub fn drain(&mut self) -> ArrayVecDrain<'_, T, N> {
        ArrayVecDrain { av: self, at: 0 }
    }
}

impl<T, const N: usize> Default for ArrayVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for ArrayVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for ArrayVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T, const N: usize> Drop for ArrayVec<T, N> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Front-to-back draining iterator over an [`ArrayVec`].
pub struct ArrayVecDrain<'a, T, const N: usize> {
    av: &'a mut ArrayVec<T, N>,
    at: usize,
}

impl<T, const N: usize> Iterator for ArrayVecDrain<'_, T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.at == self.av.len {
            return None;
        }
        // SAFETY: slot `at` is initialised and ownership moves out exactly
        // once; `Drop` below forgets the moved-out prefix.
        let v = unsafe { self.av.items[self.at].assume_init_read() };
        self.at += 1;
        Some(v)
    }
}

impl<T, const N: usize> Drop for ArrayVecDrain<'_, T, N> {
    fn drop(&mut self) {
        // Drop any elements not yet yielded, then mark the vec empty.
        while self.next().is_some() {}
        self.av.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_recycle_without_new_allocations() {
        let pool = Pool::new(64);
        for i in 0..100u8 {
            let b = pool.copy_in(&[i; 64]);
            assert!(b.iter().all(|&x| x == i));
        }
        // One chunk bounced in and out of the free list the whole time.
        assert_eq!(pool.allocated_chunks(), 1);
        assert_eq!(pool.recycled_chunks(), 99);
        assert_eq!(pool.free_chunks(), 1);
    }

    #[test]
    fn slices_share_the_chunk_and_defer_recycling() {
        let pool = Pool::new(32);
        let b = pool.copy_in(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let tail = b.slice(4, 4);
        drop(b);
        assert_eq!(pool.free_chunks(), 0, "live slice pins the chunk");
        assert_eq!(*tail, [5, 6, 7, 8]);
        // A live view keeps its chunk out of the next copy.
        let next = pool.copy_in(&[9; 8]);
        assert_eq!(*tail, [5, 6, 7, 8]);
        assert_eq!(pool.allocated_chunks(), 2);
        drop((tail, next));
        assert_eq!(pool.free_chunks(), 2);
    }

    #[test]
    fn slice_ref_is_the_view_of_a_parsed_subslice() {
        let pool = Pool::new(32);
        let b = pool.copy_in(b"key=value");
        let value = b.slice_ref(&b[4..]);
        assert_eq!(value, b"value");
        assert_eq!(value.slice_ref(&value[1..3]), b"al");
        assert_eq!(b.slice_ref(&b[9..]), b"");
    }

    #[test]
    fn oversized_payloads_get_dedicated_chunks() {
        let pool = Pool::new(8);
        let b = pool.copy_in(&[9u8; 100]);
        assert_eq!(b.len(), 100);
        drop(b);
        assert_eq!(pool.free_chunks(), 0, "oversize chunks are not pooled");
        // A uniform-size handout still pools.
        drop(pool.copy_in(&[1u8; 8]));
        assert_eq!(pool.free_chunks(), 1);
    }

    #[test]
    fn copies_in_and_out_round_trip() {
        let pool = Pool::new(16);
        let b = pool.copy_in(b"hello world");
        assert_eq!(b, b"hello world".to_vec());
        assert_eq!(b, Buf::from(b"hello world"));
        assert_eq!(b.slice(6, 5), b"world");
        assert_eq!(b.to_vec(), b"hello world");
        drop(Buf::from(&b"hello"[..]));
        assert_eq!(pool.free_chunks(), 0, "a chunk of its own goes to no pool");
    }

    #[test]
    fn scratch_keeps_capacity_across_uses() {
        let cap = {
            let mut s = scratch();
            s.extend_from_slice(&[0u8; 4096]);
            s.capacity()
        };
        let s = scratch();
        assert!(s.is_empty());
        assert!(s.capacity() >= cap, "capacity retained across uses");
        assert_eq!(s.capacity(), cap);
    }

    #[test]
    fn scratch_into_vec_detaches() {
        let mut s = scratch();
        s.extend_from_slice(b"keep me");
        let v = s.into_vec();
        assert_eq!(&v, b"keep me");
    }

    #[test]
    fn array_vec_push_pop_bounds() {
        let mut v: ArrayVec<u32, 3> = ArrayVec::new();
        assert!(v.is_empty());
        assert_eq!(v.capacity(), 3);
        v.push(1).unwrap();
        v.push(2).unwrap();
        v.push(3).unwrap();
        assert!(v.is_full());
        assert_eq!(v.push(4), Err(4));
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn array_vec_drain_is_fifo_and_resets() {
        let mut v: ArrayVec<String, 4> = ArrayVec::new();
        v.push("a".into()).unwrap();
        v.push("b".into()).unwrap();
        v.push("c".into()).unwrap();
        let drained: Vec<String> = v.drain().collect();
        assert_eq!(drained, ["a", "b", "c"]);
        assert!(v.is_empty());
        v.push("d".into()).unwrap();
        assert_eq!(v.as_slice(), ["d"]);
    }

    #[test]
    fn array_vec_partial_drain_drops_rest() {
        use std::rc::Rc;
        let marker = Rc::new(());
        let mut v: ArrayVec<Rc<()>, 4> = ArrayVec::new();
        for _ in 0..3 {
            v.push(Rc::clone(&marker)).unwrap();
        }
        let mut d = v.drain();
        let first = d.next().unwrap();
        drop(d); // remaining two dropped here
        drop(first);
        assert!(v.is_empty());
        assert_eq!(Rc::strong_count(&marker), 1, "no leaks");
    }
}
