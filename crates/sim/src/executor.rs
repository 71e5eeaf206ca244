//! The single-threaded task executor and virtual-clock event loop.
//!
//! Engineered for an allocation-free steady state (see DESIGN.md,
//! "Performance engineering"):
//!
//! * timers live in a hierarchical [`Wheel`], not a
//!   `BinaryHeap` — O(1) amortised insert/fire, capacity retained, one
//!   [`pop_next`](crate::wheel::Wheel::pop_next) per fired instant;
//! * a `Waker` is a plain integer: its data word is the runtime's tag and
//!   the task id, clone and drop do nothing, and `wake` pushes the id onto
//!   the ready queue of the runtime it finds by tag among this thread's
//!   live runtimes — no refcount, no allocation per task slot;
//! * spawned futures are placed in a size-class **task arena**: completing a
//!   task returns its memory to a free list keyed by rounded future size, so
//!   a steady-state workload (e.g. one RPC task per request) re-uses the
//!   same allocations instead of boxing each future, and a class of at most
//!   1 KiB refills from a 16 KiB slab, so a burst of small tasks (a
//!   connection's serving tasks) allocates a slab per 16 KiB of them;
//! * a joined `spawn` and the `block_on` root are one [`Task`] wrapper that
//!   polls the future in place, so the task stores its frame once;
//! * a joined `spawn`/`spawn_at` draws its completion cell from the
//!   runtime's [`oneshot::Pool`] for its output type, and the cell goes back
//!   once task and handle are both gone, so a warm runtime's joined spawns
//!   allocate nothing.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::future::Future;
use std::panic::Location;
use std::pin::Pin;
use std::ptr::NonNull;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::rng::SimRng;
use crate::sync::oneshot;
use crate::time::SimTime;
use crate::wheel::Wheel;

/// Task ids of one runtime, in FIFO order of their wakes.
type ReadyQueue = Rc<RefCell<VecDeque<usize>>>;

/// A waker's data word is `tag << ID_BITS | task id`, and a runtime's tag is
/// `thread << RUNTIME_BITS | runtime`: the index of the thread that made the
/// runtime (from 1, in the order threads make their first one) and the
/// number of runtimes that thread made before it. Tags are never reused.
const ID_BITS: u32 = 24;
const RUNTIME_BITS: u32 = 24;
const THREAD_BITS: u32 = usize::BITS - ID_BITS - RUNTIME_BITS;
const _: () = assert!(usize::BITS == 64, "a waker's data word packs 64 bits");

thread_local! {
    /// The ready queue of every runtime of this thread that is not dropped,
    /// by tag — where a wake finds its runtime, inside `block_on` or not.
    static LIVE: RefCell<Vec<(usize, ReadyQueue)>> = const { RefCell::new(Vec::new()) };
    /// This thread's index (0 until its first runtime) and its runtimes made.
    static TAGS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// A fresh tag for a runtime made on this thread.
fn next_tag() -> usize {
    static THREADS: AtomicUsize = AtomicUsize::new(0);
    TAGS.with(|tags| {
        let (mut thread, made) = tags.get();
        if thread == 0 {
            thread = THREADS.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(
                thread < 1 << THREAD_BITS,
                "sim: runtimes on more than 2^{THREAD_BITS} threads"
            );
        }
        assert!(
            made < 1 << RUNTIME_BITS,
            "sim: more than 2^{RUNTIME_BITS} runtimes on one thread"
        );
        tags.set((thread, made + 1));
        thread << RUNTIME_BITS | made
    })
}

/// The vtable of every task waker: its data word is an integer.
static VTABLE: RawWakerVTable = {
    unsafe fn clone(data: *const ()) -> RawWaker {
        RawWaker::new(data, &VTABLE)
    }
    unsafe fn wake(data: *const ()) {
        wake_task(data.addr());
    }
    unsafe fn drop_waker(_: *const ()) {}
    RawWakerVTable::new(clone, wake, wake, drop_waker)
};

/// The waker of task `id` of the runtime tagged `tag`.
fn task_waker(tag: usize, id: usize) -> Waker {
    let data = std::ptr::without_provenance::<()>(tag << ID_BITS | id);
    // SAFETY: the vtable never dereferences the data word, an integer; every
    // function is sound for any value and from any thread.
    unsafe { Waker::from_raw(RawWaker::new(data, &VTABLE)) }
}

/// Queues the task a waker's data word names on its runtime. A runtime of
/// this thread that is gone takes no wake; one of another thread panics.
fn wake_task(data: usize) {
    let (tag, id) = (data >> ID_BITS, data & ((1 << ID_BITS) - 1));
    // During thread teardown there is no runtime left to wake.
    let _ = LIVE.try_with(|live| {
        let live = live.borrow();
        match live.iter().rev().find(|(t, _)| *t == tag) {
            Some((_, ready)) => ready.borrow_mut().push_back(id),
            None => assert!(
                tag >> RUNTIME_BITS == TAGS.with(|t| t.get().0),
                "sim: waker used off the runtime thread"
            ),
        }
    });
}

/// Pooled task allocations are rounded up to a power-of-two size class:
/// 16, 32, ... 64 KiB. Larger or over-aligned futures fall back to exact
/// one-shot allocations.
const TASK_ALIGN: usize = 16;
const MIN_CLASS_SHIFT: u32 = 4; // 16 bytes
const NUM_CLASSES: usize = 13; // up to 16 << 12 = 64 KiB
const UNPOOLED: usize = usize::MAX;
/// The classes up to 1 KiB (16 << 6) refill from a slab: one allocation
/// carved into [`SLAB_BYTES`] of blocks, where a larger class allocates a
/// block per refill.
const SLAB_CLASSES: usize = 7;
const SLAB_BYTES: usize = 16 * 1024;
/// A slab: a [`TASK_ALIGN`] header holding the address of the slab made
/// before it, then its blocks.
const SLAB_LAYOUT: Layout = match Layout::from_size_align(TASK_ALIGN + SLAB_BYTES, TASK_ALIGN) {
    Ok(layout) => layout,
    Err(_) => panic!("a slab is a valid layout"),
};

/// A spawned future placed in arena memory, with monomorphised poll/drop
/// thunks — a manually laid-out `Box<dyn Future>` whose allocation can be
/// recycled.
struct RawTask {
    ptr: NonNull<u8>,
    poll_fn: unsafe fn(*mut u8, &mut Context<'_>) -> Poll<()>,
    drop_fn: unsafe fn(*mut u8),
    /// Size-class index, or [`UNPOOLED`] for exact-layout one-offs.
    class: usize,
    layout: Layout,
    /// The `spawn*`/`block_on` call that made the task.
    site: Site,
}

/// Where a task was spawned.
pub type Site = &'static Location<'static>;

impl RawTask {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `ptr` holds a live, pinned `F`; `poll_fn` is the matching
        // monomorphisation. The future never moves until `drop_fn`.
        unsafe { (self.poll_fn)(self.ptr.as_ptr(), cx) }
    }
}

unsafe fn poll_raw<F: Future<Output = ()>>(ptr: *mut u8, cx: &mut Context<'_>) -> Poll<()> {
    // SAFETY: caller guarantees `ptr` points at a live `F` that is never
    // moved (arena placement is stable until drop).
    unsafe { Pin::new_unchecked(&mut *ptr.cast::<F>()).poll(cx) }
}

unsafe fn drop_raw<F>(ptr: *mut u8) {
    // SAFETY: caller guarantees `ptr` points at a live `F`, dropped once.
    unsafe { std::ptr::drop_in_place(ptr.cast::<F>()) }
}

/// The allocation of size class `class`.
fn class_layout(class: usize) -> Layout {
    let bytes = 1usize << (MIN_CLASS_SHIFT + class as u32);
    // A power of two of at most 64 KiB at 16-byte alignment.
    Layout::from_size_align(bytes, TASK_ALIGN).expect("size classes are valid layouts")
}

/// Allocates `layout`, which is not zero-sized.
fn alloc_block(layout: Layout) -> NonNull<u8> {
    // SAFETY: every layout asked for here has a non-zero size.
    NonNull::new(unsafe { alloc(layout) }).unwrap_or_else(|| handle_alloc_error(layout))
}

/// Free lists of recycled task allocations, one per size class. A free
/// block holds the address of the next one in its first bytes, so
/// recycling a block allocates nothing. A slab class's blocks belong to the
/// arena's slabs, which it frees when it drops; a larger class's blocks are
/// freed one by one.
struct TaskArena {
    free: [Option<NonNull<u8>>; NUM_CLASSES],
    /// The slab made last; each slab's header links the one before.
    slabs: Option<NonNull<u8>>,
}

impl TaskArena {
    fn new() -> Self {
        TaskArena {
            free: [None; NUM_CLASSES],
            slabs: None,
        }
    }

    fn pop(&mut self, class: usize) -> Option<NonNull<u8>> {
        let block = self.free[class]?;
        // SAFETY: `push` stored the next free block's address in this one.
        self.free[class] = unsafe { block.cast::<Option<NonNull<u8>>>().read() };
        Some(block)
    }

    /// Takes back a free block of `class_layout(class)`: ≥ 16 B, 16-aligned.
    fn push(&mut self, class: usize, block: NonNull<u8>) {
        // SAFETY: the arena owns the free block, which fits an aligned pointer.
        unsafe { block.cast::<Option<NonNull<u8>>>().write(self.free[class]) };
        self.free[class] = Some(block);
    }

    /// A block of the empty class `class`: one of a new slab's, the others
    /// free-listed, or a block of its own above the slab classes.
    fn refill(&mut self, class: usize) -> NonNull<u8> {
        if class >= SLAB_CLASSES {
            return alloc_block(class_layout(class));
        }
        let slab = alloc_block(SLAB_LAYOUT);
        // SAFETY: the header is the slab's first 16-aligned bytes.
        unsafe { slab.cast::<Option<NonNull<u8>>>().write(self.slabs) };
        self.slabs = Some(slab);
        let size = class_layout(class).size();
        // SAFETY: every block lies inside the slab, after its header, at a
        // multiple of its 16-aligned size.
        let block = |i: usize| unsafe { slab.add(TASK_ALIGN + i * size) };
        for i in (1..SLAB_BYTES / size).rev() {
            self.push(class, block(i));
        }
        block(0)
    }

    fn place<F: Future<Output = ()> + 'static>(&mut self, future: F, site: Site) -> RawTask {
        let size = std::mem::size_of::<F>().max(1);
        let (class, layout) = if std::mem::align_of::<F>() <= TASK_ALIGN
            && size <= (1usize << MIN_CLASS_SHIFT) << (NUM_CLASSES - 1)
        {
            let class = (size
                .next_power_of_two()
                .trailing_zeros()
                .max(MIN_CLASS_SHIFT)
                - MIN_CLASS_SHIFT) as usize;
            (class, class_layout(class))
        } else {
            (UNPOOLED, Layout::new::<F>())
        };
        let ptr = match class {
            UNPOOLED => alloc_block(layout),
            _ => self.pop(class).unwrap_or_else(|| self.refill(class)),
        };
        // SAFETY: `ptr` is valid for `layout` which covers `F`'s size/align.
        unsafe { ptr.as_ptr().cast::<F>().write(future) };
        RawTask {
            ptr,
            poll_fn: poll_raw::<F>,
            drop_fn: drop_raw::<F>,
            class,
            layout,
            site,
        }
    }

    /// Drops the task's future and recycles (or frees) its memory.
    fn retire(&mut self, task: RawTask) {
        // SAFETY: the future is live and this is its single drop.
        unsafe { (task.drop_fn)(task.ptr.as_ptr()) };
        if task.class == UNPOOLED {
            // SAFETY: allocated with exactly this layout.
            unsafe { dealloc(task.ptr.as_ptr(), task.layout) };
        } else {
            self.push(task.class, task.ptr);
        }
    }
}

impl Drop for TaskArena {
    fn drop(&mut self) {
        for class in SLAB_CLASSES..NUM_CLASSES {
            while let Some(ptr) = self.pop(class) {
                // SAFETY: free-listed pointers were allocated with their
                // class layout and hold no live future.
                unsafe { dealloc(ptr.as_ptr(), class_layout(class)) };
            }
        }
        while let Some(slab) = self.slabs {
            // SAFETY: `refill` linked the slab made before this one in its
            // header, and allocated it with `SLAB_LAYOUT`.
            unsafe {
                self.slabs = slab.cast::<Option<NonNull<u8>>>().read();
                dealloc(slab.as_ptr(), SLAB_LAYOUT);
            }
        }
    }
}

pub(crate) struct Inner {
    now: Cell<u64>,
    /// This runtime's part of its wakers' data word.
    tag: usize,
    /// Task slots by id; a finished task's id is reused.
    tasks: RefCell<Vec<Option<RawTask>>>,
    free: RefCell<Vec<usize>>,
    live_tasks: Cell<usize>,
    ready: ReadyQueue,
    timers: RefCell<Wheel<Waker>>,
    /// The fired timers of this instant whose tasks are not polled yet, in
    /// `(deadline, seq)` order; the buffer is reused.
    firing: RefCell<VecDeque<(u64, u64, Waker)>>,
    arena: RefCell<TaskArena>,
    /// The completion cells of joined tasks: a `oneshot::Pool<T>` per
    /// output type `T`.
    join_cells: RefCell<HashMap<TypeId, Box<dyn Any>>>,
    timer_seq: Cell<u64>,
    /// `timer_seq` at the last fired instant: the timers below it that are
    /// due now fired then.
    fired_below: Cell<u64>,
    /// The seq of the fired timer whose task is being polled; `u64::MAX`
    /// once they are all polled and the ready queue is.
    turn: Cell<u64>,
    polls: Cell<u64>,
    /// Polls by spawn site, counted only while this is `Some`.
    polls_by_site: RefCell<Option<HashMap<Site, u64>>>,
    pub(crate) rng: RefCell<SimRng>,
}

impl Inner {
    fn new(seed: u64) -> Rc<Self> {
        let tag = next_tag();
        let ready = ReadyQueue::default();
        LIVE.with(|live| live.borrow_mut().push((tag, Rc::clone(&ready))));
        Rc::new(Inner {
            now: Cell::new(0),
            tag,
            tasks: RefCell::new(Vec::new()),
            free: RefCell::new(Vec::new()),
            live_tasks: Cell::new(0),
            ready,
            timers: RefCell::new(Wheel::new()),
            firing: RefCell::new(VecDeque::new()),
            arena: RefCell::new(TaskArena::new()),
            join_cells: RefCell::new(HashMap::new()),
            timer_seq: Cell::new(0),
            fired_below: Cell::new(0),
            turn: Cell::new(u64::MAX),
            polls: Cell::new(0),
            polls_by_site: RefCell::new(None),
            rng: RefCell::new(SimRng::seed_from_u64(seed)),
        })
    }

    pub(crate) fn now_nanos(&self) -> u64 {
        self.now.get()
    }

    /// Registers `waker` to be woken once the virtual clock reaches
    /// `deadline` (in nanoseconds): the timer's seq, its place among the
    /// timers of that deadline.
    pub(crate) fn register_timer(&self, deadline: u64, waker: Waker) -> u64 {
        let seq = self.timer_seq.get();
        self.timer_seq.set(seq + 1);
        self.timers.borrow_mut().insert(deadline, seq, waker);
        seq
    }

    /// Whether the turn of timer `(deadline, seq)` has come: its task was
    /// polled (or, cancelled, would have been) at its place in its instant.
    pub(crate) fn timer_passed(&self, deadline: u64, seq: u64) -> bool {
        let now = self.now.get();
        deadline < now
            || (deadline == now && seq < self.fired_below.get() && seq <= self.turn.get())
    }

    /// Takes timer `(deadline, seq)` back, from the wheel or from the fired
    /// ones still waiting for their turn: `false` if its turn has come.
    pub(crate) fn cancel_timer(&self, deadline: u64, seq: u64) -> bool {
        if self.timers.borrow_mut().remove(deadline, seq).is_some() {
            return true;
        }
        let mut firing = self.firing.borrow_mut();
        let at = firing.iter().position(|e| e.1 == seq);
        at.and_then(|at| firing.remove(at)).is_some()
    }

    /// Puts back a timer [`cancel_timer`](Self::cancel_timer) took, whose
    /// turn has not come: it fires where it would have.
    pub(crate) fn restore_timer(&self, deadline: u64, seq: u64, waker: Waker) {
        debug_assert!(!self.timer_passed(deadline, seq));
        if deadline == self.now.get() && seq < self.fired_below.get() {
            let mut firing = self.firing.borrow_mut();
            let at = firing.partition_point(|e| e.1 < seq);
            firing.insert(at, (deadline, seq, waker));
        } else {
            self.timers.borrow_mut().reinsert(deadline, seq, waker);
        }
    }

    /// The id of the task `waker` wakes, if it is one of this runtime's.
    fn own_task(&self, waker: &Waker) -> Option<usize> {
        let data = waker.data().addr();
        (std::ptr::eq(waker.vtable(), &VTABLE) && data >> ID_BITS == self.tag)
            .then_some(data & ((1 << ID_BITS) - 1))
    }

    fn insert_task<F: Future<Output = ()> + 'static>(&self, future: F, site: Site) -> usize {
        let task = self.arena.borrow_mut().place(future, site);
        let mut tasks = self.tasks.borrow_mut();
        let id = match self.free.borrow_mut().pop() {
            Some(id) => id,
            None => {
                assert!(
                    tasks.len() < 1 << ID_BITS,
                    "sim: more than 2^{ID_BITS} live tasks"
                );
                tasks.push(None);
                tasks.len() - 1
            }
        };
        tasks[id] = Some(task);
        self.live_tasks.set(self.live_tasks.get() + 1);
        id
    }

    /// A joined task's completion cell, from the pool for its output type.
    fn join_cell<T: 'static>(&self) -> (oneshot::Sender<T>, oneshot::Receiver<T>) {
        let mut pools = self.join_cells.borrow_mut();
        let pool = pools
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(oneshot::Pool::<T>::new()));
        pool.downcast_ref::<oneshot::Pool<T>>()
            .expect("a pool is keyed by its output type")
            .channel()
    }

    fn schedule(&self, id: usize) {
        self.ready.borrow_mut().push_back(id);
    }

    /// Polls one task; returns true if a task existed.
    fn poll_task(self: &Rc<Self>, id: usize) -> bool {
        let Some(task) = self.tasks.borrow_mut().get_mut(id).and_then(Option::take) else {
            return false; // already completed; spurious wake
        };
        // If the poll panics, the guard still drops the future and recycles
        // its arena memory during unwind.
        struct Retire<'a> {
            inner: &'a Inner,
            task: Option<RawTask>,
        }
        impl Drop for Retire<'_> {
            fn drop(&mut self) {
                if let Some(t) = self.task.take() {
                    self.inner.arena.borrow_mut().retire(t);
                }
            }
        }
        let mut guard = Retire {
            inner: self,
            task: Some(task),
        };
        let waker = task_waker(self.tag, id);
        let mut cx = Context::from_waker(&waker);
        self.polls.set(self.polls.get() + 1);
        let task = guard
            .task
            .as_mut()
            .expect("the guard holds the task until it retires");
        if let Some(by_site) = &mut *self.polls_by_site.borrow_mut() {
            *by_site.entry(task.site).or_default() += 1;
        }
        match task.poll(&mut cx) {
            Poll::Ready(()) => {
                drop(guard); // retires the task
                self.free.borrow_mut().push(id);
                self.live_tasks.set(self.live_tasks.get() - 1);
            }
            Poll::Pending => {
                self.tasks.borrow_mut()[id] = guard.task.take();
            }
        }
        true
    }

    /// The poll loop: drains the ready queue, then advances the clock to the
    /// nearest timer deadline and fires every timer of that instant, until
    /// `done()` turns true (checked after every poll) or nothing is runnable
    /// and no timer is registered. The clock only ever advances to *fired*
    /// deadlines.
    ///
    /// The tasks of an instant's timers are polled first, each at its turn,
    /// in `(deadline, seq)` order, then what they woke, in wake order — as if
    /// every timer's wake had been queued when the instant began, except
    /// that a timer can still be taken back until its turn comes.
    fn run(self: &Rc<Self>, done: &dyn Fn() -> bool) {
        loop {
            // Bound first: a `borrow_mut` in the scrutinee would live across
            // the poll, and a wake inside it pushes onto this queue.
            let fired = self.firing.borrow_mut().pop_front();
            let next = match fired {
                Some((_, seq, waker)) => {
                    self.turn.set(seq);
                    let Some(id) = self.own_task(&waker) else {
                        waker.wake();
                        continue;
                    };
                    Some(id)
                }
                None => {
                    self.turn.set(u64::MAX);
                    self.ready.borrow_mut().pop_front()
                }
            };
            if let Some(id) = next {
                self.poll_task(id);
                if done() {
                    return;
                }
                continue;
            }
            let mut firing = self.firing.borrow_mut();
            let Some(deadline) = self.timers.borrow_mut().pop_next(&mut firing) else {
                return;
            };
            debug_assert!(deadline >= self.now.get());
            self.now.set(deadline.max(self.now.get()));
            self.fired_below.set(self.timer_seq.get());
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // From here on a wake of this runtime's tasks is a no-op. At thread
        // teardown the list may already be gone, and this runtime with it.
        let _ = LIVE.try_with(|live| live.borrow_mut().retain(|(tag, _)| *tag != self.tag));
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Rc<Inner>>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn with_current<T>(f: impl FnOnce(&Rc<Inner>) -> T) -> T {
    CURRENT.with(|c| {
        let stack = c.borrow();
        // Every sim call runs inside `Runtime::block_on` (documented panic).
        let inner = stack
            .last()
            .expect("sim: no runtime is active on this thread; use Runtime::block_on");
        f(inner)
    })
}

/// Like [`with_current`] but returns `None` when no runtime is active instead
/// of panicking; used by telemetry, which must work outside a runtime.
pub(crate) fn try_with_current<T>(f: impl FnOnce(&Rc<Inner>) -> T) -> Option<T> {
    CURRENT.with(|c| {
        let stack = c.borrow();
        stack.last().map(f)
    })
}

struct EnterGuard;

impl EnterGuard {
    fn new(inner: Rc<Inner>) -> Self {
        CURRENT.with(|c| c.borrow_mut().push(inner));
        EnterGuard
    }
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Error returned by [`JoinHandle`] when the awaited task panicked or was
/// dropped before completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinError;

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task was cancelled or panicked before completion")
    }
}

impl std::error::Error for JoinError {}

/// Handle to a spawned task. Awaiting it yields the task's output.
///
/// Dropping the handle detaches the task (it keeps running).
pub struct JoinHandle<T> {
    result: oneshot::Receiver<T>,
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.result)
            .poll(cx)
            .map(|r| r.map_err(|_| JoinError))
    }
}

/// A future and the sink of its output: `spawn`'s pooled oneshot sender or
/// `block_on`'s result cell. The future is polled in place, stored once, and
/// dropped as soon as it is ready, so wakes from its destructors reach the
/// ready queue ahead of its joiner's.
struct Task<F, D> {
    future: Option<F>,
    deliver: Option<D>,
}

impl<F: Future, D: FnOnce(F::Output)> Future for Task<F, D> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `future` is structurally pinned and `deliver` is not:
        // `future` is only reached through the `Pin` below and leaves only by
        // `Pin::set`, which drops it in place; `Task` has no `Drop` impl and
        // is `Unpin` only when `F` is.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: as above — `this.future` is never moved while pinned.
        let mut future = unsafe { Pin::new_unchecked(&mut this.future) };
        let f = future
            .as_mut()
            .as_pin_mut()
            .expect("a finished task is not polled");
        let out = std::task::ready!(f.poll(cx));
        future.set(None);
        (this.deliver.take().expect("the future was ready once"))(out);
        Poll::Ready(())
    }
}

pub(crate) fn spawn<F>(future: F, site: Site) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    with_current(|inner| {
        let (tx, rx) = inner.join_cell();
        let task = Task {
            future: Some(future),
            deliver: Some(move |out| drop(tx.send(out))),
        };
        let id = inner.insert_task(task, site);
        inner.schedule(id);
        JoinHandle { result: rx }
    })
}

/// A future held back until the instant its task's timer fires. A poll
/// before then — a stale timer of the task that held the slot before —
/// finds it not yet due and leaves it unpolled.
struct At<F> {
    start: u64,
    future: F,
}

impl<F: Future> Future for At<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        // SAFETY: `future` is structurally pinned: it is only reached through
        // the `Pin` below, never moved out, and `At` has no `Drop` impl.
        let this = unsafe { self.get_unchecked_mut() };
        if with_current(|inner| inner.now_nanos()) < this.start {
            return Poll::Pending;
        }
        // SAFETY: as above.
        unsafe { Pin::new_unchecked(&mut this.future) }.poll(cx)
    }
}

pub(crate) fn spawn_at<F>(start: SimTime, future: F, site: Site) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let start = start.as_nanos();
    if start <= with_current(|inner| inner.now_nanos()) {
        return spawn(future, site);
    }
    with_current(|inner| {
        let (tx, rx) = inner.join_cell();
        let task = Task {
            future: Some(At { start, future }),
            deliver: Some(move |out| drop(tx.send(out))),
        };
        let id = inner.insert_task(task, site);
        inner.register_timer(start, task_waker(inner.tag, id));
        JoinHandle { result: rx }
    })
}

/// Spawns a task with no [`JoinHandle`]: no completion cell is taken.
/// The choice for fire-and-forget tasks whose handle would be dropped
/// anyway.
pub(crate) fn spawn_detached<F>(future: F, site: Site)
where
    F: Future<Output = ()> + 'static,
{
    with_current(|inner| {
        let id = inner.insert_task(future, site);
        inner.schedule(id);
    });
}

/// Starts counting the current runtime's polls by spawn site, from zero.
pub(crate) fn count_polls_by_site() {
    with_current(|inner| *inner.polls_by_site.borrow_mut() = Some(HashMap::new()));
}

/// Stops counting polls by spawn site; the counts, most polls first.
pub(crate) fn take_polls_by_site() -> Vec<(Site, u64)> {
    let counted = with_current(|inner| inner.polls_by_site.borrow_mut().take());
    let mut rows: Vec<_> = counted.unwrap_or_default().into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    rows
}

/// A deterministic, single-threaded async runtime with a virtual clock.
///
/// See the [crate docs](crate) for semantics. Runtimes may be nested (a
/// `block_on` inside a `block_on` uses a fresh runtime), though the simulation
/// code never needs that.
pub struct Runtime {
    inner: Rc<Inner>,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// Creates a runtime whose RNG is seeded with `0`.
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// Creates a runtime with a caller-chosen RNG seed. Two runs with the
    /// same seed and the same program produce identical virtual-time traces.
    pub fn with_seed(seed: u64) -> Self {
        Runtime {
            inner: Inner::new(seed),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.inner.now_nanos())
    }

    /// Total number of task polls executed so far (an activity metric used by
    /// the substrate benchmarks).
    pub fn poll_count(&self) -> u64 {
        self.inner.polls.get()
    }

    /// Runs `future` to completion, driving all spawned tasks and the virtual
    /// clock.
    ///
    /// # Panics
    /// Panics if the simulation deadlocks: the root future is pending but no
    /// task is runnable and no timer is registered.
    #[track_caller]
    pub fn block_on<F>(&self, future: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let site = Location::caller();
        let _guard = EnterGuard::new(Rc::clone(&self.inner));
        // The root future is an ordinary task (the first `block_on` of a
        // runtime makes it task 0) scheduled through the ready queue.
        let result: Rc<RefCell<Option<F::Output>>> = Rc::new(RefCell::new(None));
        let result2 = Rc::clone(&result);
        let root = Task {
            future: Some(future),
            deliver: Some(move |out| *result2.borrow_mut() = Some(out)),
        };
        let root_id = self.inner.insert_task(root, site);
        self.inner.schedule(root_id);
        // Returns the moment the root future finishes — remaining tasks are
        // detached and dropped with the runtime state.
        self.inner.run(&|| result.borrow().is_some());
        let out = result.borrow_mut().take();
        out.unwrap_or_else(|| {
            panic!(
                "sim: deadlock — root future pending, no runnable tasks, \
                 no timers ({} live tasks, t={}ns)",
                self.inner.live_tasks.get(),
                self.inner.now.get()
            )
        })
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Drop remaining task futures before the runtime's shared state so
        // destructors that touch channels still find a consistent world.
        let mut tasks = self.inner.tasks.borrow_mut();
        let mut arena = self.inner.arena.borrow_mut();
        for slot in tasks.iter_mut() {
            if let Some(task) = slot.take() {
                arena.retire(task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::sleep;
    use std::time::Duration;

    impl Inner {
        /// Timers registered and not yet fired.
        pub(crate) fn pending_timers(&self) -> usize {
            self.timers.borrow().len()
        }
    }

    #[test]
    fn block_on_returns_value() {
        let rt = Runtime::new();
        assert_eq!(rt.block_on(async { 7 }), 7);
    }

    #[test]
    fn spawn_and_join() {
        let rt = Runtime::new();
        let v = rt.block_on(async {
            let a = crate::spawn(async { 1u64 });
            let b = crate::spawn(async { 2u64 });
            a.await.unwrap() + b.await.unwrap()
        });
        assert_eq!(v, 3);
    }

    #[test]
    fn virtual_time_advances_only_by_timers() {
        let rt = Runtime::new();
        let d = rt.block_on(async {
            let t0 = crate::now();
            sleep(Duration::from_millis(5)).await;
            sleep(Duration::from_micros(1)).await;
            crate::now() - t0
        });
        assert_eq!(d, Duration::from_nanos(5_001_000));
    }

    #[test]
    fn concurrent_sleeps_overlap() {
        let rt = Runtime::new();
        let d = rt.block_on(async {
            let t0 = crate::now();
            let a = crate::spawn(async { sleep(Duration::from_micros(10)).await });
            let b = crate::spawn(async { sleep(Duration::from_micros(10)).await });
            a.await.unwrap();
            b.await.unwrap();
            crate::now() - t0
        });
        assert_eq!(d, Duration::from_micros(10));
    }

    #[test]
    fn tasks_run_in_spawn_order_at_same_time() {
        let rt = Runtime::new();
        let order = rt.block_on(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..8 {
                let log = Rc::clone(&log);
                handles.push(crate::spawn(async move {
                    log.borrow_mut().push(i);
                }));
            }
            for h in handles {
                h.await.unwrap();
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// Each `spawn*` and `block_on` call site is a row of its own, counted
    /// only between `count_polls_by_site` and `take_polls_by_site`.
    #[test]
    fn polls_are_counted_by_spawn_site_only_while_asked() {
        let us = Duration::from_micros;
        let rt = Runtime::new();
        let root = line!() + 1;
        let (rows, sites) = rt.block_on(async move {
            crate::spawn_detached(async move { sleep(us(1)).await });
            sleep(us(2)).await;
            crate::count_polls_by_site();
            let detached = line!() + 1;
            crate::spawn_detached(async move { sleep(us(1)).await });
            let joined = line!() + 1;
            let handle = crate::spawn(async move { sleep(us(1)).await });
            let at = line!() + 1;
            let later = crate::spawn_at(crate::now() + us(5), async {});
            handle.await.unwrap();
            later.await.unwrap();
            let rows = crate::take_polls_by_site();
            assert!(crate::take_polls_by_site().is_empty(), "the count stopped");
            (rows, [detached, joined, at])
        });
        let rows: Vec<_> = rows.iter().map(|(site, n)| (site.line(), *n)).collect();
        // Two polls each: the first parks on a sleep, the second ends; the
        // `spawn_at` task is first polled when it is due. The task spawned
        // before the count is not there; the root is, under its `block_on`,
        // woken by the two joins.
        let [detached, joined, at] = sites;
        assert_eq!(rows, [(root, 2), (detached, 2), (joined, 2), (at, 1)]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_panics() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (_tx, rx) = crate::sync::oneshot::channel::<()>();
            let _ = rx.await;
        });
    }

    /// A joined task's future is dropped before its output reaches the
    /// joiner, so a wake its destructor sends is queued ahead of the
    /// joiner's; a task the runtime drops unfinished fails its handle.
    #[test]
    fn a_joined_future_drops_before_its_output_is_delivered() {
        struct Guard(Option<crate::sync::oneshot::Sender<()>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                let _ = self.0.take().expect("dropped once").send(());
            }
        }
        /// Ready on its second poll, still holding the guard: only dropping
        /// the future releases it.
        struct Holds {
            _guard: Guard,
            polled: bool,
        }
        impl Future for Holds {
            type Output = u32;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if std::mem::replace(&mut self.polled, true) {
                    return Poll::Ready(7);
                }
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }

        let order = Runtime::new().block_on(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let (tx, rx) = crate::sync::oneshot::channel();
            let l = Rc::clone(&log);
            let third = crate::spawn(async move {
                rx.await.expect("the guard sends");
                l.borrow_mut().push("third");
            });
            let joined = crate::spawn(Holds {
                _guard: Guard(Some(tx)),
                polled: false,
            });
            let l = Rc::clone(&log);
            let joiner = crate::spawn(async move {
                assert_eq!(joined.await, Ok(7));
                l.borrow_mut().push("joiner");
            });
            third.await.unwrap();
            joiner.await.unwrap();
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, ["third", "joiner"]);

        let rt = Runtime::new();
        // The root returns before the task is ever polled.
        let [unfinished] = rt.block_on(async { [crate::spawn(std::future::pending::<u32>())] });
        drop(rt);
        assert_eq!(Runtime::new().block_on(unfinished), Err(JoinError));
    }

    /// What a [`Parked`] task shows the test: its polls and latest waker.
    #[derive(Default)]
    struct Probe {
        polls: Cell<u32>,
        waker: RefCell<Option<Waker>>,
    }

    /// A future that parks until woken and is ready on its second poll.
    struct Parked(Rc<Probe>);

    impl Future for Parked {
        type Output = u32;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
            let polls = self.0.polls.get() + 1;
            self.0.polls.set(polls);
            if polls > 1 {
                return Poll::Ready(polls);
            }
            *self.0.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    /// Spawns a [`Parked`] task and lets it park.
    async fn spawn_parked() -> (JoinHandle<u32>, Rc<Probe>) {
        let probe = Rc::new(Probe::default());
        let handle = crate::spawn(Parked(Rc::clone(&probe)));
        crate::time::yield_now().await;
        assert_eq!(probe.polls.get(), 1, "the task parked");
        (handle, probe)
    }

    fn waker_of(probe: &Probe) -> Waker {
        probe
            .waker
            .borrow()
            .clone()
            .expect("a parked task left its waker")
    }

    #[test]
    fn a_waker_woken_off_the_runtime_thread_panics() {
        let rt = Runtime::new();
        let (_handle, probe) = rt.block_on(spawn_parked());
        let waker = waker_of(&probe);
        let woken = std::thread::spawn(move || waker.wake()).join();
        let payload = woken.expect_err("an off-thread wake must panic");
        let message = payload
            .downcast_ref::<&str>()
            .expect("a static panic message");
        assert_eq!(*message, "sim: waker used off the runtime thread");
        drop(rt);
    }

    #[test]
    fn a_waker_of_a_dropped_runtime_is_a_no_op() {
        let rt = Runtime::new();
        let (handle, probe) = rt.block_on(spawn_parked());
        let stale = waker_of(&probe);
        drop(rt);
        // A runtime made since has a task of the same id, parked: the stale
        // wakes must not reach it either.
        let rt = Runtime::new();
        let (fresh, fresh_probe) = rt.block_on(spawn_parked());
        stale.wake_by_ref();
        stale.wake();
        rt.block_on(crate::time::yield_now());
        assert_eq!(
            fresh_probe.polls.get(),
            1,
            "a stale wake polled the fresh task"
        );
        waker_of(&fresh_probe).wake();
        assert_eq!(rt.block_on(fresh), Ok(2));
        assert_eq!(rt.block_on(handle), Err(JoinError));
    }

    #[test]
    fn a_wake_between_two_block_ons_runs_its_task_in_the_second() {
        let rt = Runtime::new();
        let (handle, probe) = rt.block_on(spawn_parked());
        waker_of(&probe).wake();
        assert_eq!(rt.block_on(handle), Ok(2));
    }

    #[test]
    fn nested_runtimes_route_each_wake_to_its_own_queue() {
        let rt = Runtime::new();
        let polls = rt.block_on(async {
            // Task 1 of the outer runtime.
            let (outer, outer_probe) = spawn_parked().await;
            let inner = Runtime::new().block_on(async move {
                // Task 1 of the inner runtime: the same id.
                let (inner, inner_probe) = spawn_parked().await;
                waker_of(&outer_probe).wake();
                crate::time::yield_now().await;
                assert_eq!(
                    inner_probe.polls.get(),
                    1,
                    "the outer wake polled the inner task"
                );
                waker_of(&inner_probe).wake();
                inner.await.expect("the inner task finishes")
            });
            (outer.await.expect("the outer task finishes"), inner)
        });
        assert_eq!(polls, (2, 2));
    }

    /// What a [`Stamps`] future shows the test: the instant of each poll,
    /// and whether it was dropped.
    #[derive(Default)]
    struct StampLog {
        polls: RefCell<Vec<u64>>,
        dropped: Cell<bool>,
    }

    /// A future that logs each poll and is ready on its first.
    struct Stamps(Rc<StampLog>);

    impl Future for Stamps {
        type Output = ();
        fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
            self.0.polls.borrow_mut().push(crate::now().as_nanos());
            Poll::Ready(())
        }
    }

    impl Drop for Stamps {
        fn drop(&mut self) {
            self.0.dropped.set(true);
        }
    }

    #[test]
    fn spawn_at_polls_first_at_its_start_once() {
        let rt = Runtime::new();
        let polls = rt.block_on(async {
            // A task that finishes at 1 µs leaves its 2 µs timer behind; the
            // task spawned next takes its slot, and the stale timer wakes it
            // before its start.
            let early = crate::spawn(crate::time::timeout(
                Duration::from_micros(1),
                sleep(Duration::from_micros(2)),
            ));
            assert!(early.await.unwrap().is_err(), "the timeout fired first");
            let log = Rc::new(StampLog::default());
            let start = crate::now() + Duration::from_micros(4);
            crate::spawn_at(start, Stamps(Rc::clone(&log)))
                .await
                .unwrap();
            assert_eq!(crate::now(), start);
            log.polls.take()
        });
        assert_eq!(polls, [5_000], "polled once, at its start");
    }

    #[test]
    fn spawn_at_a_past_start_runs_in_spawn_order_beside_plain_spawns() {
        let rt = Runtime::new();
        let order = rt.block_on(async {
            sleep(Duration::from_micros(3)).await;
            let log = Rc::new(RefCell::new(Vec::new()));
            let entry = |name: &'static str| {
                let log = Rc::clone(&log);
                async move { log.borrow_mut().push((name, crate::now().as_nanos())) }
            };
            let now = crate::now();
            let handles = [
                crate::spawn(entry("spawn 1")),
                crate::spawn_at(now, entry("at now")),
                crate::spawn(entry("spawn 2")),
                crate::spawn_at(SimTime::ZERO, entry("at zero")),
            ];
            for h in handles {
                h.await.unwrap();
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        let at = 3_000;
        assert_eq!(
            order,
            [
                ("spawn 1", at),
                ("at now", at),
                ("spawn 2", at),
                ("at zero", at)
            ]
        );
    }

    #[test]
    fn spawn_at_a_runtime_dropped_before_start_drops_the_future_unpolled() {
        let rt = Runtime::new();
        let log = Rc::new(StampLog::default());
        let future = Stamps(Rc::clone(&log));
        let [handle] =
            rt.block_on(async { [crate::spawn_at(SimTime::from_nanos(10_000), future)] });
        assert!(!log.dropped.get(), "held until its start");
        drop(rt);
        assert!(log.dropped.get(), "dropped with the runtime");
        assert!(log.polls.borrow().is_empty(), "never polled");
        assert_eq!(Runtime::new().block_on(handle), Err(JoinError));
    }

    #[test]
    fn spawn_at_timer_fires_ahead_of_a_same_instant_timer_registered_later() {
        let rt = Runtime::new();
        let order = rt.block_on(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let start = SimTime::from_nanos(5_000);
            let sleeper = |name: &'static str| {
                let log = Rc::clone(&log);
                crate::spawn(async move {
                    crate::time::sleep_until(start).await;
                    log.borrow_mut().push(name);
                })
            };
            let before = sleeper("armed before");
            crate::time::yield_now().await; // its timer is registered now
            let l = Rc::clone(&log);
            let at = crate::spawn_at(start, async move { l.borrow_mut().push("spawn_at") });
            let after = sleeper("armed after");
            for h in [before, at, after] {
                h.await.unwrap();
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, ["armed before", "spawn_at", "armed after"]);
    }

    #[test]
    fn detached_task_keeps_running() {
        let rt = Runtime::new();
        let v = rt.block_on(async {
            let flag = Rc::new(Cell::new(false));
            let f2 = Rc::clone(&flag);
            drop(crate::spawn(async move {
                sleep(Duration::from_micros(1)).await;
                f2.set(true);
            }));
            sleep(Duration::from_micros(2)).await;
            flag.get()
        });
        assert!(v);
    }

    #[test]
    fn spawn_detached_runs_to_completion() {
        let rt = Runtime::new();
        let v = rt.block_on(async {
            let hits = Rc::new(Cell::new(0u32));
            for i in 0..100u64 {
                let hits = Rc::clone(&hits);
                crate::spawn_detached(async move {
                    sleep(Duration::from_nanos(i % 7)).await;
                    hits.set(hits.get() + 1);
                });
            }
            sleep(Duration::from_micros(1)).await;
            hits.get()
        });
        assert_eq!(v, 100);
    }

    #[test]
    fn arena_recycles_across_many_generations() {
        // Churn far more tasks than are ever live at once: the arena (and
        // slot slab) must stay bounded and behaviourally invisible.
        let rt = Runtime::new();
        let total = rt.block_on(async {
            let sum = Rc::new(Cell::new(0u64));
            for round in 0..200u64 {
                let mut handles = Vec::new();
                for i in 0..8u64 {
                    let sum = Rc::clone(&sum);
                    handles.push(crate::spawn(async move {
                        sleep(Duration::from_nanos(round + i)).await;
                        sum.set(sum.get() + 1);
                    }));
                }
                for h in handles {
                    h.await.unwrap();
                }
            }
            sum.get()
        });
        assert_eq!(total, 1600);
    }

    #[test]
    fn scattered_deadlines_fire_in_deadline_order() {
        let rt = Runtime::new();
        let order = rt.block_on(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            // Deliberately spans several wheel levels.
            for &us in &[500u64, 3, 70_000, 1, 900, 12, 4_096, 64] {
                let log = Rc::clone(&log);
                crate::spawn_detached(async move {
                    sleep(Duration::from_micros(us)).await;
                    log.borrow_mut().push(us);
                });
            }
            sleep(Duration::from_millis(100)).await;
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, vec![1, 3, 12, 64, 500, 900, 4_096, 70_000]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<u64> {
            let rt = Runtime::with_seed(seed);
            rt.block_on(async {
                let mut out = Vec::new();
                for _ in 0..10 {
                    let d = crate::rng::range_u64(1..100);
                    sleep(Duration::from_nanos(d)).await;
                    out.push(crate::now().as_nanos());
                }
                out
            })
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
