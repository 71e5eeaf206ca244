//! The single-threaded task executor and virtual-clock event loop.
//!
//! Engineered for an allocation-free steady state (see DESIGN.md,
//! "Performance engineering"):
//!
//! * timers live in a hierarchical [`Wheel`](crate::wheel::Wheel), not a
//!   `BinaryHeap` — O(1) amortised insert/fire, capacity retained;
//! * the ready queue is a plain `VecDeque` behind an owner-checked
//!   `UnsafeCell` — the runtime is single-threaded, so the old `Mutex` only
//!   bought uncontended lock traffic;
//! * each task slot caches its `Waker` once; `cx.waker().clone()` is a
//!   refcount bump instead of a fresh `Arc` per poll;
//! * spawned futures are placed in a size-class **task arena**: completing a
//!   task returns its memory to a free list keyed by rounded future size, so
//!   a steady-state workload (e.g. one RPC task per request) re-uses the
//!   same allocations instead of boxing each future.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::ptr::NonNull;
use std::rc::Rc;
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::thread::ThreadId;

use crate::rng::SimRng;
use crate::time::SimTime;
use crate::wheel::Wheel;

/// Ready queue shared with wakers. Wakers may be stored inside `Send` types,
/// so the queue is reached through an `Arc`, but the runtime is
/// single-threaded: instead of a `Mutex` we use an `UnsafeCell` guarded by an
/// owner-thread check (a waker crossing threads panics instead of racing).
struct ReadyQueue {
    owner: ThreadId,
    queue: UnsafeCell<VecDeque<usize>>,
}

// SAFETY: every access goes through `with`, which panics unless called from
// the thread that created the queue; there is no actual sharing.
unsafe impl Send for ReadyQueue {}
unsafe impl Sync for ReadyQueue {}

impl ReadyQueue {
    fn new() -> Self {
        ReadyQueue {
            owner: std::thread::current().id(),
            queue: UnsafeCell::new(VecDeque::new()),
        }
    }

    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut VecDeque<usize>) -> R) -> R {
        assert!(
            std::thread::current().id() == self.owner,
            "sim: waker used off the runtime thread"
        );
        // SAFETY: single-threaded by the owner check above, and no caller
        // re-enters `with` from inside the closure.
        unsafe { f(&mut *self.queue.get()) }
    }

    fn push(&self, id: usize) {
        self.with(|q| q.push_back(id));
    }

    fn pop(&self) -> Option<usize> {
        self.with(|q| q.pop_front())
    }
}

/// Pooled task allocations are rounded up to a power-of-two size class:
/// 16, 32, ... 64 KiB. Larger or over-aligned futures fall back to exact
/// one-shot allocations.
const TASK_ALIGN: usize = 16;
const MIN_CLASS_SHIFT: u32 = 4; // 16 bytes
const NUM_CLASSES: usize = 13; // up to 16 << 12 = 64 KiB
const UNPOOLED: usize = usize::MAX;

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
}

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

/// Free lists of recycled task allocations, one per size class.
struct TaskArena {
    free: [Vec<NonNull<u8>>; NUM_CLASSES],
}

impl TaskArena {
    fn new() -> Self {
        TaskArena {
            free: std::array::from_fn(|_| Vec::new()),
        }
    }

    fn place<F: Future<Output = ()> + 'static>(&mut self, future: F) -> RawTask {
        let size = std::mem::size_of::<F>().max(1);
        let (class, layout) = if std::mem::align_of::<F>() <= TASK_ALIGN
            && size <= (1usize << MIN_CLASS_SHIFT) << (NUM_CLASSES - 1)
        {
            let class = (size.next_power_of_two().trailing_zeros().max(MIN_CLASS_SHIFT)
                - MIN_CLASS_SHIFT) as usize;
            (class, class_layout(class))
        } else {
            (UNPOOLED, Layout::new::<F>())
        };
        let ptr = match (class != UNPOOLED).then(|| self.free[class].pop()).flatten() {
            Some(p) => p,
            // SAFETY: layout has non-zero size (size >= 1, rounded up).
            None => {
                NonNull::new(unsafe { alloc(layout) }).unwrap_or_else(|| handle_alloc_error(layout))
            }
        };
        // SAFETY: `ptr` is valid for `layout` which covers `F`'s size/align.
        unsafe { ptr.as_ptr().cast::<F>().write(future) };
        RawTask {
            ptr,
            poll_fn: poll_raw::<F>,
            drop_fn: drop_raw::<F>,
            class,
            layout,
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
            self.free[task.class].push(task.ptr);
        }
    }
}

impl Drop for TaskArena {
    fn drop(&mut self) {
        for (class, list) in self.free.iter_mut().enumerate() {
            let layout = class_layout(class);
            for ptr in list.drain(..) {
                // SAFETY: free-listed pointers were allocated with their
                // class layout and hold no live future.
                unsafe { dealloc(ptr.as_ptr(), layout) };
            }
        }
    }
}

struct Slot {
    task: Option<RawTask>,
    /// Created once per slot; slot reuse keeps the same id, so the waker
    /// stays valid and `clone()` is a refcount bump.
    waker: Waker,
}

pub(crate) struct Inner {
    now: Cell<u64>,
    tasks: RefCell<Vec<Slot>>,
    free: RefCell<Vec<usize>>,
    live_tasks: Cell<usize>,
    ready: Arc<ReadyQueue>,
    timers: RefCell<Wheel<Waker>>,
    /// Reusable buffer for due-timer batches.
    firing: RefCell<Vec<(u64, u64, Waker)>>,
    arena: RefCell<TaskArena>,
    timer_seq: Cell<u64>,
    current_task: Cell<usize>,
    polls: Cell<u64>,
    pub(crate) rng: RefCell<SimRng>,
}

impl Inner {
    fn new(seed: u64) -> Rc<Self> {
        Rc::new(Inner {
            now: Cell::new(0),
            tasks: RefCell::new(Vec::new()),
            free: RefCell::new(Vec::new()),
            live_tasks: Cell::new(0),
            ready: Arc::new(ReadyQueue::new()),
            timers: RefCell::new(Wheel::new()),
            firing: RefCell::new(Vec::new()),
            arena: RefCell::new(TaskArena::new()),
            timer_seq: Cell::new(0),
            current_task: Cell::new(usize::MAX),
            polls: Cell::new(0),
            rng: RefCell::new(SimRng::seed_from_u64(seed)),
        })
    }

    pub(crate) fn now_nanos(&self) -> u64 {
        self.now.get()
    }

    /// Registers `waker` to be woken once the virtual clock reaches
    /// `deadline` (in nanoseconds).
    pub(crate) fn register_timer(&self, deadline: u64, waker: Waker) {
        let seq = self.timer_seq.get();
        self.timer_seq.set(seq + 1);
        self.timers.borrow_mut().insert(deadline, seq, waker);
    }

    fn insert_task<F: Future<Output = ()> + 'static>(&self, future: F) -> usize {
        let task = self.arena.borrow_mut().place(future);
        let id = match self.free.borrow_mut().pop() {
            Some(id) => {
                self.tasks.borrow_mut()[id].task = Some(task);
                id
            }
            None => {
                let mut tasks = self.tasks.borrow_mut();
                let id = tasks.len();
                tasks.push(Slot {
                    task: Some(task),
                    waker: make_waker(id, Arc::downgrade(&self.ready)),
                });
                id
            }
        };
        self.live_tasks.set(self.live_tasks.get() + 1);
        id
    }

    fn schedule(&self, id: usize) {
        self.ready.push(id);
    }

    /// Polls one task; returns true if a task existed.
    fn poll_task(self: &Rc<Self>, id: usize) -> bool {
        let (task, waker) = {
            let mut tasks = self.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(id) else {
                return false;
            };
            match slot.task.take() {
                Some(t) => (t, slot.waker.clone()),
                None => return false, // already completed; spurious wake
            }
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
        let mut cx = Context::from_waker(&waker);
        let prev = self.current_task.get();
        self.current_task.set(id);
        self.polls.set(self.polls.get() + 1);
        let task = guard.task.as_mut().expect("the guard holds the task until it retires");
        let poll = task.poll(&mut cx);
        self.current_task.set(prev);
        match poll {
            Poll::Ready(()) => {
                drop(guard); // retires the task
                self.free.borrow_mut().push(id);
                self.live_tasks.set(self.live_tasks.get() - 1);
            }
            Poll::Pending => {
                self.tasks.borrow_mut()[id].task = guard.task.take();
            }
        }
        true
    }

    /// The poll loop: drains the ready queue, then advances the clock to the
    /// nearest timer deadline and fires it, until `done()` turns true (checked
    /// after every poll) or nothing is runnable and no timer is registered.
    /// The clock only ever advances to *fired* deadlines.
    fn run(self: &Rc<Self>, done: &dyn Fn() -> bool) {
        loop {
            while let Some(id) = self.ready.pop() {
                self.poll_task(id);
                if done() {
                    return;
                }
            }
            // Bound first: a `borrow_mut` in the scrutinee would live across
            // the arms and collide with `fire_due_timers`.
            let next = self.timers.borrow_mut().next_deadline_bounded(u64::MAX);
            match next {
                Some(deadline) => {
                    debug_assert!(deadline >= self.now.get());
                    self.now.set(deadline.max(self.now.get()));
                    self.fire_due_timers();
                }
                None => return,
            }
        }
    }

    /// Fires every timer whose deadline is `<= now`, in `(deadline, seq)`
    /// order.
    fn fire_due_timers(&self) {
        let mut firing = self.firing.borrow_mut();
        debug_assert!(firing.is_empty());
        self.timers.borrow_mut().pop_due(self.now.get(), &mut firing);
        for (_, _, waker) in firing.drain(..) {
            // Wakes only push task ids onto the ready queue; they cannot
            // touch the wheel, so no re-entrancy.
            waker.wake();
        }
    }
}

struct WakeEntry {
    id: usize,
    queue: Weak<ReadyQueue>,
}

fn make_waker(id: usize, queue: Weak<ReadyQueue>) -> Waker {
    let entry = Arc::new(WakeEntry { id, queue });
    unsafe fn clone(data: *const ()) -> RawWaker {
        let arc = unsafe { Arc::from_raw(data as *const WakeEntry) };
        let cloned = Arc::clone(&arc);
        std::mem::forget(arc);
        RawWaker::new(Arc::into_raw(cloned) as *const (), &VTABLE)
    }
    unsafe fn wake(data: *const ()) {
        let arc = unsafe { Arc::from_raw(data as *const WakeEntry) };
        if let Some(queue) = arc.queue.upgrade() {
            queue.push(arc.id);
        }
    }
    unsafe fn wake_by_ref(data: *const ()) {
        let arc = unsafe { Arc::from_raw(data as *const WakeEntry) };
        if let Some(queue) = arc.queue.upgrade() {
            queue.push(arc.id);
        }
        std::mem::forget(arc);
    }
    unsafe fn drop_waker(data: *const ()) {
        drop(unsafe { Arc::from_raw(data as *const WakeEntry) });
    }
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_waker);
    let raw = RawWaker::new(Arc::into_raw(entry) as *const (), &VTABLE);
    unsafe { Waker::from_raw(raw) }
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

/// Error returned by fallible spawn APIs (currently unused; reserved for a
/// bounded-tasks mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnError;

/// Handle to a spawned task. Awaiting it yields the task's output.
///
/// Dropping the handle detaches the task (it keeps running).
pub struct JoinHandle<T> {
    result: crate::sync::oneshot::Receiver<T>,
    id: usize,
}

impl<T> JoinHandle<T> {
    /// The slab id of the task, for debugging.
    pub fn id(&self) -> u64 {
        self.id as u64
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.result)
            .poll(cx)
            .map(|r| r.map_err(|_| JoinError))
    }
}

pub(crate) fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    with_current(|inner| {
        let (tx, rx) = crate::sync::oneshot::channel();
        let id = inner.insert_task(async move {
            let out = future.await;
            let _ = tx.send(out);
        });
        inner.schedule(id);
        JoinHandle { result: rx, id }
    })
}

/// Spawns a task with no [`JoinHandle`]: no completion channel is allocated.
/// The choice for fire-and-forget tasks whose handle would be dropped
/// anyway.
pub(crate) fn spawn_detached<F>(future: F)
where
    F: Future<Output = ()> + 'static,
{
    with_current(|inner| {
        let id = inner.insert_task(future);
        inner.schedule(id);
    });
}

pub(crate) fn current_task_id() -> u64 {
    with_current(|inner| inner.current_task.get() as u64)
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
    pub fn block_on<F>(&self, future: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let _guard = EnterGuard::new(Rc::clone(&self.inner));
        // The root future is an ordinary task (the first `block_on` of a
        // runtime makes it task 0) scheduled through the ready queue.
        let result: Rc<RefCell<Option<F::Output>>> = Rc::new(RefCell::new(None));
        let result2 = Rc::clone(&result);
        let root_id = self.inner.insert_task(async move {
            let out = future.await;
            *result2.borrow_mut() = Some(out);
        });
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
            if let Some(task) = slot.task.take() {
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

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_panics() {
        let rt = Runtime::new();
        rt.block_on(async {
            let (_tx, rx) = crate::sync::oneshot::channel::<()>();
            let _ = rx.await;
        });
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
