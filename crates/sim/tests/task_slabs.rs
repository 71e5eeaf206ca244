//! The task arena's slabs: a size class of at most 1 KiB refills from one
//! allocation of 16 KiB of blocks, where a larger class allocates a block per
//! task, and a dropped runtime drops every future it still holds once and
//! frees every slab once. Counted by a per-thread allocator, so the tests
//! of this file may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

/// A slab's allocation: its 16 B header and 16 KiB of blocks.
const SLAB: usize = 16 * 1024 + 16;

thread_local! {
    /// (allocations, slabs allocated, slabs freed, live bytes) of this thread.
    static COUNTS: Cell<(u64, u64, u64, i64)> = const { Cell::new((0, 0, 0, 0)) };
}

fn counts() -> (u64, u64, u64, i64) {
    COUNTS.with(Cell::get)
}

fn note(alloc: bool, size: usize) {
    // `try_with`: the allocator also runs while the thread's locals are torn
    // down.
    let _ = COUNTS.try_with(|c| {
        let (n, made, freed, live) = c.get();
        let slab = u64::from(size == SLAB);
        c.set(match alloc {
            true => (n + 1, made + slab, freed, live + size as i64),
            false => (n, made, freed + slab, live - size as i64),
        });
    });
}

struct Counting;

// SAFETY: every method forwards to `System`, which upholds the contract;
// `note` only touches a thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(false, layout.size());
        note(true, new_size);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A future of `N` bytes that never finishes and counts its drops.
struct Parked<const N: usize> {
    _frame: [u8; N],
    drops: Rc<Cell<u32>>,
}

impl<const N: usize> Future for Parked<N> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        Poll::Pending
    }
}

impl<const N: usize> Drop for Parked<N> {
    fn drop(&mut self) {
        self.drops.set(self.drops.get() + 1);
    }
}

fn parked<const N: usize>(drops: &Rc<Cell<u32>>) -> Parked<N> {
    Parked {
        _frame: [0; N],
        drops: Rc::clone(drops),
    }
}

/// Spawns `tasks` parked tasks of `N` bytes on the runtime, after as many
/// tasks that end at once have grown its task and ready tables: the
/// allocations the parked tasks made, and how many of them were slabs.
fn spawn_parked<const N: usize>(
    rt: &sim::Runtime,
    tasks: usize,
    drops: &Rc<Cell<u32>>,
) -> (u64, u64) {
    let drops = Rc::clone(drops);
    rt.block_on(async move {
        for _ in 0..tasks {
            sim::spawn_detached(async {});
        }
        sim::time::yield_now().await;
        let (allocs, slabs, _, _) = counts();
        for _ in 0..tasks {
            sim::spawn_detached(parked::<N>(&drops));
        }
        sim::time::yield_now().await;
        let now = counts();
        (now.0 - allocs, now.1 - slabs)
    })
}

#[test]
fn a_small_task_class_refills_one_slab_at_a_time() {
    let drops = Rc::new(Cell::new(0));
    // 128 B blocks, 128 to a slab: 300 tasks take three.
    let rt = sim::Runtime::new();
    assert_eq!(
        spawn_parked::<100>(&rt, 300, &drops),
        (3, 3),
        "one slab per refill"
    );
    // 1 KiB blocks, 16 to a slab.
    assert_eq!(spawn_parked::<1000>(&rt, 40, &drops), (3, 3));
    // 2 KiB blocks are above the slab classes: one block per task.
    assert_eq!(
        spawn_parked::<1500>(&rt, 20, &drops),
        (20, 0),
        "a block per task"
    );
}

#[test]
fn a_dropped_runtime_drops_each_live_task_once_and_frees_each_slab_once() {
    let drops = Rc::new(Cell::new(0));
    // A first runtime grows this thread's tables of live and running
    // runtimes.
    sim::Runtime::new().block_on(async {});
    let (_, made, freed, live) = counts();
    let rt = sim::Runtime::new();
    assert_eq!(spawn_parked::<100>(&rt, 300, &drops).1, 3);
    assert_eq!(spawn_parked::<500>(&rt, 40, &drops).1, 2);
    assert_eq!(drops.get(), 0, "every task is still parked");
    drop(rt);
    assert_eq!(drops.get(), 340, "every parked future dropped once");
    let (_, made_now, freed_now, live_now) = counts();
    assert!(made_now - made >= 5);
    assert_eq!(freed_now - freed, made_now - made, "every slab freed once");
    assert_eq!(live_now, live, "the runtime left nothing on the heap");
}
