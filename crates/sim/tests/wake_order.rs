//! Golden wake order of every multi-waiter primitive: `sim::sync`'s `Mutex`,
//! `Notify` and `HandoffQueue`, a counting semaphore on `WaitList`, and the
//! RNIC's `CompletionQueue` with one `next()` consumer and two `wait()`
//! consumers. The semaphore is this file's own: `sim::sync::Semaphore`, the
//! TCP window's until that became a `Frontier`, was deleted, and the same
//! code on the same wait list keeps its schedules, and so the digests.
//!
//! 200 seeded schedules of 32 tasks each park, give up (through `timeout`,
//! and by losing a `race` to a sleep), take what they waited for or drop it
//! unclaimed, close, broadcast and poison — on a 1 µs grid, so that many of
//! these fall in one instant. A `race` polls its sleep first: a sleep that
//! ends in the instant a waiter is handed a lock, permit, promise or
//! completion drops a future that already holds it, and the primitive must
//! pass it on.
//!
//! Every event is logged as `(task, event, detail, instant, executor polls so
//! far)` and the FNV-1a digest of all logs is pinned. It moves exactly when
//! a primitive wakes another task, in another order, at another instant, or
//! through another executor event (a direct wake rather than a wheel timer):
//! a rewrite of the wait lists under these primitives must leave it alone.
//! A second digest logs the poll count as 0: it moves only when what
//! happens, or when, does — not when the same schedule costs fewer polls
//! (the NIC engine stopped spending one on each send CQE, flushed ones
//! included).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll};
use std::time::Duration;

use netsim::profile::Profile;
use netsim::Fabric;
use rnic::{
    Access, CompletionQueue, MemoryRegion, QpOptions, QueuePair, RNic, RdmaListener, RecvWr,
    SendWr, ShmBuf, WorkRequest,
};
use sim::future::{race, Either};
use sim::rng::SimRng;
use sim::sync::{HandoffQueue, Mutex, Notify, WaitList};
use sim::time::{sleep, timeout};
use sim::Runtime;

const SCHEDULES: u64 = 200;
const ROUNDS: u32 = 8;
/// Receives posted for the CQ's producers; the CQ holds all of them.
const CQES: u64 = 64;
const TRANSFER: Duration = Duration::from_micros(2);
const WAKEUP: Duration = Duration::from_micros(3);

/// The digest of all 200 schedules.
const GOLDEN: &str = "e79913d62a757f15";
/// The digest of all 200 schedules with every poll count logged as 0.
const GOLDEN_ORDER: &str = "149358901e9e4791";
/// The executor polls all 200 schedules cost (111 153 while a CQ consumer
/// armed for a CQE another one took was woken to find the queue empty).
const POLLS: u64 = 110_473;

/// A counting semaphore with FIFO fairness: a release hands its permits, in
/// park order, to the longest prefix of waiters they satisfy, so a
/// `try_acquire` cannot take them first and a large acquire never starves.
struct Semaphore(RefCell<Permits>);

struct Permits {
    free: usize,
    closed: bool,
    /// Parked acquirers with the permits each wants.
    waiters: WaitList<usize>,
}

impl Permits {
    /// Takes `n` free permits unless somebody is queued for them first.
    fn take(&mut self, n: usize) -> bool {
        let free = self.free >= n && self.waiters.is_empty();
        if free {
            self.free -= n;
        }
        free
    }
}

/// Permits held; released on drop unless forgotten.
struct Permit<'a> {
    sem: &'a Semaphore,
    count: usize,
}

impl Permit<'_> {
    fn forget(mut self) {
        self.count = 0;
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if self.count > 0 {
            self.sem.add_permits(self.count);
        }
    }
}

/// An acquire of `want` permits; `ticket` is its place in line.
struct Acquire<'a> {
    sem: &'a Semaphore,
    want: usize,
    ticket: Option<u64>,
}

impl Semaphore {
    fn new(free: usize) -> Semaphore {
        let waiters = WaitList::default();
        Semaphore(RefCell::new(Permits {
            free,
            closed: false,
            waiters,
        }))
    }

    fn add_permits(&self, n: usize) {
        let mut s = self.0.borrow_mut();
        s.free += n;
        while let Some(want) = s.waiters.front().copied().filter(|&want| want <= s.free) {
            s.free -= want;
            if let Some((waker, _)) = s.waiters.pop_front() {
                waker.wake();
            }
        }
    }

    fn acquire(&self, want: usize) -> Acquire<'_> {
        Acquire {
            sem: self,
            want,
            ticket: None,
        }
    }

    fn try_acquire(&self, n: usize) -> Option<Permit<'_>> {
        let mut s = self.0.borrow_mut();
        (!s.closed && s.take(n)).then(|| Permit {
            sem: self,
            count: n,
        })
    }

    fn close(&self) {
        let mut s = self.0.borrow_mut();
        s.closed = true;
        s.waiters.wake_all();
    }
}

impl<'a> Future for Acquire<'a> {
    /// `None`: closed while waiting.
    type Output = Option<Permit<'a>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let mut s = this.sem.0.borrow_mut();
        if s.closed {
            return Poll::Ready(None);
        }
        match this.ticket {
            Some(t) if s.waiters.repark(t, cx.waker()).is_some() => return Poll::Pending,
            // Unparked by `add_permits`, which transferred the permits to it.
            Some(_) => this.ticket = None,
            None if s.take(this.want) => {}
            None => {
                this.ticket = Some(s.waiters.park(cx.waker(), this.want));
                return Poll::Pending;
            }
        }
        Poll::Ready(Some(Permit {
            sem: this.sem,
            count: this.want,
        }))
    }
}

impl Drop for Acquire<'_> {
    /// Leaves the line, or gives back permits it was handed and never took
    /// (unless closed).
    fn drop(&mut self) {
        let Some(ticket) = self.ticket else { return };
        let mut s = self.sem.0.borrow_mut();
        if s.waiters.remove(ticket).is_none() && !s.closed {
            drop(s);
            self.sem.add_permits(self.want);
        }
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Mutex,
    Semaphore,
    Notify,
    Handoff,
    CqNext,
    CqWait,
    CqPost,
}

/// What each of the 32 tasks does.
const TASKS: [Kind; 32] = {
    use Kind::*;
    [
        Mutex, Mutex, Mutex, Mutex, Mutex, Semaphore, Semaphore, Semaphore, Semaphore, Semaphore,
        Semaphore, Semaphore, Notify, Notify, Notify, Notify, Notify, Handoff, Handoff, Handoff,
        Handoff, Handoff, Handoff, Handoff, CqNext, CqWait, CqWait, CqPost, CqPost, CqPost, Mutex,
        Semaphore,
    ]
};

// Event codes.
const GAVE_UP: u64 = 1;
const LOCKED: u64 = 2;
const ACQUIRED: u64 = 3;
const TRIED: u64 = 4;
const CLOSED: u64 = 5;
const RELEASED: u64 = 6;
const FORGOT: u64 = 7;
const NOTIFIED: u64 = 8;
const BROADCAST: u64 = 9;
const PUSHED: u64 = 10;
const STARTED: u64 = 11;
const CQE: u64 = 12;
const DEAD: u64 = 13;
const WOKE: u64 = 14;
const POSTED: u64 = 15;
const END: u64 = 16;

struct World {
    rt: Weak<Runtime>,
    mutex: Mutex<u64>,
    sem: Semaphore,
    notify: Notify,
    queue: HandoffQueue<u64>,
    cq: CompletionQueue,
    qp: QueuePair,
    mr: MemoryRegion,
    src: ShmBuf,
    /// Kept alive: dropping a NIC unregisters it.
    _nics: (RNic, RNic),
    posted: Cell<u64>,
    /// FNV-1a over the log, with the poll counts and with 0 for them.
    digest: Cell<(u64, u64)>,
}

fn fnv(mut h: u64, words: &[u64]) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

impl World {
    fn log(&self, task: u64, event: u64, detail: u64) {
        let polls = self.rt.upgrade().expect("inside block_on").poll_count();
        let (all, order) = self.digest.get();
        let line = |polls| [task, event, detail, sim::now().as_nanos(), polls];
        self.digest
            .set((fnv(all, &line(polls)), fnv(order, &line(0))));
    }
}

/// How long a task waits before it gives up.
#[derive(Clone, Copy)]
enum Patience {
    Forever,
    Timeout(Duration),
    /// Loses a `race` to a sleep, which is polled first.
    Race(Duration),
}

fn grid(rng: &mut SimRng, max_us: u64) -> Duration {
    Duration::from_micros(rng.below(max_us + 1))
}

fn patience(rng: &mut SimRng) -> Patience {
    match rng.below(3) {
        0 => Patience::Forever,
        1 => Patience::Timeout(grid(rng, 6)),
        _ => Patience::Race(grid(rng, 6)),
    }
}

/// `f`'s output, or `None` if the task gave up first.
async fn wait<F: Future>(p: Patience, f: F) -> Option<F::Output> {
    match p {
        Patience::Forever => Some(f.await),
        Patience::Timeout(d) => timeout(d, f).await.ok(),
        Patience::Race(d) => match race(sleep(d), f).await {
            Either::Left(()) => None,
            Either::Right(v) => Some(v),
        },
    }
}

async fn mutex_task(w: Rc<World>, t: u64, mut rng: SimRng) {
    for _ in 0..ROUNDS {
        sleep(grid(&mut rng, 4)).await;
        let Some(mut guard) = wait(patience(&mut rng), w.mutex.lock()).await else {
            w.log(t, GAVE_UP, 0);
            continue;
        };
        w.log(t, LOCKED, *guard);
        *guard += 1;
        sleep(grid(&mut rng, 3)).await;
        drop(guard);
        w.log(t, RELEASED, 0);
    }
}

async fn semaphore_task(w: Rc<World>, t: u64, mut rng: SimRng) {
    for _ in 0..ROUNDS {
        sleep(grid(&mut rng, 4)).await;
        let n = 1 + rng.below(3) as usize;
        let permit = if rng.random_bool(0.2) {
            let permit = w.sem.try_acquire(n);
            w.log(t, TRIED, u64::from(permit.is_some()));
            permit
        } else {
            match wait(patience(&mut rng), w.sem.acquire(n)).await {
                None => {
                    w.log(t, GAVE_UP, 0);
                    None
                }
                Some(None) => {
                    w.log(t, CLOSED, 0);
                    return;
                }
                Some(Some(permit)) => {
                    w.log(t, ACQUIRED, n as u64);
                    Some(permit)
                }
            }
        };
        let Some(permit) = permit else { continue };
        sleep(grid(&mut rng, 3)).await;
        if rng.random_bool(0.25) {
            // Leaked, then given back by hand.
            permit.forget();
            w.log(t, FORGOT, n as u64);
            sleep(grid(&mut rng, 2)).await;
            w.sem.add_permits(n);
        } else {
            drop(permit);
        }
        w.log(t, RELEASED, n as u64);
    }
}

async fn notify_task(w: Rc<World>, t: u64, mut rng: SimRng) {
    for _ in 0..ROUNDS {
        sleep(grid(&mut rng, 4)).await;
        if rng.random_bool(0.3) {
            w.notify.notify_waiters();
            w.log(t, BROADCAST, 0);
        } else {
            let notified = wait(patience(&mut rng), w.notify.notified()).await;
            w.log(
                t,
                if notified.is_some() {
                    NOTIFIED
                } else {
                    GAVE_UP
                },
                0,
            );
        }
    }
}

async fn handoff_task(w: Rc<World>, t: u64, mut rng: SimRng) {
    let mut item = t * 1_000;
    for _ in 0..ROUNDS {
        sleep(grid(&mut rng, 4)).await;
        if rng.random_bool(0.4) {
            for _ in 0..=rng.below(2) {
                item += 1;
                w.queue.push(sim::now() + TRANSFER, item);
                w.log(t, PUSHED, item);
            }
            continue;
        }
        match wait(patience(&mut rng), w.queue.recv()).await {
            None => w.log(t, GAVE_UP, 0),
            Some(None) => {
                w.log(t, CLOSED, 0);
                return;
            }
            Some(Some(got)) => {
                w.log(t, STARTED, got);
                sleep(grid(&mut rng, 3)).await;
            }
        }
    }
}

async fn cq_next_task(w: Rc<World>, t: u64, mut rng: SimRng) {
    loop {
        match wait(patience(&mut rng), w.cq.next()).await {
            None => w.log(t, GAVE_UP, 0),
            Some(None) => {
                w.log(t, DEAD, 0);
                return;
            }
            Some(Some(cqe)) => {
                w.log(t, CQE, u64::from(cqe.imm.unwrap_or(u32::MAX)));
                sleep(grid(&mut rng, 3)).await;
            }
        }
    }
}

async fn cq_wait_task(w: Rc<World>, t: u64, mut rng: SimRng) {
    loop {
        match wait(patience(&mut rng), w.cq.wait(WAKEUP)).await {
            None => w.log(t, GAVE_UP, 0),
            Some(false) => {
                w.log(t, DEAD, 0);
                return;
            }
            Some(true) => {
                w.log(t, WOKE, w.cq.len() as u64);
                for _ in 0..=rng.below(2) {
                    let Some(cqe) = w.cq.poll() else { break };
                    w.log(t, CQE, u64::from(cqe.imm.unwrap_or(u32::MAX)));
                }
                sleep(grid(&mut rng, 3)).await;
            }
        }
    }
}

async fn cq_post_task(w: Rc<World>, t: u64, mut rng: SimRng) {
    for _ in 0..ROUNDS {
        sleep(grid(&mut rng, 8)).await;
        for _ in 0..=rng.below(2) {
            let i = w.posted.get();
            if i == CQES {
                return;
            }
            w.posted.set(i + 1);
            let op = WorkRequest::WriteImm {
                local: w.src.as_slice(),
                remote_addr: w.mr.addr(),
                rkey: w.mr.rkey(),
                imm: i as u32,
            };
            let ok = w.qp.post_send(SendWr {
                wr_id: i,
                op,
                signaled: false,
                trace: None,
            });
            w.log(t, POSTED, u64::from(ok.is_ok()));
        }
    }
}

/// One schedule: the digests of its log, chained onto `digest`, and the
/// executor polls it cost.
fn schedule(seed: u64, digest: (u64, u64)) -> ((u64, u64), u64) {
    let rt = Rc::new(Runtime::with_seed(seed));
    let weak = Rc::downgrade(&rt);
    rt.block_on(async move {
        let f = Fabric::new(Profile::testbed());
        let (na, nb) = (f.add_node("a"), f.add_node("b"));
        let (nic_a, nic_b) = (RNic::new(&na), RNic::new(&nb));
        let mut listener = RdmaListener::bind(&nic_b, 1);
        let cq = nic_b.create_cq(CQES as usize);
        let (nic_b2, cq2) = (nic_b.clone(), cq.clone());
        let accept = sim::spawn(async move {
            let inc = listener.accept().await.unwrap();
            let send_cq = nic_b2.create_cq(16);
            inc.accept(&nic_b2, send_cq, cq2, QpOptions::default())
        });
        let (a_send, a_recv) = (nic_a.create_cq(CQES as usize), nic_a.create_cq(16));
        let qp = nic_a
            .connect(nb.id, 1, a_send, a_recv, QpOptions::default())
            .await
            .unwrap();
        let qp_b = accept.await.unwrap();
        for i in 0..CQES {
            qp_b.post_recv(RecvWr {
                wr_id: i,
                buf: None,
            })
            .unwrap();
        }
        let mr = nic_b.reg_mr(ShmBuf::zeroed(64), Access::all());
        let w = Rc::new(World {
            rt: weak,
            mutex: Mutex::new(0),
            sem: Semaphore::new(4),
            notify: Notify::new(),
            queue: HandoffQueue::new(WAKEUP),
            cq,
            qp,
            mr,
            src: ShmBuf::zeroed(8),
            _nics: (nic_a, nic_b),
            posted: Cell::new(0),
            digest: Cell::new(digest),
        });
        for (t, kind) in TASKS.iter().enumerate() {
            let (w, t) = (Rc::clone(&w), t as u64);
            let rng = SimRng::seed_from_u64(seed << 8 | t);
            match kind {
                Kind::Mutex => sim::spawn_detached(mutex_task(w, t, rng)),
                Kind::Semaphore => sim::spawn_detached(semaphore_task(w, t, rng)),
                Kind::Notify => sim::spawn_detached(notify_task(w, t, rng)),
                Kind::Handoff => sim::spawn_detached(handoff_task(w, t, rng)),
                Kind::CqNext => sim::spawn_detached(cq_next_task(w, t, rng)),
                Kind::CqWait => sim::spawn_detached(cq_wait_task(w, t, rng)),
                Kind::CqPost => sim::spawn_detached(cq_post_task(w, t, rng)),
            }
        }
        // Everything ends while some tasks still wait: close, broadcast and
        // poison, then let the woken ones log what they got.
        sleep(Duration::from_micros(40)).await;
        w.sem.close();
        w.queue.close();
        w.notify.notify_waiters();
        w.cq.inject_overflow();
        w.log(u64::MAX, END, 0);
        sleep(Duration::from_micros(20)).await;
        w.log(u64::MAX, END, 1);
        (
            w.digest.get(),
            w.rt.upgrade().expect("inside block_on").poll_count(),
        )
    })
}

#[test]
fn wake_order_of_every_wait_list_is_pinned() {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let ((all, order), polls) = (0..SCHEDULES).fold(((BASIS, BASIS), 0), |(d, polls), seed| {
        let (d, more) = schedule(seed, d);
        (d, polls + more)
    });
    assert_eq!(polls, POLLS, "the executor polls all schedules cost moved");
    assert_eq!(
        format!("{order:016x}"),
        GOLDEN_ORDER,
        "the wake order of a primitive moved"
    );
    assert_eq!(
        format!("{all:016x}"),
        GOLDEN,
        "the executor polls a schedule costs moved"
    );
}
