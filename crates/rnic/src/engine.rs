//! The work-request engine: one long-lived task per fabric applies every
//! posted WR's remote effect and surfaces its completion.
//!
//! `post_send` parks a WR, with its [`Timing`], on its QP's in-order send
//! queue. The engine wakes (through a [`DueQueue`]) at two kinds of
//! instants and handles everything due at an instant in one poll:
//!
//! * **delivery** of a QP's head WR at `t.deliver`: validate against the
//!   responder's regions, move the bytes, consume a receive and push its
//!   CQE. An unsignaled success ends here, holding nothing alive.
//! * **completion** of a signaled or failed WR: push the send CQE.
//!
//! RC ordering (§4.1, §4.2.2) falls out of the per-QP queue. Delivery is
//! head-of-line: only the head has an event armed, its successor launches
//! when it resolves, and a head that finds no receive (RNR) stalls the
//! queue until `post_recv`, the end of an RNR storm, or its `rnr_timeout`.
//! A CQE surfaces at `max(delivery, t.comp, previous CQE of the QP)`.
//!
//! Errors: the WR that breaks a QP completes with the real status. A WR
//! already launched when its QP dies fails at its own delivery instant with
//! `FlushError`, its CQE no earlier than `t.comp`; the WRs behind it never
//! launched and flush right after it, in ticket order, whatever their own
//! timings.
//!
//! Every in-flight WR of the fabric lives in one slab, linked into per-QP
//! FIFOs: a connection costs no allocation, a WR none at steady state.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sim::sync::DueQueue;
use sim::SimTime;

use crate::mr::{Access, BufSlice, MrInner};
use crate::qp::{QpShared, Timing};
use crate::verbs::{CqOpcode, CqStatus, Cqe, RecvWr, SendWr, WorkRequest};

/// A posted work request the engine still owes a remote effect or a CQE.
struct InFlight {
    /// Keeps the responder endpoint alive while the WR is in flight.
    peer: Rc<QpShared>,
    wr: SendWr,
    ticket: u64,
    t: Timing,
    /// The WR reached the head of its queue while the QP was alive.
    launched: bool,
    /// The bytes of a Write/WriteImm were moved: an RNR retry of a WriteImm
    /// only needs the receive.
    written: Cell<bool>,
    /// First RNR stall: the `rnr_timeout` runs from here.
    stalled_at: Cell<Option<SimTime>>,
    // Outcome, filled in at delivery for WRs that owe a CQE.
    status: CqStatus,
    atomic_old: Option<u64>,
}

const NIL: u32 = u32::MAX;

/// Head and tail of one intrusive FIFO in the engine's slab.
#[derive(Clone, Copy)]
pub(crate) struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    pub(crate) const EMPTY: Fifo = Fifo { head: NIL, tail: NIL };

    fn is_empty(self) -> bool {
        self.head == NIL
    }
}

/// Shared storage for every QP's send and completion FIFOs. Vacant slots
/// chain through `next` too (the free list).
struct Slab {
    slots: Vec<(Option<InFlight>, u32)>,
    free: u32,
}

impl Slab {
    fn alloc(&mut self, wr: InFlight, next: u32) -> u32 {
        let slot = (Some(wr), next);
        match self.free {
            NIL => self.slots.push(slot),
            idx => {
                self.free = std::mem::replace(&mut self.slots[idx as usize], slot).1;
                return idx;
            }
        }
        self.slots.len() as u32 - 1
    }

    fn push_back(&mut self, q: &Cell<Fifo>, wr: InFlight) {
        let idx = self.alloc(wr, NIL);
        let mut f = q.get();
        match f.tail {
            NIL => f.head = idx,
            tail => self.slots[tail as usize].1 = idx,
        }
        f.tail = idx;
        q.set(f);
    }

    fn push_front(&mut self, q: &Cell<Fifo>, wr: InFlight) {
        let mut f = q.get();
        f.head = self.alloc(wr, f.head);
        if f.tail == NIL {
            f.tail = f.head;
        }
        q.set(f);
    }

    fn front_mut(&mut self, q: &Cell<Fifo>) -> Option<&mut InFlight> {
        match q.get().head {
            NIL => None,
            head => self.slots[head as usize].0.as_mut(),
        }
    }

    fn pop_front(&mut self, q: &Cell<Fifo>) -> Option<InFlight> {
        let mut f = q.get();
        if f.is_empty() {
            return None;
        }
        let slot = &mut self.slots[f.head as usize];
        let wr = slot.0.take();
        let next = std::mem::replace(&mut slot.1, self.free);
        self.free = f.head;
        f.head = next;
        if next == NIL {
            f.tail = NIL;
        }
        q.set(f);
        wr
    }
}

enum Event {
    /// Try to deliver the head of `qp`'s send queue, if it is still `ticket`
    /// (an RNR retry can outlive the WR it was armed for).
    Deliver { qp: Rc<QpShared>, ticket: u64 },
    /// Surface the CQE at the head of `qp`'s completion queue.
    Complete { qp: Rc<QpShared> },
}

/// Why a delivery attempt did not finish.
enum Stop {
    Fail(CqStatus),
    /// Receiver not ready: the WR stays at the head of its queue.
    Stall,
}

impl From<CqStatus> for Stop {
    fn from(status: CqStatus) -> Self {
        Stop::Fail(status)
    }
}

pub(crate) struct Engine {
    events: DueQueue<Event>,
    wrs: RefCell<Slab>,
}

impl Engine {
    /// Creates the fabric's engine and spawns its task, which owns it: the
    /// engine (and every WR still in flight) is dropped with the runtime.
    pub(crate) fn spawn() -> Rc<Engine> {
        let engine = Rc::new(Engine {
            events: DueQueue::new(),
            wrs: RefCell::new(Slab {
                slots: Vec::new(),
                free: NIL,
            }),
        });
        let task = Rc::clone(&engine);
        sim::spawn_detached(async move {
            // Never closed: the loop ends when the runtime drops the task.
            while let Some(event) = task.events.next().await {
                match event {
                    Event::Deliver { qp, ticket } => {
                        let head = task.wrs.borrow_mut().front_mut(&qp.sendq).map(|w| w.ticket);
                        if head == Some(ticket) {
                            task.drive(&qp);
                        }
                    }
                    Event::Complete { qp } => {
                        let wr = task.wrs.borrow_mut().pop_front(&qp.compq);
                        let Some(wr) = wr else {
                            unreachable!("each Complete event follows one WR onto its QP's compq");
                        };
                        emit(&qp, wr);
                    }
                }
            }
        });
        engine
    }

    /// Queues a prepared WR behind everything `qp` (alive) posted before.
    /// The head of an idle queue is launched here; its successors when they
    /// reach the head.
    pub(crate) fn post(&self, qp: &Rc<QpShared>, peer: Rc<QpShared>, wr: SendWr, ticket: u64, t: Timing) {
        let launched = qp.sendq.get().is_empty();
        if launched {
            self.arm(qp, ticket, t.deliver);
        }
        let wr = InFlight {
            peer,
            wr,
            ticket,
            t,
            launched,
            written: Cell::new(false),
            stalled_at: Cell::new(None),
            status: CqStatus::Success,
            atomic_old: None,
        };
        self.wrs.borrow_mut().push_back(&qp.sendq, wr);
    }

    /// Has `qp`'s head WR `ticket` (re-)attempt delivery at `due`.
    pub(crate) fn arm(&self, qp: &Rc<QpShared>, ticket: u64, due: SimTime) {
        let qp = Rc::clone(qp);
        self.events.push(due, Event::Deliver { qp, ticket });
    }

    /// Advances `qp`'s send queue as far as this instant allows: delivers
    /// the due head, launches (or flushes) each successor in turn.
    fn drive(&self, qp: &Rc<QpShared>) {
        loop {
            // Taken by value while it executes: delivery pushes CQEs, and a
            // CQ overflow fails QPs, all without the slab borrowed.
            let wr = {
                let mut wrs = self.wrs.borrow_mut();
                if let Some(head) = wrs.front_mut(&qp.sendq) {
                    let launch = !head.launched && qp.is_alive();
                    head.launched |= launch;
                    if head.launched && head.t.deliver > sim::now() {
                        if launch {
                            self.arm(qp, head.ticket, head.t.deliver);
                        }
                        return;
                    }
                }
                let Some(wr) = wrs.pop_front(&qp.sendq) else {
                    return;
                };
                wr
            };
            let result = if wr.launched {
                self.execute(qp, &wr)
            } else {
                Err(Stop::Fail(CqStatus::FlushError))
            };
            match result {
                Ok(old) => self.resolve(qp, wr, Ok(old)),
                Err(Stop::Fail(status)) => self.resolve(qp, wr, Err(status)),
                Err(Stop::Stall) => {
                    self.wrs.borrow_mut().push_front(&qp.sendq, wr);
                    return;
                }
            }
        }
    }

    /// Records the delivery outcome and schedules (or, when nothing is owed
    /// ahead of it and its time has come, pushes) the CQE.
    fn resolve(&self, qp: &Rc<QpShared>, mut wr: InFlight, result: Result<Option<u64>, CqStatus>) {
        match result {
            Ok(_) if !wr.wr.signaled => return,
            Ok(old) => wr.atomic_old = old,
            Err(status) => {
                // Access/protocol errors break the connection (RC semantics).
                QpShared::fail(qp);
                wr.status = status;
            }
        }
        let now = sim::now();
        let mut at = now.max(qp.last_cqe_at.get());
        if wr.launched {
            // Response / ack travel time. A flushed WR that never launched
            // put nothing on the wire and has none to wait for.
            at = at.max(wr.t.comp);
        }
        qp.last_cqe_at.set(at);
        if at <= now && qp.compq.get().is_empty() {
            emit(qp, wr);
        } else {
            self.wrs.borrow_mut().push_back(&qp.compq, wr);
            let qp = Rc::clone(qp);
            self.events.push(at, Event::Complete { qp });
        }
    }

    /// Validates and applies the remote effect of `wr`. Returns the old
    /// value for atomics.
    fn execute(&self, qp: &Rc<QpShared>, wr: &InFlight) -> Result<Option<u64>, Stop> {
        if !qp.is_alive() {
            return Err(Stop::Fail(CqStatus::FlushError));
        }
        let peer = &wr.peer;
        match &wr.wr.op {
            WorkRequest::Write {
                local,
                remote_addr,
                rkey,
            }
            | WorkRequest::WriteImm {
                local,
                remote_addr,
                rkey,
                ..
            } => {
                if !wr.written.replace(true) {
                    write_region(peer, *rkey, *remote_addr, local)?;
                }
                if let WorkRequest::WriteImm { imm, .. } = &wr.wr.op {
                    let recv = self.take_recv(qp, wr)?;
                    // WR context crosses to the target with the notification —
                    // the immediate stays free for the file-ID/order word.
                    peer.recv_cq.push(Cqe {
                        byte_len: local.len() as u32,
                        imm: Some(*imm),
                        trace: wr.wr.trace,
                        ..Cqe::bare(recv.wr_id, peer.qpn, CqStatus::Success, CqOpcode::RecvRdmaWithImm)
                    });
                }
                Ok(None)
            }
            WorkRequest::Send { local } | WorkRequest::SendImm { local, .. } => {
                let recv = self.take_recv(qp, wr)?;
                let imm = match &wr.wr.op {
                    WorkRequest::SendImm { imm, .. } => Some(*imm),
                    _ => None,
                };
                match &recv.buf {
                    Some(buf) if buf.len() >= local.len() => local.copy_to(buf),
                    None if local.is_empty() => {}
                    _ => return Err(Stop::Fail(CqStatus::LocalLengthError)),
                }
                peer.nic.sends_in.set(peer.nic.sends_in.get() + 1);
                peer.recv_cq.push(Cqe {
                    byte_len: local.len() as u32,
                    imm,
                    trace: wr.wr.trace,
                    ..Cqe::bare(recv.wr_id, peer.qpn, CqStatus::Success, CqOpcode::Recv)
                });
                Ok(None)
            }
            WorkRequest::Read {
                local,
                remote_addr,
                rkey,
            } => {
                let mr = check_remote(peer, *rkey, *remote_addr, local.len() as u64, Access::REMOTE_READ)?;
                // Snapshot at request arrival; the initiator sees it at `comp`.
                let offset = (*remote_addr - mr.addr) as usize;
                peer.nic.reads_served.set(peer.nic.reads_served.get() + 1);
                peer.nic.registry.telem.one_sided_in.inc();
                mr.buf.slice(offset, local.len()).copy_to(local);
                Ok(None)
            }
            WorkRequest::CompareSwap {
                local,
                remote_addr,
                rkey,
                compare,
                swap,
            } => Ok(Some(atomic(peer, *rkey, *remote_addr, local, |old| {
                (old == *compare).then_some(*swap)
            })?)),
            WorkRequest::FetchAdd {
                local,
                remote_addr,
                rkey,
                add,
            } => Ok(Some(atomic(peer, *rkey, *remote_addr, local, |old| {
                Some(old.wrapping_add(*add))
            })?)),
        }
    }

    /// Consumes a posted receive at the peer, or stalls `wr` (RNR): the
    /// peer remembers the parked sender and retries it from its next
    /// `post_recv`; a bounded `rnr_timeout` or an injected RNR storm (posted
    /// receives invisible until it passes) arm a timed retry instead.
    fn take_recv(&self, qp: &Rc<QpShared>, wr: &InFlight) -> Result<RecvWr, Stop> {
        let now = sim::now();
        let peer = &wr.peer;
        let storm = peer.rnr_storm_until.get().filter(|&until| now < until);
        if storm.is_none() {
            if let Some(recv) = peer.rq().pop() {
                return Ok(recv);
            }
        }
        let first_stall = wr.stalled_at.get().unwrap_or(now);
        wr.stalled_at.set(Some(first_stall));
        let deadline = qp.opts.rnr_timeout.map(|d| first_stall + d);
        if deadline.is_some_and(|d| now >= d) {
            return Err(Stop::Fail(CqStatus::RnrRetryExceeded));
        }
        match storm {
            Some(until) => self.arm(qp, wr.ticket, deadline.map_or(until, |d| d.min(until))),
            None if peer.rnr_waiter.replace(Some(wr.ticket)).is_none() => {
                peer.rq().park(peer);
                if let Some(deadline) = deadline {
                    self.arm(qp, wr.ticket, deadline);
                }
            }
            None => {}
        }
        Err(Stop::Stall)
    }
}

/// Pushes the send CQE of a delivered (or flushed) WR.
fn emit(qp: &QpShared, wr: InFlight) {
    if wr.status.is_ok() {
        qp.nic
            .registry
            .telem
            .post_to_comp_ns
            .record(wr.t.comp.saturating_since(wr.t.posted).as_nanos() as u64);
    }
    if let Some(ctx) = wr.wr.trace {
        qp.nic.node.fabric.telemetry().trace_event_now(
            ctx,
            kdtelem::EventKind::Completion {
                qpn: qp.qpn,
                ticket: wr.ticket,
                opcode: wr.wr.op.opcode_name(),
                ok: wr.status.is_ok(),
            },
        );
    }
    let op = &wr.wr.op;
    qp.send_cq.push(Cqe {
        // A flushed WR that never launched moved nothing.
        byte_len: if wr.launched { op.request_bytes().max(op.response_bytes()) as u32 } else { 0 },
        atomic_old: wr.atomic_old,
        trace: wr.wr.trace,
        ..Cqe::bare(wr.wr.wr_id, qp.qpn, wr.status, op.opcode())
    });
}

/// One-sided write of `local` into the peer's region.
fn write_region(peer: &QpShared, rkey: u32, remote_addr: u64, local: &BufSlice) -> Result<(), CqStatus> {
    let mr = check_remote(peer, rkey, remote_addr, local.len() as u64, Access::REMOTE_WRITE)?;
    let offset = (remote_addr - mr.addr) as usize;
    // Borrowed-slice copy straight into the region; alias-safe when the
    // source slice lives in the same ShmBuf (loopback writes).
    local.copy_to(&mr.buf.slice(offset, local.len()));
    peer.nic.writes_in.set(peer.nic.writes_in.get() + 1);
    peer.nic.registry.telem.one_sided_in.inc();
    Ok(())
}

/// Executes an 8-byte atomic: `update(old)` yields the word to store, if
/// any. The old value lands in `local` and is returned.
fn atomic(
    peer: &QpShared,
    rkey: u32,
    remote_addr: u64,
    local: &BufSlice,
    update: impl FnOnce(u64) -> Option<u64>,
) -> Result<u64, CqStatus> {
    let mr = check_remote(peer, rkey, remote_addr, 8, Access::REMOTE_ATOMIC)?;
    if !remote_addr.is_multiple_of(8) {
        return Err(CqStatus::RemoteOpError);
    }
    let offset = (remote_addr - mr.addr) as usize;
    let old = mr.buf.read_u64(offset);
    if let Some(new) = update(old) {
        mr.buf.write_u64(offset, new);
    }
    peer.nic.atomics_served.set(peer.nic.atomics_served.get() + 1);
    peer.nic.registry.telem.one_sided_in.inc();
    local.copy_from(&old.to_le_bytes());
    Ok(old)
}

fn check_remote(
    peer: &QpShared,
    rkey: u32,
    addr: u64,
    len: u64,
    needed: Access,
) -> Result<Rc<MrInner>, CqStatus> {
    let mr = peer.nic.find_mr(rkey).ok_or(CqStatus::RemoteAccessError)?;
    if !mr.access.allows(needed) {
        return Err(CqStatus::RemoteAccessError);
    }
    let end = addr.checked_add(len).ok_or(CqStatus::RemoteAccessError)?;
    if addr < mr.addr || end > mr.addr + mr.buf.len() as u64 {
        return Err(CqStatus::RemoteAccessError);
    }
    Ok(mr)
}
