//! Reliably-connected queue pairs.
//!
//! A QP endpoint is state, not a task. `post_send` / `post_send_list`
//! compute each work request's `Timing` against the fabric — all link
//! reservations commit at post time (the NIC pipelines; the link model
//! serialises) — and queue it for the fabric's engine (`engine`),
//! which applies remote effects and delivers completions strictly in post
//! order: the RC guarantees the paper's protocols depend on (§4.1, §4.2.2).
//! A posted list differs from the same WRs posted singly only in timing:
//! linked WRs pay `doorbell_overhead` instead of a full doorbell each.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};
use std::time::Duration;

use sim::sync::Notify;
use sim::SimTime;

use crate::cq::CompletionQueue;
use crate::engine::Fifo;
use crate::nic::NicInner;
use crate::srq::{RecvQueue, Srq};
use crate::verbs::{CqOpcode, CqStatus, Cqe, PostError, RecvWr, SendWr, WorkRequest};

/// QP configuration.
#[derive(Debug, Clone)]
pub struct QpOptions {
    /// How long a Send/WriteWithImm waits for the receiver to post a receive
    /// before failing with `RnrRetryExceeded`. `None` waits forever
    /// (infinite RNR retry, the common datacenter setting).
    pub rnr_timeout: Option<Duration>,
    /// Receive-queue depth: posting more receives than this panics (it is a
    /// program bug in the simulation, not a runtime condition).
    pub max_recv_wr: usize,
    /// Attach this endpoint to a shared receive queue: incoming
    /// Send/WriteWithImm consume the SRQ's buffers instead of the QP's own
    /// (posting receives on such an endpoint is a bug and panics).
    /// Completions still land in this QP's receive CQ with this QP's
    /// number.
    pub srq: Option<Srq>,
    /// DCT-style multiplexed endpoint: this logical connection borrows a
    /// QP from a small lent pool instead of pinning its own NIC context,
    /// so it does not count toward the device's QP-context cache
    /// footprint (the pool pins its contexts once — see
    /// [`MuxPool`](crate::MuxPool)).
    pub multiplexed: bool,
}

impl Default for QpOptions {
    fn default() -> Self {
        QpOptions {
            rnr_timeout: None,
            max_recv_wr: 4096,
            srq: None,
            multiplexed: false,
        }
    }
}

pub(crate) struct QpShared {
    pub(crate) qpn: u32,
    pub(crate) nic: Rc<NicInner>,
    peer: RefCell<Weak<QpShared>>,
    /// Connected; cleared for good when the QP enters the error state.
    alive: Cell<bool>,
    pub(crate) send_cq: CompletionQueue,
    pub(crate) recv_cq: CompletionQueue,
    /// This endpoint's private receive queue; stays empty when
    /// `opts.srq` attaches a shared one.
    own_rq: RecvQueue,
    pub(crate) opts: QpOptions,
    next_ticket: Cell<u64>,
    /// Posted WRs whose remote effect is still owed, in post order (links
    /// into the engine's slab).
    pub(crate) sendq: Cell<Fifo>,
    /// When this QP's latest send CQE surfaces (or surfaced): no later CQE
    /// may surface before it.
    pub(crate) last_cqe_at: Cell<SimTime>,
    /// Ticket of the peer's head WR parked (RNR) on this endpoint's empty
    /// receive queue; a posted receive retries it.
    pub(crate) rnr_waiter: Cell<Option<u64>>,
    error_notify: Notify,
    /// Fault injection: posted receives on this endpoint are invisible to
    /// the peer until this virtual time — a receiver-not-ready storm.
    pub(crate) rnr_storm_until: Cell<Option<SimTime>>,
}

impl QpShared {
    fn new(
        qpn: u32,
        nic: Rc<NicInner>,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        opts: QpOptions,
    ) -> Rc<QpShared> {
        if !opts.multiplexed {
            nic.pin_contexts(1);
        }
        let qp = Rc::new(QpShared {
            qpn,
            own_rq: RecvQueue::new(Rc::clone(&nic), opts.max_recv_wr, false),
            nic,
            peer: RefCell::new(Weak::new()),
            alive: Cell::new(true),
            send_cq: send_cq.clone(),
            recv_cq: recv_cq.clone(),
            opts,
            next_ticket: Cell::new(0),
            sendq: Cell::new(Fifo::EMPTY),
            last_cqe_at: Cell::new(SimTime::ZERO),
            rnr_waiter: Cell::new(None),
            error_notify: Notify::new(),
            rnr_storm_until: Cell::new(None),
        });
        send_cq.attach(&qp);
        recv_cq.attach(&qp);
        qp
    }

    fn peer(&self) -> Option<Rc<QpShared>> {
        self.peer.borrow().upgrade()
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// Transitions this QP (and its peer) to the error state. Posted
    /// receives flush now; posted sends flush through the engine, in ticket
    /// order behind whichever WR was in flight (see [`crate::engine`]) — the
    /// WR that broke the QP, if any, is the only one to carry a status other
    /// than `FlushError`.
    pub(crate) fn fail(qp: &Rc<QpShared>) {
        if !qp.alive.replace(false) {
            return;
        }
        if !qp.opts.multiplexed {
            qp.nic.unpin_contexts(1);
        }
        // Only this QP's own queue: buffers on an attached SRQ belong to
        // the SRQ and stay available to every other attached QP — an error
        // flush must not strand them.
        while let Some(wr) = qp.own_rq.pop() {
            qp.recv_cq.push(Cqe::bare(
                wr.wr_id,
                qp.qpn,
                CqStatus::FlushError,
                CqOpcode::Recv,
            ));
        }
        // A sender parked on this endpoint's receive queue observes the
        // disconnect instead.
        qp.retry_rnr_waiter();
        qp.error_notify.notify_waiters();
        if let Some(peer) = qp.peer() {
            QpShared::fail(&peer);
        }
    }

    /// The queue an incoming Send/WriteWithImm consumes from: the attached
    /// SRQ, or this QP's own.
    pub(crate) fn rq(&self) -> &RecvQueue {
        match &self.opts.srq {
            Some(srq) => &srq.inner,
            None => &self.own_rq,
        }
    }

    /// Has the engine re-attempt the peer's RNR-parked head WR, if there is
    /// one: a receive was posted for it, or this endpoint died.
    pub(crate) fn retry_rnr_waiter(&self) {
        if let Some(ticket) = self.rnr_waiter.take() {
            if let Some(sender) = self.peer() {
                self.nic.registry.engine().arm(&sender, ticket, sim::now());
            }
        }
    }
}

/// One endpoint of a reliably-connected queue pair.
#[derive(Clone)]
pub struct QueuePair {
    pub(crate) shared: Rc<QpShared>,
}

impl QueuePair {
    pub(crate) fn create_connected_pair(
        a_nic: &Rc<NicInner>,
        b_nic: &Rc<NicInner>,
        a_cqs: (CompletionQueue, CompletionQueue),
        b_cqs: (CompletionQueue, CompletionQueue),
        a_opts: QpOptions,
        b_opts: QpOptions,
    ) -> (QueuePair, QueuePair) {
        let registry = &a_nic.registry;
        let a = QpShared::new(
            registry.alloc_qpn(),
            Rc::clone(a_nic),
            a_cqs.0,
            a_cqs.1,
            a_opts,
        );
        let b = QpShared::new(
            registry.alloc_qpn(),
            Rc::clone(b_nic),
            b_cqs.0,
            b_cqs.1,
            b_opts,
        );
        *a.peer.borrow_mut() = Rc::downgrade(&b);
        *b.peer.borrow_mut() = Rc::downgrade(&a);
        (QueuePair { shared: a }, QueuePair { shared: b })
    }

    /// QP number (used to demultiplex completions on shared CQs).
    pub fn qpn(&self) -> u32 {
        self.shared.qpn
    }

    pub fn is_alive(&self) -> bool {
        self.shared.is_alive()
    }

    /// The node of the other endpoint, while that endpoint exists.
    pub fn peer_node(&self) -> Option<netsim::NodeId> {
        self.shared.peer().map(|p| p.nic.node.id)
    }

    /// Resolves when the QP enters the error state (peer failure/close) —
    /// §4.2.2: "Client failure can be detected from QP disconnection
    /// events."
    pub async fn disconnected(&self) {
        while self.shared.is_alive() {
            self.shared.error_notify.notified().await;
        }
    }

    /// Tears the connection down; the peer observes a disconnect.
    pub fn close(&self) {
        QpShared::fail(&self.shared);
    }

    /// Fault injection: receiver-not-ready storm. For `duration` (virtual
    /// time), receives posted on *this* endpoint are invisible to the peer,
    /// so the peer's Send/WriteWithImm stall in RNR retry — and fail with
    /// `RnrRetryExceeded` if their [`QpOptions::rnr_timeout`] elapses first
    /// (§4.3.2's slow-follower scenario on demand).
    pub fn inject_rnr_storm(&self, duration: Duration) {
        self.shared.rnr_storm_until.set(Some(sim::now() + duration));
    }

    /// Posts a receive work request (`ibv_post_recv`): a one-element list.
    pub fn post_recv(&self, wr: RecvWr) -> Result<(), PostError> {
        self.post_recv_list([wr])
    }

    /// Posts a list of receive work requests (`ibv_post_recv` with a chained
    /// WR list) on this QP's own queue. Receives carry no initiator timing,
    /// so the amortised bookkeeping is the only difference from posting
    /// them one by one.
    pub fn post_recv_list(&self, wrs: impl IntoIterator<Item = RecvWr>) -> Result<(), PostError> {
        let qp = &self.shared;
        if !qp.is_alive() {
            return Err(PostError::QpError);
        }
        assert!(
            qp.opts.srq.is_none(),
            "post_recv on an SRQ-attached QP: post to the SRQ instead"
        );
        qp.own_rq.post_list(wrs);
        Ok(())
    }

    /// Posts a chained send WR list (`ibv_post_send` postlist): the head WR
    /// pays the full doorbell/WQE-fetch overhead, each linked WR only the
    /// marginal `doorbell_overhead` — the initiator-side amortisation real
    /// verbs applications batch for. Requests execute remotely in list
    /// order.
    pub fn post_send_list(&self, wrs: impl IntoIterator<Item = SendWr>) -> Result<(), PostError> {
        let qp = &self.shared;
        if !qp.is_alive() {
            return Err(PostError::QpError);
        }
        let peer = qp.peer().ok_or(PostError::QpError)?;
        let engine = qp.nic.registry.engine();
        let doorbell = qp.nic.node.fabric.profile().net.doorbell_overhead;
        let mut extra = Duration::ZERO;
        for (i, wr) in wrs.into_iter().enumerate() {
            if i > 0 {
                extra += doorbell;
            }
            let (ticket, timing) = self.prepare(&wr, &peer, extra);
            engine.post(qp, Rc::clone(&peer), wr, ticket, timing);
        }
        Ok(())
    }

    /// Posts a single send work request: a one-element list.
    pub fn post_send(&self, wr: SendWr) -> Result<(), PostError> {
        self.post_send_list([wr])
    }

    /// Allocates a ticket and computes the timing of `wr` against the
    /// fabric (all link reservations commit now, at post time). `extra_post`
    /// delays the doorbell/WQE fetch — the position-dependent cost of a
    /// linked WR in a posted list.
    fn prepare(&self, wr: &SendWr, peer: &Rc<QpShared>, extra_post: Duration) -> (u64, Timing) {
        let qp = &self.shared;
        let ticket = qp.next_ticket.get();
        qp.next_ticket.set(ticket + 1);
        qp.nic.registry.telem.qp_posts.inc();
        let posted = sim::now();
        if let Some(ctx) = wr.trace {
            qp.nic.node.fabric.telemetry().record_trace_event(
                ctx,
                posted.as_nanos(),
                kdtelem::EventKind::WqePosted {
                    qpn: qp.qpn,
                    ticket,
                },
            );
        }
        // The reservation calls below are synchronous, so the ambient trace
        // context is sound here: the fabric tags each link hop it reserves
        // with this WR's lifeline.
        let _trace_scope = wr.trace.map(kdtelem::enter_ctx);

        let fabric = qp.nic.node.fabric.clone();
        let profile = fabric.profile();
        let net = &profile.net;
        let src = qp.nic.node.id;
        let dst = peer.nic.node.id;

        // All link reservations are committed now (post time): the NIC
        // pipelines WRs and the links serialise them. Each endpoint's
        // per-op gap widens by its NIC's QP-context cache miss penalty —
        // occupancy, not latency, so past the connection-count knee the
        // affected port's aggregate op rate collapses (RDMAvisor §2).
        let src_gap = net.rdma_min_op_gap + qp.nic.cache_penalty(net);
        let dst_gap = net.rdma_min_op_gap + peer.nic.cache_penalty(net);
        let post_done = sim::now() + net.rdma_post_overhead + extra_post;
        let req_arrival =
            fabric.reserve_path_with(post_done, src, dst, wr.op.request_bytes(), src_gap, dst_gap);
        // When the remote effect applies and, for operations that return
        // data, when the response leaves the responder.
        let (deliver, response_at) = match &wr.op {
            WorkRequest::CompareSwap { remote_addr, .. }
            | WorkRequest::FetchAdd { remote_addr, .. } => {
                // Atomics serialise per word: the request is validated and
                // executed when its turn on the word comes.
                let exec = fabric.reserve_atomic(dst, *remote_addr, req_arrival);
                (exec, Some(exec))
            }
            // The responder snapshots at arrival and pays the DMA fetch.
            WorkRequest::Read { .. } => {
                (req_arrival, Some(req_arrival + net.read_response_overhead))
            }
            _ => (req_arrival, None),
        };
        let acked = match response_at {
            Some(at) => {
                fabric.reserve_path_with(at, dst, src, wr.op.response_bytes(), dst_gap, src_gap)
            }
            // Hardware ack.
            None => req_arrival + net.propagation,
        };
        let comp = acked + net.rdma_completion_overhead;
        (
            ticket,
            Timing {
                posted,
                deliver,
                comp,
            },
        )
    }
}

#[derive(Clone, Copy)]
pub(crate) struct Timing {
    /// When the initiator posted the work request.
    pub(crate) posted: SimTime,
    /// When the responder applies the remote effect: the request's full
    /// arrival, or — for atomics — its serialised turn on the target word.
    pub(crate) deliver: SimTime,
    /// When the initiator completion is visible.
    pub(crate) comp: SimTime,
}
