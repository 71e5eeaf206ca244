//! The RDMA network module (paper Fig 2, ➋): accepts client queue pairs,
//! polls the shared receive completion queue, and turns WriteWithImm
//! completions into work items — in completion order, which the produce
//! module's correctness depends on (§4.2.2).

use std::rc::Rc;
use std::time::Duration;

use rnic::{CqOpcode, Cqe, MuxPool, QpOptions, QueuePair, RdmaListener, RecvWr, Srq};

use crate::broker::BrokerInner;
use crate::common::{send_acks, Ack};
use crate::rdma_produce::Grant;
use crate::requests::{AckRoute, CommitItem, CommitRun, WorkItem};

/// Port offsets on top of `config.rdma_port`.
pub const PRODUCE_PORT_OFF: u16 = 0;
pub const OSU_PORT_OFF: u16 = 1;
pub const CONSUME_PORT_OFF: u16 = 2;

/// Cost of handling one RDMA completion on a poller thread (cheap: no
/// copies, just demux). The wakeup cost when idle is modelled by the poller
/// loop itself.
pub const POLL_COST: Duration = Duration::from_nanos(500);

pub fn start(b: &Rc<BrokerInner>) {
    // Connection provisioning (DESIGN.md §13): the broker's entire produce
    // receive depth is posted once, up front, on one shared receive queue;
    // accepted QPs consume from it and the pollers return what they drain.
    let srq = b.nic.create_srq(b.config.srq_depth);
    srq.post_recv_list((0..b.config.srq_depth).map(|i| RecvWr {
        wr_id: i as u64,
        buf: None,
    }))
    // An SRQ is created with room for exactly `srq_depth` receives.
    .expect("fresh SRQ accepts its initial posting");
    start_produce_listener(b, srq.clone());
    start_consume_listener(b);
    // CQEs taken per drain, across all pollers of this broker (the
    // amortisation signal kdmark reports as `kdbroker.cq_batch_mean`).
    let batch_hist = kdtelem::current().histogram("kdbroker", "cq.batch");
    for _ in 0..b.config.rdma_pollers {
        let b = Rc::clone(b);
        let (srq, hist) = (srq.clone(), batch_hist.clone());
        sim::spawn(async move { poller_loop(b, srq, hist).await });
    }
    // Drain the ack send CQ (acks are unsignaled; only errors complete).
    let ack_cq = b.ack_send_cq.clone();
    sim::spawn(async move { while ack_cq.next().await.is_some() {} });
}

/// Accepts produce/replication QPs: they share the broker receive CQ and
/// the zero-length receives of `srq`.
fn start_produce_listener(b: &Rc<BrokerInner>, srq: Srq) {
    let mut listener = RdmaListener::bind(&b.nic, b.config.rdma_port + PRODUCE_PORT_OFF);
    // `mux_pool > 0`: accepted QPs time-share a lent pool of that many NIC
    // contexts, pinned once here, instead of pinning one each.
    let mux_pool = (b.config.mux_pool > 0).then(|| MuxPool::new(&b.nic, b.config.mux_pool));
    let b = Rc::clone(b);
    sim::spawn(async move {
        while let Some(inc) = listener.accept().await {
            let from = inc.from();
            let qp = inc.accept(
                &b.nic,
                b.ack_send_cq.clone(),
                b.recv_cq.clone(),
                QpOptions {
                    srq: Some(srq.clone()),
                    multiplexed: mux_pool.is_some(),
                    ..QpOptions::default()
                },
            );
            // The lease lives exactly as long as the connection (held by
            // the disconnect watcher below).
            let lease = mux_pool.as_ref().map(|pool| pool.lease());
            let qpn = qp.qpn();
            b.produce_qps.borrow_mut().insert(qpn, qp.clone());
            // Watch for client failure: revoke produce grants held by that
            // node (§4.2.2 failure handling).
            let b2 = Rc::clone(&b);
            sim::spawn_detached(async move {
                qp.disconnected().await;
                drop(lease);
                b2.produce_qps.borrow_mut().remove(&qpn);
                crate::rdma_produce::revoke_grants_of_node(&b2, from);
            });
        }
    });
}

/// Accepts consumer QPs. Consumers only issue RDMA Reads, which never
/// involve this broker's tasks — the CQs here exist only to satisfy the
/// verbs API. This is the "no CPU involvement" path of §4.4.2/§5.3.
fn start_consume_listener(b: &Rc<BrokerInner>) {
    let mut listener = RdmaListener::bind(&b.nic, b.config.rdma_port + CONSUME_PORT_OFF);
    let b = Rc::clone(b);
    sim::spawn(async move {
        while let Some(inc) = listener.accept().await {
            let send_cq = b.nic.create_cq(64);
            let recv_cq = b.nic.create_cq(64);
            let qp = inc.accept(&b.nic, send_cq, recv_cq, QpOptions::default());
            // Nobody watches these for disconnects: the ends of consumers
            // that left go whenever the list would otherwise grow.
            let mut qps = b.consume_qps.borrow_mut();
            if qps.len() == qps.capacity() {
                qps.retain(QueuePair::is_alive);
            }
            qps.push(qp);
        }
    });
}

/// One RDMA-module poller thread: completion → (file id, order) → shared
/// request queue. Sequence numbers are assigned here, in completion order.
///
/// The thread blocks like one in `ibv_get_cq_event` and drains, like
/// `ibv_poll_cq`, only once it is awake: whatever piled up during its
/// wake-up — a producer's whole chain — is one batch of up to
/// `config.cq_batch`. The batch is sequenced in one synchronous step,
/// `POLL_COST` covers its first completion and `cqe_batch_marginal` each
/// additional one, consumed receives return to the SRQ in one chained post,
/// consecutive same-file commits ship as one work item and same-QP error acks
/// ride one doorbell. A batch of one degenerates to the
/// one-completion-per-iteration loop.
async fn poller_loop(b: Rc<BrokerInner>, srq: Srq, batch_hist: kdtelem::Histogram) {
    let wakeup = b.profile.cpu.wakeup;
    let marginal = b.profile.net.cqe_batch_marginal;
    let max_batch = b.config.cq_batch;
    let produced = |cqe: &Cqe| cqe.ok() && cqe.opcode == CqOpcode::RecvRdmaWithImm;
    // Pooled per-poller scratch: steady-state batches allocate nothing.
    let mut batch: Vec<Cqe> = Vec::with_capacity(max_batch);
    let mut seqs: Vec<Option<(u64, Rc<Grant>)>> = Vec::with_capacity(max_batch);
    let mut err_acks: Vec<Ack> = Vec::new();
    loop {
        if !b.alive.get() {
            return; // broker crashed
        }
        // The wake-up is paid in here, before the drain; a poller that comes
        // back to a CQ that is not empty pays none. CQ overflow (`false`)
        // means the produce module is dead. Real brokers would tear down;
        // benches never reach this.
        if !b.recv_cq.wait(wakeup).await {
            return;
        }
        batch.clear();
        b.recv_cq.drain_into(&mut batch, max_batch);
        // Assign every commit sequence in one synchronous step, in drained
        // (completion) order: with several poller threads, interleaving a
        // sleep between pop and sequencing could invert the completion
        // order — exactly the race §4.2.2 rules out ("processing RDMA
        // produce requests in the same order as the corresponding
        // completion events are generated"). Batching preserves the
        // invariant by construction: nothing awaits between the drain above
        // and the end of this loop.
        seqs.clear();
        for cqe in &batch {
            let seq = if produced(cqe) {
                let (file_id, _) = kdwire::unpack_imm(cqe.imm.unwrap_or(0));
                b.produce_module.lookup(file_id).map(|(_, grant)| {
                    let s = grant.next_seq.get();
                    grant.next_seq.set(s + 1);
                    (s, grant)
                })
            } else {
                None
            };
            seqs.push(seq);
        }
        batch_hist.record(batch.len() as u64);
        // Costs, in one timer: the first completion's poll charge + the
        // marginal per-CQE charge.
        sim::time::sleep(POLL_COST + marginal * (batch.len() as u32 - 1)).await;
        // Return the consumed receives to the shared queue in one chained
        // post — whichever QP consumed them, so a dead client never leaks
        // receive state.
        let mut consumed = batch
            .iter()
            .filter(|cqe| produced(cqe))
            .map(|cqe| RecvWr {
                wr_id: cqe.wr_id,
                buf: None,
            })
            .peekable();
        if consumed.peek().is_some() {
            let _ = srq.post_recv_list(consumed);
        }
        // Route each completion, still in drained order.
        err_acks.clear();
        let mut open = None;
        for (cqe, seq) in batch.iter().zip(seqs.drain(..)) {
            if !produced(cqe) {
                continue; // flushed recv of a dead QP
            }
            let (_, order) = kdwire::unpack_imm(cqe.imm.unwrap_or(0));
            let Some((seq, grant)) = seq else {
                // Unknown file: answer with an error ack (coalesced below).
                err_acks.push(Ack::one(cqe.qpn, kdwire::ErrorCode::AccessDenied, 0));
                continue;
            };
            let item = CommitItem {
                order,
                byte_len: cqe.byte_len,
                ack: AckRoute::Qp(cqe.qpn),
                // The producer's lifeline rode in on the WriteImm's WR
                // context.
                trace: cqe.trace,
            };
            grant.stage_enqueue(seq, item, &mut |seq, item| {
                extend_or_hand_off(&b, &mut open, &grant, seq, item)
            });
        }
        if let Some(item) = open {
            b.hand_off(item);
        }
        send_acks(&b, &err_acks);
    }
}

/// Appends a commit emitted in sequence order to the `open` work item when
/// it continues that item's run (same file; emission order makes the
/// sequences consecutive) and the run is shorter than `cq_batch` — the
/// reorder stage may release more than one drain at once, and a run is never
/// longer than a drain — else hands `open` off and opens a new one. One work
/// item is one queue handoff, one lock at the worker and one ack per QP.
/// Shared-mode commits always ship alone: their reorder machinery (Fig 5) is
/// driven per completion. Emission order — which is sequence order per grant
/// — is preserved, so the shared request queue stays sorted and a lone worker
/// never stalls behind a later commit.
fn extend_or_hand_off(
    b: &Rc<BrokerInner>,
    open: &mut Option<WorkItem>,
    grant: &Grant,
    seq: u64,
    item: CommitItem,
) {
    let max_run = b.config.cq_batch;
    match open {
        Some(WorkItem::RdmaCommit { file_id, run, .. })
            if *file_id == grant.file_id && grant.shared.is_none() && run.len() < max_run =>
        {
            run.push(item, || {
                let pooled = b.run_pool.borrow_mut().pop();
                pooled.unwrap_or_else(|| Vec::with_capacity(max_run - 1))
            })
        }
        _ => {
            let run = CommitRun::one(item);
            let next = WorkItem::RdmaCommit { file_id: grant.file_id, seq, run };
            if let Some(done) = open.replace(next) {
                b.hand_off(done);
            }
        }
    }
}

/// Drains up to `max` completions into `out` (cleared first): non-blocking
/// drain, then — if the CQ was empty — one wait for the next completion plus
/// a sweep of whatever piled up behind it. For the OSU front and the
/// replication collectors, which charge no wake-up. `false` once the CQ has
/// overflowed. With `max == 1` this is exactly `cq.next().await`.
pub(crate) async fn drain_or_wait(cq: &rnic::CompletionQueue, out: &mut Vec<Cqe>, max: usize) -> bool {
    out.clear();
    if cq.drain_into(out, max) > 0 {
        return true;
    }
    let Some(cqe) = cq.next().await else {
        return false;
    };
    out.push(cqe);
    if max > 1 {
        cq.drain_into(out, max - 1);
    }
    true
}

/// Stages the commit with sequence `seq` and hands any now-consecutive run
/// to the API workers, one work item per commit (the 11 µs queue transfer,
/// overlapped across requests). Keeping the shared queue in sequence order
/// is what lets a lone API worker make progress: a worker never waits on a
/// commit that is still queued behind it.
pub fn enqueue_in_order(b: &Rc<BrokerInner>, grant: &Grant, seq: u64, item: CommitItem) {
    grant.stage_enqueue(seq, item, &mut |seq, item| {
        let run = CommitRun::one(item);
        b.hand_off(WorkItem::RdmaCommit { file_id: grant.file_id, seq, run })
    });
}
