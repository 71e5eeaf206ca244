//! The RDMA network module (paper Fig 2, ➋): accepts client queue pairs,
//! polls the shared receive completion queue, and turns WriteWithImm
//! completions into work items — in completion order, which the produce
//! module's correctness depends on (§4.2.2).

use std::rc::Rc;
use std::time::Duration;

use rnic::{CqOpcode, Cqe, QpOptions, RdmaListener, RecvWr, SendWr, WorkRequest};

use crate::broker::BrokerInner;
use crate::requests::{AckRoute, CommitItem, WorkItem};

/// Port offsets on top of `config.rdma_port`.
pub const PRODUCE_PORT_OFF: u16 = 0;
pub const OSU_PORT_OFF: u16 = 1;
pub const CONSUME_PORT_OFF: u16 = 2;

/// Cost of handling one RDMA completion on a poller thread (cheap: no
/// copies, just demux). The wakeup cost when idle is modelled by the poller
/// loop itself.
pub const POLL_COST: Duration = Duration::from_nanos(500);

pub fn start(b: &Rc<BrokerInner>) {
    start_handoff_stage(b);
    start_produce_listener(b);
    start_consume_listener(b);
    // CQEs taken per drain, across all pollers of this broker (the
    // amortisation signal gated by kdperf).
    let batch_hist = kdtelem::current().histogram("kdbroker", "cq.batch");
    for _ in 0..b.config.rdma_pollers {
        let b = Rc::clone(b);
        let hist = batch_hist.clone();
        sim::spawn(async move { poller_loop(b, hist).await });
    }
    // Drain the ack send CQ (acks are unsignaled; only errors complete).
    let ack_cq = b.ack_send_cq.clone();
    sim::spawn(async move { while ack_cq.next().await.is_some() {} });
}

/// Accepts produce/replication QPs: they share the broker receive CQ and get
/// zero-length receives replenished by the pollers.
fn start_produce_listener(b: &Rc<BrokerInner>) {
    let mut listener = RdmaListener::bind(&b.nic, b.config.rdma_port + PRODUCE_PORT_OFF);
    let b = Rc::clone(b);
    sim::spawn(async move {
        while let Some(inc) = listener.accept().await {
            let from = inc.from();
            let qp = inc.accept(
                &b.nic,
                b.ack_send_cq.clone(),
                b.recv_cq.clone(),
                QpOptions {
                    srq: b.srq.clone(),
                    multiplexed: b.config.conn_mode.multiplexed(),
                    ..QpOptions::default()
                },
            );
            if b.srq.is_none() {
                // Per-QP mode: every connection gets its own pre-posted
                // receive queue. SRQ modes posted the shared pool once in
                // `Broker::start`.
                for i in 0..b.config.recv_depth {
                    let _ = qp.post_recv(RecvWr {
                        wr_id: i as u64,
                        buf: None,
                    });
                }
            }
            // A multiplexed connection time-shares the lent QP pool; the
            // lease lives exactly as long as the connection (held by the
            // disconnect watcher below).
            let lease = b.mux_pool.as_ref().map(|pool| pool.lease());
            let qpn = qp.qpn();
            b.produce_qps.borrow_mut().insert(qpn, qp.clone());
            // Watch for client failure: revoke produce grants held by that
            // node (§4.2.2 failure handling).
            let b2 = Rc::clone(&b);
            sim::spawn(async move {
                qp.disconnected().await;
                drop(lease);
                b2.produce_qps.borrow_mut().remove(&qpn);
                crate::api::revoke_grants_of_node(&b2, from);
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
            b.consume_qps.borrow_mut().push(qp);
        }
    });
}

/// One RDMA-module poller thread: completion → (file id, order) → shared
/// request queue. Sequence numbers are assigned here, in completion order.
///
/// The loop drains the CQ in batches of up to `config.cq_batch` (the
/// `ibv_poll_cq` batch size): the whole batch is sequenced in one
/// synchronous step, the wakeup is paid once, `POLL_COST` covers the first
/// completion and `cqe_batch_marginal` each additional one, consumed
/// receives are replenished with one chained `post_recv_list` per QP, and
/// same-QP error acks ride one doorbell. With `cq_batch == 1` every step
/// degenerates to the one-completion-per-iteration loop, bit for bit.
async fn poller_loop(b: Rc<BrokerInner>, batch_hist: kdtelem::Histogram) {
    let wakeup = b.profile.cpu.wakeup;
    let marginal = b.profile.net.cqe_batch_marginal;
    let max_batch = b.config.cq_batch.max(1);
    // Pooled per-poller scratch: steady-state batches allocate nothing.
    let mut batch: Vec<Cqe> = Vec::with_capacity(max_batch);
    let mut seqs: Vec<Option<u64>> = Vec::with_capacity(max_batch);
    let mut replenish: Vec<(u32, u64)> = Vec::with_capacity(max_batch);
    let mut err_acks: Vec<u32> = Vec::new();
    let mut ack_wrs: Vec<SendWr> = Vec::new();
    let mut staged: Vec<WorkItem> = Vec::with_capacity(max_batch);
    loop {
        if !b.alive.get() {
            return; // broker crashed
        }
        // CQ overflow (`None`) means the produce module is dead. Real
        // brokers would tear down; benches never reach this.
        let Some(was_idle) = drain_or_wait(&b.recv_cq, &mut batch, max_batch).await else {
            return;
        };
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
            let seq = if cqe.ok() && cqe.opcode == CqOpcode::RecvRdmaWithImm {
                let (file_id, _) = kdwire::unpack_imm(cqe.imm.unwrap_or(0));
                b.produce_module.lookup(file_id).map(|(_, grant)| {
                    let s = grant.next_seq.get();
                    grant.next_seq.set(s + 1);
                    s
                })
            } else {
                None
            };
            seqs.push(seq);
        }
        batch_hist.record(batch.len() as u64);
        // Costs: blocking-poll wakeup (when idle, once per batch) + the
        // first completion's poll charge + the marginal per-CQE charge.
        if was_idle {
            sim::time::sleep(wakeup).await;
        }
        sim::time::sleep(POLL_COST + marginal * (batch.len() as u32 - 1)).await;
        // Replenish the consumed receives: one chained post per QP, or —
        // in SRQ modes — one chained post back onto the shared queue
        // (buffers return to the pool regardless of which QP consumed
        // them, so a dead client never leaks receive state).
        replenish.clear();
        for cqe in &batch {
            if cqe.ok() && cqe.opcode == CqOpcode::RecvRdmaWithImm {
                replenish.push((cqe.qpn, cqe.wr_id));
            }
        }
        if let Some(srq) = &b.srq {
            if !replenish.is_empty() {
                let _ = srq.post_recv_list(
                    replenish
                        .iter()
                        .map(|&(_, wr_id)| RecvWr { wr_id, buf: None }),
                );
            }
        } else {
            replenish.sort_unstable();
            let mut i = 0;
            while i < replenish.len() {
                let qpn = replenish[i].0;
                let j = replenish[i..].partition_point(|&(q, _)| q == qpn) + i;
                let qp = b.produce_qps.borrow().get(&qpn).cloned();
                if let Some(qp) = qp {
                    let _ = qp.post_recv_list(replenish[i..j].iter().map(|&(_, wr_id)| RecvWr {
                        wr_id,
                        buf: None,
                    }));
                }
                i = j;
            }
        }
        // Route each completion, still in drained order.
        err_acks.clear();
        staged.clear();
        for (cqe, seq) in batch.iter().zip(&seqs) {
            if !cqe.ok() || cqe.opcode != CqOpcode::RecvRdmaWithImm {
                continue; // flushed recv of a dead QP
            }
            let (file_id, order) = kdwire::unpack_imm(cqe.imm.unwrap_or(0));
            let Some(seq) = *seq else {
                // Unknown file: answer with an error ack (coalesced below).
                err_acks.push(cqe.qpn);
                continue;
            };
            let item = WorkItem::RdmaCommit {
                file_id,
                order,
                byte_len: cqe.byte_len,
                seq,
                ack: AckRoute::Qp(cqe.qpn),
                // The producer's lifeline rode in on the WriteImm's WR
                // context.
                trace: cqe.trace,
            };
            let (_, grant) = b.produce_module.lookup(file_id).expect("seq implies grant");
            if max_batch == 1 {
                // The one-CQE loop ships each commit through its own
                // handoff task, exactly as before batching existed.
                enqueue_in_order(&b, &grant, seq, item);
            } else {
                // Collect the in-order emission and group it below: a run
                // of same-file commits becomes one work item.
                grant.stage_enqueue(seq, item, &mut |item| staged.push(item));
            }
        }
        if !staged.is_empty() {
            hand_off_staged(&b, &mut staged);
        }
        if !err_acks.is_empty() {
            send_error_acks(&b, &mut err_acks, &mut ack_wrs);
        }
    }
}

/// Ships the batch's staged commits to the API workers, merging each run of
/// same-file commits into one [`WorkItem::RdmaCommitBatch`] (one queue
/// handoff, one lock/charge at the worker, one ack doorbell per QP).
/// Shared-mode grants keep per-item work items: their reorder machinery
/// (Fig 5) is driven per completion. Emission order — which is sequence
/// order per grant — is preserved, so the shared request queue stays sorted
/// and a lone worker never stalls behind a later commit.
fn hand_off_staged(b: &Rc<BrokerInner>, staged: &mut Vec<WorkItem>) {
    let mut run: Vec<CommitItem> = Vec::new();
    let mut run_file: u16 = 0;
    for item in staged.drain(..) {
        match item {
            WorkItem::RdmaCommit {
                file_id,
                order,
                byte_len,
                seq,
                ack,
                trace,
            } if b
                .produce_module
                .lookup(file_id)
                .is_none_or(|(_, g)| g.shared.is_none()) =>
            {
                if !run.is_empty() && run_file != file_id {
                    flush_run(b, run_file, &mut run);
                }
                run_file = file_id;
                run.push(CommitItem {
                    order,
                    byte_len,
                    seq,
                    ack,
                    trace,
                });
            }
            other => {
                flush_run(b, run_file, &mut run);
                hand_off(b, other);
            }
        }
    }
    flush_run(b, run_file, &mut run);
}

/// Hands one same-file run to the workers: a lone commit ships as the plain
/// per-item work item (identical to the unbatched path), a longer run as
/// one batch item.
fn flush_run(b: &Rc<BrokerInner>, file_id: u16, run: &mut Vec<CommitItem>) {
    if run.is_empty() {
        return;
    }
    let item = if run.len() == 1 {
        let it = run.pop().unwrap();
        WorkItem::RdmaCommit {
            file_id,
            order: it.order,
            byte_len: it.byte_len,
            seq: it.seq,
            ack: it.ack,
            trace: it.trace,
        }
    } else {
        WorkItem::RdmaCommitBatch {
            file_id,
            items: std::mem::take(run),
        }
    };
    hand_off(b, item);
}

/// The 11 µs queue transfer to the API workers, overlapped across requests:
/// the item reaches the shared request queue `cpu.handoff` from now.
fn hand_off(b: &Rc<BrokerInner>, item: WorkItem) {
    let handoff = b.handoff.get().expect("RDMA network module started");
    handoff.push(sim::now() + b.profile.cpu.handoff, item);
}

/// One long-lived stage per broker moves commits from the pollers to the
/// request queue as their transfer time elapses. The transfer time is a
/// constant, so due order is hand-off order; a full queue back-pressures
/// the stage, and with it every later commit, in that same order. The
/// stage holds only the two queues: once the broker crashes (`queue`
/// closed), items still in transfer are dropped as they come due.
fn start_handoff_stage(b: &Rc<BrokerInner>) {
    let handoff = Rc::new(sim::sync::DueQueue::new());
    assert!(b.handoff.set(Rc::clone(&handoff)).is_ok(), "RDMA network module started twice");
    let queue = b.queue.clone();
    sim::spawn_detached(async move {
        loop {
            let item = handoff.next().await;
            let _ = queue.send(item).await;
        }
    });
}

/// Drains up to `max` completions into `out` (cleared first): non-blocking
/// drain, then — if the CQ was empty — one blocking wait plus a sweep of
/// whatever piled up behind the completion we slept on. Returns
/// `Some(was_idle)` (`true` when the blocking wait was taken, so the caller
/// charges the wakeup), or `None` once the CQ has overflowed. With
/// `max == 1` this is exactly `cq.next().await`.
pub(crate) async fn drain_or_wait(
    cq: &rnic::CompletionQueue,
    out: &mut Vec<Cqe>,
    max: usize,
) -> Option<bool> {
    out.clear();
    if cq.drain_into(out, max) > 0 {
        return Some(false);
    }
    let cqe = cq.next().await?;
    out.push(cqe);
    if max > 1 {
        cq.drain_into(out, max - 1);
    }
    Some(true)
}

/// Posts `AccessDenied` acks for the batch's unknown-file completions,
/// chaining same-QP acks into one `post_send_list` (one doorbell per QP
/// instead of one per ack).
fn send_error_acks(b: &Rc<BrokerInner>, qpns: &mut [u32], wrs: &mut Vec<SendWr>) {
    qpns.sort_unstable();
    let mut i = 0;
    while i < qpns.len() {
        let qpn = qpns[i];
        let j = qpns[i..].partition_point(|&q| q == qpn) + i;
        let qp = b.produce_qps.borrow().get(&qpn).cloned();
        if let Some(qp) = qp {
            wrs.clear();
            for _ in i..j {
                let idx = b.ack_ring_next.get();
                b.ack_ring_next.set((idx + 1) % b.ack_ring.len());
                let buf = &b.ack_ring[idx];
                buf.with_mut(|s| {
                    s[0] = kdwire::ErrorCode::AccessDenied as u8;
                    s[1..9].copy_from_slice(&0u64.to_le_bytes());
                });
                wrs.push(SendWr::unsignaled(
                    0,
                    WorkRequest::Send {
                        local: buf.as_slice(),
                    },
                ));
            }
            let n = wrs.len();
            let _ = qp.post_send_list(wrs.drain(..));
            b.metrics.add(&b.metrics.acks_sent, n as u64);
        }
        i = j;
    }
}

/// Stages `item` and hands any now-consecutive run to the API workers (the
/// 11 µs queue transfer, overlapped across requests). Keeping the shared
/// queue in sequence order is what lets a lone API worker make progress:
/// a worker never waits on a commit that is still queued behind it.
pub fn enqueue_in_order(
    b: &Rc<BrokerInner>,
    grant: &Rc<crate::rdma_produce::Grant>,
    seq: u64,
    item: WorkItem,
) {
    grant.stage_enqueue(seq, item, &mut |item| hand_off(b, item));
}

/// Sends a batch's success acks, chaining same-QP acks into one
/// `post_send_list` (one doorbell per QP). `acks` is `(qpn, base_offset)`
/// in commit order; the stable sort keeps per-QP ack order, which producers
/// rely on (acks correlate FIFO per QP). Drains `acks`.
pub fn send_ack_chained(b: &Rc<BrokerInner>, acks: &mut Vec<(u32, u64)>) {
    acks.sort_by_key(|&(qpn, _)| qpn);
    let mut wrs: Vec<SendWr> = Vec::with_capacity(acks.len());
    let mut i = 0;
    while i < acks.len() {
        let qpn = acks[i].0;
        let j = acks[i..].partition_point(|&(q, _)| q == qpn) + i;
        let qp = b.produce_qps.borrow().get(&qpn).cloned();
        if let Some(qp) = qp {
            wrs.clear();
            for &(_, base_offset) in &acks[i..j] {
                let idx = b.ack_ring_next.get();
                b.ack_ring_next.set((idx + 1) % b.ack_ring.len());
                let buf = &b.ack_ring[idx];
                buf.with_mut(|s| {
                    s[0] = kdwire::ErrorCode::None as u8;
                    s[1..9].copy_from_slice(&base_offset.to_le_bytes());
                });
                wrs.push(SendWr::unsignaled(
                    0,
                    WorkRequest::Send {
                        local: buf.as_slice(),
                    },
                ));
            }
            let n = wrs.len();
            let _ = qp.post_send_list(wrs.drain(..));
            b.metrics.add(&b.metrics.acks_sent, n as u64);
        }
        i = j;
    }
    acks.clear();
}

/// Sends a produce acknowledgment (or replication credit return) on a
/// client QP: `[error u8][base_offset u64]`, unsignaled.
pub fn send_ack(b: &Rc<BrokerInner>, qpn: u32, error: kdwire::ErrorCode, base_offset: u64) {
    let qp = match b.produce_qps.borrow().get(&qpn) {
        Some(qp) => qp.clone(),
        None => return,
    };
    // Acks are written through a pre-allocated round-robin ring: the WR has
    // executed long before the ring wraps, so the slot is free to reuse.
    let idx = b.ack_ring_next.get();
    b.ack_ring_next.set((idx + 1) % b.ack_ring.len());
    let buf = &b.ack_ring[idx];
    buf.with_mut(|s| {
        s[0] = error as u8;
        s[1..9].copy_from_slice(&base_offset.to_le_bytes());
    });
    let _ = qp.post_send(SendWr::unsignaled(
        0,
        WorkRequest::Send {
            local: buf.as_slice(),
        },
    ));
    b.metrics.add(&b.metrics.acks_sent, 1);
}

/// Decodes an ack payload on the client side.
pub fn decode_ack(bytes: &[u8]) -> (kdwire::ErrorCode, u64) {
    let error = match bytes.first() {
        Some(0) => kdwire::ErrorCode::None,
        Some(1) => kdwire::ErrorCode::UnknownTopicOrPartition,
        Some(2) => kdwire::ErrorCode::NotLeader,
        Some(3) => kdwire::ErrorCode::CorruptBatch,
        Some(4) => kdwire::ErrorCode::AccessDenied,
        Some(5) => kdwire::ErrorCode::OutOfSpace,
        Some(6) => kdwire::ErrorCode::InvalidRequest,
        Some(7) => kdwire::ErrorCode::AlreadyExists,
        Some(8) => kdwire::ErrorCode::OrderTimeout,
        Some(10) => kdwire::ErrorCode::FencedEpoch,
        _ => kdwire::ErrorCode::Internal,
    };
    let base_offset = bytes
        .get(1..9)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .unwrap_or(0);
    (error, base_offset)
}
