//! What every plane of the broker shares (paper Fig 2 ➌➍): the worker and
//! storage charges, the side effects of a commit and of a high-watermark
//! advance, and the produce ack. It imports no plane; the planes import it.

use std::rc::Rc;
use std::time::Duration;

use kdstorage::TopicPartition;
use kdwire::messages::Response;
use kdwire::ErrorCode;
use rnic::{SendWr, WorkRequest};

use crate::broker::BrokerInner;
use crate::data::Partition;
use crate::requests::AckRoute;

/// Cost of trivial control-plane requests (metadata, offsets, grants).
pub(crate) const CONTROL_COST: Duration = Duration::from_micros(3);

/// Sleeps `cost` of worker time and accounts it as CPU load.
pub(crate) async fn charge_worker(b: &BrokerInner, cost: Duration) {
    b.metrics.worker_busy_ns.add(cost.as_nanos() as u64);
    sim::time::sleep(cost).await;
}

/// Drains the partition's accumulated storage I/O charge: bumps the
/// `storage.*` counters and sleeps the modeled latency on the virtual
/// clock. Memory mode never accrues a charge, so this returns without
/// awaiting and the pre-durability schedule is untouched.
pub(crate) async fn charge_storage(b: &BrokerInner, p: &Partition) {
    let io = p.log.take_io();
    if io.is_zero() {
        return;
    }
    let m = &b.metrics;
    m.storage_bytes_flushed.add(io.flushed_bytes);
    m.storage_fsyncs.add(io.fsyncs);
    m.storage_segments_rotated.add(io.rotated);
    m.storage_cold_read_bytes.add(io.cold_read_bytes);
    if io.fsyncs > 0 {
        b.telem.storage_fsync_ns.record(io.ns);
    }
    sim::time::sleep(Duration::from_nanos(io.ns)).await;
}

/// Background flusher for `SyncMode::EveryMs`: periodically pushes every
/// partition's unsynced committed suffix out to its segment files.
pub(crate) async fn flusher_loop(b: Rc<BrokerInner>, every_ms: u64) {
    let period = Duration::from_millis(every_ms.max(1));
    loop {
        sim::time::sleep(period).await;
        if !b.alive.get() {
            return;
        }
        for p in b.store.local_partitions() {
            p.log.sync_all();
            charge_storage(&b, &p).await;
        }
    }
}

/// Tiered mode: counts a read that found its bytes in memory (`resident`)
/// or had to go to the file tier.
pub(crate) fn count_tier_read(b: &BrokerInner, resident: bool) {
    let m = &b.metrics;
    let counter = if resident {
        &m.storage_hot_hits
    } else {
        &m.storage_hot_misses
    };
    counter.add(1);
}

/// Trace a commit of `[base, next)` on the producer's lifeline.
pub(crate) fn trace_commit(
    b: &BrokerInner,
    ctx: Option<kdtelem::TraceCtx>,
    tp: &TopicPartition,
    base_offset: u64,
    next_offset: u64,
) {
    if let Some(ctx) = ctx {
        b.telem.registry.trace_event_now(
            ctx,
            kdtelem::EventKind::Commit {
                stream: kdtelem::stream_key(tp.topic.as_str(), tp.partition),
                base_offset,
                next_offset,
            },
        );
    }
}

/// Post-commit bookkeeping shared by every produce path.
pub(crate) fn after_local_commit(b: &BrokerInner, p: &Partition) {
    p.announce_commit();
    advance_rf1_hw(b, p);
}

/// With no followers the high watermark is the log end: moves it there and
/// applies its side effects. A replicated partition's moves as they ack.
pub(crate) fn advance_rf1_hw(b: &BrokerInner, p: &Partition) {
    if p.replication_factor() == 1 {
        p.recompute_hw();
        on_hw_advanced(b, p);
    }
}

/// High-watermark side effects: refresh every RDMA-readable metadata slot
/// attached to the partition (§4.4.2), then release the produce acks the
/// new watermark covers, oldest first.
pub(crate) fn on_hw_advanced(b: &BrokerInner, p: &Partition) {
    b.consume_module.refresh_slots(p, &b.metrics);
    let hw = p.log.high_watermark();
    loop {
        let due = p
            .deferred_acks
            .borrow_mut()
            .pop_front_if(|ack| ack.next_offset <= hw);
        let Some(ack) = due else {
            return;
        };
        deliver_ack(b, ack.route, ErrorCode::None, ack.base_offset);
    }
}

/// Seals the head file and opens a new one.
pub(crate) fn roll_head(b: &BrokerInner, p: &Partition) {
    let sealed = p.log.head_index();
    p.log.roll();
    // The old head just became immutable: let consumers know (§4.4.2).
    on_hw_advanced(b, p);
    maybe_evict(p, sealed);
}

/// Tiered mode: spill a sealed segment's bytes out of broker memory once
/// nothing pins the buffer — no open produce grant and no consumer read
/// registration (zero-copy access always wins over memory reclaim).
/// `Log::evict_segment` additionally refuses head/unsealed/unsynced
/// segments and logs without a file tier, so the call is safe to make
/// speculatively.
pub(crate) fn maybe_evict(p: &Partition, segment: u32) {
    if p.read_regs.borrow().keys().any(|&(s, _)| s == segment) {
        return;
    }
    if p.grant
        .borrow()
        .as_ref()
        .is_some_and(|g| g.segment == segment && !g.closed.get())
    {
        return;
    }
    p.log.evict_segment(segment);
}

/// Answers one produce: a Send on the producer's QP, the RPC response of a
/// TCP produce into a shared file, or nothing (push replication).
pub(crate) fn deliver_ack(b: &BrokerInner, route: AckRoute, error: ErrorCode, base_offset: u64) {
    match route {
        AckRoute::Qp(qpn) => send_acks(b, &[Ack::one(qpn, error, base_offset)]),
        AckRoute::Rpc(reply) => reply.send(Response::Produce { error, base_offset }),
        AckRoute::None => {}
    }
}

/// One ack Send owed on a produce QP: [`kdwire::encode_ack`]'s arguments.
#[derive(Clone, Copy)]
pub(crate) struct Ack {
    pub(crate) qpn: u32,
    pub(crate) error: ErrorCode,
    pub(crate) base_offset: u64,
    /// Consecutive writes of this QP it answers (1 unless `error` is `None`).
    pub(crate) count: u32,
}

impl Ack {
    /// The answer to one write of `qpn`.
    pub(crate) fn one(qpn: u32, error: ErrorCode, base_offset: u64) -> Ack {
        Ack {
            qpn,
            error,
            base_offset,
            count: 1,
        }
    }
}

/// Sends produce acknowledgments, error acks and replication credit
/// returns on their client QPs: each a small unsignaled Send of
/// [`kdwire::encode_ack`] bytes. Consecutive acks of one QP chain into one
/// `post_send_list` (one doorbell); `acks` order — commit order — is post
/// order, which producers rely on (acks correlate FIFO per QP).
pub(crate) fn send_acks(b: &BrokerInner, acks: &[Ack]) {
    let mut rest = acks;
    while let Some(&Ack { qpn, .. }) = rest.first() {
        let (chain, tail) = rest.split_at(rest.iter().take_while(|a| a.qpn == qpn).count());
        rest = tail;
        let Some(qp) = b.produce_qps.borrow().get(&qpn).cloned() else {
            continue;
        };
        // Acks are written through a pre-allocated round-robin ring: a WR
        // has executed long before the ring wraps, so its slot is free to
        // reuse.
        let _ = qp.post_send_list(chain.iter().map(|ack| {
            let idx = b.ack_ring_next.get();
            b.ack_ring_next.set((idx + 1) % b.ack_ring.len());
            let buf = &b.ack_ring[idx];
            buf.with_mut(0, buf.len(), |s| {
                kdwire::encode_ack(ack.error, ack.base_offset, ack.count, s)
            });
            SendWr::unsignaled(
                0,
                WorkRequest::Send {
                    local: buf.as_slice(),
                },
            )
        }));
        let answered = chain.iter().map(|a| u64::from(a.count)).sum();
        b.metrics.acks_sent.add(answered);
    }
}
