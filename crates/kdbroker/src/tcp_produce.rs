//! Produce RPCs (paper §4.2.1), over TCP or the OSU transport: the original
//! Kafka produce — verify, copy into the head file, commit, ack per `acks` —
//! and a produce into a file RDMA producers share, which reserves through
//! their atomic word and joins their commit stream (§4.2.2 "Shared
//! RDMA/TCP access").

use std::rc::Rc;

use kdstorage::{AppendError, TopicPartition};
use kdwire::messages::Response;
use kdwire::slots::{shared_word_addend, unpack_shared_word};
use kdwire::{ErrorCode, RemoteRegion};
use netsim::profile::copy_time;

use crate::broker::BrokerInner;
use crate::common::{after_local_commit, charge_storage, charge_worker, roll_head, trace_commit};
use crate::data::Partition;
use crate::rdma_net::enqueue_in_order;
use crate::rdma_produce::{revoke_grant, Grant, SharedState};
use crate::requests::{AckRoute, CommitItem, Reply};

/// `Produce`: appends `batch` to the partition `tp` leads.
pub(crate) async fn handle(
    b: &Rc<BrokerInner>,
    tp: &TopicPartition,
    acks: u8,
    batch: &[u8],
    reply: Reply,
    ctx: Option<kdtelem::TraceCtx>,
) {
    b.metrics.produce_requests.add(1);
    b.metrics.produce_bytes.add(batch.len() as u64);
    let p = match b.store.get(tp) {
        Some(p) if p.is_leader() => p,
        found => {
            let error = if found.is_some() || b.store.topic_exists(tp.topic.as_str()) {
                ErrorCode::NotLeader
            } else {
                ErrorCode::UnknownTopicOrPartition
            };
            reply.send(Response::Produce {
                error,
                base_offset: 0,
            });
            return;
        }
    };
    // A TCP produce into an RDMA-shared file must reserve through the same
    // atomic word as the remote producers (§4.2.2 "Shared RDMA/TCP access").
    let grant = p.grant.borrow().clone();
    if let Some(g) = grant.filter(|g| !g.closed.get()) {
        if let Some(shared) = &g.shared {
            return produce_via_shared(b, &p, &g, shared, batch, reply, ctx).await;
        }
    }
    append_and_ack(b, &p, acks, batch, reply, ctx).await;
}

/// Trace the two broker CPU copies the TCP produce path pays (§4.2.1):
/// socket receive buffer → request heap, then heap → log file.
fn trace_tcp_copies(b: &BrokerInner, ctx: Option<kdtelem::TraceCtx>, len: u64) {
    if let Some(ctx) = ctx {
        let r = &b.telem.registry;
        for site in ["broker.net_to_user", "broker.log_append"] {
            r.trace_event_now(ctx, kdtelem::EventKind::CpuCopy { site, bytes: len });
        }
    }
}

/// The original produce (§4.2.1): verify the batch, copy it from the
/// receive buffer into the head file, commit, and ack per `acks`.
async fn append_and_ack(
    b: &Rc<BrokerInner>,
    p: &Rc<Partition>,
    acks: u8,
    batch: &[u8],
    reply: Reply,
    ctx: Option<kdtelem::TraceCtx>,
) {
    let cpu = &b.profile.cpu;
    let len = batch.len() as u64;
    let guard = p.write_lock.lock().await;
    // Verify (CRC) + the receive-buffer → file-buffer copy (§4.2.1's second
    // redundant copy; the copy itself really happens in `append_batch`).
    charge_worker(
        b,
        cpu.api_produce_base
            + copy_time(len, cpu.crc_bandwidth)
            + copy_time(len, cpu.heap_copy_bandwidth),
    )
    .await;
    b.metrics.heap_copied_bytes.add(len);
    trace_tcp_copies(b, ctx, len);
    let res = p.log.append_batch(batch);
    drop(guard);
    match res {
        Ok(info) => {
            trace_commit(
                b,
                ctx,
                &p.tp,
                info.base_offset,
                info.base_offset + u64::from(info.record_count),
            );
            after_local_commit(b, p);
            charge_storage(b, p).await;
            finish_produce_rpc(p, acks, info.base_offset, info.record_count, reply);
        }
        Err(e) => reply.send(Response::Produce {
            error: map_append_error(e),
            base_offset: 0,
        }),
    }
}

/// Completes a TCP produce according to its `acks` mode.
fn finish_produce_rpc(
    p: &Rc<Partition>,
    acks: u8,
    base_offset: u64,
    record_count: u32,
    reply: Reply,
) {
    let needs_full_commit = acks >= 2 && p.replication_factor() > 1;
    if needs_full_commit {
        let p = Rc::clone(p);
        sim::spawn(async move {
            p.wait_committed(base_offset + u64::from(record_count))
                .await;
            reply.send(Response::Produce {
                error: ErrorCode::None,
                base_offset,
            });
        });
    } else {
        reply.send(Response::Produce {
            error: ErrorCode::None,
            base_offset,
        });
    }
}

fn map_append_error(e: AppendError) -> ErrorCode {
    match e {
        AppendError::TooLarge { .. } => ErrorCode::InvalidRequest,
        AppendError::Batch(_) => ErrorCode::CorruptBatch,
        AppendError::NonContiguousCommit { .. } | AppendError::OffsetMismatch { .. } => {
            ErrorCode::Internal
        }
    }
}

/// TCP produce into a shared-RDMA file: reserve via a loopback FAA, copy the
/// bytes into the reserved region, and join the completion-ordered commit
/// stream.
async fn produce_via_shared(
    b: &Rc<BrokerInner>,
    p: &Rc<Partition>,
    g: &Rc<Grant>,
    shared: &SharedState,
    batch: &[u8],
    reply: Reply,
    ctx: Option<kdtelem::TraceCtx>,
) {
    let word_region = RemoteRegion {
        addr: shared.word_mr.addr(),
        rkey: shared.word_mr.rkey(),
        len: 8,
    };
    let len = batch.len() as u64;
    let Some(old) = b.self_faa(word_region, shared_word_addend(len)).await else {
        reply.send(Response::Produce {
            error: ErrorCode::Internal,
            base_offset: 0,
        });
        return;
    };
    let w = unpack_shared_word(old);
    // A grant names a segment of its partition's log; a log drops none.
    let seg = p.log.segment(g.segment).expect("grant segment");
    if w.offset + len > u64::from(seg.capacity()) {
        // Out of space: abort the shared session and fall back to a plain
        // append on the fresh head file.
        revoke_grant(b, p, g, ErrorCode::OutOfSpace);
        roll_head(b, p);
        append_and_ack(b, p, 2, batch, reply, ctx).await;
        return;
    }
    // Copy the records into the reserved region (this path still copies —
    // it is the TCP datapath; zero copy is the RDMA producers' privilege).
    let cpu = &b.profile.cpu;
    charge_worker(b, copy_time(len, cpu.heap_copy_bandwidth)).await;
    b.metrics.heap_copied_bytes.add(len);
    trace_tcp_copies(b, ctx, len);
    seg.write_at(w.offset as u32, batch);
    seg.advance_write_pos(w.offset as u32 + len as u32);
    // Join the completion-ordered commit stream at the current sequence.
    let seq = g.next_seq.get();
    g.next_seq.set(seq + 1);
    let item = CommitItem {
        order: w.order,
        byte_len: len as u32,
        ack: AckRoute::Rpc(reply),
        trace: ctx,
    };
    enqueue_in_order(b, g, seq, item);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use kdstorage::record::{single_record_batch, Record};
    use kdwire::messages::ProduceMode;
    use kdwire::slots::{pack_shared_word, SharedWord};
    use kdwire::PartitionMeta;
    use netsim::profile::Profile;
    use netsim::{Fabric, NodeId};

    use crate::requests::ReplyStage;
    use crate::{Broker, BrokerConfig, RdmaToggles};

    /// A TCP produce that no longer fits the RDMA-shared head file falls
    /// back to the plain append on a fresh file — and that append is the
    /// same two copies as any other TCP produce.
    #[test]
    fn shared_file_fallback_is_a_plain_append() {
        sim::Runtime::new().block_on(async {
            let node = Fabric::new(Profile::fast_test()).add_node("broker");
            let config = BrokerConfig::kafkadirect(RdmaToggles::all());
            let me = kdwire::BrokerAddr {
                node: node.id.0,
                port: config.tcp_port,
                rdma_port: config.rdma_port,
            };
            let broker = Broker::start(&node, config, vec![me]);
            let b = broker.inner();
            let meta = PartitionMeta {
                partition: 0,
                epoch: 0,
                leader: me,
                replicas: Vec::new(),
            };
            crate::admin::install(b, "t", meta, None);
            let tp = TopicPartition::new("t", 0);
            let p = b.store.get(&tp).unwrap();
            let head = p.log.head();
            let g = b.produce_module.create_grant(
                &b.nic,
                &tp,
                p.log.head_index(),
                head.shared_buf(),
                ProduceMode::Shared,
                NodeId(99),
            );
            *p.grant.borrow_mut() = Some(Rc::clone(&g));
            // Remote producers have reserved all but ten bytes of the file.
            let word = SharedWord {
                order: 0,
                offset: u64::from(head.capacity()) - 10,
            };
            g.shared
                .as_ref()
                .unwrap()
                .word_buf
                .write_u64(0, pack_shared_word(word));
            let stage = Rc::new(ReplyStage::new());
            let reply = Reply {
                stage: Rc::clone(&stage),
                corr: 1,
                handoff: Duration::ZERO,
            };
            let batch = single_record_batch(1, &Record::value(vec![7u8; 100]));
            handle(b, &tp, 1, &batch, reply, None).await;
            let (_, resp) = stage.next().await.unwrap();
            assert!(matches!(
                resp,
                Response::Produce {
                    error: ErrorCode::None,
                    base_offset: 0
                }
            ));
            assert!(g.closed.get(), "the shared session was aborted");
            assert_eq!(p.log.head_index(), 1, "and the record went to a fresh file");
            assert_eq!(broker.metrics().heap_copied_bytes, batch.len() as u64);
        });
    }
}
