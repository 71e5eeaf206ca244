//! API workers (paper Fig 2 ➌➍): dequeue work items and hand each to its
//! plane — an RDMA commit run to the produce module, a produce or fetch RPC
//! to its handler — and answer the control plane's small requests here.

use std::rc::Rc;

use kdwire::messages::{ProduceMode, Request, Response};
use kdwire::{ErrorCode, PartitionMeta, RemoteRegion};
use netsim::NodeId;
use rnic::ShmBuf;

use crate::broker::BrokerInner;
use crate::common::{charge_worker, CONTROL_COST};
use crate::rdma_produce::{commit_run, handle_produce_access, revoke_grant, CommitScratch};
use crate::requests::{Decoded, Reply, WorkItem};
use crate::{admin, fetch, rdma_consume, tcp_produce};

/// One API worker thread. The queue charges a parked worker its wake-up
/// (§5.1); `None` is the crash, with every queued item dead unanswered.
pub(crate) async fn worker_loop(b: Rc<BrokerInner>) {
    let mut scratch = CommitScratch::default();
    while let Some(item) = b.requests.recv().await {
        dispatch(&b, item, &mut scratch).await;
    }
}

async fn dispatch(b: &Rc<BrokerInner>, item: WorkItem, scratch: &mut CommitScratch) {
    let start = sim::now();
    match item {
        WorkItem::Rpc {
            peer,
            request,
            reply,
            trace,
        } => {
            // Per-API service latency (worker dequeue → reply sent or
            // deferred); long-poll/replication waits run off-worker and are
            // deliberately excluded.
            let (hist, span_name) = match &request {
                Decoded::Produce { .. } => (&b.telem.api_produce_ns, "broker.api.produce"),
                Decoded::Request(Request::Fetch { .. }) => {
                    (&b.telem.api_fetch_ns, "broker.api.fetch")
                }
                Decoded::Request(_) => (&b.telem.api_control_ns, "broker.api.control"),
            };
            let hist = hist.clone();
            // A traced RPC continues the caller's lifeline in a child span.
            let span = trace.map(|ctx| b.telem.registry.trace_span(span_name, Some(ctx)));
            let ctx = span.as_ref().map(|s| s.ctx());
            match request {
                Decoded::Produce {
                    topic,
                    partition,
                    acks,
                    batch,
                } => {
                    let tp = b.store.topic_partition(&topic, partition);
                    tcp_produce::handle(b, &tp, acks, &batch, reply, ctx).await
                }
                Decoded::Request(request) => handle_rpc(b, peer, request, reply, ctx).await,
            }
            hist.record_since(start);
            if let Some(s) = span {
                s.end();
            }
        }
        WorkItem::RdmaCommit { file_id, seq, run } => {
            commit_run(b, file_id, seq, run, scratch).await
        }
    }
}

async fn handle_rpc(
    b: &Rc<BrokerInner>,
    peer: NodeId,
    request: Request,
    reply: Reply,
    ctx: Option<kdtelem::TraceCtx>,
) {
    if !matches!(request, Request::Fetch { .. }) {
        // Every control-plane request costs its worker the same, first.
        charge_worker(b, CONTROL_COST).await;
    }
    match request {
        Request::Metadata { topics } => {
            let metas = if topics.is_empty() {
                b.store.all_topics()
            } else {
                topics
                    .iter()
                    .filter_map(|t| b.store.topic_meta(t))
                    .collect()
            };
            reply.send(Response::Metadata {
                error: ErrorCode::None,
                brokers: b.peers.clone(),
                topics: metas,
            });
        }
        Request::CreateTopic {
            topic,
            partitions,
            replication,
        } => {
            // Topic management runs off-worker (it performs cluster RPCs).
            let b2 = Rc::clone(b);
            sim::spawn(async move {
                let error = admin::create_topic(&b2, &topic, partitions, replication).await;
                reply.send(Response::CreateTopic { error });
            });
        }
        Request::InternalAddPartition {
            topic,
            partition,
            epoch,
            leader,
            replicas,
        } => {
            // Only a broker of the cluster installs partitions.
            let error = if b.peers.iter().any(|p| p.node == peer.0) {
                let meta = PartitionMeta {
                    partition,
                    epoch,
                    leader,
                    replicas,
                };
                admin::install(b, &topic, meta, None)
            } else {
                ErrorCode::AccessDenied
            };
            reply.send(Response::InternalAddPartition { error });
        }
        Request::Produce { .. } => unreachable!("`server_rpc::decode` decodes a produce in place"),
        Request::Fetch {
            topic,
            partition,
            offset,
            max_bytes,
            replica_id,
        } => {
            let tp = b.store.topic_partition(&topic, partition);
            fetch::handle(b, peer, &tp, offset, max_bytes, replica_id, reply, ctx).await
        }
        Request::ListOffsets { topic, partition } => {
            let (error, earliest, latest) =
                match b.store.get(&b.store.topic_partition(&topic, partition)) {
                    Some(p) if p.is_leader() => (
                        ErrorCode::None,
                        p.log.start_offset(),
                        p.log.high_watermark(),
                    ),
                    Some(_) => (ErrorCode::NotLeader, 0, 0),
                    None => (ErrorCode::UnknownTopicOrPartition, 0, 0),
                };
            reply.send(Response::ListOffsets {
                error,
                earliest,
                latest,
            });
        }
        Request::OffsetCommit {
            group,
            topic,
            partition,
            offset,
        } => {
            b.offsets
                .borrow_mut()
                .insert((group, topic, partition), offset);
            reply.send(Response::OffsetCommit {
                error: ErrorCode::None,
            });
        }
        Request::OffsetFetch {
            group,
            topic,
            partition,
        } => {
            let key = (group, topic, partition);
            // An RDMA-committed offset (slot) takes precedence over the
            // TCP-committed map when newer.
            let tcp = b.offsets.borrow().get(&key).copied().unwrap_or(u64::MAX);
            let slot = b
                .offset_slots
                .borrow()
                .get(&key)
                .map(|(buf, _)| buf.read_u64(0))
                .unwrap_or(u64::MAX);
            let offset = match (tcp, slot) {
                (u64::MAX, s) => s,
                (t, u64::MAX) => t,
                (t, s) => t.max(s),
            };
            reply.send(Response::OffsetFetch {
                error: ErrorCode::None,
                offset,
            });
        }
        Request::OffsetSlotAccess {
            group,
            topic,
            partition,
        } => {
            if !b.config.rdma.consume {
                reply.send(Response::OffsetSlotAccess {
                    error: ErrorCode::InvalidRequest,
                    region: RemoteRegion::default(),
                });
                return;
            }
            let key = (group, topic, partition);
            let region = {
                let mut slots = b.offset_slots.borrow_mut();
                let (_, mr) = slots.entry(key).or_insert_with(|| {
                    let buf = ShmBuf::zeroed(8);
                    buf.write_u64(0, u64::MAX);
                    let mr = b.nic.reg_mr(
                        buf.clone(),
                        rnic::Access::REMOTE_WRITE | rnic::Access::REMOTE_READ,
                    );
                    b.metrics.registered_bytes.add(8);
                    (buf, mr)
                });
                RemoteRegion {
                    addr: mr.addr(),
                    rkey: mr.rkey(),
                    len: 8,
                }
            };
            reply.send(Response::OffsetSlotAccess {
                error: ErrorCode::None,
                region,
            });
        }
        Request::ProduceAccess {
            topic,
            partition,
            mode,
            min_bytes,
        } => {
            let tp = b.store.topic_partition(&topic, partition);
            handle_produce_access(b, peer, &tp, mode, min_bytes, reply)
        }
        Request::ProduceRelease { topic, partition } => {
            if let Some(p) = b.store.get(&b.store.topic_partition(&topic, partition)) {
                let grant = p.grant.borrow().clone();
                if let Some(g) = grant {
                    if g.owner == peer || g.mode == ProduceMode::Shared {
                        revoke_grant(b, &p, &g, ErrorCode::AccessDenied);
                    }
                }
            }
            reply.send(Response::ProduceRelease {
                error: ErrorCode::None,
            });
        }
        Request::ConsumeAccess {
            topic,
            partition,
            offset,
            consumer_id,
        } => {
            let tp = b.store.topic_partition(&topic, partition);
            rdma_consume::handle_access(b, &tp, offset, consumer_id, reply).await
        }
        Request::ConsumeRelease {
            topic,
            partition,
            consumer_id,
            segment,
        } => {
            let tp = b.store.topic_partition(&topic, partition);
            rdma_consume::handle_release(b, &tp, consumer_id, segment, reply)
        }
    }
}
