//! Fetch RPCs: consumers (paper §4.4.1) and the replica long-poll of pull
//! replication (§4.3.1), where a fetch at offset X acknowledges everything
//! before X.

use std::rc::Rc;
use std::time::Duration;

use kdstorage::log::FetchSlice;
use kdstorage::TopicPartition;
use kdwire::messages::Response;
use kdwire::{ErrorCode, FetchResp};
use netsim::NodeId;

use crate::broker::BrokerInner;
use crate::common::{charge_storage, charge_worker, count_tier_read, on_hw_advanced};
use crate::data::Partition;
use crate::requests::Reply;

/// Replica long-poll wait when no data is available (§4.3.1 pull).
const REPLICA_FETCH_WAIT: Duration = Duration::from_millis(500);

/// `Fetch`: up to `max_bytes` of `tp` from `offset`; `replica_id` is
/// `u32::MAX` for a consumer, else the fetching follower's node. A replica
/// fetch acknowledges records, so only a follower of `tp` may make one,
/// from its own node (`peer`); anyone else gets `AccessDenied`.
#[allow(clippy::too_many_arguments)]
pub(crate) async fn handle(
    b: &Rc<BrokerInner>,
    peer: NodeId,
    tp: &TopicPartition,
    offset: u64,
    max_bytes: u32,
    replica_id: u32,
    reply: Reply,
    ctx: Option<kdtelem::TraceCtx>,
) {
    let replica_ok =
        |p: &Partition| replica_id == u32::MAX || replica_id == peer.0 && p.is_follower(replica_id);
    let p = match b.store.get(tp) {
        Some(p) if p.is_leader() && replica_ok(&p) => p,
        found => {
            let error = match found {
                Some(p) if p.is_leader() => ErrorCode::AccessDenied,
                Some(_) => ErrorCode::NotLeader,
                None => ErrorCode::UnknownTopicOrPartition,
            };
            let resp = FetchResp {
                error,
                start_offset: offset,
                next_offset: offset,
                ..Default::default()
            };
            reply.send(Response::Fetch(resp));
            return;
        }
    };
    charge_worker(b, b.profile.cpu.api_fetch_base).await;
    if replica_id != u32::MAX {
        // A fetch at `offset` acknowledges everything before it.
        let before = p.log.high_watermark();
        p.follower_ack(replica_id, offset);
        if p.log.high_watermark() != before {
            on_hw_advanced(b, &p);
        }
        let f = p.log.read_from(offset, max_bytes, false);
        charge_storage(b, &p).await;
        if f.bytes.is_empty() {
            // Long-poll: park off-worker until data appears (Kafka's fetch
            // purgatory).
            let b2 = Rc::clone(b);
            sim::spawn(async move {
                let deadline = sim::now() + REPLICA_FETCH_WAIT;
                let mut rx = p.leo_tx.subscribe();
                while p.log.next_offset() <= offset && sim::now() < deadline {
                    let remaining = deadline.saturating_since(sim::now());
                    if sim::time::timeout(remaining, rx.changed()).await.is_err() {
                        break;
                    }
                }
                let f = p.log.read_from(offset, max_bytes, false);
                charge_storage(&b2, &p).await;
                b2.metrics.fetch_bytes.add(f.bytes.len() as u64);
                reply.send(fetch_response(&p, f));
            });
            return;
        }
        b.metrics.fetch_bytes.add(f.bytes.len() as u64);
        reply.send(fetch_response(&p, f));
    } else {
        b.metrics.fetch_requests.add(1);
        if b.config.storage.is_some() {
            if let Some(resident) = p.log.is_offset_resident(offset) {
                count_tier_read(b, resident);
            }
        }
        let f = p.log.read_from(offset, max_bytes, true);
        charge_storage(b, &p).await;
        if f.bytes.is_empty() {
            b.metrics.empty_fetches.add(1);
        }
        b.metrics.fetch_bytes.add(f.bytes.len() as u64);
        // Consumer fetches only: replica fetches legitimately read past the
        // high watermark and are not "served records" in the §4.4 sense.
        if let Some(ctx) = ctx {
            b.telem.registry.trace_event_now(
                ctx,
                kdtelem::EventKind::FetchServed {
                    stream: kdtelem::stream_key(tp.topic.as_str(), tp.partition),
                    start_offset: f.start_offset,
                    next_offset: f.next_offset,
                    bytes: f.bytes.len() as u64,
                },
            );
        }
        reply.send(fetch_response(&p, f));
    }
}

fn fetch_response(p: &Partition, f: FetchSlice) -> Response {
    Response::Fetch(FetchResp {
        error: ErrorCode::None,
        high_watermark: p.log.high_watermark(),
        log_end: p.log.next_offset(),
        start_offset: f.start_offset,
        next_offset: f.next_offset,
        bytes: f.bytes,
    })
}
