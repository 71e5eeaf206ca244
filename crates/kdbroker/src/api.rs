//! API workers (paper Fig 2 ➌➍): dequeue work items, verify and commit
//! records, answer fetches, and serve the RDMA control plane.

use std::rc::Rc;
use std::time::Duration;

use kdstorage::{AppendError, TopicPartition};
use kdwire::messages::{ProduceMode, Request, Response};
use kdwire::slots::{shared_word_addend, unpack_shared_word};
use kdwire::{ConsumeAccessResp, ErrorCode, FetchResp, RemoteRegion, SlotGrant};
use netsim::profile::copy_time;
use netsim::NodeId;
use rnic::{SendWr, ShmBuf, WorkRequest};

use crate::broker::BrokerInner;
use crate::data::Partition;
use crate::rdma_consume::{self, SlotRef};
use crate::rdma_produce::{
    commit_run, deliver_ack, handle_produce_access, revoke_grant, CommitScratch, Grant,
};
use crate::requests::{AckRoute, CommitItem, Reply, WorkItem};

/// Cost of trivial control-plane requests (metadata, offsets, grants).
pub(crate) const CONTROL_COST: Duration = Duration::from_micros(3);

/// Replica long-poll wait when no data is available (§4.3.1 pull).
const REPLICA_FETCH_WAIT: Duration = Duration::from_millis(500);

/// Sleeps `cost` of worker time and accounts it as CPU load.
pub async fn charge_worker(b: &Rc<BrokerInner>, cost: Duration) {
    b.metrics
        .add(&b.metrics.worker_busy_ns, cost.as_nanos() as u64);
    sim::time::sleep(cost).await;
}

/// One API worker thread. The queue charges a parked worker its wake-up
/// (§5.1); `None` is the crash, with every queued item dead unanswered.
pub async fn worker_loop(b: Rc<BrokerInner>) {
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
                Request::Produce { .. } => (&b.telem.api_produce_ns, "broker.api.produce"),
                Request::Fetch { .. } => (&b.telem.api_fetch_ns, "broker.api.fetch"),
                _ => (&b.telem.api_control_ns, "broker.api.control"),
            };
            let hist = hist.clone();
            // A traced RPC continues the caller's lifeline in a child span.
            let span = trace.map(|ctx| b.telem.registry.trace_span(span_name, Some(ctx)));
            handle_rpc(b, peer, request, reply, span.as_ref().map(|s| s.ctx())).await;
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
    match request {
        Request::Metadata { topics } => {
            charge_worker(b, CONTROL_COST).await;
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
            charge_worker(b, CONTROL_COST).await;
            // Topic management runs off-worker (it performs cluster RPCs).
            let b2 = Rc::clone(b);
            sim::spawn(async move {
                let error = create_topic(&b2, &topic, partitions, replication).await;
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
            charge_worker(b, CONTROL_COST).await;
            let error = apply_add_partition(b, &topic, partition, epoch, leader, replicas);
            reply.send(Response::InternalAddPartition { error });
        }
        Request::Produce {
            topic,
            partition,
            acks,
            batch,
        } => {
            handle_produce(
                b,
                &TopicPartition::new(&*topic, partition),
                acks,
                batch,
                reply,
                ctx,
            )
            .await
        }
        Request::Fetch {
            topic,
            partition,
            offset,
            max_bytes,
            replica_id,
        } => {
            handle_fetch(
                b,
                &TopicPartition::new(&*topic, partition),
                offset,
                max_bytes,
                replica_id,
                reply,
                ctx,
            )
            .await
        }
        Request::ListOffsets { topic, partition } => {
            charge_worker(b, CONTROL_COST).await;
            let resp = match b.store.get(&TopicPartition::new(&*topic, partition)) {
                Some(p) if p.is_leader() => Response::ListOffsets {
                    error: ErrorCode::None,
                    earliest: p.log.start_offset(),
                    latest: p.log.high_watermark(),
                },
                Some(_) => Response::ListOffsets {
                    error: ErrorCode::NotLeader,
                    earliest: 0,
                    latest: 0,
                },
                None => Response::ListOffsets {
                    error: ErrorCode::UnknownTopicOrPartition,
                    earliest: 0,
                    latest: 0,
                },
            };
            reply.send(resp);
        }
        Request::OffsetCommit {
            group,
            topic,
            partition,
            offset,
        } => {
            charge_worker(b, CONTROL_COST).await;
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
            charge_worker(b, CONTROL_COST).await;
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
            charge_worker(b, CONTROL_COST).await;
            if !b.config.rdma.consume {
                reply.send(Response::OffsetSlotAccess {
                    error: ErrorCode::InvalidRequest,
                    region: RemoteRegion { addr: 0, rkey: 0, len: 0 },
                });
                return;
            }
            let key = (group, topic, partition);
            let region = {
                let mut slots = b.offset_slots.borrow_mut();
                let (_, mr) = slots.entry(key).or_insert_with(|| {
                    let buf = ShmBuf::zeroed(8);
                    buf.write_u64(0, u64::MAX);
                    let mr = b
                        .nic
                        .reg_mr(buf.clone(), rnic::Access::REMOTE_WRITE | rnic::Access::REMOTE_READ);
                    b.metrics.add(&b.metrics.registered_bytes, 8);
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
            handle_produce_access(
                b,
                peer,
                &TopicPartition::new(&*topic, partition),
                mode,
                min_bytes,
                reply,
            )
            .await
        }
        Request::ProduceRelease { topic, partition } => {
            charge_worker(b, CONTROL_COST).await;
            if let Some(p) = b.store.get(&TopicPartition::new(&*topic, partition)) {
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
            handle_consume_access(
                b,
                &TopicPartition::new(&*topic, partition),
                offset,
                consumer_id,
                reply,
            )
            .await
        }
        Request::Telemetry => {
            charge_worker(b, CONTROL_COST).await;
            let json = b.telem.registry.snapshot().to_json_lines();
            reply.send(Response::Telemetry {
                error: ErrorCode::None,
                json,
            });
        }
        Request::Series => {
            charge_worker(b, CONTROL_COST).await;
            let (error, json) = match &b.series {
                Some(s) => (ErrorCode::None, s.dump().to_json_lines()),
                None => (ErrorCode::NotSupported, String::new()),
            };
            reply.send(Response::Series { error, json });
        }
        Request::Health => {
            charge_worker(b, CONTROL_COST).await;
            let (error, json) = match &b.watchdog {
                Some(w) => (
                    ErrorCode::None,
                    kdtelem::health::to_json_lines(&w.events()),
                ),
                None => (ErrorCode::NotSupported, String::new()),
            };
            reply.send(Response::Health { error, json });
        }
        Request::ConsumeRelease {
            topic,
            partition,
            consumer_id,
            segment,
        } => {
            charge_worker(b, CONTROL_COST).await;
            if let Some(p) = b.store.get(&TopicPartition::new(&*topic, partition)) {
                rdma_consume::release_read(&b.nic, &b.metrics, &p, segment);
                b.consume_module.free_slot(consumer_id, &p.tp, segment);
                p.slot_refs
                    .borrow_mut()
                    .retain(|r| !(r.consumer_id == consumer_id && r.segment == segment));
                // Last reader gone: the sealed segment may spill back out.
                maybe_evict(&p, segment);
            }
            reply.send(Response::ConsumeRelease {
                error: ErrorCode::None,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Topic management (controller role).
// ---------------------------------------------------------------------------

async fn create_topic(b: &Rc<BrokerInner>, topic: &str, partitions: u32, replication: u32) -> ErrorCode {
    let controller = b.peers[0];
    if b.me.node != controller.node {
        // Forward to the controller.
        let Some(client) = b.peer_client(controller).await else {
            return ErrorCode::Internal;
        };
        return match client
            .call(&Request::CreateTopic {
                topic: topic.to_string(),
                partitions,
                replication,
            })
            .await
        {
            Ok(Response::CreateTopic { error }) => error,
            _ => ErrorCode::Internal,
        };
    }
    if partitions == 0 || replication == 0 || replication as usize > b.peers.len() {
        return ErrorCode::InvalidRequest;
    }
    if b.store.topic_exists(topic) {
        return ErrorCode::AlreadyExists;
    }
    let n = b.peers.len();
    for pt in 0..partitions {
        let leader = b.peers[pt as usize % n];
        let followers: Vec<_> = (1..replication as usize)
            .map(|k| b.peers[(pt as usize + k) % n])
            .collect();
        // Install on every broker (full metadata view everywhere).
        for target in b.peers.clone() {
            let req = Request::InternalAddPartition {
                topic: topic.to_string(),
                partition: pt,
                epoch: 0,
                leader,
                replicas: followers.clone(),
            };
            if target.node == b.me.node {
                apply_add_partition(b, topic, pt, 0, leader, followers.clone());
            } else if let Some(client) = b.peer_client(target).await {
                let _ = client.call(&req).await;
            }
        }
    }
    ErrorCode::None
}

/// Installs partition metadata and, when this broker hosts it, the local
/// replica plus its replication machinery. A view with a newer epoch for an
/// already-hosted partition is a leadership change and is applied in place;
/// a view with an older epoch is stale and rejected (`FencedEpoch`).
pub fn apply_add_partition(
    b: &Rc<BrokerInner>,
    topic: &str,
    partition: u32,
    epoch: u64,
    leader: kdwire::BrokerAddr,
    followers: Vec<kdwire::BrokerAddr>,
) -> ErrorCode {
    let tp = TopicPartition::new(topic, partition);
    if let Some(existing) = b.store.partition_meta(&tp) {
        if epoch < existing.epoch {
            return ErrorCode::FencedEpoch;
        }
    }
    b.store.record_meta(
        topic,
        kdwire::PartitionMeta {
            partition,
            epoch,
            leader,
            replicas: followers.clone(),
        },
    );
    let is_leader = leader.node == b.me.node;
    let is_follower = followers.iter().any(|f| f.node == b.me.node);
    if let Some(p) = b.store.get(&tp) {
        if epoch > p.epoch() {
            apply_leadership_change(b, &p, epoch, leader, followers, is_leader);
        }
        return ErrorCode::None;
    }
    if !(is_leader || is_follower) {
        return ErrorCode::None;
    }
    let log = partition_log(b, &tp);
    let p = Partition::with_log(tp, log, leader, followers, is_leader, epoch);
    b.store.insert(Rc::clone(&p));
    start_replication(b, &p);
    ErrorCode::None
}

/// Installs a partition recovered from surviving segment buffers (broker
/// restart after a crash). The log is rebuilt by a CRC scan that truncates
/// any torn tail; committed records all survive because commits only cover
/// CRC-verified bytes.
pub fn install_recovered_partition(
    b: &Rc<BrokerInner>,
    topic: &str,
    partition: u32,
    epoch: u64,
    leader: kdwire::BrokerAddr,
    followers: Vec<kdwire::BrokerAddr>,
    buffers: crate::broker::SegmentBuffers,
) {
    b.store.record_meta(
        topic,
        kdwire::PartitionMeta {
            partition,
            epoch,
            leader,
            replicas: followers.clone(),
        },
    );
    let tp = TopicPartition::new(topic, partition);
    let is_leader = leader.node == b.me.node;
    let log = kdstorage::Log::recover(b.config.log.clone(), tiered_store(b, &tp), buffers);
    let p = Partition::with_log(tp, log, leader, followers, is_leader, epoch);
    b.store.insert(Rc::clone(&p));
    if is_leader {
        p.announce_leo();
        // RF=1: the high watermark is recovered directly from the log end.
        // RF>1: it re-advances as followers ack (push re-learns each
        // follower's frontier at session establish).
        if p.replication_factor() == 1 {
            p.recompute_hw();
            on_hw_advanced(b, &p);
        }
    }
    start_replication(b, &p);
}

// ---------------------------------------------------------------------------
// Durable tier (segment files) plumbing.
// ---------------------------------------------------------------------------

/// Tiered mode: creates (wiping any stale files) the partition's segment
/// file store under `<storage.dir>/node<N>/<topic>-<partition>`. Memory
/// mode returns `None`.
fn tiered_store(b: &Rc<BrokerInner>, tp: &TopicPartition) -> Option<Rc<kdstorage::FileStore>> {
    let storage = b.config.storage.as_ref()?;
    let dir = storage
        .dir
        .join(format!("node{}", b.me.node))
        .join(format!("{}-{}", tp.topic.as_str(), tp.partition));
    let store = kdstorage::FileStore::create(&dir, storage).expect("create segment file store");
    Some(Rc::new(store))
}

/// Builds a fresh partition log, with a file tier when one is configured.
fn partition_log(b: &Rc<BrokerInner>, tp: &TopicPartition) -> kdstorage::Log {
    match tiered_store(b, tp) {
        Some(store) => kdstorage::Log::with_store(b.config.log.clone(), store),
        None => kdstorage::Log::new(b.config.log.clone()),
    }
}

/// Drains the partition's accumulated storage I/O charge: bumps the
/// `storage.*` counters and sleeps the modeled latency on the virtual
/// clock. Memory mode never accrues a charge, so this returns without
/// awaiting and the pre-durability schedule is untouched.
pub async fn charge_storage(b: &Rc<BrokerInner>, p: &Partition) {
    let io = p.log.take_io();
    if io.is_zero() {
        return;
    }
    let m = &b.metrics;
    m.add(&m.storage_bytes_flushed, io.flushed_bytes);
    m.add(&m.storage_fsyncs, io.fsyncs);
    m.add(&m.storage_segments_rotated, io.rotated);
    m.add(&m.storage_cold_read_bytes, io.cold_read_bytes);
    if io.fsyncs > 0 {
        b.telem.storage_fsync_ns.record(io.ns);
    }
    sim::time::sleep(Duration::from_nanos(io.ns)).await;
}

/// Background flusher for `SyncMode::EveryMs`: periodically pushes every
/// partition's unsynced committed suffix out to its segment files.
pub async fn flusher_loop(b: Rc<BrokerInner>, every_ms: u64) {
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

/// Tiered mode: spill a sealed segment's bytes out of broker memory once
/// nothing pins the buffer — no open produce grant and no consumer read
/// registration (zero-copy access always wins over memory reclaim).
/// `Log::evict_segment` additionally refuses head/unsealed/unsynced
/// segments and logs without a file tier, so the call is safe to make
/// speculatively.
fn maybe_evict(p: &Rc<Partition>, segment: u32) {
    if p.read_regs.borrow().contains_key(&segment) {
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

fn start_replication(b: &Rc<BrokerInner>, p: &Rc<Partition>) {
    if p.is_leader() {
        crate::repl::maybe_start_push(b, p);
    } else if !b.config.rdma.replicate {
        crate::repl::start_pull_fetcher(b, p);
    }
}

/// Epoch-fenced leadership change. Revoking the active grant deregisters its
/// MR, rotating the rkey out from under any producer or pusher still
/// operating under the old epoch: their one-sided writes fail the NIC's
/// rkey lookup and never become consumer-visible.
fn apply_leadership_change(
    b: &Rc<BrokerInner>,
    p: &Rc<Partition>,
    epoch: u64,
    leader: kdwire::BrokerAddr,
    followers: Vec<kdwire::BrokerAddr>,
    is_leader: bool,
) {
    let grant = p.grant.borrow().clone();
    if let Some(g) = grant.filter(|g| !g.closed.get()) {
        revoke_grant(b, p, &g, ErrorCode::FencedEpoch);
    }
    p.apply_leadership(epoch, leader, followers, is_leader);
    if is_leader {
        // Promoted follower: serve from the local log. The HW learned from
        // the old leader stays put until the new ISR acks past it.
        p.push_started.set(false);
        if p.replication_factor() == 1 {
            p.recompute_hw();
            on_hw_advanced(b, p);
        }
    }
    start_replication(b, p);
    // Wake any replication task parked on the LEO watch so it observes the
    // epoch change and exits.
    p.announce_leo();
}

// ---------------------------------------------------------------------------
// Produce (TCP datapath, §4.2.1).
// ---------------------------------------------------------------------------

/// Trace the two broker CPU copies the TCP produce path pays (§4.2.1):
/// socket receive buffer → request heap, then heap → log file.
fn trace_tcp_copies(b: &Rc<BrokerInner>, ctx: Option<kdtelem::TraceCtx>, len: u64) {
    if let Some(ctx) = ctx {
        let r = &b.telem.registry;
        r.trace_event_now(
            ctx,
            kdtelem::EventKind::CpuCopy {
                site: "broker.net_to_user",
                bytes: len,
            },
        );
        r.trace_event_now(
            ctx,
            kdtelem::EventKind::CpuCopy {
                site: "broker.log_append",
                bytes: len,
            },
        );
    }
}

/// Trace a commit of `[base, next)` on the producer's lifeline.
pub(crate) fn trace_commit(
    b: &Rc<BrokerInner>,
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

async fn handle_produce(
    b: &Rc<BrokerInner>,
    tp: &TopicPartition,
    acks: u8,
    batch: Vec<u8>,
    reply: Reply,
    ctx: Option<kdtelem::TraceCtx>,
) {
    b.metrics.add(&b.metrics.produce_requests, 1);
    b.metrics.add(&b.metrics.produce_bytes, batch.len() as u64);
    let Some(p) = b.store.get(tp) else {
        let error = if b.store.topic_exists(tp.topic.as_str()) {
            ErrorCode::NotLeader
        } else {
            ErrorCode::UnknownTopicOrPartition
        };
        reply.send(Response::Produce { error, base_offset: 0 });
        return;
    };
    if !p.is_leader() {
        reply.send(Response::Produce {
            error: ErrorCode::NotLeader,
            base_offset: 0,
        });
        return;
    }
    // A TCP produce into an RDMA-shared file must reserve through the same
    // atomic word as the remote producers (§4.2.2 "Shared RDMA/TCP access").
    let grant = p.grant.borrow().clone();
    if let Some(g) = grant.filter(|g| g.mode == ProduceMode::Shared && !g.closed.get()) {
        produce_via_shared(b, &p, &g, batch, reply, ctx).await;
        return;
    }

    append_and_ack(b, &p, acks, &batch, reply, ctx).await;
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
    b.metrics.add(&b.metrics.heap_copied_bytes, len);
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

/// Post-commit bookkeeping shared by every produce path.
pub(crate) fn after_local_commit(b: &Rc<BrokerInner>, p: &Rc<Partition>) {
    p.announce_leo();
    if p.replication_factor() == 1 {
        p.recompute_hw();
        on_hw_advanced(b, p);
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
            p.wait_committed(base_offset + u64::from(record_count)).await;
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
    batch: Vec<u8>,
    reply: Reply,
    ctx: Option<kdtelem::TraceCtx>,
) {
    let shared = g.shared.as_ref().expect("shared grant");
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
    let seg = p.log.segment(g.segment).expect("grant segment");
    if w.offset + len > u64::from(seg.capacity()) {
        // Out of space: abort the shared session and fall back to a plain
        // append on the fresh head file.
        revoke_grant(b, p, g, ErrorCode::OutOfSpace);
        roll_head(b, p);
        append_and_ack(b, p, 2, &batch, reply, ctx).await;
        return;
    }
    // Copy the records into the reserved region (this path still copies —
    // it is the TCP datapath; zero copy is the RDMA producers' privilege).
    let cpu = &b.profile.cpu;
    charge_worker(b, copy_time(len, cpu.heap_copy_bandwidth)).await;
    b.metrics.add(&b.metrics.heap_copied_bytes, len);
    trace_tcp_copies(b, ctx, len);
    seg.write_at(w.offset as u32, &batch);
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
    crate::rdma_net::enqueue_in_order(b, g, seq, item);
}

pub(crate) fn roll_head(b: &Rc<BrokerInner>, p: &Rc<Partition>) {
    let sealed = p.log.head_index();
    p.log.roll();
    // The old head just became immutable: let consumers know (§4.4.2).
    on_hw_advanced(b, p);
    maybe_evict(p, sealed);
}

// ---------------------------------------------------------------------------
// Fetch (consumers §4.4.1 and pull replication §4.3.1).
// ---------------------------------------------------------------------------

async fn handle_fetch(
    b: &Rc<BrokerInner>,
    tp: &TopicPartition,
    offset: u64,
    max_bytes: u32,
    replica_id: u32,
    reply: Reply,
    ctx: Option<kdtelem::TraceCtx>,
) {
    let fail = |error: ErrorCode| {
        Response::Fetch(FetchResp {
            error,
            high_watermark: 0,
            log_end: 0,
            start_offset: offset,
            next_offset: offset,
            bytes: Vec::new(),
        })
    };
    let Some(p) = b.store.get(tp) else {
        reply.send(fail(ErrorCode::UnknownTopicOrPartition));
        return;
    };
    if !p.is_leader() {
        reply.send(fail(ErrorCode::NotLeader));
        return;
    }
    let is_replica = replica_id != u32::MAX;
    charge_worker(b, b.profile.cpu.api_fetch_base).await;
    if is_replica {
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
            let p2 = Rc::clone(&p);
            sim::spawn(async move {
                let deadline = sim::now() + REPLICA_FETCH_WAIT;
                let mut rx = p2.leo_tx.subscribe();
                while p2.log.next_offset() <= offset && sim::now() < deadline {
                    let remaining = deadline.saturating_since(sim::now());
                    if sim::time::timeout(remaining, rx.changed()).await.is_err() {
                        break;
                    }
                }
                let f = p2.log.read_from(offset, max_bytes, false);
                charge_storage(&b2, &p2).await;
                b2.metrics.add(&b2.metrics.fetch_bytes, f.bytes.len() as u64);
                reply.send(fetch_response(&p2, f));
            });
            return;
        }
        b.metrics.add(&b.metrics.fetch_bytes, f.bytes.len() as u64);
        reply.send(fetch_response(&p, f));
    } else {
        b.metrics.add(&b.metrics.fetch_requests, 1);
        if b.config.storage.is_some() {
            match p.log.is_offset_resident(offset) {
                Some(true) => b.metrics.add(&b.metrics.storage_hot_hits, 1),
                Some(false) => b.metrics.add(&b.metrics.storage_hot_misses, 1),
                None => {}
            }
        }
        let f = p.log.read_from(offset, max_bytes, true);
        charge_storage(b, &p).await;
        if f.bytes.is_empty() {
            b.metrics.add(&b.metrics.empty_fetches, 1);
        }
        b.metrics.add(&b.metrics.fetch_bytes, f.bytes.len() as u64);
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

fn fetch_response(p: &Rc<Partition>, f: kdstorage::log::FetchSlice) -> Response {
    Response::Fetch(FetchResp {
        error: ErrorCode::None,
        high_watermark: p.log.high_watermark(),
        log_end: p.log.next_offset(),
        start_offset: f.start_offset,
        next_offset: f.next_offset,
        bytes: f.bytes,
    })
}

// ---------------------------------------------------------------------------
// Consume access (§4.4.2).
// ---------------------------------------------------------------------------

async fn handle_consume_access(
    b: &Rc<BrokerInner>,
    tp: &TopicPartition,
    offset: u64,
    consumer_id: u64,
    reply: Reply,
) {
    charge_worker(b, CONTROL_COST).await;
    let fail = |error: ErrorCode| {
        Response::ConsumeAccess(ConsumeAccessResp {
            error,
            segment: 0,
            region: RemoteRegion {
                addr: 0,
                rkey: 0,
                len: 0,
            },
            start_pos: 0,
            start_offset: 0,
            last_readable: 0,
            mutable: false,
            slot: None,
            high_watermark: 0,
        })
    };
    if !b.config.rdma.consume {
        reply.send(fail(ErrorCode::InvalidRequest));
        return;
    }
    let Some(p) = b.store.get(tp) else {
        reply.send(fail(ErrorCode::UnknownTopicOrPartition));
        return;
    };
    if !p.is_leader() {
        reply.send(fail(ErrorCode::NotLeader));
        return;
    }
    let hw = p.log.high_watermark();
    let hwp = p.log.high_watermark_position();
    let (segment, start_pos, start_offset) = if offset < hw {
        match p.log.locate(offset) {
            Some((seg, entry)) => (seg, entry.pos, entry.base_offset),
            None => {
                reply.send(fail(ErrorCode::InvalidRequest));
                return;
            }
        }
    } else {
        (hwp.segment, hwp.pos, hw)
    };
    // Tiered: page a spilled segment back into memory before registering
    // it — the zero-copy read region must expose real bytes.
    if b.config.storage.is_some() {
        if p.log.segment(segment).is_some_and(|s| s.is_resident()) {
            b.metrics.add(&b.metrics.storage_hot_hits, 1);
        } else {
            b.metrics.add(&b.metrics.storage_hot_misses, 1);
            if !p.log.restore_segment(segment) {
                reply.send(fail(ErrorCode::OffsetOutOfRange));
                return;
            }
            charge_storage(b, &p).await;
        }
    }
    let mr = rdma_consume::register_read(&b.nic, &b.metrics, &p, segment);
    let view = rdma_consume::slot_view_for(&p, segment);
    let slot = if view.mutable {
        match b
            .consume_module
            .alloc_slot(&b.nic, &b.metrics, consumer_id, tp, segment)
        {
            Some((slots, index)) => {
                let r = SlotRef {
                    consumer_id,
                    slot: index,
                    segment,
                };
                if !p.slot_refs.borrow().contains(&r) {
                    p.slot_refs.borrow_mut().push(r);
                }
                slots
                    .buf
                    .write_at(index * kdwire::SLOT_SIZE, &view.encode());
                Some(SlotGrant {
                    region: RemoteRegion {
                        addr: slots.mr.addr(),
                        rkey: slots.mr.rkey(),
                        len: slots.mr.len() as u64,
                    },
                    index: index as u32,
                    active_span: slots.active_span(),
                })
            }
            None => {
                rdma_consume::release_read(&b.nic, &b.metrics, &p, segment);
                reply.send(fail(ErrorCode::AccessDenied));
                return;
            }
        }
    } else {
        None
    };
    reply.send(Response::ConsumeAccess(ConsumeAccessResp {
        error: ErrorCode::None,
        segment,
        region: RemoteRegion {
            addr: mr.addr(),
            rkey: mr.rkey(),
            len: mr.len() as u64,
        },
        start_pos,
        start_offset,
        last_readable: view.last_readable,
        mutable: view.mutable,
        slot,
        high_watermark: hw,
    }));
}

/// High-watermark side effects: refresh every RDMA-readable metadata slot
/// attached to the partition (§4.4.2), then release the produce acks the
/// new watermark covers, oldest first.
pub fn on_hw_advanced(b: &Rc<BrokerInner>, p: &Rc<Partition>) {
    rdma_consume::update_partition_slots(p, &b.consume_module, &b.metrics);
    let hw = p.log.high_watermark();
    loop {
        let mut acks = p.deferred_acks.borrow_mut();
        if acks.front().is_none_or(|ack| ack.next_offset > hw) {
            return;
        }
        let ack = acks.pop_front().unwrap();
        drop(acks);
        deliver_ack(b, ack.route, ErrorCode::None, ack.base_offset);
    }
}

/// Sends a batch on the broker's loopback QP — used by `self_faa`.
pub(crate) fn post_self(
    qp: &rnic::QueuePair,
    local: ShmBuf,
    region: RemoteRegion,
    add: u64,
) -> Result<(), rnic::PostError> {
    qp.post_send(SendWr::new(
        0,
        WorkRequest::FetchAdd {
            local: local.as_slice(),
            remote_addr: region.addr,
            rkey: region.rkey,
            add,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdstorage::record::{single_record_batch, Record};
    use kdwire::slots::{pack_shared_word, SharedWord};
    use netsim::profile::Profile;
    use netsim::Fabric;

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
            apply_add_partition(b, "t", 0, 0, me, Vec::new());
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
            g.shared.as_ref().unwrap().word_buf.write_u64(0, pack_shared_word(word));
            let stage = Rc::new(ReplyStage::new());
            let reply = Reply {
                stage: Rc::clone(&stage),
                corr: 1,
                handoff: Duration::ZERO,
            };
            let batch = single_record_batch(1, &Record::value(vec![7u8; 100]));
            handle_produce(b, &tp, 1, batch.clone(), reply, None).await;
            let (_, resp) = stage.next().await.unwrap();
            assert!(matches!(
                resp,
                Response::Produce { error: ErrorCode::None, base_offset: 0 }
            ));
            assert!(g.closed.get(), "the shared session was aborted");
            assert_eq!(p.log.head_index(), 1, "and the record went to a fresh file");
            assert_eq!(broker.metrics().heap_copied_bytes, batch.len() as u64);
        });
    }
}
