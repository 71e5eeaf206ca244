//! Replication (paper §4.3).
//!
//! * **TCP pull** (➏, §4.3.1): follower fetcher tasks long-poll the leader
//!   with replica fetch requests and append the returned batches; the
//!   leader treats a fetch at offset X as an acknowledgment of everything
//!   before X.
//! * **RDMA push** (➐, §4.3.2): the leader obtains produce access to the
//!   replica file on each follower and writes committed bytes straight from
//!   its own mapped file into the follower's — zero copies on both ends —
//!   with credit-based flow control and opportunistic batching of
//!   contiguous writes.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use kdstorage::record::verify_batch;
use kdwire::messages::{ProduceMode, Request, Response};
use kdwire::ProduceAccessResp;
use netsim::profile::copy_time;
use rnic::{CompletionQueue, CqOpcode, QpOptions, QueuePair, RecvWr, SendWr, ShmBuf, WorkRequest};
use sim::future::{race, Either};
use sim::sync::{Notify, Semaphore};

use crate::broker::BrokerInner;
use crate::common::{charge_storage, charge_worker, on_hw_advanced};
use crate::data::Partition;

/// Replica fetch size cap.
const REPLICA_FETCH_MAX_BYTES: u32 = 1024 * 1024;

/// Starts the pull fetcher for a follower replica (original Kafka).
pub fn start_pull_fetcher(b: &Rc<BrokerInner>, p: &Rc<Partition>) {
    let b = Rc::clone(b);
    let p = Rc::clone(p);
    sim::spawn(async move { pull_loop(b, p).await });
}

async fn pull_loop(b: Rc<BrokerInner>, p: Rc<Partition>) {
    let my_epoch = p.epoch();
    loop {
        // A crashed broker or a leadership change retires this fetcher (a
        // new one is spawned under the new epoch if still a follower).
        if !b.alive.get() || p.is_leader() || p.epoch() != my_epoch {
            return;
        }
        let leader = p.leader();
        let client = match b.peer_client(leader).await {
            Some(c) => c,
            None => {
                sim::time::sleep(Duration::from_millis(10)).await;
                continue;
            }
        };
        let req = Request::Fetch {
            topic: p.tp.topic.as_str().to_string(),
            partition: p.tp.partition,
            offset: p.log.next_offset(),
            max_bytes: REPLICA_FETCH_MAX_BYTES,
            replica_id: b.me.node,
        };
        let fetch_start = sim::now();
        let resp = match client.call(&req).await {
            Ok(Response::Fetch(f)) => f,
            Ok(_) | Err(_) => {
                sim::time::sleep(Duration::from_millis(10)).await;
                continue;
            }
        };
        if !resp.error.is_ok() {
            // Leader not ready yet (topic creation racing): back off.
            sim::time::sleep(Duration::from_millis(1)).await;
            continue;
        }
        b.metrics.replica_fetches.add(1);
        if !resp.bytes.is_empty() {
            apply_replicated(&b, &p, &resp.bytes).await;
            // Replication latency, pull flavour: fetch issued → batches
            // applied locally. Empty long-polls are not latency samples.
            b.telem.replicate_ns.record_since(fetch_start);
        }
        p.follower_set_hw(resp.high_watermark);
        on_hw_advanced(&b, &p);
        // No data → the leader long-polled already; loop immediately.
    }
}

/// Applies a run of replicated batches on the follower: verify + the two
/// receive-side copies the paper attributes to pull replication (§5.2).
async fn apply_replicated(b: &Rc<BrokerInner>, p: &Rc<Partition>, bytes: &[u8]) {
    let cpu = &b.profile.cpu;
    let mut at = 0usize;
    while at < bytes.len() {
        let Ok(header) = verify_batch(&bytes[at..]) else {
            return; // corrupt replication stream: stop (leader will resend)
        };
        let total = header.total_len();
        let cost = cpu.api_produce_base
            + copy_time(total as u64, cpu.crc_bandwidth)
            + copy_time(total as u64, cpu.heap_copy_bandwidth);
        charge_worker(b, cost).await;
        b.metrics.heap_copied_bytes.add(total as u64);
        if p.log.append_replica(&bytes[at..at + total]).is_err() {
            return; // offset mismatch: retry from our log end next round
        }
        charge_storage(b, p).await;
        at += total;
    }
    p.announce_leo();
}

/// Starts push-replication tasks (one per follower) for a leader partition.
pub fn maybe_start_push(b: &Rc<BrokerInner>, p: &Rc<Partition>) {
    let replicas = p.replicas();
    if p.push_started.get() || !p.is_leader() || replicas.is_empty() || !b.config.rdma.replicate {
        return;
    }
    p.push_started.set(true);
    for follower in replicas {
        let b = Rc::clone(b);
        let p = Rc::clone(p);
        sim::spawn(async move { push_loop(b, p, follower).await });
    }
}

/// What one follower's push loop shares with the collectors of every
/// session it establishes.
struct PushState {
    /// Follower log end acknowledged so far (write completions).
    acked: Cell<u64>,
    /// Replication lag for this (partition, follower): records the leader
    /// has pushed but the follower has not yet acked. Each pusher holds a
    /// private cell under the shared name, so a registry snapshot reports
    /// total outstanding lag across the cluster (peak = worst instant).
    lag: kdtelem::Gauge,
    /// Post times of in-flight writes (wr_id = follower LEO when acked),
    /// consumed by the collector to measure push replication latency.
    inflight: RefCell<VecDeque<(u64, sim::SimTime)>>,
    /// Wakes a push loop waiting for new bytes when a collector closes its
    /// session's credits.
    died: Notify,
}

/// One established session, shared by the push loop and its collectors.
struct PushSession {
    qp: QueuePair,
    grant: ProduceAccessResp,
    /// Closed by a collector that saw the QP die: a push loop parked on it
    /// wakes up and re-establishes.
    credits: Semaphore,
    /// Receive buffers of the follower's credit-return acks.
    ack_buf: ShmBuf,
    state: Rc<PushState>,
}

/// Leader-side push loop for one follower.
async fn push_loop(b: Rc<BrokerInner>, p: Rc<Partition>, follower: kdwire::BrokerAddr) {
    let my_epoch = p.epoch();
    let mut leo_rx = p.leo_tx.subscribe();
    let mut cursor_seg: u32 = 0;
    let mut cursor_pos: u32 = 0;
    // Index of the next not-yet-pushed batch within the cursor segment.
    let mut cursor_idx: usize = 0;
    // True when the cursor just advanced past a sealed file: the follower
    // must roll its head (which mirrors our sealed file) on re-establish.
    let mut just_rolled = false;
    let mut session: Option<Rc<PushSession>> = None;
    // The session died with writes unacknowledged: re-establish before
    // waiting for new bytes, whether or not any come.
    let mut resync = false;
    let state = Rc::new(PushState {
        acked: Cell::new(0),
        lag: b.telem.registry.gauge("kdbroker", "repl.lag"),
        inflight: RefCell::new(VecDeque::new()),
        died: Notify::new(),
    });

    loop {
        // A crashed broker or a leadership change retires this pusher.
        if !b.alive.get() || !p.is_leader() || p.epoch() != my_epoch {
            return;
        }
        // Wait for new committed-to-leader bytes at the cursor.
        loop {
            // The cursor starts at 0, passes only sealed segments, and adopts only `aligned` ones.
            let seg = p.log.segment(cursor_seg).expect("cursor segment");
            if seg.committed_pos() > cursor_pos {
                break;
            }
            if seg.is_sealed() && seg.committed_pos() == cursor_pos {
                // Move to the next file; the session must be re-established
                // on the follower's next head file.
                cursor_seg += 1;
                cursor_pos = 0;
                cursor_idx = 0;
                just_rolled = true;
                session = None;
                continue;
            }
            // Waiting on bytes alone would strand writes a dead session
            // never acknowledges until the next produce: the new grant
            // rewinds the cursor to what the follower holds.
            let dead = session.as_ref().is_some_and(|s| s.credits.is_closed());
            resync |= dead && !state.inflight.borrow().is_empty();
            if resync {
                session = None;
                break;
            }
            if let Either::Left(Err(())) = race(leo_rx.changed(), state.died.notified()).await {
                return;
            }
            if !b.alive.get() || !p.is_leader() || p.epoch() != my_epoch {
                return;
            }
        }

        // Establish the session lazily: "get RDMA produce address" on the
        // follower (§4.3.2), then an RC QP.
        let s = match session {
            Some(ref s) => s,
            None => {
                let Some(new) = establish(&b, &p, follower, just_rolled, &state).await else {
                    sim::time::sleep(Duration::from_millis(1)).await;
                    continue;
                };
                just_rolled = false;
                resync = false;
                // Re-sync the cursor to the follower's actual frontier: a
                // restarted follower can be behind it (recovery truncated its
                // torn tail) or still on an earlier file. Follower files
                // mirror leader files byte for byte, so its committed
                // frontier is always one of our batch boundaries.
                let g = &new.grant;
                if g.segment != cursor_seg || g.write_pos != cursor_pos {
                    cursor_seg = g.segment;
                    cursor_pos = g.write_pos;
                    cursor_idx = batch_index_at(&p, cursor_seg, cursor_pos);
                    // A frontier that is not one of our batch boundaries (or
                    // lies past our end) means the follower recovered a log
                    // that diverged from ours and was never truncated (no live
                    // leader existed at its recovery). Retire rather than
                    // interleave mismatched bytes; a later restart against a
                    // live leader repairs the follower.
                    let aligned = match p.log.segment(cursor_seg) {
                        Some(seg) => seg
                            .batch_at(cursor_idx)
                            .map(|e| e.pos == cursor_pos)
                            .unwrap_or_else(|| seg.committed_pos() == cursor_pos),
                        None => false,
                    };
                    if !aligned {
                        return;
                    }
                }
                &*session.insert(new)
            }
        };

        // Opportunistic batching: merge contiguous committed batches up to
        // the configured cap (the paper settles on 1 KiB, Fig 8/17), but
        // always at batch granularity and at least one batch.
        // A segment of this log, as at the wait above.
        let seg = p.log.segment(cursor_seg).expect("cursor segment");
        let mut end = cursor_pos;
        let mut last_offset = 0u64;
        // Tentative: committed to `cursor_idx` only once the write is
        // posted, so a dead session never leaves the index ahead of the
        // byte cursor.
        let mut next_idx = cursor_idx;
        while let Some(entry) = seg.batch_at(next_idx) {
            debug_assert_eq!(entry.pos, end, "push cursor at batch boundary");
            let new_end = entry.end_pos();
            if end > cursor_pos && new_end - cursor_pos > b.config.replication_max_batch {
                break;
            }
            end = new_end;
            last_offset = entry.next_offset();
            next_idx += 1;
        }
        if end == cursor_pos {
            sim::time::sleep(Duration::from_micros(1)).await;
            continue;
        }

        // The replication worker pays a per-post cost (the reason batching
        // matters for floods of small records, §4.3.2 / Fig 17).
        sim::time::sleep(b.profile.cpu.repl_post_cost).await;
        // Each push write is its own lifeline: the context crosses to the
        // follower in the WR (its commit lands on this trace) and comes back
        // on the leader's send CQE (the ack edge). It is rooted here, before
        // the credit wait, so that a write a dead session never posts takes
        // its trace id whether the loop learns of the death from the closed
        // semaphore or from the failed post (lifelines are numbered in
        // allocation order, and the golden chaos digests pin the numbering).
        let trace = kdtelem::TraceCtx::root();
        // Flow control: one credit per outstanding replicate request.
        let Ok(permit) = s.credits.acquire(1).await else {
            session = None;
            continue;
        };
        permit.forget(); // returned by the collector on the follower's ack

        let len = end - cursor_pos;
        let local = seg.shared_buf().slice(cursor_pos as usize, len as usize);
        let wr = SendWr::new(
            last_offset, // wr_id doubles as "follower LEO when acked"
            WorkRequest::WriteImm {
                local,
                remote_addr: s.grant.region.addr + u64::from(cursor_pos),
                rkey: s.grant.region.rkey,
                imm: kdwire::pack_imm(s.grant.file_id, 0),
            },
        )
        .with_trace(Some(trace));
        if s.qp.post_send(wr).is_err() {
            session = None;
            continue;
        }
        state.inflight.borrow_mut().push_back((last_offset, sim::now()));
        state.lag.set(last_offset.saturating_sub(state.acked.get()));
        b.metrics.push_writes.add(1);
        b.metrics.push_bytes.add(u64::from(len));
        cursor_pos = end;
        cursor_idx = next_idx;
    }
}

/// Index of the batch starting at byte `pos` of leader segment `seg_idx`
/// (the number of batches that end at or before `pos`).
fn batch_index_at(p: &Rc<Partition>, seg_idx: u32, pos: u32) -> usize {
    let Some(seg) = p.log.segment(seg_idx) else {
        return 0;
    };
    let mut i = 0;
    while let Some(e) = seg.batch_at(i) {
        if e.pos >= pos {
            break;
        }
        i += 1;
    }
    i
}

/// Gets produce access on the follower and connects the push QP; spawns the
/// completion collectors.
async fn establish(
    b: &Rc<BrokerInner>,
    p: &Rc<Partition>,
    follower: kdwire::BrokerAddr,
    just_rolled: bool,
    state: &Rc<PushState>,
) -> Option<Rc<PushSession>> {
    let client = b.peer_client(follower).await?;
    // (Re)attach wherever the follower's head is — except right after our
    // file sealed, when the follower must roll (its old head mirrors our
    // sealed file exactly).
    let min_bytes = if just_rolled {
        b.config.log.segment_size
    } else {
        0
    };
    let resp = client
        .call(&Request::ProduceAccess {
            topic: p.tp.topic.as_str().to_string(),
            partition: p.tp.partition,
            mode: ProduceMode::Replication,
            min_bytes,
        })
        .await
        .ok()?;
    let Response::ProduceAccess(grant) = resp else {
        return None;
    };
    if !grant.error.is_ok() {
        return None;
    }
    let send_cq = b.nic.create_cq(4096);
    let recv_cq = b.nic.create_cq(4096);
    let qp = b
        .nic
        .connect(
            netsim::NodeId(follower.node),
            follower.rdma_port + crate::rdma_net::PRODUCE_PORT_OFF,
            send_cq.clone(),
            recv_cq.clone(),
            QpOptions::default(),
        )
        .await
        .ok()?;
    // Post receives for the follower's credit-return acks — one chained
    // post (one doorbell), not 64.
    let ack_buf = ShmBuf::zeroed(16 * 64);
    let _ = qp.post_recv_list((0..64).map(|i| RecvWr {
        wr_id: i,
        buf: Some(ack_buf.slice(i as usize * 16, 16)),
    }));
    b.repl_qps.borrow_mut().push(qp.clone());
    // The grant tells us the follower's recovered log end: treat it as an
    // ack so the high watermark can re-advance after a leader restart even
    // when there is nothing left to push.
    let before = p.log.high_watermark();
    p.follower_ack(follower.node, grant.next_offset);
    if p.log.high_watermark() != before {
        on_hw_advanced(b, p);
    }
    // Writes of a dead session never complete; drop their post times.
    state.inflight.borrow_mut().clear();
    let credits = Semaphore::new(grant.credits as usize);
    let session = Rc::new(PushSession { qp, grant, credits, ack_buf, state: Rc::clone(state) });
    spawn_collector(b, p, follower.node, &session, send_cq, recv_cq);
    Some(session)
}

impl PushSession {
    /// Marks the session dead: a push loop parked on its credits or waiting
    /// for new bytes wakes up.
    fn close(&self) {
        self.credits.close();
        self.state.died.notify_waiters();
    }
}

/// Collects completions of one push session: write acks advance the high
/// watermark; credit-return receives replenish the leader's credits.
fn spawn_collector(
    b: &Rc<BrokerInner>,
    p: &Rc<Partition>,
    follower_node: u32,
    session: &Rc<PushSession>,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
) {
    // Write acks: the record "is fully replicated" once the RDMA write is
    // acknowledged by the follower's NIC.
    let b2 = Rc::clone(b);
    let p2 = Rc::clone(p);
    let stream = kdtelem::stream_key(p.tp.topic.as_str(), p.tp.partition);
    let max_batch = b.config.cq_batch;
    let s = Rc::clone(session);
    sim::spawn(async move {
        let PushState { acked, lag, inflight, .. } = &*s.state;
        let mut batch: Vec<rnic::Cqe> = Vec::with_capacity(max_batch);
        'collect: loop {
            if !crate::rdma_net::drain_or_wait(&send_cq, &mut batch, max_batch).await {
                break;
            }
            for cqe in &batch {
                if !cqe.ok() {
                    break 'collect;
                }
                if cqe.opcode == CqOpcode::RdmaWrite && cqe.wr_id > acked.get() {
                    acked.set(cqe.wr_id);
                    let posted = inflight.borrow().back().map_or(cqe.wr_id, |(off, _)| *off);
                    lag.set(posted.saturating_sub(cqe.wr_id));
                    if let Some(ctx) = cqe.trace {
                        b2.telem.registry.trace_event_now(
                            ctx,
                            kdtelem::EventKind::ReplAck {
                                stream,
                                offset: cqe.wr_id,
                            },
                        );
                    }
                    // Replication latency, push flavour: write posted →
                    // follower NIC ack (a cumulative ack covers all earlier
                    // writes).
                    let mut q = inflight.borrow_mut();
                    while let Some((_, posted)) = q.pop_front_if(|(off, _)| *off <= cqe.wr_id) {
                        b2.telem.replicate_ns.record_since(posted);
                    }
                    drop(q);
                    p2.follower_ack(follower_node, cqe.wr_id);
                    on_hw_advanced(&b2, &p2);
                }
            }
        }
        s.close();
    });
    // Credit returns: a drained batch replenishes all its permits and
    // reposts its recvs through one chained post.
    let s = Rc::clone(session);
    sim::spawn(async move {
        let mut batch: Vec<rnic::Cqe> = Vec::with_capacity(max_batch);
        'collect: loop {
            if !crate::rdma_net::drain_or_wait(&recv_cq, &mut batch, max_batch).await {
                break;
            }
            let mut ok = 0;
            for cqe in &batch {
                if !cqe.ok() {
                    break;
                }
                ok += 1;
            }
            if ok > 0 {
                s.credits.add_permits(ok);
                let _ = s.qp.post_recv_list(batch[..ok].iter().map(|cqe| RecvWr {
                    wr_id: cqe.wr_id,
                    buf: Some(s.ack_buf.slice(cqe.wr_id as usize * 16, 16)),
                }));
            }
            if ok < batch.len() {
                break 'collect;
            }
        }
        s.close();
    });
}
