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
use std::future::Future;
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use kdstorage::record::verify_batch;
use kdwire::messages::{ProduceMode, Request, Response};
use kdwire::ProduceAccessResp;
use netsim::profile::copy_time;
use rnic::{CompletionQueue, CqOpcode, QpOptions, QueuePair, RecvWr, SendWr, ShmBuf, WorkRequest};
use sim::future::Either;
use sim::sync::{watch, Notify};

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
            topic: p.tp.topic.as_str().into(),
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
    /// Wakes a push loop waiting for new bytes when the collector closes its
    /// session.
    died: Notify,
}

/// One established session, shared by the push loop and its collector.
struct PushSession {
    qp: QueuePair,
    grant: ProduceAccessResp,
    /// Credits in hand: writes the follower can take before it returns one.
    credits: Cell<usize>,
    /// The follower's credit returns: one receive completion per credit.
    recv_cq: CompletionQueue,
    /// Receive buffers of the credit returns, one per credit of the grant.
    ack_buf: ShmBuf,
    /// Writes posted on this session, each signaled: its collector runs
    /// until every one has a completion.
    posted: Cell<u64>,
    /// Set by the collector that saw the QP die: a push loop re-establishes.
    closed: Cell<bool>,
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
    // Credit returns drained by one take (see `PushSession::take_credit`).
    let mut returns = Vec::with_capacity(b.config.replication_credits as usize);

    loop {
        // A crashed broker or a leadership change retires this pusher.
        if !b.alive.get() || !p.is_leader() || p.epoch() != my_epoch {
            return;
        }
        // Wait for new committed-to-leader bytes at the cursor. A wait with a
        // live session is charged: a commit to the cursor's segment wakes it
        // once its post cost is paid, with the log end it committed.
        let mut charged = None;
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
            let dead = session.as_ref().is_some_and(|s| s.closed.get());
            resync |= dead && !state.inflight.borrow().is_empty();
            if resync {
                session = None;
                break;
            }
            let live = session.is_some() && !dead;
            let cost = live.then_some(b.profile.cpu.repl_post_cost);
            let leo = leo_rx.changed_charged(cost, u64::from(cursor_seg));
            match leo_or_death(leo, state.died.notified()).await {
                Either::Left(Err(())) => return,
                Either::Left(Ok(Some(leo))) => {
                    charged = Some(leo);
                    break;
                }
                _ => {}
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
            // A charged wake merges what was committed when it was armed.
            if charged.is_some_and(|leo| entry.next_offset() > leo)
                || (end > cursor_pos && new_end - cursor_pos > b.config.replication_max_batch)
            {
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
        // matters for floods of small records, §4.3.2 / Fig 17); a charged
        // wake has paid it.
        if charged.is_none() {
            sim::time::sleep(b.profile.cpu.repl_post_cost).await;
        }
        // Each push write is its own lifeline: the context crosses to the
        // follower in the WR (its commit lands on this trace) and comes back
        // on the leader's send CQE (the ack edge). It is rooted here, before
        // the credit wait, so that a write a dead session never posts takes
        // its trace id whether the loop learns of the death from the credit
        // returns or from the failed post (lifelines are numbered in
        // allocation order, and the golden chaos digests pin the numbering).
        let trace = kdtelem::TraceCtx::root();
        // Flow control: one credit per outstanding replicate request.
        if !s.take_credit(&mut returns).await {
            session = None;
            continue;
        }

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
        s.posted.set(s.posted.get() + 1);
        state
            .inflight
            .borrow_mut()
            .push_back((last_offset, sim::now()));
        state.lag.set(last_offset.saturating_sub(state.acked.get()));
        b.metrics.push_writes.add(1);
        b.metrics.push_bytes.add(u64::from(len));
        cursor_pos = end;
        cursor_idx = next_idx;
    }
}

/// Waits for a log-end change or the session's death, whichever comes
/// first — except that a change whose charge is being paid is not cut short
/// by a death: the loop is busy posting then, not waiting.
async fn leo_or_death<B: Future>(
    leo: watch::Changed<'_, u64>,
    death: B,
) -> Either<Result<Option<u64>, ()>, B::Output> {
    let (mut leo, mut death) = (std::pin::pin!(leo), std::pin::pin!(death));
    std::future::poll_fn(|cx| {
        if let Poll::Ready(changed) = leo.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(changed));
        }
        if leo.armed() {
            return Poll::Pending;
        }
        death.as_mut().poll(cx).map(Either::Right)
    })
    .await
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
/// write-completion collector.
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
            topic: p.tp.topic.as_str().into(),
            partition: p.tp.partition,
            mode: ProduceMode::Replication,
            min_bytes,
        })
        .await
        .ok()?;
    let Response::ProduceAccess(grant) = resp else {
        return None;
    };
    if !grant.error.is_ok() || grant.credits == 0 {
        return None;
    }
    let (send_cq, recv_cq) = b.nic.create_cq_pair(4096, CREDIT_CQ_DEPTH);
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
    // One receive per credit for the follower's credit returns, in one
    // chained post (one doorbell). A return's receive is re-posted only when
    // the push loop next takes a credit, so up to `credits` of them can be
    // consumed and not yet re-posted: the follower never finds the queue
    // empty, because it returns at most one credit per write in flight.
    // Taking fewer credits than granted is always safe; more returns than
    // the receive CQ holds would overflow it.
    let credits = (grant.credits as usize).min(CREDIT_CQ_DEPTH);
    let ack_buf = ShmBuf::zeroed(ACK_LEN * credits);
    let _ = qp.post_recv_list((0..credits).map(|i| ack_recv(&ack_buf, i as u64)));
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
    let session = Rc::new(PushSession {
        qp,
        grant,
        credits: Cell::new(credits),
        recv_cq,
        ack_buf,
        posted: Cell::new(0),
        closed: Cell::new(false),
        state: Rc::clone(state),
    });
    spawn_collector(b, p, follower.node, &session, send_cq);
    Some(session)
}

/// Depth of a push session's receive CQ: every credit return can wait there
/// until the push loop next takes a credit, so it bounds the credits a
/// session uses (and [`Broker::start`](crate::Broker::start) refuses a
/// larger `replication_credits`).
pub(crate) const CREDIT_CQ_DEPTH: usize = 4096;

/// Bytes of one credit-return receive buffer.
const ACK_LEN: usize = 16;

/// The receive for credit return `i` of a session, into its own buffer.
fn ack_recv(ack_buf: &ShmBuf, i: u64) -> RecvWr {
    let buf = ack_buf.slice(i as usize * ACK_LEN, ACK_LEN);
    RecvWr {
        wr_id: i,
        buf: Some(buf),
    }
}

impl PushSession {
    /// Takes one credit. Every credit return that has surfaced is collected
    /// first, its receive re-posted in one chained post; only with no credit
    /// left does it wait, on the receive CQ. `false`: the session is dead —
    /// closed, or a receive was flushed.
    async fn take_credit(&self, returns: &mut Vec<rnic::Cqe>) -> bool {
        if self.closed.get() {
            return false;
        }
        let max = self.grant.credits as usize;
        if self.credits.get() > 0 {
            returns.clear();
            self.recv_cq.drain_into(returns, max);
        } else if !crate::rdma_net::drain_or_wait(&self.recv_cq, returns, max).await {
            return false;
        }
        let ok = returns.iter().take_while(|cqe| cqe.ok()).count();
        if ok > 0 {
            self.credits.set(self.credits.get() + ok);
            let reposts = returns[..ok]
                .iter()
                .map(|cqe| ack_recv(&self.ack_buf, cqe.wr_id));
            let _ = self.qp.post_recv_list(reposts);
        }
        if ok < returns.len() {
            return false;
        }
        self.credits.set(self.credits.get() - 1);
        true
    }

    /// Marks the session dead: a push loop waiting for new bytes wakes up.
    fn close(&self) {
        self.closed.set(true);
        self.state.died.notify_waiters();
    }
}

/// Collects the write completions of one push session: the follower's NIC
/// acks advance the high watermark. The session closes when its QP dies,
/// whether or not a write was in flight to fail with it; a write the
/// follower's NIC took before the death still acks after it (its CQE
/// surfaces at the write's completion instant), so collection goes on until
/// every posted write has its completion or one has failed.
fn spawn_collector(
    b: &Rc<BrokerInner>,
    p: &Rc<Partition>,
    follower_node: u32,
    session: &Rc<PushSession>,
    send_cq: CompletionQueue,
) {
    // Write acks: the record "is fully replicated" once the RDMA write is
    // acknowledged by the follower's NIC.
    let b = Rc::clone(b);
    let p = Rc::clone(p);
    let stream = kdtelem::stream_key(p.tp.topic.as_str(), p.tp.partition);
    let max_batch = b.config.cq_batch;
    let s = Rc::clone(session);
    sim::spawn(async move {
        let PushState {
            acked,
            lag,
            inflight,
            ..
        } = &*s.state;
        let mut batch: Vec<rnic::Cqe> = Vec::with_capacity(max_batch);
        let mut completed = 0u64;
        let collect = async {
            while s.qp.is_alive() || completed < s.posted.get() {
                if !crate::rdma_net::drain_or_wait(&send_cq, &mut batch, max_batch).await {
                    return;
                }
                completed += batch.len() as u64;
                for cqe in &batch {
                    if !cqe.ok() {
                        return;
                    }
                    if cqe.opcode == CqOpcode::RdmaWrite && cqe.wr_id > acked.get() {
                        acked.set(cqe.wr_id);
                        let posted = inflight.borrow().back().map_or(cqe.wr_id, |(off, _)| *off);
                        lag.set(posted.saturating_sub(cqe.wr_id));
                        if let Some(ctx) = cqe.trace {
                            b.telem.registry.trace_event_now(
                                ctx,
                                kdtelem::EventKind::ReplAck {
                                    stream,
                                    offset: cqe.wr_id,
                                },
                            );
                        }
                        // Replication latency, push flavour: write posted →
                        // follower NIC ack (a cumulative ack covers all
                        // earlier writes).
                        let mut q = inflight.borrow_mut();
                        while let Some((_, posted)) = q.pop_front_if(|(off, _)| *off <= cqe.wr_id) {
                            b.telem.replicate_ns.record_since(posted);
                        }
                        drop(q);
                        p.follower_ack(follower_node, cqe.wr_id);
                        on_hw_advanced(&b, &p);
                    }
                }
            }
        };
        let mut collect = std::pin::pin!(collect);
        // The death wait is polled to park once, and again only once the QP
        // is dead: a completion's wake leaves it parked as it is, since a
        // `sim` task's waker never changes. On the death's wake, `collect`
        // is polled first, as in a race.
        let mut disconnected = std::pin::pin!(s.qp.disconnected());
        let mut parked = false;
        let died = std::future::poll_fn(|cx| {
            if collect.as_mut().poll(cx).is_ready() {
                return Poll::Ready(false);
            }
            if std::mem::replace(&mut parked, true) && s.qp.is_alive() {
                return Poll::Pending;
            }
            disconnected.as_mut().poll(cx).map(|()| true)
        })
        .await;
        s.close();
        if died {
            collect.await;
        }
    });
}
