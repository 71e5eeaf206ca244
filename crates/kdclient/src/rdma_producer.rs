//! The KafkaDirect RDMA producer (§4.2.2, Fig 3).
//!
//! * **Exclusive mode**: the producer owns the head file and writes records
//!   contiguously with WriteWithImm; the immediate data carries the file ID
//!   (Fig 4). One round trip per produce.
//! * **Shared mode**: before writing, the producer fetches-and-adds the
//!   64-bit order/offset word (Fig 5) to reserve a region and take an order
//!   number; overflowing reservations are detected from the FAA result and
//!   trigger a head-file re-request.
//!
//! Acks arrive as small Sends from the broker, strictly in write order per
//! QP, so a FIFO of pending completions suffices for correlation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use kdstorage::record::BatchBuilder;
use kdstorage::Record;
use kdwire::messages::{ProduceMode, Request, Response};
use kdwire::{unpack_shared_word, BrokerAddr, ErrorCode, ProduceAccessResp};
use netsim::profile::copy_time;
use netsim::NodeHandle;
use rnic::{CqOpcode, QpOptions, QueuePair, RNic, RecvWr, SendWr, ShmBuf, WorkRequest};
use sim::sync::oneshot;

use crate::conn::{ClientTransport, Conn};
use crate::error::{check, ClientError};

const ACK_BUF: usize = 16;
/// Default ack receive depth. Fan-in sweeps with tens of thousands of
/// simulated producers shrink this via [`RdmaProducer::connect_with_ack_depth`]
/// — each pre-posted ack buffer costs real host memory per client.
const ACK_DEPTH: usize = 512;

/// Bounded reconnect policy: attempts are spaced by exponential backoff so
/// a producer rides out a broker restart without hammering the fabric, and
/// gives up with [`ClientError::RetriesExhausted`] if the outage persists.
const RECONNECT_ATTEMPTS: u32 = 12;
const RECONNECT_BASE: Duration = Duration::from_micros(200);
const RECONNECT_MAX: Duration = Duration::from_millis(10);

/// A pending produce ack: the waiter plus the staging buffer to recycle
/// once the write is acknowledged (acks arrive strictly in write order, so
/// by then the WriteImm has long since consumed the bytes).
type AckWaiter = (oneshot::Sender<(ErrorCode, u64)>, Option<ShmBuf>);

/// Free staging buffers, shared between the producer and its ack reader.
type StagePool = Rc<RefCell<Vec<ShmBuf>>>;

/// The RDMA producer.
pub struct RdmaProducer {
    node: NodeHandle,
    broker: BrokerAddr,
    /// First broker we ever dialled; reconnects re-resolve the partition
    /// leader through it (a failover may have moved leadership).
    bootstrap: BrokerAddr,
    ctrl: Conn,
    nic: RNic,
    qp: QueuePair,
    qp_send_cq: rnic::CompletionQueue,
    topic: String,
    partition: u32,
    mode: ProduceMode,
    grant: ProduceAccessResp,
    /// Exclusive mode: next write position (producer-tracked).
    write_pos: u32,
    pending: Rc<RefCell<VecDeque<AckWaiter>>>,
    /// Recycled staging buffers (see [`RdmaProducer::stage`]).
    stage_pool: StagePool,
    /// Reusable batch encoder; reset per record.
    builder: BatchBuilder,
    /// Chain-path scratch (staged records, work requests): recycled across
    /// `send_pipelined_chain` calls so posting a chain allocates nothing.
    chain_staged: Vec<(ShmBuf, kdtelem::TraceSpan)>,
    chain_wrs: Vec<SendWr>,
    faa_result: ShmBuf,
    /// Ack receive buffers posted per data-plane QP (see `ACK_DEPTH`).
    ack_depth: usize,
    dead: Rc<std::cell::Cell<bool>>,
    telem: kdtelem::Registry,
    /// End-to-end produce latency (record handed to `send` → ack delivered).
    e2e_ns: kdtelem::Histogram,
}

impl RdmaProducer {
    /// Connects the control plane, requests produce access, and establishes
    /// the data-plane QP.
    pub async fn connect(
        node: &NodeHandle,
        broker: BrokerAddr,
        topic: &str,
        partition: u32,
        shared: bool,
    ) -> Result<RdmaProducer, ClientError> {
        Self::connect_with_ack_depth(node, broker, topic, partition, shared, ACK_DEPTH).await
    }

    /// [`RdmaProducer::connect`] with an explicit ack receive depth. The
    /// depth bounds how many produce writes may be in flight before acks
    /// stall the pipeline; large fan-in sweeps use a small depth so 100k
    /// simulated clients don't each pin 512 ack buffers.
    pub async fn connect_with_ack_depth(
        node: &NodeHandle,
        broker: BrokerAddr,
        topic: &str,
        partition: u32,
        shared: bool,
        ack_depth: usize,
    ) -> Result<RdmaProducer, ClientError> {
        assert!(ack_depth >= 1);
        let ctrl = Conn::connect(node, broker, ClientTransport::Tcp).await?;
        let mode = if shared {
            ProduceMode::Shared
        } else {
            ProduceMode::Exclusive
        };
        let nic = RNic::new(node);
        let pending: Rc<RefCell<VecDeque<AckWaiter>>> = Rc::new(RefCell::new(VecDeque::new()));
        let stage_pool: StagePool = Rc::new(RefCell::new(Vec::new()));
        let dead = Rc::new(std::cell::Cell::new(false));
        let (qp, send_cq) = Self::setup_data_plane(
            node,
            &nic,
            broker,
            Rc::clone(&pending),
            Rc::clone(&stage_pool),
            Rc::clone(&dead),
            ack_depth,
        )
        .await?;
        let telem = kdtelem::current();
        let e2e_ns = telem.histogram("kdclient", "produce.e2e_ns");
        let producer_id = sim::rng::range_u64(1..u64::MAX);
        let mut producer = RdmaProducer {
            node: node.clone(),
            broker,
            bootstrap: broker,
            ctrl,
            nic,
            qp,
            qp_send_cq: send_cq,
            topic: topic.to_string(),
            partition,
            mode,
            grant: empty_grant(),
            write_pos: 0,
            pending,
            stage_pool,
            builder: BatchBuilder::new(producer_id),
            chain_staged: Vec::new(),
            chain_wrs: Vec::new(),
            faa_result: ShmBuf::zeroed(8),
            ack_depth,
            dead,
            telem,
            e2e_ns,
        };
        producer.acquire_access(0).await?;
        Ok(producer)
    }

    /// Creates the data-plane QP and its ack reader task. Used at connect
    /// time and again when a revoked session broke the previous QP.
    async fn setup_data_plane(
        node: &NodeHandle,
        nic: &RNic,
        broker: BrokerAddr,
        pending: Rc<RefCell<VecDeque<AckWaiter>>>,
        stage_pool: StagePool,
        dead: Rc<std::cell::Cell<bool>>,
        ack_depth: usize,
    ) -> Result<(QueuePair, rnic::CompletionQueue), ClientError> {
        let send_cq = nic.create_cq(4096);
        let recv_cq = nic.create_cq(ack_depth * 2);
        let qp = nic
            .connect(
                netsim::NodeId(broker.node),
                broker.rdma_port, // PRODUCE_PORT_OFF
                send_cq.clone(),
                recv_cq.clone(),
                QpOptions::default(),
            )
            .await
            .map_err(|_| ClientError::Disconnected)?;
        // Ack receive buffers + reader task: acks resolve pending waiters
        // strictly FIFO (RC ordering guarantees this matches write order).
        let bufs: Vec<ShmBuf> = (0..ack_depth).map(|_| ShmBuf::zeroed(ACK_BUF)).collect();
        for (i, buf) in bufs.iter().enumerate() {
            let _ = qp.post_recv(RecvWr {
                wr_id: i as u64,
                buf: Some(buf.as_slice()),
            });
        }
        {
            let qp = qp.clone();
            let wakeup = node.profile().cpu.wakeup;
            sim::spawn(async move {
                // Acks drain in stack-space batches (`ibv_poll_cq` style):
                // one wakeup retires every ack that piled up, and the
                // consumed recvs go back through one chained post.
                let mut batch: kdbuf::ArrayVec<rnic::Cqe, 64> = kdbuf::ArrayVec::new();
                let mut recycle: kdbuf::ArrayVec<u64, 64> = kdbuf::ArrayVec::new();
                'conn: loop {
                    batch.clear();
                    if recv_cq.poll_batch(&mut batch) == 0 {
                        let Some(c) = recv_cq.next().await else { break };
                        // Blocking-poll wakeup (§5.1 client overheads).
                        sim::time::sleep(wakeup).await;
                        let _ = batch.push(c);
                        recv_cq.poll_batch(&mut batch);
                    }
                    recycle.clear();
                    for cqe in batch.as_slice() {
                        if !cqe.ok() || cqe.opcode != CqOpcode::Recv {
                            break 'conn;
                        }
                        // Decode through a stack buffer: the ack path
                        // allocates nothing at steady state.
                        let n = (cqe.byte_len as usize).min(ACK_BUF);
                        let mut payload = [0u8; ACK_BUF];
                        bufs[cqe.wr_id as usize].read_into(0, &mut payload[..n]);
                        let _ = recycle.push(cqe.wr_id);
                        let (error, base_offset) = kdwire::decode_ack(&payload[..n]);
                        if let Some((waiter, staged)) = pending.borrow_mut().pop_front() {
                            // The acked write has consumed its staging
                            // buffer; recycle it for a future produce.
                            if let Some(buf) = staged {
                                stage_pool.borrow_mut().push(buf);
                            }
                            let _ = waiter.send((error, base_offset));
                        }
                    }
                    let _ = qp.post_recv_list(recycle.drain().map(|wr_id| RecvWr {
                        wr_id,
                        buf: Some(bufs[wr_id as usize].as_slice()),
                    }));
                }
                dead.set(true);
                // Fail anything still pending.
                for (w, _) in pending.borrow_mut().drain(..) {
                    let _ = w.send((ErrorCode::Internal, 0));
                }
            });
        }
        Ok((qp, send_cq))
    }

    /// Requests (or re-requests) produce access; `min_bytes` forces a roll
    /// when the head cannot fit the next record (§4.2.2).
    async fn acquire_access(&mut self, min_bytes: u32) -> Result<(), ClientError> {
        let resp = self
            .ctrl
            .call(&Request::ProduceAccess {
                topic: self.topic.clone(),
                partition: self.partition,
                mode: self.mode,
                min_bytes,
            })
            .await?;
        let grant = match resp {
            Response::ProduceAccess(g) => g,
            _ => return Err(ClientError::Protocol),
        };
        check(grant.error)?;
        self.write_pos = grant.write_pos;
        self.grant = grant;
        Ok(())
    }

    /// Encodes `record` into a batch in a (registered) staging buffer —
    /// the producer's defensive copy of user data (§5.1). Staging buffers
    /// are recycled through [`StagePool`] as acks retire them, so the
    /// steady-state produce path allocates nothing here.
    /// Encodes `record` into a pooled staging buffer without charging the
    /// copy cost (the caller owes `producer_copy_base` + `copy_time` for
    /// the returned length).
    fn stage_bytes(&mut self, record: &Record) -> Result<ShmBuf, ClientError> {
        self.builder.reset();
        self.builder.append(record);
        let staged = self
            .stage_pool
            .borrow_mut()
            .pop()
            .unwrap_or_else(|| ShmBuf::from_vec(Vec::new()));
        {
            let shared = staged.shared();
            let mut v = shared.borrow_mut();
            v.clear();
            self.builder
                .build_into(&mut v)
                .map_err(|_| ClientError::Corrupt)?;
        }
        Ok(staged)
    }

    async fn stage(&mut self, record: &Record) -> Result<ShmBuf, ClientError> {
        let staged = self.stage_bytes(record)?;
        let cpu = &self.node.profile().cpu;
        // Only the defensive copy occupies the caller; the API→network
        // thread handoff is pipeline latency and is charged on the ack path.
        sim::time::sleep(
            cpu.producer_copy_base + copy_time(staged.len() as u64, cpu.memcpy_bandwidth),
        )
        .await;
        Ok(staged)
    }

    /// Produces one record, waiting for the broker acknowledgment; returns
    /// the assigned base offset.
    pub async fn send(&mut self, record: &Record) -> Result<u64, ClientError> {
        let start = sim::now();
        // The produce span itself is opened by `send_pipelined` (it roots
        // the trace lifeline there, where the WRs are posted).
        let ack = self.send_pipelined(record).await?;
        let (error, offset) = ack.await.map_err(|_| ClientError::Disconnected)?;
        // Dispatch chain: API→net handoff on send + CQ poller→API handoff +
        // wakeup on the ack (§5.1's client-side overheads).
        let cpu = &self.node.profile().cpu;
        sim::time::sleep(cpu.handoff + cpu.handoff + cpu.wakeup).await;
        self.e2e_ns.record_since(start);
        check(error)?;
        Ok(offset)
    }

    /// Posts one produce and returns a future resolving with its ack —
    /// the pipelined path used by the bandwidth experiments.
    pub async fn send_pipelined(
        &mut self,
        record: &Record,
    ) -> Result<oneshot::Receiver<(ErrorCode, u64)>, ClientError> {
        // Root of this produce's lifeline: the ctx rides the data-plane WRs
        // (FAA + WriteImm) to the broker, so the whole commit chain is
        // stitched to this client span.
        let span = self.telem.trace_span("client.produce", None);
        let ctx = Some(span.ctx());
        let staged = self.stage(record).await?;
        let len = staged.len() as u32;
        for attempt in 0..4 {
            if self.dead.get() && self.reconnect_data_plane().await.is_err() {
                // The broker itself is gone (crash or failover): full
                // reconnect through the bootstrap broker.
                self.reconnect().await?;
            }
            let result = match self.mode {
                ProduceMode::Shared => self.try_send_shared(&staged, len, ctx).await,
                _ => self.try_send_exclusive(&staged, len, ctx).await,
            };
            match result {
                Ok(rx) => return Ok(rx),
                Err(NeedAccess) => {
                    // Out of space (or revoked): wait out our own pipeline,
                    // then re-request the head file (§4.2.2).
                    self.drain_pending().await;
                    match self.acquire_access(len).await {
                        Ok(()) => {}
                        // Leadership moved (epoch fenced us out) or the
                        // broker died under us: re-resolve and redial.
                        Err(ClientError::Disconnected)
                        | Err(ClientError::Broker(ErrorCode::FencedEpoch))
                        | Err(ClientError::Broker(ErrorCode::NotLeader)) => {
                            self.reconnect().await?;
                        }
                        Err(e) => return Err(e),
                    }
                    let _ = attempt;
                }
            }
        }
        Err(ClientError::RetriesExhausted)
    }

    /// Posts a run of records as one linked WR chain (an `ibv_post_send`
    /// postlist): every record is staged first, then all WriteImm WRs ride
    /// a single doorbell. Ack receivers are appended to `out` in record
    /// order. Shared mode falls back to per-record posting — a shared write
    /// cannot post before its FAA reservation returns — as do single
    /// records and any run the head file cannot take whole.
    pub async fn send_pipelined_chain(
        &mut self,
        records: &[Record],
        out: &mut Vec<oneshot::Receiver<(ErrorCode, u64)>>,
    ) -> Result<(), ClientError> {
        if records.len() <= 1 || self.mode == ProduceMode::Shared || self.dead.get() {
            for r in records {
                out.push(self.send_pipelined(r).await?);
            }
            return Ok(());
        }
        // Stage every record (the per-record defensive copy), rooting each
        // produce's lifeline exactly as `send_pipelined` does. The staging
        // list is producer-owned scratch, recycled across chains.
        let mut staged = std::mem::take(&mut self.chain_staged);
        staged.clear();
        let mut total = 0u64;
        for r in records {
            let span = self.telem.trace_span("client.produce", None);
            let buf = match self.stage_bytes(r) {
                Ok(buf) => buf,
                Err(e) => {
                    let mut pool = self.stage_pool.borrow_mut();
                    for (buf, _) in staged.drain(..) {
                        pool.push(buf);
                    }
                    drop(pool);
                    self.chain_staged = staged;
                    return Err(e);
                }
            };
            total += buf.len() as u64;
            staged.push((buf, span));
        }
        // The defensive copies run back to back: one per-record base charge
        // each, but a single timer suspension for the whole chain.
        {
            let cpu = &self.node.profile().cpu;
            sim::time::sleep(
                cpu.producer_copy_base * records.len() as u32
                    + copy_time(total, cpu.memcpy_bandwidth),
            )
            .await;
        }
        // All-or-nothing: if the head file cannot take the whole chain (or
        // the QP died while staging), recycle the buffers and let the
        // per-record path re-request access where it needs to.
        if self.dead.get() || u64::from(self.write_pos) + total > self.grant.region.len {
            {
                let mut pool = self.stage_pool.borrow_mut();
                for (buf, _) in staged.drain(..) {
                    pool.push(buf);
                }
            }
            self.chain_staged = staged;
            for r in records {
                out.push(self.send_pipelined(r).await?);
            }
            return Ok(());
        }
        let first = out.len();
        let pos0 = self.write_pos;
        let mut wrs = std::mem::take(&mut self.chain_wrs);
        wrs.clear();
        for (buf, span) in &staged {
            let len = buf.len() as u32;
            let (tx, rx) = oneshot::channel();
            self.pending.borrow_mut().push_back((tx, Some(buf.clone())));
            wrs.push(
                SendWr::unsignaled(
                    0,
                    WorkRequest::WriteImm {
                        local: buf.as_slice(),
                        remote_addr: self.grant.region.addr + u64::from(self.write_pos),
                        rkey: self.grant.region.rkey,
                        imm: kdwire::pack_imm(self.grant.file_id, 0),
                    },
                )
                .with_trace(Some(span.ctx())),
            );
            self.write_pos += len;
            out.push(rx);
        }
        let posted = self.qp.post_send_list(wrs.drain(..));
        self.chain_wrs = wrs;
        if posted.is_err() {
            // Nothing was posted (the post fails whole): unwind the waiters
            // and retry record by record, which reconnects as needed.
            self.write_pos = pos0;
            out.truncate(first);
            {
                let mut pending = self.pending.borrow_mut();
                let mut pool = self.stage_pool.borrow_mut();
                for (buf, _) in staged.drain(..) {
                    pending.pop_back();
                    pool.push(buf);
                }
            }
            self.chain_staged = staged;
            for r in records {
                out.push(self.send_pipelined(r).await?);
            }
            return Ok(());
        }
        staged.clear();
        self.chain_staged = staged;
        Ok(())
    }

    /// Exclusive produce: one WriteWithImm at the producer-tracked position.
    async fn try_send_exclusive(
        &mut self,
        staged: &ShmBuf,
        len: u32,
        trace: Option<kdtelem::TraceCtx>,
    ) -> Result<oneshot::Receiver<(ErrorCode, u64)>, NeedAccess> {
        if u64::from(self.write_pos) + u64::from(len) > self.grant.region.len {
            return Err(NeedAccess);
        }
        let (tx, rx) = oneshot::channel();
        self.pending
            .borrow_mut()
            .push_back((tx, Some(staged.clone())));
        let wr = SendWr::unsignaled(
            0,
            WorkRequest::WriteImm {
                local: staged.as_slice(),
                remote_addr: self.grant.region.addr + u64::from(self.write_pos),
                rkey: self.grant.region.rkey,
                imm: kdwire::pack_imm(self.grant.file_id, 0),
            },
        )
        .with_trace(trace);
        if self.qp.post_send(wr).is_err() {
            self.pending.borrow_mut().pop_back();
            return Err(NeedAccess);
        }
        self.write_pos += len;
        Ok(rx)
    }

    /// Shared produce: FAA the order/offset word, then WriteWithImm into the
    /// reserved region with the order in the immediate data.
    async fn try_send_shared(
        &mut self,
        staged: &ShmBuf,
        len: u32,
        trace: Option<kdtelem::TraceCtx>,
    ) -> Result<oneshot::Receiver<(ErrorCode, u64)>, NeedAccess> {
        let word = self.grant.shared_word.ok_or(NeedAccess)?;
        // Reserve: FAA always succeeds (§4.2.2); overflow shows in the
        // returned offset.
        let old = self.faa(word.addr, word.rkey, len, trace).await?;
        let w = unpack_shared_word(old);
        if w.offset + u64::from(len) > self.grant.region.len {
            return Err(NeedAccess);
        }
        let (tx, rx) = oneshot::channel();
        self.pending
            .borrow_mut()
            .push_back((tx, Some(staged.clone())));
        let wr = SendWr::unsignaled(
            0,
            WorkRequest::WriteImm {
                local: staged.as_slice(),
                remote_addr: self.grant.region.addr + w.offset,
                rkey: self.grant.region.rkey,
                imm: kdwire::pack_imm(self.grant.file_id, w.order),
            },
        )
        .with_trace(trace);
        if self.qp.post_send(wr).is_err() {
            self.pending.borrow_mut().pop_back();
            return Err(NeedAccess);
        }
        Ok(rx)
    }

    async fn faa(
        &self,
        addr: u64,
        rkey: u32,
        len: u32,
        trace: Option<kdtelem::TraceCtx>,
    ) -> Result<u64, NeedAccess> {
        let wr = SendWr::new(
            1,
            WorkRequest::FetchAdd {
                local: self.faa_result.as_slice(),
                remote_addr: addr,
                rkey,
                add: kdwire::slots::shared_word_addend(u64::from(len)),
            },
        )
        .with_trace(trace);
        if self.qp.post_send(wr).is_err() {
            return Err(NeedAccess);
        }
        // FAAs are the only signaled WRs on this QP: the next send
        // completion is ours.
        loop {
            let Some(cqe) = self.send_cq().next().await else {
                return Err(NeedAccess);
            };
            if cqe.opcode == CqOpcode::FetchAdd {
                if !cqe.ok() {
                    return Err(NeedAccess);
                }
                return cqe.atomic_old.ok_or(NeedAccess);
            }
            if !cqe.ok() {
                return Err(NeedAccess);
            }
        }
    }

    fn send_cq(&self) -> rnic::CompletionQueue {
        self.qp_send_cq.clone()
    }

    /// Waits until every in-flight produce is acknowledged (used before
    /// re-requesting access so error acks don't interleave with new writes).
    pub async fn drain_pending(&self) {
        while !self.pending.borrow().is_empty() && !self.dead.get() {
            sim::time::yield_now().await;
            sim::time::sleep(std::time::Duration::from_micros(1)).await;
        }
    }

    /// Full reconnect after a broker crash or epoch-fenced failover:
    /// re-resolves the partition leader through the bootstrap broker (a
    /// failover moves it), rebuilds the control and data planes against the
    /// current leader, and re-acquires produce access. Attempts are bounded
    /// and exponentially backed off so a producer rides out a broker
    /// restart but fails cleanly if the outage outlasts the budget.
    pub async fn reconnect(&mut self) -> Result<(), ClientError> {
        let mut delay = RECONNECT_BASE;
        for _ in 0..RECONNECT_ATTEMPTS {
            if self.try_reconnect().await.is_ok() {
                return Ok(());
            }
            sim::time::sleep(delay).await;
            delay = (delay * 2).min(RECONNECT_MAX);
        }
        Err(ClientError::RetriesExhausted)
    }

    async fn try_reconnect(&mut self) -> Result<(), ClientError> {
        // Drop the stale data plane first so the (old) broker sees the
        // disconnect and releases any grant still held by this producer.
        self.qp.close();
        self.dead.set(true);
        let boot = Conn::connect(&self.node, self.bootstrap, ClientTransport::Tcp).await?;
        let resp = boot
            .call(&Request::Metadata {
                topics: vec![self.topic.clone()],
            })
            .await?;
        let leader = match resp {
            Response::Metadata { error, topics, .. } => {
                check(error)?;
                topics
                    .iter()
                    .find(|t| t.name == self.topic)
                    .and_then(|t| t.partitions.iter().find(|p| p.partition == self.partition))
                    .map(|p| p.leader)
                    .ok_or(ClientError::Broker(ErrorCode::UnknownTopicOrPartition))?
            }
            _ => return Err(ClientError::Protocol),
        };
        let ctrl = if leader.node == self.bootstrap.node {
            boot
        } else {
            Conn::connect(&self.node, leader, ClientTransport::Tcp).await?
        };
        self.pending.borrow_mut().clear();
        let (qp, send_cq) = Self::setup_data_plane(
            &self.node,
            &self.nic,
            leader,
            Rc::clone(&self.pending),
            Rc::clone(&self.stage_pool),
            Rc::clone(&self.dead),
            self.ack_depth,
        )
        .await?;
        self.ctrl = ctrl;
        self.broker = leader;
        self.qp = qp;
        self.qp_send_cq = send_cq;
        self.dead.set(false);
        self.acquire_access(0).await
    }

    async fn reconnect_data_plane(&mut self) -> Result<(), ClientError> {
        // The old reader already failed anything pending.
        self.pending.borrow_mut().clear();
        let (qp, send_cq) = Self::setup_data_plane(
            &self.node,
            &self.nic,
            self.broker,
            Rc::clone(&self.pending),
            Rc::clone(&self.stage_pool),
            Rc::clone(&self.dead),
            self.ack_depth,
        )
        .await?;
        self.qp = qp;
        self.qp_send_cq = send_cq;
        self.dead.set(false);
        Ok(())
    }

    /// Current file-id / segment of the grant (diagnostics).
    pub fn grant(&self) -> &ProduceAccessResp {
        &self.grant
    }

    /// Simulates a client crash: tears the data-plane QP down without any
    /// release protocol. The broker observes the disconnect and revokes the
    /// grant (§4.2.2 failure handling).
    pub fn crash(&self) {
        self.qp.close();
        self.dead.set(true);
    }

    /// Failure-injection helper (shared mode): reserves `len` bytes through
    /// the FAA word but never writes them — the "hole" of §4.2.2 that the
    /// broker's order timeout must detect and abort.
    pub async fn poison_reservation(&self, len: u32) {
        if let Some(word) = self.grant.shared_word {
            let _ = self.faa(word.addr, word.rkey, len, None).await;
        }
    }
}

/// Internal marker: the producer must (re)acquire access.
struct NeedAccess;

fn empty_grant() -> ProduceAccessResp {
    ProduceAccessResp {
        error: ErrorCode::None,
        file_id: 0,
        segment: 0,
        region: kdwire::RemoteRegion {
            addr: 0,
            rkey: 0,
            len: 0,
        },
        write_pos: 0,
        next_offset: 0,
        shared_word: None,
        credits: 0,
    }
}
