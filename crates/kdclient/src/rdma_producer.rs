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
//! QP, so a FIFO of pending completions suffices for correlation; one ack
//! may answer several consecutive writes (`kdwire::encode_ack`'s count).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use kdstorage::record::BatchBuilder;
use kdstorage::Record;
use kdwire::messages::{ProduceMode, Request, Response};
use kdwire::{unpack_shared_word, BrokerAddr, ErrorCode, ProduceAccessResp};
use netsim::profile::copy_time;
use rnic::{CompletionQueue, CqOpcode, QueuePair, RecvWr, SendWr, ShmBuf, WorkRequest};
use sim::sync::oneshot;

use crate::data_plane::{with_backoff, DataPlane, Port};
use crate::error::{check, ClientError};

const ACK_BUF: usize = 16;
/// Default ack receive depth; fan-in sweeps shrink it through
/// [`RdmaProducer::connect_with_ack_depth`], as each pre-posted ack buffer
/// costs real host memory per client.
const ACK_DEPTH: usize = 512;
/// Bound on the ack reader's task frame, in bytes.
const ACK_READER_FRAME: usize = 256;

/// A pending produce ack: the waiter plus the staging buffer to recycle
/// once the write is acknowledged (acks arrive strictly in write order, so
/// by then the WriteImm has long since consumed the bytes).
type AckWaiter = (oneshot::Sender<(ErrorCode, u64)>, Option<ShmBuf>);
/// The receiving end of one record's ack.
type Ack = oneshot::Receiver<(ErrorCode, u64)>;
/// One QP generation's ack waiters, and whether its reader saw the QP break.
type Pending = Rc<RefCell<VecDeque<AckWaiter>>>;
type Dead = Rc<Cell<bool>>;
/// Free staging buffers, shared between the producer and its ack readers.
type StagePool = Rc<RefCell<Vec<ShmBuf>>>;
/// A record ready to post: its encoded batch in a staging buffer and the
/// span rooting its lifeline.
type Staged = (ShmBuf, kdtelem::TraceSpan);

/// The RDMA producer.
pub struct RdmaProducer {
    plane: DataPlane,
    topic: String,
    partition: u32,
    mode: ProduceMode,
    grant: ProduceAccessResp,
    /// Exclusive mode: next write position (producer-tracked). Shared mode
    /// never reads it.
    write_pos: u32,
    /// The current QP generation's ack state. Each dial starts a new one, so
    /// the reader of a closed QP can neither fail the waiters of the QP that
    /// replaced it nor mark that QP dead.
    pending: Pending,
    dead: Dead,
    /// Recycled staging buffers (see [`RdmaProducer::stage`]).
    stage_pool: StagePool,
    /// Recycled ack channels: a record's cell comes back once its waiter
    /// has answered and the caller has dropped its [`Ack`].
    ack_cells: oneshot::Pool<(ErrorCode, u64)>,
    producer_id: u64,
    /// Staging scratch of runs of n > 1, recycled so posting one allocates
    /// nothing.
    chain: Vec<Staged>,
    faa_result: ShmBuf,
    /// Ack receive buffers posted per data-plane QP (see `ACK_DEPTH`).
    ack_depth: usize,
    telem: kdtelem::Registry,
    /// End-to-end produce latency (record handed to `send` → ack delivered).
    e2e_ns: kdtelem::Histogram,
}

impl RdmaProducer {
    /// Connects the control plane, requests produce access, and establishes
    /// the data-plane QP.
    pub async fn connect(
        node: &netsim::NodeHandle,
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
        node: &netsim::NodeHandle,
        broker: BrokerAddr,
        topic: &str,
        partition: u32,
        shared: bool,
        ack_depth: usize,
    ) -> Result<RdmaProducer, ClientError> {
        assert!(ack_depth >= 1);
        let mode = if shared { ProduceMode::Shared } else { ProduceMode::Exclusive };
        let (plane, recv_cq) = DataPlane::open(node, broker, Port::produce(ack_depth)).await?;
        let stage_pool = StagePool::default();
        let (pending, dead) = start_ack_reader(&plane, recv_cq, ack_depth, &stage_pool);
        let telem = kdtelem::current();
        let e2e_ns = telem.histogram("kdclient", "produce.e2e_ns");
        let producer_id = sim::rng::range_u64(1..u64::MAX);
        let mut producer = RdmaProducer {
            plane,
            topic: topic.to_string(),
            partition,
            mode,
            grant: ProduceAccessResp::default(),
            write_pos: 0,
            pending,
            dead,
            stage_pool,
            ack_cells: oneshot::Pool::new(),
            producer_id,
            chain: Vec::new(),
            faa_result: ShmBuf::zeroed(8),
            ack_depth,
            telem,
            e2e_ns,
        };
        producer.acquire_access(0).await?;
        Ok(producer)
    }

    /// Requests (or re-requests) produce access; `min_bytes` forces a roll
    /// when the head cannot fit the next record (§4.2.2).
    async fn acquire_access(&mut self, min_bytes: u32) -> Result<(), ClientError> {
        let (topic, partition, mode) = (self.topic.clone(), self.partition, self.mode);
        let request = Request::ProduceAccess { topic, partition, mode, min_bytes };
        let Response::ProduceAccess(grant) = self.plane.ctrl.call(&request).await? else {
            return Err(ClientError::Protocol);
        };
        check(grant.error)?;
        self.write_pos = grant.write_pos;
        self.grant = grant;
        Ok(())
    }

    /// Roots one produce's lifeline and encodes `record` into a batch in a
    /// (registered) staging buffer — the producer's defensive copy of user
    /// data (§5.1). The span's ctx rides the data-plane WRs (FAA, WriteImm)
    /// to the broker, so the whole commit chain is stitched to it. Staging
    /// buffers are recycled through [`StagePool`] as acks retire them, so
    /// the steady-state produce path allocates nothing here. The copy is
    /// charged by [`charge_copies`](Self::charge_copies).
    fn stage(&mut self, record: &Record) -> Result<Staged, ClientError> {
        let span = self.telem.trace_span("client.produce", None);
        let pooled = self.stage_pool.borrow_mut().pop();
        let staged = pooled.unwrap_or_else(|| ShmBuf::from_vec(Vec::new()));
        staged
            .with_vec(|v| {
                v.clear();
                let mut builder = BatchBuilder::begin(self.producer_id, v);
                builder.append(record);
                builder.finish()
            })
            .map_err(|_| ClientError::Corrupt)?;
        Ok((staged, span))
    }

    /// Charges the defensive copies of a staged run. They run back to back:
    /// one per-record base charge each, but a single timer suspension. Only
    /// the copy occupies the caller; the API→network thread handoff is
    /// pipeline latency and is charged on the ack path.
    async fn charge_copies(&self, run: &[Staged]) {
        let cpu = &self.plane.node.profile().cpu;
        let copies = copy_time(run_len(run), cpu.memcpy_bandwidth);
        sim::time::sleep(cpu.producer_copy_base * run.len() as u32 + copies).await;
    }

    /// Posts a staged run of n ≥ 1 records as one linked WR list (an
    /// `ibv_post_send` postlist: every WriteWithImm rides a single
    /// doorbell), written contiguously from file position `at`; the
    /// immediate data carries the file ID and `order` (Fig 4). All or
    /// nothing: `None` if the file cannot take the run or the QP refuses
    /// the post. Each record's ack receiver goes to `acks`, in record
    /// order. Returns the file position after the run.
    fn post_run(
        &self,
        run: &[Staged],
        at: u64,
        order: u16,
        acks: &mut impl FnMut(Ack),
    ) -> Option<u64> {
        let end = at + run_len(run);
        if end > self.grant.region.len {
            return None;
        }
        let mut pos = at;
        let (rkey, imm) = (self.grant.region.rkey, kdwire::pack_imm(self.grant.file_id, order));
        let wrs = run.iter().map(|(buf, span)| {
            let remote_addr = self.grant.region.addr + pos;
            pos += buf.len() as u64;
            let write = WorkRequest::WriteImm { local: buf.as_slice(), remote_addr, rkey, imm };
            SendWr::unsignaled(0, write).with_trace(Some(span.ctx()))
        });
        self.plane.qp.post_send_list(wrs).ok()?;
        // Acks arrive in write order: one waiter per record, holding the
        // staging buffer its write reads from.
        let mut pending = self.pending.borrow_mut();
        for (buf, _) in run {
            let (tx, rx) = self.ack_cells.channel();
            pending.push_back((tx, Some(buf.clone())));
            acks(rx);
        }
        Some(end)
    }

    /// Produces one record, waiting for the broker acknowledgment; returns
    /// the assigned base offset.
    pub async fn send(&mut self, record: &Record) -> Result<u64, ClientError> {
        let start = sim::now();
        let ack = self.send_pipelined(record).await?;
        let (error, offset) = ack.await.map_err(|_| ClientError::Disconnected)?;
        // Dispatch chain: API→net handoff on send + CQ poller→API handoff +
        // wakeup on the ack (§5.1's client-side overheads).
        let cpu = &self.plane.node.profile().cpu;
        sim::time::sleep(cpu.handoff + cpu.handoff + cpu.wakeup).await;
        self.e2e_ns.record_since(start);
        check(error)?;
        Ok(offset)
    }

    /// Posts one produce — a run of one — and returns a future resolving
    /// with its ack: the pipelined path of the bandwidth experiments.
    pub async fn send_pipelined(&mut self, record: &Record) -> Result<Ack, ClientError> {
        let mut ack = None;
        self.post(std::slice::from_ref(record), |rx| ack = Some(rx)).await?;
        ack.ok_or(ClientError::Protocol)
    }

    /// Posts a run of records (see [`post`](Self::post)); ack receivers are
    /// appended to `out` in record order.
    pub async fn send_pipelined_chain(
        &mut self,
        records: &[Record],
        out: &mut Vec<Ack>,
    ) -> Result<(), ClientError> {
        self.post(records, |rx| out.push(rx)).await
    }

    /// The one post routine. A run of n > 1 exclusive records is staged
    /// whole and posted as one linked WR chain (a single doorbell) if the
    /// QP is up and the head file can take it. Otherwise the records go as
    /// runs of one, each re-staged and re-charged: a run that falls back
    /// pays its copies twice, a modelling artefact kept here so that no
    /// figure moves. Shared mode always posts runs of one — a shared write
    /// cannot post before its FAA reservation returns.
    async fn post(
        &mut self,
        records: &[Record],
        mut acks: impl FnMut(Ack),
    ) -> Result<(), ClientError> {
        if records.len() > 1 && self.mode != ProduceMode::Shared && !self.dead.get() {
            let mut run = std::mem::take(&mut self.chain);
            let posted = async {
                for r in records {
                    run.push(self.stage(r)?);
                }
                self.charge_copies(&run).await;
                self.post_staged(&run, false, &mut acks).await
            }
            .await;
            // Buffers staged but not posted go back to the pool.
            if matches!(posted, Ok(true)) {
                run.clear();
            } else {
                self.stage_pool.borrow_mut().extend(run.drain(..).map(|(buf, _)| buf));
            }
            self.chain = run;
            if posted? {
                return Ok(());
            }
        }
        for record in records {
            let run = [self.stage(record)?];
            self.charge_copies(&run).await;
            self.post_staged(&run, true, &mut acks).await?;
        }
        Ok(())
    }

    /// Posts a staged, charged run at the producer's write position — at an
    /// FAA-reserved one in shared mode. With `retry`, a dead QP is redialled
    /// (or the producer reconnected) and a refused post re-requests the head
    /// file (§4.2.2), up to four attempts; without, either is `Ok(false)`.
    async fn post_staged(
        &mut self,
        run: &[Staged],
        retry: bool,
        acks: &mut impl FnMut(Ack),
    ) -> Result<bool, ClientError> {
        let len = run_len(run) as u32;
        for _ in 0..4 {
            if self.dead.get() {
                if !retry {
                    return Ok(false);
                }
                if self.redial(self.plane.broker).await.is_err() {
                    // The broker itself is gone (crash or failover): full
                    // reconnect through the bootstrap broker.
                    self.reconnect().await?;
                }
            }
            let slot = match self.mode {
                ProduceMode::Shared => self.faa(len, Some(run[0].1.ctx())).await.map(|old| {
                    let word = unpack_shared_word(old);
                    (word.offset, word.order)
                }),
                _ => Some((u64::from(self.write_pos), 0)),
            };
            if let Some(end) = slot.and_then(|(at, order)| self.post_run(run, at, order, acks)) {
                self.write_pos = end as u32;
                return Ok(true);
            }
            if !retry {
                return Ok(false);
            }
            // Out of space (or revoked): wait out our own pipeline, then
            // re-request the head file (§4.2.2).
            self.drain_pending().await;
            match self.acquire_access(len).await {
                Ok(()) => {}
                // Leadership moved (epoch fenced us out) or the broker died
                // under us: re-resolve and redial.
                Err(ClientError::Disconnected)
                | Err(ClientError::Broker(ErrorCode::FencedEpoch))
                | Err(ClientError::Broker(ErrorCode::NotLeader)) => {
                    self.reconnect().await?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::RetriesExhausted)
    }

    /// Fetches-and-adds `len` to the shared order/offset word — it always
    /// succeeds (§4.2.2); overflow shows in the offset — and returns the old
    /// word. `None` without a shared grant or if the QP failed.
    async fn faa(&self, len: u32, trace: Option<kdtelem::TraceCtx>) -> Option<u64> {
        let word = self.grant.shared_word?;
        let local = self.faa_result.as_slice();
        let add = kdwire::slots::shared_word_addend(u64::from(len));
        let faa = WorkRequest::FetchAdd { local, remote_addr: word.addr, rkey: word.rkey, add };
        self.plane.execute(SendWr::new(1, faa).with_trace(trace)).await?.atomic_old
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
    /// current leader, and re-acquires produce access, with the plane's
    /// bounded backoff between attempts.
    pub async fn reconnect(&mut self) -> Result<(), ClientError> {
        with_backoff(async || {
            // Drop the stale data plane first so the (old) broker sees the
            // disconnect and releases any grant still held by this producer.
            self.crash();
            let (leader, ctrl) = self.plane.resolve(&self.topic, self.partition).await?;
            self.redial(leader).await?;
            self.plane.ctrl = ctrl;
            self.acquire_access(0).await
        })
        .await
    }

    /// Dials a fresh data-plane QP to `to` and starts a new ack generation
    /// on it.
    async fn redial(&mut self, to: BrokerAddr) -> Result<(), ClientError> {
        // Waiters the old reader has not failed yet fail now: the QP their
        // writes went out on is gone.
        self.pending.borrow_mut().clear();
        let recv_cq = self.plane.dial(to).await?;
        (self.pending, self.dead) =
            start_ack_reader(&self.plane, recv_cq, self.ack_depth, &self.stage_pool);
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
        self.plane.qp.close();
        self.dead.set(true);
    }

    /// Failure-injection helper (shared mode): reserves `len` bytes through
    /// the FAA word but never writes them — the "hole" of §4.2.2 that the
    /// broker's order timeout must detect and abort.
    pub async fn poison_reservation(&self, len: u32) {
        let _ = self.faa(len, None).await;
    }
}

/// Posts the ack receives of `plane`'s freshly dialled QP — one registered
/// region, a slice per receive — and spawns its reader over a new
/// generation of ack state, which it returns.
fn start_ack_reader(
    plane: &DataPlane,
    recv_cq: CompletionQueue,
    ack_depth: usize,
    stage_pool: &StagePool,
) -> (Pending, Dead) {
    let bufs = ShmBuf::zeroed(ack_depth * ACK_BUF);
    let _ = plane.qp.post_recv_list((0..ack_depth).map(|i| ack_recv(&bufs, i as u64)));
    let (pending, dead) = (Pending::default(), Dead::default());
    let wakeup = plane.node.profile().cpu.wakeup;
    let (qp, pool) = (plane.qp.clone(), Rc::clone(stage_pool));
    let reader = ack_reader(qp, recv_cq, bufs, wakeup, Rc::clone(&pending), pool, Rc::clone(&dead));
    // One of these is parked per connected producer.
    assert!(std::mem::size_of_val(&reader) <= ACK_READER_FRAME);
    sim::spawn_detached(reader);
    (pending, dead)
}

/// The receive of ack buffer `wr_id`: its slice of the connection's region.
fn ack_recv(bufs: &ShmBuf, wr_id: u64) -> RecvWr {
    let buf = Some(bufs.slice(wr_id as usize * ACK_BUF, ACK_BUF));
    RecvWr { wr_id, buf }
}

/// The ack reader of one data-plane QP: blocks on the receive CQ, retires
/// what piled up — acks resolve pending waiters strictly FIFO, as RC
/// ordering matches them to write order — and fails whatever is still
/// pending once the QP breaks.
async fn ack_reader(
    qp: QueuePair,
    recv_cq: CompletionQueue,
    bufs: ShmBuf,
    wakeup: Duration,
    pending: Pending,
    stage_pool: StagePool,
    dead: Dead,
) {
    loop {
        // Blocking-poll wakeup (§5.1 client overheads) when the CQ is dry.
        if recv_cq.is_empty() && !recv_cq.wait(wakeup).await {
            break;
        }
        if !drain_acks(&qp, &recv_cq, &bufs, &pending, &stage_pool) {
            break;
        }
    }
    dead.set(true);
    // Fail anything still pending.
    for (w, _) in pending.borrow_mut().drain(..) {
        let _ = w.send((ErrorCode::Internal, 0));
    }
}

/// Retires one stack-space batch of acks (`ibv_poll_cq` style) and puts the
/// consumed receives back through one chained post. Not part of the reader's
/// future, so a parked reader holds no batch. `false`: the connection broke.
fn drain_acks(
    qp: &QueuePair,
    recv_cq: &rnic::CompletionQueue,
    bufs: &ShmBuf,
    pending: &RefCell<VecDeque<AckWaiter>>,
    stage_pool: &StagePool,
) -> bool {
    let mut batch: kdbuf::ArrayVec<rnic::Cqe, 64> = kdbuf::ArrayVec::new();
    let mut recycle: kdbuf::ArrayVec<u64, 64> = kdbuf::ArrayVec::new();
    recv_cq.poll_batch(&mut batch);
    for cqe in batch.as_slice() {
        if !cqe.ok() || cqe.opcode != CqOpcode::Recv {
            return false;
        }
        // Decode through a stack buffer: the ack path allocates nothing at
        // steady state.
        let n = (cqe.byte_len as usize).min(ACK_BUF);
        let mut payload = [0u8; ACK_BUF];
        bufs.read_into(cqe.wr_id as usize * ACK_BUF, &mut payload[..n]);
        let _ = recycle.push(cqe.wr_id);
        resolve_ack(&payload[..n], pending, stage_pool);
    }
    let _ = qp.post_recv_list(recycle.drain().map(|wr_id| ack_recv(bufs, wr_id)));
    true
}

/// Resolves the waiters one ack answers: the oldest `count` pending writes,
/// the i-th with offset `base_offset + i`; returns how many there were. The
/// count is the peer's word, so the loop ends with the queue, not with the
/// count — an ack for more writes than are in flight answers those that are.
fn resolve_ack(payload: &[u8], pending: &RefCell<VecDeque<AckWaiter>>, pool: &StagePool) -> u32 {
    let (error, base_offset, count) = kdwire::decode_ack(payload);
    for i in 0..count {
        let Some((waiter, staged)) = pending.borrow_mut().pop_front() else {
            return i;
        };
        // The acked write has consumed its staging buffer; recycle it for a
        // future produce.
        pool.borrow_mut().extend(staged);
        let _ = waiter.send((error, base_offset.wrapping_add(u64::from(i))));
    }
    count
}

/// Bytes of a staged run.
fn run_len(run: &[Staged]) -> u64 {
    run.iter().map(|(buf, _)| buf.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;

    use kdbroker::{Broker, BrokerConfig, RdmaToggles};
    use kdstorage::{LogConfig, TopicPartition};
    use netsim::profile::Profile;
    use netsim::Fabric;

    type Acks = Vec<oneshot::Receiver<(ErrorCode, u64)>>;

    /// The scenarios reach the producer's QP and node through its plane.
    impl std::ops::Deref for RdmaProducer {
        type Target = DataPlane;

        fn deref(&self) -> &DataPlane {
            &self.plane
        }
    }

    /// What one scenario left behind.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// `(error, offset, virtual instant)` of every ack, in send order.
        acks: Vec<(ErrorCode, u64, u64)>,
        end_ns: u64,
        /// Instants at which produce WriteImms were posted, one per WR.
        posts: Vec<u64>,
        /// Committed bytes of the first file, and how many files there are.
        log: Vec<u8>,
        files: u32,
    }

    /// Runs `send` against a fresh broker with `segment_size`-byte files and
    /// awaits every ack it returns.
    fn run<F, Fut>(segment_size: u32, send: F) -> Outcome
    where
        F: FnOnce(RdmaProducer) -> Fut + 'static,
        Fut: Future<Output = (RdmaProducer, Acks)>,
    {
        let registry = kdtelem::Registry::new();
        let _scope = kdtelem::enter(&registry);
        let (acks, end_ns, log, files) = sim::Runtime::new().block_on(async move {
            let fabric = Fabric::new(Profile::testbed());
            let (bnode, cnode) = (fabric.add_node("broker"), fabric.add_node("client"));
            let log = LogConfig {
                segment_size,
                max_batch_size: segment_size / 2,
            };
            let config = BrokerConfig::kafkadirect(RdmaToggles::all()).with_log(log);
            let addr = BrokerAddr {
                node: bnode.id.0,
                port: config.tcp_port,
                rdma_port: config.rdma_port,
            };
            let broker = Broker::start(&bnode, config, vec![addr]);
            let admin = crate::Admin::connect(&cnode, addr).await.unwrap();
            admin.create_topic("t", 1, 1).await.unwrap();
            let producer = RdmaProducer::connect(&cnode, addr, "t", 0, false)
                .await
                .unwrap();
            let (producer, rxs) = send(producer).await;
            let mut acks = Vec::new();
            for rx in rxs {
                let (error, offset) = rx.await.expect("every waiter is answered");
                acks.push((error, offset, sim::now().as_nanos()));
            }
            // Nothing is left waiting, staged or half-posted; acked writes
            // gave their staging buffers back.
            assert!(producer.pending.borrow().is_empty());
            assert!(producer.chain.is_empty());
            assert!(!producer.stage_pool.borrow().is_empty());
            let p = broker
                .inner()
                .store
                .get(&TopicPartition::new("t", 0))
                .unwrap();
            let first = p.log.segment(0).unwrap();
            let log = first.read(0, first.committed_pos());
            (acks, sim::now().as_nanos(), log, p.log.head_index() + 1)
        });
        let events = registry.drain_trace_events();
        let produces: Vec<u64> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    kdtelem::EventKind::SpanBegin {
                        name: "client.produce",
                        ..
                    }
                )
            })
            .map(|e| e.trace_id)
            .collect();
        let posts = events
            .iter()
            .filter(|e| matches!(e.kind, kdtelem::EventKind::WqePosted { .. }))
            .filter(|e| produces.contains(&e.trace_id))
            .map(|e| e.ts_ns)
            .collect();
        Outcome {
            acks,
            end_ns,
            posts,
            log,
            files,
        }
    }

    /// The acked offsets; every ack must be a success.
    fn offsets(o: &Outcome) -> Vec<u64> {
        let ok = |&(error, offset, _): &(ErrorCode, u64, u64)| {
            assert_eq!(error, ErrorCode::None);
            offset
        };
        o.acks.iter().map(ok).collect()
    }

    fn records(n: u8, len: usize) -> Vec<Record> {
        (0..n).map(|i| Record::value(vec![i; len])).collect()
    }

    async fn singles(mut p: RdmaProducer, records: Vec<Record>) -> (RdmaProducer, Acks) {
        let mut acks = Vec::new();
        for r in &records {
            acks.push(p.send_pipelined(r).await.unwrap());
        }
        (p, acks)
    }

    /// One `send_pipelined_chain` call per element of `runs`.
    async fn chains(mut p: RdmaProducer, runs: Vec<Vec<Record>>) -> (RdmaProducer, Acks) {
        let mut acks = Vec::new();
        for run in &runs {
            p.send_pipelined_chain(run, &mut acks).await.unwrap();
        }
        (p, acks)
    }

    /// Ack bytes are the peer's. A seeded loop feeds the reader's decode
    /// valid acks and mutations of them — flipped bits, every length, the
    /// largest count, noise — with zero to five writes in flight. Whatever
    /// arrives, the oldest waiters get one typed answer each, nobody else
    /// gets any, and the work is bounded by the writes in flight, not by the
    /// count on the wire (a loop over a count of `u32::MAX` would not finish
    /// one of these rounds).
    #[test]
    fn hostile_ack_bytes_resolve_only_what_is_in_flight() {
        let mut rng = sim::rng::SimRng::seed_from_u64(0xacc);
        let pending = RefCell::new(VecDeque::new());
        let pool: StagePool = Rc::new(RefCell::new(Vec::new()));
        for round in 0..20_000 {
            let in_flight = rng.below(6) as u32;
            let mut rxs = Vec::new();
            for _ in 0..in_flight {
                let (tx, rx) = oneshot::channel();
                pending.borrow_mut().push_back((tx, Some(ShmBuf::zeroed(1))));
                rxs.push(rx);
            }
            let mut wire = [0u8; ACK_BUF];
            kdwire::encode_ack(ErrorCode::None, rng.next_u64(), rng.below(8) as u32, &mut wire);
            let mut len = kdwire::ACK_SIZE;
            match rng.below(5) {
                0 => {}
                1 => (0..=rng.below(4)).for_each(|_| wire[rng.below(16) as usize] ^= 1 << rng.below(8)),
                2 => len = rng.below(ACK_BUF as u64 + 1) as usize,
                3 => wire[9..13].fill(0xff),
                _ => rng.fill(&mut wire),
            }
            let (error, base_offset, count) = kdwire::decode_ack(&wire[..len]);
            let resolved = resolve_ack(&wire[..len], &pending, &pool);
            assert_eq!(resolved, count.min(in_flight), "round {round}: {:?}", &wire[..len]);
            for (i, rx) in rxs.iter_mut().enumerate() {
                let answer = (i < resolved as usize).then(|| (error, base_offset.wrapping_add(i as u64)));
                assert_eq!(rx.try_recv().map(|got| got.ok()), answer.map(Some), "round {round}");
            }
            assert_eq!(pending.borrow().len() as u32, in_flight - resolved);
            assert_eq!(pool.borrow().len() as u32, resolved, "acked writes return their buffers");
            pending.borrow_mut().clear();
            pool.borrow_mut().clear();
        }
    }

    #[test]
    fn a_chain_of_one_is_send_pipelined() {
        let one_by_one = run(1 << 20, |p| singles(p, records(3, 200)));
        let chained = run(1 << 20, |p| {
            chains(p, records(3, 200).into_iter().map(|r| vec![r]).collect())
        });
        assert_eq!(chained, one_by_one);
        assert_eq!(chained.posts.len(), 3);
    }

    #[test]
    fn a_run_of_k_commits_what_k_singles_commit_on_one_doorbell() {
        let one_by_one = run(1 << 20, |p| singles(p, records(6, 200)));
        let chained = run(1 << 20, |p| chains(p, vec![records(6, 200)]));
        assert_eq!(offsets(&chained), (0..6).collect::<Vec<_>>());
        assert_eq!(offsets(&one_by_one), offsets(&chained));
        assert_eq!(chained.log, one_by_one.log);
        // Six WRs either way; the chain posts them in one call.
        assert_eq!((one_by_one.posts.len(), chained.posts.len()), (6, 6));
        assert!(chained.posts.iter().all(|&t| t == chained.posts[0]));
        assert!(one_by_one.posts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_run_the_head_file_cannot_take_falls_back_and_rolls() {
        // Ten ~570-byte batches into 4 KiB files: the run does not fit, so it
        // is sent record by record, which rolls where it has to; the next
        // run fits the fresh head file and posts whole.
        let chained = run(4096, |p| chains(p, vec![records(10, 500), records(3, 500)]));
        let one_by_one = run(4096, |p| singles(p, records(10, 500)));
        assert_eq!(offsets(&chained), (0..13).collect::<Vec<_>>());
        assert!(chained.files >= 2);
        assert_eq!(chained.log, one_by_one.log);
        assert_eq!(chained.posts.len(), 13);
        assert!(chained.posts[10..].iter().all(|&t| t == chained.posts[10]));
    }

    /// Each QP generation has its own ack state. `crash` closes the QP
    /// under a parked ack reader, which the flush wakes only a `wakeup`
    /// later; `reconnect` starts right away. Whenever the old reader runs,
    /// it may fail only its own waiters and mark only its own QP dead: the
    /// sends that follow go out on the new QP and are answered `Ok`.
    #[test]
    fn a_reconnect_under_a_parked_ack_reader_sends_ok() {
        let outcome = run(1 << 20, |mut p| async move {
            let records = records(3, 64);
            let first = p.send(&records[0]).await.unwrap();
            p.crash();
            p.reconnect().await.unwrap();
            assert_eq!(p.send(&records[1]).await, Ok(first + 1));
            assert_eq!(p.send(&records[2]).await, Ok(first + 2));
            (p, Vec::new())
        });
        assert_eq!(outcome.posts.len(), 3);
    }

    #[test]
    fn a_failed_post_leaves_no_waiter_and_no_staged_buffer_behind() {
        // The QP breaks at the instant the run's copies are done, before the
        // ack reader has noticed: the post itself is refused. The run goes
        // out record by record over a fresh QP instead; the broker revokes
        // the broken session's grant, so those acks may be errors — but each
        // record has exactly one waiter (`run` awaits them all and finds
        // nothing pending or staged), and acks still pair up with writes
        // afterwards.
        let outcome = run(1 << 20, |mut p| async move {
            let records = records(4, 200);
            let staged: u64 = records
                .iter()
                .map(|r| kdstorage::record::single_record_batch(1, r).len() as u64)
                .sum();
            let cpu = p.node.profile().cpu.clone();
            let copies = cpu.producer_copy_base * 4 + copy_time(staged, cpu.memcpy_bandwidth);
            let qp = p.qp.clone();
            sim::spawn(async move {
                sim::time::sleep(copies).await;
                qp.close();
            });
            let mut acks = Vec::new();
            p.send_pipelined_chain(&records, &mut acks).await.unwrap();
            assert_eq!(acks.len(), 4);
            // An error ack is the caller's cue to reconnect.
            p.reconnect().await.unwrap();
            let next = p.send(&records[0]).await.unwrap();
            assert_eq!(p.send(&records[1]).await, Ok(next + 1));
            (p, acks)
        });
        assert!(
            outcome.posts.len() <= 4 + 2,
            "the refused post put nothing on the wire"
        );
    }
}
