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
//! A window-1 [`send`](RdmaProducer::send) reads its own ack off the receive
//! CQ; the first pipelined post of a QP generation spawns that generation's
//! ack reader, which answers each write through a channel from then on.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use kdstorage::record::{single_record_batch_len, BatchBuilder};
use kdstorage::Record;
use kdwire::messages::{ProduceMode, Request, Response};
use kdwire::{unpack_shared_word, BrokerAddr, ErrorCode, ProduceAccessResp};
use netsim::profile::copy_time;
use rnic::{BufSlice, CompletionQueue, CqOpcode, QueuePair, RecvWr, SendWr, ShmBuf, WorkRequest};
use sim::sync::oneshot;
use sim::InlineDeque;

use crate::data_plane::{recover, Broke, DataPlane, Port, Rejoin};
use crate::error::{check, ClientError};

const ACK_BUF: usize = 16;
/// Default ack receive depth; fan-in sweeps shrink it through
/// [`RdmaProducer::connect_with_ack_depth`], as each pre-posted ack buffer
/// costs real host memory per client.
const ACK_DEPTH: usize = 512;
/// Bound on the ack reader's task frame, in bytes.
const ACK_READER_FRAME: usize = 256;

/// A pending produce ack: the waiter — a pipelined write's channel, or none
/// for a window-1 send's — plus the staging buffer to recycle once the write
/// is acknowledged (acks arrive strictly in write order, so by then the
/// WriteImm has long since consumed the bytes).
type AckWaiter = (Option<AckSender>, Option<ShmBuf>);
type AckSender = oneshot::Sender<(ErrorCode, u64)>;
/// The receiving end of one record's ack.
type Ack = oneshot::Receiver<(ErrorCode, u64)>;

/// One QP generation's state, in one block shared by the producer and the
/// generation's ack reader, if it has one. Each dial starts a new one, so the
/// reader of a closed QP can neither fail the waiters of the QP that
/// replaced it nor mark that QP dead.
struct Generation {
    /// The waiters of the writes in flight, in write order.
    pending: RefCell<InlineDeque<AckWaiter>>,
    /// Set once the acks' reader — the spawned one, or the producer itself —
    /// saw the QP break, or the producer crashed it.
    dead: Cell<bool>,
    /// Whether a pipelined post has spawned this generation's ack reader.
    reader: Cell<bool>,
    /// The latest answer to a write with no channel: a window-1 send's.
    answer: Cell<(ErrorCode, u64)>,
    /// Free staging buffers: an acked write returns its buffer here (see
    /// [`RdmaProducer::stage`]); a redial hands them to the next generation.
    /// Last in, first out.
    stage_pool: RefCell<InlineDeque<ShmBuf>>,
    /// The ack receives' region, a slice of `ACK_BUF` bytes per receive, and
    /// behind them the 8-byte word FAA results land in.
    bufs: ShmBuf,
}

impl Generation {
    fn new(ack_depth: usize) -> Generation {
        Generation {
            pending: RefCell::default(),
            dead: Cell::new(false),
            reader: Cell::new(false),
            answer: Cell::default(),
            stage_pool: RefCell::default(),
            bufs: ShmBuf::zeroed(ack_depth * ACK_BUF + 8),
        }
    }

    /// A new generation on a freshly dialled QP, its ack receives posted:
    /// one registered region, a slice per receive.
    fn start(qp: &QueuePair, ack_depth: usize) -> Rc<Generation> {
        let gen = Rc::new(Generation::new(ack_depth));
        let _ = qp.post_recv_list((0..ack_depth).map(|i| gen.ack_recv(i as u64)));
        gen
    }

    /// Hands a write its answer: through its channel, or into `answer`.
    fn reply(&self, waiter: Option<AckSender>, answer: (ErrorCode, u64)) {
        match waiter {
            Some(tx) => drop(tx.send(answer)),
            None => self.answer.set(answer),
        }
    }

    /// The QP broke: the generation is dead, and what is still pending fails.
    fn fail(&self) {
        self.dead.set(true);
        let mut pending = self.pending.borrow_mut();
        while let Some((w, _)) = pending.pop_front() {
            self.reply(w, (ErrorCode::Internal, 0));
        }
    }

    /// The receive of ack buffer `wr_id`: its slice of the region.
    fn ack_recv(&self, wr_id: u64) -> RecvWr {
        let buf = Some(self.bufs.slice(wr_id as usize * ACK_BUF, ACK_BUF));
        RecvWr { wr_id, buf }
    }

    /// Where an FAA writes the word it read: the region's last 8 bytes.
    fn faa_result(&self) -> BufSlice {
        self.bufs.slice(self.bufs.len() - 8, 8)
    }
}

/// A record ready to post: its encoded batch in a staging buffer and the
/// span rooting its lifeline.
type Staged = (ShmBuf, kdtelem::TraceSpan);

/// The RDMA producer.
pub struct RdmaProducer {
    plane: DataPlane,
    /// The produce-access request (§4.2.2), kept to be sent again: it holds
    /// the topic. [`acquire_access`](Self::acquire_access) sets its
    /// `min_bytes`.
    access: Request,
    mode: ProduceMode,
    grant: ProduceAccessResp,
    /// Exclusive mode: next write position (producer-tracked). Shared mode
    /// never reads it.
    write_pos: u32,
    /// The current QP generation, and its QP's receive CQ.
    gen: Rc<Generation>,
    recv_cq: CompletionQueue,
    /// Recycled ack channels of pipelined writes, made at the first: a
    /// record's cell comes back once its waiter has answered and the caller
    /// has dropped its [`Ack`].
    ack_cells: OnceCell<oneshot::Pool<(ErrorCode, u64)>>,
    producer_id: u64,
    /// Staging scratch of runs of n > 1, recycled so posting one allocates
    /// nothing.
    chain: Vec<Staged>,
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
        let mode = if shared {
            ProduceMode::Shared
        } else {
            ProduceMode::Exclusive
        };
        let (plane, recv_cq) = DataPlane::open(node, broker, Port::produce(ack_depth)).await?;
        let gen = Generation::start(&plane.qp, ack_depth);
        let telem = kdtelem::current();
        let e2e_ns = telem.histogram("kdclient", "produce.e2e_ns");
        let producer_id = sim::rng::range_u64(1..u64::MAX);
        let mut producer = RdmaProducer {
            plane,
            access: Request::ProduceAccess {
                topic: topic.to_string(),
                partition,
                mode,
                min_bytes: 0,
            },
            mode,
            grant: ProduceAccessResp::default(),
            write_pos: 0,
            gen,
            recv_cq,
            ack_cells: OnceCell::new(),
            producer_id,
            chain: Vec::new(),
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
        if let Request::ProduceAccess { min_bytes: m, .. } = &mut self.access {
            *m = min_bytes;
        }
        let Response::ProduceAccess(grant) = self.plane.ctrl.call(&self.access).await? else {
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
    /// buffers are recycled through the generation's pool as acks retire
    /// them, so the steady-state produce path allocates nothing here; a new
    /// one is allocated at the size of its batch. The copy is charged by
    /// [`charge_copies`](Self::charge_copies).
    fn stage(&mut self, record: &Record) -> Result<Staged, ClientError> {
        let span = self.telem.trace_span("client.produce", None);
        let pooled = self.gen.stage_pool.borrow_mut().pop_back();
        let staged = pooled.unwrap_or_else(|| {
            ShmBuf::from_vec(Vec::with_capacity(single_record_batch_len(record)))
        });
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
    /// the post. With `acks`, a pipelined post, each record's ack receiver
    /// goes there, in record order; without, the writes are a window-1
    /// send's, whose ack [`own_ack`](Self::own_ack) reads. Returns the file
    /// position after the run.
    fn post_run(
        &self,
        run: &[Staged],
        at: u64,
        order: u16,
        mut acks: Option<&mut (dyn FnMut(Ack) + '_)>,
    ) -> Option<u64> {
        let end = at + run_len(run);
        if end > self.grant.region.len {
            return None;
        }
        let mut pos = at;
        let (rkey, imm) = (
            self.grant.region.rkey,
            kdwire::pack_imm(self.grant.file_id, order),
        );
        let wrs = run.iter().map(|(buf, span)| {
            let remote_addr = self.grant.region.addr + pos;
            pos += buf.len() as u64;
            let write = WorkRequest::WriteImm {
                local: buf.as_slice(),
                remote_addr,
                rkey,
                imm,
            };
            SendWr::unsignaled(0, write).with_trace(Some(span.ctx()))
        });
        self.plane.qp.post_send_list(wrs).ok()?;
        if acks.is_some() {
            self.spawn_reader();
        }
        // Acks arrive in write order: one waiter per record, holding the
        // staging buffer its write reads from.
        let mut pending = self.gen.pending.borrow_mut();
        for (buf, _) in run {
            let tx = acks.as_deref_mut().map(|acks| {
                let (tx, rx) = self.ack_cells.get_or_init(oneshot::Pool::new).channel();
                acks(rx);
                tx
            });
            pending.push_back((tx, Some(buf.clone())));
        }
        Some(end)
    }

    /// Spawns the current generation's ack reader, unless it has one.
    fn spawn_reader(&self) {
        if self.gen.reader.replace(true) {
            return;
        }
        let wakeup = self.plane.node.profile().cpu.wakeup;
        let (qp, recv_cq) = (self.plane.qp.clone(), self.recv_cq.clone());
        let reader = ack_reader(qp, recv_cq, wakeup, Rc::clone(&self.gen));
        // One of these is parked per producer that pipelines.
        assert!(std::mem::size_of_val(&reader) <= ACK_READER_FRAME);
        sim::spawn_detached(reader);
    }

    /// Whether the current QP generation is up, as its ack reader knows it
    /// by now. With no reader, the producer reads the receive CQ itself: the
    /// acks it holds are retired, and a flushed receive is the QP's death.
    fn alive(&self) -> bool {
        while !self.gen.reader.get() && !self.gen.dead.get() && !self.recv_cq.is_empty() {
            if !drain_acks(&self.plane.qp, &self.recv_cq, &self.gen) {
                self.gen.fail();
            }
        }
        !self.gen.dead.get()
    }

    /// A window-1 send's ack, read off the receive CQ by the sender: it
    /// wakes `charge` after the ack surfaced, on the CQ's one timer, and
    /// retires what the CQ holds — an ack left by a send given up on first.
    /// A dead QP fails the send.
    async fn own_ack(&self, charge: Duration) -> (ErrorCode, u64) {
        loop {
            let alive = self.alive();
            if self.gen.pending.borrow().is_empty() {
                return self.gen.answer.get();
            }
            if !alive || !self.recv_cq.wait(charge).await {
                self.gen.fail();
            }
        }
    }

    /// Produces one record, waiting for the broker acknowledgment; returns
    /// the assigned base offset. The ack's wake pays the reader's blocking-
    /// poll wake-up and the dispatch chain — API→net handoff on send + CQ
    /// poller→API handoff + wakeup on the ack (§5.1's client-side
    /// overheads): with no reader, as one charged wait on the receive CQ;
    /// behind a reader, as a charged receive of the channel it answers.
    pub async fn send(&mut self, record: &Record) -> Result<u64, ClientError> {
        let start = sim::now();
        let cpu = &self.plane.node.profile().cpu;
        let (wakeup, chain) = (cpu.wakeup, cpu.handoff + cpu.handoff + cpu.wakeup);
        let (error, offset) = if self.gen.reader.get() {
            let ack = self.send_pipelined(record).await?.charged(chain);
            ack.await.map_err(|_| ClientError::Disconnected)?
        } else {
            self.post(std::slice::from_ref(record), None).await?;
            self.own_ack(wakeup + chain).await
        };
        self.e2e_ns.record_since(start);
        check(error)?;
        Ok(offset)
    }

    /// Posts one produce — a run of one — and returns a future resolving
    /// with its ack: the pipelined path of the bandwidth experiments.
    pub async fn send_pipelined(&mut self, record: &Record) -> Result<Ack, ClientError> {
        let mut ack = None;
        let record = std::slice::from_ref(record);
        self.post(record, Some(&mut |rx| ack = Some(rx))).await?;
        ack.ok_or(ClientError::Protocol)
    }

    /// Posts a run of records (see `post`); ack receivers are
    /// appended to `out` in record order.
    pub async fn send_pipelined_chain(
        &mut self,
        records: &[Record],
        out: &mut Vec<Ack>,
    ) -> Result<(), ClientError> {
        self.post(records, Some(&mut |rx| out.push(rx))).await
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
        mut acks: Option<&mut (dyn FnMut(Ack) + '_)>,
    ) -> Result<(), ClientError> {
        if records.len() > 1 && self.mode != ProduceMode::Shared && self.alive() {
            let mut run = std::mem::take(&mut self.chain);
            let posted: Result<_, ClientError> = async {
                for r in records {
                    run.push(self.stage(r)?);
                }
                self.charge_copies(&run).await;
                Ok(self.post_run(&run, self.write_pos.into(), 0, acks.as_deref_mut()))
            }
            .await;
            // Buffers staged but not posted go back to the pool.
            if matches!(posted, Ok(Some(_))) {
                run.clear();
            } else {
                self.gen
                    .stage_pool
                    .borrow_mut()
                    .extend(run.drain(..).map(|(buf, _)| buf));
            }
            self.chain = run;
            if let Some(end) = posted? {
                self.write_pos = end as u32;
                return Ok(());
            }
        }
        for record in records {
            let run = [self.stage(record)?];
            self.charge_copies(&run).await;
            self.post_staged(&run, acks.as_deref_mut()).await?;
        }
        Ok(())
    }

    /// Posts a staged, charged run at the producer's write position — at an
    /// FAA-reserved one in shared mode. A dead QP, and a failed re-request of
    /// the head file after a refused post (§4.2.2), go through the data
    /// plane's recovery; four attempts. The recovery future is boxed, and
    /// only when taken: a healthy QP never needs it, and inline it would
    /// widen the frame of every task that sends.
    async fn post_staged(
        &mut self,
        run: &[Staged],
        mut acks: Option<&mut (dyn FnMut(Ack) + '_)>,
    ) -> Result<(), ClientError> {
        let len = run_len(run) as u32;
        for _ in 0..4 {
            if !self.alive() {
                Box::pin(recover(self, Broke::Qp)).await?;
            }
            let slot = match self.mode {
                ProduceMode::Shared => self.faa(len, Some(run[0].1.ctx())).await.map(|old| {
                    let word = unpack_shared_word(old);
                    (word.offset, word.order)
                }),
                _ => Some((u64::from(self.write_pos), 0)),
            };
            let acks = acks.as_deref_mut();
            if let Some(end) = slot.and_then(|(at, order)| self.post_run(run, at, order, acks)) {
                self.write_pos = end as u32;
                return Ok(());
            }
            // Out of space (or revoked): wait out our own pipeline, then
            // re-request the head file (§4.2.2).
            self.drain_pending().await;
            if let Err(e) = self.acquire_access(len).await {
                Box::pin(recover(self, Broke::Call(e))).await?;
            }
        }
        Err(ClientError::RetriesExhausted)
    }

    /// Fetches-and-adds `len` to the shared order/offset word — it always
    /// succeeds (§4.2.2); overflow shows in the offset — and returns the old
    /// word. `None` without a shared grant or if the QP failed.
    async fn faa(&self, len: u32, trace: Option<kdtelem::TraceCtx>) -> Option<u64> {
        let word = self.grant.shared_word?;
        let local = self.gen.faa_result();
        let add = kdwire::slots::shared_word_addend(u64::from(len));
        let faa = WorkRequest::FetchAdd {
            local,
            remote_addr: word.addr,
            rkey: word.rkey,
            add,
        };
        let wr = SendWr::new(1, faa).with_trace(trace);
        self.plane.execute(wr, Duration::ZERO).await?.atomic_old
    }

    /// Waits until every in-flight produce is acknowledged (used before
    /// re-requesting access so error acks don't interleave with new writes):
    /// behind a reader, by looking every microsecond; without, on the
    /// receive CQ, waking when the reader would have.
    pub async fn drain_pending(&self) {
        let wakeup = self.plane.node.profile().cpu.wakeup;
        while !self.gen.pending.borrow().is_empty() && self.alive() {
            if self.gen.reader.get() {
                sim::time::yield_now().await;
                sim::time::sleep(Duration::from_micros(1)).await;
            } else if !self.recv_cq.wait(wakeup).await {
                self.gen.fail();
            }
        }
    }

    /// Full reconnect after a broker crash or epoch-fenced failover: the data
    /// plane's recovery from a lost control connection (`recover`).
    pub async fn reconnect(&mut self) -> Result<(), ClientError> {
        recover(self, Broke::Call(ClientError::Disconnected)).await
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
        self.gen.dead.set(true);
    }

    /// Failure-injection helper (shared mode): reserves `len` bytes through
    /// the FAA word but never writes them — the "hole" of §4.2.2 that the
    /// broker's order timeout must detect and abort.
    pub async fn poison_reservation(&self, len: u32) {
        let _ = self.faa(len, None).await;
    }
}

impl Rejoin for RdmaProducer {
    fn parts(&mut self) -> (&mut DataPlane, &str, u32) {
        let Request::ProduceAccess {
            topic, partition, ..
        } = &self.access
        else {
            unreachable!("the access request is a produce-access request")
        };
        (&mut self.plane, topic, *partition)
    }

    /// Before the dial, waiters the old reader has not failed yet fail; the
    /// new QP's generation takes over the free staging buffers. An exclusive
    /// grant died with the old QP (the broker revokes it at the disconnect),
    /// so it is dropped: the next post is refused and re-requests the head
    /// file (§4.2.2), unless a rejoin has requested it first. A shared grant
    /// is the partition's, not the QP's, and stays.
    fn replug(&mut self, recv_cq: Option<CompletionQueue>) {
        match recv_cq {
            None => self.gen.pending.borrow_mut().clear(),
            Some(recv_cq) => {
                let gen = Generation::start(&self.plane.qp, self.ack_depth);
                gen.stage_pool.swap(&self.gen.stage_pool);
                (self.gen, self.recv_cq) = (gen, recv_cq);
                if self.mode == ProduceMode::Exclusive {
                    self.grant = ProduceAccessResp::default();
                }
            }
        }
    }

    async fn rejoin(&mut self) -> Result<(), ClientError> {
        self.acquire_access(0).await
    }
}

/// The ack reader of one data-plane QP: blocks on the receive CQ, retires
/// what piled up — acks resolve pending waiters strictly FIFO, as RC
/// ordering matches them to write order — and fails whatever is still
/// pending once the QP breaks.
async fn ack_reader(
    qp: QueuePair,
    recv_cq: CompletionQueue,
    wakeup: Duration,
    gen: Rc<Generation>,
) {
    loop {
        // Blocking-poll wakeup (§5.1 client overheads) when the CQ is dry.
        if recv_cq.is_empty() && !recv_cq.wait(wakeup).await {
            break;
        }
        if !drain_acks(&qp, &recv_cq, &gen) {
            break;
        }
    }
    gen.fail();
}

/// Retires one stack-space batch of acks (`ibv_poll_cq` style) and puts the
/// consumed receives back through one chained post. Not part of the reader's
/// future, so a parked reader holds no batch. `false`: the connection broke.
fn drain_acks(qp: &QueuePair, recv_cq: &rnic::CompletionQueue, gen: &Generation) -> bool {
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
        gen.bufs
            .read_into(cqe.wr_id as usize * ACK_BUF, &mut payload[..n]);
        let _ = recycle.push(cqe.wr_id);
        resolve_ack(&payload[..n], gen);
    }
    let _ = qp.post_recv_list(recycle.drain().map(|wr_id| gen.ack_recv(wr_id)));
    true
}

/// Resolves the waiters one ack answers: the oldest `count` pending writes,
/// the i-th with offset `base_offset + i`; returns how many there were. The
/// count is the peer's word, so the loop ends with the queue, not with the
/// count — an ack for more writes than are in flight answers those that are.
fn resolve_ack(payload: &[u8], gen: &Generation) -> u32 {
    let (error, base_offset, count) = kdwire::decode_ack(payload);
    for i in 0..count {
        let Some((waiter, staged)) = gen.pending.borrow_mut().pop_front() else {
            return i;
        };
        // The acked write has consumed its staging buffer; recycle it for a
        // future produce.
        gen.stage_pool.borrow_mut().extend(staged);
        gen.reply(waiter, (error, base_offset.wrapping_add(u64::from(i))));
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
            let config = BrokerConfig {
                log,
                ..BrokerConfig::kafkadirect(RdmaToggles::all())
            };
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
            assert!(producer.gen.pending.borrow().is_empty());
            assert!(producer.chain.is_empty());
            assert!(!producer.gen.stage_pool.borrow().is_empty());
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
        let gen = Generation::new(1);
        let (pending, pool) = (&gen.pending, &gen.stage_pool);
        for round in 0..20_000 {
            let in_flight = rng.below(6) as u32;
            let mut rxs = Vec::new();
            for _ in 0..in_flight {
                let (tx, rx) = oneshot::channel();
                pending
                    .borrow_mut()
                    .push_back((Some(tx), Some(ShmBuf::zeroed(1))));
                rxs.push(rx);
            }
            let mut wire = [0u8; ACK_BUF];
            kdwire::encode_ack(
                ErrorCode::None,
                rng.next_u64(),
                rng.below(8) as u32,
                &mut wire,
            );
            let mut len = kdwire::ACK_SIZE;
            match rng.below(5) {
                0 => {}
                1 => (0..=rng.below(4))
                    .for_each(|_| wire[rng.below(16) as usize] ^= 1 << rng.below(8)),
                2 => len = rng.below(ACK_BUF as u64 + 1) as usize,
                3 => wire[9..13].fill(0xff),
                _ => rng.fill(&mut wire),
            }
            let (error, base_offset, count) = kdwire::decode_ack(&wire[..len]);
            let resolved = resolve_ack(&wire[..len], &gen);
            assert_eq!(
                resolved,
                count.min(in_flight),
                "round {round}: {:?}",
                &wire[..len]
            );
            for (i, rx) in rxs.iter_mut().enumerate() {
                let answer =
                    (i < resolved as usize).then(|| (error, base_offset.wrapping_add(i as u64)));
                assert_eq!(
                    rx.try_recv().map(|got| got.ok()),
                    answer.map(Some),
                    "round {round}"
                );
            }
            assert_eq!(pending.borrow().len() as u32, in_flight - resolved);
            assert_eq!(
                pool.borrow().len() as u32,
                resolved,
                "acked writes return their buffers"
            );
            pending.borrow_mut().clear();
            pool.borrow_mut().clear();
        }
    }

    /// The futures a sending task awaits, measured plus under 5 %. kdmark's
    /// fan-in client task is built from the first two and sits about 4 KiB
    /// under the executor's 16 KiB arena class: if they grew by a third,
    /// every such client would take a 32 KiB block.
    #[test]
    fn send_path_frames_stay_small() {
        const CONNECT: usize = 1_160; // measured 1 112
        const SEND: usize = 1_000; // measured 960
        const CALL: usize = 528; // measured 504
        fn fits<F: Future>(what: &str, future: F, bound: usize) {
            let bytes = std::mem::size_of_val(&future);
            assert!(
                bytes <= bound,
                "{what}: a {bytes} B future, bound {bound} B"
            );
        }
        run(1 << 20, |mut p| async move {
            let record = Record::value(vec![1; 8]);
            p.send(&record).await.unwrap();
            let (node, broker) = (p.node.clone(), p.broker);
            let connect = RdmaProducer::connect_with_ack_depth(&node, broker, "t", 0, true, 1);
            fits("connect_with_ack_depth", connect, CONNECT);
            let request = Request::Metadata { topics: Vec::new() };
            fits("Conn::call", p.ctrl.call(&request), CALL);
            fits("send", p.send(&record), SEND);
            (p, Vec::new())
        });
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
    /// under a parked ack reader (the first write is pipelined, so there is
    /// one), which the flush wakes only a `wakeup` later; `reconnect` starts
    /// right away. Whenever the old reader runs, it may fail only its own
    /// waiters and mark only its own QP dead: the sends that follow go out
    /// on the new QP, which has no reader, and are answered `Ok`.
    #[test]
    fn a_reconnect_under_a_parked_ack_reader_sends_ok() {
        let outcome = run(1 << 20, |mut p| async move {
            let records = records(3, 64);
            let ack = p.send_pipelined(&records[0]).await.unwrap();
            let first = ack.await.unwrap().1;
            assert!(p.gen.reader.get());
            p.crash();
            p.reconnect().await.unwrap();
            assert_eq!(p.send(&records[1]).await, Ok(first + 1));
            assert_eq!(p.send(&records[2]).await, Ok(first + 2));
            (p, Vec::new())
        });
        assert_eq!(outcome.posts.len(), 3);
    }

    /// A window-1 producer reads its own acks. Counted by spawn site over
    /// five sends, the tasks of this file are the sending one alone, woken
    /// twice a send (its copy charge, its ack); behind a reader, spawned by
    /// a pipelined write first, the reader adds one wake per ack. Each send
    /// takes as long either way: the CQ arms the sender for the instant the
    /// reader's wake plus the charged channel did.
    #[test]
    fn a_window_1_producer_spawns_no_task_and_wakes_once_per_ack() {
        const SENDS: u64 = 5;
        let sends = |pipeline_first: bool| {
            let seen = Rc::new(RefCell::new((Vec::new(), Vec::new())));
            let out = Rc::clone(&seen);
            run(1 << 20, move |mut p| async move {
                let first = Record::value(vec![9; 64]);
                if pipeline_first {
                    p.send_pipelined(&first).await.unwrap().await.unwrap();
                } else {
                    p.send(&first).await.unwrap();
                }
                sim::count_polls_by_site();
                let mut times = Vec::new();
                for (i, r) in records(SENDS as u8, 64).iter().enumerate() {
                    let start = sim::now();
                    assert_eq!(p.send(r).await, Ok(1 + i as u64));
                    times.push(sim::now() - start);
                }
                let ours = sim::take_polls_by_site().into_iter();
                let ours = ours.filter(|(site, _)| site.file() == file!());
                *out.borrow_mut() = (times, ours.map(|(_, n)| n).collect());
                (p, Vec::new())
            });
            seen.take()
        };
        let (own, read) = (sends(false), sends(true));
        assert_eq!(own.1, [2 * SENDS], "the sending task alone");
        assert_eq!(read.1, [2 * SENDS, SENDS], "the sender and the reader");
        assert_eq!(own.0, read.0);
    }

    /// A send given up on mid-wait (a timeout drops it) leaves its write in
    /// flight. The next send retires the stale ack before its own and takes
    /// no longer for it, whether that ack is queued before the send starts
    /// or, 64 KiB records apart, surfaces after its post and wakes it once
    /// before its own ack surfaces; it re-posts the stale ack's receive,
    /// without which, with one ack buffer, the sends after it would stall.
    #[test]
    fn a_send_given_up_on_leaves_the_next_send_correct() {
        run(1 << 20, |p| async move {
            let (node, broker) = (p.node.clone(), p.broker);
            drop(p); // its exclusive grant goes with its QP
            sim::time::sleep(Duration::from_millis(1)).await;
            let mut one = RdmaProducer::connect_with_ack_depth(&node, broker, "t", 0, false, 1)
                .await
                .unwrap();
            let records = records(6, 64 << 10);
            let start = sim::now();
            assert_eq!(one.send(&records[0]).await, Ok(0));
            let rtt = sim::now() - start;
            for (i, gap) in [Duration::ZERO, rtt * 2].into_iter().enumerate() {
                let given_up = sim::time::timeout(rtt / 2, one.send(&records[1 + 2 * i])).await;
                assert!(given_up.is_err(), "the send was dropped in flight");
                sim::time::sleep(gap).await;
                let queued = !one.recv_cq.is_empty();
                assert_eq!(queued, !gap.is_zero(), "the stale ack is queued");
                let start = sim::now();
                let next = one.send(&records[2 + 2 * i]).await;
                let stale = 1 + 2 * i as u64;
                assert_eq!(next, Ok(stale + 1), "the stale write has the offset before");
                assert_eq!(sim::now() - start, rtt, "the stale ack delays nothing");
                assert!(one.gen.pending.borrow().is_empty() && one.recv_cq.is_empty());
            }
            let start = sim::now();
            assert_eq!(one.send(&records[5]).await, Ok(5));
            assert_eq!(sim::now() - start, rtt, "no receive was left unposted");
            (one, Vec::new())
        });
    }

    /// The QP of an idle window-1 producer dies: nobody reads the flushed
    /// receives until the next send, which finds them, redials and sends
    /// `Ok` — still without a reader task.
    #[test]
    fn an_idle_window_1_producer_recovers_at_its_next_send() {
        run(1 << 20, |mut p| async move {
            let records = records(3, 64);
            assert_eq!(p.send(&records[0]).await, Ok(0));
            p.qp.close();
            sim::time::sleep(Duration::from_millis(1)).await;
            assert!(!p.gen.dead.get(), "nothing read the flush yet");
            let old = Rc::clone(&p.gen);
            assert_eq!(p.send(&records[1]).await, Ok(1));
            let replaced = old.dead.get() && !Rc::ptr_eq(&old, &p.gen);
            assert!(replaced, "a new QP generation");
            assert_eq!(p.send(&records[2]).await, Ok(2));
            assert!(!p.gen.reader.get());
            (p, Vec::new())
        });
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
