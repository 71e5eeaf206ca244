//! The RDMA produce module (paper Fig 2 ➎, §4.2.2).
//!
//! Owns the 16-bit file-ID namespace (Fig 4), produce grants (exclusive /
//! shared / replication), the shared-mode order machinery (Fig 5), access
//! revocation, and the commit plane: how a produce completion becomes a
//! commit and an ack.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use kdstorage::TopicPartition;
use kdwire::messages::{ProduceMode, Response};
use kdwire::slots::{pack_shared_word, SharedWord};
use kdwire::{ErrorCode, ProduceAccessResp, RemoteRegion};
use netsim::profile::copy_time;
use netsim::NodeId;
use rnic::{Access, MemoryRegion, RNic, ShmBuf};
use sim::sync::Frontier;

use crate::broker::BrokerInner;
use crate::common::{
    after_local_commit, charge_storage, charge_worker, deliver_ack, on_hw_advanced, roll_head,
    send_acks, trace_commit, Ack,
};
use crate::data::{DeferredAck, Partition};
use crate::requests::{AckRoute, CommitItem, CommitRun, Reply};

/// Shared-mode coordination state.
pub struct SharedState {
    /// The 8-byte order/offset word (Fig 5), FAA-able by producers and by
    /// the broker itself for TCP produce into the same file.
    pub word_buf: ShmBuf,
    pub word_mr: MemoryRegion,
    /// Next producer order expected to commit.
    pub expected_order: Cell<u16>,
    /// Out-of-order arrivals parked until their predecessors commit,
    /// keyed by order number.
    pub pending: RefCell<HashMap<u16, CommitItem>>,
    /// Bumped on abort so stale timeout watchers do nothing.
    pub generation: Cell<u64>,
}

impl SharedState {
    /// Feeds an arriving completion through the Fig 5 reorder buffer. When
    /// it carries the expected order, it and every parked successor it
    /// unblocks are appended to `ready`, in order; otherwise it is parked
    /// and `false` returned. In order with nothing parked — the common case
    /// — this is one push: no map, no allocation.
    pub fn on_arrival(&self, item: CommitItem, ready: &mut Vec<CommitItem>) -> bool {
        let mut pending = self.pending.borrow_mut();
        let mut next = self.expected_order.get();
        if item.order != next {
            // Duplicate / ancient orders are protocol errors; park the rest.
            pending.insert(item.order, item);
            return false;
        }
        ready.push(item);
        next = next.wrapping_add(1);
        while !pending.is_empty() {
            let Some(item) = pending.remove(&next) else {
                break;
            };
            ready.push(item);
            next = next.wrapping_add(1);
        }
        self.expected_order.set(next);
        true
    }
}

/// An active produce grant on one head file.
pub struct Grant {
    pub file_id: u16,
    pub segment: u32,
    pub mode: ProduceMode,
    pub mr: MemoryRegion,
    /// Node the grant was issued to (exclusive/replication revocation on
    /// disconnect).
    pub owner: NodeId,
    /// The produce QP its last write arrived on: the producer that holds it.
    pub qpn: Cell<Option<u32>>,
    /// Set when the grant is revoked/rolled; late completions get errors.
    pub closed: Cell<bool>,
    /// Completion-order commit turn (§4.2.2: requests are processed "in the
    /// same order as the corresponding completion events"): the first
    /// sequence not yet committed. A worker waits until it reaches its run's
    /// first sequence, and only that worker is woken when it does.
    pub turn: Frontier,
    /// Ticket counter used by the CQ pollers.
    pub next_seq: Cell<u64>,
    /// Reorder stage: commit items enter the shared request queue strictly
    /// in sequence order, even when several poller threads interleave.
    enqueue_next: Cell<u64>,
    enqueue_buf: RefCell<HashMap<u64, CommitItem>>,
    pub shared: Option<SharedState>,
}

impl Grant {
    /// Stages the commit with sequence `seq` for enqueueing and emits the
    /// consecutive run now ready, in sequence order. A poller that finishes
    /// handling a later completion first parks its commit here until its
    /// predecessors flush.
    pub fn stage_enqueue(&self, seq: u64, item: CommitItem, emit: &mut dyn FnMut(u64, CommitItem)) {
        // In-order fast path: nothing parked, this is the next sequence —
        // skip the reorder map entirely (no allocation on the hot path).
        if seq == self.enqueue_next.get() && self.enqueue_buf.borrow().is_empty() {
            self.enqueue_next.set(seq + 1);
            emit(seq, item);
            return;
        }
        self.enqueue_buf.borrow_mut().insert(seq, item);
        let mut next = self.enqueue_next.get();
        while let Some(item) = self.enqueue_buf.borrow_mut().remove(&next) {
            emit(next, item);
            next += 1;
        }
        self.enqueue_next.set(next);
    }

    /// True if `order` is still parked (used by timeout watchers).
    pub fn is_pending(&self, order: u16, generation: u64) -> bool {
        match &self.shared {
            Some(s) => s.generation.get() == generation && s.pending.borrow().contains_key(&order),
            None => false,
        }
    }
}

/// The produce module: file-ID table + grant construction.
#[derive(Default)]
pub struct ProduceModule {
    files: RefCell<HashMap<u16, (TopicPartition, Rc<Grant>)>>,
    next_file_id: Cell<u16>,
}

impl ProduceModule {
    /// Resolves the file ID from a WriteWithImm's immediate data to its
    /// partition and grant (Fig 2 ➎: "maps the file ID to the requested
    /// TP").
    pub fn lookup(&self, file_id: u16) -> Option<(TopicPartition, Rc<Grant>)> {
        self.files.borrow().get(&file_id).cloned()
    }

    fn alloc_file_id(&self) -> u16 {
        let id = self.next_file_id.get();
        self.next_file_id.set(id.wrapping_add(1));
        id
    }

    /// Creates and registers a grant for `segment` of `tp`.
    pub fn create_grant(
        &self,
        nic: &RNic,
        tp: &TopicPartition,
        segment: u32,
        seg_buf: ShmBuf,
        mode: ProduceMode,
        owner: NodeId,
    ) -> Rc<Grant> {
        let access = Access::REMOTE_WRITE | Access::REMOTE_READ;
        let mr = nic.reg_mr(seg_buf, access);
        let shared = match mode {
            ProduceMode::Shared => {
                let word_buf = ShmBuf::zeroed(8);
                let word_mr = nic.reg_mr(word_buf.clone(), Access::all());
                Some(SharedState {
                    word_buf,
                    word_mr,
                    expected_order: Cell::new(0),
                    pending: RefCell::new(HashMap::new()),
                    generation: Cell::new(0),
                })
            }
            _ => None,
        };
        let grant = Rc::new(Grant {
            file_id: self.alloc_file_id(),
            segment,
            mode,
            mr,
            owner,
            qpn: Cell::new(None),
            closed: Cell::new(false),
            turn: Frontier::default(),
            next_seq: Cell::new(0),
            enqueue_next: Cell::new(0),
            enqueue_buf: RefCell::new(HashMap::new()),
            shared,
        });
        self.files
            .borrow_mut()
            .insert(grant.file_id, (tp.clone(), Rc::clone(&grant)));
        grant
    }

    /// Closes a grant: deregisters its memory (in-flight writes fault, as
    /// §4.2.2's revocation requires) and fails parked completions. The file
    /// ID stays mapped so late completions can be answered with errors.
    pub fn revoke(&self, nic: &RNic, grant: &Rc<Grant>) -> Vec<AckRoute> {
        if grant.closed.get() {
            return Vec::new();
        }
        grant.closed.set(true);
        nic.dereg_mr(&grant.mr);
        let mut failed = Vec::new();
        if let Some(shared) = &grant.shared {
            nic.dereg_mr(&shared.word_mr);
            shared.generation.set(shared.generation.get() + 1);
            for (_, p) in shared.pending.borrow_mut().drain() {
                failed.push(p.ack);
            }
        }
        failed
    }
}

// ---------------------------------------------------------------------------
// RDMA produce commits (§4.2.2).
// ---------------------------------------------------------------------------

/// Outcome of committing one produce span.
struct SpanInfo {
    base_offset: u64,
    next_offset: u64,
}

/// Worker-owned scratch of `commit_run`; capacity is retained, so a run
/// allocates nothing.
#[derive(Default)]
pub struct CommitScratch {
    /// Per-lifeline commit spans of the run's traced items.
    traced: Vec<kdtelem::TraceSpan>,
    /// The spans the run makes committable, in commit order.
    spans: Vec<CommitItem>,
}

/// Commits a run of n ≥ 1 consecutive-sequence completions on one file in a
/// single worker pass, under one `broker.rdma_commit` span per traced
/// lifeline: a lifeline's `Commit` event is its own instant, its span ends
/// with the run — when the ack that answers it leaves. The run's duration is
/// a `rdma.commit_ns` sample.
pub(crate) async fn commit_run(
    b: &Rc<BrokerInner>,
    file_id: u16,
    seq: u64,
    mut run: CommitRun,
    scratch: &mut CommitScratch,
) {
    let start = sim::now();
    for item in run.iter_mut() {
        if let Some(ctx) = item.trace {
            let span = b.telem.registry.trace_span("broker.rdma_commit", Some(ctx));
            // The commit continues the producer's lifeline in a child span.
            item.trace = Some(span.ctx());
            scratch.traced.push(span);
        }
    }
    let next_seq = seq + run.len() as u64;
    let (first, mut rest) = run.into_parts();
    let items = std::iter::once(first).chain(rest.drain(..));
    commit_spans(b, file_id, seq, next_seq, items, scratch).await;
    if rest.capacity() > 0 {
        b.run_pool.borrow_mut().push(rest);
    }
    b.telem.rdma_commit_ns.record_since(start);
    scratch.traced.drain(..).for_each(kdtelem::TraceSpan::end);
}

/// The one commit path (§4.2.2): the per-file turn is claimed once for the
/// whole run `seq..next_seq` (its sequences are consecutive, so passing the
/// first ticket owns them all), shared-mode completions pass through the
/// Fig 5 reorder buffer and the write lock is taken once. Under it every
/// committable span is charged, committed, traced and announced in order,
/// each when its *own* verification is paid: span i of a run commits exactly
/// when the i-th of as many runs of one would. What a run changes is how its
/// results travel: errors and replication credits leave at their span's
/// instant, the successes owed to a producer QP when the run ends, as one
/// counted ack.
async fn commit_spans(
    b: &Rc<BrokerInner>,
    file_id: u16,
    seq: u64,
    next_seq: u64,
    run: impl Iterator<Item = CommitItem>,
    scratch: &mut CommitScratch,
) {
    let spans = &mut scratch.spans;
    let Some((tp, grant)) = b.produce_module.lookup(file_id) else {
        run.for_each(|it| deliver_ack(b, it.ack, ErrorCode::AccessDenied, 0));
        return;
    };
    // Enforce completion-order processing per file (§4.2.2).
    grant.turn.reached(seq).await;
    debug_assert_eq!(
        grant.turn.get(),
        seq,
        "only the owner of the turn advances it"
    );
    // A grant is only issued for a hosted partition, and none is unhosted.
    let p = b.store.get(&tp).expect("grant partition exists");
    if grant.closed.get() {
        grant.turn.advance_to(next_seq);
        run.for_each(|it| deliver_ack(b, it.ack, ErrorCode::OutOfSpace, 0));
        return;
    }
    for item in run {
        let Some(shared) = &grant.shared else {
            spans.push(item);
            continue;
        };
        let order = item.order;
        if !shared.on_arrival(item, spans) {
            // Parked out-of-order: arm the hole timeout (§4.2.2).
            arm_order_timeout(b, &p, &grant, order);
        }
    }
    if spans.is_empty() {
        grant.turn.advance_to(next_seq);
        return;
    }
    let mut owed = None;
    let mut committed = false;
    {
        let _guard = p.write_lock.lock().await;
        let cpu = &b.profile.cpu;
        for it in spans.drain(..) {
            if !grant.closed.get() {
                // Verify in place: CRC over bytes already in the file; no copy.
                let crc = copy_time(u64::from(it.byte_len), cpu.crc_bandwidth);
                charge_worker(b, cpu.api_produce_base + crc).await;
            }
            let res = if grant.closed.get() {
                Err(ErrorCode::OutOfSpace)
            } else {
                commit_span(b, &p, &grant, it.byte_len)
            };
            match res {
                Ok(span) => {
                    committed = true;
                    b.metrics.rdma_commits.add(1);
                    b.metrics.rdma_commit_bytes.add(u64::from(it.byte_len));
                    trace_commit(b, it.trace, &tp, span.base_offset, span.next_offset);
                    finish_rdma_ack(b, &p, &grant, span, it.ack, &mut owed);
                    after_local_commit(b, &p);
                }
                Err(code) => ack_now(b, &mut owed, it.ack, code, 0),
            }
        }
    }
    grant.turn.advance_to(next_seq);
    send_owed(b, &mut owed);
    if committed {
        charge_storage(b, &p).await;
    }
}

/// Verifies and commits `len` bytes sitting at the committed frontier of
/// the grant's file. May contain several batches (push replication merges
/// contiguous writes, §4.3.2).
fn commit_span(
    b: &Rc<BrokerInner>,
    p: &Rc<Partition>,
    grant: &Rc<Grant>,
    len: u32,
) -> Result<SpanInfo, ErrorCode> {
    if grant.segment != p.log.head_index() {
        return Err(ErrorCode::OutOfSpace);
    }
    let head = p.log.head();
    let start = head.committed_pos();
    if u64::from(start) + u64::from(len) > u64::from(head.capacity()) {
        return Err(ErrorCode::OutOfSpace);
    }
    head.advance_write_pos(start + len);
    let mut base_offset = None;
    let mut next_offset = p.log.next_offset();
    while head.committed_pos() < start + len {
        match p.log.commit_in_place(head.committed_pos()) {
            Ok(info) => {
                base_offset.get_or_insert(info.base_offset);
                next_offset = info.base_offset + u64::from(info.record_count);
            }
            Err(_) => {
                // Corrupt bytes inside the span: drop the uncommitted tail
                // and kill the session (clients must re-request access).
                head.truncate_to_committed();
                revoke_grant(b, p, grant, ErrorCode::CorruptBatch);
                return Err(ErrorCode::CorruptBatch);
            }
        }
    }
    Ok(SpanInfo {
        base_offset: base_offset.unwrap_or(next_offset),
        next_offset,
    })
}

/// Routes a committed span's result to its origin: a replication credit, a
/// deferral until full replication, or the produce ack.
fn finish_rdma_ack(
    b: &Rc<BrokerInner>,
    p: &Rc<Partition>,
    grant: &Rc<Grant>,
    span: SpanInfo,
    route: AckRoute,
    owed: &mut Option<Ack>,
) {
    match grant.mode {
        ProduceMode::Replication => {
            // Follower side of push replication: track our own progress and
            // return a credit to the leader (§4.3.2) — now, a Send of its
            // own: the leader counts credits in receive completions.
            p.follower_set_hw(p.log.next_offset());
            on_hw_advanced(b, p);
            ack_now(b, owed, route, ErrorCode::None, span.next_offset);
        }
        // Replicated leader: the ack leaves from `on_hw_advanced`, once the
        // followers have the span.
        _ if p.replication_factor() > 1 && p.log.high_watermark() < span.next_offset => {
            p.deferred_acks.borrow_mut().push_back(DeferredAck {
                next_offset: span.next_offset,
                base_offset: span.base_offset,
                route,
            });
        }
        _ => owe_ack(b, owed, route, span.base_offset),
    }
}

/// A success on its way out. One owed to a producer QP waits in `owed` for
/// its run to end, and joins the ack already there when it continues that
/// ack — same QP, next offset; any other route is answered now.
fn owe_ack(b: &Rc<BrokerInner>, owed: &mut Option<Ack>, route: AckRoute, base_offset: u64) {
    let AckRoute::Qp(qpn) = route else {
        return deliver_ack(b, route, ErrorCode::None, base_offset);
    };
    match owed {
        Some(ack) if ack.qpn == qpn && ack.base_offset + u64::from(ack.count) == base_offset => {
            ack.count += 1
        }
        _ => {
            send_owed(b, owed);
            *owed = Some(Ack::one(qpn, ErrorCode::None, base_offset));
        }
    }
}

/// Sends the ack a run still owes, if any.
fn send_owed(b: &Rc<BrokerInner>, owed: &mut Option<Ack>) {
    if let Some(ack) = owed.take() {
        send_acks(b, &[ack]);
    }
}

/// An error or a replication credit: it leaves now, behind what its run
/// still owes — commit order is ack order.
fn ack_now(
    b: &Rc<BrokerInner>,
    owed: &mut Option<Ack>,
    route: AckRoute,
    error: ErrorCode,
    base_offset: u64,
) {
    send_owed(b, owed);
    deliver_ack(b, route, error, base_offset);
}

/// Arms the §4.2.2 hole watchdog: if `order` is still parked when the
/// timeout fires, the whole shared session is aborted and access revoked.
fn arm_order_timeout(b: &Rc<BrokerInner>, p: &Rc<Partition>, grant: &Rc<Grant>, order: u16) {
    let generation = grant
        .shared
        .as_ref()
        .map(|s| s.generation.get())
        .unwrap_or(0);
    let timeout = b.config.shared_order_timeout;
    let b = Rc::clone(b);
    let p = Rc::clone(p);
    let grant = Rc::clone(grant);
    sim::spawn_at(sim::now() + timeout, async move {
        if grant.is_pending(order, generation) {
            b.metrics.produce_aborts.add(1);
            revoke_grant(&b, &p, &grant, ErrorCode::OrderTimeout);
        }
    });
}

/// Revokes a grant: deregisters memory (in-flight writes fault), fails
/// parked completions, discards reserved-but-uncommitted bytes.
pub fn revoke_grant(b: &Rc<BrokerInner>, p: &Rc<Partition>, grant: &Rc<Grant>, error: ErrorCode) {
    let failed = b.produce_module.revoke(&b.nic, grant);
    for route in failed {
        deliver_ack(b, route, error, 0);
    }
    if let Some(seg) = p.log.segment(grant.segment) {
        if !seg.is_sealed() {
            seg.truncate_to_committed();
        }
        b.metrics.registered_bytes.set(
            b.metrics
                .registered_bytes
                .get()
                .saturating_sub(u64::from(seg.capacity())),
        );
    }
    let mut cell = p.grant.borrow_mut();
    if cell.as_ref().is_some_and(|g| Rc::ptr_eq(g, grant)) {
        *cell = None;
    }
    b.metrics.grants_revoked.add(1);
}

/// Revokes the exclusive/replication grants held through produce QP `qpn`
/// of `node`, which disconnected (§4.2.2: "If the RDMA producer fails, its
/// exclusive RDMA access will be revoked"). A grant is held through the QP
/// its writes arrive on; one that has carried no write yet goes once no
/// other produce QP of its node is up.
pub fn revoke_grants_of_qp(b: &Rc<BrokerInner>, qpn: u32, node: NodeId) {
    let node_gone = || {
        let qps = b.produce_qps.borrow();
        !qps.values()
            .any(|qp| qp.is_alive() && qp.peer_node() == Some(node))
    };
    for p in b.store.local_partitions() {
        let grant = p.grant.borrow().clone();
        if let Some(g) = grant {
            let held = g.owner == node && g.mode != ProduceMode::Shared && !g.closed.get();
            if held && g.qpn.get().map_or_else(node_gone, |q| q == qpn) {
                revoke_grant(b, &p, &g, ErrorCode::AccessDenied);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Produce access grants (§4.2.2 "Getting RDMA access").
// ---------------------------------------------------------------------------

/// `ProduceAccess`: grants `peer` write access to the head file of `tp`.
pub(crate) fn handle_produce_access(
    b: &Rc<BrokerInner>,
    peer: NodeId,
    tp: &TopicPartition,
    mode: ProduceMode,
    min_bytes: u32,
    reply: Reply,
) {
    let resp =
        produce_access(b, peer, tp, mode, min_bytes).unwrap_or_else(|error| ProduceAccessResp {
            error,
            ..Default::default()
        });
    reply.send(Response::ProduceAccess(resp));
}

fn produce_access(
    b: &Rc<BrokerInner>,
    peer: NodeId,
    tp: &TopicPartition,
    mode: ProduceMode,
    min_bytes: u32,
) -> Result<ProduceAccessResp, ErrorCode> {
    let p = b.store.get(tp).ok_or(ErrorCode::UnknownTopicOrPartition)?;
    let allowed = match mode {
        ProduceMode::Replication => {
            if b.config.rdma.replicate && peer.0 != p.leader().node {
                // A pusher that is not the current leader lost a leadership
                // election it has not heard about yet: fence it.
                return Err(ErrorCode::FencedEpoch);
            }
            b.config.rdma.replicate && !p.is_leader()
        }
        _ => b.config.rdma.produce && p.is_leader(),
    };
    if !allowed {
        return Err(if p.is_leader() || mode == ProduceMode::Replication {
            ErrorCode::AccessDenied
        } else {
            ErrorCode::NotLeader
        });
    }

    let existing = p.grant.borrow().clone().filter(|g| !g.closed.get());
    if let Some(g) = existing {
        let needs_roll = g.segment != p.log.head_index() || p.log.head().remaining() < min_bytes;
        let compatible = g.mode == mode && (mode == ProduceMode::Shared || g.owner == peer);
        if !compatible {
            return Err(ErrorCode::AccessDenied);
        }
        if !needs_roll {
            return Ok(grant_response(b, &p, &g));
        }
        // Roll: retire the old session, seal the file, open a new head.
        revoke_grant(b, &p, &g, ErrorCode::OutOfSpace);
        roll_head(b, &p);
    } else if p.log.head().remaining() < min_bytes {
        roll_head(b, &p);
    }

    let head = p.log.head();
    head.truncate_to_committed();
    let grant = b.produce_module.create_grant(
        &b.nic,
        tp,
        p.log.head_index(),
        head.shared_buf(),
        mode,
        peer,
    );
    if let Some(shared) = &grant.shared {
        shared.word_buf.write_u64(
            0,
            pack_shared_word(SharedWord {
                order: 0,
                offset: u64::from(head.committed_pos()),
            }),
        );
    }
    b.metrics.registered_bytes.add(u64::from(head.capacity()));
    *p.grant.borrow_mut() = Some(Rc::clone(&grant));
    Ok(grant_response(b, &p, &grant))
}

fn grant_response(b: &BrokerInner, p: &Partition, g: &Grant) -> ProduceAccessResp {
    // A grant names a segment of its partition's log; a log drops none.
    let head = p.log.segment(g.segment).expect("grant segment");
    ProduceAccessResp {
        error: ErrorCode::None,
        file_id: g.file_id,
        segment: g.segment,
        region: RemoteRegion {
            addr: g.mr.addr(),
            rkey: g.mr.rkey(),
            len: g.mr.len() as u64,
        },
        write_pos: head.committed_pos(),
        next_offset: p.log.next_offset(),
        shared_word: g.shared.as_ref().map(|s| RemoteRegion {
            addr: s.word_mr.addr(),
            rkey: s.word_mr.rkey(),
            len: 8,
        }),
        credits: b.config.replication_credits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdwire::slots::{pack_shared_word, SharedWord};
    use netsim::profile::Profile;
    use netsim::Fabric;

    fn setup() -> (RNic, ProduceModule, TopicPartition) {
        let f = Fabric::new(Profile::fast_test());
        let node = f.add_node("b");
        (
            RNic::new(&node),
            ProduceModule::default(),
            TopicPartition::new("t", 0),
        )
    }

    fn item(order: u16, byte_len: u32) -> CommitItem {
        CommitItem {
            order,
            byte_len,
            ack: AckRoute::None,
            trace: None,
        }
    }

    fn seg_buf() -> ShmBuf {
        ShmBuf::zeroed(4096)
    }

    #[test]
    fn grant_lookup_by_file_id() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Exclusive, NodeId(5));
            let (tp2, g2) = m.lookup(g.file_id).unwrap();
            assert_eq!(tp2, tp);
            assert_eq!(g2.file_id, g.file_id);
            assert!(m.lookup(g.file_id.wrapping_add(1)).is_none());
        });
    }

    #[test]
    fn shared_orders_drain_in_sequence() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Shared, NodeId(5));
            // Orders 1 and 2 arrive before 0.
            let mut ready = Vec::new();
            let s = g.shared.as_ref().unwrap();
            assert!(!s.on_arrival(item(1, 10), &mut ready));
            assert!(!s.on_arrival(item(2, 20), &mut ready));
            assert!(ready.is_empty());
            assert!(s.on_arrival(item(0, 5), &mut ready));
            let lens: Vec<u32> = ready.iter().map(|it| it.byte_len).collect();
            assert_eq!(lens, vec![5, 10, 20]);
            assert_eq!(s.expected_order.get(), 3);
        });
    }

    #[test]
    fn shared_order_wraps_past_u16() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Shared, NodeId(5));
            let s = g.shared.as_ref().unwrap();
            s.expected_order.set(0xffff);
            let mut ready = Vec::new();
            assert!(!s.on_arrival(item(0, 8), &mut ready));
            assert!(s.on_arrival(item(0xffff, 4), &mut ready));
            assert_eq!(ready.len(), 2);
            assert_eq!(s.expected_order.get(), 1);
        });
    }

    #[test]
    fn revoke_invalidates_memory_and_fails_pending() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Shared, NodeId(5));
            assert!(!g
                .shared
                .as_ref()
                .unwrap()
                .on_arrival(item(3, 10), &mut Vec::new()));
            assert!(g.is_pending(3, 0));
            let failed = m.revoke(&nic, &g);
            assert_eq!(failed.len(), 1);
            assert!(g.closed.get());
            assert!(!g.mr.is_valid());
            assert!(!g.is_pending(3, 0), "generation bumped");
            // Idempotent.
            assert!(m.revoke(&nic, &g).is_empty());
        });
    }

    #[test]
    fn shared_word_readable_by_design() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, tp) = setup();
            let g = m.create_grant(&nic, &tp, 0, seg_buf(), ProduceMode::Shared, NodeId(5));
            let s = g.shared.as_ref().unwrap();
            s.word_buf.write_u64(
                0,
                pack_shared_word(SharedWord {
                    order: 2,
                    offset: 64,
                }),
            );
            assert_eq!(s.word_buf.read_u64(0) & ((1 << 48) - 1), 64);
        });
    }

    /// What a delivery of `k` commits leaves behind, however they were
    /// grouped into runs: the answer each write got, in order; when each
    /// span committed; the commit counters; the log.
    #[derive(Debug, PartialEq)]
    struct Delivered {
        acks: Vec<(kdwire::ErrorCode, u64)>,
        /// `(base offset, ns since the hand-off)` of every `Commit` event.
        commits: Vec<(u64, u64)>,
        rdma_commits: u64,
        rdma_commit_bytes: u64,
        /// `produce.acks_sent`: writes answered, however many Sends it took.
        acks_sent: u64,
        next_offset: u64,
        committed: Vec<u8>,
        revoked: bool,
    }

    /// Batch `i` of the five [`deliver`] writes, and what verifying it costs
    /// a worker.
    fn batch(i: usize) -> Vec<u8> {
        use kdstorage::record::{single_record_batch, Record};
        single_record_batch(7, &Record::value(vec![i as u8; 40 + 100 * i]))
    }

    fn verify_ns(i: usize) -> u64 {
        let cpu = Profile::testbed().cpu;
        let crc = copy_time(batch(i).len() as u64, cpu.crc_bandwidth);
        (cpu.api_produce_base + crc).as_nanos() as u64
    }

    /// Starts a testbed broker with one partition granted in `mode`, writes
    /// five single-record batches into the granted file (batch `corrupt`, if
    /// any, garbled), delivers their commits to the API workers grouped as
    /// `runs` says, and collects the outcome and when each ack Send arrived
    /// (ns since the hand-off). `revoke_parked` revokes the grant while the
    /// commits are parked on the write lock.
    fn deliver(
        mode: ProduceMode,
        runs: &[usize],
        corrupt: Option<usize>,
        revoke_parked: bool,
    ) -> (Delivered, Vec<u64>) {
        use crate::requests::{CommitRun, WorkItem};
        use rnic::{QpOptions, RecvWr};

        assert_eq!(runs.iter().sum::<usize>(), 5);
        let runs = runs.to_vec();
        let registry = kdtelem::Registry::new();
        let _scope = kdtelem::enter(&registry);
        let (mut delivered, t0, acks_at) = sim::Runtime::new().block_on(async move {
            let f = Fabric::new(Profile::testbed());
            let (bnode, cnode) = (f.add_node("broker"), f.add_node("client"));
            let config = crate::BrokerConfig::kafkadirect(crate::RdmaToggles::all());
            let me = kdwire::BrokerAddr {
                node: bnode.id.0,
                port: config.tcp_port,
                rdma_port: config.rdma_port,
            };
            let broker = crate::Broker::start(&bnode, config.clone(), vec![me]);
            let b = broker.inner();
            let meta = kdwire::PartitionMeta {
                partition: 0,
                epoch: 0,
                leader: me,
                replicas: Vec::new(),
            };
            crate::admin::install(b, "t", meta, None);
            let tp = TopicPartition::new("t", 0);
            let p = b.store.get(&tp).unwrap();
            let head = p.log.head();
            let grant = b.produce_module.create_grant(
                &b.nic,
                &tp,
                p.log.head_index(),
                head.shared_buf(),
                mode,
                cnode.id,
            );
            *p.grant.borrow_mut() = Some(Rc::clone(&grant));

            // The producer's QP, with receives posted for the acks.
            let nic = RNic::new(&cnode);
            let acks_cq = nic.create_cq(16);
            let qp = nic
                .connect(
                    bnode.id,
                    config.rdma_port,
                    nic.create_cq(16),
                    acks_cq.clone(),
                    QpOptions::default(),
                )
                .await
                .unwrap();
            let ack_bufs: Vec<ShmBuf> = (0..5).map(|_| ShmBuf::zeroed(16)).collect();
            qp.post_recv_list(ack_bufs.iter().enumerate().map(|(i, buf)| RecvWr {
                wr_id: i as u64,
                buf: Some(buf.as_slice()),
            }))
            .unwrap();
            while b.produce_qps.borrow().is_empty() {
                sim::time::sleep(std::time::Duration::from_nanos(10)).await;
            }
            let qpn = *b.produce_qps.borrow().keys().next().unwrap();

            // What five WriteWithImms would have left in the file, each on
            // a lifeline of its own.
            let mut items = Vec::new();
            let mut pos = head.committed_pos();
            for i in 0..5 {
                let mut batch = batch(i);
                if corrupt == Some(i) {
                    let last = batch.len() - 1;
                    batch[last] ^= 0xff;
                }
                head.write_at(pos, &batch);
                pos += batch.len() as u32;
                items.push(CommitItem {
                    order: 0,
                    byte_len: batch.len() as u32,
                    ack: AckRoute::Qp(qpn),
                    trace: Some(kdtelem::TraceCtx::root()),
                });
            }

            let lock = if revoke_parked {
                Some(p.write_lock.lock().await)
            } else {
                None
            };
            let t0 = sim::now();
            let mut items = items.into_iter();
            let mut seq = 0;
            for n in runs {
                let mut run = CommitRun::one(items.next().unwrap());
                items
                    .by_ref()
                    .take(n - 1)
                    .for_each(|it| run.push(it, Vec::new));
                let item = WorkItem::RdmaCommit {
                    file_id: grant.file_id,
                    seq,
                    run,
                };
                b.hand_off(item);
                seq += n as u64;
            }
            if let Some(lock) = lock {
                sim::time::sleep(std::time::Duration::from_micros(100)).await;
                revoke_grant(b, &p, &grant, kdwire::ErrorCode::AccessDenied);
                drop(lock);
            }

            // One Send may answer several writes.
            let (mut acks, mut acks_at) = (Vec::new(), Vec::new());
            while acks.len() < 5 {
                let cqe = acks_cq.next().await.unwrap();
                assert!(cqe.ok());
                acks_at.push((sim::now() - t0).as_nanos() as u64);
                let payload = ack_bufs[cqe.wr_id as usize].read_at(0, cqe.byte_len as usize);
                let (error, base_offset, count) = kdwire::decode_ack(&payload);
                acks.extend((0..u64::from(count)).map(|i| (error, base_offset + i)));
            }
            let m = broker.metrics();
            let committed = head.read(0, head.committed_pos());
            let delivered = Delivered {
                acks,
                commits: Vec::new(),
                rdma_commits: m.rdma_commits,
                rdma_commit_bytes: m.rdma_commit_bytes,
                acks_sent: m.acks_sent,
                next_offset: p.log.next_offset(),
                committed,
                revoked: grant.closed.get(),
            };
            (delivered, t0.as_nanos(), acks_at)
        });
        for e in registry.drain_trace_events() {
            if let kdtelem::EventKind::Commit { base_offset, .. } = e.kind {
                delivered.commits.push((base_offset, e.ts_ns - t0));
            }
        }
        (delivered, acks_at)
    }

    #[test]
    fn one_run_of_k_equals_k_runs_of_one() {
        use kdwire::ErrorCode::{CorruptBatch, None as Ok, OutOfSpace};

        // A parked worker starts on what it is handed after the queue
        // transfer and its wake-up; from there span i commits once the
        // verifications up to its own are paid — the i-th of k runs of one
        // does, each on a worker woken at that same start, and so must the
        // i-th span of one run of k.
        let cpu = Profile::testbed().cpu;
        let start = (cpu.handoff + cpu.wakeup).as_nanos() as u64;
        let commit_at = |i: usize| start + (0..=i).map(verify_ns).sum::<u64>();
        assert!(verify_ns(0) < verify_ns(4), "the spans differ in cost");

        let exclusive = |runs: &[usize], corrupt, revoke_parked| {
            let (d, acks_at) = deliver(ProduceMode::Exclusive, runs, corrupt, revoke_parked);
            (d, acks_at.len())
        };
        let (clean, sends) = exclusive(&[5], None, false);
        assert_eq!(clean.acks, (0..5).map(|i| (Ok, i)).collect::<Vec<_>>());
        assert_eq!(
            clean.commits,
            (0..5).map(|i| (i as u64, commit_at(i))).collect::<Vec<_>>()
        );
        assert_eq!(
            (clean.rdma_commits, clean.next_offset, clean.revoked),
            (5, 5, false)
        );
        assert_eq!(
            clean.acks_sent, 5,
            "the metric counts writes answered, not Sends"
        );
        assert_eq!(sends, 1, "a run's successes to one QP are one Send");
        // Mid-sized runs, the kind a poller forms, too: same answers, commit
        // instants, counters and log, one Send per run.
        let (mixed, sends) = exclusive(&[2, 3], None, false);
        assert_eq!((&mixed, sends), (&clean, 2));
        assert_eq!(exclusive(&[1, 1, 1, 1, 1], None, false), (clean, 5));

        // A corrupt span revokes the grant mid-run: the spans before it
        // commit — and are answered before it is — it answers CorruptBatch,
        // the ones behind it OutOfSpace.
        let (corrupt, sends) = exclusive(&[5], Some(2), false);
        assert_eq!(
            corrupt.acks,
            [
                (Ok, 0),
                (Ok, 1),
                (CorruptBatch, 0),
                (OutOfSpace, 0),
                (OutOfSpace, 0)
            ]
        );
        assert_eq!(corrupt.commits, [(0, commit_at(0)), (1, commit_at(1))]);
        assert_eq!(
            (corrupt.rdma_commits, corrupt.next_offset, corrupt.revoked),
            (2, 2, true)
        );
        assert_eq!(sends, 4);
        let (mixed, sends) = exclusive(&[1, 3, 1], Some(2), false);
        assert_eq!((&mixed, sends), (&corrupt, 5));
        assert_eq!(exclusive(&[1, 1, 1, 1, 1], Some(2), false), (corrupt, 5));

        // A grant closed while its commits wait for the write lock commits
        // nothing, however the commits were grouped.
        let (closed, sends) = exclusive(&[5], None, true);
        assert_eq!(closed.acks, vec![(OutOfSpace, 0); 5]);
        assert_eq!((closed.rdma_commits, closed.committed.len()), (0, 0));
        assert!(closed.commits.is_empty());
        let (mixed, mixed_sends) = exclusive(&[2, 3], None, true);
        assert_eq!((&mixed, mixed_sends), (&closed, sends));
        assert_eq!(exclusive(&[1, 1, 1, 1, 1], None, true), (closed, sends));

        // A follower answers a push-replication write with a credit, not an
        // ack: each leaves when its span commits, a Send of its own — the
        // run does not hold it, so they arrive when k runs of one send them.
        let (pushed, credits_at) = deliver(ProduceMode::Replication, &[5], None, false);
        assert_eq!(
            pushed.acks,
            (1..=5).map(|next| (Ok, next)).collect::<Vec<_>>()
        );
        assert_eq!(
            pushed.commits,
            (0..5).map(|i| (i as u64, commit_at(i))).collect::<Vec<_>>()
        );
        assert!(credits_at[0] > commit_at(0) && credits_at[0] < commit_at(1));
        assert_eq!(
            deliver(ProduceMode::Replication, &[1, 1, 1, 1, 1], None, false),
            (pushed, credits_at)
        );
    }
}
