//! The RDMA consume module (paper Fig 2 ➑, §4.4.2): consume access and
//! release, read registration of segment files and the per-consumer
//! metadata-slot regions (Fig 9).
//!
//! This module alone edits a partition's read registrations and slot
//! references and a consumer's slot array, through one [`acquire`] /
//! [`release`] pair. A registration records which consumers hold it, and a
//! release drops only what its own consumer holds: a one-sided read's
//! region is never torn down on another party's word. What a consumer id
//! holds lives as long as the control connection that first acquired for
//! it: when that connection closes, [`release_connection`] drops it all.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use kdstorage::TopicPartition;
use kdwire::messages::Response;
use kdwire::slots::{SlotView, SLOTS_PER_CONSUMER, SLOT_SIZE};
use kdwire::{ConsumeAccessResp, ErrorCode, RemoteRegion, SlotGrant};
use rnic::{Access, MemoryRegion, RNic, ShmBuf};

use crate::broker::BrokerInner;
use crate::common::{charge_storage, count_tier_read, maybe_evict};
use crate::data::Partition;
use crate::metrics::Metrics;
use crate::requests::{Reply, ReplyStage};

/// Back-reference from a partition's file to a consumer slot tracking it
/// (Fig 9: "Each registered file has a list of metadata slots").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRef {
    pub consumer_id: u64,
    pub slot: usize,
    pub segment: u32,
}

/// One consumer's contiguous slot region.
pub struct ConsumerSlots {
    pub buf: ShmBuf,
    pub mr: MemoryRegion,
    /// `assigns[i]` = the file slot *i* tracks.
    assigns: RefCell<Vec<Option<(TopicPartition, u32)>>>,
}

impl ConsumerSlots {
    /// Number of slots in the smallest contiguous prefix containing all
    /// active slots — what the consumer must read (Fig 9).
    pub fn active_span(&self) -> u32 {
        let assigns = self.assigns.borrow();
        assigns
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |i| i as u32 + 1)
    }
}

/// The consume module: consumer slot regions, and which connection owns
/// each consumer id.
#[derive(Default)]
pub struct ConsumeModule {
    consumers: RefCell<HashMap<u64, Rc<ConsumerSlots>>>,
    /// The reply stage of the connection that first acquired for each id.
    owners: RefCell<HashMap<u64, Weak<ReplyStage>>>,
}

impl ConsumeModule {
    /// Gets (or creates + registers) a consumer's slot region.
    fn consumer(&self, nic: &RNic, metrics: &Metrics, consumer_id: u64) -> Rc<ConsumerSlots> {
        if let Some(c) = self.consumers.borrow().get(&consumer_id) {
            return Rc::clone(c);
        }
        let buf = ShmBuf::zeroed(SLOTS_PER_CONSUMER * SLOT_SIZE);
        let mr = nic.reg_mr(buf.clone(), Access::REMOTE_READ);
        metrics.registered_bytes.add(buf.len() as u64);
        let c = Rc::new(ConsumerSlots {
            buf,
            mr,
            assigns: RefCell::new(vec![None; SLOTS_PER_CONSUMER]),
        });
        self.consumers
            .borrow_mut()
            .insert(consumer_id, Rc::clone(&c));
        c
    }

    /// Allocates the lowest free slot for `(tp, segment)`, keeping active
    /// slots packed toward the front ("the broker tries to keep assigned
    /// slots in close proximity", §4.4.2). Reuses an existing assignment.
    fn alloc_slot(
        &self,
        nic: &RNic,
        metrics: &Metrics,
        consumer_id: u64,
        tp: &TopicPartition,
        segment: u32,
    ) -> Option<(Rc<ConsumerSlots>, usize)> {
        let c = self.consumer(nic, metrics, consumer_id);
        let mut assigns = c.assigns.borrow_mut();
        if let Some(i) = assigns
            .iter()
            .position(|a| a.as_ref() == Some(&(tp.clone(), segment)))
        {
            drop(assigns);
            return Some((c, i));
        }
        let free = assigns.iter().position(Option::is_none)?;
        assigns[free] = Some((tp.clone(), segment));
        drop(assigns);
        Some((c, free))
    }

    /// Frees a slot.
    fn free_slot(&self, consumer_id: u64, tp: &TopicPartition, segment: u32) {
        if let Some(c) = self.consumers.borrow().get(&consumer_id) {
            let mut assigns = c.assigns.borrow_mut();
            for a in assigns.iter_mut() {
                if a.as_ref() == Some(&(tp.clone(), segment)) {
                    *a = None;
                }
            }
        }
    }

    /// Refreshes every metadata slot attached to `p` (called when the high
    /// watermark advances or a file seals).
    pub fn refresh_slots(&self, p: &Partition, metrics: &Metrics) {
        let consumers = self.consumers.borrow();
        for r in p.slot_refs.borrow().iter() {
            if let Some(c) = consumers.get(&r.consumer_id) {
                let view = slot_view_for(p, r.segment);
                c.buf.write_at(r.slot * SLOT_SIZE, &view.encode());
                metrics.slot_updates.add(1);
            }
        }
    }
}

/// Computes the slot contents for `segment` of `p`: the last readable byte
/// (replication high watermark position) and whether more bytes may still
/// become readable in this file.
pub fn slot_view_for(p: &Partition, segment: u32) -> SlotView {
    let hwp = p.log.high_watermark_position();
    // Callers name a located or registered segment; a log drops none.
    let seg = p.log.segment(segment).expect("segment exists");
    let last_readable = if segment < hwp.segment {
        seg.committed_pos()
    } else if segment == hwp.segment {
        hwp.pos
    } else {
        0
    };
    // The file stops changing once it is sealed AND the high watermark has
    // passed its end.
    let finished = seg.is_sealed() && segment <= hwp.segment && last_readable >= seg.committed_pos();
    SlotView {
        last_readable,
        mutable: !finished,
        high_watermark: p.log.high_watermark(),
    }
}

/// `ConsumeAccess` (§4.4.2 "getting access").
pub(crate) async fn handle_access(
    b: &Rc<BrokerInner>,
    tp: &TopicPartition,
    offset: u64,
    consumer_id: u64,
    reply: Reply,
) {
    let resp = access(b, tp, offset, consumer_id)
        .await
        .unwrap_or_else(|error| ConsumeAccessResp { error, ..Default::default() });
    if resp.error.is_ok() {
        own(b, consumer_id, &reply.stage);
    }
    reply.send(Response::ConsumeAccess(resp));
}

/// Makes `stage`'s connection the owner of `consumer_id` unless another
/// connection already is. One that closed while its access was in flight
/// has nothing left to release it later, so it releases now.
fn own(b: &BrokerInner, consumer_id: u64, stage: &Rc<ReplyStage>) {
    let mut owners = b.consume_module.owners.borrow_mut();
    let owner = owners.entry(consumer_id).or_insert_with(|| Rc::downgrade(stage));
    let owned = std::ptr::eq(owner.as_ptr(), Rc::as_ptr(stage));
    drop(owners);
    if owned && stage.is_closed() {
        release_consumer(b, consumer_id);
    }
}

/// `stage`'s connection closed: every consumer id it owns lets go of its
/// read holds, slot references and slot region. A crashed broker's state
/// goes with it instead.
pub(crate) fn release_connection(b: &BrokerInner, stage: &Rc<ReplyStage>) {
    if !b.alive.get() {
        return;
    }
    let mut ids: Vec<u64> = b
        .consume_module
        .owners
        .borrow()
        .iter()
        .filter(|(_, owner)| std::ptr::eq(owner.as_ptr(), Rc::as_ptr(stage)))
        .map(|(&id, _)| id)
        .collect();
    ids.sort_unstable();
    for id in ids {
        release_consumer(b, id);
    }
}

/// Drops everything `consumer_id` holds, partition by partition in a fixed
/// order, then deregisters its slot region.
fn release_consumer(b: &BrokerInner, consumer_id: u64) {
    b.consume_module.owners.borrow_mut().remove(&consumer_id);
    for p in b.store.local_partitions() {
        let mut held: Vec<u32> = p
            .read_regs
            .borrow()
            .keys()
            .filter(|&&(_, id)| id == consumer_id)
            .map(|&(segment, _)| segment)
            .collect();
        held.sort_unstable();
        for segment in held {
            while p.read_regs.borrow().contains_key(&(segment, consumer_id)) {
                release(b, &p, consumer_id, segment);
            }
        }
    }
    let slots = b.consume_module.consumers.borrow_mut().remove(&consumer_id);
    if let Some(c) = slots {
        b.nic.dereg_mr(&c.mr);
        let registered = &b.metrics.registered_bytes;
        registered.set(registered.get().saturating_sub(c.buf.len() as u64));
    }
}

/// Grants `consumer_id` the file holding `offset` — the high-watermark file
/// once `offset` reaches it — with the batch to start reading at.
async fn access(
    b: &Rc<BrokerInner>,
    tp: &TopicPartition,
    offset: u64,
    consumer_id: u64,
) -> Result<ConsumeAccessResp, ErrorCode> {
    if !b.config.rdma.consume {
        return Err(ErrorCode::InvalidRequest);
    }
    let p = b.store.get(tp).ok_or(ErrorCode::UnknownTopicOrPartition)?;
    if !p.is_leader() {
        return Err(ErrorCode::NotLeader);
    }
    let hw = p.log.high_watermark();
    let hwp = p.log.high_watermark_position();
    let (segment, start_pos, start_offset) = if offset < hw {
        let (seg, entry) = p.log.locate(offset).ok_or(ErrorCode::InvalidRequest)?;
        (seg, entry.pos, entry.base_offset)
    } else {
        (hwp.segment, hwp.pos, hw)
    };
    // Tiered: page a spilled segment back into memory before registering
    // it — the zero-copy read region must expose real bytes.
    if b.config.storage.is_some() {
        let resident = p.log.segment(segment).is_some_and(|s| s.is_resident());
        count_tier_read(b, resident);
        if !resident {
            if !p.log.restore_segment(segment) {
                return Err(ErrorCode::OffsetOutOfRange);
            }
            charge_storage(b, &p).await;
        }
    }
    let (mr, view, slot) = acquire(b, &p, consumer_id, segment)?;
    Ok(ConsumeAccessResp {
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
    })
}

/// `ConsumeRelease`: the consumer is done with `segment`.
pub(crate) fn handle_release(
    b: &BrokerInner,
    tp: &TopicPartition,
    consumer_id: u64,
    segment: u32,
    reply: Reply,
) {
    if let Some(p) = b.store.get(tp) {
        release(b, &p, consumer_id, segment);
    }
    reply.send(Response::ConsumeRelease {
        error: ErrorCode::None,
    });
}

/// Acquires `segment` of `p` for `consumer_id`: a hold on the segment's read
/// registration and, while the file can still grow, a metadata slot
/// tracking it. Undone by [`release`].
fn acquire(
    b: &BrokerInner,
    p: &Partition,
    consumer_id: u64,
    segment: u32,
) -> Result<(MemoryRegion, SlotView, Option<SlotGrant>), ErrorCode> {
    let mr = register_read(&b.nic, &b.metrics, p, consumer_id, segment);
    let view = slot_view_for(p, segment);
    if !view.mutable {
        return Ok((mr, view, None));
    }
    let module = &b.consume_module;
    let Some((slots, index)) = module.alloc_slot(&b.nic, &b.metrics, consumer_id, &p.tp, segment)
    else {
        release_read(&b.nic, &b.metrics, p, consumer_id, segment);
        return Err(ErrorCode::AccessDenied);
    };
    let r = SlotRef {
        consumer_id,
        slot: index,
        segment,
    };
    if !p.slot_refs.borrow().contains(&r) {
        p.slot_refs.borrow_mut().push(r);
    }
    slots.buf.write_at(index * SLOT_SIZE, &view.encode());
    let slot = SlotGrant {
        region: RemoteRegion {
            addr: slots.mr.addr(),
            rkey: slots.mr.rkey(),
            len: slots.mr.len() as u64,
        },
        index: index as u32,
        active_span: slots.active_span(),
    };
    Ok((mr, view, Some(slot)))
}

/// Drops what `consumer_id` holds on `segment` of `p` — one hold on its read
/// registration and its slot — and nothing another consumer holds. Once the
/// last reader is gone the sealed segment may spill back out.
fn release(b: &BrokerInner, p: &Partition, consumer_id: u64, segment: u32) {
    release_read(&b.nic, &b.metrics, p, consumer_id, segment);
    b.consume_module.free_slot(consumer_id, &p.tp, segment);
    p.slot_refs
        .borrow_mut()
        .retain(|r| !(r.consumer_id == consumer_id && r.segment == segment));
    maybe_evict(p, segment);
}

/// Registers `segment` of `p` for RDMA reads — once, however many consumers
/// read it — and counts one hold of `consumer_id` on it.
fn register_read(
    nic: &RNic,
    metrics: &Metrics,
    p: &Partition,
    consumer_id: u64,
    segment: u32,
) -> MemoryRegion {
    let mut regs = p.read_regs.borrow_mut();
    let registered = regs.iter().find(|(&(s, _), _)| s == segment);
    let mr = match registered {
        Some((_, (mr, _))) => mr.clone(),
        None => {
            // Callers name a located segment; a log drops none.
            let seg = p.log.segment(segment).expect("segment exists");
            let mr = nic.reg_mr(seg.shared_buf(), Access::REMOTE_READ);
            metrics.registered_bytes.add(u64::from(seg.capacity()));
            mr
        }
    };
    regs.entry((segment, consumer_id)).or_insert_with(|| (mr.clone(), 0)).1 += 1;
    mr
}

/// Drops one hold of `consumer_id` on `segment`, if it has one; the last
/// hold deregisters the segment ("unregistered from RDMA access to reduce
/// memory usage", §4.4.2).
fn release_read(nic: &RNic, metrics: &Metrics, p: &Partition, consumer_id: u64, segment: u32) {
    let mut regs = p.read_regs.borrow_mut();
    let Entry::Occupied(mut hold) = regs.entry((segment, consumer_id)) else {
        return;
    };
    hold.get_mut().1 -= 1;
    if hold.get().1 > 0 {
        return;
    }
    let (mr, _) = hold.remove();
    if regs.keys().any(|&(s, _)| s == segment) {
        return;
    }
    nic.dereg_mr(&mr);
    let cap = p
        .log
        .segment(segment)
        .map_or(0, |s| u64::from(s.capacity()));
    metrics
        .registered_bytes
        .set(metrics.registered_bytes.get().saturating_sub(cap));
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdstorage::{Log, LogConfig};
    use kdwire::BrokerAddr;
    use netsim::profile::Profile;
    use netsim::Fabric;

    fn setup() -> (RNic, Metrics, Rc<Partition>) {
        let f = Fabric::new(Profile::fast_test());
        let node = f.add_node("b");
        let nic = RNic::new(&node);
        let p = Partition::with_log(
            TopicPartition::new("t", 0),
            Log::new(LogConfig {
                segment_size: 4096,
                max_batch_size: 2048,
            }),
            BrokerAddr {
                node: 0,
                port: 1,
                rdma_port: 2,
            },
            vec![],
            true,
            0,
        );
        (nic, Metrics::new(&kdtelem::Registry::new()), p)
    }

    fn append(p: &Partition, n: usize, size: usize) {
        let records = vec![kdstorage::Record::value(vec![7u8; size]); n];
        let batch = kdstorage::record::encode_batch(1, &records).unwrap();
        p.log.append_batch(&batch).unwrap();
        p.recompute_hw();
    }

    #[test]
    fn slot_alloc_packs_and_reuses() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, _p) = setup();
            let module = ConsumeModule::default();
            let tp = TopicPartition::new("t", 0);
            let (c, i0) = module.alloc_slot(&nic, &m, 9, &tp, 0).unwrap();
            let (_, i1) = module.alloc_slot(&nic, &m, 9, &tp, 1).unwrap();
            assert_eq!((i0, i1), (0, 1));
            assert_eq!(c.active_span(), 2);
            // Same file again: same slot.
            let (_, again) = module.alloc_slot(&nic, &m, 9, &tp, 0).unwrap();
            assert_eq!(again, 0);
            // Free the first; next alloc takes the hole.
            module.free_slot(9, &tp, 0);
            assert_eq!(c.active_span(), 2, "slot 1 still active");
            let (_, i2) = module.alloc_slot(&nic, &m, 9, &tp, 2).unwrap();
            assert_eq!(i2, 0);
        });
    }

    #[test]
    fn slot_exhaustion_returns_none() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, _p) = setup();
            let module = ConsumeModule::default();
            let tp = TopicPartition::new("t", 0);
            for segment in 0..SLOTS_PER_CONSUMER as u32 {
                assert!(module.alloc_slot(&nic, &m, 9, &tp, segment).is_some());
            }
            let beyond = SLOTS_PER_CONSUMER as u32;
            assert!(module.alloc_slot(&nic, &m, 9, &tp, beyond).is_none());
        });
    }

    #[test]
    fn slot_view_follows_hw() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (_nic, _m, p) = setup();
            append(&p, 1, 100);
            let v = slot_view_for(&p, 0);
            assert!(v.mutable);
            assert_eq!(v.high_watermark, 1);
            assert_eq!(v.last_readable, p.log.head().committed_pos());
        });
    }

    #[test]
    fn sealed_fully_read_file_reports_immutable() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (_nic, _m, p) = setup();
            // Fill past one segment so it rolls.
            for _ in 0..8 {
                append(&p, 1, 900);
            }
            assert!(p.log.segment_count() >= 2);
            let v0 = slot_view_for(&p, 0);
            assert!(!v0.mutable, "sealed + fully replicated");
            assert_eq!(v0.last_readable, p.log.segment(0).unwrap().committed_pos());
            let vh = slot_view_for(&p, p.log.head_index());
            assert!(vh.mutable);
        });
    }

    /// One registration per segment, however many consumers hold it; it
    /// goes with its last holder's release, and a release by a consumer
    /// that holds nothing drops nothing.
    #[test]
    fn register_release_refcount() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, p) = setup();
            append(&p, 1, 64);
            let mr1 = register_read(&nic, &m, &p, 1, 0);
            let mr2 = register_read(&nic, &m, &p, 2, 0);
            assert_eq!(mr1.rkey(), mr2.rkey(), "same registration shared");
            assert_eq!(m.registered_bytes.get(), 4096);
            for _ in 0..2 {
                release_read(&nic, &m, &p, 3, 0);
            }
            assert!(mr1.is_valid(), "a stranger's release drops nothing");
            release_read(&nic, &m, &p, 1, 0);
            release_read(&nic, &m, &p, 1, 0);
            assert!(mr1.is_valid(), "still one reader");
            release_read(&nic, &m, &p, 2, 0);
            assert!(!mr1.is_valid(), "deregistered with its last holder");
            assert_eq!(m.registered_bytes.get(), 0);
        });
    }

    #[test]
    fn update_partition_slots_writes_bytes() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, p) = setup();
            append(&p, 1, 64);
            let module = ConsumeModule::default();
            let (c, idx) = module.alloc_slot(&nic, &m, 7, &p.tp, 0).unwrap();
            p.slot_refs.borrow_mut().push(SlotRef {
                consumer_id: 7,
                slot: idx,
                segment: 0,
            });
            module.refresh_slots(&p, &m);
            let view = SlotView::decode(&c.buf.read_at(idx * SLOT_SIZE, SLOT_SIZE));
            assert_eq!(view.high_watermark, 1);
            assert!(view.mutable);
            assert_eq!(m.slot_updates.get(), 1);
        });
    }
}
