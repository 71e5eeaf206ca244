//! The RDMA consume module (paper Fig 2 ➑, §4.4.2): read registration of
//! segment files and the per-consumer metadata-slot regions (Fig 9).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use kdstorage::TopicPartition;
use kdwire::slots::{SlotView, SLOTS_PER_CONSUMER, SLOT_SIZE};
use rnic::{Access, MemoryRegion, RNic, ShmBuf};

use crate::data::Partition;
use crate::metrics::Metrics;

/// A segment registered for consumer reads, reference-counted across
/// consumers.
pub struct RegSeg {
    pub mr: MemoryRegion,
    pub refs: Cell<usize>,
}

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
    pub assigns: RefCell<Vec<Option<(TopicPartition, u32)>>>,
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

/// The consume module: consumer slot regions.
#[derive(Default)]
pub struct ConsumeModule {
    consumers: RefCell<HashMap<u64, Rc<ConsumerSlots>>>,
}

impl ConsumeModule {
    /// Gets (or creates + registers) a consumer's slot region.
    pub fn consumer(&self, nic: &RNic, metrics: &Metrics, consumer_id: u64) -> Rc<ConsumerSlots> {
        if let Some(c) = self.consumers.borrow().get(&consumer_id) {
            return Rc::clone(c);
        }
        let buf = ShmBuf::zeroed(SLOTS_PER_CONSUMER * SLOT_SIZE);
        let mr = nic.reg_mr(buf.clone(), Access::REMOTE_READ);
        metrics.add(&metrics.registered_bytes, buf.len() as u64);
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
    pub fn alloc_slot(
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
    pub fn free_slot(&self, consumer_id: u64, tp: &TopicPartition, segment: u32) {
        if let Some(c) = self.consumers.borrow().get(&consumer_id) {
            let mut assigns = c.assigns.borrow_mut();
            for a in assigns.iter_mut() {
                if a.as_ref() == Some(&(tp.clone(), segment)) {
                    *a = None;
                }
            }
        }
    }

    pub fn get(&self, consumer_id: u64) -> Option<Rc<ConsumerSlots>> {
        self.consumers.borrow().get(&consumer_id).cloned()
    }
}

/// Computes the slot contents for `segment` of `p`: the last readable byte
/// (replication high watermark position) and whether more bytes may still
/// become readable in this file.
pub fn slot_view_for(p: &Partition, segment: u32) -> SlotView {
    let hwp = p.log.high_watermark_position();
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

/// Refreshes every metadata slot attached to `p` (called when the high
/// watermark advances or a file seals).
pub fn update_partition_slots(p: &Partition, module: &ConsumeModule, metrics: &Metrics) {
    let refs = p.slot_refs.borrow().clone();
    for r in refs {
        if let Some(c) = module.get(r.consumer_id) {
            let view = slot_view_for(p, r.segment);
            c.buf.write_at(r.slot * SLOT_SIZE, &view.encode());
            metrics.add(&metrics.slot_updates, 1);
        }
    }
}

/// Registers `segment` of `p` for RDMA reads (refcounted).
pub fn register_read(
    nic: &RNic,
    metrics: &Metrics,
    p: &Partition,
    segment: u32,
) -> MemoryRegion {
    let mut regs = p.read_regs.borrow_mut();
    if let Some(r) = regs.get(&segment) {
        r.refs.set(r.refs.get() + 1);
        return r.mr.clone();
    }
    let seg = p.log.segment(segment).expect("segment exists");
    let mr = nic.reg_mr(seg.shared_buf(), Access::REMOTE_READ);
    metrics.add(&metrics.registered_bytes, seg.capacity() as u64);
    regs.insert(
        segment,
        RegSeg {
            mr: mr.clone(),
            refs: Cell::new(1),
        },
    );
    mr
}

/// Drops one reference to a registered segment, deregistering at zero
/// ("unregistered from RDMA access to reduce memory usage", §4.4.2).
pub fn release_read(nic: &RNic, metrics: &Metrics, p: &Partition, segment: u32) {
    let mut regs = p.read_regs.borrow_mut();
    let remove = match regs.get(&segment) {
        Some(r) => {
            r.refs.set(r.refs.get().saturating_sub(1));
            r.refs.get() == 0
        }
        None => false,
    };
    if remove {
        let r = regs.remove(&segment).unwrap();
        nic.dereg_mr(&r.mr);
        let cap = p
            .log
            .segment(segment)
            .map_or(0, |s| u64::from(s.capacity()));
        metrics
            .registered_bytes
            .set(metrics.registered_bytes.get().saturating_sub(cap));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdstorage::LogConfig;
    use kdwire::BrokerAddr;
    use netsim::profile::Profile;
    use netsim::Fabric;

    fn setup() -> (RNic, Metrics, Rc<Partition>) {
        let f = Fabric::new(Profile::fast_test());
        let node = f.add_node("b");
        let nic = RNic::new(&node);
        let p = Partition::new(
            TopicPartition::new("t", 0),
            LogConfig {
                segment_size: 4096,
                max_batch_size: 2048,
            },
            BrokerAddr {
                node: 0,
                port: 1,
                rdma_port: 2,
            },
            vec![],
            true,
            0,
        );
        (nic, Metrics::default(), p)
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

    #[test]
    fn register_release_refcount() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (nic, m, p) = setup();
            append(&p, 1, 64);
            let mr1 = register_read(&nic, &m, &p, 0);
            let mr2 = register_read(&nic, &m, &p, 0);
            assert_eq!(mr1.rkey(), mr2.rkey(), "same registration shared");
            assert_eq!(m.registered_bytes.get(), 4096);
            release_read(&nic, &m, &p, 0);
            assert!(mr1.is_valid(), "still one reader");
            release_read(&nic, &m, &p, 0);
            assert!(!mr1.is_valid(), "deregistered at zero refs");
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
            update_partition_slots(&p, &module, &m);
            let view = SlotView::decode(&c.buf.read_at(idx * SLOT_SIZE, SLOT_SIZE));
            assert_eq!(view.high_watermark, 1);
            assert!(view.mutable);
            assert_eq!(m.slot_updates.get(), 1);
        });
    }
}
