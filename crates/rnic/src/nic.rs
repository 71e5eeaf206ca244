//! The per-node RDMA device and the fabric-global device registry.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use std::time::Duration;

use netsim::bind::BindTable;
use netsim::profile::NetProfile;
use netsim::{Fabric, NodeHandle};

use crate::cq::CompletionQueue;
use crate::engine::Engine;
use crate::mr::{Access, MemoryRegion, MrInner, ShmBuf};
use crate::verbs::RecvWr;

/// Modeled NIC memory held by one posted receive WQE, beyond its data
/// buffer (the WQE itself plus scatter-gather bookkeeping). Used for the
/// receive-buffer accounting behind the connection-scaling sweeps: per-QP
/// receive posting costs `clients × depth × (WQE_BYTES + buf)`, an SRQ
/// costs `srq_depth × (WQE_BYTES + buf)` regardless of client count.
pub const WQE_BYTES: u64 = 128;

/// The `rnic *` cells of one fabric. No device, CQ or SRQ reads one back, so
/// they are registered once here and every such object records into these —
/// the registry does not grow with connections, and `cq.depth` / `srq.depth`
/// are the occupancy of all queues together, with that aggregate's peak.
pub(crate) struct Telem {
    // Work-request post rate and post→completion latency across every QP.
    pub(crate) qp_posts: kdtelem::Counter,
    pub(crate) one_sided_in: kdtelem::Counter,
    pub(crate) post_to_comp_ns: kdtelem::Histogram,
    // CQ occupancy and total CQEs delivered (the overflow-risk signal of
    // §4.3.2).
    pub(crate) cq_depth: kdtelem::Gauge,
    pub(crate) cq_cqes: kdtelem::Counter,
    pub(crate) cq_overflows: kdtelem::Counter,
    pub(crate) srq_posted: kdtelem::Counter,
    pub(crate) srq_stolen: kdtelem::Counter,
    pub(crate) srq_rnr_dry: kdtelem::Counter,
    pub(crate) srq_depth: kdtelem::Gauge,
    pub(crate) qp_rnr_dry: kdtelem::Counter,
}

impl Telem {
    fn register(telem: &kdtelem::Registry) -> Telem {
        Telem {
            qp_posts: telem.counter("rnic", "qp.posts"),
            one_sided_in: telem.counter("rnic", "qp.one_sided_in"),
            post_to_comp_ns: telem.histogram("rnic", "qp.post_to_comp_ns"),
            cq_depth: telem.gauge("rnic", "cq.depth"),
            cq_cqes: telem.counter("rnic", "cq.cqes"),
            cq_overflows: telem.counter("rnic", "cq.overflows"),
            srq_posted: telem.counter("rnic", "srq.posted"),
            srq_stolen: telem.counter("rnic", "srq.stolen_by_qp"),
            srq_rnr_dry: telem.counter("rnic", "srq.rnr_dry"),
            srq_depth: telem.gauge("rnic", "srq.depth"),
            qp_rnr_dry: telem.counter("rnic", "qp.rnr_dry"),
        }
    }
}

/// Fabric-global RDMA state: the connection-manager rendezvous table and
/// the cells a connect's reply comes back in, the work-request engine, the
/// id allocators and the telemetry cells. Stored as a [`Fabric`] extension.
pub(crate) struct Registry {
    pub(crate) telem: Telem,
    pub(crate) cm_listeners: BindTable<crate::cm::IncomingConnection>,
    pub(crate) cm_replies: sim::sync::oneshot::Pool<crate::qp::QueuePair>,
    /// The fabric's work-request engine. Weak: the engine's task owns it, so
    /// it (and every WR in flight) goes away with the runtime.
    engine: RefCell<Weak<Engine>>,
    next_vaddr: Cell<u64>,
    next_rkey: Cell<u32>,
    next_qpn: Cell<u32>,
}

impl Registry {
    fn new(fabric: &Fabric) -> Self {
        Registry {
            telem: Telem::register(fabric.telemetry()),
            cm_listeners: BindTable::default(),
            cm_replies: Default::default(),
            engine: RefCell::new(Weak::new()),
            // Start virtual addresses well away from zero so accidental
            // "offset used as address" bugs fault loudly.
            next_vaddr: Cell::new(0x0000_7f00_0000_0000),
            next_rkey: Cell::new(1),
            next_qpn: Cell::new(1),
        }
    }

    pub(crate) fn get(fabric: &Fabric) -> Rc<Registry> {
        fabric.extension(|| Registry::new(fabric))
    }

    /// The fabric's engine, started on first use.
    pub(crate) fn engine(&self) -> Rc<Engine> {
        let mut slot = self.engine.borrow_mut();
        slot.upgrade().unwrap_or_else(|| {
            let engine = Engine::spawn();
            *slot = Rc::downgrade(&engine);
            engine
        })
    }

    pub(crate) fn alloc_vaddr(&self, len: u64) -> u64 {
        let base = self.next_vaddr.get();
        // 4 KiB guard gap between regions: off-by-one across region ends
        // must fault rather than silently touch a neighbour.
        self.next_vaddr.set(base + len + 4096);
        base
    }

    pub(crate) fn alloc_rkey(&self) -> u32 {
        let k = self.next_rkey.get();
        self.next_rkey.set(k + 1);
        k
    }

    pub(crate) fn alloc_qpn(&self) -> u32 {
        let q = self.next_qpn.get();
        self.next_qpn.set(q + 1);
        q
    }
}

pub(crate) struct NicInner {
    pub(crate) node: NodeHandle,
    pub(crate) registry: Rc<Registry>,
    /// rkey → region.
    pub(crate) mrs: RefCell<HashMap<u32, Rc<MrInner>>>,
    // Telemetry: one-sided traffic served by this NIC *without* CPU
    // involvement — the quantity §5.3's offload claims are about.
    pub(crate) writes_in: Cell<u64>,
    pub(crate) reads_served: Cell<u64>,
    pub(crate) atomics_served: Cell<u64>,
    pub(crate) sends_in: Cell<u64>,
    /// Resident QP contexts on this device: connected QPs that occupy a
    /// slot in the NIC's on-chip context cache. Multiplexed (DCT-style
    /// lent) QPs do not count — their pinned pool is charged once via
    /// [`NicInner::pin_contexts`]. Drives the connection-count cache-knee
    /// penalty ([`NicInner::cache_penalty`]).
    pub(crate) qp_contexts: Cell<u64>,
    pub(crate) qp_contexts_peak: Cell<u64>,
    /// Bytes of posted receive state on this device (WQEs + data buffers,
    /// per-QP queues and SRQs combined) — the quantity the fan-in sweep
    /// asserts is O(1) in client count under an SRQ.
    pub(crate) recv_wr_bytes: Cell<u64>,
    pub(crate) recv_wr_bytes_peak: Cell<u64>,
}

impl NicInner {
    /// Looks up a live region by rkey.
    pub(crate) fn find_mr(&self, rkey: u32) -> Option<Rc<MrInner>> {
        self.mrs
            .borrow()
            .get(&rkey)
            .filter(|mr| mr.valid.get())
            .cloned()
    }

    /// Pins `n` QP contexts on the device (QP creation, or a multiplexed
    /// pool reserving its lending QPs up front).
    pub(crate) fn pin_contexts(&self, n: u64) {
        let v = self.qp_contexts.get() + n;
        self.qp_contexts.set(v);
        if v > self.qp_contexts_peak.get() {
            self.qp_contexts_peak.set(v);
        }
    }

    /// Releases `n` pinned QP contexts (QP teardown).
    pub(crate) fn unpin_contexts(&self, n: u64) {
        self.qp_contexts.set(self.qp_contexts.get().saturating_sub(n));
    }

    /// NIC memory one posted receive holds: its WQE plus its data buffer.
    fn recv_footprint(wr: &RecvWr) -> u64 {
        WQE_BYTES + wr.buf.as_ref().map_or(0, |b| b.len() as u64)
    }

    pub(crate) fn recv_buf_add(&self, wr: &RecvWr) {
        let v = self.recv_wr_bytes.get() + Self::recv_footprint(wr);
        self.recv_wr_bytes.set(v);
        if v > self.recv_wr_bytes_peak.get() {
            self.recv_wr_bytes_peak.set(v);
        }
    }

    pub(crate) fn recv_buf_sub(&self, wr: &RecvWr) {
        self.recv_wr_bytes
            .set(self.recv_wr_bytes.get().saturating_sub(Self::recv_footprint(wr)));
    }

    /// Fraction of this device's ops that miss the QP-context cache:
    /// `(resident - capacity) / resident` once resident contexts exceed
    /// the profile's `nic_cache_qps`, else 0. Deterministic — a pure
    /// function of the connection count, no randomness.
    pub(crate) fn cache_miss_rate(&self, net: &NetProfile) -> f64 {
        let cap = net.nic_cache_qps;
        if cap == 0 {
            return 0.0;
        }
        let n = self.qp_contexts.get();
        if n <= cap {
            0.0
        } else {
            (n - cap) as f64 / n as f64
        }
    }

    /// Extra per-op port occupancy from QP-context cache misses: the
    /// profile's full-miss cost scaled by the current miss rate. Charged
    /// on this NIC's port for every verbs op it initiates or serves, so
    /// past the knee the whole device — not one QP — slows down, which is
    /// what RDMAvisor §2 measures.
    pub(crate) fn cache_penalty(&self, net: &NetProfile) -> Duration {
        let miss = self.cache_miss_rate(net);
        if miss == 0.0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((net.qp_cache_miss.as_nanos() as f64 * miss) as u64)
        }
    }
}

/// Telemetry snapshot of a NIC's one-sided service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    pub writes_in: u64,
    pub reads_served: u64,
    pub atomics_served: u64,
    pub sends_in: u64,
}

/// An RDMA-capable NIC attached to one fabric node.
#[derive(Clone)]
pub struct RNic {
    pub(crate) inner: Rc<NicInner>,
}

impl RNic {
    /// Attaches an RNIC to `node`. One device per node is the usual setup
    /// (the testbed has a single ConnectX-4 per machine).
    pub fn new(node: &NodeHandle) -> RNic {
        let inner = Rc::new(NicInner {
            node: node.clone(),
            registry: Registry::get(&node.fabric),
            mrs: RefCell::new(HashMap::new()),
            writes_in: Cell::new(0),
            reads_served: Cell::new(0),
            atomics_served: Cell::new(0),
            sends_in: Cell::new(0),
            qp_contexts: Cell::new(0),
            qp_contexts_peak: Cell::new(0),
            recv_wr_bytes: Cell::new(0),
            recv_wr_bytes_peak: Cell::new(0),
        });
        RNic { inner }
    }

    pub fn node(&self) -> &NodeHandle {
        &self.inner.node
    }

    /// Registers `buf` for (remote) access — the `ibv_reg_mr` of §4.2.2.
    /// The returned region shares storage with `buf`: remote writes land in
    /// the caller's own memory.
    pub fn reg_mr(&self, buf: ShmBuf, access: Access) -> MemoryRegion {
        let registry = &self.inner.registry;
        let mr = Rc::new(MrInner {
            addr: registry.alloc_vaddr(buf.len() as u64),
            rkey: registry.alloc_rkey(),
            buf,
            access,
            node: self.inner.node.id,
            valid: Cell::new(true),
        });
        self.inner.mrs.borrow_mut().insert(mr.rkey, Rc::clone(&mr));
        MemoryRegion { inner: mr }
    }

    /// Deregisters a region. In-flight and future remote accesses fail with
    /// `RemoteAccessError` (breaking their QPs), as on hardware. This is how
    /// the broker "disables RDMA access to the file" when revoking a faulty
    /// client (§4.2.2) and how consumers release read files (§4.4.2).
    pub fn dereg_mr(&self, mr: &MemoryRegion) {
        mr.inner.valid.set(false);
        self.inner.mrs.borrow_mut().remove(&mr.inner.rkey);
    }

    /// Creates a completion queue of the given capacity.
    pub fn create_cq(&self, capacity: usize) -> CompletionQueue {
        CompletionQueue::with_capacity(capacity, Rc::clone(&self.inner.registry))
    }

    /// Resident QP contexts on this device right now (multiplexed QPs
    /// count only through their pool's pinned contexts).
    pub fn qp_contexts(&self) -> u64 {
        self.inner.qp_contexts.get()
    }

    /// Peak resident QP contexts ever on this device.
    pub fn qp_contexts_peak(&self) -> u64 {
        self.inner.qp_contexts_peak.get()
    }

    /// Bytes of posted receive state (WQEs + buffers) on this device now.
    pub fn recv_buffer_bytes(&self) -> u64 {
        self.inner.recv_wr_bytes.get()
    }

    /// Peak bytes of posted receive state ever on this device.
    pub fn recv_buffer_bytes_peak(&self) -> u64 {
        self.inner.recv_wr_bytes_peak.get()
    }

    /// Current modeled QP-context cache miss rate of this device under the
    /// fabric's profile (0 below the knee or with the model disabled).
    pub fn cache_miss_rate(&self) -> f64 {
        let profile = self.inner.node.fabric.profile();
        self.inner.cache_miss_rate(&profile.net)
    }

    /// Telemetry: one-sided operations served by this NIC.
    pub fn stats(&self) -> NicStats {
        NicStats {
            writes_in: self.inner.writes_in.get(),
            reads_served: self.inner.reads_served.get(),
            atomics_served: self.inner.atomics_served.get(),
            sends_in: self.inner.sends_in.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::profile::Profile;

    #[test]
    fn regions_get_unique_disjoint_vaddrs() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let n = f.add_node("a");
            let nic = RNic::new(&n);
            let m1 = nic.reg_mr(ShmBuf::zeroed(100), Access::all());
            let m2 = nic.reg_mr(ShmBuf::zeroed(100), Access::all());
            assert_ne!(m1.rkey(), m2.rkey());
            assert!(m2.addr() >= m1.addr() + 100 + 4096);
        });
    }

    #[test]
    fn dereg_invalidates() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let n = f.add_node("a");
            let nic = RNic::new(&n);
            let m = nic.reg_mr(ShmBuf::zeroed(8), Access::all());
            assert!(nic.inner.find_mr(m.rkey()).is_some());
            nic.dereg_mr(&m);
            assert!(!m.is_valid());
            assert!(nic.inner.find_mr(m.rkey()).is_none());
        });
    }
}
