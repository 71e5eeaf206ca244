//! The fabric: a registry of nodes ("machines") joined by a switch.
//!
//! Each node has an egress and an ingress NIC port ([`Link`]). A transfer
//! from A to B serialises on A's egress, crosses the switch (propagation
//! delay), then serialises on B's ingress. This reproduces the two real
//! contention points of an RDMA cluster — sender injection and receiver
//! delivery — without simulating the switch core (which is never the
//! bottleneck in the paper's experiments).

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Duration;

use sim::SimTime;

use crate::bind::BindTable;
use crate::link::{Link, LinkTelem};
use crate::profile::Profile;

/// Identifies a node on a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

pub(crate) struct Node {
    pub(crate) name: String,
    pub(crate) egress: Link,
    pub(crate) ingress: Link,
    /// Per-8-byte-address serialisation point for RDMA atomics (paper
    /// §4.2.2: single-counter atomics cap at 2.68 Mops/s).
    pub(crate) atomic_busy: RefCell<HashMap<u64, u64>>,
}

pub(crate) struct FabricInner {
    pub(crate) profile: Rc<Profile>,
    pub(crate) nodes: RefCell<Vec<Rc<Node>>>,
    pub(crate) tcp_listeners: BindTable<crate::tcp::TcpStream>,
    /// Directed node pairs whose TCP traffic is blackholed (network
    /// partition fault injection).
    pub(crate) blocked: RefCell<HashSet<(NodeId, NodeId)>>,
    /// Typed extension slots: higher layers (e.g. the RDMA device registry in
    /// the `rnic` crate) attach their fabric-global state here.
    pub(crate) extensions: RefCell<HashMap<TypeId, Rc<dyn Any>>>,
    // Telemetry for the per-address atomic rate limit (§4.2.2).
    pub(crate) atomic_ops: kdtelem::Counter,
    pub(crate) atomic_stalls: kdtelem::Counter,
    pub(crate) atomic_stall_ns: kdtelem::Histogram,
    /// The cells every port of this fabric records into.
    link_telem: LinkTelem,
    /// Registry captured at construction; per-link trace events (enqueue /
    /// deliver with queueing attribution) for transfers carrying an ambient
    /// [`kdtelem::TraceCtx`] go here.
    pub(crate) telem: kdtelem::Registry,
    /// Pooled MSS-sized packet buffers for TCP segmentation: steady-state
    /// traffic recycles chunks instead of allocating per packet.
    pub(crate) pkt_pool: kdbuf::Pool,
}

/// A handle to the whole simulated network. Cheap to clone.
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: Rc<FabricInner>,
}

impl Fabric {
    pub fn new(profile: Profile) -> Self {
        let telem = kdtelem::current();
        let pkt_pool = kdbuf::Pool::new(profile.net.tcp_mss as usize);
        Fabric {
            inner: Rc::new(FabricInner {
                profile: Rc::new(profile),
                nodes: RefCell::new(Vec::new()),
                tcp_listeners: BindTable::default(),
                blocked: RefCell::new(HashSet::new()),
                extensions: RefCell::new(HashMap::new()),
                atomic_ops: telem.counter("netsim", "atomic.ops"),
                atomic_stalls: telem.counter("netsim", "atomic.stalls"),
                atomic_stall_ns: telem.histogram("netsim", "atomic.stall_ns"),
                link_telem: LinkTelem::register(&telem),
                telem,
                pkt_pool,
            }),
        }
    }

    pub fn profile(&self) -> Rc<Profile> {
        Rc::clone(&self.inner.profile)
    }

    /// The telemetry registry that was ambient when the fabric was built;
    /// fabric-wide state of higher layers registers its cells here.
    pub fn telemetry(&self) -> &kdtelem::Registry {
        &self.inner.telem
    }

    /// The shared MSS-sized packet buffer pool used by TCP segmentation.
    pub fn packet_pool(&self) -> &kdbuf::Pool {
        &self.inner.pkt_pool
    }

    /// Adds a machine to the fabric.
    pub fn add_node(&self, name: &str) -> NodeHandle {
        let bw = self.inner.profile.net.link_bandwidth;
        let link = || Link::with_telem(bw, self.inner.link_telem.clone(), &self.inner.telem);
        let node = Rc::new(Node {
            name: name.to_string(),
            egress: link(),
            ingress: link(),
            atomic_busy: RefCell::new(HashMap::new()),
        });
        let mut nodes = self.inner.nodes.borrow_mut();
        let id = NodeId(nodes.len() as u32);
        nodes.push(node);
        NodeHandle {
            id,
            fabric: self.clone(),
        }
    }

    pub(crate) fn node(&self, id: NodeId) -> Rc<Node> {
        Rc::clone(&self.inner.nodes.borrow()[id.0 as usize])
    }

    pub fn node_name(&self, id: NodeId) -> String {
        self.inner.nodes.borrow()[id.0 as usize].name.clone()
    }

    /// Records the enqueue/deliver trace-event pair for one port traversal,
    /// attributing time spent queued behind earlier reservations.
    fn trace_hop(
        &self,
        ctx: kdtelem::TraceCtx,
        node: NodeId,
        egress: bool,
        bytes: u64,
        requested: SimTime,
        res: &crate::link::Reservation,
    ) {
        let queue_ns = res.start.as_nanos().saturating_sub(requested.as_nanos());
        self.inner.telem.record_trace_event(
            ctx,
            res.start.as_nanos(),
            kdtelem::EventKind::PacketEnqueued {
                node: node.0,
                egress,
                bytes,
                queue_ns,
            },
        );
        self.inner.telem.record_trace_event(
            ctx,
            res.end.as_nanos(),
            kdtelem::EventKind::PacketDelivered {
                node: node.0,
                egress,
                bytes,
            },
        );
    }

    /// Reserves the full src→dst path for one message at verbs goodput and
    /// returns its arrival time at dst. `min_occupancy` models the per-op
    /// initiation gap (message-rate limit) on both ports.
    pub fn reserve_path(
        &self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        min_occupancy: Duration,
    ) -> SimTime {
        self.reserve_path_with(now, src, dst, bytes, min_occupancy, min_occupancy)
    }

    /// As [`reserve_path`](Self::reserve_path) but with independent per-op
    /// occupancy on the two ports: `src_gap` on the sender's egress,
    /// `dst_gap` on the receiver's ingress. This is how per-endpoint NIC
    /// state costs (e.g. the QP-context cache miss penalty past the
    /// connection-count knee) are charged where they arise — a slow
    /// receiver NIC throttles its ingress without slowing the sender's
    /// egress injection.
    pub fn reserve_path_with(
        &self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        src_gap: Duration,
        dst_gap: Duration,
    ) -> SimTime {
        let p = &self.inner.profile.net;
        let total = bytes + p.header_bytes;
        let src_node = self.node(src);
        let dst_node = self.node(dst);
        let trace = kdtelem::current_ctx();
        let egress = src_node.egress.reserve(now, total, src_gap);
        if let Some(ctx) = trace {
            self.trace_hop(ctx, src, true, total, now, &egress);
        }
        if src == dst {
            // Loopback (e.g. a broker issuing an atomic to itself, §4.2.2)
            // still pays the NIC round trip but not ingress contention
            // against remote traffic on a second port.
            return egress.end + p.propagation;
        }
        let at_switch = egress.end + p.propagation;
        let ingress = dst_node.ingress.reserve(at_switch, total, dst_gap);
        if let Some(ctx) = trace {
            self.trace_hop(ctx, dst, false, total, at_switch, &ingress);
        }
        ingress.end
    }

    /// As [`reserve_path`](Self::reserve_path) but at TCP goodput.
    pub fn reserve_tcp_path(&self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        let p = &self.inner.profile.net;
        let bw = p.link_bandwidth * p.tcp_bandwidth_factor;
        let total = bytes + p.header_bytes;
        let src_node = self.node(src);
        let dst_node = self.node(dst);
        let trace = kdtelem::current_ctx();
        let egress = src_node.egress.reserve_at(now, total, bw, Duration::ZERO);
        if let Some(ctx) = trace {
            self.trace_hop(ctx, src, true, total, now, &egress);
        }
        if src == dst {
            return egress.end + p.propagation;
        }
        let at_switch = egress.end + p.propagation;
        let ingress = dst_node
            .ingress
            .reserve_at(at_switch, total, bw, Duration::ZERO);
        if let Some(ctx) = trace {
            self.trace_hop(ctx, dst, false, total, at_switch, &ingress);
        }
        ingress.end
    }

    /// Serialises an atomic on the target address: returns the execution
    /// time of an atomic arriving at `arrival`, enforcing the per-address
    /// rate limit.
    pub fn reserve_atomic(&self, node: NodeId, addr: u64, arrival: SimTime) -> SimTime {
        let p = &self.inner.profile.net;
        let node = self.node(node);
        let mut busy = node.atomic_busy.borrow_mut();
        let slot = busy.entry(addr & !7).or_insert(0);
        let start = arrival.as_nanos().max(*slot);
        let exec_done = start + p.atomic_exec.as_nanos() as u64;
        *slot = start + p.atomic_same_addr_gap.as_nanos() as u64;
        self.inner.atomic_ops.inc();
        if start > arrival.as_nanos() {
            self.inner.atomic_stalls.inc();
            self.inner
                .atomic_stall_ns
                .record(start - arrival.as_nanos());
        }
        SimTime::from_nanos(exec_done)
    }

    /// Telemetry: bytes carried by a node's ports `(egress, ingress)`.
    pub fn node_bytes(&self, id: NodeId) -> (u64, u64) {
        let n = self.node(id);
        (n.egress.bytes_carried(), n.ingress.bytes_carried())
    }

    // -----------------------------------------------------------------
    // Fault injection (consulted by the TCP path only; the verbs path
    // models a lossless fabric and is failed at the QP level instead).
    // -----------------------------------------------------------------

    /// Takes both of a node's ports down; its TCP traffic fails until
    /// [`set_node_up`](Self::set_node_up).
    pub fn set_node_down(&self, id: NodeId) {
        let n = self.node(id);
        n.egress.set_down();
        n.ingress.set_down();
    }

    /// Brings a node's ports back up.
    pub fn set_node_up(&self, id: NodeId) {
        let n = self.node(id);
        n.egress.set_up();
        n.ingress.set_up();
    }

    /// Blackholes TCP traffic between `a` and `b` in both directions.
    pub fn partition_pair(&self, a: NodeId, b: NodeId) {
        let mut blocked = self.inner.blocked.borrow_mut();
        blocked.insert((a, b));
        blocked.insert((b, a));
    }

    /// Heals a [`partition_pair`](Self::partition_pair).
    pub fn heal_pair(&self, a: NodeId, b: NodeId) {
        let mut blocked = self.inner.blocked.borrow_mut();
        blocked.remove(&(a, b));
        blocked.remove(&(b, a));
    }

    /// True when src→dst TCP traffic cannot flow: the pair is partitioned,
    /// or an endpoint port on the path is administratively down.
    pub fn path_blocked(&self, src: NodeId, dst: NodeId) -> bool {
        if self.inner.blocked.borrow().contains(&(src, dst)) {
            return true;
        }
        let nodes = self.inner.nodes.borrow();
        nodes[src.0 as usize].egress.is_down() || nodes[dst.0 as usize].ingress.is_down()
    }

    /// Arms a deterministic drop probability on `src`'s egress port (each
    /// drop costs the TCP path one retransmission timeout).
    pub fn set_tcp_drop(&self, src: NodeId, drop_p: f64, seed: u64) {
        self.node(src).egress.set_drop(drop_p, seed);
    }

    /// Arms a fixed extra delay on `src`'s egress port.
    pub fn set_tcp_delay(&self, src: NodeId, delay: Duration) {
        self.node(src).egress.set_delay(delay);
    }

    /// Clears drop/delay faults on both of a node's ports.
    pub fn clear_link_faults(&self, id: NodeId) {
        let n = self.node(id);
        n.egress.clear_faults();
        n.ingress.clear_faults();
    }

    /// Returns the fabric-global extension of type `T`, creating it with
    /// `init` on first access. Used by higher layers (e.g. the `rnic` crate's
    /// device registry) to share state across a fabric without netsim
    /// depending on them.
    pub fn extension<T: 'static>(&self, init: impl FnOnce() -> T) -> Rc<T> {
        let key = TypeId::of::<T>();
        // The entry under `TypeId::of::<T>()` is only ever a `T`.
        let found = self.inner.extensions.borrow().get(&key).cloned();
        if let Some(ext) = found.and_then(|ext| ext.downcast::<T>().ok()) {
            return ext;
        }
        let ext: Rc<T> = Rc::new(init());
        self.inner
            .extensions
            .borrow_mut()
            .insert(key, Rc::clone(&ext) as Rc<dyn Any>);
        ext
    }
}

/// A handle to one machine on the fabric. Cheap to clone.
#[derive(Clone)]
pub struct NodeHandle {
    pub id: NodeId,
    pub fabric: Fabric,
}

impl NodeHandle {
    pub fn name(&self) -> String {
        self.fabric.node_name(self.id)
    }

    pub fn profile(&self) -> Rc<Profile> {
        self.fabric.profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Profile, GIB};

    #[test]
    fn reserve_path_adds_propagation() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::testbed());
            let a = f.add_node("a");
            let b = f.add_node("b");
            let arrival = f.reserve_path(sim::now(), a.id, b.id, 0, Duration::ZERO);
            // header bytes only: tiny wire time + 600ns prop
            assert!(arrival.as_nanos() >= 600 && arrival.as_nanos() < 1000);
        });
    }

    #[test]
    fn parallel_senders_share_receiver_ingress() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::testbed());
            let a = f.add_node("a");
            let b = f.add_node("b");
            let c = f.add_node("c");
            let sz = GIB / 8; // ~128 MiB each
            let t1 = f.reserve_path(sim::now(), a.id, c.id, sz, Duration::ZERO);
            let t2 = f.reserve_path(sim::now(), b.id, c.id, sz, Duration::ZERO);
            // Two senders into one ingress: second arrival roughly doubles.
            let one = 1e9 * sz as f64 / (6.0 * GIB as f64);
            assert!((t1.as_nanos() as f64) > one * 0.99);
            assert!((t2.as_nanos() as f64) > one * 1.9, "t2={t2:?}");
        });
    }

    #[test]
    fn atomics_to_same_address_serialise_at_paper_rate() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::testbed());
            let a = f.add_node("a");
            let now = sim::now();
            let e1 = f.reserve_atomic(a.id, 4096, now);
            let e2 = f.reserve_atomic(a.id, 4096, now);
            let e3 = f.reserve_atomic(a.id, 4100, now); // same 8-byte word
            let other = f.reserve_atomic(a.id, 8192, now); // different word
            assert_eq!(e2.as_nanos() - e1.as_nanos(), 373);
            assert_eq!(e3.as_nanos() - e2.as_nanos(), 373);
            assert_eq!(other, e1);
        });
    }

    #[test]
    fn loopback_allowed() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::testbed());
            let a = f.add_node("a");
            let t = f.reserve_path(sim::now(), a.id, a.id, 64, Duration::ZERO);
            assert!(t.as_nanos() > 0);
        });
    }
}
