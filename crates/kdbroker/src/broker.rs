//! Broker assembly: wires the network modules, worker pool, RDMA modules,
//! and data management together (paper Fig 2) and exposes the public handle.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use kdwire::{BrokerAddr, PartitionMeta, RemoteRegion, RpcClient};
use netsim::profile::Profile;
use netsim::NodeHandle;
use rnic::{CompletionQueue, QpOptions, QueuePair, RNic, SendWr, ShmBuf, WorkRequest};
use sim::sync::HandoffQueue;

use crate::busy::ServicePool;
use crate::config::{BrokerConfig, Transport};
use crate::data::PartitionStore;
use crate::metrics::{BrokerTelem, Metrics, MetricsSnapshot};
use crate::rdma_consume::ConsumeModule;
use crate::rdma_produce::ProduceModule;
use crate::requests::{CommitItem, WorkItem};

/// An RDMA-writable consumer-offset slot (buffer + its registration).
pub type OffsetSlot = (rnic::ShmBuf, rnic::MemoryRegion);

/// Depth of the pre-allocated ack-buffer ring. Must exceed the number of
/// ack WRs that can be in flight at once, which is bounded by CQ capacity.
const ACK_RING_DEPTH: usize = 1024;
/// Capacity of the produce module's receive CQ and of the ack send CQ.
const CQ_CAPACITY: usize = 8192;

/// One partition's raw segment images as `(base_offset, bytes)` — the
/// "disk" that survives a broker crash (see [`Broker::durable_state`]). In
/// memory mode these are the live shared buffers; in tiered mode they are
/// read back from the segment files, so only synced bytes survive.
pub type SegmentBuffers = Vec<(u64, ShmBuf)>;

/// Lazily-created loopback QP the broker uses to issue atomics to itself
/// (§4.2.2: a TCP produce into a shared file "needs to reserve a memory
/// region by issuing an RDMA atomic to itself").
pub struct SelfRdma {
    qp: QueuePair,
    send_cq: CompletionQueue,
    lock: sim::sync::Mutex<()>,
}

/// Shared state of one broker. Module code receives `Rc<BrokerInner>`.
pub struct BrokerInner {
    pub node: NodeHandle,
    pub me: BrokerAddr,
    pub config: BrokerConfig,
    pub profile: Rc<Profile>,
    pub nic: RNic,
    pub metrics: Metrics,
    pub telem: BrokerTelem,
    pub store: PartitionStore,
    /// The shared request queue: work items on their way from a network
    /// module to the API workers, and the workers parked for them.
    pub requests: HandoffQueue<WorkItem>,
    pub net_pool: ServicePool,
    /// Every broker of the cluster, sorted by node id; `peers[0]` acts as
    /// the controller.
    pub peers: Vec<BrokerAddr>,
    peer_clients: RefCell<HashMap<u32, RpcClient>>,
    pub offsets: RefCell<HashMap<(String, String, u32), u64>>,
    /// EXTENSION (§5.4 future work): RDMA-writable offset slots keyed by
    /// (group, topic, partition). `u64::MAX` = nothing committed.
    pub offset_slots: RefCell<HashMap<(String, String, u32), OffsetSlot>>,
    /// Accepted produce/replication QPs by QP number (ack routing).
    pub produce_qps: RefCell<HashMap<u32, QueuePair>>,
    /// Consumer QPs are held only to keep them alive; they never generate
    /// broker-side work.
    pub consume_qps: RefCell<Vec<QueuePair>>,
    /// Shared receive CQ of the RDMA produce module (§4.1).
    pub recv_cq: CompletionQueue,
    /// Send CQ for (unsignaled) acks.
    pub ack_send_cq: CompletionQueue,
    /// Round-robin ring of pre-allocated ack buffers
    /// ([`kdwire::encode_ack`]'s bytes). An ack is a tiny unsignaled Send; by
    /// the time the ring wraps, the earlier WR has long since executed, so
    /// slots can be reused without tracking completions.
    pub ack_ring: Vec<ShmBuf>,
    pub ack_ring_next: Cell<usize>,
    /// Emptied [`CommitRun`](crate::requests::CommitRun) vectors: a worker
    /// hands back what a poller took for a run of two or more.
    pub run_pool: RefCell<Vec<Vec<CommitItem>>>,
    pub produce_module: ProduceModule,
    pub consume_module: ConsumeModule,
    self_rdma: RefCell<Option<Rc<SelfRdma>>>,
    /// False once the broker process has "crashed"; long-lived tasks check
    /// it and exit.
    pub alive: Cell<bool>,
    /// Broadcast on crash to wake tasks parked on network reads.
    pub shutdown: sim::sync::Notify,
    /// Leader-side push-replication QPs (failed on crash so followers see
    /// the disconnect).
    pub repl_qps: RefCell<Vec<QueuePair>>,
    /// Virtual-time time-series recorder; `Some` only when
    /// `config.observe` is set. Served over `Request::Series`.
    pub series: Option<kdtelem::SeriesLog>,
    /// Health watchdog (stall / MTTR detection); `Some` only when
    /// `config.observe` is set. Served over `Request::Health`.
    pub watchdog: Option<kdtelem::Watchdog>,
}

impl BrokerInner {
    /// The 11 µs queue transfer to the API workers, overlapped across
    /// requests: the workers see `item` `cpu.handoff` from now.
    pub fn hand_off(&self, item: WorkItem) {
        self.requests.push(sim::now() + self.profile.cpu.handoff, item);
    }

    /// Lazily connects (and caches) an RPC client to a peer broker.
    pub async fn peer_client(&self, addr: BrokerAddr) -> Option<RpcClient> {
        if let Some(c) = self.peer_clients.borrow().get(&addr.node) {
            if !c.is_dead() {
                return Some(c.clone());
            }
        }
        let stream = netsim::tcp::connect(&self.node, netsim::NodeId(addr.node), addr.port)
            .await
            .ok()?;
        let client = RpcClient::new(stream);
        self.peer_clients
            .borrow_mut()
            .insert(addr.node, client.clone());
        Some(client)
    }

    /// Issues a fetch-and-add to this broker's own NIC (loopback RC QP) and
    /// returns the old value.
    pub async fn self_faa(&self, region: RemoteRegion, add: u64) -> Option<u64> {
        let s = self.ensure_self_rdma().await?;
        let _guard = s.lock.lock().await;
        let result = ShmBuf::zeroed(8);
        let faa = WorkRequest::FetchAdd {
            local: result.as_slice(),
            remote_addr: region.addr,
            rkey: region.rkey,
            add,
        };
        s.qp.post_send(SendWr::new(0, faa)).ok()?;
        let cqe = s.send_cq.next().await?;
        if !cqe.ok() {
            return None;
        }
        cqe.atomic_old.or_else(|| Some(result.read_u64(0)))
    }

    async fn ensure_self_rdma(&self) -> Option<Rc<SelfRdma>> {
        if let Some(s) = self.self_rdma.borrow().clone() {
            return Some(s);
        }
        let send_cq = self.nic.create_cq(64);
        let recv_cq = self.nic.create_cq(64);
        let qp = self
            .nic
            .connect(
                self.node.id,
                self.config.rdma_port + crate::rdma_net::PRODUCE_PORT_OFF,
                send_cq.clone(),
                recv_cq,
                QpOptions::default(),
            )
            .await
            .ok()?;
        let s = Rc::new(SelfRdma {
            qp,
            send_cq,
            lock: sim::sync::Mutex::new(()),
        });
        // Another task may have raced us; keep the first.
        Some(Rc::clone(self.self_rdma.borrow_mut().get_or_insert(s)))
    }
}

/// A running broker.
#[derive(Clone)]
pub struct Broker {
    inner: Rc<BrokerInner>,
}

impl Broker {
    /// Starts a broker on `node`. `peers` must list every broker of the
    /// cluster (including this one) with identical ordering everywhere;
    /// `peers[0]` is the controller.
    pub fn start(node: &NodeHandle, config: BrokerConfig, peers: Vec<BrokerAddr>) -> Broker {
        let mut peers = peers;
        peers.sort_by_key(|p| p.node);
        // The caller's contract: `peers` lists this broker too.
        let me = *peers
            .iter()
            .find(|p| p.node == node.id.0)
            .expect("this broker must be in the peer list");
        assert_eq!(me.port, config.tcp_port, "peer list port mismatch");
        let profile = node.profile();
        let nic = RNic::new(node);
        let recv_cq = nic.create_cq(CQ_CAPACITY);
        let ack_send_cq = nic.create_cq(CQ_CAPACITY);
        let registry = kdtelem::current();
        let metrics = Metrics::new(&registry);
        let net_pool = ServicePool::with_counter(
            config.net_threads,
            profile.cpu.wakeup,
            metrics.net_busy_ns.clone(),
        );
        let telem = BrokerTelem::new(&registry);
        // Continuous telemetry rides on the broker's (ambient) registry:
        // the sampler snapshots every instrument on the virtual-time wheel;
        // the watchdog declares a stall when the datapath stops making
        // progress for a budget of virtual time. Both default OFF — a
        // broker without `observe` runs bit-identically to before.
        let (series, watchdog) = match &config.observe {
            Some(o) => {
                let series = kdtelem::Sampler::start(
                    &telem.registry,
                    kdtelem::SeriesOptions {
                        interval: o.sample_interval,
                        ..Default::default()
                    },
                );
                let watchdog = kdtelem::Watchdog::start(&telem.registry, Default::default());
                (Some(series), Some(watchdog))
            }
            None => (None, None),
        };
        let inner = Rc::new(BrokerInner {
            node: node.clone(),
            me,
            profile: Rc::clone(&profile),
            nic,
            metrics,
            telem,
            store: PartitionStore::default(),
            requests: HandoffQueue::new(profile.cpu.wakeup),
            net_pool,
            peers,
            peer_clients: RefCell::new(HashMap::new()),
            offsets: RefCell::new(HashMap::new()),
            offset_slots: RefCell::new(HashMap::new()),
            produce_qps: RefCell::new(HashMap::new()),
            consume_qps: RefCell::new(Vec::new()),
            recv_cq,
            ack_send_cq,
            ack_ring: (0..ACK_RING_DEPTH).map(|_| ShmBuf::zeroed(kdwire::ACK_SIZE)).collect(),
            ack_ring_next: Cell::new(0),
            run_pool: RefCell::new(Vec::new()),
            produce_module: ProduceModule::default(),
            consume_module: ConsumeModule::default(),
            self_rdma: RefCell::new(None),
            alive: Cell::new(true),
            shutdown: sim::sync::Notify::new(),
            repl_qps: RefCell::new(Vec::new()),
            series,
            watchdog,
            config,
        });

        // Front ends.
        crate::server_tcp::start(&inner);
        if inner.config.transport == Transport::RdmaSendRecv {
            crate::server_osu::start(&inner);
        }
        if inner.config.rdma.any() || inner.config.transport == Transport::RdmaSendRecv {
            crate::rdma_net::start(&inner);
        }
        // Worker pool.
        for _ in 0..inner.config.api_workers {
            let b = Rc::clone(&inner);
            sim::spawn(async move { crate::dispatch::worker_loop(b).await });
        }
        // The file tier's every-N-ms flusher. Memory mode has none —
        // schedules stay bit-identical to the pre-durability broker.
        let sync = inner.config.storage.as_ref().map(|s| s.sync);
        if let Some(kdstorage::SyncMode::EveryMs(ms)) = sync {
            let b = Rc::clone(&inner);
            sim::spawn(async move { crate::common::flusher_loop(b, ms).await });
        }
        Broker { inner }
    }

    pub fn addr(&self) -> BrokerAddr {
        self.inner.me
    }

    pub fn node_id(&self) -> netsim::NodeId {
        self.inner.node.id
    }

    /// The broker's shared state, for harnesses and tests that install
    /// partitions directly or inspect the log, the NIC and the queues.
    pub fn inner(&self) -> &Rc<BrokerInner> {
        &self.inner
    }

    /// Telemetry snapshot, including network-thread busy time (fed live into
    /// the metrics registry by the broker's `ServicePool`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// One-sided RDMA traffic served by this broker's NIC (no CPU).
    pub fn nic_stats(&self) -> rnic::NicStats {
        self.inner.nic.stats()
    }

    /// True until [`crash`](Self::crash) is called.
    pub fn is_alive(&self) -> bool {
        self.inner.alive.get()
    }

    /// Simulates a broker process crash: listeners unbind, the worker pool
    /// dies, and every RDMA endpoint fails so peers (producers, consumers,
    /// push leaders) observe RC disconnects — exactly what a dying host's
    /// NIC produces. Volatile state freezes; the segment buffers (the
    /// "disk") survive and can be harvested with
    /// [`durable_state`](Self::durable_state) for a restarted broker.
    pub fn crash(&self) {
        let b = &self.inner;
        if !b.alive.get() {
            return;
        }
        b.alive.set(false);
        // The observability tasks belong to this broker process: they die
        // with it (a restarted broker starts fresh ones).
        if let Some(s) = &b.series {
            s.stop();
        }
        if let Some(w) = &b.watchdog {
            w.stop();
        }
        // Stop accepting new connections on every front end.
        netsim::tcp::unbind(&b.node, b.config.tcp_port);
        for off in [
            crate::rdma_net::PRODUCE_PORT_OFF,
            crate::rdma_net::OSU_PORT_OFF,
            crate::rdma_net::CONSUME_PORT_OFF,
        ] {
            rnic::cm::unbind(&b.nic, b.config.rdma_port + off);
        }
        // Kill the worker pool; queued requests die unanswered (clients see
        // the connection drop, never a fabricated reply).
        b.requests.close();
        for (_, qp) in b.produce_qps.borrow_mut().drain() {
            qp.close();
        }
        for qp in b.consume_qps.borrow_mut().drain(..) {
            qp.close();
        }
        for qp in b.repl_qps.borrow_mut().drain(..) {
            qp.close();
        }
        if let Some(s) = b.self_rdma.borrow_mut().take() {
            s.qp.close();
        }
        // Revoke surviving grants (deregistering their MRs) and wake parked
        // replication tasks so they observe death and exit.
        for p in b.store.local_partitions() {
            let grant = p.grant.borrow().clone();
            if let Some(g) = grant.filter(|g| !g.closed.get()) {
                crate::rdma_produce::revoke_grant(b, &p, &g, kdwire::ErrorCode::Internal);
            }
            p.announce_leo();
        }
        // Wake connection readers parked on the TCP front end.
        b.shutdown.notify_waiters();
    }

    /// Harvests the surviving "disk": every hosted partition's raw segment
    /// images, sorted by topic partition. Usable before or after `crash`;
    /// the buffers stay valid (and shared) after the broker object is gone.
    ///
    /// Memory mode hands out the live shared buffers (the historical
    /// model: RAM is the durable medium). Tiered mode reads the images
    /// back from the segment files — a machine crash keeps only what a
    /// sync point made durable, and torn-write faults that garbled file
    /// bytes are faithfully visible to recovery.
    pub fn durable_state(&self) -> Vec<(kdstorage::TopicPartition, SegmentBuffers)> {
        let mut out: Vec<_> = self
            .inner
            .store
            .local_partitions()
            .into_iter()
            .map(|p| {
                let bufs = match p.log.store() {
                    Some(store) => store
                        .durable_snapshot()
                        .into_iter()
                        .map(|(base, bytes)| (base, ShmBuf::from_vec(bytes)))
                        .collect(),
                    None => (0..=p.log.head_index())
                        .filter_map(|i| {
                            p.log
                                .segment(i)
                                .map(|s| (s.base_offset(), s.shared_buf()))
                        })
                        .collect(),
                };
                (p.tp.clone(), bufs)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Fault hook: garble the last `k` durable bytes of the active segment
    /// file of every hosted partition (torn-write injection). Returns total
    /// bytes garbled — zero on memory-mode brokers.
    pub fn garble_storage_tail(&self, k: u32) -> u64 {
        self.inner
            .store
            .local_partitions()
            .into_iter()
            .map(|p| p.log.garble_active_tail(k))
            .sum()
    }

    /// Installs a partition recovered from pre-crash segment buffers; used
    /// by the harness right after `start` when restarting a crashed broker.
    pub fn install_recovered(
        &self,
        topic: &str,
        partition: u32,
        epoch: u64,
        leader: BrokerAddr,
        replicas: Vec<BrokerAddr>,
        buffers: SegmentBuffers,
    ) {
        let meta = PartitionMeta { partition, epoch, leader, replicas };
        crate::admin::install(&self.inner, topic, meta, Some(buffers));
    }
}
