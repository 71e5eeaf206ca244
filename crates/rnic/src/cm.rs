//! Connection management: rendezvous between nodes to establish RC QPs.
//!
//! Real applications (and KafkaDirect, §4.2.2) exchange QP attributes over a
//! TCP control channel before moving to verbs; the model charges the same
//! connection-setup latency without simulating the exchange byte-by-byte.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use netsim::bind::Bound;
use netsim::NodeId;
use sim::sync::oneshot;

use crate::cq::CompletionQueue;
use crate::nic::{NicInner, RNic, Registry};
use crate::qp::{QpOptions, QueuePair};

/// A DCT-style QP-lending pool: a small, fixed set of broker-side QP
/// contexts multiplexed across many logical client connections.
///
/// The pool pins its `capacity` contexts on the device once, at creation;
/// connections accepted with [`QpOptions::multiplexed`] then borrow a
/// lending slot via [`MuxPool::lease`] instead of pinning a context each —
/// so the device's QP-context cache footprint stays O(pool), not
/// O(clients), and the cache-knee penalty never engages (Storm's
/// minimal-NIC-state design point). The connect/detach bookkeeping is what
/// real DC-transport implementations do in their CM: acquire on accept,
/// release on disconnect.
pub struct MuxPool {
    inner: Rc<MuxPoolInner>,
}

struct MuxPoolInner {
    nic: Rc<NicInner>,
    capacity: usize,
    active: Cell<usize>,
    // Registry-backed telemetry (`rnic qpmux.*`).
    acquires: kdtelem::Counter,
    releases: kdtelem::Counter,
    gauge: kdtelem::Gauge,
}

impl MuxPool {
    /// Creates a pool of `capacity` lending QPs on `nic`, pinning their
    /// NIC contexts up front.
    pub fn new(nic: &RNic, capacity: usize) -> MuxPool {
        assert!(capacity > 0);
        let telem = kdtelem::current();
        nic.inner.pin_contexts(capacity as u64);
        MuxPool {
            inner: Rc::new(MuxPoolInner {
                nic: Rc::clone(&nic.inner),
                capacity,
                active: Cell::new(0),
                acquires: telem.counter("rnic", "qpmux.lease_acquire"),
                releases: telem.counter("rnic", "qpmux.lease_release"),
                gauge: telem.gauge("rnic", "qpmux.active"),
            }),
        }
    }

    /// Borrows a lending slot for one logical connection. Dropping the
    /// lease (disconnect/detach) releases it. Leases are not a scarce
    /// resource — many logical connections time-share each lending QP, as
    /// with hardware DCTs — so this never blocks; `active()` reports the
    /// multiplexing degree.
    pub fn lease(&self) -> MuxLease {
        self.inner.acquires.inc();
        self.inner.active.set(self.inner.active.get() + 1);
        self.inner.gauge.add(1);
        MuxLease {
            pool: Rc::clone(&self.inner),
        }
    }

    /// Logical connections currently leased onto the pool.
    pub fn active(&self) -> usize {
        self.inner.active.get()
    }

    /// Lending QPs (pinned NIC contexts) in the pool.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

impl Drop for MuxPool {
    fn drop(&mut self) {
        self.inner.nic.unpin_contexts(self.inner.capacity as u64);
    }
}

/// One logical connection's borrow of a [`MuxPool`] lending slot; dropped
/// on disconnect.
pub struct MuxLease {
    pool: Rc<MuxPoolInner>,
}

impl Drop for MuxLease {
    fn drop(&mut self) {
        self.pool.releases.inc();
        self.pool
            .active
            .set(self.pool.active.get().saturating_sub(1));
        self.pool.gauge.sub(1);
    }
}

/// Error establishing an RDMA connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaConnectError {
    /// No listener at the destination.
    ConnectionRefused,
    /// The listener dropped the request without accepting.
    Rejected,
}

impl fmt::Display for RdmaConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaConnectError::ConnectionRefused => write!(f, "rdma connection refused"),
            RdmaConnectError::Rejected => write!(f, "rdma connection rejected"),
        }
    }
}

impl std::error::Error for RdmaConnectError {}

/// A pending inbound connection; accept it to create the QP pair.
pub struct IncomingConnection {
    from: NodeId,
    reply: oneshot::Sender<QueuePair>,
    initiator_cqs: (CompletionQueue, CompletionQueue),
    initiator_opts: QpOptions,
    initiator_nic: RNic,
}

impl IncomingConnection {
    /// Node asking to connect.
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// Accepts, creating the local endpoint with the given CQs/options. The
    /// initiator's `connect` resolves with its own endpoint.
    pub fn accept(
        self,
        nic: &RNic,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        opts: QpOptions,
    ) -> QueuePair {
        let (initiator, acceptor) = QueuePair::create_connected_pair(
            &self.initiator_nic.inner,
            &nic.inner,
            self.initiator_cqs,
            (send_cq, recv_cq),
            self.initiator_opts,
            opts,
        );
        // If the initiator vanished, the pair is dropped and the acceptor
        // side observes a dead peer on first use.
        let _ = self.reply.send(initiator);
        acceptor
    }

    /// Declines the connection.
    pub fn reject(self) {
        drop(self.reply);
    }
}

/// A listening RDMA service id (port) in the fabric's CM bind table.
pub struct RdmaListener(Bound<IncomingConnection>);

impl RdmaListener {
    /// Binds a service id on the NIC's node.
    ///
    /// # Panics
    /// Panics if the port is already bound.
    pub fn bind(nic: &RNic, port: u16) -> RdmaListener {
        let registry = Registry::get(&nic.node().fabric);
        RdmaListener(registry.cm_listeners.bind(nic.node().id, port))
    }

    /// Waits for the next inbound connection request.
    pub async fn accept(&mut self) -> Option<IncomingConnection> {
        self.0.accept().await
    }
}

/// Force-unbinds a listening service id from the outside (fault injection:
/// a crashed broker's CM teardown); see
/// [`BindTable::unbind`](netsim::bind::BindTable::unbind).
pub fn unbind(nic: &RNic, port: u16) -> bool {
    let registry = Registry::get(&nic.node().fabric);
    registry.cm_listeners.unbind(nic.node().id, port)
}

impl RNic {
    /// Connects to an [`RdmaListener`] at `(dst, port)`, paying connection
    /// setup latency. Returns the initiator-side endpoint once accepted.
    pub async fn connect(
        &self,
        dst: NodeId,
        port: u16,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        opts: QpOptions,
    ) -> Result<QueuePair, RdmaConnectError> {
        let registry = Registry::get(&self.node().fabric);
        let slot = registry.cm_listeners.sender(dst, port);
        let slot = slot.ok_or(RdmaConnectError::ConnectionRefused)?;
        // QP attribute exchange happens over TCP in real deployments.
        sim::time::sleep(self.node().profile().net.tcp_connect).await;
        let (reply_tx, reply_rx) = registry.cm_replies.channel();
        slot.try_send(IncomingConnection {
            from: self.node().id,
            reply: reply_tx,
            initiator_cqs: (send_cq, recv_cq),
            initiator_opts: opts,
            initiator_nic: self.clone(),
        })
        .map_err(|_| RdmaConnectError::ConnectionRefused)?;
        reply_rx.await.map_err(|_| RdmaConnectError::Rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::{Access, ShmBuf};
    use crate::verbs::{RecvWr, SendWr, WorkRequest};
    use netsim::profile::Profile;
    use netsim::Fabric;

    #[test]
    fn connect_and_write() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::testbed());
            let na = f.add_node("a");
            let nb = f.add_node("b");
            let nic_a = RNic::new(&na);
            let nic_b = RNic::new(&nb);
            let mut listener = RdmaListener::bind(&nic_b, 1);
            let b_send = nic_b.create_cq(16);
            let b_recv = nic_b.create_cq(16);
            let nic_b2 = nic_b.clone();
            let accept = sim::spawn(async move {
                let inc = listener.accept().await.unwrap();
                assert_eq!(inc.from(), netsim::NodeId(0));
                inc.accept(&nic_b2, b_send, b_recv, QpOptions::default())
            });
            let a_send = nic_a.create_cq(16);
            let a_recv = nic_a.create_cq(16);
            let qp_a = nic_a
                .connect(nb.id, 1, a_send.clone(), a_recv, QpOptions::default())
                .await
                .unwrap();
            let _qp_b = accept.await.unwrap();

            // One-sided write into b's registered memory.
            let target = ShmBuf::zeroed(64);
            let mr = nic_b.reg_mr(target.clone(), Access::all());
            let src = ShmBuf::from_vec(vec![7u8; 16]);
            qp_a.post_send(SendWr::new(
                1,
                WorkRequest::Write {
                    local: src.as_slice(),
                    remote_addr: mr.addr() + 8,
                    rkey: mr.rkey(),
                },
            ))
            .unwrap();
            let cqe = a_send.next().await.unwrap();
            assert!(cqe.ok());
            assert_eq!(target.read_at(8, 16), vec![7u8; 16]);
            assert_eq!(target.read_at(0, 8), vec![0u8; 8]);
            assert_eq!(nic_b.stats().writes_in, 1);
        });
    }

    #[test]
    fn refused_without_listener() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let na = f.add_node("a");
            let nb = f.add_node("b");
            let nic_a = RNic::new(&na);
            let _nic_b = RNic::new(&nb);
            let cq1 = nic_a.create_cq(4);
            let cq2 = nic_a.create_cq(4);
            let err = nic_a
                .connect(nb.id, 99, cq1, cq2, QpOptions::default())
                .await
                .err();
            assert_eq!(err, Some(RdmaConnectError::ConnectionRefused));
        });
    }

    #[test]
    fn reject_surfaces() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let na = f.add_node("a");
            let nb = f.add_node("b");
            let nic_a = RNic::new(&na);
            let nic_b = RNic::new(&nb);
            let mut listener = RdmaListener::bind(&nic_b, 1);
            sim::spawn(async move {
                listener.accept().await.unwrap().reject();
            });
            let cq1 = nic_a.create_cq(4);
            let cq2 = nic_a.create_cq(4);
            let err = nic_a
                .connect(nb.id, 1, cq1, cq2, QpOptions::default())
                .await
                .err();
            assert_eq!(err, Some(RdmaConnectError::Rejected));
        });
    }

    async fn connected_pair(
        f: &Fabric,
        a_opts: QpOptions,
        b_opts: QpOptions,
    ) -> (QueuePair, QueuePair, CompletionQueue, CompletionQueue) {
        let na = f.add_node("a");
        let nb = f.add_node("b");
        let nic_a = RNic::new(&na);
        let nic_b = RNic::new(&nb);
        let mut listener = RdmaListener::bind(&nic_b, 1);
        let b_send = nic_b.create_cq(16);
        let b_recv = nic_b.create_cq(16);
        let nic_b2 = nic_b.clone();
        let b_recv2 = b_recv.clone();
        let accept = sim::spawn(async move {
            let inc = listener.accept().await.unwrap();
            inc.accept(&nic_b2, b_send, b_recv2, b_opts)
        });
        let a_send = nic_a.create_cq(16);
        let a_recv = nic_a.create_cq(16);
        let qp_a = nic_a
            .connect(nb.id, 1, a_send.clone(), a_recv, a_opts)
            .await
            .unwrap();
        let qp_b = accept.await.unwrap();
        (qp_a, qp_b, a_send, b_recv)
    }

    #[test]
    fn unbind_refuses_connects_and_wakes_accept() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let na = f.add_node("a");
            let nb = f.add_node("b");
            let nic_a = RNic::new(&na);
            let nic_b = RNic::new(&nb);
            let mut listener = RdmaListener::bind(&nic_b, 7);
            let accepts = sim::spawn(async move {
                let mut n = 0;
                while listener.accept().await.is_some() {
                    n += 1;
                }
                n
            });
            assert!(unbind(&nic_b, 7), "was bound");
            assert!(!unbind(&nic_b, 7), "idempotent");
            let cq1 = nic_a.create_cq(4);
            let cq2 = nic_a.create_cq(4);
            let err = nic_a
                .connect(nb.id, 7, cq1, cq2, QpOptions::default())
                .await
                .err();
            assert_eq!(err, Some(RdmaConnectError::ConnectionRefused));
            assert_eq!(accepts.await.unwrap(), 0);
        });
    }

    #[test]
    fn injected_cq_overflow_fails_attached_qps() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let (qp_a, qp_b, a_send, b_recv) =
                connected_pair(&f, QpOptions::default(), QpOptions::default()).await;
            assert!(qp_b.is_alive());
            b_recv.inject_overflow();
            assert!(b_recv.overflowed());
            assert!(!qp_b.is_alive(), "attached QP must fail");
            assert!(!qp_a.is_alive(), "RC peer observes the disconnect");
            drop(a_send);
        });
    }

    #[test]
    fn rnr_storm_delays_delivery_until_it_passes() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let (qp_a, qp_b, a_send, b_recv) =
                connected_pair(&f, QpOptions::default(), QpOptions::default()).await;
            let storm = std::time::Duration::from_millis(2);
            let storm_end = sim::now() + storm;
            qp_b.inject_rnr_storm(storm);
            // The receive is posted, but the storm hides it.
            let rbuf = ShmBuf::zeroed(16);
            qp_b.post_recv(RecvWr {
                wr_id: 1,
                buf: Some(rbuf.as_slice()),
            })
            .unwrap();
            qp_a.post_send(SendWr::new(
                2,
                WorkRequest::Send {
                    local: ShmBuf::from_vec(b"x".to_vec()).as_slice(),
                },
            ))
            .unwrap();
            let rc = b_recv.next().await.unwrap();
            assert!(rc.ok());
            assert!(
                sim::now() >= storm_end,
                "delivery happened mid-storm at {:?}",
                sim::now()
            );
            let sc = a_send.next().await.unwrap();
            assert!(sc.ok());
        });
    }

    #[test]
    fn rnr_storm_exhausts_bounded_rnr_timeout() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let a_opts = QpOptions {
                rnr_timeout: Some(std::time::Duration::from_micros(100)),
                ..QpOptions::default()
            };
            let (qp_a, qp_b, a_send, _b_recv) =
                connected_pair(&f, a_opts, QpOptions::default()).await;
            qp_b.inject_rnr_storm(std::time::Duration::from_millis(10));
            qp_a.post_send(SendWr::new(
                3,
                WorkRequest::Send {
                    local: ShmBuf::from_vec(b"x".to_vec()).as_slice(),
                },
            ))
            .unwrap();
            let sc = a_send.next().await.unwrap();
            assert_eq!(sc.status, crate::verbs::CqStatus::RnrRetryExceeded);
        });
    }

    #[test]
    #[should_panic(expected = "receive queue overflow (max_recv_wr=2)")]
    fn post_recv_enforces_capacity() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let opts = QpOptions {
                max_recv_wr: 2,
                ..QpOptions::default()
            };
            let (_qp_a, qp_b, _a_send, _b_recv) =
                connected_pair(&f, QpOptions::default(), opts).await;
            for i in 0..3 {
                qp_b.post_recv(RecvWr {
                    wr_id: i,
                    buf: None,
                })
                .unwrap();
            }
        });
    }

    #[test]
    #[should_panic(expected = "receive queue overflow (max_recv_wr=2)")]
    fn post_recv_list_enforces_same_capacity_bound() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let opts = QpOptions {
                max_recv_wr: 2,
                ..QpOptions::default()
            };
            let (_qp_a, qp_b, _a_send, _b_recv) =
                connected_pair(&f, QpOptions::default(), opts).await;
            // A chained list must hit exactly the bound a loop of single
            // posts would: the third WR overflows.
            qp_b.post_recv_list((0..3).map(|i| RecvWr {
                wr_id: i,
                buf: None,
            }))
            .unwrap();
        });
    }

    #[test]
    fn send_recv_roundtrip_with_recv() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::testbed());
            let na = f.add_node("a");
            let nb = f.add_node("b");
            let nic_a = RNic::new(&na);
            let nic_b = RNic::new(&nb);
            let mut listener = RdmaListener::bind(&nic_b, 1);
            let b_send = nic_b.create_cq(16);
            let b_recv = nic_b.create_cq(16);
            let nic_b2 = nic_b.clone();
            let b_recv2 = b_recv.clone();
            let accept = sim::spawn(async move {
                let inc = listener.accept().await.unwrap();
                inc.accept(&nic_b2, b_send, b_recv2, QpOptions::default())
            });
            let a_send = nic_a.create_cq(16);
            let a_recv = nic_a.create_cq(16);
            let qp_a = nic_a
                .connect(nb.id, 1, a_send.clone(), a_recv, QpOptions::default())
                .await
                .unwrap();
            let qp_b = accept.await.unwrap();

            let rbuf = ShmBuf::zeroed(32);
            qp_b.post_recv(RecvWr {
                wr_id: 77,
                buf: Some(rbuf.as_slice()),
            })
            .unwrap();
            qp_a.post_send(SendWr::new(
                5,
                WorkRequest::Send {
                    local: ShmBuf::from_vec(b"ping".to_vec()).as_slice(),
                },
            ))
            .unwrap();
            let rc = b_recv.next().await.unwrap();
            assert!(rc.ok());
            assert_eq!(rc.wr_id, 77);
            assert_eq!(rc.byte_len, 4);
            assert_eq!(rbuf.read_at(0, 4), b"ping".to_vec());
            let sc = a_send.next().await.unwrap();
            assert!(sc.ok());
        });
    }
}
