//! Receive queues.
//!
//! `RecvQueue` holds every posted receive WR: a depth-bounded FIFO with
//! buffer accounting and RNR parking. A QP's private queue is the
//! single-attachee case, embedded in the endpoint; a shared receive queue
//! ([`Srq`], `ibv_create_srq`) is the same queue behind an `Rc`, consumed
//! by every attached QP, so posted-buffer memory is O(1) in connection
//! count instead of O(connections × depth). Completions land in the
//! consuming QP's receive CQ with that QP's number either way. A dry queue
//! gives the sender ordinary RNR semantics (parked until a buffer is
//! posted, or `RnrRetryExceeded` under a bounded `rnr_timeout`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use crate::nic::{NicInner, RNic, Telem};
use crate::qp::QpShared;
use crate::verbs::{PostError, RecvWr};

pub(crate) struct RecvQueue {
    queue: RefCell<VecDeque<RecvWr>>,
    max_wr: usize,
    /// Endpoints with a sender parked (RNR) on the dry queue, in arrival
    /// order; a post retries them all, first come first served.
    parked: RefCell<Vec<Weak<QpShared>>>,
    /// Device the queue's buffers are accounted against.
    nic: Rc<NicInner>,
    /// Shared queues count into `rnic srq.*`; a private queue counts only
    /// its RNR parks, into `rnic qp.rnr_dry`.
    shared: bool,
}

impl RecvQueue {
    /// A queue accounted against `nic`; `shared` is `false` for a QP's
    /// private queue.
    pub(crate) fn new(nic: Rc<NicInner>, max_wr: usize, shared: bool) -> RecvQueue {
        let (queue, parked) = Default::default();
        RecvQueue {
            queue,
            max_wr,
            parked,
            nic,
            shared,
        }
    }

    /// The `rnic srq.*` cells, on a shared queue.
    fn telem(&self) -> Option<&Telem> {
        self.shared.then(|| &self.nic.registry.telem)
    }

    /// Posts a chained receive list — one queue lock for the whole chain —
    /// and retries every sender parked on the queue. Overflowing `max_wr`
    /// is a simulation program bug, not a runtime condition, and panics.
    pub(crate) fn post_list(&self, wrs: impl IntoIterator<Item = RecvWr>) {
        let (kind, bound) = if self.shared {
            ("shared receive", "max_wr")
        } else {
            ("receive", "max_recv_wr")
        };
        let mut posted = 0u64;
        {
            let mut q = self.queue.borrow_mut();
            for wr in wrs {
                assert!(
                    q.len() < self.max_wr,
                    "{kind} queue overflow ({bound}={})",
                    self.max_wr
                );
                self.nic.recv_buf_add(&wr);
                q.push_back(wr);
                posted += 1;
            }
        }
        if let Some(t) = self.telem() {
            t.srq_posted.add(posted);
            t.srq_depth.add(posted);
        }
        // A retry only arms an engine event, so nothing parks while the
        // list is borrowed; draining in place keeps its capacity.
        for qp in self
            .parked
            .borrow_mut()
            .drain(..)
            .filter_map(|qp| qp.upgrade())
        {
            qp.retry_rnr_waiter();
        }
    }

    /// Remembers that `qp`'s peer has a sender waiting on this (dry) queue,
    /// counted into `srq.rnr_dry` or, on a private queue, `qp.rnr_dry`.
    pub(crate) fn park(&self, qp: &Rc<QpShared>) {
        match self.telem() {
            Some(t) => t.srq_rnr_dry.inc(),
            None => self.nic.registry.telem.qp_rnr_dry.inc(),
        }
        self.parked.borrow_mut().push(Rc::downgrade(qp));
    }

    /// Pops the head receive for a consuming QP. `None` when dry (the
    /// caller parks on RNR semantics).
    pub(crate) fn pop(&self) -> Option<RecvWr> {
        let wr = self.queue.borrow_mut().pop_front()?;
        self.nic.recv_buf_sub(&wr);
        if let Some(t) = self.telem() {
            t.srq_stolen.inc();
            t.srq_depth.sub(1);
        }
        Some(wr)
    }
}

/// A shared receive queue. Cheap to clone; attach to QPs via
/// [`QpOptions::srq`](crate::QpOptions).
#[derive(Clone)]
pub struct Srq {
    pub(crate) inner: Rc<RecvQueue>,
}

impl std::fmt::Debug for Srq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Srq")
            .field("len", &self.len())
            .field("max_wr", &self.inner.max_wr)
            .finish()
    }
}

impl RNic {
    /// Creates a shared receive queue on this device holding at most
    /// `max_wr` posted receives.
    pub fn create_srq(&self, max_wr: usize) -> Srq {
        assert!(max_wr > 0);
        let inner = Rc::new(RecvQueue::new(Rc::clone(&self.inner), max_wr, true));
        Srq { inner }
    }
}

impl Srq {
    /// Posts one receive (`ibv_post_srq_recv`): a one-element list.
    pub fn post_recv(&self, wr: RecvWr) -> Result<(), PostError> {
        self.post_recv_list([wr])
    }

    /// Posts a chained receive list, the doorbell-batched replenish path
    /// brokers use. Overflowing `max_wr` panics, same contract as
    /// [`QueuePair::post_recv_list`](crate::QueuePair::post_recv_list).
    pub fn post_recv_list(&self, wrs: impl IntoIterator<Item = RecvWr>) -> Result<(), PostError> {
        self.inner.post_list(wrs);
        Ok(())
    }

    /// Posted receives currently waiting.
    pub fn len(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum posted receives.
    pub fn max_wr(&self) -> usize {
        self.inner.max_wr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::RdmaListener;
    use crate::cq::CompletionQueue;
    use crate::mr::ShmBuf;
    use crate::nic::WQE_BYTES;
    use crate::qp::{QpOptions, QueuePair};
    use crate::verbs::{SendWr, WorkRequest};
    use netsim::profile::Profile;
    use netsim::Fabric;

    impl Srq {
        fn pop(&self) -> Option<RecvWr> {
            self.inner.pop()
        }
    }

    /// Two initiator nodes connected to one receiver node whose accepted
    /// QPs share a recv CQ and (optionally) an SRQ.
    async fn fan_in_pair(
        f: &Fabric,
        srv_opts: QpOptions,
    ) -> (RNic, Vec<(QueuePair, CompletionQueue)>, CompletionQueue) {
        let ns = f.add_node("srv");
        let nic_s = RNic::new(&ns);
        let mut listener = RdmaListener::bind(&nic_s, 1);
        let s_send = nic_s.create_cq(64);
        let s_recv = nic_s.create_cq(64);
        let nic_s2 = nic_s.clone();
        let s_recv2 = s_recv.clone();
        let accepts = sim::spawn(async move {
            let mut qps = Vec::new();
            for _ in 0..2 {
                let inc = listener.accept().await.unwrap();
                qps.push(inc.accept(&nic_s2, s_send.clone(), s_recv2.clone(), srv_opts.clone()));
            }
            qps
        });
        let mut clients = Vec::new();
        for i in 0..2 {
            let nc = f.add_node(&format!("c{i}"));
            let nic_c = RNic::new(&nc);
            let c_send = nic_c.create_cq(64);
            let c_recv = nic_c.create_cq(64);
            let qp = nic_c
                .connect(ns.id, 1, c_send.clone(), c_recv, QpOptions::default())
                .await
                .unwrap();
            clients.push((qp, c_send));
        }
        let _srv_qps = accepts.await.unwrap();
        // Keep the server endpoints alive for the test body.
        std::mem::forget(_srv_qps);
        (nic_s, clients, s_recv)
    }

    fn send(qp: &QueuePair, wr_id: u64, payload: &[u8]) {
        qp.post_send(SendWr::new(
            wr_id,
            WorkRequest::Send {
                local: ShmBuf::from_vec(payload.to_vec()).as_slice(),
            },
        ))
        .unwrap();
    }

    #[test]
    fn srq_feeds_many_qps_and_cqes_carry_source_qp() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let ns = f.add_node("srv");
            let nic_s = RNic::new(&ns);
            let srq = nic_s.create_srq(16);
            let bufs: Vec<ShmBuf> = (0..4).map(|_| ShmBuf::zeroed(16)).collect();
            srq.post_recv_list(bufs.iter().enumerate().map(|(i, b)| RecvWr {
                wr_id: i as u64,
                buf: Some(b.as_slice()),
            }))
            .unwrap();
            assert_eq!(srq.len(), 4);

            let mut listener = RdmaListener::bind(&nic_s, 1);
            let s_send = nic_s.create_cq(64);
            let s_recv = nic_s.create_cq(64);
            let opts = QpOptions {
                srq: Some(srq.clone()),
                ..QpOptions::default()
            };
            let nic_s2 = nic_s.clone();
            let s_recv2 = s_recv.clone();
            let accepts = sim::spawn(async move {
                let mut qps = Vec::new();
                for _ in 0..2 {
                    let inc = listener.accept().await.unwrap();
                    qps.push(inc.accept(&nic_s2, s_send.clone(), s_recv2.clone(), opts.clone()));
                }
                qps
            });
            let mut clients = Vec::new();
            for i in 0..2 {
                let nc = f.add_node(&format!("c{i}"));
                let nic_c = RNic::new(&nc);
                let c_send = nic_c.create_cq(64);
                let c_recv = nic_c.create_cq(64);
                let qp = nic_c
                    .connect(ns.id, 1, c_send.clone(), c_recv, QpOptions::default())
                    .await
                    .unwrap();
                clients.push(qp);
            }
            let srv_qps = accepts.await.unwrap();

            send(&clients[0], 10, b"from0");
            send(&clients[1], 11, b"from1");
            let a = s_recv.next().await.unwrap();
            let b = s_recv.next().await.unwrap();
            assert!(a.ok() && b.ok());
            // Each completion names the server-side QP it arrived on.
            let mut got: Vec<u32> = vec![a.qpn, b.qpn];
            got.sort_unstable();
            let mut want: Vec<u32> = srv_qps.iter().map(|q| q.qpn()).collect();
            want.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(srq.len(), 2, "two of four SRQ buffers consumed");
        });
    }

    #[test]
    fn srq_dry_parks_sender_until_replenished() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let ns = f.add_node("srv");
            let nic_s = RNic::new(&ns);
            let srq = nic_s.create_srq(8);
            let (_nic, clients, s_recv) = {
                let mut listener = RdmaListener::bind(&nic_s, 1);
                let s_send = nic_s.create_cq(64);
                let s_recv = nic_s.create_cq(64);
                let opts = QpOptions {
                    srq: Some(srq.clone()),
                    ..QpOptions::default()
                };
                let nic_s2 = nic_s.clone();
                let s_recv2 = s_recv.clone();
                let accepts = sim::spawn(async move {
                    let inc = listener.accept().await.unwrap();
                    inc.accept(&nic_s2, s_send.clone(), s_recv2.clone(), opts.clone())
                });
                let nc = f.add_node("c0");
                let nic_c = RNic::new(&nc);
                let c_send = nic_c.create_cq(64);
                let c_recv = nic_c.create_cq(64);
                let qp = nic_c
                    .connect(ns.id, 1, c_send.clone(), c_recv, QpOptions::default())
                    .await
                    .unwrap();
                let _srv = accepts.await.unwrap();
                std::mem::forget(_srv);
                (nic_s.clone(), vec![qp], s_recv)
            };
            // SRQ is dry: the send parks on RNR semantics.
            send(&clients[0], 1, b"x");
            sim::time::sleep(std::time::Duration::from_micros(50)).await;
            assert!(s_recv.is_empty(), "no buffer yet — send must be parked");
            let buf = ShmBuf::zeroed(16);
            srq.post_recv(RecvWr {
                wr_id: 7,
                buf: Some(buf.as_slice()),
            })
            .unwrap();
            let cqe = s_recv.next().await.unwrap();
            assert!(cqe.ok());
            assert_eq!(cqe.wr_id, 7);
            assert_eq!(buf.read_at(0, 1), b"x".to_vec());
        });
    }

    #[test]
    fn qp_error_flush_does_not_strand_srq_buffers() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let ns = f.add_node("srv");
            let nic_s = RNic::new(&ns);
            let srq = nic_s.create_srq(16);
            let bufs: Vec<ShmBuf> = (0..3).map(|_| ShmBuf::zeroed(16)).collect();
            srq.post_recv_list(bufs.iter().enumerate().map(|(i, b)| RecvWr {
                wr_id: i as u64,
                buf: Some(b.as_slice()),
            }))
            .unwrap();

            let mut listener = RdmaListener::bind(&nic_s, 1);
            let s_send = nic_s.create_cq(64);
            let s_recv = nic_s.create_cq(64);
            let opts = QpOptions {
                srq: Some(srq.clone()),
                ..QpOptions::default()
            };
            let nic_s2 = nic_s.clone();
            let s_recv2 = s_recv.clone();
            let accepts = sim::spawn(async move {
                let mut qps = Vec::new();
                for _ in 0..2 {
                    let inc = listener.accept().await.unwrap();
                    qps.push(inc.accept(&nic_s2, s_send.clone(), s_recv2.clone(), opts.clone()));
                }
                qps
            });
            let mut clients = Vec::new();
            for i in 0..2 {
                let nc = f.add_node(&format!("c{i}"));
                let nic_c = RNic::new(&nc);
                let c_send = nic_c.create_cq(64);
                let c_recv = nic_c.create_cq(64);
                let qp = nic_c
                    .connect(ns.id, 1, c_send.clone(), c_recv, QpOptions::default())
                    .await
                    .unwrap();
                clients.push(qp);
            }
            let srv_qps = accepts.await.unwrap();

            // Kill the first server QP while attached: the error flush must
            // leave every SRQ buffer available to the survivor.
            let bytes_before = nic_s.recv_buffer_bytes();
            srv_qps[0].close();
            assert!(!clients[0].is_alive(), "peer observes the disconnect");
            assert_eq!(srq.len(), 3, "SRQ buffers must not be flushed");
            assert_eq!(
                nic_s.recv_buffer_bytes(),
                bytes_before,
                "no SRQ buffer accounting may be dropped by the QP flush"
            );
            for i in 0..3u64 {
                send(&clients[1], 20 + i, b"s");
            }
            for _ in 0..3 {
                let cqe = s_recv.next().await.unwrap();
                assert!(cqe.ok());
                assert_eq!(cqe.qpn, srv_qps[1].qpn());
            }
            assert_eq!(srq.len(), 0);
        });
    }

    #[test]
    fn recv_buffer_accounting_tracks_posts_and_consumption() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let (nic_s, clients, s_recv) = fan_in_pair(&f, QpOptions::default()).await;
            assert_eq!(nic_s.recv_buffer_bytes(), 0);
            let srq = nic_s.create_srq(8);
            let buf = ShmBuf::zeroed(64);
            srq.post_recv(RecvWr {
                wr_id: 0,
                buf: Some(buf.as_slice()),
            })
            .unwrap();
            assert_eq!(nic_s.recv_buffer_bytes(), WQE_BYTES + 64);
            assert!(srq.pop().is_some());
            assert_eq!(nic_s.recv_buffer_bytes(), 0);
            assert_eq!(nic_s.recv_buffer_bytes_peak(), WQE_BYTES + 64);
            drop(clients);
            drop(s_recv);
        });
    }

    #[test]
    #[should_panic(expected = "shared receive queue overflow")]
    fn srq_capacity_bound_enforced_on_lists() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let n = f.add_node("a");
            let nic = RNic::new(&n);
            let srq = nic.create_srq(2);
            srq.post_recv_list((0..3).map(|i| RecvWr {
                wr_id: i,
                buf: None,
            }))
            .unwrap();
        });
    }

    #[test]
    fn multiplexed_qps_do_not_pin_contexts() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let ns = f.add_node("srv");
            let nic_s = RNic::new(&ns);
            let pool = crate::cm::MuxPool::new(&nic_s, 4);
            assert_eq!(nic_s.qp_contexts(), 4, "pool pins its contexts once");

            let mut listener = RdmaListener::bind(&nic_s, 1);
            let s_send = nic_s.create_cq(64);
            let s_recv = nic_s.create_cq(64);
            let opts = QpOptions {
                multiplexed: true,
                ..QpOptions::default()
            };
            let nic_s2 = nic_s.clone();
            let accepts = sim::spawn(async move {
                let inc = listener.accept().await.unwrap();
                inc.accept(&nic_s2, s_send, s_recv, opts)
            });
            let nc = f.add_node("c0");
            let nic_c = RNic::new(&nc);
            let c_send = nic_c.create_cq(64);
            let c_recv = nic_c.create_cq(64);
            let client = nic_c
                .connect(ns.id, 1, c_send, c_recv, QpOptions::default())
                .await
                .unwrap();
            let srv = accepts.await.unwrap();
            let lease = pool.lease();
            assert_eq!(pool.active(), 1);
            assert_eq!(
                nic_s.qp_contexts(),
                4,
                "a multiplexed connection adds no resident context"
            );
            // The client side still pins its own (its NIC is not the
            // scaling bottleneck).
            assert_eq!(nic_c.qp_contexts(), 1);
            drop(lease);
            assert_eq!(pool.active(), 0);
            srv.close();
            assert_eq!(
                nic_s.qp_contexts(),
                4,
                "teardown releases nothing it never pinned"
            );
            assert_eq!(
                nic_c.qp_contexts(),
                0,
                "client context released on disconnect"
            );
            drop(client);
        });
    }
}
