//! The RPC front shared by the network modules (paper Fig 2 ➊): what the
//! TCP processor threads and the OSU Send/Recv transport do with a request
//! once it is off the wire, and with its response until it is back on. A
//! request is decoded and pushed into the broker's request queue, where the
//! API workers see it `cpu.handoff` later; its response comes back through
//! the request's [`Reply`] into the connection's [`ReplyStage`], due
//! `cpu.handoff` after the worker sent it, and the connection's one writer
//! task takes responses from there in due order. Nothing runs per request:
//! it is two pushes into due-time queues, so each hop costs one executor
//! event (DESIGN.md §10).

use std::rc::Rc;
use std::time::Duration;

use kdwire::Request;
use netsim::NodeId;

use crate::broker::BrokerInner;
use crate::requests::{Reply, ReplyStage, WorkItem};

/// One accepted connection. Dropping it closes the reply stage, which ends
/// the writer and drops the transport's sending half: with the receiving
/// half gone too, the peer sees the connection die. It also releases the
/// broker state of every consumer id the connection acquired.
pub(crate) struct Conn {
    b: Rc<BrokerInner>,
    peer: NodeId,
    net_idx: usize,
    replies: Rc<ReplyStage>,
}

impl Conn {
    /// Assigns the connection its network thread and starts its response
    /// writer: per response, the worker → network thread handoff elapses in
    /// the stage, then the writer occupies the thread for `cost(encoded
    /// length)` to serialise and `send`s `(correlation id, encoded
    /// response)` on the transport — `false` once the connection is gone.
    pub(crate) fn open(
        b: &Rc<BrokerInner>,
        peer: NodeId,
        cost: impl Fn(usize) -> Duration + 'static,
        mut send: impl AsyncFnMut(u64, &[u8]) -> bool + 'static,
    ) -> Conn {
        let net_idx = b.net_pool.assign();
        let replies = Rc::new(ReplyStage::new());
        let (bw, stage) = (Rc::clone(b), Rc::clone(&replies));
        sim::spawn_detached(async move {
            let mut body = Vec::new();
            while let Some((corr, resp)) = stage.next().await {
                body.clear();
                resp.encode_into(&mut body);
                bw.net_pool.thread(net_idx).run(cost(body.len())).await;
                if !send(corr, &body).await {
                    break;
                }
            }
            // A writer that lost its connection takes no more responses.
            stage.close();
        });
        Conn { b: Rc::clone(b), peer, net_idx, replies }
    }

    /// Occupies the network thread for `cost` (the transport's price of
    /// taking the request off the wire), decodes `payload` and hands the
    /// request to the API workers (➊→queue, overlapped across requests).
    /// `false` on a protocol error: drop the connection.
    pub(crate) async fn route(
        &self,
        corr: u64,
        trace: Option<kdtelem::TraceCtx>,
        payload: &[u8],
        cost: Duration,
    ) -> bool {
        let b = &self.b;
        b.net_pool.thread(self.net_idx).run(cost).await;
        let Ok(request) = Request::decode(payload) else {
            return false;
        };
        // Routes the eventual response back through this connection.
        let reply = Reply {
            stage: Rc::clone(&self.replies),
            corr,
            handoff: b.profile.cpu.handoff,
        };
        b.hand_off(WorkItem::Rpc { peer: self.peer, request, reply, trace });
        true
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.replies.close();
        crate::rdma_consume::release_connection(&self.b, &self.replies);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    use kdwire::Response;
    use netsim::profile::Profile;
    use netsim::tcp::{ReadHalf, WriteHalf};
    use netsim::{Fabric, NodeHandle};
    use rnic::{CompletionQueue, CqOpcode, QpOptions, QueuePair, RNic, RecvWr, SendWr, ShmBuf, WorkRequest};

    use crate::{Broker, BrokerConfig, Transport};

    fn start_broker(f: &Fabric, config: BrokerConfig) -> (Broker, NodeHandle) {
        let node = f.add_node("broker");
        let me = kdwire::BrokerAddr {
            node: node.id.0,
            port: config.tcp_port,
            rdma_port: config.rdma_port,
        };
        (Broker::start(&node, config, vec![me]), node)
    }

    #[test]
    fn replies_leave_in_due_order_and_push_order_among_equal_instants() {
        sim::Runtime::new().block_on(async {
            let f = Fabric::new(Profile::testbed());
            let (broker, _node) = start_broker(&f, BrokerConfig::kafka());
            let b = broker.inner();
            let log = Rc::new(RefCell::new(Vec::new()));
            let sent = Rc::clone(&log);
            let cost = |_len| Duration::from_micros(2);
            let conn = Conn::open(b, NodeId(99), cost, async move |corr, _body: &[u8]| {
                sent.borrow_mut().push((sim::now().as_nanos(), corr));
                true
            });
            let stage = Rc::clone(&conn.replies);
            let reply = |corr, handoff_us| Reply {
                stage: Rc::clone(&stage),
                corr,
                handoff: Duration::from_micros(handoff_us),
            };
            let resp = || Response::CreateTopic {
                error: kdwire::ErrorCode::None,
            };
            reply(1, 50).send(resp()); // due 50 µs
            reply(2, 20).send(resp()); // due 20 µs: overtakes
            reply(3, 20).send(resp()); // same instant: behind 2
            sim::time::sleep(Duration::from_micros(30)).await;
            reply(4, 20).send(resp()); // due 50 µs, pushed after 1
            sim::time::sleep(Duration::from_millis(1)).await;
            let order: Vec<u64> = log.borrow().iter().map(|&(_, corr)| corr).collect();
            assert_eq!(order, vec![2, 3, 1, 4]);
            // 2 waits out its transfer, then wakes the idle network thread
            // and occupies it for `cost`.
            let wakeup = b.profile.cpu.wakeup.as_nanos() as u64;
            assert_eq!(log.borrow()[0].0, 20_000 + wakeup + 2_000);
            // A closed connection swallows what comes later.
            drop(conn);
            reply(5, 0).send(resp());
            sim::time::sleep(Duration::from_millis(1)).await;
            assert_eq!(log.borrow().len(), 4);
        });
    }

    /// A bare client of either front end, below `kdwire::RpcClient`: the
    /// tests need to see the connection itself end.
    enum Wire {
        Tcp(ReadHalf, WriteHalf),
        Osu(QueuePair, CompletionQueue, Vec<ShmBuf>),
    }

    impl Wire {
        async fn connect(client: &NodeHandle, broker: &NodeHandle, config: &BrokerConfig) -> Wire {
            if config.transport == Transport::Tcp {
                let stream = netsim::tcp::connect(client, broker.id, config.tcp_port).await;
                let (r, w) = stream.unwrap().into_split();
                return Wire::Tcp(r, w);
            }
            let nic = RNic::new(client);
            let recv_cq = nic.create_cq(16);
            let port = config.rdma_port + crate::rdma_net::OSU_PORT_OFF;
            let qp = nic
                .connect(broker.id, port, nic.create_cq(16), recv_cq.clone(), QpOptions::default())
                .await
                .unwrap();
            let bufs: Vec<ShmBuf> = (0..4).map(|_| ShmBuf::zeroed(4096)).collect();
            for (i, buf) in bufs.iter().enumerate() {
                let buf = Some(buf.as_slice());
                qp.post_recv(RecvWr { wr_id: i as u64, buf }).unwrap();
            }
            Wire::Osu(qp, recv_cq, bufs)
        }

        async fn send(&mut self, corr: u64) {
            let body = Request::Metadata { topics: vec![] }.encode();
            match self {
                Wire::Tcp(_, w) => kdwire::write_frame(w, corr, None, &body).await.unwrap(),
                Wire::Osu(qp, ..) => {
                    let frame = ShmBuf::from_vec([&corr.to_le_bytes()[..], &body].concat());
                    let send = WorkRequest::Send {
                        local: frame.as_slice(),
                    };
                    qp.post_send(SendWr::unsignaled(corr, send)).unwrap();
                }
            }
        }

        /// The next response's correlation id; `None` once the connection
        /// is dead (EOF on TCP, a broken QP on OSU).
        async fn recv(&mut self) -> Option<u64> {
            match self {
                Wire::Tcp(r, _) => {
                    let (corr, _, payload) = kdwire::read_frame(r).await.ok()?;
                    assert!(matches!(Response::decode(&payload), Ok(Response::Metadata { .. })));
                    Some(corr)
                }
                Wire::Osu(qp, recv_cq, bufs) => {
                    let cqe = recv_cq.next().await?;
                    if !cqe.ok() || cqe.opcode != CqOpcode::Recv {
                        return None;
                    }
                    let buf = &bufs[cqe.wr_id as usize];
                    let frame = buf.read_at(0, cqe.byte_len as usize);
                    assert!(matches!(Response::decode(&frame[8..]), Ok(Response::Metadata { .. })));
                    let buf = Some(buf.as_slice());
                    qp.post_recv(RecvWr { wr_id: cqe.wr_id, buf }).unwrap();
                    Some(u64::from_le_bytes(frame[..8].try_into().unwrap()))
                }
            }
        }

        fn close(self) {
            if let Wire::Osu(qp, ..) = &self {
                qp.close();
            }
        }
    }

    /// Sleeps until a decoded request sits in the broker's request queue,
    /// on its way to a worker.
    async fn until_in_handoff(b: &BrokerInner) {
        while b.requests.is_empty() {
            sim::time::sleep(Duration::from_nanos(500)).await;
        }
    }

    /// What both front ends owe a peer, through the one shared routine.
    fn front_contract(config: BrokerConfig) {
        sim::Runtime::new().block_on(async move {
            let f = Fabric::new(Profile::testbed());
            let (broker, bnode) = start_broker(&f, config.clone());
            let b = broker.inner();
            let cnode = f.add_node("client");

            // Pipelined requests are answered, in order, on their connection.
            let mut conn = Wire::connect(&cnode, &bnode, &config).await;
            for corr in [7, 8, 9] {
                conn.send(corr).await;
            }
            for corr in [7, 8, 9] {
                assert_eq!(conn.recv().await, Some(corr));
            }

            // The connection closes under a request: its reply has nowhere
            // to go and is dropped; the front end keeps serving others.
            let mut doomed = Wire::connect(&cnode, &bnode, &config).await;
            doomed.send(1).await;
            until_in_handoff(b).await;
            doomed.close();
            sim::time::sleep(Duration::from_millis(1)).await;
            assert!(b.requests.is_empty());
            conn.send(10).await;
            assert_eq!(conn.recv().await, Some(10));

            // The broker crashes with a request in hand-off: the request
            // dies unanswered and the peer sees the connection end.
            conn.send(11).await;
            until_in_handoff(b).await;
            broker.crash();
            let end = sim::time::timeout(Duration::from_millis(10), conn.recv()).await;
            assert_eq!(end, Ok(None), "peer reads EOF");
            sim::time::sleep(Duration::from_millis(1)).await;
            assert!(b.requests.is_empty(), "the queue dropped the orphan");
        });
    }

    #[test]
    fn tcp_front_contract() {
        front_contract(BrokerConfig::kafka());
    }

    #[test]
    fn osu_front_contract() {
        front_contract(BrokerConfig::osu());
    }
}
