//! One client data plane (§4.2.2, §4.4.2): a TCP control connection plus
//! one RC QP to a broker — what both RDMA clients are underneath; the OSU
//! transport is the QP alone. Only this module creates client NICs, CQs and
//! QPs, closes the QP, and knows how a client recovers ([`recover`]).

use std::time::Duration;

use kdwire::{BrokerAddr, ErrorCode, Request, Response};
use netsim::NodeHandle;
use rnic::{CompletionQueue, Cqe, QpOptions, QueuePair, RNic, SendWr};

use crate::conn::{ClientTransport, Conn};
use crate::error::{check, ClientError};

/// Bounded recovery: exponential backoff rides out a broker restart without
/// hammering the fabric and gives up if the outage persists.
const RECONNECT_ATTEMPTS: u32 = 12;
const RECONNECT_BASE: Duration = Duration::from_micros(200);
const RECONNECT_MAX: Duration = Duration::from_millis(10);

/// A broker RDMA endpoint — its offset from `BrokerAddr::rdma_port` — and
/// the depths of a client QP's send and receive CQs to it.
#[derive(Clone, Copy)]
pub(crate) struct Port(u16, usize, usize);

type Link = (QueuePair, CompletionQueue, CompletionQueue);

impl Port {
    pub(crate) const OSU: Port = Port(1, 1024, 1024);
    pub(crate) const CONSUME: Port = Port(2, 256, 16);

    /// The produce endpoint, with room for `ack_depth` outstanding acks.
    pub(crate) fn produce(ack_depth: usize) -> Port {
        Port(0, 4096, ack_depth * 2)
    }

    /// The one dial: a send CQ, a receive CQ and an RC QP over them.
    async fn dial(self, nic: &RNic, broker: BrokerAddr) -> Result<Link, ClientError> {
        let Port(off, send_depth, recv_depth) = self;
        let (send_cq, recv_cq) = nic.create_cq_pair(send_depth, recv_depth);
        let qp = nic
            .connect(
                netsim::NodeId(broker.node),
                broker.rdma_port + off,
                send_cq.clone(),
                recv_cq.clone(),
                QpOptions::default(),
            )
            .await
            .map_err(|_| ClientError::Disconnected)?;
        Ok((qp, send_cq, recv_cq))
    }

    /// [`dial`](Self::dial) from a NIC of the QP's own (the OSU transport).
    pub(crate) async fn open(self, node: &NodeHandle, to: BrokerAddr) -> Result<Link, ClientError> {
        self.dial(&RNic::new(node), to).await
    }
}

/// A control connection and one QP to the same broker.
pub struct DataPlane {
    pub(crate) node: NodeHandle,
    /// The first broker dialled: [`recover`] asks it for the leader.
    bootstrap: BrokerAddr,
    pub(crate) broker: BrokerAddr,
    pub(crate) ctrl: Conn,
    nic: RNic,
    pub(crate) qp: QueuePair,
    send_cq: CompletionQueue,
    port: Port,
}

impl DataPlane {
    /// Connects the control plane to `broker`, then a QP to its `port`;
    /// returns the QP's receive CQ beside the plane.
    pub(crate) async fn open(
        node: &NodeHandle,
        broker: BrokerAddr,
        port: Port,
    ) -> Result<(DataPlane, CompletionQueue), ClientError> {
        let ctrl = Conn::connect(node, broker, ClientTransport::Tcp).await?;
        let nic = RNic::new(node);
        let (qp, send_cq, recv_cq) = port.dial(&nic, broker).await?;
        let node = node.clone();
        let plane = DataPlane {
            node,
            bootstrap: broker,
            broker,
            ctrl,
            nic,
            qp,
            send_cq,
            port,
        };
        Ok((plane, recv_cq))
    }

    /// Posts one signaled WR and awaits its completion — the next one: a
    /// client never has two in flight, and unsignaled WRs complete only on
    /// error. A nonzero `charge` is CPU the caller spends on the completion:
    /// it returns that long after the CQE surfaces, on the CQ's one timer
    /// (`CompletionQueue::wait`). `None` if the post was refused or the WR
    /// failed.
    pub(crate) async fn execute(&self, wr: SendWr, charge: Duration) -> Option<Cqe> {
        self.qp.post_send(wr).ok()?;
        let cqe = if charge.is_zero() {
            self.send_cq.next().await
        } else {
            self.send_cq.wait(charge).await;
            self.send_cq.poll()
        };
        cqe.filter(Cqe::ok)
    }
}

impl Drop for DataPlane {
    /// A client that goes away disconnects: readers on the QP hold it too,
    /// so otherwise the broker's context and any grant would outlive the
    /// client. Outside a runtime there is no instant to observe it at.
    fn drop(&mut self) {
        if sim::try_now().is_some() {
            self.qp.close();
        }
    }
}

/// What broke under a client: its QP, or a control call, with its error.
pub(crate) enum Broke {
    Qp,
    Call(ClientError),
}

/// What a client brings to [`recover`]: its plane and the partition it
/// serves, what it does around a redial — `None` just before the dial, the
/// new QP's receive CQ after it — and how it takes the partition up again
/// over a new control connection and QP.
pub(crate) trait Rejoin {
    fn parts(&mut self) -> (&mut DataPlane, &str, u32);
    fn replug(&mut self, _recv_cq: Option<CompletionQueue>) {}
    async fn rejoin(&mut self) -> Result<(), ClientError>;
}

/// The one recovery ladder of both RDMA clients (DESIGN.md §7). A dead QP
/// is first redialled to the same broker, keeping the control connection.
/// If that fails, or a control call found the connection lost or the
/// partition moved, [`reconnect`] is retried with exponential backoff, at
/// most `RECONNECT_ATTEMPTS` times. Any other error is the caller's.
pub(crate) async fn recover(client: &mut impl Rejoin, broke: Broke) -> Result<(), ClientError> {
    match broke {
        Broke::Qp => {
            let broker = client.parts().0.broker;
            if redial(client, broker).await.is_ok() {
                return Ok(());
            }
        }
        Broke::Call(ClientError::Disconnected)
        | Broke::Call(ClientError::Broker(ErrorCode::FencedEpoch | ErrorCode::NotLeader)) => {}
        Broke::Call(e) => return Err(e),
    }
    let mut delay = RECONNECT_BASE;
    for _ in 0..RECONNECT_ATTEMPTS {
        if reconnect(client).await.is_ok() {
            return Ok(());
        }
        sim::time::sleep(delay).await;
        delay = (delay * 2).min(RECONNECT_MAX);
    }
    Err(ClientError::RetriesExhausted)
}

/// One try of the second rung: the old broker sees the disconnect first, then
/// the leader by the bootstrap broker gets a new control connection and QP.
async fn reconnect(client: &mut impl Rejoin) -> Result<(), ClientError> {
    let (plane, topic, partition) = client.parts();
    plane.qp.close();
    let (node, bootstrap) = (&plane.node, plane.bootstrap);
    let boot = Conn::connect(node, bootstrap, ClientTransport::Tcp).await?;
    let leader = leader_of(&boot, topic, partition).await?;
    let ctrl = if leader.node == bootstrap.node {
        boot
    } else {
        Conn::connect(node, leader, ClientTransport::Tcp).await?
    };
    redial(client, leader).await?;
    client.parts().0.ctrl = ctrl;
    client.rejoin().await
}

/// Replaces the client's QP with one to `to`; the control connection stays.
async fn redial(client: &mut impl Rejoin, to: BrokerAddr) -> Result<(), ClientError> {
    client.replug(None);
    let plane = client.parts().0;
    let recv_cq;
    (plane.qp, plane.send_cq, recv_cq) = plane.port.dial(&plane.nic, to).await?;
    plane.broker = to;
    client.replug(Some(recv_cq));
    Ok(())
}

/// The leader of `topic`/`partition` by `conn`'s broker's metadata.
pub(crate) async fn leader_of(
    conn: &Conn,
    topic: &str,
    partition: u32,
) -> Result<BrokerAddr, ClientError> {
    let request = Request::Metadata {
        topics: vec![topic.to_string()],
    };
    let Response::Metadata { error, topics, .. } = conn.call(&request).await? else {
        return Err(ClientError::Protocol);
    };
    check(error)?;
    let meta = topics.iter().find(|t| t.name == topic);
    let p = meta.and_then(|t| t.partitions.iter().find(|p| p.partition == partition));
    p.map(|p| p.leader)
        .ok_or(ClientError::Broker(ErrorCode::UnknownTopicOrPartition))
}
