//! One client data plane (§4.2.2, §4.4.2): a TCP control connection plus
//! one RC QP to a broker — what both RDMA clients are underneath; the OSU
//! transport is the QP alone. Only this module creates client NICs, CQs and
//! QPs; it also redials, re-resolves a partition leader and closes the QP.

use std::time::Duration;

use kdwire::{BrokerAddr, ErrorCode, Request, Response};
use netsim::NodeHandle;
use rnic::{CompletionQueue, Cqe, QpOptions, QueuePair, RNic, SendWr};

use crate::conn::{ClientTransport, Conn};
use crate::error::{check, ClientError};

/// Bounded reconnect: exponential backoff rides out a broker restart without
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
        let (send_cq, recv_cq) = (nic.create_cq(send_depth), nic.create_cq(recv_depth));
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
    /// The first broker dialled: [`resolve`](Self::resolve) asks it.
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

    /// Replaces the QP with a fresh one to `to` (the control connection
    /// stays) and returns its receive CQ; on failure nothing changes.
    pub(crate) async fn dial(&mut self, to: BrokerAddr) -> Result<CompletionQueue, ClientError> {
        let recv_cq;
        (self.qp, self.send_cq, recv_cq) = self.port.dial(&self.nic, to).await?;
        self.broker = to;
        Ok(recv_cq)
    }

    /// The leader of `topic`/`partition` by the bootstrap broker's metadata,
    /// with a control connection to it.
    pub(crate) async fn resolve(
        &self,
        topic: &str,
        partition: u32,
    ) -> Result<(BrokerAddr, Conn), ClientError> {
        let boot = Conn::connect(&self.node, self.bootstrap, ClientTransport::Tcp).await?;
        let leader = leader_of(&boot, topic, partition).await?;
        let ctrl = if leader.node == self.bootstrap.node {
            boot
        } else {
            Conn::connect(&self.node, leader, ClientTransport::Tcp).await?
        };
        Ok((leader, ctrl))
    }

    /// Posts one signaled WR and awaits its completion — the next one: a
    /// client never has two in flight, and unsignaled WRs complete only on
    /// error. `None` if the post was refused or the WR failed.
    pub(crate) async fn execute(&self, wr: SendWr) -> Option<Cqe> {
        self.qp.post_send(wr).ok()?;
        self.send_cq.next().await.filter(Cqe::ok)
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

/// Runs `attempt` until it succeeds, at most `RECONNECT_ATTEMPTS` times,
/// backing off exponentially after each failure.
pub(crate) async fn with_backoff(
    mut attempt: impl AsyncFnMut() -> Result<(), ClientError>,
) -> Result<(), ClientError> {
    let mut delay = RECONNECT_BASE;
    for _ in 0..RECONNECT_ATTEMPTS {
        if attempt().await.is_ok() {
            return Ok(());
        }
        sim::time::sleep(delay).await;
        delay = (delay * 2).min(RECONNECT_MAX);
    }
    Err(ClientError::RetriesExhausted)
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
