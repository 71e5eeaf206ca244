//! Client RPC transports: framed TCP (the Kafka default and KafkaDirect's
//! control plane) and the OSU-Kafka two-sided RDMA Send/Recv transport.

use std::rc::Rc;
use std::time::Duration;

use kdwire::{BrokerAddr, Calls, Request, Response, RpcClient};
use netsim::profile::copy_time;
use netsim::NodeHandle;
use rnic::{CqOpcode, QueuePair, RecvWr, SendWr, ShmBuf, WorkRequest};

use crate::data_plane::Port;
use crate::error::ClientError;

/// Which transport a client speaks for request/response RPCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientTransport {
    /// Kernel TCP (Kafka baseline; also KafkaDirect's control plane).
    Tcp,
    /// Two-sided RDMA Send/Recv (OSU-Kafka baseline).
    Osu,
}

/// A connection to one broker over either transport.
#[derive(Clone)]
pub enum Conn {
    Tcp(RpcClient),
    Osu(Rc<OsuConn>),
}

impl Conn {
    /// Connects from `node` to `broker` using the chosen transport.
    pub async fn connect(
        node: &NodeHandle,
        broker: BrokerAddr,
        transport: ClientTransport,
    ) -> Result<Conn, ClientError> {
        match transport {
            ClientTransport::Tcp => {
                let stream = netsim::tcp::connect(node, netsim::NodeId(broker.node), broker.port)
                    .await
                    .map_err(|_| ClientError::Disconnected)?;
                Ok(Conn::Tcp(RpcClient::new(stream)))
            }
            ClientTransport::Osu => Ok(Conn::Osu(Rc::new(
                OsuConn::connect(node, broker, 256 * 1024, 8).await?,
            ))),
        }
    }

    pub async fn call(&self, req: &Request) -> Result<Response, ClientError> {
        match self {
            Conn::Tcp(c) => c.call(req).await.map_err(ClientError::from),
            Conn::Osu(c) => {
                c.call_with(|body| req.encode_into(body), None, Duration::ZERO)
                    .await
            }
        }
    }

    /// As [`call`](Self::call) for a request `encode` appends to the
    /// transport's scratch buffer, carrying a trace context across the
    /// process boundary — in the frame header on TCP, in the Send WR on OSU
    /// — and paying `charge` of caller CPU on the reply's wake
    /// ([`kdwire::frame::reply`]).
    pub async fn call_with(
        &self,
        encode: impl FnOnce(&mut Vec<u8>),
        trace: Option<kdtelem::TraceCtx>,
        charge: Duration,
    ) -> Result<Response, ClientError> {
        match self {
            Conn::Tcp(c) => c
                .call_with(encode, trace, charge)
                .await
                .map_err(ClientError::from),
            Conn::Osu(c) => c.call_with(encode, trace, charge).await,
        }
    }
}

/// The OSU-Kafka client transport: requests leave as RDMA Sends, responses
/// arrive into pre-posted receive buffers. Both directions copy through
/// those intermediate buffers — this is the "two-sided RDMA messaging"
/// baseline, not zero copy. Correlation is [`Calls`], as on TCP.
pub struct OsuConn {
    node: NodeHandle,
    qp: QueuePair,
    calls: Rc<Calls>,
}

impl OsuConn {
    pub async fn connect(
        node: &NodeHandle,
        broker: BrokerAddr,
        recv_buf: usize,
        recv_depth: usize,
    ) -> Result<OsuConn, ClientError> {
        let (qp, send_cq, recv_cq) = Port::OSU.open(node, broker).await?;
        let bufs: Vec<ShmBuf> = (0..recv_depth).map(|_| ShmBuf::zeroed(recv_buf)).collect();
        for (i, b) in bufs.iter().enumerate() {
            let _ = qp.post_recv(RecvWr {
                wr_id: i as u64,
                buf: Some(b.as_slice()),
            });
        }
        let calls = Rc::new(Calls::default());

        // Response reader.
        let calls2 = Rc::clone(&calls);
        let qp2 = qp.clone();
        let node2 = node.clone();
        sim::spawn_detached(async move {
            loop {
                let Some(cqe) = recv_cq.next().await else {
                    break;
                };
                if !cqe.ok() || cqe.opcode != CqOpcode::Recv {
                    break;
                }
                // Copy out of the network receive buffer (the OSU cost).
                let kcopy = node2.profile().net.kernel_copy_bandwidth;
                sim::time::sleep(copy_time(u64::from(cqe.byte_len), kcopy)).await;
                let buf = &bufs[cqe.wr_id as usize];
                // Decode in place (before reposting the receive), avoiding a
                // copy of the frame out of the receive buffer.
                let decoded = buf.with(|s| {
                    let (corr, body) = s[..cqe.byte_len as usize].split_first_chunk::<8>()?;
                    Some((u64::from_le_bytes(*corr), Response::decode(body)))
                });
                let _ = qp2.post_recv(RecvWr {
                    wr_id: cqe.wr_id,
                    buf: Some(buf.as_slice()),
                });
                if let Some((corr, resp)) = decoded {
                    calls2.answer(corr, resp);
                }
            }
            calls2.close();
        });
        // Drain the send CQ (sends are unsignaled; errors only).
        sim::spawn_detached(async move { while send_cq.next().await.is_some() {} });

        Ok(OsuConn {
            node: node.clone(),
            qp,
            calls,
        })
    }

    pub async fn call_with(
        &self,
        encode: impl FnOnce(&mut Vec<u8>),
        trace: Option<kdtelem::TraceCtx>,
        charge: Duration,
    ) -> Result<Response, ClientError> {
        let (corr, rx) = self.calls.open()?;
        let mut body = kdbuf::scratch();
        encode(&mut body);
        // Copy into the send buffer.
        let kcopy = self.node.profile().net.kernel_copy_bandwidth;
        sim::time::sleep(copy_time(body.len() as u64, kcopy)).await;
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(&corr.to_le_bytes());
        frame.extend_from_slice(&body);
        let buf = ShmBuf::from_vec(frame);
        let send = WorkRequest::Send {
            local: buf.as_slice(),
        };
        if self
            .qp
            .post_send(SendWr::unsignaled(corr, send).with_trace(trace))
            .is_err()
        {
            self.calls.cancel(corr);
            return Err(ClientError::Disconnected);
        }
        Ok(kdwire::frame::reply(rx, charge).await?)
    }
}
