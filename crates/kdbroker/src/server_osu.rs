//! The OSU-Kafka transport (§4, "RDMA-based Apache Kafka" baseline): the
//! TCP sockets are replaced with two-sided RDMA Send/Recv, but requests are
//! still copied out of (and responses into) intermediate network buffers and
//! flow through the same request queue — "its performance is still
//! obstructed by the need to copy messages from and to network buffers of
//! the multipurpose request processing module". Frames are `u64 LE
//! correlation id | payload`; past the framing it is the shared RPC front
//! ([`crate::server_rpc`]).

use std::rc::Rc;
use std::time::Duration;

use netsim::profile::copy_time;
use rnic::{CqOpcode, QpOptions, QueuePair, RdmaListener, RecvWr, SendWr, ShmBuf, WorkRequest};
use sim::future::{race, Either};

use crate::broker::BrokerInner;
use crate::server_rpc::Conn;

/// Per-message processing cost of the OSU network module: no kernel stack,
/// but still parse/serialize on a network thread.
pub const OSU_REQUEST_COST: Duration = Duration::from_micros(5);

/// Request receive buffer size (must fit the largest produce request).
const RECV_BUF: usize = 1200 * 1024;
/// Pre-posted request buffers per connection.
const RECV_DEPTH: usize = 8;

pub fn start(b: &Rc<BrokerInner>) {
    let mut listener = RdmaListener::bind(&b.nic, b.config.rdma_port + crate::rdma_net::OSU_PORT_OFF);
    let b = Rc::clone(b);
    sim::spawn(async move {
        while let Some(inc) = listener.accept().await {
            let from = inc.from();
            let send_cq = b.nic.create_cq(1024);
            let recv_cq = b.nic.create_cq(1024);
            let qp = inc.accept(&b.nic, send_cq.clone(), recv_cq.clone(), QpOptions::default());
            sim::spawn_detached(serve_connection(Rc::clone(&b), qp, recv_cq, from));
            // Drain send completions (responses are unsignaled; errors only).
            sim::spawn_detached(async move { while send_cq.next().await.is_some() {} });
        }
    });
}

async fn serve_connection(
    b: Rc<BrokerInner>,
    qp: QueuePair,
    recv_cq: rnic::CompletionQueue,
    peer: netsim::NodeId,
) {
    let kcopy = b.profile.net.kernel_copy_bandwidth;
    // Pre-post the request receive buffers (the "network buffers" whose
    // copies define this baseline).
    let bufs: Vec<ShmBuf> = (0..RECV_DEPTH).map(|_| ShmBuf::zeroed(RECV_BUF)).collect();
    for (i, buf) in bufs.iter().enumerate() {
        let _ = qp.post_recv(RecvWr {
            wr_id: i as u64,
            buf: Some(buf.as_slice()),
        });
    }
    // Either way a message is parsed or serialised and copied through its
    // network buffer on the network thread.
    let cost = move |len| OSU_REQUEST_COST + copy_time(len as u64, kcopy);
    // Response path: copy into a send buffer, post a Send.
    let qp_resp = qp.clone();
    let conn = Conn::open(&b, peer, cost, async move |corr, body: &[u8]| {
        let buf = ShmBuf::from_vec([&corr.to_le_bytes(), body].concat());
        let send = WorkRequest::Send {
            local: buf.as_slice(),
        };
        qp_resp.post_send(SendWr::unsignaled(0, send)).is_ok()
    });

    // Request path: drain the CQ in batches (pooled, like the produce
    // pollers) and recycle the consumed buffers with one chained
    // `post_recv_list` per batch instead of one doorbell per message. A
    // broker crash races the wait, as on the TCP front.
    let max_batch = b.config.cq_batch.max(1);
    let mut batch: Vec<rnic::Cqe> = Vec::with_capacity(max_batch);
    let mut recycle: Vec<u64> = Vec::with_capacity(max_batch);
    let mut frame = Vec::new();
    'conn: while b.alive.get() {
        let drained = crate::rdma_net::drain_or_wait(&recv_cq, &mut batch, max_batch);
        let Either::Left(true) = race(drained, b.shutdown.notified()).await else {
            break;
        };
        for cqe in &batch {
            if !cqe.ok() || cqe.opcode != CqOpcode::Recv || !b.alive.get() {
                break 'conn;
            }
            // The copy out of the network receive buffer.
            frame.clear();
            bufs[cqe.wr_id as usize].with(|buf| frame.extend_from_slice(&buf[..cqe.byte_len as usize]));
            recycle.push(cqe.wr_id);
            let Some((corr, payload)) = frame.split_first_chunk() else {
                break 'conn; // shorter than its correlation id
            };
            let corr = u64::from_le_bytes(*corr);
            // OSU requests arrive as verbs Sends; the WR context (if any)
            // rode in on the receive completion.
            if !conn.route(corr, cqe.trace, payload, cost(frame.len())).await {
                break 'conn;
            }
        }
        let _ = qp.post_recv_list(recycle.drain(..).map(|wr_id| RecvWr {
            wr_id,
            buf: Some(bufs[wr_id as usize].as_slice()),
        }));
    }
    // A served-out connection is torn down (the analogue of dropping the
    // TCP halves): the peer sees its QP break instead of silence.
    qp.close();
}
