//! The original Kafka producer (§4.2.1): produce RPCs over TCP (or the OSU
//! transport), with the client-side costs the paper measures — the
//! defensive copy of user data and the producer pipeline overheads (§5.1).

use std::cell::RefCell;
use std::rc::Rc;

use kdstorage::record::BatchBuilder;
use kdstorage::Record;
use kdwire::{Request, Response};
use netsim::profile::copy_time;
use netsim::NodeHandle;

use crate::conn::{ClientTransport, Conn};
use crate::error::{check, ClientError};

/// Acknowledgment mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acks {
    /// Fire and forget.
    None,
    /// Leader commit.
    Leader,
    /// All in-sync replicas (the paper's replication experiments).
    All,
}

impl Acks {
    fn wire(self) -> u8 {
        match self {
            Acks::None => 0,
            Acks::Leader => 1,
            Acks::All => 2,
        }
    }
}

/// A TCP (or OSU) producer bound to one topic partition.
pub struct TcpProducer {
    inner: Rc<Inner>,
    pub acks: Acks,
}

/// Everything a send uses once it is under way: pipelined sends run as
/// tasks that outlive the `&self` borrow that started them.
struct Inner {
    node: NodeHandle,
    conn: Conn,
    topic: String,
    partition: u32,
    producer_id: u64,
    telem: kdtelem::Registry,
    /// End-to-end produce latency (same instrument name as the RDMA
    /// producer's, so reports compare the two transports directly).
    e2e_ns: kdtelem::Histogram,
    /// Recycled encoded-batch buffers: a steady-state producer encodes
    /// every batch into capacity it already owns.
    batch_pool: RefCell<Vec<Vec<u8>>>,
}

impl Inner {
    /// Encodes `records` as one batch, in place in a pooled buffer — the
    /// one copy of each value the client makes.
    fn build(&self, records: &[Record]) -> Result<Vec<u8>, ClientError> {
        let mut batch = self.batch_pool.borrow_mut().pop().unwrap_or_default();
        batch.clear();
        let mut builder = BatchBuilder::begin(self.producer_id, &mut batch);
        for r in records {
            builder.append(r);
        }
        if builder.finish().is_err() {
            self.batch_pool.borrow_mut().push(batch);
            return Err(ClientError::Corrupt);
        }
        Ok(batch)
    }

    /// One produce RPC: the client-side cost of preparing the request — the
    /// defensive copy plus the Java producer pipeline (accumulator, sender
    /// thread, selector — §5.1) — then the call. The request is encoded
    /// straight from the borrowed topic and batch.
    async fn produce(
        &self,
        batch: Vec<u8>,
        acks: Acks,
        trace: kdtelem::TraceCtx,
    ) -> Result<Response, ClientError> {
        let cpu = &self.node.profile().cpu;
        sim::time::sleep(
            cpu.producer_copy_base
                + copy_time(batch.len() as u64, cpu.memcpy_bandwidth)
                + cpu.tcp_client_extra
                + cpu.handoff,
        )
        .await;
        let encode = |out: &mut Vec<u8>| {
            Request::encode_produce_into(out, &self.topic, self.partition, acks.wire(), &batch)
        };
        let resp = self.conn.call_with(encode, Some(trace)).await;
        // The encoded bytes were copied into the frame; reclaim the buffer
        // before surfacing any RPC error.
        self.batch_pool.borrow_mut().push(batch);
        resp
    }
}

/// The offset a produce response assigned.
fn assigned_offset(resp: Response) -> Result<u64, ClientError> {
    let Response::Produce { error, base_offset } = resp else {
        return Err(ClientError::Protocol);
    };
    check(error)?;
    Ok(base_offset)
}

impl TcpProducer {
    pub async fn connect(
        node: &NodeHandle,
        broker: kdwire::BrokerAddr,
        transport: ClientTransport,
        topic: &str,
        partition: u32,
    ) -> Result<TcpProducer, ClientError> {
        let conn = Conn::connect(node, broker, transport).await?;
        let telem = kdtelem::current();
        let e2e_ns = telem.histogram("kdclient", "produce.e2e_ns");
        let inner = Inner {
            node: node.clone(),
            conn,
            topic: topic.to_string(),
            partition,
            producer_id: sim::rng::range_u64(1..u64::MAX),
            telem,
            e2e_ns,
            batch_pool: RefCell::new(Vec::new()),
        };
        Ok(TcpProducer {
            inner: Rc::new(inner),
            acks: Acks::All,
        })
    }

    /// Builds a single-record batch and produces it, waiting for the ack.
    /// Returns the assigned offset.
    pub async fn send(&self, record: &Record) -> Result<u64, ClientError> {
        self.send_many(std::slice::from_ref(record)).await
    }

    /// Produces several records as one batch (base offset returned).
    pub async fn send_many(&self, records: &[Record]) -> Result<u64, ClientError> {
        let p = &self.inner;
        let start = sim::now();
        // Root of this produce's lifeline; the ctx crosses to the broker in
        // the RPC frame header.
        let span = p.telem.trace_span("client.produce", None);
        let resp = p.produce(p.build(records)?, self.acks, span.ctx()).await?;
        // Response dispatch back to the caller thread.
        sim::time::sleep(p.node.profile().cpu.wakeup).await;
        p.e2e_ns.record_since(start);
        span.end();
        assigned_offset(resp)
    }

    /// Fires a produce without waiting; the returned handle resolves with
    /// the assigned offset. Used to pipeline requests ("the producer
    /// dispatches as many requests as possible", §5.1).
    pub fn send_pipelined(&self, record: &Record) -> sim::JoinHandle<Result<u64, ClientError>> {
        // Encoded here, while `record` is borrowed: the task owns only the
        // pooled batch.
        let batch = self.inner.build(std::slice::from_ref(record));
        let (p, acks) = (Rc::clone(&self.inner), self.acks);
        sim::spawn(async move {
            let span = p.telem.trace_span("client.produce", None);
            let resp = p.produce(batch?, acks, span.ctx()).await?;
            span.end();
            assigned_offset(resp)
        })
    }
}
