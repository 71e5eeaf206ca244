//! Work items flowing through the shared request queue (paper Fig 2 ➊➋➌).

use std::rc::Rc;
use std::time::Duration;

use kdwire::{Request, Response, TopicName};
use netsim::NodeId;
use sim::sync::DueQueue;

/// One RPC connection's responses on their way from the API workers back
/// to its network thread, keyed by the instant the transfer completes. The
/// connection's writer consumes it; closing it ends the writer.
pub type ReplyStage = DueQueue<(u64, Response)>;

/// Where the response to one RPC goes: its connection's [`ReplyStage`] and
/// the request's correlation id. Dropping it answers nothing (the client
/// sees silence or, after a crash, the connection drop).
pub struct Reply {
    pub(crate) stage: Rc<ReplyStage>,
    pub(crate) corr: u64,
    /// Worker → network thread transfer time (`cpu.handoff`).
    pub(crate) handoff: Duration,
}

impl Reply {
    /// Hands `resp` to the connection's writer, which has it `handoff` from
    /// now. A response for a connection that has closed is dropped.
    pub fn send(self, resp: Response) {
        self.stage
            .push(sim::now() + self.handoff, (self.corr, resp));
    }
}

/// How the result of a produce commit reaches the producer.
pub enum AckRoute {
    /// RDMA producers: a small Send on their queue pair (Fig 3's
    /// "Acknowledgement"). Identified by QP number.
    Qp(u32),
    /// TCP producers writing into an RDMA-shared file (§4.2.2 "Shared
    /// RDMA/TCP access"): the RPC response channel.
    Rpc(Reply),
    /// Push replication: no ack message; the leader observes the RDMA write
    /// completion instead (§4.3.2).
    None,
}

/// A request as the API workers take it, decoded by `server_rpc::decode`.
pub enum Decoded {
    /// A produce, decoded in place: its topic inline (up to
    /// [`TopicName::INLINE`] bytes), its batch copied once out of the frame
    /// into a pooled scratch vector — the receive buffer → request heap copy
    /// of §4.2.1 — which goes back to the pool once the worker has appended
    /// it.
    Produce {
        topic: TopicName,
        partition: u32,
        acks: u8,
        batch: kdbuf::Scratch,
    },
    /// Any other request, owned.
    Request(Request),
}

/// A unit of work for the API worker pool.
pub enum WorkItem {
    /// A decoded RPC from the TCP or OSU transport.
    Rpc {
        peer: NodeId,
        request: Decoded,
        reply: Reply,
        /// Caller's lifeline, carried in by the frame header.
        trace: Option<kdtelem::TraceCtx>,
    },
    /// WriteWithImm completions from the RDMA produce module: records were
    /// already written into a TP file; verify and commit them (§4.2.2).
    /// `run` holds n ≥ 1 commits on one file with consecutive sequences
    /// `seq..seq + n`, assigned by the poller in completion order; workers
    /// must process the commits of one file in that order.
    RdmaCommit {
        file_id: u16,
        seq: u64,
        run: CommitRun,
    },
}

/// One produce completion awaiting commit.
pub struct CommitItem {
    /// Producer order from the immediate (shared mode; 0 otherwise).
    pub order: u16,
    pub byte_len: u32,
    pub ack: AckRoute,
    /// Producer's lifeline, carried in by the WriteImm's WR context.
    pub trace: Option<kdtelem::TraceCtx>,
}

/// The commits of one [`WorkItem::RdmaCommit`], in sequence order. The
/// first is stored inline and the vector behind it is recycled through
/// [`BrokerInner::run_pool`](crate::broker::BrokerInner::run_pool): a run
/// allocates nothing, whatever its length.
pub struct CommitRun {
    first: CommitItem,
    rest: Vec<CommitItem>,
}

impl CommitRun {
    pub fn one(first: CommitItem) -> Self {
        CommitRun {
            first,
            rest: Vec::new(),
        }
    }

    /// Appends `item`; `pooled` supplies the vector on the first extension.
    pub fn push(&mut self, item: CommitItem, pooled: impl FnOnce() -> Vec<CommitItem>) {
        if self.rest.capacity() == 0 {
            self.rest = pooled();
        }
        self.rest.push(item);
    }

    #[allow(clippy::len_without_is_empty)] // never empty
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut CommitItem> {
        std::iter::once(&mut self.first).chain(&mut self.rest)
    }

    /// The first commit and the vector of those behind it — to drain, then
    /// hand back to the pool.
    pub fn into_parts(self) -> (CommitItem, Vec<CommitItem>) {
        (self.first, self.rest)
    }
}
