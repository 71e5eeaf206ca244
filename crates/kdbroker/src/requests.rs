//! Work items flowing through the shared request queue (paper Fig 2 ➊➋➌).

use kdwire::{Request, Response};
use netsim::NodeId;
use sim::sync::oneshot;

/// How the result of a produce commit reaches the producer.
pub enum AckRoute {
    /// RDMA producers: a small Send on their queue pair (Fig 3's
    /// "Acknowledgement"). Identified by QP number.
    Qp(u32),
    /// TCP producers writing into an RDMA-shared file (§4.2.2 "Shared
    /// RDMA/TCP access"): the RPC response channel.
    Rpc(oneshot::Sender<Response>),
    /// Push replication: no ack message; the leader observes the RDMA write
    /// completion instead (§4.3.2).
    None,
}

/// A unit of work for the API worker pool.
pub enum WorkItem {
    /// A decoded RPC from the TCP or OSU transport.
    Rpc {
        peer: NodeId,
        request: Request,
        reply: oneshot::Sender<Response>,
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
/// first is stored inline: a run of one — the common case — allocates
/// nothing.
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

    pub fn push(&mut self, item: CommitItem) {
        self.rest.push(item);
    }

    #[allow(clippy::len_without_is_empty)] // never empty
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut CommitItem> {
        std::iter::once(&mut self.first).chain(&mut self.rest)
    }
}

impl IntoIterator for CommitRun {
    type Item = CommitItem;
    type IntoIter = std::iter::Chain<std::iter::Once<CommitItem>, std::vec::IntoIter<CommitItem>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.rest)
    }
}
