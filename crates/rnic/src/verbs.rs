//! Work requests and completions — the verbs data types.

use std::fmt;

use crate::mr::BufSlice;

/// The operation part of a send-queue work request (§2 of the paper lists
/// exactly these).
#[derive(Clone, Debug)]
pub enum WorkRequest {
    /// Two-sided send: the receiver must have posted a receive buffer.
    Send { local: BufSlice },
    /// Two-sided send carrying 32-bit immediate data.
    SendImm { local: BufSlice, imm: u32 },
    /// One-sided write to `(rkey, remote_addr)`; the target CPU is not
    /// involved and sees no completion.
    Write {
        local: BufSlice,
        remote_addr: u64,
        rkey: u32,
    },
    /// One-sided write that additionally consumes a posted receive at the
    /// target and generates a receive completion carrying `imm` — the
    /// notification mechanism of the produce datapath (§4.2.2, Fig 4).
    WriteImm {
        local: BufSlice,
        remote_addr: u64,
        rkey: u32,
        imm: u32,
    },
    /// One-sided read from `(rkey, remote_addr)` into `local`.
    Read {
        local: BufSlice,
        remote_addr: u64,
        rkey: u32,
    },
    /// 8-byte compare-and-swap; the old value lands in `local` (8 bytes).
    CompareSwap {
        local: BufSlice,
        remote_addr: u64,
        rkey: u32,
        compare: u64,
        swap: u64,
    },
    /// 8-byte fetch-and-add; the old value lands in `local` (8 bytes).
    /// "RDMA FAA always succeeds" (§4.2.2) — the produce offset word relies
    /// on that.
    FetchAdd {
        local: BufSlice,
        remote_addr: u64,
        rkey: u32,
        add: u64,
    },
}

impl WorkRequest {
    /// Payload bytes this request puts on the forward wire.
    pub(crate) fn request_bytes(&self) -> u64 {
        match self {
            WorkRequest::Send { local } | WorkRequest::SendImm { local, .. } => local.len() as u64,
            WorkRequest::Write { local, .. } | WorkRequest::WriteImm { local, .. } => {
                local.len() as u64
            }
            // Read request / atomics carry only headers + addresses.
            WorkRequest::Read { .. } => 16,
            WorkRequest::CompareSwap { .. } => 32,
            WorkRequest::FetchAdd { .. } => 24,
        }
    }

    /// Payload bytes on the response wire.
    pub(crate) fn response_bytes(&self) -> u64 {
        match self {
            WorkRequest::Read { local, .. } => local.len() as u64,
            WorkRequest::CompareSwap { .. } | WorkRequest::FetchAdd { .. } => 8,
            _ => 0,
        }
    }

    /// Static name of the completion opcode, for trace events.
    pub(crate) fn opcode_name(&self) -> &'static str {
        match self.opcode() {
            CqOpcode::Send => "Send",
            CqOpcode::RdmaWrite => "RdmaWrite",
            CqOpcode::RdmaRead => "RdmaRead",
            CqOpcode::CompSwap => "CompSwap",
            CqOpcode::FetchAdd => "FetchAdd",
            CqOpcode::Recv | CqOpcode::RecvRdmaWithImm => unreachable!(),
        }
    }

    pub(crate) fn opcode(&self) -> CqOpcode {
        match self {
            WorkRequest::Send { .. } | WorkRequest::SendImm { .. } => CqOpcode::Send,
            WorkRequest::Write { .. } | WorkRequest::WriteImm { .. } => CqOpcode::RdmaWrite,
            WorkRequest::Read { .. } => CqOpcode::RdmaRead,
            WorkRequest::CompareSwap { .. } => CqOpcode::CompSwap,
            WorkRequest::FetchAdd { .. } => CqOpcode::FetchAdd,
        }
    }
}

/// A send-queue work request.
#[derive(Clone, Debug)]
pub struct SendWr {
    /// Application cookie returned in the completion.
    pub wr_id: u64,
    pub op: WorkRequest,
    /// Unsignalled requests produce no success completion (errors always
    /// complete).
    pub signaled: bool,
    /// Causal trace context riding with the WR. Copied into the initiator's
    /// send CQE *and* the target's receive CQE (for WriteImm/Send), which is
    /// how a lifeline crosses the verbs "process boundary" — the 32-bit
    /// immediate stays free for protocol data.
    pub trace: Option<kdtelem::TraceCtx>,
}

impl SendWr {
    pub fn new(wr_id: u64, op: WorkRequest) -> Self {
        SendWr {
            wr_id,
            op,
            signaled: true,
            trace: None,
        }
    }

    pub fn unsignaled(wr_id: u64, op: WorkRequest) -> Self {
        SendWr {
            wr_id,
            op,
            signaled: false,
            trace: None,
        }
    }

    /// Attaches a trace context (builder style).
    pub fn with_trace(mut self, trace: Option<kdtelem::TraceCtx>) -> Self {
        self.trace = trace;
        self
    }
}

/// A receive-queue work request. `buf: None` posts a zero-length receive,
/// enough to absorb a WriteWithImm notification.
#[derive(Clone, Debug)]
pub struct RecvWr {
    pub wr_id: u64,
    pub buf: Option<BufSlice>,
}

/// Completion status, mirroring `ibv_wc_status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqStatus {
    Success,
    /// rkey unknown / deregistered, out of bounds, or permission denied.
    RemoteAccessError,
    /// Remote operation failed (e.g. misaligned atomic).
    RemoteOpError,
    /// Receiver had no posted receive and the RNR timeout expired.
    RnrRetryExceeded,
    /// The QP entered the error state; queued work was flushed.
    FlushError,
    /// The local receive buffer was too small for an incoming Send.
    LocalLengthError,
}

impl CqStatus {
    pub fn is_ok(self) -> bool {
        self == CqStatus::Success
    }
}

/// Completion opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqOpcode {
    Send,
    RdmaWrite,
    RdmaRead,
    CompSwap,
    FetchAdd,
    Recv,
    /// Receive completion generated by a remote WriteWithImm (carries `imm`,
    /// no data in the receive buffer).
    RecvRdmaWithImm,
}

/// A completion queue entry.
#[derive(Debug, Clone)]
pub struct Cqe {
    pub wr_id: u64,
    /// Number of the QP this completion belongs to.
    pub qpn: u32,
    pub status: CqStatus,
    pub opcode: CqOpcode,
    /// Bytes transferred (receive side: bytes written).
    pub byte_len: u32,
    /// Immediate data, for `RecvRdmaWithImm` / `Recv` of a SendImm.
    pub imm: Option<u32>,
    /// Convenience copy of the old value returned by an atomic (also written
    /// to the WR's local buffer, as on real hardware).
    pub atomic_old: Option<u64>,
    /// Trace context carried by the WR that caused this completion (both
    /// directions: the poster's CQE and, for WriteImm/Send, the target's).
    pub trace: Option<kdtelem::TraceCtx>,
}

impl Cqe {
    pub fn ok(&self) -> bool {
        self.status.is_ok()
    }

    /// A completion that moved no bytes and carries no immediate, atomic
    /// result or trace context.
    pub(crate) fn bare(wr_id: u64, qpn: u32, status: CqStatus, opcode: CqOpcode) -> Cqe {
        Cqe {
            wr_id,
            qpn,
            status,
            opcode,
            byte_len: 0,
            imm: None,
            atomic_old: None,
            trace: None,
        }
    }
}

/// Error returned by `post_send`/`post_recv` on a broken QP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// The QP is in the error state (disconnected or flushed).
    QpError,
    /// The QP is not connected yet.
    NotConnected,
}

impl fmt::Display for PostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PostError::QpError => write!(f, "queue pair is in the error state"),
            PostError::NotConnected => write!(f, "queue pair is not connected"),
        }
    }
}

impl std::error::Error for PostError {}
