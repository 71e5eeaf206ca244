//! Length-prefixed framing over the simulated TCP byte stream, and a
//! pipelining RPC client.
//!
//! Frame layout: `u32 LE total-length | u64 LE correlation id |
//! u64 LE trace id | u64 LE span id | payload`. Correlation ids let a
//! client keep many requests in flight on one connection (Kafka pipelines
//! produce requests the same way). The trace pair carries a
//! [`kdtelem::TraceCtx`] across the process boundary so one message's
//! lifeline is stitched end to end; trace id 0 means "none".

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use kdstorage::codec::WireError;
use netsim::tcp::{Closed, ReadHalf, TcpStream, WriteHalf};
use sim::sync::oneshot;
use sim::{InlineDeque, SimTime};

use crate::messages::{Request, Response};

/// Upper bound on a frame; a decoded length above this means stream
/// corruption (fail fast rather than allocate absurdly).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Errors surfaced by the RPC client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// Connection closed (peer gone / broker shut down).
    Closed,
    /// Peer sent bytes that do not decode.
    Protocol,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Closed => write!(f, "connection closed"),
            RpcError::Protocol => write!(f, "protocol decode error"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<Closed> for RpcError {
    fn from(_: Closed) -> Self {
        RpcError::Closed
    }
}

/// Bytes of a frame ahead of its payload: the length, the correlation id and
/// the trace pair.
pub const HEADER_LEN: usize = 28;

/// Empties `frame` and reserves its header: append the payload, then hand
/// it to [`write_frame_from`], which fills the header in. A frame assembled
/// this way is written as it is, with no copy into a second buffer.
pub fn begin_frame(frame: &mut Vec<u8>) {
    frame.clear();
    frame.resize(HEADER_LEN, 0);
}

/// Writes the `(correlation, trace, payload)` frame `frame` holds behind the
/// header [`begin_frame`] reserved, filling that header in. The write's
/// syscall begins at `start`, or now if that has passed
/// ([`WriteHalf::write_all_from`]). The trace context also scopes the
/// write's wire reservations, so link enqueue/deliver events land on the
/// message's lifeline.
///
/// # Panics
/// Panics if `frame` is shorter than its header.
pub async fn write_frame_from(
    w: &mut WriteHalf,
    start: SimTime,
    correlation: u64,
    trace: Option<kdtelem::TraceCtx>,
    frame: &mut [u8],
) -> Result<(), Closed> {
    let total = frame.len().saturating_sub(4) as u32;
    let (trace_id, span_id) = trace.map_or((0, 0), |t| (t.trace_id, t.span_id));
    let (head, _) = frame
        .split_first_chunk_mut::<HEADER_LEN>()
        .expect("a frame begins with its header");
    head[..4].copy_from_slice(&total.to_le_bytes());
    head[4..12].copy_from_slice(&correlation.to_le_bytes());
    head[12..20].copy_from_slice(&trace_id.to_le_bytes());
    head[20..].copy_from_slice(&span_id.to_le_bytes());
    w.set_trace(trace);
    let res = w.write_all_from(start, frame).await;
    w.set_trace(None);
    res
}

/// Writes one `(correlation, trace, payload)` frame now, assembled in a
/// recycled scratch buffer.
pub async fn write_frame(
    w: &mut WriteHalf,
    correlation: u64,
    trace: Option<kdtelem::TraceCtx>,
    payload: &[u8],
) -> Result<(), Closed> {
    let mut frame = kdbuf::scratch();
    begin_frame(&mut frame);
    frame.extend_from_slice(payload);
    write_frame_from(w, SimTime::ZERO, correlation, trace, &mut frame).await
}

/// Reads one `(correlation, trace, payload)` frame into a vector of its own.
pub async fn read_frame(
    r: &mut ReadHalf,
) -> Result<(u64, Option<kdtelem::TraceCtx>, Vec<u8>), Closed> {
    let mut copied = Vec::new();
    let (correlation, trace, payload) = read_frame_into(r, &mut copied).await?;
    let payload = match payload {
        Payload::View(view) => view.to_vec(),
        Payload::Copied(_) => copied,
    };
    Ok((correlation, trace, payload))
}

/// A frame's payload, as [`read_frame_into`] hands it up; derefs to its
/// bytes.
#[derive(Debug)]
pub enum Payload<'a> {
    /// The payload lay in one received chunk: a view of it, which keeps the
    /// chunk from its pool until dropped, so hold it across no wait.
    View(kdbuf::Buf),
    /// The payload spanned chunks and was copied into the reader's buffer.
    Copied(&'a [u8]),
}

impl std::ops::Deref for Payload<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::View(view) => view,
            Payload::Copied(bytes) => bytes,
        }
    }
}

/// Reads one frame: `(correlation, trace, payload)`. A payload that lies
/// whole in the received chunk its header ended in is a view of that chunk
/// (a frame written in one write of at most an MSS always is); any other
/// replaces `copied`'s contents, which is allocation-free once `copied` has
/// the capacity, so a decode loop reuses one buffer across frames. The
/// header is read onto the stack.
pub async fn read_frame_into<'a>(
    r: &mut ReadHalf,
    copied: &'a mut Vec<u8>,
) -> Result<(u64, Option<kdtelem::TraceCtx>, Payload<'a>), Closed> {
    let mut len = [0u8; 4];
    r.read_exact_to(&mut len).await?;
    let total = u32::from_le_bytes(len) as usize;
    if !(HEADER_LEN - 4..=MAX_FRAME).contains(&total) {
        return Err(Closed);
    }
    let mut head = [0u8; HEADER_LEN - 4];
    r.read_exact_to(&mut head).await?;
    let (&[correlation, trace_id, span_id], []) = head.as_chunks() else {
        return Err(Closed);
    };
    let [correlation, trace_id, span_id] = [correlation, trace_id, span_id].map(u64::from_le_bytes);
    let trace = move || (trace_id != 0).then_some(kdtelem::TraceCtx { trace_id, span_id });
    let len = total - (HEADER_LEN - 4);
    if let Some(view) = r.read_view(len) {
        return Ok((correlation, trace(), Payload::View(view)));
    }
    copied.clear();
    r.read_exact_into(len, copied).await?;
    Ok((correlation, trace(), Payload::Copied(copied)))
}

/// A call's outcome: the decoded response, or why there is none.
pub type Reply = Result<Response, RpcError>;

/// The client half of correlation, whatever carries the frames (framed TCP
/// here, OSU Sends in `kdclient`): the next correlation id, the caller
/// parked on each id in flight, and whether the connection has died. Reply
/// cells come from a pool, so a steady stream of calls allocates nothing.
/// Ids are handed out in increasing order, so the calls in flight are a
/// deque sorted by id, searched by binary search; a connection with one
/// call at a time keeps it inline, and a close fails its calls in id order.
#[derive(Default)]
pub struct Calls {
    pending: RefCell<InlineDeque<(u64, oneshot::Sender<Reply>)>>,
    cells: oneshot::Pool<Reply>,
    /// The last correlation id handed out; the first call gets 1.
    last: Cell<u64>,
    dead: Cell<bool>,
}

impl Calls {
    /// Opens a call: its correlation id and where its reply arrives (await
    /// it with [`reply`]); dropping the receiver cancels the call. `Closed`
    /// once the connection has died.
    pub fn open(&self) -> Result<(u64, oneshot::Receiver<Reply>), RpcError> {
        if self.dead.get() {
            return Err(RpcError::Closed);
        }
        let correlation = self.last.get() + 1;
        self.last.set(correlation);
        let (tx, rx) = self.cells.channel();
        self.pending.borrow_mut().push_back((correlation, tx));
        Ok((correlation, rx))
    }

    /// Forgets a call whose request never left (its write or post failed).
    pub fn cancel(&self, correlation: u64) {
        drop(self.take(correlation));
    }

    /// Takes the caller of `correlation` off the calls in flight.
    fn take(&self, correlation: u64) -> Option<oneshot::Sender<Reply>> {
        let mut pending = self.pending.borrow_mut();
        let at = pending.find_by_key(correlation, |call| call.0)?;
        pending.remove(at).map(|(_, tx)| tx)
    }

    /// Hands the decoded response body to the caller of `correlation`: an
    /// undecodable body fails that caller only, with `Protocol`. A response
    /// to no call in flight is ignored.
    pub fn answer(&self, correlation: u64, decoded: Result<Response, WireError>) {
        if let Some(tx) = self.take(correlation) {
            let _ = tx.send(decoded.map_err(|_| RpcError::Protocol));
        }
    }

    /// The connection died: every call in flight fails with `Closed`, and so
    /// does every later [`open`](Self::open).
    pub fn close(&self) {
        self.dead.set(true);
        self.pending.borrow_mut().clear();
    }

    /// True once the connection has died.
    pub fn is_dead(&self) -> bool {
        self.dead.get()
    }
}

/// Waits for a call's reply as a thread that pays `charge` of CPU once it
/// is in: the reply's arrival arms the caller's timer for that much later,
/// so the wake and the charge are one event (`oneshot::Receiver::charged`;
/// a zero charge is a plain receive). Callers hold the receiver (one
/// pointer), not this future, across the request's write, which keeps their
/// frames small.
pub async fn reply(rx: oneshot::Receiver<Reply>, charge: Duration) -> Reply {
    rx.charged(charge).await.unwrap_or(Err(RpcError::Closed))
}

/// A client connection that pipelines requests: `call` may be invoked from
/// many tasks concurrently; responses are demultiplexed by correlation id by
/// a background reader task.
#[derive(Clone)]
pub struct RpcClient {
    inner: Rc<RpcInner>,
}

/// The write half, whose frames must not interleave, and the calls. The
/// reader holds it weakly: the last client handle to go closes the stream.
struct RpcInner {
    write: sim::sync::Mutex<WriteHalf>,
    calls: Calls,
}

impl RpcClient {
    /// Wraps a connected stream, spawning the demux reader task.
    pub fn new(stream: TcpStream) -> RpcClient {
        let (mut read, write) = stream.into_split();
        let inner = Rc::new(RpcInner {
            write: sim::sync::Mutex::new(write),
            calls: Calls::default(),
        });
        let weak = Rc::downgrade(&inner);
        sim::spawn_detached(async move {
            let mut copied = Vec::new();
            while let Ok((correlation, _trace, payload)) = read_frame_into(&mut read, &mut copied).await {
                if let Some(inner) = weak.upgrade() {
                    inner.calls.answer(correlation, Response::decode(&payload));
                }
            }
            if let Some(inner) = weak.upgrade() {
                inner.calls.close();
            }
        });
        RpcClient { inner }
    }

    /// True once the connection has failed.
    pub fn is_dead(&self) -> bool {
        self.inner.calls.is_dead()
    }

    /// Sends a request and waits for its response. Multiple `call`s from
    /// different tasks pipeline on the wire.
    pub async fn call(&self, request: &Request) -> Result<Response, RpcError> {
        self.call_with(|body| request.encode_into(body), None, Duration::ZERO).await
    }

    /// As [`call`](Self::call) for a request `encode` appends to a scratch
    /// buffer (e.g. [`Request::encode_produce_into`] over borrowed parts),
    /// stamping the frame with a trace context so the broker continues the
    /// caller's lifeline, and paying `charge` on the reply's wake
    /// ([`reply`]). The request is encoded once, behind its frame header,
    /// and the buffer is released once the frame is written.
    pub async fn call_with(
        &self,
        encode: impl FnOnce(&mut Vec<u8>),
        trace: Option<kdtelem::TraceCtx>,
        charge: Duration,
    ) -> Result<Response, RpcError> {
        let (correlation, rx) = self.inner.calls.open()?;
        {
            let mut frame = kdbuf::scratch();
            begin_frame(&mut frame);
            encode(&mut frame);
            let mut w = self.inner.write.lock().await;
            if write_frame_from(&mut w, SimTime::ZERO, correlation, trace, &mut frame)
                .await
                .is_err()
            {
                self.inner.calls.cancel(correlation);
                return Err(RpcError::Closed);
            }
        }
        reply(rx, charge).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ErrorCode;
    use netsim::profile::Profile;
    use netsim::tcp::TcpListener;
    use netsim::Fabric;

    /// A frame whose payload lies in one received chunk comes up as a view
    /// of that chunk; one that spans chunks is copied into the reader's
    /// buffer. Either way the bytes are the frame's.
    #[test]
    fn a_frame_in_one_chunk_is_a_view_of_it() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let mss = f.profile().net.tcp_mss as usize;
            let (a, b) = (f.add_node("a"), f.add_node("b"));
            let mut l = TcpListener::bind(&b, 1);
            let (_, mut w) = netsim::tcp::connect(&a, b.id, 1).await.unwrap().into_split();
            let (mut r, _w) = l.accept().await.unwrap().into_split();
            let small: Vec<u8> = (0..40).collect();
            let large: Vec<u8> = (0..3 * mss).map(|i| i as u8).collect();
            // Two small frames in one chunk, then one across four.
            let mut two = Vec::new();
            for corr in [1u64, 2] {
                two.extend_from_slice(&((HEADER_LEN - 4 + small.len()) as u32).to_le_bytes());
                two.extend_from_slice(&corr.to_le_bytes());
                two.extend_from_slice(&[0; 16]);
                two.extend_from_slice(&small);
            }
            w.write_all(&two).await.unwrap();
            write_frame(&mut w, 3, None, &large).await.unwrap();
            let mut copied = Vec::new();
            for corr in [1, 2] {
                let (got, _, payload) = read_frame_into(&mut r, &mut copied).await.unwrap();
                assert_eq!(got, corr);
                assert!(matches!(payload, Payload::View(_)), "frame {corr} is a view");
                assert_eq!(*payload, small[..]);
            }
            let (got, _, payload) = read_frame_into(&mut r, &mut copied).await.unwrap();
            assert_eq!(got, 3);
            assert!(matches!(payload, Payload::Copied(_)), "a frame across chunks is copied");
            assert_eq!(*payload, large[..]);
        });
    }

    #[test]
    fn frame_round_trip() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let a = f.add_node("a");
            let b = f.add_node("b");
            let mut l = TcpListener::bind(&b, 1);
            sim::spawn(async move {
                let s = l.accept().await.unwrap();
                let (mut r, mut w) = s.into_split();
                let (corr, trace, payload) = read_frame(&mut r).await.unwrap();
                assert_eq!(corr, 42);
                assert_eq!(
                    trace,
                    Some(kdtelem::TraceCtx {
                        trace_id: 7,
                        span_id: 9
                    })
                );
                write_frame(&mut w, corr, None, &payload).await.unwrap();
            });
            let s = netsim::tcp::connect(&a, b.id, 1).await.unwrap();
            let (mut r, mut w) = s.into_split();
            let ctx = kdtelem::TraceCtx {
                trace_id: 7,
                span_id: 9,
            };
            write_frame(&mut w, 42, Some(ctx), b"hello").await.unwrap();
            let (corr, trace, echoed) = read_frame(&mut r).await.unwrap();
            assert_eq!(corr, 42);
            assert_eq!(trace, None);
            assert_eq!(echoed, b"hello");
        });
    }

    /// Peer bytes on the stream: a frame with flipped header bits, cut
    /// short, or given a random length. The reader either delivers frames
    /// that are exactly what was sent at their place in the stream, or ends
    /// with `Closed`. It never panics.
    #[test]
    fn hostile_frames_deliver_only_what_was_sent() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let a = f.add_node("a");
            let b = f.add_node("b");
            let mut l = TcpListener::bind(&b, 1);
            let mut rng = sim::rng::SimRng::seed_from_u64(0xf4a3e);
            for round in 0..20_000 {
                let total = 24 + rng.below(64) as u32;
                let mut wire = vec![0u8; 4 + total as usize];
                rng.fill(&mut wire);
                wire[..4].copy_from_slice(&total.to_le_bytes());
                match rng.below(3) {
                    0 => wire[rng.below(28) as usize] ^= 1 << rng.below(8),
                    1 => wire.truncate(rng.below(wire.len() as u64) as usize),
                    _ => wire[..4].copy_from_slice(&rng.next_u32().to_le_bytes()),
                }
                let (_, mut w) = netsim::tcp::connect(&a, b.id, 1).await.unwrap().into_split();
                w.write_all(&wire).await.unwrap();
                drop(w);
                let (mut r, _w) = l.accept().await.unwrap().into_split();
                let (mut at, mut copied) = (0, Vec::new());
                while let Ok((correlation, _, payload)) = read_frame_into(&mut r, &mut copied).await {
                    assert_eq!(wire[at + 4..at + 12], correlation.to_le_bytes(), "round {round}");
                    assert_eq!(wire[at + 28..at + 28 + payload.len()], *payload, "round {round}");
                    at += 28 + payload.len();
                }
            }
        });
    }

    #[test]
    fn rpc_client_pipelines_and_demuxes() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let a = f.add_node("a");
            let b = f.add_node("b");
            let mut l = TcpListener::bind(&b, 1);
            // Server answering ListOffsets with latest = partition, in
            // REVERSE arrival order, to exercise demux.
            sim::spawn(async move {
                let s = l.accept().await.unwrap();
                let (mut r, mut w) = s.into_split();
                let mut got = Vec::new();
                for _ in 0..3 {
                    got.push(read_frame(&mut r).await.unwrap());
                }
                got.reverse();
                for (corr, _trace, payload) in got {
                    let req = Request::decode(&payload).unwrap();
                    let Request::ListOffsets { partition, .. } = req else {
                        panic!("unexpected request");
                    };
                    let resp = Response::ListOffsets {
                        error: ErrorCode::None,
                        earliest: 0,
                        latest: u64::from(partition),
                    };
                    write_frame(&mut w, corr, None, &resp.encode()).await.unwrap();
                }
            });
            let s = netsim::tcp::connect(&a, b.id, 1).await.unwrap();
            let client = RpcClient::new(s);
            let mut handles = Vec::new();
            for p in 0..3u32 {
                let c = client.clone();
                handles.push(sim::spawn(async move {
                    let resp = c
                        .call(&Request::ListOffsets {
                            topic: "t".into(),
                            partition: p,
                        })
                        .await
                        .unwrap();
                    match resp {
                        Response::ListOffsets { latest, .. } => {
                            assert_eq!(latest, u64::from(p));
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }));
            }
            for h in handles {
                h.await.unwrap();
            }
        });
    }

    #[test]
    fn rpc_client_fails_cleanly_on_close() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let a = f.add_node("a");
            let b = f.add_node("b");
            let mut l = TcpListener::bind(&b, 1);
            sim::spawn(async move {
                let s = l.accept().await.unwrap();
                drop(s); // immediate close
            });
            let s = netsim::tcp::connect(&a, b.id, 1).await.unwrap();
            let client = RpcClient::new(s);
            let err = client
                .call(&Request::Metadata { topics: vec![] })
                .await
                .err();
            assert_eq!(err, Some(RpcError::Closed));
            assert!(client.is_dead());
        });
    }

    #[test]
    fn undecodable_response_is_a_protocol_error_not_a_close() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let a = f.add_node("a");
            let b = f.add_node("b");
            let mut l = TcpListener::bind(&b, 1);
            sim::spawn(async move {
                let s = l.accept().await.unwrap();
                let (mut r, mut w) = s.into_split();
                // First answer: a well-framed payload that is no Response.
                let (corr, ..) = read_frame(&mut r).await.unwrap();
                write_frame(&mut w, corr, None, &[200, 1, 2, 3]).await.unwrap();
                let (corr, ..) = read_frame(&mut r).await.unwrap();
                let ok = Response::CreateTopic {
                    error: ErrorCode::None,
                };
                write_frame(&mut w, corr, None, &ok.encode()).await.unwrap();
                let _ = read_frame(&mut r).await; // hold the stream open
            });
            let s = netsim::tcp::connect(&a, b.id, 1).await.unwrap();
            let client = RpcClient::new(s);
            let req = Request::Metadata { topics: vec![] };
            assert_eq!(client.call(&req).await.err(), Some(RpcError::Protocol));
            // Framing was intact: the connection lives on.
            assert!(!client.is_dead());
            assert!(client.call(&req).await.is_ok());
        });
    }
}
