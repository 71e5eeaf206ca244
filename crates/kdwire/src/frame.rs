//! Length-prefixed framing over the simulated TCP byte stream, and a
//! pipelining RPC client.
//!
//! Frame layout: `u32 LE total-length | u64 LE correlation id |
//! u64 LE trace id | u64 LE span id | payload`. Correlation ids let a
//! client keep many requests in flight on one connection (Kafka pipelines
//! produce requests the same way). The trace pair carries a
//! [`kdtelem::TraceCtx`] across the process boundary so one message's
//! lifeline is stitched end to end; trace id 0 means "none".

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use netsim::tcp::{Closed, ReadHalf, TcpStream, WriteHalf};

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

/// Writes one `(correlation, trace, payload)` frame. The trace context also
/// scopes the write's wire reservations, so link enqueue/deliver events land
/// on the message's lifeline.
pub async fn write_frame(
    w: &mut WriteHalf,
    correlation: u64,
    trace: Option<kdtelem::TraceCtx>,
    payload: &[u8],
) -> Result<(), Closed> {
    let total = 24 + payload.len();
    // Assembled in a recycled scratch buffer: steady-state framing does not
    // allocate.
    let mut frame = kdbuf::scratch();
    frame.reserve(4 + total);
    frame.extend_from_slice(&(total as u32).to_le_bytes());
    frame.extend_from_slice(&correlation.to_le_bytes());
    let (trace_id, span_id) = trace.map_or((0, 0), |t| (t.trace_id, t.span_id));
    frame.extend_from_slice(&trace_id.to_le_bytes());
    frame.extend_from_slice(&span_id.to_le_bytes());
    frame.extend_from_slice(payload);
    w.set_trace(trace);
    let res = w.write_all(&frame).await;
    w.set_trace(None);
    res
}

/// Reads one `(correlation, trace, payload)` frame.
pub async fn read_frame(
    r: &mut ReadHalf,
) -> Result<(u64, Option<kdtelem::TraceCtx>, Vec<u8>), Closed> {
    let mut payload = Vec::new();
    let (correlation, trace) = read_frame_into(r, &mut payload).await?;
    Ok((correlation, trace, payload))
}

/// Reads one frame, replacing `out`'s contents with the payload. Returns
/// `(correlation, trace)`. Allocation-free when `out` already has capacity,
/// so decode loops can reuse one buffer across frames.
pub async fn read_frame_into(
    r: &mut ReadHalf,
    out: &mut Vec<u8>,
) -> Result<(u64, Option<kdtelem::TraceCtx>), Closed> {
    let mut head = kdbuf::scratch();
    r.read_exact_into(4, &mut head).await?;
    let total = head.first_chunk().map_or(0, |b| u32::from_le_bytes(*b)) as usize;
    if !(24..=MAX_FRAME).contains(&total) {
        return Err(Closed);
    }
    head.clear();
    r.read_exact_into(24, &mut head).await?;
    let (&[correlation, trace_id, span_id], []) = head.as_chunks() else {
        return Err(Closed);
    };
    let [correlation, trace_id, span_id] = [correlation, trace_id, span_id].map(u64::from_le_bytes);
    out.clear();
    r.read_exact_into(total - 24, out).await?;
    let trace = (trace_id != 0).then_some(kdtelem::TraceCtx { trace_id, span_id });
    Ok((correlation, trace))
}

/// A reusable reply rendezvous: the caller parks here until the demux
/// reader fulfills it. Slots cycle through a free list so steady-state
/// `call`s allocate nothing (the per-call `oneshot::channel` this replaces
/// cost one `Rc` allocation per request).
struct ReplySlot {
    value: RefCell<Option<Result<Response, RpcError>>>,
    waker: RefCell<Option<std::task::Waker>>,
}

impl ReplySlot {
    fn fulfill(&self, v: Result<Response, RpcError>) {
        *self.value.borrow_mut() = Some(v);
        if let Some(w) = self.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

struct RpcShared {
    pending: RefCell<HashMap<u64, Rc<ReplySlot>>>,
    free: RefCell<Vec<Rc<ReplySlot>>>,
    next_correlation: std::cell::Cell<u64>,
    dead: std::cell::Cell<bool>,
}

impl RpcShared {
    fn take_slot(&self) -> Rc<ReplySlot> {
        let slot = self.free.borrow_mut().pop().unwrap_or_else(|| {
            Rc::new(ReplySlot {
                value: RefCell::new(None),
                waker: RefCell::new(None),
            })
        });
        *slot.value.borrow_mut() = None;
        *slot.waker.borrow_mut() = None;
        slot
    }

    /// Returns a slot to the free list once the caller is its only owner.
    /// A slot whose caller was cancelled mid-flight still sits in `pending`
    /// (count > 1) and is simply dropped when the reader fulfills it.
    fn recycle(&self, slot: Rc<ReplySlot>) {
        if Rc::strong_count(&slot) == 1 {
            self.free.borrow_mut().push(slot);
        }
    }
}

/// A client connection that pipelines requests: `call` may be invoked from
/// many tasks concurrently; responses are demultiplexed by correlation id by
/// a background reader task.
#[derive(Clone)]
pub struct RpcClient {
    write: Rc<sim::sync::Mutex<WriteHalf>>,
    shared: Rc<RpcShared>,
}

impl RpcClient {
    /// Wraps a connected stream, spawning the demux reader task.
    pub fn new(stream: TcpStream) -> RpcClient {
        let (mut read, write) = stream.into_split();
        let shared = Rc::new(RpcShared {
            pending: RefCell::new(HashMap::new()),
            free: RefCell::new(Vec::new()),
            next_correlation: std::cell::Cell::new(1),
            dead: std::cell::Cell::new(false),
        });
        let shared2 = Rc::clone(&shared);
        sim::spawn_detached(async move {
            let mut payload = Vec::new();
            while let Ok((correlation, _trace)) = read_frame_into(&mut read, &mut payload).await {
                let waiter = shared2.pending.borrow_mut().remove(&correlation);
                if let Some(slot) = waiter {
                    slot.fulfill(Response::decode(&payload).map_err(|_| RpcError::Protocol));
                }
            }
            // Connection gone: fail everything pending.
            shared2.dead.set(true);
            for (_, slot) in shared2.pending.borrow_mut().drain() {
                slot.fulfill(Err(RpcError::Closed));
            }
        });
        RpcClient {
            write: Rc::new(sim::sync::Mutex::new(write)),
            shared,
        }
    }

    /// True once the connection has failed.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.get()
    }

    /// Sends a request and waits for its response. Multiple `call`s from
    /// different tasks pipeline on the wire.
    pub async fn call(&self, request: &Request) -> Result<Response, RpcError> {
        self.call_traced(request, None).await
    }

    /// As [`call`](Self::call), stamping the frame with a trace context so
    /// the broker continues the caller's lifeline.
    pub async fn call_traced(
        &self,
        request: &Request,
        trace: Option<kdtelem::TraceCtx>,
    ) -> Result<Response, RpcError> {
        self.call_with(|body| request.encode_into(body), trace).await
    }

    /// As [`call_traced`](Self::call_traced) for a request `encode` appends
    /// to a scratch buffer (e.g. [`Request::encode_produce_into`] over
    /// borrowed parts); the buffer is released once the frame is written.
    pub async fn call_with(
        &self,
        encode: impl FnOnce(&mut Vec<u8>),
        trace: Option<kdtelem::TraceCtx>,
    ) -> Result<Response, RpcError> {
        if self.shared.dead.get() {
            return Err(RpcError::Closed);
        }
        let correlation = self.shared.next_correlation.get();
        self.shared.next_correlation.set(correlation + 1);
        let slot = self.shared.take_slot();
        self.shared
            .pending
            .borrow_mut()
            .insert(correlation, Rc::clone(&slot));
        {
            let mut body = kdbuf::scratch();
            encode(&mut body);
            let mut w = self.write.lock().await;
            if write_frame(&mut w, correlation, trace, &body)
                .await
                .is_err()
            {
                drop(self.shared.pending.borrow_mut().remove(&correlation));
                self.shared.recycle(slot);
                return Err(RpcError::Closed);
            }
        }
        let res = std::future::poll_fn(|cx| {
            if let Some(v) = slot.value.borrow_mut().take() {
                return std::task::Poll::Ready(v);
            }
            *slot.waker.borrow_mut() = Some(cx.waker().clone());
            std::task::Poll::Pending
        })
        .await;
        self.shared.recycle(slot);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ErrorCode;
    use netsim::profile::Profile;
    use netsim::tcp::TcpListener;
    use netsim::Fabric;

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
                let (mut at, mut payload) = (0, Vec::new());
                while let Ok((correlation, _)) = read_frame_into(&mut r, &mut payload).await {
                    assert_eq!(wire[at + 4..at + 12], correlation.to_le_bytes(), "round {round}");
                    assert_eq!(wire[at + 28..at + 28 + payload.len()], payload, "round {round}");
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
