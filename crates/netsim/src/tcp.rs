//! Simulated TCP over the fabric.
//!
//! Reproduces the properties of the kernel TCP/IP (IPoIB) path that the
//! paper identifies as Kafka's bottleneck (§4.2.1):
//!
//! * per-message syscall and stack-traversal latency,
//! * a **real** kernel↔user copy on each side (the "driver copies all
//!   received messages from its receive buffers to Kafka's receive buffers"
//!   copy — the bytes really are copied, and the copy is charged in virtual
//!   time),
//! * flow control via a bounded socket buffer,
//! * markedly lower goodput than verbs on the same link.
//!
//! The interface is a byte stream (`read_exact` / `write_all`), so protocol
//! code must do its own framing exactly as it would over real sockets.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::rc::Rc;
use std::task::{Poll, Waker};
use std::time::Duration;

use sim::sync::Frontier;
use sim::{InlineDeque, SimTime};

use crate::bind::Bound;
use crate::fabric::{Fabric, NodeHandle, NodeId};
use crate::profile::copy_time;

/// Error for operations on a closed connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl fmt::Display for Closed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "connection closed by peer")
    }
}

impl std::error::Error for Closed {}

/// Error returned by [`connect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// Nothing is listening at the destination address.
    ConnectionRefused,
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "connection refused")
    }
}

impl std::error::Error for ConnectError {}

struct Chunk {
    arrival: SimTime,
    data: kdbuf::Buf,
}

/// What one direction of a connection holds between its two halves: the
/// chunks sent and not yet read, in send order (a late chunk holds back the
/// ones behind it, as in TCP). The first is inline: a request-reply
/// connection rarely has two in flight.
#[derive(Default)]
struct Chunks {
    queue: InlineDeque<Chunk>,
    /// The reader's waker while it is parked on an empty pipe. The push
    /// that ends the wait arms it for the instant the chunk is readable, so
    /// a parked reader is polled once per chunk.
    reader: Option<Waker>,
    writer_gone: bool,
    reader_gone: bool,
}

/// One direction of a connection.
#[derive(Default)]
struct Pipe {
    chunks: RefCell<Chunks>,
    /// The send window: bytes the reader has taken. The one writer may have
    /// `socket_buffer` bytes beyond it written. A reader that goes away
    /// releases it to the end, so a writer parked on it wakes.
    released: Frontier,
}

/// Both directions of a connection, in one block its four halves share.
#[derive(Default)]
struct Connection {
    pipes: [Pipe; 2],
}

/// The write side of one direction of a connection.
pub struct WriteHalf {
    fabric: Fabric,
    src: NodeId,
    dst: NodeId,
    conn: Rc<Connection>,
    /// Which of `conn`'s pipes this half writes.
    dir: usize,
    /// Bytes this half has taken window for.
    written: u64,
    /// Trace context applied to wire reservations of subsequent writes, so a
    /// framing layer can attribute link traversals to one message's lifeline.
    trace: Option<kdtelem::TraceCtx>,
}

/// The read side of one direction of a connection. A read hands over bytes
/// as it takes them, so one dropped before it returns loses what it took,
/// as a frame read dropped between its header and body always did: drop
/// the stream with it.
pub struct ReadHalf {
    fabric: Fabric,
    conn: Rc<Connection>,
    /// Which of `conn`'s pipes this half reads.
    dir: usize,
    /// The chunk being read, taken from the pipe, and how much of it is read.
    head: Option<(kdbuf::Buf, usize)>,
    eof: bool,
}

/// A full-duplex simulated TCP connection.
pub struct TcpStream {
    read: ReadHalf,
    write: WriteHalf,
    peer: NodeId,
    local: NodeId,
}

/// The halves of `conn`'s pipe `dir`, which carries `src`'s bytes to `dst`.
fn pipe(
    fabric: &Fabric,
    conn: &Rc<Connection>,
    dir: usize,
    src: NodeId,
    dst: NodeId,
) -> (WriteHalf, ReadHalf) {
    (
        WriteHalf {
            fabric: fabric.clone(),
            src,
            dst,
            conn: Rc::clone(conn),
            dir,
            written: 0,
            trace: None,
        },
        ReadHalf {
            fabric: fabric.clone(),
            conn: Rc::clone(conn),
            dir,
            head: None,
            eof: false,
        },
    )
}

/// A passive listening socket.
pub struct TcpListener(pub(crate) Bound<TcpStream>);

impl TcpListener {
    /// Binds to an explicit port on `node`.
    ///
    /// # Panics
    /// Panics if the port is already bound (a configuration bug in a
    /// simulation scenario).
    pub fn bind(node: &NodeHandle, port: u16) -> TcpListener {
        TcpListener(node.fabric.inner.tcp_listeners.bind(node.id, port))
    }

    /// Waits for the next inbound connection. Returns `None` once the port
    /// was force-unbound.
    pub async fn accept(&mut self) -> Option<TcpStream> {
        self.0.accept().await
    }
}

/// Force-unbinds a listening port from the outside; see
/// [`BindTable::unbind`](crate::bind::BindTable::unbind).
pub fn unbind(node: &NodeHandle, port: u16) -> bool {
    node.fabric.inner.tcp_listeners.unbind(node.id, port)
}

/// Opens a connection from `node` to `(dst, port)`. Pays the handshake cost.
pub async fn connect(node: &NodeHandle, dst: NodeId, port: u16) -> Result<TcpStream, ConnectError> {
    let fabric = &node.fabric;
    if fabric.path_blocked(node.id, dst) || fabric.path_blocked(dst, node.id) {
        return Err(ConnectError::ConnectionRefused);
    }
    let slot = fabric.inner.tcp_listeners.sender(dst, port);
    let slot = slot.ok_or(ConnectError::ConnectionRefused)?;
    sim::time::sleep(fabric.profile().net.tcp_connect).await;

    let conn = Rc::default();
    let (w_cs, r_cs) = pipe(fabric, &conn, 0, node.id, dst); // client -> server
    let (w_sc, r_sc) = pipe(fabric, &conn, 1, dst, node.id); // server -> client
    let server = TcpStream {
        read: r_cs,
        write: w_sc,
        peer: node.id,
        local: dst,
    };
    let client = TcpStream {
        read: r_sc,
        write: w_cs,
        peer: dst,
        local: node.id,
    };
    slot.try_send(server)
        .map_err(|_| ConnectError::ConnectionRefused)?;
    Ok(client)
}

impl WriteHalf {
    /// Writes the whole buffer, respecting flow control. Charges the
    /// sender's syscall once plus the user→kernel copy per MSS chunk, and
    /// reserves wire time on the path.
    pub fn write_all<'a>(
        &'a mut self,
        data: &'a [u8],
    ) -> impl Future<Output = Result<(), Closed>> + 'a {
        self.write_all_from(SimTime::ZERO, data)
    }

    /// [`write_all`](Self::write_all) with the syscall beginning at `start`
    /// (now, if that has passed): the write of a thread that is busy until
    /// `start` first, in one timer where a sleep until `start` and the
    /// write would be two. It returns and delivers at the instants of that
    /// pair: before its first sleep a write only reads the path and takes
    /// socket-buffer room, and this half is the pipe's only writer and only
    /// its reader gives room back, so room now is room at `start`. A path
    /// read now is the path at `start` unless its state changes in between.
    /// A write that finds the reader gone fails at `start`: it copies
    /// nothing and puts nothing on the wire.
    pub async fn write_all_from(&mut self, start: SimTime, data: &[u8]) -> Result<(), Closed> {
        let profile = self.fabric.profile();
        let net = &profile.net;
        let start = start.max(sim::now());
        if data.is_empty() || self.is_closed() {
            sim::time::sleep_until(start).await;
            return if self.is_closed() {
                Err(Closed)
            } else {
                Ok(())
            };
        }
        let copy = |len: usize| copy_time(len as u64, net.kernel_copy_bandwidth);
        let mss = net.tcp_mss as usize;
        // The syscall and the first chunk's copy are one stretch of CPU
        // time, hence one timer, when nothing can come between them: the
        // path is up and the socket buffer has room now.
        let first = data.len().min(mss);
        let mut granted = !self.fabric.path_blocked(self.src, self.dst) && self.has_room(first);
        let first_copy = if granted { copy(first) } else { Duration::ZERO };
        sim::time::sleep_until(start + net.tcp_syscall + first_copy).await;
        // Injected-fault handling: a blocked path (partition / link down)
        // resets the connection; a drop costs one retransmission timeout
        // per dropped attempt.
        let rto = net.tcp_connect.max(Duration::from_micros(200));
        for chunk in data.chunks(mss) {
            if self.fabric.path_blocked(self.src, self.dst) {
                return Err(Closed);
            }
            // The window this takes comes back as the reader takes the
            // chunk. The user→kernel copy really happens (into a pooled
            // MSS-sized packet buffer) and is charged at kernel copy
            // bandwidth: a granted first chunk's was charged above.
            let charged = std::mem::take(&mut granted);
            if !charged && !self.has_room(chunk.len()) {
                let released = &self.conn.pipes[self.dir].released;
                released.reached(self.room_needed(chunk.len())).await;
                // Woken by the reader going away: nothing to copy for.
                if self.is_closed() {
                    return Err(Closed);
                }
            }
            self.written += chunk.len() as u64;
            if !charged {
                sim::time::sleep(copy(chunk.len())).await;
            }
            let (fault_delay, retransmits) = self
                .fabric
                .node(self.src)
                .egress
                .sample_tcp_faults()
                .ok_or(Closed)?;
            let wire_arrival = {
                // Scoped so the ambient guard never lives across an await.
                let _scope = self.trace.map(kdtelem::enter_ctx);
                self.fabric
                    .reserve_tcp_path(sim::now(), self.src, self.dst, chunk.len() as u64)
            };
            let arrival = wire_arrival + net.tcp_stack_oneway + fault_delay + rto * retransmits;
            let mut pipe = self.conn.pipes[self.dir].chunks.borrow_mut();
            if pipe.reader_gone {
                return Err(Closed);
            }
            if let Some(reader) = pipe.reader.take() {
                // Parked since before `arrival`: readable after the
                // kernel→user copy, which is when the reader runs next.
                sim::time::wake_at(arrival + copy(chunk.len()), &reader);
            }
            pipe.queue.push_back(Chunk {
                arrival,
                data: self.fabric.packet_pool().copy_in(chunk),
            });
        }
        Ok(())
    }

    /// True once the peer's read half is gone.
    pub fn is_closed(&self) -> bool {
        self.conn.pipes[self.dir].chunks.borrow().reader_gone
    }

    /// What the reader must have taken for `n` more bytes to fit the
    /// socket buffer.
    fn room_needed(&self, n: usize) -> u64 {
        let buffer = self.fabric.profile().net.socket_buffer;
        (self.written + n as u64).saturating_sub(buffer)
    }

    /// True if `n` more bytes fit the socket buffer now.
    fn has_room(&self, n: usize) -> bool {
        self.conn.pipes[self.dir].released.get() >= self.room_needed(n)
    }

    /// Sets (or clears) the trace context attributed to subsequent writes.
    pub fn set_trace(&mut self, trace: Option<kdtelem::TraceCtx>) {
        self.trace = trace;
    }
}

impl Drop for WriteHalf {
    /// The reader drains what was sent, then sees EOF.
    fn drop(&mut self) {
        let mut pipe = self.conn.pipes[self.dir].chunks.borrow_mut();
        pipe.writer_gone = true;
        if let Some(reader) = pipe.reader.take() {
            reader.wake();
        }
    }
}

impl Drop for ReadHalf {
    /// Unread bytes are dropped, and the window opens all the way: a writer
    /// parked on it wakes now and fails.
    fn drop(&mut self) {
        let pipe = &self.conn.pipes[self.dir];
        {
            let mut chunks = pipe.chunks.borrow_mut();
            chunks.reader_gone = true;
            chunks.queue.clear();
        }
        pipe.released.advance_to(u64::MAX);
    }
}

impl ReadHalf {
    /// Takes the next chunk as the head, to be read in place; `false` at
    /// EOF. It is readable at `max(instant this read began waiting,
    /// arrival)` plus the kernel→user copy; one timer covers the whole
    /// wait. Called with the head read to its end.
    async fn fill(&mut self) -> bool {
        if self.eof {
            return false;
        }
        let began = sim::now();
        let Some(ready) = std::future::poll_fn(|cx| self.poll_ready(began, cx)).await else {
            self.eof = true;
            return false;
        };
        // Already there for a reader the writer's push armed.
        sim::time::sleep_until(ready).await;
        // With one reader per pipe the chunk is still there; without it, the
        // callers' loops call again.
        let pipe = &self.conn.pipes[self.dir];
        let Some(chunk) = pipe.chunks.borrow_mut().queue.pop_front() else {
            return true;
        };
        // The chunk's window returns as it is taken.
        let released = &pipe.released;
        released.advance_to(released.get() + chunk.data.len() as u64);
        self.head = Some((chunk.data, 0));
        true
    }

    /// The instant the next chunk is readable for a read that began waiting
    /// at `began`, `None` at EOF; parks the reader on an empty pipe.
    fn poll_ready(&self, began: SimTime, cx: &mut std::task::Context<'_>) -> Poll<Option<SimTime>> {
        let mut chunks = self.conn.pipes[self.dir].chunks.borrow_mut();
        if let Some(chunk) = chunks.queue.front() {
            let bw = self.fabric.profile().net.kernel_copy_bandwidth;
            let copy = copy_time(chunk.data.len() as u64, bw);
            return Poll::Ready(Some(began.max(chunk.arrival) + copy));
        }
        if chunks.writer_gone {
            return Poll::Ready(None);
        }
        chunks.reader = Some(cx.waker().clone());
        Poll::Pending
    }

    /// Hands up to `max` unread bytes of the head to `take` and marks them
    /// read; returns how many.
    fn read_head(&mut self, max: usize, take: impl FnOnce(&[u8])) -> usize {
        let Some((chunk, at)) = &mut self.head else {
            return 0;
        };
        let n = max.min(chunk.len() - *at);
        take(&chunk[*at..*at + n]);
        *at += n;
        if *at == chunk.len() {
            self.head = None;
        }
        n
    }

    /// Reads the next `n` bytes without waiting, as a view of the chunk
    /// being read, if they lie unread in it; the view keeps the chunk from
    /// its pool until dropped. `None` reads nothing. A framing layer that
    /// has just read a header takes the body this way when it came in the
    /// same chunk.
    pub fn read_view(&mut self, n: usize) -> Option<kdbuf::Buf> {
        let (chunk, at) = self
            .head
            .as_mut()
            .filter(|(chunk, at)| chunk.len() - at >= n)?;
        let bytes = chunk.slice(*at, n);
        *at += n;
        if *at == chunk.len() {
            self.head = None;
        }
        Some(bytes)
    }

    /// Waits for unread bytes: `false` at EOF.
    async fn await_unread(&mut self) -> bool {
        self.head.is_some() || self.fill().await
    }

    /// Reads exactly `n` bytes; `Err(Closed)` on EOF before `n` bytes.
    pub async fn read_exact(&mut self, n: usize) -> Result<Vec<u8>, Closed> {
        let mut out = Vec::new();
        self.read_exact_into(n, &mut out).await?;
        Ok(out)
    }

    /// Reads exactly `n` bytes, appending them to `out`. Avoids the
    /// intermediate allocation of [`read_exact`] when the caller owns a
    /// reusable buffer (e.g. a frame decoder's scratch).
    pub async fn read_exact_into(&mut self, mut n: usize, out: &mut Vec<u8>) -> Result<(), Closed> {
        out.reserve(n);
        while n > 0 {
            if !self.await_unread().await {
                return Err(Closed);
            }
            n -= self.read_head(n, |piece| out.extend_from_slice(piece));
        }
        Ok(())
    }

    /// Fills `out` with the next `out.len()` bytes; `Err(Closed)` on EOF
    /// before them. For fixed-size headers read onto the stack.
    pub async fn read_exact_to(&mut self, mut out: &mut [u8]) -> Result<(), Closed> {
        while !out.is_empty() {
            if !self.await_unread().await {
                return Err(Closed);
            }
            let n = self.read_head(out.len(), |piece| out[..piece.len()].copy_from_slice(piece));
            out = &mut out[n..];
        }
        Ok(())
    }

    /// Reads whatever is available (up to `max`), waiting for at least one
    /// byte. `Ok(empty)` is never returned; EOF is `Err(Closed)`.
    pub async fn read_some(&mut self, max: usize) -> Result<Vec<u8>, Closed> {
        if !self.await_unread().await {
            return Err(Closed);
        }
        let mut out = Vec::new();
        self.read_head(max, |piece| out.extend_from_slice(piece));
        Ok(out)
    }
}

impl TcpStream {
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    pub fn local(&self) -> NodeId {
        self.local
    }

    pub async fn write_all(&mut self, data: &[u8]) -> Result<(), Closed> {
        self.write.write_all(data).await
    }

    pub async fn read_exact(&mut self, n: usize) -> Result<Vec<u8>, Closed> {
        self.read.read_exact(n).await
    }

    pub async fn read_exact_into(&mut self, n: usize, out: &mut Vec<u8>) -> Result<(), Closed> {
        self.read.read_exact_into(n, out).await
    }

    pub async fn read_some(&mut self, max: usize) -> Result<Vec<u8>, Closed> {
        self.read.read_some(max).await
    }

    /// Splits into independently-owned halves so requests can be pipelined
    /// (a writer task and a reader task).
    pub fn into_split(self) -> (ReadHalf, WriteHalf) {
        (self.read, self.write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use std::collections::VecDeque;

    fn fabric2() -> (Fabric, NodeHandle, NodeHandle) {
        let f = Fabric::new(Profile::testbed());
        let a = f.add_node("a");
        let b = f.add_node("b");
        (f, a, b)
    }

    #[test]
    fn round_trip_bytes() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (_f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            sim::spawn(async move {
                let mut s = listener.accept().await.unwrap();
                let req = s.read_exact(5).await.unwrap();
                assert_eq!(req, b"hello");
                s.write_all(b"world").await.unwrap();
            });
            let mut c = connect(&a, b.id, 9092).await.unwrap();
            c.write_all(b"hello").await.unwrap();
            assert_eq!(c.read_exact(5).await.unwrap(), b"world");
            // RTT includes connect, two stack traversals each way.
            assert!(sim::now().as_nanos() > 200_000);
        });
    }

    #[test]
    fn refused_when_no_listener() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (_f, a, b) = fabric2();
            assert_eq!(
                connect(&a, b.id, 1).await.err(),
                Some(ConnectError::ConnectionRefused)
            );
        });
    }

    #[test]
    fn eof_on_writer_drop() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (_f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            sim::spawn(async move {
                let mut s = listener.accept().await.unwrap();
                s.write_all(b"x").await.unwrap();
                // s dropped here -> EOF at the client.
            });
            let mut c = connect(&a, b.id, 9092).await.unwrap();
            assert_eq!(c.read_exact(1).await.unwrap(), b"x");
            assert_eq!(c.read_exact(1).await, Err(Closed));
        });
    }

    #[test]
    fn large_transfer_respects_tcp_bandwidth() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            let size = 8 * 1024 * 1024u64;
            let reader = sim::spawn(async move {
                let mut s = listener.accept().await.unwrap();
                let t0 = sim::now();
                s.read_exact(size as usize).await.unwrap();
                sim::now() - t0
            });
            let mut c = connect(&a, b.id, 9092).await.unwrap();
            let data = vec![0xabu8; size as usize];
            c.write_all(&data).await.unwrap();
            let elapsed = reader.await.unwrap();
            let gbps = size as f64 / elapsed.as_secs_f64() / 1e9;
            // TCP factor 0.45 of 6 GiB/s ≈ 2.9 GB/s wire, minus copies:
            // must be well under verbs goodput but still > 1 GB/s.
            assert!(gbps < 3.0, "gbps={gbps}");
            assert!(gbps > 0.8, "gbps={gbps}");
            let (eg, _) = f.node_bytes(a.id);
            assert!(eg >= size);
        });
    }

    #[test]
    fn flow_control_blocks_fast_writer() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (_f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            sim::spawn(async move {
                let mut s = listener.accept().await.unwrap();
                // Slow reader: drain after 10 ms.
                sim::time::sleep(std::time::Duration::from_millis(10)).await;
                s.read_exact(4 * 1024 * 1024).await.unwrap();
                // Hold the stream so the writer's Err path is not taken.
                sim::time::sleep(std::time::Duration::from_millis(100)).await;
            });
            let mut c = connect(&a, b.id, 9092).await.unwrap();
            let data = vec![1u8; 4 * 1024 * 1024];
            c.write_all(&data).await.unwrap();
            // 4 MiB through a 1 MiB socket buffer against a reader that
            // starts at t=10ms: writer must have blocked past that point.
            assert!(sim::now().as_nanos() > 10_000_000);
        });
    }

    /// A writer parked on a full window wakes when its peer drops the
    /// stream unread, and fails at that instant: it copies nothing more
    /// and puts nothing more on the wire.
    #[test]
    fn a_writer_parked_on_the_window_fails_when_the_reader_goes() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            let mut c = connect(&a, b.id, 9092).await.unwrap();
            let s = listener.accept().await.unwrap();
            let gone = sim::now() + Duration::from_millis(1);
            let f2 = f.clone();
            let dropped = sim::spawn(async move {
                sim::time::sleep_until(gone).await;
                drop(s);
                f2.node_bytes(a.id).0
            });
            let write = c.write_all(&[7u8; 4 << 20]);
            let wrote = sim::time::timeout(Duration::from_millis(50), write).await;
            assert_eq!(wrote, Ok(Err(Closed)), "the write returns, failed");
            assert_eq!(sim::now(), gone, "at the instant the reader went");
            let sent_by_then = dropped.await.unwrap();
            assert_eq!(f.node_bytes(a.id).0, sent_by_then, "nothing sent after");
        });
    }

    /// A write that begins after its peer dropped the stream fails at its
    /// start, the syscall's instant: no copy is slept and no byte reaches
    /// the wire.
    #[test]
    fn a_write_after_the_reader_went_fails_at_its_start() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            let c = connect(&a, b.id, 9092).await.unwrap();
            drop(listener.accept().await.unwrap());
            let (_read, mut write) = c.into_split();
            let sent = f.node_bytes(a.id).0;
            let start = sim::now() + Duration::from_micros(5);
            assert_eq!(
                write.write_all_from(start, &[7u8; 100_000]).await,
                Err(Closed)
            );
            assert_eq!(sim::now(), start, "at its start");
            assert_eq!(f.node_bytes(a.id).0, sent, "nothing on the wire");
            assert_eq!(write.write_all(b"x").await, Err(Closed));
            assert_eq!(sim::now(), start, "a write now fails now");
        });
    }

    #[test]
    fn unbind_refuses_connects_and_wakes_accept() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (_f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            let b2 = b.clone();
            let accepts = sim::spawn(async move {
                let mut n = 0;
                while listener.accept().await.is_some() {
                    n += 1;
                }
                n
            });
            connect(&a, b.id, 9092).await.unwrap();
            assert!(unbind(&b2, 9092), "was bound");
            assert!(!unbind(&b2, 9092), "idempotent");
            assert_eq!(
                connect(&a, b.id, 9092).await.err(),
                Some(ConnectError::ConnectionRefused)
            );
            // With the slot gone, the accept loop drains and exits.
            assert_eq!(accepts.await.unwrap(), 1);
        });
    }

    #[test]
    fn link_down_resets_writes_and_refuses_connects() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            sim::spawn(async move {
                let mut s = listener.accept().await.unwrap();
                let _ = s.read_exact(1).await;
                sim::time::sleep(std::time::Duration::from_secs(1)).await;
            });
            let mut c = connect(&a, b.id, 9092).await.unwrap();
            c.write_all(b"x").await.unwrap();
            f.set_node_down(b.id);
            assert_eq!(c.write_all(b"y").await, Err(Closed));
            assert_eq!(
                connect(&a, b.id, 9092).await.err(),
                Some(ConnectError::ConnectionRefused)
            );
            f.set_node_up(b.id);
        });
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (f, a, b) = fabric2();
            f.partition_pair(a.id, b.id);
            assert!(f.path_blocked(a.id, b.id));
            assert!(f.path_blocked(b.id, a.id));
            assert_eq!(
                connect(&a, b.id, 9092).await.err(),
                Some(ConnectError::ConnectionRefused)
            );
            f.heal_pair(a.id, b.id);
            assert!(!f.path_blocked(a.id, b.id));
        });
    }

    #[test]
    fn injected_drops_delay_delivery_deterministically() {
        let run = |seed: u64| {
            let rt = sim::Runtime::new();
            rt.block_on(async move {
                let (f, a, b) = fabric2();
                f.set_tcp_drop(a.id, 0.5, seed);
                let mut listener = TcpListener::bind(&b, 9092);
                let reader = sim::spawn(async move {
                    let mut s = listener.accept().await.unwrap();
                    s.read_exact(64).await.unwrap();
                    sim::now().as_nanos()
                });
                let mut c = connect(&a, b.id, 9092).await.unwrap();
                c.write_all(&[7u8; 64]).await.unwrap();
                let t = reader.await.unwrap();
                sim::time::sleep(std::time::Duration::from_millis(1)).await;
                t
            })
        };
        let baseline = {
            let rt = sim::Runtime::new();
            rt.block_on(async {
                let (_f, a, b) = fabric2();
                let mut listener = TcpListener::bind(&b, 9092);
                let reader = sim::spawn(async move {
                    let mut s = listener.accept().await.unwrap();
                    s.read_exact(64).await.unwrap();
                    sim::now().as_nanos()
                });
                let mut c = connect(&a, b.id, 9092).await.unwrap();
                c.write_all(&[7u8; 64]).await.unwrap();
                reader.await.unwrap()
            })
        };
        // Seed 3 drops the first attempt of this chunk (stable property of
        // the in-tree RNG); the delivery pays at least one RTO.
        let delayed = run(3);
        assert_eq!(delayed, run(3), "same seed, same timeline");
        assert!(
            delayed >= baseline,
            "faulted run cannot be faster than baseline"
        );
    }

    #[test]
    fn split_allows_pipelining() {
        let rt = sim::Runtime::new();
        rt.block_on(async {
            let (_f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            sim::spawn(async move {
                let mut s = listener.accept().await.unwrap();
                for _ in 0..3 {
                    let v = s.read_exact(1).await.unwrap();
                    s.write_all(&v).await.unwrap();
                }
            });
            let c = connect(&a, b.id, 9092).await.unwrap();
            let (mut r, mut w) = c.into_split();
            let writer = sim::spawn(async move {
                for i in 0..3u8 {
                    w.write_all(&[i]).await.unwrap();
                }
                w
            });
            let mut got = Vec::new();
            for _ in 0..3 {
                got.extend(r.read_exact(1).await.unwrap());
            }
            writer.await.unwrap();
            assert_eq!(got, vec![0, 1, 2]);
        });
    }

    /// The timeline of one transfer as the simulated stack defined it when
    /// every step was its own sleep: the writer pays the syscall, then per
    /// MSS chunk waits for socket-buffer room and copies it in; chunk `i`
    /// is on the wire from the end of its copy; the reader, from `read_at`
    /// on, takes each chunk at `max(began waiting, arrival) + copy`, and a
    /// consumed chunk frees its room. Wire times come from reserving the
    /// same sends on `twin`, an idle fabric of the same profile. Returns
    /// the instants `write_all` and `read_exact(len)` return.
    fn reference_timeline(
        twin: &Fabric,
        a: NodeId,
        b: NodeId,
        t0: u64,
        len: usize,
        read_at: u64,
    ) -> (u64, u64) {
        let profile = twin.profile();
        let net = &profile.net;
        let copy = |n: usize| copy_time(n as u64, net.kernel_copy_bandwidth).as_nanos() as u64;
        let mut room = net.socket_buffer as usize;
        let mut consumed = VecDeque::new(); // (ready, len) of chunks sent, not yet read
        let mut t = t0 + net.tcp_syscall.as_nanos() as u64;
        let mut began = read_at;
        for n in vec![0u8; len].chunks(net.tcp_mss as usize).map(<[u8]>::len) {
            while room < n {
                let (ready, freed): (u64, usize) = consumed.pop_front().unwrap();
                t = t.max(ready);
                room += freed;
            }
            while consumed.front().is_some_and(|&(ready, _)| ready <= t) {
                room += consumed.pop_front().unwrap().1;
            }
            room -= n;
            t += copy(n);
            let wire = twin.reserve_tcp_path(SimTime::from_nanos(t), a, b, n as u64);
            let arrival = (wire + net.tcp_stack_oneway).as_nanos();
            began = began.max(arrival) + copy(n);
            consumed.push_back((began, n));
        }
        (t, began)
    }

    /// The transfers both timeline tests run: (case, bytes, when the reader
    /// starts: `None` = parked before the write, `Some(k)` = k first-chunk
    /// copy times after the first chunk's arrival).
    fn timeline_cases() -> [(&'static str, usize, Option<f64>); 7] {
        const MSS: usize = 16 * 1024;
        const MIB_AND_3_MSS: usize = 1024 * 1024 + 3 * MSS;
        [
            ("parked reader", 512, None),
            ("reader arrives during the copy window", 512, Some(0.5)),
            ("reader arrives after arrival + copy", 512, Some(40.0)),
            ("parked reader, three chunks", 3 * MSS, None),
            (
                "late reader, three chunks and a tail",
                3 * MSS + 100,
                Some(3.0),
            ),
            (
                "reader waiting since just before arrival, three chunks",
                3 * MSS,
                Some(-2.0),
            ),
            (
                "writer blocked on the socket buffer",
                MIB_AND_3_MSS,
                Some(2_000.0),
            ),
        ]
    }

    /// The instant a case's reader starts for a write whose syscall begins
    /// at `t0`: where the first chunk arrives on an idle fabric, offset by
    /// `reader` first-chunk copy times.
    fn reader_start(t0: u64, len: usize, reader: Option<f64>) -> u64 {
        reader.map_or(t0, |k| {
            let (probe, pa, pb) = fabric2();
            let net = &probe.profile().net;
            let first = len.min(net.tcp_mss as usize) as u64;
            let copy = copy_time(first, net.kernel_copy_bandwidth);
            let sent = SimTime::from_nanos(t0) + net.tcp_syscall + copy;
            let wire = probe.reserve_tcp_path(sent, pa.id, pb.id, first);
            let arrival = (wire + net.tcp_stack_oneway).as_nanos() as f64;
            (arrival + k * copy.as_nanos() as f64) as u64
        })
    }

    #[test]
    fn read_and_write_instants_equal_the_per_step_timeline() {
        for (case, len, reader) in timeline_cases() {
            let rt = sim::Runtime::new();
            let (got, want) = rt.block_on(async move {
                let (_f, a, b) = fabric2();
                let (twin, ta, tb) = fabric2();
                let mut listener = TcpListener::bind(&b, 9092);
                let mut c = connect(&a, b.id, 9092).await.unwrap();
                let mut s = listener.accept().await.unwrap();
                // Away from t = 0 and off any round number.
                sim::time::sleep(Duration::from_nanos(12_345)).await;
                let t0 = sim::now().as_nanos();
                let read_at = reader_start(t0, len, reader);
                let want = reference_timeline(&twin, ta.id, tb.id, t0, len, read_at);
                let reader = sim::spawn(async move {
                    sim::time::sleep_until(SimTime::from_nanos(read_at)).await;
                    s.read_exact(len).await.unwrap();
                    (sim::now().as_nanos(), s)
                });
                sim::time::yield_now().await; // a `None` reader is parked now
                c.write_all(&vec![7u8; len]).await.unwrap();
                let wrote = sim::now().as_nanos();
                let (read, _s) = reader.await.unwrap();
                ((wrote, read), want)
            });
            assert_eq!(got, want, "{case}: (write_all, read_exact) return instants");
        }
    }

    /// `write_all_from(start)` booked at `t0` against `sleep_until(start)`
    /// and `write_all`: for every timeline case the write returns and the
    /// read completes at the same instants, with one poll fewer — and
    /// equal polls when the path is blocked at the booking and healed
    /// before `start`, where the write takes the not-granted route.
    #[test]
    fn write_all_from_keeps_the_instants_of_a_sleep_and_a_write() {
        const BOOKED: u64 = 17_000; // a network thread's serialisation
                                    // (write return, read return, polls) of one transfer.
        let run = |len: usize, reader: Option<f64>, folded: bool, blocked: bool| {
            let rt = sim::Runtime::new();
            let instants = rt.block_on(async move {
                let (f, a, b) = fabric2();
                let mut listener = TcpListener::bind(&b, 9092);
                let (_r, mut w) = connect(&a, b.id, 9092).await.unwrap().into_split();
                let mut s = listener.accept().await.unwrap();
                sim::time::sleep(Duration::from_nanos(12_345)).await;
                let t0 = sim::now().as_nanos();
                let start = SimTime::from_nanos(t0 + BOOKED);
                let read_at = reader_start(start.as_nanos(), len, reader);
                let reader = sim::spawn(async move {
                    sim::time::sleep_until(SimTime::from_nanos(read_at)).await;
                    s.read_exact(len).await.unwrap();
                    (sim::now().as_nanos(), s)
                });
                if blocked {
                    f.partition_pair(a.id, b.id);
                    let (f, a, b) = (f.clone(), a.id, b.id);
                    sim::spawn_detached(async move {
                        sim::time::sleep(Duration::from_nanos(BOOKED / 2)).await;
                        f.heal_pair(a, b);
                    });
                }
                sim::time::yield_now().await; // a `None` reader is parked now
                if folded {
                    w.write_all_from(start, &vec![7u8; len]).await.unwrap();
                } else {
                    sim::time::sleep_until(start).await;
                    w.write_all(&vec![7u8; len]).await.unwrap();
                }
                let wrote = sim::now().as_nanos();
                let (read, _s) = reader.await.unwrap();
                (wrote, read)
            });
            (instants, rt.poll_count())
        };
        for (case, len, reader) in timeline_cases() {
            for blocked in [false, true] {
                let (want, slept) = run(len, reader, false, blocked);
                let (got, polls) = run(len, reader, true, blocked);
                assert_eq!(
                    got, want,
                    "{case}, blocked {blocked}: (write_all, read_exact) return instants"
                );
                let fewer = if blocked { 0 } else { 1 };
                assert_eq!(polls + fewer, slept, "{case}, blocked {blocked}: polls");
            }
        }
    }

    #[test]
    fn a_warm_transfer_costs_one_poll_per_chunk_on_each_side() {
        const CHUNKS: u64 = 64;
        const CHUNK: usize = 1024;
        let rt = sim::Runtime::new();
        let (mut c, mut s) = rt.block_on(async {
            let (_f, a, b) = fabric2();
            let mut listener = TcpListener::bind(&b, 9092);
            let mut c = connect(&a, b.id, 9092).await.unwrap();
            let mut s = listener.accept().await.unwrap();
            // Warm: pools, the reader's buffer and the wheel have capacity.
            c.write_all(&[1u8; 4096]).await.unwrap();
            s.read_exact(4096).await.unwrap();
            (c, s)
        });
        let before = rt.poll_count();
        rt.block_on(async move {
            let reader = sim::spawn(async move {
                s.read_exact(CHUNKS as usize * CHUNK).await.unwrap();
                s
            });
            // One write per chunk: each pays the syscall, so the reader
            // outruns the writer and parks for every chunk.
            let writer = sim::spawn(async move {
                for _ in 0..CHUNKS {
                    c.write_all(&[7u8; CHUNK]).await.unwrap();
                }
                c
            });
            let _halves = (reader.await.unwrap(), writer.await.unwrap());
        });
        let polls = rt.poll_count() - before;
        // Reader and writer: their first poll, then one per chunk (the
        // per-step stack took three and two). Root: its first poll and one
        // per join.
        assert!(
            polls <= 2 * (1 + CHUNKS) + 3,
            "{polls} polls for {CHUNKS} chunks"
        );
    }
}
