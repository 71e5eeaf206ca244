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
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::task::{Poll, Waker};
use std::time::Duration;

use sim::sync::mpsc;
use sim::sync::Semaphore;
use sim::SimTime;

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

/// One direction of a connection: the chunks sent and not yet read, in send
/// order (a late chunk holds back the ones behind it, as in TCP).
struct Pipe {
    chunks: VecDeque<Chunk>,
    /// The reader's waker while it is parked on an empty pipe. The push
    /// that ends the wait arms it for the instant the chunk is readable, so
    /// a parked reader is polled once per chunk.
    reader: Option<Waker>,
    writer_gone: bool,
    reader_gone: bool,
}

/// A bound port's accept channel, stamped with the bind generation so a
/// stale [`TcpListener`]'s `Drop` (e.g. a crashed broker's accept loop
/// winding down after the port was force-unbound and rebound) cannot evict
/// a successor that re-bound the same port.
pub(crate) type ListenerSlot = (u64, mpsc::Sender<TcpStream>);

thread_local! {
    static NEXT_BIND_GEN: std::cell::Cell<u64> = const { std::cell::Cell::new(1) };
}

fn next_bind_gen() -> u64 {
    NEXT_BIND_GEN.with(|g| {
        let v = g.get();
        g.set(v + 1);
        v
    })
}

/// The write side of one direction of a connection.
pub struct WriteHalf {
    fabric: Fabric,
    src: NodeId,
    dst: NodeId,
    pipe: Rc<RefCell<Pipe>>,
    window: Semaphore,
    /// Trace context applied to wire reservations of subsequent writes, so a
    /// framing layer can attribute link traversals to one message's lifeline.
    trace: Option<kdtelem::TraceCtx>,
}

/// The read side of one direction of a connection.
pub struct ReadHalf {
    fabric: Fabric,
    pipe: Rc<RefCell<Pipe>>,
    window: Semaphore,
    buffer: VecDeque<u8>,
    eof: bool,
}

/// A full-duplex simulated TCP connection.
pub struct TcpStream {
    read: ReadHalf,
    write: WriteHalf,
    peer: NodeId,
    local: NodeId,
}

fn pipe(fabric: &Fabric, src: NodeId, dst: NodeId) -> (WriteHalf, ReadHalf) {
    let pipe = Rc::new(RefCell::new(Pipe {
        chunks: VecDeque::new(),
        reader: None,
        writer_gone: false,
        reader_gone: false,
    }));
    let window = Semaphore::new(fabric.profile().net.socket_buffer as usize);
    (
        WriteHalf {
            fabric: fabric.clone(),
            src,
            dst,
            pipe: Rc::clone(&pipe),
            window: window.clone(),
            trace: None,
        },
        ReadHalf {
            fabric: fabric.clone(),
            pipe,
            window,
            buffer: VecDeque::new(),
            eof: false,
        },
    )
}

/// A passive listening socket.
pub struct TcpListener {
    node: NodeHandle,
    port: u16,
    gen: u64,
    incoming: mpsc::Receiver<TcpStream>,
}

impl TcpListener {
    /// Binds to an explicit port on `node`.
    ///
    /// # Panics
    /// Panics if the port is already bound (a configuration bug in a
    /// simulation scenario).
    pub fn bind(node: &NodeHandle, port: u16) -> TcpListener {
        let (tx, rx) = mpsc::unbounded();
        let gen = next_bind_gen();
        let prev = node
            .fabric
            .inner
            .tcp_listeners
            .borrow_mut()
            .insert((node.id, port), (gen, tx));
        assert!(
            prev.is_none(),
            "port {port} already bound on {}",
            node.name()
        );
        TcpListener {
            node: node.clone(),
            port,
            gen,
            incoming: rx,
        }
    }

    /// Binds to a fabric-allocated port.
    pub fn bind_auto(node: &NodeHandle) -> TcpListener {
        let port = node.fabric.alloc_port();
        Self::bind(node, port)
    }

    pub fn port(&self) -> u16 {
        self.port
    }

    pub fn local_addr(&self) -> (NodeId, u16) {
        (self.node.id, self.port)
    }

    /// Waits for the next inbound connection. Returns `None` if the fabric
    /// is being torn down.
    pub async fn accept(&mut self) -> Option<TcpStream> {
        self.incoming.recv().await
    }
}

impl Drop for TcpListener {
    fn drop(&mut self) {
        // Remove the slot only if it is still OUR bind: after a force
        // `unbind` the port may have been re-bound by a fresh process
        // before this stale listener unwound, and evicting the successor
        // would refuse every future connect to the port.
        let mut map = self.node.fabric.inner.tcp_listeners.borrow_mut();
        if map
            .get(&(self.node.id, self.port))
            .is_some_and(|(gen, _)| *gen == self.gen)
        {
            map.remove(&(self.node.id, self.port));
        }
    }
}

/// Force-unbinds a listening port from the outside (fault injection: a
/// crashed process's sockets close even though the accept loop still owns
/// the `TcpListener`). New connects are refused immediately, and once
/// transient senders drop, the owner's `accept()` returns `None` so its
/// loop exits. The eventual `Drop` is an idempotent no-op.
pub fn unbind(node: &NodeHandle, port: u16) -> bool {
    node.fabric
        .inner
        .tcp_listeners
        .borrow_mut()
        .remove(&(node.id, port))
        .is_some()
}

/// Opens a connection from `node` to `(dst, port)`. Pays the handshake cost.
pub async fn connect(
    node: &NodeHandle,
    dst: NodeId,
    port: u16,
) -> Result<TcpStream, ConnectError> {
    let fabric = &node.fabric;
    if fabric.path_blocked(node.id, dst) || fabric.path_blocked(dst, node.id) {
        return Err(ConnectError::ConnectionRefused);
    }
    let slot = fabric
        .inner
        .tcp_listeners
        .borrow()
        .get(&(dst, port))
        .map(|(_, tx)| tx.clone());
    let slot = slot.ok_or(ConnectError::ConnectionRefused)?;
    sim::time::sleep(fabric.profile().net.tcp_connect).await;

    let (w_cs, r_cs) = pipe(fabric, node.id, dst); // client -> server
    let (w_sc, r_sc) = pipe(fabric, dst, node.id); // server -> client
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
    pub async fn write_all(&mut self, data: &[u8]) -> Result<(), Closed> {
        let profile = self.fabric.profile();
        let net = &profile.net;
        if data.is_empty() {
            return if self.is_closed() { Err(Closed) } else { Ok(()) };
        }
        let copy = |len: usize| copy_time(len as u64, net.kernel_copy_bandwidth);
        let mss = net.tcp_mss as usize;
        // The syscall and the first chunk's copy are one stretch of CPU
        // time, hence one timer, when nothing can come between them: the
        // path is up and the socket buffer has room now — and this half is
        // the pipe's only writer, so room now is room then.
        let first = data.len().min(mss);
        let mut granted = None;
        if !self.fabric.path_blocked(self.src, self.dst) {
            granted = self.window.try_acquire(first);
        }
        let first_copy = if granted.is_some() { copy(first) } else { Duration::ZERO };
        sim::time::sleep(net.tcp_syscall + first_copy).await;
        // Injected-fault handling: a blocked path (partition / link down)
        // resets the connection; a drop costs one retransmission timeout
        // per dropped attempt.
        let rto = net.tcp_connect.max(Duration::from_micros(200));
        for chunk in data.chunks(mss) {
            if self.fabric.path_blocked(self.src, self.dst) {
                return Err(Closed);
            }
            // The permit is returned by the reader once the chunk is
            // consumed. The user→kernel copy really happens (into a pooled
            // MSS-sized packet buffer) and is charged at kernel copy
            // bandwidth.
            match granted.take() {
                Some(permit) => permit.forget(),
                None => {
                    let permit = self.window.acquire(chunk.len()).await;
                    permit.map_err(|_| Closed)?.forget();
                    sim::time::sleep(copy(chunk.len())).await;
                }
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
            let mut pipe = self.pipe.borrow_mut();
            if pipe.reader_gone {
                return Err(Closed);
            }
            if let Some(reader) = pipe.reader.take() {
                // Parked since before `arrival`: readable after the
                // kernel→user copy, which is when the reader runs next.
                sim::time::wake_at(arrival + copy(chunk.len()), &reader);
            }
            pipe.chunks.push_back(Chunk {
                arrival,
                data: self.fabric.packet_pool().copy_in(chunk),
            });
        }
        Ok(())
    }

    /// True once the peer's read half is gone.
    pub fn is_closed(&self) -> bool {
        self.pipe.borrow().reader_gone
    }

    /// Sets (or clears) the trace context attributed to subsequent writes.
    pub fn set_trace(&mut self, trace: Option<kdtelem::TraceCtx>) {
        self.trace = trace;
    }
}

impl Drop for WriteHalf {
    /// The reader drains what was sent, then sees EOF.
    fn drop(&mut self) {
        let mut pipe = self.pipe.borrow_mut();
        pipe.writer_gone = true;
        if let Some(reader) = pipe.reader.take() {
            reader.wake();
        }
    }
}

impl Drop for ReadHalf {
    fn drop(&mut self) {
        let mut pipe = self.pipe.borrow_mut();
        pipe.reader_gone = true;
        pipe.chunks.clear();
    }
}

impl ReadHalf {
    /// Moves the next chunk into the user buffer; `false` at EOF. It is
    /// readable at `max(instant this read began waiting, arrival)` plus the
    /// kernel→user copy; one timer covers the whole wait.
    async fn fill(&mut self) -> bool {
        if self.eof {
            return false;
        }
        let began = sim::now();
        let bw = self.fabric.profile().net.kernel_copy_bandwidth;
        let ready = std::future::poll_fn(|cx| {
            let mut pipe = self.pipe.borrow_mut();
            if let Some(chunk) = pipe.chunks.front() {
                let copy = copy_time(chunk.data.len() as u64, bw);
                return Poll::Ready(Some(began.max(chunk.arrival) + copy));
            }
            if pipe.writer_gone {
                return Poll::Ready(None);
            }
            pipe.reader = Some(cx.waker().clone());
            Poll::Pending
        })
        .await;
        let Some(ready) = ready else {
            self.eof = true;
            return false;
        };
        // Already there for a reader the writer's push armed.
        sim::time::sleep_until(ready).await;
        // With one reader per pipe the chunk is still there; without it, the
        // callers' loops call again.
        let Some(chunk) = self.pipe.borrow_mut().chunks.pop_front() else {
            return true;
        };
        self.window.add_permits(chunk.data.len());
        self.buffer.extend(chunk.data.iter());
        true
    }

    /// Reads exactly `n` bytes; `Err(Closed)` on EOF before `n` bytes.
    pub async fn read_exact(&mut self, n: usize) -> Result<Vec<u8>, Closed> {
        while self.buffer.len() < n {
            if !self.fill().await {
                return Err(Closed);
            }
        }
        Ok(self.buffer.drain(..n).collect())
    }

    /// Reads exactly `n` bytes, appending them to `out`. Avoids the
    /// intermediate allocation of [`read_exact`] when the caller owns a
    /// reusable buffer (e.g. a frame decoder's scratch).
    pub async fn read_exact_into(&mut self, n: usize, out: &mut Vec<u8>) -> Result<(), Closed> {
        while self.buffer.len() < n {
            if !self.fill().await {
                return Err(Closed);
            }
        }
        out.extend(self.buffer.drain(..n));
        Ok(())
    }

    /// Reads whatever is available (up to `max`), waiting for at least one
    /// byte. `Ok(empty)` is never returned; EOF is `Err(Closed)`.
    pub async fn read_some(&mut self, max: usize) -> Result<Vec<u8>, Closed> {
        while self.buffer.is_empty() {
            if !self.fill().await {
                return Err(Closed);
            }
        }
        let n = self.buffer.len().min(max);
        Ok(self.buffer.drain(..n).collect())
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
    fn reference_timeline(twin: &Fabric, a: NodeId, b: NodeId, t0: u64, len: usize, read_at: u64) -> (u64, u64) {
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

    #[test]
    fn read_and_write_instants_equal_the_per_step_timeline() {
        const MSS: usize = 16 * 1024;
        const MIB_AND_3_MSS: usize = 1024 * 1024 + 3 * MSS;
        // (case, bytes, when the reader starts: `None` = parked before the
        // write, `Some(k)` = k first-chunk copy times after the first
        // chunk's arrival)
        let cases: [(&str, usize, Option<f64>); 7] = [
            ("parked reader", 512, None),
            ("reader arrives during the copy window", 512, Some(0.5)),
            ("reader arrives after arrival + copy", 512, Some(40.0)),
            ("parked reader, three chunks", 3 * MSS, None),
            ("late reader, three chunks and a tail", 3 * MSS + 100, Some(3.0)),
            ("reader waiting since just before arrival, three chunks", 3 * MSS, Some(-2.0)),
            ("writer blocked on the socket buffer", MIB_AND_3_MSS, Some(2_000.0)),
        ];
        for (case, len, reader) in cases {
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
                let read_at = reader.map_or(t0, |k| {
                    // Where the first chunk arrives on an idle fabric.
                    let (probe, pa, pb) = fabric2();
                    let net = &probe.profile().net;
                    let first = len.min(MSS) as u64;
                    let copy = copy_time(first, net.kernel_copy_bandwidth);
                    let sent = SimTime::from_nanos(t0) + net.tcp_syscall + copy;
                    let wire = probe.reserve_tcp_path(sent, pa.id, pb.id, first);
                    let arrival = (wire + net.tcp_stack_oneway).as_nanos() as f64;
                    (arrival + k * copy.as_nanos() as f64) as u64
                });
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
        assert!(polls <= 2 * (1 + CHUNKS) + 3, "{polls} polls for {CHUNKS} chunks");
    }
}
