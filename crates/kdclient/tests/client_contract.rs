//! What a client connection owes its callers, over both RPC transports:
//! the client-side mirror of kdbroker's `front_contract`. A stand-in broker
//! speaks raw frames (TCP) or raw Sends into posted receives (OSU) and runs
//! one script against `Conn`.

use kdclient::{ClientError, ClientTransport, Conn};
use kdwire::{BrokerAddr, ErrorCode, Request, Response};
use netsim::profile::Profile;
use netsim::tcp::{ReadHalf, TcpListener, WriteHalf};
use netsim::{Fabric, NodeHandle};
use rnic::{
    CompletionQueue, QpOptions, QueuePair, RNic, RdmaListener, RecvWr, SendWr, ShmBuf, WorkRequest,
};

enum Listener {
    Tcp(TcpListener),
    Osu(RNic, RdmaListener),
}

/// The stand-in broker's end of one connection.
enum Wire {
    Tcp(ReadHalf, WriteHalf),
    Osu(QueuePair, CompletionQueue, Vec<ShmBuf>),
}

impl Listener {
    /// Binds where `Conn::connect` dials `addr` over `transport`.
    fn bind(node: &NodeHandle, addr: BrokerAddr, transport: ClientTransport) -> Listener {
        match transport {
            ClientTransport::Tcp => Listener::Tcp(TcpListener::bind(node, addr.port)),
            ClientTransport::Osu => {
                let nic = RNic::new(node);
                let listener = RdmaListener::bind(&nic, addr.rdma_port + 1);
                Listener::Osu(nic, listener)
            }
        }
    }

    async fn accept(self) -> Wire {
        match self {
            Listener::Tcp(mut l) => {
                let (r, w) = l.accept().await.unwrap().into_split();
                Wire::Tcp(r, w)
            }
            Listener::Osu(nic, mut l) => {
                let (send_cq, recv_cq) = (nic.create_cq(64), nic.create_cq(64));
                let inc = l.accept().await.unwrap();
                let qp = inc.accept(&nic, send_cq, recv_cq.clone(), QpOptions::default());
                let bufs: Vec<ShmBuf> = (0..8).map(|_| ShmBuf::zeroed(4096)).collect();
                for (i, buf) in bufs.iter().enumerate() {
                    qp.post_recv(RecvWr {
                        wr_id: i as u64,
                        buf: Some(buf.as_slice()),
                    })
                    .unwrap();
                }
                Wire::Osu(qp, recv_cq, bufs)
            }
        }
    }
}

impl Wire {
    /// The next request: its correlation id and the partition it asks for.
    async fn recv(&mut self) -> (u64, u32) {
        let (corr, body) = match self {
            Wire::Tcp(r, _) => {
                let (corr, _, body) = kdwire::read_frame(r).await.unwrap();
                (corr, body)
            }
            Wire::Osu(qp, recv_cq, bufs) => {
                let cqe = recv_cq.next().await.unwrap();
                assert!(cqe.ok());
                let buf = &bufs[cqe.wr_id as usize];
                let frame = buf.read_at(0, cqe.byte_len as usize);
                qp.post_recv(RecvWr {
                    wr_id: cqe.wr_id,
                    buf: Some(buf.as_slice()),
                })
                .unwrap();
                (
                    u64::from_le_bytes(frame[..8].try_into().unwrap()),
                    frame[8..].to_vec(),
                )
            }
        };
        let Ok(Request::ListOffsets { partition, .. }) = Request::decode(&body) else {
            panic!("not a ListOffsets request");
        };
        (corr, partition)
    }

    async fn send(&mut self, corr: u64, body: &[u8]) {
        match self {
            Wire::Tcp(_, w) => kdwire::write_frame(w, corr, None, body).await.unwrap(),
            Wire::Osu(qp, ..) => {
                let frame = ShmBuf::from_vec([&corr.to_le_bytes()[..], body].concat());
                let send = WorkRequest::Send {
                    local: frame.as_slice(),
                };
                qp.post_send(SendWr::unsignaled(0, send)).unwrap();
            }
        }
    }

    /// Answers with `latest` = `partition`.
    async fn answer(&mut self, corr: u64, partition: u32) {
        let resp = Response::ListOffsets {
            error: ErrorCode::None,
            earliest: 0,
            latest: u64::from(partition),
        };
        self.send(corr, &resp.encode()).await;
    }

    fn close(self) {
        if let Wire::Osu(qp, ..) = &self {
            qp.close();
        }
    }
}

/// The broker's side of the script `client_contract` runs.
async fn stand_in(mut wire: Wire) {
    let mut pipelined = Vec::new();
    for _ in 0..3 {
        pipelined.push(wire.recv().await);
    }
    for (corr, partition) in pipelined.into_iter().rev() {
        wire.answer(corr, partition).await;
    }
    let (corr, _) = wire.recv().await;
    wire.send(corr, &[200, 1, 2, 3]).await;
    let (corr, partition) = wire.recv().await;
    wire.answer(corr, partition).await;
    let (corr, partition) = wire.recv().await;
    wire.answer(corr + 1000, partition + 1).await;
    wire.answer(corr, partition).await;
    wire.recv().await;
    wire.recv().await;
    wire.close();
}

/// Asks for `partition`'s offsets; the stand-in answers with `latest` =
/// `partition`.
async fn ask(conn: Conn, partition: u32) -> Result<u64, ClientError> {
    let req = Request::ListOffsets {
        topic: "t".into(),
        partition,
    };
    match conn.call(&req).await? {
        Response::ListOffsets { latest, .. } => Ok(latest),
        other => panic!("unexpected {other:?}"),
    }
}

fn client_contract(transport: ClientTransport) {
    sim::Runtime::new().block_on(async move {
        let f = Fabric::new(Profile::testbed());
        let (server, client) = (f.add_node("broker"), f.add_node("client"));
        let addr = BrokerAddr {
            node: server.id.0,
            port: 9092,
            rdma_port: 9200,
        };
        let listener = Listener::bind(&server, addr, transport);
        sim::spawn(async move { stand_in(listener.accept().await).await });
        let conn = Conn::connect(&client, addr, transport).await.unwrap();

        // Pipelined calls answered out of order each reach their own caller.
        let calls: Vec<_> = (0..3).map(|p| sim::spawn(ask(conn.clone(), p))).collect();
        for (p, call) in calls.into_iter().enumerate() {
            assert_eq!(call.await.unwrap(), Ok(p as u64));
        }

        // A valid id with an undecodable body fails only that caller; the
        // connection keeps serving.
        assert_eq!(ask(conn.clone(), 3).await, Err(ClientError::Protocol));
        assert_eq!(ask(conn.clone(), 4).await, Ok(4));

        // A response to an id nobody waits on is ignored.
        assert_eq!(ask(conn.clone(), 5).await, Ok(5));

        // A dying connection fails every call in flight, and later calls
        // fail at once.
        let doomed: Vec<_> = (6..8).map(|p| sim::spawn(ask(conn.clone(), p))).collect();
        for call in doomed {
            assert_eq!(call.await.unwrap(), Err(ClientError::Disconnected));
        }
        let now = sim::now();
        assert_eq!(ask(conn, 8).await, Err(ClientError::Disconnected));
        assert_eq!(sim::now(), now, "no time passes on a dead connection");
    });
}

#[test]
fn tcp_client_contract() {
    client_contract(ClientTransport::Tcp);
}

#[test]
fn osu_client_contract() {
    client_contract(ClientTransport::Osu);
}
