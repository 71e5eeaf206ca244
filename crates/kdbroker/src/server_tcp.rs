//! The TCP network module (paper Fig 2 ➊): the unmodified-Kafka front end,
//! fully reused by KafkaDirect for its control plane (§4.1). Framed requests
//! over `netsim::tcp`; past the framing it is the shared RPC front
//! ([`crate::server_rpc`]).

use std::rc::Rc;

use netsim::tcp::{TcpListener, TcpStream};
use sim::future::{race, Either};

use crate::broker::BrokerInner;
use crate::server_rpc::Conn;

pub fn start(b: &Rc<BrokerInner>) {
    let mut listener = TcpListener::bind(&b.node, b.config.tcp_port);
    let b = Rc::clone(b);
    sim::spawn(async move {
        while let Some(stream) = listener.accept().await {
            sim::spawn_detached(serve_connection(Rc::clone(&b), stream));
        }
    });
}

async fn serve_connection(b: Rc<BrokerInner>, stream: TcpStream) {
    // A message either way occupies the network thread to parse or
    // serialise it.
    let cost = b.profile.cpu.net_request_cost;
    let peer = stream.peer();
    let (mut read, mut write) = stream.into_split();
    let conn = Conn::open(&b, peer, move |_len| cost, async move |corr, body: &[u8]| {
        kdwire::write_frame(&mut write, corr, None, body).await.is_ok()
    });
    // The processor thread's receive side. A broker crash races the read:
    // the shutdown broadcast wins and the loop breaks.
    let mut payload = Vec::new();
    while b.alive.get() {
        let frame = kdwire::read_frame_into(&mut read, &mut payload);
        let Either::Left(Ok((corr, trace))) = race(frame, b.shutdown.notified()).await else {
            break; // connection closed or broker crashed
        };
        if !b.alive.get() || !conn.route(corr, trace, &payload, cost).await {
            break;
        }
    }
}
