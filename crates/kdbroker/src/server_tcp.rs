//! The TCP network module (paper Fig 2 ➊): the unmodified-Kafka front end,
//! fully reused by KafkaDirect for its control plane (§4.1). Framed requests
//! over `netsim::tcp`; past the framing it is the shared RPC front
//! (`server_rpc`).

use std::rc::Rc;

use netsim::tcp::{TcpListener, TcpStream};
use sim::future::{race, Either};

use crate::broker::BrokerInner;
use crate::server_rpc::{decode, Conn};

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
    let send = async move |corr, frame: &mut [u8], done| {
        kdwire::write_frame_from(&mut write, done, corr, None, frame)
            .await
            .is_ok()
    };
    let conn = Conn::open(&b, peer, move |_len| cost, send);
    // The processor thread's receive side. A broker crash races the read:
    // the shutdown broadcast wins and the loop breaks.
    let mut copied = Vec::new();
    while b.alive.get() {
        let frame = kdwire::read_frame_into(&mut read, &mut copied);
        let Either::Left(Ok((corr, trace, payload))) = race(frame, b.shutdown.notified()).await
        else {
            break; // connection closed or broker crashed
        };
        if !b.alive.get() {
            break;
        }
        // Decoded before the network thread's wait, which then holds no
        // view of the received chunk.
        let request = decode(&payload);
        drop(payload);
        conn.net_thread().run(cost).await;
        if !conn.route(corr, trace, request) {
            break;
        }
    }
}
