//! `netsim`: link reservation per 2 KiB packet and the TCP byte stream.

use std::time::Duration;

use netsim::profile::Profile;

use super::ns_per_call;

const MIB: usize = 1 << 20;
const ROUNDS: usize = 4;

/// Streams `ROUNDS` x 1 MiB over one TCP connection; returns the allocations
/// of the last (warm) round.
fn tcp_rounds() -> u64 {
    sim::Runtime::new().block_on(async {
        let fabric = netsim::Fabric::new(Profile::testbed());
        let (src, dst) = (fabric.add_node("src"), fabric.add_node("dst"));
        let dst_id = dst.id;
        let mut listener = netsim::tcp::TcpListener::bind(&dst, 7000);
        let reader = sim::spawn(async move {
            let mut stream = listener.accept().await.expect("accept");
            let mut sink = Vec::with_capacity(MIB);
            for _ in 0..ROUNDS {
                sink.clear();
                stream.read_exact_into(MIB, &mut sink).await.expect("read");
            }
        });
        let mut stream = netsim::tcp::connect(&src, dst_id, 7000)
            .await
            .expect("connect");
        let payload = vec![0xEEu8; MIB];
        let mut last = 0;
        for _ in 0..ROUNDS {
            let (a0, _) = crate::alloc::snapshot();
            stream.write_all(&payload).await.expect("write");
            last = crate::alloc::snapshot().0 - a0;
        }
        reader.await.expect("reader");
        last
    })
}

pub fn run(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let fabric = netsim::Fabric::new(Profile::testbed());
    let (a, b) = (fabric.add_node("a").id, fabric.add_node("b").id);
    let mut now = 0u64;
    out.push((
        "netsim.link_ns_per_packet",
        ns_per_call(budget, || {
            // Both hops of one MTU-sized message, back to back.
            now += 400;
            let arrival =
                fabric.reserve_path(sim::SimTime::from_nanos(now), a, b, 2048, Duration::ZERO);
            std::hint::black_box(arrival);
        }),
    ));
    out.push((
        "netsim.tcp_ns_per_mib",
        ns_per_call(budget, || {
            std::hint::black_box(tcp_rounds());
        }) / ROUNDS as f64,
    ));
    out.push(("netsim.tcp_allocs_per_mib", tcp_rounds() as f64));
}
