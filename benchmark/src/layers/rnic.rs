//! `rnic`: the verbs path, one operation type at a time, on a two-node
//! fabric with the testbed profile.

use std::time::{Duration, Instant};

use netsim::profile::Profile;
use rnic::{
    Access, CompletionQueue, QpOptions, QueuePair, RNic, RdmaListener, RecvWr, RemoteMr, SendWr,
    ShmBuf, WorkRequest,
};

use super::ns_per_call;

const REGION: usize = 4 << 20;
const RECV_DEPTH: usize = 256;
/// Operations in flight before the poster waits for a signaled completion.
const WINDOW: u64 = 32;

/// A connected client QP, its send CQ, and the server's registered region.
/// The server side re-posts every consumed receive (as a broker does).
struct Rig {
    qp: QueuePair,
    send_cq: CompletionQueue,
    region: RemoteMr,
    client: RNic,
    server_node: netsim::NodeId,
    _keep: (RNic, rnic::MemoryRegion, sim::JoinHandle<()>),
}

async fn rig() -> Rig {
    let fabric = netsim::Fabric::new(Profile::testbed());
    let (a, b) = (fabric.add_node("client"), fabric.add_node("server"));
    let (client, server) = (RNic::new(&a), RNic::new(&b));
    let region = server.reg_mr(ShmBuf::zeroed(REGION), Access::all());
    let mut listener = RdmaListener::bind(&server, 1);
    let nic = server.clone();
    let acceptor = sim::spawn(async move {
        let send_cq = nic.create_cq(4096);
        while let Some(incoming) = listener.accept().await {
            let recv_cq = nic.create_cq(RECV_DEPTH * 2);
            let qp = incoming.accept(&nic, send_cq.clone(), recv_cq.clone(), QpOptions::default());
            let bufs: Vec<ShmBuf> = (0..RECV_DEPTH).map(|_| ShmBuf::zeroed(64)).collect();
            for (i, buf) in bufs.iter().enumerate() {
                let _ = qp.post_recv(RecvWr {
                    wr_id: i as u64,
                    buf: Some(buf.as_slice()),
                });
            }
            sim::spawn(async move {
                while let Some(cqe) = recv_cq.next().await {
                    if !cqe.ok() {
                        break;
                    }
                    let _ = qp.post_recv(RecvWr {
                        wr_id: cqe.wr_id,
                        buf: Some(bufs[cqe.wr_id as usize].as_slice()),
                    });
                }
            });
        }
    });
    let send_cq = client.create_cq(4096);
    let qp = client
        .connect(
            b.id,
            1,
            send_cq.clone(),
            client.create_cq(64),
            QpOptions::default(),
        )
        .await
        .expect("connect");
    Rig {
        qp,
        send_cq,
        region: region.remote(),
        client,
        server_node: b.id,
        _keep: (server, region, acceptor),
    }
}

/// Posts `count` work requests built by `op`, signaling (and awaiting) one
/// in every [`WINDOW`].
async fn post_windowed(rig: &Rig, count: u64, op: impl Fn(u64) -> WorkRequest) {
    for i in 0..count {
        let signaled = (i + 1) % WINDOW == 0 || i + 1 == count;
        rig.qp
            .post_send(SendWr {
                wr_id: i,
                op: op(i),
                signaled,
                trace: None,
            })
            .expect("post");
        if signaled {
            assert!(rig.send_cq.next().await.expect("cqe").ok());
        }
    }
}

/// Host ns, executor polls and allocations of one `post_windowed` run on a
/// warm rig (a first, untimed run fills pools and rings).
fn measure(count: u64, op: impl Fn(&Rig, u64) -> WorkRequest + Copy + 'static) -> (f64, u64, u64) {
    let rt = sim::Runtime::new();
    let rig = rt.block_on(async move {
        let rig = rig().await;
        post_windowed(&rig, count, |i| op(&rig, i)).await;
        rig
    });
    let (polls0, (allocs0, _)) = (rt.poll_count(), crate::alloc::snapshot());
    let t0 = Instant::now();
    let rig = rt.block_on(async move {
        post_windowed(&rig, count, |i| op(&rig, i)).await;
        rig
    });
    let ns = t0.elapsed().as_nanos() as f64;
    let (polls, allocs) = (
        rt.poll_count() - polls0,
        crate::alloc::snapshot().0 - allocs0,
    );
    rt.block_on(async move { drop(rig) });
    (ns, polls, allocs)
}

/// Median of `measure` over `budget`, per operation.
fn per_op(
    budget: Duration,
    count: u64,
    op: impl Fn(&Rig, u64) -> WorkRequest + Copy + 'static,
) -> (f64, f64, f64) {
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < 3 || (started.elapsed() < budget && runs.len() < 50) {
        runs.push(measure(count, op));
    }
    let ns: Vec<f64> = runs.iter().map(|r| r.0 / count as f64).collect();
    (
        crate::stats::median(&ns),
        runs[0].1 as f64 / count as f64,
        runs[0].2 as f64 / count as f64,
    )
}

pub fn run(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    thread_local! {
        static SMALL: ShmBuf = ShmBuf::zeroed(64);
        static LARGE: ShmBuf = ShmBuf::zeroed(32 * 1024);
        static READ: ShmBuf = ShmBuf::zeroed(2048);
        static MSG: ShmBuf = ShmBuf::zeroed(16);
    }
    let (ns, polls, allocs) = per_op(budget, 2_000, |rig, i| WorkRequest::WriteImm {
        local: SMALL.with(|b| b.as_slice()),
        remote_addr: rig.region.addr + (i * 64) % (REGION as u64 - 64),
        rkey: rig.region.rkey,
        imm: i as u32,
    });
    out.push(("rnic.write_ns_per_wr", ns));
    out.push(("rnic.write_polls_per_wr", polls));
    out.push(("rnic.write_allocs_per_wr", allocs));

    let (ns, _, _) = per_op(budget, 256, |rig, i| WorkRequest::Write {
        local: LARGE.with(|b| b.as_slice()),
        remote_addr: rig.region.addr + (i % 64) * 32 * 1024,
        rkey: rig.region.rkey,
    });
    out.push(("rnic.write_ns_per_kib", ns / 32.0));

    let (ns, _, _) = per_op(budget, 1_000, |rig, i| WorkRequest::Read {
        local: READ.with(|b| b.as_slice()),
        remote_addr: rig.region.addr + (i % 1024) * 2048,
        rkey: rig.region.rkey,
    });
    out.push(("rnic.read_ns_per_wr", ns));

    let (ns, _, _) = per_op(budget, 1_000, |_, _| WorkRequest::Send {
        local: MSG.with(|b| b.as_slice()),
    });
    out.push(("rnic.sendrecv_ns_per_msg", ns));

    const QPS: usize = 128;
    let connects = ns_per_call(budget, || {
        sim::Runtime::new().block_on(async {
            let rig = rig().await;
            let mut qps = Vec::with_capacity(QPS);
            for _ in 0..QPS {
                qps.push(
                    rig.client
                        .connect(
                            rig.server_node,
                            1,
                            rig.send_cq.clone(),
                            rig.client.create_cq(16),
                            QpOptions::default(),
                        )
                        .await
                        .expect("connect"),
                );
            }
            std::hint::black_box(qps.len());
        });
    });
    out.push(("rnic.connect_ns_per_qp", connects / (QPS + 1) as f64));
}
