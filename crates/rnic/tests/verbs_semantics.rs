//! Semantic tests of the RC verbs model: every property the KafkaDirect
//! protocols rely on (§4 of the paper) is asserted here.

use netsim::profile::Profile;
use netsim::Fabric;
use rnic::{
    Access, CompletionQueue, CqOpcode, CqStatus, QpOptions, QueuePair, RNic, RdmaListener, RecvWr,
    SendWr, ShmBuf, WorkRequest,
};
use std::time::Duration;

struct Pair {
    #[allow(dead_code)] // kept alive: dropping the NIC would unregister it
    nic_a: RNic,
    nic_b: RNic,
    qp_a: QueuePair,
    qp_b: QueuePair,
    a_send: CompletionQueue,
    a_recv: CompletionQueue,
    b_send: CompletionQueue,
    b_recv: CompletionQueue,
}

async fn setup_with(profile: Profile, opts: QpOptions, recv_cq_cap: usize) -> Pair {
    let f = Fabric::new(profile);
    let na = f.add_node("a");
    let nb = f.add_node("b");
    let nic_a = RNic::new(&na);
    let nic_b = RNic::new(&nb);
    let mut listener = RdmaListener::bind(&nic_b, 1);
    let b_send = nic_b.create_cq(1024);
    let b_recv = nic_b.create_cq(recv_cq_cap);
    let nic_b2 = nic_b.clone();
    let b_recv2 = b_recv.clone();
    let opts2 = opts.clone();
    let b_send2 = b_send.clone();
    let accept = sim::spawn(async move {
        let inc = listener.accept().await.unwrap();
        inc.accept(&nic_b2, b_send2, b_recv2, opts2)
    });
    let a_send = nic_a.create_cq(1024);
    let a_recv = nic_a.create_cq(1024);
    let qp_a = nic_a
        .connect(nb.id, 1, a_send.clone(), a_recv.clone(), opts)
        .await
        .unwrap();
    let qp_b = accept.await.unwrap();
    Pair {
        nic_a,
        nic_b,
        qp_a,
        qp_b,
        a_send,
        a_recv,
        b_send,
        b_recv,
    }
}

async fn setup() -> Pair {
    setup_with(Profile::testbed(), QpOptions::default(), 1024).await
}

#[test]
fn write_with_imm_delivers_imm_and_bytes() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let target = ShmBuf::zeroed(128);
        let mr = p.nic_b.reg_mr(target.clone(), Access::all());
        p.qp_b.post_recv(RecvWr { wr_id: 1, buf: None }).unwrap();
        let payload = ShmBuf::from_vec(vec![0xAB; 32]);
        p.qp_a
            .post_send(SendWr::new(
                9,
                WorkRequest::WriteImm {
                    local: payload.as_slice(),
                    remote_addr: mr.addr() + 16,
                    rkey: mr.rkey(),
                    imm: 0xC0FFEE,
                },
            ))
            .unwrap();
        let rc = p.b_recv.next().await.unwrap();
        assert_eq!(rc.opcode, CqOpcode::RecvRdmaWithImm);
        assert_eq!(rc.imm, Some(0xC0FFEE));
        assert_eq!(rc.byte_len, 32);
        // Data landed directly in the registered buffer (zero copy).
        assert_eq!(target.read_at(16, 32), vec![0xAB; 32]);
        assert!(p.a_send.next().await.unwrap().ok());
    });
}

#[test]
fn completions_are_in_post_order() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let target = ShmBuf::zeroed(1 << 20);
        let mr = p.nic_b.reg_mr(target, Access::all());
        // Mix sizes so naive per-WR timing would complete small ones first.
        let sizes = [200_000usize, 64, 100_000, 8, 300_000, 16];
        for (i, sz) in sizes.iter().enumerate() {
            let buf = ShmBuf::zeroed(*sz);
            p.qp_a
                .post_send(SendWr::new(
                    i as u64,
                    WorkRequest::Write {
                        local: buf.as_slice(),
                        remote_addr: mr.addr(),
                        rkey: mr.rkey(),
                    },
                ))
                .unwrap();
        }
        for i in 0..sizes.len() as u64 {
            let cqe = p.a_send.next().await.unwrap();
            assert!(cqe.ok());
            assert_eq!(cqe.wr_id, i, "completions must be in post order");
        }
    });
}

#[test]
fn writes_execute_remotely_in_post_order() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let target = ShmBuf::zeroed(8);
        let mr = p.nic_b.reg_mr(target.clone(), Access::all());
        // Two overlapping writes: the later one must win.
        for (i, v) in [(0u64, 1u8), (1, 2)] {
            let buf = ShmBuf::from_vec(vec![v; 8]);
            p.qp_a
                .post_send(SendWr::new(
                    i,
                    WorkRequest::Write {
                        local: buf.as_slice(),
                        remote_addr: mr.addr(),
                        rkey: mr.rkey(),
                    },
                ))
                .unwrap();
        }
        p.a_send.next().await.unwrap();
        p.a_send.next().await.unwrap();
        assert_eq!(target.read_at(0, 8), vec![2u8; 8]);
    });
}

#[test]
fn rdma_read_fetches_remote_bytes_without_target_tasks() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let data = ShmBuf::from_vec((0..64u8).collect());
        let mr = p.nic_b.reg_mr(data, Access::REMOTE_READ);
        let dst = ShmBuf::zeroed(16);
        p.qp_a
            .post_send(SendWr::new(
                3,
                WorkRequest::Read {
                    local: dst.as_slice(),
                    remote_addr: mr.addr() + 8,
                    rkey: mr.rkey(),
                },
            ))
            .unwrap();
        let cqe = p.a_send.next().await.unwrap();
        assert!(cqe.ok());
        assert_eq!(cqe.opcode, CqOpcode::RdmaRead);
        assert_eq!(dst.read_at(0, 16), (8..24u8).collect::<Vec<_>>());
        assert_eq!(p.nic_b.stats().reads_served, 1);
    });
}

#[test]
fn faa_always_succeeds_and_returns_old_value() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let word = ShmBuf::zeroed(8);
        word.write_u64(0, 100);
        let mr = p.nic_b.reg_mr(word.clone(), Access::all());
        let res = ShmBuf::zeroed(8);
        for expected_old in [100u64, 107, 114] {
            p.qp_a
                .post_send(SendWr::new(
                    1,
                    WorkRequest::FetchAdd {
                        local: res.as_slice(),
                        remote_addr: mr.addr(),
                        rkey: mr.rkey(),
                        add: 7,
                    },
                ))
                .unwrap();
            let cqe = p.a_send.next().await.unwrap();
            assert!(cqe.ok());
            assert_eq!(cqe.atomic_old, Some(expected_old));
            assert_eq!(res.read_u64(0), expected_old);
        }
        assert_eq!(word.read_u64(0), 121);
    });
}

#[test]
fn cas_swaps_only_on_match() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let word = ShmBuf::zeroed(8);
        word.write_u64(0, 5);
        let mr = p.nic_b.reg_mr(word.clone(), Access::all());
        let res = ShmBuf::zeroed(8);
        let cas = |compare, swap| {
            SendWr::new(
                1,
                WorkRequest::CompareSwap {
                    local: res.as_slice(),
                    remote_addr: mr.addr(),
                    rkey: mr.rkey(),
                    compare,
                    swap,
                },
            )
        };
        p.qp_a.post_send(cas(4, 9)).unwrap(); // mismatch
        let c1 = p.a_send.next().await.unwrap();
        assert_eq!(c1.atomic_old, Some(5));
        assert_eq!(word.read_u64(0), 5);
        p.qp_a.post_send(cas(5, 9)).unwrap(); // match
        let c2 = p.a_send.next().await.unwrap();
        assert_eq!(c2.atomic_old, Some(5));
        assert_eq!(word.read_u64(0), 9);
    });
}

#[test]
fn misaligned_atomic_is_remote_op_error() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let word = ShmBuf::zeroed(16);
        let mr = p.nic_b.reg_mr(word, Access::all());
        let res = ShmBuf::zeroed(8);
        p.qp_a
            .post_send(SendWr::new(
                1,
                WorkRequest::FetchAdd {
                    local: res.as_slice(),
                    remote_addr: mr.addr() + 4,
                    rkey: mr.rkey(),
                    add: 1,
                },
            ))
            .unwrap();
        let cqe = p.a_send.next().await.unwrap();
        assert_eq!(cqe.status, CqStatus::RemoteOpError);
        assert!(!p.qp_a.is_alive(), "protocol errors break the connection");
    });
}

#[test]
fn out_of_bounds_write_breaks_connection() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let target = ShmBuf::zeroed(64);
        let mr = p.nic_b.reg_mr(target, Access::all());
        let buf = ShmBuf::zeroed(32);
        p.qp_a
            .post_send(SendWr::new(
                1,
                WorkRequest::Write {
                    local: buf.as_slice(),
                    remote_addr: mr.addr() + 40, // 40 + 32 > 64
                    rkey: mr.rkey(),
                },
            ))
            .unwrap();
        let cqe = p.a_send.next().await.unwrap();
        assert_eq!(cqe.status, CqStatus::RemoteAccessError);
        assert!(!p.qp_a.is_alive());
        assert!(!p.qp_b.is_alive());
        // Subsequent posts are rejected.
        assert!(p
            .qp_a
            .post_send(SendWr::new(
                2,
                WorkRequest::Write {
                    local: buf.as_slice(),
                    remote_addr: mr.addr(),
                    rkey: mr.rkey(),
                }
            ))
            .is_err());
    });
}

#[test]
fn permission_denied_without_remote_write() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let target = ShmBuf::zeroed(64);
        let mr = p.nic_b.reg_mr(target, Access::REMOTE_READ);
        let buf = ShmBuf::zeroed(8);
        p.qp_a
            .post_send(SendWr::new(
                1,
                WorkRequest::Write {
                    local: buf.as_slice(),
                    remote_addr: mr.addr(),
                    rkey: mr.rkey(),
                },
            ))
            .unwrap();
        assert_eq!(p.a_send.next().await.unwrap().status, CqStatus::RemoteAccessError);
    });
}

#[test]
fn deregistered_mr_faults_inflight_access() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let target = ShmBuf::zeroed(64);
        let mr = p.nic_b.reg_mr(target, Access::all());
        // Revoke access (what the broker does to a faulty client, §4.2.2),
        // then have the client write.
        p.nic_b.dereg_mr(&mr);
        let buf = ShmBuf::zeroed(8);
        p.qp_a
            .post_send(SendWr::new(
                1,
                WorkRequest::Write {
                    local: buf.as_slice(),
                    remote_addr: mr.addr(),
                    rkey: mr.rkey(),
                },
            ))
            .unwrap();
        assert_eq!(p.a_send.next().await.unwrap().status, CqStatus::RemoteAccessError);
    });
}

#[test]
fn rnr_timeout_fails_when_no_recv_posted() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let opts = QpOptions {
            rnr_timeout: Some(Duration::from_micros(50)),
            ..QpOptions::default()
        };
        let p = setup_with(Profile::testbed(), opts, 1024).await;
        let buf = ShmBuf::from_vec(vec![1; 4]);
        p.qp_a
            .post_send(SendWr::new(1, WorkRequest::Send { local: buf.as_slice() }))
            .unwrap();
        let cqe = p.a_send.next().await.unwrap();
        assert_eq!(cqe.status, CqStatus::RnrRetryExceeded);
        assert!(!p.qp_b.is_alive());
    });
}

#[test]
fn rnr_infinite_waits_for_late_recv() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let qp_b = p.qp_b.clone();
        sim::spawn(async move {
            sim::time::sleep(Duration::from_micros(30)).await;
            qp_b.post_recv(RecvWr { wr_id: 5, buf: Some(ShmBuf::zeroed(8).as_slice()) })
                .unwrap();
        });
        let buf = ShmBuf::from_vec(vec![1; 4]);
        p.qp_a
            .post_send(SendWr::new(1, WorkRequest::Send { local: buf.as_slice() }))
            .unwrap();
        let rc = p.b_recv.next().await.unwrap();
        assert!(rc.ok());
        assert!(sim::now().as_nanos() >= 30_000);
    });
}

#[test]
fn cq_overflow_disconnects_attached_qps() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        // Tiny receive CQ at b: a burst of notifications overflows it —
        // the §4.3.2 failure mode that credits exist to prevent.
        let p = setup_with(Profile::testbed(), QpOptions::default(), 4).await;
        let target = ShmBuf::zeroed(64);
        let mr = p.nic_b.reg_mr(target, Access::all());
        for i in 0..16 {
            p.qp_b.post_recv(RecvWr { wr_id: i, buf: None }).unwrap();
        }
        let buf = ShmBuf::zeroed(4);
        for i in 0..16 {
            let _ = p.qp_a.post_send(SendWr::new(
                i,
                WorkRequest::WriteImm {
                    local: buf.as_slice(),
                    remote_addr: mr.addr(),
                    rkey: mr.rkey(),
                    imm: i as u32,
                },
            ));
        }
        // Let the burst land without draining b's CQ.
        sim::time::sleep(Duration::from_millis(1)).await;
        assert!(p.b_recv.overflowed());
        assert!(!p.qp_b.is_alive());
        assert!(!p.qp_a.is_alive());
    });
}

#[test]
fn close_wakes_peer_disconnect_watcher() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let t0 = sim::now();
        let qp_b = p.qp_b.clone();
        let watcher = sim::spawn(async move {
            qp_b.disconnected().await;
            sim::now()
        });
        sim::time::sleep(Duration::from_micros(20)).await;
        p.qp_a.close();
        let when = watcher.await.unwrap();
        assert_eq!(when - t0, Duration::from_micros(20));
    });
}

#[test]
fn timing_small_write_latency_matches_paper_order() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        // Fig 7: WriteWithImm notification latency ~1.5 µs for small writes.
        let p = setup().await;
        let target = ShmBuf::zeroed(64);
        let mr = p.nic_b.reg_mr(target, Access::all());
        p.qp_b.post_recv(RecvWr { wr_id: 0, buf: None }).unwrap();
        let t0 = sim::now();
        let buf = ShmBuf::zeroed(16);
        p.qp_a
            .post_send(SendWr::new(
                0,
                WorkRequest::WriteImm {
                    local: buf.as_slice(),
                    remote_addr: mr.addr(),
                    rkey: mr.rkey(),
                    imm: 1,
                },
            ))
            .unwrap();
        p.b_recv.next().await.unwrap();
        let us = (sim::now() - t0).as_nanos() as f64 / 1000.0;
        assert!(us > 0.5 && us < 3.0, "one-way notify latency {us}us");
    });
}

#[test]
fn timing_atomics_are_rate_limited_per_word() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        // §4.2.2: single-counter atomics cap at 2.68 Mops/s.
        let p = setup().await;
        let word = ShmBuf::zeroed(8);
        let mr = p.nic_b.reg_mr(word, Access::all());
        let res = ShmBuf::zeroed(8);
        let n = 1000u64;
        let t0 = sim::now();
        for i in 0..n {
            p.qp_a
                .post_send(SendWr {
                    wr_id: i,
                    op: WorkRequest::FetchAdd {
                        local: res.as_slice(),
                        remote_addr: mr.addr(),
                        rkey: mr.rkey(),
                        add: 1,
                    },
                    signaled: i == n - 1,
                    trace: None,
                })
                .unwrap();
        }
        let last = p.a_send.next().await.unwrap();
        assert!(last.ok());
        let secs = (sim::now() - t0).as_secs_f64();
        let mops = n as f64 / secs / 1e6;
        assert!(mops < 2.75, "pipelined atomic rate {mops} Mops/s exceeds cap");
        assert!(mops > 2.3, "pipelined atomic rate {mops} Mops/s far below cap");
    });
}

#[test]
fn timing_large_writes_reach_link_bandwidth() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let target = ShmBuf::zeroed(4 << 20);
        let mr = p.nic_b.reg_mr(target, Access::all());
        let chunk = ShmBuf::zeroed(1 << 20);
        let n = 64;
        let t0 = sim::now();
        for i in 0..n {
            p.qp_a
                .post_send(SendWr {
                    wr_id: i,
                    op: WorkRequest::Write {
                        local: chunk.as_slice(),
                        remote_addr: mr.addr(),
                        rkey: mr.rkey(),
                    },
                    signaled: i == n - 1,
                    trace: None,
                })
                .unwrap();
        }
        assert!(p.a_send.next().await.unwrap().ok());
        let secs = (sim::now() - t0).as_secs_f64();
        let gibps = (n as f64 * (1 << 20) as f64) / secs / (1u64 << 30) as f64;
        assert!(gibps > 5.5 && gibps < 6.05, "goodput {gibps} GiB/s");
    });
}

#[test]
fn recv_flush_on_error() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        p.qp_b
            .post_recv(RecvWr { wr_id: 42, buf: None })
            .unwrap();
        p.qp_a.close();
        let cqe = p.b_recv.next().await.unwrap();
        assert_eq!(cqe.wr_id, 42);
        assert_eq!(cqe.status, CqStatus::FlushError);
        // a_recv had nothing posted; its CQ stays quiet.
        assert!(p.a_recv.poll().is_none());
    });
}

// ---------------------------------------------------------------------------
// Work-request engine contracts: list/single equivalence, RNR head-of-line,
// flush order, and the executor-poll budget.
// ---------------------------------------------------------------------------

/// `(wr_id, status, virtual time the CQE was seen)` per completion, logged by
/// a task that does nothing but drain `cq`.
type CqeLog = std::rc::Rc<std::cell::RefCell<Vec<(u64, CqStatus, u64)>>>;

fn log_cq(cq: &CompletionQueue) -> CqeLog {
    let log = CqeLog::default();
    let (cq, log2) = (cq.clone(), log.clone());
    sim::spawn(async move {
        while let Some(cqe) = cq.next().await {
            log2.borrow_mut().push((cqe.wr_id, cqe.status, sim::now().as_nanos()));
        }
    });
    log
}

fn write(wr_id: u64, signaled: bool, local: &ShmBuf, remote_addr: u64, rkey: u32) -> SendWr {
    SendWr {
        wr_id,
        op: WorkRequest::Write {
            local: local.as_slice(),
            remote_addr,
            rkey,
        },
        signaled,
        trace: None,
    }
}

fn write_imm(wr_id: u64, signaled: bool, local: &ShmBuf, remote_addr: u64, rkey: u32) -> SendWr {
    SendWr {
        wr_id,
        op: WorkRequest::WriteImm {
            local: local.as_slice(),
            remote_addr,
            rkey,
            imm: wr_id as u32,
        },
        signaled,
        trace: None,
    }
}

#[test]
fn list_differs_from_singles_by_exactly_the_doorbell_term() {
    // With the wire and the per-op gap out of the picture, WR `i` of a list
    // is `i` doorbells behind the same WR posted on its own.
    fn cqe_times(as_list: bool) -> Vec<u64> {
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let mut profile = Profile::testbed();
            profile.net.rdma_min_op_gap = Duration::ZERO;
            profile.net.link_bandwidth = 1e18;
            let p = setup_with(profile, QpOptions::default(), 1024).await;
            let mr = p.nic_b.reg_mr(ShmBuf::zeroed(1024), Access::all());
            let src = ShmBuf::from_vec(vec![7; 16]);
            let log = log_cq(&p.a_send);
            let t0 = sim::now().as_nanos();
            let wrs = (0..8u64).map(|i| write(i, true, &src, mr.addr() + i * 16, mr.rkey()));
            if as_list {
                p.qp_a.post_send_list(wrs).unwrap();
            } else {
                for wr in wrs {
                    p.qp_a.post_send(wr).unwrap();
                }
            }
            sim::time::sleep(Duration::from_micros(100)).await;
            let log = log.borrow();
            assert!(log.iter().all(|&(_, status, _)| status == CqStatus::Success));
            assert_eq!(log.iter().map(|c| c.0).collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
            log.iter().map(|c| c.2 - t0).collect()
        })
    }
    let doorbell = Profile::testbed().net.doorbell_overhead.as_nanos() as u64;
    assert!(doorbell > 0);
    let (singles, list) = (cqe_times(false), cqe_times(true));
    for (i, (s, l)) in singles.iter().zip(&list).enumerate() {
        assert_eq!(l - s, i as u64 * doorbell, "WR {i}");
    }
}

/// A WriteImm that finds no receive stalls the plain Write posted behind it
/// until a receive shows up; `post` is how the test supplies one at 50 µs.
async fn rnr_blocks_successors(p: &Pair, post: impl FnOnce(RecvWr)) {
    let target = ShmBuf::zeroed(64);
    let mr = p.nic_b.reg_mr(target.clone(), Access::all());
    let (first, second) = (ShmBuf::from_vec(vec![1; 8]), ShmBuf::from_vec(vec![2; 8]));
    let sends = log_cq(&p.a_send);
    let t0 = sim::now().as_nanos();
    p.qp_a.post_send(write_imm(0, true, &first, mr.addr(), mr.rkey())).unwrap();
    p.qp_a.post_send(write(1, true, &second, mr.addr() + 8, mr.rkey())).unwrap();
    sim::time::sleep(Duration::from_micros(50)).await;
    assert!(p.b_recv.is_empty() && sends.borrow().is_empty());
    assert_eq!(target.read_at(8, 8), vec![0; 8], "Write overtook the stalled WriteImm");
    post(RecvWr { wr_id: 77, buf: None });
    let rc = p.b_recv.next().await.unwrap();
    let unblocked = sim::now().as_nanos() - t0;
    assert_eq!((rc.wr_id, rc.imm, unblocked), (77, Some(0), 50_000));
    sim::time::sleep(Duration::from_micros(10)).await;
    assert_eq!(target.read_at(0, 16), [[1u8; 8], [2u8; 8]].concat());
    // Both CQEs were long due: they surface the instant the stall clears.
    let want = vec![(0, CqStatus::Success, t0 + 50_000), (1, CqStatus::Success, t0 + 50_000)];
    assert_eq!(*sends.borrow(), want);
}

#[test]
fn rnr_is_head_of_line_on_a_per_qp_receive_queue() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        rnr_blocks_successors(&p, |wr| p.qp_b.post_recv(wr).unwrap()).await;
    });
}

#[test]
fn rnr_is_head_of_line_on_a_shared_receive_queue() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        // Only the accepting side (`b`) consumes from the SRQ.
        let f = Fabric::new(Profile::testbed());
        let (na, nb) = (f.add_node("a"), f.add_node("b"));
        let (nic_a, nic_b) = (RNic::new(&na), RNic::new(&nb));
        let srq = nic_b.create_srq(16);
        let mut listener = RdmaListener::bind(&nic_b, 1);
        let (b_send, b_recv) = (nic_b.create_cq(64), nic_b.create_cq(64));
        let (nic_b2, b_send2, b_recv2) = (nic_b.clone(), b_send.clone(), b_recv.clone());
        let opts = QpOptions {
            srq: Some(srq.clone()),
            ..QpOptions::default()
        };
        let accept = sim::spawn(async move {
            let inc = listener.accept().await.unwrap();
            inc.accept(&nic_b2, b_send2, b_recv2, opts)
        });
        let (a_send, a_recv) = (nic_a.create_cq(64), nic_a.create_cq(64));
        let qp_a = nic_a
            .connect(nb.id, 1, a_send.clone(), a_recv.clone(), QpOptions::default())
            .await
            .unwrap();
        let qp_b = accept.await.unwrap();
        let p = Pair {
            nic_a,
            nic_b,
            qp_a,
            qp_b,
            a_send,
            a_recv,
            b_send,
            b_recv,
        };
        rnr_blocks_successors(&p, |wr| srq.post_recv(wr).unwrap()).await;
    });
}

#[test]
fn rnr_timeout_and_storm_fail_at_the_retry_deadline() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let timeout = Duration::from_micros(50);
        let opts = QpOptions {
            rnr_timeout: Some(timeout),
            ..QpOptions::default()
        };
        // Reference: how long a Send takes to reach a ready receiver.
        let one_way = {
            let p = setup_with(Profile::testbed(), opts.clone(), 64).await;
            p.qp_b.post_recv(RecvWr { wr_id: 0, buf: None }).unwrap();
            let t0 = sim::now();
            p.qp_a
                .post_send(SendWr::new(0, WorkRequest::Send { local: ShmBuf::zeroed(0).as_slice() }))
                .unwrap();
            p.b_recv.next().await.unwrap();
            sim::now() - t0
        };
        for storm in [false, true] {
            let p = setup_with(Profile::testbed(), opts.clone(), 64).await;
            if storm {
                // A receive is posted, but the storm outlasts the retries.
                p.qp_b.post_recv(RecvWr { wr_id: 0, buf: None }).unwrap();
                p.qp_b.inject_rnr_storm(Duration::from_millis(1));
            }
            let t0 = sim::now();
            p.qp_a
                .post_send(SendWr::new(0, WorkRequest::Send { local: ShmBuf::zeroed(0).as_slice() }))
                .unwrap();
            let cqe = p.a_send.next().await.unwrap();
            assert_eq!(cqe.status, CqStatus::RnrRetryExceeded);
            assert_eq!(sim::now() - t0, one_way + timeout, "storm={storm}");
            assert!(!p.qp_a.is_alive() && !p.qp_b.is_alive());
        }
        // A storm shorter than the retry budget only delays delivery.
        let p = setup_with(Profile::testbed(), opts, 64).await;
        p.qp_b.post_recv(RecvWr { wr_id: 0, buf: None }).unwrap();
        p.qp_b.inject_rnr_storm(Duration::from_micros(20));
        let t0 = sim::now();
        p.qp_a
            .post_send(SendWr::new(0, WorkRequest::Send { local: ShmBuf::zeroed(0).as_slice() }))
            .unwrap();
        assert!(p.b_recv.next().await.unwrap().ok());
        assert_eq!(sim::now() - t0, Duration::from_micros(20));
    });
}

/// Posts a window of 64 KiB writes (signaled: 0, 3, 5; unsignaled: the
/// rest), lets the first two land, kills the QP through `kill`, and returns
/// the send CQEs with the kill time.
fn flush_window(kill: impl FnOnce(&Pair) + 'static) -> (Vec<(u64, CqStatus, u64)>, u64) {
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let p = setup().await;
        let mr = p.nic_b.reg_mr(ShmBuf::zeroed(64 << 10), Access::all());
        let src = ShmBuf::zeroed(64 << 10);
        let log = log_cq(&p.a_send);
        for i in 0..8u64 {
            p.qp_a
                .post_send(write(i, [0, 3, 5].contains(&i), &src, mr.addr(), mr.rkey()))
                .unwrap();
        }
        // ~10.4 µs per write on the wire: 11 µs after write 0 completes,
        // write 1 has landed, 2 is in flight, 3.. are queued behind it.
        while log.borrow().is_empty() {
            sim::time::sleep(Duration::from_micros(1)).await;
        }
        sim::time::sleep(Duration::from_micros(11)).await;
        let killed = sim::now().as_nanos();
        kill(&p);
        assert!(p.qp_a.post_send(write(9, true, &src, mr.addr(), mr.rkey())).is_err());
        sim::time::sleep(Duration::from_millis(1)).await;
        let log = log.borrow().clone();
        (log, killed)
    })
}

#[test]
fn dead_qp_flushes_a_mixed_window_in_ticket_order() {
    let closed = flush_window(|p| p.qp_b.close());
    let overflowed = flush_window(|p| p.a_recv.inject_overflow());
    assert_eq!(closed, overflowed, "close and CQ overflow tear down alike");
    let (log, killed) = closed;
    // Write 0 completed (signaled), write 1 completed silently; every WR
    // still owed anything — signaled or not — flushes, in post order.
    let ids: Vec<u64> = log.iter().map(|c| c.0).collect();
    assert_eq!(ids, vec![0, 2, 3, 4, 5, 6, 7], "{log:?} killed at {killed}");
    assert_eq!(log[0].1, CqStatus::Success);
    assert!(log[0].2 < killed);
    assert!(log[1..].iter().all(|c| c.1 == CqStatus::FlushError));
    // The write in flight fails when it would have completed; the rest never
    // launched and flush right behind it, not at their own reserved times.
    let in_flight = log[1].2;
    assert!(in_flight > killed && in_flight < killed + 12_000);
    assert!(log[2..].iter().all(|c| c.2 == in_flight));
}

#[test]
fn breaking_wr_keeps_its_status_and_both_directions_flush() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup().await;
        let mr = p.nic_b.reg_mr(ShmBuf::zeroed(64), Access::all());
        let mr_a = p.nic_a.reg_mr(ShmBuf::zeroed(64), Access::all());
        let src = ShmBuf::zeroed(8);
        let (a_log, b_log) = (log_cq(&p.a_send), log_cq(&p.b_send));
        p.qp_a.post_send(write(0, false, &src, mr.addr(), mr.rkey())).unwrap();
        p.qp_a.post_send(write(1, false, &src, mr.addr() + 60, mr.rkey())).unwrap(); // out of bounds
        p.qp_a.post_send(write(2, false, &src, mr.addr(), mr.rkey())).unwrap();
        p.qp_a.post_send(write(3, true, &src, mr.addr(), mr.rkey())).unwrap();
        // The other direction gets work in flight before the bad write lands.
        sim::time::sleep(Duration::from_nanos(500)).await;
        assert!(p.qp_b.is_alive());
        p.qp_b.post_send(write(10, false, &src, mr_a.addr(), mr_a.rkey())).unwrap();
        p.qp_b.post_send(write(11, false, &src, mr_a.addr(), mr_a.rkey())).unwrap();
        sim::time::sleep(Duration::from_micros(100)).await;
        let statuses = |log: &CqeLog| log.borrow().iter().map(|c| (c.0, c.1)).collect::<Vec<_>>();
        let want = [
            (1, CqStatus::RemoteAccessError),
            (2, CqStatus::FlushError),
            (3, CqStatus::FlushError),
        ];
        assert_eq!(statuses(&a_log), want);
        assert_eq!(statuses(&b_log), [(10, CqStatus::FlushError), (11, CqStatus::FlushError)]);
        assert!(!p.qp_a.is_alive() && !p.qp_b.is_alive());
    });
}

#[test]
fn overflowed_cq_still_serves_what_it_queued() {
    let rt = sim::Runtime::new();
    rt.block_on(async {
        let p = setup_with(Profile::testbed(), QpOptions::default(), 4).await;
        let mr = p.nic_b.reg_mr(ShmBuf::zeroed(64), Access::all());
        for i in 0..8 {
            p.qp_b.post_recv(RecvWr { wr_id: i, buf: None }).unwrap();
        }
        let src = ShmBuf::zeroed(4);
        for i in 0..8 {
            let _ = p.qp_a.post_send(write_imm(i, false, &src, mr.addr(), mr.rkey()));
        }
        sim::time::sleep(Duration::from_millis(1)).await;
        assert!(p.b_recv.overflowed());
        // The four CQEs that fit are still there, through every accessor;
        // `next()` reports the overflow only once they are gone.
        assert_eq!(p.b_recv.len(), 4);
        assert_eq!(p.b_recv.poll().unwrap().imm, Some(0));
        let mut out = Vec::new();
        assert_eq!(p.b_recv.drain_into(&mut out, 2), 2);
        assert_eq!(out.iter().map(|c| c.imm).collect::<Vec<_>>(), vec![Some(1), Some(2)]);
        assert_eq!(p.b_recv.next().await.unwrap().imm, Some(3));
        assert!(p.b_recv.next().await.is_none());
    });
}

/// A blocked consumer's batches, `(instant, immediates)`: three bursts of
/// WriteImms (2, 3 and 1, the second landing inside the first's wake-up, the
/// third long after), then the CQ is overflowed. `blocking` waits in
/// `wait(wakeup)`; otherwise the reference: `next()`, then sleep `wakeup`.
fn blocked_consumer_batches(blocking: bool) -> (Vec<(u64, Vec<u32>)>, u64) {
    const WAKEUP: Duration = Duration::from_micros(10);
    let rt = sim::Runtime::new();
    let p = rt.block_on(setup_with(Profile::testbed(), QpOptions::default(), 64));
    let before = rt.poll_count();
    let log = rt.block_on(async move {
        let mr = p.nic_b.reg_mr(ShmBuf::zeroed(64), Access::all());
        for i in 0..8 {
            p.qp_b.post_recv(RecvWr { wr_id: i, buf: None }).unwrap();
        }
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let (cq, log2) = (p.b_recv.clone(), log.clone());
        let consumer = sim::spawn(async move {
            loop {
                let mut batch: kdbuf::ArrayVec<rnic::Cqe, 8> = kdbuf::ArrayVec::new();
                if blocking {
                    if !cq.wait(WAKEUP).await {
                        break;
                    }
                } else {
                    let Some(first) = cq.next().await else { break };
                    sim::time::sleep(WAKEUP).await;
                    let _ = batch.push(first);
                }
                cq.poll_batch(&mut batch);
                let imms = batch.as_slice().iter().map(|c| c.imm.unwrap()).collect();
                log2.borrow_mut().push((sim::now().as_nanos(), imms));
            }
        });
        let src = ShmBuf::zeroed(4);
        for (burst, gap_us) in [(0..2, 4), (2..5, 100), (5..6, 100)] {
            for i in burst {
                p.qp_a.post_send(write_imm(i, false, &src, mr.addr(), mr.rkey())).unwrap();
            }
            sim::time::sleep(Duration::from_micros(gap_us)).await;
        }
        p.b_recv.inject_overflow();
        consumer.await.unwrap();
        log.take()
    });
    (log, rt.poll_count() - before)
}

#[test]
fn a_blocked_cq_consumer_wakes_once_per_batch_at_arrival_plus_wakeup() {
    let (batches, polls) = blocked_consumer_batches(true);
    let (reference, reference_polls) = blocked_consumer_batches(false);
    assert_eq!(batches, reference);
    let imms: Vec<_> = batches.iter().map(|b| b.1.clone()).collect();
    assert_eq!(imms, [vec![0, 1, 2, 3, 4], vec![5]]);
    // The reference is woken at each batch's first arrival only to sleep.
    assert_eq!(reference_polls - polls, 2);
}

/// What `consumers` tasks blocked in `wait` on one CQ take between them —
/// `(instant, consumer, immediates)` per batch — from bursts of WriteImms of
/// the given sizes, 100 µs apart. They park in index order; none does
/// anything between a drain and its next wait. At the end the CQ is
/// overflowed, which must end every one of them.
fn shared_cq_batches(consumers: usize, bursts: &[u32]) -> Vec<(u64, usize, Vec<u32>)> {
    const WAKEUP: Duration = Duration::from_micros(10);
    let bursts = bursts.to_vec();
    sim::Runtime::new().block_on(async move {
        let p = setup_with(Profile::testbed(), QpOptions::default(), 64).await;
        let mr = p.nic_b.reg_mr(ShmBuf::zeroed(64), Access::all());
        for i in 0..u64::from(bursts.iter().sum::<u32>()) {
            p.qp_b.post_recv(RecvWr { wr_id: i, buf: None }).unwrap();
        }
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let tasks: Vec<_> = (0..consumers)
            .map(|id| {
                let (cq, log) = (p.b_recv.clone(), log.clone());
                sim::spawn(async move {
                    while cq.wait(WAKEUP).await {
                        let mut batch: kdbuf::ArrayVec<rnic::Cqe, 8> = kdbuf::ArrayVec::new();
                        cq.poll_batch(&mut batch);
                        let imms = batch.as_slice().iter().map(|c| c.imm.unwrap()).collect();
                        log.borrow_mut().push((sim::now().as_nanos(), id, imms));
                    }
                })
            })
            .collect();
        let src = ShmBuf::zeroed(4);
        let mut next = 0;
        for burst in bursts {
            sim::time::sleep(Duration::from_micros(100)).await;
            for i in next..next + burst {
                let wr = write_imm(u64::from(i), false, &src, mr.addr(), mr.rkey());
                p.qp_a.post_send(wr).unwrap();
            }
            next += burst;
        }
        sim::time::sleep(Duration::from_micros(100)).await;
        p.b_recv.inject_overflow();
        for task in tasks {
            task.await.unwrap();
        }
        log.take()
    })
}

#[test]
fn blocked_cq_consumers_take_turns_and_wake_to_nothing_for_free() {
    let bursts = [3, 1, 2, 1, 4, 1, 1, 2];
    let one = shared_cq_batches(1, &bursts);
    let two = shared_cq_batches(2, &bursts);
    // Every burst lands inside the wake-up of the consumer its first push
    // armed: that consumer wakes once, with the whole burst queued.
    let sizes: Vec<u32> = one.iter().map(|b| b.2.len() as u32).collect();
    assert_eq!(sizes, bursts);
    // The burst's second push armed the second consumer, which wakes to an
    // empty queue and is parked again at no charge: between them the two
    // take exactly the batches one takes, at the instants it takes them.
    let unnamed = |log: &[(u64, usize, Vec<u32>)]| -> Vec<(u64, Vec<u32>)> {
        log.iter().map(|(at, _, imms)| (*at, imms.clone())).collect()
    };
    assert_eq!(unnamed(&two), unnamed(&one));
    // Longest parked first — and waking to nothing does not cost the turn.
    let turns: Vec<usize> = two.iter().map(|b| b.1).collect();
    assert_eq!(turns, [0, 1, 0, 1, 0, 1, 0, 1]);
}

#[test]
fn a_cq_consumer_that_stops_waiting_never_swallows_a_wake() {
    use sim::future::{race, Either};
    const WAKEUP: Duration = Duration::from_micros(10);
    sim::Runtime::new().block_on(async {
        let p = setup_with(Profile::testbed(), QpOptions::default(), 64).await;
        let mr = p.nic_b.reg_mr(ShmBuf::zeroed(64), Access::all());
        for i in 0..2 {
            p.qp_b.post_recv(RecvWr { wr_id: i, buf: None }).unwrap();
        }
        let src = ShmBuf::zeroed(4);
        let t0 = sim::now();
        let at = move |us| t0 + Duration::from_micros(us);
        // Blocks in `wait` from `from_us` and gives up at `until_us`.
        let impatient = |from_us, until_us| {
            let cq = p.b_recv.clone();
            sim::spawn(async move {
                sim::time::sleep_until(at(from_us)).await;
                race(cq.wait(WAKEUP), sim::time::sleep_until(at(until_us))).await
            })
        };
        // Never gives up; busy for 40 µs with each completion it takes.
        let cq = p.b_recv.clone();
        let (first, second) = (impatient(0, 5), impatient(50, 70));
        let patient = sim::spawn(async move {
            let mut taken = Vec::new();
            while cq.wait(WAKEUP).await {
                taken.push((sim::now(), cq.poll().unwrap().imm.unwrap()));
                sim::time::sleep(Duration::from_micros(40)).await;
            }
            taken
        });

        // The first gives up before any push: it has left the list, and the
        // push arms the patient one behind it.
        assert_eq!(first.await.unwrap(), Either::Right(()));
        sim::time::sleep_until(at(6)).await;
        p.qp_a.post_send(write_imm(0, false, &src, mr.addr(), mr.rkey())).unwrap();
        // The second parks while the patient one is busy, so it is ahead of
        // it when the next push arms it — and gives up inside its wake-up,
        // with the completion still queued: the wake passes on, and the
        // patient one runs its own wake-up from that instant.
        sim::time::sleep_until(at(60)).await;
        p.qp_a.post_send(write_imm(1, false, &src, mr.addr(), mr.rkey())).unwrap();
        assert_eq!(second.await.unwrap(), Either::Right(()));
        sim::time::sleep_until(at(200)).await;
        p.b_recv.inject_overflow();

        let taken = patient.await.unwrap();
        assert_eq!(taken.iter().map(|t| t.1).collect::<Vec<_>>(), [0, 1]);
        assert!(at(16) < taken[0].0 && taken[0].0 < at(18), "armed by the push: {taken:?}");
        assert_eq!(taken[1].0, at(70 + 10), "armed by the one that gave up: {taken:?}");
    });
}

#[test]
fn poll_budget_two_polls_per_small_write() {
    // 10 000 × 64 B WriteImm, one signaled per 32, receiver re-posting every
    // consumed receive. The engine spends one poll per delivery and one per
    // signaled completion; the receiver one per CQE; the poster one per
    // window. The per-WR-task model needed 4.03 here.
    const N: u64 = 10_000;
    const WINDOW: u64 = 32;
    let rt = sim::Runtime::new();
    let p = rt.block_on(async {
        let p = setup_with(Profile::testbed(), QpOptions::default(), 1024).await;
        for i in 0..256 {
            p.qp_b.post_recv(RecvWr { wr_id: i, buf: None }).unwrap();
        }
        let (qp_b, b_recv) = (p.qp_b.clone(), p.b_recv.clone());
        sim::spawn(async move {
            while let Some(cqe) = b_recv.next().await {
                let _ = qp_b.post_recv(RecvWr { wr_id: cqe.wr_id, buf: None });
            }
        });
        p
    });
    let before = rt.poll_count();
    rt.block_on(async move {
        let mr = p.nic_b.reg_mr(ShmBuf::zeroed(4096), Access::all());
        let src = ShmBuf::zeroed(64);
        for i in 0..N {
            let signaled = (i + 1) % WINDOW == 0;
            p.qp_a
                .post_send(write_imm(i, signaled, &src, mr.addr() + (i % 64) * 64, mr.rkey()))
                .unwrap();
            if signaled {
                assert!(p.a_send.next().await.unwrap().ok());
            }
        }
    });
    let per_wr = (rt.poll_count() - before) as f64 / N as f64;
    assert!(per_wr <= 2.0 + 2.0 / WINDOW as f64 + 0.01, "{per_wr} polls per WR");
}
