//! Generative tests of the verbs model: arbitrary interleavings of one-sided
//! operations must behave like sequentially-consistent memory operations in
//! post order (the RC guarantee the produce protocol builds on).
//!
//! Cases are generated by a seeded in-tree RNG (`sim::rng::SimRng`) in a
//! fixed-count loop, so failures reproduce exactly from the printed seed.

use netsim::profile::Profile;
use netsim::Fabric;
use rnic::{Access, QpOptions, RNic, RdmaListener, SendWr, ShmBuf, WorkRequest};
use sim::rng::SimRng;

/// One random remote memory operation.
#[derive(Debug, Clone)]
enum Op {
    Write { offset: usize, len: usize, fill: u8 },
    Read { offset: usize, len: usize },
    Faa { word: usize, add: u64 },
}

fn arb_op(rng: &mut SimRng) -> Op {
    match rng.below(3) {
        0 => Op::Write {
            offset: rng.random_range(0usize..960),
            len: rng.random_range(1usize..64),
            fill: rng.random_range(0u8..=255),
        },
        1 => Op::Read {
            offset: rng.random_range(0usize..960),
            len: rng.random_range(1usize..64),
        },
        _ => Op::Faa {
            word: rng.random_range(0usize..4) * 8,
            add: rng.random_range(1u64..1000),
        },
    }
}

/// Replaying the same ops against a plain byte array (the sequential model)
/// yields identical final memory and identical read results.
#[test]
fn one_sided_ops_match_sequential_model() {
    for case in 0..24u64 {
        let mut rng = SimRng::seed_from_u64(0x5EED_0001 ^ case);
        let n = rng.random_range(1usize..60);
        let ops: Vec<Op> = (0..n).map(|_| arb_op(&mut rng)).collect();
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let f = Fabric::new(Profile::testbed());
            let a = f.add_node("a");
            let bnode = f.add_node("b");
            let nic_a = RNic::new(&a);
            let nic_b = RNic::new(&bnode);
            let mut listener = RdmaListener::bind(&nic_b, 1);
            let b_send = nic_b.create_cq(1024);
            let b_recv = nic_b.create_cq(1024);
            let nic_b2 = nic_b.clone();
            let accept = sim::spawn(async move {
                let inc = listener.accept().await.unwrap();
                inc.accept(&nic_b2, b_send, b_recv, QpOptions::default())
            });
            let send_cq = nic_a.create_cq(1024);
            let recv_cq = nic_a.create_cq(64);
            let qp = nic_a
                .connect(bnode.id, 1, send_cq.clone(), recv_cq, QpOptions::default())
                .await
                .unwrap();
            let _qp_b = accept.await.unwrap();

            let remote = ShmBuf::zeroed(1024);
            let mr = nic_b.reg_mr(remote.clone(), Access::all());
            // Sequential reference model.
            let mut model = vec![0u8; 1024];
            let mut model_reads: Vec<Vec<u8>> = Vec::new();
            let mut model_faas: Vec<u64> = Vec::new();

            let read_dst = ShmBuf::zeroed(64);
            let faa_dst = ShmBuf::zeroed(8);
            let mut sim_reads = Vec::new();
            let mut sim_faas = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Write { offset, len, fill } => {
                        let src = ShmBuf::from_vec(vec![*fill; *len]);
                        qp.post_send(SendWr::new(
                            i as u64,
                            WorkRequest::Write {
                                local: src.as_slice(),
                                remote_addr: mr.addr() + *offset as u64,
                                rkey: mr.rkey(),
                            },
                        ))
                        .unwrap();
                        assert!(send_cq.next().await.unwrap().ok());
                        model[*offset..*offset + *len].fill(*fill);
                    }
                    Op::Read { offset, len } => {
                        qp.post_send(SendWr::new(
                            i as u64,
                            WorkRequest::Read {
                                local: read_dst.slice(0, *len),
                                remote_addr: mr.addr() + *offset as u64,
                                rkey: mr.rkey(),
                            },
                        ))
                        .unwrap();
                        assert!(send_cq.next().await.unwrap().ok());
                        sim_reads.push(read_dst.read_at(0, *len));
                        model_reads.push(model[*offset..*offset + *len].to_vec());
                    }
                    Op::Faa { word, add } => {
                        qp.post_send(SendWr::new(
                            i as u64,
                            WorkRequest::FetchAdd {
                                local: faa_dst.as_slice(),
                                remote_addr: mr.addr() + *word as u64,
                                rkey: mr.rkey(),
                                add: *add,
                            },
                        ))
                        .unwrap();
                        let cqe = send_cq.next().await.unwrap();
                        assert!(cqe.ok());
                        sim_faas.push(cqe.atomic_old.unwrap());
                        let old = u64::from_le_bytes(model[*word..*word + 8].try_into().unwrap());
                        model_faas.push(old);
                        model[*word..*word + 8]
                            .copy_from_slice(&old.wrapping_add(*add).to_le_bytes());
                    }
                }
            }
            assert_eq!(
                remote.read_at(0, 1024),
                model,
                "case {case}: final memory differs"
            );
            assert_eq!(sim_reads, model_reads, "case {case}: read results differ");
            assert_eq!(
                sim_faas, model_faas,
                "case {case}: atomic old values differ"
            );
        });
    }
}

/// Pipelined (unsignaled) writes still apply in post order: the last write to
/// each location wins.
#[test]
fn pipelined_writes_apply_in_post_order() {
    for case in 0..24u64 {
        let mut rng = SimRng::seed_from_u64(0x5EED_0002 ^ case);
        let n = rng.random_range(2usize..40);
        let writes: Vec<(usize, usize, u8)> = (0..n)
            .map(|_| {
                (
                    rng.random_range(0usize..240),
                    rng.random_range(1usize..16),
                    rng.random_range(0u8..=255),
                )
            })
            .collect();
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let f = Fabric::new(Profile::testbed());
            let a = f.add_node("a");
            let bnode = f.add_node("b");
            let nic_a = RNic::new(&a);
            let nic_b = RNic::new(&bnode);
            let mut listener = RdmaListener::bind(&nic_b, 1);
            let b_send = nic_b.create_cq(64);
            let b_recv = nic_b.create_cq(64);
            let nic_b2 = nic_b.clone();
            let accept = sim::spawn(async move {
                let inc = listener.accept().await.unwrap();
                inc.accept(&nic_b2, b_send, b_recv, QpOptions::default())
            });
            let send_cq = nic_a.create_cq(4096);
            let recv_cq = nic_a.create_cq(64);
            let qp = nic_a
                .connect(bnode.id, 1, send_cq.clone(), recv_cq, QpOptions::default())
                .await
                .unwrap();
            let _qp_b = accept.await.unwrap();
            let remote = ShmBuf::zeroed(256);
            let mr = nic_b.reg_mr(remote.clone(), Access::all());
            let mut model = vec![0u8; 256];
            let last = writes.len() - 1;
            for (i, (offset, len, fill)) in writes.iter().enumerate() {
                let src = ShmBuf::from_vec(vec![*fill; *len]);
                qp.post_send(SendWr {
                    wr_id: i as u64,
                    op: WorkRequest::Write {
                        local: src.as_slice(),
                        remote_addr: mr.addr() + *offset as u64,
                        rkey: mr.rkey(),
                    },
                    signaled: i == last,
                    trace: None,
                })
                .unwrap();
                model[*offset..*offset + *len].fill(*fill);
            }
            assert!(send_cq.next().await.unwrap().ok());
            assert_eq!(remote.read_at(0, 256), model, "case {case}");
        });
    }
}

/// What one run of a WR batch leaves behind: final remote memory, read and
/// atomic results, and every send/receive CQE with the virtual time it
/// became visible.
#[derive(Debug, PartialEq)]
struct BatchOutcome {
    memory: Vec<u8>,
    locals: Vec<u8>,
    send_cqes: Vec<(u64, rnic::CqStatus, rnic::CqOpcode, Option<u64>, u64)>,
    recv_cqes: Vec<(u64, Option<u32>, u32, u64)>,
}

/// Posts `ops` (each with its `signaled` flag) either as one list or as
/// singles, all in one instant, under the testbed profile with the doorbell
/// term zeroed.
fn run_batch(ops: Vec<(Op, bool)>, as_list: bool) -> BatchOutcome {
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let mut profile = Profile::testbed();
        profile.net.doorbell_overhead = std::time::Duration::ZERO;
        let f = Fabric::new(profile);
        let a = f.add_node("a");
        let bnode = f.add_node("b");
        let nic_a = RNic::new(&a);
        let nic_b = RNic::new(&bnode);
        let mut listener = RdmaListener::bind(&nic_b, 1);
        let b_send = nic_b.create_cq(64);
        let b_recv = nic_b.create_cq(1024);
        let (nic_b2, b_recv2) = (nic_b.clone(), b_recv.clone());
        let accept = sim::spawn(async move {
            let inc = listener.accept().await.unwrap();
            inc.accept(&nic_b2, b_send, b_recv2, QpOptions::default())
        });
        let send_cq = nic_a.create_cq(1024);
        let recv_cq = nic_a.create_cq(64);
        let qp = nic_a
            .connect(bnode.id, 1, send_cq.clone(), recv_cq, QpOptions::default())
            .await
            .unwrap();
        let qp_b = accept.await.unwrap();
        for i in 0..ops.len() as u64 {
            qp_b.post_recv(rnic::RecvWr {
                wr_id: i,
                buf: None,
            })
            .unwrap();
        }
        let remote = ShmBuf::zeroed(1024);
        let mr = nic_b.reg_mr(remote.clone(), Access::all());
        // Every op gets its own 64-byte result area.
        let locals = ShmBuf::zeroed(64 * ops.len());

        let send_log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let recv_log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let (cq, log) = (send_cq.clone(), send_log.clone());
        sim::spawn(async move {
            while let Some(c) = cq.next().await {
                log.borrow_mut().push((
                    c.wr_id,
                    c.status,
                    c.opcode,
                    c.atomic_old,
                    sim::now().as_nanos(),
                ));
            }
        });
        let (cq, log) = (b_recv.clone(), recv_log.clone());
        sim::spawn(async move {
            while let Some(c) = cq.next().await {
                log.borrow_mut()
                    .push((c.wr_id, c.imm, c.byte_len, sim::now().as_nanos()));
            }
        });

        let wrs: Vec<SendWr> = ops
            .iter()
            .enumerate()
            .map(|(i, (op, signaled))| {
                let op = match op {
                    // Writes alternate with WriteImm so receive consumption
                    // and receive CQEs are compared too.
                    Op::Write { offset, len, fill } if i % 2 == 0 => WorkRequest::WriteImm {
                        local: ShmBuf::from_vec(vec![*fill; *len]).as_slice(),
                        remote_addr: mr.addr() + *offset as u64,
                        rkey: mr.rkey(),
                        imm: i as u32,
                    },
                    Op::Write { offset, len, fill } => WorkRequest::Write {
                        local: ShmBuf::from_vec(vec![*fill; *len]).as_slice(),
                        remote_addr: mr.addr() + *offset as u64,
                        rkey: mr.rkey(),
                    },
                    Op::Read { offset, len } => WorkRequest::Read {
                        local: locals.slice(i * 64, *len),
                        remote_addr: mr.addr() + *offset as u64,
                        rkey: mr.rkey(),
                    },
                    Op::Faa { word, add } => WorkRequest::FetchAdd {
                        local: locals.slice(i * 64, 8),
                        remote_addr: mr.addr() + *word as u64,
                        rkey: mr.rkey(),
                        add: *add,
                    },
                };
                SendWr {
                    wr_id: i as u64,
                    op,
                    signaled: *signaled,
                    trace: None,
                }
            })
            .collect();
        if as_list {
            qp.post_send_list(wrs).unwrap();
        } else {
            for wr in wrs {
                qp.post_send(wr).unwrap();
            }
        }
        sim::time::sleep(std::time::Duration::from_millis(1)).await;
        let outcome = BatchOutcome {
            memory: remote.read_at(0, 1024),
            locals: locals.read_at(0, 64 * ops.len()),
            send_cqes: send_log.borrow().clone(),
            recv_cqes: recv_log.borrow().clone(),
        };
        outcome
    })
}

/// N singles and one N-list of the same WRs are the same thing once the
/// doorbell term is out: identical remote memory, identical results,
/// identical CQE sequences at identical virtual times.
#[test]
fn list_equals_singles_without_the_doorbell_term() {
    let mut notifications = 0;
    for case in 0..24u64 {
        let mut rng = SimRng::seed_from_u64(0x5EED_0003 ^ case);
        let n = rng.random_range(1usize..40);
        let ops: Vec<(Op, bool)> = (0..n)
            .map(|_| (arb_op(&mut rng), rng.random_bool(0.3)))
            .collect();
        let singles = run_batch(ops.clone(), false);
        let list = run_batch(ops, true);
        assert_eq!(singles, list, "case {case}");
        notifications += list.recv_cqes.len();
    }
    assert!(notifications > 50, "the receive path was barely exercised");
}
