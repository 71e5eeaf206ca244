//! The instant a send CQE surfaces, as a property.
//!
//! Seeded sequences of signaled and unsignaled Write / Read / FAA / Send on
//! two QPs that share one send CQ are checked against a model of the
//! engine's rule. QP 1's Sends stall (RNR) until its peer posts receives at
//! [`RECVS_AT`]; QP 0's peer posts none, and QP 0 is closed at
//! [`CLOSE_AT`], which fails a stalled Send, or the WR in flight, and
//! flushes what is queued behind it. The rule: a CQE surfaces at
//! `max(delivery, t.comp, previous CQE of its QP)`, and the CQEs of one QP
//! come in post (ticket) order. Three consumers watch the CQ, one per run:
//!
//! * a `next()` task must be handed each CQE at its instant;
//! * a task blocked in `wait(WAKEUP)` must return `WAKEUP` after the first
//!   CQE it waits for, and drain exactly what has surfaced by then;
//! * a task that looks 1 ns before and 1 ns after every instant must find
//!   `len`, `poll` and `drain_into` showing exactly the CQEs whose instant
//!   has come — never one early.
//!
//! The profile has no bandwidth limit, no per-op gap and no atomic
//! serialisation, and an atomic executes for as long as a Read response
//! takes to leave: so responses leave in post order, no link ever queues,
//! and a WR's delivery and `t.comp` are sums of the constants below. What
//! varies is how posts, the stall and the close interleave, and that a Read
//! or FAA delivered before a Write on the other QP completes after it.
//! Instants are on a 50 ns grid; the close and every consumer's look fall
//! off it, so no check depends on the order of tasks within an instant.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use netsim::profile::Profile;
use netsim::Fabric;
use rnic::{
    Access, CompletionQueue, Cqe, QpOptions, QueuePair, RNic, RdmaListener, RecvWr, SendWr, ShmBuf,
    WorkRequest,
};
use sim::rng::SimRng;
use sim::SimTime;

const POST: u64 = 200;
const PROPAGATION: u64 = 1_000;
const COMPLETION: u64 = 500;
/// A Read's response overhead, and an atomic's execution time.
const RESPONSE: u64 = 700;

/// When QP 1's peer posts its receives, after the start of a case.
const RECVS_AT: u64 = 30_050;
/// When QP 0 is closed.
const CLOSE_AT: u64 = 45_025;
const WAKEUP: Duration = Duration::from_nanos(330);
const WRS: usize = 40;
const CASES: u64 = 40;

fn profile() -> Profile {
    let mut p = Profile::fast_test();
    let ns = Duration::from_nanos;
    p.net.rdma_post_overhead = ns(POST);
    p.net.propagation = ns(PROPAGATION);
    p.net.rdma_completion_overhead = ns(COMPLETION);
    p.net.read_response_overhead = ns(RESPONSE);
    p.net.atomic_exec = ns(RESPONSE);
    p
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Write,
    Read,
    Faa,
    Send,
}

#[derive(Clone, Copy, Debug)]
struct Wr {
    qp: usize,
    kind: Kind,
    signaled: bool,
    /// Post instant, after the start of the case.
    at: u64,
}

impl Wr {
    /// When the remote effect applies, if nothing holds the WR up.
    fn deliver(&self, start: u64) -> u64 {
        let arrival = start + self.at + POST + PROPAGATION;
        arrival + if self.kind == Kind::Faa { RESPONSE } else { 0 }
    }

    /// When the initiator's completion is visible: the hardware ack, or the
    /// response, back across the wire.
    fn comp(&self, start: u64) -> u64 {
        let response = matches!(self.kind, Kind::Read | Kind::Faa) as u64 * RESPONSE;
        start + self.at + POST + PROPAGATION + response + PROPAGATION + COMPLETION
    }
}

fn plan(seed: u64) -> Vec<Wr> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut at: Vec<u64> = (0..WRS).map(|_| rng.below(600) * 100).collect();
    at.sort_unstable();
    at.into_iter()
        .map(|at| Wr {
            qp: rng.below(2) as usize,
            // Sends are rare: the first on a QP holds up everything behind it.
            kind: match rng.below(10) {
                0..=2 => Kind::Write,
                3..=5 => Kind::Read,
                6..=8 => Kind::Faa,
                _ => Kind::Send,
            },
            signaled: rng.random_bool(0.6),
            at,
        })
        .collect()
}

/// One CQE: `(qp, wr_id, ok, instant)`.
type Seen = (usize, u64, bool, u64);

/// The model: every CQE the plan owes, with the instant it surfaces.
fn expected(plan: &[Wr], start: u64) -> Vec<Seen> {
    let (recvs, close) = (start + RECVS_AT, start + CLOSE_AT);
    let mut out = Vec::new();
    for qp in 0..2 {
        let (mut delivered, mut last_cqe) = (0, 0);
        // The instant the WR in flight at the close failed.
        let mut flushed = None;
        for (id, wr) in plan.iter().enumerate() {
            if wr.qp != qp || (qp == 0 && start + wr.at > close) {
                continue; // another QP's, or refused: posted after the close
            }
            let id = id as u64;
            if let Some(failed) = flushed {
                // Never launched: flushes right behind the failed one.
                last_cqe = last_cqe.max(failed);
                out.push((qp, id, false, last_cqe));
                continue;
            }
            // Head of line: no earlier than its predecessor; a Send no
            // earlier than the receives it needs (on QP 0, the close).
            delivered = wr.deliver(start).max(delivered);
            if wr.kind == Kind::Send {
                delivered = delivered.max([close, recvs][qp]);
            }
            let failed = qp == 0 && delivered >= close;
            if failed || wr.signaled {
                last_cqe = delivered.max(wr.comp(start)).max(last_cqe);
                out.push((qp, id, !failed, last_cqe));
            }
            if failed {
                flushed = Some(delivered);
            }
        }
    }
    out.sort_by_key(|&(qp, id, _, at)| (at, qp, id));
    out
}

#[derive(Clone, Copy, Debug)]
enum Consumer {
    Next,
    Wait,
    Look,
}

struct Case {
    cq: CompletionQueue,
    qpns: [u32; 2],
    log: RefCell<Vec<Seen>>,
}

impl Case {
    /// Logs `cqe` as seen at `at`.
    fn log(&self, cqe: &Cqe, at: u64) {
        let qp = self
            .qpns
            .iter()
            .position(|&q| q == cqe.qpn)
            .expect("one of the two QPs");
        self.log.borrow_mut().push((qp, cqe.wr_id, cqe.ok(), at));
    }
}

/// Runs `plan` with `consumer` watching the shared send CQ; returns what it
/// saw and the start instant. `Look` checks visibility as it goes, against
/// `expected`.
fn run(plan: Vec<Wr>, consumer: Consumer) -> (Vec<Seen>, u64) {
    sim::Runtime::new().block_on(async move {
        let f = Fabric::new(profile());
        let (na, nb) = (f.add_node("a"), f.add_node("b"));
        let (nic_a, nic_b) = (RNic::new(&na), RNic::new(&nb));
        let mut listener = RdmaListener::bind(&nic_b, 1);
        let nic_b2 = nic_b.clone();
        let accept = sim::spawn(async move {
            let mut peers = Vec::new();
            for _ in 0..2 {
                let inc = listener.accept().await.unwrap();
                let cqs = (nic_b2.create_cq(64), nic_b2.create_cq(64));
                peers.push(inc.accept(&nic_b2, cqs.0, cqs.1, QpOptions::default()));
            }
            peers
        });
        let cq = nic_a.create_cq(256);
        let mut qps: Vec<QueuePair> = Vec::new();
        for _ in 0..2 {
            let recv_cq = nic_a.create_cq(64);
            let qp = nic_a.connect(nb.id, 1, cq.clone(), recv_cq, QpOptions::default());
            qps.push(qp.await.unwrap());
        }
        let peers = accept.await.unwrap();
        let mr = nic_b.reg_mr(ShmBuf::zeroed(4096), Access::all());
        let start = (sim::now().as_nanos() / 1_000 + 1) * 1_000;
        let case = Rc::new(Case {
            cq,
            qpns: [qps[0].qpn(), qps[1].qpn()],
            log: RefCell::new(Vec::new()),
        });
        let until = move |t: u64| sim::time::sleep_until(SimTime::from_nanos(start + t));

        let c = Rc::clone(&case);
        match consumer {
            Consumer::Next => sim::spawn_detached(async move {
                while let Some(cqe) = c.cq.next().await {
                    c.log(&cqe, sim::now().as_nanos());
                }
            }),
            Consumer::Wait => sim::spawn_detached(async move {
                let mut batch = Vec::new();
                while c.cq.wait(WAKEUP).await {
                    c.cq.drain_into(&mut batch, usize::MAX);
                    let now = sim::now().as_nanos();
                    batch.drain(..).for_each(|cqe| c.log(&cqe, now));
                }
            }),
            Consumer::Look => {
                let want = expected(&plan, start);
                sim::spawn_detached(async move {
                    let mut instants: Vec<u64> = want.iter().map(|w| w.3).collect();
                    instants.dedup();
                    for (i, at) in instants.into_iter().enumerate() {
                        let due = |t: u64| want.iter().filter(|w| w.3 <= t).count();
                        let taken = c.log.borrow().len();
                        sim::time::sleep_until(SimTime::from_nanos(at - 1)).await;
                        assert_eq!(c.cq.len(), due(at - 1) - taken, "1 ns before {at}");
                        assert!(c.cq.is_empty() && c.cq.poll().is_none(), "1 ns before {at}");
                        sim::time::sleep_until(SimTime::from_nanos(at + 1)).await;
                        assert_eq!(c.cq.len(), due(at + 1) - taken, "1 ns after {at}");
                        // Alternately one by one and in pairs; each surfaced
                        // in (at - 1, at + 1], so at `at`.
                        let mut batch = Vec::new();
                        loop {
                            if i % 2 == 0 {
                                let Some(cqe) = c.cq.poll() else { break };
                                c.log(&cqe, at);
                            } else if c.cq.drain_into(&mut batch, 2) == 0 {
                                break;
                            }
                            batch.drain(..).for_each(|cqe| c.log(&cqe, at));
                        }
                        assert!(c.cq.is_empty());
                    }
                });
            }
        }

        let peer = peers[1].clone();
        sim::spawn_detached(async move {
            until(RECVS_AT).await;
            for i in 0..WRS as u64 {
                let buf = Some(ShmBuf::zeroed(8).as_slice());
                peer.post_recv(RecvWr { wr_id: i, buf }).unwrap();
            }
        });
        let qp0 = qps[0].clone();
        sim::spawn_detached(async move {
            until(CLOSE_AT).await;
            qp0.close();
        });
        let local = ShmBuf::zeroed(8);
        for (id, w) in plan.iter().enumerate() {
            until(w.at).await;
            let (local, remote_addr, rkey) = (local.as_slice(), mr.addr(), mr.rkey());
            let op = match w.kind {
                Kind::Write => WorkRequest::Write {
                    local,
                    remote_addr,
                    rkey,
                },
                Kind::Read => WorkRequest::Read {
                    local,
                    remote_addr,
                    rkey,
                },
                Kind::Faa => WorkRequest::FetchAdd {
                    local,
                    remote_addr,
                    rkey,
                    add: 1,
                },
                Kind::Send => WorkRequest::Send { local },
            };
            let wr = SendWr {
                wr_id: id as u64,
                op,
                signaled: w.signaled,
                trace: None,
            };
            let refused = w.qp == 0 && w.at > CLOSE_AT;
            assert_eq!(qps[w.qp].post_send(wr).is_err(), refused, "WR {id}");
        }
        until(120_000).await;
        let log = case.log.borrow().clone();
        (log, start)
    })
}

/// The CQEs of each instant as a set (ties across the two QPs come in
/// hand-over order), after checking that each QP's come in ticket order.
fn by_instant(seen: &[Seen]) -> Vec<Seen> {
    for qp in 0..2 {
        let ids: Vec<u64> = seen.iter().filter(|s| s.0 == qp).map(|s| s.1).collect();
        assert!(
            ids.is_sorted(),
            "QP {qp}'s CQEs out of ticket order: {ids:?}"
        );
    }
    let mut sorted = seen.to_vec();
    sorted.sort_by_key(|&(qp, id, _, at)| (at, qp, id));
    assert_eq!(
        seen.iter().map(|s| s.3).collect::<Vec<_>>(),
        sorted.iter().map(|s| s.3).collect::<Vec<_>>(),
        "CQEs handed out of instant order"
    );
    sorted
}

/// What a `wait(WAKEUP)` consumer that drains everything on each return
/// sees: each batch `WAKEUP` after the first CQE it waits for.
fn batched(want: &[Seen]) -> Vec<Seen> {
    let mut out: Vec<Seen> = Vec::new();
    let mut woke = 0;
    for &(qp, id, ok, at) in want {
        if at > woke {
            woke = at + WAKEUP.as_nanos() as u64;
        }
        out.push((qp, id, ok, woke));
    }
    out.sort_by_key(|&(qp, id, _, at)| (at, qp, id));
    out
}

#[test]
fn send_cqes_surface_at_their_instant() {
    let mut stalled = 0;
    let mut flushed = 0;
    for case in 0..CASES {
        let seed = 0xC0E0_0000 ^ case;
        for consumer in [Consumer::Next, Consumer::Wait, Consumer::Look] {
            let (seen, start) = run(plan(seed), consumer);
            let want = expected(&plan(seed), start);
            let seen = by_instant(&seen);
            let want = match consumer {
                Consumer::Wait => batched(&want),
                Consumer::Next | Consumer::Look => want,
            };
            assert_eq!(seen, want, "seed {seed:#x}, {consumer:?} consumer");
        }
        let plan = plan(seed);
        let stalls = plan
            .iter()
            .filter(|w| w.qp == 1 && w.kind == Kind::Send && w.at < RECVS_AT);
        stalled += stalls.count();
        let want = expected(&plan, 0);
        flushed += want.iter().filter(|w| !w.2).count();
    }
    // The cases exercise what they are meant to.
    assert!(stalled >= CASES as usize / 2, "{stalled} RNR-stalled Sends");
    assert!(flushed >= CASES as usize, "{flushed} flushed WRs");
}

/// A consumer's `(instant, CQEs drained)` per return, and its polls.
type Returns = (Vec<(u64, usize)>, u32);

/// Two consumers blocked in `wait(W)` on one send CQ. Writes posted at 0
/// and 300 ns surface at 2 700 and 3 000: `a` is armed for the first, due at
/// 3 700, `b` for the second, due at 4 000. `a` wakes first and drains both.
/// So `b` would wake to an empty queue: it is not polled at all. With a
/// third write posted at `third`, its CQE surfaces by `b`'s old due instant,
/// so `b` wakes then and takes it, exactly as if nothing had been taken back;
/// `a`, parked again and armed for that CQE, is then not polled either.
fn two_consumers(third: Option<u64>) -> [Returns; 2] {
    consumers(Duration::from_nanos(1_000), [0, 300], third)
}

/// As [`two_consumers`], blocked in `wait(w)`, with the first two writes
/// posted at `posts`.
fn consumers(w: Duration, posts: [u64; 2], third: Option<u64>) -> [Returns; 2] {
    sim::Runtime::new().block_on(async move {
        let f = Fabric::new(profile());
        let (na, nb) = (f.add_node("a"), f.add_node("b"));
        let (nic_a, nic_b) = (RNic::new(&na), RNic::new(&nb));
        let mut listener = RdmaListener::bind(&nic_b, 1);
        let nic_b2 = nic_b.clone();
        let accept = sim::spawn(async move {
            let inc = listener.accept().await.unwrap();
            let cqs = (nic_b2.create_cq(64), nic_b2.create_cq(64));
            inc.accept(&nic_b2, cqs.0, cqs.1, QpOptions::default())
        });
        let cq = nic_a.create_cq(64);
        let qp = nic_a
            .connect(
                nb.id,
                1,
                cq.clone(),
                nic_a.create_cq(64),
                QpOptions::default(),
            )
            .await
            .unwrap();
        let _peer = accept.await.unwrap();
        let mr = nic_b.reg_mr(ShmBuf::zeroed(64), Access::all());
        let start = (sim::now().as_nanos() / 1_000 + 1) * 1_000;
        let seen: [Rc<RefCell<Returns>>; 2] = Default::default();
        for consumer in &seen {
            let (cq, consumer) = (cq.clone(), Rc::clone(consumer));
            sim::spawn_detached(async move {
                let mut batch = Vec::new();
                loop {
                    let mut wait = std::pin::pin!(cq.wait(w));
                    let alive = std::future::poll_fn(|cx| {
                        consumer.borrow_mut().1 += 1;
                        wait.as_mut().poll(cx)
                    })
                    .await;
                    if !alive {
                        return;
                    }
                    let n = cq.drain_into(&mut batch, usize::MAX);
                    consumer
                        .borrow_mut()
                        .0
                        .push((sim::now().as_nanos() - start, n));
                }
            });
        }
        let local = ShmBuf::zeroed(8);
        for (id, at) in [Some(posts[0]), Some(posts[1]), third]
            .into_iter()
            .flatten()
            .enumerate()
        {
            sim::time::sleep_until(SimTime::from_nanos(start + at)).await;
            let op = WorkRequest::Write {
                local: local.as_slice(),
                remote_addr: mr.addr(),
                rkey: mr.rkey(),
            };
            let wr = SendWr {
                wr_id: id as u64,
                op,
                signaled: true,
                trace: None,
            };
            qp.post_send(wr).unwrap();
        }
        sim::time::sleep_until(SimTime::from_nanos(start + 20_000)).await;
        seen.map(|s| s.take())
    })
}

#[test]
fn a_consumer_whose_cqe_another_took_is_not_woken() {
    // `a`: parked, woken at 3 700 (both CQEs), parked again: three polls.
    // `b`: parked, one.
    let [a, b] = two_consumers(None);
    assert_eq!(a, (vec![(3_700, 2)], 3));
    assert_eq!(b, (vec![], 1), "b is not polled for the CQE a took");
    // The third CQE surfaces at 3 800, by b's due instant: b wakes at 4 000,
    // as it would have, takes it and parks again; a, armed for it since its
    // re-park at 3 700, is not polled for it.
    let [a, b] = two_consumers(Some(1_100));
    assert_eq!(
        a,
        (vec![(3_700, 2)], 3),
        "a is not polled for the CQE b took"
    );
    assert_eq!(b, (vec![(4_000, 1)], 3));
}

#[test]
fn a_cqe_handed_over_after_another_took_wakes_the_consumer_where_it_would_have() {
    // Blocked in `wait(2 000)`: writes posted at 0 and 1 800 surface at
    // 2 700 and 4 500; `a` is armed for the first, due at 4 700, `b` for the
    // second, due at 6 500. `a` wakes and drains both. A third write posted
    // at 3 600 is handed over at 4 800, after that take, and surfaces at
    // 6 300, by `b`'s due instant: `b` wakes at 6 500, where it would have,
    // and takes it; `a`, armed for it at the hand-over, is not polled.
    let [a, b] = consumers(Duration::from_nanos(2_000), [0, 1_800], Some(3_600));
    assert_eq!(a, (vec![(4_700, 2)], 3));
    assert_eq!(b, (vec![(6_500, 1)], 3));
}
