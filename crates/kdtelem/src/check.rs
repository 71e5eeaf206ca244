//! Trace-invariant checker: happens-before properties of the paper's
//! datapaths, asserted over a drained trace-event log.
//!
//! Tests drain a registry's events after an end-to-end run and feed them
//! here; any violation is a broken causal edge in the simulation itself:
//!
//! 1. **Fetch-after-commit** — a consumer is never served a record before
//!    the commit of that record's offset (matched per stream key across
//!    lifelines, since a fetch is a different trace than its produce).
//! 2. **ReplAck-after-completion** — a push-replication ack observed by the
//!    leader never precedes the remote RDMA write's CQE on the same
//!    lifeline (§4.3: the leader learns of replication from the write
//!    completion, not from any follower message).
//! 3. **RC completion order** — CQEs on one QP are delivered in post
//!    (ticket) order, the reliable-connection guarantee the commit
//!    protocol leans on.
//! 4. **Span nesting** — every `SpanEnd` is at or after its `SpanBegin`.
//! 5. **Copy discipline** — every lifeline that committed via RDMA (it
//!    posted a WQE) moved zero bytes through a broker CPU copy, while every
//!    TCP produce lifeline paid exactly two (socket receive + log append),
//!    the copies Fig 2 attributes to classic Kafka.
//! 6. **Completion after post** — a successful CQE surfaces strictly after
//!    its WR was posted (the `WqePosted` of the same lifeline, QP and
//!    ticket): the request and its ack or response each cross the wire at
//!    least once. The NIC records `Completion` when it delivers the WR,
//!    stamped with the instant the CQE surfaces, so this is what pins that
//!    stamp to the right side of the post. A completion whose post is not in
//!    the log (drained earlier, or dropped by the ring) is not judged.
//! 7. **Commit order is post order** (§4.2.2: commits to a file follow
//!    their completions, which follow their posts) — among the lifelines
//!    that posted on one QP (last `WqePosted` there) and committed to one
//!    stream (first `Commit`), base offsets strictly increase with the
//!    ticket. Others are not judged; `order_pairs` counts the pairs that were.

use std::collections::HashMap;

use crate::trace::{EventKind, TraceEvent};

/// Result of a [`check`] run: corpus statistics plus human-readable
/// violation descriptions (empty = all invariants hold).
#[derive(Debug, Default, Clone)]
pub struct CheckReport {
    pub events: usize,
    pub traces: usize,
    pub commits: usize,
    pub fetches: usize,
    pub repl_acks: usize,
    /// Pairs of lifelines rule 7 compared.
    pub order_pairs: usize,
    pub violations: Vec<String>,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Broker-CPU copy events on one lifeline (sites prefixed `"broker"`).
pub fn broker_copies(events: &[TraceEvent], trace_id: u64) -> u64 {
    events
        .iter()
        .filter(|e| e.trace_id == trace_id)
        .filter(|e| matches!(e.kind, EventKind::CpuCopy { site, .. } if site.starts_with("broker")))
        .count() as u64
}

/// Trace ids that contain a `Commit` event (i.e. produce / replication
/// lifelines that reached the log).
pub fn commit_traces(events: &[TraceEvent]) -> Vec<u64> {
    let mut ids: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Commit { .. }))
        .map(|e| e.trace_id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn trace_has_wqe(events: &[TraceEvent], trace_id: u64) -> bool {
    events
        .iter()
        .any(|e| e.trace_id == trace_id && matches!(e.kind, EventKind::WqePosted { .. }))
}

/// Runs every invariant over a drained event log.
pub fn check(events: &[TraceEvent]) -> CheckReport {
    let mut report = CheckReport {
        events: events.len(),
        ..CheckReport::default()
    };
    let mut traces: Vec<u64> = events.iter().map(|e| e.trace_id).collect();
    traces.sort_unstable();
    traces.dedup();
    report.traces = traces.len();

    // Events sorted by timestamp (stable: record order breaks ties, and the
    // ring preserves record order).
    let mut by_ts: Vec<&TraceEvent> = events.iter().collect();
    by_ts.sort_by_key(|e| e.ts_ns);

    // (3) RC completion order per QP.
    let mut last_ticket: HashMap<u32, u64> = HashMap::new();
    for e in &by_ts {
        if let EventKind::Completion {
            qpn,
            ticket,
            ok: true,
            ..
        } = e.kind
        {
            if let Some(&prev) = last_ticket.get(&qpn) {
                if ticket <= prev {
                    report.violations.push(format!(
                        "completion order violated on qpn {qpn}: ticket {ticket} after {prev}"
                    ));
                }
            }
            last_ticket.insert(qpn, ticket);
        }
    }

    // (6) Completion after post, matched per lifeline, QP and ticket.
    let posted: HashMap<(u64, u32, u64), u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::WqePosted { qpn, ticket } => Some(((e.trace_id, qpn, ticket), e.ts_ns)),
            _ => None,
        })
        .collect();
    for e in &by_ts {
        if let EventKind::Completion {
            qpn,
            ticket,
            ok: true,
            ..
        } = e.kind
        {
            match posted.get(&(e.trace_id, qpn, ticket)) {
                Some(&at) if at >= e.ts_ns => report.violations.push(format!(
                    "completion of qpn {qpn} ticket {ticket} at {} ns does not follow its post at {at} ns",
                    e.ts_ns
                )),
                _ => {}
            }
        }
    }

    // (1) Fetch-after-commit, matched per stream across lifelines.
    let mut commits: HashMap<u64, Vec<(u64, u64, u64)>> = HashMap::new(); // stream -> (base, next, ts)
    for e in &by_ts {
        if let EventKind::Commit {
            stream,
            base_offset,
            next_offset,
        } = e.kind
        {
            report.commits += 1;
            commits
                .entry(stream)
                .or_default()
                .push((base_offset, next_offset, e.ts_ns));
        }
    }
    for e in &by_ts {
        if let EventKind::FetchServed {
            stream,
            start_offset,
            next_offset,
            ..
        } = e.kind
        {
            report.fetches += 1;
            if next_offset <= start_offset {
                continue; // empty fetch
            }
            // Walk the committed-by-then ranges; the fetched range must be
            // fully covered by commits at or before the serve time.
            let mut committed: Vec<(u64, u64)> = commits
                .get(&stream)
                .map(|v| {
                    v.iter()
                        .filter(|&&(_, _, ts)| ts <= e.ts_ns)
                        .map(|&(b, n, _)| (b, n))
                        .collect()
                })
                .unwrap_or_default();
            committed.sort_unstable();
            let mut cursor = start_offset;
            for (b, n) in committed {
                if b <= cursor && n > cursor {
                    cursor = n;
                }
                if cursor >= next_offset {
                    break;
                }
            }
            if cursor < next_offset {
                report.violations.push(format!(
                    "fetch served offsets [{start_offset},{next_offset}) of stream {stream:#x} at {} ns, but [{cursor},{next_offset}) was not yet committed",
                    e.ts_ns
                ));
            }
        }
    }

    // (2) ReplAck follows the remote RDMA write completion on its lifeline.
    for e in &by_ts {
        if let EventKind::ReplAck { offset, .. } = e.kind {
            report.repl_acks += 1;
            let completed = by_ts.iter().any(|c| {
                c.trace_id == e.trace_id
                    && c.ts_ns <= e.ts_ns
                    && matches!(
                        c.kind,
                        EventKind::Completion {
                            opcode: "RdmaWrite",
                            ok: true,
                            ..
                        }
                    )
            });
            if !completed {
                report.violations.push(format!(
                    "replication ack for offset {offset} at {} ns precedes its RDMA write completion (trace {})",
                    e.ts_ns, e.trace_id
                ));
            }
        }
    }

    // (7) Commit order is post order, per QP and stream.
    let mut last_post: HashMap<(u64, u32), u64> = HashMap::new(); // (trace, qpn) -> ticket
    let mut first_commits: HashMap<u64, Vec<(u64, u64)>> = HashMap::new(); // trace -> (stream, base)
    for e in &by_ts {
        match e.kind {
            EventKind::WqePosted { qpn, ticket } => {
                let last = last_post.entry((e.trace_id, qpn)).or_insert(ticket);
                *last = ticket.max(*last);
            }
            EventKind::Commit {
                stream,
                base_offset,
                ..
            } => {
                let firsts = first_commits.entry(e.trace_id).or_default();
                if firsts.iter().all(|&(s, _)| s != stream) {
                    firsts.push((stream, base_offset));
                }
            }
            _ => {}
        }
    }
    let mut judged: Vec<(u32, u64, u64, u64)> = Vec::new(); // (qpn, stream, ticket, base)
    for (&(trace, qpn), &ticket) in &last_post {
        for &(stream, base) in first_commits.get(&trace).into_iter().flatten() {
            judged.push((qpn, stream, ticket, base));
        }
    }
    judged.sort_unstable();
    for w in judged.windows(2) {
        let ((qpn, stream, t0, b0), (q1, s1, t1, b1)) = (w[0], w[1]);
        if (qpn, stream) == (q1, s1) {
            report.order_pairs += 1;
            if b1 <= b0 {
                report.violations.push(format!(
                    "commit order violated on qpn {qpn}, stream {stream:#x}: ticket {t1} committed at offset {b1}, after ticket {t0} at {b0}"
                ));
            }
        }
    }

    // (4) Span nesting sanity.
    let mut open: HashMap<u64, u64> = HashMap::new(); // span_id -> begin ts
    for e in &by_ts {
        match e.kind {
            EventKind::SpanBegin { .. } => {
                open.insert(e.span_id, e.ts_ns);
            }
            EventKind::SpanEnd { name } => {
                if let Some(begin) = open.remove(&e.span_id) {
                    if e.ts_ns < begin {
                        report.violations.push(format!(
                            "span {name} ends at {} before its begin {begin}",
                            e.ts_ns
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    // (5) Copy discipline per committing lifeline: RDMA (posted a WQE) must
    // be copy-free on the broker; TCP must pay exactly the two copies.
    // Lifelines with a commit but no datapath evidence (no WQE, copy, or
    // link hop) are unclassifiable and skipped.
    for trace_id in commit_traces(events) {
        let copies = broker_copies(events, trace_id);
        let tcp_evidence = copies > 0
            || events.iter().any(|e| {
                e.trace_id == trace_id && matches!(e.kind, EventKind::PacketEnqueued { .. })
            });
        if trace_has_wqe(events, trace_id) {
            if copies != 0 {
                report.violations.push(format!(
                    "RDMA lifeline {trace_id} moved bytes through {copies} broker CPU copies"
                ));
            }
        } else if tcp_evidence && copies != 2 {
            report.violations.push(format!(
                "TCP produce lifeline {trace_id} paid {copies} broker CPU copies, expected 2"
            ));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCtx;

    fn ev(ctx: TraceCtx, ts_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            ts_ns,
            kind,
        }
    }

    #[test]
    fn clean_rdma_lifeline_passes() {
        let p = TraceCtx::root();
        let f = TraceCtx::root();
        let events = vec![
            ev(p, 10, EventKind::WqePosted { qpn: 1, ticket: 0 }),
            ev(
                p,
                20,
                EventKind::Completion {
                    qpn: 1,
                    ticket: 0,
                    opcode: "RdmaWriteImm",
                    ok: true,
                },
            ),
            ev(
                p,
                30,
                EventKind::Commit {
                    stream: 9,
                    base_offset: 0,
                    next_offset: 1,
                },
            ),
            ev(
                f,
                40,
                EventKind::FetchServed {
                    stream: 9,
                    start_offset: 0,
                    next_offset: 1,
                    bytes: 64,
                },
            ),
        ];
        let r = check(&events);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!((r.commits, r.fetches), (1, 1));
    }

    #[test]
    fn fetch_before_commit_is_flagged() {
        let p = TraceCtx::root();
        let f = TraceCtx::root();
        let events = vec![
            ev(
                p,
                50,
                EventKind::Commit {
                    stream: 9,
                    base_offset: 0,
                    next_offset: 1,
                },
            ),
            ev(
                f,
                40,
                EventKind::FetchServed {
                    stream: 9,
                    start_offset: 0,
                    next_offset: 1,
                    bytes: 64,
                },
            ),
        ];
        let r = check(&events);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].contains("not yet committed"));
    }

    #[test]
    fn out_of_order_completions_are_flagged() {
        let c = TraceCtx::root();
        let events = vec![
            ev(
                c,
                10,
                EventKind::Completion {
                    qpn: 3,
                    ticket: 1,
                    opcode: "Send",
                    ok: true,
                },
            ),
            ev(
                c,
                20,
                EventKind::Completion {
                    qpn: 3,
                    ticket: 0,
                    opcode: "Send",
                    ok: true,
                },
            ),
            // A different QP may interleave freely.
            ev(
                c,
                15,
                EventKind::Completion {
                    qpn: 4,
                    ticket: 0,
                    opcode: "Send",
                    ok: true,
                },
            ),
        ];
        let r = check(&events);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].contains("qpn 3"));
    }

    #[test]
    fn a_completion_must_follow_its_post() {
        let (a, b) = (TraceCtx::root(), TraceCtx::root());
        let done = |ctx, ts_ns, qpn, ticket| {
            ev(
                ctx,
                ts_ns,
                EventKind::Completion {
                    qpn,
                    ticket,
                    opcode: "RdmaRead",
                    ok: true,
                },
            )
        };
        let events = vec![
            ev(a, 10, EventKind::WqePosted { qpn: 7, ticket: 0 }),
            done(a, 12, 7, 0),
            // Stamped at its post instant: too early.
            ev(a, 10, EventKind::WqePosted { qpn: 8, ticket: 0 }),
            done(a, 10, 8, 0),
            // Another lifeline's post of the same QP and ticket is not its own.
            ev(b, 30, EventKind::WqePosted { qpn: 7, ticket: 1 }),
            done(a, 20, 7, 1),
        ];
        let r = check(&events);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("qpn 8 ticket 0 at 10 ns"));
    }

    #[test]
    fn commits_follow_post_order_per_qp_and_stream() {
        let lifeline = |ts_ns, qpn, ticket, stream, base_offset| {
            let ctx = TraceCtx::root();
            [
                ev(ctx, ts_ns, EventKind::WqePosted { qpn, ticket }),
                ev(
                    ctx,
                    ts_ns + 50,
                    EventKind::Commit {
                        stream,
                        base_offset,
                        next_offset: base_offset + 1,
                    },
                ),
            ]
        };
        let mut events: Vec<TraceEvent> = [
            lifeline(10, 1, 0, 9, 0),
            lifeline(11, 1, 1, 9, 1),
            lifeline(12, 1, 2, 9, 2),
            // Another QP's tickets, and another stream, are judged apart.
            lifeline(13, 2, 0, 9, 3),
            lifeline(14, 1, 3, 8, 0),
        ]
        .concat();
        // Posted, never committed: not judged.
        events.push(ev(
            TraceCtx::root(),
            15,
            EventKind::WqePosted { qpn: 1, ticket: 4 },
        ));
        let r = check(&events);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.order_pairs, 2);
        // Ticket 5 commits below ticket 2's offset.
        events.extend(lifeline(16, 1, 5, 9, 1));
        let r = check(&events);
        assert_eq!(r.order_pairs, 3);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("ticket 5 committed at offset 1, after ticket 2 at 2"));
    }

    #[test]
    fn repl_ack_requires_prior_write_completion() {
        let t = TraceCtx::root();
        let bad = vec![ev(
            t,
            10,
            EventKind::ReplAck {
                stream: 9,
                offset: 5,
            },
        )];
        assert!(!check(&bad).ok());
        let good = vec![
            ev(
                t,
                5,
                EventKind::Completion {
                    qpn: 2,
                    ticket: 0,
                    opcode: "RdmaWrite",
                    ok: true,
                },
            ),
            ev(
                t,
                10,
                EventKind::ReplAck {
                    stream: 9,
                    offset: 5,
                },
            ),
        ];
        assert!(check(&good).ok());
    }

    #[test]
    fn copy_discipline_per_datapath() {
        // TCP lifeline: no WQE, exactly two broker copies — fine.
        let tcp = TraceCtx::root();
        let mut events = vec![
            ev(
                tcp,
                10,
                EventKind::CpuCopy {
                    site: "broker.net_to_user",
                    bytes: 64,
                },
            ),
            ev(
                tcp,
                11,
                EventKind::CpuCopy {
                    site: "broker.log_append",
                    bytes: 64,
                },
            ),
            ev(
                tcp,
                12,
                EventKind::Commit {
                    stream: 1,
                    base_offset: 0,
                    next_offset: 1,
                },
            ),
        ];
        assert!(check(&events).ok(), "{:?}", check(&events).violations);
        // An RDMA lifeline with a broker copy is a zero-copy violation.
        let rdma = TraceCtx::root();
        events.extend([
            ev(rdma, 20, EventKind::WqePosted { qpn: 1, ticket: 0 }),
            ev(
                rdma,
                25,
                EventKind::CpuCopy {
                    site: "broker.log_append",
                    bytes: 64,
                },
            ),
            ev(
                rdma,
                30,
                EventKind::Commit {
                    stream: 1,
                    base_offset: 1,
                    next_offset: 2,
                },
            ),
        ]);
        let r = check(&events);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].contains("RDMA lifeline"));
    }
}
