//! Causal traces: per-record lifelines across client, broker, replica, and
//! consumer.
//!
//! Every claim in the paper is a statement about the critical path of *one*
//! record — which WQE it posted, which link hops it queued on, which CQ
//! completion committed it. Flat histograms cannot show that, so the
//! registry also records **trace events**: typed, timestamped points tagged
//! with a [`TraceCtx`] (`trace_id` + `span_id`) that is propagated across
//! simulated process boundaries — inside `kdwire` frame headers on the TCP
//! path, and as WR context copied into both CQEs on the verbs path.
//!
//! Timestamps are explicit (`ts_ns`) rather than sampled at record time:
//! the network simulator computes link reservations *in the future* at post
//! time, and the event must carry the time the hop actually happens.
//!
//! The ambient context ([`current_ctx`] / [`enter_ctx`]) is only valid
//! across *synchronous* code: the simulator is cooperatively scheduled, so
//! holding it across an `.await` would leak the context into unrelated
//! tasks. Instrumented components either take the context as an argument or
//! set the ambient slot around a purely synchronous call (e.g. a QP's
//! launch-time path reservations).

use std::cell::Cell;

/// Identity of one point in a causal trace: the trace (lifeline) it belongs
/// to and the span that emitted it. `span_id` doubles as the parent id for
/// child spans. Ids are never zero, so zero is free as a wire sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    pub trace_id: u64,
    pub span_id: u64,
}

impl TraceCtx {
    /// Allocates a fresh root context (a new lifeline).
    pub fn root() -> TraceCtx {
        let id = next_id();
        TraceCtx {
            trace_id: id,
            span_id: id,
        }
    }
}

/// A typed point on a record's lifeline. Variants mirror the datapath
/// stages the paper's figures break latency into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened. `parent` is the opener's span id (0 for roots).
    SpanBegin { name: &'static str, parent: u64 },
    /// A span closed.
    SpanEnd { name: &'static str },
    /// A work request entered a QP's send queue. `ticket` is the post-order
    /// sequence number on that QP.
    WqePosted { qpn: u32, ticket: u64 },
    /// A message started serialising onto a node's link. `queue_ns` is how
    /// long it waited behind earlier reservations (queueing delay).
    PacketEnqueued {
        node: u32,
        egress: bool,
        bytes: u64,
        queue_ns: u64,
    },
    /// A message finished crossing a node's link.
    PacketDelivered { node: u32, egress: bool, bytes: u64 },
    /// A CQE was delivered for the WR posted as (`qpn`, `ticket`).
    Completion {
        qpn: u32,
        ticket: u64,
        opcode: &'static str,
        ok: bool,
    },
    /// The broker (or client) CPU copied payload bytes. `site` names the
    /// copy; broker-side sites are prefixed `"broker."`.
    CpuCopy { site: &'static str, bytes: u64 },
    /// Records `[base_offset, next_offset)` of `stream` became durable.
    Commit {
        stream: u64,
        base_offset: u64,
        next_offset: u64,
    },
    /// The leader observed the remote write completion for a push-replicated
    /// span up to `offset` (cumulative).
    ReplAck { stream: u64, offset: u64 },
    /// A consumer was served records `[start_offset, next_offset)`.
    FetchServed {
        stream: u64,
        start_offset: u64,
        next_offset: u64,
        bytes: u64,
    },
}

/// How an event shows in a Chrome trace: a span's begin or end, or an
/// instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Begin,
    End,
    Instant,
}

/// One payload field of an event, as the digest folds it and the Chrome
/// export writes it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Field {
    Num(u64),
    Flag(bool),
    Text(&'static str),
    /// A parent span id: canonicalised by the digest like the event's own.
    Parent(u64),
}

/// One row of [`EventKind`]'s variant table: digest tag, name (the span's,
/// for spans), phase, and payload fields in digest and export order.
pub(crate) type Row<'a> = (u64, &'static str, Phase, &'a [(&'static str, Field)]);

impl EventKind {
    /// Hands `f` this kind's row of the one table of variants.
    pub(crate) fn with_row<R>(&self, f: impl FnOnce(Row<'_>) -> R) -> R {
        use EventKind::*;
        use Field::{Flag, Num, Parent, Text};
        use Phase::{Begin, End, Instant};
        let row: Row<'_> = match *self {
            SpanBegin { name, parent } => (1, name, Begin, &[("parent", Parent(parent))]),
            SpanEnd { name } => (2, name, End, &[]),
            WqePosted { qpn, ticket } => {
                (3, "WqePosted", Instant, &[("qpn", Num(qpn.into())), ("ticket", Num(ticket))])
            }
            PacketEnqueued { node, egress, bytes, queue_ns } => (4, "PacketEnqueued", Instant, &[
                ("node", Num(node.into())),
                ("egress", Flag(egress)),
                ("bytes", Num(bytes)),
                ("queue_ns", Num(queue_ns)),
            ]),
            PacketDelivered { node, egress, bytes } => (5, "PacketDelivered", Instant, &[
                ("node", Num(node.into())),
                ("egress", Flag(egress)),
                ("bytes", Num(bytes)),
            ]),
            Completion { qpn, ticket, opcode, ok } => (6, "Completion", Instant, &[
                ("qpn", Num(qpn.into())),
                ("ticket", Num(ticket)),
                ("opcode", Text(opcode)),
                ("ok", Flag(ok)),
            ]),
            CpuCopy { site, bytes } => {
                (7, "CpuCopy", Instant, &[("site", Text(site)), ("bytes", Num(bytes))])
            }
            Commit { stream, base_offset, next_offset } => (8, "Commit", Instant, &[
                ("stream", Num(stream)),
                ("base_offset", Num(base_offset)),
                ("next_offset", Num(next_offset)),
            ]),
            ReplAck { stream, offset } => {
                (9, "ReplAck", Instant, &[("stream", Num(stream)), ("offset", Num(offset))])
            }
            FetchServed { stream, start_offset, next_offset, bytes } => {
                (10, "FetchServed", Instant, &[
                    ("stream", Num(stream)),
                    ("start_offset", Num(start_offset)),
                    ("next_offset", Num(next_offset)),
                    ("bytes", Num(bytes)),
                ])
            }
        };
        f(row)
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub trace_id: u64,
    pub span_id: u64,
    pub ts_ns: u64,
    pub kind: EventKind,
}

/// Digest of a drained trace-event stream, independent of raw id allocation.
///
/// Two runs of the *same* workload allocate different raw trace ids whenever
/// something else drew from the thread-local id counter first (an earlier
/// run on the thread, a warm-up phase), so raw ids cannot be compared across
/// runs. This digest renumbers trace and span ids by first appearance in the
/// stream — the canonical lifeline numbering — and then folds every event's
/// full content (canonical ids, virtual timestamp, and all [`EventKind`]
/// payload fields). Equal digests mean the two streams describe identical
/// lifelines doing identical things at identical virtual times; any
/// divergence in event order, timing, or payload changes the digest.
pub fn canonical_trace_digest(events: &[TraceEvent]) -> u64 {
    let mut ids = std::collections::HashMap::new();
    let mut canon = |raw: u64| {
        let next = ids.len() as u64 + 1;
        *ids.entry(raw).or_insert(next)
    };
    let mut h = Fnv::new();
    h.u64(events.len() as u64);
    for e in events {
        h.u64(canon(e.trace_id));
        h.u64(canon(e.span_id));
        h.u64(e.ts_ns);
        e.kind.with_row(|(tag, name, phase, fields)| {
            h.u64(tag);
            if phase != Phase::Instant {
                h.str(name);
            }
            for &(_, field) in fields {
                match field {
                    Field::Num(v) => h.u64(v),
                    Field::Flag(b) => h.u64(b as u64),
                    Field::Text(s) => h.str(s),
                    // Parents go through the same renumbering (0 = a root).
                    Field::Parent(p) => h.u64(if p == 0 { 0 } else { canon(p) }),
                }
            }
        });
    }
    h.0
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, a byte at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A string and a terminator, so adjacent strings cannot run together.
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
}

/// Stable identifier for one partition's record stream, used to correlate
/// `Commit` and `FetchServed` events across different lifelines (the
/// consumer's fetch is a different trace than the producer's commit).
/// FNV-1a over the topic bytes mixed with the partition index.
pub fn stream_key(topic: &str, partition: u32) -> u64 {
    let mut h = Fnv::new();
    h.bytes(topic.as_bytes());
    (h.0 ^ partition as u64).wrapping_mul(FNV_PRIME)
}

thread_local! {
    // Deterministic under the single-threaded simulator: allocation order is
    // execution order, which the runtime makes reproducible.
    static NEXT_ID: Cell<u64> = const { Cell::new(1) };
    static AMBIENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

pub(crate) fn next_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Resets the thread-local trace-id allocator (and clears any ambient
/// context). Deterministic-replay harnesses call this between runs so two
/// executions of the same seed label identical traces with identical ids —
/// making drained event logs comparable bit for bit.
pub fn reset_trace_ids() {
    NEXT_ID.with(|c| c.set(1));
    AMBIENT.with(|c| c.set(None));
}

/// The ambient trace context, if a synchronous scope set one.
pub fn current_ctx() -> Option<TraceCtx> {
    AMBIENT.with(Cell::get)
}

/// Sets the ambient trace context until the guard drops. Only sound around
/// synchronous code — never hold the guard across an `.await`.
pub fn enter_ctx(ctx: TraceCtx) -> CtxGuard {
    let prev = AMBIENT.with(|c| c.replace(Some(ctx)));
    CtxGuard { prev }
}

/// Restores the previous ambient context on drop.
pub struct CtxGuard {
    prev: Option<TraceCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_ctx_ids_are_fresh_and_nonzero() {
        let a = TraceCtx::root();
        let b = TraceCtx::root();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.trace_id, a.span_id);
    }

    #[test]
    fn ambient_ctx_nests_and_restores() {
        assert_eq!(current_ctx(), None);
        let outer = TraceCtx::root();
        let inner = TraceCtx::root();
        {
            let _g = enter_ctx(outer);
            assert_eq!(current_ctx(), Some(outer));
            {
                let _g2 = enter_ctx(inner);
                assert_eq!(current_ctx(), Some(inner));
            }
            assert_eq!(current_ctx(), Some(outer));
        }
        assert_eq!(current_ctx(), None);
    }

    /// A produce lifeline with a broker child span beside a fetch lifeline
    /// whose child names a parent span (11) before that span's own event.
    fn sample_stream() -> Vec<TraceEvent> {
        use EventKind::*;
        let ev = |trace_id, span_id, ts_ns, kind| TraceEvent {
            trace_id,
            span_id,
            ts_ns,
            kind,
        };
        vec![
            ev(5, 5, 100, SpanBegin { name: "client.produce", parent: 0 }),
            ev(5, 5, 110, WqePosted { qpn: 3, ticket: 0 }),
            ev(5, 9, 120, SpanBegin { name: "broker.commit", parent: 5 }),
            ev(8, 8, 120, SpanBegin { name: "client.fetch", parent: 0 }),
            ev(8, 12, 125, SpanBegin { name: "client.read", parent: 11 }),
            ev(8, 11, 126, SpanBegin { name: "client.round", parent: 8 }),
            ev(5, 9, 130, Commit { stream: 77, base_offset: 0, next_offset: 1 }),
            ev(5, 9, 140, SpanEnd { name: "broker.commit" }),
            ev(8, 8, 150, FetchServed { stream: 77, start_offset: 0, next_offset: 1, bytes: 64 }),
            ev(5, 5, 160, Completion { qpn: 3, ticket: 0, opcode: "write_imm", ok: true }),
        ]
    }

    /// `events` with every raw trace, span and parent id passed through `f`
    /// (0, the "no parent" sentinel, stays 0).
    fn renumbered(events: &[TraceEvent], f: impl Fn(u64) -> u64) -> Vec<TraceEvent> {
        events
            .iter()
            .map(|e| TraceEvent {
                trace_id: f(e.trace_id),
                span_id: f(e.span_id),
                ts_ns: e.ts_ns,
                kind: match e.kind {
                    EventKind::SpanBegin { name, parent } if parent != 0 => {
                        EventKind::SpanBegin { name, parent: f(parent) }
                    }
                    kind => kind,
                },
            })
            .collect()
    }

    #[test]
    fn canonical_digest_ignores_an_injective_renumbering_of_raw_ids() {
        let events = sample_stream();
        let base = canonical_trace_digest(&events);
        let maps: [fn(u64) -> u64; 3] = [
            |id| id + 1_000,
            |id| 1_000_000 - id, // reverses the raw order
            |id| id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ];
        for f in maps {
            assert_eq!(canonical_trace_digest(&renumbered(&events, f)), base);
        }
        // Not injective — two lifelines merged into one — is a different run.
        let merged = renumbered(&events, |id| if id == 8 { 5 } else { id });
        assert_ne!(canonical_trace_digest(&merged), base);
    }

    #[test]
    fn canonical_digest_moves_with_time_payload_parent_and_order() {
        type Mutation = fn(&mut [TraceEvent]);
        let mutations: [(&str, Mutation); 4] = [
            ("one timestamp", |e| e[6].ts_ns += 1),
            ("one payload field", |e| {
                e[6].kind = EventKind::Commit { stream: 77, base_offset: 0, next_offset: 2 }
            }),
            ("one parent link", |e| {
                e[2].kind = EventKind::SpanBegin { name: "broker.commit", parent: 8 }
            }),
            ("the order of two same-instant events", |e| e.swap(2, 3)),
        ];
        let base = canonical_trace_digest(&sample_stream());
        let mut seen = vec![base];
        for (what, mutate) in mutations {
            let mut events = sample_stream();
            mutate(&mut events);
            let d = canonical_trace_digest(&events);
            assert!(!seen.contains(&d), "{what} changed, digest did not");
            seen.push(d);
        }
    }

    #[test]
    fn stream_key_distinguishes_partitions_and_topics() {
        assert_ne!(stream_key("t", 0), stream_key("t", 1));
        assert_ne!(stream_key("t", 0), stream_key("u", 0));
        assert_eq!(stream_key("t", 0), stream_key("t", 0));
    }
}
