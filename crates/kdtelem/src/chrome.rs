//! Chrome trace-event JSON export — hand-written, zero-dep, loadable in
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! Mapping:
//! * each lifeline (`trace_id`) becomes a thread (`tid`) under one process,
//!   so Perfetto draws one row per record lifeline;
//! * `SpanBegin`/`SpanEnd` become async begin/end pairs (`ph`: `"b"`/`"e"`)
//!   keyed by the span id, which nest correctly even when a span crosses
//!   simulated machines;
//! * every other event becomes a thread-scoped instant (`ph`: `"i"`) whose
//!   `args` carry the typed payload (qpn, ticket, offsets, bytes).
//!
//! Timestamps are microseconds (the trace-event unit) with nanosecond
//! fractions preserved as decimals.
//!
//! [`parse_chrome_json`] is the matching reader used by tests to prove the
//! emitted JSON round-trips: the crate's one object reader, run over the
//! array.

use crate::json::{Fields, Obj};
use crate::trace::{Field, Phase, TraceEvent};

/// Virtual pid under which all simulated nodes are grouped.
const PID: u64 = 1;

/// Serialises a drained event log as one Chrome trace-event JSON document.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    Obj::new(&mut out)
        .str("name", "process_name")
        .str("ph", "M")
        .num("pid", PID)
        .num("tid", 0)
        .obj("args", |o| o.str("name", "kafkadirect-sim"))
        .end();
    for e in events {
        out.push_str(",\n");
        e.kind.with_row(|(_, name, phase, fields)| {
            let o = Obj::new(&mut out).str("name", name).str("cat", "kd");
            let id = || format!("0x{:x}", e.span_id);
            let o = match phase {
                Phase::Begin => o.str("ph", "b").str("id", &id()),
                Phase::End => o.str("ph", "e").str("id", &id()),
                Phase::Instant => o.str("ph", "i").str("s", "t"),
            };
            o.num("ts", format_args!("{}.{:03}", e.ts_ns / 1_000, e.ts_ns % 1_000))
                .num("pid", PID)
                .num("tid", e.trace_id)
                .obj("args", |mut args| {
                    for &(key, field) in fields {
                        args = match field {
                            Field::Num(v) | Field::Parent(v) => args.num(key, v),
                            Field::Flag(b) => args.num(key, b),
                            Field::Text(s) => args.str(key, s),
                        };
                    }
                    args
                })
                .end();
        });
    }
    out.push_str("\n]}\n");
    out
}

/// One parsed trace-event JSON object (subset of fields the tests verify).
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    pub name: String,
    pub ph: String,
    pub ts_ns: u64,
    pub pid: u64,
    pub tid: u64,
    pub id: Option<String>,
}

/// Parses the output of [`to_chrome_json`] back into its events (metadata
/// records included). Returns `None` on structurally invalid input.
pub fn parse_chrome_json(text: &str) -> Option<Vec<ChromeEvent>> {
    let start = text.find("\"traceEvents\"")?;
    let mut rest = text[start..].split_once('[')?.1.trim_start();
    let mut events = Vec::new();
    if rest.starts_with(']') {
        return Some(events);
    }
    loop {
        let (f, after) = Fields::read(rest)?;
        events.push(ChromeEvent {
            name: f.str("name")?,
            ph: f.str("ph")?,
            ts_ns: f.f64("ts").map_or(0, |us| (us * 1_000.0).round() as u64),
            pid: f.u64("pid")?,
            tid: f.u64("tid")?,
            id: f.str("id"),
        });
        let after = after.trim_start();
        match after.strip_prefix(',') {
            Some(next) => rest = next,
            None => return after.starts_with(']').then_some(events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, TraceCtx};

    fn sample_events() -> Vec<TraceEvent> {
        let ctx = TraceCtx::root();
        vec![
            TraceEvent {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                ts_ns: 1_500,
                kind: EventKind::SpanBegin {
                    name: "client.produce",
                    parent: 0,
                },
            },
            TraceEvent {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                ts_ns: 2_000,
                kind: EventKind::WqePosted { qpn: 7, ticket: 3 },
            },
            TraceEvent {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                ts_ns: 2_250,
                kind: EventKind::Completion {
                    qpn: 7,
                    ticket: 3,
                    opcode: "RdmaWrite",
                    ok: true,
                },
            },
            TraceEvent {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                ts_ns: 9_001,
                kind: EventKind::SpanEnd {
                    name: "client.produce",
                },
            },
        ]
    }

    #[test]
    fn export_round_trips_through_parser() {
        let events = sample_events();
        let json = to_chrome_json(&events);
        let parsed = parse_chrome_json(&json).expect("parse");
        // Metadata record + our four events.
        assert_eq!(parsed.len(), events.len() + 1);
        assert_eq!(parsed[0].name, "process_name");
        assert_eq!(parsed[1].ph, "b");
        assert_eq!(parsed[1].ts_ns, 1_500);
        assert_eq!(parsed[1].id.as_deref(), Some(&*format!("0x{:x}", events[0].span_id)));
        assert_eq!(parsed[2].name, "WqePosted");
        assert_eq!(parsed[2].ph, "i");
        assert_eq!(parsed[4].ph, "e");
        assert!(parsed[1..].iter().all(|e| e.tid == events[0].trace_id));
    }

    #[test]
    fn every_begin_has_matching_end() {
        let json = to_chrome_json(&sample_events());
        let parsed = parse_chrome_json(&json).unwrap();
        let b = parsed.iter().filter(|e| e.ph == "b").count();
        let e = parsed.iter().filter(|e| e.ph == "e").count();
        assert_eq!(b, 1);
        assert_eq!(b, e);
    }

    #[test]
    fn parser_rejects_truncated_input() {
        let json = to_chrome_json(&sample_events());
        assert!(parse_chrome_json(&json[..json.len() / 2]).is_none());
        assert!(parse_chrome_json("{}").is_none());
    }
}
