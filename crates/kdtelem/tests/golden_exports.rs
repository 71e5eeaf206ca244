//! Golden bytes of every export format for a fixed input: the telemetry
//! report (JSON lines and text table), the series dump, the Chrome trace and
//! the canonical digest of one event log. Tools read these bytes, so a
//! refactor of the writers must leave them exactly as they are; a deliberate
//! format change re-records the string here and says why.

use std::time::Duration;

use kdtelem::{EventKind, Registry, SeriesLog, SeriesOptions, TraceEvent};

/// A registry with two cells of one counter name, a shared and a per-owner
/// gauge, two histograms and names that need escaping.
fn sample_registry() -> Registry {
    let r = Registry::new();
    r.counter("kdbroker", "produce.requests").add(12);
    r.counter("kdbroker", "produce.requests").add(30);
    r.counter("rnic", "qp.posts").add(99);
    r.counter("odd", "q\"uote\\back\nline\u{1}é").add(1);
    let depth = r.gauge("rnic", "cq.depth");
    depth.add(5);
    depth.sub(2);
    r.gauge("netsim", "link.backlog_ns").set(700);
    r.gauge("netsim", "link.backlog_ns").set(40);
    let h = r.histogram("kdclient", "produce.e2e_ns");
    for v in [1_000u64, 2_000, 4_000, 8_000, 100_000, 3] {
        h.record(v);
    }
    r.histogram("kdbroker", "cq.batch").record(7);
    r.histogram("kdbroker", "storage.fsync_ns");
    r
}

/// The lines of a report that are not the classic-span summary lines.
fn without_span_lines(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("{\"kind\":\"span") && !l.starts_with("spans:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

const REPORT_JSON: &str = "\
{\"kind\":\"counter\",\"component\":\"kdbroker\",\"name\":\"produce.requests\",\"value\":42}\n\
{\"kind\":\"counter\",\"component\":\"odd\",\"name\":\"q\\\"uote\\\\back\\nline\\u0001é\",\"value\":1}\n\
{\"kind\":\"counter\",\"component\":\"rnic\",\"name\":\"qp.posts\",\"value\":99}\n\
{\"kind\":\"gauge\",\"component\":\"netsim\",\"name\":\"link.backlog_ns\",\"value\":740,\"peak\":700}\n\
{\"kind\":\"gauge\",\"component\":\"rnic\",\"name\":\"cq.depth\",\"value\":3,\"peak\":5}\n\
{\"kind\":\"histogram\",\"component\":\"kdbroker\",\"name\":\"cq.batch\",\"count\":1,\"sum\":7,\"min\":7,\"max\":7,\"mean\":7.000,\"p50\":7,\"p90\":7,\"p99\":7}\n\
{\"kind\":\"histogram\",\"component\":\"kdbroker\",\"name\":\"storage.fsync_ns\",\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"mean\":0.000,\"p50\":0,\"p90\":0,\"p99\":0}\n\
{\"kind\":\"histogram\",\"component\":\"kdclient\",\"name\":\"produce.e2e_ns\",\"count\":6,\"sum\":115003,\"min\":3,\"max\":100000,\"mean\":19167.167,\"p50\":2047,\"p90\":100000,\"p99\":100000}\n\
";

#[test]
fn telemetry_json_lines_are_pinned() {
    let json = sample_registry().snapshot().to_json_lines();
    assert_eq!(without_span_lines(&json), REPORT_JSON, "{json}");
}

const REPORT_TABLE: &str = "\
== counters ==\n\
kdbroker.produce.requests  42\n\
odd.q\"uote\\back\n\
line\u{1}é     1\n\
rnic.qp.posts              99\n\
== gauges ==\n\
netsim.link.backlog_ns  740 (peak 700)\n\
rnic.cq.depth           3 (peak 5)\n\
== histograms (us) ==\n\
\x20                               count       mean        p50        p90        p99        max\n\
kdbroker.cq.batch                   1       0.01       0.01       0.01       0.01       0.01\n\
kdbroker.storage.fsync_ns           0       0.00       0.00       0.00       0.00       0.00\n\
kdclient.produce.e2e_ns             6      19.17       2.05     100.00     100.00     100.00\n\
";

#[test]
fn telemetry_table_is_pinned() {
    let table = sample_registry().snapshot().to_table();
    assert_eq!(without_span_lines(&table), REPORT_TABLE, "{table}");
}

const SERIES_JSON: &str = "\
{\"kind\":\"series\",\"interval_ns\":1000000,\"samples\":3,\"dropped\":0}\n\
{\"kind\":\"cpoint\",\"component\":\"kdbroker\",\"name\":\"produce.requests\",\"ts_ns\":250000,\"value\":42,\"delta\":42}\n\
{\"kind\":\"cpoint\",\"component\":\"kdbroker\",\"name\":\"produce.requests\",\"ts_ns\":500000,\"value\":42,\"delta\":0}\n\
{\"kind\":\"cpoint\",\"component\":\"kdbroker\",\"name\":\"produce.requests\",\"ts_ns\":750000,\"value\":42,\"delta\":0}\n\
{\"kind\":\"cpoint\",\"component\":\"kdbroker\",\"name\":\"rdma.commits\",\"ts_ns\":250000,\"value\":1,\"delta\":1}\n\
{\"kind\":\"cpoint\",\"component\":\"kdbroker\",\"name\":\"rdma.commits\",\"ts_ns\":500000,\"value\":3,\"delta\":2}\n\
{\"kind\":\"cpoint\",\"component\":\"kdbroker\",\"name\":\"rdma.commits\",\"ts_ns\":750000,\"value\":6,\"delta\":3}\n\
{\"kind\":\"cpoint\",\"component\":\"odd\",\"name\":\"q\\\"uote\\\\back\\nline\\u0001é\",\"ts_ns\":250000,\"value\":1,\"delta\":1}\n\
{\"kind\":\"cpoint\",\"component\":\"odd\",\"name\":\"q\\\"uote\\\\back\\nline\\u0001é\",\"ts_ns\":500000,\"value\":1,\"delta\":0}\n\
{\"kind\":\"cpoint\",\"component\":\"odd\",\"name\":\"q\\\"uote\\\\back\\nline\\u0001é\",\"ts_ns\":750000,\"value\":1,\"delta\":0}\n\
{\"kind\":\"cpoint\",\"component\":\"rnic\",\"name\":\"qp.posts\",\"ts_ns\":250000,\"value\":99,\"delta\":99}\n\
{\"kind\":\"cpoint\",\"component\":\"rnic\",\"name\":\"qp.posts\",\"ts_ns\":500000,\"value\":99,\"delta\":0}\n\
{\"kind\":\"cpoint\",\"component\":\"rnic\",\"name\":\"qp.posts\",\"ts_ns\":750000,\"value\":99,\"delta\":0}\n\
{\"kind\":\"gpoint\",\"component\":\"netsim\",\"name\":\"link.backlog_ns\",\"ts_ns\":250000,\"value\":740,\"peak\":700}\n\
{\"kind\":\"gpoint\",\"component\":\"netsim\",\"name\":\"link.backlog_ns\",\"ts_ns\":500000,\"value\":740,\"peak\":700}\n\
{\"kind\":\"gpoint\",\"component\":\"netsim\",\"name\":\"link.backlog_ns\",\"ts_ns\":750000,\"value\":740,\"peak\":700}\n\
{\"kind\":\"gpoint\",\"component\":\"rnic\",\"name\":\"cq.depth\",\"ts_ns\":250000,\"value\":5,\"peak\":5}\n\
{\"kind\":\"gpoint\",\"component\":\"rnic\",\"name\":\"cq.depth\",\"ts_ns\":500000,\"value\":9,\"peak\":6}\n\
{\"kind\":\"gpoint\",\"component\":\"rnic\",\"name\":\"cq.depth\",\"ts_ns\":750000,\"value\":15,\"peak\":12}\n\
{\"kind\":\"hpoint\",\"component\":\"kdbroker\",\"name\":\"cq.batch\",\"ts_ns\":250000,\"count\":1,\"sum\":7,\"p50\":7,\"p99\":7}\n\
{\"kind\":\"hpoint\",\"component\":\"kdbroker\",\"name\":\"cq.batch\",\"ts_ns\":500000,\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0}\n\
{\"kind\":\"hpoint\",\"component\":\"kdbroker\",\"name\":\"cq.batch\",\"ts_ns\":750000,\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0}\n\
{\"kind\":\"hpoint\",\"component\":\"kdbroker\",\"name\":\"storage.fsync_ns\",\"ts_ns\":250000,\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0}\n\
{\"kind\":\"hpoint\",\"component\":\"kdbroker\",\"name\":\"storage.fsync_ns\",\"ts_ns\":500000,\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0}\n\
{\"kind\":\"hpoint\",\"component\":\"kdbroker\",\"name\":\"storage.fsync_ns\",\"ts_ns\":750000,\"count\":0,\"sum\":0,\"p50\":0,\"p99\":0}\n\
{\"kind\":\"hpoint\",\"component\":\"kdclient\",\"name\":\"produce.e2e_ns\",\"ts_ns\":250000,\"count\":7,\"sum\":125003,\"p50\":4095,\"p99\":102399}\n\
{\"kind\":\"hpoint\",\"component\":\"kdclient\",\"name\":\"produce.e2e_ns\",\"ts_ns\":500000,\"count\":1,\"sum\":20000,\"p50\":20479,\"p99\":20479}\n\
{\"kind\":\"hpoint\",\"component\":\"kdclient\",\"name\":\"produce.e2e_ns\",\"ts_ns\":750000,\"count\":1,\"sum\":30000,\"p50\":30719,\"p99\":30719}\n\
";

#[test]
fn series_json_lines_are_pinned() {
    let r = sample_registry();
    let rt = sim::Runtime::new();
    let json = rt.block_on(async move {
        let log = SeriesLog::new(SeriesOptions::default());
        let c = r.counter("kdbroker", "rdma.commits");
        let g = r.gauge("rnic", "cq.depth");
        let h = r.histogram("kdclient", "produce.e2e_ns");
        for tick in 1..=3u64 {
            sim::time::sleep(Duration::from_micros(250)).await;
            c.add(tick);
            g.add(tick * 2);
            h.record(10_000 * tick);
            log.sample_now(&r);
        }
        log.dump().to_json_lines()
    });
    assert_eq!(json, SERIES_JSON, "{json}");
}

/// One event of every kind, on two lifelines.
fn event_log() -> Vec<TraceEvent> {
    use EventKind::*;
    let ev = |trace_id, span_id, ts_ns, kind| TraceEvent {
        trace_id,
        span_id,
        ts_ns,
        kind,
    };
    vec![
        ev(
            5,
            5,
            100,
            SpanBegin {
                name: "client.produce",
                parent: 0,
            },
        ),
        ev(5, 5, 110, WqePosted { qpn: 3, ticket: 0 }),
        ev(
            5,
            5,
            111,
            PacketEnqueued {
                node: 1,
                egress: true,
                bytes: 128,
                queue_ns: 7,
            },
        ),
        ev(
            5,
            5,
            1_450,
            PacketDelivered {
                node: 2,
                egress: false,
                bytes: 128,
            },
        ),
        ev(
            5,
            9,
            1_460,
            SpanBegin {
                name: "broker.rdma_commit",
                parent: 5,
            },
        ),
        ev(
            5,
            9,
            1_470,
            Completion {
                qpn: 4,
                ticket: 0,
                opcode: "RdmaWriteImm",
                ok: true,
            },
        ),
        ev(
            5,
            9,
            1_480,
            CpuCopy {
                site: "broker.\"odd\"",
                bytes: 64,
            },
        ),
        ev(
            5,
            9,
            1_490,
            Commit {
                stream: 77,
                base_offset: 0,
                next_offset: 1,
            },
        ),
        ev(
            5,
            9,
            2_000,
            ReplAck {
                stream: 77,
                offset: 1,
            },
        ),
        ev(
            5,
            9,
            2_001,
            SpanEnd {
                name: "broker.rdma_commit",
            },
        ),
        ev(
            8,
            8,
            2_500,
            FetchServed {
                stream: 77,
                start_offset: 0,
                next_offset: 1,
                bytes: 64,
            },
        ),
        ev(
            5,
            5,
            3_000_123,
            Completion {
                qpn: 3,
                ticket: 0,
                opcode: "Send",
                ok: false,
            },
        ),
        ev(
            5,
            5,
            3_000_124,
            SpanEnd {
                name: "client.produce",
            },
        ),
    ]
}

const CHROME_JSON: &str = "\
{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\
{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"kafkadirect-sim\"}},\n\
{\"name\":\"client.produce\",\"cat\":\"kd\",\"ph\":\"b\",\"id\":\"0x5\",\"ts\":0.100,\"pid\":1,\"tid\":5,\"args\":{\"parent\":0}},\n\
{\"name\":\"WqePosted\",\"cat\":\"kd\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0.110,\"pid\":1,\"tid\":5,\"args\":{\"qpn\":3,\"ticket\":0}},\n\
{\"name\":\"PacketEnqueued\",\"cat\":\"kd\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0.111,\"pid\":1,\"tid\":5,\"args\":{\"node\":1,\"egress\":true,\"bytes\":128,\"queue_ns\":7}},\n\
{\"name\":\"PacketDelivered\",\"cat\":\"kd\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.450,\"pid\":1,\"tid\":5,\"args\":{\"node\":2,\"egress\":false,\"bytes\":128}},\n\
{\"name\":\"broker.rdma_commit\",\"cat\":\"kd\",\"ph\":\"b\",\"id\":\"0x9\",\"ts\":1.460,\"pid\":1,\"tid\":5,\"args\":{\"parent\":5}},\n\
{\"name\":\"Completion\",\"cat\":\"kd\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.470,\"pid\":1,\"tid\":5,\"args\":{\"qpn\":4,\"ticket\":0,\"opcode\":\"RdmaWriteImm\",\"ok\":true}},\n\
{\"name\":\"CpuCopy\",\"cat\":\"kd\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.480,\"pid\":1,\"tid\":5,\"args\":{\"site\":\"broker.\\\"odd\\\"\",\"bytes\":64}},\n\
{\"name\":\"Commit\",\"cat\":\"kd\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.490,\"pid\":1,\"tid\":5,\"args\":{\"stream\":77,\"base_offset\":0,\"next_offset\":1}},\n\
{\"name\":\"ReplAck\",\"cat\":\"kd\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.000,\"pid\":1,\"tid\":5,\"args\":{\"stream\":77,\"offset\":1}},\n\
{\"name\":\"broker.rdma_commit\",\"cat\":\"kd\",\"ph\":\"e\",\"id\":\"0x9\",\"ts\":2.001,\"pid\":1,\"tid\":5,\"args\":{}},\n\
{\"name\":\"FetchServed\",\"cat\":\"kd\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.500,\"pid\":1,\"tid\":8,\"args\":{\"stream\":77,\"start_offset\":0,\"next_offset\":1,\"bytes\":64}},\n\
{\"name\":\"Completion\",\"cat\":\"kd\",\"ph\":\"i\",\"s\":\"t\",\"ts\":3000.123,\"pid\":1,\"tid\":5,\"args\":{\"qpn\":3,\"ticket\":0,\"opcode\":\"Send\",\"ok\":false}},\n\
{\"name\":\"client.produce\",\"cat\":\"kd\",\"ph\":\"e\",\"id\":\"0x5\",\"ts\":3000.124,\"pid\":1,\"tid\":5,\"args\":{}}\n\
]}\n\
";

#[test]
fn chrome_json_is_pinned() {
    let json = kdtelem::chrome::to_chrome_json(&event_log());
    assert_eq!(json, CHROME_JSON, "{json}");
}

const DIGEST: u64 = 10148069282018067629;

#[test]
fn canonical_digest_is_pinned() {
    assert_eq!(kdtelem::canonical_trace_digest(&event_log()), DIGEST);
}
