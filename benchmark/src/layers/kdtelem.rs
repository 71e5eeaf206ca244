//! `kdtelem`: the always-on instruments every datapath operation touches.

use std::time::Duration;

use super::ns_per_call;

pub fn run(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let registry = kdtelem::Registry::new();
    let hist = registry.histogram("kdmark", "driver.hist");
    let mut v = 1u64;
    out.push((
        "kdtelem.hist_ns_per_record",
        ns_per_call(budget, || {
            // Values spread over the buckets a latency histogram sees.
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(std::hint::black_box(1_000 + (v >> 44)));
        }),
    ));
    let counter = registry.counter("kdmark", "driver.counter");
    out.push((
        "kdtelem.counter_ns_per_inc",
        ns_per_call(budget, || std::hint::black_box(&counter).inc()),
    ));
    // A full default-size ring: the steady state of a long run, where every
    // event recorded pushes the oldest one out.
    let ctx = kdtelem::TraceCtx::root();
    let mut ts = 0u64;
    out.push((
        "kdtelem.trace_ns_per_event",
        ns_per_call(budget, || {
            ts += 1;
            registry.record_trace_event(
                ctx,
                ts,
                kdtelem::EventKind::WqePosted { qpn: 1, ticket: ts },
            );
        }),
    ));
}
