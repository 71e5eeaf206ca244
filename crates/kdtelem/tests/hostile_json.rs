//! Every dump kdtelem writes comes back through one JSON reader, and the
//! client reads what a broker sent (`Admin::telemetry`, `series`,
//! `health`). Names round-trip exactly whatever they hold — quotes,
//! backslashes (a string that ends in one included), control characters and
//! non-ASCII. Mutated dump text makes each reader return `None` or a value
//! that serialises back to itself; nothing panics, and a read allocates at
//! most `C` bytes per input byte plus `SLACK`. Allocation is measured by a
//! per-thread counting allocator, as in `kdwire/tests/hostile_bytes.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kdtelem::health::{self, HealthEvent, HealthKind};
use kdtelem::series::{CounterPoint, GaugePoint, HistPoint};
use kdtelem::{Registry, SeriesDump, TelemetryReport};
use sim::rng::SimRng;

/// Bytes a read may allocate per input byte: a row or series of the
/// shortest line a reader accepts, in a vector that doubles as it grows
/// (the worst round measures under 3).
const C: usize = 4;

/// Bytes a read may allocate whatever the input.
const SLACK: usize = 256;

/// Seeded rounds of mutated dump text.
const ROUNDS: u32 = 20_000;

thread_local! {
    // Per thread: libtest runs every test on a thread of its own.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + size));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` only touches a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Names that break a reader which finds a string's end by looking one
/// character back, or that look like the syntax around them.
const HOSTILE: &[&str] = &[
    "a\\",
    "\\",
    "\\\\",
    "\"",
    "a\\\"",
    "ends in a quote\"",
    "",
    "\u{0}\u{1}\u{1f}\u{7f}",
    "line\nbreak\r\ttab",
    "é日🦀",
    "},{\"kind\":\"counter\",",
    "\"value\":7",
    "\\u0041\\n",
];

/// A string of up to 12 characters drawn from the hostile alphabet.
fn arb_name(rng: &mut SimRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'u', '0', '\\', '"', '\n', '\u{0}', '\u{1f}', 'é', '🦀', '{', '}', ',', ':',
    ];
    (0..rng.below(13))
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
        .collect()
}

fn arb_u64(rng: &mut SimRng) -> u64 {
    match rng.below(3) {
        0 => rng.below(1_000),
        1 => u64::MAX - rng.below(3),
        _ => rng.next_u64(),
    }
}

fn arb_series(rng: &mut SimRng) -> SeriesDump {
    let mut dump = SeriesDump {
        interval_ns: arb_u64(rng),
        samples: arb_u64(rng),
        dropped: arb_u64(rng),
        ..SeriesDump::default()
    };
    for _ in 0..rng.below(4) {
        dump.counters.push(kdtelem::series::CounterSeries {
            component: arb_name(rng),
            name: format!("c{}{}", dump.counters.len(), arb_name(rng)),
            points: (0..1 + rng.below(3))
                .map(|_| CounterPoint {
                    ts_ns: arb_u64(rng),
                    value: arb_u64(rng),
                    delta: arb_u64(rng),
                })
                .collect(),
        });
    }
    for _ in 0..rng.below(4) {
        dump.gauges.push(kdtelem::series::GaugeSeries {
            component: arb_name(rng),
            name: format!("g{}{}", dump.gauges.len(), arb_name(rng)),
            points: (0..1 + rng.below(3))
                .map(|_| GaugePoint {
                    ts_ns: arb_u64(rng),
                    value: arb_u64(rng),
                    peak: arb_u64(rng),
                })
                .collect(),
        });
    }
    for _ in 0..rng.below(4) {
        dump.histograms.push(kdtelem::series::HistSeries {
            component: arb_name(rng),
            name: format!("h{}{}", dump.histograms.len(), arb_name(rng)),
            points: (0..1 + rng.below(3))
                .map(|_| HistPoint {
                    ts_ns: arb_u64(rng),
                    count: arb_u64(rng),
                    sum: arb_u64(rng),
                    p50: arb_u64(rng),
                    p99: arb_u64(rng),
                })
                .collect(),
        });
    }
    dump
}

fn arb_health(rng: &mut SimRng) -> Vec<HealthEvent> {
    (0..rng.below(5))
        .map(|_| HealthEvent {
            ts_ns: arb_u64(rng),
            kind: match rng.below(3) {
                0 => HealthKind::Stall {
                    since_ns: arb_u64(rng),
                    budget_ns: arb_u64(rng),
                },
                1 => HealthKind::Recovered {
                    stalled_ns: arb_u64(rng),
                },
                _ => HealthKind::Mttr {
                    crash_ns: arb_u64(rng),
                    mttr_ns: arb_u64(rng),
                },
            },
        })
        .collect()
}

/// A report with one counter per pair of hostile names, and a gauge and a
/// histogram per hostile name.
fn hostile_report() -> TelemetryReport {
    let r = Registry::new();
    for (i, component) in HOSTILE.iter().enumerate() {
        for (j, name) in HOSTILE.iter().enumerate() {
            r.counter(component, name).add((i * 100 + j) as u64);
        }
        r.gauge(component, "g").set(i as u64);
        r.histogram("h", component).record(i as u64 * 1_000);
    }
    r.snapshot()
}

#[test]
fn names_round_trip_through_every_dump() {
    let report = hostile_report();
    let json = report.to_json_lines();
    let back = TelemetryReport::from_json_lines(&json).expect("the report reads back");
    for (i, component) in HOSTILE.iter().enumerate() {
        for (j, name) in HOSTILE.iter().enumerate() {
            assert_eq!(
                back.counter(component, name),
                Some((i * 100 + j) as u64),
                "counter ({component:?}, {name:?})"
            );
        }
        assert_eq!(
            back.gauge(component, "g").map(|g| g.value),
            Some(i as u64),
            "{component:?}"
        );
        assert!(back.histogram("h", component).is_some(), "{component:?}");
    }
    assert_eq!(back.to_json_lines(), json);

    let mut rng = SimRng::seed_from_u64(0x0A5C_0001);
    for round in 0..500 {
        let dump = arb_series(&mut rng);
        let back = SeriesDump::from_json_lines(&dump.to_json_lines());
        assert_eq!(back.as_ref(), Some(&dump), "series round {round}");
        let events = arb_health(&mut rng);
        let back = health::from_json_lines(&health::to_json_lines(&events));
        assert_eq!(back.as_ref(), Some(&events), "health round {round}");
    }
}

/// One mutation of `valid`, which stays valid UTF-8 so that it reaches the
/// readers (they take `&str`, as the admin client's does after its own
/// UTF-8 check).
fn mutate(rng: &mut SimRng, valid: &str, other: &str) -> String {
    let mut b = valid.as_bytes().to_vec();
    let at = |rng: &mut SimRng, len: usize| rng.below(len as u64 + 1) as usize;
    match rng.below(6) {
        0 if !b.is_empty() => {
            for _ in 0..=rng.below(4) {
                let i = rng.below(b.len() as u64) as usize;
                b[i] ^= 1 << rng.below(8);
            }
        }
        1 => b.truncate(at(rng, b.len())),
        2 => {
            let (i, j) = (at(rng, b.len()), at(rng, other.len()));
            b.truncate(i);
            b.extend_from_slice(&other.as_bytes()[j..]);
        }
        3 => {
            // A long escape run: backslashes, or `\u` escapes of any kind.
            let unit: &[u8] = match rng.below(3) {
                0 => b"\\",
                1 => b"\\u0022",
                _ => b"\\ud800",
            };
            let run = unit.repeat(1 + rng.below(64) as usize);
            let i = at(rng, b.len());
            b.splice(i..i, run);
        }
        4 => {
            let i = at(rng, b.len());
            let token: &[u8] =
                [&b"{"[..], b"}", b"\"", b",", b":", b"\n", b"{\"kind\":"][rng.below(7) as usize];
            b.splice(i..i, token.iter().copied());
        }
        _ => {
            // A line repeated: duplicate keys across lines.
            let i = at(rng, b.len());
            let j = at(rng, b.len());
            let (lo, hi) = (i.min(j), i.max(j));
            let copy = b[lo..hi].to_vec();
            b.splice(hi..hi, copy);
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Runs `read` on `text` and holds it to the allocation bound.
fn bounded<T>(text: &str, what: &str, read: impl FnOnce(&str) -> T) -> T {
    let before = ALLOCATED.with(Cell::get);
    let got = read(text);
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert!(
        allocated <= C * text.len() + SLACK,
        "{what}: reading {} bytes allocated {allocated}: {text:?}",
        text.len()
    );
    got
}

#[test]
fn mutated_dumps_read_back_as_themselves_or_not_at_all() {
    let mut rng = SimRng::seed_from_u64(0x0A5C_0002);
    let report = {
        let r = Registry::new();
        r.counter("kdbroker", "rdma.commits").add(20);
        r.counter("a\\", "n").add(3);
        r.gauge("rnic", "cq.depth").add(4);
        let h = r.histogram("kdclient", "produce.e2e_ns");
        for v in [1_000, 7_500, 90_000] {
            h.record(v);
        }
        r.snapshot().to_json_lines()
    };
    let chrome = kdtelem::chrome::to_chrome_json(&[kdtelem::TraceEvent {
        trace_id: 1,
        span_id: 1,
        ts_ns: 1_500,
        kind: kdtelem::EventKind::CpuCopy {
            site: "broker.\"x\\",
            bytes: 64,
        },
    }]);
    let mut previous = report.clone();
    for round in 0..ROUNDS {
        let valid = match round % 4 {
            0 => report.clone(),
            1 => arb_series(&mut rng).to_json_lines(),
            2 => health::to_json_lines(&arb_health(&mut rng)),
            _ => chrome.clone(),
        };
        let text = mutate(&mut rng, &valid, &previous);
        let what = format!("round {round}");
        if let Some(r) = bounded(&text, &what, TelemetryReport::from_json_lines) {
            let json = r.to_json_lines();
            let again = TelemetryReport::from_json_lines(&json).expect("a report's own dump reads");
            assert_eq!(again.to_json_lines(), json, "{what}: {text:?}");
        }
        if let Some(dump) = bounded(&text, &what, SeriesDump::from_json_lines) {
            assert_eq!(
                SeriesDump::from_json_lines(&dump.to_json_lines()),
                Some(dump),
                "{what}: {text:?}"
            );
        }
        if let Some(events) = bounded(&text, &what, health::from_json_lines) {
            assert_eq!(
                health::from_json_lines(&health::to_json_lines(&events)),
                Some(events),
                "{what}"
            );
        }
        bounded(&text, &what, kdtelem::chrome::parse_chrome_json);
        previous = valid;
    }
}
