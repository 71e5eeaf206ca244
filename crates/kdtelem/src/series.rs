//! Virtual-time time-series: a sampler task driven by the sim timer wheel
//! periodically cuts one point per registry entry into bounded per-metric
//! rings.
//!
//! Counters become `(value, delta)` points (delta = increase since the last
//! sample → windowed rates), gauges `(value, peak)`, histograms exact
//! per-interval distributions (p50/p99 of just that interval's samples, by
//! [`HistSnapshot::delta_quantile`] against the previous tick's buckets).
//! Rings are bounded: once full the oldest point is dropped and counted, so
//! month-long soaks stay O(capacity).
//!
//! A log samples one registry, and its slot *i* of a kind is that
//! registry's entry *i* of the kind (entries are only appended), so a tick
//! is a walk over both in step: no lookup and, past a slot's first tick, no
//! allocation beyond ring growth.
//!
//! The sampler is a detached task; it records no trace events and never
//! delays the workload's completion, so deterministic-replay digests (which
//! fold trace ids, timestamps, and final virtual time) are unaffected by
//! sampling being on or off.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use crate::hist::HistSnapshot;
use crate::json::{self, Fields, Obj};
use crate::registry::{counter_total, gauge_level, Key, Registry};

/// Sampler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SeriesOptions {
    /// Virtual-time sampling period (ticks land on a fixed grid).
    pub interval: Duration,
    /// Points retained per metric before the oldest are dropped.
    pub capacity: usize,
}

impl Default for SeriesOptions {
    fn default() -> Self {
        SeriesOptions {
            interval: Duration::from_millis(1),
            capacity: 4096,
        }
    }
}

/// One counter sample: the running total and the increase this interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterPoint {
    pub ts_ns: u64,
    pub value: u64,
    pub delta: u64,
}

/// One gauge sample: current level and all-time peak at sample time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugePoint {
    pub ts_ns: u64,
    pub value: u64,
    pub peak: u64,
}

/// One histogram sample: the distribution of *this interval's* recordings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistPoint {
    pub ts_ns: u64,
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p99: u64,
}

/// A kind of point, as one JSON line of a dump.
pub(crate) trait Point: Copy {
    /// The line's `kind`.
    const KIND: &'static str;
    fn write<'a>(&self, o: Obj<'a>) -> Obj<'a>;
    fn read(f: &Fields) -> Option<Self>;
}

impl Point for CounterPoint {
    const KIND: &'static str = "cpoint";

    fn write<'a>(&self, o: Obj<'a>) -> Obj<'a> {
        o.num("ts_ns", self.ts_ns).num("value", self.value).num("delta", self.delta)
    }

    fn read(f: &Fields) -> Option<Self> {
        let (ts_ns, value, delta) = (f.u64("ts_ns")?, f.u64("value")?, f.u64("delta")?);
        Some(CounterPoint { ts_ns, value, delta })
    }
}

impl Point for GaugePoint {
    const KIND: &'static str = "gpoint";

    fn write<'a>(&self, o: Obj<'a>) -> Obj<'a> {
        o.num("ts_ns", self.ts_ns).num("value", self.value).num("peak", self.peak)
    }

    fn read(f: &Fields) -> Option<Self> {
        let (ts_ns, value, peak) = (f.u64("ts_ns")?, f.u64("value")?, f.u64("peak")?);
        Some(GaugePoint { ts_ns, value, peak })
    }
}

impl Point for HistPoint {
    const KIND: &'static str = "hpoint";

    fn write<'a>(&self, o: Obj<'a>) -> Obj<'a> {
        o.num("ts_ns", self.ts_ns)
            .num("count", self.count)
            .num("sum", self.sum)
            .num("p50", self.p50)
            .num("p99", self.p99)
    }

    fn read(f: &Fields) -> Option<Self> {
        Some(HistPoint {
            ts_ns: f.u64("ts_ns")?,
            count: f.u64("count")?,
            sum: f.u64("sum")?,
            p50: f.u64("p50")?,
            p99: f.u64("p99")?,
        })
    }
}

/// A registry entry's series as it records: its ring of points and what
/// the next point is cut against (`L`).
struct Slot<P, L> {
    key: Key,
    points: VecDeque<P>,
    last: L,
}

/// Slot `i`, for entry `i` of `key`: created on first sight.
fn slot<P, L>(
    slots: &mut Vec<Slot<P, L>>,
    i: usize,
    key: Key,
    last: impl FnOnce() -> L,
) -> &mut Slot<P, L> {
    if i == slots.len() {
        slots.push(Slot { key, points: VecDeque::new(), last: last() });
    }
    debug_assert_eq!(slots[i].key, key, "a series log samples one registry");
    &mut slots[i]
}

impl<P, L> Slot<P, L> {
    /// Appends `p`; returns 1 if the ring was full and dropped its oldest.
    fn push(&mut self, cap: usize, p: P) -> u64 {
        let full = self.points.len() >= cap.max(1);
        if full {
            self.points.pop_front();
        }
        self.points.push_back(p);
        full as u64
    }
}

struct SeriesInner {
    opts: SeriesOptions,
    samples: u64,
    dropped: u64,
    stopped: bool,
    /// Counter slots and each one's value at the previous sample.
    counters: Vec<Slot<CounterPoint, u64>>,
    gauges: Vec<Slot<GaugePoint, ()>>,
    /// Histogram slots and each one's buckets at the previous sample.
    histograms: Vec<Slot<HistPoint, HistSnapshot>>,
}

/// Handle to a recording time-series; cheap to clone. Create one directly
/// for manual sampling ([`SeriesLog::sample_now`]) or let [`Sampler::start`]
/// drive it from the timer wheel.
#[derive(Clone)]
pub struct SeriesLog {
    inner: Rc<RefCell<SeriesInner>>,
}

impl SeriesLog {
    pub fn new(opts: SeriesOptions) -> SeriesLog {
        SeriesLog {
            inner: Rc::new(RefCell::new(SeriesInner {
                opts,
                samples: 0,
                dropped: 0,
                stopped: false,
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
            })),
        }
    }

    /// Takes one sample of every entry of `registry` — always the same
    /// registry for one log — at the current virtual time (timestamp 0
    /// outside a runtime: tests sampling by hand).
    pub fn sample_now(&self, registry: &Registry) {
        let ts_ns = sim::try_now().map(|t| t.as_nanos()).unwrap_or(0);
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let cap = inner.opts.capacity;
        inner.samples += 1;
        let entries = registry.entries();
        for (i, (key, cells)) in entries.counters.iter().enumerate() {
            let value = counter_total(cells);
            let s = slot(&mut inner.counters, i, *key, || 0);
            let delta = value.saturating_sub(s.last);
            s.last = value;
            inner.dropped += s.push(cap, CounterPoint { ts_ns, value, delta });
        }
        for (i, (key, cells)) in entries.gauges.iter().enumerate() {
            let (value, peak) = gauge_level(cells);
            let s = slot(&mut inner.gauges, i, *key, || ());
            inner.dropped += s.push(cap, GaugePoint { ts_ns, value, peak });
        }
        for (i, (key, h)) in entries.histograms.iter().enumerate() {
            let s = slot(&mut inner.histograms, i, *key, HistSnapshot::empty);
            let point = h.with_data(|now| {
                let last = &mut s.last;
                // An unchanged count means no recordings this interval: the
                // point is empty without a walk of the buckets.
                if now.count() == last.count() {
                    return HistPoint { ts_ns, count: 0, sum: 0, p50: 0, p99: 0 };
                }
                let point = HistPoint {
                    ts_ns,
                    count: now.count().saturating_sub(last.count()),
                    sum: now.sum().saturating_sub(last.sum()),
                    p50: now.delta_quantile(last, 0.50),
                    p99: now.delta_quantile(last, 0.99),
                };
                last.clear();
                last.merge_from(now);
                point
            });
            inner.dropped += s.push(cap, point);
        }
    }

    /// Stops the driving sampler task at its next tick.
    pub fn stop(&self) {
        self.inner.borrow_mut().stopped = true;
    }

    pub fn is_stopped(&self) -> bool {
        self.inner.borrow().stopped
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.inner.borrow().samples
    }

    /// Points lost to ring bounds across all metrics.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Owned copy of everything recorded so far, sorted by key for stable
    /// output.
    pub fn dump(&self) -> SeriesDump {
        let inner = self.inner.borrow();
        SeriesDump {
            interval_ns: inner.opts.interval.as_nanos() as u64,
            samples: inner.samples,
            dropped: inner.dropped,
            counters: series(&inner.counters),
            gauges: series(&inner.gauges),
            histograms: series(&inner.histograms),
        }
    }
}

fn series<P: Copy, L>(slots: &[Slot<P, L>]) -> Vec<Series<P>> {
    let mut slots: Vec<_> = slots.iter().collect();
    slots.sort_by_key(|s| s.key);
    slots
        .into_iter()
        .map(|s| Series {
            component: s.key.0.to_string(),
            name: s.key.1.to_string(),
            points: s.points.iter().copied().collect(),
        })
        .collect()
}

/// Spawns the sampling task. Must be called inside `block_on`.
pub struct Sampler;

impl Sampler {
    /// Starts a detached sampler over `registry` and returns the log it
    /// fills. The task exits at the first tick after [`SeriesLog::stop`]
    /// (or silently when the runtime ends).
    pub fn start(registry: &Registry, opts: SeriesOptions) -> SeriesLog {
        let log = SeriesLog::new(opts);
        let task_log = log.clone();
        let registry = registry.clone();
        sim::spawn_detached(async move {
            let mut ticker = sim::time::interval(opts.interval);
            loop {
                ticker.tick().await;
                if task_log.is_stopped() {
                    break;
                }
                task_log.sample_now(&registry);
            }
        });
        log
    }
}

/// One instrument's recorded points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series<P> {
    pub component: String,
    pub name: String,
    pub points: Vec<P>,
}

pub type CounterSeries = Series<CounterPoint>;
pub type GaugeSeries = Series<GaugePoint>;
pub type HistSeries = Series<HistPoint>;

impl CounterSeries {
    /// Per-interval increases, oldest first.
    pub fn deltas(&self) -> Vec<u64> {
        self.points.iter().map(|p| p.delta).collect()
    }
}

/// An owned, exportable time-series dump (the wire/file format of a
/// [`SeriesLog`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesDump {
    pub interval_ns: u64,
    pub samples: u64,
    pub dropped: u64,
    pub counters: Vec<CounterSeries>,
    pub gauges: Vec<GaugeSeries>,
    pub histograms: Vec<HistSeries>,
}

fn find<'a, P>(list: &'a [Series<P>], component: &str, name: &str) -> Option<&'a Series<P>> {
    list.iter().find(|s| s.component == component && s.name == name)
}

impl SeriesDump {
    pub fn counter(&self, component: &str, name: &str) -> Option<&CounterSeries> {
        find(&self.counters, component, name)
    }

    pub fn gauge(&self, component: &str, name: &str) -> Option<&GaugeSeries> {
        find(&self.gauges, component, name)
    }

    pub fn histogram(&self, component: &str, name: &str) -> Option<&HistSeries> {
        find(&self.histograms, component, name)
    }

    /// Serialises as JSON lines: one `series` header object, then one object
    /// per point. Safe to `>` into `results/` and parse with any JSON reader.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        Obj::new(&mut out)
            .str("kind", "series")
            .num("interval_ns", self.interval_ns)
            .num("samples", self.samples)
            .num("dropped", self.dropped)
            .line();
        write_points(&mut out, &self.counters);
        write_points(&mut out, &self.gauges);
        write_points(&mut out, &self.histograms);
        out
    }

    /// Parses the output of [`to_json_lines`](SeriesDump::to_json_lines).
    /// Series keep first-seen order.
    pub fn from_json_lines(text: &str) -> Option<SeriesDump> {
        let mut dump = SeriesDump::default();
        let mut saw_header = false;
        for f in json::lines(text) {
            let f = f?;
            match f.str("kind")?.as_str() {
                "series" => {
                    saw_header = true;
                    dump.interval_ns = f.u64("interval_ns")?;
                    dump.samples = f.u64("samples")?;
                    dump.dropped = f.u64("dropped")?;
                }
                CounterPoint::KIND => read_point(&mut dump.counters, &f)?,
                GaugePoint::KIND => read_point(&mut dump.gauges, &f)?,
                HistPoint::KIND => read_point(&mut dump.histograms, &f)?,
                _ => return None,
            }
        }
        saw_header.then_some(dump)
    }
}

fn write_points<P: Point>(out: &mut String, list: &[Series<P>]) {
    for s in list {
        for p in &s.points {
            let o = Obj::new(out).str("kind", P::KIND).str("component", &s.component);
            p.write(o.str("name", &s.name)).line();
        }
    }
}

fn read_point<P: Point>(list: &mut Vec<Series<P>>, f: &Fields) -> Option<()> {
    let (component, name) = (f.str("component")?, f.str("name")?);
    let point = P::read(f)?;
    match list.iter_mut().find(|s| s.component == component && s.name == name) {
        Some(s) => s.points.push(point),
        None => list.push(Series { component, name, points: vec![point] }),
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_sampling_records_deltas_and_interval_quantiles() {
        let r = Registry::new();
        let c = r.counter("kdbroker", "rdma.commits");
        let g = r.gauge("rnic", "cq.depth");
        let h = r.histogram("kdclient", "produce.e2e_ns");
        let log = SeriesLog::new(SeriesOptions::default());

        c.add(10);
        g.set(3);
        h.record(1_000);
        log.sample_now(&r);
        // Empty interval: nothing recorded between samples.
        log.sample_now(&r);
        c.add(5);
        g.set(1);
        h.record(9_000);
        h.record(9_000);
        log.sample_now(&r);

        let dump = log.dump();
        assert_eq!(dump.samples, 3);
        let cs = dump.counter("kdbroker", "rdma.commits").unwrap();
        assert_eq!(cs.deltas(), vec![10, 0, 5]);
        assert_eq!(cs.points[2].value, 15);
        let gs = dump.gauge("rnic", "cq.depth").unwrap();
        assert_eq!(
            gs.points.iter().map(|p| (p.value, p.peak)).collect::<Vec<_>>(),
            vec![(3, 3), (3, 3), (1, 3)]
        );
        let hs = dump.histogram("kdclient", "produce.e2e_ns").unwrap();
        assert_eq!(hs.points[0].count, 1);
        assert_eq!(hs.points[1].count, 0);
        assert_eq!(hs.points[1].p99, 0, "empty interval has empty quantiles");
        assert_eq!(hs.points[2].count, 2);
        // Interval p50 reflects only this interval's samples (9_000 bucket),
        // not the full-run distribution that includes the 1_000 sample.
        assert!(hs.points[2].p50 >= 9_000, "p50={}", hs.points[2].p50);
    }

    #[test]
    fn rings_are_bounded_and_count_drops() {
        let r = Registry::new();
        let c = r.counter("a", "b");
        let log = SeriesLog::new(SeriesOptions {
            interval: Duration::from_millis(1),
            capacity: 4,
        });
        for _ in 0..10 {
            c.inc();
            log.sample_now(&r);
        }
        let dump = log.dump();
        let cs = dump.counter("a", "b").unwrap();
        assert_eq!(cs.points.len(), 4);
        assert_eq!(dump.dropped, 6);
        // The retained points are the newest.
        assert_eq!(cs.points.last().unwrap().value, 10);
    }

    #[test]
    fn sampler_task_runs_on_the_wheel_grid() {
        let r = Registry::new();
        let c = r.counter("kdbroker", "produce.requests");
        let rt = sim::Runtime::new();
        let log = rt.block_on(async move {
            let log = Sampler::start(
                &r,
                SeriesOptions {
                    interval: Duration::from_micros(100),
                    capacity: 64,
                },
            );
            for _ in 0..5 {
                c.add(2);
                sim::time::sleep(Duration::from_micros(100)).await;
            }
            log.stop();
            sim::time::sleep(Duration::from_micros(300)).await;
            log
        });
        let dump = log.dump();
        // Ticks at 100..400us sample; the main task (registered first on the
        // wheel) wins the 500us tie and stops the sampler before its tick.
        assert_eq!(dump.samples, 4, "stop really stops the sampler");
        let cs = dump.counter("kdbroker", "produce.requests").unwrap();
        // Timestamps land on the fixed 100us grid.
        assert!(cs.points.iter().all(|p| p.ts_ns % 100_000 == 0));
        assert_eq!(cs.points.last().unwrap().value, 10);
    }

    #[test]
    fn dump_round_trips_json_lines() {
        let r = Registry::new();
        let c = r.counter("kdbroker", "rdma.commits");
        let g = r.gauge("netsim", "link.backlog_ns");
        let h = r.histogram("kdbroker", "rdma.commit_ns");
        let log = SeriesLog::new(SeriesOptions::default());
        for i in 0..3u64 {
            c.add(i + 1);
            g.set(i * 10);
            h.record(1_000 * (i + 1));
            log.sample_now(&r);
        }
        let dump = log.dump();
        let json = dump.to_json_lines();
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let back = SeriesDump::from_json_lines(&json).expect("parse");
        assert_eq!(back, dump);
        // Headerless or garbage input is rejected.
        assert!(SeriesDump::from_json_lines("{\"kind\":\"wat\"}").is_none());
        assert!(SeriesDump::from_json_lines("").is_none());
    }
}
