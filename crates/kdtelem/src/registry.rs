//! The stats registry: named counters, gauges and histograms grouped by
//! component, and a bounded ring of trace events.
//!
//! The registry holds one entry per `(component, name)` with that entry's
//! cells, and a cell belongs to whoever reads it.
//!
//! * `counter()` / `gauge()` add a fresh cell owned by the caller to its
//!   entry: a broker or a NIC keeps private cells it can read back exactly,
//!   and whoever reads the registry aggregates an entry's cells (counters
//!   and gauge values sum, gauge peaks max). An object there is one of per
//!   *connection* — a CQ, a link, a client NIC — reads none of its cells, so
//!   it registers none: it clones the handles of its owner (the fabric, the
//!   device), which keeps the registry O(names x owners) however many
//!   connections come and go. Only `add`/`sub` gauges are shared that way
//!   (the shared cell is the true aggregate, with its true peak); a `set`
//!   gauge stays per owner.
//! * `histogram()` hands out clones of the entry's one cell. Histograms are
//!   write-only handles — nothing reads a distribution back except through
//!   the registry — and a cell is ~7.6 KiB.
//!
//! Entries are only ever appended, so entry *i* stays entry *i*: the series
//! sampler keeps its slot *i* beside it.

use std::cell::{Cell, Ref, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::hist::{HistSnapshot, Histogram};
use crate::report::{CounterRow, GaugeRow, HistRow, TelemetryReport};
use crate::trace::{EventKind, TraceCtx, TraceEvent};

/// A monotonically increasing (or explicitly reset) `u64` cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn add(&self, v: u64) {
        self.cell.set(self.cell.get() + v);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.cell.get()
    }

    /// Direct store; exists for the rare accounting path that must subtract
    /// (e.g. deregistering producer memory grants).
    pub fn set(&self, v: u64) {
        self.cell.set(v);
    }
}

/// A level instrument: current value plus a high-watermark peak. Used for
/// queue depths and CQ occupancy.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    inner: Rc<GaugeData>,
}

#[derive(Debug, Default)]
struct GaugeData {
    value: Cell<u64>,
    peak: Cell<u64>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: u64) {
        self.inner.value.set(v);
        if v > self.inner.peak.get() {
            self.inner.peak.set(v);
        }
    }

    pub fn add(&self, v: u64) {
        self.set(self.inner.value.get() + v);
    }

    pub fn sub(&self, v: u64) {
        self.inner
            .value
            .set(self.inner.value.get().saturating_sub(v));
    }

    pub fn get(&self) -> u64 {
        self.inner.value.get()
    }

    pub fn peak(&self) -> u64 {
        self.inner.peak.get()
    }
}

/// The sum of an entry's counter cells.
pub(crate) fn counter_total(cells: &[Counter]) -> u64 {
    cells.iter().map(Counter::get).sum()
}

/// An entry's gauge cells as `(value, peak)`: values sum, peaks max.
pub(crate) fn gauge_level(cells: &[Gauge]) -> (u64, u64) {
    cells
        .iter()
        .fold((0, 0), |(v, p), g| (v + g.get(), p.max(g.peak())))
}

pub(crate) type Key = (&'static str, &'static str);

/// A registry's entries of each kind, in registration order.
#[derive(Default)]
pub(crate) struct Entries {
    pub counters: Vec<(Key, Vec<Counter>)>,
    pub gauges: Vec<(Key, Vec<Gauge>)>,
    pub histograms: Vec<(Key, Histogram)>,
}

/// The value of `key` in `list`, appended by `new` if it is not there.
fn entry<T>(list: &mut Vec<(Key, T)>, key: Key, new: impl FnOnce() -> T) -> &mut T {
    let i = match list.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            list.push((key, new()));
            list.len() - 1
        }
    };
    &mut list[i].1
}

/// `list` in `(component, name)` order, for stable output.
fn sorted<T>(list: &[(Key, T)]) -> Vec<&(Key, T)> {
    let mut v: Vec<_> = list.iter().collect();
    v.sort_by_key(|(k, _)| *k);
    v
}

/// Capacity of a registry's trace-event ring until
/// [`Registry::set_event_capacity`] changes it; once full, the oldest event
/// is dropped and counted.
const EVENT_RING_CAPACITY: usize = 1 << 16;

struct EventRing {
    ring: VecDeque<TraceEvent>,
    dropped: u64,
    capacity: usize,
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing {
            ring: VecDeque::new(),
            dropped: 0,
            capacity: EVENT_RING_CAPACITY,
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    entries: RefCell<Entries>,
    events: RefCell<EventRing>,
}

/// Cloneable handle to a telemetry registry. See the module docs for the
/// aggregation model.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Rc<RegistryInner>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Resizes the trace-event ring (existing buffered events are kept up to
    /// the new capacity; the oldest are dropped and counted).
    pub fn set_event_capacity(&self, capacity: usize) {
        let mut events = self.inner.events.borrow_mut();
        events.capacity = capacity.max(1);
        while events.ring.len() > events.capacity {
            events.ring.pop_front();
            events.dropped += 1;
        }
    }

    /// Creates a counter and adds its cell to the entry of `(component, name)`.
    pub fn counter(&self, component: &'static str, name: &'static str) -> Counter {
        let c = Counter::new();
        let mut entries = self.inner.entries.borrow_mut();
        entry(&mut entries.counters, (component, name), Vec::new).push(c.clone());
        c
    }

    /// Creates a gauge and adds its cell to the entry of `(component, name)`.
    pub fn gauge(&self, component: &'static str, name: &'static str) -> Gauge {
        let g = Gauge::new();
        let mut entries = self.inner.entries.borrow_mut();
        entry(&mut entries.gauges, (component, name), Vec::new).push(g.clone());
        g
    }

    /// A handle to the histogram cell of `(component, name)`, created on
    /// first use: every caller records into the same cell.
    pub fn histogram(&self, component: &'static str, name: &'static str) -> Histogram {
        let mut entries = self.inner.entries.borrow_mut();
        entry(&mut entries.histograms, (component, name), Histogram::new).clone()
    }

    pub(crate) fn entries(&self) -> Ref<'_, Entries> {
        self.inner.entries.borrow()
    }

    /// Records one trace event at an explicit virtual-time `ts_ns` (which
    /// may be in the future: link reservations are computed at post time).
    pub fn record_trace_event(&self, ctx: TraceCtx, ts_ns: u64, kind: EventKind) {
        let mut events = self.inner.events.borrow_mut();
        if events.ring.len() >= events.capacity {
            events.ring.pop_front();
            events.dropped += 1;
        }
        events.ring.push_back(TraceEvent {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            ts_ns,
            kind,
        });
    }

    /// Records a trace event at the current virtual time. No-op outside a
    /// runtime.
    pub fn trace_event_now(&self, ctx: TraceCtx, kind: EventKind) {
        if let Some(now) = sim::try_now() {
            self.record_trace_event(ctx, now.as_nanos(), kind);
        }
    }

    /// Opens an identified trace span: allocates a span id under `parent`'s
    /// trace (or a fresh trace when `parent` is `None`), records a
    /// `SpanBegin` event now, and returns a guard whose [`TraceSpan::ctx`]
    /// is the context to propagate to children. On end/drop it records the
    /// `SpanEnd` event. A span is its two events only: a duration worth
    /// keeping is a histogram's.
    pub fn trace_span(&self, name: &'static str, parent: Option<TraceCtx>) -> TraceSpan {
        let ctx = match parent {
            Some(p) => TraceCtx {
                trace_id: p.trace_id,
                span_id: crate::trace::next_id(),
            },
            None => TraceCtx::root(),
        };
        let open = sim::try_now().is_some();
        self.trace_event_now(
            ctx,
            EventKind::SpanBegin {
                name,
                parent: parent.map_or(0, |p| p.span_id),
            },
        );
        TraceSpan {
            registry: self.clone(),
            name,
            ctx,
            open,
        }
    }

    /// Removes and returns all buffered trace events (oldest first).
    pub fn drain_trace_events(&self) -> Vec<TraceEvent> {
        self.inner.events.borrow_mut().ring.drain(..).collect()
    }

    /// Trace events lost to ring overflow since the registry was created.
    pub fn trace_events_dropped(&self) -> u64 {
        self.inner.events.borrow().dropped
    }

    /// Visits every registered counter cell (not aggregated: the cells of
    /// one entry repeat its key).
    pub fn fold_counters(&self, mut f: impl FnMut(Key, u64)) {
        for (key, cells) in &self.entries().counters {
            cells.iter().for_each(|c| f(*key, c.get()));
        }
    }

    /// Visits every registered gauge cell as `(key, value, peak)`.
    pub fn fold_gauges(&self, mut f: impl FnMut(Key, u64, u64)) {
        for (key, cells) in &self.entries().gauges {
            cells.iter().for_each(|g| f(*key, g.get(), g.peak()));
        }
    }

    /// Visits every registered histogram cell by reference.
    pub fn fold_histograms(&self, mut f: impl FnMut(Key, &Histogram)) {
        for (key, h) in &self.entries().histograms {
            f(*key, h);
        }
    }

    /// Bucket-level snapshots of every registered histogram, sorted by
    /// `(component, name)` key; diff two calls for an interval's
    /// distribution ([`HistSnapshot::delta_since`]).
    pub fn merged_histograms(&self) -> Vec<(Key, HistSnapshot)> {
        let entries = self.entries();
        sorted(&entries.histograms)
            .into_iter()
            .map(|(key, h)| (*key, h.snapshot()))
            .collect()
    }

    /// Aggregated point-in-time report, one row per entry (see the module
    /// docs), sorted for stable output.
    pub fn snapshot(&self) -> TelemetryReport {
        let entries = self.entries();
        let names = |(component, name): &Key| (component.to_string(), name.to_string());
        TelemetryReport {
            counters: sorted(&entries.counters)
                .into_iter()
                .map(|(key, cells)| {
                    let (component, name) = names(key);
                    CounterRow {
                        component,
                        name,
                        value: counter_total(cells),
                    }
                })
                .collect(),
            gauges: sorted(&entries.gauges)
                .into_iter()
                .map(|(key, cells)| {
                    let (component, name) = names(key);
                    let (value, peak) = gauge_level(cells);
                    GaugeRow {
                        component,
                        name,
                        value,
                        peak,
                    }
                })
                .collect(),
            histograms: sorted(&entries.histograms)
                .into_iter()
                .map(|(key, h)| {
                    let (component, name) = names(key);
                    HistRow {
                        component,
                        name,
                        stats: h.stats(),
                    }
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries();
        f.debug_struct("Registry")
            .field("counters", &entries.counters.len())
            .field("gauges", &entries.gauges.len())
            .field("histograms", &entries.histograms.len())
            .field("events", &self.inner.events.borrow().ring.len())
            .finish()
    }
}

/// An in-flight identified trace span (see [`Registry::trace_span`]).
/// Carries the [`TraceCtx`] to hand to children / propagate over the wire.
#[must_use = "a trace span lasts until it is ended or dropped"]
pub struct TraceSpan {
    registry: Registry,
    name: &'static str,
    ctx: TraceCtx,
    /// Its `SpanBegin` was recorded and its `SpanEnd` is not yet.
    open: bool,
}

impl TraceSpan {
    /// The context identifying this span — propagate it to child work.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// Ends the span now (virtual time).
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if std::mem::take(&mut self.open) {
            let end = EventKind::SpanEnd { name: self.name };
            self.registry.trace_event_now(self.ctx, end);
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.finish();
    }
}

thread_local! {
    static STACK: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
    static DEFAULT: Registry = Registry::new();
}

/// The ambient registry: the innermost [`enter`] scope on this
/// thread, or a shared thread-local default. Instrumented components
/// (links, NICs, brokers) grab their handles from here at construction time.
pub fn current() -> Registry {
    STACK
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| DEFAULT.with(Registry::clone))
}

/// Makes `registry` the ambient registry until the guard drops.
pub fn enter(registry: &Registry) -> ScopeGuard {
    STACK.with(|s| s.borrow_mut().push(registry.clone()));
    ScopeGuard { _priv: () }
}

/// Scope guard returned by [`enter`]; pops the registry stack on drop.
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_by_name() {
        let r = Registry::new();
        let a = r.counter("broker", "produce_requests");
        let b = r.counter("broker", "produce_requests");
        let c = r.counter("broker", "fetch_requests");
        a.add(3);
        b.add(4);
        c.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("broker", "produce_requests"), Some(7));
        assert_eq!(snap.counter("broker", "fetch_requests"), Some(1));
        assert_eq!(snap.counter("broker", "nope"), None);
    }

    #[test]
    fn counter_handles_are_private() {
        let r = Registry::new();
        let a = r.counter("x", "n");
        let b = r.counter("x", "n");
        a.add(5);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn gauge_tracks_peak() {
        let r = Registry::new();
        let g = r.gauge("cq", "depth");
        g.add(3);
        g.add(4);
        g.sub(6);
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 7);
        let snap = r.snapshot();
        let row = snap.gauge("cq", "depth").unwrap();
        assert_eq!((row.value, row.peak), (1, 7));
    }

    #[test]
    fn histograms_merge_in_snapshot() {
        let r = Registry::new();
        let h1 = r.histogram("client", "produce_ns");
        let h2 = r.histogram("client", "produce_ns");
        for v in 0..100 {
            h1.record(v);
        }
        for v in 100..200 {
            h2.record(v);
        }
        let snap = r.snapshot();
        let row = snap.histogram("client", "produce_ns").unwrap();
        assert_eq!(row.stats.count, 200);
        assert_eq!(row.stats.max, 199);
    }

    /// Two handles of one name are one cell, and what the registry reports
    /// for it — the snapshot row and the sampled series — is what merging
    /// two private cells gave while each handle had its own.
    #[test]
    fn histogram_handles_of_one_name_share_one_cell() {
        use crate::series::{HistPoint, SeriesLog, SeriesOptions};

        let r = Registry::new();
        let h1 = r.histogram("netsim", "link.queue_delay_ns");
        let h2 = r.histogram("netsim", "link.queue_delay_ns");
        r.histogram("rnic", "qp.post_to_comp_ns").record(1);
        let mut cells = 0;
        r.fold_histograms(|_, _| cells += 1);
        assert_eq!(cells, 2, "one cell per (component, name)");

        // The reference: a private cell per handle, merged by the reader.
        let (a, b) = (Histogram::new(), Histogram::new());
        let merged = || {
            let mut snap = a.snapshot();
            snap.merge_from(&b.snapshot());
            snap
        };
        let series = SeriesLog::new(SeriesOptions::default());
        let mut last = merged();
        let mut expected = Vec::new();
        let mut v = 7u64;
        for tick in 0..6u64 {
            // A quiet tick, then growing bursts split unevenly over the two.
            for i in 0..tick * 37 {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let ns = (v >> 40) % 5_000_000;
                let (shared, private) = if i % 3 == 0 { (&h1, &a) } else { (&h2, &b) };
                shared.record(ns);
                private.record(ns);
            }
            series.sample_now(&r);
            let cur = merged();
            expected.push(HistPoint {
                ts_ns: 0,
                count: cur.count() - last.count(),
                sum: cur.sum() - last.sum(),
                p50: cur.delta_quantile(&last, 0.50),
                p99: cur.delta_quantile(&last, 0.99),
            });
            last = cur;
        }
        assert_eq!(
            h1.count(),
            a.count() + b.count(),
            "both handles record into one cell"
        );

        let snap = r.snapshot();
        let row = snap.histogram("netsim", "link.queue_delay_ns").unwrap();
        let reference = Histogram::new();
        reference.merge_from(&a);
        reference.merge_from(&b);
        assert_eq!(row.stats, reference.stats());
        let dump = series.dump();
        let points = &dump
            .histogram("netsim", "link.queue_delay_ns")
            .unwrap()
            .points;
        assert_eq!(points, &expected);
    }

    /// A gauge shared by `add`/`sub` users is their aggregate: its value is
    /// the sum of what they hold and its peak the most they ever held at
    /// once — which no maximum over per-user peaks can recover.
    #[test]
    fn shared_gauge_reports_the_aggregate_and_its_true_peak() {
        let r = Registry::new();
        let depth = r.gauge("rnic", "cq.depth");
        let (cq_a, cq_b) = (depth.clone(), depth.clone());
        cq_a.add(3);
        cq_b.add(4);
        cq_a.sub(3);
        cq_b.add(1);
        let snap = r.snapshot();
        let row = snap.gauge("rnic", "cq.depth").unwrap();
        assert_eq!((row.value, row.peak), (5, 7));
        let mut cells = 0;
        r.fold_gauges(|_, _, _| cells += 1);
        assert_eq!(cells, 1, "clones register nothing");
    }

    /// The guard `trace_span` returns stamps its begin and end events with
    /// virtual time: a span's duration is the distance between them.
    #[test]
    fn span_guard_records_virtual_time() {
        let r = Registry::new();
        let r2 = r.clone();
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let span = r2.trace_span("produce", None);
            sim::time::sleep(std::time::Duration::from_micros(5)).await;
            span.end();
        });
        let ev = r.drain_trace_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(
            ev[0].kind,
            EventKind::SpanBegin {
                name: "produce",
                parent: 0
            }
        );
        assert_eq!(ev[1].kind, EventKind::SpanEnd { name: "produce" });
        assert_eq!(ev[1].ts_ns - ev[0].ts_ns, 5_000);
    }

    #[test]
    fn span_guard_outside_runtime_is_noop() {
        let r = Registry::new();
        drop(r.trace_span("x", None));
        assert!(r.drain_trace_events().is_empty());
    }

    #[test]
    fn event_ring_bounded_drops_oldest() {
        let r = Registry::new();
        r.set_event_capacity(4);
        let ctx = TraceCtx::root();
        for i in 0..6u64 {
            r.record_trace_event(
                ctx,
                i,
                EventKind::CpuCopy {
                    site: "t",
                    bytes: i,
                },
            );
        }
        assert_eq!(r.trace_events_dropped(), 2);
        let ev = r.drain_trace_events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].ts_ns, 2);
        assert!(r.drain_trace_events().is_empty());
    }

    #[test]
    fn trace_span_links_parent_and_records_both_kinds() {
        let r = Registry::new();
        let r2 = r.clone();
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let root = r2.trace_span("client.produce", None);
            let child = r2.trace_span("broker.commit", Some(root.ctx()));
            assert_eq!(child.ctx().trace_id, root.ctx().trace_id);
            assert_ne!(child.ctx().span_id, root.ctx().span_id);
            sim::time::sleep(std::time::Duration::from_micros(3)).await;
            child.end();
            root.end();
        });
        let ev = r.drain_trace_events();
        assert_eq!(ev.len(), 4, "begin x2 + end x2");
        let root_span = ev[0].span_id;
        match ev[1].kind {
            EventKind::SpanBegin { name, parent } => {
                assert_eq!(name, "broker.commit");
                assert_eq!(parent, root_span);
            }
            ref k => panic!("expected child SpanBegin, got {k:?}"),
        }
        assert!(ev.iter().all(|e| e.trace_id == ev[0].trace_id));
        assert_eq!(
            ev[2].kind,
            EventKind::SpanEnd {
                name: "broker.commit"
            }
        );
        assert_eq!(ev[2].ts_ns - ev[1].ts_ns, 3_000);
    }

    #[test]
    fn ambient_registry_scoping() {
        let outer = current();
        let r = Registry::new();
        {
            let _g = enter(&r);
            let c = current().counter("t", "c");
            c.inc();
        }
        assert_eq!(r.snapshot().counter("t", "c"), Some(1));
        // Back to the previous ambient registry after the scope.
        assert_eq!(
            current().snapshot().counter("t", "c"),
            outer.snapshot().counter("t", "c")
        );
    }
}
