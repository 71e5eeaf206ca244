//! The stats registry: named counters, gauges, histograms, and a bounded
//! span ring, grouped by component.
//!
//! Instruments are *handles*, and a cell belongs to whoever reads it.
//!
//! * `counter()` / `gauge()` create a fresh cell owned by the caller and
//!   remembered by the registry under its `(component, name)` key: a broker
//!   or a NIC keeps private cells it can read back exactly, and snapshots
//!   aggregate same-named cells (counters and gauge values sum, gauge peaks
//!   max). An object there is one of per *connection* — a CQ, a link, a
//!   client NIC — reads none of its cells, so it registers none: it clones
//!   the handles of its owner (the fabric, the device), which keeps the
//!   registry's vectors O(names x owners) however many connections come and
//!   go. Only `add`/`sub` gauges are shared that way (the shared cell is the
//!   true aggregate, with its true peak); a `set` gauge stays per owner.
//! * `histogram()` hands out clones of the one cell of its key. Histograms
//!   are write-only handles — nothing reads a distribution back except
//!   through the registry, which merged by name anyway — and a cell is
//!   ~7.6 KiB.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::hist::Histogram;
use crate::report::{CounterRow, GaugeRow, HistRow, SpanRow, TelemetryReport};
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

    pub fn sub_saturating(&self, v: u64) {
        self.cell.set(self.cell.get().saturating_sub(v));
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
        self.inner.value.set(self.inner.value.get().saturating_sub(v));
    }

    pub fn get(&self) -> u64 {
        self.inner.value.get()
    }

    pub fn peak(&self) -> u64 {
        self.inner.peak.get()
    }
}

/// One completed span on the produce → replicate → consume critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Default capacity of the per-registry span ring; oldest spans are dropped
/// (and counted) once it fills, bounding memory on long soaks. Override per
/// registry with [`Registry::with_span_capacity`].
pub const SPAN_RING_CAPACITY: usize = 4096;

/// Default capacity of the per-registry trace-event ring. Trace events are
/// much denser than spans (one produce emits ~a dozen), so the default is
/// correspondingly larger. Override with [`Registry::set_event_capacity`].
pub const EVENT_RING_CAPACITY: usize = 1 << 16;

#[derive(Debug, Default)]
struct SpanRing {
    ring: VecDeque<SpanRecord>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct EventRing {
    ring: VecDeque<TraceEvent>,
    dropped: u64,
}

type Key = (&'static str, &'static str);

struct RegistryInner {
    counters: RefCell<Vec<(Key, Counter)>>,
    gauges: RefCell<Vec<(Key, Gauge)>>,
    histograms: RefCell<Vec<(Key, Histogram)>>,
    spans: RefCell<SpanRing>,
    span_capacity: Cell<usize>,
    /// Per-name span duration distributions, fed on every `record_span` so
    /// summaries survive ring overflow and the admin wire path.
    span_stats: RefCell<Vec<(&'static str, Histogram)>>,
    events: RefCell<EventRing>,
    event_capacity: Cell<usize>,
}

impl Default for RegistryInner {
    fn default() -> Self {
        RegistryInner {
            counters: RefCell::new(Vec::new()),
            gauges: RefCell::new(Vec::new()),
            histograms: RefCell::new(Vec::new()),
            spans: RefCell::new(SpanRing::default()),
            span_capacity: Cell::new(SPAN_RING_CAPACITY),
            span_stats: RefCell::new(Vec::new()),
            events: RefCell::new(EventRing::default()),
            event_capacity: Cell::new(EVENT_RING_CAPACITY),
        }
    }
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

    /// A registry whose span ring holds `capacity` spans before dropping the
    /// oldest. Long soak runs that must keep every critical-path span for
    /// the trace checker size this explicitly instead of relying on
    /// [`SPAN_RING_CAPACITY`].
    pub fn with_span_capacity(capacity: usize) -> Registry {
        let r = Registry::default();
        r.inner.span_capacity.set(capacity.max(1));
        r
    }

    /// Resizes the trace-event ring (existing buffered events are kept up to
    /// the new capacity; the oldest are dropped and counted).
    pub fn set_event_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.inner.event_capacity.set(capacity);
        let mut events = self.inner.events.borrow_mut();
        while events.ring.len() > capacity {
            events.ring.pop_front();
            events.dropped += 1;
        }
    }

    /// Creates and registers a fresh counter under `(component, name)`.
    pub fn counter(&self, component: &'static str, name: &'static str) -> Counter {
        let c = Counter::new();
        self.inner
            .counters
            .borrow_mut()
            .push(((component, name), c.clone()));
        c
    }

    /// Creates and registers a fresh gauge under `(component, name)`.
    pub fn gauge(&self, component: &'static str, name: &'static str) -> Gauge {
        let g = Gauge::new();
        self.inner
            .gauges
            .borrow_mut()
            .push(((component, name), g.clone()));
        g
    }

    /// A handle to the histogram cell of `(component, name)`, created and
    /// registered on first use: every caller records into the same cell.
    pub fn histogram(&self, component: &'static str, name: &'static str) -> Histogram {
        let mut histograms = self.inner.histograms.borrow_mut();
        if let Some((_, h)) = histograms.iter().find(|(k, _)| *k == (component, name)) {
            return h.clone();
        }
        let h = Histogram::new();
        histograms.push(((component, name), h.clone()));
        h
    }

    /// Records a completed span. `start`/`end` are virtual-time nanoseconds.
    pub fn record_span(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        {
            let mut stats = self.inner.span_stats.borrow_mut();
            let h = match stats.iter().find(|(n, _)| *n == name) {
                Some((_, h)) => h.clone(),
                None => {
                    let h = Histogram::new();
                    stats.push((name, h.clone()));
                    h
                }
            };
            h.record(end_ns.saturating_sub(start_ns));
        }
        let cap = self.inner.span_capacity.get();
        let mut spans = self.inner.spans.borrow_mut();
        if spans.ring.len() >= cap {
            spans.ring.pop_front();
            spans.dropped += 1;
        }
        spans.ring.push_back(SpanRecord {
            name,
            start_ns,
            end_ns,
        });
    }

    /// Records one trace event at an explicit virtual-time `ts_ns` (which
    /// may be in the future: link reservations are computed at post time).
    pub fn record_trace_event(&self, ctx: TraceCtx, ts_ns: u64, kind: EventKind) {
        let cap = self.inner.event_capacity.get();
        let mut events = self.inner.events.borrow_mut();
        if events.ring.len() >= cap {
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
    /// `SpanEnd` event plus a classic `(name, start, end)` span record.
    pub fn trace_span(&self, name: &'static str, parent: Option<TraceCtx>) -> TraceSpan {
        let ctx = match parent {
            Some(p) => TraceCtx {
                trace_id: p.trace_id,
                span_id: crate::trace::next_id(),
            },
            None => TraceCtx::root(),
        };
        let start_ns = sim::try_now().map(|t| t.as_nanos());
        if let Some(ts) = start_ns {
            self.record_trace_event(
                ctx,
                ts,
                EventKind::SpanBegin {
                    name,
                    parent: parent.map_or(0, |p| p.span_id),
                },
            );
        }
        TraceSpan {
            registry: self.clone(),
            name,
            ctx,
            start_ns,
            done: false,
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

    /// Starts a span at the current virtual time; finish it with
    /// [`SpanGuard::end`] (or let it drop). No-op outside a runtime.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            registry: self.clone(),
            name,
            start_ns: sim::try_now().map(|t| t.as_nanos()),
            done: false,
        }
    }

    /// Removes and returns all buffered spans (oldest first).
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.borrow_mut().ring.drain(..).collect()
    }

    /// Spans lost to ring overflow since the registry was created.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.spans.borrow().dropped
    }

    /// Identity of the underlying shared registry state: clones compare
    /// equal, distinct registries differ. The sampler uses this to notice a
    /// registry swap and drop its per-cell index caches.
    pub fn id(&self) -> usize {
        Rc::as_ptr(&self.inner) as usize
    }

    /// Visits every registered counter cell (not aggregated — same-named
    /// cells repeat). Allocation-free; the time-series sampler folds these
    /// into its own per-key accumulators each tick.
    pub fn fold_counters(&self, mut f: impl FnMut(Key, u64)) {
        for (key, c) in self.inner.counters.borrow().iter() {
            f(*key, c.get());
        }
    }

    /// Visits every registered gauge cell as `(key, value, peak)`.
    pub fn fold_gauges(&self, mut f: impl FnMut(Key, u64, u64)) {
        for (key, g) in self.inner.gauges.borrow().iter() {
            f(*key, g.get(), g.peak());
        }
    }

    /// Visits every registered histogram cell by reference.
    pub fn fold_histograms(&self, mut f: impl FnMut(Key, &Histogram)) {
        for (key, h) in self.inner.histograms.borrow().iter() {
            f(*key, h);
        }
    }

    /// Bucket-level snapshots of every registered histogram, sorted by
    /// `(component, name)` key. The time-series sampler diffs successive
    /// calls to get exact per-interval distributions
    /// ([`crate::hist::HistSnapshot::delta_since`]).
    pub fn merged_histograms(&self) -> Vec<(Key, crate::hist::HistSnapshot)> {
        let mut merged: Vec<(Key, crate::hist::HistSnapshot)> = self
            .inner
            .histograms
            .borrow()
            .iter()
            .map(|(key, h)| (*key, h.snapshot_data()))
            .collect();
        merged.sort_by_key(|(k, _)| *k);
        merged
    }

    /// Aggregated point-in-time report: counters summed, gauge values summed
    /// and peaks maxed per `(component, name)` key, one row per histogram
    /// cell; sorted for stable output.
    pub fn snapshot(&self) -> TelemetryReport {
        let mut counters: Vec<CounterRow> = Vec::new();
        for ((component, name), c) in self.inner.counters.borrow().iter() {
            match counters
                .iter_mut()
                .find(|r| r.component == *component && r.name == *name)
            {
                Some(row) => row.value += c.get(),
                None => counters.push(CounterRow {
                    component,
                    name,
                    value: c.get(),
                }),
            }
        }
        let mut gauges: Vec<GaugeRow> = Vec::new();
        for ((component, name), g) in self.inner.gauges.borrow().iter() {
            match gauges
                .iter_mut()
                .find(|r| r.component == *component && r.name == *name)
            {
                Some(row) => {
                    row.value += g.get();
                    row.peak = row.peak.max(g.peak());
                }
                None => gauges.push(GaugeRow {
                    component,
                    name,
                    value: g.get(),
                    peak: g.peak(),
                }),
            }
        }
        let mut histograms: Vec<HistRow> = self
            .inner
            .histograms
            .borrow()
            .iter()
            .map(|((component, name), h)| HistRow {
                component,
                name,
                stats: h.stats(),
            })
            .collect();

        counters.sort_by_key(|r| (r.component, r.name));
        gauges.sort_by_key(|r| (r.component, r.name));
        histograms.sort_by_key(|r| (r.component, r.name));

        let mut spans: Vec<SpanRow> = self
            .inner
            .span_stats
            .borrow()
            .iter()
            .map(|(name, h)| SpanRow {
                name,
                count: h.count(),
                p50_ns: h.p50(),
                p99_ns: h.p99(),
            })
            .collect();
        spans.sort_by_key(|r| r.name);

        let ring = self.inner.spans.borrow();
        TelemetryReport {
            counters,
            gauges,
            histograms,
            spans,
            spans_buffered: ring.ring.len() as u64,
            spans_dropped: ring.dropped,
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.inner.counters.borrow().len())
            .field("gauges", &self.inner.gauges.borrow().len())
            .field("histograms", &self.inner.histograms.borrow().len())
            .field("spans", &self.inner.spans.borrow().ring.len())
            .finish()
    }
}

/// In-flight span; records itself into the registry when ended or dropped.
/// Records nothing if no runtime was active when it started.
#[must_use = "a span measures until it is ended or dropped"]
pub struct SpanGuard {
    registry: Registry,
    name: &'static str,
    start_ns: Option<u64>,
    done: bool,
}

impl SpanGuard {
    /// Ends the span now (virtual time).
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        if let (Some(start), Some(now)) = (self.start_ns, sim::try_now()) {
            self.registry.record_span(self.name, start, now.as_nanos());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

/// An in-flight identified trace span (see [`Registry::trace_span`]).
/// Carries the [`TraceCtx`] to hand to children / propagate over the wire.
#[must_use = "a trace span measures until it is ended or dropped"]
pub struct TraceSpan {
    registry: Registry,
    name: &'static str,
    ctx: TraceCtx,
    start_ns: Option<u64>,
    done: bool,
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
        if self.done {
            return;
        }
        self.done = true;
        if let (Some(start), Some(now)) = (self.start_ns, sim::try_now()) {
            let end = now.as_nanos();
            self.registry
                .record_trace_event(self.ctx, end, EventKind::SpanEnd { name: self.name });
            self.registry.record_span(self.name, start, end);
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

/// The ambient registry: the innermost [`Registry::enter`] scope on this
/// thread, or a shared thread-local default. Instrumented components
/// (links, NICs, brokers) grab their handles from here at construction time.
pub fn current() -> Registry {
    STACK.with(|s| s.borrow().last().cloned())
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
            let mut snap = a.snapshot_data();
            snap.merge_from(&b.snapshot_data());
            snap
        };
        let series = SeriesLog::new(SeriesOptions::default());
        let mut last = merged();
        let mut expected = Vec::new();
        let mut v = 7u64;
        for tick in 0..6u64 {
            // A quiet tick, then growing bursts split unevenly over the two.
            for i in 0..tick * 37 {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
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
        assert_eq!(h1.count(), a.count() + b.count(), "both handles record into one cell");

        let snap = r.snapshot();
        let row = snap.histogram("netsim", "link.queue_delay_ns").unwrap();
        let reference = Histogram::new();
        reference.merge_from(&a);
        reference.merge_from(&b);
        assert_eq!(row.stats, reference.stats());
        let dump = series.dump();
        let points = &dump.histogram("netsim", "link.queue_delay_ns").unwrap().points;
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

    #[test]
    fn span_ring_bounded_drops_oldest() {
        let r = Registry::new();
        for i in 0..(SPAN_RING_CAPACITY as u64 + 10) {
            r.record_span("s", i, i + 1);
        }
        assert_eq!(r.spans_dropped(), 10);
        let spans = r.drain_spans();
        assert_eq!(spans.len(), SPAN_RING_CAPACITY);
        assert_eq!(spans[0].start_ns, 10);
        assert!(r.drain_spans().is_empty());
    }

    #[test]
    fn span_guard_records_virtual_time() {
        let r = Registry::new();
        let r2 = r.clone();
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let span = r2.span("produce");
            sim::time::sleep(std::time::Duration::from_micros(5)).await;
            span.end();
        });
        let spans = r.drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "produce");
        assert_eq!(spans[0].duration_ns(), 5_000);
    }

    #[test]
    fn span_guard_outside_runtime_is_noop() {
        let r = Registry::new();
        drop(r.span("x"));
        assert!(r.drain_spans().is_empty());
    }

    #[test]
    fn span_capacity_is_configurable() {
        let r = Registry::with_span_capacity(8);
        for i in 0..10u64 {
            r.record_span("s", i, i + 1);
        }
        assert_eq!(r.spans_dropped(), 2);
        assert_eq!(r.drain_spans().len(), 8);
    }

    #[test]
    fn span_summaries_survive_ring_overflow() {
        let r = Registry::with_span_capacity(4);
        for i in 0..100u64 {
            r.record_span("s", 0, 1_000 * (i + 1));
        }
        let snap = r.snapshot();
        let row = snap.span("s").expect("summary row");
        assert_eq!(row.count, 100);
        assert!(row.p50_ns > 0);
        assert!(row.p99_ns >= row.p50_ns);
    }

    #[test]
    fn event_ring_bounded_drops_oldest() {
        let r = Registry::new();
        r.set_event_capacity(4);
        let ctx = TraceCtx::root();
        for i in 0..6u64 {
            r.record_trace_event(ctx, i, EventKind::CpuCopy { site: "t", bytes: i });
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
        let spans = r.drain_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.name == "broker.commit" && s.duration_ns() == 3_000));
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
