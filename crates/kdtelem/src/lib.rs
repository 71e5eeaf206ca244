//! `kdtelem` — the observability substrate for the KafkaDirect reproduction.
//!
//! Every headline result in the paper is an observability artifact: Fig 10–20
//! are latency/throughput distributions, §5.1's CPU-load reduction and §5.3's
//! "no CPU involvement" are resource-accounting claims. This crate gives the
//! simulation the instruments to *assert* those claims in tests rather than
//! eyeball them:
//!
//! * [`Histogram`] — log-linear (HDR-style) latency histograms stamped from
//!   `sim` virtual time: p50/p90/p99/max, mergeable, ~6% relative error.
//! * Spans — lightweight `(name, start, end)` records for the
//!   produce → replicate → consume critical path, kept in a bounded
//!   per-registry ring that tests can [`Registry::drain_spans`].
//! * [`Registry`] — named counters/gauges/histograms grouped by component
//!   (`rnic`, `netsim`, `broker`, `client`). Handles are private cells;
//!   snapshots aggregate same-named instruments across owners.
//! * [`TelemetryReport`] — text-table and JSON-lines export, shipped over the
//!   admin path (`Request::Telemetry`) and printed by the bench harness.
//!
//! The ambient registry ([`current`] / [`enter`]) lets deeply buried
//! components (a `netsim` link, an rnic CQ) pick up instruments without
//! threading a handle through every constructor. Tests that need isolation
//! enter their own registry for the duration of a runtime.
//!
//! Zero external dependencies; the only in-tree dependency is `sim` for the
//! virtual clock.

//!
//! PR 2 adds **causal traces** on top: identified spans
//! (`id`/`parent`/`trace_id`), typed lifeline events ([`trace::EventKind`]),
//! a [`TraceCtx`] that components propagate across simulated process
//! boundaries (kdwire frame headers on TCP, WR context on verbs), a
//! Perfetto-loadable Chrome trace-event exporter ([`chrome`]), and a
//! happens-before invariant checker ([`check`]).
//!
//! PR 6 adds **continuous telemetry** on top of both: a virtual-time
//! time-series recorder ([`series`] — a wheel-driven sampler snapshotting
//! every instrument into bounded rings, with exact per-interval histogram
//! deltas), a critical-path analyzer ([`critpath`] — folds trace lifelines
//! into per-stage latency attribution whose sums reconcile exactly with
//! end-to-end latency), and a health watchdog ([`health`] — stall
//! detection, failover MTTR, typed health events). Metric names follow a
//! `component` + `subsystem.metric` schema (e.g. `kdbroker` /
//! `rdma.commits`); the full inventory is tabled in DESIGN.md.

pub mod check;
pub mod chrome;
pub mod critpath;
pub mod health;
mod hist;
mod registry;
mod report;
pub mod series;
pub mod trace;

pub use hist::{HistSnapshot, HistStats, Histogram};
pub use registry::{
    current, enter, Counter, Gauge, Registry, ScopeGuard, SpanGuard, SpanRecord, TraceSpan,
    EVENT_RING_CAPACITY, SPAN_RING_CAPACITY,
};
pub use report::{CounterRow, GaugeRow, HistRow, SpanRow, TelemetryReport};
pub use series::{Sampler, SeriesDump, SeriesLog, SeriesOptions};
pub use health::{HealthEvent, HealthKind, Watchdog, WatchdogOptions};
pub use trace::{
    canonical_trace_digest, current_ctx, enter_ctx, reset_trace_ids, stream_key, CtxGuard,
    EventKind, TraceCtx, TraceEvent,
};
