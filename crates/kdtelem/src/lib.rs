//! `kdtelem` — the observability substrate for the KafkaDirect reproduction.
//!
//! Every headline result in the paper is an observability artifact: Fig 10–20
//! are latency/throughput distributions, §5.1's CPU-load reduction and §5.3's
//! "no CPU involvement" are resource-accounting claims. This crate gives the
//! simulation the instruments to *assert* those claims in tests rather than
//! eyeball them. Each thing is said once:
//!
//! * [`Registry`] — counters, gauges and histograms, one entry per
//!   `(component, name)` (metric names follow a `component` +
//!   `subsystem.metric` schema, e.g. `kdbroker` / `rdma.commits`; DESIGN.md
//!   tables the inventory and a test holds the two equal). Handles are
//!   cells owned by whoever reads them; readers aggregate an entry's cells.
//! * [`Histogram`] — one log-linear (HDR-style) bucket array,
//!   [`HistSnapshot`], plus the true min and max: ~6% relative error,
//!   mergeable, exact interval deltas. A duration worth keeping is a
//!   histogram.
//! * Traces ([`trace`]) — typed lifeline events ([`EventKind`]) in a bounded
//!   ring, tagged with a [`TraceCtx`] that components propagate across
//!   simulated process boundaries (kdwire frame headers on TCP, WR context
//!   on verbs). A span is its `SpanBegin`/`SpanEnd` pair, nothing more. One
//!   table of variants gives each kind's name, digest input and Chrome args.
//! * Readers of a trace: a happens-before checker ([`check`]), a
//!   critical-path analyzer ([`critpath`]) whose per-stage sums reconcile
//!   exactly with end-to-end latency, a Perfetto-loadable exporter
//!   ([`chrome`]) and [`canonical_trace_digest`].
//! * Continuous telemetry: a wheel-driven sampler cutting one point per
//!   registry entry per tick into bounded rings ([`series`]), and stall
//!   detection and failover MTTR read from the recorded series
//!   ([`health()`]).
//! * Export: [`TelemetryReport`] (text table or JSON lines), the series dump
//!   (`KD_SERIES`, read back by `kdtop`) and the Chrome trace all write
//!   through one JSON codec, which reads the series and the trace back.
//!
//! The ambient registry ([`current`] / [`enter`]) lets deeply buried
//! components (a `netsim` link, an rnic CQ) pick up instruments without
//! threading a handle through every constructor. Tests that need isolation
//! enter their own registry for the duration of a runtime.
//!
//! Zero external dependencies; the only in-tree dependency is `sim` for the
//! virtual clock.

pub mod check;
pub mod chrome;
pub mod critpath;
mod health;
mod hist;
pub mod json;
mod registry;
mod report;
pub mod series;
pub mod trace;

pub use health::{health, Health, HealthEvent, HealthKind};
pub use hist::{HistSnapshot, HistStats, Histogram};
pub use registry::{current, enter, Counter, Gauge, Registry, ScopeGuard, TraceSpan};
pub use report::{CounterRow, GaugeRow, HistRow, TelemetryReport};
pub use series::{Sampler, SeriesDump, SeriesLog, SeriesOptions};
pub use trace::{
    canonical_trace_digest, current_ctx, enter_ctx, reset_trace_ids, stream_key, CtxGuard,
    EventKind, TraceCtx, TraceEvent,
};
