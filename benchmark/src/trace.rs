//! What the traced repeat yields: the drained `kdtelem` event log folded
//! into per-stage virtual time (`critpath`), checked (`check`), digested,
//! joined with kdmark's own spans and written as Chrome trace-event JSON.

use std::collections::{HashMap, HashSet};

use kdtelem::critpath::{self, Stage};
use kdtelem::{EventKind, TraceEvent};

use crate::json::Json;
use crate::probe::{Probe, Span, NO_SPAN};

/// `kdtelem::check` and the Chrome export are limited to the lifelines of
/// the first this-many offsets the measured region touches in every stream: `check` scans the whole log
/// once per lifeline, and a 30 MB trace file per workload helps nobody.
/// Attribution (`critpath`) and the digest use every event.
const SAMPLE_OFFSETS: u64 = 512;

pub struct TraceData {
    /// Events of the measured region / of set-up.
    pub events: usize,
    pub setup_events: usize,
    pub dropped: u64,
    /// `kdtelem::canonical_trace_digest` of the measured region.
    pub digest: u64,
    /// Committing (produce-rooted) lifelines and their per-stage totals.
    pub lifelines: u64,
    stage_totals: Vec<(Stage, u64)>,
    pub critpath_errors: Vec<String>,
    pub check_violations: Vec<String>,
    pub checked_events: usize,
    /// Registry readings over the measured region (the gauge peak: over the
    /// whole repeat).
    pub cq_batch: Option<kdtelem::HistStats>,
    pub repl_lag_peak: Option<u64>,
    pub rnr_events: u64,
    /// Host ns of the measured region spent in `kdclient`/`core` futures and
    /// in kdmark's own code.
    pub client_host_ns: u64,
    pub loadgen_host_ns: u64,
    spans: Vec<Span>,
    sample: Vec<TraceEvent>,
}

/// Registry readings taken when set-up ends, so that what the measured
/// region added can be told from what the warm-up sends left behind.
pub struct Baseline {
    setup_events: Vec<TraceEvent>,
    cq_batch: Option<kdtelem::HistSnapshot>,
    rnr_events: u64,
}

fn cq_batch(registry: &kdtelem::Registry) -> Option<kdtelem::HistSnapshot> {
    registry
        .merged_histograms()
        .into_iter()
        .find(|(key, _)| *key == ("kdbroker", "cq.batch"))
        .map(|(_, snapshot)| snapshot)
}

fn rnr_events(registry: &kdtelem::Registry) -> u64 {
    registry
        .snapshot()
        .counter("rnic", "srq.rnr_dry")
        .unwrap_or(0)
}

impl Baseline {
    /// Drains the set-up lifelines (topic creation, preload, warm-up): they
    /// are not part of the measured region's attribution.
    pub fn take(registry: &kdtelem::Registry) -> Baseline {
        Baseline {
            setup_events: registry.drain_trace_events(),
            cq_batch: cq_batch(registry),
            rnr_events: rnr_events(registry),
        }
    }
}

impl TraceData {
    pub fn collect(registry: &kdtelem::Registry, before: Baseline, probe: &Probe) -> TraceData {
        let Baseline {
            setup_events,
            cq_batch: cq_before,
            rnr_events: rnr_before,
        } = before;
        let events = registry.drain_trace_events();
        let report = critpath::analyze(&events);
        let cq_delta = match (cq_batch(registry), cq_before) {
            (Some(now), Some(before)) => Some(now.delta_since(&before)),
            (now, _) => now,
        };

        // The sampled lifelines: set-up commits are kept so a fetch of the
        // measured region finds the commit of what it read.
        let cuts = sample_cuts(&events);
        let mut sample = sample_lifelines(&setup_events, &cuts, |k| {
            matches!(k, EventKind::Commit { .. })
        });
        sample.extend(sample_lifelines(&events, &cuts, |_| true));
        let check = kdtelem::check::check(&sample);

        TraceData {
            events: events.len(),
            setup_events: setup_events.len(),
            dropped: registry.trace_events_dropped(),
            digest: kdtelem::canonical_trace_digest(&events),
            lifelines: report.lifelines.len() as u64,
            stage_totals: critpath::STAGES
                .iter()
                .map(|&s| (s, report.stage_total(s)))
                .collect(),
            critpath_errors: report.errors,
            check_violations: check.violations,
            checked_events: sample.len(),
            cq_batch: cq_delta.filter(|h| h.count() > 0).map(|h| h.stats()),
            repl_lag_peak: registry
                .snapshot()
                .gauge("kdbroker", "repl.lag")
                .map(|g| g.peak),
            rnr_events: rnr_events(registry) - rnr_before,
            client_host_ns: probe.client_host_ns(),
            loadgen_host_ns: probe.loadgen_host_ns(),
            spans: Vec::new(),
            sample,
        }
    }

    /// kdmark's spans are complete only once the repeat has ended.
    pub fn attach_spans(&mut self, spans: Vec<Span>) {
        self.spans = spans;
    }

    /// Drops the spans and sampled events, keeping the numbers: only the last
    /// traced repeat of a run is exported.
    pub fn shed(&mut self) {
        self.spans = Vec::new();
        self.sample = Vec::new();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Virtual ns per committing lifeline spent in `stage`; `None` when the
    /// measured region committed nothing (no produce-rooted lifeline).
    pub fn stage_ns_per_record(&self, stage: Stage) -> Option<f64> {
        if self.lifelines == 0 {
            return None;
        }
        let total = self.stage_totals.iter().find(|(s, _)| *s == stage)?.1;
        Some(total as f64 / self.lifelines as f64)
    }

    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.dropped > 0 {
            out.push(format!(
                "{} trace events dropped: ring too small",
                self.dropped
            ));
        }
        out.extend(
            self.critpath_errors
                .iter()
                .map(|e| format!("critpath: {e}")),
        );
        out.extend(self.check_violations.iter().map(|v| format!("check: {v}")));
        out
    }

    /// Chrome trace-event JSON: the sampled `kdtelem` lifelines (pid 1, as
    /// `kdtelem::chrome` lays them out) plus kdmark's spans (pid 2: one row
    /// on the virtual clock, one on the host clock).
    pub fn chrome_json(&self) -> String {
        let base = kdtelem::chrome::to_chrome_json(&self.sample);
        let body = base
            .trim_end()
            .strip_suffix("]}")
            .expect("kdtelem chrome document ends with ]}")
            .trim_end();
        let mut out = String::with_capacity(body.len() + self.spans.len() * 160);
        out.push_str(body);
        for (tid, name) in [
            (1, "kdmark spans (virtual clock)"),
            (2, "kdmark spans (host clock)"),
        ] {
            out.push_str(",\n");
            out.push_str(
                &Json::obj([
                    ("name", Json::str("thread_name")),
                    ("ph", Json::str("M")),
                    ("pid", Json::Num(2.0)),
                    ("tid", Json::Num(f64::from(tid))),
                    ("args", Json::obj([("name", Json::str(name))])),
                ])
                .emit(),
            );
        }
        // Per-record spans outside the sample are dropped like the lifelines
        // they belong to; structural spans (no sequence number) are all kept.
        // The sample starts at the first record of the measured region,
        // whose spans hang off a phase span.
        let first = self
            .spans
            .iter()
            .filter(|s| s.seq != u64::MAX && s.parent != NO_SPAN)
            .map(|s| s.seq)
            .min()
            .unwrap_or(0);
        let sampled = first..first + SAMPLE_OFFSETS;
        for (id, s) in self.spans.iter().enumerate() {
            if s.seq != u64::MAX && !sampled.contains(&s.seq) {
                continue;
            }
            for (tid, start, end) in [(1, s.v_start_ns, s.v_end_ns), (2, s.h_start_ns, s.h_end_ns)]
            {
                out.push_str(",\n");
                let mut args = vec![("span", Json::Num(id as f64))];
                if s.parent != NO_SPAN {
                    args.push(("parent", Json::Num(f64::from(s.parent))));
                }
                if s.seq != u64::MAX {
                    args.push(("seq", Json::Num(s.seq as f64)));
                }
                out.push_str(
                    &Json::obj([
                        ("name", Json::str(s.name)),
                        ("cat", Json::str("kdmark")),
                        ("ph", Json::str("X")),
                        ("ts", Json::Num(start as f64 / 1e3)),
                        ("dur", Json::Num(end.saturating_sub(start) as f64 / 1e3)),
                        ("pid", Json::Num(2.0)),
                        ("tid", Json::Num(f64::from(tid))),
                        ("args", Json::obj(args)),
                    ])
                    .emit(),
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `(stream, first offset, end offset)` of a commit or a served fetch.
fn offsets(kind: &EventKind) -> Option<(u64, u64, u64)> {
    match *kind {
        EventKind::Commit {
            stream,
            base_offset,
            next_offset,
        } => Some((stream, base_offset, next_offset)),
        EventKind::FetchServed {
            stream,
            start_offset,
            next_offset,
            ..
        } => Some((stream, start_offset, next_offset)),
        _ => None,
    }
}

/// Per stream, the offset at which the sample ends: [`SAMPLE_OFFSETS`] past
/// the first offset the measured region touches.
fn sample_cuts(measured: &[TraceEvent]) -> HashMap<u64, u64> {
    let mut first: HashMap<u64, u64> = HashMap::new();
    for (stream, start, _) in measured.iter().filter_map(|e| offsets(&e.kind)) {
        first
            .entry(stream)
            .and_modify(|f| *f = (*f).min(start))
            .or_insert(start);
    }
    first.values_mut().for_each(|f| *f += SAMPLE_OFFSETS);
    first
}

/// Events of every lifeline that commits or fetches only offsets below its
/// stream's cut, restricted to kinds `keep` accepts.
fn sample_lifelines(
    events: &[TraceEvent],
    cuts: &HashMap<u64, u64>,
    keep: impl Fn(&EventKind) -> bool,
) -> Vec<TraceEvent> {
    let mut inside: HashSet<u64> = HashSet::new();
    let mut outside: HashSet<u64> = HashSet::new();
    for e in events {
        let Some((stream, _, end)) = offsets(&e.kind) else {
            continue;
        };
        if cuts.get(&stream).is_some_and(|cut| end <= *cut) {
            inside.insert(e.trace_id);
        } else {
            outside.insert(e.trace_id);
        }
    }
    events
        .iter()
        .filter(|e| inside.contains(&e.trace_id) && !outside.contains(&e.trace_id) && keep(&e.kind))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace_id: u64, ts_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            trace_id,
            span_id: trace_id,
            ts_ns,
            kind,
        }
    }

    #[test]
    fn sample_keeps_whole_lifelines_below_the_cut() {
        let commit = |next| EventKind::Commit {
            stream: 1,
            base_offset: next - 1,
            next_offset: next,
        };
        let events = vec![
            ev(1, 0, EventKind::WqePosted { qpn: 1, ticket: 1 }),
            ev(1, 5, commit(1)),
            ev(2, 6, EventKind::WqePosted { qpn: 1, ticket: 2 }),
            ev(2, 9, commit(SAMPLE_OFFSETS + 1)),
            ev(3, 10, EventKind::WqePosted { qpn: 7, ticket: 1 }), // control traffic
        ];
        let cuts = sample_cuts(&events);
        assert_eq!(cuts[&1], SAMPLE_OFFSETS, "the region starts at offset 0");
        let s = sample_lifelines(&events, &cuts, |_| true);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|e| e.trace_id == 1));
        let commits_only =
            sample_lifelines(&events, &cuts, |k| matches!(k, EventKind::Commit { .. }));
        assert_eq!(commits_only.len(), 1);
        // A region that starts late is sampled from where it starts.
        let late = vec![
            ev(9, 1, commit(5_001)),
            ev(10, 2, commit(5_002 + SAMPLE_OFFSETS)),
        ];
        let cuts = sample_cuts(&late);
        assert_eq!(sample_lifelines(&late, &cuts, |_| true).len(), 1);
    }
}
