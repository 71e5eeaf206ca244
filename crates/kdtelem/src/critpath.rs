//! Critical-path attribution: folds trace lifelines into per-stage latency.
//!
//! Every committing lifeline (a trace containing a `Commit` event) is sorted
//! by timestamp and each inter-event gap is attributed to the stage *ending*
//! at the later event: the time before a `WqePosted` is client staging, the
//! time before a `PacketDelivered` is link serialization/propagation, the
//! time before a `Commit` is broker CQ wait + commit work, and so on. A
//! `PacketEnqueued` gap is split using the event's own `queue_ns` into link
//! queueing versus doorbell/send-path time.
//!
//! Because gaps partition the lifeline, the per-stage sums reconcile with
//! the end-to-end latency *exactly* (`Σ stage_ns == last.ts - first.ts`);
//! the analyzer checks this invariant itself and reports violations in
//! [`CritPathReport::errors`]. The report names the dominant stage and
//! exports folded stacks for flamegraph tooling.

use std::collections::BTreeMap;

use crate::trace::{EventKind, TraceEvent};

/// Datapath stages latency is attributed to, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Client work before the WQE hits the send queue.
    ClientStaging,
    /// Doorbell/send path: from posting to the message reaching a link.
    Doorbell,
    /// Waiting behind earlier reservations on a link.
    LinkQueue,
    /// Serialization + propagation across a link.
    LinkPropagation,
    /// Delivery to CQE: NIC service + completion-queue wait.
    NicService,
    /// From the last causally-preceding event to the durable commit:
    /// broker CQ drain + commit lock + log append.
    Commit,
    /// Commit to replication ack (RF>1 push replication).
    Replication,
    /// Serving a fetch.
    Fetch,
    /// Gap ending in a CPU copy (TCP path's socket-receive / log-append).
    CpuCopy,
    /// Final completion back to the client's span end (ack delivery).
    Ack,
    /// Span bookkeeping and scheduling gaps not ending in a datapath event.
    Sched,
}

/// All stages, in display/pipeline order.
pub const STAGES: [Stage; 11] = [
    Stage::ClientStaging,
    Stage::Doorbell,
    Stage::LinkQueue,
    Stage::LinkPropagation,
    Stage::NicService,
    Stage::Commit,
    Stage::Replication,
    Stage::Fetch,
    Stage::CpuCopy,
    Stage::Ack,
    Stage::Sched,
];

pub const NUM_STAGES: usize = STAGES.len();

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::ClientStaging => "client_staging",
            Stage::Doorbell => "doorbell",
            Stage::LinkQueue => "link_queue",
            Stage::LinkPropagation => "link_propagation",
            Stage::NicService => "nic_service",
            Stage::Commit => "commit",
            Stage::Replication => "replication",
            Stage::Fetch => "fetch",
            Stage::CpuCopy => "cpu_copy",
            Stage::Ack => "ack",
            Stage::Sched => "sched",
        }
    }

    /// The stage's position in [`STAGES`], which lists the variants in
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-lifeline attribution: one committing trace's total latency split
/// across stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lifeline {
    pub trace_id: u64,
    /// First-to-last event time; equals the root span duration when the
    /// lifeline is bracketed by `SpanBegin`/`SpanEnd`.
    pub total_ns: u64,
    pub stage_ns: [u64; NUM_STAGES],
    /// CPU copies on a broker site (`CpuCopy` events with a `broker.` site).
    pub broker_copies: u64,
    pub commits: u64,
}

impl Lifeline {
    pub fn stage(&self, s: Stage) -> u64 {
        self.stage_ns[s.index()]
    }
}

/// The analyzer's output: per-lifeline splits, workload-wide stage totals,
/// and any reconciliation errors (there should be none).
#[derive(Debug, Clone, Default)]
pub struct CritPathReport {
    pub lifelines: Vec<Lifeline>,
    pub stage_totals: [u64; NUM_STAGES],
    /// Sum of every lifeline's `total_ns`.
    pub total_ns: u64,
    pub errors: Vec<String>,
}

impl CritPathReport {
    pub fn stage_total(&self, s: Stage) -> u64 {
        self.stage_totals[s.index()]
    }

    /// The stage carrying the most total latency across the workload.
    pub fn dominant(&self) -> Option<(Stage, u64)> {
        STAGES
            .iter()
            .map(|&s| (s, self.stage_total(s)))
            .max_by_key(|&(_, ns)| ns)
            .filter(|&(_, ns)| ns > 0)
    }

    /// Mean end-to-end latency per committing lifeline, in nanoseconds.
    pub fn mean_total_ns(&self) -> f64 {
        if self.lifelines.is_empty() {
            0.0
        } else {
            self.total_ns as f64 / self.lifelines.len() as f64
        }
    }

    /// Folded-stack lines (`workload;stage total_ns`) for flamegraph
    /// tooling: one line per stage with nonzero total.
    pub fn folded(&self, workload: &str) -> String {
        let mut out = String::new();
        for &s in &STAGES {
            let ns = self.stage_total(s);
            if ns > 0 {
                out.push_str(&format!("{workload};{} {ns}\n", s.name()));
            }
        }
        out
    }

    /// Aligned per-stage summary table (totals, share, per-record mean).
    pub fn to_table(&self) -> String {
        let n = self.lifelines.len().max(1) as f64;
        let mut out = format!(
            "critical path: {} committing lifelines, {:.2}us mean e2e\n",
            self.lifelines.len(),
            self.mean_total_ns() / 1_000.0
        );
        out.push_str(&format!(
            "{:<18} {:>12} {:>7} {:>12}\n",
            "stage", "total_us", "share", "mean_us"
        ));
        for &s in &STAGES {
            let ns = self.stage_total(s);
            if ns == 0 {
                continue;
            }
            let share = if self.total_ns == 0 {
                0.0
            } else {
                ns as f64 / self.total_ns as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<18} {:>12.2} {:>6.1}% {:>12.3}\n",
                s.name(),
                ns as f64 / 1_000.0,
                share,
                ns as f64 / n / 1_000.0
            ));
        }
        if let Some((s, _)) = self.dominant() {
            out.push_str(&format!("dominant stage: {}\n", s.name()));
        }
        for e in &self.errors {
            out.push_str(&format!("ERROR: {e}\n"));
        }
        out
    }

    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Stage of the gap *ending* at this event.
fn stage_of(kind: &EventKind, is_last: bool) -> Stage {
    match kind {
        EventKind::WqePosted { .. } => Stage::ClientStaging,
        EventKind::PacketEnqueued { .. } => Stage::Doorbell, // split vs queue_ns below
        EventKind::PacketDelivered { .. } => Stage::LinkPropagation,
        EventKind::Completion { .. } => Stage::NicService,
        EventKind::Commit { .. } => Stage::Commit,
        EventKind::ReplAck { .. } => Stage::Replication,
        EventKind::FetchServed { .. } => Stage::Fetch,
        EventKind::CpuCopy { .. } => Stage::CpuCopy,
        EventKind::SpanEnd { .. } if is_last => Stage::Ack,
        EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. } => Stage::Sched,
    }
}

/// Folds a drained trace-event log into per-stage attribution over every
/// committing lifeline. Non-committing lifelines (pure fetches, control
/// traffic) are ignored.
pub fn analyze(events: &[TraceEvent]) -> CritPathReport {
    // Group by trace id, preserving drain order within a lifeline.
    let mut by_trace: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace_id).or_default().push(e);
    }

    let mut report = CritPathReport::default();
    for (trace_id, mut evs) in by_trace {
        let commits = evs
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Commit { .. }))
            .count() as u64;
        if commits == 0 {
            continue;
        }
        // Events carry explicit timestamps that can be recorded out of order
        // (link reservations are computed at post time); sort stable so
        // same-timestamp events keep their causal drain order.
        evs.sort_by_key(|e| e.ts_ns);

        let (Some(first), Some(last)) = (evs.first(), evs.last()) else {
            continue;
        };
        let total_ns = last.ts_ns.saturating_sub(first.ts_ns);
        let mut stage_ns = [0u64; NUM_STAGES];
        let mut broker_copies = 0u64;
        for (i, pair) in evs.windows(2).enumerate() {
            let (a, b) = (pair[0], pair[1]);
            let gap = b.ts_ns.saturating_sub(a.ts_ns);
            let is_last = i + 2 == evs.len();
            match b.kind {
                EventKind::PacketEnqueued { queue_ns, .. } => {
                    let queued = queue_ns.min(gap);
                    stage_ns[Stage::LinkQueue.index()] += queued;
                    stage_ns[Stage::Doorbell.index()] += gap - queued;
                }
                ref kind => stage_ns[stage_of(kind, is_last).index()] += gap,
            }
            if let EventKind::CpuCopy { site, .. } = b.kind {
                if site.starts_with("broker") {
                    broker_copies += 1;
                }
            }
        }
        // First event may itself be a broker copy (no preceding gap).
        if let EventKind::CpuCopy { site, .. } = evs[0].kind {
            if site.starts_with("broker") {
                broker_copies += 1;
            }
        }

        let sum: u64 = stage_ns.iter().sum();
        if sum != total_ns {
            report.errors.push(format!(
                "lifeline {trace_id}: stage sum {sum} != end-to-end {total_ns}"
            ));
        }
        for (acc, ns) in report.stage_totals.iter_mut().zip(&stage_ns) {
            *acc += ns;
        }
        report.total_ns += total_ns;
        report.lifelines.push(Lifeline {
            trace_id,
            total_ns,
            stage_ns,
            broker_copies,
            commits,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCtx;

    fn ev(trace_id: u64, ts_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            trace_id,
            span_id: trace_id,
            ts_ns,
            kind,
        }
    }

    #[test]
    fn stages_are_listed_in_declaration_order() {
        for (i, stage) in STAGES.iter().enumerate() {
            assert_eq!(stage.index(), i, "{}", stage.name());
        }
    }

    #[test]
    fn rdma_lifeline_partitions_exactly() {
        // SpanBegin(0) → WqePosted(100) → PacketEnqueued(150, 20 queued) →
        // PacketDelivered(400) → Completion(450) → Commit(500) → SpanEnd(600)
        let events = vec![
            ev(
                1,
                0,
                EventKind::SpanBegin {
                    name: "client.produce",
                    parent: 0,
                },
            ),
            ev(1, 100, EventKind::WqePosted { qpn: 1, ticket: 1 }),
            ev(
                1,
                150,
                EventKind::PacketEnqueued {
                    node: 0,
                    egress: true,
                    bytes: 64,
                    queue_ns: 20,
                },
            ),
            ev(
                1,
                400,
                EventKind::PacketDelivered {
                    node: 1,
                    egress: false,
                    bytes: 64,
                },
            ),
            ev(
                1,
                450,
                EventKind::Completion {
                    qpn: 1,
                    ticket: 1,
                    opcode: "write",
                    ok: true,
                },
            ),
            ev(
                1,
                500,
                EventKind::Commit {
                    stream: 9,
                    base_offset: 0,
                    next_offset: 1,
                },
            ),
            ev(
                1,
                600,
                EventKind::SpanEnd {
                    name: "client.produce",
                },
            ),
        ];
        let r = analyze(&events);
        assert!(r.ok(), "{:?}", r.errors);
        assert_eq!(r.lifelines.len(), 1);
        let l = &r.lifelines[0];
        assert_eq!(l.total_ns, 600);
        assert_eq!(l.stage(Stage::ClientStaging), 100);
        assert_eq!(l.stage(Stage::LinkQueue), 20);
        assert_eq!(l.stage(Stage::Doorbell), 30);
        assert_eq!(l.stage(Stage::LinkPropagation), 250);
        assert_eq!(l.stage(Stage::NicService), 50);
        assert_eq!(l.stage(Stage::Commit), 50);
        assert_eq!(l.stage(Stage::Ack), 100);
        assert_eq!(l.stage_ns.iter().sum::<u64>(), l.total_ns);
        assert_eq!(l.broker_copies, 0);
        assert_eq!(r.dominant().unwrap().0, Stage::LinkPropagation);
    }

    #[test]
    fn tcp_copies_are_attributed() {
        let events = vec![
            ev(
                2,
                0,
                EventKind::SpanBegin {
                    name: "client.produce",
                    parent: 0,
                },
            ),
            ev(
                2,
                50,
                EventKind::CpuCopy {
                    site: "broker.net_recv",
                    bytes: 64,
                },
            ),
            ev(
                2,
                80,
                EventKind::CpuCopy {
                    site: "broker.log_append",
                    bytes: 64,
                },
            ),
            ev(
                2,
                120,
                EventKind::Commit {
                    stream: 9,
                    base_offset: 0,
                    next_offset: 1,
                },
            ),
            ev(
                2,
                200,
                EventKind::SpanEnd {
                    name: "client.produce",
                },
            ),
        ];
        let r = analyze(&events);
        assert!(r.ok(), "{:?}", r.errors);
        let l = &r.lifelines[0];
        assert_eq!(l.broker_copies, 2);
        assert_eq!(l.stage(Stage::CpuCopy), 80);
        assert_eq!(l.stage(Stage::Commit), 40);
        assert_eq!(l.stage(Stage::Ack), 80);
    }

    #[test]
    fn non_committing_lifelines_are_ignored() {
        let events = vec![
            ev(
                3,
                0,
                EventKind::SpanBegin {
                    name: "client.fetch",
                    parent: 0,
                },
            ),
            ev(
                3,
                100,
                EventKind::SpanEnd {
                    name: "client.fetch",
                },
            ),
        ];
        let r = analyze(&events);
        assert!(r.lifelines.is_empty());
        assert_eq!(r.dominant(), None);
        assert_eq!(r.mean_total_ns(), 0.0);
    }

    #[test]
    fn out_of_order_timestamps_are_sorted_before_attribution() {
        // Link reservation recorded "in the future" before the commit event
        // lands in the ring.
        let events = vec![
            ev(
                4,
                0,
                EventKind::SpanBegin {
                    name: "p",
                    parent: 0,
                },
            ),
            ev(
                4,
                300,
                EventKind::PacketDelivered {
                    node: 1,
                    egress: false,
                    bytes: 8,
                },
            ),
            ev(
                4,
                100,
                EventKind::PacketEnqueued {
                    node: 0,
                    egress: true,
                    bytes: 8,
                    queue_ns: 0,
                },
            ),
            ev(
                4,
                400,
                EventKind::Commit {
                    stream: 1,
                    base_offset: 0,
                    next_offset: 1,
                },
            ),
        ];
        let r = analyze(&events);
        assert!(r.ok(), "{:?}", r.errors);
        let l = &r.lifelines[0];
        assert_eq!(l.stage(Stage::Doorbell), 100);
        assert_eq!(l.stage(Stage::LinkPropagation), 200);
        assert_eq!(l.stage(Stage::Commit), 100);
    }

    #[test]
    fn folded_and_table_render() {
        let ctx = TraceCtx {
            trace_id: 5,
            span_id: 5,
        };
        let events = vec![
            ev(
                ctx.trace_id,
                0,
                EventKind::SpanBegin {
                    name: "p",
                    parent: 0,
                },
            ),
            ev(
                ctx.trace_id,
                70,
                EventKind::Commit {
                    stream: 1,
                    base_offset: 0,
                    next_offset: 1,
                },
            ),
            ev(ctx.trace_id, 100, EventKind::SpanEnd { name: "p" }),
        ];
        let r = analyze(&events);
        let folded = r.folded("produce");
        assert!(folded.contains("produce;commit 70"));
        assert!(folded.contains("produce;ack 30"));
        let table = r.to_table();
        assert!(table.contains("dominant stage: commit"));
        assert!(table.contains("share"));
    }
}
