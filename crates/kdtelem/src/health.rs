//! Live health watchdog: stall detection and failover MTTR on virtual time.
//!
//! A [`Watchdog`] polls the registry on the timer wheel and watches the
//! broker's commit counters as *progress*. If their sum stops increasing for
//! longer than a virtual-time budget it emits a typed
//! [`HealthEvent::Stall`]; the first subsequent increase emits `Recovered`.
//! It also watches kdfault's broker-crash injections: the interval from a
//! crash to the first post-crash progress is reported as `Mttr` — the
//! failover mean-time-to-recovery the chaos soak asserts on.
//!
//! Resolution is the poll period: the watchdog sees counters only at poll
//! ticks, so stall onsets and MTTR endpoints are quantised to it. Events are
//! kept in a bounded ring and also exported/parsed as JSON lines for the
//! admin wire path (`Request::Health`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use crate::json::{self, Obj};
use crate::registry::{counter_total, Counter, Key, Registry};

/// What happened, stamped with the poll tick that observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthKind {
    /// No progress since `since_ns` for at least `budget_ns`.
    Stall { since_ns: u64, budget_ns: u64 },
    /// Progress resumed after a stall that lasted `stalled_ns`.
    Recovered { stalled_ns: u64 },
    /// First progress after a crash observed at `crash_ns`.
    Mttr { crash_ns: u64, mttr_ns: u64 },
}

/// One typed health event at virtual time `ts_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    pub ts_ns: u64,
    pub kind: HealthKind,
}

/// Serialises health events as JSON lines (one object per event).
pub fn to_json_lines(events: &[HealthEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let o = Obj::new(&mut out);
        match e.kind {
            HealthKind::Stall { since_ns, budget_ns } => o
                .str("kind", "stall")
                .num("ts_ns", e.ts_ns)
                .num("since_ns", since_ns)
                .num("budget_ns", budget_ns),
            HealthKind::Recovered { stalled_ns } => o
                .str("kind", "recovered")
                .num("ts_ns", e.ts_ns)
                .num("stalled_ns", stalled_ns),
            HealthKind::Mttr { crash_ns, mttr_ns } => o
                .str("kind", "mttr")
                .num("ts_ns", e.ts_ns)
                .num("crash_ns", crash_ns)
                .num("mttr_ns", mttr_ns),
        }
        .line();
    }
    out
}

/// Parses the output of [`to_json_lines`] (empty input → empty vec).
pub fn from_json_lines(text: &str) -> Option<Vec<HealthEvent>> {
    let mut events = Vec::new();
    for f in json::lines(text) {
        let f = f?;
        let ts_ns = f.u64("ts_ns")?;
        let kind = match f.str("kind")?.as_str() {
            "stall" => HealthKind::Stall {
                since_ns: f.u64("since_ns")?,
                budget_ns: f.u64("budget_ns")?,
            },
            "recovered" => HealthKind::Recovered {
                stalled_ns: f.u64("stalled_ns")?,
            },
            "mttr" => HealthKind::Mttr {
                crash_ns: f.u64("crash_ns")?,
                mttr_ns: f.u64("mttr_ns")?,
            },
            _ => return None,
        };
        events.push(HealthEvent { ts_ns, kind });
    }
    Some(events)
}

/// Watchdog configuration.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogOptions {
    /// Virtual-time poll period (also the measurement resolution).
    pub poll: Duration,
    /// No-progress budget before a stall fires.
    pub budget: Duration,
}

impl Default for WatchdogOptions {
    fn default() -> Self {
        WatchdogOptions {
            poll: Duration::from_micros(500),
            budget: Duration::from_millis(5),
        }
    }
}

/// Health events retained before the oldest are dropped.
const EVENT_CAPACITY: usize = 1024;

/// Counters whose summed increase counts as progress: the broker's commits.
const PROGRESS: [Key; 2] = [("kdbroker", "rdma.commits"), ("kdbroker", "produce.requests")];

/// Counters whose increase marks a crash, for MTTR: kdfault's broker crashes.
const CRASHES: [Key; 1] = [("kdfault", "inject.broker_crashes")];

struct WatchInner {
    budget: Duration,
    armed: bool,
    last_progress: u64,
    last_progress_ts: u64,
    stalled_since: Option<u64>,
    crash_at: Option<u64>,
    last_crash_count: u64,
    last_mttr_ns: Option<u64>,
    stopped: bool,
    events: VecDeque<HealthEvent>,
    dropped: u64,
}

/// Cheap-to-clone handle to a running (or manually polled) watchdog.
#[derive(Clone)]
pub struct Watchdog {
    inner: Rc<RefCell<WatchInner>>,
    registry: Registry,
    stalls: Counter,
    recoveries: Counter,
    mttr_measured: Counter,
}

impl Watchdog {
    /// Creates a watchdog over `registry` without spawning the poll task
    /// (drive it with [`poll_now`](Watchdog::poll_now) — used by tests).
    pub fn new(registry: &Registry, opts: WatchdogOptions) -> Watchdog {
        Watchdog {
            inner: Rc::new(RefCell::new(WatchInner {
                budget: opts.budget,
                armed: false,
                last_progress: 0,
                last_progress_ts: 0,
                stalled_since: None,
                crash_at: None,
                last_crash_count: 0,
                last_mttr_ns: None,
                stopped: false,
                events: VecDeque::new(),
                dropped: 0,
            })),
            registry: registry.clone(),
            stalls: registry.counter("health", "watchdog.stalls"),
            recoveries: registry.counter("health", "watchdog.recoveries"),
            mttr_measured: registry.counter("health", "watchdog.mttr_measured"),
        }
    }

    /// Creates the watchdog and spawns its detached poll loop. Must be
    /// called inside `block_on`.
    pub fn start(registry: &Registry, opts: WatchdogOptions) -> Watchdog {
        let poll = opts.poll;
        let dog = Watchdog::new(registry, opts);
        let task = dog.clone();
        sim::spawn_detached(async move {
            let mut ticker = sim::time::interval(poll);
            loop {
                ticker.tick().await;
                if task.inner.borrow().stopped {
                    break;
                }
                task.poll_now();
            }
        });
        dog
    }

    /// Marks a crash now (virtual time) for MTTR measurement; the automatic
    /// crash-counter watch does the same without explicit wiring. An
    /// existing unrecovered crash keeps its earlier start.
    pub fn note_crash(&self) {
        let now = sim::try_now().map(|t| t.as_nanos()).unwrap_or(0);
        let mut inner = self.inner.borrow_mut();
        if inner.crash_at.is_none() {
            inner.crash_at = Some(now);
        }
    }

    /// One watchdog evaluation at the current virtual time.
    pub fn poll_now(&self) {
        let now = sim::try_now().map(|t| t.as_nanos()).unwrap_or(0);
        let (progress, crashes) = {
            let entries = self.registry.entries();
            let total = |keys: &[Key]| -> u64 {
                let watched = entries.counters.iter().filter(|(key, _)| keys.contains(key));
                watched.map(|(_, cells)| counter_total(cells)).sum()
            };
            (total(&PROGRESS), total(&CRASHES))
        };
        let mut inner = self.inner.borrow_mut();
        if progress > inner.last_progress {
            if let Some(since) = inner.stalled_since.take() {
                self.recoveries.inc();
                push_event(
                    &mut inner,
                    HealthEvent {
                        ts_ns: now,
                        kind: HealthKind::Recovered {
                            stalled_ns: now.saturating_sub(since),
                        },
                    },
                );
            }
            if inner.armed {
                if let Some(crash_ns) = inner.crash_at.take() {
                    let mttr_ns = now.saturating_sub(crash_ns);
                    inner.last_mttr_ns = Some(mttr_ns);
                    self.mttr_measured.inc();
                    push_event(
                        &mut inner,
                        HealthEvent {
                            ts_ns: now,
                            kind: HealthKind::Mttr { crash_ns, mttr_ns },
                        },
                    );
                }
            }
            inner.armed = true;
            inner.last_progress = progress;
            inner.last_progress_ts = now;
        } else if inner.armed && inner.stalled_since.is_none() {
            let budget_ns = inner.budget.as_nanos() as u64;
            let since_ns = inner.last_progress_ts;
            if now.saturating_sub(since_ns) >= budget_ns {
                inner.stalled_since = Some(since_ns);
                self.stalls.inc();
                push_event(
                    &mut inner,
                    HealthEvent {
                        ts_ns: now,
                        kind: HealthKind::Stall { since_ns, budget_ns },
                    },
                );
            }
        }

        // Register a newly observed crash only after the progress check:
        // progress seen at the same poll tick accrued in the window *before*
        // the crash landed, and must not complete the MTTR at zero.
        if crashes > inner.last_crash_count {
            inner.last_crash_count = crashes;
            if inner.crash_at.is_none() {
                inner.crash_at = Some(now);
            }
        }
    }

    /// Stops the poll task at its next tick.
    pub fn stop(&self) {
        self.inner.borrow_mut().stopped = true;
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.inner.borrow().events.iter().copied().collect()
    }

    /// Events lost to the ring bound.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Whether the watchdog currently considers progress stalled.
    pub fn is_stalled(&self) -> bool {
        self.inner.borrow().stalled_since.is_some()
    }

    /// The most recently measured failover MTTR, if any.
    pub fn mttr_ns(&self) -> Option<u64> {
        self.inner.borrow().last_mttr_ns
    }

    /// Stall events observed so far.
    pub fn stall_count(&self) -> u64 {
        self.stalls.get()
    }
}

fn push_event(inner: &mut WatchInner, e: HealthEvent) {
    if inner.events.len() >= EVENT_CAPACITY {
        inner.events.pop_front();
        inner.dropped += 1;
    }
    inner.events.push_back(e);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(poll_us: u64, budget_us: u64) -> WatchdogOptions {
        WatchdogOptions {
            poll: Duration::from_micros(poll_us),
            budget: Duration::from_micros(budget_us),
        }
    }

    #[test]
    fn stall_fires_after_budget_and_recovers() {
        let r = Registry::new();
        let commits = r.counter("kdbroker", "rdma.commits");
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let dog = Watchdog::start(&r, opts(100, 300));
            // Steady progress: no stall.
            for _ in 0..5 {
                commits.inc();
                sim::time::sleep(Duration::from_micros(100)).await;
            }
            assert!(!dog.is_stalled());
            assert_eq!(dog.stall_count(), 0);
            // Outage: progress freezes past the budget.
            sim::time::sleep(Duration::from_micros(600)).await;
            assert!(dog.is_stalled());
            assert_eq!(dog.stall_count(), 1);
            // Still one stall event, not one per poll.
            sim::time::sleep(Duration::from_micros(400)).await;
            assert_eq!(dog.stall_count(), 1);
            // Recovery.
            commits.inc();
            sim::time::sleep(Duration::from_micros(200)).await;
            assert!(!dog.is_stalled());
            let evs = dog.events();
            assert!(matches!(evs[0].kind, HealthKind::Stall { .. }));
            let rec = evs
                .iter()
                .find(|e| matches!(e.kind, HealthKind::Recovered { .. }))
                .expect("recovered event");
            match rec.kind {
                HealthKind::Recovered { stalled_ns } => assert!(stalled_ns >= 600_000),
                _ => unreachable!(),
            }
            dog.stop();
        });
    }

    #[test]
    fn unarmed_watchdog_never_stalls() {
        let r = Registry::new();
        let _commits = r.counter("kdbroker", "rdma.commits");
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let dog = Watchdog::start(&r, opts(100, 200));
            // No progress ever seen: startup quiet time is not a stall.
            sim::time::sleep(Duration::from_millis(2)).await;
            assert_eq!(dog.stall_count(), 0);
            assert!(dog.events().is_empty());
            dog.stop();
        });
    }

    #[test]
    fn crash_counter_yields_finite_mttr() {
        let r = Registry::new();
        let commits = r.counter("kdbroker", "rdma.commits");
        let crashes = r.counter("kdfault", "inject.broker_crashes");
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let dog = Watchdog::start(&r, opts(100, 10_000));
            commits.inc();
            sim::time::sleep(Duration::from_micros(200)).await;
            // Crash: injected fault counter ticks, progress stops.
            crashes.inc();
            sim::time::sleep(Duration::from_micros(700)).await;
            assert_eq!(dog.mttr_ns(), None, "no MTTR before recovery");
            // Recovery commits land.
            commits.inc();
            sim::time::sleep(Duration::from_micros(200)).await;
            let mttr = dog.mttr_ns().expect("MTTR measured");
            // Crash observed at the 300us poll, recovery at the 1000us poll.
            assert!((600_000..=900_000).contains(&mttr), "mttr={mttr}");
            let evs = dog.events();
            assert!(evs.iter().any(|e| matches!(e.kind, HealthKind::Mttr { .. })));
            dog.stop();
        });
    }

    #[test]
    fn note_crash_without_counter_wiring() {
        let r = Registry::new();
        let commits = r.counter("kdbroker", "rdma.commits");
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let dog = Watchdog::new(&r, opts(100, 10_000));
            commits.inc();
            dog.poll_now();
            sim::time::sleep(Duration::from_micros(500)).await;
            dog.note_crash();
            sim::time::sleep(Duration::from_micros(500)).await;
            commits.inc();
            dog.poll_now();
            assert_eq!(dog.mttr_ns(), Some(500_000));
        });
    }

    #[test]
    fn events_round_trip_json_lines() {
        let events = vec![
            HealthEvent {
                ts_ns: 1_000,
                kind: HealthKind::Stall { since_ns: 500, budget_ns: 400 },
            },
            HealthEvent {
                ts_ns: 2_000,
                kind: HealthKind::Recovered { stalled_ns: 1_500 },
            },
            HealthEvent {
                ts_ns: 3_000,
                kind: HealthKind::Mttr { crash_ns: 800, mttr_ns: 2_200 },
            },
        ];
        let json = to_json_lines(&events);
        assert_eq!(json.lines().count(), 3);
        let back = from_json_lines(&json).expect("parse");
        assert_eq!(back, events);
        assert_eq!(from_json_lines("").unwrap(), vec![]);
        assert!(from_json_lines("{\"kind\":\"wat\",\"ts_ns\":1}").is_none());
    }

    #[test]
    fn event_ring_is_bounded() {
        let r = Registry::new();
        let commits = r.counter("kdbroker", "rdma.commits");
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            // Zero budget: every quiet poll stalls.
            let dog = Watchdog::new(&r, opts(100, 0));
            commits.inc();
            dog.poll_now(); // arm
            let rounds = EVENT_CAPACITY / 2 + 3;
            for _ in 0..rounds {
                sim::time::sleep(Duration::from_micros(100)).await;
                dog.poll_now(); // stall
                commits.inc();
                sim::time::sleep(Duration::from_micros(100)).await;
                dog.poll_now(); // recover
            }
            assert_eq!(dog.stall_count(), rounds as u64);
            assert_eq!(dog.events().len(), EVENT_CAPACITY, "ring bounded at capacity");
            assert_eq!(dog.dropped(), 6);
        });
    }
}
