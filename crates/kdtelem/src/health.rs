//! Stall detection and failover MTTR, read from a recorded series by a pure
//! function, as the [`check`](crate::check) rules read a trace (DESIGN.md §8
//! "Stall and MTTR from a series").

use std::collections::BTreeMap;
use std::time::Duration;

use crate::series::SeriesDump;

/// What happened, stamped with the tick that observed it.
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

/// What [`health`] read from a series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Health {
    /// Every event, in tick order.
    pub events: Vec<HealthEvent>,
    /// The last failover MTTR measured, if any.
    pub mttr_ns: Option<u64>,
}

/// Counters whose summed increase counts as progress: the broker's commits.
const PROGRESS: [(&str, &str); 2] = [
    ("kdbroker", "rdma.commits"),
    ("kdbroker", "produce.requests"),
];

/// Counters whose increase marks a crash, for MTTR: kdfault's broker crashes.
const CRASHES: [(&str, &str); 1] = [("kdfault", "inject.broker_crashes")];

/// Replays the per-tick deltas of the progress and crash counters in `dump`.
/// Nothing fires before the first progress (startup quiet is not a stall).
/// Progress flat for at least `budget` is a `Stall`, and the next progress
/// its `Recovered`. A crash's MTTR runs to the first progress after it; a
/// crash is registered after its tick's progress check, since progress seen
/// at that tick accrued before the crash landed. Resolution is the sample
/// interval. A counter registered between two ticks starts its series with
/// its whole value as a delta, so its first increments count.
pub fn health(dump: &SeriesDump, budget: Duration) -> Health {
    // Per tick: [progress, crashes] summed over the watched series.
    let mut ticks = BTreeMap::<u64, [u64; 2]>::new();
    for (i, keys) in [&PROGRESS[..], &CRASHES[..]].into_iter().enumerate() {
        for s in keys.iter().filter_map(|&(c, n)| dump.counter(c, n)) {
            for p in &s.points {
                ticks.entry(p.ts_ns).or_default()[i] += p.delta;
            }
        }
    }
    let budget_ns = budget.as_nanos() as u64;
    let mut out = Health::default();
    let (mut armed, mut last_progress_ns) = (false, 0);
    let (mut stalled_since, mut crash_at) = (None, None);
    for (&ts_ns, &[progress, crashes]) in &ticks {
        let mut event = |kind| out.events.push(HealthEvent { ts_ns, kind });
        if progress > 0 {
            if let Some(since) = stalled_since.take() {
                event(HealthKind::Recovered {
                    stalled_ns: ts_ns - since,
                });
            }
            if let Some(crash_ns) = crash_at.take_if(|_| armed) {
                let mttr_ns = ts_ns - crash_ns;
                out.mttr_ns = Some(mttr_ns);
                event(HealthKind::Mttr { crash_ns, mttr_ns });
            }
            (armed, last_progress_ns) = (true, ts_ns);
        } else if armed && stalled_since.is_none() && ts_ns - last_progress_ns >= budget_ns {
            stalled_since = Some(last_progress_ns);
            let since_ns = last_progress_ns;
            event(HealthKind::Stall {
                since_ns,
                budget_ns,
            });
        }
        if crashes > 0 && crash_at.is_none() {
            crash_at = Some(ts_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{CounterPoint, Series, SeriesLog, SeriesOptions};
    use crate::Registry;

    /// Sample interval of the hand-built dumps.
    const TICK: u64 = 100_000;

    /// A dump of counter series, each given as its key, the tick (from 1)
    /// of its first point and its running totals, one per tick; the first
    /// point's delta is its whole value, as the sampler cuts it.
    fn dump(counters: &[(&str, &str, u64, &[u64])]) -> SeriesDump {
        let counters = counters.iter().map(|&(component, name, first, totals)| {
            let mut last = 0;
            let ticks = (first..).map(|t| t * TICK);
            let points = ticks.zip(totals).map(|(ts_ns, &value)| {
                let delta = value - std::mem::replace(&mut last, value);
                CounterPoint {
                    ts_ns,
                    value,
                    delta,
                }
            });
            Series {
                component: component.into(),
                name: name.into(),
                points: points.collect(),
            }
        });
        SeriesDump {
            interval_ns: TICK,
            counters: counters.collect(),
            ..SeriesDump::default()
        }
    }

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn stall_fires_after_budget_and_recovers() {
        // Steady progress for five ticks, flat for ten, then progress.
        let totals = [1, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6];
        let got = health(&dump(&[("kdbroker", "rdma.commits", 1, &totals)]), us(300));
        // One stall, at the first tick 300 µs past the last progress (not
        // one per quiet tick), and one recovery at the next progress.
        let stall = HealthKind::Stall {
            since_ns: 5 * TICK,
            budget_ns: 3 * TICK,
        };
        let recovered = HealthKind::Recovered {
            stalled_ns: 11 * TICK,
        };
        let want = [(8 * TICK, stall), (16 * TICK, recovered)];
        let want = want.map(|(ts_ns, kind)| HealthEvent { ts_ns, kind });
        assert_eq!(got.events, want);
        assert_eq!(got.mttr_ns, None);
    }

    #[test]
    fn unarmed_watchdog_never_stalls() {
        // No progress ever seen: startup quiet time is not a stall.
        let got = health(&dump(&[("kdbroker", "rdma.commits", 1, &[0; 20])]), us(200));
        assert_eq!(got, Health::default());
    }

    #[test]
    fn crash_counter_yields_finite_mttr() {
        let got = health(
            &dump(&[
                (
                    "kdbroker",
                    "rdma.commits",
                    1,
                    &[1, 1, 1, 1, 1, 1, 1, 1, 1, 2],
                ),
                ("kdfault", "inject.broker_crashes", 1, &[0, 0, 1, 1]),
            ]),
            us(10_000),
        );
        // Crash counted at the 300 µs tick, recovery at the 1000 µs tick.
        let kind = HealthKind::Mttr {
            crash_ns: 3 * TICK,
            mttr_ns: 7 * TICK,
        };
        let ts_ns = 10 * TICK;
        assert_eq!(got.events, [HealthEvent { ts_ns, kind }]);
        assert_eq!(got.mttr_ns, Some(7 * TICK));
    }

    #[test]
    fn same_tick_progress_never_closes_an_mttr_at_zero() {
        // The crash tick also saw commits (they landed before the crash):
        // the MTTR runs to the next tick with progress, not to its own.
        let got = health(
            &dump(&[
                ("kdbroker", "produce.requests", 1, &[1, 2, 3, 3, 4]),
                ("kdfault", "inject.broker_crashes", 1, &[0, 0, 1, 1, 1]),
            ]),
            us(10_000),
        );
        assert_eq!(got.mttr_ns, Some(2 * TICK));
        assert_eq!(got.events.len(), 1, "{:?}", got.events);
    }

    #[test]
    fn a_counter_first_seen_mid_series_counts_its_whole_first_value() {
        // The sampler cuts a counter registered between two ticks against
        // zero: its first point's delta is everything it counted so far.
        let r = Registry::new();
        let _crashes = r.counter("kdfault", "inject.broker_crashes");
        let rt = sim::Runtime::new();
        let recorded = rt.block_on(async move {
            let log = SeriesLog::new(SeriesOptions::default());
            sim::time::sleep(us(100)).await;
            log.sample_now(&r);
            r.counter("kdbroker", "rdma.commits").add(3);
            for _ in 0..3 {
                sim::time::sleep(us(100)).await;
                log.sample_now(&r);
            }
            log.dump()
        });
        let commits = recorded.counter("kdbroker", "rdma.commits").unwrap();
        assert_eq!(commits.deltas(), [3, 0, 0]);

        // So that tick is progress: it arms the stall rule, which fires
        // 200 µs later. Read as a difference of totals it would be nothing,
        // and the run would look unarmed.
        let got = health(
            &dump(&[
                ("kdfault", "inject.broker_crashes", 1, &[0; 6]),
                ("kdbroker", "rdma.commits", 3, &[3, 3, 3, 3]),
            ]),
            us(200),
        );
        let stall = HealthKind::Stall {
            since_ns: 3 * TICK,
            budget_ns: 2 * TICK,
        };
        assert_eq!(
            got.events,
            [HealthEvent {
                ts_ns: 5 * TICK,
                kind: stall
            }]
        );
    }
}
