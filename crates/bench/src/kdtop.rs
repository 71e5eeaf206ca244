//! `kdtop` — an ASCII view of a recorded virtual-time telemetry series.
//!
//! Renders a [`kdtelem::SeriesDump`] (the `KD_SERIES=<path>` export) as
//! per-instrument sparklines over virtual time: counter *rates*, gauge
//! values, and histogram p99 trends.
//! Pure string formatting — no terminal control, so output pipes cleanly
//! into files and test assertions.

use kdtelem::SeriesDump;

/// Glyph ramp for sparklines, lowest to highest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders `dump` as an ASCII dashboard, `width` columns per sparkline.
pub fn render(dump: &SeriesDump, width: usize) -> String {
    render_filtered(dump, width, None)
}

/// [`render`] restricted to instruments whose `component.name` contains
/// `filter` (plain substring, case-sensitive). `--filter rnic.srq` shows
/// just the shared-receive-queue counters/gauges; `None` shows everything.
pub fn render_filtered(dump: &SeriesDump, width: usize, filter: Option<&str>) -> String {
    let width = width.max(8);
    let keep = |component: &str, name: &str| match filter {
        Some(f) => format!("{component}.{name}").contains(f),
        None => true,
    };
    let mut out = String::new();
    out.push_str(&format!(
        "kdtop — {} samples @ {} µs/interval{}{}\n",
        dump.samples,
        dump.interval_ns / 1_000,
        if dump.dropped > 0 {
            format!(" ({} dropped)", dump.dropped)
        } else {
            String::new()
        },
        match filter {
            Some(f) => format!(" [filter: {f}]"),
            None => String::new(),
        }
    ));

    let mut counters: Vec<_> = dump
        .counters
        .iter()
        .filter(|s| s.points.last().is_some_and(|p| p.value > 0))
        .filter(|s| keep(&s.component, &s.name))
        .collect();
    // Busiest first: rank by final cumulative value.
    counters.sort_by_key(|s| std::cmp::Reverse(s.points.last().map_or(0, |p| p.value)));
    if !counters.is_empty() {
        out.push_str("\ncounters (per-interval rate)\n");
        for s in counters {
            let series: Vec<u64> = s.points.iter().map(|p| p.delta).collect();
            let last = s.points.last().map_or(0, |p| p.value);
            out.push_str(&row(
                &format!("{}.{}", s.component, s.name),
                &series,
                width,
                &format!("total {last}"),
            ));
        }
    }

    let gauges: Vec<_> = dump
        .gauges
        .iter()
        .filter(|s| s.points.iter().any(|p| p.peak > 0))
        .filter(|s| keep(&s.component, &s.name))
        .collect();
    if !gauges.is_empty() {
        out.push_str("\ngauges (sampled value)\n");
        for s in gauges {
            let series: Vec<u64> = s.points.iter().map(|p| p.value).collect();
            let peak = s.points.iter().map(|p| p.peak).max().unwrap_or(0);
            out.push_str(&row(
                &format!("{}.{}", s.component, s.name),
                &series,
                width,
                &format!("peak {peak}"),
            ));
        }
    }

    let hists: Vec<_> = dump
        .histograms
        .iter()
        .filter(|s| s.points.iter().any(|p| p.count > 0))
        .filter(|s| keep(&s.component, &s.name))
        .collect();
    if !hists.is_empty() {
        out.push_str("\nhistograms (per-interval p99)\n");
        for s in hists {
            let series: Vec<u64> = s.points.iter().map(|p| p.p99).collect();
            let count: u64 = s.points.iter().map(|p| p.count).sum();
            out.push_str(&row(
                &format!("{}.{}", s.component, s.name),
                &series,
                width,
                &format!("n {count}"),
            ));
        }
    }
    out
}

/// One `label  |sparkline|  note` line; points are folded into `width`
/// columns by taking each column's maximum (spikes must stay visible).
fn row(label: &str, series: &[u64], width: usize, note: &str) -> String {
    format!("  {label:<32} |{}| {note}\n", sparkline(series, width))
}

fn sparkline(series: &[u64], width: usize) -> String {
    if series.is_empty() {
        return " ".repeat(width);
    }
    let cols: Vec<u64> = (0..width)
        .map(|c| {
            let lo = c * series.len() / width;
            let hi = (((c + 1) * series.len() / width).max(lo + 1)).min(series.len());
            series[lo..hi].iter().copied().max().unwrap_or(0)
        })
        .collect();
    let max = cols.iter().copied().max().unwrap_or(0);
    cols.iter()
        .map(|&v| {
            if max == 0 {
                ' '
            } else {
                let idx = (v as u128 * (RAMP.len() - 1) as u128).div_ceil(max as u128) as usize;
                RAMP[idx.min(RAMP.len() - 1)] as char
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtelem::series::{CounterPoint, CounterSeries, GaugePoint, GaugeSeries};

    fn dump() -> SeriesDump {
        SeriesDump {
            interval_ns: 1_000_000,
            samples: 4,
            dropped: 0,
            counters: vec![
                CounterSeries {
                    component: "kdbroker".into(),
                    name: "rdma.commits".into(),
                    points: (1..=4)
                        .map(|i| CounterPoint {
                            ts_ns: i * 1_000_000,
                            value: i * 10,
                            delta: 10,
                        })
                        .collect(),
                },
                CounterSeries {
                    component: "rnic".into(),
                    name: "srq.posted".into(),
                    points: (1..=4)
                        .map(|i| CounterPoint {
                            ts_ns: i * 1_000_000,
                            value: i * 16,
                            delta: 16,
                        })
                        .collect(),
                },
            ],
            gauges: vec![GaugeSeries {
                component: "netsim".into(),
                name: "link.backlog_ns".into(),
                points: vec![GaugePoint {
                    ts_ns: 1_000_000,
                    value: 300,
                    peak: 900,
                }],
            }],
            histograms: vec![],
        }
    }

    #[test]
    fn renders_rows_for_active_instruments() {
        let text = render(&dump(), 24);
        assert!(text.contains("kdtop — 4 samples"));
        assert!(text.contains("kdbroker.rdma.commits"));
        assert!(text.contains("total 40"));
        assert!(text.contains("netsim.link.backlog_ns"));
        assert!(text.contains("peak 900"));
    }

    #[test]
    fn sparkline_scales_to_max() {
        let s = sparkline(&[0, 5, 10], 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.chars().next(), Some(' '));
        assert_eq!(s.chars().last(), Some('@'));
    }

    #[test]
    fn filter_restricts_to_matching_series() {
        let text = render_filtered(&dump(), 24, Some("rnic.srq"));
        assert!(text.contains("[filter: rnic.srq]"));
        assert!(text.contains("rnic.srq.posted"));
        assert!(text.contains("total 64"));
        assert!(!text.contains("kdbroker.rdma.commits"));
        assert!(!text.contains("netsim.link.backlog_ns"));
    }

    #[test]
    fn filter_matches_across_component_dot_name() {
        // The filter runs against the joined "component.name" label, so a
        // substring spanning the dot matches too.
        let text = render_filtered(&dump(), 24, Some("broker.rdma"));
        assert!(text.contains("kdbroker.rdma.commits"));
        assert!(!text.contains("rnic.srq.posted"));
    }

    #[test]
    fn empty_filter_matches_everything() {
        let all = render(&dump(), 24);
        let filtered = render_filtered(&dump(), 24, Some(""));
        // Same rows; only the header differs by the filter tag.
        assert_eq!(
            all.lines().skip(1).collect::<Vec<_>>(),
            filtered.lines().skip(1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn quiet_instruments_are_hidden() {
        let mut d = dump();
        d.counters[0].points.iter_mut().for_each(|p| {
            p.value = 0;
            p.delta = 0;
        });
        let text = render(&d, 24);
        assert!(!text.contains("rdma.commits"));
    }
}
