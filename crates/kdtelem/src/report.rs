//! Snapshot/export: a point-in-time, aggregated view of a registry that can
//! be printed as an aligned text table or serialised as JSON lines (one
//! metric per line) with no external dependencies.

use crate::hist::HistStats;
use crate::json::Obj;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    pub component: String,
    pub name: String,
    pub value: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeRow {
    pub component: String,
    pub name: String,
    pub value: u64,
    pub peak: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    pub component: String,
    pub name: String,
    pub stats: HistStats,
}

/// Aggregated snapshot of a [`crate::Registry`]. Rows are sorted by
/// `(component, name)` so output is stable across runs.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    pub counters: Vec<CounterRow>,
    pub gauges: Vec<GaugeRow>,
    pub histograms: Vec<HistRow>,
}

impl TelemetryReport {
    /// Looks up a counter value.
    pub fn counter(&self, component: &str, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|r| r.component == component && r.name == name)
            .map(|r| r.value)
    }

    /// Looks up a gauge row.
    pub fn gauge(&self, component: &str, name: &str) -> Option<&GaugeRow> {
        self.gauges
            .iter()
            .find(|r| r.component == component && r.name == name)
    }

    /// Looks up a histogram row.
    pub fn histogram(&self, component: &str, name: &str) -> Option<&HistRow> {
        self.histograms
            .iter()
            .find(|r| r.component == component && r.name == name)
    }

    /// Renders an aligned, human-readable table. Histogram values are shown
    /// in microseconds since every latency instrument records nanoseconds.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let counters = self
            .counters
            .iter()
            .map(|r| (&r.component, &r.name, r.value.to_string()));
        section(&mut out, "counters", None, counters);
        let gauges = self.gauges.iter().map(|r| {
            (
                &r.component,
                &r.name,
                format!("{} (peak {})", r.value, r.peak),
            )
        });
        section(&mut out, "gauges", None, gauges);
        let us = |ns: u64| ns as f64 / 1_000.0;
        let histograms = self.histograms.iter().map(|r| {
            let s = &r.stats;
            let text = format!(
                "{:>10} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                s.count,
                s.mean / 1_000.0,
                us(s.p50),
                us(s.p90),
                us(s.p99),
                us(s.max)
            );
            (&r.component, &r.name, text)
        });
        let header = format!(
            "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "count", "mean", "p50", "p90", "p99", "max"
        );
        section(&mut out, "histograms (us)", Some(&header), histograms);
        out
    }

    /// Serialises the report as JSON lines, one object per metric — safe to
    /// `>>` into `results/` and read with any JSON reader.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.counters {
            metric(&mut out, "counter", &r.component, &r.name)
                .num("value", r.value)
                .line();
        }
        for r in &self.gauges {
            metric(&mut out, "gauge", &r.component, &r.name)
                .num("value", r.value)
                .num("peak", r.peak)
                .line();
        }
        for r in &self.histograms {
            let s = &r.stats;
            metric(&mut out, "histogram", &r.component, &r.name)
                .num("count", s.count)
                .num("sum", s.sum)
                .num("min", s.min)
                .num("max", s.max)
                .num("mean", format_args!("{:.3}", s.mean))
                .num("p50", s.p50)
                .num("p90", s.p90)
                .num("p99", s.p99)
                .line();
        }
        out
    }
}

/// A metric's line, up to its values.
fn metric<'a>(out: &'a mut String, kind: &str, component: &str, name: &str) -> Obj<'a> {
    Obj::new(out)
        .str("kind", kind)
        .str("component", component)
        .str("name", name)
}

/// One table section: its title, an optional column header, and a
/// `component.name  text` line per row with the keys padded to the widest.
fn section<'a>(
    out: &mut String,
    title: &str,
    header: Option<&str>,
    rows: impl Iterator<Item = (&'a String, &'a String, String)>,
) {
    let rows: Vec<(String, String)> = rows
        .map(|(c, n, text)| (format!("{c}.{n}"), text))
        .collect();
    if rows.is_empty() {
        return;
    }
    let w = rows.iter().map(|(key, _)| key.len()).max().unwrap_or(0);
    out.push_str(&format!("== {title} ==\n"));
    if let Some(header) = header {
        out.push_str(&format!("{:w$}  {header}\n", ""));
    }
    for (key, text) in rows {
        out.push_str(&format!("{key:w$}  {text}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::Registry;

    fn sample_report() -> TelemetryReport {
        let r = Registry::new();
        r.counter("kdbroker", "produce.requests").add(12);
        r.counter("rnic", "qp.posts").add(99);
        let g = r.gauge("rnic", "cq.depth");
        g.add(5);
        g.sub(2);
        let h = r.histogram("kdclient", "produce.e2e_ns");
        for v in [1_000u64, 2_000, 4_000, 8_000, 100_000] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn table_contains_all_rows() {
        let t = sample_report().to_table();
        assert!(t.contains("kdbroker.produce.requests"));
        assert!(t.contains("rnic.cq.depth"));
        assert!(t.contains("kdclient.produce.e2e_ns"));
        assert!(t.contains("p99"));
    }

    #[test]
    fn json_lines_round_trip() {
        let report = sample_report();
        let json = report.to_json_lines();
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        // Each line reads back through the one JSON reader.
        let lines: Vec<_> = json::lines(&json).map(Option::unwrap).collect();
        let find = |name: &str| {
            lines
                .iter()
                .find(|f| f.str("name").as_deref() == Some(name))
        };
        assert_eq!(find("produce.requests").unwrap().u64("value"), Some(12));
        assert_eq!(find("qp.posts").unwrap().u64("value"), Some(99));
        let g = find("cq.depth").unwrap();
        assert_eq!((g.u64("value"), g.u64("peak")), (Some(3), Some(5)));
        let h = find("produce.e2e_ns").unwrap();
        assert_eq!(h.str("kind").as_deref(), Some("histogram"));
        assert_eq!((h.u64("count"), h.u64("min")), (Some(5), Some(1_000)));
    }

    #[test]
    fn json_escaping_survives_quotes() {
        let mut line = String::new();
        Obj::new(&mut line)
            .str("kind", "counter")
            .str("component", "a\"b\\c\nd")
            .line();
        assert_eq!(
            line,
            "{\"kind\":\"counter\",\"component\":\"a\\\"b\\\\c\\nd\"}\n"
        );
        let f = json::lines(&line).next().flatten().unwrap();
        assert_eq!(f.str("component").as_deref(), Some("a\"b\\c\nd"));
    }
}
