//! `kdmark compare DIR_A DIR_B`: two full runs of one tree with one seed must
//! agree — exact metrics bit for bit, bounded metrics within their bounds.
//! Prints both sets side by side with the quartile spread of the host-time
//! samples: the benchmark's own noise floor.

use std::path::Path;

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::spread;
use crate::workloads::WORKLOADS;

/// Absolute slack below which a bounded metric's difference is not a
/// disagreement, whatever its share of the median (small values are mostly
/// allocator and page-cache luck).
fn floor(metric: &str) -> f64 {
    match metric {
        "peak_rss_mib" => 8.0,
        "setup_s" => 0.1,
        _ => 0.0,
    }
}

fn load(dir: &Path, file: &str) -> Result<Json, String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value(result: &Json, workload: &str, metric: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn samples(dir: &Path, workload: &str, key: &str) -> Option<Vec<f64>> {
    let detail = load(dir, &format!("{workload}.e2e.json")).ok()?;
    Some(
        detail
            .get(key)?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    )
}

/// Whether `b` agrees with `a` for a metric with this bound and floor.
pub fn agrees(a: f64, b: f64, exact: bool, bound: f64, floor: f64) -> bool {
    if exact {
        return a.to_bits() == b.to_bits();
    }
    let diff = (a - b).abs();
    diff <= floor || diff <= bound * a.abs().min(b.abs())
}

pub fn main(argv: &[String]) -> Result<bool, String> {
    let [dir_a, dir_b] = argv else {
        return Err("usage: kdmark compare DIR_A DIR_B".to_string());
    };
    let (dir_a, dir_b) = (Path::new(dir_a), Path::new(dir_b));
    let (a, b) = (load(dir_a, "result.json")?, load(dir_b, "result.json")?);
    if a.get("seed") != b.get("seed") {
        return Err(
            "the two runs used different seeds: exact metrics cannot be compared".to_string(),
        );
    }
    let mut ok = true;
    println!(
        "{:<16} {:<20} {:>16} {:>16} {:>8} {:>8}  verdict",
        "workload", "metric", "run A", "run B", "iqr A %", "iqr B %"
    );
    for (workload, _) in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (value(&a, workload, m.name), value(&b, workload, m.name))
            else {
                return Err(format!("{workload}/{}: missing from a result.json", m.name));
            };
            let good = agrees(va, vb, m.exact, m.bound, floor(m.name));
            ok &= good;
            let key = format!("{}_samples", m.name);
            let iqr = |dir| {
                samples(dir, workload, &key)
                    .filter(|s| s.len() >= 2)
                    .map_or("-".to_string(), |s| format!("{:.2}", 100.0 * spread(&s)))
            };
            let verdict = match (good, m.exact) {
                (true, true) => "identical",
                (true, false) => "within bound",
                (false, true) => "DIFFERS (must be bit-identical)",
                (false, false) => "OUT OF BOUND",
            };
            println!(
                "{workload:<16} {:<20} {va:>16.4} {vb:>16.4} {:>8} {:>8}  {verdict}",
                m.name,
                iqr(dir_a),
                iqr(dir_b)
            );
        }
        let digest = |r: &Json| {
            r.get("workloads")?
                .get(workload)?
                .get("trace_digest")
                .cloned()
        };
        let same = digest(&a).is_some() && digest(&a) == digest(&b);
        ok &= same;
        println!(
            "{workload:<16} {:<20} {:>16} {:>16} {:>8} {:>8}  {}",
            "trace_digest",
            digest(&a)
                .and_then(|d| d.as_str().map(String::from))
                .unwrap_or_default(),
            digest(&b)
                .and_then(|d| d.as_str().map(String::from))
                .unwrap_or_default(),
            "-",
            "-",
            if same { "identical" } else { "DIFFERS" }
        );
    }
    for (label, r) in [("A", &a), ("B", &b)] {
        if r.get("correct") != Some(&Json::Bool(true)) {
            println!("run {label} reported incorrect outputs");
            ok = false;
        }
    }
    println!("{}", if ok { "check passed" } else { "check FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::agrees;

    #[test]
    fn exact_metrics_must_match_to_the_bit() {
        assert!(agrees(82.733, 82.733, true, 0.05, 0.0));
        assert!(!agrees(82.733, 82.733_000_000_01, true, 0.05, 0.0));
    }

    #[test]
    fn bounded_metrics_use_bound_then_floor() {
        assert!(agrees(100.0, 109.0, false, 0.10, 0.0));
        assert!(!agrees(100.0, 112.0, false, 0.10, 0.0));
        // 0.05 s apart is inside the 0.1 s floor even at 100 %.
        assert!(agrees(0.05, 0.10, false, 0.10, 0.1));
        assert!(!agrees(1.0, 1.3, false, 0.10, 0.1));
    }
}
