//! Layer drivers: each calls one crate's public functions in isolation and
//! times them on the host clock. They do not depend on the workload or the
//! seed; a `--trace 1` run reports them next to the traced repeat so a
//! change to one layer can be seen in that layer first.

mod kdbuf;
mod kdfault;
mod kdstorage;
mod kdtelem;
mod kdwire;
mod netsim;
mod rnic;
mod sim;

use std::path::Path;
use std::time::{Duration, Instant};

/// Median host ns per call of `f`: calls are timed in batches of about
/// 2 ms each until `budget` is spent (at least three batches).
pub fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= Duration::from_millis(2) || batch >= 1 << 22 {
            break;
        }
        batch *= 2;
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || (started.elapsed() < budget && samples.len() < 200) {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    crate::stats::median(&samples)
}

/// Runs every driver, giving each an equal share of `budget`. `out` is where
/// the file-store driver may create (and removes) its temporary directory.
pub fn run_all(budget: Duration, out: &Path) -> Vec<(&'static str, f64)> {
    // Timed measurements across the drivers below.
    const MEASUREMENTS: u32 = 24;
    let each = budget / MEASUREMENTS;
    let mut v = Vec::new();
    sim::run(each, &mut v);
    kdbuf::run(each, &mut v);
    netsim::run(each, &mut v);
    rnic::run(each, &mut v);
    kdwire::run(each, &mut v);
    kdstorage::run(each, out, &mut v);
    kdtelem::run(each, &mut v);
    kdfault::run(each, &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
            }
        };
        let small = ns_per_call(Duration::from_millis(20), spin(1_000));
        let large = ns_per_call(Duration::from_millis(20), spin(8_000));
        assert!(large > 3.0 * small, "{small} ns vs {large} ns");
    }

    #[test]
    fn every_driver_reports_a_positive_number_for_a_listed_name() {
        let dir = std::env::temp_dir().join(format!("kdmark-layers-test-{}", std::process::id()));
        let values = run_all(Duration::from_millis(260), &dir);
        std::fs::remove_dir_all(&dir).ok();
        for (name, v) in &values {
            assert!(
                crate::metrics::PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in the per-layer table"
            );
            assert!(v.is_finite() && *v >= 0.0, "{name} = {v}");
        }
        let mut names: Vec<_> = values.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), values.len(), "a driver reported twice");
    }
}
