//! Scheduler-order determinism across the timer-wheel swap.
//!
//! `tests/golden/chaos_trace_digests.txt` holds one digest per chaos seed,
//! recorded from the pre-wheel executor (BinaryHeap timer queue). The digest
//! folds the full ordered trace-id stream — (trace_id, span_id, ts_ns) per
//! event — plus the final virtual time and the ack/consume sequences, so any
//! reordering the wheel introduces (even among same-timestamp events) fails
//! the comparison.
//!
//! Each line also carries `sorted=`, the same digest over the events sorted
//! by `(ts_ns, trace_id, span_id)`. It separates the two reasons the ordered
//! digest can move: a change of task topology re-shuffles events *inside*
//! an instant (ordered digest moves, `events=`, `end_ns=` and `sorted=` do
//! not); a change of virtual-time behaviour moves `sorted=` too.
//!
//! Re-record with `KD_RECORD_GOLDEN=1 cargo test --test wheel_determinism`
//! — `digest=` alone when a change intentionally alters the task topology
//! (and `sorted=` proves nothing else moved), the whole line only when a
//! change *intentionally* alters virtual-time behaviour (new sleeps), never
//! to paper over an unexplained divergence.
//!
//! Runs pin `cq_batch = 1`: the batched CQ-drain poller is specified to
//! degenerate to the pre-batching loop bit for bit at batch size 1, and
//! this golden comparison is what enforces that equivalence.

mod common;

/// Golden runs: default poller count, CQ batch pinned to 1.
fn run_golden_seed(seed: u64) -> common::Outcome {
    common::run_seed_with(seed, None, Some(1))
}

use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_line(seed: u64, o: &common::Outcome) -> String {
    format!(
        "seed={} events={} end_ns={} digest={:016x} sorted={:016x}",
        seed,
        o.events.len(),
        o.end_ns,
        o.digest(),
        o.sorted_digest()
    )
}

fn golden_path() -> PathBuf {
    // The owning package is crates/core; the golden lives beside the tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/chaos_trace_digests.txt")
}

#[test]
fn chaos_trace_digests_match_prewheel_golden() {
    let path = golden_path();
    if std::env::var("KD_RECORD_GOLDEN").is_ok() {
        let mut out = String::new();
        for &seed in &common::SEEDS {
            writeln!(out, "{}", golden_line(seed, &run_golden_seed(seed))).unwrap();
        }
        std::fs::write(&path, out).expect("write golden");
        return;
    }

    let golden = std::fs::read_to_string(&path)
        .expect("tests/golden/chaos_trace_digests.txt missing; record with KD_RECORD_GOLDEN=1");
    for (line, &seed) in golden.lines().zip(&common::SEEDS) {
        assert_eq!(
            golden_line(seed, &run_golden_seed(seed)),
            line,
            "seed {seed}: trace replay diverged from pre-wheel golden"
        );
    }
    assert_eq!(
        golden.lines().count(),
        common::SEEDS.len(),
        "golden file seed count mismatch"
    );
}
