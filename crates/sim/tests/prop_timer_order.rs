//! Property: timers registered at different instants expire in exact
//! `(effective deadline, insertion order)` order, for arbitrary
//! interleavings of registration times and deadline offsets — including
//! "late" deadlines at or before the registering instant, which must fire
//! immediately in insertion order.
//!
//! A case is a set of deliveries. Each becomes a task, spawned in the
//! canonical `(deliver_at, stream, seq)` order, that sleeps until
//! `deliver_at` and then registers its timers in payload order, one waiting
//! task each. The model is computed without running anything: a timer's
//! effective deadline is `max(target, deliver_at)` — the wheel clamps late
//! timers to "now" — and the observed wake order must equal the model's
//! stable sort by `(effective deadline, global insertion index)`.

use std::cell::RefCell;
use std::rc::Rc;
use std::task::Poll;

use sim::SimTime;

/// Time unit of the generator: deliveries spread over 20 of these, sleep
/// offsets over 3.
const UNIT_NS: u64 = 650;

struct Delivery {
    deliver_at: u64,
    stream: u64,
    /// Sleep targets as signed offsets from the delivery time; negative
    /// offsets are "late" timers that must fire at the delivery instant.
    sleepers: Vec<i64>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates one random scenario: `n` deliveries with heavy collisions in
/// both delivery time and deadline.
fn gen_case(seed: u64, n: usize) -> Vec<Delivery> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let deliver_at = UNIT_NS + splitmix(&mut s) % (20 * UNIT_NS);
            // Few distinct streams so same-(deliver_at, stream) seq ties occur.
            let stream = splitmix(&mut s) % 4;
            let sleepers = (0..(splitmix(&mut s) % 4))
                .map(|_| {
                    let magnitude = (splitmix(&mut s) % (3 * UNIT_NS)) as i64;
                    // A third of the targets are late (at/before delivery).
                    if splitmix(&mut s).is_multiple_of(3) {
                        -magnitude
                    } else {
                        magnitude
                    }
                })
                .collect();
            Delivery {
                deliver_at,
                stream,
                sleepers,
            }
        })
        .collect()
}

/// Indices into `case` in canonical delivery order: `(deliver_at, stream,
/// seq per stream)`.
fn canonical_order(case: &[Delivery]) -> Vec<usize> {
    let mut order: Vec<(u64, u64, u64, usize)> = Vec::new();
    let mut per_stream_seq = std::collections::HashMap::new();
    for (i, d) in case.iter().enumerate() {
        let seq = per_stream_seq.entry(d.stream).or_insert(0u64);
        order.push((d.deliver_at, d.stream, *seq, i));
        *seq += 1;
    }
    order.sort();
    order.into_iter().map(|(_, _, _, i)| i).collect()
}

/// The expected wake sequence: (wake time, insertion index) pairs in the
/// exact order the runtime must produce them.
fn model(case: &[Delivery]) -> Vec<(u64, usize)> {
    let mut expected = Vec::new();
    for i in canonical_order(case) {
        let deliver_at = case[i].deliver_at as i64;
        for &off in &case[i].sleepers {
            let effective = (deliver_at + off).max(deliver_at) as u64;
            let idx = expected.len();
            expected.push((effective, idx));
        }
    }
    expected.sort(); // exact expiry key: (deadline, insertion index)
    expected
}

/// Deliveries and deadlines on, just below and just above the boundaries of
/// the timer wheel's levels (`k * 64^L` ns, `L` = 1..=6, `k` = 1..=3), so a
/// timer is often filed a level or more above the one it fires from and
/// cascades down through each digit of the clock that changes on the way:
/// what the wheel's one pass per fired instant has to get right.
fn gen_boundary_case(seed: u64, n: usize) -> Vec<Delivery> {
    let mut s = seed;
    let near_boundary = |s: &mut u64| {
        let unit = 1u64 << (6 * (1 + splitmix(s) % 6));
        (1 + splitmix(s) % 3) * unit + splitmix(s) % 5 - 2
    };
    (0..n)
        .map(|_| {
            let deliver_at = near_boundary(&mut s);
            let stream = splitmix(&mut s) % 4;
            let sleepers = (0..(splitmix(&mut s) % 4))
                .map(|_| near_boundary(&mut s) as i64 - deliver_at as i64)
                .collect();
            Delivery {
                deliver_at,
                stream,
                sleepers,
            }
        })
        .collect()
}

/// Runs `case` on a runtime seeded `seed` and returns the observed wake
/// sequence: (wake time, insertion index) pairs in the order they happened.
fn observe(seed: u64, case: Vec<Delivery>) -> Vec<(u64, usize)> {
    // Outlive every delivery and every (possibly late) sleep.
    let end = case
        .iter()
        .flat_map(|d| {
            d.sleepers
                .iter()
                .map(|&off| (d.deliver_at as i64 + off) as u64)
        })
        .chain(case.iter().map(|d| d.deliver_at))
        .max()
        .unwrap_or(0)
        + 1;
    let rt = sim::Runtime::with_seed(seed);
    rt.block_on(async move {
        let wakes: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut base_idx = 0usize;
        for i in canonical_order(&case) {
            let deliver_at = case[i].deliver_at;
            let sleepers = case[i].sleepers.clone();
            let wakes = Rc::clone(&wakes);
            let base = base_idx;
            base_idx += sleepers.len();
            sim::spawn_detached(async move {
                sim::time::sleep_until(SimTime::from_nanos(deliver_at)).await;
                for (j, &off) in sleepers.iter().enumerate() {
                    let target = deliver_at as i64 + off;
                    let wakes = Rc::clone(&wakes);
                    sim::spawn_detached(async move {
                        // Straight to the wheel: `sleep_until` returns at
                        // once for a late target and never registers it.
                        let at = SimTime::from_nanos(target.max(0) as u64);
                        let mut armed = false;
                        std::future::poll_fn(|cx| {
                            if std::mem::replace(&mut armed, true) {
                                return Poll::Ready(());
                            }
                            sim::time::wake_at(at, cx.waker());
                            Poll::Pending
                        })
                        .await;
                        wakes.borrow_mut().push((sim::now().as_nanos(), base + j));
                    });
                }
            });
        }
        sim::time::sleep_until(SimTime::from_nanos(end)).await;
        wakes.take()
    })
}

#[test]
fn timers_registered_at_different_instants_expire_in_deadline_seq_order() {
    for seed in [1u64, 7, 42, 1234, 0xDEAD_BEEF] {
        let case = gen_case(seed, 60);
        let expected = model(&case);
        assert!(!expected.is_empty());
        assert_eq!(
            observe(seed, case),
            expected,
            "seed {seed}: wake order diverged from (deadline, insertion-seq) model"
        );
    }
}

#[test]
fn timers_across_wheel_level_boundaries_expire_in_deadline_seq_order() {
    for seed in [3u64, 11, 99, 4321, 0xFEED_F00D] {
        let case = gen_boundary_case(seed, 80);
        let expected = model(&case);
        assert!(!expected.is_empty());
        assert_eq!(
            observe(seed, case),
            expected,
            "seed {seed}: wake order across level boundaries diverged from the model"
        );
    }
}
