//! `sim`: timer wheel, wake path and task spawn of the executor.

use std::time::Duration;

use super::ns_per_call;

const OPS: u64 = 4_000;

pub fn run(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    // One task sleeping for short, varied durations: wheel insert + fire.
    let timer = ns_per_call(budget, || {
        let t = sim::Runtime::new().block_on(async {
            for i in 0..OPS {
                sim::time::sleep(Duration::from_nanos(1 + i % 97)).await;
            }
            sim::now().as_nanos()
        });
        std::hint::black_box(t);
    });
    out.push(("sim.timer_ns_per_op", timer / OPS as f64));

    // Two tasks handing a token back and forth: channel send + wake + poll.
    let wake = ns_per_call(budget, || {
        let n = sim::Runtime::new().block_on(async {
            let (to_b, mut from_a) = sim::sync::mpsc::unbounded::<u64>();
            let (to_a, mut from_b) = sim::sync::mpsc::unbounded::<u64>();
            let echo = sim::spawn(async move {
                while let Some(v) = from_a.recv().await {
                    if to_a.try_send(v + 1).is_err() {
                        break;
                    }
                }
            });
            let mut v = 0;
            for _ in 0..OPS / 2 {
                to_b.try_send(v).expect("echo task alive");
                v = from_b.recv().await.expect("echo");
            }
            drop(to_b);
            echo.await.expect("echo task");
            v
        });
        std::hint::black_box(n);
    });
    out.push(("sim.wake_ns_per_op", wake / OPS as f64));

    let spawn_all = || {
        let sum = sim::Runtime::new().block_on(async {
            let handles: Vec<_> = (0..OPS).map(|i| sim::spawn(async move { i })).collect();
            let mut sum = 0;
            for h in handles {
                sum += h.await.expect("task");
            }
            sum
        });
        std::hint::black_box(sum);
    };
    out.push((
        "sim.spawn_ns_per_task",
        ns_per_call(budget, spawn_all) / OPS as f64,
    ));
    let (a0, _) = crate::alloc::snapshot();
    spawn_all();
    let (a1, _) = crate::alloc::snapshot();
    out.push(("sim.spawn_allocs_per_task", (a1 - a0) as f64 / OPS as f64));
}
