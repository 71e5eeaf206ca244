//! Runs a workload the two ways the contract asks for (`--trace 0`: the
//! end-to-end metrics from untraced repeats; `--trace 1`: the per-layer
//! metrics from the layer drivers and a traced repeat), turns repeats into
//! named metrics and prints them.

use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use kdtelem::critpath::Stage;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probe::{Probe, Span};
use crate::stats::{median, percentile, quartiles, supported};
use crate::workloads::{run_named, Ctx, Exact, Repeat, Scale, WORKLOADS};
use crate::{layers, Args};

/// Fewest measured repeats of a full run, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;
/// Host time per record is reported at this percentile of the repeats of a
/// run (nearest rank: the fastest of 3, the third-fastest of 30). On a shared
/// host, slow-downs from neighbours are one-sided and last for seconds; the
/// low tail of the repeats reads the same from run to run where the median
/// does not. The quartiles of the same samples are printed and stored.
const HOST_PERCENTILE: f64 = 0.1;
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u32 = 10;

fn ctx(args: &Args, scale: Scale, traced: bool, readback: bool) -> Ctx {
    Ctx {
        seed: args.seed,
        scale,
        probe: Rc::new(Probe::new(traced)),
        readback,
    }
}

fn per(total: u64, n: u64) -> f64 {
    total as f64 / n.max(1) as f64
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(p50, p99 or the highest percentile the sample supports, that
/// percentile)` of virtual latency samples, in µs.
fn latency_us(samples: &[u64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let p = supported(0.99, sorted.len());
    (
        percentile(&sorted, 0.5) as f64 / 1e3,
        percentile(&sorted, p) as f64 / 1e3,
        p,
    )
}

fn goodput_mibps(x: &Exact) -> f64 {
    x.outcome.goodput_bytes as f64 / (1u64 << 20) as f64 / (x.outcome.goodput_v_ns as f64 / 1e9)
}

/// Everything that makes a run incorrect, as messages for standard error.
fn problems(first: &Exact, others: &[&Exact], warm_failures: u64) -> Vec<String> {
    let mut out = Vec::new();
    if first.outcome.failed > 0 {
        out.push(format!(
            "{} of {} operations failed",
            first.outcome.failed, first.outcome.attempted
        ));
    }
    if warm_failures > 0 {
        out.push(format!("read-back found {warm_failures} bad records"));
    }
    if let Some(e) = &first.claim_error {
        out.push(format!("claim broken: {e}"));
    }
    if first.outcome.lat_ns.is_empty() || first.outcome.goodput_v_ns == 0 {
        out.push("measured region produced no samples".to_string());
    }
    let mut differing: Vec<&str> = others.iter().flat_map(|x| first.diff(x)).collect();
    differing.sort_unstable();
    differing.dedup();
    if !differing.is_empty() {
        let n = others.iter().filter(|x| **x != first).count();
        out.push(format!(
            "{n} of {} repeats differ from the first in: {}",
            others.len(),
            differing.join(", ")
        ));
    }
    out
}

fn result_line(correct: bool, x: &Exact, extra_failed: u64, metrics: &[(&str, &str, f64)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(x.outcome.attempted.max(1) as f64)),
        (
            "failed",
            Json::Num((x.outcome.failed + extra_failed) as f64),
        ),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, v)| {
                (
                    *name,
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ])
}

fn write_out(dir: &Path, file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    if args.trace {
        run_layers(name, args)
    } else {
        run_end_to_end(name, args)
    }
}

// ---------------------------------------------------------------------------
// --trace 0
// ---------------------------------------------------------------------------

fn run_end_to_end(name: &str, args: &Args) -> Result<bool, String> {
    let scale = if args.smoke {
        Scale::Twentieth
    } else {
        Scale::Full
    };
    // Discarded warm repeat: thread-local pools fill, lazy set-up finishes,
    // and the whole partition is read back and checked once.
    let warm = run_named(name, &ctx(args, scale, false, true));

    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut repeats: Vec<Repeat> = Vec::new();
    loop {
        repeats.push(run_named(name, &ctx(args, scale, false, false)));
        let enough = if args.smoke { 1 } else { MIN_REPEATS };
        if repeats.len() >= enough && (args.smoke || started.elapsed() >= budget) {
            break;
        }
    }

    let first = &repeats[0].exact;
    let others: Vec<&Exact> = repeats[1..].iter().map(|r| &r.exact).collect();
    let issues = problems(first, &others, warm.exact.late_failures);
    for issue in &issues {
        eprintln!("kdmark: {name}: {issue}");
    }

    let records = first.outcome.records;
    let host: Vec<f64> = repeats.iter().map(|r| per(r.host_ns, records)).collect();
    let setup: Vec<f64> = repeats
        .iter()
        .map(|r| r.setup_host_ns as f64 / 1e9)
        .collect();
    let mut host_sorted = host.clone();
    host_sorted.sort_by(f64::total_cmp);
    let (p50, p99, p_used) = latency_us(&first.outcome.lat_ns);
    let values = [
        goodput_mibps(first),
        p50,
        p99,
        per(first.polls, records),
        per(repeats[0].allocs, records),
        percentile(&host_sorted, HOST_PERCENTILE),
        peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
        median(&setup),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();

    let (h1, h2, h3) = quartiles(&host);
    let (s1, s2, s3) = quartiles(&setup);
    println!(
        "# {name}  seed {}  {} repeats x {records} records",
        args.seed,
        repeats.len()
    );
    for (metric, unit, v) in &metrics {
        println!("{metric:<22} {v:>16.4} {unit}");
    }
    println!(
        "# host_ns_per_record quartiles {h1:.1} / {h2:.1} / {h3:.1} over {} repeats; setup_s {s1:.4} / {s2:.4} / {s3:.4}",
        repeats.len()
    );
    println!(
        "# latency: {} samples, tail reported at p{:.2}; failed {} of {}",
        first.outcome.lat_ns.len(),
        p_used * 100.0,
        first.outcome.failed + warm.exact.late_failures,
        first.outcome.attempted
    );

    let line = result_line(issues.is_empty(), first, warm.exact.late_failures, &metrics);
    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(args.seed as f64)),
        ("repeats", Json::Num(repeats.len() as f64)),
        ("records_per_repeat", Json::Num(records as f64)),
        (
            "latency_samples",
            Json::Num(first.outcome.lat_ns.len() as f64),
        ),
        ("latency_tail_percentile", Json::Num(p_used * 100.0)),
        (
            "host_ns_per_record_samples",
            Json::Arr(host.iter().map(|v| Json::Num(*v)).collect()),
        ),
        (
            "setup_s_samples",
            Json::Arr(setup.iter().map(|v| Json::Num(*v)).collect()),
        ),
        (
            "problems",
            Json::Arr(issues.iter().map(Json::str).collect()),
        ),
        ("result", line.clone()),
    ]);
    write_out(
        &args.out,
        &format!("{name}.e2e.json"),
        &(detail.emit() + "\n"),
    )?;
    println!("{}", line.emit());
    Ok(true)
}

// ---------------------------------------------------------------------------
// --trace 1
// ---------------------------------------------------------------------------

/// Paper value the workload's probe is compared with: `(value, what)`.
fn paper_anchor(name: &str) -> Option<(f64, &'static str)> {
    match name {
        "produce_small" => Some((90.0, "Fig 10 KafkaDirect 64 B produce latency, us")),
        "produce_large" => Some((
            1.65 * 1024.0,
            "Fig 11 KafkaDirect 32 KiB produce goodput, MiB/s",
        )),
        "produce_tcp" => Some((
            3.3 * 90.0,
            "Fig 10 Kafka produce latency, us (derived: 3.3 x KafkaDirect)",
        )),
        "pubsub_repl" => Some((100.0, "Fig 14 3-way replicated produce latency, us")),
        "consume_catchup" => Some((4.2, "Fig 18 one-record RDMA fetch latency, us")),
        _ => None,
    }
}

fn span_median(spans: &[Span], name: &str, pick: impl Fn(&Span) -> u64) -> Option<f64> {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| pick(s) as f64)
        .collect();
    (!v.is_empty()).then(|| median(&v))
}

fn span_sum(spans: &[Span], names: &[&str], pick: impl Fn(&Span) -> u64) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| pick(s) as f64)
        .sum()
}

fn run_layers(name: &str, args: &Args) -> Result<bool, String> {
    let (scale, full) = if args.smoke {
        (Scale::Twentieth, Scale::Twentieth)
    } else {
        (Scale::Eighth, Scale::Full)
    };
    // The warm repeat runs at full size: it is also the read-back check, and
    // the one place a per-layer count that needs the whole run comes from.
    let warm = run_named(name, &ctx(args, full, false, true));

    // Untraced/traced twins, alternating, for half the time; the layer
    // drivers get the rest.
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut plain: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    loop {
        plain.push(run_named(name, &ctx(args, scale, false, false)));
        if let Some(t) = traced.last_mut().and_then(|r| r.trace.as_mut()) {
            t.shed();
        }
        traced.push(run_named(name, &ctx(args, scale, true, false)));
        if args.smoke || started.elapsed() >= budget / 2 {
            break;
        }
    }
    let driver_budget = if args.smoke {
        Duration::from_millis(500)
    } else {
        budget.saturating_sub(started.elapsed()).max(budget / 4)
    };
    let drivers = layers::run_all(driver_budget, &args.out);

    let x = &plain[0].exact;
    let others: Vec<&Exact> = plain[1..].iter().map(|r| &r.exact).collect();
    let mut issues = problems(x, &others, warm.exact.late_failures);
    // Tracing must not move the simulation: same virtual results and polls.
    for t in &traced {
        let tx = &t.exact;
        if tx.outcome != x.outcome || tx.polls != x.polls || tx.v_region_ns != x.v_region_ns {
            issues.push("traced repeat differs from its untraced twin in virtual time".to_string());
            break;
        }
    }
    let last = traced.last().expect("one traced repeat");
    let t = last
        .trace
        .as_ref()
        .expect("traced repeat carries its trace");
    issues.extend(t.problems());
    for issue in &issues {
        eprintln!("kdmark: {name}: {issue}");
    }

    let records = x.outcome.records;
    let med = |values: &mut dyn Iterator<Item = f64>| median(&values.collect::<Vec<_>>());
    let host_traced = med(&mut traced.iter().map(|r| per(r.host_ns, records)));
    // Twin by twin: neighbouring repeats see the same machine state.
    let trace_overhead = med(&mut plain
        .iter()
        .zip(&traced)
        .map(|(p, t)| t.host_ns as f64 / p.host_ns as f64 - 1.0));
    let traces = || traced.iter().filter_map(|r| r.trace.as_ref());
    let client_host = med(&mut traces().map(|t| per(t.client_host_ns, records)));
    let loadgen_host = med(&mut traces().map(|t| per(t.loadgen_host_ns, records)));
    let extra = |key: &str| {
        x.outcome
            .extras
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    };
    let (p50, _, _) = latency_us(&x.outcome.lat_ns);
    let w1_us = extra("core.anchor_probe_us").unwrap_or(p50);
    let paper_err = paper_anchor(name).map(|(paper, _)| {
        let simulated = if name == "produce_large" {
            goodput_mibps(x)
        } else {
            w1_us
        };
        100.0 * (simulated - paper).abs() / paper
    });
    let spans = t.spans();
    let cq = t.cq_batch;

    let mut values: Vec<(&str, Option<f64>)> = vec![
        (
            "sim.host_ns_per_poll",
            Some(med(&mut plain
                .iter()
                .map(|r| per(r.host_ns, r.exact.polls)))),
        ),
        (
            "sim.v_sched_ns_per_record",
            t.stage_ns_per_record(Stage::Sched),
        ),
        (
            "netsim.v_link_queue_ns_per_record",
            t.stage_ns_per_record(Stage::LinkQueue),
        ),
        (
            "netsim.v_link_prop_ns_per_record",
            t.stage_ns_per_record(Stage::LinkPropagation),
        ),
        (
            "rnic.v_doorbell_ns_per_record",
            t.stage_ns_per_record(Stage::Doorbell),
        ),
        (
            "rnic.v_nic_service_ns_per_record",
            t.stage_ns_per_record(Stage::NicService),
        ),
        (
            "rnic.recv_buffer_bytes_per_conn",
            Some(per(x.nic.recv_buffer_bytes_peak, x.nic.qp_contexts_peak)),
        ),
        ("rnic.qp_contexts_peak", Some(x.nic.qp_contexts_peak as f64)),
        (
            "rnic.nic_cache_miss_pct",
            Some(100.0 * x.nic.cache_miss_rate),
        ),
        ("rnic.rnr_events", Some(t.rnr_events as f64)),
        (
            "kdstorage.segment_rolls",
            Some(warm.exact.brokers.segments as f64),
        ),
        ("kdtelem.trace_overhead_pct", Some(100.0 * trace_overhead)),
        (
            "kdtelem.trace_events_per_record",
            Some(per(t.events as u64, records)),
        ),
        (
            "kdbroker.v_cpu_us_per_record",
            Some(per(x.brokers.cpu_ns(), records) / 1e3),
        ),
        (
            "kdbroker.copied_bytes_per_record",
            Some(per(x.brokers.heap_copied_bytes, records)),
        ),
        (
            "kdbroker.v_commit_ns_per_record",
            t.stage_ns_per_record(Stage::Commit),
        ),
        (
            "kdbroker.v_ack_ns_per_record",
            t.stage_ns_per_record(Stage::Ack),
        ),
        (
            "kdbroker.v_repl_ns_per_record",
            t.stage_ns_per_record(Stage::Replication),
        ),
        // Fetches root their own lifelines, which critpath does not fold yet
        // (ROADMAP item 2): nothing to report until it does.
        ("kdbroker.v_fetch_ns_per_record", None),
        (
            "kdbroker.v_cpu_copy_ns_per_record",
            t.stage_ns_per_record(Stage::CpuCopy),
        ),
        ("kdbroker.cq_batch_mean", cq.map(|h| h.mean)),
        ("kdbroker.cq_batch_p50", cq.map(|h| h.p50 as f64)),
        (
            "kdbroker.worker_busy_ns_per_record",
            Some(per(x.brokers.worker_busy_ns, records)),
        ),
        (
            "kdbroker.net_busy_ns_per_record",
            Some(per(x.brokers.net_busy_ns, records)),
        ),
        ("kdbroker.repl_lag_peak", t.repl_lag_peak.map(|v| v as f64)),
        (
            "kdbroker.produce_aborts",
            Some(x.brokers.produce_aborts as f64),
        ),
        (
            "kdbroker.grants_revoked",
            Some(x.brokers.grants_revoked as f64),
        ),
        (
            "kdclient.v_staging_ns_per_record",
            t.stage_ns_per_record(Stage::ClientStaging),
        ),
        ("kdclient.host_ns_per_record", Some(client_host)),
        (
            "kdclient.connect_v_us",
            span_median(spans, "connect", |s| s.v_end_ns - s.v_start_ns).map(|v| v / 1e3),
        ),
        (
            "kdclient.connect_host_us",
            span_median(spans, "connect", |s| s.h_end_ns - s.h_start_ns).map(|v| v / 1e3),
        ),
        (
            "kdclient.empty_polls_pct",
            extra("kdclient.empty_polls_pct"),
        ),
        ("kdclient.v_w1_lat_us", Some(w1_us)),
        (
            "core.cluster_boot_host_ms",
            Some(
                span_sum(spans, &["cluster.start", "create_topic"], |s| {
                    s.h_end_ns - s.h_start_ns
                }) / 1e6,
            ),
        ),
        (
            "core.cluster_boot_v_us",
            Some(
                span_sum(spans, &["cluster.start", "create_topic"], |s| {
                    s.v_end_ns - s.v_start_ns
                }) / 1e3,
            ),
        ),
        (
            "core.other_tasks_host_ns_per_record",
            Some((host_traced - client_host - loadgen_host).max(0.0)),
        ),
        (
            "core.alloc_bytes_per_record",
            Some(per(plain[0].alloc_bytes, records)),
        ),
        ("core.paper_err_pct", paper_err),
        (
            "core.failed_ops_pct",
            Some(
                100.0
                    * per(
                        x.outcome.failed + warm.exact.late_failures,
                        x.outcome.attempted,
                    ),
            ),
        ),
        ("loadgen.gen_lag_p99_us", extra("loadgen.gen_lag_p99_us")),
        ("loadgen.host_ns_per_record", Some(loadgen_host)),
        (
            "loadgen.backlog_end_records",
            extra("loadgen.backlog_end_records"),
        ),
    ];
    values.extend(drivers.iter().map(|(k, v)| (*k, Some(*v))));

    // In table order; a name the table lists but nothing produced is a bug.
    let mut metrics: Vec<(&str, &str, f64)> = Vec::with_capacity(PER_LAYER.len());
    let mut nulls: Vec<&str> = Vec::new();
    for m in &PER_LAYER {
        let v = values
            .iter()
            .find(|(k, _)| *k == m.name)
            .unwrap_or_else(|| panic!("no value computed for {}", m.name))
            .1;
        if v.is_none() {
            nulls.push(m.name);
        }
        // The result line carries numbers only: "not applicable here" reads
        // 0 there and `null` in the files under `out/`.
        metrics.push((m.name, m.unit, v.unwrap_or(0.0)));
    }

    println!(
        "# {name}  seed {}  traced at {:?} scale: {records} records, {} twins, {} lifelines, {} events ({} checked), digest {:016x}",
        args.seed,
        scale,
        traced.len(),
        t.lifelines,
        t.events,
        t.checked_events,
        t.digest
    );
    for (metric, unit, v) in &metrics {
        if nulls.contains(metric) {
            println!("{metric:<40} {:>16} {unit}", "null");
        } else {
            println!("{metric:<40} {v:>16.4} {unit}");
        }
    }

    let line = result_line(issues.is_empty(), x, warm.exact.late_failures, &metrics);
    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(args.seed as f64)),
        ("records_per_repeat", Json::Num(records as f64)),
        ("twins", Json::Num(traced.len() as f64)),
        ("trace_digest", Json::str(format!("{:016x}", t.digest))),
        ("trace_events", Json::Num(t.events as f64)),
        ("setup_trace_events", Json::Num(t.setup_events as f64)),
        ("checked_events", Json::Num(t.checked_events as f64)),
        ("lifelines", Json::Num(t.lifelines as f64)),
        (
            "paper_anchor",
            paper_anchor(name).map_or(Json::Null, |(v, what)| {
                Json::obj([("value", Json::Num(v)), ("what", Json::str(what))])
            }),
        ),
        (
            "per_layer",
            Json::obj(metrics.iter().map(|(k, unit, v)| {
                let value = if nulls.contains(k) {
                    Json::Null
                } else {
                    Json::Num(*v)
                };
                (
                    *k,
                    Json::obj([("value", value), ("unit", Json::str(*unit))]),
                )
            })),
        ),
        (
            "problems",
            Json::Arr(issues.iter().map(Json::str).collect()),
        ),
        ("result", line.clone()),
    ]);
    write_out(
        &args.out,
        &format!("{name}.layers.json"),
        &(detail.emit() + "\n"),
    )?;
    write_out(&args.out, &format!("{name}.trace.json"), &t.chrome_json())?;
    println!("{}", line.emit());
    Ok(true)
}

// ---------------------------------------------------------------------------
// Every workload, one child process per run.
// ---------------------------------------------------------------------------

fn child(exe: &Path, name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // Standard error passes through; `output` waits for the child to end.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "{name} --trace {} exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))
}

pub fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for (name, why) in &WORKLOADS {
        let e2e = child(&exe, name, args, false)?;
        let layers = child(&exe, name, args, true)?;
        for r in [&e2e, &layers] {
            all_correct &= r.get("correct") == Some(&Json::Bool(true));
        }
        let digest = std::fs::read_to_string(args.out.join(format!("{name}.layers.json")))
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .and_then(|d| d.get("trace_digest").cloned())
            .unwrap_or(Json::Null);
        per_workload.push((
            *name,
            Json::obj([
                ("why", Json::str(*why)),
                ("end_to_end", e2e),
                ("per_layer", layers),
                ("trace_digest", digest),
            ]),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(per_workload)),
    ]);
    write_out(&args.out, "result.json", &(doc.emit() + "\n"))?;
    println!(
        "# kdmark: {} workloads in {:.1} s, all correct: {all_correct}; wrote {}",
        WORKLOADS.len(),
        started.elapsed().as_secs_f64(),
        args.out.join("result.json").display()
    );
    Ok(all_correct)
}

/// `BENCHMARK.json`, generated from the tables so the two cannot disagree.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let block = |key: &str, rows: Vec<Json>, last: bool| {
        let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.emit())).collect();
        format!(
            "  \"{key}\": [\n{}\n  ]{}\n",
            body.join(",\n"),
            if last { "" } else { "," }
        )
    };
    out.push_str(&block(
        "workloads",
        WORKLOADS
            .iter()
            .map(|(n, w)| Json::obj([("name", Json::str(*n)), ("why", Json::str(*w))]))
            .collect(),
        false,
    ));
    out.push_str(&block(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better)),
                    ("bound", Json::Num(m.bound)),
                ])
            })
            .collect(),
        false,
    ));
    out.push_str(&block(
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better)),
                ])
            })
            .collect(),
        true,
    ));
    out.push('}');
    out
}
