//! The metric tables: every name kdmark prints, with its unit and direction.
//! `BENCHMARK.json` lists the same entries (a unit test compares them).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Virtual-time metrics and counters: a pure function of the seed, must
    /// repeat bit for bit inside a run and between runs of one tree.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("v_goodput_mibps", "MiB/s", "higher", 0.06, true),
    e2e("v_lat_p50_us", "us", "lower", 0.03, true),
    e2e("v_lat_p99_us", "us", "lower", 0.05, true),
    e2e("polls_per_record", "count", "lower", 0.04, true),
    e2e("allocs_per_record", "count", "lower", 0.04, true),
    e2e("host_ns_per_record", "ns", "lower", 0.25, false),
    e2e("peak_rss_mib", "MiB", "lower", 0.15, false),
    e2e("setup_s", "s", "lower", 0.25, false),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// Layer = crate name; `loadgen` = kdmark's own generator. `v_` = virtual
/// clock; everything else timed is host clock.
pub const PER_LAYER: [PerLayer; 70] = [
    // sim
    lower("sim.host_ns_per_poll", "ns"),
    lower("sim.timer_ns_per_op", "ns"),
    lower("sim.wake_ns_per_op", "ns"),
    lower("sim.spawn_ns_per_task", "ns"),
    lower("sim.spawn_allocs_per_task", "count"),
    lower("sim.v_sched_ns_per_record", "ns"),
    // kdbuf
    lower("kdbuf.pool_ns_per_get_put", "ns"),
    lower("kdbuf.scratch_ns_per_use", "ns"),
    // netsim
    lower("netsim.link_ns_per_packet", "ns"),
    lower("netsim.tcp_ns_per_mib", "ns"),
    lower("netsim.tcp_allocs_per_mib", "count"),
    lower("netsim.v_link_queue_ns_per_record", "ns"),
    lower("netsim.v_link_prop_ns_per_record", "ns"),
    // rnic
    lower("rnic.write_ns_per_wr", "ns"),
    lower("rnic.write_polls_per_wr", "count"),
    lower("rnic.write_allocs_per_wr", "count"),
    lower("rnic.write_ns_per_kib", "ns"),
    lower("rnic.read_ns_per_wr", "ns"),
    lower("rnic.sendrecv_ns_per_msg", "ns"),
    lower("rnic.connect_ns_per_qp", "ns"),
    lower("rnic.v_doorbell_ns_per_record", "ns"),
    lower("rnic.v_nic_service_ns_per_record", "ns"),
    lower("rnic.recv_buffer_bytes_per_conn", "B"),
    lower("rnic.qp_contexts_peak", "count"),
    lower("rnic.nic_cache_miss_pct", "%"),
    lower("rnic.rnr_events", "count"),
    // kdwire
    lower("kdwire.encode_ns_per_msg", "ns"),
    lower("kdwire.decode_ns_per_msg", "ns"),
    // kdstorage
    lower("kdstorage.append_ns_per_record", "ns"),
    lower("kdstorage.append_ns_per_kib", "ns"),
    lower("kdstorage.crc_ns_per_kib", "ns"),
    lower("kdstorage.decode_ns_per_record", "ns"),
    lower("kdstorage.segment_rolls", "count"),
    lower("kdstorage.file_append_ns_per_kib", "ns"),
    lower("kdstorage.cold_read_ns_per_kib", "ns"),
    // kdtelem
    lower("kdtelem.hist_ns_per_record", "ns"),
    lower("kdtelem.counter_ns_per_inc", "ns"),
    lower("kdtelem.trace_ns_per_event", "ns"),
    lower("kdtelem.trace_overhead_pct", "%"),
    lower("kdtelem.trace_events_per_record", "count"),
    // kdfault
    lower("kdfault.hook_ns_per_check", "ns"),
    // kdbroker
    lower("kdbroker.v_cpu_us_per_record", "us"),
    lower("kdbroker.copied_bytes_per_record", "B"),
    lower("kdbroker.v_commit_ns_per_record", "ns"),
    lower("kdbroker.v_ack_ns_per_record", "ns"),
    lower("kdbroker.v_repl_ns_per_record", "ns"),
    lower("kdbroker.v_fetch_ns_per_record", "ns"),
    lower("kdbroker.v_cpu_copy_ns_per_record", "ns"),
    higher("kdbroker.cq_batch_mean", "count"),
    higher("kdbroker.cq_batch_p50", "count"),
    lower("kdbroker.worker_busy_ns_per_record", "ns"),
    lower("kdbroker.net_busy_ns_per_record", "ns"),
    lower("kdbroker.repl_lag_peak", "count"),
    lower("kdbroker.produce_aborts", "count"),
    lower("kdbroker.grants_revoked", "count"),
    // kdclient
    lower("kdclient.v_staging_ns_per_record", "ns"),
    lower("kdclient.host_ns_per_record", "ns"),
    lower("kdclient.connect_v_us", "us"),
    lower("kdclient.connect_host_us", "us"),
    lower("kdclient.empty_polls_pct", "%"),
    lower("kdclient.v_w1_lat_us", "us"),
    // core
    lower("core.cluster_boot_host_ms", "ms"),
    lower("core.cluster_boot_v_us", "us"),
    lower("core.other_tasks_host_ns_per_record", "ns"),
    lower("core.alloc_bytes_per_record", "B"),
    lower("core.paper_err_pct", "%"),
    lower("core.failed_ops_pct", "%"),
    // loadgen
    lower("loadgen.gen_lag_p99_us", "us"),
    lower("loadgen.host_ns_per_record", "ns"),
    lower("loadgen.backlog_end_records", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;
    use std::collections::HashSet;

    /// The contract's rule for a name.
    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The contract's rule for a unit.
    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|(n, _)| (*n, "count")));
        for (name, unit) in all {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok(&"x".repeat(65)));
        assert!(!unit_ok("") && !unit_ok("µs") && unit_ok("1/s") && unit_ok("MiB/s"));
    }

    #[test]
    fn bounds_and_whys_fit_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
        for (name, why) in &WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
    }

    /// `BENCHMARK.json` and the tables above must not drift apart.
    #[test]
    fn benchmark_json_lists_exactly_these() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(layers, ours);

        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            [Json::str("benchmark")]
        );
    }
}
