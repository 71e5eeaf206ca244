//! The chaos driver: applies a deterministic [`kdfault::FaultPlan`] to a
//! running [`SimCluster`] at the scheduled virtual times.
//!
//! The driver is pure mechanism-dispatch — every fault kind maps onto the
//! injection hook of the layer that owns it (broker lifecycle, fabric
//! links, RNIC state). Each fault that actually fires is accounted through
//! the ambient [`kdfault::Injector`], so injected-fault totals land in the
//! same [`kdtelem::TelemetryReport`] as the metrics they perturb.

use std::time::Duration;

use kdfault::{FaultKind, FaultPlan};

use crate::cluster::SimCluster;

/// Plays a fault plan against the cluster, sleeping virtual time between
/// triggers. Run it concurrently with the workload (the workload tasks are
/// spawned, the driver is awaited — or vice versa). Returns the number of
/// faults that actually fired; a fault whose precondition no longer holds
/// (crashing an already-dead broker, failing over a partition with no live
/// follower) is skipped, which keeps randomly generated plans safe to
/// replay verbatim.
pub async fn run_plan(cluster: &SimCluster, plan: &FaultPlan) -> usize {
    let start = sim::now();
    let injector = kdfault::current();
    let mut applied = 0;
    for f in &plan.faults {
        sim::time::sleep_until(start + Duration::from_nanos(f.at_ns)).await;
        if apply_fault(cluster, &f.kind) {
            injector.record(&f.kind);
            applied += 1;
        }
    }
    applied
}

/// Applies one fault now. Returns whether it fired.
pub fn apply_fault(cluster: &SimCluster, kind: &FaultKind) -> bool {
    let node_of = |i: u32| cluster.broker_node(i as usize).id;
    match kind {
        FaultKind::BrokerCrash { broker } => {
            let b = cluster.broker(*broker as usize);
            if !b.is_alive() {
                return false;
            }
            b.crash();
            true
        }
        FaultKind::BrokerRestart { broker } => {
            if cluster.broker(*broker as usize).is_alive() {
                return false;
            }
            cluster.restart_broker(*broker as usize);
            true
        }
        FaultKind::FailOver { topic, partition } => cluster.fail_over(topic, *partition).is_some(),
        FaultKind::LinkDown { node } => {
            cluster.fabric.set_node_down(node_of(*node));
            true
        }
        FaultKind::LinkUp { node } => {
            cluster.fabric.set_node_up(node_of(*node));
            true
        }
        FaultKind::NetPartition { a, b } => {
            cluster.fabric.partition_pair(node_of(*a), node_of(*b));
            true
        }
        FaultKind::NetHeal { a, b } => {
            cluster.fabric.heal_pair(node_of(*a), node_of(*b));
            true
        }
        FaultKind::TcpDrop {
            node,
            drop_permille,
            seed,
        } => {
            cluster
                .fabric
                .set_tcp_drop(node_of(*node), f64::from(*drop_permille) / 1000.0, *seed);
            true
        }
        FaultKind::TcpDelay { node, delay_us } => {
            cluster
                .fabric
                .set_tcp_delay(node_of(*node), Duration::from_micros(u64::from(*delay_us)));
            true
        }
        FaultKind::LinkClear { node } => {
            cluster.fabric.clear_link_faults(node_of(*node));
            true
        }
        FaultKind::QpError { broker } => {
            // Fail the lowest-numbered client-facing produce QP (lowest qpn
            // for determinism — the map iterates in hash order).
            let b = cluster.broker(*broker as usize);
            let qp = {
                let qps = b.inner().produce_qps.borrow();
                qps.keys()
                    .min()
                    .copied()
                    .and_then(|qpn| qps.get(&qpn).cloned())
            };
            match qp {
                Some(qp) => {
                    qp.close();
                    true
                }
                None => false,
            }
        }
        FaultKind::CqOverflow { broker } => {
            let b = cluster.broker(*broker as usize);
            if !b.is_alive() {
                return false;
            }
            b.inner().recv_cq.inject_overflow();
            true
        }
        FaultKind::RnrStorm {
            broker,
            duration_us,
        } => {
            let b = cluster.broker(*broker as usize);
            let qp = {
                let qps = b.inner().produce_qps.borrow();
                qps.keys()
                    .min()
                    .copied()
                    .and_then(|qpn| qps.get(&qpn).cloned())
            };
            match qp {
                Some(qp) => {
                    qp.inject_rnr_storm(Duration::from_micros(u64::from(*duration_us)));
                    true
                }
                None => false,
            }
        }
        FaultKind::TornWrite { broker, bytes } => {
            // Only meaningful against the files of a tiered broker — and
            // only once it is down (a live broker would keep writing past
            // the tear). Garbles real file bytes; recovery reads them back.
            let b = cluster.broker(*broker as usize);
            if b.is_alive() {
                return false;
            }
            b.garble_storage_tail(*bytes) > 0
        }
        // Client processes live outside the cluster harness; the chaos test
        // harness resolves client indices itself and applies these before
        // handing the plan to `run_plan`.
        FaultKind::ClientCrash { .. } => false,
    }
}
