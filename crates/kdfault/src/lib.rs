//! `kdfault` — the deterministic fault-injection subsystem.
//!
//! The paper's protocols are *defined* by how they survive failure: §4.2.2
//! revokes RDMA access from crashed producers and prohibits holes, §4.3.2's
//! credit flow control bounds what a dead follower can strand, and a leader
//! change must fence stale one-sided writers that never observe it. This
//! crate provides the machinery to exercise those paths reproducibly:
//!
//! * a typed **fault taxonomy** ([`FaultKind`]) spanning every layer —
//!   broker crash/restart/failover (`kdbroker`), link down / partition /
//!   drop / delay on the TCP path (`netsim`), QP error / CQ overflow / RNR
//!   storm (`rnic`), and client crash (`kdclient`);
//! * **seeded fault plans** ([`FaultPlan::random`]): virtual-time schedules
//!   generated from a single `u64` seed with the in-tree RNG, so an entire
//!   chaos experiment is described by `(code, seed)` and replays
//!   bit-identically;
//! * an ambient **[`Injector`]** (mirroring `kdtelem`'s registry stack)
//!   that accounts every applied fault as counters under the `kdfault`
//!   component, so injected-fault totals appear in every
//!   `TelemetryReport` snapshot next to the metrics they perturb.
//!
//! Fault *targets* are abstract indices (broker index, fabric node id,
//! client index): `kdfault` depends only on `sim` and `kdtelem`, and the
//! cluster driver (in `core`) maps each [`FaultKind`] onto the concrete
//! layer capability — `Fabric::set_node_down`, `SimCluster::crash_broker`,
//! `QueuePair::close`, and so on. Plans generated by [`FaultPlan::random`]
//! are *recoverable by construction*: every crash schedules a restart,
//! every partition a heal, every drop a clear, so a bounded soak always
//! converges.

use std::cell::RefCell;
use std::rc::Rc;

use sim::rng::SimRng;

/// One typed fault. Targets are abstract indices resolved by the driver.
///
/// Integer encodings (`drop_permille`, `delay_us`) keep the type `Eq` and
/// hashable, which the deterministic-replay tests rely on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Kill a broker process: listeners unbind, QPs fail, grants revoke,
    /// volatile state is lost. Its segment buffers (the "disk") survive.
    BrokerCrash { broker: u32 },
    /// Restart a crashed broker: recover each partition log by CRC scan,
    /// truncate torn tails, rejoin replication.
    BrokerRestart { broker: u32 },
    /// Epoch-fenced leader change for one partition: bump the epoch,
    /// promote a follower, rotate the exposed rkey so stale producers'
    /// one-sided writes fault.
    FailOver { topic: String, partition: u32 },
    /// Take both ports of a fabric node down (TCP traffic fails).
    LinkDown { node: u32 },
    /// Bring a downed node's ports back up.
    LinkUp { node: u32 },
    /// Blackhole TCP traffic between two nodes, both directions.
    NetPartition { a: u32, b: u32 },
    /// Heal a [`NetPartition`](FaultKind::NetPartition).
    NetHeal { a: u32, b: u32 },
    /// Drop each TCP chunk leaving `node` with probability
    /// `drop_permille/1000`, from a private RNG stream seeded with `seed`.
    TcpDrop {
        node: u32,
        drop_permille: u16,
        seed: u64,
    },
    /// Add a fixed extra delay to every TCP chunk leaving `node`.
    TcpDelay { node: u32, delay_us: u32 },
    /// Clear drop/delay faults on `node`.
    LinkClear { node: u32 },
    /// Force a broker-side QP into the Error state (flushes CQEs, fails
    /// the peer — RC semantics).
    QpError { broker: u32 },
    /// Overflow a broker completion queue: attached QPs fail, pollers die.
    CqOverflow { broker: u32 },
    /// Receiver-not-ready storm against a broker for `duration_us`.
    RnrStorm { broker: u32, duration_us: u32 },
    /// Kill a client mid-operation (e.g. between reserving log space and
    /// writing it — the §4.2.2 "hole" scenario).
    ClientCrash { client: u32 },
    /// Garble the last `bytes` durable bytes of the active segment file of
    /// every partition hosted by a (crashed) tiered broker — a torn write
    /// caught mid-sector by the machine failure. No-op on memory-mode
    /// brokers. Recovery's CRC scan must truncate the damage at the last
    /// intact batch boundary.
    TornWrite { broker: u32, bytes: u32 },
}

impl FaultKind {
    /// Counter bucket this fault is accounted under.
    pub fn category(&self) -> &'static str {
        match self {
            FaultKind::BrokerCrash { .. } => "broker_crashes",
            FaultKind::BrokerRestart { .. } => "broker_restarts",
            FaultKind::FailOver { .. } => "failovers",
            FaultKind::LinkDown { .. }
            | FaultKind::LinkUp { .. }
            | FaultKind::NetPartition { .. }
            | FaultKind::NetHeal { .. }
            | FaultKind::TcpDrop { .. }
            | FaultKind::TcpDelay { .. }
            | FaultKind::LinkClear { .. } => "net_faults",
            FaultKind::QpError { .. }
            | FaultKind::CqOverflow { .. }
            | FaultKind::RnrStorm { .. } => "rnic_faults",
            FaultKind::ClientCrash { .. } => "client_crashes",
            FaultKind::TornWrite { .. } => "storage_faults",
        }
    }
}

/// A fault with its virtual-time trigger, relative to plan start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFault {
    pub at_ns: u64,
    pub kind: FaultKind,
}

/// Shape of a randomly generated plan.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Brokers in the cluster (fault targets are indices `0..brokers`;
    /// index 0 — the controller — is never crashed so topic metadata stays
    /// reachable).
    pub brokers: u32,
    /// Clients addressable by [`FaultKind::ClientCrash`]; 0 disables.
    pub clients: u32,
    /// Virtual-time window the plan's triggers fall in.
    pub horizon_ns: u64,
    /// Upper bound on generated fault *events* (pairs count as two).
    pub max_faults: usize,
    /// Allow [`FaultKind::FailOver`] of `topic`/partition 0.
    pub failover_topic: Option<String>,
    /// Allow broker crash/restart pairs.
    pub allow_broker_crash: bool,
    /// Insert a [`FaultKind::TornWrite`] between each crash and its
    /// restart (meaningful only for tiered-storage clusters). The extra
    /// RNG draws happen inside this branch, so enabling it never perturbs
    /// the fault stream of plans generated with it off.
    pub allow_torn_write: bool,
}

impl PlanConfig {
    pub fn new(brokers: u32, horizon_ns: u64) -> PlanConfig {
        PlanConfig {
            brokers,
            clients: 0,
            horizon_ns,
            max_faults: 8,
            failover_topic: None,
            allow_broker_crash: true,
            allow_torn_write: false,
        }
    }
}

/// A deterministic, virtual-time schedule of faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Generates a recoverable random plan from `seed`. The same
    /// `(seed, config)` always yields the same plan; nothing here reads
    /// ambient randomness or wall-clock time.
    pub fn random(seed: u64, cfg: &PlanConfig) -> FaultPlan {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xFA_17_5E_ED);
        let mut faults: Vec<ScheduledFault> = Vec::new();
        // Triggers stay in the first 60% of the horizon so paired recovery
        // events (restart/heal/clear) fit well inside it.
        let trigger_span = cfg.horizon_ns * 6 / 10;
        let recover_span = (cfg.horizon_ns / 5).max(1);
        // Torn-write riders don't count against the event budget: they are
        // zero-draw decorations of a crash, and counting them would shift
        // which later faults fit under `max_faults` versus a base plan.
        let mut torn = 0usize;
        while (faults.len() - torn) + 2 <= cfg.max_faults.max(2) {
            let at = rng.below(trigger_span.max(1));
            let heal_at = at + 1 + rng.below(recover_span);
            match (rng.below(6), &cfg.failover_topic) {
                (0, _) if cfg.allow_broker_crash && cfg.brokers > 1 => {
                    let broker = 1 + rng_below_u32(&mut rng, cfg.brokers - 1);
                    faults.push(ScheduledFault {
                        at_ns: at,
                        kind: FaultKind::BrokerCrash { broker },
                    });
                    if cfg.allow_torn_write {
                        // Tear the dead broker's active file before recovery
                        // reads it back. The size is derived from values
                        // already drawn (no extra RNG draws), so a
                        // torn-enabled plan is exactly the base plan plus
                        // the torn events.
                        let bytes = 1 + ((at ^ seed) % 512) as u32;
                        faults.push(ScheduledFault {
                            at_ns: at + 1,
                            kind: FaultKind::TornWrite { broker, bytes },
                        });
                        torn += 1;
                    }
                    faults.push(ScheduledFault {
                        at_ns: heal_at,
                        kind: FaultKind::BrokerRestart { broker },
                    });
                }
                (1, Some(topic)) => {
                    let topic = topic.clone();
                    faults.push(ScheduledFault {
                        at_ns: at,
                        kind: FaultKind::FailOver {
                            topic,
                            partition: 0,
                        },
                    });
                }
                (2, _) if cfg.brokers > 1 => {
                    let a = rng_below_u32(&mut rng, cfg.brokers);
                    let b = (a + 1 + rng_below_u32(&mut rng, cfg.brokers - 1)) % cfg.brokers;
                    faults.push(ScheduledFault {
                        at_ns: at,
                        kind: FaultKind::NetPartition { a, b },
                    });
                    faults.push(ScheduledFault {
                        at_ns: heal_at,
                        kind: FaultKind::NetHeal { a, b },
                    });
                }
                (3, _) => {
                    let node = rng_below_u32(&mut rng, cfg.brokers);
                    let drop_permille = 20 + rng.below(300) as u16;
                    let link_seed = rng.next_u64();
                    faults.push(ScheduledFault {
                        at_ns: at,
                        kind: FaultKind::TcpDrop {
                            node,
                            drop_permille,
                            seed: link_seed,
                        },
                    });
                    faults.push(ScheduledFault {
                        at_ns: heal_at,
                        kind: FaultKind::LinkClear { node },
                    });
                }
                (4, _) => {
                    let node = rng_below_u32(&mut rng, cfg.brokers);
                    let delay_us = 20 + rng.below(400) as u32;
                    faults.push(ScheduledFault {
                        at_ns: at,
                        kind: FaultKind::TcpDelay { node, delay_us },
                    });
                    faults.push(ScheduledFault {
                        at_ns: heal_at,
                        kind: FaultKind::LinkClear { node },
                    });
                }
                _ if cfg.clients > 0 => {
                    let client = rng_below_u32(&mut rng, cfg.clients);
                    faults.push(ScheduledFault {
                        at_ns: at,
                        kind: FaultKind::ClientCrash { client },
                    });
                }
                _ => {
                    // Roll that landed on a disabled category: inject a mild
                    // delay instead so every seed yields a non-empty plan.
                    let node = rng_below_u32(&mut rng, cfg.brokers);
                    faults.push(ScheduledFault {
                        at_ns: at,
                        kind: FaultKind::TcpDelay { node, delay_us: 50 },
                    });
                    faults.push(ScheduledFault {
                        at_ns: heal_at,
                        kind: FaultKind::LinkClear { node },
                    });
                }
            }
        }
        faults.sort_by_key(|x| x.at_ns);
        FaultPlan { seed, faults }
    }

    /// One-line human description (logged by the chaos harness).
    pub fn describe(&self) -> String {
        let kinds: Vec<String> = self
            .faults
            .iter()
            .map(|f| format!("{}us:{}", f.at_ns / 1000, f.kind.category()))
            .collect();
        format!("plan(seed={:#x}, {})", self.seed, kinds.join(" "))
    }
}

fn rng_below_u32(rng: &mut SimRng, n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        rng.below(u64::from(n)) as u32
    }
}

// ---------------------------------------------------------------------------
// Injection accounting: the ambient injector.
// ---------------------------------------------------------------------------

struct InjectorInner {
    injected_total: kdtelem::Counter,
    broker_crashes: kdtelem::Counter,
    broker_restarts: kdtelem::Counter,
    failovers: kdtelem::Counter,
    net_faults: kdtelem::Counter,
    rnic_faults: kdtelem::Counter,
    client_crashes: kdtelem::Counter,
    storage_faults: kdtelem::Counter,
}

/// Accounts applied faults as counters under the `kdfault` component of the
/// ambient `kdtelem` registry — injected-fault totals ship in every
/// [`kdtelem::TelemetryReport`] next to the metrics they perturb.
///
/// Mirrors `kdtelem`'s ambient-registry discipline: [`current`] returns the
/// innermost [`enter`]ed injector (or a process-wide default), so the
/// driver applying a fault plan needs no handle threading.
#[derive(Clone)]
pub struct Injector {
    inner: Rc<InjectorInner>,
}

impl Default for Injector {
    fn default() -> Self {
        Self::new()
    }
}

impl Injector {
    /// Creates an injector whose counters register in the ambient
    /// `kdtelem` registry (capture order matters: build the injector
    /// *after* entering the registry the experiment snapshots).
    pub fn new() -> Injector {
        let t = kdtelem::current();
        Injector {
            inner: Rc::new(InjectorInner {
                injected_total: t.counter("kdfault", "inject.total"),
                broker_crashes: t.counter("kdfault", "inject.broker_crashes"),
                broker_restarts: t.counter("kdfault", "inject.broker_restarts"),
                failovers: t.counter("kdfault", "inject.failovers"),
                net_faults: t.counter("kdfault", "inject.net_faults"),
                rnic_faults: t.counter("kdfault", "inject.rnic_faults"),
                client_crashes: t.counter("kdfault", "inject.client_crashes"),
                storage_faults: t.counter("kdfault", "inject.storage_faults"),
            }),
        }
    }

    /// Records one applied fault.
    pub fn record(&self, kind: &FaultKind) {
        self.inner.injected_total.inc();
        let c = match kind.category() {
            "broker_crashes" => &self.inner.broker_crashes,
            "broker_restarts" => &self.inner.broker_restarts,
            "failovers" => &self.inner.failovers,
            "net_faults" => &self.inner.net_faults,
            "rnic_faults" => &self.inner.rnic_faults,
            "storage_faults" => &self.inner.storage_faults,
            _ => &self.inner.client_crashes,
        };
        c.inc();
    }

    /// Total faults applied through this injector.
    pub fn injected_total(&self) -> u64 {
        self.inner.injected_total.get()
    }
}

thread_local! {
    static STACK: RefCell<Vec<Injector>> = const { RefCell::new(Vec::new()) };
    static DEFAULT: Injector = Injector::new();
}

/// The ambient injector: the innermost [`enter`]ed one, else the default.
pub fn current() -> Injector {
    STACK
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| DEFAULT.with(Clone::clone))
}

/// Guard returned by [`enter`]; pops the injector when dropped.
pub struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Pushes `injector` as the ambient one for the guard's lifetime.
pub fn enter(injector: &Injector) -> ScopeGuard {
    STACK.with(|s| s.borrow_mut().push(injector.clone()));
    ScopeGuard
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PlanConfig {
        PlanConfig {
            brokers: 3,
            clients: 2,
            horizon_ns: 50_000_000,
            max_faults: 8,
            failover_topic: Some("t".to_string()),
            allow_broker_crash: true,
            allow_torn_write: false,
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::random(42, &cfg());
        let b = FaultPlan::random(42, &cfg());
        assert_eq!(a, b);
        assert!(!a.faults.is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let plans: Vec<FaultPlan> = (0..16).map(|s| FaultPlan::random(s, &cfg())).collect();
        let distinct: std::collections::HashSet<String> =
            plans.iter().map(FaultPlan::describe).collect();
        assert!(distinct.len() > 8, "seeds barely diverge: {distinct:?}");
    }

    #[test]
    fn plans_are_sorted_and_within_horizon() {
        for seed in 0..64u64 {
            let p = FaultPlan::random(seed, &cfg());
            let mut last = 0;
            for f in &p.faults {
                assert!(f.at_ns >= last, "unsorted at seed {seed}");
                assert!(
                    f.at_ns <= cfg().horizon_ns,
                    "outside horizon at seed {seed}"
                );
                last = f.at_ns;
            }
        }
    }

    #[test]
    fn destructive_faults_always_recover() {
        for seed in 0..64u64 {
            let p = FaultPlan::random(seed, &cfg());
            for (i, f) in p.faults.iter().enumerate() {
                let later = &p.faults[i + 1..];
                match &f.kind {
                    FaultKind::BrokerCrash { broker } => assert!(
                        later
                            .iter()
                            .any(|g| g.kind == FaultKind::BrokerRestart { broker: *broker }),
                        "unrecovered crash at seed {seed}"
                    ),
                    FaultKind::NetPartition { a, b } => assert!(
                        later
                            .iter()
                            .any(|g| g.kind == FaultKind::NetHeal { a: *a, b: *b }),
                        "unhealed partition at seed {seed}"
                    ),
                    FaultKind::TcpDrop { node, .. } | FaultKind::TcpDelay { node, .. } => {
                        assert!(
                            later
                                .iter()
                                .any(|g| g.kind == FaultKind::LinkClear { node: *node }),
                            "uncleared link fault at seed {seed}"
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn torn_writes_pair_with_crashes_and_leave_old_plans_alone() {
        let base = cfg();
        let mut torn = cfg();
        torn.allow_torn_write = true;
        let mut saw_torn = false;
        for seed in 0..64u64 {
            let a = FaultPlan::random(seed, &base);
            let b = FaultPlan::random(seed, &torn);
            // Same stream with the torn events removed.
            let stripped: Vec<_> = b
                .faults
                .iter()
                .filter(|f| !matches!(f.kind, FaultKind::TornWrite { .. }))
                .cloned()
                .collect();
            assert_eq!(a.faults, stripped, "seed {seed}: torn flag perturbed plan");
            for (i, f) in b.faults.iter().enumerate() {
                if let FaultKind::TornWrite { broker, bytes } = f.kind {
                    saw_torn = true;
                    assert!(bytes >= 1);
                    assert!(
                        b.faults[..i]
                            .iter()
                            .any(|g| g.kind == FaultKind::BrokerCrash { broker }),
                        "torn write before its crash at seed {seed}"
                    );
                    assert!(
                        b.faults[i + 1..]
                            .iter()
                            .any(|g| g.kind == FaultKind::BrokerRestart { broker }),
                        "torn write without later restart at seed {seed}"
                    );
                }
            }
        }
        assert!(saw_torn, "no seed generated a torn write");
    }

    #[test]
    fn controller_is_never_crashed() {
        for seed in 0..64u64 {
            for f in FaultPlan::random(seed, &cfg()).faults {
                if let FaultKind::BrokerCrash { broker } = f.kind {
                    assert_ne!(broker, 0, "controller crashed at seed {seed}");
                }
            }
        }
    }

    #[test]
    fn injector_counters_land_in_telemetry_report() {
        let registry = kdtelem::Registry::new();
        let _t = kdtelem::enter(&registry);
        let injector = Injector::new();
        let _i = enter(&injector);

        let inj = current();
        inj.record(&FaultKind::BrokerCrash { broker: 1 });
        inj.record(&FaultKind::BrokerRestart { broker: 1 });
        inj.record(&FaultKind::TcpDelay {
            node: 0,
            delay_us: 10,
        });
        inj.record(&FaultKind::FailOver {
            topic: "t".into(),
            partition: 0,
        });

        let snap = registry.snapshot();
        assert_eq!(snap.counter("kdfault", "inject.total"), Some(4));
        assert_eq!(snap.counter("kdfault", "inject.broker_crashes"), Some(1));
        assert_eq!(snap.counter("kdfault", "inject.broker_restarts"), Some(1));
        assert_eq!(snap.counter("kdfault", "inject.net_faults"), Some(1));
        assert_eq!(snap.counter("kdfault", "inject.failovers"), Some(1));
        assert_eq!(inj.injected_total(), 4);
    }

    #[test]
    fn ambient_stack_nests() {
        let registry = kdtelem::Registry::new();
        let _t = kdtelem::enter(&registry);
        let outer = Injector::new();
        let g1 = enter(&outer);
        {
            let inner = Injector::new();
            let _g2 = enter(&inner);
            current().record(&FaultKind::ClientCrash { client: 0 });
            assert_eq!(inner.injected_total(), 1);
            assert_eq!(outer.injected_total(), 0);
        }
        current().record(&FaultKind::ClientCrash { client: 1 });
        assert_eq!(outer.injected_total(), 1);
        drop(g1);
    }
}
